//! Shared-memory allocation and access.
//!
//! The real TreadMarks detects accesses to shared memory with the virtual
//! memory hardware; this reproduction detects them in software at the same
//! granularity (the 4 KB page).  Every shared access is one of four generic
//! accessors over a [`Word`] type — [`Tmk::read`], [`Tmk::write`],
//! [`Tmk::read_slice`], [`Tmk::write_slice`] — and all four are one trap:
//! check the validity of the pages touched, run the fault path (diff request
//! / response / apply) for invalid pages, create twins on the first write of
//! an interval, then copy through `DsmState::load` or `DsmState::store`.
//! `Word` is [`cluster::Word`], re-exported: PVM's buffers pack the same
//! little-endian layout.
//! See README.md §Design notes for why this substitution preserves the
//! protocol behaviour the paper measures.
//!
//! Addresses are plain byte offsets into the shared heap, obtained from
//! [`Tmk::malloc`].  As long as all processes perform the same allocation
//! sequence (the SPMD convention used by every application in the study),
//! all processes agree on the addresses.

use crate::page::PageId;
use crate::process::Tmk;
use cluster::config::PAGE_SIZE;
pub use cluster::Word;

/// An address in the shared heap (a byte offset).
pub type SharedAddr = usize;

/// A free list of page-sized buffers.
///
/// Twins are created on the first write of every interval and discarded when
/// the interval closes, so a long run churns through page-sized allocations
/// at interval rate.  The pool recycles those buffers: a retired twin (or
/// any other page-sized buffer) goes back on the free list and the next
/// twin is written into it instead of a fresh allocation.
#[derive(Debug, Default)]
pub struct PagePool {
    free: Vec<Box<[u8]>>,
}

/// Retaining more free pages than this returns them to the allocator: the
/// pool's job is to absorb the steady-state twin churn, not to hold the
/// high-water mark of a burst forever.
const POOL_CAP: usize = 64;

/// A typed slab: stable `u32` handles into a free-list-recycled arena.
///
/// The diff store keys its ordered index (a `BTreeMap`, kept because serving
/// a request is a range scan over one page's keys) by slab handle instead of
/// holding each value inline: map nodes stay small — splits and rebalances
/// move a few `u32`s, not whole diffs — and the insert/GC churn of a long
/// run recycles slots instead of going back to the allocator for every
/// retained diff.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Store `value` and return its handle (a recycled slot if one is free).
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.entries[i as usize].is_none());
                self.entries[i as usize] = Some(value);
                i
            }
            None => {
                self.entries.push(Some(value));
                (self.entries.len() - 1) as u32
            }
        }
    }

    /// Remove and return the value behind `handle`, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle is vacant (double free).
    pub fn remove(&mut self, handle: u32) -> T {
        let v = self.entries[handle as usize]
            .take()
            .expect("slab handle removed twice");
        self.free.push(handle);
        v
    }

    /// The value behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is vacant.
    pub fn get(&self, handle: u32) -> &T {
        self.entries[handle as usize]
            .as_ref()
            .expect("vacant slab handle")
    }

    /// The value behind `handle`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the handle is vacant.
    pub fn get_mut(&mut self, handle: u32) -> &mut T {
        self.entries[handle as usize]
            .as_mut()
            .expect("vacant slab handle")
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// True if no values are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PagePool {
    /// A zero-filled page (recycled if one is available).
    pub fn take_zeroed(&mut self) -> Box<[u8]> {
        match self.free.pop() {
            Some(mut b) => {
                b.fill(0);
                b
            }
            None => crate::page::new_page(),
        }
    }

    /// A page holding a copy of `src` (recycled if one is available).
    ///
    /// # Panics
    ///
    /// Panics if `src` is not exactly one page long.
    pub fn take_copy(&mut self, src: &[u8]) -> Box<[u8]> {
        assert_eq!(src.len(), PAGE_SIZE, "pool buffers are one page");
        match self.free.pop() {
            Some(mut b) => {
                b.copy_from_slice(src);
                b
            }
            None => src.to_vec().into_boxed_slice(),
        }
    }

    /// Return a retired page-sized buffer to the free list.
    pub fn recycle(&mut self, buf: Box<[u8]>) {
        debug_assert_eq!(buf.len(), PAGE_SIZE, "pool buffers are one page");
        if self.free.len() < POOL_CAP {
            self.free.push(buf);
        }
    }
}

impl<'a> Tmk<'a> {
    /// Allocate `bytes` of shared memory (8-byte aligned) and return its
    /// address.  Equivalent to `Tmk_malloc`.
    pub fn malloc(&self, bytes: usize) -> SharedAddr {
        self.st.borrow_mut().malloc(bytes, 8)
    }

    /// Allocate `bytes` of shared memory with an explicit alignment.
    pub fn malloc_aligned(&self, bytes: usize, align: usize) -> SharedAddr {
        self.st.borrow_mut().malloc(bytes, align)
    }

    // --------------------------------------------------------------- access

    /// Read the `T` at `addr`.
    pub fn read<T: Word>(&self, addr: SharedAddr) -> T {
        let mut v = [T::default()];
        self.read_slice(addr, &mut v);
        v[0]
    }

    /// Write `v` at `addr`.  Give an integer literal its type (`0i64`, or
    /// `write::<i64>`): a bare `0` is an `i32` and writes four bytes.
    pub fn write<T: Word>(&self, addr: SharedAddr, v: T) {
        self.write_slice(addr, &[v]);
    }

    /// Read `out.len()` consecutive `T`s starting at `addr`: the fault path
    /// for every invalid page of the span, one
    /// [`DsmState::load`](crate::state::DsmState::load), then the
    /// race-detector record.
    pub fn read_slice<T: Word>(&self, addr: SharedAddr, out: &mut [T]) {
        let len = std::mem::size_of_val(out);
        if len == 0 {
            return;
        }
        self.ensure_valid(addr, len);
        self.st.borrow().load(addr, out);
        self.race_record(crate::race::AccessKind::Read, addr, len);
    }

    /// Write `src`'s `T`s consecutively starting at `addr`.
    ///
    /// The trap is the protocol's decision (`Tmk::prepare_write` in
    /// [`crate::protocol`]): the twinning backends validate the span and
    /// twin + dirty each page; SC acquires exclusive ownership.
    /// `access_done` then lets the protocol serve whatever it deferred while
    /// acquiring (SC's ownership hand-offs).
    pub fn write_slice<T: Word>(&self, addr: SharedAddr, src: &[T]) {
        let len = std::mem::size_of_val(src);
        if len == 0 {
            return;
        }
        self.prepare_write(addr, len);
        self.st.borrow_mut().store(addr, src);
        self.access_done();
        self.race_record(crate::race::AccessKind::Write, addr, len);
    }

    /// Read one `f64` as an *annotated unsynchronized read*: identical to
    /// `read::<f64>` in cost and protocol behaviour, but exempt from the
    /// happens-before race detector — the DSM analogue of a relaxed atomic
    /// load or a ThreadSanitizer benign-race annotation.
    ///
    /// Use it only where a racy read is *intentional* and stale values are
    /// provably harmless (e.g. TSP's optimistic branch-and-bound incumbent,
    /// re-checked under its lock before every update).  The conflicting
    /// write stays recorded, so any unannotated racy reader is still
    /// caught.  `xtask lint` requires every call site to carry a
    /// `lint:allow(unsync-read)` justification marker.
    pub fn read_f64_unsync(&self, addr: SharedAddr) -> f64 {
        let mut v = [0.0];
        self.ensure_valid(addr, 8);
        self.st.borrow().load(addr, &mut v);
        v[0]
    }

    /// `read::<f64>`, kept only because `benchmark/layers` calls it;
    /// deleted with its probes (ROADMAP item 0(i)).
    pub fn read_f64(&self, addr: SharedAddr) -> f64 {
        self.read(addr)
    }

    /// `write::<f64>`, kept like [`Tmk::read_f64`].
    pub fn write_f64(&self, addr: SharedAddr, v: f64) {
        self.write(addr, v)
    }

    /// `read::<i64>`, kept like [`Tmk::read_f64`].
    pub fn read_i64(&self, addr: SharedAddr) -> i64 {
        self.read(addr)
    }

    /// `write::<i64>`, kept like [`Tmk::read_f64`].
    pub fn write_i64(&self, addr: SharedAddr, v: i64) {
        self.write(addr, v)
    }

    // --------------------------------------------------------------- faults

    /// Make every page overlapping `[addr, addr + len)` valid, triggering
    /// the configured protocol's fault-service path (see [`crate::protocol`])
    /// for the invalid ones.
    ///
    /// Pages fault in ascending order: a scan stops at the first invalid
    /// page, faults it in and resumes after it.  Servicing one page's fault
    /// can re-invalidate an earlier page of the same range (a barrier
    /// arrival served while waiting applies fresh write notices), so a scan
    /// that reaches the end starts over until the whole range is clean.  No
    /// requests are served between this returning and the access itself,
    /// so the range stays valid for the caller.
    ///
    /// This is the software write/read trap on the hottest path of the
    /// whole simulation (every shared access), so the all-valid case — the
    /// overwhelming majority — is one scan under one borrow, and allocates
    /// nothing.
    pub fn ensure_valid(&self, addr: SharedAddr, len: usize) {
        let pages = self.st.borrow().pages_spanning(addr, len);
        let first_invalid = |from: PageId| {
            let st = self.st.borrow();
            (from..=*pages.end()).find(|&p| !st.is_valid(p))
        };
        let mut next = first_invalid(*pages.start());
        while let Some(page) = next {
            self.fault_in(page);
            next = first_invalid(page + 1).or_else(|| first_invalid(*pages.start()));
        }
    }
}
