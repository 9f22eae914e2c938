//! Shared-memory allocation and typed access.
//!
//! The real TreadMarks detects accesses to shared memory with the virtual
//! memory hardware; this reproduction detects them in software at the same
//! granularity (the 4 KB page): every accessor below checks the validity of
//! the pages it touches, triggers the fault path (diff request / response /
//! apply) for invalid pages, and creates twins on the first write of an
//! interval.  See README.md §Design notes for why this substitution preserves the
//! protocol behaviour the paper measures.
//!
//! Addresses are plain byte offsets into the shared heap, obtained from
//! [`Tmk::malloc`].  As long as all processes perform the same allocation
//! sequence (the SPMD convention used by every application in the study),
//! all processes agree on the addresses.

use crate::page::PageId;
use crate::process::Tmk;
use crate::state::DsmState;
use crate::MEM_BANDWIDTH;
use cluster::config::PAGE_SIZE;

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

    // ------------------------------------------------------------ raw bytes

    /// Read `out.len()` bytes of shared memory starting at `addr`.
    pub fn read_bytes(&self, addr: SharedAddr, out: &mut [u8]) {
        self.read_with(addr, out.len(), |st| st.read_bytes(addr, out));
    }

    /// The read trap around `read`, which copies the `len` bytes at `addr`
    /// out of the pages: the fault path before it, the race-detector record
    /// after.
    fn read_with(&self, addr: SharedAddr, len: usize, read: impl FnOnce(&DsmState)) {
        if len == 0 {
            return;
        }
        self.ensure_valid(addr, len);
        read(&self.st.borrow());
        self.race_record(crate::race::AccessKind::Read, addr, len);
    }

    /// Read one `f64` as an *annotated unsynchronized read*: identical to
    /// [`Tmk::read_f64`] in cost and protocol behaviour, but exempt from the
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
        // `read_f64`'s fault path and copy, so both cost exactly the same
        // simulated time, without the record.
        let mut b = [0u8; 8];
        self.ensure_valid(addr, b.len());
        self.st.borrow().read_bytes(addr, &mut b);
        f64::from_le_bytes(b)
    }

    /// Write `src` to shared memory starting at `addr`.
    pub fn write_bytes(&self, addr: SharedAddr, src: &[u8]) {
        self.write_with(addr, src.len(), |st| st.write_bytes(addr, src));
    }

    /// The write trap around `write`, which stores the `len` bytes at
    /// `addr` into the pages.
    ///
    /// The trap is the protocol's decision (`Tmk::prepare_write` in
    /// [`crate::protocol`]): the twinning backends validate the span and
    /// twin + dirty each page; SC acquires exclusive ownership.
    /// `access_done` then lets the protocol serve whatever it deferred while
    /// acquiring (SC's ownership hand-offs).
    fn write_with(&self, addr: SharedAddr, len: usize, write: impl FnOnce(&mut DsmState)) {
        if len == 0 {
            return;
        }
        self.prepare_write(addr, len);
        write(&mut self.st.borrow_mut());
        self.access_done();
        self.race_record(crate::race::AccessKind::Write, addr, len);
    }

    // --------------------------------------------------------- typed access

    /// Read one `f64`.
    pub fn read_f64(&self, addr: SharedAddr) -> f64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        f64::from_le_bytes(b)
    }

    /// Write one `f64`.
    pub fn write_f64(&self, addr: SharedAddr, v: f64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read one `i64`.
    pub fn read_i64(&self, addr: SharedAddr) -> i64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        i64::from_le_bytes(b)
    }

    /// Write one `i64`.
    pub fn write_i64(&self, addr: SharedAddr, v: i64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read one `i32`.
    pub fn read_i32(&self, addr: SharedAddr) -> i32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        i32::from_le_bytes(b)
    }

    /// Write one `i32`.
    pub fn write_i32(&self, addr: SharedAddr, v: i32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read `out.len()` `N`-byte elements starting at `addr`, decoded
    /// straight from the pages into `out` under the same trap as
    /// [`Tmk::read_bytes`] over the elements' bytes.
    fn read_elems<T, const N: usize>(
        &self,
        addr: SharedAddr,
        out: &mut [T],
        decode: impl Fn([u8; N]) -> T,
    ) {
        self.read_with(addr, out.len() * N, |st| st.read_elems(addr, out, decode));
    }

    /// Write `src`'s `N`-byte elements starting at `addr`, encoded straight
    /// into the pages under the same trap as [`Tmk::write_bytes`].
    fn write_elems<T, const N: usize>(
        &self,
        addr: SharedAddr,
        src: &[T],
        encode: impl Fn(&T) -> [u8; N],
    ) {
        self.write_with(addr, src.len() * N, |st| st.write_elems(addr, src, encode));
    }

    /// Read a contiguous run of `out.len()` `f64` values starting at `addr`.
    pub fn read_f64_slice(&self, addr: SharedAddr, out: &mut [f64]) {
        self.read_elems(addr, out, f64::from_le_bytes);
    }

    /// Write a contiguous run of `f64` values starting at `addr`.
    pub fn write_f64_slice(&self, addr: SharedAddr, src: &[f64]) {
        self.write_elems(addr, src, |v| v.to_le_bytes());
    }

    /// Read a contiguous run of `f32` values starting at `addr`.
    pub fn read_f32_slice(&self, addr: SharedAddr, out: &mut [f32]) {
        self.read_elems(addr, out, f32::from_le_bytes);
    }

    /// Write a contiguous run of `f32` values starting at `addr`.
    pub fn write_f32_slice(&self, addr: SharedAddr, src: &[f32]) {
        self.write_elems(addr, src, |v| v.to_le_bytes());
    }

    /// Read a contiguous run of `i32` values starting at `addr`.
    pub fn read_i32_slice(&self, addr: SharedAddr, out: &mut [i32]) {
        self.read_elems(addr, out, i32::from_le_bytes);
    }

    /// Write a contiguous run of `i32` values starting at `addr`.
    pub fn write_i32_slice(&self, addr: SharedAddr, src: &[i32]) {
        self.write_elems(addr, src, |v| v.to_le_bytes());
    }

    // --------------------------------------------------------------- faults

    /// Make every page overlapping `[addr, addr + len)` valid, triggering
    /// the configured protocol's fault-service path (see [`crate::protocol`])
    /// for the invalid ones.
    ///
    /// Servicing one page's fault can re-invalidate an earlier page of the
    /// same range (a barrier arrival served while waiting applies fresh
    /// write notices), so the scan repeats until the whole range is clean.
    /// No requests are served between this returning and the access itself,
    /// so the range stays valid for the caller.
    ///
    /// This is the software write/read trap on the hottest path of the
    /// whole simulation (every shared access), so the all-valid case — the
    /// overwhelming majority — must not allocate: pages are checked one at
    /// a time in ascending order rather than collected into a vector.
    pub fn ensure_valid(&self, addr: SharedAddr, len: usize) {
        loop {
            let pages = self.st.borrow().pages_spanning(addr, len);
            let mut faulted_any = false;
            for page in pages {
                if !self.st.borrow().is_valid(page) {
                    self.fault_in(page);
                    faulted_any = true;
                }
            }
            if !faulted_any {
                return;
            }
        }
    }

    /// Mark `page` dirty, charging the twin-copy cost if a twin is created.
    pub(crate) fn mark_dirty_charged(&self, page: PageId) {
        let twinned = self.st.borrow_mut().mark_dirty(page);
        if twinned {
            self.proc().compute(PAGE_SIZE as f64 / MEM_BANDWIDTH);
        }
    }
}
