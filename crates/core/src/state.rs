//! The network-free, protocol-neutral state machine of one DSM process.
//!
//! `DsmState` owns everything a DSM process knows that no particular
//! coherence protocol owns: its vector clock, its copies of shared pages
//! (with twins and pending write notices), the interval log, its lock
//! state, the recycled-page pool and the runtime statistics.  The
//! [`crate::Tmk`] wrapper in `process.rs` drives this state machine and
//! performs the actual message exchanges; protocol *policy* — what a fault
//! fetches, what becomes of a closed interval's diffs, which notices
//! invalidate — enters only through the `match`es of [`crate::protocol`].
//! Keeping the state machine free of networking makes the consistency logic
//! unit-testable in isolation.
//! (The diff store half of the state lives in [`crate::diffs`].)

use crate::diffs::StoredDiff;
use crate::heap::{PagePool, Slab, Word};
use crate::page::{new_page, Diff, PageId};
use crate::proto::IntervalRecord;
use crate::protocol::sc::ScState;
use crate::protocol::ProtocolKind;
use crate::stats::TmkStats;
use crate::vc::VectorClock;
use cluster::config::PAGE_SIZE;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// The result of closing an interval: the write-notice record to publish,
/// and the diffs the protocol handed back for flushing to remote homes
/// (always empty under LRC, where diffs stay with their writer; empty under
/// HLRC for pages homed locally, whose master copy is the writer's own).
#[derive(Debug)]
pub struct ClosedInterval {
    /// Sequence number of the closed interval on this process.  The record
    /// itself is stored once, in the creator's interval log — retrieve it
    /// with [`DsmState::interval_record`] when needed.
    pub seq: u32,
    /// Diffs destined for remote homes by the close-time disposal (HLRC
    /// only).
    pub flushes: Vec<(PageId, Diff)>,
}

/// A pending write notice: an interval known to have modified a page, whose
/// diff has not yet been fetched and applied locally — the interval's record
/// itself, shared with the interval log (and with every other rank that
/// holds it).
pub type Notice = Rc<IntervalRecord>;

/// Local state of one shared page.
#[derive(Debug, Default)]
pub struct PageSlot {
    /// The page contents; allocated lazily, logically zero-filled before that.
    pub data: Option<Box<[u8]>>,
    /// The twin saved before the first write of the current interval.
    pub twin: Option<Box<[u8]>>,
    /// Whether the local copy is up to date.  All copies start valid (zero).
    pub valid: bool,
    /// Whether the page has been written during the current interval.
    pub dirty: bool,
    /// Write notices received for this page whose diffs are still missing.
    pub notices: Vec<Notice>,
    /// Per-creator sequence number of the latest interval whose modifications
    /// to this page are incorporated in the local copy (either created here
    /// or fetched and applied).  `None` means "nothing yet" (all zero).
    pub applied: Option<VectorClock>,
}

/// Per-lock state kept by every process that has interacted with the lock.
#[derive(Debug)]
pub struct LockState {
    /// Whether this process currently holds the lock token.
    pub have_token: bool,
    /// Whether this process is inside the critical section.
    pub in_cs: bool,
    /// Forwarded acquire requests waiting for this process to release.
    pub pending: VecDeque<(usize, VectorClock)>,
    /// Virtual time of the last release here (a grant never appears to
    /// depart while the lock was still held).
    pub released_at: f64,
}

/// The complete protocol-neutral state of one DSM process.
pub struct DsmState {
    /// This process's rank.
    pub me: usize,
    /// Number of processes.
    pub nprocs: usize,
    /// Which coherence protocol this process runs.
    pub protocol: ProtocolKind,
    /// SC's per-process ownership tables (`None` under LRC and HLRC).
    pub(crate) sc: Option<ScState>,
    /// This process's vector clock (entry `me` = number of closed intervals).
    pub vc: VectorClock,
    /// The merged clock distributed at the last barrier release.
    pub last_barrier_vc: VectorClock,
    /// All interval records retained, indexed
    /// `[creator][seq - 1 - interval_base[creator]]`: garbage collection
    /// (see [`DsmState::gc`]) truncates the front of each log and advances
    /// the base.  Each record is its creator's allocation, shared by every
    /// rank that has learnt of it.
    pub(crate) intervals: Vec<Vec<Rc<IntervalRecord>>>,
    /// Number of leading intervals of each creator already garbage
    /// collected from `intervals`.
    pub(crate) interval_base: Vec<u32>,
    /// Ordered index of the diffs held locally (created or fetched), keyed
    /// by (page, creator, seq).  Ordered so (a) iteration order can never
    /// silently depend on hash order and (b) serving a request is a range
    /// scan over one page's keys instead of a sweep over every diff held.
    /// The values are handles into [`DsmState::diff_slab`]: the map nodes
    /// carry four bytes each, not whole diffs.  The operations live in
    /// [`crate::diffs`].
    pub(crate) diffs: BTreeMap<(PageId, usize, u32), u32>,
    /// The diffs themselves, slab-allocated so the insert/GC churn of a
    /// long run recycles slots (see [`Slab`]).
    pub(crate) diff_slab: Slab<StoredDiff>,
    /// Shared pages (crate-visible so the protocol backends can maintain
    /// master copies and ownership modes).
    pub(crate) pages: Vec<PageSlot>,
    /// Pages written during the current (open) interval.
    pub(crate) dirty_pages: Vec<PageId>,
    /// Bump allocator cursor for the shared heap.
    heap_next: usize,
    /// Size of the shared heap in bytes.
    heap_bytes: usize,
    /// Per-lock token state (ordered: determinism must never silently
    /// depend on hash-iteration order).
    locks: BTreeMap<u32, LockState>,
    /// Manager-side: the last requester of each lock this process manages
    /// (ordered), where the next request is chained to.
    lock_tails: BTreeMap<u32, usize>,
    /// Recycled page-sized buffers for twin churn.
    pub(crate) pool: PagePool,
    /// Runtime statistics.
    pub stats: TmkStats,
}

impl DsmState {
    /// Fresh state for process `me` of `nprocs`, with a shared heap of
    /// `heap_bytes` bytes, running the default (LRC) protocol.
    pub fn new(me: usize, nprocs: usize, heap_bytes: usize) -> Self {
        Self::new_with(me, nprocs, heap_bytes, ProtocolKind::default())
    }

    /// Fresh state for process `me` of `nprocs`, with a shared heap of
    /// `heap_bytes` bytes, running the given coherence protocol.
    pub fn new_with(me: usize, nprocs: usize, heap_bytes: usize, protocol: ProtocolKind) -> Self {
        let npages = heap_bytes.div_ceil(PAGE_SIZE);
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            pages.push(PageSlot {
                valid: true,
                ..Default::default()
            });
        }
        DsmState {
            me,
            nprocs,
            protocol,
            sc: (protocol == ProtocolKind::Sc).then(|| ScState::new(me, nprocs, npages)),
            vc: VectorClock::new(nprocs),
            last_barrier_vc: VectorClock::new(nprocs),
            intervals: (0..nprocs).map(|_| Vec::new()).collect(),
            interval_base: vec![0; nprocs],
            diffs: BTreeMap::new(),
            diff_slab: Slab::default(),
            pages,
            dirty_pages: Vec::new(),
            heap_next: 0,
            heap_bytes: npages * PAGE_SIZE,
            locks: BTreeMap::new(),
            lock_tails: BTreeMap::new(),
            pool: PagePool::default(),
            stats: TmkStats::default(),
        }
    }

    // ---------------------------------------------------------------- heap

    /// Allocate `bytes` of shared memory with the given alignment and return
    /// its address.  The allocator is a deterministic bump allocator: as long
    /// as every process performs the same sequence of allocations (the SPMD
    /// convention of the applications in this study), every process obtains
    /// the same addresses.  Allocations are *not* page aligned, so distinct
    /// objects can share a page — which is exactly how false sharing arises
    /// in the applications of the paper.
    pub fn malloc(&mut self, bytes: usize, align: usize) -> usize {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.heap_next + align - 1) & !(align - 1);
        assert!(
            addr + bytes <= self.heap_bytes,
            "shared heap exhausted: need {bytes} bytes at {addr}, heap is {} bytes",
            self.heap_bytes
        );
        self.heap_next = addr + bytes;
        addr
    }

    /// Total size of the shared heap in bytes.
    pub fn heap_size(&self) -> usize {
        self.heap_bytes
    }

    /// Page containing `addr`.
    pub fn page_of(&self, addr: usize) -> PageId {
        (addr / PAGE_SIZE) as PageId
    }

    /// The pages spanned by the byte range `[addr, addr + len)`.
    pub fn pages_spanning(&self, addr: usize, len: usize) -> std::ops::RangeInclusive<PageId> {
        assert!(len > 0, "zero-length shared access");
        assert!(
            addr + len <= self.heap_bytes,
            "shared access [{addr}, {}) outside the heap",
            addr + len
        );
        self.page_of(addr)..=self.page_of(addr + len - 1)
    }

    /// Decode `out.len()` consecutive `T`s starting at `addr` straight from
    /// the pages: each page's whole words in place, a word straddling a page
    /// boundary through a stack `[u8; 8]`.  All spanned pages must be valid
    /// (the caller resolves faults first).
    pub fn load<T: Word>(&self, mut addr: usize, mut out: &mut [T]) {
        while !out.is_empty() {
            let (page, off) = (self.page_of(addr), addr % PAGE_SIZE);
            let fit = ((PAGE_SIZE - off) / T::SIZE).min(out.len());
            let n = if fit == 0 {
                let mut word = [0; 8];
                let (head, tail) = word[..T::SIZE].split_at_mut(PAGE_SIZE - off);
                head.copy_from_slice(&self.page(page)[off..]);
                tail.copy_from_slice(&self.page(page + 1)[..tail.len()]);
                out[0] = T::decode(&word[..T::SIZE]);
                1
            } else {
                let words = self.page(page)[off..][..fit * T::SIZE].chunks_exact(T::SIZE);
                for (o, b) in out.iter_mut().zip(words) {
                    *o = T::decode(b);
                }
                fit
            };
            (addr, out) = (addr + n * T::SIZE, &mut std::mem::take(&mut out)[n..]);
        }
    }

    /// Encode `src`'s `T`s straight into the pages starting at `addr` — the
    /// mirror of [`DsmState::load`].  All spanned pages must be valid and
    /// already trapped by the protocol's write path (twinned and dirtied
    /// under a twinning backend, held exclusively under SC).
    pub fn store<T: Word>(&mut self, mut addr: usize, mut src: &[T]) {
        while !src.is_empty() {
            let (page, off) = (self.page_of(addr), addr % PAGE_SIZE);
            let fit = ((PAGE_SIZE - off) / T::SIZE).min(src.len());
            let n = if fit == 0 {
                let mut word = [0; 8];
                src[0].encode(&mut word[..T::SIZE]);
                let (head, tail) = word[..T::SIZE].split_at(PAGE_SIZE - off);
                self.page_mut(page)[off..].copy_from_slice(head);
                self.page_mut(page + 1)[..tail.len()].copy_from_slice(tail);
                1
            } else {
                let words = self.page_mut(page)[off..][..fit * T::SIZE].chunks_exact_mut(T::SIZE);
                for (b, v) in words.zip(src) {
                    v.encode(b);
                }
                fit
            };
            (addr, src) = (addr + n * T::SIZE, &src[n..]);
        }
    }

    /// A valid page's contents; a never-written page reads as zeros.
    fn page(&self, page: PageId) -> &[u8] {
        static ZEROS: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        debug_assert!(self.pages[page as usize].valid);
        self.pages[page as usize].data.as_deref().unwrap_or(&ZEROS)
    }

    /// A trapped page's contents, allocated zero-filled on first write.
    fn page_mut(&mut self, page: PageId) -> &mut [u8] {
        let slot = &mut self.pages[page as usize];
        debug_assert!(slot.valid && (slot.dirty || self.sc.is_some()));
        slot.data.get_or_insert_with(new_page)
    }

    /// Mark `page` as written in the current interval, creating its twin on
    /// the first write (the multiple-writer protocol's write trap).
    /// Returns `true` if a twin was created by this call.
    pub fn mark_dirty(&mut self, page: PageId) -> bool {
        let DsmState {
            pages,
            pool,
            dirty_pages,
            stats,
            ..
        } = self;
        let slot = &mut pages[page as usize];
        assert!(slot.valid, "writing an invalid page without a fault");
        if slot.dirty {
            return false;
        }
        let data = match &mut slot.data {
            Some(data) => data,
            None => slot.data.insert(pool.take_zeroed()),
        };
        slot.twin = Some(pool.take_copy(data));
        slot.dirty = true;
        dirty_pages.push(page);
        stats.twins_created += 1;
        true
    }

    /// Whether `page` is currently valid.
    pub fn is_valid(&self, page: PageId) -> bool {
        self.pages[page as usize].valid
    }

    /// The pending write notices of `page`.
    pub fn notices_of(&self, page: PageId) -> &[Notice] {
        &self.pages[page as usize].notices
    }

    /// The per-page applied clock sent in a diff request for `page`.
    pub fn page_applied_vc(&self, page: PageId) -> VectorClock {
        self.pages[page as usize]
            .applied
            .clone()
            .unwrap_or_else(|| VectorClock::new(self.nprocs))
    }

    /// Clear the notices of `page` that its applied clock now covers and
    /// mark the page valid only if none remain.
    ///
    /// This is the epilogue of every fault-service path (LRC diff apply,
    /// HLRC page fetch): a notice that arrived *during* the fault — a
    /// barrier arrival served while waiting applies fresh interval records —
    /// is not covered yet, must survive, and keeps the page invalid so the
    /// fault path runs again.
    pub(crate) fn revalidate_page(&mut self, page: PageId) {
        let nprocs = self.nprocs;
        let slot = &mut self.pages[page as usize];
        let applied = slot
            .applied
            .clone()
            .unwrap_or_else(|| VectorClock::new(nprocs));
        slot.notices.retain(|n| !applied.covers(n.creator, n.seq));
        slot.valid = slot.notices.is_empty();
    }

    // ---------------------------------------------------------------- locks

    /// The statically assigned manager of lock `id`.
    pub fn lock_manager(&self, id: u32) -> usize {
        id as usize % self.nprocs
    }

    /// Mutable per-lock token state (created on first use; the manager starts
    /// with the token).
    pub fn lock_state_mut(&mut self, id: u32) -> &mut LockState {
        let me = self.me;
        let manager = self.lock_manager(id);
        self.locks.entry(id).or_insert_with(|| LockState {
            have_token: manager == me,
            in_cs: false,
            pending: VecDeque::new(),
            released_at: 0.0,
        })
    }

    /// The manager's chain step for lock `id`: `requester` becomes the last
    /// requester, and the previous one — the process the request must be
    /// forwarded to — is returned.  The token starts at the manager.
    pub(crate) fn chain_lock(&mut self, id: u32, requester: usize) -> usize {
        let manager = self.lock_manager(id);
        assert_eq!(manager, self.me, "not the manager of lock {id}");
        std::mem::replace(self.lock_tails.entry(id).or_insert(manager), requester)
    }
}

#[cfg(test)]
impl DsmState {
    /// Test helper exposing a clone of the vector clock.
    pub fn vc_snapshot_for_test(&self) -> VectorClock {
        self.vc.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(me: usize, n: usize) -> DsmState {
        DsmState::new(me, n, 1 << 20)
    }

    #[test]
    fn malloc_is_deterministic_and_aligned() {
        let mut a = state(0, 2);
        let mut b = state(1, 2);
        let a1 = a.malloc(100, 8);
        let a2 = a.malloc(64, 8);
        assert_eq!(a1, b.malloc(100, 8));
        assert_eq!(a2, b.malloc(64, 8));
        assert_eq!(a2 % 8, 0);
        assert!(a2 >= a1 + 100);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn malloc_past_heap_end_panics() {
        let mut s = state(0, 1);
        s.malloc(2 << 20, 8);
    }

    #[test]
    fn read_of_untouched_memory_is_zero() {
        let mut s = state(0, 2);
        let addr = s.malloc(64, 8);
        let mut out = [1u8; 64];
        s.load(addr, &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_round_trips_across_page_boundary() {
        let mut s = state(0, 2);
        let addr = PAGE_SIZE - 10; // straddles pages 0 and 1
        for p in s.pages_spanning(addr, 20) {
            s.mark_dirty(p);
        }
        let src: Vec<u8> = (0..20u8).collect();
        s.store(addr, &src);
        let mut out = [0u8; 20];
        s.load(addr, &mut out);
        assert_eq!(&out[..], &src[..]);
    }

    #[test]
    fn typed_elements_straddling_pages_round_trip_byte_exactly() {
        // An f64 at `PAGE_SIZE - 4`, f32s at an odd address and i32s over
        // three pages: the straddling element goes through a stack buffer,
        // and the pages hold exactly the elements' little-endian bytes.
        let mut s = state(0, 1);
        for p in s.pages_spanning(0, 8 * PAGE_SIZE) {
            s.mark_dirty(p);
        }
        let f64s = [0.1f64, -2.5e300, 7.0];
        let f32s: Vec<f32> = (0..300).map(|i| i as f32 * 1.5 - 3.0).collect();
        let i32s: Vec<i32> = (0..1100).map(|i| i * -7919 + 13).collect();
        let at = [PAGE_SIZE - 4, 3 * PAGE_SIZE - 601, 5 * PAGE_SIZE - 2];
        s.store(at[0], &f64s);
        s.store(at[1], &f32s);
        s.store(at[2], &i32s);
        let mut a = [0f64; 3];
        let mut b = vec![0f32; 300];
        let mut c = vec![0i32; 1100];
        s.load(at[0], &mut a);
        s.load(at[1], &mut b);
        s.load(at[2], &mut c);
        assert_eq!((a, b), (f64s, f32s.clone()));
        assert_eq!(c, i32s);
        let mut raw = vec![0u8; 8 * 3];
        s.load(at[0], &mut raw);
        let expect: Vec<u8> = f64s.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(raw, expect);
        let page = |p: usize| s.pages[p].data.as_deref().unwrap();
        assert_eq!(page(0)[PAGE_SIZE - 4..], f64s[0].to_le_bytes()[..4]);
        assert_eq!(page(1)[..4], f64s[0].to_le_bytes()[4..]);
        // Reads of never-written pages decode zeros, whatever the offset.
        let mut z = [1f32; 5];
        s.load(9 * PAGE_SIZE - 9, &mut z);
        assert_eq!(z, [0.0; 5]);
    }

    #[test]
    fn lock_manager_assignment_is_round_robin() {
        let s = state(0, 4);
        assert_eq!(s.lock_manager(0), 0);
        assert_eq!(s.lock_manager(5), 1);
        assert_eq!(s.lock_manager(7), 3);
    }

    #[test]
    fn manager_starts_with_the_token() {
        let mut s0 = state(0, 2);
        let mut s1 = state(1, 2);
        assert!(s0.lock_state_mut(0).have_token);
        assert!(!s1.lock_state_mut(0).have_token);
        assert!(s1.lock_state_mut(1).have_token);
    }
}
