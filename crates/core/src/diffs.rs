//! The diff store: protocol-neutral retention and service of page diffs.
//!
//! A twinning backend creates diffs when an interval closes; this module
//! owns what happens to diffs *held locally* — created here and retained
//! (LRC), or fetched from other processes.  It implements the selection
//! logic of diff requests (including *diff accumulation*: a responder
//! returns every diff the requester lacks, even ones later diffs completely
//! overwrite), the application of fetched diffs in `hb1` order, and the
//! lazy accounting of diff-creation cost (real TreadMarks creates a diff
//! only when it is first requested, so the page+twin scan is charged at
//! first serve, not at interval close).
//!
//! A diff is allocated once, by its creator.  A diff response shares the
//! responder's stored diffs with the requester, which stores them in turn
//! — so a diff fetched by seven ranks is still held once.

use crate::page::{new_page, Diff, PageId};
use crate::proto::WireDiff;
use crate::state::{DsmState, Notice};
use crate::vc::VectorClock;
use std::rc::Rc;

/// A diff held locally — its creator's allocation, shared — with this
/// rank's bookkeeping for charging the creation cost lazily: real
/// TreadMarks creates diffs only when they are first requested, so the
/// page+twin scan is charged to the creator the first time the diff is
/// served, not at interval close.  (Creation is still *performed* eagerly
/// here so later intervals cannot leak into earlier diffs; only the
/// accounting is lazy.)
#[derive(Debug)]
pub(crate) struct StoredDiff {
    diff: Rc<WireDiff>,
    /// Whether the creation scan has been charged (true for fetched diffs,
    /// whose cost was paid by their creator).
    scan_charged: bool,
}

impl DsmState {
    /// Retain a diff created by this process at interval close so later
    /// diff requests can be served from it (the LRC disposition).
    pub(crate) fn retain_own_diff(&mut self, page: PageId, seq: u32, vc: &VectorClock, diff: Diff) {
        let handle = self.diff_slab.insert(StoredDiff {
            diff: Rc::new(WireDiff {
                creator: self.me,
                seq,
                vc: vc.clone(),
                diff,
            }),
            scan_charged: false,
        });
        self.diffs.insert((page, self.me, seq), handle);
    }

    /// The set of processes to send diff requests to for `page`: the writers
    /// named in the pending notices whose most recent interval (for this
    /// page) is not dominated by another such writer's most recent interval.
    /// A processor that modified a page in an interval holds all diffs of the
    /// intervals that precede it, so asking only the maximal writers is
    /// sufficient — this is the optimisation described in Section 2.2.2.
    pub fn diff_request_targets(&self, page: PageId) -> Vec<usize> {
        let notices = self.notices_of(page);
        // Latest pending interval per writer.  A linear scan over a small
        // vector (there are at most `nprocs` writers), not a per-fault map.
        let mut writers: Vec<&Notice> = Vec::new();
        for n in notices {
            match writers.iter_mut().find(|w| w.creator == n.creator) {
                Some(cur) if cur.seq >= n.seq => {}
                Some(cur) => *cur = n,
                None => writers.push(n),
            }
        }
        let mut targets = Vec::new();
        for w in &writers {
            let dominated = writers.iter().any(|o| {
                !(o.creator == w.creator && o.seq == w.seq) && o.vc.dominates(&w.vc) && o.vc != w.vc
            });
            if !dominated && w.creator != self.me {
                targets.push(w.creator);
            }
        }
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    /// Serve a diff request: every diff held locally for `page` whose
    /// interval (a) the requester knows about (it is covered by the
    /// requester's *global* clock, i.e. it happens-before the acquire that
    /// triggered the fault) and (b) the requester has not yet applied to its
    /// copy of the page.  This is where *diff accumulation* happens — the
    /// response includes diffs created by other processes that this process
    /// has previously fetched, even when later diffs completely overwrite
    /// them.
    ///
    /// The response shares the stored diffs, in `hb1` order.  Returns them
    /// and the number whose creation scan had not been charged yet (they
    /// are marked charged by this call): the serving runtime charges the
    /// page+twin scan for exactly those, which is the lazy diff creation of
    /// the real system.
    pub fn diffs_for_request(
        &mut self,
        page: PageId,
        requester: usize,
        applied_vc: &VectorClock,
        global_vc: &VectorClock,
    ) -> (Vec<Rc<WireDiff>>, usize) {
        let (keys, first_serves) = self.served_diff_keys(page, requester, applied_vc, global_vc);
        let diffs = keys
            .iter()
            .map(|&(.., handle)| Rc::clone(&self.diff_slab.get(handle).diff))
            .collect();
        (diffs, first_serves)
    }

    /// The diffs this process would serve for `page`, as `(hb1 sort key,
    /// creator, seq, slab handle)` in response order, marking first-time
    /// serves as scan-charged.  One range of the ordered diff index per
    /// creator, `(page, creator, applied + 1) ..= (page, creator, global)`:
    /// the diffs the requester has already applied are never visited, and
    /// neither are its own or those of a creator it has nothing new from.
    fn served_diff_keys(
        &mut self,
        page: PageId,
        requester: usize,
        applied_vc: &VectorClock,
        global_vc: &VectorClock,
    ) -> (Vec<(u64, usize, u32, u32)>, usize) {
        // With the `oracle-checks` feature (on in CI), every selection is
        // checked against the full-page scan; taken before the ranged walk
        // marks anything, since both count the not-yet-charged diffs.
        #[cfg(feature = "oracle-checks")]
        let reference = self.served_diff_keys_reference(page, requester, applied_vc, global_vc);
        let DsmState {
            diffs,
            diff_slab,
            nprocs,
            ..
        } = self;
        let mut first_serves = 0usize;
        let mut keys: Vec<(u64, usize, u32, u32)> = Vec::new();
        for creator in (0..*nprocs).filter(|&c| c != requester) {
            let (applied, global) = (applied_vc.get(creator), global_vc.get(creator));
            if applied >= global {
                continue;
            }
            for (&(_, _, seq), &handle) in
                diffs.range((page, creator, applied + 1)..=(page, creator, global))
            {
                let stored = diff_slab.get_mut(handle);
                if !stored.scan_charged {
                    stored.scan_charged = true;
                    first_serves += 1;
                }
                keys.push((stored.diff.vc.sum(), creator, seq, handle));
            }
        }
        keys.sort_unstable();
        #[cfg(feature = "oracle-checks")]
        assert_eq!(
            (&keys, first_serves),
            (&reference.0, reference.1),
            "ranged diff selection diverged from the full-page scan"
        );
        (keys, first_serves)
    }

    /// The selection of [`served_diff_keys`](Self::served_diff_keys) by a
    /// scan over every diff held for `page`, testing each against the
    /// requester and both clocks: obviously correct, visits what the ranged
    /// walk skips.  Marks nothing — `first_serves` counts the selected
    /// diffs not yet charged.  The oracle for the equivalence tests and the
    /// `oracle-checks` feature.
    #[cfg(any(test, feature = "oracle-checks"))]
    fn served_diff_keys_reference(
        &self,
        page: PageId,
        requester: usize,
        applied_vc: &VectorClock,
        global_vc: &VectorClock,
    ) -> (Vec<(u64, usize, u32, u32)>, usize) {
        let mut first_serves = 0usize;
        let mut keys = Vec::new();
        for (&(_, creator, seq), &handle) in self
            .diffs
            .range((page, 0, 0)..=(page, usize::MAX, u32::MAX))
        {
            if creator == requester
                || seq <= applied_vc.get(creator)
                || !global_vc.covers(creator, seq)
            {
                continue;
            }
            let stored = self.diff_slab.get(handle);
            first_serves += usize::from(!stored.scan_charged);
            keys.push((stored.diff.vc.sum(), creator, seq, handle));
        }
        keys.sort_unstable();
        (keys, first_serves)
    }

    /// Apply fetched diffs to `page` (in `hb1` order) and store them — the
    /// creator's allocations, not copies — so they can be served to other
    /// processes later.
    ///
    /// Only the write notices actually covered by the updated per-page
    /// applied clock are cleared: a new notice can arrive *during* the fault
    /// (a barrier arrival served while waiting for diff responses applies
    /// fresh interval records), and wiping it here would leave the page
    /// permanently stale.  The page becomes valid only if no notice remains;
    /// the fault path re-faults otherwise.
    pub fn apply_wire_diffs(&mut self, page: PageId, mut diffs: Vec<Rc<WireDiff>>) {
        diffs.sort_by_key(|d| (d.vc.sum(), d.creator, d.seq));
        {
            let slot = &mut self.pages[page as usize];
            let data = slot.data.get_or_insert_with(new_page);
            for wd in &diffs {
                wd.diff.apply(data);
                // Keep a concurrent writer's twin in sync so its own diff
                // stays minimal (does not duplicate the incoming changes).
                if let Some(twin) = slot.twin.as_mut() {
                    wd.diff.apply(twin);
                }
            }
        }
        let nprocs = self.nprocs;
        {
            let slot = &mut self.pages[page as usize];
            let applied = slot.applied.get_or_insert_with(|| VectorClock::new(nprocs));
            for wd in &diffs {
                if wd.seq > applied.get(wd.creator) {
                    applied.set(wd.creator, wd.seq);
                }
            }
        }
        {
            let DsmState {
                diffs: index,
                diff_slab,
                stats,
                ..
            } = &mut *self;
            for wd in diffs {
                stats.diffs_applied += 1;
                stats.diff_bytes_received += wd.diff.encoded_len() as u64;
                index.entry((page, wd.creator, wd.seq)).or_insert_with(|| {
                    diff_slab.insert(StoredDiff {
                        diff: wd,
                        scan_charged: true,
                    })
                });
            }
        }
        self.revalidate_page(page);
    }

    /// Number of diffs currently held for `page` (for tests and ablations).
    pub fn diffs_held_for(&self, page: PageId) -> usize {
        self.diffs
            .range((page, 0, 0)..=(page, usize::MAX, u32::MAX))
            .count()
    }

    /// Total number of diffs currently held (for tests and the GC trigger).
    pub fn diffs_held(&self) -> usize {
        self.diffs.len()
    }

    /// Drop every stored diff covered by `up_to` (the GC's diff half; see
    /// [`DsmState::gc`]), recycling their slab slots.
    pub(crate) fn gc_diffs(&mut self, up_to: &VectorClock) {
        let DsmState {
            diffs, diff_slab, ..
        } = self;
        diffs.retain(|&(_, creator, seq), &mut handle| {
            if seq > up_to.get(creator) {
                true
            } else {
                diff_slab.remove(handle);
                false
            }
        });
        debug_assert_eq!(diff_slab.len(), diffs.len());
    }
}

#[cfg(test)]
impl DsmState {
    /// The stored diff of `(page, creator, seq)`, if held here.
    pub(crate) fn stored_diff(
        &self,
        page: PageId,
        creator: usize,
        seq: u32,
    ) -> Option<&Rc<WireDiff>> {
        let handle = self.diffs.get(&(page, creator, seq))?;
        Some(&self.diff_slab.get(*handle).diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::config::PAGE_SIZE;

    fn state(me: usize, n: usize) -> DsmState {
        DsmState::new(me, n, 1 << 20)
    }

    /// Close the open interval and return its logged record.
    fn close_record(s: &mut DsmState) -> Rc<crate::proto::IntervalRecord> {
        let seq = s.close_interval().expect("interval must close").seq;
        s.interval_record(s.me, seq).clone()
    }

    #[test]
    fn diff_fetch_round_trip_updates_reader_copy() {
        let mut writer = state(0, 2);
        let mut reader = state(1, 2);
        let addr = writer.malloc(1024, 8);
        let _ = reader.malloc(1024, 8);
        let page = writer.page_of(addr);
        writer.mark_dirty(page);
        writer.store(addr, &[42u8; 1024]);
        let rec = close_record(&mut writer);
        reader.apply_interval_record(&rec);

        assert_eq!(reader.diff_request_targets(page), vec![0]);
        let diffs = writer
            .diffs_for_request(
                page,
                1,
                &reader.page_applied_vc(page),
                &reader.vc_snapshot_for_test(),
            )
            .0;
        assert_eq!(diffs.len(), 1);
        reader.apply_wire_diffs(page, diffs);
        assert!(reader.is_valid(page));
        let mut out = [0u8; 1024];
        reader.load(addr, &mut out);
        assert!(out.iter().all(|&b| b == 42));
    }

    #[test]
    fn diff_accumulation_returns_overlapping_old_diffs() {
        // Process 0 writes the page in interval 1; process 1 fetches, then
        // overwrites the same bytes in its own interval; process 0 fetches
        // back.  A later requester who has seen neither interval receives
        // BOTH diffs from process 1 even though the second completely
        // overwrites the first — the diff accumulation phenomenon.
        let mut p0 = state(0, 3);
        let mut p1 = state(1, 3);
        let mut p2 = state(2, 3);
        let addr = p0.malloc(512, 8);
        let _ = p1.malloc(512, 8);
        let _ = p2.malloc(512, 8);
        let page = p0.page_of(addr);

        p0.mark_dirty(page);
        p0.store(addr, &[1u8; 512]);
        let rec0 = close_record(&mut p0);

        p1.apply_interval_record(&rec0);
        let diffs = p0
            .diffs_for_request(
                page,
                1,
                &p1.page_applied_vc(page),
                &p1.vc_snapshot_for_test(),
            )
            .0;
        p1.apply_wire_diffs(page, diffs);
        p1.mark_dirty(page);
        p1.store(addr, &[2u8; 512]);
        let rec1 = close_record(&mut p1);

        p2.apply_interval_record(&rec0);
        p2.apply_interval_record(&rec1);
        // p1's interval dominates p0's, so p2 asks only p1...
        assert_eq!(p2.diff_request_targets(page), vec![1]);
        // ...but p1 answers with both diffs (accumulation).
        let diffs = p1
            .diffs_for_request(
                page,
                2,
                &p2.page_applied_vc(page),
                &p2.vc_snapshot_for_test(),
            )
            .0;
        assert_eq!(diffs.len(), 2);
        p2.apply_wire_diffs(page, diffs);
        let mut out = [0u8; 512];
        p2.load(addr, &mut out);
        assert!(out.iter().all(|&b| b == 2));
    }

    #[test]
    fn concurrent_writers_require_requests_to_both() {
        // False sharing: two processes write disjoint halves of one page in
        // concurrent intervals; a third must request diffs from both.
        let mut p0 = state(0, 3);
        let mut p1 = state(1, 3);
        let mut p2 = state(2, 3);
        for s in [&mut p0, &mut p1, &mut p2] {
            let _ = s.malloc(PAGE_SIZE, 8);
        }
        let page = 0;
        p0.mark_dirty(page);
        p0.store(0, &[1u8; 100]);
        let rec0 = close_record(&mut p0);
        p1.mark_dirty(page);
        p1.store(2000, &[2u8; 100]);
        let rec1 = close_record(&mut p1);

        p2.apply_interval_records(&[rec0, rec1]);
        let mut targets = p2.diff_request_targets(page);
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1]);

        let d0 = p0
            .diffs_for_request(
                page,
                2,
                &p2.page_applied_vc(page),
                &p2.vc_snapshot_for_test(),
            )
            .0;
        let d1 = p1
            .diffs_for_request(
                page,
                2,
                &p2.page_applied_vc(page),
                &p2.vc_snapshot_for_test(),
            )
            .0;
        p2.apply_wire_diffs(page, d0.into_iter().chain(d1).collect());
        let mut out = [0u8; 100];
        p2.load(0, &mut out);
        assert!(out.iter().all(|&b| b == 1));
        p2.load(2000, &mut out);
        assert!(out.iter().all(|&b| b == 2));
    }

    /// xorshift64: seeded test inputs, the same every run.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn clock(&mut self, n: usize, max: usize) -> VectorClock {
            let mut vc = VectorClock::new(n);
            for p in 0..n {
                vc.set(p, self.below(max + 1) as u32);
            }
            vc
        }
    }

    #[test]
    fn ranged_selection_is_the_full_page_scan() {
        // Random stores on pages 0 and 2 (page 1 stays empty), holding
        // diffs by every creator — the requester's own among them — some
        // already charged; random requesters and clocks, so that creators
        // with `applied >= global`, and seqs at both range ends, all occur.
        let n = 5;
        let mut rng = Rng(0x5eed_d1ff_0123_4567);
        let mut touched = new_page();
        touched[0] = 1;
        let diff = Diff::create(&new_page(), &touched);
        let (mut selected, mut charged) = (0usize, 0usize);
        for _ in 0..300 {
            let mut s = state(rng.below(n), n);
            for _ in 0..rng.below(40) {
                let page = 2 * rng.below(2) as PageId;
                let (creator, seq) = (rng.below(n), 1 + rng.below(12) as u32);
                let mut vc = rng.clock(n, 12);
                vc.set(creator, seq);
                let handle = s.diff_slab.insert(StoredDiff {
                    diff: Rc::new(WireDiff {
                        creator,
                        seq,
                        vc,
                        diff: diff.clone(),
                    }),
                    scan_charged: rng.below(2) == 0,
                });
                if let Some(old) = s.diffs.insert((page, creator, seq), handle) {
                    s.diff_slab.remove(old);
                }
            }
            for page in 0..3 {
                for _ in 0..4 {
                    let requester = rng.below(n);
                    let (applied, global) = (rng.clock(n, 13), rng.clock(n, 13));
                    let want = s.served_diff_keys_reference(page, requester, &applied, &global);
                    let got = s.served_diff_keys(page, requester, &applied, &global);
                    assert_eq!(got, want, "page {page}, requester {requester}");
                    // Served once, charged: a repeat selects the same, charges none.
                    let again = s.served_diff_keys(page, requester, &applied, &global);
                    assert_eq!(again, (want.0, 0));
                    selected += got.0.len();
                    charged += got.1;
                }
            }
        }
        assert!(selected > charged && charged > 0, "{selected} / {charged}");
    }

    #[test]
    fn twin_kept_in_sync_with_incoming_diffs() {
        // A concurrent writer applies an incoming diff to both the page and
        // its twin, so its own later diff does not duplicate those bytes.
        let mut p0 = state(0, 2);
        let mut p1 = state(1, 2);
        let _ = p0.malloc(PAGE_SIZE, 8);
        let _ = p1.malloc(PAGE_SIZE, 8);
        let page = 0;
        p0.mark_dirty(page);
        p0.store(0, &[5u8; 64]);
        let rec0 = close_record(&mut p0);

        p1.mark_dirty(page);
        p1.store(1000, &[6u8; 64]);
        // Now p1 learns about p0's interval and fetches its diff while still
        // having its own uncommitted writes.
        p1.apply_interval_record(&rec0);
        let diffs = p0
            .diffs_for_request(
                page,
                1,
                &p1.page_applied_vc(page),
                &p1.vc_snapshot_for_test(),
            )
            .0;
        p1.apply_wire_diffs(page, diffs);
        let rec1 = close_record(&mut p1);
        assert_eq!(rec1.pages, vec![0]);
        let d = p1
            .diffs_for_request(0, 0, &rec0.vc, &p1.vc_snapshot_for_test())
            .0;
        assert_eq!(d.len(), 1);
        // p1's diff covers only its own 64 modified bytes, not p0's.
        assert_eq!(d[0].diff.modified_bytes(), 64);
    }
}
