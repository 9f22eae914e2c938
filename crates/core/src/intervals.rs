//! The interval log: closing intervals, publishing and applying write
//! notices, and the barrier-time garbage collection of both halves of the
//! protocol metadata.
//!
//! An *interval* is the span between two synchronization operations of one
//! process; closing it produces a write-notice record (the pages modified)
//! and one diff per modified page.  This module owns the log of retained
//! records — each one allocation, its creator's, which every grant or
//! barrier message that carries the record shares with its receiver — and
//! the receiver side that turns records into page invalidations.  What
//! becomes of each created diff, and which notices actually invalidate, are
//! protocol policy ([`crate::protocol`]).

use crate::page::Diff;
use crate::proto::{IntervalRecord, Msg};
use crate::state::{ClosedInterval, DsmState};
use crate::vc::VectorClock;
use std::rc::Rc;

impl DsmState {
    /// Close the current interval if any page was written during it.
    ///
    /// Diffs are created *eagerly* here (real TreadMarks creates them lazily
    /// when first requested); this keeps uncommitted writes of a later
    /// interval out of earlier diffs while producing identical message and
    /// data counts.  What happens to each created diff is the protocol's
    /// close-time disposal: LRC stores it for later diff requests (and
    /// eventual accumulation), HLRC hands it back for flushing to remote
    /// homes — and a page whose master copy is local (the HLRC home's own
    /// pages) produces none.  Returns `None` if nothing was written.
    pub fn close_interval(&mut self) -> Option<ClosedInterval> {
        if self.dirty_pages.is_empty() {
            return None;
        }
        let seq = self.vc.increment(self.me);
        let vc = self.vc.clone();
        let mut pages = std::mem::take(&mut self.dirty_pages);
        pages.sort_unstable();
        pages.dedup();
        let mut flushes = Vec::new();
        for &page in &pages {
            let make_diff = !self.holds_master_copy(page);
            let slot = &mut self.pages[page as usize];
            let twin = slot.twin.take().expect("dirty page must have a twin");
            slot.dirty = false;
            if !make_diff {
                self.pool.recycle(twin);
                continue;
            }
            let data = slot.data.as_ref().expect("dirty page must have data");
            let diff = Diff::create(&twin, data);
            self.pool.recycle(twin);
            self.stats.diffs_created += 1;
            if let Some(flush) = self.dispose_closed_diff(page, seq, &vc, diff) {
                flushes.push(flush);
            }
        }
        // The local copy of each dirty page now incorporates this interval.
        let nprocs = self.nprocs;
        let me = self.me;
        for &page in &pages {
            let slot = &mut self.pages[page as usize];
            let applied = slot.applied.get_or_insert_with(|| VectorClock::new(nprocs));
            applied.set(me, seq);
        }
        let record = IntervalRecord {
            creator: self.me,
            seq,
            vc,
            pages,
        };
        debug_assert_eq!(
            self.interval_base[self.me] + self.intervals[self.me].len() as u32,
            seq - 1
        );
        // The record is allocated exactly once — in the creator's own log —
        // and shared by every message that publishes it; no shadow copy
        // travels in the return value.
        self.intervals[self.me].push(Rc::new(record));
        Some(ClosedInterval { seq, flushes })
    }

    /// The retained interval record `seq` of `creator`.
    ///
    /// # Panics
    ///
    /// Panics if the interval is unknown or already garbage collected.
    pub fn interval_record(&self, creator: usize, seq: u32) -> &Rc<IntervalRecord> {
        let base = self.interval_base[creator];
        assert!(
            seq > base,
            "interval ({creator}, {seq}) was garbage collected"
        );
        &self.intervals[creator][(seq - 1 - base) as usize]
    }

    /// Incorporate a write-notice record received from another process:
    /// record the interval and invalidate the pages it modified (except a
    /// master copy held here, which HLRC's flushes keep current).
    /// Records already covered by the local clock are ignored.  The log and
    /// the notices keep `rec` itself, not a copy.
    pub fn apply_interval_record(&mut self, rec: &Rc<IntervalRecord>) {
        if rec.creator == self.me || self.vc.covers(rec.creator, rec.seq) {
            return;
        }
        debug_assert_eq!(
            self.interval_base[rec.creator] + self.intervals[rec.creator].len() as u32,
            rec.seq - 1,
            "interval records of one creator must arrive contiguously"
        );
        self.vc.set(rec.creator, rec.seq);
        self.intervals[rec.creator].push(Rc::clone(rec));
        for &page in &rec.pages {
            if self.holds_master_copy(page) {
                continue;
            }
            let slot = &mut self.pages[page as usize];
            slot.valid = false;
            slot.notices.push(Rc::clone(rec));
        }
    }

    /// Incorporate a batch of records, in an order consistent with `hb1`.
    pub fn apply_interval_records(&mut self, records: &[Rc<IntervalRecord>]) {
        let mut sorted: Vec<&Rc<IntervalRecord>> = records.iter().collect();
        sorted.sort_by_key(|r| (r.creator, r.seq));
        for r in sorted {
            self.apply_interval_record(r);
        }
    }

    /// A lock grant or barrier message `(head, this clock, records not
    /// covered by other)`: what a releaser piggybacks on a lock grant, what
    /// the barrier manager sends in each release message, and — against
    /// this process's own last barrier clock — a worker's barrier arrival.
    /// The records are the log's own, shared.
    pub(crate) fn sync_not_covered_by(&self, head: u32, other: &VectorClock) -> Msg {
        let mut records = Vec::new();
        for (creator, log) in self.intervals.iter().enumerate() {
            let (known, have) = (self.vc.get(creator), other.get(creator));
            let base = self.interval_base[creator];
            assert!(
                have >= base,
                "peer clock ({creator}:{have}) predates the GC horizon {base}"
            );
            let from = (have.min(known) - base) as usize;
            records.extend_from_slice(&log[from..(known - base) as usize]);
        }
        Msg::Sync {
            head,
            vc: self.vc.clone(),
            records,
        }
    }

    /// Total number of interval records currently retained (for tests).
    pub fn intervals_retained(&self) -> usize {
        self.intervals.iter().map(Vec::len).sum()
    }

    /// Garbage-collect protocol metadata covered by `up_to` — the paper's
    /// barrier-time GC: once every process has validated its pages up to a
    /// cluster-wide clock (which the barrier protocol in
    /// `process.rs` arranges), interval records and stored diffs at or below
    /// that clock can never be requested again and are dropped.  Without
    /// this, the interval logs and the diff store grow without bound for
    /// the lifetime of a run — the diff garbage the paper itself calls out.
    pub fn gc(&mut self, up_to: &VectorClock) {
        for creator in 0..self.nprocs {
            let covered = up_to.get(creator);
            let base = self.interval_base[creator];
            let drop_n = (covered.saturating_sub(base) as usize).min(self.intervals[creator].len());
            if drop_n > 0 {
                self.intervals[creator].drain(..drop_n);
                self.interval_base[creator] = base + drop_n as u32;
            }
        }
        self.gc_diffs(up_to);
        self.stats.gc_collections += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(me: usize, n: usize) -> DsmState {
        DsmState::new(me, n, 1 << 20)
    }

    /// Close the open interval and return its logged record.
    fn close_record(s: &mut DsmState) -> Rc<IntervalRecord> {
        let seq = s.close_interval().expect("interval must close").seq;
        s.interval_record(s.me, seq).clone()
    }

    #[test]
    fn close_interval_creates_diffs_and_advances_clock() {
        let mut s = state(0, 2);
        let addr = s.malloc(16, 8);
        s.mark_dirty(s.page_of(addr));
        s.store(addr, &[1u8; 16]);
        let rec = close_record(&mut s);
        assert_eq!(rec.creator, 0);
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.pages, vec![s.page_of(addr)]);
        assert_eq!(s.vc.get(0), 1);
        assert_eq!(s.diffs_held_for(s.page_of(addr)), 1);
        // No dirty pages -> no new interval.
        assert!(s.close_interval().is_none());
    }

    #[test]
    fn interval_record_invalidates_pages_at_receiver() {
        let mut writer = state(0, 2);
        let mut reader = state(1, 2);
        let addr = writer.malloc(16, 8);
        let _ = reader.malloc(16, 8);
        writer.mark_dirty(writer.page_of(addr));
        writer.store(addr, &[7u8; 16]);
        let rec = close_record(&mut writer);

        assert!(reader.is_valid(reader.page_of(addr)));
        reader.apply_interval_record(&rec);
        assert!(!reader.is_valid(reader.page_of(addr)));
        assert_eq!(reader.vc.get(0), 1);
        // Applying the same record twice is a no-op.
        reader.apply_interval_record(&rec);
        assert_eq!(reader.notices_of(reader.page_of(addr)).len(), 1);
    }

    #[test]
    fn a_sync_message_shares_exactly_the_uncovered_records() {
        let mut s = state(0, 2);
        let addr = s.malloc(8, 8);
        for _ in 0..3 {
            s.mark_dirty(s.page_of(addr));
            s.store(addr, &[9u8; 8]);
            s.close_interval();
        }
        let mut other = VectorClock::new(2);
        other.set(0, 1);
        let Msg::Sync { head, vc, records } = s.sync_not_covered_by(7, &other) else {
            unreachable!()
        };
        assert_eq!((head, &vc), (7, &s.vc));
        let seqs: Vec<u32> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 3]);
        for r in &records {
            assert!(Rc::ptr_eq(r, s.interval_record(0, r.seq)), "a copy");
        }
        // A peer ahead of this process is owed nothing.
        other.set(0, 5);
        let owed = s.sync_not_covered_by(7, &other);
        assert!(matches!(owed, Msg::Sync { records, .. } if records.is_empty()));
    }
}
