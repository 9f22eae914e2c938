//! The interval log: closing intervals, publishing and applying write
//! notices, and the barrier-time garbage collection of both halves of the
//! protocol metadata.
//!
//! An *interval* is the span between two synchronization operations of one
//! process; closing it produces a write-notice record (the pages modified)
//! and one diff per modified page.  This module owns the log of retained
//! records — stored exactly once, with a pre-encoded wire buffer spliced
//! into every grant or barrier message that carries the record — and the
//! receiver side that turns records into page invalidations.  What becomes
//! of each created diff, and which notices actually invalidate, are
//! protocol policy ([`crate::protocol`]).

use crate::page::Diff;
use crate::proto::{encode_sync_spliced, record_wire, vc_wire, IntervalRecord};
use crate::state::{ClosedInterval, DsmState, Notice};
use crate::vc::VectorClock;
use bytes::{BufMut, Bytes, BytesMut};

/// One entry of a process's interval log: the record plus its wire encoding,
/// computed once when the record enters the log (created locally or received
/// from its creator) and spliced into every message that later carries it.
#[derive(Debug)]
pub(crate) struct LoggedInterval {
    record: IntervalRecord,
    wire: Bytes,
}

impl LoggedInterval {
    fn new(record: IntervalRecord) -> Self {
        let wire = record_wire(&record);
        LoggedInterval { record, wire }
    }
}

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
        let interval_vc_wire = vc_wire(&vc);
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
            if let Some(flush) = self.dispose_closed_diff(page, seq, &vc, &interval_vc_wire, diff) {
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
        // The record is stored exactly once — in the creator's own log —
        // and retrieved by index when published; no shadow copy travels in
        // the return value.
        self.intervals[self.me].push(LoggedInterval::new(record));
        Some(ClosedInterval { seq, flushes })
    }

    /// The retained interval record `seq` of `creator`.
    ///
    /// # Panics
    ///
    /// Panics if the interval is unknown or already garbage collected.
    pub fn interval_record(&self, creator: usize, seq: u32) -> &IntervalRecord {
        let base = self.interval_base[creator];
        assert!(
            seq > base,
            "interval ({creator}, {seq}) was garbage collected"
        );
        &self.intervals[creator][(seq - 1 - base) as usize].record
    }

    /// Incorporate a write-notice record received from another process:
    /// record the interval and invalidate the pages it modified (except a
    /// master copy held here, which HLRC's flushes keep current).
    /// Records already covered by the local clock are ignored.
    pub fn apply_interval_record(&mut self, rec: &IntervalRecord) {
        if rec.creator == self.me || self.vc.covers(rec.creator, rec.seq) {
            return;
        }
        debug_assert_eq!(
            self.interval_base[rec.creator] + self.intervals[rec.creator].len() as u32,
            rec.seq - 1,
            "interval records of one creator must arrive contiguously"
        );
        self.vc.set(rec.creator, rec.seq);
        self.intervals[rec.creator].push(LoggedInterval::new(rec.clone()));
        for &page in &rec.pages {
            if self.holds_master_copy(page) {
                continue;
            }
            let slot = &mut self.pages[page as usize];
            slot.valid = false;
            slot.notices.push(Notice {
                creator: rec.creator,
                seq: rec.seq,
                vc: rec.vc.clone(),
            });
        }
    }

    /// Incorporate a batch of records, in an order consistent with `hb1`.
    pub fn apply_interval_records(&mut self, records: &[IntervalRecord]) {
        let mut sorted: Vec<&IntervalRecord> = records.iter().collect();
        sorted.sort_by_key(|r| (r.creator, r.seq));
        for r in sorted {
            self.apply_interval_record(r);
        }
    }

    /// Encode a lock grant or barrier message `(head, this clock, records
    /// not covered by other)` into the state's reusable wire buffer: the
    /// hot send path of every grant and barrier message.  The record wires
    /// are spliced straight from the interval log — no per-send vector of
    /// references — and the message size is computed exactly up front, so
    /// the encoding neither allocates (in steady state) nor grows.
    /// Byte-identical to
    /// [`encode_barrier`](crate::proto::encode_barrier) /
    /// [`encode_lock_grant`](crate::proto::encode_lock_grant) over the same
    /// records (what a releaser piggybacks on a lock grant and what the
    /// barrier manager sends in each release message).
    pub(crate) fn encode_sync_not_covered_by(&mut self, head: u32, other: &VectorClock) -> Bytes {
        let DsmState {
            intervals,
            interval_base,
            vc,
            wire,
            ..
        } = self;
        let (nrecords, records_len) = splice_size(intervals, interval_base, vc, other);
        encode_sync_spliced(wire, head, vc, nrecords, records_len, |b| {
            splice_records(intervals, interval_base, vc, other, b)
        })
    }

    /// [`encode_sync_not_covered_by`](Self::encode_sync_not_covered_by)
    /// against this process's own last barrier clock — the worker's barrier
    /// arrival message (a separate entry point because the covering clock
    /// is a field of the same state the encoder borrows).
    pub(crate) fn encode_barrier_arrival(&mut self, epoch: u32) -> Bytes {
        let DsmState {
            intervals,
            interval_base,
            vc,
            last_barrier_vc,
            wire,
            ..
        } = self;
        let (nrecords, records_len) = splice_size(intervals, interval_base, vc, last_barrier_vc);
        encode_sync_spliced(wire, epoch, vc, nrecords, records_len, |b| {
            splice_records(intervals, interval_base, vc, last_barrier_vc, b)
        })
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

/// Count and summed wire length of the retained records not covered by
/// `other` — the exact size pre-pass of the spliced sync encoding.
fn splice_size(
    intervals: &[Vec<LoggedInterval>],
    interval_base: &[u32],
    vc: &VectorClock,
    other: &VectorClock,
) -> (usize, usize) {
    let mut count = 0usize;
    let mut len = 0usize;
    for (creator, log) in intervals.iter().enumerate() {
        let known = vc.get(creator);
        let have = other.get(creator);
        let base = interval_base[creator];
        assert!(
            have >= base,
            "peer clock ({creator}:{have}) predates the GC horizon {base}"
        );
        for seq in (have + 1)..=known {
            count += 1;
            len += log[(seq - 1 - base) as usize].wire.len();
        }
    }
    (count, len)
}

/// Splice the same records, in the same order, into `buf`.
fn splice_records(
    intervals: &[Vec<LoggedInterval>],
    interval_base: &[u32],
    vc: &VectorClock,
    other: &VectorClock,
    buf: &mut BytesMut,
) {
    for (creator, log) in intervals.iter().enumerate() {
        let known = vc.get(creator);
        let have = other.get(creator);
        let base = interval_base[creator];
        for seq in (have + 1)..=known {
            buf.put_slice(&log[(seq - 1 - base) as usize].wire);
        }
    }
}

#[cfg(test)]
impl DsmState {
    /// All interval records known locally that are not covered by `other`,
    /// as values: the input of the reference encoders the spliced encoding
    /// is tested byte-identical against.
    pub(crate) fn records_not_covered_by(&self, other: &VectorClock) -> Vec<IntervalRecord> {
        let mut out = Vec::new();
        for creator in 0..self.nprocs {
            let known = self.vc.get(creator);
            let have = other.get(creator);
            let base = self.interval_base[creator];
            assert!(
                have >= base,
                "peer clock ({creator}:{have}) predates the GC horizon {base}"
            );
            for seq in (have + 1)..=known {
                out.push(
                    self.intervals[creator][(seq - 1 - base) as usize]
                        .record
                        .clone(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(me: usize, n: usize) -> DsmState {
        DsmState::new(me, n, 1 << 20)
    }

    /// Close the open interval and return a clone of its logged record.
    fn close_record(s: &mut DsmState) -> IntervalRecord {
        let seq = s.close_interval().expect("interval must close").seq;
        s.interval_record(s.me, seq).clone()
    }

    #[test]
    fn close_interval_creates_diffs_and_advances_clock() {
        let mut s = state(0, 2);
        let addr = s.malloc(16, 8);
        s.mark_dirty(s.page_of(addr));
        s.write_bytes(addr, &[1; 16]);
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
        writer.write_bytes(addr, &[7; 16]);
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
    fn records_not_covered_by_returns_exactly_the_gap() {
        let mut s = state(0, 2);
        let addr = s.malloc(8, 8);
        for _ in 0..3 {
            s.mark_dirty(s.page_of(addr));
            s.write_bytes(addr, &[9; 8]);
            s.close_interval();
        }
        let mut other = VectorClock::new(2);
        other.set(0, 1);
        let recs = s.records_not_covered_by(&other);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 2);
        assert_eq!(recs[1].seq, 3);
    }

    #[test]
    fn spliced_sync_encoding_matches_the_reference_encoders() {
        let mut s = state(0, 2);
        let addr = s.malloc(8, 8);
        for _ in 0..3 {
            s.mark_dirty(s.page_of(addr));
            s.write_bytes(addr, &[9; 8]);
            s.close_interval();
        }
        let mut other = VectorClock::new(2);
        other.set(0, 1);
        let reference =
            crate::proto::encode_lock_grant(7, &s.vc, &s.records_not_covered_by(&other));
        // Repeated encodes reuse the buffer and stay byte-identical.
        for _ in 0..3 {
            assert_eq!(s.encode_sync_not_covered_by(7, &other), reference);
        }
        // The barrier-arrival entry point covers against last_barrier_vc
        // (all zeros here), i.e. every record travels.
        let all =
            crate::proto::encode_barrier(1, &s.vc, &s.records_not_covered_by(&VectorClock::new(2)));
        assert_eq!(s.encode_barrier_arrival(1), all);
    }
}
