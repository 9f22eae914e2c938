//! The home-based LRC (HLRC) backend: home assignment, eager diff flushing,
//! and full-page fault service.
//!
//! Every shared page is assigned a *home* process, round-robin over the
//! shared heap ([`home_of`]).  The home's copy of its pages is the master
//! copy and is never invalidated by write notices:
//!
//! * when a writer closes an interval (lock release or barrier arrival),
//!   the diffs of that interval are *flushed* to each modified page's home
//!   in one message per home, and the writer waits for the homes'
//!   acknowledgements before the synchronization proceeds — this is what
//!   makes the home's copy current before any process can learn of the
//!   interval through a write notice;
//! * an access fault on an invalidated page sends a single request to the
//!   page's home and receives the *full page* in one round trip, however
//!   many writers modified it;
//! * after the flush is acknowledged the writer discards the diff — HLRC
//!   keeps no diff history, so there is no diff accumulation and no
//!   protocol garbage to retain.
//!
//! The trade against the paper's TreadMarks protocol ([`super::lrc`]) is
//! exactly the one the follow-up literature measures: fewer fault
//! round-trips (one per fault instead of one per concurrent writer) and no
//! accumulated-diff traffic, in exchange for eager flush messages on every
//! release and full-page fetches on every fault.

use crate::page::{new_page, Diff, PageId};
use crate::process::Tmk;
use crate::proto::{Msg, TAG_DIFF_FLUSH, TAG_FLUSH_ACK, TAG_PAGE_REQ, TAG_PAGE_RESP};
use crate::state::{ClosedInterval, DsmState};
use crate::vc::VectorClock;
use crate::{MEM_BANDWIDTH, REQUEST_SERVICE_COST};
use cluster::config::PAGE_SIZE;
use cluster::Message;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The home of `page`: pages are distributed round-robin over the processes
/// of the cluster, so consecutive pages of the shared heap live on
/// consecutive homes.
pub fn home_of(page: PageId, nprocs: usize) -> usize {
    page as usize % nprocs
}

/// HLRC fault service: fetch the full page from its home in one round
/// trip.
pub(crate) fn serve_fault(rt: &Tmk, page: PageId) {
    let home = rt.st.borrow().home_of(page);
    debug_assert_ne!(home, rt.id(), "the home never faults on its own pages");
    let request = Msg::PageRequest {
        page,
        process: rt.id(),
    };
    rt.send(home, TAG_PAGE_REQ, request, None);
    rt.st.borrow_mut().stats.page_requests_sent += 1;
    let response = rt.wait_reply(TAG_PAGE_RESP);
    let Msg::PageResponse {
        page: got,
        applied,
        data,
    } = &*response
    else {
        unreachable!()
    };
    assert_eq!(*got, page, "page response for an unexpected page");
    // Installing the incoming page is a page-sized copy.
    rt.proc().compute(PAGE_SIZE as f64 / MEM_BANDWIDTH);
    rt.st.borrow_mut().apply_page(page, data, applied);
}

/// Writer side of the eager flush: group the closed interval's diffs by
/// home, send one flush message per home, and wait for every
/// acknowledgement (serving incoming protocol requests meanwhile).
///
/// Called from the interval-close path (`Tmk::close_and_publish`), i.e.
/// before the release or barrier arrival that publishes the interval's
/// write notices — which is the ordering that guarantees the home is
/// current before anyone can fault on the page.  Under LRC and SC the
/// closed interval carries no flushes, so this returns at once.
pub(crate) fn flush(rt: &Tmk, closed: ClosedInterval) {
    if closed.flushes.is_empty() {
        return;
    }
    rt.proc()
        .span_begin(cluster::SpanCat::Flush, closed.flushes.len() as u64);
    let seq = closed.seq;
    let mut by_home: BTreeMap<usize, Vec<(PageId, Diff)>> = BTreeMap::new();
    for (page, diff) in closed.flushes {
        let home = rt.st.borrow().home_of(page);
        debug_assert_ne!(home, rt.id(), "own-homed pages are applied in place");
        by_home.entry(home).or_default().push((page, diff));
    }
    let homes = by_home.len();
    for (home, entries) in by_home {
        let bytes: usize = entries.iter().map(|(_, d)| d.encoded_len()).sum();
        // Creating each flushed diff scans the page and its twin (HLRC
        // pays diff creation eagerly, at flush time), and copying the
        // diffs into the flush message costs memory bandwidth too.
        let scan = entries.len() as f64 * 2.0 * PAGE_SIZE as f64;
        rt.proc().compute((scan + bytes as f64) / MEM_BANDWIDTH);
        let flush = Msg::DiffFlush {
            creator: rt.id(),
            seq,
            entries,
        };
        rt.send(home, TAG_DIFF_FLUSH, flush, None);
        rt.st.borrow_mut().stats.diff_flushes_sent += 1;
    }
    for _ in 0..homes {
        let ack = rt.wait_reply(TAG_FLUSH_ACK);
        let expected = Msg::FlushAck {
            creator: rt.id(),
            seq,
        };
        assert_eq!(*ack, expected, "flush ack for another process or interval");
    }
    rt.proc().span_end(cluster::SpanCat::Flush);
}

/// Serve one HLRC request (home side): a diff flush or a page fetch.
/// Hands any other message back unserved.
pub(crate) fn serve_request(rt: &Tmk, m: Message) -> Option<Message> {
    match m.tag {
        TAG_DIFF_FLUSH => serve_flush(rt, m),
        TAG_PAGE_REQ => serve_page_request(rt, m),
        _ => return Some(m),
    }
    None
}

/// Serve an incoming diff flush (home side): apply each diff to the master
/// copy and acknowledge at the request's arrival time plus the service cost.
fn serve_flush(rt: &Tmk, m: Message) {
    rt.proc().compute(REQUEST_SERVICE_COST);
    let msg: Rc<Msg> = m.payload.into_value();
    let Msg::DiffFlush {
        creator,
        seq,
        ref entries,
    } = *msg
    else {
        unreachable!()
    };
    let bytes: usize = entries.iter().map(|(_, d)| d.encoded_len()).sum();
    {
        let mut st = rt.st.borrow_mut();
        for (page, diff) in entries {
            st.apply_flush(*page, creator, seq, diff);
        }
    }
    // Applying the diffs to the master copy costs memory bandwidth.
    rt.proc().compute(bytes as f64 / MEM_BANDWIDTH);
    let ack = Msg::FlushAck { creator, seq };
    let depart = m.arrival + REQUEST_SERVICE_COST;
    rt.send(creator, TAG_FLUSH_ACK, ack, Some(depart));
}

/// Serve an incoming page fetch (home side): reply with a snapshot of the
/// master copy at the request's arrival time plus the service cost.
fn serve_page_request(rt: &Tmk, m: Message) {
    rt.proc().compute(REQUEST_SERVICE_COST);
    let (page, requester) = m.payload.into_value::<Msg>().page_request();
    let response = {
        let mut st = rt.st.borrow_mut();
        st.stats.page_requests_served += 1;
        let (data, applied) = st.page_snapshot(page);
        let data = data.into();
        Msg::PageResponse {
            page,
            applied,
            data,
        }
    };
    // Copying the page into the response steals cycles at the home.
    rt.proc().compute(PAGE_SIZE as f64 / MEM_BANDWIDTH);
    let depart = m.arrival + REQUEST_SERVICE_COST;
    rt.send(requester, TAG_PAGE_RESP, response, Some(depart));
}

impl DsmState {
    /// The home of `page` in this cluster.
    pub fn home_of(&self, page: PageId) -> usize {
        home_of(page, self.nprocs)
    }

    /// Home side of a flush: incorporate one interval's diff for a page
    /// this process homes into the master copy.
    ///
    /// Concurrent intervals of a data-race-free program modify disjoint
    /// bytes, and causally ordered flushes arrive in causal order (a later
    /// writer must have fetched the page — and therefore the earlier flush —
    /// before writing), so applying flushes in arrival order is sound.
    pub fn apply_flush(&mut self, page: PageId, creator: usize, seq: u32, diff: &Diff) {
        debug_assert_eq!(self.home_of(page), self.me, "flush sent to a non-home");
        let nprocs = self.nprocs;
        let slot = &mut self.pages[page as usize];
        debug_assert!(slot.valid, "the home's master copy must stay valid");
        let data = slot.data.get_or_insert_with(new_page);
        diff.apply(data);
        // Keep an open local interval's twin in sync so the home's own diff
        // stays minimal, exactly as the LRC fetch path does.
        if let Some(twin) = slot.twin.as_mut() {
            diff.apply(twin);
        }
        let applied = slot.applied.get_or_insert_with(|| VectorClock::new(nprocs));
        if seq > applied.get(creator) {
            applied.set(creator, seq);
        }
        self.stats.diff_flushes_served += 1;
        self.stats.diff_bytes_received += diff.encoded_len() as u64;
    }

    /// Home side of a page fetch: the master copy of `page` and the clock of
    /// intervals incorporated into it.
    ///
    /// If the home itself is mid-interval on the page (dirty, twinned), the
    /// *twin* is served: it carries every committed flush (twins are kept in
    /// sync by [`Self::apply_flush`]) but not the home's own uncommitted
    /// writes, which no correctly synchronized reader may observe yet.
    ///
    /// The page is borrowed from its slot: the response's snapshot is its one
    /// copy at the home.
    pub fn page_snapshot(&self, page: PageId) -> (&[u8], VectorClock) {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        debug_assert_eq!(self.home_of(page), self.me, "page fetch sent to a non-home");
        let slot = &self.pages[page as usize];
        let data = match (&slot.twin, &slot.data) {
            (Some(twin), _) => &**twin,
            (None, Some(data)) => &**data,
            (None, None) => &ZERO_PAGE,
        };
        let applied = slot
            .applied
            .clone()
            .unwrap_or_else(|| VectorClock::new(self.nprocs));
        (data, applied)
    }

    /// Requester side of a page fetch: adopt the home's copy as the local
    /// copy and clear the pending notices the home's clock covers.
    ///
    /// If the local process has uncommitted writes on the page (an open
    /// interval), they are replayed on top of the incoming copy and the twin
    /// is rebased, so the eventual flush of this interval carries only the
    /// local modifications.  A notice that arrived *during* the fetch (a
    /// barrier arrival served while waiting applies fresh interval records)
    /// may not be covered by the home's copy yet; it is retained and the
    /// page stays invalid, so the fault path fetches again.
    pub fn apply_page(&mut self, page: PageId, incoming: &[u8], home_applied: &VectorClock) {
        assert_eq!(incoming.len(), PAGE_SIZE, "page response must be one page");
        let nprocs = self.nprocs;
        let slot = &mut self.pages[page as usize];
        if slot.dirty {
            let twin = slot.twin.as_mut().expect("dirty page must have a twin");
            let data = slot.data.as_mut().expect("dirty page must have data");
            let local = Diff::create(twin, data);
            data.copy_from_slice(incoming);
            twin.copy_from_slice(incoming);
            local.apply(data);
        } else {
            let data = slot.data.get_or_insert_with(new_page);
            data.copy_from_slice(incoming);
        }
        let applied = slot.applied.get_or_insert_with(|| VectorClock::new(nprocs));
        applied.merge(home_applied);
        self.revalidate_page(page);
        self.stats.page_bytes_fetched += PAGE_SIZE as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolKind;

    fn state(me: usize, n: usize) -> DsmState {
        DsmState::new_with(me, n, 1 << 20, ProtocolKind::Hlrc)
    }

    /// Drive one HLRC interval close at the state level, returning what the
    /// runtime would flush (the policy path exercised by `close_interval`).
    fn close(s: &mut DsmState) -> ClosedInterval {
        s.close_interval().expect("interval must close")
    }

    #[test]
    fn homes_are_round_robin_over_the_heap() {
        assert_eq!(home_of(0, 4), 0);
        assert_eq!(home_of(1, 4), 1);
        assert_eq!(home_of(4, 4), 0);
        assert_eq!(home_of(7, 4), 3);
        assert_eq!(home_of(5, 1), 0);
    }

    #[test]
    fn flush_updates_master_copy_and_version() {
        // Page 1 is homed on process 1 (of 2).
        let mut writer = state(0, 2);
        let mut home = state(1, 2);
        let addr = PAGE_SIZE; // page 1
        let _ = writer.malloc(2 * PAGE_SIZE, 8);
        let _ = home.malloc(2 * PAGE_SIZE, 8);
        writer.mark_dirty(writer.page_of(addr));
        writer.write_bytes(addr, &[9u8; 64]);
        let closed = close(&mut writer);
        assert_eq!(closed.flushes.len(), 1);
        let (page, diff) = &closed.flushes[0];
        home.apply_flush(*page, 0, closed.seq, diff);

        let (snapshot, applied) = home.page_snapshot(*page);
        assert!(snapshot[..64].iter().all(|&b| b == 9));
        assert!(applied.covers(0, 1));
        // HLRC keeps no diff history at the writer.
        assert_eq!(writer.diffs_held_for(*page), 0);
    }

    #[test]
    fn own_homed_pages_are_applied_in_place_without_flush() {
        let mut s = state(0, 2);
        let _ = s.malloc(2 * PAGE_SIZE, 8);
        s.mark_dirty(0); // page 0 is homed on process 0
        s.write_bytes(0, &[5u8; 16]);
        let closed = close(&mut s);
        assert!(closed.flushes.is_empty());
        let (snapshot, applied) = s.page_snapshot(0);
        assert!(snapshot[..16].iter().all(|&b| b == 5));
        assert!(applied.covers(0, 1));
    }

    #[test]
    fn snapshot_of_a_dirty_home_page_serves_the_twin() {
        let mut home = state(0, 2);
        let _ = home.malloc(PAGE_SIZE, 8);
        home.mark_dirty(0);
        home.write_bytes(0, &[1u8; 8]);
        home.close_interval();
        // A second, still-open interval must not leak into the snapshot.
        home.mark_dirty(0);
        home.write_bytes(8, &[2u8; 8]);
        let (snapshot, _) = home.page_snapshot(0);
        assert!(snapshot[..8].iter().all(|&b| b == 1));
        assert!(snapshot[8..16].iter().all(|&b| b == 0));
    }

    #[test]
    fn fetch_rebases_an_open_interval_on_the_incoming_page() {
        let mut reader = state(0, 3);
        let _ = reader.malloc(3 * PAGE_SIZE, 8);
        let page = 1; // homed on process 1
        let addr = PAGE_SIZE;
        reader.mark_dirty(page);
        reader.write_bytes(addr, &[7u8; 8]);

        // The home's copy carries another writer's committed interval.
        let mut incoming = vec![0u8; PAGE_SIZE];
        incoming[100..108].copy_from_slice(&[3u8; 8]);
        let mut home_applied = VectorClock::new(3);
        home_applied.set(2, 1);
        // Pretend we were notified of that interval, then fetch.
        reader.apply_page(page, &incoming, &home_applied);

        let mut own = [0u8; 8];
        reader.read_bytes(addr, &mut own);
        assert_eq!(own, [7u8; 8], "local uncommitted writes survive the fetch");
        let mut other = [0u8; 8];
        reader.read_bytes(addr + 100, &mut other);
        assert_eq!(other, [3u8; 8], "the home's committed data is adopted");

        // The rebased twin keeps the eventual flush minimal.
        let closed = close(&mut reader);
        let (_, diff) = &closed.flushes[0];
        assert_eq!(diff.modified_bytes(), 8);
    }

    #[test]
    fn write_notices_do_not_invalidate_the_home() {
        use crate::proto::IntervalRecord;
        let mut home = state(0, 2);
        let mut other = state(1, 2);
        let _ = home.malloc(2 * PAGE_SIZE, 8);
        let _ = other.malloc(2 * PAGE_SIZE, 8);
        // Process 1 modifies pages 0 (homed at 0) and 1 (homed at 1).
        let rec = Rc::new(IntervalRecord {
            creator: 1,
            seq: 1,
            vc: VectorClock::from_entries(vec![0, 1]),
            pages: vec![0, 1],
        });
        home.apply_interval_record(&rec);
        assert!(home.is_valid(0), "own-homed page stays valid");
        assert!(!home.is_valid(1), "remote-homed page is invalidated");
        assert!(home.notices_of(0).is_empty());
        assert_eq!(home.notices_of(1).len(), 1);
        let _ = other;
    }
}
