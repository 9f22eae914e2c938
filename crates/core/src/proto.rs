//! Wire protocol of the DSM runtime: message tags, interval records (write
//! notices), and their encodings.
//!
//! Message sizes matter for the reproduction: Table 2 of the paper counts the
//! UDP messages and the total amount of data TreadMarks sends, so every
//! protocol message has an exact encoding here, and its length is what the
//! simulated network charges and counts.
//!
//! The small requests travel as those bytes.  The four messages that carry
//! protocol data — lock grants, barrier arrivals and releases, diff
//! responses and HLRC diff flushes — travel as values ([`WireValue`]): a
//! run's ranks share one address space, so a receiver keeps the sender's
//! refcounted records and diffs instead of decoding a copy, and each record
//! and diff is held once per run, not once per rank.  Such a message is
//! charged its [`WireValue::wire_len`], computed from its shape; the codec
//! stays the oracle — under `oracle-checks` every value sent is encoded,
//! measured against that length, decoded and compared.

use crate::page::{Diff, PageId};
use crate::vc::VectorClock;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::rc::Rc;

/// Lock acquire request, requester → lock manager.
pub const TAG_LOCK_ACQ: u32 = 100;
/// Forwarded acquire request, manager → last requester.
pub const TAG_LOCK_FWD: u32 = 101;
/// Lock grant (with piggybacked write notices), last releaser → requester.
pub const TAG_LOCK_GRANT: u32 = 102;
/// Barrier arrival (with write notices), client → barrier manager.
pub const TAG_BARRIER_ARRIVE: u32 = 103;
/// Barrier release (with write notices), manager → client.
pub const TAG_BARRIER_RELEASE: u32 = 104;
/// Diff request, faulting process → a writer of the page.
pub const TAG_DIFF_REQ: u32 = 105;
/// Diff response carrying one or more diffs of the requested page.
pub const TAG_DIFF_RESP: u32 = 106;
/// Termination protocol: worker → process 0, "I am done".
pub const TAG_DONE: u32 = 107;
/// Termination protocol: process 0 → worker, "everyone is done, stop serving".
pub const TAG_TERMINATE: u32 = 108;
/// HLRC diff flush (one interval's diffs for one home), writer → home.
pub const TAG_DIFF_FLUSH: u32 = 109;
/// HLRC flush acknowledgement, home → writer.
pub const TAG_FLUSH_ACK: u32 = 110;
/// HLRC full-page fetch request, faulting process → page home.
pub const TAG_PAGE_REQ: u32 = 111;
/// HLRC full-page fetch response carrying the master copy, home → requester.
pub const TAG_PAGE_RESP: u32 = 112;
/// SC write-ownership request, faulting writer → page manager.
pub const TAG_SC_WRITE_REQ: u32 = 120;
/// SC forwarded write-ownership request, manager → the previous requester
/// (the token chain; same `(page, requester)` payload as the request).
pub const TAG_SC_WRITE_FWD: u32 = 121;
/// SC ownership transfer carrying the page (and the copyset to invalidate),
/// old owner → new owner.
pub const TAG_SC_PAGE_XFER: u32 = 122;
/// SC read-copy request, faulting reader → page manager.
pub const TAG_SC_READ_REQ: u32 = 123;
/// SC forwarded read-copy request, manager → the token-chain predecessor
/// (same `(page, requester)` payload as the request).
pub const TAG_SC_READ_FWD: u32 = 124;
/// SC read copy of the page, owner → reader.
pub const TAG_SC_PAGE_COPY: u32 = 125;
/// SC invalidation, new owner → copyset member.
pub const TAG_SC_INVAL: u32 = 126;
/// SC invalidation acknowledgement, member → new owner.
pub const TAG_SC_INVAL_ACK: u32 = 127;

/// A write-notice record: one closed interval of one process, listing the
/// pages that process modified during the interval, together with the
/// interval's vector timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Process that created the interval.
    pub creator: usize,
    /// 1-based sequence number of the interval on its creator.
    pub seq: u32,
    /// Vector timestamp of the interval.
    pub vc: VectorClock,
    /// Pages modified during the interval (the write notices).
    pub pages: Vec<PageId>,
}

/// Append `vc` to `buf` in wire order (little-endian `u32` entries).
pub fn put_vc(buf: &mut BytesMut, vc: &VectorClock) {
    for &e in vc.entries() {
        buf.put_u32_le(e);
    }
}

fn get_vc(buf: &mut Bytes, nprocs: usize) -> VectorClock {
    let entries = (0..nprocs).map(|_| buf.get_u32_le()).collect();
    VectorClock::from_entries(entries)
}

fn put_record(buf: &mut BytesMut, r: &IntervalRecord) {
    buf.put_u32_le(r.creator as u32);
    buf.put_u32_le(r.seq);
    put_vc(buf, &r.vc);
    buf.put_u32_le(r.pages.len() as u32);
    for &p in &r.pages {
        buf.put_u32_le(p);
    }
}

fn get_record(buf: &mut Bytes, nprocs: usize) -> IntervalRecord {
    let creator = buf.get_u32_le() as usize;
    let seq = buf.get_u32_le();
    let vc = get_vc(buf, nprocs);
    let npages = buf.get_u32_le() as usize;
    let pages = (0..npages).map(|_| buf.get_u32_le()).collect();
    IntervalRecord {
        creator,
        seq,
        vc,
        pages,
    }
}

/// Encode a list of interval records preceded by their count.
pub fn put_records(buf: &mut BytesMut, records: &[IntervalRecord]) {
    buf.put_u32_le(records.len() as u32);
    for r in records {
        put_record(buf, r);
    }
}

/// Decode a list of interval records.
pub fn get_records(buf: &mut Bytes, nprocs: usize) -> Vec<IntervalRecord> {
    let n = buf.get_u32_le() as usize;
    (0..n).map(|_| get_record(buf, nprocs)).collect()
}

/// Lock acquire / forwarded acquire: `(lock_id, requester, requester_vc)`.
pub fn encode_lock_request(lock_id: u32, requester: usize, vc: &VectorClock) -> Bytes {
    let mut b = BytesMut::with_capacity(12 + 4 * vc.len());
    b.put_u32_le(lock_id);
    b.put_u32_le(requester as u32);
    put_vc(&mut b, vc);
    b.freeze()
}

/// Decode a lock acquire / forwarded acquire.
pub fn decode_lock_request(mut payload: Bytes, nprocs: usize) -> (u32, usize, VectorClock) {
    let lock_id = payload.get_u32_le();
    let requester = payload.get_u32_le() as usize;
    let vc = get_vc(&mut payload, nprocs);
    (lock_id, requester, vc)
}

/// Lock grant: `(lock_id, granter_vc, write notices the requester lacks)`.
pub fn encode_lock_grant(lock_id: u32, vc: &VectorClock, records: &[IntervalRecord]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(lock_id);
    put_vc(&mut b, vc);
    put_records(&mut b, records);
    b.freeze()
}

/// Decode a lock grant.
pub fn decode_lock_grant(
    mut payload: Bytes,
    nprocs: usize,
) -> (u32, VectorClock, Vec<IntervalRecord>) {
    let lock_id = payload.get_u32_le();
    let vc = get_vc(&mut payload, nprocs);
    let records = get_records(&mut payload, nprocs);
    (lock_id, vc, records)
}

/// Barrier arrival / release: `(epoch, vc, records)`.
pub fn encode_barrier(epoch: u32, vc: &VectorClock, records: &[IntervalRecord]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(epoch);
    put_vc(&mut b, vc);
    put_records(&mut b, records);
    b.freeze()
}

/// Decode a barrier arrival / release.
pub fn decode_barrier(
    mut payload: Bytes,
    nprocs: usize,
) -> (u32, VectorClock, Vec<IntervalRecord>) {
    let epoch = payload.get_u32_le();
    let vc = get_vc(&mut payload, nprocs);
    let records = get_records(&mut payload, nprocs);
    (epoch, vc, records)
}

/// Diff request: `(page, requester, applied_vc, global_vc)`.
///
/// `applied_vc` says which intervals' modifications the requester has already
/// incorporated into its copy of the page; `global_vc` says which intervals
/// the requester knows about at all.  The responder returns every diff it
/// holds for the page whose interval lies between the two.
pub fn encode_diff_request(
    page: PageId,
    requester: usize,
    applied_vc: &VectorClock,
    global_vc: &VectorClock,
) -> Bytes {
    let mut b = BytesMut::with_capacity(12 + 8 * applied_vc.len());
    b.put_u32_le(page);
    b.put_u32_le(requester as u32);
    put_vc(&mut b, applied_vc);
    put_vc(&mut b, global_vc);
    b.freeze()
}

/// Decode a diff request into `(page, requester, applied_vc, global_vc)`.
pub fn decode_diff_request(
    mut payload: Bytes,
    nprocs: usize,
) -> (PageId, usize, VectorClock, VectorClock) {
    let page = payload.get_u32_le();
    let requester = payload.get_u32_le() as usize;
    let applied = get_vc(&mut payload, nprocs);
    let global = get_vc(&mut payload, nprocs);
    (page, requester, applied, global)
}

/// One diff travelling in a diff response: who created it, in which interval,
/// and the runs themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiff {
    /// Creator process of the diff.
    pub creator: usize,
    /// Interval sequence number of the diff on its creator.
    pub seq: u32,
    /// Vector timestamp of the creating interval (used to order application).
    pub vc: VectorClock,
    /// The diff itself.
    pub diff: Diff,
}

/// Decode one diff off the front of `buf` ([`Diff::decode`]); a malformed
/// one is a bug in a sender of this program, so it panics — with the
/// located message, not a slice index.
fn get_diff(buf: &mut Bytes) -> Diff {
    Diff::decode(buf).unwrap_or_else(|e| panic!("malformed diff payload: {e}"))
}

/// Diff response: `(page, diffs)`.
pub fn encode_diff_response(page: PageId, diffs: &[WireDiff]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(page);
    b.put_u32_le(diffs.len() as u32);
    for wd in diffs {
        b.put_u32_le(wd.creator as u32);
        b.put_u32_le(wd.seq);
        put_vc(&mut b, &wd.vc);
        wd.diff.encode(&mut b);
    }
    b.freeze()
}

/// Decode a diff response.
pub fn decode_diff_response(mut payload: Bytes, nprocs: usize) -> (PageId, Vec<WireDiff>) {
    let page = payload.get_u32_le();
    let n = payload.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let creator = payload.get_u32_le() as usize;
        let seq = payload.get_u32_le();
        let vc = get_vc(&mut payload, nprocs);
        let diff = get_diff(&mut payload);
        out.push(WireDiff {
            creator,
            seq,
            vc,
            diff,
        });
    }
    (page, out)
}

/// HLRC diff flush: `(creator, seq, [(page, diff)])` — one closed interval's
/// diffs destined for one home, batched into a single message.
pub fn encode_diff_flush(creator: usize, seq: u32, entries: &[(PageId, Diff)]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(creator as u32);
    b.put_u32_le(seq);
    b.put_u32_le(entries.len() as u32);
    for (page, diff) in entries {
        b.put_u32_le(*page);
        diff.encode(&mut b);
    }
    b.freeze()
}

/// Decode an HLRC diff flush.
pub fn decode_diff_flush(mut payload: Bytes) -> (usize, u32, Vec<(PageId, Diff)>) {
    let creator = payload.get_u32_le() as usize;
    let seq = payload.get_u32_le();
    let n = payload.get_u32_le() as usize;
    let entries = (0..n)
        .map(|_| {
            let page = payload.get_u32_le();
            let diff = get_diff(&mut payload);
            (page, diff)
        })
        .collect();
    (creator, seq, entries)
}

/// A protocol message that travels as a shared value
/// ([`cluster::Payload::Value`]) rather than as its encoding.
///
/// The network charges [`wire_len`](Self::wire_len), computed from the
/// message's shape; [`encode`](Self::encode) and [`decode`](Self::decode)
/// are the codec functions of its tag, which that length must equal.
pub trait WireValue: std::any::Any + std::fmt::Debug + PartialEq {
    /// The length in bytes of the message's encoding.
    fn wire_len(&self) -> usize;
    /// The message encoded as `tag` by the codec's `encode_*` function.
    fn encode(&self, tag: u32) -> Bytes;
    /// A message of `tag` decoded from `payload` on an `nprocs` cluster.
    fn decode(tag: u32, payload: Bytes, nprocs: usize) -> Self;
}

/// The oracle of a value message: its encoding as `tag` is exactly
/// [`WireValue::wire_len`] bytes long, and decodes back to it.
///
/// # Panics
///
/// Panics, naming the tag, if either does not hold.
pub fn check_codec<M: WireValue>(tag: u32, msg: &M, nprocs: usize) {
    let bytes = msg.encode(tag);
    assert_eq!(
        bytes.len(),
        msg.wire_len(),
        "tag {tag}: the computed size is not the encoded size"
    );
    assert_eq!(
        &M::decode(tag, bytes, nprocs),
        msg,
        "tag {tag}: the encoding does not decode to the value sent"
    );
}

impl IntervalRecord {
    /// Bytes the record takes in a grant or barrier message: creator, seq,
    /// clock, page count and pages.
    pub(crate) fn wire_len(&self) -> usize {
        12 + 4 * self.vc.len() + 4 * self.pages.len()
    }
}

/// A lock grant or barrier message: `(head, vc, records)` — the lock id or
/// barrier epoch, the sender's clock, and the interval records the receiver
/// lacks, shared with the sender's interval log.
#[derive(Debug, PartialEq)]
pub struct SyncMessage {
    /// Lock id (a grant) or barrier epoch (an arrival or release).
    pub head: u32,
    /// The sender's vector clock.
    pub vc: VectorClock,
    /// The write notices carried, as the sender holds them.
    pub records: Vec<Rc<IntervalRecord>>,
}

impl WireValue for SyncMessage {
    fn wire_len(&self) -> usize {
        8 + 4 * self.vc.len() + self.records.iter().map(|r| r.wire_len()).sum::<usize>()
    }

    fn encode(&self, tag: u32) -> Bytes {
        let records: Vec<IntervalRecord> = self.records.iter().map(|r| (**r).clone()).collect();
        match tag {
            TAG_LOCK_GRANT => encode_lock_grant(self.head, &self.vc, &records),
            _ => encode_barrier(self.head, &self.vc, &records),
        }
    }

    fn decode(tag: u32, payload: Bytes, nprocs: usize) -> Self {
        let (head, vc, records) = match tag {
            TAG_LOCK_GRANT => decode_lock_grant(payload, nprocs),
            _ => decode_barrier(payload, nprocs),
        };
        let records = records.into_iter().map(Rc::new).collect();
        SyncMessage { head, vc, records }
    }
}

impl WireDiff {
    /// Bytes the diff takes in a diff response: creator, seq, clock and the
    /// diff's own encoding.
    pub(crate) fn wire_len(&self) -> usize {
        8 + 4 * self.vc.len() + self.diff.wire_len()
    }
}

/// A diff response: `(page, diffs)`, each diff shared with the responder's
/// diff store.
#[derive(Debug, PartialEq)]
pub struct DiffResponse {
    /// The requested page.
    pub page: PageId,
    /// The diffs the requester lacks, as the responder holds them.
    pub diffs: Vec<Rc<WireDiff>>,
}

impl WireValue for DiffResponse {
    fn wire_len(&self) -> usize {
        8 + self.diffs.iter().map(|d| d.wire_len()).sum::<usize>()
    }

    fn encode(&self, _tag: u32) -> Bytes {
        let diffs: Vec<WireDiff> = self.diffs.iter().map(|d| (**d).clone()).collect();
        encode_diff_response(self.page, &diffs)
    }

    fn decode(_tag: u32, payload: Bytes, nprocs: usize) -> Self {
        let (page, diffs) = decode_diff_response(payload, nprocs);
        let diffs = diffs.into_iter().map(Rc::new).collect();
        DiffResponse { page, diffs }
    }
}

/// An HLRC diff flush: one closed interval's diffs for one home.
#[derive(Debug, PartialEq)]
pub struct DiffFlush {
    /// The writer.
    pub creator: usize,
    /// The flushed interval's sequence number on the writer.
    pub seq: u32,
    /// `(page, diff)` for every page of the interval this home holds.
    pub entries: Vec<(PageId, Diff)>,
}

impl WireValue for DiffFlush {
    fn wire_len(&self) -> usize {
        12 + self
            .entries
            .iter()
            .map(|(_, d)| 4 + d.wire_len())
            .sum::<usize>()
    }

    fn encode(&self, _tag: u32) -> Bytes {
        encode_diff_flush(self.creator, self.seq, &self.entries)
    }

    fn decode(_tag: u32, payload: Bytes, _nprocs: usize) -> Self {
        let (creator, seq, entries) = decode_diff_flush(payload);
        DiffFlush {
            creator,
            seq,
            entries,
        }
    }
}

/// HLRC flush acknowledgement: echoes `(creator, seq)` of the flushed
/// interval so the writer can match acknowledgements to flushes.
pub fn encode_flush_ack(creator: usize, seq: u32) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u32_le(creator as u32);
    b.put_u32_le(seq);
    b.freeze()
}

/// Decode an HLRC flush acknowledgement.
pub fn decode_flush_ack(mut payload: Bytes) -> (usize, u32) {
    let creator = payload.get_u32_le() as usize;
    let seq = payload.get_u32_le();
    (creator, seq)
}

/// HLRC page fetch request: `(page, requester)`.
pub fn encode_page_request(page: PageId, requester: usize) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u32_le(page);
    b.put_u32_le(requester as u32);
    b.freeze()
}

/// Decode an HLRC page fetch request.
pub fn decode_page_request(mut payload: Bytes) -> (PageId, usize) {
    let page = payload.get_u32_le();
    let requester = payload.get_u32_le() as usize;
    (page, requester)
}

/// HLRC page fetch response: `(page, home's applied clock, full page)`.
pub fn encode_page_response(page: PageId, applied: &VectorClock, data: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(8 + 4 * applied.len() + data.len());
    b.put_u32_le(page);
    put_vc(&mut b, applied);
    b.put_u32_le(data.len() as u32);
    b.put_slice(data);
    b.freeze()
}

/// Decode an HLRC page fetch response; the page is a window of the
/// payload, not a copy.
pub fn decode_page_response(mut payload: Bytes, nprocs: usize) -> (PageId, VectorClock, Bytes) {
    let page = payload.get_u32_le();
    let applied = get_vc(&mut payload, nprocs);
    let len = payload.get_u32_le() as usize;
    (page, applied, payload.split_to(len))
}

/// SC request: `(page, process)` — the shape shared by write requests, read
/// requests, forwarded read requests and invalidations (the process is the
/// requester, or for an invalidation the new owner awaiting the ack).
pub fn encode_sc_request(page: PageId, process: usize) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u32_le(page);
    b.put_u32_le(process as u32);
    b.freeze()
}

/// Decode an SC `(page, process)` request.
pub fn decode_sc_request(mut payload: Bytes) -> (PageId, usize) {
    let page = payload.get_u32_le();
    let process = payload.get_u32_le() as usize;
    (page, process)
}

fn put_procs(buf: &mut BytesMut, procs: &[usize]) {
    buf.put_u32_le(procs.len() as u32);
    for &p in procs {
        buf.put_u32_le(p as u32);
    }
}

fn get_procs(buf: &mut Bytes) -> Vec<usize> {
    let n = buf.get_u32_le() as usize;
    (0..n).map(|_| buf.get_u32_le() as usize).collect()
}

/// SC ownership transfer: `(page, copyset, data)` — the full page always
/// travels with the token (an owner that merely upgrades a downgraded copy
/// never sends a message at all).
pub fn encode_sc_page_transfer(page: PageId, copyset: &[usize], data: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(8 + 4 * copyset.len() + data.len());
    b.put_u32_le(page);
    put_procs(&mut b, copyset);
    b.put_slice(data);
    b.freeze()
}

/// Decode an SC ownership transfer; the page is the rest of the payload,
/// not a copy.
pub fn decode_sc_page_transfer(mut payload: Bytes) -> (PageId, Vec<usize>, Bytes) {
    let page = payload.get_u32_le();
    let copyset = get_procs(&mut payload);
    (page, copyset, payload)
}

/// SC read copy: `(page, data)`.
pub fn encode_sc_page_copy(page: PageId, data: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + data.len());
    b.put_u32_le(page);
    b.put_slice(data);
    b.freeze()
}

/// Decode an SC read copy; the page is the rest of the payload, not a
/// copy.
pub fn decode_sc_page_copy(mut payload: Bytes) -> (PageId, Bytes) {
    let page = payload.get_u32_le();
    (page, payload)
}

/// SC invalidation acknowledgement: the invalidated page.
pub fn encode_sc_ack(page: PageId) -> Bytes {
    let mut b = BytesMut::with_capacity(4);
    b.put_u32_le(page);
    b.freeze()
}

/// Decode an SC invalidation acknowledgement.
pub fn decode_sc_ack(mut payload: Bytes) -> PageId {
    payload.get_u32_le()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::new_page;

    fn vc(v: &[u32]) -> VectorClock {
        VectorClock::from_entries(v.to_vec())
    }

    #[test]
    fn lock_request_round_trip() {
        let payload = encode_lock_request(7, 3, &vc(&[1, 2, 3, 4]));
        let (lock, req, v) = decode_lock_request(payload, 4);
        assert_eq!(lock, 7);
        assert_eq!(req, 3);
        assert_eq!(v.entries(), &[1, 2, 3, 4]);
    }

    #[test]
    fn lock_grant_round_trip_with_records() {
        let records = vec![
            IntervalRecord {
                creator: 1,
                seq: 5,
                vc: vc(&[0, 5]),
                pages: vec![10, 11, 12],
            },
            IntervalRecord {
                creator: 0,
                seq: 2,
                vc: vc(&[2, 0]),
                pages: vec![],
            },
        ];
        let payload = encode_lock_grant(3, &vc(&[2, 5]), &records);
        let (lock, v, recs) = decode_lock_grant(payload, 2);
        assert_eq!(lock, 3);
        assert_eq!(v.entries(), &[2, 5]);
        assert_eq!(recs, records);
    }

    #[test]
    fn barrier_round_trip() {
        let records = vec![IntervalRecord {
            creator: 2,
            seq: 1,
            vc: vc(&[0, 0, 1]),
            pages: vec![42],
        }];
        let payload = encode_barrier(9, &vc(&[1, 1, 1]), &records);
        let (epoch, v, recs) = decode_barrier(payload, 3);
        assert_eq!(epoch, 9);
        assert_eq!(v.entries(), &[1, 1, 1]);
        assert_eq!(recs, records);
    }

    #[test]
    fn diff_request_round_trip() {
        let applied = vc(&[1, 0, 0, 0, 0, 0, 0, 0]);
        let global = vc(&[9, 8, 7, 6, 5, 4, 3, 2]);
        let payload = encode_diff_request(77, 5, &applied, &global);
        let (page, req, a, g) = decode_diff_request(payload, 8);
        assert_eq!(page, 77);
        assert_eq!(req, 5);
        assert_eq!(a, applied);
        assert_eq!(g.get(0), 9);
    }

    #[test]
    fn diff_response_round_trip() {
        let twin = new_page();
        let mut page = new_page();
        page[100] = 1;
        page[2000] = 2;
        let d = Diff::create(&twin, &page);
        let wire = vec![WireDiff {
            creator: 4,
            seq: 3,
            vc: vc(&[0, 0, 0, 0, 3]),
            diff: d.clone(),
        }];
        let payload = encode_diff_response(12, &wire);
        let (pid, diffs) = decode_diff_response(payload, 5);
        assert_eq!(pid, 12);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].diff, d);
        assert_eq!(diffs[0].creator, 4);
    }

    #[test]
    fn sc_messages_round_trip() {
        let (page, proc) = decode_sc_request(encode_sc_request(7, 3));
        assert_eq!((page, proc), (7, 3));

        let mut data = new_page().to_vec();
        data[0] = 1;
        data[4095] = 2;
        let (page, cs, got) = decode_sc_page_transfer(encode_sc_page_transfer(5, &[1, 4], &data));
        assert_eq!(page, 5);
        assert_eq!(cs, vec![1, 4]);
        assert_eq!(got[..], data[..]);

        let (page, got) = decode_sc_page_copy(encode_sc_page_copy(11, &data));
        assert_eq!(page, 11);
        assert_eq!(got[..], data[..]);

        assert_eq!(decode_sc_ack(encode_sc_ack(42)), 42);
    }

    #[test]
    fn diff_flush_round_trip() {
        let twin = new_page();
        let mut page = new_page();
        page[10] = 3;
        page[900] = 4;
        let d = Diff::create(&twin, &page);
        let entries = vec![(5u32, d.clone()), (9u32, Diff::default())];
        let payload = encode_diff_flush(2, 7, &entries);
        let (creator, seq, got) = decode_diff_flush(payload);
        assert_eq!(creator, 2);
        assert_eq!(seq, 7);
        assert_eq!(got, entries);
    }

    #[test]
    fn flush_ack_round_trip() {
        let (creator, seq) = decode_flush_ack(encode_flush_ack(3, 11));
        assert_eq!((creator, seq), (3, 11));
    }

    #[test]
    fn page_fetch_round_trip() {
        let (page, requester) = decode_page_request(encode_page_request(42, 6));
        assert_eq!((page, requester), (42, 6));

        let mut data = new_page().to_vec();
        data[0] = 1;
        data[4095] = 2;
        let applied = vc(&[3, 0, 1]);
        let payload = encode_page_response(42, &applied, &data);
        let (pid, got_applied, got_data) = decode_page_response(payload, 3);
        assert_eq!(pid, 42);
        assert_eq!(got_applied, applied);
        assert_eq!(got_data[..], data[..]);
    }

    #[test]
    fn a_decoded_page_is_a_window_of_its_payload() {
        // HLRC responses, SC transfers and SC copies hand the page over as
        // the payload's own bytes: the receiver's only copy is into its page.
        let mut data = new_page().to_vec();
        data[7] = 7;
        let within = |payload: &Bytes, got: &Bytes| {
            let (span, r) = (payload.as_ptr_range(), got.as_ptr_range());
            assert!(
                span.start <= r.start && r.end <= span.end,
                "copied, not shared"
            );
            assert_eq!(got[..], data[..]);
        };
        let payload = encode_page_response(3, &vc(&[1, 0]), &data);
        within(&payload, &decode_page_response(payload.clone(), 2).2);
        let payload = encode_sc_page_transfer(3, &[1, 2], &data);
        within(&payload, &decode_sc_page_transfer(payload.clone()).2);
        let payload = encode_sc_page_copy(3, &data);
        within(&payload, &decode_sc_page_copy(payload.clone()).1);
    }

    /// The two-diff response whose bytes [`GOLDEN_DIFF_RESPONSE`] pins.
    fn golden_input() -> Vec<WireDiff> {
        let twin = new_page();
        let mut a = new_page();
        a[100] = 1;
        a[101] = 2;
        a[102] = 3;
        a[2000] = 9;
        a[4095] = 5;
        let mut b = new_page();
        for x in b[..8].iter_mut() {
            *x = 0xAA;
        }
        vec![
            WireDiff {
                creator: 1,
                seq: 3,
                vc: vc(&[0, 3, 1]),
                diff: Diff::create(&twin, &a),
            },
            WireDiff {
                creator: 2,
                seq: 7,
                vc: vc(&[4, 3, 7]),
                diff: Diff::create(&twin, &b),
            },
        ]
    }

    /// `encode_diff_response(12, &golden_input())` as printed by commit
    /// 9c56f3b — the last one whose diffs were a `Vec` of per-run `Vec`s —
    /// so the wire format provably did not move with the representation.
    #[rustfmt::skip]
    const GOLDEN_DIFF_RESPONSE: [u8; 85] = [
        0x0c, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // page 12, two diffs
        0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // creator 1, seq 3
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // vc [0, 3, 1]
        0x03, 0x00, 0x00, 0x00, // three runs
        0x64, 0x00, 0x03, 0x00, 0x01, 0x02, 0x03, // 100: 1 2 3
        0xd0, 0x07, 0x01, 0x00, 0x09, // 2000: 9
        0xff, 0x0f, 0x01, 0x00, 0x05, // 4095: 5
        0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, // creator 2, seq 7
        0x04, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, // vc [4, 3, 7]
        0x01, 0x00, 0x00, 0x00, // one run
        0x00, 0x00, 0x08, 0x00, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, // 0: aa × 8
    ];

    #[test]
    fn diff_response_wire_bytes_match_the_golden_encoding() {
        let input = golden_input();
        assert_eq!(
            encode_diff_response(12, &input).as_ref(),
            GOLDEN_DIFF_RESPONSE
        );
        let (page, got) = decode_diff_response(Bytes::from(GOLDEN_DIFF_RESPONSE.to_vec()), 3);
        assert_eq!((page, got), (12, input));
    }

    #[test]
    #[should_panic(
        expected = "malformed diff payload: diff run 2 of 3: header truncated (3 bytes left)"
    )]
    fn a_truncated_diff_response_dies_naming_the_run() {
        // Cut inside the first diff's last run header: the decoder must say
        // which run, not die in the shim's generic `buffer underflow`.
        let cut = 32 + 7 + 5 + 3;
        decode_diff_response(Bytes::from(GOLDEN_DIFF_RESPONSE[..cut].to_vec()), 3);
    }

    #[test]
    #[should_panic(expected = "diff run 0 of 1 (offset 4095, len 2) ends past the 4096-byte page")]
    fn a_flushed_run_past_the_page_end_dies_at_decode_not_at_apply() {
        let mut b = BytesMut::new();
        for word in [2u32, 7, 1, 5, 1] {
            b.put_u32_le(word); // creator, seq, one entry, page 5, one run
        }
        b.put_u16_le(4095);
        b.put_u16_le(2);
        b.put_slice(&[1, 2]);
        decode_diff_flush(b.freeze());
    }

    fn record(creator: usize, seq: u32, clock: &[u32], pages: Vec<PageId>) -> Rc<IntervalRecord> {
        Rc::new(IntervalRecord {
            creator,
            seq,
            vc: vc(clock),
            pages,
        })
    }

    #[test]
    fn the_computed_size_of_every_value_message_is_its_encoded_size() {
        // Records: none, one, eight, and one with no pages.
        let n8: Vec<Rc<IntervalRecord>> = (0..8)
            .map(|i| record(i, 1 + i as u32, &[i as u32; 8], (0..i as PageId).collect()))
            .collect();
        let record_cases = [
            vec![],
            vec![record(1, 5, &[0, 5, 2, 0, 0, 0, 0, 0], vec![10, 11, 12])],
            n8,
            vec![record(0, 2, &[2, 0, 0, 0, 0, 0, 0, 0], vec![])],
        ];
        for records in record_cases {
            let msg = SyncMessage {
                head: 3,
                vc: vc(&[2, 5, 0, 1, 0, 0, 0, 9]),
                records,
            };
            let owned: Vec<IntervalRecord> = msg.records.iter().map(|r| (**r).clone()).collect();
            let grant = encode_lock_grant(msg.head, &msg.vc, &owned);
            let barrier = encode_barrier(msg.head, &msg.vc, &owned);
            assert_eq!(
                (grant.len(), barrier.len()),
                (msg.wire_len(), msg.wire_len())
            );
            check_codec(TAG_LOCK_GRANT, &msg, 8);
            check_codec(TAG_BARRIER_RELEASE, &msg, 8);
        }
        // Diffs: none, one, eight, an empty one, and the stencil diff
        // SOR-Nonzero writes (1,024 three-byte runs, from `page.rs`).
        let twin = new_page();
        let mut sparse = new_page();
        sparse[100] = 1;
        sparse[2000] = 2;
        let sparse = Diff::create(&twin, &sparse);
        let mut old = new_page();
        for (i, b) in old.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let mut relaxed = old.clone();
        for word in relaxed.chunks_exact_mut(4) {
            for b in &mut word[..3] {
                *b ^= 0x5a;
            }
        }
        let stencil = Diff::create(&old, &relaxed);
        assert_eq!(stencil.runs().count(), 1024);
        let wire = |seq: u32, diff: &Diff| {
            Rc::new(WireDiff {
                creator: seq as usize % 8,
                seq,
                vc: vc(&[seq; 8]),
                diff: diff.clone(),
            })
        };
        let diff_cases = [
            vec![],
            vec![wire(1, &sparse)],
            (1..=8).map(|seq| wire(seq, &sparse)).collect(),
            vec![wire(4, &Diff::default())],
            vec![wire(2, &stencil)],
        ];
        for diffs in diff_cases {
            let owned: Vec<WireDiff> = diffs.iter().map(|d| (**d).clone()).collect();
            let flush = DiffFlush {
                creator: 2,
                seq: 7,
                entries: owned.iter().map(|d| (d.seq, d.diff.clone())).collect(),
            };
            let response = DiffResponse { page: 12, diffs };
            assert_eq!(encode_diff_response(12, &owned).len(), response.wire_len());
            assert_eq!(
                encode_diff_flush(2, 7, &flush.entries).len(),
                flush.wire_len()
            );
            check_codec(TAG_DIFF_RESP, &response, 8);
            check_codec(TAG_DIFF_FLUSH, &flush, 8);
        }
    }

    #[test]
    fn message_sizes_scale_with_content() {
        // A grant with no notices is small; one with many notices is larger.
        let small = encode_lock_grant(0, &vc(&[0; 8]), &[]);
        let many: Vec<IntervalRecord> = (0..20)
            .map(|i| IntervalRecord {
                creator: i % 8,
                seq: i as u32,
                vc: vc(&[i as u32; 8]),
                pages: (0..10).collect(),
            })
            .collect();
        let big = encode_lock_grant(0, &vc(&[0; 8]), &many);
        assert!(small.len() < 64);
        assert!(big.len() > 20 * (8 + 4 * 8 + 4 * 10));
    }
}
