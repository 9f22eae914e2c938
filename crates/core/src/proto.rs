//! Wire protocol of the DSM runtime: message tags, interval records (write
//! notices), the one message type [`Msg`], and its encoding.
//!
//! Message sizes matter for the reproduction: Table 2 of the paper counts the
//! UDP messages and the total amount of data TreadMarks sends, so every
//! protocol message has an exact encoding here, and its length is what the
//! simulated network charges and counts.
//!
//! No DSM message travels as that encoding.  A run's ranks share one address
//! space, so every message is a [`Msg`] value ([`cluster::Payload::Value`]):
//! a receiver keeps the sender's refcounted records and diffs instead of
//! decoding a copy, each record and diff is held once per run, not once per
//! rank, and a page image is one owned buffer.  A message is charged its
//! [`Msg::wire_len`], computed from its shape.  The codec —
//! [`Msg::encode`] and [`Msg::decode`] — is the oracle of that length:
//! [`check_codec`] encodes a message, measures the bytes against the length,
//! decodes them and compares, on every DSM send under `oracle-checks`.  A
//! tag always carries the same shape, which that check pins too, so a
//! receiver destructures the variant its tag names and treats any other as
//! unreachable.

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

impl IntervalRecord {
    /// Bytes the record takes in a grant or barrier message: creator, seq,
    /// clock, page count and pages.
    pub(crate) fn wire_len(&self) -> usize {
        12 + 4 * self.vc.len() + 4 * self.pages.len()
    }
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

impl WireDiff {
    /// Bytes the diff takes in a diff response: creator, seq, clock and the
    /// diff's own encoding.
    pub(crate) fn wire_len(&self) -> usize {
        8 + 4 * self.vc.len() + self.diff.wire_len()
    }
}

/// A DSM message: one variant per payload shape.  Which tags carry which
/// shape is [`Msg::decode`]'s `match`.
#[derive(Debug, PartialEq)]
pub enum Msg {
    /// Lock acquire or forwarded acquire: the lock, the requester and its
    /// clock.
    LockRequest {
        /// The lock.
        lock: u32,
        /// The acquiring process.
        requester: usize,
        /// The requester's vector clock.
        vc: VectorClock,
    },
    /// A lock grant, barrier arrival or barrier release: the lock id or
    /// barrier epoch, the sender's clock, and the interval records the
    /// receiver lacks, shared with the sender's interval log.
    Sync {
        /// Lock id (a grant) or barrier epoch (an arrival or release).
        head: u32,
        /// The sender's vector clock.
        vc: VectorClock,
        /// The write notices carried, as the sender holds them.
        records: Vec<Rc<IntervalRecord>>,
    },
    /// Diff request.  `applied` says which intervals' modifications the
    /// requester has already incorporated into its copy of the page;
    /// `global` says which intervals it knows about at all.  The responder
    /// returns every diff it holds for the page whose interval lies between
    /// the two.
    DiffRequest {
        /// The faulting page.
        page: PageId,
        /// The faulting process.
        requester: usize,
        /// Intervals already applied to the requester's copy.
        applied: VectorClock,
        /// The requester's vector clock.
        global: VectorClock,
    },
    /// Diff response: the diffs the requester lacks, each shared with the
    /// responder's diff store.
    DiffResponse {
        /// The requested page.
        page: PageId,
        /// The diffs, as the responder holds them.
        diffs: Vec<Rc<WireDiff>>,
    },
    /// HLRC diff flush: one closed interval's diffs for one home.
    DiffFlush {
        /// The writer.
        creator: usize,
        /// The flushed interval's sequence number on the writer.
        seq: u32,
        /// `(page, diff)` for every page of the interval this home holds.
        entries: Vec<(PageId, Diff)>,
    },
    /// HLRC flush acknowledgement: echoes the flushed interval so the
    /// writer can match acknowledgements to flushes.
    FlushAck {
        /// The writer.
        creator: usize,
        /// The flushed interval's sequence number.
        seq: u32,
    },
    /// `(page, process)`: an HLRC page fetch, an SC read or write request
    /// or its forward (the process is the requester), or an SC
    /// invalidation (the process is the new owner awaiting the ack).
    PageRequest {
        /// The page.
        page: PageId,
        /// The requester, or the new owner.
        process: usize,
    },
    /// HLRC page response: the home's master copy and the clock of the
    /// intervals it incorporates.
    PageResponse {
        /// The page.
        page: PageId,
        /// Intervals applied to the home's copy.
        applied: VectorClock,
        /// Snapshot of the page, taken when the home served the request.
        data: Box<[u8]>,
    },
    /// SC ownership transfer: the page, its token and the copyset to
    /// invalidate (an owner that merely upgrades a downgraded copy never
    /// sends one).
    ScTransfer {
        /// The page.
        page: PageId,
        /// The processes holding readable copies.
        copyset: Vec<usize>,
        /// The page itself, moved out of the owner's slot, which the
        /// transfer invalidates.
        data: Box<[u8]>,
    },
    /// SC read copy of a page, owner → reader.
    ScCopy {
        /// The page.
        page: PageId,
        /// Snapshot of the page, taken when the owner served the read.
        data: Box<[u8]>,
    },
    /// SC invalidation acknowledgement.
    ScAck {
        /// The invalidated page.
        page: PageId,
    },
    /// No payload: the exit protocol's `DONE` and `TERMINATE`.
    Empty,
}

impl Msg {
    /// The `(page, process)` of a [`Msg::PageRequest`], the shape six tags
    /// share.
    pub(crate) fn page_request(&self) -> (PageId, usize) {
        let Msg::PageRequest { page, process } = *self else {
            unreachable!("not a (page, process) request: {self:?}")
        };
        (page, process)
    }

    /// The length in bytes of the message's encoding, which the network
    /// charges.
    pub fn wire_len(&self) -> usize {
        match self {
            Msg::LockRequest { vc, .. } => 8 + 4 * vc.len(),
            Msg::Sync { vc, records, .. } => {
                8 + 4 * vc.len() + records.iter().map(|r| r.wire_len()).sum::<usize>()
            }
            Msg::DiffRequest {
                applied, global, ..
            } => 8 + 4 * (applied.len() + global.len()),
            Msg::DiffResponse { diffs, .. } => {
                8 + diffs.iter().map(|d| d.wire_len()).sum::<usize>()
            }
            Msg::DiffFlush { entries, .. } => {
                12 + entries.iter().map(|(_, d)| 4 + d.wire_len()).sum::<usize>()
            }
            Msg::FlushAck { .. } | Msg::PageRequest { .. } => 8,
            Msg::PageResponse { applied, data, .. } => 8 + 4 * applied.len() + data.len(),
            Msg::ScTransfer { copyset, data, .. } => 8 + 4 * copyset.len() + data.len(),
            Msg::ScCopy { data, .. } => 4 + data.len(),
            Msg::ScAck { .. } => 4,
            Msg::Empty => 0,
        }
    }

    /// The message's encoding: little-endian `u32` fields in declaration
    /// order, clocks as their `nprocs` entries, lists behind their `u32`
    /// count — except the page image of an SC transfer or copy, which runs
    /// to the end of the payload.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.wire_len());
        match self {
            Msg::LockRequest {
                lock,
                requester,
                vc,
            } => {
                put_u32s(&mut b, [*lock, *requester as u32]);
                put_vc(&mut b, vc);
            }
            Msg::Sync { head, vc, records } => {
                b.put_u32_le(*head);
                put_vc(&mut b, vc);
                b.put_u32_le(records.len() as u32);
                for r in records {
                    put_u32s(&mut b, [r.creator as u32, r.seq]);
                    put_vc(&mut b, &r.vc);
                    b.put_u32_le(r.pages.len() as u32);
                    put_u32s(&mut b, r.pages.iter().copied());
                }
            }
            Msg::DiffRequest {
                page,
                requester,
                applied,
                global,
            } => {
                put_u32s(&mut b, [*page, *requester as u32]);
                put_vc(&mut b, applied);
                put_vc(&mut b, global);
            }
            Msg::DiffResponse { page, diffs } => {
                put_diff_response(&mut b, *page, diffs.iter().map(|d| &**d));
            }
            Msg::DiffFlush {
                creator,
                seq,
                entries,
            } => {
                put_u32s(&mut b, [*creator as u32, *seq, entries.len() as u32]);
                for (page, diff) in entries {
                    b.put_u32_le(*page);
                    diff.encode(&mut b);
                }
            }
            Msg::FlushAck { creator, seq } => put_u32s(&mut b, [*creator as u32, *seq]),
            Msg::PageRequest { page, process } => put_u32s(&mut b, [*page, *process as u32]),
            Msg::PageResponse {
                page,
                applied,
                data,
            } => {
                b.put_u32_le(*page);
                put_vc(&mut b, applied);
                b.put_u32_le(data.len() as u32);
                b.put_slice(data);
            }
            Msg::ScTransfer {
                page,
                copyset,
                data,
            } => {
                put_u32s(&mut b, [*page, copyset.len() as u32]);
                put_u32s(&mut b, copyset.iter().map(|&p| p as u32));
                b.put_slice(data);
            }
            Msg::ScCopy { page, data } => {
                b.put_u32_le(*page);
                b.put_slice(data);
            }
            Msg::ScAck { page } => b.put_u32_le(*page),
            Msg::Empty => {}
        }
        b.freeze()
    }

    /// The message of `tag` encoded in `payload`, on an `nprocs` cluster.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not a DSM tag, a diff is malformed, or the
    /// payload is shorter or longer than the message.
    pub fn decode(tag: u32, mut payload: Bytes, nprocs: usize) -> Msg {
        let b = &mut payload;
        let msg = match tag {
            TAG_LOCK_ACQ | TAG_LOCK_FWD => Msg::LockRequest {
                lock: b.get_u32_le(),
                requester: get_usize(b),
                vc: get_vc(b, nprocs),
            },
            TAG_LOCK_GRANT | TAG_BARRIER_ARRIVE | TAG_BARRIER_RELEASE => Msg::Sync {
                head: b.get_u32_le(),
                vc: get_vc(b, nprocs),
                records: (0..b.get_u32_le())
                    .map(|_| {
                        Rc::new(IntervalRecord {
                            creator: get_usize(b),
                            seq: b.get_u32_le(),
                            vc: get_vc(b, nprocs),
                            pages: (0..b.get_u32_le()).map(|_| b.get_u32_le()).collect(),
                        })
                    })
                    .collect(),
            },
            TAG_DIFF_REQ => Msg::DiffRequest {
                page: b.get_u32_le(),
                requester: get_usize(b),
                applied: get_vc(b, nprocs),
                global: get_vc(b, nprocs),
            },
            TAG_DIFF_RESP => {
                let (page, diffs) = get_diff_response(b, nprocs);
                let diffs = diffs.into_iter().map(Rc::new).collect();
                Msg::DiffResponse { page, diffs }
            }
            TAG_DIFF_FLUSH => Msg::DiffFlush {
                creator: get_usize(b),
                seq: b.get_u32_le(),
                entries: (0..b.get_u32_le())
                    .map(|_| (b.get_u32_le(), get_diff(b)))
                    .collect(),
            },
            TAG_FLUSH_ACK => Msg::FlushAck {
                creator: get_usize(b),
                seq: b.get_u32_le(),
            },
            TAG_PAGE_REQ | TAG_SC_WRITE_REQ | TAG_SC_WRITE_FWD | TAG_SC_READ_REQ
            | TAG_SC_READ_FWD | TAG_SC_INVAL => Msg::PageRequest {
                page: b.get_u32_le(),
                process: get_usize(b),
            },
            TAG_PAGE_RESP => Msg::PageResponse {
                page: b.get_u32_le(),
                applied: get_vc(b, nprocs),
                data: {
                    let len = b.get_u32_le() as usize;
                    b.split_to(len).as_slice().into()
                },
            },
            TAG_SC_PAGE_XFER => Msg::ScTransfer {
                page: b.get_u32_le(),
                copyset: (0..b.get_u32_le()).map(|_| get_usize(b)).collect(),
                data: std::mem::take(b).as_slice().into(),
            },
            TAG_SC_PAGE_COPY => Msg::ScCopy {
                page: b.get_u32_le(),
                data: std::mem::take(b).as_slice().into(),
            },
            TAG_SC_INVAL_ACK => Msg::ScAck {
                page: b.get_u32_le(),
            },
            TAG_DONE | TAG_TERMINATE => Msg::Empty,
            _ => panic!("tag {tag} is not a DSM message"),
        };
        assert!(
            payload.is_empty(),
            "tag {tag}: {} bytes past the message",
            payload.len()
        );
        msg
    }
}

/// The oracle of a message: its encoding is exactly [`Msg::wire_len`] bytes
/// long, and decodes as `tag` back to it.
///
/// # Panics
///
/// Panics, naming the tag, if either does not hold.
pub fn check_codec(tag: u32, msg: &Msg, nprocs: usize) {
    let bytes = msg.encode();
    assert_eq!(
        bytes.len(),
        msg.wire_len(),
        "tag {tag}: the computed size is not the encoded size"
    );
    assert_eq!(
        &Msg::decode(tag, bytes, nprocs),
        msg,
        "tag {tag}: the encoding does not decode to the message sent"
    );
}

/// Diff response `(page, diffs)` as bytes: [`Msg::encode`]'s layout for
/// [`TAG_DIFF_RESP`], from owned diffs.
pub fn encode_diff_response(page: PageId, diffs: &[WireDiff]) -> Bytes {
    let mut b = BytesMut::new();
    put_diff_response(&mut b, page, diffs.iter());
    b.freeze()
}

/// Decode a diff response encoded by [`encode_diff_response`].
pub fn decode_diff_response(mut payload: Bytes, nprocs: usize) -> (PageId, Vec<WireDiff>) {
    get_diff_response(&mut payload, nprocs)
}

fn put_u32s(buf: &mut BytesMut, words: impl IntoIterator<Item = u32>) {
    for w in words {
        buf.put_u32_le(w);
    }
}

fn put_vc(buf: &mut BytesMut, vc: &VectorClock) {
    put_u32s(buf, vc.entries().iter().copied());
}

fn put_diff_response<'a>(
    buf: &mut BytesMut,
    page: PageId,
    diffs: impl ExactSizeIterator<Item = &'a WireDiff>,
) {
    put_u32s(buf, [page, diffs.len() as u32]);
    for wd in diffs {
        put_u32s(buf, [wd.creator as u32, wd.seq]);
        put_vc(buf, &wd.vc);
        wd.diff.encode(buf);
    }
}

fn get_usize(buf: &mut Bytes) -> usize {
    buf.get_u32_le() as usize
}

fn get_vc(buf: &mut Bytes, nprocs: usize) -> VectorClock {
    VectorClock::from_entries((0..nprocs).map(|_| buf.get_u32_le()).collect())
}

/// Decode one diff off the front of `buf` ([`Diff::decode`]); a malformed
/// one is a bug in a sender of this program, so it panics — with the
/// located message, not a slice index.
fn get_diff(buf: &mut Bytes) -> Diff {
    Diff::decode(buf).unwrap_or_else(|e| panic!("malformed diff payload: {e}"))
}

fn get_diff_response(buf: &mut Bytes, nprocs: usize) -> (PageId, Vec<WireDiff>) {
    let page = buf.get_u32_le();
    let diffs = (0..buf.get_u32_le())
        .map(|_| WireDiff {
            creator: get_usize(buf),
            seq: buf.get_u32_le(),
            vc: get_vc(buf, nprocs),
            diff: get_diff(buf),
        })
        .collect();
    (page, diffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::new_page;

    fn vc(v: &[u32]) -> VectorClock {
        VectorClock::from_entries(v.to_vec())
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
        Msg::decode(TAG_DIFF_FLUSH, b.freeze(), 8);
    }

    fn record(creator: usize, seq: u32, clock: &[u32], pages: Vec<PageId>) -> Rc<IntervalRecord> {
        Rc::new(IntervalRecord {
            creator,
            seq,
            vc: vc(clock),
            pages,
        })
    }

    /// Every DSM tag.
    const TAGS: [u32; 21] = [
        TAG_LOCK_ACQ,
        TAG_LOCK_FWD,
        TAG_LOCK_GRANT,
        TAG_BARRIER_ARRIVE,
        TAG_BARRIER_RELEASE,
        TAG_DIFF_REQ,
        TAG_DIFF_RESP,
        TAG_DONE,
        TAG_TERMINATE,
        TAG_DIFF_FLUSH,
        TAG_FLUSH_ACK,
        TAG_PAGE_REQ,
        TAG_PAGE_RESP,
        TAG_SC_WRITE_REQ,
        TAG_SC_WRITE_FWD,
        TAG_SC_PAGE_XFER,
        TAG_SC_READ_REQ,
        TAG_SC_READ_FWD,
        TAG_SC_PAGE_COPY,
        TAG_SC_INVAL,
        TAG_SC_INVAL_ACK,
    ];

    /// A page with a byte set at either end: what every page image below
    /// carries after its golden header.
    fn page_image() -> Box<[u8]> {
        let mut data = new_page();
        data[0] = 1;
        data[4095] = 2;
        data
    }

    /// One message of each shape on a 3-process cluster, with the tags that
    /// carry it and its bytes as the per-message encoders of commit 885eacb
    /// wrote them — for a page image, the header ahead of the page's 4,096
    /// bytes.
    #[rustfmt::skip]
    fn pinned() -> Vec<(Vec<u32>, Msg, Vec<u8>)> {
        let twin = new_page();
        let mut flushed = new_page();
        flushed[10] = 3;
        flushed[900] = 4;
        let page_request = [0x2a, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00]; // page 42, process 6
        vec![
            (vec![TAG_LOCK_ACQ, TAG_LOCK_FWD],
             Msg::LockRequest { lock: 7, requester: 3, vc: vc(&[1, 2, 3]) },
             vec![
                0x07, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // lock 7, requester 3
                0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // vc [1, 2, 3]
             ]),
            (vec![TAG_LOCK_GRANT, TAG_BARRIER_ARRIVE, TAG_BARRIER_RELEASE],
             Msg::Sync {
                 head: 9,
                 vc: vc(&[2, 5, 1]),
                 records: vec![record(1, 5, &[0, 5, 1], vec![10, 11]), record(0, 2, &[2, 0, 0], vec![])],
             },
             vec![
                0x09, 0x00, 0x00, 0x00, // head 9
                0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // vc [2, 5, 1]
                0x02, 0x00, 0x00, 0x00, // two records
                0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, // creator 1, seq 5
                0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // vc [0, 5, 1]
                0x02, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00, // pages 10, 11
                0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // creator 0, seq 2
                0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // vc [2, 0, 0]
                0x00, 0x00, 0x00, 0x00, // no pages
             ]),
            (vec![TAG_DIFF_REQ],
             Msg::DiffRequest { page: 77, requester: 2, applied: vc(&[1, 0, 0]), global: vc(&[9, 8, 7]) },
             vec![
                0x4d, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // page 77, requester 2
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // applied [1, 0, 0]
                0x09, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, // global [9, 8, 7]
             ]),
            (vec![TAG_DIFF_RESP],
             Msg::DiffResponse { page: 12, diffs: golden_input().into_iter().map(Rc::new).collect() },
             GOLDEN_DIFF_RESPONSE.to_vec()),
            (vec![TAG_DIFF_FLUSH],
             Msg::DiffFlush {
                 creator: 2,
                 seq: 7,
                 entries: vec![(5, Diff::create(&twin, &flushed)), (9, Diff::default())],
             },
             vec![
                0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, // creator 2, seq 7
                0x02, 0x00, 0x00, 0x00, // two entries
                0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // page 5, two runs
                0x0a, 0x00, 0x01, 0x00, 0x03, // 10: 3
                0x84, 0x03, 0x01, 0x00, 0x04, // 900: 4
                0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // page 9, no runs
             ]),
            (vec![TAG_FLUSH_ACK],
             Msg::FlushAck { creator: 3, seq: 11 },
             vec![0x03, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00]),
            (vec![TAG_PAGE_REQ, TAG_SC_WRITE_REQ, TAG_SC_WRITE_FWD, TAG_SC_READ_REQ, TAG_SC_READ_FWD, TAG_SC_INVAL],
             Msg::PageRequest { page: 42, process: 6 },
             page_request.to_vec()),
            (vec![TAG_PAGE_RESP],
             Msg::PageResponse { page: 42, applied: vc(&[3, 0, 1]), data: page_image() },
             vec![
                0x2a, 0x00, 0x00, 0x00, // page 42
                0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // applied [3, 0, 1]
                0x00, 0x10, 0x00, 0x00, // 4,096 page bytes follow
             ]),
            (vec![TAG_SC_PAGE_XFER],
             Msg::ScTransfer { page: 5, copyset: vec![1, 2], data: page_image() },
             vec![
                0x05, 0x00, 0x00, 0x00, // page 5
                0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // copyset [1, 2]
             ]),
            (vec![TAG_SC_PAGE_COPY],
             Msg::ScCopy { page: 11, data: page_image() },
             vec![0x0b, 0x00, 0x00, 0x00]),
            (vec![TAG_SC_INVAL_ACK],
             Msg::ScAck { page: 42 },
             vec![0x2a, 0x00, 0x00, 0x00]),
            (vec![TAG_DONE, TAG_TERMINATE], Msg::Empty, vec![]),
        ]
    }

    #[test]
    fn every_tag_encodes_to_its_golden_bytes_and_round_trips() {
        let mut covered = Vec::new();
        for (tags, msg, mut golden) in pinned() {
            if let Msg::PageResponse { data, .. }
            | Msg::ScTransfer { data, .. }
            | Msg::ScCopy { data, .. } = &msg
            {
                golden.extend_from_slice(data);
            }
            assert_eq!(msg.encode().as_ref(), golden, "{msg:?}");
            assert_eq!(msg.wire_len(), golden.len());
            for &tag in &tags {
                check_codec(tag, &msg, 3);
                assert_eq!(Msg::decode(tag, Bytes::from(golden.clone()), 3), msg);
            }
            covered.extend(tags);
        }
        covered.sort_unstable();
        let mut all = TAGS.to_vec();
        all.sort_unstable();
        assert_eq!(covered, all, "each tag is pinned exactly once");

        // The sizes grow with the content, so the codec checks the shapes
        // that vary on an 8-process cluster too.  Records: none, one,
        // eight, one with no pages, and twenty with ten pages each.
        let sync = |records| Msg::Sync {
            head: 3,
            vc: vc(&[2, 5, 0, 1, 0, 0, 0, 9]),
            records,
        };
        let eight = (0..8)
            .map(|i| record(i, 1 + i as u32, &[i as u32; 8], (0..i as PageId).collect()))
            .collect();
        let twenty: Vec<_> = (0..20)
            .map(|i| record(i % 8, i as u32, &[i as u32; 8], (0..10).collect()))
            .collect();
        let mut varying = vec![
            sync(vec![]),
            sync(vec![record(
                1,
                5,
                &[0, 5, 2, 0, 0, 0, 0, 0],
                vec![10, 11, 12],
            )]),
            sync(eight),
            sync(vec![record(0, 2, &[2, 0, 0, 0, 0, 0, 0, 0], vec![])]),
            sync(twenty),
        ];
        assert!(varying[0].wire_len() < 64);
        assert!(varying[4].wire_len() > 20 * (8 + 4 * 8 + 4 * 10));
        // Diffs, in a response and in a flush: none, one, eight, an empty
        // one, and the stencil diff SOR-Nonzero writes (1,024 three-byte
        // runs, from `page.rs`).
        let mut sparse = new_page();
        sparse[100] = 1;
        sparse[2000] = 2;
        let sparse = Diff::create(&new_page(), &sparse);
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
        let diff_cases: [Vec<Rc<WireDiff>>; 5] = [
            vec![],
            vec![wire(1, &sparse)],
            (1..=8).map(|seq| wire(seq, &sparse)).collect(),
            vec![wire(4, &Diff::default())],
            vec![wire(2, &stencil)],
        ];
        for diffs in diff_cases {
            varying.push(Msg::DiffFlush {
                creator: 2,
                seq: 7,
                entries: diffs.iter().map(|d| (d.seq, d.diff.clone())).collect(),
            });
            varying.push(Msg::DiffResponse { page: 12, diffs });
        }
        for msg in &varying {
            let tag = match msg {
                Msg::Sync { .. } => TAG_LOCK_GRANT,
                Msg::DiffFlush { .. } => TAG_DIFF_FLUSH,
                _ => TAG_DIFF_RESP,
            };
            check_codec(tag, msg, 8);
        }
    }
}
