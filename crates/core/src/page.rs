//! Pages, twins, and run-length-encoded diffs — the multiple-writer protocol.
//!
//! TreadMarks allows two or more processors to modify their own copy of a
//! shared page simultaneously.  Before the first write of an interval the
//! writer saves a *twin* (a copy of the page); at the end of the interval the
//! twin is compared to the current contents and the differences are encoded
//! as a *diff*, a run-length encoding of the modified bytes.  Diffs from
//! concurrent writers touch disjoint bytes (for correct programs) and are
//! merged by applying them all, which is what eliminates most of the cost of
//! false sharing relative to a single-writer protocol.
//!
//! [`Diff::create`] never compares bytes one at a time: it turns each
//! 64-byte block of twin and page into a `u64` mask, one bit per differing
//! byte, and walks the mask's *edges* — the bits where a run starts or
//! ends — so a page costs O(words + runs), not O(bytes).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cluster::config::PAGE_SIZE;
use std::cell::RefCell;

/// Index of a shared page within the shared address space.
pub type PageId = u32;

/// The longest run buffer a page can diff into: 2,048 runs (runs are
/// separated by at least one unchanged byte), all of one byte but the last,
/// which is two (`x.x.x…x.xx`) — `2048 × 4` header bytes and 2,049 data
/// bytes.
const MAX_WIRE: usize = PAGE_SIZE / 2 * 5 + 1;

/// A run-length encoding of the modifications made to one page during one
/// interval, produced by comparing the page to its twin.
///
/// The runs live in **one** buffer, in the layout they travel in:
/// `([offset u16 LE][len u16 LE][len bytes])*`, offsets increasing, runs
/// non-empty, non-overlapping and inside the page.  The same buffer is what
/// [`Diff::create`] fills, what the diff store retains, what a diff
/// response splices and — on the receiving side — a refcounted window of
/// the message payload itself (`Diff::decode`), so a diff is never held
/// as one heap object per run (an f32 stencil page diffs into ~1,000 runs
/// of 3 bytes: per-run vectors cost eight times their payload).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Diff {
    runs: u32,
    wire: Bytes,
}

thread_local! {
    /// Where a thread's [`Diff::create`] stages its runs before freezing
    /// them into one exactly-sized buffer: fixed-size, so staging never
    /// allocates.  A run of up to eight bytes is copied as one whole word;
    /// that never writes past [`MAX_WIRE`] (a run near the page end is
    /// copied exactly), and the 8 bytes of slack are a margin.
    static STAGING: RefCell<[u8; MAX_WIRE + 8]> = const { RefCell::new([0; MAX_WIRE + 8]) };
}

/// One bit per byte of a 64-byte block, bit `i` set iff byte `i` of `t`
/// and `c` differs.  Each word's xor has every non-zero byte folded onto
/// its high bit (no carry crosses a byte); an equal block and a block in
/// which every byte differs are read off those words whole, and only a
/// mixed block gathers each word's eight high bits into a byte with a
/// multiply.
#[inline(always)]
fn block_mask(t: &[u8; 64], c: &[u8; 64]) -> u64 {
    const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let mut high = [0u64; 8];
    let words = t.as_chunks::<8>().0.iter().zip(c.as_chunks::<8>().0);
    for (h, (x, y)) in high.iter_mut().zip(words) {
        let d = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        *h = ((d & LO7).wrapping_add(LO7) | d) & !LO7;
    }
    match (
        high.iter().fold(0, |a, &h| a | h),
        high.iter().fold(!0, |a, &h| a & h),
    ) {
        (0, _) => 0,
        (_, all) if all == !LO7 => !0,
        _ => high.iter().enumerate().fold(0, |m, (k, &h)| {
            m | ((h >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
        }),
    }
}

impl Diff {
    /// Compute the diff between `twin` (the pre-modification copy) and
    /// `current` (the page as modified during the interval).
    ///
    /// Outside a run, equal 512-byte chunks are skipped a compare each (an
    /// equal page is eight compares).  Otherwise each 64-byte block
    /// becomes a difference mask `m` (`block_mask`) whose edges
    /// `m ^ (m << 1 | carry)` — `carry` set if the previous block ended
    /// inside a run — alternate run start, run end, start, …; each is found
    /// with `trailing_zeros` and cleared with `edges &= edges - 1`.  An f32
    /// stencil page's 1,024 three-byte runs are 2,048 edges; a fully
    /// rewritten page's all-ones blocks have none.  Runs are staged in a
    /// fixed thread-local buffer — a header is one `u32` store, a run of up
    /// to eight bytes one 8-byte copy — and frozen into one exactly-sized
    /// buffer.  Boundaries are byte-precise: the result is identical to
    /// [`Diff::create_reference`], property-tested and, under
    /// `oracle-checks`, asserted on every diff.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not both exactly one page long.
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        const CHUNK: usize = 512;
        let diff = STAGING.with_borrow_mut(|buf| {
            let (mut runs, mut at) = (0u32, 0usize);
            let mut push = |start: usize, end: usize| {
                let len = end - start;
                let head = start as u32 | (len as u32) << 16;
                buf[at..at + 4].copy_from_slice(&head.to_le_bytes());
                if len <= 8 && start + 8 <= PAGE_SIZE {
                    buf[at + 4..at + 12].copy_from_slice(&current[start..start + 8]);
                } else {
                    buf[at + 4..at + 4 + len].copy_from_slice(&current[start..end]);
                }
                at += 4 + len;
                runs += 1;
            };
            let (mut in_run, mut start) = (false, 0usize);
            let (twins, pages) = (twin.as_chunks::<CHUNK>().0, current.as_chunks().0);
            for (chunk, (t, c)) in (0..).step_by(CHUNK).zip(twins.iter().zip(pages)) {
                if !in_run && t == c {
                    continue;
                }
                let blocks = t.as_chunks::<64>().0.iter().zip(c.as_chunks().0);
                for (base, (t, c)) in (chunk..).step_by(64).zip(blocks) {
                    let m = block_mask(t, c);
                    let mut edges = m ^ (m << 1 | in_run as u64);
                    while edges != 0 {
                        let edge = base + edges.trailing_zeros() as usize;
                        if in_run {
                            push(start, edge);
                        } else {
                            start = edge;
                        }
                        in_run = !in_run;
                        edges &= edges - 1;
                    }
                }
            }
            if in_run {
                push(start, PAGE_SIZE);
            }
            Diff {
                runs,
                wire: Bytes::copy_from_slice(&buf[..at]),
            }
        });
        // With the `oracle-checks` feature (on in CI), every mask-walk diff
        // is checked against the byte-at-a-time reference; off by default
        // because diff creation is on the interval-close hot path.
        #[cfg(feature = "oracle-checks")]
        assert_eq!(
            diff,
            Diff::create_reference(twin, current),
            "mask-walk diff diverged from the reference implementation"
        );
        diff
    }

    /// The byte-at-a-time reference implementation of [`Diff::create`]:
    /// obviously correct, measurably slower.  Kept as the oracle for the
    /// mask-walk equivalence tests and the `oracle-checks` feature.
    pub fn create_reference(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        let (mut runs, mut wire) = (0u32, Vec::new());
        let mut i = 0usize;
        while i < PAGE_SIZE {
            if twin[i] != current[i] {
                let start = i;
                while i < PAGE_SIZE && twin[i] != current[i] {
                    i += 1;
                }
                runs += 1;
                wire.extend_from_slice(&(start as u16).to_le_bytes());
                wire.extend_from_slice(&((i - start) as u16).to_le_bytes());
                wire.extend_from_slice(&current[start..i]);
            } else {
                i += 1;
            }
        }
        Diff {
            runs,
            wire: Bytes::from(wire),
        }
    }

    /// The modified runs as `(offset within the page, new bytes)`, in
    /// increasing offset order.
    pub fn runs(&self) -> impl Iterator<Item = (u16, &[u8])> {
        let mut rest: &[u8] = &self.wire;
        std::iter::from_fn(move || {
            let (head, tail) = rest.split_first_chunk::<4>()?;
            let len = u16::from_le_bytes([head[2], head[3]]) as usize;
            let (data, tail) = tail.split_at(len);
            rest = tail;
            Some((u16::from_le_bytes([head[0], head[1]]), data))
        })
    }

    /// Apply this diff to `page`.
    pub fn apply(&self, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "page must be one page");
        for (offset, data) in self.runs() {
            page[offset as usize..][..data.len()].copy_from_slice(data);
        }
    }

    /// True if the twin and the page were identical.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// Number of modified bytes carried by the diff.
    pub fn modified_bytes(&self) -> usize {
        self.wire.len() - 4 * self.runs as usize
    }

    /// *Modelled* size of the diff on the wire: per-run header (offset +
    /// length, 4 bytes) plus the modified bytes, plus an 8-byte diff
    /// header.  This is what the cost model charges and what
    /// `diff_bytes_received` and every pinned KB count; it is deliberately
    /// not the length the host encoding writes (`wire_len`: a 4-byte run
    /// count ahead of the same runs) — unifying the two would move every
    /// pinned value.
    pub fn encoded_len(&self) -> usize {
        8 + self.wire.len()
    }

    /// Bytes [`encode`](Self::encode) writes: the run count and the runs.
    pub(crate) fn wire_len(&self) -> usize {
        4 + self.wire.len()
    }

    /// Append the host wire form — the run count, then the run buffer as
    /// it is held — to `buf`.
    pub(crate) fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.runs);
        buf.put_slice(&self.wire);
    }

    /// Decode one diff off the front of `buf`, consuming exactly the bytes
    /// [`encode`](Self::encode) wrote.  The runs are walked once, to
    /// validate them and find the end; the returned diff is a refcounted
    /// window of `buf`'s allocation, not a copy.
    ///
    /// Fails — before anything can index a page with it — if a run header
    /// or its data lies outside `buf`, a run is empty or ends past the
    /// page, or the runs are not in increasing, non-overlapping order.
    pub(crate) fn decode(buf: &mut Bytes) -> Result<Diff, String> {
        if buf.len() < 4 {
            return Err(format!(
                "diff run count truncated ({} bytes left)",
                buf.len()
            ));
        }
        let runs = buf.get_u32_le();
        let (mut at, mut floor) = (0usize, 0usize);
        for run in 0..runs {
            let left = buf.len() - at;
            let Some(head) = buf[at..].first_chunk::<4>() else {
                return Err(format!(
                    "diff run {run} of {runs}: header truncated ({left} bytes left)"
                ));
            };
            let offset = u16::from_le_bytes([head[0], head[1]]) as usize;
            let len = u16::from_le_bytes([head[2], head[3]]) as usize;
            let why = if len == 0 {
                "is empty".to_string()
            } else if offset < floor {
                format!("starts before the previous run's end {floor}")
            } else if offset + len > PAGE_SIZE {
                format!("ends past the {PAGE_SIZE}-byte page")
            } else if 4 + len > left {
                format!("data truncated ({} bytes left)", left - 4)
            } else {
                at += 4 + len;
                floor = offset + len;
                continue;
            };
            return Err(format!(
                "diff run {run} of {runs} (offset {offset}, len {len}) {why}"
            ));
        }
        Ok(Diff {
            runs,
            wire: buf.split_to(at),
        })
    }
}

impl std::fmt::Debug for Diff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.runs()).finish()
    }
}

/// A freshly allocated, zero-filled page.
pub fn new_page() -> Box<[u8]> {
    vec![0u8; PAGE_SIZE].into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(vals: &[(usize, u8)]) -> Box<[u8]> {
        let mut p = new_page();
        for &(i, v) in vals {
            p[i] = v;
        }
        p
    }

    #[test]
    fn identical_pages_give_empty_diff() {
        let twin = new_page();
        let page = new_page();
        let d = Diff::create(&twin, &page);
        assert!(d.is_empty());
        assert_eq!(d.modified_bytes(), 0);
    }

    #[test]
    fn single_run_is_detected() {
        let twin = new_page();
        let page = page_with(&[(100, 1), (101, 2), (102, 3)]);
        let d = Diff::create(&twin, &page);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(100, &[1u8, 2, 3][..])]);
    }

    #[test]
    fn multiple_runs_are_separated_by_unchanged_bytes() {
        let twin = new_page();
        let page = page_with(&[(0, 9), (1, 9), (500, 7), (4095, 5)]);
        let d = Diff::create(&twin, &page);
        let offsets: Vec<u16> = d.runs().map(|(offset, _)| offset).collect();
        assert_eq!(offsets, [0, 500, 4095]);
        assert_eq!(d.modified_bytes(), 4);
    }

    #[test]
    fn apply_reconstructs_the_modified_page() {
        let twin = page_with(&[(10, 42), (20, 43)]);
        let mut page = twin.clone();
        page[10] = 1;
        page[3000] = 99;
        let d = Diff::create(&twin, &page);
        let mut other_copy = twin.clone();
        d.apply(&mut other_copy);
        assert_eq!(other_copy.as_ref(), page.as_ref());
    }

    #[test]
    fn concurrent_disjoint_diffs_merge() {
        // Two writers modify disjoint halves of the same page (false sharing).
        let base = new_page();
        let mut a = base.clone();
        let mut b = base.clone();
        for i in 0..2048 {
            a[i] = 1;
        }
        for i in 2048..4096 {
            b[i] = 2;
        }
        let da = Diff::create(&base, &a);
        let db = Diff::create(&base, &b);
        let mut merged = base.clone();
        da.apply(&mut merged);
        db.apply(&mut merged);
        assert!(merged[..2048].iter().all(|&x| x == 1));
        assert!(merged[2048..].iter().all(|&x| x == 2));
    }

    #[test]
    fn diff_of_mostly_zero_page_is_small() {
        // This is why TreadMarks sends much less data than PVM in SOR-Zero:
        // pages that stay zero produce (nearly) empty diffs.
        let twin = new_page();
        let mut page = new_page();
        page[0] = 1; // only the boundary element changed
        let d = Diff::create(&twin, &page);
        assert!(d.encoded_len() < 32);
        assert!(d.encoded_len() < PAGE_SIZE / 100);
        // Sixty-four scattered bytes: still under a quarter of a page.
        for i in (0..64).map(|k| k * 61) {
            page[i] = 1;
        }
        assert!(Diff::create(&twin, &page).encoded_len() < PAGE_SIZE / 4);
    }

    #[test]
    fn fully_rewritten_page_diff_is_page_sized() {
        let twin = new_page();
        let mut page = new_page();
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i % 251 + 1) as u8;
        }
        let d = Diff::create(&twin, &page);
        assert_eq!(d.runs().count(), 1);
        assert!(d.encoded_len() >= PAGE_SIZE);
    }

    #[test]
    fn f32_stencil_page_is_a_thousand_three_byte_runs_in_one_buffer() {
        // A relaxation step changes a float's mantissa bytes while its
        // exponent byte survives: every 4-byte word differs in its low
        // three bytes.  This is the shape SOR-Nonzero produces on every
        // page it writes, and the one per-run heap objects were worst at.
        let mut twin = new_page();
        for (i, b) in twin.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let mut page = twin.clone();
        for word in page.chunks_exact_mut(4) {
            for b in &mut word[..3] {
                *b ^= 0x5a;
            }
        }
        let d = Diff::create(&twin, &page);
        assert_eq!(d, Diff::create_reference(&twin, &page));
        assert_eq!(d.runs().count(), 1024);
        assert!(d
            .runs()
            .enumerate()
            .all(|(i, (offset, data))| offset as usize == 4 * i && data.len() == 3));
        assert_eq!(d.encoded_len(), 8 + 1024 * 7);
        assert_eq!(d.modified_bytes(), 3072);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, page);
    }

    #[test]
    fn the_worst_case_page_fits_the_staging_buffer_exactly() {
        // Every other byte modified: the most runs a page can hold, one
        // byte short of the longest wire (and of the staging bound).
        let twin = new_page();
        let mut page = new_page();
        for b in page.iter_mut().step_by(2) {
            *b = 1;
        }
        assert_equivalent(&twin, &page, "every other byte");
        let d = Diff::create(&twin, &page);
        assert_eq!(d.runs().count(), PAGE_SIZE / 2);
        assert_eq!(d.wire_len(), 4 + MAX_WIRE - 1);
        // The same 2,048 runs with the last one two bytes long fill
        // `MAX_WIRE` exactly, and stay within the staging buffer.
        page[PAGE_SIZE - 1] = 1;
        assert_equivalent(&twin, &page, "every other byte, last run of two");
        assert_eq!(Diff::create(&twin, &page).wire_len(), 4 + MAX_WIRE);
    }

    #[test]
    fn every_single_run_matches_the_reference() {
        // One run at every start offset and every length up to one past a
        // whole-word copy, clipped at the page end — the short-run copy
        // and the page-end fallback.
        let mut twin = new_page();
        for (i, b) in twin.iter_mut().enumerate() {
            *b = (i * 7 % 253) as u8;
        }
        let mut page = twin.clone();
        for start in 0..PAGE_SIZE {
            for len in 1..=9 {
                let end = (start + len).min(PAGE_SIZE);
                for b in &mut page[start..end] {
                    *b ^= 0xa5;
                }
                assert_equivalent(&twin, &page, &format!("run {start}+{len}"));
                page[start..end].copy_from_slice(&twin[start..end]);
            }
        }
    }

    #[test]
    fn runs_on_either_side_of_word_and_block_boundaries_match_the_reference() {
        // A run starting or ending one byte before, at, or one byte after
        // each 8- and 64-byte boundary (the mask's carry between blocks),
        // plus runs ending at the last byte of the page.
        let twin = new_page();
        let mut edges: Vec<usize> = (8..PAGE_SIZE)
            .step_by(8)
            .flat_map(|b| [b - 1, b, b + 1])
            .collect();
        edges.push(PAGE_SIZE);
        for &edge in &edges {
            for (start, end) in [
                (edge.saturating_sub(3), edge),
                (edge - 1, (edge + 2).min(PAGE_SIZE)),
            ] {
                let mut page = new_page();
                page[start..end].fill(0xff);
                assert_equivalent(&twin, &page, &format!("run {start}..{end}"));
            }
        }
        let mut page = new_page();
        page[4000..PAGE_SIZE].fill(1);
        assert_equivalent(&twin, &page, "run ending at byte 4095");
        // Two runs in one block, one across a block into the next, and one
        // spanning several whole all-ones blocks.
        page.fill(0);
        for (start, end) in [(1, 3), (60, 70), (128, 400), (401, 402)] {
            page[start..end].fill(9);
        }
        assert_equivalent(&twin, &page, "mixed blocks");
    }

    #[test]
    fn a_noisy_f32_stencil_page_matches_the_reference() {
        // SOR's shape with seeded noise: each float's low bytes change by a
        // random amount (sometimes not at all), its exponent byte mostly
        // survives, and now and then it flips too.
        let mut rng = Rng(0x5eed_f00d_0123_4567);
        for case in 0..20 {
            let mut twin = new_page();
            for w in twin.chunks_exact_mut(4) {
                w.copy_from_slice(&(0.5 + rng.below(1000) as f32 / 2000.0).to_le_bytes());
            }
            let mut page = twin.clone();
            for w in page.chunks_exact_mut(4) {
                let v = f32::from_le_bytes((&*w).try_into().unwrap());
                let noise = (rng.below(64) as f32 - 16.0) * 1e-6;
                let v = if rng.below(50) == 0 {
                    v * 3.0
                } else {
                    v + noise
                };
                w.copy_from_slice(&v.to_le_bytes());
            }
            assert_equivalent(&twin, &page, &format!("noisy stencil {case}"));
        }
    }

    #[test]
    fn a_diff_is_one_buffer_handle_whatever_its_run_count() {
        // A run count and a `Bytes` handle (shared pointer + window).  If
        // this grows, a per-run heap object has probably come back.
        assert_eq!(std::mem::size_of::<Diff>(), 40);
    }

    fn encoded(d: &Diff) -> Bytes {
        let mut b = BytesMut::new();
        d.encode(&mut b);
        b.freeze()
    }

    #[test]
    fn decode_consumes_exactly_the_bytes_encode_wrote() {
        let twin = new_page();
        let page = page_with(&[(7, 1), (8, 2), (900, 3)]);
        let d = Diff::create(&twin, &page);
        let mut payload = BytesMut::new();
        d.encode(&mut payload);
        assert_eq!(payload.len(), d.wire_len());
        payload.put_u32_le(0xbeef); // whatever follows the diff in its message
        let mut cursor = payload.freeze();
        assert_eq!(Diff::decode(&mut cursor), Ok(d));
        assert_eq!(cursor.get_u32_le(), 0xbeef);
        assert!(cursor.is_empty());
    }

    #[test]
    fn decode_rejects_malformed_runs_naming_the_run() {
        /// `(runs, raw bytes after the run count)` as a payload.
        fn payload(runs: u32, body: &[u8]) -> Bytes {
            let mut b = BytesMut::new();
            b.put_u32_le(runs);
            b.put_slice(body);
            b.freeze()
        }
        fn run(offset: u16, len: u16, data: &[u8]) -> Vec<u8> {
            let mut v = offset.to_le_bytes().to_vec();
            v.extend_from_slice(&len.to_le_bytes());
            v.extend_from_slice(data);
            v
        }
        let good = run(10, 2, &[1, 2]);
        let cases: [(&str, Bytes, &str); 9] = [
            (
                "no run count",
                Bytes::from(vec![1, 0]),
                "run count truncated (2 bytes left)",
            ),
            (
                "truncated header",
                payload(2, &[good.clone(), vec![20, 0, 1]].concat()),
                "run 1 of 2: header truncated (3 bytes left)",
            ),
            (
                "truncated data",
                payload(1, &run(10, 4, &[1, 2])),
                "run 0 of 1 (offset 10, len 4) data truncated (2 bytes left)",
            ),
            (
                "run past the page end",
                payload(1, &run(4090, 7, &[0; 7])),
                "run 0 of 1 (offset 4090, len 7) ends past the 4096-byte page",
            ),
            (
                "out-of-order runs",
                payload(2, &[run(100, 1, &[1]), good.clone()].concat()),
                "run 1 of 2 (offset 10, len 2) starts before the previous run's end 101",
            ),
            (
                "overlapping runs",
                payload(2, &[good.clone(), run(11, 1, &[9])].concat()),
                "run 1 of 2 (offset 11, len 1) starts before the previous run's end 12",
            ),
            (
                "empty run",
                payload(1, &run(10, 0, &[])),
                "run 0 of 1 (offset 10, len 0) is empty",
            ),
            (
                "more runs than the buffer holds",
                payload(u32::MAX, &good),
                "run 1 of 4294967295: header truncated (0 bytes left)",
            ),
            (
                "a u16 length that would wrap a narrower sum",
                payload(1, &run(u16::MAX, u16::MAX, &[0; 8])),
                "run 0 of 1 (offset 65535, len 65535) ends past the 4096-byte page",
            ),
        ];
        for (what, mut bytes, expect) in cases {
            let err = Diff::decode(&mut bytes).expect_err(what);
            assert!(err.ends_with(expect), "{what}: got {err:?}");
        }
        // Adjacent runs and a run ending exactly at the page end are legal.
        let mut ok = payload(2, &[run(4092, 2, &[1, 2]), run(4094, 2, &[3, 4])].concat());
        let d = Diff::decode(&mut ok).expect("adjacent runs to the page end");
        assert_eq!((d.modified_bytes(), ok.len()), (4, 0));
        assert_eq!(
            encoded(&d),
            payload(2, &[run(4092, 2, &[1, 2]), run(4094, 2, &[3, 4])].concat())
        );
    }

    /// Deterministic xorshift generator for the equivalence property tests
    /// (no external proptest dependency; failures print the seed).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn assert_equivalent(twin: &[u8], page: &[u8], ctx: &str) {
        let fast = Diff::create(twin, page);
        let reference = Diff::create_reference(twin, page);
        assert_eq!(fast, reference, "mask walk diverges from reference: {ctx}");
        // And applying the fast diff to the twin reconstructs the page.
        let mut rebuilt = twin.to_vec();
        fast.apply(&mut rebuilt);
        assert_eq!(rebuilt, page, "apply does not reconstruct: {ctx}");
    }

    #[test]
    fn mask_walk_matches_reference_on_random_sparse_mutations() {
        let mut rng = Rng(0xdead_beef_0bad_cafe);
        for case in 0..200 {
            let mut twin = new_page();
            for b in twin.iter_mut() {
                *b = rng.next() as u8;
            }
            let mut page = twin.clone();
            for _ in 0..rng.below(64) {
                page[rng.below(PAGE_SIZE)] = rng.next() as u8;
            }
            assert_equivalent(&twin, &page, &format!("sparse case {case}"));
        }
    }

    #[test]
    fn mask_walk_matches_reference_on_unaligned_run_boundaries() {
        // Runs starting and ending at every offset within a word, including
        // runs that straddle word boundaries and touch the page edges.
        let mut rng = Rng(0x1234_5678_9abc_def1);
        for case in 0..300 {
            let mut twin = new_page();
            for b in twin.iter_mut() {
                *b = rng.next() as u8;
            }
            let mut page = twin.clone();
            for _ in 0..(1 + rng.below(8)) {
                let start = rng.below(PAGE_SIZE);
                let len = 1 + rng.below(97); // deliberately not word-multiples
                for i in start..(start + len).min(PAGE_SIZE) {
                    // Guarantee the byte differs (xor with a nonzero value).
                    page[i] ^= 1 + (rng.next() as u8 & 0x7f);
                }
            }
            assert_equivalent(&twin, &page, &format!("unaligned case {case}"));
        }
    }

    #[test]
    fn mask_walk_matches_reference_on_adversarial_word_patterns() {
        // Words in which only some bytes differ — a block is all-differ
        // only if every byte is — plus interior bytes that revert to the
        // twin value mid-run.
        let mut twin = new_page();
        for (i, b) in twin.iter_mut().enumerate() {
            *b = (i % 256) as u8;
        }
        for hole in 0..16 {
            let mut page = twin.clone();
            for i in 64..192 {
                page[i] ^= 0xff;
            }
            // Punch an equal-byte hole at an arbitrary in-word position.
            page[100 + hole] = twin[100 + hole];
            assert_equivalent(&twin, &page, &format!("hole at {}", 100 + hole));
        }
        // Edge bytes of the page.
        let mut page = twin.clone();
        page[0] ^= 1;
        page[PAGE_SIZE - 1] ^= 1;
        assert_equivalent(&twin, &page, "page edges");
        // Full rewrite (single page-sized run).
        let mut page = twin.clone();
        for b in page.iter_mut() {
            *b ^= 0x55;
        }
        assert_equivalent(&twin, &page, "full rewrite");
    }

    #[test]
    fn reverting_to_twin_value_is_not_in_diff() {
        let mut twin = new_page();
        twin[7] = 7;
        let mut page = twin.clone();
        page[7] = 9;
        page[7] = 7; // reverted before the interval closed
        let d = Diff::create(&twin, &page);
        assert!(d.is_empty());
    }
}
