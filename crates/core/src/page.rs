//! Pages, twins, and diffs — the multiple-writer protocol.
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
//! A [`Diff`] travels as runs, `(offset, len, bytes)`, but is *held* as the
//! changed bytes plus one bitmask per changed 64-byte block: a run header
//! costs four bytes, and an f32 stencil page is a thousand three-byte runs.
//! [`Diff::create`] never compares bytes one at a time: it turns each
//! 64-byte block of twin and page into a `u64` mask, one bit per differing
//! byte, and walks the mask's *edges* — the bits where a run starts or
//! ends — so a page costs O(words + runs), not O(bytes).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cluster::config::PAGE_SIZE;
use std::cell::RefCell;

/// Index of a shared page within the shared address space.
pub type PageId = u32;

/// Blocks of 64 bytes in a page: one bit each in [`Diff`]'s block set.
const BLOCKS: usize = PAGE_SIZE / 64;
const _: () = assert!(BLOCKS == 64, "a page's block set is one u64");

/// The most bytes a diff holds: every byte of the page and every mask.
const MAX_HELD: usize = PAGE_SIZE + 8 * BLOCKS;

/// The modifications made to one page during one interval, produced by
/// comparing the page to its twin.
///
/// Bit `k` of `blocks` is set iff block `k` (bytes `64k..64k + 64`)
/// changed.  **One** buffer holds the changed bytes in page order, then
/// one `u64` LE mask per set bit of `blocks`, in block order — bit `i` of
/// block `k`'s mask set iff byte `64k + i` changed.  `runs` counts the
/// maximal runs of changed bytes, merged across block boundaries: the runs
/// [`Diff::runs`] yields, `encode` writes as
/// `[run count u32]([offset u16][len u16][len bytes])*` (all LE) and the
/// cost model charges for.  So a diff holds `modified + 8 × changed blocks`
/// bytes where its wire form takes `4 × runs + modified`: an f32 stencil
/// page's 1,024 three-byte runs hold 3,584 bytes, not 7,168.  The buffer is
/// frozen once by [`Diff::create`]; the diff store, every fetched copy and
/// every message share it.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Diff {
    runs: u32,
    blocks: u64,
    buf: Bytes,
}

thread_local! {
    /// Where a thread's diffs are staged before freezing into one
    /// exactly-sized buffer: fixed-size, so staging never allocates.
    /// [`Diff::create`] copies a run of up to eight bytes as one whole word;
    /// the up to seven bytes that land past the data are overwritten by
    /// the next run or the masks, and stay inside [`MAX_HELD`].
    static STAGING: RefCell<[u8; MAX_HELD]> = const { RefCell::new([0; MAX_HELD]) };
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

/// The runs of one block's mask `m` as `(start, end)` byte offsets within
/// the block: its edges `m ^ (m << 1)` alternate run start, run end, …,
/// each found with `trailing_zeros` and cleared with `edges &= edges - 1`;
/// a run reaching the block's end has no end edge and ends at 64.
#[inline(always)]
fn block_runs(m: u64) -> impl Iterator<Item = (usize, usize)> {
    let mut edges = m ^ (m << 1);
    std::iter::from_fn(move || {
        if edges == 0 {
            return None;
        }
        let start = edges.trailing_zeros() as usize;
        edges &= edges - 1;
        let end = if edges == 0 {
            64
        } else {
            edges.trailing_zeros() as usize
        };
        edges &= edges.wrapping_sub(1);
        Some((start, end))
    })
}

/// `dst.copy_from_slice(src)` for a run within one block, as two
/// fixed-size copies from its two ends that overlap in the middle (1,
/// 2–3, 4–7, 8–15, 16–31 and 32–64 bytes), not a `memcpy` call per run.
#[inline(always)]
fn copy_run(dst: &mut [u8], src: &[u8]) {
    #[inline(always)]
    fn ends<const N: usize>(dst: &mut [u8], src: &[u8]) {
        let n = src.len();
        dst[..N].copy_from_slice(&src[..N]);
        dst[n - N..].copy_from_slice(&src[n - N..]);
    }
    match src.len() {
        1 => dst[0] = src[0],
        2..=3 => ends::<2>(dst, src),
        4..=7 => ends::<4>(dst, src),
        8..=15 => ends::<8>(dst, src),
        16..=31 => ends::<16>(dst, src),
        32..=64 => ends::<32>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// Freeze the `data` changed bytes staged at the front of `stage`, then
/// the non-zero `masks`, into one exactly-sized buffer.
fn seal(runs: u32, masks: &[u64; BLOCKS], stage: &mut [u8; MAX_HELD], data: usize) -> Diff {
    let (mut blocks, mut at) = (0u64, data);
    for (k, &m) in masks.iter().enumerate().filter(|&(_, &m)| m != 0) {
        blocks |= 1 << k;
        stage[at..at + 8].copy_from_slice(&m.to_le_bytes());
        at += 8;
    }
    Diff {
        runs,
        blocks,
        buf: Bytes::copy_from_slice(&stage[..at]),
    }
}

impl Diff {
    /// Compute the diff between `twin` (the pre-modification copy) and
    /// `current` (the page as modified during the interval).
    ///
    /// Equal 512-byte chunks are skipped a compare each (an equal page is
    /// eight compares).  Otherwise each 64-byte block becomes a difference
    /// mask `m` (`block_mask`), kept as it is; its runs' bytes are gathered
    /// by the edge walk (`block_runs`) — a run of up to eight bytes is one
    /// 8-byte copy, an all-ones block one 64-byte copy — and the maximal
    /// runs are counted across block boundaries without walking them:
    /// `runs += popcount(m & !(m << 1 | carry))`, `carry` being the
    /// previous block's last bit.  Bytes and masks are staged in a fixed
    /// thread-local buffer and frozen into one exactly-sized buffer.  The
    /// result is identical to [`Diff::create_reference`], property-tested
    /// and, under `oracle-checks`, asserted on every diff.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not both exactly one page long.
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        const CHUNK: usize = 512;
        let diff = STAGING.with_borrow_mut(|stage| {
            let (mut runs, mut at, mut carry) = (0u32, 0usize, 0u64);
            let mut masks = [0u64; BLOCKS];
            let (twins, pages) = (twin.as_chunks::<CHUNK>().0, current.as_chunks().0);
            for (chunk, (t, c)) in (0..).step_by(CHUNK / 64).zip(twins.iter().zip(pages)) {
                if t == c {
                    carry = 0;
                    continue;
                }
                let blocks = t.as_chunks::<64>().0.iter().zip(c.as_chunks().0);
                for (k, (t, c)) in (chunk..).zip(blocks) {
                    let m = block_mask(t, c);
                    runs += (m & !(m << 1 | carry)).count_ones();
                    carry = m >> 63;
                    masks[k] = m;
                    if m == !0 {
                        stage[at..at + 64].copy_from_slice(c);
                        at += 64;
                        continue;
                    }
                    for (start, end) in block_runs(m) {
                        let (from, len) = (64 * k + start, end - start);
                        if len <= 8 && from + 8 <= PAGE_SIZE {
                            stage[at..at + 8].copy_from_slice(&current[from..from + 8]);
                        } else {
                            copy_run(&mut stage[at..at + len], &current[from..from + len]);
                        }
                        at += len;
                    }
                }
            }
            seal(runs, &masks, stage, at)
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
        STAGING.with_borrow_mut(|stage| {
            let (mut runs, mut at, mut masks) = (0u32, 0usize, [0u64; BLOCKS]);
            for i in 0..PAGE_SIZE {
                if twin[i] != current[i] {
                    if i == 0 || twin[i - 1] == current[i - 1] {
                        runs += 1;
                    }
                    masks[i / 64] |= 1 << (i % 64);
                    stage[at] = current[i];
                    at += 1;
                }
            }
            seal(runs, &masks, stage, at)
        })
    }

    /// The changed bytes, in page order, and each changed block as
    /// `(block index, mask)`, in block order.
    fn parts(&self) -> (&[u8], impl Iterator<Item = (usize, u64)> + '_) {
        let (data, masks) = self.buf.split_at(self.modified_bytes());
        let mut blocks = self.blocks;
        let masks = masks.as_chunks::<8>().0.iter().map(move |m| {
            let k = blocks.trailing_zeros() as usize;
            blocks &= blocks - 1;
            (k, u64::from_le_bytes(*m))
        });
        (data, masks)
    }

    /// The modified runs as `(offset within the page, new bytes)`, in
    /// increasing offset order: maximal runs, one across a block boundary
    /// being one run and one slice.
    pub fn runs(&self) -> impl Iterator<Item = (u16, &[u8])> {
        let (mut data, masks) = self.parts();
        let mut pieces = masks
            .flat_map(|(k, m)| block_runs(m).map(move |(s, e)| (64 * k + s, 64 * k + e)))
            .peekable();
        std::iter::from_fn(move || {
            let (start, mut end) = pieces.next()?;
            while let Some((_, more)) = pieces.next_if(|&(next, _)| next == end) {
                end = more;
            }
            let (run, rest) = data.split_at(end - start);
            data = rest;
            Some((start as u16, run))
        })
    }

    /// Apply this diff to `page`: block by block, each of a block's runs
    /// one copy (an all-ones block is one 64-byte copy).
    pub fn apply(&self, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "page must be one page");
        let (mut data, masks) = self.parts();
        for (k, m) in masks {
            let block = &mut page[64 * k..64 * k + 64];
            if m == !0 {
                block.copy_from_slice(&data[..64]);
                data = &data[64..];
                continue;
            }
            for (start, end) in block_runs(m) {
                let (run, rest) = data.split_at(end - start);
                copy_run(&mut block[start..end], run);
                data = rest;
            }
        }
    }

    /// True if the twin and the page were identical.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// Number of modified bytes carried by the diff.
    pub fn modified_bytes(&self) -> usize {
        self.buf.len() - 8 * self.blocks.count_ones() as usize
    }

    /// *Modelled* size of the diff on the wire: per-run header (offset +
    /// length, 4 bytes) plus the modified bytes, plus an 8-byte diff
    /// header.  This is what the cost model charges and what
    /// `diff_bytes_received` and every pinned KB count; it is deliberately
    /// not the length the host encoding writes (`wire_len`: a 4-byte run
    /// count ahead of the same runs) — unifying the two would move every
    /// pinned value.
    pub fn encoded_len(&self) -> usize {
        8 + 4 * self.runs as usize + self.modified_bytes()
    }

    /// Bytes [`encode`](Self::encode) writes: the run count and the runs.
    pub(crate) fn wire_len(&self) -> usize {
        4 + 4 * self.runs as usize + self.modified_bytes()
    }

    /// Append the wire form — the run count, then each run's offset,
    /// length and bytes — to `buf`.
    pub(crate) fn encode(&self, buf: &mut BytesMut) {
        buf.reserve(self.wire_len());
        buf.put_u32_le(self.runs);
        for (offset, data) in self.runs() {
            buf.put_u32_le(offset as u32 | (data.len() as u32) << 16);
            buf.put_slice(data);
        }
    }

    /// Decode one diff off the front of `buf`, consuming exactly the bytes
    /// [`encode`](Self::encode) wrote.  The runs are walked once to
    /// validate them and find the end, then again to build the held form.
    ///
    /// Fails — before anything can index a page with it — if a run header
    /// or its data lies outside `buf`, a run is empty or ends past the
    /// page, or the runs are not in increasing order with a gap between
    /// each two (two adjacent runs are one run split: [`Diff::create`]
    /// never writes that, and the held form cannot keep them apart).
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
            } else if run > 0 && offset == floor {
                format!("starts at the previous run's end {floor}: adjacent runs are one run")
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
        let mut rest: &[u8] = &buf.split_to(at);
        Ok(STAGING.with_borrow_mut(|stage| {
            let (mut at, mut masks) = (0usize, [0u64; BLOCKS]);
            while let Some((head, tail)) = rest.split_first_chunk::<4>() {
                let offset = u16::from_le_bytes([head[0], head[1]]) as usize;
                let (data, tail) = tail.split_at(u16::from_le_bytes([head[2], head[3]]) as usize);
                for i in offset..offset + data.len() {
                    masks[i / 64] |= 1 << (i % 64);
                }
                stage[at..at + data.len()].copy_from_slice(data);
                at += data.len();
                rest = tail;
            }
            seal(runs, &masks, stage, at)
        }))
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

    /// A page and its twin as one f32 relaxation step leaves them: every
    /// 4-byte word differs in its low three bytes.
    fn stencil_pages() -> (Box<[u8]>, Box<[u8]>) {
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
        (twin, page)
    }

    #[test]
    fn f32_stencil_page_is_a_thousand_three_byte_runs_in_one_buffer() {
        // A relaxation step changes a float's mantissa bytes while its
        // exponent byte survives: every 4-byte word differs in its low
        // three bytes.  This is the shape SOR-Nonzero produces on every
        // page it writes, and the one per-run heap objects were worst at.
        let (twin, page) = stencil_pages();
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
    fn the_worst_case_page_fits_the_staging_buffer() {
        // Every other byte modified: the most runs a page can hold (2,048
        // one-byte runs), every block changed — the longest wire, and with
        // the last run two bytes long, one byte longer.
        let twin = new_page();
        let mut page = new_page();
        for b in page.iter_mut().step_by(2) {
            *b = 1;
        }
        assert_equivalent(&twin, &page, "every other byte");
        let d = Diff::create(&twin, &page);
        assert_eq!(d.runs().count(), PAGE_SIZE / 2);
        assert_eq!(d.wire_len(), 4 + 2048 * 5);
        page[PAGE_SIZE - 1] = 1;
        assert_equivalent(&twin, &page, "every other byte, last run of two");
        assert_eq!(Diff::create(&twin, &page).wire_len(), 4 + 2048 * 5 + 1);
        // Every byte modified fills the staging buffer exactly.
        page.fill(1);
        assert_equivalent(&twin, &page, "every byte");
        assert_eq!(Diff::create(&twin, &page).buf.len(), MAX_HELD);
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
    fn a_diff_is_a_block_set_and_one_buffer_handle_whatever_its_run_count() {
        // A run count, the changed-block set and a `Bytes` handle (shared
        // pointer + window).  If this grows, a per-run or per-block heap
        // object has probably come back.
        assert_eq!(std::mem::size_of::<Diff>(), 48);
    }

    #[test]
    fn a_diff_holds_its_changed_bytes_and_one_mask_per_changed_block() {
        let twin = new_page();
        // One byte: the byte and its block's mask.
        let d = Diff::create(&twin, &page_with(&[(3000, 1)]));
        assert_eq!((d.buf.len(), d.encoded_len()), (1 + 8, 8 + 4 + 1));
        // The f32 stencil page: 3,072 bytes in all 64 blocks, where its
        // 1,024 runs take 7,168 bytes on the wire.
        let (old, relaxed) = stencil_pages();
        let d = Diff::create(&old, &relaxed);
        assert_eq!((d.buf.len(), d.wire_len()), (3072 + 512, 4 + 7168));
        // Every other byte: 2,048 bytes plus 64 masks.
        let mut page = new_page();
        for b in page.iter_mut().step_by(2) {
            *b = 1;
        }
        assert_eq!(Diff::create(&twin, &page).buf.len(), 2048 + 512);
        // A run across a block boundary is held in both blocks, and is
        // still one run of one slice.
        let d = Diff::create(&twin, &page_with(&[(63, 1), (64, 2)]));
        assert_eq!(d.buf.len(), 2 + 16);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(63, &[1u8, 2][..])]);
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
        let cases: [(&str, Bytes, &str); 10] = [
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
                "adjacent runs",
                payload(2, &[run(4092, 2, &[1, 2]), run(4094, 2, &[3, 4])].concat()),
                "run 1 of 2 (offset 4094, len 2) starts at the previous run's end 4094: \
                 adjacent runs are one run",
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
        // Runs one byte apart, the last ending exactly at the page end, are
        // legal, and encode back to the bytes they were decoded from.
        let legal = payload(2, &[run(4091, 2, &[1, 2]), run(4094, 2, &[3, 4])].concat());
        let mut ok = legal.clone();
        let d = Diff::decode(&mut ok).expect("gapped runs to the page end");
        assert_eq!((d.modified_bytes(), ok.len()), (4, 0));
        assert_eq!(encoded(&d), legal);
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
    fn seeded_pages_round_trip_through_the_wire_form() {
        // Sparse bytes, unaligned runs, block-crossing runs and rewritten
        // blocks over random pages: the held form encodes to exactly the
        // reference's runs, decodes back to itself, and rebuilds the page.
        let mut rng = Rng(0x0dd5_ba11_5eed_0044);
        for case in 0..300 {
            let mut twin = new_page();
            for b in twin.iter_mut() {
                *b = rng.next() as u8;
            }
            let mut page = twin.clone();
            for _ in 0..rng.below(24) {
                let start = rng.below(PAGE_SIZE);
                let longest = [4, 70, 300][rng.below(3)];
                let len = 1 + rng.below(longest);
                for b in &mut page[start..(start + len).min(PAGE_SIZE)] {
                    *b ^= 1 + (rng.next() as u8 & 0x7f);
                }
            }
            let ctx = format!("round-trip case {case}");
            let d = Diff::create(&twin, &page);
            let wire = encoded(&d);
            assert_eq!(
                wire,
                encoded(&Diff::create_reference(&twin, &page)),
                "{ctx}"
            );
            assert_eq!(wire.len(), d.wire_len(), "{ctx}");
            assert_eq!(d.encoded_len(), d.wire_len() + 4, "{ctx}");
            let mut cursor = wire.clone();
            assert_eq!(Diff::decode(&mut cursor).as_ref(), Ok(&d), "{ctx}");
            assert!(cursor.is_empty(), "{ctx}");
            let mut rebuilt = twin.clone();
            d.apply(&mut rebuilt);
            assert_eq!(rebuilt, page, "{ctx}");
        }
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
