//! Ablation: run-length diffs versus whole-page transfers.
//!
//! The multiple-writer protocol's diffs are what let TreadMarks send *less*
//! data than PVM in SOR-Zero (most pages stay zero, so diffs are tiny).
//! This bench measures diff creation and application for sparse and dense
//! pages and compares the encoded size against a whole-page transfer.
//!
//! The fourth shape, the *stencil* page, is the one the other three (and
//! the benchmark's layer probes, which reuse them) never reach: at most a
//! few dozen runs per page there, a thousand here.  It is what an f32
//! relaxation step does to every page it writes — SOR-Nonzero's whole
//! working set — and the shape on which a per-run heap object cost eight
//! times its payload.

use criterion::{criterion_group, criterion_main, Criterion};
use treadmarks::proto::{decode_diff_response, encode_diff_response, WireDiff};
use treadmarks::{Diff, VectorClock};

const PAGE: usize = 4096;

fn sparse_pair() -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; PAGE];
    let mut page = twin.clone();
    for i in (0..64).map(|k| k * 61) {
        page[i] = 1;
    }
    (twin, page)
}

fn dense_pair() -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; PAGE];
    let page: Vec<u8> = (0..PAGE).map(|i| (i % 251 + 1) as u8).collect();
    (twin, page)
}

/// The simulator's dominant case: an almost untouched page (one cache line
/// of f64s modified), as SOR-Zero and the barrier-heavy apps produce.
fn mostly_equal_pair() -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; PAGE];
    let mut page = twin.clone();
    for b in &mut page[2048..2112] {
        *b = 7;
    }
    (twin, page)
}

/// An f32 relaxation step: every float's three mantissa-side bytes change,
/// its exponent byte survives — 1,024 runs of 3 bytes.
fn stencil_pair() -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    let mut page = twin.clone();
    for word in page.chunks_exact_mut(4) {
        for b in &mut word[..3] {
            *b ^= 0x5a;
        }
    }
    (twin, page)
}

fn bench_diffs(c: &mut Criterion) {
    let (stwin, spage) = sparse_pair();
    let (dtwin, dpage) = dense_pair();
    let (mtwin, mpage) = mostly_equal_pair();
    let (ftwin, fpage) = stencil_pair();

    c.bench_function("diff_create_mostly_equal_page", |b| {
        b.iter(|| Diff::create(std::hint::black_box(&mtwin), std::hint::black_box(&mpage)))
    });
    c.bench_function("diff_create_mostly_equal_page_bytewise_reference", |b| {
        b.iter(|| {
            Diff::create_reference(std::hint::black_box(&mtwin), std::hint::black_box(&mpage))
        })
    });

    c.bench_function("diff_create_sparse_page", |b| {
        b.iter(|| Diff::create(std::hint::black_box(&stwin), std::hint::black_box(&spage)))
    });
    c.bench_function("diff_create_dense_page", |b| {
        b.iter(|| Diff::create(std::hint::black_box(&dtwin), std::hint::black_box(&dpage)))
    });
    // The byte-at-a-time oracle, timed alongside the shipping word-scan so
    // the fast path's advantage stays visible (and honest) in bench output.
    c.bench_function("diff_create_sparse_page_bytewise_reference", |b| {
        b.iter(|| {
            Diff::create_reference(std::hint::black_box(&stwin), std::hint::black_box(&spage))
        })
    });
    c.bench_function("diff_create_dense_page_bytewise_reference", |b| {
        b.iter(|| {
            Diff::create_reference(std::hint::black_box(&dtwin), std::hint::black_box(&dpage))
        })
    });

    let sparse = Diff::create(&stwin, &spage);
    let dense = Diff::create(&dtwin, &dpage);
    // The data-volume ablation: a sparse diff is far smaller than a page,
    // a dense diff is slightly larger (run headers).
    assert!(sparse.encoded_len() < PAGE / 4);
    assert!(dense.encoded_len() >= PAGE);

    c.bench_function("diff_apply_sparse_page", |b| {
        let mut target = vec![0u8; PAGE];
        b.iter(|| sparse.apply(std::hint::black_box(&mut target)))
    });
    c.bench_function("diff_apply_dense_page", |b| {
        let mut target = vec![0u8; PAGE];
        b.iter(|| dense.apply(std::hint::black_box(&mut target)))
    });
    c.bench_function("diff_create_stencil_page", |b| {
        b.iter(|| Diff::create(std::hint::black_box(&ftwin), std::hint::black_box(&fpage)))
    });
    let stencil = Diff::create(&ftwin, &fpage);
    assert_eq!(stencil.runs().count(), PAGE / 4);
    assert_eq!(stencil.encoded_len(), 8 + 7 * PAGE / 4);
    c.bench_function("diff_apply_stencil_page", |b| {
        let mut target = vec![0u8; PAGE];
        b.iter(|| stencil.apply(std::hint::black_box(&mut target)))
    });
    // A fault's worth of accumulated diffs through the codec: what a
    // SOR-Nonzero responder encodes and its requester decodes and keeps.
    let response: Vec<WireDiff> = (0..16)
        .map(|seq| WireDiff {
            creator: 1,
            seq,
            vc: VectorClock::from_entries(vec![0, seq, 0, 0, 0, 0, 0, 0]),
            diff: stencil.clone(),
        })
        .collect();
    c.bench_function("diff_response_16_stencil_encode_decode", |b| {
        b.iter(|| {
            let wire = encode_diff_response(7, std::hint::black_box(&response));
            decode_diff_response(wire, 8)
        })
    });

    c.bench_function("whole_page_copy_baseline", |b| {
        let mut target = vec![0u8; PAGE];
        b.iter(|| target.copy_from_slice(std::hint::black_box(&dpage)))
    });
}

criterion_group!(benches, bench_diffs);
criterion_main!(benches);
