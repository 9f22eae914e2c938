//! The protocol-conformance suite: every `ProtocolKind` backend —
//! present and future — must pass the same battery, run here over
//! `ProtocolKind::all()`.  A new backend added to the protocol layer
//! inherits this harness for free: add the variant, and these tests run it.
//!
//! The battery checks the contract every backend owes the runtime,
//! regardless of *how* it moves data:
//!
//! * **release/acquire visibility** — writes made under a lock are visible
//!   to the next holder of that lock;
//! * **barrier visibility** — writes made before a barrier are visible to
//!   every process after it, including multi-writer false sharing;
//! * **GC determinism** — enabling barrier-time metadata collection changes
//!   no application result, bit for bit;
//! * **bit-identical double runs** — the full report (every virtual time
//!   and counter on every process) of a mixed lock/barrier workload is
//!   identical across runs;
//! * **cross-backend agreement** — all backends compute bit-identical
//!   application answers; only the traffic may differ;
//! * **single-process silence** — one process never sends a message.
//!
//! The visibility programs themselves live in `bench::invariants` (promoted
//! there so the fuzzing harness can run them under arbitrary fault plans
//! and schedule seeds); this suite runs them on the clean calibrated
//! testbed, where anything short of a clean pass is a hard failure.

use bench::invariants::{self, RunVerdict};
use netws::cluster::{Cluster, ClusterConfig, ClusterReport};
use netws::treadmarks::{ProtocolKind, Tmk};

fn run_under<R: Send>(
    protocol: ProtocolKind,
    n: usize,
    f: impl Fn(&Tmk) -> R + Send + Sync,
) -> ClusterReport<R> {
    Cluster::run(ClusterConfig::calibrated_fddi(n), move |p| {
        let tmk = Tmk::with_protocol(p, protocol);
        let r = f(&tmk);
        tmk.exit();
        r
    })
}

/// A mixed workload exercising every visibility edge: barrier-published
/// initialisation, a lock-protected counter, migratory data, and two
/// processes falsely sharing one page.  Returns a value derived from every
/// shared location read.
fn mixed_workload(tmk: &Tmk) -> i64 {
    let n = tmk.nprocs();
    let grid = tmk.malloc_aligned(4096, 4096);
    let counter = tmk.malloc(8);
    let block = tmk.malloc(256);
    if tmk.id() == 0 {
        for i in 0..64 {
            tmk.write::<i64>(grid + i * 8, i as i64);
        }
    }
    tmk.barrier(0);
    let mut sum = 0;
    for i in 0..64 {
        sum += tmk.read::<i64>(grid + i * 8);
    }
    for _ in 0..4 {
        tmk.lock_acquire(0);
        let v = tmk.read::<i64>(counter);
        tmk.write::<i64>(counter, v + 1);
        tmk.lock_release(0);
    }
    for round in 0..n {
        if tmk.id() == round {
            tmk.lock_acquire(1);
            for i in 0..8 {
                tmk.write::<i64>(block + i * 8, (round * 10 + i) as i64);
            }
            tmk.lock_release(1);
        }
        tmk.barrier(1 + round as u32);
    }
    // False sharing: the two lowest ranks write disjoint halves of the grid
    // page, everyone reads both afterwards.
    if tmk.id() < 2 {
        tmk.write::<i64>(grid + 2048 + tmk.id() * 8, (100 + tmk.id()) as i64);
    }
    tmk.barrier(100);
    sum += tmk.read::<i64>(counter);
    sum += tmk.read::<i64>(block);
    sum += tmk.read::<i64>(grid + 2048) + tmk.read::<i64>(grid + 2056);
    sum
}

fn mixed_expect(n: i64) -> i64 {
    (0..64).sum::<i64>() + 4 * n + (n - 1) * 10 + 100 + 101
}

#[test]
fn every_backend_sees_writes_after_release_and_acquire() {
    // The lock-token program lives in bench::invariants (the fuzzer runs it
    // under arbitrary fault plans); on the clean testbed it must pass.
    let cfg = ClusterConfig::calibrated_fddi(4);
    for protocol in ProtocolKind::all() {
        let v = invariants::check_release_acquire(&cfg, protocol);
        assert_eq!(v, RunVerdict::Pass, "{protocol}: {}", v.summary());
    }
}

#[test]
fn every_backend_sees_writes_after_a_barrier() {
    // The multi-writer page-publication program lives in bench::invariants
    // (false sharing under a single-writer protocol, multi-writer diffs
    // under LRC/HLRC); on the clean testbed it must pass.
    let cfg = ClusterConfig::calibrated_fddi(4);
    for protocol in ProtocolKind::all() {
        let v = invariants::check_barrier_visibility(&cfg, protocol);
        assert_eq!(v, RunVerdict::Pass, "{protocol}: {}", v.summary());
    }
}

#[test]
fn every_backend_is_gc_transparent() {
    // Turning barrier-time metadata collection on must not change a single
    // result bit; whatever a backend retains, collecting it is invisible.
    for protocol in ProtocolKind::all() {
        let n = 4;
        let run = |gc_threshold: u64| {
            run_under(protocol, n, move |tmk| {
                tmk.set_gc_threshold(gc_threshold);
                mixed_workload(tmk)
            })
        };
        let without = run(u64::MAX);
        let with = run(4);
        assert_eq!(
            without.results, with.results,
            "{protocol}: GC changed application results"
        );
        for (rank, (a, b)) in without.results.iter().zip(&with.results).enumerate() {
            assert_eq!(*a, *b, "{protocol}: process {rank} diverged under GC");
        }
    }
}

#[test]
fn every_backend_is_bit_deterministic_across_runs() {
    for protocol in ProtocolKind::all() {
        let n = 4;
        let go = || run_under(protocol, n, mixed_workload);
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results, "{protocol}: results differ");
        for (sa, sb) in a.stats.iter().zip(&b.stats) {
            assert_eq!(
                sa.finish_time.to_bits(),
                sb.finish_time.to_bits(),
                "{protocol}: process {} finish time differs",
                sa.id
            );
            assert_eq!(
                sa.idle_time.to_bits(),
                sb.idle_time.to_bits(),
                "{protocol}: process {} idle time differs",
                sa.id
            );
            assert_eq!(
                sa.messages_sent, sb.messages_sent,
                "{protocol}: process {} message count differs",
                sa.id
            );
            assert_eq!(
                sa.bytes_sent, sb.bytes_sent,
                "{protocol}: process {} byte count differs",
                sa.id
            );
        }
    }
}

#[test]
fn all_backends_agree_on_application_results() {
    let n = 4;
    let mut per_protocol = Vec::new();
    for protocol in ProtocolKind::all() {
        let rep = run_under(protocol, n, mixed_workload);
        let expect = mixed_expect(n as i64);
        assert!(
            rep.results.iter().all(|&v| v == expect),
            "{protocol}: got {:?}, expected {expect}",
            rep.results
        );
        per_protocol.push(rep.results);
    }
    // Observational equivalence: bit-equal results, not merely "correct".
    for pair in per_protocol.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

#[test]
fn every_backend_is_silent_on_a_single_process() {
    for protocol in ProtocolKind::all() {
        let rep = run_under(protocol, 1, |tmk| {
            let a = tmk.malloc(1024);
            tmk.barrier(0);
            tmk.lock_acquire(0);
            tmk.write::<f64>(a, 3.25);
            tmk.lock_release(0);
            tmk.barrier(1);
            tmk.read::<f64>(a)
        });
        assert_eq!(rep.results[0], 3.25, "{protocol}");
        assert_eq!(rep.total_messages(), 0, "{protocol}: a lone process spoke");
    }
}
