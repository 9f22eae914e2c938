//! Every DSM coherence backend head to head on the workloads that separate
//! them: false sharing (multiple concurrent writers of one page) and
//! migratory data (a block rewritten by each process in turn).
//!
//! LRC (the paper's TreadMarks protocol) answers a fault with diff requests
//! to every concurrent writer and accumulates old diffs at the responders;
//! HLRC flushes diffs to a per-page home at every release and answers a
//! fault with one full-page fetch; SC (the sequential-consistency baseline)
//! has no diffs at all — a single writer owns each page, so false sharing
//! makes the page (and a round of invalidations) ping-pong on every
//! alternating write, which is exactly the column to watch below.  The
//! example prints, for each workload and backend, the virtual time, message
//! count, data volume, and the fault-service round trips (the flushes
//! column is HLRC's eager-flush count; it is structurally zero for LRC and
//! SC).
//!
//! The backend list comes from `ProtocolKind::all()`, so a new protocol
//! joins the duel automatically.
//!
//! Run with: `cargo run --release --example protocol_duel`

use netws::cluster::{Cluster, ClusterConfig};
use netws::treadmarks::{ProtocolKind, Tmk, TmkStats};

fn false_sharing(protocol: ProtocolKind) -> (f64, u64, f64, TmkStats) {
    let rep = Cluster::run(ClusterConfig::calibrated_fddi(4), move |p| {
        let tmk = Tmk::with_protocol(p, protocol);
        let a = tmk.malloc_aligned(4 * 4096, 4096);
        tmk.barrier(0);
        for round in 0..8u32 {
            if tmk.id() < 3 {
                for page in 0..4 {
                    let base = a + page * 4096 + tmk.id() * 1024;
                    for i in 0..16 {
                        tmk.write::<i64>(base + i * 8, (round as usize * 100 + i) as i64);
                    }
                }
            }
            tmk.barrier(1 + 2 * round);
            let mut sink = 0i64;
            for page in 0..4 {
                sink ^= tmk.read::<i64>(a + page * 4096);
            }
            std::hint::black_box(sink);
            tmk.barrier(2 + 2 * round);
        }
        let st = tmk.stats();
        tmk.exit();
        st
    });
    summarize(rep)
}

fn migratory(protocol: ProtocolKind) -> (f64, u64, f64, TmkStats) {
    let rep = Cluster::run(ClusterConfig::calibrated_fddi(4), move |p| {
        let tmk = Tmk::with_protocol(p, protocol);
        let a = tmk.malloc_aligned(16 * 1024, 4096);
        tmk.barrier(0);
        for round in 0..16u32 {
            if tmk.id() == (round as usize) % 4 {
                tmk.lock_acquire(0);
                let data = vec![round as i32 + 1; 4096];
                tmk.write_slice(a, &data);
                tmk.lock_release(0);
            }
            tmk.barrier(1 + round);
        }
        let st = tmk.stats();
        tmk.exit();
        st
    });
    summarize(rep)
}

fn summarize(rep: netws::cluster::ClusterReport<TmkStats>) -> (f64, u64, f64, TmkStats) {
    let mut agg = TmkStats::default();
    for st in &rep.results {
        agg.merge(st);
    }
    (
        rep.parallel_time(),
        rep.total_datagrams(),
        rep.total_kilobytes(),
        agg,
    )
}

fn main() {
    for (name, run) in [
        (
            "false sharing (3 writers/page)",
            false_sharing as fn(ProtocolKind) -> (f64, u64, f64, TmkStats),
        ),
        ("migratory block under a lock", migratory),
    ] {
        println!("\n{name}:");
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>12} {:>10}",
            "proto", "time (s)", "msgs", "KB", "fault trips", "flushes"
        );
        for protocol in ProtocolKind::all() {
            let (time, msgs, kb, stats) = run(protocol);
            println!(
                "{:>6} {:>10.4} {:>10} {:>10.1} {:>12} {:>10}",
                protocol.name(),
                time,
                msgs,
                kb,
                stats.fault_round_trips(),
                stats.diff_flushes_sent,
            );
        }
    }
}
