//! Determinism: under the conservative virtual-time arbiter, two runs of
//! the same program must produce **byte-identical** results — every virtual
//! time, every counter, on every process, under every system.  This is the
//! property that turns the reproduction's Table 1/2 numbers into stable
//! facts instead of thread-interleaving lottery tickets.

use netws::apps::runner::{AppRun, System};
use netws::apps::{Preset, Workload};
use netws::cluster::{Cluster, ClusterConfig, ProcStats};

fn run(w: Workload, sys: System, n: usize) -> AppRun {
    w.run(Preset::Tiny, sys, &ClusterConfig::calibrated_fddi(n))
        .unwrap()
}

/// Bitwise equality of two per-process stat records: every virtual time is
/// compared by its f64 bit pattern, not within a tolerance.
fn assert_proc_stats_identical(a: &ProcStats, b: &ProcStats, ctx: &str) {
    assert_eq!(a.id, b.id, "{ctx}: rank");
    for (name, x, y) in [
        ("finish_time", a.finish_time, b.finish_time),
        ("compute_time", a.compute_time, b.compute_time),
        ("idle_time", a.idle_time, b.idle_time),
        ("config_latency", a.config_latency, b.config_latency),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: process {} {name} differs between runs: {x} vs {y}",
            a.id
        );
    }
    for (name, x, y) in [
        ("messages_sent", a.messages_sent, b.messages_sent),
        ("datagrams_sent", a.datagrams_sent, b.datagrams_sent),
        ("bytes_sent", a.bytes_sent, b.bytes_sent),
        (
            "messages_received",
            a.messages_received,
            b.messages_received,
        ),
        (
            "datagrams_received",
            a.datagrams_received,
            b.datagrams_received,
        ),
        ("bytes_received", a.bytes_received, b.bytes_received),
    ] {
        assert_eq!(x, y, "{ctx}: process {} {name} differs between runs", a.id);
    }
}

fn assert_runs_identical(a: &AppRun, b: &AppRun, ctx: &str) {
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{ctx}: checksum differs"
    );
    assert_eq!(
        a.time.to_bits(),
        b.time.to_bits(),
        "{ctx}: parallel time differs between runs: {} vs {}",
        a.time,
        b.time
    );
    assert_eq!(a.messages, b.messages, "{ctx}: message count differs");
    assert_eq!(
        a.kilobytes.to_bits(),
        b.kilobytes.to_bits(),
        "{ctx}: data volume differs"
    );
    assert_eq!(
        a.tmk_stats, b.tmk_stats,
        "{ctx}: DSM runtime counters differ"
    );
    assert_eq!(a.proc_stats.len(), b.proc_stats.len(), "{ctx}: nprocs");
    for (pa, pb) in a.proc_stats.iter().zip(&b.proc_stats) {
        assert_proc_stats_identical(pa, pb, ctx);
    }
}

/// Every Tiny-preset application, run twice under each system (every DSM
/// protocol backend and PVM — `System::all()`, so a future backend is
/// covered automatically), yields a bit-identical report: same times,
/// same counters, on every process.
#[test]
fn every_app_is_bit_deterministic_under_every_system() {
    for w in Workload::all() {
        for sys in System::all() {
            let first = run(w, sys, 4);
            let second = run(w, sys, 4);
            let ctx = format!("{} under {sys} at 4 processes", w.name());
            assert_runs_identical(&first, &second, &ctx);
        }
    }
}

/// The parallel run executor cannot change results: a reproduction matrix
/// computed on a 4-thread worker pool is bit-identical — every virtual time
/// and counter, on every process of every run, and the rendered JSON
/// records — to the same matrix computed serially.
#[test]
fn parallel_executor_matches_serial_bit_for_bit() {
    use bench::{run_matrix, run_record_json, Preset, RunKey};
    let workloads = [Workload::Qsort, Workload::IsSmall, Workload::BarnesHut];
    let keys: Vec<RunKey> = workloads
        .iter()
        .flat_map(|&w| {
            System::all().into_iter().flat_map(move |sys| {
                [2usize, 4]
                    .into_iter()
                    .map(move |n| RunKey::fddi(w, sys, n))
            })
        })
        .collect();
    let serial = run_matrix(Preset::Tiny, &workloads, &keys, 1);
    let parallel = run_matrix(Preset::Tiny, &workloads, &keys, 4);
    for key in &keys {
        let (a, b) = (serial.run(key), parallel.run(key));
        let ctx = format!(
            "{} under {} at {} processes (serial vs parallel)",
            key.workload.name(),
            key.system,
            key.nprocs
        );
        assert_runs_identical(a, b, &ctx);
        assert_eq!(
            run_record_json(key, a),
            run_record_json(key, b),
            "{ctx}: JSON record differs"
        );
    }
    for &w in &workloads {
        assert_eq!(
            serial.sequential(w).time.to_bits(),
            parallel.sequential(w).time.to_bits(),
            "{}: sequential baseline differs",
            w.name()
        );
    }
}

/// The conservative PDES island scheduler cannot change results: every
/// workload in the battery, under every system (all DSM protocol backends
/// and PVM), produces a bit-identical run — every virtual time and counter,
/// on every process — at `islands` widths 1, 2 and 4.  Width 1 is the flat
/// arbiter, so this pins the island refactor to the pre-island engine.
#[test]
fn island_scheduling_is_bit_identical_at_every_width() {
    use bench::{run_parallel_on, Exec};
    let workloads = [Workload::Ep, Workload::SorZero, Workload::Tsp];
    for w in workloads {
        for sys in System::all() {
            let at_width = |islands: usize| {
                let mut cfg = ClusterConfig::calibrated_fddi(4);
                Exec {
                    islands,
                    ..Exec::with_jobs(1)
                }
                .apply(&mut cfg);
                run_parallel_on(w, sys, &cfg, Preset::Tiny)
            };
            let flat = at_width(1);
            for islands in [2usize, 4] {
                let wide = at_width(islands);
                let ctx = format!(
                    "{} under {sys} at 4 processes (islands 1 vs {islands})",
                    w.name()
                );
                assert_runs_identical(&flat, &wide, &ctx);
            }
        }
    }
}

/// The threaded-window battery: 3 workloads × every system × `islands`
/// {1, 2, 4} × `island_threads` {1, 2, 4}, asserting the full report —
/// every virtual time and counter, on every process — bit-identical to the
/// flat serial engine at `(1, 1)`.  `plan` injects faults under the same
/// grid; `ctx_plan` names it in failure messages.
fn threaded_width_battery(plan: &netws::cluster::FaultPlan, ctx_plan: &str) {
    use bench::{run_parallel_on, Exec};
    let workloads = [Workload::Ep, Workload::SorZero, Workload::Tsp];
    for w in workloads {
        for sys in System::all() {
            let at = |islands: usize, island_threads: usize| {
                let mut cfg = ClusterConfig::calibrated_fddi(4);
                Exec {
                    islands,
                    island_threads,
                    ..Exec::with_jobs(1)
                }
                .apply(&mut cfg);
                cfg.fault = plan.clone();
                run_parallel_on(w, sys, &cfg, Preset::Tiny)
            };
            let flat = at(1, 1);
            for islands in [1usize, 2, 4] {
                for threads in [1usize, 2, 4] {
                    if (islands, threads) == (1, 1) {
                        continue;
                    }
                    let wide = at(islands, threads);
                    let ctx = format!(
                        "{} under {sys} at 4 processes ({ctx_plan}; islands 1 vs {islands}, \
                         island-threads 1 vs {threads})",
                        w.name()
                    );
                    assert_runs_identical(&flat, &wide, &ctx);
                }
            }
        }
    }
}

/// Fault-free: the threaded windowed engine engages wherever it is
/// eligible, and every `(islands, island_threads)` width reproduces the
/// serial engine bit for bit.
#[test]
fn threaded_windows_are_bit_identical_at_every_width() {
    threaded_width_battery(&netws::cluster::FaultPlan::default(), "no faults");
}

/// A lossy plan (drops, duplicates, reorders, delays): reorder slip is
/// incompatible with staged window delivery, so the engine falls back to
/// the serial island path — which must still be bit-identical at every
/// requested width.
#[test]
fn threaded_windows_are_bit_identical_under_a_lossy_plan() {
    threaded_width_battery(&netws::cluster::FaultPlan::lossy(1), "lossy plan");
}

/// A timed partition has no probabilistic reordering, so the threaded
/// window path stays eligible and runs *with* fault injection: partition
/// draws come from per-link PRNG streams, so thread interleaving cannot
/// reach them.
#[test]
fn threaded_windows_are_bit_identical_under_a_timed_partition() {
    threaded_width_battery(
        &netws::cluster::FaultPlan::partitioned(1, 4),
        "timed partition",
    );
}

/// The full structured obs trace — every event token of every run, as the
/// exported Chrome-trace bytes — is byte-identical across island-thread
/// widths: virtual-time stamping means recording order never leaks.
#[test]
fn obs_traces_are_byte_identical_across_thread_widths() {
    use bench::{obs, run_matrix_exec, Exec, RunKey, RunTuning};
    use netws::cluster::ObsLevel;
    let workloads = [Workload::Tsp];
    let keys: Vec<RunKey> = System::all()
        .into_iter()
        .map(|sys| RunKey::fddi(Workload::Tsp, sys, 4))
        .collect();
    let traced = |island_threads: usize| {
        let exec = Exec {
            islands: 4,
            island_threads,
            obs: ObsLevel::Trace,
            ..Exec::with_jobs(2)
        };
        run_matrix_exec(
            Preset::Tiny,
            &workloads,
            &keys,
            &exec,
            &RunTuning::default(),
        )
    };
    let a = obs::chrome_trace_json(&traced(1));
    let b = obs::chrome_trace_json(&traced(4));
    assert_eq!(
        a, b,
        "trace bytes differ between island-thread widths 1 and 4"
    );
}

/// The raw transport is deterministic even under deliberate contention:
/// many processes hammer one receiver through the shared medium, with
/// interrupt-style service mixed in, and the full `ClusterReport` matches
/// bit-for-bit across runs.
#[test]
fn contended_shared_medium_reports_are_bit_identical() {
    use bytes::Bytes;
    let run_once = || {
        Cluster::run(ClusterConfig::calibrated_fddi(6), |p| {
            if p.id() == 0 {
                let mut total = 0usize;
                for _ in 0..(5 * 8) {
                    let m = p.recv_any();
                    total += m.payload.len();
                    p.send_at(m.src, 99, Bytes::from_static(b"ack"), m.arrival + 1e-5);
                }
                total
            } else {
                for i in 0..8u32 {
                    p.compute(1e-4 * p.id() as f64);
                    p.send(0, i, Bytes::from(vec![p.id() as u8; 700 * p.id()]));
                    p.recv(Some(0), 99);
                }
                0
            }
        })
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.results, b.results);
    for (pa, pb) in a.stats.iter().zip(&b.stats) {
        assert_proc_stats_identical(pa, pb, "contended transport");
    }
    // Receive-side datagram accounting closes the loop cluster-wide: all
    // consumed traffic is seen by both ends.
    let sent: u64 = a.stats.iter().map(|s| s.datagrams_sent).sum();
    let received: u64 = a.stats.iter().map(|s| s.datagrams_received).sum();
    assert_eq!(sent, received);
}
