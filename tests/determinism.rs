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

/// Bitwise equality of two runs' stat records of process `rank`: the
/// virtual finish time is compared by its f64 bit pattern, not within a
/// tolerance.
fn assert_proc_stats_identical(rank: usize, a: &ProcStats, b: &ProcStats, ctx: &str) {
    let (x, y) = (a.finish_time, b.finish_time);
    assert_eq!(
        x.to_bits(),
        y.to_bits(),
        "{ctx}: process {rank} finish_time differs between runs: {x} vs {y}"
    );
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
    ] {
        assert_eq!(x, y, "{ctx}: process {rank} {name} differs between runs");
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
    for (rank, (pa, pb)) in a.proc_stats.iter().zip(&b.proc_stats).enumerate() {
        assert_proc_stats_identical(rank, pa, pb, ctx);
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

/// The kernel memo (`apps::memo`) cannot change results: the whole tiny
/// matrix computed twice in one process — the second pass answered from a
/// warm memo — renders byte-identical JSON records, and both passes sum to
/// the pinned virtual seconds of `reproduce --tiny`.
#[test]
fn a_warm_kernel_memo_leaves_the_tiny_matrix_bit_identical() {
    use bench::{proc_series, run_matrix, run_record_json, Preset, RunKey};
    use netws::apps::memo::kernel_stats;
    let workloads = Workload::all();
    let mut keys = Vec::new();
    for &w in &workloads {
        for n in proc_series(8) {
            keys.extend(System::all().map(|sys| RunKey::fddi(w, sys, n)));
        }
    }
    let pass = || {
        let m = run_matrix(Preset::Tiny, &workloads, &keys, 2);
        let json: Vec<String> = m.runs().map(|(k, r)| run_record_json(k, r)).collect();
        let virtual_seconds: f64 = m.runs().map(|(_, r)| r.time).sum();
        (json.join("\n"), virtual_seconds.to_bits())
    };
    let cold = pass();
    let hits_before = kernel_stats().hits;
    let warm = pass();
    // One tiny matrix makes 9,167 kernel calls; every one of the second
    // pass's is a hit (other tests of this process can only add more).
    assert!(kernel_stats().hits - hits_before >= 9_167);
    assert_eq!(cold.1, 0x4056_3a00_d13a_d853);
    assert_eq!(warm.1, 0x4056_3a00_d13a_d853);
    assert!(cold.0 == warm.0, "a warm memo moved a rendered byte");
}

/// The full structured obs trace — every event token of every run, as the
/// exported Chrome-trace bytes — is byte-identical across worker-thread
/// widths at four contending processes: virtual-time stamping means which
/// thread hosted a run, and when, never leaks.
#[test]
fn obs_traces_are_byte_identical_across_thread_widths() {
    use bench::{obs, run_matrix_obs, RunKey};
    use netws::cluster::ObsLevel;
    let keys: Vec<RunKey> = System::all()
        .into_iter()
        .map(|sys| RunKey::fddi(Workload::Tsp, sys, 4))
        .collect();
    let traced = |jobs: usize| {
        obs::chrome_trace_json(&run_matrix_obs(
            Preset::Tiny,
            &[Workload::Tsp],
            &keys,
            jobs,
            ObsLevel::Trace,
        ))
    };
    assert_eq!(
        traced(1),
        traced(4),
        "trace bytes differ between 1 and 4 worker threads"
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
    for (rank, (pa, pb)) in a.stats.iter().zip(&b.stats).enumerate() {
        assert_proc_stats_identical(rank, pa, pb, "contended transport");
    }
    // Receive-side datagram accounting closes the loop cluster-wide: all
    // consumed traffic is seen by both ends.
    let sent: u64 = a.stats.iter().map(|s| s.datagrams_sent).sum();
    let received: u64 = a.stats.iter().map(|s| s.datagrams_received).sum();
    assert_eq!(sent, received);
}
