//! The observability determinism battery: traces, histograms and profiles
//! are **byte-identical** across reruns and `--jobs` widths, and recording
//! them never perturbs the simulation itself.
//!
//! Everything the obs layer emits is stamped in virtual time and rendered
//! with integer formatting, so the Chrome-trace export and the metrics
//! report are pure functions of the requested matrix — the same guarantee
//! the determinism suite asserts for Table 1/2, extended to the new
//! instrumentation.  The cross-check against the Table-2 counters
//! (span counts vs `TmkStats`) runs inside the runner under the
//! `oracle-checks` feature; here we assert the aggregate identities that
//! hold unconditionally.

use bench::obs::{chrome_trace_json, metrics_report, validate_json};
use bench::{run_matrix_obs, Preset, RunKey, RunMatrix};
use netws::apps::runner::System;
use netws::apps::Workload;
use netws::cluster::{obs, ObsLevel, SpanCat};

/// Every Tiny app under every system (all three DSM backends plus PVM) at
/// two processes: the full instrumented matrix of the battery.
fn all_keys(nprocs: usize) -> Vec<RunKey> {
    Workload::all()
        .into_iter()
        .flat_map(|w| {
            System::all()
                .into_iter()
                .map(move |sys| RunKey::fddi(w, sys, nprocs))
        })
        .collect()
}

fn traced_matrix(jobs: usize) -> RunMatrix {
    run_matrix_obs(Preset::Tiny, &[], &all_keys(2), jobs, ObsLevel::Trace)
}

#[test]
fn traces_and_metrics_are_byte_identical_across_reruns_and_job_widths() {
    let serial = traced_matrix(1);
    let wide = traced_matrix(4);
    let rerun = traced_matrix(4);
    let (t1, t2, t3) = (
        chrome_trace_json(&serial),
        chrome_trace_json(&wide),
        chrome_trace_json(&rerun),
    );
    assert_eq!(t1, t2, "trace differs between --jobs 1 and --jobs 4");
    assert_eq!(t2, t3, "trace differs between two identical runs");
    validate_json(&t1).expect("exported trace is structurally valid JSON");
    let (m1, m2, m3) = (
        metrics_report(&serial),
        metrics_report(&wide),
        metrics_report(&rerun),
    );
    assert_eq!(m1, m2, "metrics report differs between job widths");
    assert_eq!(m2, m3, "metrics report differs between two identical runs");
    // The kernel memo's host counters race across workers: `--bench-out`'s
    // `timing` section is the only place they may appear.
    assert!(!t1.contains("memo") && !m1.contains("memo"));
    // Every run of the matrix appears in the trace as a named process.
    for (key, _) in serial.runs() {
        let label = format!(
            "{}/{}/{}/p{}",
            key.workload.name(),
            key.system,
            key.net.label(),
            key.nprocs
        );
        assert!(t1.contains(&label), "run {label} missing from the trace");
        assert!(m1.contains(&label), "run {label} missing from the report");
    }
}

#[test]
fn recording_does_not_perturb_the_simulation() {
    // The sink only *reads* the virtual clock, so Off vs Trace must agree
    // on every bit of the simulation's own output: times, checksums,
    // message counts, per-process stats.
    let keys = all_keys(2);
    let off = run_matrix_obs(Preset::Tiny, &[], &keys, 4, ObsLevel::Off);
    let traced = run_matrix_obs(Preset::Tiny, &[], &keys, 4, ObsLevel::Trace);
    for key in &keys {
        let (a, b) = (off.run(key), traced.run(key));
        assert_eq!(a.time.to_bits(), b.time.to_bits(), "{key:?}: time");
        assert_eq!(
            a.checksum.to_bits(),
            b.checksum.to_bits(),
            "{key:?}: checksum"
        );
        assert_eq!(a.messages, b.messages, "{key:?}: messages");
        assert_eq!(
            a.kilobytes.to_bits(),
            b.kilobytes.to_bits(),
            "{key:?}: kilobytes"
        );
        assert_eq!(
            format!("{:?}", a.proc_stats),
            format!("{:?}", b.proc_stats),
            "{key:?}: per-process stats"
        );
        assert!(a.obs.is_none(), "{key:?}: Off run carries recordings");
        assert!(b.obs.is_some(), "{key:?}: Trace run lost its recordings");
    }
}

#[test]
fn profile_attribution_never_exceeds_finish_time() {
    // Self-time attribution is disjoint (nested spans subtract), so the sum
    // of every category's self time is bounded by the process's finish
    // time, leaving a non-negative compute residual on every rank.
    let keys = all_keys(4);
    let m = run_matrix_obs(Preset::Tiny, &[], &keys, 4, ObsLevel::Metrics);
    for (key, run) in m.runs() {
        let cobs = run.obs.as_ref().expect("metrics run has recordings");
        assert_eq!(cobs.procs.len(), run.nprocs, "{key:?}: rank count");
        for (rank, po) in cobs.procs.iter().enumerate() {
            let finish = obs::ns(run.proc_stats[rank].finish_time);
            assert!(
                po.total_attributed_ns() <= finish,
                "{key:?} rank {rank}: attributed {} ns > finish {} ns",
                po.total_attributed_ns(),
                finish
            );
        }
        // At metrics level no event stream is kept.
        assert!(
            cobs.central.is_empty(),
            "{key:?}: central events at Metrics"
        );
        assert!(
            cobs.procs.iter().all(|p| p.events.is_empty()),
            "{key:?}: span events at Metrics"
        );
    }
}

#[test]
fn span_counts_agree_with_the_dsm_counters() {
    // The aggregate form of the oracle (the per-rank form runs in the
    // runner under `oracle-checks`): summed span counts equal the summed
    // Table-2 protocol counters on every DSM run.
    let keys = all_keys(2);
    let m = run_matrix_obs(Preset::Tiny, &[], &keys, 4, ObsLevel::Metrics);
    for (key, run) in m.runs() {
        let Some(tmk) = &run.tmk_stats else { continue };
        let cobs = run.obs.as_ref().expect("metrics run has recordings");
        assert_eq!(
            cobs.merged_hist(SpanCat::Fault).count(),
            tmk.page_faults,
            "{key:?}: fault spans vs page_faults"
        );
        assert_eq!(
            cobs.merged_hist(SpanCat::BarrierWait).count(),
            tmk.barriers,
            "{key:?}: barrier-wait spans vs barriers"
        );
        assert_eq!(
            cobs.merged_hist(SpanCat::LockWait).count(),
            tmk.remote_lock_acquires,
            "{key:?}: lock-wait spans vs remote_lock_acquires"
        );
        assert_eq!(
            cobs.merged_hist(SpanCat::Gc).count(),
            tmk.gc_collections,
            "{key:?}: gc spans vs gc_collections"
        );
    }
}

#[test]
fn trace_event_counts_match_transport_counters() {
    // At trace level, the central stream holds exactly one Send per logical
    // message sent and one Consume per message received, per rank.
    let keys = all_keys(3);
    let m = run_matrix_obs(Preset::Tiny, &[], &keys, 4, ObsLevel::Trace);
    for (key, run) in m.runs() {
        let cobs = run.obs.as_ref().expect("traced run has recordings");
        let mut sends = vec![0u64; run.nprocs];
        let mut consumes = vec![0u64; run.nprocs];
        for ev in &cobs.central {
            match ev.kind {
                netws::cluster::obs::EventKind::Send { .. } => sends[ev.rank as usize] += 1,
                netws::cluster::obs::EventKind::Consume { .. } => consumes[ev.rank as usize] += 1,
                _ => {}
            }
        }
        for (rank, st) in run.proc_stats.iter().enumerate() {
            assert_eq!(
                sends[rank], st.messages_sent,
                "{key:?} rank {rank}: trace sends vs messages_sent"
            );
            assert_eq!(
                consumes[rank], st.messages_received,
                "{key:?} rank {rank}: trace consumes vs messages_received"
            );
        }
    }
}
