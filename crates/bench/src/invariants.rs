//! Reusable run invariants: the checks every execution owes the user
//! regardless of schedule or fault plan, promoted out of the
//! protocol-conformance test battery so the fuzzing harness
//! ([`crate::fuzz`]) can apply them to every `(app, system, seed)` point it
//! explores.
//!
//! The invariants come in two layers:
//!
//! * **Run-level** — [`check_run`] / [`verdict`] classify a completed (or
//!   failed) application run: the checksum must agree with the sequential
//!   baseline, the race detector (when enabled) must be clean, and a
//!   structured [`RunFailure`] is wrapped as [`RunVerdict::Failed`] —
//!   deadlock verdicts carry the wait graph *and the fault context* (which
//!   peer crashed, which partition was active), so a hang caused by an
//!   injected fault names its cause.  [`cross_backend_equality`] adds the
//!   conformance suite's observational-equivalence check: every DSM backend
//!   must compute the bit-identical answer.
//!
//! * **Micro** — [`check_release_acquire`] and [`check_barrier_visibility`]
//!   run the conformance suite's visibility programs (lock-token passing,
//!   multi-writer barrier publication) under an *arbitrary*
//!   [`ClusterConfig`] — fault plan, schedule seed and all — and return a
//!   verdict instead of asserting, so a seeded schedule or a lossy link
//!   that breaks coherence is a reportable finding, not a harness panic.

use apps::runner::{AppRun, SeqRun, System};
use cluster::{Cluster, ClusterConfig, RunFailure};
use treadmarks::{ProtocolKind, Tmk};

/// The classification of one run under the invariant battery.
#[derive(Debug, Clone, PartialEq)]
pub enum RunVerdict {
    /// The run completed and every invariant held.
    Pass,
    /// The run did not complete: a deadlock or livelock (whose report
    /// carries the wait graph plus the fault context — crashed peers, active
    /// fault-plan partitions — so an injected fault that wedges the protocol
    /// is named as the cause), or fault-plan crashes whose survivors
    /// completed.
    Failed(RunFailure),
    /// The run completed but an invariant did not hold (wrong checksum,
    /// data race, cross-backend disagreement, missed visibility edge).
    Violation(String),
}

impl RunVerdict {
    /// Stable one-word classification used in fuzz reports.
    pub fn kind(&self) -> &'static str {
        match self {
            RunVerdict::Pass => "pass",
            RunVerdict::Failed(failure) => failure.kind(),
            RunVerdict::Violation(_) => "violation",
        }
    }

    /// True for anything other than [`RunVerdict::Pass`].
    pub fn is_failure(&self) -> bool {
        !matches!(self, RunVerdict::Pass)
    }

    /// One deterministic summary line: the kind plus the head of the
    /// report (for deadlock/livelock, the first line and any `fault
    /// context:` lines of the wait graph; crash and violation render in
    /// full).
    pub fn summary(&self) -> String {
        match self {
            RunVerdict::Pass => "pass".to_string(),
            RunVerdict::Failed(RunFailure::Deadlock(report) | RunFailure::Livelock(report)) => {
                let parts: Vec<&str> = report
                    .lines()
                    .take(1)
                    .chain(
                        report
                            .lines()
                            .map(str::trim_start)
                            .filter(|l| l.starts_with("fault context:")),
                    )
                    .map(|l| l.trim_end().trim_end_matches(';'))
                    .collect();
                parts.join("; ")
            }
            RunVerdict::Failed(RunFailure::Crashed(ranks)) => {
                let mut s = "crash:".to_string();
                for (rank, at) in ranks {
                    s.push_str(&format!(" rank {rank} at t={at:.6}"));
                }
                s
            }
            RunVerdict::Violation(msg) => format!("violation: {msg}"),
        }
    }
}

/// Check a completed run against the sequential baseline: checksum
/// agreement, plus racecheck cleanliness when the run carried a report.
pub fn check_run(run: &AppRun, seq: &SeqRun) -> RunVerdict {
    if !seq.agrees(run.checksum) {
        return RunVerdict::Violation(format!(
            "checksum {} disagrees with sequential {}",
            run.checksum, seq.checksum
        ));
    }
    if let Some(report) = &run.race {
        if !report.is_race_free() {
            return RunVerdict::Violation(format!(
                "racecheck found {} race(s)",
                report.races.len()
            ));
        }
    }
    RunVerdict::Pass
}

/// Classify a fallible run: structured failures map to their verdicts,
/// completed runs go through [`check_run`].
pub fn verdict(result: Result<AppRun, RunFailure>, seq: &SeqRun) -> RunVerdict {
    match result {
        Ok(run) => check_run(&run, seq),
        Err(failure) => RunVerdict::Failed(failure),
    }
}

/// The conformance suite's observational-equivalence invariant: every DSM
/// backend must compute the bit-identical application answer (PVM runs are
/// checked against the baseline by [`check_run`] and are ignored here —
/// message passing restructures the computation, so only tolerance-level
/// agreement is owed).
pub fn cross_backend_equality(runs: &[(System, f64)]) -> RunVerdict {
    let dsm: Vec<(ProtocolKind, f64)> = runs
        .iter()
        .filter_map(|&(sys, checksum)| match sys {
            System::TreadMarks(protocol) => Some((protocol, checksum)),
            System::Pvm => None,
        })
        .collect();
    for pair in dsm.windows(2) {
        if pair[0].1.to_bits() != pair[1].1.to_bits() {
            return RunVerdict::Violation(format!(
                "backends disagree: {} computed {} but {} computed {}",
                pair[0].0, pair[0].1, pair[1].0, pair[1].1
            ));
        }
    }
    RunVerdict::Pass
}

/// Run a DSM micro-program under `cfg` and classify the outcome: structured
/// failures become their verdicts, and `check` turns the per-process
/// results into `Ok(())` or a violation message.
fn micro<R, F, C>(cfg: &ClusterConfig, protocol: ProtocolKind, body: F, check: C) -> RunVerdict
where
    R: Send,
    F: Fn(&Tmk) -> R + Send + Sync,
    C: FnOnce(&[R]) -> Result<(), String>,
{
    match Cluster::try_run(cfg.clone(), move |p| {
        let tmk = Tmk::with_protocol(p, protocol);
        let r = body(&tmk);
        tmk.exit();
        r
    }) {
        Ok(rep) => match check(&rep.results) {
            Ok(()) => RunVerdict::Pass,
            Err(msg) => RunVerdict::Violation(format!("{protocol}: {msg}")),
        },
        Err(failure) => RunVerdict::Failed(failure),
    }
}

/// Release/acquire visibility under an arbitrary configuration: a token
/// value travels through a lock, each process in rank order incrementing it
/// under the lock (spinning on barriers in between so the order is
/// deterministic).  Every process must observe its predecessor's write when
/// it acquires — under any schedule seed and any lossy fault plan.
pub fn check_release_acquire(cfg: &ClusterConfig, protocol: ProtocolKind) -> RunVerdict {
    let n = cfg.nprocs;
    micro(
        cfg,
        protocol,
        move |tmk| {
            let slot = tmk.malloc(8);
            tmk.barrier(0);
            let mut seen = -1i64;
            for round in 0..n {
                if tmk.id() == round {
                    tmk.lock_acquire(0);
                    seen = tmk.read::<i64>(slot);
                    tmk.write::<i64>(slot, seen + 1);
                    tmk.lock_release(0);
                }
                tmk.barrier(1 + round as u32);
            }
            (seen, tmk.read::<i64>(slot))
        },
        move |results| {
            for (rank, &(seen, final_v)) in results.iter().enumerate() {
                if seen != rank as i64 {
                    return Err(format!(
                        "process {rank} acquired the lock and read {seen}, expected {rank}: \
                         its predecessor's release was not visible"
                    ));
                }
                if final_v != n as i64 {
                    return Err(format!(
                        "process {rank} read {final_v} after the last release, expected {n}"
                    ));
                }
            }
            Ok(())
        },
    )
}

/// Barrier visibility under an arbitrary configuration: every process
/// writes its own quarter of one page (multi-writer false sharing), and
/// after the barrier every process must read every other's writes.
pub fn check_barrier_visibility(cfg: &ClusterConfig, protocol: ProtocolKind) -> RunVerdict {
    let n = cfg.nprocs;
    micro(
        cfg,
        protocol,
        move |tmk| {
            let region = tmk.malloc_aligned(4096, 4096);
            tmk.barrier(0);
            let me = tmk.id();
            let stride = 4096 / n.max(1);
            for i in 0..8 {
                tmk.write::<i64>(region + me * stride + i * 8, (me * 1000 + i) as i64);
            }
            tmk.barrier(1);
            let mut missed = Vec::new();
            for w in 0..n {
                for i in 0..8 {
                    let got = tmk.read::<i64>(region + w * stride + i * 8);
                    if got != (w * 1000 + i) as i64 {
                        missed.push((w, i, got));
                    }
                }
            }
            missed
        },
        |results| {
            for (rank, missed) in results.iter().enumerate() {
                if let Some(&(w, i, got)) = missed.first() {
                    return Err(format!(
                        "process {rank} read {got} at writer {w} slot {i} after the barrier \
                         ({} slot(s) wrong)",
                        missed.len()
                    ));
                }
            }
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preset;
    use apps::Workload;
    use cluster::FaultPlan;

    #[test]
    fn micro_invariants_pass_on_the_clean_testbed() {
        let cfg = ClusterConfig::calibrated_fddi(3);
        for protocol in ProtocolKind::all() {
            assert_eq!(
                check_release_acquire(&cfg, protocol),
                RunVerdict::Pass,
                "{protocol}"
            );
            assert_eq!(
                check_barrier_visibility(&cfg, protocol),
                RunVerdict::Pass,
                "{protocol}"
            );
        }
    }

    #[test]
    fn micro_invariants_survive_a_lossy_plan_and_a_seeded_schedule() {
        let mut cfg = ClusterConfig::calibrated_fddi(3);
        cfg.fault = FaultPlan::lossy(7);
        cfg.sched_seed = 7;
        for protocol in ProtocolKind::all() {
            let v = check_release_acquire(&cfg, protocol);
            assert_eq!(v, RunVerdict::Pass, "{protocol}: {}", v.summary());
            let v = check_barrier_visibility(&cfg, protocol);
            assert_eq!(v, RunVerdict::Pass, "{protocol}: {}", v.summary());
        }
    }

    #[test]
    fn a_crash_plan_surfaces_as_a_structured_verdict_with_fault_context() {
        let mut cfg = ClusterConfig::calibrated_fddi(3);
        cfg.fault.crashes = vec!["1@0.0001".parse().unwrap()];
        let v = check_release_acquire(&cfg, ProtocolKind::Lrc);
        // The crashed rank leaves its peers waiting at a barrier: the
        // deadlock detector names the crash in the fault context.
        match &v {
            RunVerdict::Failed(RunFailure::Deadlock(report)) => assert!(
                report.contains("fault context: process 1 crashed"),
                "deadlock report does not name the crashed peer:\n{report}"
            ),
            other => panic!("expected the deadlock verdict, got {other:?}"),
        }
        assert!(v.summary().contains("fault context"), "{}", v.summary());
        assert_eq!(v.kind(), "deadlock");
        assert!(v.is_failure());
        // Under PVM, EP's survivors finish without a rank that dies at its
        // second interaction: no result set, but no deadlock either.
        let mut cfg = ClusterConfig::calibrated_fddi(4);
        cfg.fault.crashes = vec!["3#2".parse().unwrap()];
        let seq = Workload::Ep.sequential(Preset::Tiny);
        let v = verdict(Workload::Ep.run(Preset::Tiny, System::Pvm, &cfg), &seq);
        match &v {
            RunVerdict::Failed(RunFailure::Crashed(ranks)) => assert_eq!(ranks.len(), 1),
            other => panic!("expected the crash verdict, got {other:?}"),
        }
        assert_eq!(v.summary(), "crash: rank 3 at t=0.000563");
    }

    #[test]
    fn verdict_kinds_are_stable_words() {
        let failed = |f| RunVerdict::Failed(f).kind();
        assert_eq!(RunVerdict::Pass.kind(), "pass");
        assert_eq!(failed(RunFailure::Deadlock(String::new())), "deadlock");
        assert_eq!(failed(RunFailure::Livelock(String::new())), "livelock");
        assert_eq!(failed(RunFailure::Crashed(vec![])), "crash");
        assert_eq!(RunVerdict::Violation(String::new()).kind(), "violation");
    }

    #[test]
    fn cross_backend_equality_flags_a_bit_flip() {
        let runs = [
            (System::TreadMarks(ProtocolKind::Lrc), 1.5),
            (System::TreadMarks(ProtocolKind::Hlrc), 1.5),
            (System::Pvm, 1.5000001), // PVM is exempt from bitwise equality
        ];
        assert_eq!(cross_backend_equality(&runs), RunVerdict::Pass);
        let bad = [
            (System::TreadMarks(ProtocolKind::Lrc), 1.5),
            (System::TreadMarks(ProtocolKind::Sc), 1.5 + 1e-12),
        ];
        assert!(cross_backend_equality(&bad).is_failure());
    }
}
