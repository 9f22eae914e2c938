//! Seeded schedule-exploration and fault-injection fuzzing.
//!
//! `reproduce fuzz` fans every `(workload, system)` point of a spec across
//! `--seeds N` fuzz seeds.  Seed 0 is the pristine run — schedule seed 0
//! (rank order) and the plan exactly as given — so one point of every
//! campaign is the engine's historical behaviour; seed `s > 0` explores a
//! perturbed world: the arbiter breaks virtual-time ties with schedule
//! seed `s` and the fault plan's per-link streams re-key through
//! [`FaultPlan::for_seed`].  Every run is classified by the invariant
//! battery ([`crate::invariants`]); anything that is not a clean pass —
//! wrong checksum, data race, cross-backend disagreement, deadlock,
//! livelock, fault-plan crash — becomes a [`Finding`], is greedily shrunk
//! to a minimal tuning ([`crate::shrink`]), and is rendered as a scenario
//! file ([`cluster::Scenario`] TOML) that `reproduce --scenario` replays
//! exactly.
//!
//! Everything here is deterministic: the fan runs on the ordered executor
//! ([`crate::exec`]), the report is assembled in request order, and each
//! simulated run is a pure function of its configuration — so the whole
//! report is byte-identical across reruns and `--jobs` widths, which CI
//! asserts.

use crate::invariants::{self, RunVerdict};
use crate::scenario::Request;
use crate::{exec, run_config, shrink, Exec, RunTuning};
use apps::{SeqRun, System, Workload};
use cluster::{AnalysisLevel, FaultPlan, Scenario};

/// What to fuzz: the request's cross product of workloads and systems at
/// its preset, network and process count, explored over `seeds` fuzz seeds.
#[derive(Debug, Clone)]
pub struct FuzzSpec {
    /// The points ([`Request::points`]), their baselines
    /// ([`Request::baselines`]) and their testbed.  Its tuning's fault plan
    /// is the base plan, which seed `s > 0` runs re-keyed via
    /// [`FaultPlan::for_seed`].  Of its execution settings only the worker
    /// count is read (the report is identical for every value): every run
    /// [`verdicts`] makes for the campaign is race-checked and none records.
    pub request: Request,
    /// Number of fuzz seeds; seed 0 is always the pristine run.
    pub seeds: u64,
    /// Stop after the first seed whose batch produced a finding.
    pub until_failure: bool,
}

/// One invariant failure the fuzzer found, shrunk and ready to replay.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The workload that failed.
    pub workload: Workload,
    /// The system it failed under.
    pub system: System,
    /// The fuzz seed of the failing run.
    pub seed: u64,
    /// How it failed.
    pub verdict: RunVerdict,
    /// The minimal tuning that still reproduces the verdict kind.
    pub shrunk: RunTuning,
    /// A scenario file (TOML) replaying the shrunk failure via
    /// `reproduce --scenario`.
    pub reproducer: String,
}

/// The outcome of a campaign: the findings plus the deterministic textual
/// report (one line per seed, each finding's summary and reproducer, and a
/// final `findings: N` line).
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Every finding, in (seed, workload, system) order.
    pub findings: Vec<Finding>,
    /// The rendered report; byte-identical across reruns and jobs widths.
    pub report: String,
}

/// The tuning fuzz seed `seed` explores under base plan `plan`: seed 0 is
/// pristine (schedule seed 0, the plan as given — the empty plan stays
/// bit-identical to the un-fuzzed harness), seed `s > 0` breaks ties with
/// schedule seed `s` and re-keys the plan's fault streams per seed.
pub fn tuning_for(plan: &FaultPlan, seed: u64) -> RunTuning {
    let fault = if seed == 0 || plan.is_empty() {
        plan.clone()
    } else {
        plan.for_seed(seed)
    };
    RunTuning {
        sched_seed: seed,
        tie_limit: None,
        fault,
    }
}

/// Run every `(workload, system)` point at the request's preset, network
/// and process count, configured by [`run_config`] with `exec` and `tuning`,
/// on the ordered executor over `exec.jobs` workers, and classify each
/// through the invariant battery: one verdict per point, in point order,
/// with the checksum of each run that completed.  `seqs` holds the
/// sequential baseline of every workload named.  A fuzz seed's batch, both
/// shrink predicates and the crash-plan replay of `reproduce --scenario`
/// all run their points here.
pub fn verdicts(
    req: &Request,
    exec: &Exec,
    points: &[(Workload, System)],
    seqs: &[(Workload, SeqRun)],
    tuning: &RunTuning,
) -> Vec<(RunVerdict, Option<f64>)> {
    let cfg = &run_config(req.net, req.procs, exec, tuning);
    let tasks: Vec<_> = points
        .iter()
        .map(|&(w, sys)| {
            let seq = &seqs.iter().find(|(k, _)| *k == w).expect("a baseline").1;
            move || {
                let result = w.run(req.preset, sys, cfg);
                let checksum = result.as_ref().ok().map(|r| r.checksum);
                (invariants::verdict(result, seq), checksum)
            }
        })
        .collect();
    exec::run_ordered(exec.jobs, tasks)
}

/// The checksum of every completed run of `w` among `points` (whose
/// outcomes [`verdicts`] returned), with its system, in point order.
fn completed(
    w: Workload,
    points: &[(Workload, System)],
    outcomes: &[(RunVerdict, Option<f64>)],
) -> Vec<(System, f64)> {
    points
        .iter()
        .zip(outcomes)
        .filter(|((pw, _), _)| *pw == w)
        .filter_map(|(&(_, sys), (_, checksum))| checksum.map(|c| (sys, c)))
        .collect()
}

/// Render the shrunk failure as a scenario file that `reproduce --scenario`
/// replays: one workload, the named systems, the spec's testbed, and the
/// shrunk schedule seed / tie cap / fault plan.
fn reproducer(req: &Request, w: Workload, systems: &[System], tuning: &RunTuning) -> String {
    let names: Vec<&str> = systems.iter().map(|s| s.name()).collect();
    Scenario {
        name: format!("fuzz-{}-{}", w.name().to_ascii_lowercase(), names.join("-")),
        net: req.net.preset,
        procs: Some(req.procs),
        preset: Some(req.preset.name().to_string()),
        workloads: vec![w.name().to_string()],
        systems: names.iter().map(|s| s.to_string()).collect(),
        overrides: req.net.overrides,
        sched_seed: (tuning.sched_seed != 0).then_some(tuning.sched_seed),
        tie_limit: tuning.tie_limit,
        fault: (tuning.fault.hash() != 0).then(|| tuning.fault.clone()),
    }
    .to_toml()
}

/// Run a fuzz campaign.
///
/// Per seed, the `(workload, system)` cross product fans across the
/// ordered executor; each run's verdict comes from the invariant battery,
/// and per workload the completed DSM backends are additionally checked
/// for bitwise cross-backend agreement.  Failures are shrunk (re-running
/// the failing point under candidate tunings until the verdict kind stops
/// reproducing under anything smaller) and rendered as reproducer
/// scenarios.  With `until_failure`, later seeds are skipped once a seed
/// batch has produced a finding.
pub fn run_fuzz(spec: &FuzzSpec) -> FuzzReport {
    use std::fmt::Write as _;
    let req = &spec.request;
    let plan = &req.tuning.fault;
    // The race detector is one of the invariants and never perturbs
    // simulated output, so every campaign run carries it.
    let exec = Exec {
        analysis: AnalysisLevel::Race,
        ..Exec::with_jobs(req.exec.jobs)
    };
    let seqs = req.baselines();
    let points = req.points();

    let mut report = String::new();
    writeln!(
        report,
        "fuzz: {} seed(s) x {} point(s) ({} workload(s) x {} system(s)), preset {}, \
         net {}, {} procs, plan {}",
        spec.seeds,
        points.len(),
        req.workloads.len(),
        req.systems.len(),
        req.preset.name(),
        req.net.label(),
        req.procs,
        if plan.hash() == 0 {
            "empty".to_string()
        } else {
            format!("{:016x}", plan.hash())
        },
    )
    .unwrap();

    let mut findings: Vec<Finding> = Vec::new();
    for seed in 0..spec.seeds {
        let tuning = tuning_for(plan, seed);
        let outcomes = verdicts(req, &exec, &points, &seqs, &tuning);

        // Per-point verdicts, then the per-workload cross-backend check
        // over whichever DSM backends completed this seed.
        let mut seed_failures: Vec<(Workload, System, RunVerdict)> = Vec::new();
        for (&(w, sys), (v, _)) in points.iter().zip(&outcomes) {
            if v.is_failure() {
                seed_failures.push((w, sys, v.clone()));
            }
        }
        for &w in &req.workloads {
            let completed = completed(w, &points, &outcomes);
            let v = invariants::cross_backend_equality(&completed);
            if v.is_failure() {
                let offender = completed.first().map(|&(s, _)| s).unwrap_or(System::Pvm);
                seed_failures.push((w, offender, v));
            }
        }

        if seed_failures.is_empty() {
            writeln!(report, "seed {seed}: {} run(s), all pass", points.len()).unwrap();
        } else {
            for (w, sys, v) in &seed_failures {
                writeln!(
                    report,
                    "seed {seed}: FAIL {}/{}: {}",
                    w.name(),
                    sys.name(),
                    v.summary()
                )
                .unwrap();
            }
            for (w, sys, v) in seed_failures {
                let finding = shrink_finding(req, &exec, &seqs, (w, sys), seed, v, &tuning);
                writeln!(
                    report,
                    "  shrunk reproducer for {}/{}:",
                    w.name(),
                    sys.name()
                )
                .unwrap();
                for line in finding.reproducer.lines() {
                    if line.is_empty() {
                        writeln!(report).unwrap();
                    } else {
                        writeln!(report, "    {line}").unwrap();
                    }
                }
                findings.push(finding);
            }
            if spec.until_failure {
                writeln!(report, "stopping at seed {seed} (--until-failure)").unwrap();
                break;
            }
        }
    }
    writeln!(report, "findings: {}", findings.len()).unwrap();
    FuzzReport { findings, report }
}

/// Shrink one failure: re-run the failing point through [`verdicts`] under
/// candidate tunings, keeping a candidate only while the verdict kind still
/// reproduces, then render the reproducer scenario.  Cross-backend
/// violations re-run the workload's DSM systems (the only ones the check
/// compares) and reproduce while any pair of them still disagrees bitwise.
fn shrink_finding(
    req: &Request,
    exec: &Exec,
    seqs: &[(Workload, SeqRun)],
    (w, sys): (Workload, System),
    seed: u64,
    verdict: RunVerdict,
    tuning: &RunTuning,
) -> Finding {
    let kind = verdict.kind();
    let cross_backend =
        matches!(&verdict, RunVerdict::Violation(msg) if msg.contains("backends disagree"));
    let shrunk = if cross_backend {
        let dsm: Vec<(Workload, System)> = req
            .systems
            .iter()
            .filter(|s| matches!(s, System::TreadMarks(_)))
            .map(|&s| (w, s))
            .collect();
        shrink::shrink(tuning, |t| {
            let outcomes = verdicts(req, exec, &dsm, seqs, t);
            invariants::cross_backend_equality(&completed(w, &dsm, &outcomes)).is_failure()
        })
    } else {
        shrink::shrink(tuning, |t| {
            verdicts(req, exec, &[(w, sys)], seqs, t)[0].0.kind() == kind
        })
    };
    let systems: Vec<System> = if cross_backend {
        req.systems.clone()
    } else {
        vec![sys]
    };
    let reproducer = reproducer(req, w, &systems, &shrunk);
    Finding {
        workload: w,
        system: sys,
        seed,
        verdict,
        shrunk,
        reproducer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preset;
    use cluster::{NetModel, NetPreset};
    use treadmarks::ProtocolKind;

    fn tiny_spec(systems: Vec<System>, seeds: u64, plan: FaultPlan) -> FuzzSpec {
        FuzzSpec {
            request: Request {
                preset: Preset::Tiny,
                net: NetModel::preset(NetPreset::Fddi),
                procs: 2,
                workloads: vec![Workload::Ep],
                systems,
                exec: Exec::with_jobs(2),
                tuning: RunTuning {
                    fault: plan,
                    ..RunTuning::default()
                },
            },
            seeds,
            until_failure: false,
        }
    }

    #[test]
    fn seed_zero_is_the_pristine_tuning() {
        assert!(tuning_for(&FaultPlan::default(), 0).is_default());
        // And with a plan, seed 0 runs the plan exactly as given.
        let plan = FaultPlan::lossy(7);
        let t = tuning_for(&plan, 0);
        assert_eq!(t.sched_seed, 0);
        assert_eq!(t.fault, plan);
        // Seed s > 0 re-keys the streams and seeds the arbiter.
        let t = tuning_for(&plan, 3);
        assert_eq!(t.sched_seed, 3);
        assert_ne!(t.fault.seed, plan.seed);
        assert_eq!(t.fault.drop, plan.drop);
    }

    #[test]
    fn a_clean_campaign_reports_zero_findings() {
        let spec = tiny_spec(
            vec![System::TreadMarks(ProtocolKind::Lrc), System::Pvm],
            2,
            FaultPlan::default(),
        );
        let out = run_fuzz(&spec);
        assert!(out.findings.is_empty(), "{}", out.report);
        assert!(
            out.report.trim_end().ends_with("findings: 0"),
            "{}",
            out.report
        );
        assert!(out.report.contains("seed 0: 2 run(s), all pass"));
    }

    #[test]
    fn the_report_is_bit_identical_across_jobs_widths() {
        let mut narrow = tiny_spec(
            vec![System::TreadMarks(ProtocolKind::Lrc), System::Pvm],
            3,
            FaultPlan::lossy(5),
        );
        let mut wide = narrow.clone();
        narrow.request.exec.jobs = 1;
        wide.request.exec.jobs = 4;
        assert_eq!(run_fuzz(&narrow).report, run_fuzz(&wide).report);
    }

    #[test]
    fn a_crash_plan_yields_a_shrunk_replayable_reproducer() {
        let plan = FaultPlan {
            crashes: vec!["1@0.00001".parse().unwrap()],
            ..FaultPlan::default()
        };
        let spec = tiny_spec(vec![System::TreadMarks(ProtocolKind::Lrc)], 1, plan);
        let out = run_fuzz(&spec);
        assert_eq!(out.findings.len(), 1, "{}", out.report);
        let f = &out.findings[0];
        // The survivor waits for the crashed rank: the deadlock names it.
        assert_eq!(f.verdict.kind(), "deadlock", "{}", f.verdict.summary());
        assert!(
            f.verdict
                .summary()
                .contains("fault context: process 1 crashed by fault plan at t=0.000010"),
            "{}",
            f.verdict.summary()
        );
        // The reproducer is a valid scenario that carries the crash.
        let s = Scenario::parse_toml(&f.reproducer).unwrap();
        assert_eq!(s.procs, Some(2));
        assert_eq!(s.workloads, vec!["EP".to_string()]);
        assert_eq!(s.systems, vec!["lrc".to_string()]);
        assert_eq!(s.fault.as_ref().unwrap().crashes.len(), 1);
        // And shrinking was a fixpoint: the shrunk tuning still has the
        // crash and nothing else.
        assert!(f.shrunk.fault.partitions.is_empty());
        assert_eq!(f.shrunk.sched_seed, 0);
    }
}
