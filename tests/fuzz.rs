//! The fault-injection battery: the fuzzing harness (`reproduce fuzz`,
//! [`bench::fuzz`]) run as a test suite.
//!
//! Four properties are pinned here:
//!
//! * **campaign determinism** — the same `(spec, seeds)` campaign produces a
//!   bit-identical report every time it runs;
//! * **fault tolerance of every system** — a lossy fault plan (drops,
//!   duplicates, reorders, delays) and a timed-partition plan over *every*
//!   workload × *every* system (LRC, HLRC, SC, PVM) leave all invariants
//!   intact: the retransmit machinery absorbs the faults and the answers
//!   still match the sequential reference bit for bit;
//! * **shrinker soundness** — shrinking a found failure against the real
//!   cluster oracle is a fixpoint (shrinking the shrunk tuning changes
//!   nothing);
//! * **seed-zero parity** — the default [`RunTuning`] (seed 0, no cap, empty
//!   plan) is byte-for-byte the pristine engine: stamping it onto a config
//!   changes no bit of any run.

use apps::runner::System;
use apps::Workload;
use bench::fuzz::{run_fuzz, verdicts, FuzzSpec};
use bench::invariants::{self, RunVerdict};
use bench::scenario::Request;
use bench::shrink::shrink;
use bench::{run_config, run_parallel_on, run_sequential, Exec, Preset, RunTuning};
use cluster::{AnalysisLevel, FaultPlan, NetModel, NetPreset};
use treadmarks::ProtocolKind;

fn spec(systems: Vec<System>, seeds: u64, plan: FaultPlan) -> FuzzSpec {
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

/// [`spec`] over every workload and every system, for one seed.
fn every_point(plan: FaultPlan) -> FuzzSpec {
    let mut s = spec(System::all().to_vec(), 1, plan);
    s.request.workloads = Workload::all().to_vec();
    s
}

#[test]
fn a_known_seed_campaign_is_bit_identical_across_reruns() {
    let s = spec(
        vec![System::TreadMarks(ProtocolKind::Lrc), System::Pvm],
        2,
        FaultPlan::lossy(9),
    );
    let first = run_fuzz(&s);
    let second = run_fuzz(&s);
    assert_eq!(first.report, second.report);
    assert_eq!(first.findings.len(), second.findings.len());
}

#[test]
fn every_workload_and_system_survives_a_lossy_network() {
    // Seed 0 applies the plan exactly as given; one seed over the full
    // (workload × system) grid.  The retransmit machinery must absorb the
    // faults on every one of the 48 points.
    let out = run_fuzz(&every_point(FaultPlan::lossy(1)));
    assert!(out.findings.is_empty(), "{}", out.report);
}

#[test]
fn every_workload_and_system_survives_a_timed_partition() {
    let out = run_fuzz(&every_point(FaultPlan::partitioned(1, 2)));
    assert!(out.findings.is_empty(), "{}", out.report);
}

#[test]
fn shrinking_is_a_fixpoint_against_the_real_cluster_oracle() {
    // Provoke a genuine failure (rank 1 crashes almost immediately), let
    // the campaign shrink it, then shrink the shrunk tuning again with the
    // same live oracle the harness used: nothing may change.
    let plan = FaultPlan {
        crashes: vec!["1@0.00001".parse().unwrap()],
        ..FaultPlan::default()
    };
    let s = spec(vec![System::TreadMarks(ProtocolKind::Lrc)], 1, plan);
    let out = run_fuzz(&s);
    assert_eq!(out.findings.len(), 1, "{}", out.report);
    let found = &out.findings[0];
    let want = found.verdict.kind();

    let req = &s.request;
    let race = Exec {
        analysis: AnalysisLevel::Race,
        ..Exec::with_jobs(1)
    };
    let seqs = req.baselines();
    let mut oracle =
        |t: &RunTuning| verdicts(req, &race, &req.points(), &seqs, t)[0].0.kind() == want;
    assert!(oracle(&found.shrunk), "the shrunk tuning must reproduce");
    let again = shrink(&found.shrunk, &mut oracle);
    assert_eq!(again, found.shrunk, "shrinking the shrunk tuning moved it");
}

#[test]
fn the_default_tuning_is_byte_identical_to_the_pristine_engine() {
    // Configuring a run with RunTuning::default() must be a no-op: same
    // checksum bits, same stats, same everything, for DSM and PVM alike.
    for sys in [System::TreadMarks(ProtocolKind::Lrc), System::Pvm] {
        let pristine = run_parallel_on(
            Workload::Ep,
            sys,
            &NetModel::preset(NetPreset::Fddi).config(2),
            Preset::Tiny,
        );
        let net = NetModel::preset(NetPreset::Fddi);
        let cfg = run_config(net, 2, &Exec::with_jobs(1), &RunTuning::default());
        let tuned = run_parallel_on(Workload::Ep, sys, &cfg, Preset::Tiny);
        assert_eq!(pristine.checksum.to_bits(), tuned.checksum.to_bits());
        assert_eq!(format!("{pristine:?}"), format!("{tuned:?}"));
        let v = invariants::check_run(&tuned, &run_sequential(Workload::Ep, Preset::Tiny));
        assert_eq!(v, RunVerdict::Pass, "{}", v.summary());
    }
}
