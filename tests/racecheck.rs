//! Integration tests of the happens-before race detector (docs/ANALYSIS.md):
//! a deliberately racy fixture must be flagged with the correct access
//! pairs, deterministically; the full application suite must be data-race
//! free under every protocol backend; and turning the detector on must
//! never perturb a simulated byte.

use bench::{
    render_race_reports, run_matrix_exec, run_parallel_on, run_record_json, Exec, Preset, RunKey,
    RunTuning,
};
use netws::apps::runner::System;
use netws::apps::Workload;
use netws::cluster::{AnalysisLevel, Cluster, ClusterConfig};
use netws::treadmarks::race::{self, AccessKind, RaceReport};
use netws::treadmarks::{ProtocolKind, Tmk};
use std::sync::Arc;

/// The racy micro-app: after a common barrier, rank 0 writes bytes `[0, 8)`
/// of a shared page while rank 1 — with no intervening synchronisation —
/// writes the overlapping `[4, 12)` and reads `[0, 4)`.  That is one
/// write/write conflict (overlap `[4, 8)`) and one write/read conflict
/// (overlap `[0, 4)`), neither ordered by happens-before.
fn racy_fixture(protocol: ProtocolKind) -> (usize, RaceReport) {
    let table = Arc::new(race::SyncClocks::new());
    let mut rep = Cluster::run(ClusterConfig::calibrated_fddi(2), {
        let table = Arc::clone(&table);
        move |p| {
            let tmk = Tmk::with_protocol(p, protocol);
            tmk.enable_racecheck(Arc::clone(&table));
            let page = tmk.malloc(4096);
            tmk.barrier(0);
            if tmk.id() == 0 {
                tmk.write_i64(page, 1);
            } else {
                tmk.write_i64(page + 4, 2);
                let _ = tmk.read_i32(page);
            }
            tmk.barrier(1);
            tmk.exit();
            (page, tmk.take_race_log())
        }
    });
    let page_addr = rep.results[0].0;
    let logs: Vec<race::RaceLog> = rep
        .results
        .iter_mut()
        .map(|(_, log)| log.take().expect("racecheck enabled on every rank"))
        .collect();
    (page_addr, race::analyze(2, logs))
}

#[test]
fn racy_fixture_is_flagged_with_the_correct_pairs_under_every_protocol() {
    for protocol in ProtocolKind::all() {
        let (page_addr, report) = racy_fixture(protocol);
        let page = (page_addr / 4096) as u32;
        let base = (page_addr % 4096) as u32;
        assert_eq!(
            report.races.len(),
            2,
            "{protocol}: expected exactly the write/write and write/read pairs, got\n{}",
            report.render()
        );
        let ww = report
            .races
            .iter()
            .find(|r| r.a.kind == AccessKind::Write && r.b.kind == AccessKind::Write)
            .unwrap_or_else(|| panic!("{protocol}: no write/write race\n{}", report.render()));
        assert_eq!(ww.page, page, "{protocol}");
        assert_eq!(
            (ww.overlap_start, ww.overlap_end),
            (base + 4, base + 8),
            "{protocol}: write/write overlap"
        );
        assert_eq!((ww.a.rank, ww.b.rank), (0, 1), "{protocol}");
        let wr = report
            .races
            .iter()
            .find(|r| r.a.kind == AccessKind::Write && r.b.kind == AccessKind::Read)
            .unwrap_or_else(|| panic!("{protocol}: no write/read race\n{}", report.render()));
        assert_eq!(wr.page, page, "{protocol}");
        assert_eq!(
            (wr.overlap_start, wr.overlap_end),
            (base, base + 4),
            "{protocol}: write/read overlap"
        );
        assert_eq!((wr.a.rank, wr.b.rank), (0, 1), "{protocol}");
    }
}

#[test]
fn racy_fixture_report_is_byte_identical_across_reruns() {
    for protocol in ProtocolKind::all() {
        let (_, first) = racy_fixture(protocol);
        let (_, second) = racy_fixture(protocol);
        assert_eq!(
            first.render(),
            second.render(),
            "{protocol}: rerun changed the report"
        );
    }
}

/// The matrix-level analogue of the CLI's `--jobs` guarantee: a
/// racecheck-on matrix rendered from a worker pool is byte-identical —
/// race reports and JSON records alike — to the same matrix computed
/// serially.
#[test]
fn racecheck_matrix_is_bit_identical_across_job_widths() {
    let keys: Vec<RunKey> = [Workload::Ep, Workload::Tsp, Workload::Qsort]
        .into_iter()
        .flat_map(|w| {
            ProtocolKind::all()
                .into_iter()
                .map(move |p| RunKey::fddi(w, System::TreadMarks(p), 2))
        })
        .collect();
    let checked = |jobs: usize| {
        let exec = Exec {
            analysis: AnalysisLevel::Race,
            ..Exec::with_jobs(jobs)
        };
        run_matrix_exec(Preset::Tiny, &[], &keys, &exec, &RunTuning::default())
    };
    let (serial, pooled) = (checked(1), checked(4));
    assert_eq!(render_race_reports(&serial), render_race_reports(&pooled));
    for key in &keys {
        assert_eq!(
            run_record_json(key, serial.run(key)),
            run_record_json(key, pooled.run(key)),
            "{key:?}: JSON record differs across job widths"
        );
    }
}

/// The DRF precondition of the whole study: every application is race-free
/// under every protocol backend.  (PVM runs are message-passing only and
/// carry no report.)
#[test]
fn every_app_is_race_free_under_every_protocol() {
    for w in Workload::all() {
        for protocol in ProtocolKind::all() {
            let mut cfg = ClusterConfig::calibrated_fddi(2);
            cfg.analysis = AnalysisLevel::Race;
            let run = run_parallel_on(w, System::TreadMarks(protocol), &cfg, Preset::Tiny);
            let report = run.race.expect("racecheck was requested");
            assert!(
                report.is_race_free(),
                "{} under {protocol} is not race-free:\n{}",
                w.name(),
                report.render()
            );
            assert!(report.accesses > 0, "{} recorded no accesses", w.name());
        }
    }
}

/// The detector lives outside the cost model: a racechecked run's simulated
/// output — every virtual time, checksum and counter on every process — is
/// bit-identical to the plain run's.
#[test]
fn racecheck_does_not_perturb_the_simulation() {
    for w in [Workload::Ep, Workload::Tsp] {
        for protocol in ProtocolKind::all() {
            let cfg = ClusterConfig::calibrated_fddi(2);
            let plain = run_parallel_on(w, System::TreadMarks(protocol), &cfg, Preset::Tiny);
            let mut cfg = ClusterConfig::calibrated_fddi(2);
            cfg.analysis = AnalysisLevel::Race;
            let checked = run_parallel_on(w, System::TreadMarks(protocol), &cfg, Preset::Tiny);
            assert_eq!(plain.time.to_bits(), checked.time.to_bits(), "{}", w.name());
            assert_eq!(
                plain.checksum.to_bits(),
                checked.checksum.to_bits(),
                "{}",
                w.name()
            );
            assert_eq!(plain.messages, checked.messages, "{}", w.name());
            assert_eq!(
                plain.kilobytes.to_bits(),
                checked.kilobytes.to_bits(),
                "{}",
                w.name()
            );
            assert_eq!(
                format!("{:?}", plain.proc_stats),
                format!("{:?}", checked.proc_stats),
                "{}",
                w.name()
            );
            assert_eq!(
                format!("{:?}", plain.tmk_stats),
                format!("{:?}", checked.tmk_stats),
                "{}",
                w.name()
            );
        }
    }
}
