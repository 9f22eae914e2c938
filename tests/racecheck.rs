//! Integration tests of the happens-before race detector (docs/ANALYSIS.md):
//! two deliberately racy fixtures, one across a barrier and one across a
//! lock, must be flagged with the correct access pairs and pinned report
//! text, deterministically; the full application suite must be data-race
//! free under every protocol backend; and turning the detector on must
//! never perturb a simulated byte.

use bench::{
    render_race_reports, run_matrix_exec, run_parallel_on, run_record_json, Exec, Preset, RunKey,
    RunTuning,
};
use netws::apps::runner::System;
use netws::apps::Workload;
use netws::cluster::{AnalysisLevel, Cluster, ClusterConfig};
use netws::treadmarks::race::{self, AccessKind, RaceReport, SyncCtx};
use netws::treadmarks::{ProtocolKind, Tmk};
use std::sync::Arc;

/// Run `body` on two racechecked ranks between two barriers, over one
/// freshly allocated shared page, and return the page's address next to the
/// race report.
fn two_rank_report(protocol: ProtocolKind, body: fn(&Tmk, usize)) -> (usize, RaceReport) {
    let table = Arc::new(race::SyncClocks::new());
    let mut rep = Cluster::run(ClusterConfig::calibrated_fddi(2), {
        let table = Arc::clone(&table);
        move |p| {
            let tmk = Tmk::with_protocol(p, protocol);
            tmk.enable_racecheck(Arc::clone(&table));
            let page = tmk.malloc(4096);
            tmk.barrier(0);
            body(&tmk, page);
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

/// The racy micro-app: after a common barrier, rank 0 writes bytes `[0, 8)`
/// of a shared page while rank 1 — with no intervening synchronisation —
/// writes the overlapping `[4, 12)` and reads `[0, 4)`.  That is one
/// write/write conflict (overlap `[4, 8)`) and one write/read conflict
/// (overlap `[0, 4)`), neither ordered by happens-before.
fn racy_fixture(protocol: ProtocolKind) -> (usize, RaceReport) {
    two_rank_report(protocol, |tmk, page| {
        if tmk.id() == 0 {
            tmk.write::<i64>(page, 1);
        } else {
            tmk.write::<i64>(page + 4, 2);
            let _ = tmk.read::<i32>(page);
        }
    })
}

/// The lock-edge input: after the barrier, rank 0 writes `[0, 8)` holding
/// lock 0 and `[8, 16)` after releasing it; rank 1 computes long enough to
/// acquire lock 0 second, then reads `[0, 8)` and writes `[8, 16)` holding
/// it.  The lock orders the `[0, 8)` pair; rank 0's write after its release
/// is concurrent with rank 1's critical section — exactly one race.
fn lock_fixture(protocol: ProtocolKind) -> (usize, RaceReport) {
    two_rank_report(protocol, |tmk, page| {
        if tmk.id() == 0 {
            tmk.lock_acquire(0);
            tmk.write::<i64>(page, 1);
            tmk.lock_release(0);
            tmk.write::<i64>(page + 8, 2);
        } else {
            tmk.proc().compute(0.01);
            tmk.lock_acquire(0);
            let _ = tmk.read::<i64>(page);
            tmk.write::<i64>(page + 8, 3);
            tmk.lock_release(0);
        }
    })
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
        assert_eq!(report.render(), racy_render(protocol), "{protocol}");

        let (_, report) = lock_fixture(protocol);
        assert_eq!(
            report.races.len(),
            1,
            "{protocol}: expected only the write after the release, got\n{}",
            report.render()
        );
        let race = &report.races[0];
        assert_eq!((race.a.rank, race.b.rank), (0, 1), "{protocol}");
        assert_eq!(race.a.ctx, SyncCtx::AfterRelease(0), "{protocol}");
        assert_eq!(race.b.ctx, SyncCtx::AfterAcquire(0), "{protocol}");
        assert_eq!(report.render(), lock_render(protocol), "{protocol}");
    }
}

/// `racy_fixture`'s report, byte for byte.
fn racy_render(protocol: ProtocolKind) -> &'static str {
    match protocol {
        ProtocolKind::Lrc | ProtocolKind::Hlrc => "\
racecheck: 2 race(s) (3 accesses, 2 procs)
  race: page 0 bytes [4, 8): rank 0 write [0, 8) @ 963924 ns (after barrier 0) || rank 1 write [4, 12) @ 1595448 ns (after barrier 0)
  race: page 0 bytes [0, 4): rank 0 write [0, 8) @ 963924 ns (after barrier 0) || rank 1 read [0, 4) @ 1595448 ns (after barrier 0)
",
        ProtocolKind::Sc => "\
racecheck: 2 race(s) (3 accesses, 2 procs)
  race: page 0 bytes [4, 8): rank 0 write [0, 8) @ 2636590 ns (after barrier 0) || rank 1 write [4, 12) @ 3759848 ns (after barrier 0)
  race: page 0 bytes [0, 4): rank 0 write [0, 8) @ 2636590 ns (after barrier 0) || rank 1 read [0, 4) @ 3759848 ns (after barrier 0)
",
    }
}

/// `lock_fixture`'s report, byte for byte.
fn lock_render(protocol: ProtocolKind) -> &'static str {
    match protocol {
        ProtocolKind::Lrc => "\
racecheck: 1 race(s) (4 accesses, 2 procs)
  race: page 0 bytes [8, 16): rank 0 write [8, 16) @ 1086324 ns (after releasing lock 0) || rank 1 write [8, 16) @ 14341526 ns (holding lock 0)
",
        ProtocolKind::Hlrc => "\
racecheck: 1 race(s) (4 accesses, 2 procs)
  race: page 0 bytes [8, 16): rank 0 write [8, 16) @ 1086324 ns (after releasing lock 0) || rank 1 write [8, 16) @ 14827848 ns (holding lock 0)
",
        ProtocolKind::Sc => "\
racecheck: 1 race(s) (4 accesses, 2 procs)
  race: page 0 bytes [8, 16): rank 0 write [8, 16) @ 12454952 ns (after releasing lock 0) || rank 1 write [8, 16) @ 16814133 ns (holding lock 0)
",
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
