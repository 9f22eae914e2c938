//! The scenario subsystem end to end: every interconnect preset is exactly
//! as deterministic as the paper's FDDI testbed, scenario files round-trip
//! through parse → run → re-serialise, and nothing in the stack silently
//! assumes the paper's 8 ranks.

use bench::cli;
use bench::scenario::Request;
use bench::{run_matrix, run_parallel_on, run_sequential, Preset, RunKey};
use netws::apps::runner::{AppRun, System};
use netws::apps::Workload;
use netws::cluster::{NetModel, NetPreset, Scenario};
use std::path::Path;
use treadmarks::ProtocolKind;

fn run_once(w: Workload, sys: System, net: NetModel, nprocs: usize) -> AppRun {
    run_parallel_on(w, sys, &net.config(nprocs), Preset::Tiny)
}

/// `reproduce --scenario` of an already parsed scenario file.
fn resolve(file: &Scenario) -> Result<Request, String> {
    Request::resolve_with(&cli::parse(&[]).unwrap(), file)
}

/// Every *new* net preset (Ethernet, ATM, ideal — FDDI is covered by
/// `determinism.rs`), every Tiny app, every system, run twice: the full
/// report — virtual times, counters, per-process stats — must be
/// bit-identical.  `AppRun`'s Debug output prints floats in
/// shortest-round-trip form, so Debug equality is bit-identity.
#[test]
fn every_new_net_preset_is_bit_deterministic() {
    let presets = [NetPreset::Ethernet, NetPreset::Atm, NetPreset::Ideal];
    for preset in presets {
        let net = NetModel::preset(preset);
        for w in Workload::all() {
            // System::all(): a future backend is covered automatically.
            for sys in System::all() {
                let first = run_once(w, sys, net, 4);
                let second = run_once(w, sys, net, 4);
                assert_eq!(
                    format!("{first:?}"),
                    format!("{second:?}"),
                    "{} under {sys} on {} is not bit-deterministic",
                    w.name(),
                    net.label()
                );
            }
        }
    }
}

/// The interconnect changes the clock, never the answer: on every preset,
/// every Tiny app reproduces its sequential checksum.
#[test]
fn every_net_preset_preserves_application_answers() {
    for preset in NetPreset::all() {
        let net = NetModel::preset(preset);
        for w in Workload::all() {
            let seq = run_sequential(w, Preset::Tiny);
            let run = run_once(w, System::TreadMarks(ProtocolKind::Lrc), net, 4);
            assert!(
                seq.agrees(run.checksum),
                "{} on {}: checksum {} vs sequential {}",
                w.name(),
                net.label(),
                run.checksum,
                seq.checksum
            );
        }
    }
}

/// Parse → run → re-serialise: the canonical serialisation of a parsed
/// scenario file reparses to the identical scenario, and a matrix computed
/// from the reparsed scenario is bit-identical to one computed from the
/// original.
#[test]
fn scenario_files_round_trip_through_parse_run_reserialize() {
    let path = Path::new("examples/scenarios/ethernet_tiny_ci.toml");
    let original = Scenario::from_path(path).expect("checked-in scenario must parse");
    let reparsed = Scenario::parse_toml(&original.to_toml()).expect("canonical form must parse");
    assert_eq!(reparsed, original, "to_toml() changed the scenario");

    let run_scenario = |s: &Scenario| {
        let r = resolve(s).expect("resolvable");
        assert_eq!(r.preset, Preset::Tiny, "the CI scenario pins tiny inputs");
        let keys: Vec<RunKey> = r
            .workloads
            .iter()
            .flat_map(|&w| {
                r.systems
                    .iter()
                    .map(move |&sys| RunKey::new(w, sys, r.net, r.procs))
            })
            .collect();
        let matrix = run_matrix(r.preset, &r.workloads, &keys, 2);
        let mut rendered = String::new();
        for key in &keys {
            rendered.push_str(&bench::run_record_json(key, matrix.run(key)));
            rendered.push('\n');
        }
        rendered
    };
    assert_eq!(
        run_scenario(&original),
        run_scenario(&reparsed),
        "original and re-serialised scenario ran differently"
    );
}

/// Every checked-in example scenario parses, resolves, and names a
/// non-FDDI interconnect (that is their whole point).
#[test]
fn checked_in_example_scenarios_parse_and_resolve() {
    let dir = Path::new("examples/scenarios");
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/scenarios exists")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let scenario = Scenario::from_path(&path)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let resolved = resolve(&scenario)
            .unwrap_or_else(|e| panic!("{} does not resolve: {e}", path.display()));
        assert!(
            !resolved.workloads.is_empty() && !resolved.systems.is_empty(),
            "{} resolved to an empty run set",
            path.display()
        );
        seen += 1;
    }
    assert!(
        seen >= 3,
        "expected the three example scenarios, found {seen}"
    );
}

/// The checked-in 32-process example parses and pins the fields it
/// declares; a `.json` path is refused by name, pointing at the TOML carrier.
#[test]
fn ideal_example_scenario_parses_with_its_declared_fields() {
    let s = Scenario::from_path(Path::new("examples/scenarios/ideal_32procs.toml")).unwrap();
    assert_eq!(s.net, NetPreset::Ideal);
    assert_eq!(s.procs, Some(32));
    assert_eq!(s.workloads.len(), 3);
    assert_eq!(s.overrides.send_overhead, Some(80e-6));
    let round = Scenario::parse_toml(&s.to_toml()).unwrap();
    assert_eq!(round, s);
    let e = Scenario::from_path(Path::new("examples/scenarios/ideal_32procs.json")).unwrap_err();
    assert!(e.to_string().contains("ideal_32procs.json"), "{e}");
    assert!(e.to_string().contains("TOML"), "{e}");
}

/// Nothing in core/cluster silently assumes the paper's 8 ranks: every
/// Tiny workload under every system runs at 16 processes and still
/// reproduces its sequential checksum.
#[test]
fn sixteen_processes_smoke_every_workload_and_system() {
    let net = NetModel::preset(NetPreset::Fddi);
    for w in Workload::all() {
        let seq = run_sequential(w, Preset::Tiny);
        for sys in System::all() {
            let run = run_once(w, sys, net, 16);
            assert_eq!(run.nprocs, 16, "{} under {sys}", w.name());
            assert!(
                seq.agrees(run.checksum),
                "{} under {sys} at 16 processes: checksum {} vs sequential {}",
                w.name(),
                run.checksum,
                seq.checksum
            );
            assert!(
                run.time > 0.0 && run.messages > 0,
                "{} under {sys}",
                w.name()
            );
        }
    }
}

/// Past-the-grid scaling: SOR's tiny grid has 16 rows, so at 32 processes
/// half the ranks own zero rows — the run must still complete, agree with
/// the sequential answer, and stay bit-deterministic (regression test for
/// the empty-band panic in the PVM boundary exchange).
#[test]
fn more_processes_than_rows_is_handled() {
    let net = NetModel::preset(NetPreset::Fddi);
    let seq = run_sequential(Workload::SorZero, Preset::Tiny);
    for sys in System::all() {
        let a = run_once(Workload::SorZero, sys, net, 32);
        let b = run_once(Workload::SorZero, sys, net, 32);
        assert!(
            seq.agrees(a.checksum),
            "SOR-Zero under {sys} at 32 processes: checksum {} vs {}",
            a.checksum,
            seq.checksum
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "SOR-Zero under {sys}");
    }
}
