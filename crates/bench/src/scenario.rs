//! One invocation, resolved once.
//!
//! A [`Request`] is everything a reproduction, a sweep or a fuzz campaign
//! runs: the preset, the network, the process count, the workloads, the
//! systems, the execution settings and the tuning.  [`Request::resolve`] is
//! the one place the command line ([`Invocation`]) and its `--scenario` file
//! meet.  `cluster::scenario` owns the file format and the network half of a
//! scenario; this module turns the file's harness-level names (preset,
//! workload and system subsets) into values, lets every explicit flag
//! override its field, fills each mode's defaults and refuses whatever the
//! mode cannot honour, all before the first simulation starts.

use crate::cli::{Invocation, Mode};
use crate::{exec, Exec, Preset, RunTuning};
use apps::{SeqRun, System, Workload};
use cluster::{AnalysisLevel, FaultPlan, NetModel, ObsLevel, Scenario};
use std::path::Path;
use std::str::FromStr;

/// An invocation with every flag reconciled against its scenario file and
/// every default filled in: what the three modes run.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Problem-size preset.
    pub preset: Preset,
    /// The interconnect model (preset plus overrides).
    pub net: NetModel,
    /// The top processor count of the figures and Table 2's count; a
    /// sweep's top (`--vary procs`) or fixed count; every fuzz run's count.
    pub procs: usize,
    /// Workloads to run, in figure order.
    pub workloads: Vec<Workload>,
    /// Systems to compare, in [`System::all`] order.
    pub systems: Vec<System>,
    /// How the runs execute: worker threads, recording and analysis.
    pub exec: Exec,
    /// Schedule seed, tie-break cap and fault plan of every run (a fuzz
    /// campaign's base plan).  Default unless the file carries `sched_seed`,
    /// `tie_limit` or `[fault]`, or `fuzz --faults` names a plan; this is how
    /// a fuzz reproducer replays its finding.
    pub tuning: RunTuning,
}

impl Request {
    /// Resolve an invocation: load its `--scenario` file (if any), then
    /// [`Request::resolve_with`] it.
    pub fn resolve(inv: &Invocation) -> Result<Request, String> {
        let file = match &inv.scenario {
            Some(path) => read_scenario(path)?,
            None => Scenario::default(),
        };
        Request::resolve_with(inv, &file)
    }

    /// Resolve an invocation against a parsed scenario file: every flag
    /// overrides its field of the file, though the file's names must still
    /// resolve.  An empty workload or system list means "all"; subsets come
    /// out deduplicated in figure and [`System::all`] order.  Every mode
    /// refuses a fault plan naming a rank the run lacks, and a tuning or
    /// output flag the mode would drop.
    pub fn resolve_with(inv: &Invocation, file: &Scenario) -> Result<Request, String> {
        let preset = match &file.preset {
            None => Preset::Scaled,
            Some(name) => name.parse()?,
        };
        let file_workloads = parse_names::<Workload>(&file.workloads)?;
        let file_systems = parse_names::<System>(&file.systems)?;
        // Sweeps default to a top of 16 processes so `--vary procs` goes past
        // the paper's 8; fuzz campaigns default to 4 so a many-seed campaign
        // stays fast.
        let procs = inv.procs.or(file.procs).unwrap_or(match inv.mode {
            Mode::Reproduction => 8,
            Mode::Sweep => 16,
            Mode::Fuzz => 4,
        });
        let mut tuning = RunTuning {
            sched_seed: file.sched_seed.unwrap_or(0),
            tie_limit: file.tie_limit,
            fault: file.fault.clone().unwrap_or_default(),
        };
        if let Some(plan) = &inv.faults {
            tuning.fault = named_plan(plan, procs)?;
        }
        // A sweep runs every point untuned, and a fuzz campaign draws each
        // run's schedule seed itself: a file tuning what the mode would
        // replace is refused rather than silently run without it.
        let file_name = inv.scenario.as_deref().unwrap_or_default();
        let ignored = match inv.mode {
            Mode::Reproduction => None,
            Mode::Sweep => (tuning != RunTuning::default())
                .then_some(("sweep", "sched_seed, tie_limit or [fault]")),
            Mode::Fuzz => (tuning.sched_seed != 0 || tuning.tie_limit.is_some())
                .then_some(("fuzz", "sched_seed or tie_limit")),
        };
        if let Some((mode, keys)) = ignored {
            return Err(format!(
                "{file_name}: {mode} mode does not apply {keys}; \
                 replay the scenario without `{mode}`, or drop those keys"
            ));
        }
        tuning.fault.check_ranks(procs)?;
        // A crash plan replays as a verdict table, not a matrix: a flag that
        // renders or writes the matrix is refused rather than dropped.
        if inv.mode == Mode::Reproduction && !tuning.fault.crashes.is_empty() {
            let matrix_flags = [
                ("--trace", inv.trace.is_some()),
                ("--json", inv.json),
                ("--metrics", inv.metrics),
                ("--bench-out", inv.bench_out.is_some()),
                ("--table1", inv.table1),
                ("--table2", inv.table2),
                ("--figure", inv.figure.is_some()),
            ];
            if let Some((flag, _)) = matrix_flags.iter().find(|(_, given)| *given) {
                return Err(format!(
                    "{file_name}: a [fault] crashes plan replays as a verdict table, \
                     which {flag} does not apply to; drop {flag} or the crashes"
                ));
            }
        }
        // Sweeps always record at metrics level (their tables carry a p99
        // lock-acquire column); the reproduction records only when asked, so
        // the default path records nothing.
        let obs = if inv.trace.is_some() {
            ObsLevel::Trace
        } else if inv.metrics || inv.mode == Mode::Sweep {
            ObsLevel::Metrics
        } else {
            ObsLevel::Off
        };
        let workloads = if inv.workloads.is_empty() {
            &file_workloads
        } else {
            &inv.workloads
        };
        Ok(Request {
            preset: inv.preset.unwrap_or(preset),
            net: inv.net.unwrap_or_else(|| file.net_model()),
            procs,
            workloads: in_order(Workload::all(), workloads),
            systems: match &inv.systems {
                Some(systems) => systems.clone(),
                None => in_order(System::all(), &file_systems),
            },
            exec: Exec {
                jobs: inv.jobs.unwrap_or_else(exec::default_jobs),
                obs,
                analysis: if inv.racecheck {
                    AnalysisLevel::Race
                } else {
                    AnalysisLevel::Off
                },
            },
            tuning,
        })
    }

    /// Every `(workload, system)` point: the workloads in figure order, each
    /// under the systems in [`System::all`] order.
    pub fn points(&self) -> Vec<(Workload, System)> {
        self.workloads
            .iter()
            .flat_map(|&w| self.systems.iter().map(move |&sys| (w, sys)))
            .collect()
    }

    /// The sequential baseline of every workload at the request's preset.
    pub fn baselines(&self) -> Vec<(Workload, SeqRun)> {
        self.workloads
            .iter()
            .map(|&w| (w, w.sequential(self.preset)))
            .collect()
    }
}

fn read_scenario(path: &str) -> Result<Scenario, String> {
    Scenario::from_path(Path::new(path)).map_err(|e| e.to_string())
}

/// Parse every name, failing on the first that does not.
fn parse_names<T: FromStr<Err = String>>(names: &[String]) -> Result<Vec<T>, String> {
    names.iter().map(|name| name.parse()).collect()
}

/// The members of `all` that `chosen` holds, in `all`'s order and without
/// repeats; every member when `chosen` is empty.
fn in_order<T: PartialEq, const N: usize>(all: [T; N], chosen: &[T]) -> Vec<T> {
    all.into_iter()
        .filter(|x| chosen.is_empty() || chosen.contains(x))
        .collect()
}

/// The plan `fuzz --faults` names: `lossy`, `partition` (or `partitioned`),
/// or the `[fault]` section of a scenario file.
fn named_plan(name: &str, procs: usize) -> Result<FaultPlan, String> {
    match name {
        "lossy" => Ok(FaultPlan::lossy(1)),
        "partition" | "partitioned" if procs < 2 => Err(format!(
            "--faults {name} cuts even ranks off from odd ones and needs at least 2 processes, \
             got {procs}"
        )),
        "partition" | "partitioned" => Ok(FaultPlan::partitioned(1, procs)),
        path => {
            let takes = "--faults takes `lossy`, `partitioned` or a scenario file with [fault]";
            let file = read_scenario(path).map_err(|e| format!("{takes}, not `{path}` ({e})"))?;
            file.fault
                .ok_or_else(|| format!("{path} carries no [fault] section; {takes}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli;
    use cluster::NetPreset;
    use treadmarks::ProtocolKind;

    /// Resolve the command line `line` against the scenario file `toml`.
    fn request(line: &str, toml: &str) -> Result<Request, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let inv = cli::parse(&args).unwrap();
        Request::resolve_with(&inv, &Scenario::parse_toml(toml).unwrap())
    }

    const LRC: System = System::TreadMarks(ProtocolKind::Lrc);

    #[test]
    fn defaults_fill_an_empty_scenario() {
        let r = request("", "").unwrap();
        assert_eq!(r.preset, Preset::Scaled);
        assert_eq!(r.procs, 8);
        assert_eq!(r.net, NetModel::preset(NetPreset::Fddi));
        assert_eq!(r.workloads, Workload::all().to_vec());
        assert_eq!(r.systems, System::all().to_vec());
        assert_eq!(
            (r.exec.obs, r.exec.analysis),
            (ObsLevel::Off, AnalysisLevel::Off)
        );
        assert!(r.exec.jobs >= 1);
        assert!(r.tuning.is_default());
    }

    #[test]
    fn each_mode_has_its_default_process_count() {
        for (line, procs) in [("", 8), ("sweep", 16), ("fuzz", 4)] {
            assert_eq!(request(line, "").unwrap().procs, procs, "`{line}`");
            // A file's count, then a flag's, wins over the mode's.
            assert_eq!(request(line, "procs = 3").unwrap().procs, 3, "`{line}`");
            let flagged = request(&format!("{line} --procs 5"), "procs = 3").unwrap();
            assert_eq!(flagged.procs, 5, "`{line}`");
        }
    }

    #[test]
    fn every_flag_overrides_its_field_of_the_file_and_only_that() {
        let file = "preset = \"tiny\"\nprocs = 3\nnet = \"ethernet\"\n\
                    workloads = [\"TSP\", \"EP\"]\nsystems = [\"pvm\"]\n";
        let base = request("", file).unwrap();
        assert_eq!(base.preset, Preset::Tiny);
        assert_eq!(base.procs, 3);
        assert_eq!(base.net, NetModel::preset(NetPreset::Ethernet));
        assert_eq!(base.workloads, vec![Workload::Ep, Workload::Tsp]);
        assert_eq!(base.systems, vec![System::Pvm]);
        let with = |line: &str, edit: &dyn Fn(&mut Request)| {
            let mut want = base.clone();
            edit(&mut want);
            assert_eq!(request(line, file).unwrap(), want, "`{line}`");
        };
        with("--full", &|r| r.preset = Preset::Paper);
        with("--procs 6", &|r| r.procs = 6);
        with("--net atm", &|r| r.net = NetModel::preset(NetPreset::Atm));
        with("--protocol lrc", &|r| r.systems = vec![LRC, System::Pvm]);
        // Flagged workloads come out in figure order, without repeats.
        with(
            "--workload water-288 --workload qsort --workload QSORT",
            &|r| r.workloads = vec![Workload::Qsort, Workload::Water288],
        );
        let tiny = request("--tiny", "preset = \"paper\"").unwrap();
        assert_eq!(tiny.preset, Preset::Tiny);
    }

    #[test]
    fn the_points_pair_each_workload_with_each_system_in_order() {
        let r = request("--protocol lrc --workload TSP --workload EP", "").unwrap();
        assert_eq!(
            r.points(),
            [
                (Workload::Ep, LRC),
                (Workload::Ep, System::Pvm),
                (Workload::Tsp, LRC),
                (Workload::Tsp, System::Pvm),
            ]
        );
    }

    #[test]
    fn the_levels_follow_the_flags_and_the_mode() {
        let levels = |line: &str| {
            let r = request(line, "").unwrap();
            (r.exec.obs, r.exec.analysis)
        };
        assert_eq!(levels("--trace t.json").0, ObsLevel::Trace);
        assert_eq!(levels("--metrics").0, ObsLevel::Metrics);
        assert_eq!(levels("sweep").0, ObsLevel::Metrics);
        assert_eq!(levels("sweep --metrics").0, ObsLevel::Metrics);
        assert_eq!(levels("fuzz").0, ObsLevel::Off);
        assert_eq!(levels("--racecheck"), (ObsLevel::Off, AnalysisLevel::Race));
        assert_eq!(levels("--jobs 3").1, AnalysisLevel::Off);
        assert_eq!(request("--jobs 3", "").unwrap().exec.jobs, 3);
    }

    #[test]
    fn seeds_and_fault_plans_resolve_onto_the_tuning() {
        let r = request("", "sched_seed = 7\ntie_limit = 3\n[fault]\ndrop = 0.01").unwrap();
        assert_eq!(r.tuning.sched_seed, 7);
        assert_eq!(r.tuning.tie_limit, Some(3));
        assert_eq!(r.tuning.fault.drop, 0.01);
        assert!(!r.tuning.is_default());
    }

    #[test]
    fn faults_replaces_the_files_plan() {
        let file = "procs = 4\n[fault]\ndrop = 0.5";
        let lossy = request("fuzz --faults lossy", file).unwrap();
        assert_eq!(lossy.tuning.fault, FaultPlan::lossy(1));
        let cut = request("fuzz --faults partitioned", file).unwrap();
        assert_eq!(cut.tuning.fault, FaultPlan::partitioned(1, 4));
        let e = request("fuzz --faults partition --procs 1", file).unwrap_err();
        assert!(e.contains("at least 2 processes, got 1"), "{e}");
        let e = request("fuzz --faults no/such/plan.toml", file).unwrap_err();
        assert!(e.contains("no/such/plan.toml"), "{e}");
        // A mistyped plan name says what the flag takes.
        let e = request("fuzz --faults nonsense", file).unwrap_err();
        assert!(
            e.starts_with(
                "--faults takes `lossy`, `partitioned` or a scenario file with [fault], \
                 not `nonsense` (scenario: nonsense: cannot read"
            ),
            "{e}"
        );
    }

    #[test]
    fn a_sweep_refuses_a_tuning_it_would_not_apply() {
        for toml in [
            "sched_seed = 3",
            "tie_limit = 2",
            "[fault]\ncrashes = [\"1@0.1\"]",
            "[fault]\nseed = 9",
        ] {
            let e = request("sweep", toml).unwrap_err();
            assert!(
                e.contains("sched_seed, tie_limit or [fault]"),
                "{toml}: {e}"
            );
            // The reproduction applies the same file.
            assert!(request("", toml).is_ok(), "{toml}");
        }
    }

    #[test]
    fn a_fuzz_campaign_refuses_a_schedule_it_would_redraw() {
        for toml in [
            "sched_seed = 7",
            "tie_limit = 3",
            "sched_seed = 7\ntie_limit = 3",
        ] {
            let e = request("fuzz", toml).unwrap_err();
            assert!(
                e.contains("fuzz mode does not apply sched_seed or tie_limit"),
                "{toml}: {e}"
            );
        }
        // The campaign's base plan is the file's `[fault]`.
        let r = request("fuzz", "sched_seed = 0\n[fault]\ndrop = 0.5").unwrap();
        assert_eq!(r.tuning.fault.drop, 0.5);
    }

    #[test]
    fn a_crash_replay_refuses_every_matrix_output_flag() {
        let file = "procs = 3\n[fault]\ncrashes = [\"1@0.1\"]";
        for flag in [
            "--trace t.json",
            "--json",
            "--metrics",
            "--bench-out b.json",
            "--table1",
            "--table2",
            "--figure EP",
        ] {
            let e = request(flag, file).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(
                e.contains(&format!("which {name} does not apply to; drop {name}")),
                "{flag}: {e}"
            );
        }
        assert!(request("--racecheck --workload EP --protocol lrc", file).is_ok());
    }

    #[test]
    fn a_plan_naming_a_missing_rank_is_refused_in_every_mode() {
        let file = "procs = 3\n[fault]\ncrashes = [\"5@0.1\"]";
        for line in ["", "fuzz"] {
            let e = request(line, file).unwrap_err();
            assert!(
                e.contains("rank 5") && e.contains("3 processes"),
                "`{line}`: {e}"
            );
        }
        let e = request("fuzz --faults partition --procs 1", "").unwrap_err();
        assert!(e.contains("needs at least 2 processes"), "{e}");
    }

    #[test]
    fn subsets_resolve_normalised_and_deduplicated() {
        // Out of figure order, with a duplicate and mixed case.
        let r = request(
            "",
            "preset = \"tiny\"\nprocs = 16\nworkloads = [\"Water-288\", \"ep\", \"EP\"]\n\
             systems = [\"pvm\", \"LRC\"]",
        )
        .unwrap();
        assert_eq!(r.preset, Preset::Tiny);
        assert_eq!(r.procs, 16);
        assert_eq!(r.workloads, vec![Workload::Ep, Workload::Water288]);
        assert_eq!(r.systems, vec![LRC, System::Pvm]);
    }

    #[test]
    fn a_bad_name_in_the_file_is_an_error_even_under_its_flag() {
        for (line, toml, needle) in [
            (
                "--workload EP",
                "workloads = [\"NOPE\"]",
                "unknown workload 'NOPE'",
            ),
            (
                "--protocol lrc",
                "systems = [\"mpi\"]",
                "unknown system 'mpi'",
            ),
            ("--tiny", "preset = \"nano\"", "unknown preset 'nano'"),
        ] {
            let e = request(line, toml).unwrap_err();
            assert!(e.contains(needle), "`{line}` over `{toml}`: {e}");
        }
        let e = request("", "workloads = [\"NOPE\"]").unwrap_err();
        assert!(e.contains("known workloads: EP,"), "{e}");
    }

    #[test]
    fn resolve_reads_the_scenario_file() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/scenarios/lossy_fddi_tiny.toml"
        );
        let inv = cli::parse(&["--scenario".to_string(), path.to_string()]).unwrap();
        let r = Request::resolve(&inv).unwrap();
        assert_eq!((r.preset, r.procs), (Preset::Tiny, 4));
        assert_eq!(r.tuning.fault.seed, 42);
        let missing = cli::parse(&["--scenario".into(), "no/such.toml".into()]).unwrap();
        let e = Request::resolve(&missing).unwrap_err();
        assert!(e.starts_with("scenario: no/such.toml: cannot read"), "{e}");
    }
}
