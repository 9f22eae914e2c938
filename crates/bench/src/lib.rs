//! The reproduction harness: maps every table and figure of the paper onto
//! the applications in the [`apps`] crate and runs them under both systems —
//! on the paper's testbed or on any scenario the cluster model can express.
//!
//! The `reproduce` binary (`cargo run -p bench --release --bin reproduce`)
//! regenerates Table 1 (sequential times), Figures 1–12 (speedup curves) and
//! Table 2 (messages and kilobytes at the top processor count).  The
//! scenario subsystem widens the single-testbed reproduction into a
//! question-answering machine: `--net` swaps the interconnect preset,
//! `--procs` lifts the processor count past the paper's 8, `--scenario FILE`
//! loads a declarative testbed description ([`scenario`]), and
//! `reproduce sweep` fans a sensitivity matrix — speedup versus processors,
//! runtime versus bandwidth or latency — across cores ([`sweep`]).

#![deny(missing_docs)]

pub mod cli;
pub mod exec;
pub mod fuzz;
pub mod invariants;
pub mod obs;
pub mod scenario;
pub mod shrink;
pub mod sweep;

pub use apps::Preset;

use apps::runner::{AppRun, SeqRun, System};
use apps::Workload;
use cluster::{AnalysisLevel, ClusterConfig, FaultPlan, NetModel, NetPreset, ObsLevel, SpanCat};

/// How a matrix, sweep or fuzz campaign is *executed*: the worker-pool
/// width plus the per-run execution settings that ride on
/// [`ClusterConfig`].  None of it is part of a run's identity — every value
/// produces bit-identical simulated output — so none of it reaches
/// [`RunKey`], `--json` or `--trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// Worker threads the independent runs fan out over.
    pub jobs: usize,
    /// Observability level of every run.
    pub obs: ObsLevel,
    /// Analysis level of every run.
    pub analysis: AnalysisLevel,
}

impl Exec {
    /// `jobs` workers, recording and analysis off.
    pub fn with_jobs(jobs: usize) -> Self {
        Exec {
            jobs,
            obs: ObsLevel::Off,
            analysis: AnalysisLevel::Off,
        }
    }
}

/// The schedule-exploration and fault-injection knobs of a run, all riding
/// on [`ClusterConfig`]: the arbiter's tie-break seed, the optional cap on
/// seeded draws (bisected by the shrinker), and the fault plan.  The
/// default (`seed 0`, no cap, empty plan) is the engine's historical
/// behaviour, byte for byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTuning {
    /// Arbiter tie-break seed; 0 is rank order.
    pub sched_seed: u64,
    /// Cap on seeded tie-break draws (rank order afterwards).
    pub tie_limit: Option<u64>,
    /// The fault plan to inject.
    pub fault: FaultPlan,
}

impl RunTuning {
    /// True when this tuning is the engine's historical default, so the run
    /// is byte-identical to one that never heard of tuning.
    pub fn is_default(&self) -> bool {
        self.sched_seed == 0 && self.tie_limit.is_none() && self.fault.is_empty()
    }
}

/// The cluster configuration of one run: `net` at `nprocs` processes, with
/// the execution settings of `exec` and the tuning stamped on.  Every run
/// the harness starts — matrix, sweep, fuzz point, crash replay — is
/// configured here and nowhere else.
pub fn run_config(net: NetModel, nprocs: usize, exec: &Exec, tuning: &RunTuning) -> ClusterConfig {
    ClusterConfig {
        obs: exec.obs,
        analysis: exec.analysis,
        sched_seed: tuning.sched_seed,
        tie_limit: tuning.tie_limit,
        fault: tuning.fault.clone(),
        ..net.config(nprocs)
    }
}

/// The sequential reference of a workload under a preset:
/// [`Workload::sequential`], under the name the benchmark probes call.
pub fn run_sequential(w: Workload, preset: Preset) -> SeqRun {
    w.sequential(preset)
}

/// Run a workload under a system on an arbitrary cluster model
/// (`cfg.nprocs` processes over `cfg`'s interconnect): [`Workload::run`]
/// for callers that have no use for a failed run.
///
/// # Panics
///
/// Panics on any structured [`cluster::RunFailure`] — a virtual-time
/// deadlock or livelock, or a fault-plan crash.
pub fn run_parallel_on(w: Workload, sys: System, cfg: &ClusterConfig, preset: Preset) -> AppRun {
    w.run(preset, sys, cfg).unwrap_or_else(|f| panic!("{f}"))
}

/// One entry of a reproduction matrix: a workload under a system, on an
/// interconnect model, at a processor count.
///
/// The interconnect is part of the key so that a single matrix (and the
/// executor fanning it out) can hold the same workload under several
/// network models at once — exactly what a bandwidth or latency sweep is.
/// Equality is exact: [`NetModel`] compares overridden floats by bit
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunKey {
    /// The application and input set.
    pub workload: Workload,
    /// The runtime system (a DSM protocol backend, or PVM).
    pub system: System,
    /// The interconnect model the cluster runs over.
    pub net: NetModel,
    /// Number of simulated processes.
    pub nprocs: usize,
}

impl RunKey {
    /// A run on an arbitrary interconnect model.
    pub fn new(workload: Workload, system: System, net: NetModel, nprocs: usize) -> Self {
        RunKey {
            workload,
            system,
            net,
            nprocs,
        }
    }

    /// A run on the paper's testbed (the calibrated FDDI preset).
    pub fn fddi(workload: Workload, system: System, nprocs: usize) -> Self {
        RunKey::new(workload, system, NetModel::preset(NetPreset::Fddi), nprocs)
    }
}

/// The processor counts a figure reports for a top count of `max`: every
/// count through 8 exactly as the paper plots it, then powers of two (and
/// `max` itself) beyond — `proc_series(16)` is `1..=8, 16` and
/// `proc_series(32)` is `1..=8, 16, 32`, keeping the beyond-the-paper
/// figures readable instead of 32 rows deep.
pub fn proc_series(max: usize) -> Vec<usize> {
    let mut series: Vec<usize> = (1..=max.min(8)).collect();
    let mut p = 16;
    while p < max {
        series.push(p);
        p *= 2;
    }
    if max > 8 {
        series.push(max);
    }
    series
}

/// The precomputed results of a reproduction: every requested sequential
/// baseline and parallel run, keyed for lookup.
///
/// A matrix is *computed* (possibly on many cores, see [`run_matrix`]) and
/// then *rendered*: because every simulation is deterministic and the
/// results are stored under their keys — never in completion order — the
/// rendering is a pure function of the request, so serial and parallel
/// computation produce byte-identical tables, figures and JSON.
pub struct RunMatrix {
    /// The preset the matrix was computed under.
    pub preset: Preset,
    seq: Vec<(Workload, SeqRun)>,
    runs: Vec<(RunKey, AppRun)>,
}

impl RunMatrix {
    /// The sequential baseline of `w`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix was not computed with `w`'s baseline.
    pub fn sequential(&self, w: Workload) -> &SeqRun {
        self.seq
            .iter()
            .find(|(k, _)| *k == w)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("{} baseline not in the matrix", w.name()))
    }

    /// The parallel run stored under `key`.
    ///
    /// # Panics
    ///
    /// Panics if that run is not in the matrix.
    pub fn run(&self, key: &RunKey) -> &AppRun {
        self.runs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, r)| r)
            .unwrap_or_else(|| {
                panic!(
                    "{} under {} on {} at {} processes not in the matrix",
                    key.workload.name(),
                    key.system,
                    key.net.label(),
                    key.nprocs
                )
            })
    }

    /// Every parallel run in the matrix, in request order.
    pub fn runs(&self) -> impl Iterator<Item = (&RunKey, &AppRun)> {
        self.runs.iter().map(|(k, r)| (k, r))
    }

    /// Number of parallel runs held.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if the matrix holds no parallel runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Compute a reproduction matrix — the sequential baseline of every workload
/// in `seq_workloads` plus every run in `keys` — on `jobs` worker threads.
///
/// Each entry is an independent deterministic simulation; the executor in
/// [`exec`] fans them out and delivers results in request order, so the
/// returned matrix (and anything rendered from it) is bit-identical for
/// every `jobs` value.  Duplicate keys are computed once.
///
/// # Example
///
/// One workload, two systems, two interconnects, computed on two workers:
///
/// ```
/// use apps::runner::System;
/// use apps::Workload;
/// use bench::{run_matrix, Preset, RunKey};
/// use cluster::{NetModel, NetPreset};
///
/// let atm = NetModel::preset(NetPreset::Atm);
/// let keys = [
///     RunKey::fddi(Workload::Ep, System::Pvm, 2),
///     RunKey::new(Workload::Ep, System::Pvm, atm, 2),
/// ];
/// let matrix = run_matrix(Preset::Tiny, &[Workload::Ep], &keys, 2);
/// let seq = matrix.sequential(Workload::Ep);
/// // Same answer on both networks, and the paper's ring is never faster.
/// assert_eq!(matrix.run(&keys[0]).checksum, seq.checksum);
/// assert!(matrix.run(&keys[0]).time >= matrix.run(&keys[1]).time);
/// ```
pub fn run_matrix(
    preset: Preset,
    seq_workloads: &[Workload],
    keys: &[RunKey],
    jobs: usize,
) -> RunMatrix {
    run_matrix_obs(preset, seq_workloads, keys, jobs, ObsLevel::Off)
}

/// [`run_matrix`] with an observability level applied to every parallel run
/// in the matrix (sequential baselines are plain closed-form models and
/// record nothing); the recorded output rides along on [`AppRun::obs`].
pub fn run_matrix_obs(
    preset: Preset,
    seq_workloads: &[Workload],
    keys: &[RunKey],
    jobs: usize,
    obs: ObsLevel,
) -> RunMatrix {
    let exec = Exec {
        obs,
        ..Exec::with_jobs(jobs)
    };
    run_matrix_exec(preset, seq_workloads, keys, &exec, &RunTuning::default())
}

/// The matrix computation behind [`run_matrix`]: every execution setting
/// in `exec` and the schedule seed, tie-break cap and fault plan in
/// `tuning` are stamped onto each parallel run's configuration.  Neither is
/// part of the [`RunKey`]: a matrix computed under
/// [`AnalysisLevel::Race`] carries an [`AppRun::race`] report per DSM run
/// and is otherwise bit-identical, and the default tuning is a no-op.  Crash
/// plans panic the matrix (a crashed run has no complete result to store);
/// the fuzzer fans crash plans through [`Workload::run`] instead.
pub fn run_matrix_exec(
    preset: Preset,
    seq_workloads: &[Workload],
    keys: &[RunKey],
    exec: &Exec,
    tuning: &RunTuning,
) -> RunMatrix {
    let mut seq_keys: Vec<Workload> = Vec::new();
    for &w in seq_workloads {
        if !seq_keys.contains(&w) {
            seq_keys.push(w);
        }
    }
    let mut run_keys: Vec<RunKey> = Vec::new();
    for &k in keys {
        if !run_keys.contains(&k) {
            run_keys.push(k);
        }
    }
    enum Task {
        Seq(Workload),
        Run(RunKey),
    }
    enum Done {
        Seq(Workload, SeqRun),
        // Boxed: an AppRun (with its per-process stats) dwarfs a SeqRun.
        Run(RunKey, Box<AppRun>),
    }
    let tasks: Vec<Task> = seq_keys
        .iter()
        .map(|&w| Task::Seq(w))
        .chain(run_keys.iter().map(|&k| Task::Run(k)))
        .collect();
    let closures: Vec<_> = tasks
        .into_iter()
        .map(|t| {
            move || match t {
                Task::Seq(w) => Done::Seq(w, w.sequential(preset)),
                Task::Run(key) => {
                    let cfg = run_config(key.net, key.nprocs, exec, tuning);
                    Done::Run(
                        key,
                        Box::new(run_parallel_on(key.workload, key.system, &cfg, preset)),
                    )
                }
            }
        })
        .collect();
    let mut matrix = RunMatrix {
        preset,
        seq: Vec::with_capacity(seq_keys.len()),
        runs: Vec::with_capacity(run_keys.len()),
    };
    for done in crate::exec::run_ordered(exec.jobs, closures) {
        match done {
            Done::Seq(w, s) => matrix.seq.push((w, s)),
            Done::Run(k, r) => matrix.runs.push((k, *r)),
        }
    }
    matrix
}

/// Render the happens-before race reports of a matrix computed under
/// [`AnalysisLevel::Race`]: one summary line per checked run (PVM runs are
/// message-passing only and carry no report), the full per-race detail for
/// any run that is not race-free, and a final `racecheck summary:` line
/// totalling races over checked runs — the line CI greps for.
///
/// Deterministic like every other rendering: runs appear in request order
/// and each report is itself deterministically sorted.
pub fn render_race_reports(matrix: &RunMatrix) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut checked = 0usize;
    let mut total_races = 0usize;
    for (key, run) in matrix.runs() {
        let Some(report) = &run.race else { continue };
        checked += 1;
        total_races += report.races.len();
        writeln!(
            out,
            "  {:<12} {:<10} {:<10} n={:<3} {}",
            key.workload.name(),
            run.system.to_string(),
            key.net.label(),
            key.nprocs,
            report.render().lines().next().unwrap_or_default()
        )
        .unwrap();
        if !report.is_race_free() {
            for line in report.render().lines().skip(1) {
                writeln!(out, "    {line}").unwrap();
            }
        }
    }
    writeln!(
        out,
        "racecheck summary: {total_races} race(s) across {checked} checked run(s)"
    )
    .unwrap();
    out
}

/// One JSON record per run with every virtual time carried both as decimal
/// and as its raw f64 bit pattern, so a textual `diff` of two dumps is
/// exactly a bit-identity check.  Shared by the `reproduce --json` dump and
/// the parallel-vs-serial determinism tests.
pub fn run_record_json(key: &RunKey, run: &AppRun) -> String {
    let mut rec = format!(
        "{{\"workload\": \"{}\", \"system\": \"{}\", \"net\": \"{}\", \"nprocs\": {}, \
         \"time\": {}, \"time_bits\": \"{:016x}\", \"checksum_bits\": \"{:016x}\", \
         \"messages\": {}, \"kilobytes_bits\": \"{:016x}\", \
         \"datagrams_received\": {}",
        key.workload.name(),
        run.system,
        key.net.label(),
        run.nprocs,
        run.time,
        run.time.to_bits(),
        run.checksum.to_bits(),
        run.messages,
        run.kilobytes.to_bits(),
        run.proc_stats
            .iter()
            .map(|s| s.datagrams_received)
            .sum::<u64>(),
    );
    // The tuning stamps appear only when nonzero, so a default-tuned dump
    // stays byte-identical to every dump the harness ever produced.
    if run.sched_seed != 0 {
        rec.push_str(&format!(", \"sched_seed\": {}", run.sched_seed));
    }
    if run.fault_hash != 0 {
        rec.push_str(&format!(
            ", \"fault_hash\": \"{:016x}\", \"faults_injected\": {}",
            run.fault_hash, run.faults_injected
        ));
    }
    if let Some(t) = &run.tmk_stats {
        rec.push_str(&format!(
            ", \"page_faults\": {}, \"diff_requests\": {}, \"diff_flushes\": {}, \
             \"page_requests\": {}",
            t.page_faults, t.diff_requests_sent, t.diff_flushes_sent, t.page_requests_sent
        ));
    }
    if let Some(obs) = &run.obs {
        // Integer virtual-ns quantiles of the merged histograms: present
        // only when the run was computed at an observability level, and
        // byte-deterministic like everything else in the record.
        for (label, cat) in [
            ("lock", SpanCat::LockWait),
            ("fault", SpanCat::Fault),
            ("barrier", SpanCat::BarrierWait),
        ] {
            let h = obs.merged_hist(cat);
            rec.push_str(&format!(
                ", \"{label}_spans\": {}, \"{label}_p50_ns\": {}, \"{label}_p99_ns\": {}, \
                 \"{label}_p999_ns\": {}",
                h.count(),
                h.value_at_quantile(0.50),
                h.value_at_quantile(0.99),
                h.value_at_quantile(0.999)
            ));
        }
        let events: usize =
            obs.central.len() + obs.procs.iter().map(|p| p.events.len()).sum::<usize>();
        rec.push_str(&format!(", \"obs_events\": {events}"));
    }
    if let Some(race) = &run.race {
        // Present only when the run was computed under a racecheck analysis
        // level; the simulated fields above are bit-identical either way.
        rec.push_str(&format!(
            ", \"race_accesses\": {}, \"races\": {}",
            race.accesses,
            race.races.len()
        ));
    }
    rec.push('}');
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole guarantee of the parallel executor: a matrix computed on
    /// a worker pool is bit-identical — every virtual time, checksum and
    /// counter, on every process of every run — to the same matrix computed
    /// serially on one thread.
    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let workloads = [
            Workload::Ep,
            Workload::SorZero,
            Workload::Tsp,
            Workload::Water288,
        ];
        let keys: Vec<RunKey> = workloads
            .iter()
            .flat_map(|&w| {
                System::all().into_iter().flat_map(move |sys| {
                    [1usize, 2, 4]
                        .into_iter()
                        .map(move |n| RunKey::fddi(w, sys, n))
                })
            })
            .collect();
        let serial = run_matrix(Preset::Tiny, &workloads, &keys, 1);
        let parallel = run_matrix(Preset::Tiny, &workloads, &keys, 4);
        for &w in &workloads {
            let (a, b) = (serial.sequential(w), parallel.sequential(w));
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "{} seq time", w.name());
            assert_eq!(
                a.checksum.to_bits(),
                b.checksum.to_bits(),
                "{} seq checksum",
                w.name()
            );
        }
        for key in &keys {
            let (a, b) = (serial.run(key), parallel.run(key));
            // f64 Debug output is shortest-round-trip, so Debug equality of
            // the full record (times, counters, per-process stats) is
            // bit-identity.
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{key:?} differs between serial and parallel execution"
            );
            assert_eq!(
                run_record_json(key, a),
                run_record_json(key, b),
                "{key:?}: JSON record differs"
            );
        }
    }

    #[test]
    fn duplicate_matrix_keys_are_computed_once() {
        let key = RunKey::fddi(Workload::Ep, System::Pvm, 2);
        let keys = vec![key, key, key];
        let m = run_matrix(Preset::Tiny, &[Workload::Ep], &keys, 2);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        assert!(m.run(&key).time > 0.0);
    }

    #[test]
    fn one_matrix_holds_the_same_run_under_several_nets() {
        use cluster::NetPreset;
        let w = Workload::Ep;
        let sys = System::Pvm;
        let keys: Vec<RunKey> = NetPreset::all()
            .into_iter()
            .map(|p| RunKey::new(w, sys, NetModel::preset(p), 2))
            .collect();
        let m = run_matrix(Preset::Tiny, &[], &keys, 2);
        assert_eq!(m.len(), 4, "four presets, four distinct matrix entries");
        // Identical answers on every interconnect; distinct virtual times
        // on the distinctly-priced ones.
        let checksums: Vec<u64> = keys.iter().map(|k| m.run(k).checksum.to_bits()).collect();
        assert!(checksums.windows(2).all(|w| w[0] == w[1]));
        let ethernet = m.run(&keys[1]).time;
        let atm = m.run(&keys[2]).time;
        assert!(
            ethernet > atm,
            "ethernet {ethernet} not slower than atm {atm}"
        );
    }

    #[test]
    fn proc_series_matches_the_paper_below_eight_and_doubles_beyond() {
        assert_eq!(proc_series(4), vec![1, 2, 3, 4]);
        assert_eq!(proc_series(8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(proc_series(16), vec![1, 2, 3, 4, 5, 6, 7, 8, 16]);
        assert_eq!(proc_series(32), vec![1, 2, 3, 4, 5, 6, 7, 8, 16, 32]);
        assert_eq!(proc_series(24), vec![1, 2, 3, 4, 5, 6, 7, 8, 16, 24]);
    }
}
