//! Uniform driver used by all nine applications.
//!
//! The paper reports, for every application and input set, (a) the speedup
//! relative to the sequential program for 1–8 processors, and (b) the number
//! of messages and the amount of data sent during the 8-processor execution.
//! The helpers here run an application body under either runtime system and
//! collect exactly those quantities:
//!
//! * for the **TreadMarks** versions, messages are the transport datagrams
//!   (the UDP messages of the real system);
//! * for the **PVM** versions, messages are the user-level sends, as PVM
//!   itself counts;
//! * for both, data is the payload bytes sent.
//!
//! The `cluster` transport counts all three for every rank, so both systems
//! read them from one ledger, the run's [`ClusterReport`].

use cluster::{Cluster, ClusterConfig, ClusterObs, ClusterReport, ProcStats, RunFailure};
use msgpass::Pvm;
use std::sync::Arc;
use treadmarks::race::{self, RaceReport, SyncClocks};
use treadmarks::{ProtocolKind, Tmk, TmkStats};

/// Which runtime system an application run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// TreadMarks-style distributed shared memory, under the given
    /// coherence-protocol backend.
    TreadMarks(ProtocolKind),
    /// PVM-style message passing.
    Pvm,
}

impl System {
    /// Every system configuration the harness can compare: one per DSM
    /// protocol backend, plus message passing.
    pub fn all() -> [System; 4] {
        [
            System::TreadMarks(ProtocolKind::Lrc),
            System::TreadMarks(ProtocolKind::Hlrc),
            System::TreadMarks(ProtocolKind::Sc),
            System::Pvm,
        ]
    }

    /// The name scenario files and fuzz reproducers use: the protocol's
    /// name (`lrc` / `hlrc` / `sc`) or `pvm`.
    pub fn name(self) -> &'static str {
        match self {
            System::TreadMarks(protocol) => protocol.name(),
            System::Pvm => "pvm",
        }
    }
}

impl std::str::FromStr for System {
    type Err = String;

    /// A system by name, in any letter case: a protocol backend by any name
    /// [`ProtocolKind`] parses (`treadmarks` is the paper's LRC),
    /// `tmk-hlrc`, `tmk-sc` or `pvm`.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name.to_ascii_lowercase().as_str() {
            "pvm" => Ok(System::Pvm),
            "tmk-hlrc" => Ok(System::TreadMarks(ProtocolKind::Hlrc)),
            "tmk-sc" => Ok(System::TreadMarks(ProtocolKind::Sc)),
            other => other.parse().map(System::TreadMarks).map_err(|_| {
                format!("unknown system '{other}'; known systems: lrc, hlrc, sc, pvm")
            }),
        }
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The protocol layer names its own backends ("TreadMarks" for
            // the paper's LRC; the others are this reproduction's
            // additions), so a new backend never edits this file.
            System::TreadMarks(protocol) => f.write_str(protocol.system_label()),
            System::Pvm => f.write_str("PVM"),
        }
    }
}

/// Result of a sequential (uninstrumented) run: the baseline of the speedup
/// curves and of Table 1.
#[derive(Debug, Clone)]
pub struct SeqRun {
    /// Application checksum, used to validate the parallel versions.
    pub checksum: f64,
    /// Modeled sequential execution time, seconds.
    pub time: f64,
}

impl SeqRun {
    /// Whether a parallel run's `checksum` agrees with this baseline.
    /// Floating-point summation order legitimately differs across process
    /// counts and schedules, so agreement is relative, not bitwise.
    pub fn agrees(&self, checksum: f64) -> bool {
        (checksum - self.checksum).abs() <= self.checksum.abs() * 1e-6 + 1e-6
    }
}

/// Result of one parallel run of one application under one system.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Which system executed the run.
    pub system: System,
    /// Number of processes.
    pub nprocs: usize,
    /// Application checksum (must match the sequential run).
    pub checksum: f64,
    /// Parallel execution time: the latest virtual finish time.
    pub time: f64,
    /// Messages, counted per the paper's convention for this system.
    pub messages: u64,
    /// Kilobytes of data, counted per the paper's convention for this system.
    pub kilobytes: f64,
    /// Schedule seed the run's arbiter broke virtual-time ties with; 0 is
    /// the engine's historical rank-order discipline.
    pub sched_seed: u64,
    /// Hash of the run's fault plan ([`cluster::FaultPlan::hash`]); 0 for
    /// the empty (fault-free) plan.
    pub fault_hash: u64,
    /// Faults the plan injected ([`cluster::ClusterReport::faults_injected`]).
    pub faults_injected: u64,
    /// Aggregated DSM runtime statistics (TreadMarks runs only).
    pub tmk_stats: Option<TmkStats>,
    /// Per-process transport statistics of the run (the full
    /// [`cluster::ClusterReport`] view), for determinism checks and
    /// per-process analyses.
    pub proc_stats: Vec<ProcStats>,
    /// Observability output of the run (histograms, time-breakdown profile,
    /// and — at trace level — the structured event stream); `None` unless
    /// the cluster config's `obs` level asked for recording.
    pub obs: Option<ClusterObs>,
    /// Happens-before race report of the run; `None` unless the cluster
    /// config's `analysis` level asked for race detection (message-passing
    /// runs have no shared memory to check, so PVM runs never carry one).
    pub race: Option<RaceReport>,
}

impl AppRun {
    /// Speedup relative to a sequential time.
    pub fn speedup(&self, seq_time: f64) -> f64 {
        seq_time / self.time
    }
}

/// One application of the study, written the paper's three ways.  The nine
/// `*Params` types implement it; [`run`] executes either parallel version
/// and [`crate::Workload`] names every (application, input set) pair.
pub trait App: Sync {
    /// Bytes of shared heap the TreadMarks version allocates from.
    fn heap_bytes(&self) -> usize;
    /// Problem-size description printed in the Table 1 reproduction.
    fn problem_size(&self) -> String;
    /// The sequential reference: the baseline of Table 1 and of every
    /// speedup curve.
    fn sequential(&self) -> SeqRun;
    /// One process of the TreadMarks version; returns its checksum
    /// contribution.
    fn dsm_body(&self, tmk: &Tmk) -> f64;
    /// One process of the PVM version; returns its checksum contribution.
    fn pvm_body(&self, pvm: &Pvm) -> f64;
}

/// Run `app` under `sys` on `cfg.nprocs` processes over `cfg`'s cluster
/// model and gather the paper's metrics.  A deadlock, livelock or
/// fault-plan crash comes back as a structured [`RunFailure`], which the
/// fuzzing harness classifies as a finding.
pub fn run<A: App>(app: &A, sys: System, cfg: &ClusterConfig) -> Result<AppRun, RunFailure> {
    match sys {
        System::TreadMarks(protocol) => {
            try_run_treadmarks_on(cfg, app.heap_bytes(), protocol, |tmk| app.dsm_body(tmk))
        }
        System::Pvm => try_run_pvm_on(cfg, |pvm| app.pvm_body(pvm)),
    }
}

/// Run `body` on TreadMarks processes over `cfg`'s cluster model under the
/// given coherence protocol.  The body returns the process's local checksum
/// *contribution*; the contributions are summed into the run's checksum (so
/// a gather that the paper's programs do not perform is not needed just for
/// validation).
fn try_run_treadmarks_on<F>(
    cfg: &ClusterConfig,
    heap_bytes: usize,
    protocol: ProtocolKind,
    body: F,
) -> Result<AppRun, RunFailure>
where
    F: Fn(&Tmk) -> f64 + Send + Sync,
{
    // The analysis layer lives outside the simulated machine: the recorder
    // rides the runtime and the clock table is plain shared process memory,
    // so enabling it cannot change any virtual time or counter.
    let table = cfg.analysis.enabled().then(|| Arc::new(SyncClocks::new()));
    let rep = Cluster::try_run(cfg.clone(), {
        let table = table.clone();
        move |p| {
            let tmk = Tmk::with_heap_and_protocol(p, heap_bytes, protocol);
            if let Some(table) = &table {
                tmk.enable_racecheck(Arc::clone(table));
            }
            let checksum = body(&tmk);
            tmk.exit();
            (checksum, (tmk.stats(), tmk.take_race_log()))
        }
    })?;
    let (run, ranks) = finish(cfg, System::TreadMarks(protocol), rep, |(st, _)| Some(st));
    let race = table.map(|_| {
        let logs = ranks
            .into_iter()
            .map(|(_, log)| log.expect("racecheck was enabled on every rank"));
        race::analyze(cfg.nprocs, logs.collect())
    });
    Ok(AppRun { race, ..run })
}

/// Run `body` on PVM processes over `cfg`'s cluster model.
fn try_run_pvm_on<F>(cfg: &ClusterConfig, body: F) -> Result<AppRun, RunFailure>
where
    F: Fn(&Pvm) -> f64 + Send + Sync,
{
    let rep = Cluster::try_run(cfg.clone(), move |p| (body(&Pvm::new(p)), ()))?;
    Ok(finish(cfg, System::Pvm, rep, |_| None).0)
}

/// The [`AppRun`] of a finished run whose ranks each returned
/// `(checksum, R)`, plus the ranks' `R`s.  Messages and data follow the
/// module doc's convention for `system`; `tmk_of` finds a rank's DSM
/// statistics, aggregated into `tmk_stats` (and, under `oracle-checks`,
/// cross-checked against the observability output).
fn finish<R>(
    cfg: &ClusterConfig,
    system: System,
    rep: ClusterReport<(f64, R)>,
    tmk_of: fn(&R) -> Option<&TmkStats>,
) -> (AppRun, Vec<R>) {
    let per_rank: Option<Vec<&TmkStats>> = rep.results.iter().map(|(_, r)| tmk_of(r)).collect();
    #[cfg(feature = "oracle-checks")]
    if let Some(obs) = &rep.obs {
        cross_check_obs(cfg.obs, obs, &rep.stats, per_rank.as_deref());
    }
    let tmk_stats = per_rank.map(|ranks| {
        let mut agg = TmkStats::default();
        for st in ranks {
            agg.merge(st);
        }
        agg
    });
    let run = AppRun {
        system,
        nprocs: cfg.nprocs,
        checksum: rep.results.iter().map(|(c, _)| *c).sum(),
        time: rep.parallel_time(),
        messages: match system {
            System::Pvm => rep.total_messages(),
            System::TreadMarks(_) => rep.total_datagrams(),
        },
        kilobytes: rep.total_kilobytes(),
        sched_seed: cfg.sched_seed,
        fault_hash: cfg.fault.hash(),
        faults_injected: rep.faults_injected,
        tmk_stats,
        proc_stats: rep.stats,
        obs: rep.obs,
        race: None,
    };
    (run, rep.results.into_iter().map(|(_, r)| r).collect())
}

/// Cross-check the observability output against the independently maintained
/// Table-2 counters: the span counts of the metrics layer must equal the
/// protocol's own accounting (one fault span per counted fault, one
/// barrier-wait span per barrier episode, one lock-wait span per remote
/// acquire), and at trace level the central event stream must agree with the
/// transport's per-process message counters.  Any drift between the
/// instrumentation and the accounting is a bug in one of them.
#[cfg(feature = "oracle-checks")]
fn cross_check_obs(
    level: cluster::ObsLevel,
    obs: &ClusterObs,
    proc_stats: &[ProcStats],
    tmk_stats: Option<&[&TmkStats]>,
) {
    use cluster::obs::EventKind;
    use cluster::SpanCat;
    if let Some(tmk) = tmk_stats {
        for (rank, (po, st)) in obs.procs.iter().zip(tmk).enumerate() {
            assert_eq!(
                po.span_count(SpanCat::Fault),
                st.page_faults,
                "process {rank}: fault spans vs page_faults"
            );
            assert_eq!(
                po.span_count(SpanCat::BarrierWait),
                st.barriers,
                "process {rank}: barrier-wait spans vs barriers"
            );
            assert_eq!(
                po.span_count(SpanCat::LockWait),
                st.remote_lock_acquires,
                "process {rank}: lock-wait spans vs remote_lock_acquires"
            );
            assert_eq!(
                po.span_count(SpanCat::Gc),
                st.gc_collections,
                "process {rank}: gc spans vs gc_collections"
            );
        }
    }
    if level == cluster::ObsLevel::Trace {
        let mut sends = vec![0u64; proc_stats.len()];
        let mut consumes = vec![0u64; proc_stats.len()];
        for ev in &obs.central {
            match ev.kind {
                EventKind::Send { .. } => sends[ev.rank as usize] += 1,
                EventKind::Consume { .. } => consumes[ev.rank as usize] += 1,
                _ => {}
            }
        }
        for (rank, st) in proc_stats.iter().enumerate() {
            assert_eq!(
                sends[rank], st.messages_sent,
                "process {rank}: trace sends vs messages_sent"
            );
            assert_eq!(
                consumes[rank], st.messages_received,
                "process {rank}: trace consumes vs messages_received"
            );
        }
    }
}

/// Partition `count` items into `nprocs` contiguous chunks and return the
/// half-open range owned by `rank` — the block distribution every
/// application in the study uses.
pub fn block_range(count: usize, nprocs: usize, rank: usize) -> std::ops::Range<usize> {
    let base = count / nprocs;
    let extra = count % nprocs;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..start + len
}

/// Shorthands the per-application unit tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::{ClusterConfig, ProtocolKind, System};

    /// The paper's own DSM: TreadMarks under lazy release consistency.
    pub const LRC: System = System::TreadMarks(ProtocolKind::Lrc);

    /// The paper's testbed at `nprocs` processes.
    pub fn fddi(nprocs: usize) -> ClusterConfig {
        ClusterConfig::calibrated_fddi(nprocs)
    }
}

#[cfg(test)]
mod tests {
    use super::testing::fddi;
    use super::*;

    #[test]
    fn block_range_covers_everything_without_overlap() {
        for &(count, nprocs) in &[(10usize, 3usize), (8, 8), (7, 8), (100, 6), (1, 1)] {
            let mut covered = vec![false; count];
            for r in 0..nprocs {
                for i in block_range(count, nprocs, r) {
                    assert!(!covered[i], "index {i} covered twice");
                    covered[i] = true;
                }
            }
            assert!(
                covered.into_iter().all(|c| c),
                "{count}/{nprocs} not covered"
            );
        }
    }

    #[test]
    fn every_system_name_and_alias_parses_back_in_any_case() {
        for sys in System::all() {
            for name in [sys.name().to_string(), sys.name().to_ascii_uppercase()] {
                assert_eq!(name.parse::<System>(), Ok(sys), "{name}");
            }
        }
        for (alias, protocol) in [
            ("treadmarks", ProtocolKind::Lrc),
            ("TMK-HLRC", ProtocolKind::Hlrc),
            ("tmk-sc", ProtocolKind::Sc),
        ] {
            assert_eq!(alias.parse(), Ok(System::TreadMarks(protocol)), "{alias}");
        }
        assert_eq!(
            "MPI".parse::<System>(),
            Err("unknown system 'mpi'; known systems: lrc, hlrc, sc, pvm".to_string())
        );
    }

    #[test]
    fn block_range_is_balanced() {
        let sizes: Vec<usize> = (0..8).map(|r| block_range(100, 8, r).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn treadmarks_runner_reports_messages() {
        // Rank 1 rewrites a whole page, so rank 0's fault fetches a 4 KiB
        // diff: three datagrams at Ethernet's 1,500-byte MTU, so only
        // TreadMarks' counting rule counts that reply three times.
        const N: usize = 512;
        let cfg = ClusterConfig::ethernet_10mbit(2);
        let run = try_run_treadmarks_on(&cfg, 1 << 20, ProtocolKind::Lrc, |tmk| {
            let a = tmk.malloc_aligned(N * 8, 4096);
            if tmk.id() == 1 {
                tmk.write_slice(a, &[1.0; N]);
            }
            tmk.barrier(0);
            if tmk.id() == 0 {
                let mut page = [0.0; N];
                tmk.read_slice(a, &mut page);
                page.iter().sum()
            } else {
                0.0
            }
        })
        .unwrap();
        assert_eq!(run.checksum, N as f64);
        let sends: u64 = run.proc_stats.iter().map(|s| s.messages_sent).sum();
        let datagrams: u64 = run.proc_stats.iter().map(|s| s.datagrams_sent).sum();
        assert_eq!(run.messages, datagrams, "TreadMarks counts datagrams");
        assert!(datagrams > sends, "{datagrams} datagrams, {sends} sends");
        assert!(run.time > 0.0);
        assert!(run.tmk_stats.is_some());
    }

    #[test]
    fn runners_honour_an_arbitrary_cluster_model() {
        // The same two-process exchange on Ethernet and on the ideal net:
        // identical answers, very different virtual times — proof that the
        // full ClusterConfig (not just nprocs) reaches the simulation.
        let body = |tmk: &Tmk| {
            let a = tmk.malloc(8);
            if tmk.id() == 0 {
                tmk.write::<f64>(a, 7.0);
            }
            tmk.barrier(0);
            let v = tmk.read::<f64>(a);
            tmk.barrier(1);
            if tmk.id() == 0 {
                v
            } else {
                0.0
            }
        };
        let on = |cfg| try_run_treadmarks_on(&cfg, 1 << 20, ProtocolKind::Lrc, body).unwrap();
        let slow = on(ClusterConfig::ethernet_10mbit(2));
        let fast = on(ClusterConfig::ideal(2));
        assert_eq!(slow.checksum, 7.0);
        assert_eq!(fast.checksum, 7.0);
        assert!(
            slow.time > 10.0 * fast.time,
            "Ethernet {} vs ideal {}",
            slow.time,
            fast.time
        );
        let pvm_run = try_run_pvm_on(&ClusterConfig::atm_155mbit(2), |pvm| {
            if pvm.id() == 0 {
                let mut b = pvm.new_buffer();
                b.pack(&[2.5f64]);
                pvm.send(1, 1, b);
                0.0
            } else {
                pvm.recv(Some(0), 1).unpack::<f64>(1)[0]
            }
        })
        .unwrap();
        assert_eq!(pvm_run.checksum, 2.5);
        assert_eq!(pvm_run.nprocs, 2);
    }

    #[test]
    fn pvm_runner_reports_user_messages() {
        // 2,048 f64 values are 16 KiB: one user message, but two datagrams
        // at the FDDI MTU, so only PVM's counting rule gives 1.
        const N: usize = 2048;
        let run = try_run_pvm_on(&fddi(2), |pvm| {
            if pvm.id() == 0 {
                let mut b = pvm.new_buffer();
                b.pack(&[3.5f64; N]);
                pvm.send(1, 1, b);
                0.0
            } else {
                pvm.recv(Some(0), 1).unpack::<f64>(N).iter().sum()
            }
        })
        .unwrap();
        assert_eq!(run.checksum, 3.5 * N as f64);
        assert_eq!(run.messages, 1);
        assert_eq!(run.kilobytes, 16.0);
        assert_eq!(run.proc_stats[0].datagrams_sent, 2);
    }
}
