//! A simulated network of workstations.
//!
//! The SC'95 study "Message Passing Versus Distributed Shared Memory on
//! Networks of Workstations" executed its experiments on eight HP-735
//! workstations connected by a 100 Mbit/s FDDI ring.  This crate provides the
//! equivalent substrate for the reproduction: a [`Cluster`] runs every
//! simulated *process* (workstation) as a coroutine on one OS thread per
//! run, and every process owns a [`Proc`] handle through which it
//!
//! * advances a **virtual clock** for computation via [`Proc::compute`], and
//! * exchanges tagged messages via [`Proc::send`] / [`Proc::recv`] — bytes,
//!   or a value shared with the receiver ([`Payload`]) —
//!   which charge a calibrated communication cost (fixed per-datagram
//!   latency, per-fragment overhead, per-byte bandwidth cost, and optional
//!   shared-medium contention that models FDDI ring saturation).
//!
//! Both runtime systems of the study are built on top of this crate: the
//! PVM-style message passing library (`msgpass`) and the TreadMarks-style
//! software DSM (`treadmarks`).  Both hold a value in one layout, [`Word`]'s
//! little-endian bytes, in a shared page and a PVM buffer alike, since every
//! simulated host is the same machine.  All quantities the paper reports —
//! virtual execution time, number of messages, and bytes transferred — are
//! tracked per process in [`ProcStats`] and aggregated by [`Cluster::run`].
//!
//! Execution is **deterministic**: a conservative virtual-time arbiter (see
//! `sched` and [`net`]) serialises every shared-medium acquisition and
//! mailbox interaction in virtual-timestamp order, so two runs of the same
//! program produce byte-identical times and counters, and a protocol
//! deadlock is detected and reported (with its wait graph) the moment it
//! occurs rather than after a wall-clock timeout.
//!
//! # Example
//!
//! ```
//! use cluster::{Cluster, ClusterConfig};
//! use bytes::Bytes;
//!
//! let cfg = ClusterConfig::calibrated_fddi(2);
//! let report = Cluster::run(cfg, |p| {
//!     if p.id() == 0 {
//!         p.compute(0.010); // 10 ms of modeled computation
//!         p.send(1, 7, Bytes::from_static(b"hello"));
//!         0usize
//!     } else {
//!         let m = p.recv(Some(0), 7);
//!         m.payload.len()
//!     }
//! });
//! assert_eq!(report.results[1], 5);
//! assert!(report.stats[1].finish_time > 0.010);
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod config;
mod coro;
pub mod fault;
pub mod net;
pub mod obs;
pub mod proc;
pub mod scenario;
pub(crate) mod sched;
pub mod stats;

pub use analysis::AnalysisLevel;
pub use config::{ClusterConfig, NetModel, NetPreset, Overrides, Word};
pub use fault::{Crash, CrashPoint, FaultKind, FaultPlan, Partition};
pub use net::{Message, Payload, RunFailure, Tag};
pub use obs::{ClusterObs, Histogram, ObsLevel, ProcObs, SpanCat};
pub use proc::Proc;
pub use scenario::Scenario;
pub use stats::{ClusterReport, ProcStats};

use std::rc::Rc;

/// A simulated cluster of workstations.
///
/// `Cluster` is a thin front end: [`Cluster::run`] starts a thread of the
/// run's own, builds the network core there, starts one coroutine per
/// process on it, hands each a [`Proc`] handle, runs the user closure to
/// completion on every process and returns the per-process results together
/// with the per-process communication statistics.
pub struct Cluster;

impl Cluster {
    /// Run `f` on `cfg.nprocs` simulated processes and collect the results.
    ///
    /// The closure receives the [`Proc`] handle of its process.  Each
    /// process runs on its own 2 MiB stack — all of them on one OS thread
    /// spawned for the run, a grant being a stack switch — and the
    /// cluster's conservative virtual-time arbiter serialises
    /// every shared-medium and mailbox interaction in virtual-timestamp
    /// order (ties broken by rank), so all reported times *and counters* are
    /// bit-identical across runs: the outcome is a pure function of the
    /// program and the cost model, never of OS scheduling or the physical
    /// core count of the host.  A process that overflows its stack dies on
    /// the guard page below it with a bare SIGSEGV, not `std`'s message.
    ///
    /// # Panics
    ///
    /// Panics if any process panics (the lowest-rank panic is propagated),
    /// if a process's stack cannot be mapped (one line naming the rank, the
    /// size and the OS error), or on any structured [`RunFailure`] — a
    /// virtual-time deadlock or livelock (the panic message carries the full
    /// wait graph and fault context) or a fault-plan crash.  Harnesses that
    /// must survive failures (the fuzzer) use [`Cluster::try_run`] instead.
    pub fn run<F, R>(cfg: ClusterConfig, f: F) -> ClusterReport<R>
    where
        F: Fn(&Proc) -> R + Send + Sync,
        R: Send,
    {
        Self::try_run(cfg, f).unwrap_or_else(|failure| panic!("{failure}"))
    }

    /// As [`Cluster::run`], but deadlocks, livelocks and fault-plan crashes
    /// come back as a structured [`RunFailure`] instead of a panic, so a
    /// fuzzing harness can classify them as findings and keep going.
    ///
    /// Genuine panics in the process closure (assertion failures, runtime
    /// bugs) still propagate as panics: they are errors in the program under
    /// test, not verdicts about its schedule.
    ///
    /// # Panics
    ///
    /// Panics if a process panics (the lowest-rank panic is propagated), or
    /// if a process's stack cannot be mapped.
    pub fn try_run<F, R>(cfg: ClusterConfig, f: F) -> Result<ClusterReport<R>, RunFailure>
    where
        F: Fn(&Proc) -> R + Send + Sync,
        R: Send,
    {
        assert!(cfg.nprocs >= 1, "a cluster needs at least one process");
        let rank = |core: &Rc<net::NetworkCore>, id: usize| {
            let proc = Proc::new(id, Rc::clone(core));
            // A panicking process aborts the whole cluster: peers
            // blocked on messages it will never send fail fast
            // instead of hanging the run.  `finish` (which hands
            // the scheduling token back) runs inside the guard so a
            // deadlock detected at finish aborts the cluster too.
            // The teardown marker is not a panic: the core has already
            // recorded why it ended the rank, and a crashed rank's peers
            // must run on — the crash kills one process, not the cluster.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let r = f(&proc);
                let (stats, po) = proc.finish();
                (r, stats, po)
            }));
            if outcome.as_ref().is_err_and(|p| !p.is::<net::Teardown>()) {
                core.abort(id);
            }
            outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        };
        // The ranks are coroutines on one OS thread per run (`coro`), which
        // owns the network core: a grant is a stack switch, and the thread's
        // exit gives the run's allocator arena back for the next run's
        // thread to take (docs/ARCHITECTURE.md §Handoff).
        // lint:allow(threads): the run's hosting thread.
        let (joined, (ended, central, faults_injected)) = std::thread::scope(|s| {
            s.spawn(|| {
                let core = Rc::new(net::NetworkCore::new(cfg.clone()));
                let joined = coro::run(cfg.nprocs, |id| rank(&core, id));
                let core = Rc::into_inner(core).expect("every rank has dropped its handle");
                (joined, core.into_remains())
            })
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });
        // Every rank has finished before a failure propagates.  The first
        // payload that is not the teardown marker is the root cause,
        // deterministically the lowest-rank originator; every other outcome
        // is the core's record.
        let mut results = Vec::with_capacity(joined.len());
        let mut stats = Vec::with_capacity(joined.len());
        let mut procs = Vec::new();
        for j in joined {
            match j {
                Ok((r, st, po)) => {
                    results.push(r);
                    stats.push(st);
                    procs.extend(po);
                }
                Err(payload) if payload.is::<net::Teardown>() => {}
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        match ended {
            Some(net::Abort::Failed(failure)) => return Err(failure),
            // A panic is recorded with its payload, which was rethrown
            // above; if one ever surfaces alone, rethrow it readably.
            Some(net::Abort::Panic(who)) => panic!("cluster aborted: process {who} panicked"),
            None => {}
        }
        let obs = cfg.obs.enabled().then(|| {
            assert_eq!(procs.len(), results.len(), "a process lost its recorder");
            obs::ClusterObs { procs, central }
        });
        Ok(ClusterReport {
            results,
            stats,
            obs,
            faults_injected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn single_process_runs() {
        let cfg = ClusterConfig::calibrated_fddi(1);
        let rep = Cluster::run(cfg, |p| {
            p.compute(1.5);
            p.clock()
        });
        assert_eq!(rep.results.len(), 1);
        assert!((rep.results[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ping_pong_advances_both_clocks() {
        let cfg = ClusterConfig::calibrated_fddi(2);
        let rep = Cluster::run(cfg, |p| {
            if p.id() == 0 {
                p.send(1, 1, Bytes::from_static(&[1, 2, 3, 4]));
                let m = p.recv(Some(1), 2);
                assert_eq!(m.payload.into_bytes().as_ref(), &[9]);
            } else {
                let m = p.recv(Some(0), 1);
                assert_eq!(m.payload.len(), 4);
                p.send(0, 2, Bytes::from_static(&[9]));
            }
            p.clock()
        });
        // Both processes must have been charged at least two one-way latencies.
        let min = 2.0 * rep.stats[0].config_latency;
        assert!(rep.results[0] >= min, "{} < {}", rep.results[0], min);
        assert!(rep.results[1] >= rep.stats[1].config_latency);
        assert_eq!(rep.stats[0].datagrams_sent, 1);
        assert_eq!(rep.stats[1].datagrams_sent, 1);
    }

    #[test]
    fn broadcast_like_pattern_counts_messages() {
        let n = 4;
        let cfg = ClusterConfig::calibrated_fddi(n);
        let rep = Cluster::run(cfg, |p| {
            if p.id() == 0 {
                for dst in 1..p.nprocs() {
                    p.send(dst, 3, Bytes::from(vec![0u8; 100]));
                }
                0
            } else {
                p.recv(Some(0), 3).payload.len()
            }
        });
        assert_eq!(rep.stats[0].datagrams_sent, (n - 1) as u64);
        assert_eq!(rep.total_datagrams(), (n - 1) as u64);
        assert_eq!(rep.total_bytes(), 100 * (n as u64 - 1));
    }

    #[test]
    fn the_retired_island_fields_are_inert() {
        // `islands` and `island_threads` once selected a scheduler and a
        // threaded engine; nothing reads them any more, so any value is the
        // default run: same report, all eight ranks on one hosting thread.
        // lint:allow(threads): reads which OS thread each rank body runs on.
        let here = || std::thread::current().id();
        let report = |cfg: ClusterConfig| {
            let rep = Cluster::run(cfg, |p| {
                let next = (p.id() + 1) % p.nprocs();
                p.compute(0.001 * (p.id() + 1) as f64);
                p.send(next, 1, Bytes::from(vec![p.id() as u8; 64]));
                (p.recv(None, 1).payload.into_bytes(), here())
            });
            let (payloads, mut hosts): (Vec<_>, Vec<_>) = rep.results.into_iter().unzip();
            hosts.dedup();
            assert_eq!(hosts.len(), 1, "one hosting thread per run");
            assert_ne!(hosts[0], here(), "ranks run off the calling thread");
            format!(
                "{payloads:?} {:?} {:?} {:?}",
                rep.stats, rep.faults_injected, rep.obs
            )
        };
        let retired = ClusterConfig {
            islands: 4,
            island_threads: 2,
            ..ClusterConfig::calibrated_fddi(8)
        };
        assert_eq!(report(ClusterConfig::calibrated_fddi(8)), report(retired));
    }
}
