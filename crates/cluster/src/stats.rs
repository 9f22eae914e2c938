//! Per-process and cluster-wide communication statistics.
//!
//! The paper's Table 2 reports, for the 8-processor execution of each
//! application, the number of messages and the amount of data sent under
//! each system.  For PVM the paper counts user-level messages and user data;
//! for TreadMarks it counts UDP messages and total data.  The transport layer
//! of this crate counts all of them for every rank: logical messages (one
//! per send call, so one per PVM user-level send), *datagrams* (after MTU
//! fragmentation, TreadMarks' UDP messages) and payload bytes.

use crate::obs::ClusterObs;

/// Communication and timing statistics of a single simulated process.
#[derive(Debug, Clone, Default)]
pub struct ProcStats {
    /// Virtual time (seconds) at which the process finished its closure.
    pub finish_time: f64,
    /// Logical messages sent (one per `send` call).
    pub messages_sent: u64,
    /// Transport datagrams sent (after MTU fragmentation).
    pub datagrams_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Logical messages received.
    pub messages_received: u64,
    /// Transport datagrams received (after MTU fragmentation).  Cluster-wide
    /// this must equal the sum of `datagrams_sent` for messages that were
    /// consumed, so Table-2 datagram counts can be cross-checked on the
    /// receive side.
    pub datagrams_received: u64,
}

/// The result of running a closure on every process of a cluster.
#[derive(Debug)]
pub struct ClusterReport<R> {
    /// Per-process return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-process statistics, indexed by rank.
    pub stats: Vec<ProcStats>,
    /// Observability output of the run; `None` when the configuration's
    /// [`obs`](crate::ClusterConfig::obs) level is `Off`.
    pub obs: Option<ClusterObs>,
    /// Faults the run's [`crate::fault::FaultPlan`] injected: drops,
    /// duplicates, delays, partition hits and applied reorder slips (not
    /// crashes, not seeded tie-breaks).  0 for an empty plan.
    pub faults_injected: u64,
}

impl<R> ClusterReport<R> {
    /// The parallel execution time: the latest finish time over all processes.
    pub fn parallel_time(&self) -> f64 {
        self.stats.iter().map(|s| s.finish_time).fold(0.0, f64::max)
    }

    /// Total logical messages sent across all processes.
    pub fn total_messages(&self) -> u64 {
        self.stats.iter().map(|s| s.messages_sent).sum()
    }

    /// Total transport datagrams sent across all processes.
    pub fn total_datagrams(&self) -> u64 {
        self.stats.iter().map(|s| s.datagrams_sent).sum()
    }

    /// Total payload bytes sent across all processes.
    pub fn total_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_sent).sum()
    }

    /// Total payload kilobytes sent across all processes (Table 2 units).
    pub fn total_kilobytes(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(finish: f64, msgs: u64, bytes: u64) -> ProcStats {
        ProcStats {
            finish_time: finish,
            messages_sent: msgs,
            datagrams_sent: msgs,
            bytes_sent: bytes,
            ..Default::default()
        }
    }

    #[test]
    fn report_aggregates() {
        let rep = ClusterReport {
            results: vec![(), (), ()],
            stats: vec![mk(1.0, 2, 100), mk(3.5, 4, 50), mk(2.0, 0, 0)],
            obs: None,
            faults_injected: 0,
        };
        assert_eq!(rep.parallel_time(), 3.5);
        assert_eq!(rep.total_messages(), 6);
        assert_eq!(rep.total_bytes(), 150);
        assert!((rep.total_kilobytes() - 150.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero() {
        let rep: ClusterReport<()> = ClusterReport {
            results: vec![],
            stats: vec![],
            obs: None,
            faults_injected: 0,
        };
        assert_eq!(rep.parallel_time(), 0.0);
        assert_eq!(rep.total_messages(), 0);
    }
}
