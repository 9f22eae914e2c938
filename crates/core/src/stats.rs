//! Runtime statistics of a DSM process.

/// Counters describing what the TreadMarks runtime did on one process.
///
/// These are the quantities the paper's analysis sections reason about:
/// synchronization operations, page faults, diff requests, and the amount of
/// diff data moved.  (Message and byte totals are tracked by the `cluster`
/// transport; these counters explain *why* those messages were sent.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TmkStats {
    /// Lock acquires satisfied locally because the token was already here.
    pub local_lock_acquires: u64,
    /// Lock acquires that required messages to the manager / last holder.
    pub remote_lock_acquires: u64,
    /// Barrier episodes.
    pub barriers: u64,
    /// Access faults on invalid pages.
    pub page_faults: u64,
    /// Diff request messages sent while handling faults.
    pub diff_requests_sent: u64,
    /// Diff requests served for other processes.
    pub diff_requests_served: u64,
    /// Twins created (first write to a page in an interval).
    pub twins_created: u64,
    /// Diffs created at interval close.
    pub diffs_created: u64,
    /// Diffs received and applied.
    pub diffs_applied: u64,
    /// Encoded bytes of the diffs received.
    pub diff_bytes_received: u64,
    /// HLRC: flush messages sent to remote homes at interval close.
    pub diff_flushes_sent: u64,
    /// HLRC: flushed diffs applied to master copies homed here.
    pub diff_flushes_served: u64,
    /// HLRC: full-page fetch requests sent while handling faults.
    pub page_requests_sent: u64,
    /// HLRC: full-page fetches served for other processes.
    pub page_requests_served: u64,
    /// HLRC: bytes of full pages fetched from homes.
    pub page_bytes_fetched: u64,
    /// SC: exclusive-ownership transfers received (write faults resolved by
    /// taking the page over from its previous owner or manager).
    pub ownership_transfers: u64,
    /// SC: invalidation messages sent while acquiring exclusive ownership.
    pub invalidations_sent: u64,
    /// Barrier-time garbage collections performed.
    pub gc_collections: u64,
}

impl TmkStats {
    /// Merge the counters of another process into this one (for cluster-wide
    /// aggregation in the benchmark harness).
    pub fn merge(&mut self, other: &TmkStats) {
        self.local_lock_acquires += other.local_lock_acquires;
        self.remote_lock_acquires += other.remote_lock_acquires;
        self.barriers += other.barriers;
        self.page_faults += other.page_faults;
        self.diff_requests_sent += other.diff_requests_sent;
        self.diff_requests_served += other.diff_requests_served;
        self.twins_created += other.twins_created;
        self.diffs_created += other.diffs_created;
        self.diffs_applied += other.diffs_applied;
        self.diff_bytes_received += other.diff_bytes_received;
        self.diff_flushes_sent += other.diff_flushes_sent;
        self.diff_flushes_served += other.diff_flushes_served;
        self.page_requests_sent += other.page_requests_sent;
        self.page_requests_served += other.page_requests_served;
        self.page_bytes_fetched += other.page_bytes_fetched;
        self.ownership_transfers += other.ownership_transfers;
        self.invalidations_sent += other.invalidations_sent;
        self.gc_collections += other.gc_collections;
    }

    /// Fault-service request round-trips: diff requests under LRC plus
    /// full-page requests under HLRC.  The quantity the protocol comparison
    /// cares about — HLRC needs exactly one round trip per fault, LRC one
    /// per member of the dominating writer set.
    pub fn fault_round_trips(&self) -> u64 {
        self.diff_requests_sent + self.page_requests_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let mut a = TmkStats {
            page_faults: 2,
            diff_requests_sent: 3,
            barriers: 1,
            ..Default::default()
        };
        let b = TmkStats {
            page_faults: 5,
            diffs_created: 7,
            barriers: 1,
            page_requests_sent: 2,
            diff_flushes_sent: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.page_faults, 7);
        assert_eq!(a.diff_requests_sent, 3);
        assert_eq!(a.diffs_created, 7);
        assert_eq!(a.barriers, 2);
        assert_eq!(a.page_requests_sent, 2);
        assert_eq!(a.diff_flushes_sent, 4);
        assert_eq!(a.fault_round_trips(), 5);
    }
}
