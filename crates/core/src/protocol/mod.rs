//! The coherence-protocol layer.
//!
//! The DSM runtime separates *mechanism* from *policy*.  The mechanism — the
//! page table, twins and diffs, vector clocks, the interval log, the wire
//! codec and the request service loop — is protocol-neutral and lives in
//! [`crate::state`], [`crate::diffs`], [`crate::page`], [`crate::proto`] and
//! [`crate::process`].  The policy — what happens at an access fault, what
//! becomes of the diffs created when an interval closes, which pages a write
//! notice invalidates, and which wire messages exist at all — is chosen per
//! endpoint by [`ProtocolKind`] when a [`Tmk`] is created:
//!
//! * [`ProtocolKind::Lrc`] ([`lrc`]) — the paper's TreadMarks protocol:
//!   multiple-writer lazy release consistency with an invalidate protocol.
//!   Diffs stay with their writers; a fault sends a diff request to each
//!   member of the minimal dominating set of writers, and responders
//!   practice *diff accumulation*.
//! * [`ProtocolKind::Hlrc`] ([`hlrc`]) — home-based LRC: every page has a
//!   *home*; writers flush diffs to the home eagerly at release/barrier and
//!   a fault fetches the whole page from the home in one round trip.
//! * [`ProtocolKind::Sc`] ([`sc`]) — the sequential-consistency baseline:
//!   a single-writer, invalidate-on-write ownership protocol with no twins,
//!   diffs or intervals — the naive DSM the paper's design arguments are
//!   measured against.
//!
//! The set is closed, so the layer is one `match` on the kind per policy
//! point, all in this file: fault and request service, the write trap and
//! its completion, GC preparation, close-time diff disposal, HLRC's
//! master-copy predicate, and the `--list`/Table-2 renderings.  Each backend
//! module holds free functions over the shared core; SC's per-process
//! ownership tables are the typed `DsmState::sc` field.  Adding a protocol
//! means a variant, a module, and one arm per `match` here (the compiler
//! lists them) — see `docs/ARCHITECTURE.md` §"Writing a new protocol
//! backend".

pub mod hlrc;
pub mod lrc;
pub mod sc;

use crate::page::PageId;
use crate::process::Tmk;
use crate::state::DsmState;
use crate::stats::TmkStats;
use crate::vc::VectorClock;
use crate::{Diff, MEM_BANDWIDTH, PAGE_FAULT_COST};
use cluster::config::PAGE_SIZE;
use cluster::Message;

/// Which coherence protocol a DSM endpoint runs.
///
/// # Example
///
/// ```
/// use treadmarks::ProtocolKind;
///
/// // Three backends, one namespace: parse CLI names, print labels.
/// assert_eq!(ProtocolKind::all().len(), 3);
/// assert_eq!("hlrc".parse::<ProtocolKind>().unwrap(), ProtocolKind::Hlrc);
/// assert_eq!("sc".parse::<ProtocolKind>().unwrap(), ProtocolKind::Sc);
/// assert_eq!(ProtocolKind::Sc.name(), "sc");
/// assert_eq!(ProtocolKind::Sc.system_label(), "TMK-SC");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Multiple-writer, diff-based, invalidate lazy release consistency —
    /// the TreadMarks protocol of the paper.
    #[default]
    Lrc,
    /// Home-based LRC: diffs flushed eagerly to a per-page home at
    /// release/barrier, faults fetch the full page from the home.
    Hlrc,
    /// Sequential consistency: single-writer pages with ownership transfer
    /// and invalidate-on-write — no twins, no diffs, no intervals.
    Sc,
}

impl ProtocolKind {
    /// Every protocol backend, in comparison order.
    pub fn all() -> [ProtocolKind; 3] {
        [ProtocolKind::Lrc, ProtocolKind::Hlrc, ProtocolKind::Sc]
    }

    /// The lowercase CLI name of the backend (`lrc` / `hlrc` / `sc`).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Lrc => "lrc",
            ProtocolKind::Hlrc => "hlrc",
            ProtocolKind::Sc => "sc",
        }
    }

    /// The system label used in the paper-style tables and figures.  The
    /// paper's own protocol keeps the bare "TreadMarks" name; the other
    /// backends are the additions of this reproduction.
    pub fn system_label(&self) -> &'static str {
        match self {
            ProtocolKind::Lrc => "TreadMarks",
            ProtocolKind::Hlrc => "TMK-HLRC",
            ProtocolKind::Sc => "TMK-SC",
        }
    }

    /// One-line description used by `reproduce --list`.
    pub fn describe(&self) -> &'static str {
        match self {
            ProtocolKind::Lrc => {
                "multiple-writer lazy release consistency (the paper's TreadMarks protocol): \
                 diffs stay with their writers, faults fetch from the dominating writer set"
            }
            ProtocolKind::Hlrc => {
                "home-based lazy release consistency: diffs flushed eagerly to a per-page home \
                 at release/barrier, faults fetch the full page from the home"
            }
            ProtocolKind::Sc => {
                "sequential consistency (single-writer baseline): page ownership transfer with \
                 invalidate-on-write — no twins, diffs or intervals"
            }
        }
    }

    /// The protocol's per-run Table-2 counter summary (the stats
    /// contribution rendered under the message/byte table).
    pub fn counter_summary(&self, stats: &TmkStats) -> String {
        match self {
            ProtocolKind::Lrc | ProtocolKind::Hlrc => format!(
                "{:>8} faults {:>8} diff-req {:>8} page-req {:>8} flushes \
                 {:>10} diff-KB {:>10} page-KB",
                stats.page_faults,
                stats.diff_requests_sent,
                stats.page_requests_sent,
                stats.diff_flushes_sent,
                (stats.diff_bytes_received / 1024),
                (stats.page_bytes_fetched / 1024),
            ),
            ProtocolKind::Sc => format!(
                "{:>8} faults {:>8} page-req {:>8} transfers {:>8} invals {:>10} page-KB",
                stats.page_faults,
                stats.page_requests_sent,
                stats.ownership_transfers,
                stats.invalidations_sent,
                (stats.page_bytes_fetched / 1024),
            ),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ProtocolKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lrc" | "treadmarks" | "tmk" => Ok(ProtocolKind::Lrc),
            "hlrc" | "home" | "home-based" => Ok(ProtocolKind::Hlrc),
            "sc" | "seqcon" | "sequential" => Ok(ProtocolKind::Sc),
            other => Err(format!(
                "unknown protocol '{other}' (expected lrc, hlrc or sc)"
            )),
        }
    }
}

impl DsmState {
    /// Whether this process holds the master copy of `page`: under HLRC the
    /// home's copy is kept current by flushes before any notice can arrive,
    /// so a write notice never invalidates it and closing an interval needs
    /// no diff for it.  Never true under LRC or SC.
    pub(crate) fn holds_master_copy(&self, page: PageId) -> bool {
        self.protocol == ProtocolKind::Hlrc && self.home_of(page) == self.me
    }

    /// Close-time disposal of one diff created by interval `seq`: retain it
    /// in the local diff store for later diff requests (LRC), or hand it
    /// back for flushing to its remote home (HLRC).  SC never closes an
    /// interval with a dirty page, so it never gets here.
    pub(crate) fn dispose_closed_diff(
        &mut self,
        page: PageId,
        seq: u32,
        vc: &VectorClock,
        diff: Diff,
    ) -> Option<(PageId, Diff)> {
        match self.protocol {
            ProtocolKind::Hlrc => Some((page, diff)),
            ProtocolKind::Lrc | ProtocolKind::Sc => {
                self.retain_own_diff(page, seq, vc, diff);
                None
            }
        }
    }
}

impl Tmk<'_> {
    /// The access-fault path: the generic entry charging the fixed
    /// fault-entry cost and counting the fault, with one round of the
    /// protocol's fault service per pass.  One service round can leave the
    /// page invalid if a *new* write notice for it arrived while the fault
    /// was waiting for responses (a barrier arrival served in the meantime
    /// applies fresh interval records), so the fault repeats until the page
    /// is clean.
    pub(crate) fn fault_in(&self, page: PageId) {
        // One fault span per counted fault (entry to validated page), so the
        // metrics layer's fault-service histogram count cross-checks against
        // the `page_faults` counter.
        self.proc().span_begin(cluster::SpanCat::Fault, page as u64);
        self.proc().compute(PAGE_FAULT_COST);
        self.st.borrow_mut().stats.page_faults += 1;
        let protocol = self.protocol();
        loop {
            match protocol {
                ProtocolKind::Lrc => lrc::serve_fault(self, page),
                ProtocolKind::Hlrc => hlrc::serve_fault(self, page),
                ProtocolKind::Sc => sc::serve_fault(self, page),
            }
            if self.st.borrow().is_valid(page) {
                break;
            }
        }
        self.proc().span_end(cluster::SpanCat::Fault);
    }

    /// Serve one protocol-specific wire request (a tag outside the generic
    /// lock/barrier/termination set) and return `None`, or hand `m` back
    /// unserved if it is not a request of this endpoint's protocol.
    pub(crate) fn serve_protocol_request(&self, m: Message) -> Option<Message> {
        match self.protocol() {
            ProtocolKind::Lrc => lrc::serve_request(self, m),
            ProtocolKind::Hlrc => hlrc::serve_request(self, m),
            ProtocolKind::Sc => sc::serve_request(self, m),
        }
    }

    /// Make every page spanned by a write access writable.  The twinning
    /// protocols validate the span (fault loop) and then twin + dirty each
    /// page; SC acquires exclusive ownership instead.
    pub(crate) fn prepare_write(&self, addr: usize, len: usize) {
        match self.protocol() {
            ProtocolKind::Lrc | ProtocolKind::Hlrc => {
                self.ensure_valid(addr, len);
                let pages = self.st.borrow().pages_spanning(addr, len);
                for page in pages {
                    // The first write of an interval twins the page: charge
                    // the copy.
                    if self.st.borrow_mut().mark_dirty(page) {
                        self.proc().compute(PAGE_SIZE as f64 / MEM_BANDWIDTH);
                    }
                }
            }
            ProtocolKind::Sc => sc::prepare_write(self, addr, len),
        }
    }

    /// A shared write access completed.  SC hands over the ownership
    /// transfers it deferred meanwhile; the twinning protocols need nothing.
    pub(crate) fn access_done(&self) {
        match self.protocol() {
            ProtocolKind::Lrc | ProtocolKind::Hlrc => {}
            ProtocolKind::Sc => sc::access_done(self),
        }
    }

    /// Make the upcoming barrier-time metadata collection safe.  LRC
    /// validates every invalid page and runs an internal sync barrier so no
    /// peer's in-flight diff request can name a collected diff; HLRC and SC
    /// retain nothing a peer could request.
    pub(crate) fn prepare_gc(&self) {
        match self.protocol() {
            ProtocolKind::Lrc => lrc::prepare_gc(self),
            ProtocolKind::Hlrc | ProtocolKind::Sc => {}
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_parse_and_print() {
        for kind in ProtocolKind::all() {
            let round: ProtocolKind = kind.name().parse().unwrap();
            assert_eq!(round, kind);
        }
        assert_eq!("HLRC".parse::<ProtocolKind>().unwrap(), ProtocolKind::Hlrc);
        assert_eq!(
            "treadmarks".parse::<ProtocolKind>().unwrap(),
            ProtocolKind::Lrc
        );
        assert_eq!(
            "sequential".parse::<ProtocolKind>().unwrap(),
            ProtocolKind::Sc
        );
        assert!("eager".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn default_is_the_paper_protocol() {
        assert_eq!(ProtocolKind::default(), ProtocolKind::Lrc);
    }

    #[test]
    fn every_kind_resolves_to_its_own_backend() {
        for kind in ProtocolKind::all() {
            assert!(!kind.describe().is_empty());
            assert!(!kind.system_label().is_empty());
            assert!(!kind.counter_summary(&TmkStats::default()).is_empty());
            // A write through the kind's trap twins the page exactly when
            // the protocol is diff-based; SC holds pages exclusively instead.
            let rep = cluster::Cluster::run(cluster::ClusterConfig::calibrated_fddi(2), |p| {
                let tmk = Tmk::with_protocol(p, kind);
                let a = tmk.malloc(8);
                tmk.barrier(0);
                if tmk.id() == 1 {
                    tmk.write::<i64>(a, 1);
                }
                tmk.barrier(1);
                let twins = tmk.stats().twins_created;
                tmk.exit();
                twins
            });
            let twins = rep.results[1];
            assert_eq!(twins > 0, kind != ProtocolKind::Sc, "{kind}: {twins} twins");
        }
        assert!(ProtocolKind::Lrc.describe().contains("TreadMarks"));
        assert!(ProtocolKind::Hlrc.describe().starts_with("home-based"));
        assert!(ProtocolKind::Sc.describe().contains("no twins"));
    }
}
