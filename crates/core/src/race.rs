//! Happens-before data-race detection for the DSM runtime.
//!
//! Lazy release consistency only guarantees sequentially-consistent results
//! for *data-race-free* programs, so the entire reproduction rests on the
//! nine applications being properly labeled.  This module turns that
//! assumption into a machine-checked property: when a run is started with
//! [`cluster::AnalysisLevel::Race`], every shared read and write is recorded
//! together with an **analysis vector clock**, and a post-mortem pass flags
//! every conflicting access pair (same page, overlapping byte ranges, at
//! least one write, different ranks) that is not ordered by happens-before.
//!
//! # Analysis clocks, not protocol clocks
//!
//! The detector deliberately does **not** reuse the protocol's interval
//! vector clocks: those only advance when an interval is dirty (and the SC
//! backend never advances them at all), so they cannot express the
//! happens-before order of the *program*.  Instead each rank keeps its own
//! analysis clock and applies the textbook lock/barrier vector-clock
//! algorithm, which makes detection uniform across LRC, HLRC and SC:
//!
//! * a rank's own component starts at `1`; accesses are stamped with the
//!   clock current at access time;
//! * every synchronisation object is one [`Edge`] — a lock, or a barrier
//!   episode keyed by the runtime's barrier epoch — with one slot in the
//!   side table;
//! * [`Recorder::release`] joins the rank's clock into the edge's slot, then
//!   increments the rank's own component (lock release; barrier arrival);
//! * [`Recorder::acquire`] joins the slot into the rank's clock (lock grant
//!   applied; barrier release applied).  The barrier manager releases and
//!   acquires at once, after the last arrival and before the first release
//!   message, so its acquire sees every rank's release;
//! * access `a` happens-before access `b` iff
//!   `clock(b)[rank(a)] >= clock(a)[rank(a)]`.
//!
//! The side table ([`SyncClocks`]) is shared process memory, **not** wire
//! traffic: piggybacking analysis clocks on protocol messages would change
//! message sizes and therefore virtual times, and the analysis layer must be
//! invisible to the cost model.  Every release happens *before* the message
//! that transfers the synchronisation right is sent, and every acquire
//! *after* that message is received, so the table is wall-clock ordered by
//! the same queues that order the simulated messages — recording stays
//! deterministic.  A barrier slot is dropped once every rank has acquired
//! it; a lock slot lives for the run.
//!
//! The lock release edge is taken at `lock_release` time rather than at
//! grant time on purpose: the runtime serves lock grants *anachronistically*
//! (the payload is computed at serve time while the departure is backdated
//! to the release time), so copying the clock at grant time would create
//! happens-before edges covering accesses the releaser performed after the
//! release — edges the DSM does not actually promise.
//!
//! See `docs/ANALYSIS.md` for the full model, including why the analyzer
//! checks both directions of every pair and how the report stays
//! byte-identical across reruns and executor widths.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::page::PageId;
use crate::vc::VectorClock;
use cluster::config::PAGE_SIZE;

/// Whether a recorded access read or wrote shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// The access wrote shared memory.
    Write,
    /// The access read shared memory.
    Read,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Write => write!(f, "write"),
            AccessKind::Read => write!(f, "read"),
        }
    }
}

/// The synchronisation context a segment of accesses executed in.
///
/// Purely descriptive — it names the last synchronisation operation the
/// rank performed, so a reported race can say *where* in the program's
/// synchronisation structure each access sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SyncCtx {
    /// Before the rank's first synchronisation operation.
    Start,
    /// After acquiring (and still conceptually inside) the named lock.
    AfterAcquire(u32),
    /// After releasing the named lock.
    AfterRelease(u32),
    /// After the barrier with the given application index
    /// (`u32::MAX` denotes the internal garbage-collection barrier).
    AfterBarrier(u32),
}

impl fmt::Display for SyncCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncCtx::Start => write!(f, "start"),
            SyncCtx::AfterAcquire(l) => write!(f, "holding lock {l}"),
            SyncCtx::AfterRelease(l) => write!(f, "after releasing lock {l}"),
            SyncCtx::AfterBarrier(u32::MAX) => write!(f, "after gc barrier"),
            SyncCtx::AfterBarrier(b) => write!(f, "after barrier {b}"),
        }
    }
}

/// A synchronisation object whose release→acquire edge carries analysis
/// clocks from rank to rank: one slot of [`SyncClocks`] each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Edge {
    /// Lock `id`.  Its slot joins every release and lives for the whole run.
    Lock(u32),
    /// The barrier episode with the runtime's barrier epoch (the GC
    /// barrier's episodes included).  Every rank releases into its slot once
    /// and then acquires it once; the last acquire drops the slot.
    Barrier(u32),
}

/// One edge's slot: the join of every clock released into it.
#[derive(Debug)]
struct Slot {
    clock: VectorClock,
    releases: usize,
    acquires: usize,
}

/// Shared side table carrying analysis clocks across synchronisation edges.
///
/// One instance is shared by all ranks of a racechecked run.  It is *not*
/// part of the simulated machine: see the module docs for why the table is
/// deterministic despite living outside the virtual-time arbiter.  The
/// `Mutex` is there because the run's closure that captures the table must
/// be `Send + Sync`.
#[derive(Debug, Default)]
pub struct SyncClocks {
    edges: Mutex<BTreeMap<Edge, Slot>>,
}

impl SyncClocks {
    /// Create an empty table.
    pub fn new() -> Self {
        SyncClocks::default()
    }
}

/// A coalesced byte range of same-kind accesses within one page and one
/// segment.  `end` is exclusive; `first_ns` is the virtual time of the
/// earliest access the range covers.
#[derive(Debug, Clone, Copy)]
struct ByteRange {
    start: u32,
    end: u32,
    first_ns: u64,
}

/// Accesses of one segment to one page, coalesced per kind.
#[derive(Debug, Default)]
struct PageAccess {
    writes: Vec<ByteRange>,
    reads: Vec<ByteRange>,
}

/// Insert `[start, end)` into a sorted, non-overlapping range list, merging
/// ranges that overlap or touch and keeping the earliest first-access time.
fn insert_range(ranges: &mut Vec<ByteRange>, start: u32, end: u32, now_ns: u64) {
    // Find the first existing range that could merge with the new one.
    let i = ranges.partition_point(|r| r.end < start);
    let mut merged = ByteRange {
        start,
        end,
        first_ns: now_ns,
    };
    let mut j = i;
    while j < ranges.len() && ranges[j].start <= merged.end {
        merged.start = merged.start.min(ranges[j].start);
        merged.end = merged.end.max(ranges[j].end);
        merged.first_ns = merged.first_ns.min(ranges[j].first_ns);
        j += 1;
    }
    ranges.splice(i..j, std::iter::once(merged));
}

/// One maximal run of accesses with a constant analysis clock.
#[derive(Debug)]
struct Segment {
    /// The analysis clock all accesses of this segment are stamped with.
    clock: VectorClock,
    /// Synchronisation context the segment executed in.
    ctx: SyncCtx,
    /// Per-page coalesced accesses.
    pages: BTreeMap<PageId, PageAccess>,
}

impl Segment {
    fn new(clock: VectorClock, ctx: SyncCtx) -> Self {
        Segment {
            clock,
            ctx,
            pages: BTreeMap::new(),
        }
    }
}

/// Per-rank recorder driven by the DSM runtime's access hook and its two
/// synchronisation-edge calls, [`Recorder::release`] and
/// [`Recorder::acquire`].
///
/// Created by `Tmk::enable_racecheck`, harvested by `Tmk::take_race_log`.
/// Recording never touches the virtual clock or sends a message, so a
/// racechecked run reports bit-identical times, counters and checksums.
#[derive(Debug)]
pub struct Recorder {
    rank: usize,
    shared: Arc<SyncClocks>,
    clock: VectorClock,
    cur: Segment,
    done: Vec<Segment>,
    accesses: u64,
}

impl Recorder {
    /// Create a recorder for `rank` of `nprocs` sharing `table`.
    pub fn new(rank: usize, nprocs: usize, table: Arc<SyncClocks>) -> Self {
        let mut clock = VectorClock::new(nprocs);
        clock.increment(rank);
        Recorder {
            rank,
            shared: table,
            cur: Segment::new(clock.clone(), SyncCtx::Start),
            clock,
            done: Vec::new(),
            accesses: 0,
        }
    }

    fn new_segment(&mut self, ctx: SyncCtx) {
        let next = Segment::new(self.clock.clone(), ctx);
        let prev = std::mem::replace(&mut self.cur, next);
        if !prev.pages.is_empty() {
            self.done.push(prev);
        }
    }

    /// Record a shared-memory access of `len` bytes at heap address `addr`.
    pub fn record(&mut self, kind: AccessKind, addr: usize, len: usize, now_ns: u64) {
        debug_assert!(len > 0);
        self.accesses += 1;
        let mut at = addr;
        let end = addr + len;
        while at < end {
            let page = (at / PAGE_SIZE) as PageId;
            let off = (at % PAGE_SIZE) as u32;
            let page_end = (at - at % PAGE_SIZE) + PAGE_SIZE;
            let stop = end.min(page_end);
            let upto = off + (stop - at) as u32;
            let pa = self.cur.pages.entry(page).or_default();
            let ranges = match kind {
                AccessKind::Write => &mut pa.writes,
                AccessKind::Read => &mut pa.reads,
            };
            insert_range(ranges, off, upto, now_ns);
            at = stop;
        }
    }

    /// Release `edge`: join this rank's clock into the edge's slot, then
    /// advance the own component and open a segment.  Must run before the
    /// message that passes the synchronisation on can be sent.
    ///
    /// A lock release opens the segment "after releasing" the lock; a
    /// barrier release keeps the context, and its segment stays empty until
    /// the barrier's acquire replaces it.
    pub fn release(&mut self, edge: Edge) {
        {
            let mut edges = self.shared.edges.lock().expect("edge table poisoned");
            let slot = edges.entry(edge).or_insert_with(|| Slot {
                clock: VectorClock::new(self.clock.len()),
                releases: 0,
                acquires: 0,
            });
            slot.clock.merge(&self.clock);
            slot.releases += 1;
        }
        self.clock.increment(self.rank);
        let ctx = match edge {
            Edge::Lock(id) => SyncCtx::AfterRelease(id),
            Edge::Barrier(_) => self.cur.ctx,
        };
        self.new_segment(ctx);
    }

    /// Acquire `edge`: join its slot into this rank's clock, then open a
    /// segment in `ctx`.  Must run after the message that passed the
    /// synchronisation on was received.  A lock nobody has released yet
    /// joins nothing; a barrier must have every rank's release.
    pub fn acquire(&mut self, edge: Edge, ctx: SyncCtx) {
        let nprocs = self.clock.len();
        {
            let mut edges = self.shared.edges.lock().expect("edge table poisoned");
            match edges.get_mut(&edge) {
                Some(slot) => {
                    self.clock.merge(&slot.clock);
                    slot.acquires += 1;
                    if let Edge::Barrier(epoch) = edge {
                        assert_eq!(
                            slot.releases, nprocs,
                            "barrier epoch {epoch}: acquired before every rank released into it"
                        );
                        // Serving requests while the barrier is open goes
                        // through `DsmState`, never the recorded accessors,
                        // so the release's segment is still empty.
                        debug_assert!(
                            self.cur.pages.is_empty(),
                            "rank {} recorded an access inside barrier epoch {epoch}",
                            self.rank
                        );
                        if slot.acquires == nprocs {
                            edges.remove(&edge);
                        }
                    }
                }
                None => assert!(
                    matches!(edge, Edge::Lock(_)),
                    "{edge:?} acquired before any rank released into it"
                ),
            }
        }
        self.new_segment(ctx);
    }

    /// Finish recording and hand back the rank's access log.
    pub fn finish(mut self) -> RaceLog {
        self.new_segment(SyncCtx::Start);
        RaceLog {
            rank: self.rank,
            accesses: self.accesses,
            segments: self.done,
        }
    }
}

/// The complete access log of one rank, as returned by `Tmk::take_race_log`.
#[derive(Debug)]
pub struct RaceLog {
    rank: usize,
    accesses: u64,
    segments: Vec<Segment>,
}

/// One side of a reported race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSite {
    /// Rank that performed the access.
    pub rank: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// First byte of the recorded (coalesced) range within the page.
    pub start: u32,
    /// One past the last byte of the recorded range.
    pub end: u32,
    /// Virtual time (nanoseconds) of the earliest access in the range.
    pub time_ns: u64,
    /// Synchronisation context the access executed in.
    pub ctx: SyncCtx,
}

/// A conflicting access pair not ordered by happens-before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Page both accesses touched.
    pub page: PageId,
    /// First byte of the conflicting overlap within the page.
    pub overlap_start: u32,
    /// One past the last byte of the conflicting overlap.
    pub overlap_end: u32,
    /// The site with the lower (rank, time) identity.
    pub a: RaceSite,
    /// The other site.
    pub b: RaceSite,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "page {} bytes [{}, {}): rank {} {} [{}, {}) @ {} ns ({}) || rank {} {} [{}, {}) @ {} ns ({})",
            self.page,
            self.overlap_start,
            self.overlap_end,
            self.a.rank,
            self.a.kind,
            self.a.start,
            self.a.end,
            self.a.time_ns,
            self.a.ctx,
            self.b.rank,
            self.b.kind,
            self.b.start,
            self.b.end,
            self.b.time_ns,
            self.b.ctx,
        )
    }
}

/// Result of the post-mortem happens-before analysis of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Number of simulated processes the run used.
    pub nprocs: usize,
    /// Total number of access records the ranks logged (before
    /// coalescing into byte ranges).
    pub accesses: u64,
    /// All detected races, deduplicated per access-site pair and sorted
    /// deterministically.
    pub races: Vec<Race>,
}

impl RaceReport {
    /// Whether the run was data-race-free.
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }

    /// Render the report as deterministic human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.races.is_empty() {
            let _ = writeln!(
                out,
                "racecheck: 0 races ({} accesses, {} procs)",
                self.accesses, self.nprocs
            );
            return out;
        }
        let _ = writeln!(
            out,
            "racecheck: {} race(s) ({} accesses, {} procs)",
            self.races.len(),
            self.accesses,
            self.nprocs
        );
        const MAX_SHOWN: usize = 64;
        for race in self.races.iter().take(MAX_SHOWN) {
            let _ = writeln!(out, "  race: {race}");
        }
        if self.races.len() > MAX_SHOWN {
            let _ = writeln!(out, "  ... and {} more", self.races.len() - MAX_SHOWN);
        }
        out
    }
}

/// One flattened access record during analysis.
#[derive(Debug, Clone, Copy)]
struct Rec {
    rank: usize,
    seg: usize,
    kind: AccessKind,
    start: u32,
    end: u32,
    ns: u64,
}

/// Run the happens-before analysis over the per-rank logs of one run.
///
/// `logs` must be ordered by rank (`logs[r].rank == r`).  The result is a
/// pure function of the logs: records are processed in a deterministically
/// sorted order and the final report is deduplicated and sorted, so two
/// identical runs render byte-identical reports regardless of executor
/// width or wall-clock interleaving.
pub fn analyze(nprocs: usize, logs: Vec<RaceLog>) -> RaceReport {
    assert_eq!(logs.len(), nprocs, "one log per rank");
    for (r, log) in logs.iter().enumerate() {
        assert_eq!(log.rank, r, "logs must be ordered by rank");
    }
    let accesses = logs.iter().map(|l| l.accesses).sum();

    // Flatten to per-page record lists.  BTreeMap iteration keeps pages in
    // a deterministic order.
    let mut by_page: BTreeMap<PageId, Vec<Rec>> = BTreeMap::new();
    for log in &logs {
        for (seg_idx, seg) in log.segments.iter().enumerate() {
            for (&page, pa) in &seg.pages {
                let recs = by_page.entry(page).or_default();
                for (kind, ranges) in [
                    (AccessKind::Write, &pa.writes),
                    (AccessKind::Read, &pa.reads),
                ] {
                    for r in ranges {
                        recs.push(Rec {
                            rank: log.rank,
                            seg: seg_idx,
                            kind,
                            start: r.start,
                            end: r.end,
                            ns: r.first_ns,
                        });
                    }
                }
            }
        }
    }

    let clock_of = |rec: &Rec| &logs[rec.rank].segments[rec.seg].clock;
    // `a` happens-before `b` iff b's clock covers a's own component.
    let hb = |a: &Rec, b: &Rec| clock_of(b).covers(a.rank, clock_of(a).get(a.rank));

    // Dedup key: the identity of an access-site pair (page + both sites'
    // rank/segment/kind).  Byte ranges and times are accumulated.
    type PairKey = (PageId, usize, usize, AccessKind, usize, usize, AccessKind);
    let mut found: BTreeMap<PairKey, Race> = BTreeMap::new();

    for (&page, recs) in by_page.iter_mut() {
        // Deterministic processing order: virtual time, then identity.
        recs.sort_by_key(|r| (r.ns, r.rank, r.seg, r.kind, r.start, r.end));

        // Per-rank cursors over this page's records support sound pruning:
        // a rank's segment clocks only grow, so the clock of its *next*
        // unprocessed record bounds all its future records from below.
        let by_rank: Vec<Vec<usize>> = {
            let mut v = vec![Vec::new(); nprocs];
            for (i, r) in recs.iter().enumerate() {
                v[r.rank].push(i);
            }
            v
        };
        let mut cursor = vec![0usize; nprocs];
        let mut shadow: Vec<usize> = Vec::new();
        let mut since_prune = 0usize;

        for i in 0..recs.len() {
            let b = recs[i];
            cursor[b.rank] += 1;
            for &ai in &shadow {
                let a = recs[ai];
                if a.rank == b.rank {
                    continue; // program order
                }
                if a.kind == AccessKind::Read && b.kind == AccessKind::Read {
                    continue;
                }
                let (os, oe) = (a.start.max(b.start), a.end.min(b.end));
                if os >= oe {
                    continue;
                }
                // Both directions: the anachronistic lock grant means
                // happens-before is not always consistent with virtual-time
                // order, so `b hb a` is possible even though a sorts first.
                if hb(&a, &b) || hb(&b, &a) {
                    continue;
                }
                let site = |r: &Rec| RaceSite {
                    rank: r.rank,
                    kind: r.kind,
                    start: r.start,
                    end: r.end,
                    time_ns: r.ns,
                    ctx: logs[r.rank].segments[r.seg].ctx,
                };
                // Order the pair by identity, not discovery order.
                let (x, y) = if (a.rank, a.seg, a.kind, a.start) <= (b.rank, b.seg, b.kind, b.start)
                {
                    (a, b)
                } else {
                    (b, a)
                };
                let key = (page, x.rank, x.seg, x.kind, y.rank, y.seg, y.kind);
                found
                    .entry(key)
                    .and_modify(|race| {
                        race.overlap_start = race.overlap_start.min(os);
                        race.overlap_end = race.overlap_end.max(oe);
                        for (site, rec) in [(&mut race.a, &x), (&mut race.b, &y)] {
                            site.start = site.start.min(rec.start);
                            site.end = site.end.max(rec.end);
                            site.time_ns = site.time_ns.min(rec.ns);
                        }
                    })
                    .or_insert_with(|| Race {
                        page,
                        overlap_start: os,
                        overlap_end: oe,
                        a: site(&x),
                        b: site(&y),
                    });
            }
            shadow.push(i);
            since_prune += 1;
            if since_prune >= 64 {
                since_prune = 0;
                shadow.retain(|&ai| {
                    let a = recs[ai];
                    let own = clock_of(&a).get(a.rank);
                    // Keep `a` while some other rank may still produce a
                    // record not ordered after it.
                    (0..nprocs).any(|s| {
                        s != a.rank
                            && cursor[s] < by_rank[s].len()
                            && !clock_of(&recs[by_rank[s][cursor[s]]]).covers(a.rank, own)
                    })
                });
            }
        }
    }

    RaceReport {
        nprocs,
        accesses,
        races: found.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(table: &Arc<SyncClocks>) -> (Recorder, Recorder) {
        (
            Recorder::new(0, 2, Arc::clone(table)),
            Recorder::new(1, 2, Arc::clone(table)),
        )
    }

    fn report(logs: Vec<RaceLog>) -> RaceReport {
        let n = logs.len();
        analyze(n, logs)
    }

    /// Acquire lock `id` the way `Tmk::lock_acquire` does.
    fn lock(r: &mut Recorder, id: u32) {
        r.acquire(Edge::Lock(id), SyncCtx::AfterAcquire(id));
    }

    #[test]
    fn insert_range_coalesces_overlapping_and_touching() {
        let mut v = Vec::new();
        insert_range(&mut v, 10, 20, 5);
        insert_range(&mut v, 30, 40, 6);
        insert_range(&mut v, 20, 30, 7); // bridges both
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].start, v[0].end, v[0].first_ns), (10, 40, 5));
        insert_range(&mut v, 50, 60, 1);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn unsynchronized_writes_race() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        r0.record(AccessKind::Write, 0, 8, 10);
        r1.record(AccessKind::Write, 4, 8, 12);
        let rep = report(vec![r0.finish(), r1.finish()]);
        assert_eq!(rep.races.len(), 1);
        let race = &rep.races[0];
        assert_eq!(race.page, 0);
        assert_eq!((race.overlap_start, race.overlap_end), (4, 8));
        assert_eq!((race.a.rank, race.b.rank), (0, 1));
        assert_eq!(race.a.kind, AccessKind::Write);
        assert_eq!(race.b.kind, AccessKind::Write);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        r0.record(AccessKind::Read, 0, 64, 10);
        r1.record(AccessKind::Read, 0, 64, 12);
        assert!(report(vec![r0.finish(), r1.finish()]).is_race_free());
    }

    #[test]
    fn disjoint_ranges_do_not_race() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        r0.record(AccessKind::Write, 0, 8, 10);
        r1.record(AccessKind::Write, 8, 8, 12);
        assert!(report(vec![r0.finish(), r1.finish()]).is_race_free());
    }

    #[test]
    fn lock_handoff_orders_the_accesses() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        // Global order: r0's critical section completes, then r1's begins.
        lock(&mut r0, 7);
        r0.record(AccessKind::Write, 0, 8, 10);
        r0.release(Edge::Lock(7));
        lock(&mut r1, 7);
        r1.record(AccessKind::Write, 0, 8, 20);
        r1.release(Edge::Lock(7));
        assert!(report(vec![r0.finish(), r1.finish()]).is_race_free());
    }

    #[test]
    fn access_after_release_races_with_later_critical_section() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        lock(&mut r0, 7);
        r0.release(Edge::Lock(7));
        // r0 writes *after* releasing: concurrent with r1's section.
        r0.record(AccessKind::Write, 0, 8, 10);
        lock(&mut r1, 7);
        r1.record(AccessKind::Write, 0, 8, 20);
        let rep = report(vec![r0.finish(), r1.finish()]);
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].a.ctx, SyncCtx::AfterRelease(7));
        assert_eq!(rep.races[0].b.ctx, SyncCtx::AfterAcquire(7));
    }

    /// Run barrier epoch `epoch` across two recorders in the order the
    /// runtime uses: the worker releases, the manager releases and acquires,
    /// the worker acquires.  The tests' barrier index is the epoch.
    fn barrier(r0: &mut Recorder, r1: &mut Recorder, epoch: u32) {
        let edge = Edge::Barrier(epoch);
        r1.release(edge);
        r0.release(edge);
        r0.acquire(edge, SyncCtx::AfterBarrier(epoch));
        r1.acquire(edge, SyncCtx::AfterBarrier(epoch));
    }

    #[test]
    fn a_barrier_joins_every_release_and_drops_its_slot() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        lock(&mut r1, 3);
        r1.release(Edge::Lock(3));
        barrier(&mut r0, &mut r1, 0);
        // Each rank is one past its own release and has the other's.
        assert_eq!(r0.clock.entries(), &[2, 2]);
        assert_eq!(r1.clock.entries(), &[1, 3]);
        let edges = table.edges.lock().unwrap();
        assert_eq!(edges.keys().collect::<Vec<_>>(), [&Edge::Lock(3)]);
    }

    #[test]
    #[should_panic(expected = "acquired before every rank released")]
    fn a_barrier_acquired_before_every_release_panics() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, _r1) = pair(&table);
        r0.release(Edge::Barrier(0));
        r0.acquire(Edge::Barrier(0), SyncCtx::AfterBarrier(0));
    }

    #[test]
    fn barrier_orders_writes_before_reads() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        r0.record(AccessKind::Write, 100, 8, 10);
        barrier(&mut r0, &mut r1, 0);
        r1.record(AccessKind::Read, 100, 8, 20);
        assert!(report(vec![r0.finish(), r1.finish()]).is_race_free());
    }

    #[test]
    fn writes_on_both_sides_of_a_barrier_still_race_within_a_side() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        barrier(&mut r0, &mut r1, 0);
        // Post-barrier accesses of different ranks are concurrent.
        r0.record(AccessKind::Write, 0, 8, 30);
        r1.record(AccessKind::Read, 0, 8, 40);
        let rep = report(vec![r0.finish(), r1.finish()]);
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].a.ctx, SyncCtx::AfterBarrier(0));
        assert_eq!(rep.races[0].b.ctx, SyncCtx::AfterBarrier(0));
        assert_eq!(rep.races[0].b.kind, AccessKind::Read);
    }

    #[test]
    fn pruning_does_not_drop_a_live_early_record() {
        // Rank 0 writes once at the start and never synchronises on lock 1;
        // rank 1 spins through many critical sections (driving the pruning
        // pass) before touching the same bytes.  The early record must
        // survive and the race must be found.
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        r0.record(AccessKind::Write, 0, 8, 1);
        for i in 0..200u64 {
            lock(&mut r1, 1);
            r1.record(AccessKind::Write, 4096, 8, 10 + i);
            r1.release(Edge::Lock(1));
        }
        r1.record(AccessKind::Read, 0, 8, 1000);
        let rep = report(vec![r0.finish(), r1.finish()]);
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].page, 0);
    }

    #[test]
    fn many_ordered_rounds_stay_race_free_and_prune() {
        // Barrier-separated alternating writers: fully ordered, and the
        // pruning keeps the shadow state from growing with the round count.
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        for round in 0..300u32 {
            if round % 2 == 0 {
                r0.record(AccessKind::Write, 0, 8, u64::from(round) * 10);
            } else {
                r1.record(AccessKind::Write, 0, 8, u64::from(round) * 10);
            }
            barrier(&mut r0, &mut r1, round);
        }
        assert!(report(vec![r0.finish(), r1.finish()]).is_race_free());
    }

    #[test]
    fn report_renders_deterministically() {
        let mk = || {
            let table = Arc::new(SyncClocks::new());
            let (mut r0, mut r1) = pair(&table);
            r0.record(AccessKind::Write, 0, 16, 10);
            r1.record(AccessKind::Write, 8, 16, 12);
            r1.record(AccessKind::Read, 4096, 8, 14);
            r0.record(AccessKind::Write, 4096, 8, 16);
            report(vec![r0.finish(), r1.finish()])
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("race"));
    }

    #[test]
    fn cross_page_access_is_split_per_page() {
        let table = Arc::new(SyncClocks::new());
        let (mut r0, mut r1) = pair(&table);
        // Straddles the page-0/page-1 boundary.
        r0.record(AccessKind::Write, 4090, 12, 10);
        r1.record(AccessKind::Write, 4094, 8, 12);
        let rep = report(vec![r0.finish(), r1.finish()]);
        assert_eq!(rep.races.len(), 2);
        assert_eq!(rep.races[0].page, 0);
        assert_eq!(rep.races[1].page, 1);
    }
}
