//! Conservative virtual-time arbitration: the pure decision logic of the
//! deterministic discrete-event scheduler.
//!
//! The simulated processes of a run are coroutines on one OS thread
//! (`crate::coro`; OS threads only under the windowed engine), and which of
//! them the host happens to run must never influence the *virtual-time*
//! outcome: every arrival time, idle time and message counter the paper's
//! tables report has to be a pure function of the program and the cost
//! model.  The transport therefore executes all shared-state interactions
//! (seizing the shared medium, consuming or observing a mailbox) under a
//! token discipline:
//!
//! * Between interactions a process runs freely — computation only touches
//!   its own virtual clock.
//! * At an interaction it *parks*, announcing the virtual time of its
//!   pending action (its key), and waits.
//! * When no process is running, the arbiter grants the token to the parked
//!   process with the **minimum key**, ties broken by rank.  Only the token
//!   holder may act, so the global order of transmissions and mailbox
//!   observations is a deterministic function of virtual timestamps.
//! * A process blocked in a receive with no matching message is not
//!   runnable; it is promoted to a parked state (keyed by the time it would
//!   consume the message) the moment a matching message is transmitted.
//!
//! This is the classic conservative (Chandy-Misra style) execution rule
//! specialised to a star topology: granting the minimum virtual time is safe
//! because every future action of a process with a later key carries a later
//! or equal timestamp, and interrupt-style replies (which *can* depart in
//! the past, like a SIGIO handler answering at the request's arrival time)
//! are themselves ordered by the deterministic grant sequence.
//!
//! When no process is runnable and at least one is blocked in a receive, no
//! message can ever be delivered again: that is a protocol deadlock, detected
//! immediately and reported with the full wait graph (instead of the
//! wall-clock timeout heuristic this module replaces).
//!
//! # Islands
//!
//! The hot path is [`IslandSched`]: the same conservative rule, but the
//! processes are partitioned into contiguous rank blocks (*islands*), each
//! with its own event heap and a cached live minimum, synchronised through a
//! cross-island horizon derived from the minimum link latency (the classic
//! conservative-PDES lookahead).  Because the islands are contiguous
//! ascending-rank blocks and each heap orders by `(key, rank)`, the minimum
//! over island minima — and the island-ordered concatenation of tied
//! candidates — reproduces the flat arbiter's `(key, rank)` order exactly,
//! so every width produces bit-identical grants, tie-break draws, and
//! therefore output.  Under the `oracle-checks` feature each island decision
//! is replayed against a shadow flat [`Arbiter`] (which in turn replays
//! against the [`choose`] scan) and asserted equal.

use crate::fault::TieBreak;
use crate::net::{Message, Tag};

/// Scheduler state of one simulated process.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PState {
    /// Executing user code (holds the token after startup; during the
    /// startup prologue every process is `Running` until its first
    /// interaction).
    Running,
    /// Parked at an interaction point, runnable once granted.  `key` is the
    /// virtual time of the pending action: the departure time of a transmit,
    /// the consume time of a receive with a queued match, or the current
    /// clock of a non-blocking observation.
    Parked {
        /// Virtual time of the pending action, seconds.
        key: f64,
    },
    /// Blocked in a receive with no matching message queued.
    RecvBlocked {
        /// Source filter of the receive (`None` = any source).
        src: Option<usize>,
        /// Tag filter of the receive (`None` = any tag).
        tag: Option<Tag>,
        /// The receiver's virtual clock when it blocked.
        clock: f64,
    },
    /// The process closure has returned (or the process panicked).
    Finished,
}

/// Outcome of a scheduling decision over the current process states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Grant the token to this rank (the minimum-key parked process).
    Grant(usize),
    /// Some process is still running; nothing to decide yet.
    Wait,
    /// Every process is finished; nothing left to schedule.
    AllDone,
    /// No process is runnable but at least one is blocked in a receive:
    /// no message can ever be delivered again.
    Deadlock,
}

/// The conservative scheduling rule as a pure scan: if anyone is running,
/// wait; otherwise grant the parked process with the minimum `(key, rank)`;
/// if nobody is parked but someone is receive-blocked, declare deadlock.
///
/// This is the *reference* implementation.  The hot path uses [`Arbiter`],
/// which maintains the minimum incrementally; with the `oracle-checks`
/// feature (on in CI) every decision is asserted to agree with this scan.
#[cfg_attr(not(any(test, feature = "oracle-checks")), allow(dead_code))]
pub(crate) fn choose(procs: &[PState]) -> Decision {
    let mut best: Option<(f64, usize)> = None;
    let mut blocked = false;
    for (rank, p) in procs.iter().enumerate() {
        match p {
            PState::Running => return Decision::Wait,
            PState::Parked { key } => {
                // Strict `<` keeps the lowest rank on equal keys.
                if best.is_none_or(|(k, _)| *key < k) {
                    best = Some((*key, rank));
                }
            }
            PState::RecvBlocked { .. } => blocked = true,
            PState::Finished => {}
        }
    }
    match best {
        Some((_, rank)) => Decision::Grant(rank),
        None if blocked => Decision::Deadlock,
        None => Decision::AllDone,
    }
}

/// A parked process's pending-action time as a totally ordered heap key.
/// Virtual times are never NaN, so `total_cmp` is a plain numeric order.
/// Equality goes through the same total order (not IEEE `==`) so `Eq` and
/// `Ord` agree even on signed zeros.
#[derive(Debug, Clone, Copy)]
struct Key(f64);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Incremental arbiter: the same scheduling rule as [`choose`], but the
/// minimum-key parked process is maintained in a lazy-deletion min-heap and
/// the `Running`/`Parked`/`RecvBlocked` populations in counters, so a
/// decision is O(log n) amortised instead of a fresh O(n) scan per
/// interaction.
///
/// Every transition into `Parked` pushes a `(key, rank)` entry; entries are
/// never eagerly removed.  An entry is *stale* once its process left the
/// parked state or re-parked under a different key; stale entries are
/// discarded when they surface at the top of the heap.  A process re-parked
/// at an identical key may be represented twice — both entries then describe
/// the same correct grant, so duplicates are harmless.
///
/// Since the island refactor this flat arbiter is the *reference*
/// implementation: the transport runs [`IslandSched`], which replays every
/// decision against a shadow `Arbiter` under the `oracle-checks` feature.
#[cfg_attr(not(any(test, feature = "oracle-checks")), allow(dead_code))]
pub(crate) struct Arbiter {
    procs: Vec<PState>,
    /// Min-heap over `(key, rank)` of (possibly stale) parked entries.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Key, usize)>>,
    running: usize,
    parked: usize,
    blocked: usize,
    /// Seeded tie-break stream; seed 0 (the default) never draws and keeps
    /// the classic lowest-rank-wins order bit for bit.
    tie: TieBreak,
}

// Outside test builds only the oracle shadow calls into the reference
// arbiter, and it needs just a subset of the surface — keep the full
// API alive for the equivalence tests without per-feature pruning.
#[cfg_attr(not(test), allow(dead_code))]
impl Arbiter {
    /// All `n` processes start `Running` (the startup prologue).  Ties break
    /// by rank (seed 0).
    #[cfg(test)]
    pub(crate) fn new(n: usize) -> Self {
        Self::with_seed(n, 0, None)
    }

    /// As [`Arbiter::new`], but with a seeded tie-break stream: when several
    /// processes park at exactly the same minimum key, the grant among them
    /// is a seeded draw instead of the lowest rank.  Every draw happens at a
    /// deterministic point of the token discipline, so a given seed still
    /// yields a bit-identical run — it just explores a different legal
    /// schedule.  `limit` caps the number of seeded draws (rank order
    /// afterwards); the shrinker bisects it.
    pub(crate) fn with_seed(n: usize, seed: u64, limit: Option<u64>) -> Self {
        Arbiter {
            procs: vec![PState::Running; n],
            heap: std::collections::BinaryHeap::with_capacity(2 * n),
            running: n,
            parked: 0,
            blocked: 0,
            tie: TieBreak::new(seed, limit),
        }
    }

    /// Seeded tie-break draws consumed so far.
    pub(crate) fn tie_draws(&self) -> u64 {
        self.tie.draws()
    }

    /// Move process `rank` into `state`, keeping the cached populations and
    /// the heap in sync.
    pub(crate) fn set(&mut self, rank: usize, state: PState) {
        match self.procs[rank] {
            PState::Running => self.running -= 1,
            PState::Parked { .. } => self.parked -= 1,
            PState::RecvBlocked { .. } => self.blocked -= 1,
            PState::Finished => {}
        }
        match state {
            PState::Running => self.running += 1,
            PState::Parked { key } => {
                self.parked += 1;
                self.heap.push(std::cmp::Reverse((Key(key), rank)));
            }
            PState::RecvBlocked { .. } => self.blocked += 1,
            PState::Finished => {}
        }
        self.procs[rank] = state;
    }

    /// Scheduler state of process `rank`.
    pub(crate) fn state(&self, rank: usize) -> PState {
        self.procs[rank]
    }

    /// The states of every process (for the wait-graph report).
    pub(crate) fn states(&self) -> &[PState] {
        &self.procs
    }

    /// Run the scheduling rule over the cached minimum.
    ///
    /// With the `oracle-checks` feature (on in CI), every decision is
    /// checked against the O(n) reference scan [`choose`]; the feature is
    /// off by default because the oracle runs on *every* scheduling
    /// decision and dominates local debug-test time.
    pub(crate) fn decide(&mut self) -> Decision {
        let decision = self.decide_inner();
        #[cfg(feature = "oracle-checks")]
        {
            let reference = choose(&self.procs);
            if self.tie.seeded() {
                // A seeded tie-break may legally grant *any* rank parked at
                // the reference minimum key; every other decision kind must
                // still agree exactly.
                match (decision, reference) {
                    (Decision::Grant(got), Decision::Grant(want)) => {
                        let min = match self.procs[want] {
                            PState::Parked { key } => key,
                            _ => unreachable!("the reference grant is parked"),
                        };
                        match self.procs[got] {
                            PState::Parked { key } if Key(key) == Key(min) => {}
                            other => panic!(
                                "seeded arbiter granted rank {got} in state {other:?}, \
                                 not parked at the reference minimum key {min}"
                            ),
                        }
                    }
                    _ => assert_eq!(
                        decision, reference,
                        "seeded arbiter diverged from the reference scan"
                    ),
                }
            } else {
                assert_eq!(
                    decision, reference,
                    "incremental arbiter diverged from the reference scan"
                );
            }
        }
        decision
    }

    fn decide_inner(&mut self) -> Decision {
        if self.running > 0 {
            return Decision::Wait;
        }
        while self.parked > 0 {
            let &std::cmp::Reverse((key, rank)) =
                self.heap.peek().expect("parked processes must be enqueued");
            match self.procs[rank] {
                PState::Parked { key: cur } if Key(cur) == key => {
                    if self.tie.seeded() {
                        return Decision::Grant(self.tie_grant(key));
                    }
                    return Decision::Grant(rank);
                }
                _ => {
                    self.heap.pop();
                }
            }
        }
        if self.blocked > 0 {
            Decision::Deadlock
        } else {
            Decision::AllDone
        }
    }

    /// Seeded tie-break: pop every entry sharing the minimum key, draw one of
    /// the tied live ranks from the seeded stream, and re-push one live entry
    /// per candidate (confirmed-stale entries are dropped for good).  Equal
    /// keys pop in ascending rank order, so the candidate list is canonical
    /// and the draw — like everything else under the token discipline — is a
    /// pure function of the virtual-time history and the seed.
    fn tie_grant(&mut self, min: Key) -> usize {
        let mut cands: Vec<usize> = Vec::new();
        while let Some(&std::cmp::Reverse((key, rank))) = self.heap.peek() {
            if key != min {
                break;
            }
            self.heap.pop();
            if matches!(self.procs[rank], PState::Parked { key: cur } if Key(cur) == min)
                && !cands.contains(&rank)
            {
                cands.push(rank);
            }
        }
        for &rank in &cands {
            self.heap.push(std::cmp::Reverse((min, rank)));
        }
        self.tie.pick(&cands)
    }
}

/// The conservative PDES island scheduler: the scheduling rule of
/// [`Arbiter`], with the processes partitioned into contiguous rank blocks
/// (*islands*) of `ceil(n / islands)` ranks each.  Every island keeps its
/// own lazy-deletion `(key, rank)` min-heap, a count of its parked
/// processes, and a verified-live cached minimum, so a decision touches only
/// the islands whose minima are unknown — an island with zero parked
/// processes is skipped without touching its heap at all (the horizon
/// certificate: it cannot own the global minimum), and an island whose
/// cached minimum is still live answers in O(1).
///
/// # Why every width is bit-identical
///
/// The islands are contiguous ascending-rank blocks and each heap orders by
/// `(key, rank)`, so the lexicographic minimum over island minima equals the
/// flat arbiter's minimum, and walking the islands in order while collecting
/// min-key candidates yields the same globally rank-ascending candidate list
/// the flat arbiter builds.  Identical candidate lists feed identical
/// [`TieBreak`] draws, so grants — and with them virtual times, counters,
/// traces and fault draws — are bit-identical for every `islands` width.
/// Under the `oracle-checks` feature this is asserted live: a shadow flat
/// [`Arbiter`] (itself checked against the [`choose`] scan) mirrors every
/// transition and every decision is compared exactly.
///
/// # The lookahead bound
///
/// The minimum cross-island link latency is the classic conservative-PDES
/// lookahead: a message transmitted at departure time `d` arrives no earlier
/// than `d + latency` (occupancy, shared-medium queueing and injected fault
/// delay only push arrivals later, and floating-point addition of
/// non-negative terms is monotone, so the bound is exact in f64).  Under the
/// token discipline a transmit is performed by the holder of the most recent
/// grant, whose grant key *is* the departure time, so every cross-island
/// promotion of a blocked receiver lands at or beyond
/// `last_grant + lookahead`.  [`IslandSched::set`] carries a `debug_assert`
/// of exactly that certificate.
pub(crate) struct IslandSched {
    procs: Vec<PState>,
    /// Ranks per island: island of `rank` is `rank / block` (contiguous
    /// blocks, so within-island rank order is global rank order).
    block: usize,
    /// Per-island min-heaps over `(key, rank)` of (possibly stale) parked
    /// entries, with the same lazy-deletion discipline as [`Arbiter`].
    heaps: Vec<std::collections::BinaryHeap<std::cmp::Reverse<(Key, usize)>>>,
    /// Number of `Parked` processes per island.  Zero means the island
    /// cannot own the global minimum and its heap is not touched.
    island_parked: Vec<usize>,
    /// Last verified live minimum per island: `Some((key, rank))` only while
    /// `procs[rank]` is still parked at `key` (transitions of the cached
    /// rank clear it; a smaller fresh entry overwrites it), `None` when it
    /// must be recomputed from the heap.
    min_cache: Vec<Option<(Key, usize)>>,
    running: usize,
    parked: usize,
    blocked: usize,
    /// Seeded tie-break stream; advances in lockstep with the shadow
    /// arbiter's because both see identical candidate lists.
    tie: TieBreak,
    /// Conservative lookahead, seconds: the minimum link latency of the
    /// network model.  Promotions of blocked receivers must land at or
    /// beyond `last_grant + lookahead`.
    lookahead: f64,
    /// Key of the most recent grant (`None` until the startup prologue ends
    /// with the first grant).
    last_grant: Option<f64>,
    /// Batched-arbitration cache from the last full cross-island scan:
    /// `(favoured_island, runner_up)`, where `runner_up` is the smallest
    /// `(key, rank)` parked outside the favoured island (`None` when no
    /// other island had a parked member).  Valid only while every `set`
    /// since the scan touched the favoured island alone; while the favoured
    /// island's minimum stays strictly below the runner-up, a whole run of
    /// same-island minimum-key grants is issued without re-scanning the
    /// other islands.  Ranks are globally unique and islands are ascending
    /// rank blocks, so the `(key, rank)` tuple order *is* the flat arbiter's
    /// tie-break order and the strict comparison is exact.
    run_cache: Option<(usize, Option<(Key, usize)>)>,
    #[cfg(feature = "oracle-checks")]
    shadow: Arbiter,
}

impl IslandSched {
    /// All `n` processes start `Running`, partitioned into `islands`
    /// contiguous rank blocks.  `islands` is normalised: `0` means `1`, and
    /// widths above `n` clamp to `n` (one process per island).  `seed` and
    /// `limit` configure the tie-break stream exactly as in
    /// [`Arbiter::with_seed`]; `lookahead` is the minimum link latency.
    pub(crate) fn new(
        n: usize,
        islands: usize,
        seed: u64,
        limit: Option<u64>,
        lookahead: f64,
    ) -> Self {
        let islands = islands.clamp(1, n.max(1));
        let block = n.max(1).div_ceil(islands);
        // Re-derive the island count from the block size: rounding the
        // block up can leave trailing islands empty (n=9, islands=4 gives
        // blocks of 3 and only 3 islands).
        let k = n.max(1).div_ceil(block);
        IslandSched {
            procs: vec![PState::Running; n],
            block,
            heaps: (0..k)
                .map(|_| std::collections::BinaryHeap::with_capacity(2 * block))
                .collect(),
            island_parked: vec![0; k],
            min_cache: vec![None; k],
            running: n,
            parked: 0,
            blocked: 0,
            tie: TieBreak::new(seed, limit),
            lookahead,
            last_grant: None,
            run_cache: None,
            #[cfg(feature = "oracle-checks")]
            shadow: Arbiter::with_seed(n, seed, limit),
        }
    }

    /// The actual number of islands (after normalisation and clamping).
    #[cfg(test)]
    pub(crate) fn islands(&self) -> usize {
        self.heaps.len()
    }

    /// Seeded tie-break draws consumed so far.
    pub(crate) fn tie_draws(&self) -> u64 {
        self.tie.draws()
    }

    /// Move process `rank` into `state`, keeping the island bookkeeping (and
    /// the shadow arbiter, under `oracle-checks`) in sync.
    pub(crate) fn set(&mut self, rank: usize, state: PState) {
        // The conservative horizon certificate: a blocked receiver is only
        // ever promoted by a transmit, the transmit is performed by the
        // holder of the most recent grant, and its grant key is the
        // departure time — so the promotion key is at least
        // `last_grant + lookahead` (exact in f64: arrivals add only
        // non-negative terms to the departure, and fl-addition is monotone).
        if let (PState::RecvBlocked { .. }, PState::Parked { key }) = (self.procs[rank], state) {
            if let Some(last) = self.last_grant {
                debug_assert!(
                    key >= last + self.lookahead,
                    "promotion of rank {rank} below the conservative horizon: \
                     key {key} < last grant {last} + lookahead {}",
                    self.lookahead
                );
            }
        }
        let island = rank / self.block;
        // A transition outside the favoured island (a cross-island promotion
        // or park) can lower another island's minimum: the cached runner-up
        // bound no longer certifies the favoured island owns the global
        // minimum.
        if self.run_cache.is_some_and(|(fav, _)| fav != island) {
            self.run_cache = None;
        }
        match self.procs[rank] {
            PState::Running => self.running -= 1,
            PState::Parked { .. } => {
                self.parked -= 1;
                self.island_parked[island] -= 1;
                if self.min_cache[island].is_some_and(|(_, r)| r == rank) {
                    self.min_cache[island] = None;
                }
            }
            PState::RecvBlocked { .. } => self.blocked -= 1,
            PState::Finished => {}
        }
        match state {
            PState::Running => self.running += 1,
            PState::Parked { key } => {
                self.parked += 1;
                self.island_parked[island] += 1;
                let entry = (Key(key), rank);
                self.heaps[island].push(std::cmp::Reverse(entry));
                // A known live minimum stays correct unless the fresh entry
                // beats it (removals of other ranks can only raise the min).
                if let Some(cached) = self.min_cache[island] {
                    if entry < cached {
                        self.min_cache[island] = Some(entry);
                    }
                }
            }
            PState::RecvBlocked { .. } => self.blocked += 1,
            PState::Finished => {}
        }
        self.procs[rank] = state;
        #[cfg(feature = "oracle-checks")]
        self.shadow.set(rank, state);
    }

    /// Scheduler state of process `rank`.
    pub(crate) fn state(&self, rank: usize) -> PState {
        self.procs[rank]
    }

    /// The states of every process (for the wait-graph report).
    pub(crate) fn states(&self) -> &[PState] {
        &self.procs
    }

    /// Run the scheduling rule over the island minima.
    ///
    /// With the `oracle-checks` feature (on in CI), every decision is
    /// replayed on the shadow flat [`Arbiter`] — which itself checks against
    /// the O(n) scan [`choose`] — and asserted *exactly* equal, seeded
    /// tie-breaks included (identical candidate lists drive identical
    /// draws).
    pub(crate) fn decide(&mut self) -> Decision {
        let decision = self.decide_inner();
        #[cfg(feature = "oracle-checks")]
        {
            let reference = self.shadow.decide();
            assert_eq!(
                decision, reference,
                "island scheduler diverged from the reference arbiter"
            );
        }
        decision
    }

    fn decide_inner(&mut self) -> Decision {
        if self.running > 0 {
            return Decision::Wait;
        }
        if self.parked == 0 {
            return if self.blocked > 0 {
                Decision::Deadlock
            } else {
                Decision::AllDone
            };
        }
        // Batched arbitration: while the favoured island's minimum stays
        // strictly below every other island's (certified by the cached
        // runner-up bound), grant it directly — a run of same-island
        // minimum-key grants costs one cross-island scan total.  Seeded
        // ties must see the full cross-island candidate list, so they
        // always take the scan.
        if !self.tie.seeded() {
            if let Some((fav, bound)) = self.run_cache {
                if self.island_parked[fav] > 0 {
                    let min = self.island_min(fav);
                    if bound.is_none_or(|b| min < b) {
                        self.last_grant = Some(min.0 .0);
                        return Decision::Grant(min.1);
                    }
                }
            }
        }
        let mut best: Option<(usize, (Key, usize))> = None;
        let mut runner_up: Option<(Key, usize)> = None;
        for island in 0..self.heaps.len() {
            if self.island_parked[island] == 0 {
                continue;
            }
            let min = self.island_min(island);
            match best {
                Some((_, bmin)) if min >= bmin => {
                    if runner_up.is_none_or(|r| min < r) {
                        runner_up = Some(min);
                    }
                }
                _ => {
                    runner_up = best.map(|(_, bmin)| bmin);
                    best = Some((island, min));
                }
            }
        }
        let (fav, (key, rank)) = best.expect("an island with parked processes owns the minimum");
        self.run_cache = Some((fav, runner_up));
        let granted = if self.tie.seeded() {
            self.tie_grant(key)
        } else {
            rank
        };
        self.last_grant = Some(key.0);
        Decision::Grant(granted)
    }

    /// The live `(key, rank)` minimum of one island (which must have at
    /// least one parked process): the cached minimum if still live,
    /// otherwise the island heap's top after discarding stale entries.
    fn island_min(&mut self, island: usize) -> (Key, usize) {
        if let Some((key, rank)) = self.min_cache[island] {
            if matches!(self.procs[rank], PState::Parked { key: cur } if Key(cur) == key) {
                return (key, rank);
            }
            self.min_cache[island] = None;
        }
        loop {
            let &std::cmp::Reverse((key, rank)) = self.heaps[island]
                .peek()
                .expect("an island with parked processes has a live entry");
            match self.procs[rank] {
                PState::Parked { key: cur } if Key(cur) == key => {
                    self.min_cache[island] = Some((key, rank));
                    return (key, rank);
                }
                _ => {
                    self.heaps[island].pop();
                }
            }
        }
    }

    /// Seeded tie-break across islands: walk the islands in order, popping
    /// every entry sharing the minimum key (within an island equal keys pop
    /// in ascending rank order, and islands are ascending rank blocks, so
    /// the concatenated candidate list is globally rank-ascending — exactly
    /// the flat arbiter's canonical list), re-push the live candidates, and
    /// draw from the seeded stream.
    fn tie_grant(&mut self, min: Key) -> usize {
        let mut cands: Vec<usize> = Vec::new();
        for island in 0..self.heaps.len() {
            if self.island_parked[island] == 0 {
                continue;
            }
            let first = cands.len();
            while let Some(&std::cmp::Reverse((key, rank))) = self.heaps[island].peek() {
                if key != min {
                    break;
                }
                self.heaps[island].pop();
                if matches!(self.procs[rank], PState::Parked { key: cur } if Key(cur) == min)
                    && !cands[first..].contains(&rank)
                {
                    cands.push(rank);
                }
            }
            for &rank in &cands[first..] {
                self.heaps[island].push(std::cmp::Reverse((min, rank)));
            }
        }
        self.tie.pick(&cands)
    }
}

/// Render the wait graph of a deadlocked cluster: every process's scheduler
/// state, the filter each blocked receiver is waiting on, and the messages
/// sitting undeliverable in its mailbox.
pub(crate) fn wait_graph(
    procs: &[PState],
    mailboxes: &[std::collections::VecDeque<Message>],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "virtual-time deadlock: every process is blocked with no deliverable message\n",
    );
    for (rank, p) in procs.iter().enumerate() {
        match p {
            PState::RecvBlocked { src, tag, clock } => {
                let queued: Vec<(usize, Tag, f64)> = mailboxes[rank]
                    .iter()
                    .map(|m| (m.src, m.tag, m.arrival))
                    .collect();
                let _ = writeln!(
                    out,
                    "  process {rank}: blocked at t={clock:.6} waiting for src={src:?} tag={tag:?}; \
                     queued (src, tag, arrival): {queued:?}"
                );
            }
            PState::Finished => {
                let _ = writeln!(out, "  process {rank}: finished");
            }
            other => {
                let _ = writeln!(out, "  process {rank}: {other:?}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_minimum_key() {
        let procs = vec![
            PState::Parked { key: 2.0 },
            PState::Parked { key: 1.0 },
            PState::Parked { key: 3.0 },
        ];
        assert_eq!(choose(&procs), Decision::Grant(1));
    }

    #[test]
    fn ties_break_by_rank() {
        let procs = vec![PState::Parked { key: 1.0 }, PState::Parked { key: 1.0 }];
        assert_eq!(choose(&procs), Decision::Grant(0));
    }

    #[test]
    fn waits_while_anyone_runs() {
        let procs = vec![PState::Parked { key: 0.0 }, PState::Running];
        assert_eq!(choose(&procs), Decision::Wait);
    }

    #[test]
    fn blocked_processes_are_not_runnable() {
        let procs = vec![
            PState::RecvBlocked {
                src: None,
                tag: None,
                clock: 0.0,
            },
            PState::Parked { key: 9.0 },
        ];
        assert_eq!(choose(&procs), Decision::Grant(1));
    }

    #[test]
    fn all_blocked_is_a_deadlock() {
        let procs = vec![
            PState::RecvBlocked {
                src: Some(1),
                tag: Some(7),
                clock: 1.5,
            },
            PState::Finished,
        ];
        assert_eq!(choose(&procs), Decision::Deadlock);
    }

    #[test]
    fn all_finished_is_done() {
        assert_eq!(
            choose(&[PState::Finished, PState::Finished]),
            Decision::AllDone
        );
    }

    #[test]
    fn arbiter_tracks_the_reference_scan_through_random_transitions() {
        // Drive an Arbiter through a long pseudo-random transition sequence
        // and require its decision to equal the O(n) reference scan at every
        // step (release builds included — this is the release-mode version
        // of the debug_assert in `decide`).
        let n = 5;
        let mut arb = Arbiter::new(n);
        // lint:allow(prng): seeded test driver, same sequence every run
        let mut rng = crate::fault::SplitMix64::seeded(0x5eed);
        let mut next = || rng.next_u64() >> 33;
        for step in 0..4000 {
            let rank = next() as usize % n;
            let state = match next() % 4 {
                0 => PState::Running,
                1 => PState::Parked {
                    key: (next() % 16) as f64 * 0.25,
                },
                2 => PState::RecvBlocked {
                    src: None,
                    tag: None,
                    clock: 0.0,
                },
                _ => PState::Finished,
            };
            arb.set(rank, state);
            assert_eq!(
                arb.decide(),
                choose(arb.states()),
                "divergence at step {step}"
            );
        }
    }

    #[test]
    fn arbiter_discards_stale_entries_and_grants_the_new_minimum() {
        let mut arb = Arbiter::new(3);
        arb.set(0, PState::Parked { key: 1.0 });
        arb.set(1, PState::Parked { key: 2.0 });
        arb.set(2, PState::Parked { key: 3.0 });
        assert_eq!(arb.decide(), Decision::Grant(0));
        // Re-park process 0 *behind* the others: its old key-1.0 entry is
        // stale and must not win again.
        arb.set(0, PState::Parked { key: 9.0 });
        assert_eq!(arb.decide(), Decision::Grant(1));
        arb.set(1, PState::Finished);
        assert_eq!(arb.decide(), Decision::Grant(2));
        arb.set(2, PState::Running);
        assert_eq!(arb.decide(), Decision::Wait);
    }

    #[test]
    fn seed_zero_arbiter_is_exactly_rank_order() {
        // `with_seed(n, 0, _)` must be indistinguishable from `new(n)`:
        // identical grants on identical transition sequences, zero draws.
        let n = 4;
        let mut plain = Arbiter::new(n);
        let mut seeded = Arbiter::with_seed(n, 0, None);
        // lint:allow(prng): seeded test driver, same sequence every run
        let mut rng = crate::fault::SplitMix64::seeded(7);
        for _ in 0..2000 {
            let rank = rng.next_u64() as usize % n;
            let state = match rng.next_u64() % 3 {
                0 => PState::Running,
                1 => PState::Parked {
                    key: (rng.next_u64() % 4) as f64 * 0.5,
                },
                _ => PState::Finished,
            };
            plain.set(rank, state);
            seeded.set(rank, state);
            assert_eq!(plain.decide(), seeded.decide());
        }
        assert_eq!(seeded.tie_draws(), 0);
    }

    #[test]
    fn seeded_grant_is_always_a_minimum_key_candidate() {
        // Under any nonzero seed the grant must still be one of the ranks
        // parked at the reference scan's minimum key — a different legal
        // schedule, never an illegal one.
        for seed in 1..6u64 {
            let n = 5;
            let mut arb = Arbiter::with_seed(n, seed, None);
            // lint:allow(prng): seeded test driver, same sequence every run
            let mut rng = crate::fault::SplitMix64::seeded(seed ^ 0xabcd);
            for step in 0..2000 {
                let rank = rng.next_u64() as usize % n;
                let state = match rng.next_u64() % 4 {
                    0 => PState::Running,
                    1 => PState::Parked {
                        // Few distinct keys force frequent ties.
                        key: (rng.next_u64() % 3) as f64 * 0.25,
                    },
                    2 => PState::RecvBlocked {
                        src: None,
                        tag: None,
                        clock: 0.0,
                    },
                    _ => PState::Finished,
                };
                arb.set(rank, state);
                let decision = arb.decide();
                let reference = choose(arb.states());
                match (decision, reference) {
                    (Decision::Grant(got), Decision::Grant(want)) => {
                        let min = match arb.state(want) {
                            PState::Parked { key } => key,
                            other => panic!("reference grant not parked: {other:?}"),
                        };
                        match arb.state(got) {
                            PState::Parked { key } if key.total_cmp(&min).is_eq() => {}
                            other => panic!(
                                "seed {seed} step {step}: granted {got} in {other:?}, min {min}"
                            ),
                        }
                    }
                    (got, want) => assert_eq!(got, want, "seed {seed} step {step}"),
                }
            }
        }
    }

    #[test]
    fn seeded_ties_diverge_from_rank_order_and_replay_identically() {
        // A tie over all ranks: seed 0 grants rank 0; some nonzero seed must
        // grant someone else (otherwise the knob does nothing), and the same
        // seed must pick the same rank on a fresh arbiter (replayability).
        let grant_of = |seed: u64| {
            let mut arb = Arbiter::with_seed(6, seed, None);
            for r in 0..6 {
                arb.set(r, PState::Parked { key: 1.0 });
            }
            match arb.decide() {
                Decision::Grant(r) => r,
                other => panic!("expected a grant, got {other:?}"),
            }
        };
        assert_eq!(grant_of(0), 0);
        assert!(
            (1..20).any(|s| grant_of(s) != 0),
            "no seed in 1..20 ever deviated from rank order on a 6-way tie"
        );
        for seed in 1..20 {
            assert_eq!(grant_of(seed), grant_of(seed), "seed {seed} not replayable");
        }
    }

    #[test]
    fn tie_limit_zero_is_rank_order() {
        let mut arb = Arbiter::with_seed(4, 99, Some(0));
        for r in 0..4 {
            arb.set(r, PState::Parked { key: 2.0 });
        }
        assert_eq!(arb.decide(), Decision::Grant(0));
        assert_eq!(arb.tie_draws(), 0);
    }

    /// Drive a transition generator shared by the island property tests:
    /// `f(step, rank, state)` for a deterministic pseudo-random sequence.
    fn drive(seed: u64, n: usize, steps: usize, mut f: impl FnMut(usize, usize, PState)) {
        // lint:allow(prng): seeded test driver, same sequence every run
        let mut rng = crate::fault::SplitMix64::seeded(seed);
        for step in 0..steps {
            let rank = rng.next_u64() as usize % n;
            let state = match rng.next_u64() % 4 {
                0 => PState::Running,
                1 => PState::Parked {
                    // Few distinct keys force frequent ties.
                    key: (rng.next_u64() % 8) as f64 * 0.25,
                },
                2 => PState::RecvBlocked {
                    src: None,
                    tag: None,
                    clock: 0.0,
                },
                _ => PState::Finished,
            };
            f(step, rank, state);
        }
    }

    /// Arbitrary transition sequences promote blocked receivers at keys the
    /// real transport never produces, so the property tests disable the
    /// conservative-horizon `debug_assert` by driving the lookahead to -∞.
    const NO_HORIZON: f64 = f64::NEG_INFINITY;

    #[test]
    fn island_widths_are_normalised_and_clamped() {
        assert_eq!(IslandSched::new(8, 0, 0, None, NO_HORIZON).islands(), 1);
        assert_eq!(IslandSched::new(8, 1, 0, None, NO_HORIZON).islands(), 1);
        assert_eq!(IslandSched::new(8, 4, 0, None, NO_HORIZON).islands(), 4);
        assert_eq!(IslandSched::new(8, 100, 0, None, NO_HORIZON).islands(), 8);
        // Rounding the block up can merge trailing islands: 9 ranks over 4
        // islands gives blocks of 3 and only 3 islands.
        assert_eq!(IslandSched::new(9, 4, 0, None, NO_HORIZON).islands(), 3);
    }

    #[test]
    fn every_island_width_matches_the_flat_arbiter_exactly() {
        // The core bit-identity property: for any width, seeded or not, the
        // island scheduler's decisions and draw counts equal the flat
        // arbiter's on the same transition sequence, step for step.
        let n = 8;
        for seed in [0u64, 3, 11] {
            for islands in [1usize, 2, 3, 4, 5, 8] {
                let mut flat = Arbiter::with_seed(n, seed, None);
                let mut isle = IslandSched::new(n, islands, seed, None, NO_HORIZON);
                drive(
                    0xd15c0 ^ seed ^ ((islands as u64) << 32),
                    n,
                    3000,
                    |step, rank, state| {
                        flat.set(rank, state);
                        isle.set(rank, state);
                        assert_eq!(
                            isle.decide(),
                            flat.decide(),
                            "seed {seed} islands {islands} step {step}"
                        );
                    },
                );
                assert_eq!(isle.tie_draws(), flat.tie_draws());
            }
        }
    }

    #[test]
    fn seed_zero_island_sched_is_exactly_the_reference_scan() {
        // Property form of the seed-0 ≡ rank-order guarantee, for the
        // island scheduler: at seed 0 every decision equals the O(n) scan
        // and no draw is ever consumed, at any width.
        let n = 6;
        for islands in [1usize, 2, 3, 6] {
            let mut isle = IslandSched::new(n, islands, 0, None, NO_HORIZON);
            drive(42 + islands as u64, n, 3000, |step, rank, state| {
                isle.set(rank, state);
                assert_eq!(
                    isle.decide(),
                    choose(isle.states()),
                    "islands {islands} step {step}"
                );
            });
            assert_eq!(isle.tie_draws(), 0);
        }
    }

    #[test]
    fn seeded_tie_breaks_are_roughly_uniform_over_the_candidates() {
        // Across many seeds, a 6-way minimum-key tie must spread its grants
        // roughly uniformly over the tied ranks — the draw may not favour
        // rank order (the seed-0 behaviour) or any island.  1800 seeds at
        // 1/6 each give an expectation of 300 per rank with σ ≈ 15.8; the
        // [230, 370] window is ±4.4σ, and the whole experiment is
        // deterministic, so the test cannot flake once green.
        for islands in [1usize, 3] {
            let mut counts = [0usize; 6];
            for seed in 1..=1800u64 {
                let mut isle = IslandSched::new(6, islands, seed, None, NO_HORIZON);
                for r in 0..6 {
                    isle.set(r, PState::Parked { key: 1.0 });
                }
                match isle.decide() {
                    Decision::Grant(r) => counts[r] += 1,
                    other => panic!("expected a grant, got {other:?}"),
                }
            }
            assert_eq!(counts.iter().sum::<usize>(), 1800);
            for (rank, &c) in counts.iter().enumerate() {
                assert!(
                    (230..=370).contains(&c),
                    "islands {islands}: rank {rank} granted {c} times of 1800 \
                     ({counts:?}); a uniform draw expects ~300"
                );
            }
        }
    }

    #[test]
    fn island_tie_candidates_concatenate_in_global_rank_order() {
        // A cross-island tie: ranks 1 (island 0) and 4 (island 1) parked at
        // the same key.  The candidate list must be [1, 4] in global rank
        // order, so seed 0 grants rank 1 — and a seeded draw picks from the
        // same canonical list the flat arbiter builds.
        let mut isle = IslandSched::new(6, 2, 0, None, NO_HORIZON);
        for r in 0..6 {
            isle.set(r, PState::Finished);
        }
        isle.set(4, PState::Parked { key: 2.0 });
        isle.set(1, PState::Parked { key: 2.0 });
        assert_eq!(isle.decide(), Decision::Grant(1));
        for seed in 1..40u64 {
            let mut flat = Arbiter::with_seed(6, seed, None);
            let mut isle = IslandSched::new(6, 2, seed, None, NO_HORIZON);
            for r in 0..6 {
                flat.set(r, PState::Finished);
                isle.set(r, PState::Finished);
            }
            for r in [4usize, 1, 5] {
                flat.set(r, PState::Parked { key: 2.0 });
                isle.set(r, PState::Parked { key: 2.0 });
            }
            assert_eq!(isle.decide(), flat.decide(), "seed {seed}");
        }
    }

    #[test]
    fn same_island_runs_use_and_invalidate_the_batch_cache() {
        // Island 0 (ranks 0..3) owns a run of ascending keys strictly below
        // island 1's minimum: after one full scan, every grant in the run
        // must come from the batch cache and still match the reference scan.
        let mut isle = IslandSched::new(6, 2, 0, None, NO_HORIZON);
        for r in 0..3 {
            isle.set(r, PState::Parked { key: r as f64 });
        }
        for r in 3..6 {
            isle.set(r, PState::Parked { key: 100.0 });
        }
        for expect in 0..3 {
            assert_eq!(isle.decide(), Decision::Grant(expect));
            assert_eq!(choose(isle.states()), Decision::Grant(expect));
            isle.set(expect, PState::Running);
            isle.set(expect, PState::Finished);
        }
        // Cross-island park below the cached runner-up: the cache must be
        // invalidated, not trusted.
        isle.set(0, PState::Parked { key: 50.0 });
        isle.set(4, PState::Parked { key: 10.0 });
        assert_eq!(isle.decide(), Decision::Grant(4));
        isle.set(4, PState::Finished);
        assert_eq!(isle.decide(), Decision::Grant(0));
    }

    #[test]
    fn promotions_at_or_beyond_the_horizon_are_accepted() {
        // last grant at key 1.0, lookahead 0.5: a blocked receiver promoted
        // to exactly the horizon (1.5) is legal.
        let mut isle = IslandSched::new(2, 2, 0, None, 0.5);
        isle.set(0, PState::Parked { key: 1.0 });
        isle.set(
            1,
            PState::RecvBlocked {
                src: None,
                tag: None,
                clock: 0.0,
            },
        );
        assert_eq!(isle.decide(), Decision::Grant(0));
        isle.set(1, PState::Parked { key: 1.5 });
        isle.set(0, PState::Finished);
        assert_eq!(isle.decide(), Decision::Grant(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the conservative horizon")]
    fn promotions_below_the_horizon_are_rejected() {
        let mut isle = IslandSched::new(2, 2, 0, None, 0.5);
        isle.set(0, PState::Parked { key: 1.0 });
        isle.set(
            1,
            PState::RecvBlocked {
                src: None,
                tag: None,
                clock: 0.0,
            },
        );
        assert_eq!(isle.decide(), Decision::Grant(0));
        // 1.2 < 1.0 + 0.5: no in-model message can arrive this early.
        isle.set(1, PState::Parked { key: 1.2 });
    }

    #[test]
    fn wait_graph_names_the_blocked_filter() {
        let procs = vec![PState::RecvBlocked {
            src: Some(3),
            tag: Some(9),
            clock: 0.25,
        }];
        let graph = wait_graph(&procs, &[std::collections::VecDeque::new()]);
        assert!(graph.contains("process 0"));
        assert!(graph.contains("src=Some(3)"));
        assert!(graph.contains("tag=Some(9)"));
    }
}
