//! Conservative virtual-time arbitration: the pure decision logic of the
//! deterministic discrete-event scheduler.
//!
//! The simulated processes of a run are coroutines on one OS thread
//! (`crate::coro`), and which of them the host happens to run must never
//! influence the *virtual-time* outcome: every arrival time, idle time and
//! message counter the paper's tables report has to be a pure function of
//! the program and the cost model.  The transport therefore executes all shared-state interactions
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
/// This is the *oracle*.  The transport runs [`Arbiter`], which maintains
/// the minimum incrementally; with the `oracle-checks` feature (on in CI)
/// every one of its decisions is asserted to agree with this scan.
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
    /// The candidates of the seeded tie in progress; kept so a seeded
    /// decision allocates nothing.
    cands: Vec<usize>,
}

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
            cands: Vec::with_capacity(n),
        }
    }

    /// Seeded tie-break draws consumed so far.
    #[cfg(test)]
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
        self.cands.clear();
        while let Some(&std::cmp::Reverse((key, rank))) = self.heap.peek() {
            if key != min {
                break;
            }
            self.heap.pop();
            if matches!(self.procs[rank], PState::Parked { key: cur } if Key(cur) == min)
                && !self.cands.contains(&rank)
            {
                self.cands.push(rank);
            }
        }
        for &rank in &self.cands {
            self.heap.push(std::cmp::Reverse((min, rank)));
        }
        self.tie.pick(&self.cands)
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

    #[test]
    fn seeded_tie_breaks_are_roughly_uniform_over_the_candidates() {
        // Across many seeds, a 6-way minimum-key tie must spread its grants
        // roughly uniformly over the tied ranks — the draw may not favour
        // rank order (the seed-0 behaviour).  1800 seeds at 1/6 each give an
        // expectation of 300 per rank with σ ≈ 15.8; the [230, 370] window
        // is ±4.4σ, and the whole experiment is deterministic, so the test
        // cannot flake once green.
        let mut counts = [0usize; 6];
        for seed in 1..=1800u64 {
            let mut arb = Arbiter::with_seed(6, seed, None);
            for r in 0..6 {
                arb.set(r, PState::Parked { key: 1.0 });
            }
            match arb.decide() {
                Decision::Grant(r) => counts[r] += 1,
                other => panic!("expected a grant, got {other:?}"),
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 1800);
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (230..=370).contains(&c),
                "rank {rank} granted {c} times of 1800 ({counts:?}); a uniform draw expects ~300"
            );
        }
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
