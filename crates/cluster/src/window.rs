//! The threaded windowed engine: islands advance concurrently inside a
//! conservative horizon window, and every global effect is replayed in exact
//! serial order at the window barrier.
//!
//! # Design
//!
//! The serial engine (`cluster::net`) interleaves all ranks under one lock:
//! each scheduling decision grants the globally minimum `(virtual time,
//! rank)` parked process.  PR 9's island decomposition proved the minimum can
//! be maintained per contiguous rank block; this module cashes that in for
//! real parallelism.  Execution alternates between two phases:
//!
//! * **Window phase.**  A coordinator computes a floor `L` (the minimum over
//!   every live rank's park key and clock and every unconsumed mailbox
//!   arrival) and a horizon `H = L + lookahead` (`lookahead = cfg.latency`,
//!   the same conservative-PDES bound `IslandSched` `debug_assert`s).  Up to
//!   `island_threads` islands then run concurrently, each island granting its
//!   own members in local `(key, rank)` order while their keys stay inside
//!   `[L, H)`.  Every grant opens a *slot record* capturing the grant key,
//!   trace events, and staged sends; **no** send is delivered during the
//!   window — intra- and cross-island pushes alike are staged on the record.
//!   A message departing at key `k >= L` arrives no earlier than
//!   `k + latency >= H`, so no in-window observation (all at keys `< H`) can
//!   distinguish staged from delivered messages: thread interleaving cannot
//!   reach any simulated byte.
//!
//! * **Barrier phase.**  When every island has quiesced, the last thread
//!   *walks* the per-island record queues: repeatedly take the minimum
//!   `(key, rank)` front record across islands (records within an island are
//!   already in island-serial order) and apply it — append its trace events,
//!   compute shared-medium reservation and arrival times, push its messages,
//!   and promote blocked receivers, exactly as the serial engine would have,
//!   in exactly the order the serial engine would have.  The walk stops at
//!   the first *unexecuted* park (a parked rank whose key precedes every
//!   remaining record): records beyond it are deferred to the next barrier,
//!   so the committed prefix is always a prefix of the serial execution.
//!   Under the `oracle-checks` feature the walk replays every decision
//!   through a shadow `IslandSched` — the PR 9 serial reference arbiter —
//!   and asserts it grants the same `(key, rank)`.
//!
//! Arrival times (and the shared-medium reservation) are computed at the
//! walk, not at the transmit: the process layer never reads them before the
//! message is consumed, and deferring the computation means the FDDI
//! shared-medium model serialises transmissions in exact virtual-time order
//! even though the transmitting threads raced.  Fault-PRNG draws *are* made
//! at transmit time, from a per-island clone of the fault state: the streams
//! are seeded per directed link (`src * nprocs + dst`) and a link is only
//! ever drawn by its source rank's island, so the draw sequence is identical
//! to the serial engine's and independent of thread interleaving.
//!
//! # Livelock, deadlock, and the below-floor backstop
//!
//! The serial engine counts consecutive futile grants and aborts at
//! `LIVELOCK_GRANT_LIMIT`.  The walk accumulates the same counter in the
//! same order; windows cap each island at `(LIMIT/2)/islands` grants so the
//! count can never silently cross the limit mid-window, and once it reaches
//! `LIMIT/2` the engine degrades to *step mode* — one barrier-issued grant
//! of the global minimum per barrier, which is serial execution with exact
//! pre-grant livelock checks and produces the identical report at the
//! identical grant.  Deadlock is detected at the barrier from the identical
//! condition (nobody parked, someone receive-blocked) over the identical
//! state, so the wait graph matches byte for byte.
//!
//! One hazard remains: a slot granted at key `k` may park *below* the
//! window floor (`send_at` with a departure computed from data older than
//! any floor contribution).  The floor includes every unconsumed arrival
//! precisely so the common reply-to-request idiom stays at or above `L`,
//! and a below-floor park merely stalls its island (the walk defers
//! everything serially after it).  The only way such a stall could corrupt
//! output is an already-executed, still-deferred *observation*
//! (`try_recv`/`pending`, which filter on arrival) at a key the stalled
//! slot's sends could reach; the barrier checks for exactly that and panics
//! deterministically rather than commit a wrong byte.  No workload in this
//! repository can trigger it (all departures derive from clocks or consumed
//! arrivals plus non-negative costs), and the serial engine remains
//! available at `--island-threads 1`.

use crate::config::ClusterConfig;
use crate::fault::{FaultKind, FaultState, FaultStats};
use crate::net::{panic_aborted, Abort, Message, Tag, LIVELOCK_GRANT_LIMIT};
use crate::obs::{self, Event, EventKind, ObsLevel};
use crate::sched::{wait_graph, PState};
use crate::AnalysisLevel;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether `cfg` runs on the windowed engine with bit-identical output:
/// `Ok(())`, or the reason it falls back to the serial engine (which
/// remains the reference semantics).
///
/// Excluded: fewer than two effective islands or threads (nothing to
/// parallelise), a seeded arbiter (tie-break draws depend on the global
/// grant sequence, which the window does not replay until the barrier),
/// fault-plan crashes (a rank unwinding mid-window would strand its
/// island), reorder faults (a slip positions the message against the
/// *instantaneous* serial mailbox tail, which staged delivery cannot
/// reconstruct — drop, duplicate, delay and partition faults resolve
/// per-link and stay eligible), run-time analysis (the race detector
/// observes under the serial lock), and a zero-latency network (the
/// lookahead window would be empty).
pub fn verdict(cfg: &ClusterConfig) -> Result<(), &'static str> {
    let n = cfg.nprocs.max(1);
    let block = n.div_ceil(cfg.islands.clamp(1, n));
    let decline = [
        (cfg.island_threads < 2, "fewer than two island threads"),
        (n.div_ceil(block) < 2, "fewer than two effective islands"),
        (cfg.sched_seed != 0, "seeded tie-breaking"),
        (
            !cfg.fault.crashes.is_empty(),
            "the fault plan crashes ranks",
        ),
        (cfg.fault.reorder != 0.0, "the fault plan reorders messages"),
        (cfg.analysis != AnalysisLevel::Off, "run-time race analysis"),
        (
            cfg.latency.is_nan() || cfg.latency <= 0.0,
            "a zero-latency network",
        ),
    ];
    match decline.iter().find(|(declined, _)| *declined) {
        Some(&(_, reason)) => Err(reason),
        None => Ok(()),
    }
}

pub(crate) fn eligible(cfg: &ClusterConfig) -> bool {
    verdict(cfg).is_ok()
}

/// A send staged on a slot record: everything the walk needs to reproduce
/// the serial transmit byte for byte.  The fault draws already happened (at
/// transmit time, from the island-local stream clone); the shared-medium
/// start and the arrival are resolved at the walk, where the global serial
/// order is known.  Reorder faults are ineligible, so a staged send is
/// always a tail append.
struct StagedSend {
    dst: usize,
    tag: Tag,
    payload: Bytes,
    depart: f64,
    bytes: u64,
    datagrams: u64,
    occupancy: f64,
    extra_delay: f64,
    extra_occupancy: f64,
    fired: [Option<FaultKind>; 5],
}

/// One effect of a slot, in slot-internal order.
enum Action {
    /// A trace event fully resolved at execution time (grant, consume).
    Trace(Event),
    /// A staged send; resolved (and traced) at the walk.
    Send(StagedSend),
}

/// One executed scheduling slot: the grant the island issued locally, plus
/// every effect the walk must replay globally.
struct Rec {
    /// The grant key (the park key the rank was granted at).
    key: f64,
    /// The granted rank.
    rank: usize,
    /// The slot transmitted or consumed a message: the futile-grant counter
    /// resets after this slot.
    reset: bool,
    /// The slot was an arrival-filtered observation (`try_recv`/`pending`):
    /// tracked for the below-floor taint check.
    observed: bool,
    /// The scheduler state the rank parked into when the slot ended; drives
    /// the `oracle-checks` shadow replay.
    end: PState,
    /// The message this slot consumed (filter plus the matched message), so
    /// the shadow replay can mirror the removal and assert the serial
    /// engine would have matched the same message.
    #[cfg(feature = "oracle-checks")]
    consumed: Option<ShadowConsume>,
    /// Trace events and staged sends, in slot order.
    actions: Vec<Action>,
}

/// A consumed-message record for the `oracle-checks` shadow replay.
#[cfg(feature = "oracle-checks")]
struct ShadowConsume {
    /// Source filter of the receive.
    src: Option<usize>,
    /// Tag filter of the receive.
    tag: Option<Tag>,
    /// Arrival cap (`try_recv`'s "already arrived" filter), if any.
    cap: Option<f64>,
    /// `(src, tag, arrival)` of the message the slot actually removed.
    got: (usize, Tag, f64),
}

/// The serial reference replay: the PR 9 arbiter plus its own view of every
/// rank's scheduler state and mailbox, advanced strictly in walk (serial)
/// order.  The actual shard state cannot stand in for it — islands run
/// ahead of the committed prefix, so a rank's current state may be several
/// slots past the serial point the walk is replaying.
#[cfg(feature = "oracle-checks")]
struct Shadow {
    sched: crate::sched::IslandSched,
    states: Vec<PState>,
    /// Per-rank mailboxes as `(src, tag, arrival)`, in serial push order.
    mailboxes: Vec<VecDeque<(usize, Tag, f64)>>,
}

#[cfg(feature = "oracle-checks")]
impl Shadow {
    fn set(&mut self, rank: usize, st: PState) {
        self.states[rank] = st;
        self.sched.set(rank, st);
    }
}

/// Per-island state: the only lock a rank touches between barriers.
struct Shard {
    /// First global rank of this island (contiguous block).
    base: usize,
    /// Scheduler state per member.
    procs: Vec<PState>,
    /// Last virtual clock each member reported at a scheduling point.
    clocks: Vec<f64>,
    /// Mailboxes of member ranks: committed (walked) messages only.
    mailboxes: Vec<VecDeque<Message>>,
    /// The currently open slot record per member.
    cur: Vec<Option<Rec>>,
    /// Executed slots not yet committed by a walk, in island-serial order.
    recs: VecDeque<Rec>,
    /// Island-local clone of the fault state; only this island's source
    /// links are ever drawn, so the per-link streams match the serial
    /// engine's exactly.  Counters are summed across islands for the report.
    faults: Option<FaultState>,
    /// Members currently running user code.
    running: usize,
    /// Grants issued this window (capped by the per-island budget).
    window_grants: u64,
    /// Current window horizon: island-local grants require `key < h`.
    h: f64,
    /// Current window floor: a park below it stalls the island.
    l: f64,
    /// Island holds one of the window's thread slots.
    active: bool,
}

/// Global coordinator state: touched only when an island quiesces.
struct Coord {
    /// Islands currently holding a thread slot.
    active: usize,
    /// Islands with in-window work awaiting a thread slot.
    pending: VecDeque<usize>,
    /// Consecutive futile grants, accumulated in walk (serial) order.
    futile: u64,
    /// Virtual time until which the shared medium is busy; advanced only
    /// during walks, in serial order.
    medium_free_at: f64,
    /// Central trace stream, appended in walk (serial) order.
    trace: Option<Vec<Event>>,
    /// All ranks finished; no further scheduling.
    done: bool,
    /// The serial reference replay, checking every walked decision.
    #[cfg(feature = "oracle-checks")]
    shadow: Option<Shadow>,
}

/// The windowed engine.  Constructed by `NetworkCore` when
/// [`eligible`] holds; exposes the same primitive surface.
pub(crate) struct WindowedCore {
    cfg: ClusterConfig,
    n: usize,
    /// Ranks per island; island of `rank` is `rank / block`.
    block: usize,
    /// Per-island, per-window grant budget: keeps the futile counter from
    /// crossing [`LIVELOCK_GRANT_LIMIT`] inside a window.
    budget: u64,
    lookahead: f64,
    tracing: bool,
    shards: Vec<Mutex<Shard>>,
    coord: Mutex<Coord>,
    /// One wake-up channel per rank, paired with its island's shard lock.
    wake: Vec<Condvar>,
    /// Fast-path teardown flag; the payload lives in `abort_slot`.
    aborted: AtomicBool,
    /// Why the simulation was torn down (leaf lock: never held while
    /// acquiring another).
    abort_slot: Mutex<Option<Abort>>,
}

fn min_parked(sh: &Shard) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for (i, p) in sh.procs.iter().enumerate() {
        if let PState::Parked { key } = *p {
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, i));
            }
        }
    }
    best
}

fn find(q: &VecDeque<Message>, src: Option<usize>, tag: Option<Tag>) -> Option<usize> {
    q.iter()
        .position(|m| src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t))
}

impl WindowedCore {
    pub(crate) fn new(cfg: ClusterConfig) -> Self {
        let n = cfg.nprocs;
        let islands = cfg.islands.clamp(1, n.max(1));
        let block = n.max(1).div_ceil(islands);
        let nislands = n.max(1).div_ceil(block);
        let tracing = cfg.obs == ObsLevel::Trace;
        let budget = ((LIVELOCK_GRANT_LIMIT / 2) / nislands as u64).max(1);
        let shards = (0..nislands)
            .map(|i| {
                let base = i * block;
                let members = block.min(n - base);
                Mutex::new(Shard {
                    base,
                    procs: vec![PState::Running; members],
                    clocks: vec![0.0; members],
                    mailboxes: (0..members).map(|_| VecDeque::new()).collect(),
                    cur: (0..members).map(|_| None).collect(),
                    recs: VecDeque::new(),
                    faults: FaultState::new(&cfg.fault, n),
                    running: members,
                    window_grants: 0,
                    h: f64::NEG_INFINITY,
                    l: f64::NEG_INFINITY,
                    active: true,
                })
            })
            .collect();
        let coord = Mutex::new(Coord {
            active: nislands,
            pending: VecDeque::new(),
            futile: 0,
            medium_free_at: 0.0,
            trace: if tracing { Some(Vec::new()) } else { None },
            done: false,
            #[cfg(feature = "oracle-checks")]
            shadow: None,
        });
        WindowedCore {
            lookahead: cfg.latency,
            n,
            block,
            budget,
            tracing,
            shards,
            coord,
            wake: (0..n).map(|_| Condvar::new()).collect(),
            aborted: AtomicBool::new(false),
            abort_slot: Mutex::new(None),
            cfg,
        }
    }

    fn island_of(&self, rank: usize) -> (usize, usize) {
        let island = rank / self.block;
        (island, rank - island * self.block)
    }

    fn panic_with_abort(&self) -> ! {
        let slot = self.abort_slot.lock();
        match &*slot {
            Some(abort) => panic_aborted(abort),
            // The flag is only ever raised after the payload is stored.
            None => unreachable!("abort flag raised without a payload"),
        }
    }

    /// Record the teardown cause, raise the flag, and wake every sleeper.
    fn raise_abort(&self, abort: Abort) {
        {
            let mut slot = self.abort_slot.lock();
            if slot.is_none() {
                *slot = Some(abort);
            }
        }
        self.aborted.store(true, Ordering::Release);
        for cv in &self.wake {
            cv.notify_all();
        }
    }

    /// Grant member `idx` of `sh` (parked at `key`): open its slot record
    /// and wake it.  Caller has established the grant is legal.
    fn grant_local(&self, sh: &mut Shard, idx: usize, key: f64) {
        let rank = sh.base + idx;
        sh.procs[idx] = PState::Running;
        sh.running += 1;
        sh.window_grants += 1;
        let mut actions = Vec::with_capacity(2);
        if self.tracing {
            actions.push(Action::Trace(Event {
                t_ns: obs::ns(key),
                rank: rank as u32,
                kind: EventKind::Grant,
            }));
        }
        sh.cur[idx] = Some(Rec {
            key,
            rank,
            reset: false,
            observed: false,
            end: PState::Running,
            #[cfg(feature = "oracle-checks")]
            consumed: None,
            actions,
        });
        self.wake[rank].notify_one();
    }

    /// Issue the island's next local grant, or report that it has quiesced
    /// for this window (no member running and nothing grantable inside the
    /// window, under budget, at or above the floor).
    fn island_dispatch(&self, sh: &mut Shard) -> bool {
        if sh.running > 0 {
            return false;
        }
        match min_parked(sh) {
            Some((key, idx)) if key < sh.h && key >= sh.l && sh.window_grants < self.budget => {
                self.grant_local(sh, idx, key);
                false
            }
            _ => true,
        }
    }

    /// An island released its thread slot: hand the slot to a pending
    /// island, or — when this was the last active island — run the barrier.
    fn on_quiesce(&self) {
        let mut coord = self.coord.lock();
        loop {
            if let Some(p) = coord.pending.pop_front() {
                let mut sh = self.shards[p].lock();
                sh.active = true;
                if self.island_dispatch(&mut sh) {
                    // Nothing grantable after all (cannot normally happen:
                    // pending islands are untouched between plan and
                    // activation); pass the slot on.
                    sh.active = false;
                    drop(sh);
                    continue;
                }
                return;
            }
            coord.active -= 1;
            if coord.active == 0 {
                self.barrier(&mut coord);
            }
            return;
        }
    }

    /// Park `me` in `state` at `clock`, dispatch the island, and sleep until
    /// granted again.  The windowed analogue of the serial `park`.
    fn schedule<'a>(&'a self, me: usize, state: PState, clock: f64) -> MutexGuard<'a, Shard> {
        let (island, _) = self.island_of(me);
        let sh = self.shards[island].lock();
        self.schedule_locked(sh, me, state, clock)
    }

    fn schedule_locked<'a>(
        &'a self,
        mut sh: MutexGuard<'a, Shard>,
        me: usize,
        state: PState,
        clock: f64,
    ) -> MutexGuard<'a, Shard> {
        let (island, idx) = self.island_of(me);
        if self.aborted.load(Ordering::Acquire) {
            drop(sh);
            self.panic_with_abort();
        }
        if let Some(mut rec) = sh.cur[idx].take() {
            rec.end = state;
            sh.recs.push_back(rec);
        }
        debug_assert!(matches!(sh.procs[idx], PState::Running));
        sh.procs[idx] = state;
        sh.clocks[idx] = clock;
        sh.running -= 1;
        if self.island_dispatch(&mut sh) && sh.active {
            sh.active = false;
            drop(sh);
            self.on_quiesce();
            sh = self.shards[island].lock();
        }
        loop {
            if self.aborted.load(Ordering::Acquire) {
                drop(sh);
                self.panic_with_abort();
            }
            if matches!(sh.procs[idx], PState::Running) {
                return sh;
            }
            self.wake[me].wait(&mut sh);
        }
    }

    /// The window barrier: commit the serial prefix, check invariants, and
    /// plan the next window (or finish, or abort).
    fn barrier(&self, coord: &mut Coord) {
        if coord.done {
            return;
        }
        let mut shards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(|s| s.lock()).collect();
        #[cfg(feature = "oracle-checks")]
        if coord.shadow.is_none() {
            // First barrier: every rank has reached its first scheduling
            // point (or finished), no slot has run and no message has been
            // pushed — seed the serial reference replay with the exact
            // current state (which is also the exact serial state: first
            // parks precede every grant in both engines).
            let mut shadow = Shadow {
                sched: crate::sched::IslandSched::new(
                    self.n,
                    self.cfg.islands,
                    self.cfg.sched_seed,
                    self.cfg.tie_limit,
                    self.cfg.latency,
                ),
                states: vec![PState::Running; self.n],
                mailboxes: (0..self.n).map(|_| VecDeque::new()).collect(),
            };
            for sh in &shards {
                for (i, p) in sh.procs.iter().enumerate() {
                    shadow.set(sh.base + i, *p);
                }
            }
            coord.shadow = Some(shadow);
        }
        self.walk(coord, &mut shards);
        self.taint_check(&shards);
        self.plan(coord, &mut shards);
    }

    /// Commit executed slots in global serial order: repeatedly apply the
    /// minimum `(key, rank)` front record across islands, stopping at the
    /// first unexecuted park (everything serially after it is deferred).
    fn walk(&self, coord: &mut Coord, shards: &mut [MutexGuard<'_, Shard>]) {
        loop {
            // (key, rank, is_record); on an exact (key, rank) tie the record
            // precedes the park — it is the same rank's already-executed
            // slot.
            let mut best: Option<(f64, usize, bool)> = None;
            for sh in shards.iter() {
                let cand = match sh.recs.front() {
                    Some(rec) => Some((rec.key, rec.rank, true)),
                    None => min_parked(sh).map(|(k, i)| (k, sh.base + i, false)),
                };
                if let Some((k, r, is_rec)) = cand {
                    let better = match best {
                        None => true,
                        Some((bk, br, b_rec)) => (k, r, !is_rec as u8) < (bk, br, !b_rec as u8),
                    };
                    if better {
                        best = Some((k, r, is_rec));
                    }
                }
            }
            match best {
                Some((_, rank, true)) => {
                    let (island, _) = self.island_of(rank);
                    let rec = shards[island].recs.pop_front().expect("front just seen");
                    self.apply(coord, shards, rec);
                }
                // The frontier is an unexecuted park (or nothing remains):
                // the committed prefix is maximal.
                _ => return,
            }
        }
    }

    /// Apply one committed slot: exactly the serial engine's per-grant
    /// effects, in the serial engine's order.
    fn apply(&self, coord: &mut Coord, shards: &mut [MutexGuard<'_, Shard>], rec: Rec) {
        #[cfg(feature = "oracle-checks")]
        if let Some(shadow) = coord.shadow.as_mut() {
            assert_eq!(
                shadow.sched.decide(),
                crate::sched::Decision::Grant(rec.rank),
                "windowed walk diverged from the serial reference arbiter \
                 at t={} rank {}",
                rec.key,
                rec.rank,
            );
            shadow.set(rec.rank, PState::Running);
            // Replay the slot's consume: the serial engine removes the
            // first filter match, which must be the message the windowed
            // slot actually took.
            if let Some(c) = &rec.consumed {
                let q = &mut shadow.mailboxes[rec.rank];
                let pos = q
                    .iter()
                    .position(|&(s, t, a)| {
                        c.src.is_none_or(|w| w == s)
                            && c.tag.is_none_or(|w| w == t)
                            && c.cap.is_none_or(|cap| a <= cap)
                    })
                    .unwrap_or_else(|| {
                        panic!(
                            "serial replay has no match for the message rank {} \
                             consumed at t={}",
                            rec.rank, rec.key
                        )
                    });
                let got = q.remove(pos).expect("position just found");
                assert_eq!(
                    got, c.got,
                    "windowed rank {} consumed a different message than the \
                     serial replay at t={}",
                    rec.rank, rec.key
                );
            }
        }
        coord.futile += 1;
        debug_assert!(
            coord.futile < LIVELOCK_GRANT_LIMIT,
            "futile-grant budget failed to stop a window before the livelock limit"
        );
        let src = rec.rank;
        for action in rec.actions {
            match action {
                Action::Trace(ev) => {
                    if let Some(tr) = coord.trace.as_mut() {
                        tr.push(ev);
                    }
                }
                Action::Send(s) => {
                    let start = if self.cfg.shared_medium {
                        let start = s.depart.max(coord.medium_free_at);
                        coord.medium_free_at = start + s.occupancy + s.extra_occupancy;
                        start
                    } else {
                        s.depart
                    };
                    let arrival = start + s.occupancy + self.cfg.latency + s.extra_delay;
                    let (di, didx) = self.island_of(s.dst);
                    if let Some(tr) = coord.trace.as_mut() {
                        for &kind in s.fired.iter().flatten() {
                            tr.push(Event {
                                t_ns: obs::ns(s.depart),
                                rank: src as u32,
                                kind: EventKind::Fault {
                                    kind,
                                    dst: s.dst as u32,
                                    delay_ns: obs::ns(s.extra_delay),
                                },
                            });
                        }
                        tr.push(Event {
                            t_ns: obs::ns(s.depart),
                            rank: src as u32,
                            kind: EventKind::Send {
                                dst: s.dst as u32,
                                tag: s.tag,
                                bytes: s.bytes,
                                datagrams: s.datagrams,
                                arrival_ns: obs::ns(arrival),
                            },
                        });
                    }
                    let message = Message {
                        src,
                        dst: s.dst,
                        tag: s.tag,
                        payload: s.payload,
                        arrival,
                        datagrams: s.datagrams,
                    };
                    shards[di].mailboxes[didx].push_back(message);
                    // Wake a blocked receiver the moment its message commits
                    // (the rank may have blocked several committed slots
                    // ahead of this serial point; the promotion key is still
                    // the serial one — the first matching push both engines
                    // agree on).
                    if let PState::RecvBlocked {
                        src: want_src,
                        tag: want_tag,
                        clock,
                    } = shards[di].procs[didx]
                    {
                        if want_src.is_none_or(|ws| ws == src)
                            && want_tag.is_none_or(|wt| wt == s.tag)
                        {
                            let key = clock.max(arrival);
                            shards[di].procs[didx] = PState::Parked { key };
                        }
                    }
                    // The shadow replays the push — and the serial engine's
                    // promotion rule — against its own serial-point state,
                    // never the (possibly run-ahead) actual state.
                    #[cfg(feature = "oracle-checks")]
                    if let Some(shadow) = coord.shadow.as_mut() {
                        shadow.mailboxes[s.dst].push_back((src, s.tag, arrival));
                        if let PState::RecvBlocked {
                            src: want_src,
                            tag: want_tag,
                            clock,
                        } = shadow.states[s.dst]
                        {
                            if want_src.is_none_or(|ws| ws == src)
                                && want_tag.is_none_or(|wt| wt == s.tag)
                            {
                                let key = clock.max(arrival);
                                shadow.set(s.dst, PState::Parked { key });
                            }
                        }
                    }
                }
            }
        }
        if rec.reset {
            coord.futile = 0;
        }
        // Close the slot in the shadow.  A windowed rank can block on a
        // receive whose message was still staged when it ran; serially that
        // message was already in the mailbox, so the serial engine parks the
        // rank directly — translate the end state through the shadow's own
        // mailbox.
        #[cfg(feature = "oracle-checks")]
        if let Some(shadow) = coord.shadow.as_mut() {
            let end = match rec.end {
                PState::RecvBlocked { src, tag, clock } => shadow.mailboxes[rec.rank]
                    .iter()
                    .find(|&&(s, t, _)| src.is_none_or(|w| w == s) && tag.is_none_or(|w| w == t))
                    .map_or(rec.end, |&(_, _, arrival)| PState::Parked {
                        key: clock.max(arrival),
                    }),
                other => other,
            };
            shadow.set(rec.rank, end);
        }
    }

    /// The below-floor backstop: if any island stalled below the closing
    /// window's floor, no already-executed, still-deferred observation may
    /// lie at or beyond the earliest time the stalled slot's sends could
    /// reach.  A violation means the engine already handed a wrong
    /// observation to the program — crash deterministically instead of
    /// committing wrong bytes.  See the module docs; unreachable for
    /// departure times derived from clocks or consumed arrivals.
    fn taint_check(&self, shards: &[MutexGuard<'_, Shard>]) {
        let mut stalled = f64::INFINITY;
        for sh in shards.iter() {
            if let Some((key, _)) = min_parked(sh) {
                if key < sh.l && key < stalled {
                    stalled = key;
                }
            }
        }
        if stalled == f64::INFINITY {
            return;
        }
        for sh in shards.iter() {
            for rec in &sh.recs {
                assert!(
                    !(rec.observed && rec.key >= stalled + self.lookahead),
                    "windowed-engine invariant violated: observation at t={} \
                     was executed before a slot stalled below the window \
                     floor at t={} (lookahead {}); rerun with \
                     --island-threads 1 and report this",
                    rec.key,
                    stalled,
                    self.lookahead,
                );
            }
        }
    }

    fn fault_context(&self) -> String {
        use std::fmt::Write as _;
        // The windowed engine never runs with crash faults, so the serial
        // report's crashed-peer lines are vacuous; partitions are not.
        let mut out = String::new();
        if !self.cfg.fault.is_empty() {
            for p in &self.cfg.fault.partitions {
                let _ = writeln!(out, "  fault context: fault-plan partition {p}");
            }
        }
        out
    }

    fn report_to_stderr(&self) -> bool {
        self.cfg.fault.is_empty() && self.cfg.sched_seed == 0
    }

    fn global_states(&self, shards: &[MutexGuard<'_, Shard>]) -> Vec<PState> {
        shards
            .iter()
            .flat_map(|sh| sh.procs.iter().copied())
            .collect()
    }

    fn global_mailboxes(&self, shards: &[MutexGuard<'_, Shard>]) -> Vec<VecDeque<Message>> {
        shards
            .iter()
            .flat_map(|sh| sh.mailboxes.iter().cloned())
            .collect()
    }

    /// Decide what happens after a walk: all done, deadlock, a serial step,
    /// or the next window.
    fn plan(&self, coord: &mut Coord, shards: &mut [MutexGuard<'_, Shard>]) {
        let mut all_finished = true;
        let mut floor = f64::INFINITY;
        // Global minimum parked (key, rank) — the serial engine's next grant.
        let mut gmin: Option<(f64, usize)> = None;
        for sh in shards.iter() {
            for (i, p) in sh.procs.iter().enumerate() {
                match *p {
                    PState::Finished => {}
                    PState::Parked { key } => {
                        all_finished = false;
                        floor = floor.min(key).min(sh.clocks[i]);
                        let rank = sh.base + i;
                        if gmin.is_none_or(|(bk, br)| key < bk || (key == bk && rank < br)) {
                            gmin = Some((key, rank));
                        }
                    }
                    PState::RecvBlocked { clock, .. } => {
                        all_finished = false;
                        floor = floor.min(clock).min(sh.clocks[i]);
                    }
                    PState::Running => unreachable!("a rank is running at a barrier"),
                }
            }
            for (i, q) in sh.mailboxes.iter().enumerate() {
                if !matches!(sh.procs[i], PState::Finished) {
                    for m in q {
                        floor = floor.min(m.arrival);
                    }
                }
            }
        }
        if all_finished {
            coord.done = true;
            return;
        }
        let Some((gk, grank)) = gmin else {
            // Nobody parked, somebody blocked: the serial deadlock, with the
            // identical wait graph over the identical committed state.
            let states = self.global_states(shards);
            let mailboxes = self.global_mailboxes(shards);
            let mut graph = wait_graph(&states, &mailboxes);
            graph.push_str(&self.fault_context());
            if self.report_to_stderr() {
                eprintln!("{graph}");
            }
            self.raise_abort(Abort::Deadlock(graph));
            return;
        };
        let serial_only = coord.futile >= LIVELOCK_GRANT_LIMIT / 2;
        let h = floor + self.lookahead;
        if !serial_only && gk < h {
            // Open a window: every island with work inside [floor, h) gets a
            // thread slot, earliest minimum first (pure scheduling heuristic
            // — the walk alone fixes the committed order).
            let mut order: Vec<(f64, usize)> = Vec::new();
            for (is, sh) in shards.iter_mut().enumerate() {
                sh.h = h;
                sh.l = floor;
                sh.window_grants = 0;
                sh.active = false;
                if let Some((k, _)) = min_parked(sh) {
                    if k < h {
                        order.push((k, is));
                    }
                }
            }
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let t = self.cfg.island_threads.min(order.len());
            coord.active = t;
            coord.pending = order[t..].iter().map(|&(_, is)| is).collect();
            for &(_, is) in &order[..t] {
                let sh = &mut shards[is];
                sh.active = true;
                let (k, idx) = min_parked(sh).expect("island in order has a parked member");
                self.grant_local(sh, idx, k);
            }
        } else {
            // Serial step: grant exactly the serial engine's next grant and
            // re-barrier after its slot — with the serial engine's exact
            // pre-grant livelock accounting.
            if coord.futile + 1 >= LIVELOCK_GRANT_LIMIT {
                if let Some(tr) = coord.trace.as_mut() {
                    tr.push(Event {
                        t_ns: obs::ns(gk),
                        rank: grank as u32,
                        kind: EventKind::Grant,
                    });
                }
                coord.futile += 1;
                let states = self.global_states(shards);
                let mailboxes = self.global_mailboxes(shards);
                let graph = wait_graph(&states, &mailboxes);
                let context = self.fault_context();
                let report = format!(
                    "virtual-time livelock: {LIVELOCK_GRANT_LIMIT} consecutive turns granted \
                     (next: process {grank}) without any message transmitted or consumed; \
                     a poll loop is spinning without making progress\n{graph}{context}"
                );
                if self.report_to_stderr() {
                    eprintln!("{report}");
                }
                self.raise_abort(Abort::Livelock(report));
                return;
            }
            for sh in shards.iter_mut() {
                sh.h = f64::NEG_INFINITY;
                sh.l = f64::NEG_INFINITY;
                sh.window_grants = 0;
                sh.active = false;
            }
            let (is, idx) = self.island_of(grank);
            coord.active = 1;
            coord.pending.clear();
            let sh = &mut shards[is];
            sh.active = true;
            self.grant_local(sh, idx, gk);
        }
    }

    // ------------------------------------------------------------------
    // The primitive surface (mirrors `NetworkCore`).
    // ------------------------------------------------------------------

    /// Windowed transmit: draw faults island-locally, stage the send on the
    /// slot record, and return the datagram count.  Arrival and medium
    /// reservation are resolved at the walk.
    pub(crate) fn transmit(
        &self,
        src: usize,
        dst: usize,
        tag: Tag,
        payload: Bytes,
        depart: f64,
        clock: f64,
    ) -> u64 {
        assert!(dst < self.n, "send to nonexistent process {dst}");
        let (_, idx) = self.island_of(src);
        let mut sh = self.schedule(src, PState::Parked { key: depart }, clock);
        let bytes = payload.len();
        let mut datagrams = self.cfg.datagrams_for(bytes);
        let occupancy = self.cfg.occupancy(bytes);
        let (mut extra_delay, mut extra_occupancy) = (0.0, 0.0);
        let mut fired: [Option<FaultKind>; 5] = [None; 5];
        if let Some(f) = sh.faults.as_mut() {
            let inj = f.on_transmit(src, dst, depart, datagrams, occupancy, self.cfg.latency);
            debug_assert!(!inj.reorder, "reorder plans are ineligible for this engine");
            datagrams += inj.extra_datagrams;
            extra_delay = inj.extra_delay;
            extra_occupancy = inj.extra_occupancy;
            fired = inj.kinds;
        }
        let rec = sh.cur[idx].as_mut().expect("granted rank has an open slot");
        rec.reset = true;
        rec.actions.push(Action::Send(StagedSend {
            dst,
            tag,
            payload,
            depart,
            bytes: bytes as u64,
            datagrams,
            occupancy,
            extra_delay,
            extra_occupancy,
            fired,
        }));
        datagrams
    }

    /// Windowed blocking receive; identical matching and keying to the
    /// serial engine, against the committed mailbox.
    pub(crate) fn recv_match(
        &self,
        dst: usize,
        src: Option<usize>,
        tag: Option<Tag>,
        clock: f64,
    ) -> Message {
        let (island, idx) = self.island_of(dst);
        let sh = self.shards[island].lock();
        let state = match find(&sh.mailboxes[idx], src, tag) {
            Some(pos) => PState::Parked {
                key: clock.max(sh.mailboxes[idx][pos].arrival),
            },
            None => PState::RecvBlocked { src, tag, clock },
        };
        let mut sh = self.schedule_locked(sh, dst, state, clock);
        let pos = find(&sh.mailboxes[idx], src, tag)
            .expect("granted receiver must have a matching message");
        let m = sh.mailboxes[idx].remove(pos).expect("position just found");
        let rec = sh.cur[idx].as_mut().expect("granted rank has an open slot");
        rec.reset = true;
        #[cfg(feature = "oracle-checks")]
        {
            rec.consumed = Some(ShadowConsume {
                src,
                tag,
                cap: None,
                got: (m.src, m.tag, m.arrival),
            });
        }
        if self.tracing {
            rec.actions.push(Action::Trace(Event {
                t_ns: obs::ns(clock.max(m.arrival)),
                rank: dst as u32,
                kind: EventKind::Consume {
                    src: m.src as u32,
                    tag: m.tag,
                    arrival_ns: obs::ns(m.arrival),
                },
            }));
        }
        m
    }

    /// Windowed non-blocking receive.  Arrival-filtered, so marked as an
    /// observation for the below-floor backstop.
    pub(crate) fn try_recv_match(
        &self,
        dst: usize,
        src: Option<usize>,
        tag: Option<Tag>,
        now: f64,
    ) -> Option<Message> {
        let (_, idx) = self.island_of(dst);
        let mut sh = self.schedule(dst, PState::Parked { key: now }, now);
        sh.cur[idx]
            .as_mut()
            .expect("granted rank has an open slot")
            .observed = true;
        let pos = sh.mailboxes[idx].iter().position(|m| {
            m.arrival <= now && src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t)
        })?;
        let m = sh.mailboxes[idx].remove(pos)?;
        let rec = sh.cur[idx].as_mut().expect("granted rank has an open slot");
        rec.reset = true;
        #[cfg(feature = "oracle-checks")]
        {
            rec.consumed = Some(ShadowConsume {
                src,
                tag,
                cap: Some(now),
                got: (m.src, m.tag, m.arrival),
            });
        }
        if self.tracing {
            rec.actions.push(Action::Trace(Event {
                t_ns: obs::ns(now),
                rank: dst as u32,
                kind: EventKind::Consume {
                    src: m.src as u32,
                    tag: m.tag,
                    arrival_ns: obs::ns(m.arrival),
                },
            }));
        }
        Some(m)
    }

    /// Windowed mailbox census; an observation like `try_recv_match`.
    pub(crate) fn pending(&self, dst: usize, now: f64) -> usize {
        let (_, idx) = self.island_of(dst);
        let mut sh = self.schedule(dst, PState::Parked { key: now }, now);
        sh.cur[idx]
            .as_mut()
            .expect("granted rank has an open slot")
            .observed = true;
        sh.mailboxes[idx]
            .iter()
            .filter(|m| m.arrival <= now)
            .count()
    }

    /// Mark `id` finished; its last slot record (if any) closes with the
    /// `Finished` end state for the oracle replay.
    pub(crate) fn finish(&self, id: usize) {
        let (island, idx) = self.island_of(id);
        let mut sh = self.shards[island].lock();
        if self.aborted.load(Ordering::Acquire) {
            return;
        }
        if let Some(mut rec) = sh.cur[idx].take() {
            rec.end = PState::Finished;
            sh.recs.push_back(rec);
        }
        sh.procs[idx] = PState::Finished;
        sh.running -= 1;
        if self.island_dispatch(&mut sh) && sh.active {
            sh.active = false;
            drop(sh);
            self.on_quiesce();
        }
    }

    /// Tear the cluster down because `who` panicked.
    pub(crate) fn abort(&self, who: usize) {
        self.raise_abort(Abort::Panic(who));
    }

    /// Fault-plan crashes are ineligible for the windowed engine.
    pub(crate) fn crash(&self, _id: usize, _at: f64) {
        unreachable!("fault-plan crashes always run on the serial engine");
    }

    /// No crashes can fire under the windowed engine's eligibility rules.
    pub(crate) fn crashed(&self) -> Vec<(usize, f64)> {
        Vec::new()
    }

    /// Sum the per-island fault counters.  Tie-breaks are zero by
    /// construction (the windowed engine requires seed 0, which never
    /// draws).
    pub(crate) fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in &self.shards {
            if let Some(f) = &s.lock().faults {
                total.absorb(&f.stats);
            }
        }
        total
    }

    /// Drain the central trace, assembled in walk (serial) order.
    pub(crate) fn take_central(&self) -> Vec<Event> {
        self.coord.lock().trace.take().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultPlan;
    use crate::{Cluster, ClusterConfig, ObsLevel, Proc, RunFailure};
    use bytes::Bytes;

    fn cfg(n: usize, islands: usize, threads: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::calibrated_fddi(n);
        cfg.islands = islands;
        cfg.island_threads = threads;
        cfg.obs = ObsLevel::Trace;
        cfg
    }

    /// Everything a run reports, flattened into directly comparable form:
    /// results, `Debug` of the per-process stats, `Debug` of the fault
    /// counters and `Debug` of the central trace.  `Debug` of `f64` prints
    /// the shortest string that round-trips, so equal strings mean equal
    /// bits.
    fn fingerprint<R, F>(cfg: ClusterConfig, f: F) -> (Vec<R>, String, String, String)
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(&Proc) -> R + Send + Sync,
    {
        let rep = Cluster::run(cfg, f);
        let stats = format!("{:?}", rep.stats);
        let faults = format!("{:?}", rep.faults);
        let central = format!("{:?}", rep.obs.map(|o| o.central).unwrap_or_default());
        (rep.results, stats, faults, central)
    }

    /// Run `f` at island-thread widths 1 (the serial engine), 2 and 4 (the
    /// windowed engine) and assert every reported artefact is identical.
    fn assert_width_invariant<R, F>(mk: impl Fn() -> ClusterConfig, f: F)
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(&Proc) -> R + Send + Sync + Copy,
    {
        let mut serial = mk();
        serial.island_threads = 1;
        assert!(
            !super::eligible(&serial),
            "width 1 must use the serial engine"
        );
        let base = fingerprint(serial, f);
        for threads in [2usize, 4] {
            let mut c = mk();
            c.island_threads = threads;
            assert!(
                super::eligible(&c),
                "config must exercise the windowed engine at width {threads}"
            );
            let got = fingerprint(c, f);
            assert_eq!(base.0, got.0, "results diverge at width {threads}");
            assert_eq!(base.1, got.1, "stats diverge at width {threads}");
            assert_eq!(base.2, got.2, "fault counters diverge at width {threads}");
            assert_eq!(base.3, got.3, "central trace diverges at width {threads}");
        }
    }

    /// Ring exchange with wildcard-source receives, skewed payload sizes and
    /// skewed compute, across island boundaries every round.
    fn ring(p: &Proc) -> u64 {
        let n = p.nprocs();
        let me = p.id();
        let mut acc = 0u64;
        for round in 0..6u32 {
            let size = 32 + (me * 37 + round as usize * 101) % 2000;
            p.send((me + 1) % n, round, Bytes::from(vec![me as u8; size]));
            let m = p.recv(None, round);
            acc = acc.wrapping_mul(31).wrapping_add(m.payload.len() as u64);
            p.compute(1e-6 * (me as f64 + 1.0));
        }
        acc.wrapping_add(p.clock().to_bits())
    }

    #[test]
    fn ring_is_width_invariant() {
        for n in [4usize, 8] {
            for islands in [2usize, 4] {
                assert_width_invariant(|| cfg(n, islands, 1), ring);
            }
        }
    }

    /// All-to-all on the shared medium: every send contends for the wire, so
    /// walk-time medium accounting must replay the serial `medium_free_at`
    /// sequence exactly.
    fn all_to_all(p: &Proc) -> u64 {
        let n = p.nprocs();
        let me = p.id();
        for dst in 0..n {
            if dst != me {
                p.send(dst, 7, Bytes::from(vec![me as u8; 64 + dst * 17]));
            }
        }
        let mut acc = 0u64;
        for _ in 0..n - 1 {
            let m = p.recv(None, 7);
            acc = acc.wrapping_mul(131).wrapping_add(m.src as u64);
        }
        acc.wrapping_add(p.clock().to_bits())
    }

    #[test]
    fn shared_medium_all_to_all_is_width_invariant() {
        assert_width_invariant(|| cfg(8, 4, 1), all_to_all);
    }

    /// One busy sender, pollers that interleave `try_recv` with compute.
    /// Exercises the futile-grant accounting and `try_recv`'s arrival filter
    /// at the window boundary.
    fn pollers(p: &Proc) -> u64 {
        let n = p.nprocs();
        if p.id() == 0 {
            for dst in 1..n {
                p.compute(2e-6);
                p.send(dst, 1, Bytes::from(vec![dst as u8; 256]));
            }
            0
        } else {
            let mut polls = 0u64;
            loop {
                if let Some(m) = p.try_recv(Some(0), 1) {
                    return polls
                        .wrapping_mul(1000)
                        .wrapping_add(m.payload.len() as u64);
                }
                polls += 1;
                p.compute(1e-6);
            }
        }
    }

    #[test]
    fn polling_is_width_invariant() {
        assert_width_invariant(|| cfg(6, 2, 1), pollers);
        assert_width_invariant(|| cfg(6, 4, 1), pollers);
    }

    /// Fire-and-poll workload that terminates under message loss: sends are
    /// unacknowledged and receives are bounded drains, so dropped or
    /// partitioned messages never wedge a rank.
    fn lossy_safe(p: &Proc) -> u64 {
        let n = p.nprocs();
        let me = p.id();
        for r in 0..4u32 {
            p.send((me + 1) % n, r, Bytes::from(vec![me as u8; 700]));
            p.send((me + 2) % n, r, Bytes::from(vec![me as u8; 90]));
        }
        let mut acc = 0u64;
        for _ in 0..300 {
            p.compute(5e-6);
            while let Some(m) = p.try_recv_interrupt() {
                acc = acc
                    .wrapping_mul(131)
                    .wrapping_add(m.src as u64 * 7 + m.payload.len() as u64);
            }
        }
        acc
    }

    #[test]
    fn lossy_plan_is_width_invariant() {
        // The built-in lossy battery minus reorder: drop, duplicate and
        // delay faults are all windowed-eligible.
        assert_width_invariant(
            || {
                let mut c = cfg(8, 4, 1);
                c.fault = FaultPlan {
                    reorder: 0.0,
                    ..FaultPlan::lossy(3)
                };
                c
            },
            lossy_safe,
        );
    }

    /// Reorder plans must fall back to the serial engine at every width —
    /// and the output is (trivially) still width-invariant.
    #[test]
    fn reorder_plan_falls_back_to_serial() {
        let mk = |threads: usize| {
            let mut c = cfg(8, 4, threads);
            c.fault = FaultPlan::lossy(3);
            c
        };
        assert!(!super::eligible(&mk(4)));
        let base = fingerprint(mk(1), lossy_safe);
        assert_eq!(base, fingerprint(mk(4), lossy_safe));
    }

    #[test]
    fn partition_plan_is_width_invariant() {
        assert_width_invariant(
            || {
                let mut c = cfg(8, 2, 1);
                c.fault = FaultPlan::partitioned(5, 8);
                c
            },
            lossy_safe,
        );
    }

    /// The deadlock report — wait graph and all — must be byte-identical
    /// whichever engine detects it.
    #[test]
    fn deadlock_report_is_width_invariant() {
        let f = |p: &Proc| {
            if p.id() == 0 {
                let _ = p.recv(Some(1), 99);
            }
            0u64
        };
        let msg_at = |threads: usize| {
            let c = cfg(4, 2, threads);
            match Cluster::try_run(c, f) {
                Err(RunFailure::Deadlock(m)) => m,
                Err(other) => panic!("expected deadlock, got {other:?}"),
                Ok(_) => panic!("run unexpectedly succeeded"),
            }
        };
        let serial = msg_at(1);
        assert!(serial.contains("virtual-time deadlock"), "{serial}");
        assert_eq!(serial, msg_at(2));
        assert_eq!(serial, msg_at(4));
    }

    /// The livelock detector must fire after the same number of futile
    /// grants and produce the same report under both engines.
    #[test]
    fn livelock_report_is_width_invariant() {
        let f = |p: &Proc| {
            if p.id() == 0 {
                loop {
                    if p.try_recv(Some(1), 1).is_some() {
                        return 1u64;
                    }
                }
            } else {
                let _ = p.recv(Some(0), 2);
                2
            }
        };
        let msg_at = |threads: usize| {
            let mut c = ClusterConfig::calibrated_fddi(2);
            c.islands = 2;
            c.island_threads = threads;
            match Cluster::try_run(c, f) {
                Err(RunFailure::Livelock(m)) => m,
                Err(other) => panic!("expected livelock, got {other:?}"),
                Ok(_) => panic!("run unexpectedly succeeded"),
            }
        };
        let serial = msg_at(1);
        assert!(serial.contains("virtual-time livelock"), "{serial}");
        assert_eq!(serial, msg_at(2));
    }

    /// Configurations the windowed engine must decline: seeded tie-breaks,
    /// race analysis, crash plans, a single island, a single process.
    #[test]
    fn ineligible_configs_fall_back_to_serial() {
        let base = cfg(4, 2, 4);
        assert!(super::eligible(&base));

        let mut seeded = base.clone();
        seeded.sched_seed = 9;
        assert!(!super::eligible(&seeded));
        assert_eq!(super::verdict(&seeded), Err("seeded tie-breaking"));

        let mut race = base.clone();
        race.analysis = crate::AnalysisLevel::Race;
        assert!(!super::eligible(&race));
        assert_eq!(super::verdict(&race), Err("run-time race analysis"));

        let mut one_island = base.clone();
        one_island.islands = 1;
        assert!(!super::eligible(&one_island));

        let mut solo = base.clone();
        solo.nprocs = 1;
        assert!(!super::eligible(&solo));

        let mut free = base;
        free.latency = 0.0;
        assert!(!super::eligible(&free));
    }
}
