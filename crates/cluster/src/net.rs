//! The transport layer: tagged messages, per-process mailboxes, the
//! shared-medium cost model, and the deterministic virtual-time arbiter.
//!
//! Every logical message is fragmented into MTU-sized datagrams for cost and
//! statistics purposes (the paper's TreadMarks numbers count UDP datagrams),
//! but is delivered to the destination mailbox as a single unit — exactly the
//! behaviour of a user-level reliable protocol on top of UDP, or of a TCP
//! stream carrying one PVM message.
//!
//! All shared state — mailboxes, the shared-medium reservation, and the
//! per-process scheduler states — lives in one `RefCell`, and every
//! interaction goes through the conservative arbiter in `crate::sched`:
//! a process may transmit, consume, or observe messages only while it holds
//! the minimum virtual time among runnable processes.  Medium-acquisition
//! order is therefore a pure function of virtual timestamps (ties broken by
//! rank), never of OS scheduling, and two runs of the same program produce
//! byte-identical times and counters.

use crate::config::ClusterConfig;
use crate::coro;
use crate::fault::{FaultState, Injection};
use crate::obs::{self, Event, EventKind, Trace};
use crate::sched::{wait_graph, Arbiter, Decision, PState};
use bytes::Bytes;
use std::any::Any;
use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

/// Message tags distinguish independent conversations between two processes.
pub type Tag = u32;

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending process rank.
    pub src: usize,
    /// Destination process rank.
    pub dst: usize,
    /// Application-chosen tag.
    pub tag: Tag,
    /// What the message carries.
    pub payload: Payload,
    /// Virtual time at which the message arrived at the destination.
    pub arrival: f64,
    /// Number of transport datagrams this message occupied on the wire.
    pub datagrams: u64,
}

/// What a message carries: bytes, or a value the sender shares with the
/// receiver.
///
/// A run's ranks are coroutines on one thread, so a runtime that models its
/// messages as data structures can hand the receiver the sender's own
/// refcounted value instead of an encoding of it.  The cost model charges
/// only the length: a value travels with the byte length its encoding
/// would have, and every counter, arrival time and trace reads the same as
/// for those bytes.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Encoded bytes: PVM's packed buffers (pack/unpack is the PVM model).
    Bytes(Bytes),
    /// A value shared with the sender (every DSM message), charged as `len` wire bytes.
    Value {
        /// The value; the receiver downcasts it with [`Payload::into_value`].
        value: Rc<dyn Any>,
        /// The byte length the cost model charges for the value.
        len: usize,
    },
}

impl Payload {
    /// The byte length the cost model charges.
    pub fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Value { len, .. } => *len,
        }
    }

    /// Whether the charged length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes of a byte payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload is a value: the sender and the receiver of a
    /// tag disagree about its form, a bug in the runtime that sent it.
    pub fn into_bytes(self) -> Bytes {
        match self {
            Payload::Bytes(b) => b,
            Payload::Value { len, .. } => panic!("expected bytes, got a {len}-byte value"),
        }
    }

    /// The shared value of a value payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload is bytes or a value of another type.
    pub fn into_value<T: Any>(self) -> Rc<T> {
        let want = std::any::type_name::<T>();
        match self {
            Payload::Value { value, .. } => value
                .downcast()
                .unwrap_or_else(|_| panic!("expected a {want}, got another value")),
            Payload::Bytes(b) => panic!("expected a {want}, got {} bytes", b.len()),
        }
    }
}

impl From<Bytes> for Payload {
    fn from(bytes: Bytes) -> Self {
        Payload::Bytes(bytes)
    }
}

/// The one payload every engine teardown unwinds a rank with: a peer's
/// panic, a deadlock, a livelock or the rank's own fault-plan crash.  It says
/// only that the engine ended the rank; how the run ended is the core's
/// record ([`NetworkCore::into_remains`]), which `Cluster::try_run` reads.
/// Thrown by [`Teardown::unwind`] without the panic hook: a fuzz campaign
/// provokes thousands, and they are control flow, not errors.
pub(crate) struct Teardown;

impl Teardown {
    /// Unwind the calling rank through its destructors to its `catch_unwind`.
    pub(crate) fn unwind() -> ! {
        std::panic::resume_unwind(Box::new(Teardown))
    }
}

/// Structured failure of a cluster run, returned by `Cluster::try_run`
/// instead of panicking the harness, so the fuzzer can classify failures as
/// findings rather than aborting the matrix.
///
/// `Display` renders the full human report; for deadlock and livelock it
/// begins with the same `virtual-time deadlock`/`virtual-time livelock`
/// line the panicking `Cluster::run` path has always produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RunFailure {
    /// Every live process was blocked in a receive with no deliverable
    /// message.  The report carries the full wait graph plus the fault
    /// context (crashed peers, fault-plan partitions), so a deadlock caused
    /// by an injected crash or partition names its cause.
    Deadlock(String),
    /// The futile-grant livelock detector fired; the report carries the
    /// wait graph.
    Livelock(String),
    /// Fault-plan crashes killed these `(rank, virtual_time)` processes and
    /// the survivors ran to completion: there is no full result set to
    /// report, but nothing deadlocked either.
    Crashed(Vec<(usize, f64)>),
}

impl RunFailure {
    /// Stable one-word classification (`deadlock` / `livelock` / `crash`)
    /// used in fuzz reports.
    pub fn kind(&self) -> &'static str {
        match self {
            RunFailure::Deadlock(_) => "deadlock",
            RunFailure::Livelock(_) => "livelock",
            RunFailure::Crashed(_) => "crash",
        }
    }
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Deadlock(report) | RunFailure::Livelock(report) => f.write_str(report),
            RunFailure::Crashed(ranks) => {
                write!(f, "process crash:")?;
                for (rank, at) in ranks {
                    write!(f, " rank {rank} died at t={at:.6} by fault plan;")?;
                }
                write!(f, " survivors completed")
            }
        }
    }
}

/// Why the simulation was torn down early.
pub(crate) enum Abort {
    /// A process panicked; peers must fail fast instead of waiting
    /// for messages the dead process will never send.
    Panic(usize),
    /// The engine ended the run: a deadlock or a livelock with its report,
    /// or (from [`NetworkCore::into_remains`]) crashes survivors outlived.
    Failed(RunFailure),
}

/// Consecutive zero-progress grants after which the arbiter declares a
/// livelock.  A runnable poller is granted on every futile observation, so
/// a poll loop that can never succeed (e.g. one that never advances its
/// clock past the reply it is waiting for) reaches this in well under a
/// second of wall time, while any legitimate program transmits or consumes
/// a message within a bounded — and vastly smaller — number of scheduling
/// points.  The count is deterministic, so the resulting panic is too.
/// (Unit tests use a small limit so the detector's regression test is
/// instant.)
#[cfg(not(test))]
const LIVELOCK_GRANT_LIMIT: u64 = 10_000_000;
#[cfg(test)]
const LIVELOCK_GRANT_LIMIT: u64 = 100_000;

/// Everything the simulation shares between processes, borrowed by
/// exactly one process at a time: the token discipline, and the coroutines
/// of one thread, allow no other.
struct SimState {
    /// Per-process incoming-message queues.
    mailboxes: Vec<VecDeque<Message>>,
    /// Scheduler state of every process, with the minimum-key parked
    /// process maintained incrementally (no per-interaction O(n) scan); see
    /// [`Arbiter`].
    arb: Arbiter,
    /// Virtual time until which the shared medium is busy (FDDI ring model).
    medium_free_at: f64,
    /// Consecutive grants since the last message transmission or
    /// consumption; reset to zero on every mailbox push or removal.  When
    /// it reaches [`LIVELOCK_GRANT_LIMIT`] the cluster is spinning without
    /// progress and is torn down with a diagnostic.
    futile_grants: u64,
    /// Set when the cluster is torn down early: with the fault state's
    /// crashes, the one record of how the run ended.
    aborted: Option<Abort>,
    /// Runtime fault-injection state, with the crashes that fired; `None`
    /// when the plan is empty, so the pre-fault transmit path is preserved
    /// byte for byte.
    faults: Option<FaultState>,
    /// Central observability event stream.
    trace: Trace,
}

/// The shared state of the simulated network: one grant at a time, on the
/// thread that hosts the run (`!Sync`, so no lock).
pub(crate) struct NetworkCore {
    cfg: ClusterConfig,
    /// Borrowed only by the running rank, which releases the borrow before
    /// it yields (`crate::coro`, rule 2).
    state: RefCell<SimState>,
}

impl NetworkCore {
    /// Create the network for `cfg.nprocs` processes.  Every process starts
    /// in the `Running` state: the first interaction of each parks it, and
    /// the arbiter issues the first grant once all have arrived.
    pub fn new(cfg: ClusterConfig) -> Self {
        let n = cfg.nprocs;
        let faults = FaultState::new(&cfg);
        let trace = Trace::new(cfg.obs);
        let arb = Arbiter::with_seed(n, cfg.sched_seed, cfg.tie_limit);
        NetworkCore {
            cfg,
            state: RefCell::new(SimState {
                mailboxes: (0..n).map(|_| VecDeque::new()).collect(),
                arb,
                medium_free_at: 0.0,
                futile_grants: 0,
                aborted: None,
                faults,
                trace,
            }),
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Mark the cluster as aborted because process `who` panicked.  Every
    /// other process fails fast at its next interaction; the run loop resumes
    /// the suspended ones to find out (`crate::coro::run`).
    pub fn abort(&self, who: usize) {
        let mut st = self.state.borrow_mut();
        st.aborted.get_or_insert(Abort::Panic(who));
        st.arb.set(who, PState::Finished);
    }

    /// Mark process `id` as finished and hand the token to the next
    /// runnable process.  Called when the process closure returns.
    pub fn finish(&self, id: usize) {
        self.retire(self.state.borrow_mut(), id);
    }

    /// Leave the simulation for good: mark `id` finished, let the arbiter
    /// schedule, and name the granted process to the run loop, which resumes
    /// it when `id`'s body has returned.
    fn retire(&self, mut st: RefMut<'_, SimState>, id: usize) {
        st.arb.set(id, PState::Finished);
        let granted = st.aborted.is_none().then(|| self.dispatch(&mut st));
        drop(st);
        coro::leave_to(granted.flatten());
    }

    /// Tear down process `id` because its fault-plan crash point fired at
    /// virtual time `at`: record the crash, mark the process finished, hand
    /// the token on and unwind it with the [`Teardown`] marker — the crash
    /// kills only the one process; peers run on (and may then deadlock,
    /// which the detector reports naming this crash as context).
    pub(crate) fn crash(&self, id: usize, at: f64) -> ! {
        let mut st = self.state.borrow_mut();
        let SimState { faults, trace, .. } = &mut *st;
        faults
            .as_mut()
            .expect("only a fault plan crashes a rank")
            .crash(id, at, trace);
        self.retire(st, id);
        Teardown::unwind()
    }

    /// What the network holds once every process has left: how the run
    /// ended, unless every rank returned — its abort, else the fault-plan
    /// crashes whose survivors completed, as [`RunFailure::Crashed`] — the
    /// central event stream (sends, consumes, grants, faults; empty below
    /// [`ObsLevel::Trace`](crate::ObsLevel::Trace)), and the number of faults
    /// injected (0 for an empty plan).
    pub(crate) fn into_remains(self) -> (Option<Abort>, Vec<Event>, u64) {
        let st = self.state.into_inner();
        let (injected, crashed) = st.faults.map(FaultState::into_outcome).unwrap_or_default();
        let crashed = (!crashed.is_empty()).then_some(Abort::Failed(RunFailure::Crashed(crashed)));
        (st.aborted.or(crashed), st.trace.into_events(), injected)
    }

    /// What a deadlock or livelock report ends with: the wait graph, then
    /// the fault context (none for an empty plan).
    fn diagnosis(st: &SimState) -> String {
        let mut graph = wait_graph(st.arb.states(), &st.mailboxes);
        if let Some(f) = &st.faults {
            graph.push_str(&f.context());
        }
        graph
    }

    /// True when the wait-graph diagnostic should also go to stderr: under an
    /// active fault plan or a nonzero schedule seed, failures are *expected*
    /// findings consumed structurally by the fuzzer, and printing each one
    /// would drown the fuzz report.
    fn report_to_stderr(&self) -> bool {
        self.cfg.fault.is_empty() && self.cfg.sched_seed == 0
    }

    /// Run one scheduling decision: mark the granted process `Running` and
    /// return it for the caller to name to the run loop once it has released
    /// the borrow (a self-grant needs no switch at all), or tear the cluster
    /// down if the decision is a deadlock.  Must be called whenever a
    /// process leaves the `Running` state.
    fn dispatch(&self, st: &mut SimState) -> Option<usize> {
        match st.arb.decide() {
            Decision::Grant(rank) => {
                if let PState::Parked { key } = st.arb.state(rank) {
                    st.trace.record(key, rank, EventKind::Grant);
                }
                st.futile_grants += 1;
                if st.futile_grants >= LIVELOCK_GRANT_LIMIT {
                    let graph = Self::diagnosis(st);
                    let report = format!(
                        "virtual-time livelock: {LIVELOCK_GRANT_LIMIT} consecutive turns granted \
                         (next: process {rank}) without any message transmitted or consumed; \
                         a poll loop is spinning without making progress\n{graph}"
                    );
                    if self.report_to_stderr() {
                        eprintln!("{report}");
                    }
                    st.aborted = Some(Abort::Failed(RunFailure::Livelock(report)));
                    return None;
                }
                st.arb.set(rank, PState::Running);
                Some(rank)
            }
            Decision::Wait | Decision::AllDone => None,
            Decision::Deadlock => {
                let graph = Self::diagnosis(st);
                if self.report_to_stderr() {
                    eprintln!("{graph}");
                }
                st.aborted = Some(Abort::Failed(RunFailure::Deadlock(graph)));
                None
            }
        }
    }

    /// Park process `me` in `state`, let the arbiter schedule, and yield to
    /// the run loop until `me` is granted the token again.  On return the
    /// caller is the sole running process and holds the borrow again.
    ///
    /// # Panics
    ///
    /// Unwinds with the [`Teardown`] marker if the cluster aborted (peer
    /// panic, deadlock or livelock) — including when the park itself
    /// completes the deadlock.
    fn park<'a>(
        &'a self,
        mut st: RefMut<'a, SimState>,
        me: usize,
        state: PState,
    ) -> RefMut<'a, SimState> {
        if st.aborted.is_some() {
            Teardown::unwind();
        }
        st.arb.set(me, state);
        let mut granted = self.dispatch(&mut st);
        loop {
            if st.aborted.is_some() {
                Teardown::unwind();
            }
            if matches!(st.arb.state(me), PState::Running) {
                return st;
            }
            // No borrow is live across the switch (`crate::coro`, rule 2).
            drop(st);
            coro::yield_to(granted.take());
            st = self.state.borrow_mut();
        }
    }

    /// Put a message on the wire at virtual time `depart` from `src` to
    /// `dst`.  Returns the number of wire datagrams charged.
    ///
    /// When the shared-medium model is enabled, transmission is serialised:
    /// the message cannot start transmitting before the medium is free, which
    /// is how broadcast storms (Barnes-Hut under PVM) saturate the network.
    /// The sender seizes the medium only once it holds the minimum virtual
    /// time among runnable processes, so the serialisation order — and with
    /// it every arrival time — is deterministic.
    pub fn transmit(&self, src: usize, dst: usize, tag: Tag, payload: Payload, depart: f64) -> u64 {
        assert!(dst < self.cfg.nprocs, "send to nonexistent process {dst}");
        let mut st = self.park(self.state.borrow_mut(), src, PState::Parked { key: depart });
        let bytes = payload.len();
        let mut datagrams = self.cfg.datagrams_for(bytes);
        let occupancy = self.cfg.occupancy(bytes);
        // The fault layer decides, counts and traces every fault; the
        // transport charges what it returns (all zero for an empty plan).
        let st = &mut *st;
        let wire = (datagrams, occupancy);
        let tail_src = st.mailboxes[dst].back().map(|m| m.src);
        let inj = st.faults.as_mut().map_or_else(Injection::default, |f| {
            f.on_transmit((src, dst), depart, wire, tail_src, &mut st.trace)
        });
        datagrams += inj.extra_datagrams;
        let start = if self.cfg.shared_medium {
            let start = depart.max(st.medium_free_at);
            st.medium_free_at = start + occupancy + inj.extra_occupancy;
            start
        } else {
            depart
        };
        let arrival = start + occupancy + self.cfg.latency + inj.extra_delay;
        st.futile_grants = 0;
        let sent = EventKind::Send {
            dst: dst as u32,
            tag,
            bytes: bytes as u64,
            datagrams,
            arrival_ns: obs::ns(arrival),
        };
        st.trace.record(depart, src, sent);
        let message = Message {
            src,
            dst,
            tag,
            payload,
            arrival,
            datagrams,
        };
        if inj.slip {
            let tail = st.mailboxes[dst].len() - 1;
            st.mailboxes[dst].insert(tail, message);
        } else {
            st.mailboxes[dst].push_back(message);
        }
        // A receiver blocked on exactly this kind of message becomes
        // runnable, keyed by the virtual time at which it would consume it.
        if let PState::RecvBlocked {
            src: want_src,
            tag: want_tag,
            clock,
        } = st.arb.state(dst)
        {
            if want_src.is_none_or(|s| s == src) && want_tag.is_none_or(|t| t == tag) {
                st.arb.set(
                    dst,
                    PState::Parked {
                        key: clock.max(arrival),
                    },
                );
            }
        }
        datagrams
    }

    /// Blocking receive of the first queued message for `dst` that matches
    /// `src` (if given) and `tag` (if given).  `clock` is the receiver's
    /// current virtual time.
    ///
    /// The receiver consumes the message only once it holds the minimum
    /// virtual time among runnable processes (keyed by the consume time
    /// `max(clock, arrival)`); with no match queued it blocks, unrunnable,
    /// until a matching transmission promotes it.  If no process is runnable
    /// and none can ever deliver a matching message, the deadlock is
    /// reported immediately with the full wait graph.
    pub fn recv_match(
        &self,
        dst: usize,
        src: Option<usize>,
        tag: Option<Tag>,
        clock: f64,
    ) -> Message {
        let st = self.state.borrow_mut();
        let state = match Self::find(&st.mailboxes[dst], src, tag) {
            Some(pos) => PState::Parked {
                key: clock.max(st.mailboxes[dst][pos].arrival),
            },
            None => PState::RecvBlocked { src, tag, clock },
        };
        let mut st = self.park(st, dst, state);
        let pos = Self::find(&st.mailboxes[dst], src, tag)
            .expect("granted receiver must have a matching message");
        Self::consume(&mut st, dst, pos, clock)
    }

    /// Non-blocking variant of [`recv_match`](Self::recv_match): consumes
    /// the first matching message that has *arrived* by the receiver's
    /// clock (`arrival <= now`), or returns `None`.
    ///
    /// Messages whose arrival lies in the receiver's virtual future stay
    /// invisible — a process cannot consume (and answer) a request "before"
    /// it arrived.  The observation itself is a scheduling point: it happens
    /// only once this process holds the minimum virtual time among runnable
    /// processes, so its outcome is deterministic.
    pub fn try_recv_match(
        &self,
        dst: usize,
        src: Option<usize>,
        tag: Option<Tag>,
        now: f64,
    ) -> Option<Message> {
        let mut st = self.park(self.state.borrow_mut(), dst, PState::Parked { key: now });
        let pos = st.mailboxes[dst].iter().position(|m| {
            m.arrival <= now && src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t)
        })?;
        Some(Self::consume(&mut st, dst, pos, now))
    }

    /// Take the message at `pos` of `dst`'s queue for a receiver whose clock
    /// reads `clock`, and record the consume at `max(clock, arrival)`.
    fn consume(st: &mut SimState, dst: usize, pos: usize, clock: f64) -> Message {
        st.futile_grants = 0;
        let m = st.mailboxes[dst].remove(pos).expect("a queued position");
        let consumed = EventKind::Consume {
            src: m.src as u32,
            tag: m.tag,
            arrival_ns: obs::ns(m.arrival),
        };
        st.trace.record(clock.max(m.arrival), dst, consumed);
        m
    }

    fn find(q: &VecDeque<Message>, src: Option<usize>, tag: Option<Tag>) -> Option<usize> {
        q.iter()
            .position(|m| src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn transmit_and_receive_in_fifo_order_per_tag() {
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 0 {
                p.send(1, 5, Bytes::from_static(b"a"));
                p.send(1, 5, Bytes::from_static(b"b"));
                Vec::new()
            } else {
                let next = || p.recv(Some(0), 5).payload.into_bytes();
                vec![next(), next()]
            }
        });
        assert_eq!(rep.results[1][0].as_ref(), b"a");
        assert_eq!(rep.results[1][1].as_ref(), b"b");
    }

    #[test]
    fn tag_filtering_skips_other_tags() {
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 0 {
                p.send(1, 1, Bytes::from_static(b"one"));
                p.send(1, 2, Bytes::from_static(b"two"));
                (Bytes::new(), 0)
            } else {
                let m = p.recv(None, 2);
                // The tag-1 message is still queued (and has arrived).
                let queued = std::iter::from_fn(|| p.try_recv_interrupt()).count();
                (m.payload.into_bytes(), queued)
            }
        });
        assert_eq!(rep.results[1].0.as_ref(), b"two");
        assert_eq!(rep.results[1].1, 1);
    }

    #[test]
    fn shared_medium_serialises_transmissions() {
        let big = vec![0u8; 1 << 20];
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(3), move |p| {
            if p.id() < 2 {
                p.send(2, 1, Bytes::from(big.clone()));
                (0.0, 0.0)
            } else {
                let a1 = p.recv(Some(0), 1).arrival;
                let a2 = p.recv(Some(1), 1).arrival;
                (a1, a2)
            }
        });
        // Both departed at t~0, but the second transfer had to wait for the
        // medium, so it arrives roughly one occupancy later.
        let cfg = ClusterConfig::calibrated_fddi(3);
        let occ = cfg.occupancy(1 << 20);
        let (a1, a2) = rep.results[2];
        assert!(a2 >= a1 + 0.9 * occ, "a1={a1} a2={a2} occ={occ}");
    }

    #[test]
    fn lower_virtual_time_wins_the_medium_regardless_of_rank() {
        // Process 1 is ready to send at t=0; process 0 only at t=1.  The
        // arbiter must give process 1 the medium first even though process 0
        // has the lower rank, so receiver sees 1's message queued first.
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(3), |p| match p.id() {
            0 => {
                p.compute(1.0);
                p.send(2, 7, Bytes::from_static(b"late"));
                Vec::new()
            }
            1 => {
                p.send(2, 7, Bytes::from_static(b"early"));
                Vec::new()
            }
            _ => {
                let next = || {
                    let m = p.recv(None, 7);
                    (m.src, m.arrival)
                };
                vec![next(), next()]
            }
        });
        assert_eq!(rep.results[2][0].0, 1);
        assert_eq!(rep.results[2][1].0, 0);
        assert!(rep.results[2][0].1 < rep.results[2][1].1);
    }

    #[test]
    fn fragmentation_reported_in_message() {
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 0 {
                p.send(1, 1, Bytes::from(vec![0u8; 20_000]));
                0
            } else {
                p.recv(Some(0), 1).datagrams
            }
        });
        assert_eq!(rep.results[1], 3); // 20000 / 8192 -> 3 datagrams
    }

    #[test]
    #[should_panic]
    fn sending_to_unknown_process_panics() {
        Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 0 {
                p.send(7, 0, Bytes::new());
            }
        });
    }

    #[test]
    #[should_panic(expected = "virtual-time deadlock")]
    fn all_blocked_processes_report_a_deadlock_immediately() {
        // Process 0 waits for a message process 1 never sends, and vice
        // versa: a textbook wait cycle.  The arbiter must detect it the
        // moment the second process blocks — no wall-clock timeout.
        Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            let peer = 1 - p.id();
            p.recv(Some(peer), 42);
        });
    }

    #[test]
    #[should_panic(expected = "virtual-time livelock")]
    fn non_advancing_poll_loop_is_detected_as_livelock() {
        // Process 0 polls at a frozen virtual time for a message process 1
        // will only send after receiving one from process 0 — which never
        // comes.  Neither process is deadlocked in the arbiter's sense
        // (process 0 stays runnable), so this is the silent-spin case the
        // futile-grant counter exists for.
        let body = |p: &crate::Proc| {
            if p.id() == 0 {
                loop {
                    if p.try_recv(Some(1), 1).is_some() {
                        break;
                    }
                }
            } else {
                p.recv(Some(0), 9);
            }
        };
        // `try_run` returns it as the structured verdict, `run` panics with it.
        match Cluster::try_run(ClusterConfig::calibrated_fddi(2), body).map(|_| ()) {
            Err(RunFailure::Livelock(report)) => {
                assert!(report.starts_with("virtual-time livelock"), "{report}")
            }
            other => panic!("expected the livelock verdict, got {other:?}"),
        }
        Cluster::run(ClusterConfig::calibrated_fddi(2), body);
    }

    #[test]
    #[should_panic(expected = "virtual-time deadlock")]
    fn waiting_for_a_finished_process_is_a_deadlock() {
        Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 1 {
                p.recv(Some(0), 3);
            }
        });
    }

    // ---- The handoff path.  A rank nobody resumes is a hang, so every test
    // below runs under a watchdog that fails with a message instead.

    /// Run `f` on its own thread and return its result (or its panic), or
    /// fail naming `what` if neither arrives; the stuck thread is left behind.
    fn watchdog<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        // lint:allow(threads): the watchdog must outlive a hung run loop.
        let runner = std::thread::spawn(move || tx.send(f()));
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                panic!("{what}: no result after 60 s — a rank nobody resumed?")
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().expect_err("the sender was dropped"))
            }
        }
    }

    /// A token circling the ranks `laps` times: every event is a cross-rank
    /// grant to a suspended rank.
    fn ring(p: &crate::Proc, laps: u32) {
        let n = p.nprocs();
        let (next, prev) = ((p.id() + 1) % n, (p.id() + n - 1) % n);
        for lap in 0..laps {
            if p.id() == 0 {
                p.send(next, lap, Bytes::from_static(b"token"));
                p.recv(Some(prev), lap);
            } else {
                p.recv(Some(prev), lap);
                p.send(next, lap, Bytes::from_static(b"token"));
            }
        }
    }

    #[test]
    fn two_thousand_token_rings_lose_no_wake_up() {
        watchdog("2,000 8-rank token rings", || {
            for _ in 0..2_000 {
                let rep = Cluster::run(ClusterConfig::calibrated_fddi(8), |p| ring(p, 4));
                assert_eq!(rep.total_messages(), 32);
            }
        });
    }

    #[test]
    fn a_panic_before_the_first_interaction_aborts_seven_peers_at_theirs() {
        // Rank 0 dies before the run loop has started anyone else: each of
        // the other seven starts, finds the abort at its first interaction
        // and unwinds with the teardown marker.
        let (text, victims) = watchdog("start-up abort with seven unstarted peers", || {
            let victims = AtomicUsize::new(0);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Cluster::run(ClusterConfig::calibrated_fddi(8), |p| {
                    if p.id() == 0 {
                        panic!("rank 0 dies before anyone interacts");
                    }
                    let abort = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        p.try_recv(None, 0)
                    }))
                    .expect_err("the cluster is already aborted");
                    if abort.is::<Teardown>() {
                        victims.fetch_add(1, Ordering::Relaxed);
                    }
                    std::panic::resume_unwind(abort)
                })
            }));
            let payload = run.expect_err("the run must propagate the panic");
            (
                payload.downcast_ref::<&str>().copied(),
                victims.into_inner(),
            )
        });
        assert_eq!(text, Some("rank 0 dies before anyone interacts"));
        assert_eq!(victims, 7);
    }

    #[test]
    fn a_suspended_rank_holds_no_borrow() {
        // Ranks 0..7 suspend inside `park`; rank 7, started last, borrows the
        // state (a borrow held across a switch would panic here with
        // `already borrowed`) and tears the run down.
        let victims = watchdog("seven suspended ranks and one borrow", || {
            let core = NetworkCore::new(ClusterConfig::calibrated_fddi(8));
            let ranks = coro::run(8, |id| {
                if id < 7 {
                    core.recv_match(id, Some(7), None, 0.0);
                } else {
                    let blocked = core.state.borrow().arb.states()[..7]
                        .iter()
                        .filter(|s| matches!(s, PState::RecvBlocked { .. }))
                        .count();
                    assert_eq!(blocked, 7);
                    core.abort(7);
                }
            });
            ranks
                .iter()
                .filter(|r| r.as_ref().is_err_and(|p| p.is::<Teardown>()))
                .count()
        });
        assert_eq!(victims, 7);
    }

    #[test]
    fn the_core_cannot_be_shared_between_threads() {
        // `probe` resolves only while `NetworkCore` is not `Sync`: a lock
        // that made it shareable again would fail to compile here.
        trait AmbiguousIfSync<A> {
            fn probe() {}
        }
        impl<T: ?Sized> AmbiguousIfSync<()> for T {}
        impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}
        <NetworkCore as AmbiguousIfSync<_>>::probe();
    }

    /// Counts its drops: a rank that is torn down must still unwind.
    struct Held(Arc<AtomicUsize>);

    impl Drop for Held {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `try_run` eight ranks that each hold a [`Held`], under the watchdog:
    /// the verdict (or the panic's text) and how many ranks dropped theirs.
    fn torn_down(
        cfg: ClusterConfig,
        body: fn(&crate::Proc),
    ) -> (Result<Result<(), RunFailure>, Option<&'static str>>, usize) {
        watchdog("an 8-rank teardown", move || {
            let drops = Arc::new(AtomicUsize::new(0));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Cluster::try_run(cfg, |p| {
                    let _held = Held(Arc::clone(&drops));
                    body(p)
                })
                .map(|_| ())
            }));
            let run = run.map_err(|payload| payload.downcast_ref::<&str>().copied());
            (run, drops.load(Ordering::Relaxed))
        })
    }

    #[test]
    fn teardown_after_a_panic_runs_every_ranks_destructors() {
        let (run, drops) = torn_down(ClusterConfig::calibrated_fddi(8), |p| {
            if p.id() == 3 {
                p.send(3, 1, Bytes::new());
                panic!("rank 3 dies holding the token");
            }
            p.recv(Some(3), 2);
        });
        assert_eq!(run.unwrap_err(), Some("rank 3 dies holding the token"));
        assert_eq!(drops, 8);
    }

    #[test]
    fn teardown_after_a_deadlock_runs_every_ranks_destructors() {
        // A fault plan keeps the expected wait graph off the test's stderr.
        let mut cfg = ClusterConfig::calibrated_fddi(8);
        cfg.fault.delay = 1e-9;
        let (run, drops) = torn_down(cfg, |p| {
            p.recv(Some((p.id() + 1) % 8), 4);
        });
        match run {
            Ok(Err(RunFailure::Deadlock(report))) => {
                assert!(report.starts_with("virtual-time deadlock"), "{report}")
            }
            other => panic!("expected the deadlock verdict, got {other:?}"),
        }
        assert_eq!(drops, 8);
    }

    #[test]
    fn teardown_after_a_crash_runs_every_ranks_destructors() {
        use crate::fault::{Crash, CrashPoint};
        let mut cfg = ClusterConfig::calibrated_fddi(8);
        cfg.fault.crashes = vec![Crash {
            rank: 2,
            at: CrashPoint::Event(2),
        }];
        // Rank 2 dies at its second interaction, suspended ranks behind it;
        // the survivors' ring does not need it.
        let (run, drops) = torn_down(cfg, |p| {
            if p.id() == 2 {
                p.try_recv(Some(0), 9);
                p.try_recv(Some(0), 9);
                unreachable!("rank 2 crashed at its second interaction");
            }
            let peers = [0, 1, 3, 4, 5, 6, 7];
            let at = peers.iter().position(|&r| r == p.id()).expect("a survivor");
            let (next, prev) = (peers[(at + 1) % 7], peers[(at + 6) % 7]);
            if at == 0 {
                p.send(next, 1, Bytes::from_static(b"token"));
                p.recv(Some(prev), 1);
            } else {
                p.recv(Some(prev), 1);
                p.send(next, 1, Bytes::from_static(b"token"));
            }
        });
        match run {
            Ok(Err(RunFailure::Crashed(ranks))) => assert_eq!(ranks, vec![(2, 0.0)]),
            other => panic!("expected the crash verdict, got {other:?}"),
        }
        assert_eq!(drops, 8);
    }

    #[test]
    fn a_rank_body_has_a_megabyte_of_stack_and_yields_from_its_depth() {
        /// Recurse until a mebibyte of stack lies above, then run `at_depth`.
        fn descend(top: usize, at_depth: &dyn Fn()) {
            let frame = std::hint::black_box([0u8; 512]);
            if top - (frame.as_ptr() as usize) < (1 << 20) {
                descend(top, at_depth);
            } else {
                at_depth();
            }
            std::hint::black_box(&frame);
        }
        watchdog("a 1 MiB deep rank body", || {
            let rep = Cluster::run(ClusterConfig::calibrated_fddi(8), |p| {
                let top = 0u8;
                descend(std::ptr::from_ref(&top) as usize, &|| ring(p, 4));
            });
            assert_eq!(rep.total_messages(), 32);
        });
    }

    #[test]
    fn two_thousand_runs_leave_no_mapping_behind() {
        // One mapping is one line.  Leaked stacks would add 32,000; the slack
        // is for the threads of tests running beside this one.
        let mappings = || {
            std::fs::read_to_string("/proc/self/maps")
                .expect("Linux")
                .lines()
                .count()
        };
        let before = mappings();
        watchdog("2,000 8-rank runs", || {
            for _ in 0..2_000 {
                Cluster::run(ClusterConfig::calibrated_fddi(8), |p| ring(p, 1));
            }
        });
        let after = mappings();
        assert!(after <= before + 256, "{before} mappings grew to {after}");
    }

    #[test]
    fn two_hosts_running_rings_side_by_side_share_nothing() {
        let totals = watchdog("two threads of 500 token rings each", || {
            // lint:allow(threads): two run loops side by side is what is tested.
            std::thread::scope(|s| {
                let hosts = [(); 2].map(|()| {
                    s.spawn(|| {
                        (0..500)
                            .map(|_| {
                                Cluster::run(ClusterConfig::calibrated_fddi(8), |p| ring(p, 4))
                                    .total_messages()
                            })
                            .sum::<u64>()
                    })
                });
                hosts.map(|h| h.join().expect("no run panicked"))
            })
        });
        assert_eq!(totals, [500 * 32; 2]);
    }

    #[test]
    fn a_cluster_runs_inside_a_rank_body() {
        let rep = watchdog("a run nested in a rank", || {
            Cluster::run(ClusterConfig::calibrated_fddi(4), |p| {
                ring(p, 2);
                let inner = Cluster::run(ClusterConfig::calibrated_fddi(8), |q| ring(q, 4));
                ring(p, 2);
                inner.total_messages()
            })
        });
        assert_eq!(rep.results, vec![32; 4]);
        assert_eq!(rep.total_messages(), 16);
    }

    #[test]
    fn a_panic_while_holding_the_token_wakes_seven_sleepers() {
        let text = watchdog("token-holder panic with seven sleepers", || {
            let run = std::panic::catch_unwind(|| {
                Cluster::run(ClusterConfig::calibrated_fddi(8), |p| {
                    if p.id() == 0 {
                        // The first grant is issued only once every rank has
                        // parked, so on return the other seven are blocked.
                        p.send(0, 1, Bytes::new());
                        panic!("rank 0 dies holding the token");
                    }
                    p.recv(Some(0), 2);
                })
            });
            let payload = run.expect_err("the run must propagate the panic");
            payload.downcast_ref::<&str>().copied()
        });
        assert_eq!(text, Some("rank 0 dies holding the token"));
    }

    #[test]
    fn a_crash_hands_the_token_to_a_sleeping_rank() {
        use crate::fault::{Crash, CrashPoint, FaultPlan};
        let outcome = watchdog("fault-plan crash with a sleeping successor", || {
            let mut cfg = ClusterConfig::calibrated_fddi(3);
            cfg.fault = FaultPlan {
                crashes: vec![Crash {
                    rank: 0,
                    at: CrashPoint::Time(0.5),
                }],
                ..FaultPlan::default()
            };
            Cluster::try_run(cfg, |p| match p.id() {
                0 => {
                    // Granted first (t = 0), while 1 and 2 sleep; the crash
                    // fires at the next interaction and grants rank 1.
                    p.try_recv(Some(1), 9);
                    p.compute(0.6);
                    p.try_recv(Some(1), 9);
                    unreachable!("rank 0 crashed at t = 0.6");
                }
                1 => {
                    p.compute(1.0);
                    p.send(2, 7, Bytes::from_static(b"survivor"));
                }
                _ => assert_eq!(
                    p.recv(Some(1), 7).payload.into_bytes().as_ref(),
                    b"survivor"
                ),
            })
            .map(|_| ())
        });
        match outcome {
            Err(RunFailure::Crashed(ranks)) => assert_eq!(ranks, vec![(0, 0.6)]),
            other => panic!("expected the crash verdict, got {other:?}"),
        }
    }

    #[test]
    fn fifty_thousand_self_grants_keep_their_bits() {
        // Pinned at the parent of the direct-handoff change: a self-grant
        // skips the wake, not a single simulated step.
        let stats = watchdog("50k self sends on one rank", || {
            let rep = Cluster::run(ClusterConfig::calibrated_fddi(1), |p| {
                let payload = Bytes::from(vec![0u8; 64]);
                for tag in 0..50_000 {
                    p.send(0, tag, payload.clone());
                    p.recv(Some(0), tag);
                }
            });
            rep.stats.into_iter().next().expect("one rank")
        });
        assert_eq!(stats.finish_time.to_bits(), 0x4041_e702_7027_13cd);
        assert_eq!(
            (stats.messages_sent, stats.messages_received),
            (50_000, 50_000)
        );
        assert_eq!(
            (stats.datagrams_sent, stats.datagrams_received),
            (50_000, 50_000)
        );
        assert_eq!(stats.bytes_sent, 3_200_000);
    }
}
