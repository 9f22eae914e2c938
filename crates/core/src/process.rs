//! The TreadMarks process runtime: synchronization primitives, fault
//! handling, and the request service loop.
//!
//! A [`Tmk`] handle wraps one [`cluster::Proc`] and drives the protocol state
//! machine in [`crate::state::DsmState`].  The public interface mirrors the
//! TreadMarks API used by the paper's applications:
//!
//! * `Tmk_malloc`      → [`Tmk::malloc`] (in `heap.rs`)
//! * `Tmk_barrier(i)`  → [`Tmk::barrier`]
//! * `Tmk_lock_acquire(i)` / `Tmk_lock_release(i)` → [`Tmk::lock_acquire`] /
//!   [`Tmk::lock_release`]
//! * shared reads and writes → [`Tmk::read`], [`Tmk::write`],
//!   [`Tmk::read_slice`] and [`Tmk::write_slice`] (in `heap.rs`)
//! * `Tmk_exit`        → [`Tmk::exit`]
//!
//! Requests from other processes (lock acquires to a manager or last holder,
//! diff requests, barrier arrivals) are served whenever this process is
//! blocked waiting for a reply, and replies to them depart at the virtual
//! time the request arrived plus a small service cost — the interrupt-driven
//! (SIGIO) request handling of the real system.

use crate::proto::*;
use crate::protocol::{hlrc, ProtocolKind};
use crate::race::{self, Edge, SyncCtx};
use crate::state::DsmState;
use crate::stats::TmkStats;
use crate::vc::VectorClock;
use crate::{
    DEFAULT_GC_INTERVAL_THRESHOLD, DEFAULT_HEAP_BYTES, REQUEST_SERVICE_COST, SYNC_OP_COST,
};
use cluster::{Message, Payload, Proc, SpanCat};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// A TreadMarks endpoint bound to one simulated process.
///
/// # Example
///
/// Two processes increment a lock-protected shared counter; every shared
/// access goes through the DSM's page-based coherence protocol, and the
/// counter's type — here `i64` — picks the width read and written:
///
/// ```
/// use cluster::{Cluster, ClusterConfig};
/// use treadmarks::Tmk;
///
/// let report = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
///     let tmk = Tmk::new(p);
///     let counter = tmk.malloc(8);
///     tmk.barrier(0);
///     for _ in 0..3 {
///         tmk.lock_acquire(0);
///         let v: i64 = tmk.read(counter);
///         tmk.write(counter, v + 1);
///         tmk.lock_release(0);
///     }
///     tmk.barrier(1);
///     let total = tmk.read::<i64>(counter);
///     tmk.exit();
///     total
/// });
/// // Both processes saw all six increments.
/// assert!(report.results.iter().all(|&v| v == 6));
/// ```
pub struct Tmk<'a> {
    proc: &'a Proc,
    pub(crate) st: RefCell<DsmState>,
    /// Next barrier episode number on this process.
    barrier_epoch: Cell<u32>,
    /// Barrier-manager state: arrivals per episode (source, source clock).
    arrivals: RefCell<BTreeMap<u32, Vec<(usize, VectorClock)>>>,
    /// Replies that arrived while a nested wait was looking for a different
    /// tag (e.g. a diff response arriving while a flush triggered by serving
    /// a lock request awaits its acknowledgement).
    stashed: RefCell<Vec<Message>>,
    /// Exit-protocol counter at process 0.
    done_count: Cell<usize>,
    /// Whether process 0's `TAG_TERMINATE` has arrived (exit protocol).
    terminated: Cell<bool>,
    /// Cluster-wide interval-count growth that triggers barrier-time GC.
    gc_threshold: Cell<u64>,
    /// `vc.sum()` at the last garbage collection.
    last_gc_sum: Cell<u64>,
    /// Happens-before race recorder (see [`crate::race`]); attached by
    /// [`Tmk::enable_racecheck`], absent in ordinary runs.
    race: RefCell<Option<race::Recorder>>,
    /// Fast-path mirror of `race.is_some()`, checked on every shared access.
    race_on: Cell<bool>,
}

impl<'a> Tmk<'a> {
    /// Create a DSM endpoint with the default shared heap size, running the
    /// default (LRC) coherence protocol.
    pub fn new(proc: &'a Proc) -> Self {
        Self::with_heap_and_protocol(proc, DEFAULT_HEAP_BYTES, ProtocolKind::default())
    }

    /// Create a DSM endpoint with a shared heap of `heap_bytes` bytes,
    /// running the default (LRC) coherence protocol.
    pub fn with_heap(proc: &'a Proc, heap_bytes: usize) -> Self {
        Self::with_heap_and_protocol(proc, heap_bytes, ProtocolKind::default())
    }

    /// Create a DSM endpoint with the default shared heap size, running the
    /// given coherence protocol.
    pub fn with_protocol(proc: &'a Proc, protocol: ProtocolKind) -> Self {
        Self::with_heap_and_protocol(proc, DEFAULT_HEAP_BYTES, protocol)
    }

    /// Create a DSM endpoint with a shared heap of `heap_bytes` bytes,
    /// running the given coherence protocol.
    pub fn with_heap_and_protocol(
        proc: &'a Proc,
        heap_bytes: usize,
        protocol: ProtocolKind,
    ) -> Self {
        Tmk {
            proc,
            st: RefCell::new(DsmState::new_with(
                proc.id(),
                proc.nprocs(),
                heap_bytes,
                protocol,
            )),
            barrier_epoch: Cell::new(0),
            arrivals: RefCell::new(BTreeMap::new()),
            stashed: RefCell::new(Vec::new()),
            done_count: Cell::new(0),
            terminated: Cell::new(false),
            gc_threshold: Cell::new(DEFAULT_GC_INTERVAL_THRESHOLD),
            last_gc_sum: Cell::new(0),
            race: RefCell::new(None),
            race_on: Cell::new(false),
        }
    }

    /// Attach a happens-before race recorder sharing the run-wide clock
    /// table `table` (see [`crate::race`]).  Must be called before the
    /// first shared access or synchronization operation, identically on
    /// every process.  Recording never advances the virtual clock or sends
    /// a message, so the run's reported times, counters and checksums are
    /// bit-identical to an unrecorded run.
    pub fn enable_racecheck(&self, table: Arc<race::SyncClocks>) {
        *self.race.borrow_mut() = Some(race::Recorder::new(self.id(), self.nprocs(), table));
        self.race_on.set(true);
    }

    /// Detach the race recorder and return this rank's access log, to be
    /// fed to [`race::analyze`] together with the other ranks' logs.
    /// Returns `None` if [`Tmk::enable_racecheck`] was never called.
    pub fn take_race_log(&self) -> Option<race::RaceLog> {
        self.race_on.set(false);
        self.race.borrow_mut().take().map(race::Recorder::finish)
    }

    /// Record a shared access with the race recorder, if one is attached.
    #[inline]
    pub(crate) fn race_record(&self, kind: race::AccessKind, addr: usize, len: usize) {
        if !self.race_on.get() || len == 0 {
            return;
        }
        let now = cluster::obs::ns(self.proc.clock());
        if let Some(r) = self.race.borrow_mut().as_mut() {
            r.record(kind, addr, len, now);
        }
    }

    /// Take a synchronization edge on the race recorder, if attached.
    #[inline]
    fn race_hook(&self, f: impl FnOnce(&mut race::Recorder)) {
        if !self.race_on.get() {
            return;
        }
        if let Some(r) = self.race.borrow_mut().as_mut() {
            f(r);
        }
    }

    /// Set the barrier-time garbage-collection trigger: a GC runs at the
    /// first barrier at which the cluster-wide interval count has grown by
    /// at least `threshold` since the previous collection.  `u64::MAX`
    /// disables GC.  Must be called identically on every process (SPMD, like
    /// every other configuration of a run) before the first barrier.
    pub fn set_gc_threshold(&self, threshold: u64) {
        self.gc_threshold.set(threshold);
    }

    /// Rank of this process.
    pub fn id(&self) -> usize {
        self.proc.id()
    }

    /// The coherence protocol this endpoint runs.
    pub fn protocol(&self) -> ProtocolKind {
        self.st.borrow().protocol
    }

    /// Number of processes sharing the memory.
    pub fn nprocs(&self) -> usize {
        self.proc.nprocs()
    }

    /// The underlying cluster process handle.
    pub fn proc(&self) -> &Proc {
        self.proc
    }

    /// Runtime statistics accumulated so far.
    pub fn stats(&self) -> TmkStats {
        self.st.borrow().stats.clone()
    }

    // ----------------------------------------------------------------- locks

    /// Acquire lock `id`, blocking until it is granted.
    ///
    /// If this process already holds the lock token (it was the last holder
    /// and nobody has requested the lock since), the acquire is local and
    /// sends no messages.  Otherwise a request is sent to the lock's manager,
    /// which forwards it to the last requester; the grant piggybacks the
    /// write notices of all intervals this process has not yet seen, and the
    /// corresponding pages are invalidated.
    pub fn lock_acquire(&self, id: u32) {
        self.proc.compute(SYNC_OP_COST);
        let have_token = self.st.borrow_mut().lock_state_mut(id).have_token;
        if have_token {
            // Serve requests that have already arrived before taking the
            // local fast path: a worker repeatedly reacquiring an
            // uncontended lock (e.g. polling a task queue) never blocks, and
            // without this interrupt-style service its peers' forwarded
            // acquires would sit in the mailbox forever (livelock).  Serving
            // may hand the token away, in which case we fall through to the
            // remote path below.
            self.drain_requests();
        }
        let manager = {
            let mut st = self.st.borrow_mut();
            let ls = st.lock_state_mut(id);
            if ls.have_token {
                ls.in_cs = true;
                st.stats.local_lock_acquires += 1;
                None
            } else {
                st.stats.remote_lock_acquires += 1;
                Some(st.lock_manager(id))
            }
        };
        let Some(manager) = manager else {
            // Local reacquire: the lock's slot (if any) was last joined by
            // this process's own release, so the join is a no-op, but the
            // segment boundary and context still apply.
            self.race_hook(|r| r.acquire(Edge::Lock(id), SyncCtx::AfterAcquire(id)));
            return;
        };
        // The remote path from request to applied grant is the lock-acquire
        // latency of the metrics layer (one span per remote acquire, so the
        // span count cross-checks against `remote_lock_acquires`).
        self.proc.span_begin(SpanCat::LockWait, id as u64);
        let request = Msg::LockRequest {
            lock: id,
            requester: self.id(),
            vc: self.st.borrow().vc.clone(),
        };
        if manager == self.id() {
            // We are the manager but do not hold the token: forward straight
            // to the last requester without a message to ourselves.
            let prev = self.st.borrow_mut().chain_lock(id, self.id());
            assert_ne!(prev, self.id(), "manager without token must know a holder");
            self.send(prev, TAG_LOCK_FWD, request, None);
        } else {
            self.send(manager, TAG_LOCK_ACQ, request, None);
        }
        let grant = self.wait_reply(TAG_LOCK_GRANT);
        let Msg::Sync { head, vc, records } = &*grant else {
            unreachable!()
        };
        assert_eq!(*head, id, "grant for the wrong lock");
        {
            let mut st = self.st.borrow_mut();
            st.apply_interval_records(records);
            debug_assert!(st.vc.dominates(vc));
            let ls = st.lock_state_mut(id);
            ls.have_token = true;
            ls.in_cs = true;
        }
        // Analysis acquire edge: join the lock's slot, which the releaser
        // whose token we now hold joined before its grant was sent.
        self.race_hook(|r| r.acquire(Edge::Lock(id), SyncCtx::AfterAcquire(id)));
        self.proc.span_end(SpanCat::LockWait);
    }

    /// Release lock `id`.
    ///
    /// The release itself sends no messages; if another process's request has
    /// been forwarded here in the meantime, the token (and the write notices
    /// the requester lacks) are handed over now.
    pub fn lock_release(&self, id: u32) {
        self.proc.compute(SYNC_OP_COST);
        // Analysis release edge, *before* any grant can be sent (here or
        // later from `handle_forwarded`): join the clock covering the
        // critical section into the lock's slot, then advance past it.
        // Taking the edge at grant time instead would let the
        // anachronistically-served grant cover accesses made after this
        // release.
        self.race_hook(|r| r.release(Edge::Lock(id)));
        if self.nprocs() > 1 {
            self.close_and_publish();
        }
        let pending = {
            let mut st = self.st.borrow_mut();
            let ls = st.lock_state_mut(id);
            assert!(ls.in_cs, "releasing lock {id} that is not held");
            ls.in_cs = false;
            ls.released_at = self.proc.clock();
            ls.pending.pop_front()
        };
        if let Some((requester, req_vc)) = pending {
            self.grant_lock(id, requester, &req_vc, self.proc.clock());
        }
    }

    // -------------------------------------------------------------- barriers

    /// Wait until every process has arrived at this barrier.
    ///
    /// Barriers have a centralised manager (process 0); arrival messages
    /// carry the write notices the manager lacks, and the release messages
    /// carry the notices each departing process lacks, for a total of
    /// `2 * (nprocs - 1)` messages per barrier.
    pub fn barrier(&self, index: u32) {
        self.barrier_inner(index);
        self.maybe_gc();
    }

    fn barrier_inner(&self, index: u32) {
        // One span per episode, entry to release (the full barrier cost,
        // including the interval close the episode forces); its duration is
        // the per-process barrier skew the metrics layer reports.
        self.proc.span_begin(SpanCat::BarrierWait, index as u64);
        self.proc.compute(SYNC_OP_COST);
        let epoch = self.barrier_epoch.get();
        self.barrier_epoch.set(epoch + 1);
        // Every rank steps the epoch once per episode, GC barriers included.
        let edge = Edge::Barrier(epoch);
        let after = SyncCtx::AfterBarrier(index);
        let n = self.nprocs();
        if n == 1 {
            // A lone process never re-protects pages or makes diffs (nobody
            // can request them), so intervals need not close at all — the
            // real system's single-process execution has no write traps
            // after the first touch of each page.
            self.st.borrow_mut().stats.barriers += 1;
            self.race_hook(|r| r.release(edge));
            self.race_hook(|r| r.acquire(edge, after));
            self.proc.span_end(SpanCat::BarrierWait);
            return;
        }
        self.close_and_publish();
        {
            self.st.borrow_mut().stats.barriers += 1;
        }
        if self.id() == 0 {
            // Manager: collect the other processes' arrivals (serving any
            // other requests that show up while waiting), then release.
            self.serve_until(|| self.arrivals.borrow().get(&epoch).map_or(0, |v| v.len()) == n - 1);
            let arrived = self.arrivals.borrow_mut().remove(&epoch).unwrap();
            // Analysis barrier edge: every worker released before sending
            // the arrival just collected, so the manager's release completes
            // the slot, before any release message carries the episode on.
            self.race_hook(|r| r.release(edge));
            self.race_hook(|r| r.acquire(edge, after));
            for (src, src_vc) in arrived {
                self.proc.compute(SYNC_OP_COST);
                let release = self.st.borrow().sync_not_covered_by(epoch, &src_vc);
                self.send(src, TAG_BARRIER_RELEASE, release, None);
            }
            let mut st = self.st.borrow_mut();
            let vc = st.vc.clone();
            st.last_barrier_vc = vc;
        } else {
            let arrival = {
                let st = self.st.borrow();
                st.sync_not_covered_by(epoch, &st.last_barrier_vc)
            };
            // Analysis arrival edge: release before the arrival message so
            // the manager's acquire (which runs only after receiving it)
            // sees this clock.
            self.race_hook(|r| r.release(edge));
            self.send(0, TAG_BARRIER_ARRIVE, arrival, None);
            let release = self.wait_reply(TAG_BARRIER_RELEASE);
            let Msg::Sync { head, vc, records } = &*release else {
                unreachable!()
            };
            assert_eq!(*head, epoch, "barrier release for the wrong episode");
            {
                let mut st = self.st.borrow_mut();
                st.apply_interval_records(records);
                st.vc.merge(vc);
                let vc = st.vc.clone();
                st.last_barrier_vc = vc;
            }
            // Analysis acquire edge: the manager completed the slot before
            // sending the release message received above.
            self.race_hook(|r| r.acquire(edge, after));
        }
        self.proc.span_end(SpanCat::BarrierWait);
    }

    // ----------------------------------------------------------- termination

    /// Quiesce the runtime: every process keeps serving requests until all
    /// processes have finished their work.  Shared memory must not be
    /// accessed after `exit`.
    pub fn exit(&self) {
        // Every stashed reply belongs to some wait that retrieves it before
        // its caller returns; a leftover here means a reply was sent that
        // nobody ever waited for — a protocol bug that would otherwise be
        // silently swallowed.
        debug_assert!(
            self.stashed.borrow().is_empty(),
            "process {} exits with unconsumed replies: {:?}",
            self.id(),
            self.stashed
                .borrow()
                .iter()
                .map(|m| (m.src, m.tag))
                .collect::<Vec<_>>()
        );
        let n = self.nprocs();
        if n == 1 {
            return;
        }
        self.proc.span_begin(SpanCat::Exit, 0);
        if self.id() == 0 {
            self.serve_until(|| self.done_count.get() >= n - 1);
            for dst in 1..n {
                self.send(dst, TAG_TERMINATE, Msg::Empty, None);
            }
        } else {
            self.send(0, TAG_DONE, Msg::Empty, None);
            self.serve_until(|| self.terminated.get());
        }
        self.proc.span_end(SpanCat::Exit);
    }

    // ------------------------------------------------------------- internals

    /// Close the current interval (if any page is dirty) and flush whatever
    /// the close-time disposal handed back to its remote homes before
    /// returning ([`hlrc::flush`]) — nothing under LRC, whose diffs stay
    /// here, or SC, which never dirties a page.  Every release edge and
    /// barrier arrival calls this.
    ///
    /// No diff-creation cost is charged here: the real system creates diffs
    /// lazily, so under LRC the page+twin scan is charged when a diff is
    /// first served, and under HLRC when it is flushed.
    pub(crate) fn close_and_publish(&self) {
        let closed = self.st.borrow_mut().close_interval();
        if let Some(closed) = closed {
            hlrc::flush(self, closed);
        }
    }

    /// Serve every protocol request that has *already* arrived — by this
    /// process's virtual clock, which is what the transport's causality
    /// gate enforces — without blocking: the SIGIO-style request service of
    /// the real system, invoked at synchronization entry points so that a
    /// process which never blocks (e.g. a worker polling a task queue it
    /// holds the lock token for) still serves its peers' requests.
    /// Requests still in this process's virtual future are served once its
    /// clock catches up (the worker keeps computing) or when it next blocks
    /// in a receive.  A non-request message (a reply racing ahead of its
    /// wait) is stashed for the wait that expects it.
    fn drain_requests(&self) {
        while let Some(m) = self.proc.try_recv_interrupt() {
            if let Some(m) = self.serve(m) {
                self.stashed.borrow_mut().push(m);
            }
        }
    }

    /// Block until a message with `want_tag` arrives, serving every protocol
    /// request that shows up in the meantime, and return what it carries.
    ///
    /// A reply that is *not* the awaited tag is stashed rather than
    /// rejected: serving a request can itself initiate a nested wait (an
    /// HLRC flush triggered by granting a lock awaits its acknowledgement),
    /// and the outer wait's reply may arrive during the nested one.
    pub(crate) fn wait_reply(&self, want_tag: u32) -> Rc<Msg> {
        // The shared borrow must end before the mutable one below: in
        // edition 2021 an `if let` scrutinee's temporary lives to the end
        // of the body, so the position lookup is a separate statement.
        let stashed_pos = self.stashed.borrow().iter().position(|m| m.tag == want_tag);
        if let Some(pos) = stashed_pos {
            return self.stashed.borrow_mut().remove(pos).payload.into_value();
        }
        loop {
            let m = self.proc.recv_any();
            if m.tag == want_tag {
                return m.payload.into_value();
            }
            if let Some(m) = self.serve(m) {
                self.stashed.borrow_mut().push(m);
            }
        }
    }

    /// Serve requests until `done` holds.  No reply is awaited here, so a
    /// message that comes back unserved is a protocol bug.
    fn serve_until(&self, done: impl Fn() -> bool) {
        while !done() {
            if let Some(m) = self.serve(self.proc.recv_any()) {
                panic!(
                    "process {} got unexpected non-request tag {}",
                    self.id(),
                    m.tag
                );
            }
        }
    }

    /// Serve `m` if it is a request and return `None`; hand it back unserved
    /// if it is a reply.  This is the one place that tells a request from a
    /// reply: the runtime serves its lock, barrier and exit tags here
    /// (`TAG_TERMINATE` sets `terminated`, which ends [`Tmk::exit`]'s wait)
    /// and the configured protocol backend serves its own.  Replies to a
    /// request depart at its arrival time plus the service cost
    /// (interrupt-style service); the CPU cost is charged to this process as
    /// stolen cycles.
    fn serve(&self, m: Message) -> Option<Message> {
        match m.tag {
            TAG_LOCK_ACQ | TAG_LOCK_FWD => {
                self.proc.compute(REQUEST_SERVICE_COST);
                let msg: Rc<Msg> = m.payload.into_value();
                let Msg::LockRequest {
                    lock,
                    requester,
                    ref vc,
                } = *msg
                else {
                    unreachable!()
                };
                // The manager takes the chain step; a forward has reached
                // the last requester already.
                let prev = match m.tag {
                    TAG_LOCK_ACQ => self.st.borrow_mut().chain_lock(lock, requester),
                    _ => self.id(),
                };
                if prev == self.id() {
                    self.handle_forwarded(lock, requester, vc, m.arrival);
                } else {
                    assert_ne!(prev, requester, "requester cannot be the last holder");
                    let depart = m.arrival + REQUEST_SERVICE_COST;
                    self.send(prev, TAG_LOCK_FWD, msg, Some(depart));
                }
            }
            TAG_BARRIER_ARRIVE => {
                assert_eq!(self.id(), 0, "only process 0 manages barriers");
                self.proc.compute(REQUEST_SERVICE_COST);
                let msg: Rc<Msg> = m.payload.into_value();
                let Msg::Sync {
                    head,
                    ref vc,
                    ref records,
                } = *msg
                else {
                    unreachable!()
                };
                self.st.borrow_mut().apply_interval_records(records);
                self.arrivals
                    .borrow_mut()
                    .entry(head)
                    .or_default()
                    .push((m.src, vc.clone()));
            }
            TAG_DONE => {
                assert_eq!(self.id(), 0, "only process 0 collects DONE messages");
                self.done_count.set(self.done_count.get() + 1);
            }
            TAG_TERMINATE => self.terminated.set(true),
            // Everything else belongs to the configured protocol backend
            // (diff requests under LRC, flushes and page fetches under
            // HLRC, the ownership protocol under SC), which hands back
            // whatever is not its own request.
            _ => return self.serve_protocol_request(m),
        }
        None
    }

    /// Handle a (possibly forwarded) lock acquire directed at this process.
    fn handle_forwarded(&self, lock: u32, requester: usize, req_vc: &VectorClock, arrival: f64) {
        assert_ne!(requester, self.id(), "a process never forwards to itself");
        let depart = {
            let mut st = self.st.borrow_mut();
            let ls = st.lock_state_mut(lock);
            if !ls.have_token || ls.in_cs {
                ls.pending.push_back((requester, req_vc.clone()));
                return;
            }
            // A grant never departs before the release it follows.
            (arrival + REQUEST_SERVICE_COST).max(ls.released_at)
        };
        self.grant_lock(lock, requester, req_vc, depart);
    }

    /// Hand the lock token to `requester`, piggybacking the write notices of
    /// every interval the requester has not seen.
    fn grant_lock(&self, lock: u32, requester: usize, req_vc: &VectorClock, depart: f64) {
        // Handing the token over is a release edge: the open interval must
        // be published before the grant departs.
        self.close_and_publish();
        let grant = {
            let mut st = self.st.borrow_mut();
            let ls = st.lock_state_mut(lock);
            assert!(ls.have_token && !ls.in_cs, "granting a lock we cannot give");
            ls.have_token = false;
            st.sync_not_covered_by(lock, req_vc)
        };
        self.send(requester, TAG_LOCK_GRANT, grant, Some(depart));
    }

    /// Send `msg` to `dst` as a value shared with the receiver, charged at
    /// [`Msg::wire_len`]; it departs now, or at `depart` when served
    /// interrupt-style.  Every DSM message is sent here — a forward passes
    /// on the `Rc` it received — so under `oracle-checks` this is where each
    /// one is held to the codec.
    pub(crate) fn send(&self, dst: usize, tag: u32, msg: impl Into<Rc<Msg>>, depart: Option<f64>) {
        let msg = msg.into();
        #[cfg(feature = "oracle-checks")]
        check_codec(tag, &msg, self.nprocs());
        let len = msg.wire_len();
        let payload = Payload::Value { value: msg, len };
        match depart {
            Some(at) => self.proc.send_at(dst, tag, payload, at),
            None => self.proc.send(dst, tag, payload),
        }
    }

    /// Barrier-time garbage collection, the paper's own GC point.
    ///
    /// Triggered — identically on every process, because the clocks merge at
    /// the barrier that just completed — when the cluster-wide interval
    /// count has grown past the configured threshold since the last
    /// collection.  The protocol's GC preparation (`Tmk::prepare_gc` in
    /// [`crate::protocol`]) first makes the collection safe:
    /// LRC validates every invalid page and runs an internal sync barrier
    /// ([`Tmk::gc_sync_barrier`]) so no peer's in-flight diff request can
    /// name a collected diff; HLRC retains no diffs and page homes stay
    /// current, so the interval logs are truncated directly.
    fn maybe_gc(&self) {
        if self.nprocs() == 1 {
            return;
        }
        let sum = self.st.borrow().vc.sum();
        if sum - self.last_gc_sum.get() < self.gc_threshold.get() {
            return;
        }
        // The GC span covers preparation (which may fault pages in and run
        // the internal sync barrier — those nest as their own spans) plus
        // the collection itself.
        self.proc.span_begin(SpanCat::Gc, sum);
        self.prepare_gc();
        let horizon = self.st.borrow().vc.clone();
        debug_assert_eq!(horizon.sum(), sum, "GC must not create intervals");
        self.st.borrow_mut().gc(&horizon);
        self.last_gc_sum.set(sum);
        self.proc.span_end(SpanCat::Gc);
    }

    /// The internal synchronization barrier of a protocol's GC preparation
    /// (an out-of-band episode that exchanges no application state beyond
    /// the clocks).
    pub(crate) fn gc_sync_barrier(&self) {
        self.barrier_inner(u32::MAX);
    }
}
