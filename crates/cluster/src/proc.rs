//! The per-process handle used by application and runtime-system code.

use crate::config::ClusterConfig;
use crate::fault::CrashPoint;
use crate::net::{Message, NetworkCore, Payload, Tag};
use crate::obs::{self, ProcObs, Recorder, SpanCat};
use crate::stats::ProcStats;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Handle to one simulated process (workstation).
///
/// A `Proc` is owned by the coroutine that simulates the process and is not
/// shared; all communication with other processes goes through the
/// cluster's network core, whose conservative virtual-time arbiter makes
/// every interaction deterministic.
pub struct Proc {
    id: usize,
    core: Rc<NetworkCore>,
    /// Virtual time in seconds.  Computation advances it explicitly (the
    /// application layer's work model); communication advances it through
    /// the transport, which stamps each message with its arrival time and
    /// synchronises the receiver to `max(own, arrival)` on consume.  This is
    /// the standard "logical execution time" construction: a process's
    /// parallel time is the virtual time at which it finishes, and speedup
    /// is sequential virtual time over the latest finish.
    clock: Cell<f64>,
    stats: RefCell<ProcStats>,
    /// Observability recorder; `None` when the config says `Off`, so every
    /// emission site costs one predictable branch.
    obs: Option<Recorder>,
    /// Fault-plan crash point for this rank, if any.
    crash: Option<CrashPoint>,
    /// Transport interactions entered so far (sends and receives), counted
    /// for [`CrashPoint::Event`].
    events: Cell<u64>,
}

impl Proc {
    /// Create the handle for process `id` on the given network.
    pub(crate) fn new(id: usize, core: Rc<NetworkCore>) -> Self {
        let level = core.config().obs;
        let crash = core.config().fault.crash_for(id);
        Proc {
            id,
            core,
            clock: Cell::new(0.0),
            stats: RefCell::default(),
            obs: level.enabled().then(|| Recorder::new(id as u32, level)),
            crash,
            events: Cell::new(0),
        }
    }

    /// Fault-plan crash hook, called on entry to every transport interaction
    /// (send or receive — the points at which a dead process would be
    /// observable to its peers).  When this rank's crash point has been
    /// reached, the process is torn down through the network core and its
    /// body unwinds with the engine's teardown marker; it never interacts
    /// again.  A `None` crash point costs one branch.
    fn maybe_crash(&self) {
        let Some(at) = self.crash else { return };
        self.events.set(self.events.get() + 1);
        let fired = match at {
            CrashPoint::Time(t) => self.clock.get() >= t,
            CrashPoint::Event(n) => self.events.get() >= n,
        };
        if fired {
            self.core.crash(self.id, self.clock.get());
        }
    }

    /// Rank of this process, `0 .. nprocs`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of processes in the cluster.
    pub fn nprocs(&self) -> usize {
        self.core.config().nprocs
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        self.core.config()
    }

    /// Current virtual time of this process, seconds.
    pub fn clock(&self) -> f64 {
        self.clock.get()
    }

    /// Charge `seconds` of local computation to this process's clock.
    pub fn compute(&self, seconds: f64) {
        self.advance(seconds);
    }

    /// Non-blocking send of `payload` to process `dst` with tag `tag`.
    ///
    /// The sender is charged the configured per-send CPU overhead; the
    /// message leaves at the sender's current virtual time.
    pub fn send(&self, dst: usize, tag: Tag, payload: impl Into<Payload>) {
        self.maybe_crash();
        self.advance(self.core.config().send_overhead);
        self.transmit(dst, tag, payload.into(), self.clock.get());
    }

    /// Send `payload` with an explicit departure time.
    ///
    /// This models interrupt-style request service (as TreadMarks does with
    /// SIGIO): a process can answer a request at the virtual time the request
    /// arrived even if its main computation has already advanced further.
    /// The send is accounted to this process's statistics, and the per-send
    /// CPU overhead is charged to its clock as "stolen cycles" — the handler
    /// still costs real processor time, whenever it notionally ran.
    pub fn send_at(&self, dst: usize, tag: Tag, payload: impl Into<Payload>, depart: f64) {
        self.maybe_crash();
        self.advance(self.core.config().send_overhead);
        self.transmit(dst, tag, payload.into(), depart);
    }

    fn transmit(&self, dst: usize, tag: Tag, payload: Payload, depart: f64) {
        let bytes = payload.len() as u64;
        let datagrams = self.core.transmit(self.id, dst, tag, payload, depart);
        let mut st = self.stats.borrow_mut();
        st.messages_sent += 1;
        st.datagrams_sent += datagrams;
        st.bytes_sent += bytes;
    }

    /// Blocking receive of a message matching `src` (any source if `None`)
    /// and `tag` (any tag if `None`).  The caller's clock is synchronised to
    /// the arrival time of the message and charged the per-receive overhead.
    pub fn recv_match(&self, src: Option<usize>, tag: Option<Tag>) -> Message {
        self.maybe_crash();
        let m = self.core.recv_match(self.id, src, tag, self.clock.get());
        self.consume(&m);
        m
    }

    /// Blocking receive of a message matching `src` (any source if `None`)
    /// and exactly `tag`.
    pub fn recv(&self, src: Option<usize>, tag: Tag) -> Message {
        self.recv_match(src, Some(tag))
    }

    /// Blocking receive of *any* message addressed to this process.
    ///
    /// Runtime systems use this in their service loops: wait for whatever
    /// comes next (a request to serve or the reply being waited for).
    pub fn recv_any(&self) -> Message {
        self.recv_match(None, None)
    }

    /// Non-blocking receive; returns `None` if no matching message has
    /// *arrived* by this process's current virtual time.  A message whose
    /// arrival lies in the caller's virtual future is invisible — consuming
    /// it here would let a process react to a message "before" it arrived.
    /// Does not advance the clock when nothing is available.
    pub fn try_recv(&self, src: Option<usize>, tag: Tag) -> Option<Message> {
        self.maybe_crash();
        let m = self
            .core
            .try_recv_match(self.id, src, Some(tag), self.clock.get())?;
        self.consume(&m);
        Some(m)
    }

    /// Non-blocking receive of any queued message that has arrived by this
    /// process's current virtual time, consumed interrupt-style: the
    /// per-receive CPU overhead is charged to this process as stolen cycles,
    /// but the clock is *not* synchronised to the message's arrival time —
    /// the caller is busy computing, not idle-waiting.  Runtime systems use
    /// this to serve protocol requests at points where they are not blocked
    /// (the SIGIO delivery of the real system).
    pub fn try_recv_interrupt(&self) -> Option<Message> {
        self.maybe_crash();
        let m = self
            .core
            .try_recv_match(self.id, None, None, self.clock.get())?;
        self.advance(self.core.config().recv_overhead);
        self.count_received(&m);
        Some(m)
    }

    /// Open an observability span of `cat` at this process's current virtual
    /// time.  `arg` is a category-specific operand (page id, lock id, epoch).
    /// A no-op when observability is off.  Spans nest; every `span_begin`
    /// must be matched by a [`span_end`](Self::span_end) of the same
    /// category before the process finishes.
    pub fn span_begin(&self, cat: SpanCat, arg: u64) {
        if let Some(r) = &self.obs {
            r.span_begin(obs::ns(self.clock.get()), cat, arg);
        }
    }

    /// Close the innermost open span of `cat` at the current virtual time.
    /// A no-op when observability is off.
    pub fn span_end(&self, cat: SpanCat) {
        if let Some(r) = &self.obs {
            r.span_end(obs::ns(self.clock.get()), cat);
        }
    }

    /// Leave the simulation once the process closure has returned, handing
    /// the scheduling token back: the final statistics and the recorded
    /// observability output (`None` when the level is `Off`).
    pub(crate) fn finish(self) -> (ProcStats, Option<ProcObs>) {
        self.core.finish(self.id);
        let mut st = self.stats.into_inner();
        st.finish_time = self.clock.get();
        (st, self.obs.map(Recorder::finish))
    }

    /// Advance the clock by `dt` seconds of local activity.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    fn advance(&self, dt: f64) {
        assert!(dt.is_finite() && dt >= 0.0, "invalid clock advance: {dt}");
        self.clock.set(self.clock.get() + dt);
    }

    fn consume(&self, m: &Message) {
        if m.arrival > self.clock.get() {
            self.clock.set(m.arrival);
        }
        self.advance(self.core.config().recv_overhead);
        self.count_received(m);
    }

    fn count_received(&self, m: &Message) {
        let mut st = self.stats.borrow_mut();
        st.messages_received += 1;
        st.datagrams_received += m.datagrams;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use bytes::Bytes;

    #[test]
    fn a_rank_records_only_when_observability_is_on() {
        let run = |level| {
            let mut cfg = ClusterConfig::calibrated_fddi(3);
            cfg.obs = level;
            Cluster::run(cfg, |p| {
                p.span_begin(SpanCat::Fault, 0);
                p.compute(1e-3);
                p.span_end(SpanCat::Fault);
            })
        };
        assert!(run(crate::ObsLevel::Off).obs.is_none());
        let obs = run(crate::ObsLevel::Metrics).obs.expect("metrics recorded");
        assert_eq!(obs.procs.len(), 3, "one recording per rank");
        for po in &obs.procs {
            assert_eq!(po.span_count(SpanCat::Fault), 1);
            assert_eq!(po.self_ns[SpanCat::Fault.index()], 1_000_000);
            assert!(po.events.is_empty());
        }
    }

    #[test]
    fn compute_is_accounted() {
        let rep = Cluster::run(ClusterConfig::ideal(1), |p| {
            p.compute(0.25);
            p.compute(0.75);
        });
        assert!((rep.stats[0].finish_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_clock_starts_at_zero_and_advances_exactly() {
        let rep = Cluster::run(ClusterConfig::ideal(1), |p| {
            let start = p.clock();
            p.compute(1.25);
            p.compute(0.75);
            (start, p.clock())
        });
        assert_eq!(rep.results[0], (0.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "invalid clock advance")]
    fn a_negative_compute_panics() {
        Cluster::run(ClusterConfig::ideal(1), |p| p.compute(-1.0));
    }

    #[test]
    fn receiving_an_arrived_message_does_not_move_the_clock_back() {
        let cfg = ClusterConfig::calibrated_fddi(2);
        let recv_oh = cfg.recv_overhead;
        let rep = Cluster::run(cfg, |p| {
            if p.id() == 0 {
                p.send(1, 0, Bytes::from_static(b"early"));
            } else {
                p.compute(5.0);
                assert!(p.recv(Some(0), 0).arrival < 5.0);
            }
            p.clock()
        });
        assert_eq!(rep.results[1], 5.0 + recv_oh);
    }

    #[test]
    fn recv_waits_for_sender_virtual_time() {
        let cfg = ClusterConfig::calibrated_fddi(2);
        let recv_oh = cfg.recv_overhead;
        let rep = Cluster::run(cfg, |p| {
            if p.id() == 0 {
                p.compute(1.0); // sender is busy for a full virtual second
                p.send(1, 0, Bytes::from_static(b"x"));
                (0.0, p.clock())
            } else {
                let m = p.recv(Some(0), 0);
                assert!(m.arrival > 1.0);
                (m.arrival, p.clock())
            }
        });
        // The receiver did no computation but waited for the arrival.
        let (arrival, clock) = rep.results[1];
        assert_eq!(clock, arrival + recv_oh);
    }

    #[test]
    fn send_at_allows_interrupt_style_replies() {
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 0 {
                // Request arrives early ...
                p.send(1, 1, Bytes::from_static(b"req"));
                let reply = p.recv(Some(1), 2);
                reply.arrival
            } else {
                p.compute(5.0); // ... while the server is busy computing.
                let req = p.recv(Some(0), 1);
                // Serve it at its arrival time, not at our current clock.
                p.send_at(0, 2, Bytes::from_static(b"rsp"), req.arrival + 0.0001);
                0.0
            }
        });
        // The reply must NOT be delayed by the server's 5 s of computation.
        assert!(rep.results[0] < 1.0, "reply arrival {}", rep.results[0]);
    }

    #[test]
    fn send_at_charges_stolen_cycles_to_the_server_clock() {
        // A server that computes for exactly 1 s and serves `replies`
        // interrupt-style sends must finish at
        // 1 s + recv_overhead (for its one blocking receive)
        // + replies * send_overhead (the stolen cycles) exactly.
        let replies = 3usize;
        let cfg = ClusterConfig::calibrated_fddi(2);
        let (send_oh, recv_oh) = (cfg.send_overhead, cfg.recv_overhead);
        let rep = Cluster::run(cfg, move |p| {
            if p.id() == 0 {
                p.send(1, 1, Bytes::from_static(b"req"));
                for k in 0..replies as u32 {
                    p.recv(Some(1), 10 + k);
                }
            } else {
                p.compute(1.0);
                let req = p.recv(Some(0), 1);
                for k in 0..replies as u32 {
                    p.send_at(0, 10 + k, Bytes::from_static(b"rsp"), req.arrival + 1e-6);
                }
            }
        });
        let expect = 1.0 + recv_oh + replies as f64 * send_oh;
        let got = rep.stats[1].finish_time;
        assert!(
            (got - expect).abs() < 1e-12,
            "server finished at {got}, expected {expect}"
        );
    }

    #[test]
    fn try_recv_does_not_block() {
        let rep = Cluster::run(ClusterConfig::ideal(1), |p| p.try_recv(None, 0).is_none());
        assert!(rep.results[0]);
    }

    #[test]
    fn try_recv_cannot_see_the_virtual_future() {
        // The message arrives at ~latency; a receiver whose clock is still 0
        // must not observe it, let alone consume it.  After advancing its
        // clock past the arrival, the same receive succeeds.
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 0 {
                p.send(1, 4, Bytes::from_static(b"later"));
                true
            } else {
                // Give the sender time to transmit in virtual-time order:
                // block for the *other* tag first?  No — simply observe at
                // clock 0 (the send departs at t>0, so nothing can have
                // arrived), then advance far past the arrival and re-check.
                let early = p.try_recv(Some(0), 4);
                assert!(early.is_none(), "consumed a message from the future");
                let any = p.try_recv_interrupt();
                assert!(
                    any.is_none(),
                    "future message visible to a wildcard receive"
                );
                p.compute(1.0);
                let late = p.try_recv(Some(0), 4);
                late.is_some()
            }
        });
        assert!(rep.results[1]);
    }

    #[test]
    fn stats_count_both_directions() {
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 0 {
                p.send(1, 0, Bytes::from(vec![0u8; 1000]));
            } else {
                p.recv(Some(0), 0);
            }
        });
        assert_eq!(rep.stats[0].messages_sent, 1);
        assert_eq!(rep.stats[0].bytes_sent, 1000);
        assert_eq!(rep.stats[1].messages_received, 1);
    }

    #[test]
    fn datagrams_are_counted_on_both_sides() {
        // 20 KB at the calibrated 8 KB MTU is 3 datagrams; the receive side
        // must agree with the send side so Table-2 counts can be
        // cross-checked.
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            if p.id() == 0 {
                p.send(1, 0, Bytes::from(vec![0u8; 20_000]));
            } else {
                p.recv(Some(0), 0);
            }
        });
        assert_eq!(rep.stats[0].datagrams_sent, 3);
        assert_eq!(rep.stats[1].datagrams_received, 3);
        assert_eq!(rep.stats[0].datagrams_received, 0);
        assert_eq!(rep.stats[1].datagrams_sent, 0);
        assert_eq!(
            rep.stats.iter().map(|s| s.datagrams_sent).sum::<u64>(),
            rep.stats.iter().map(|s| s.datagrams_received).sum::<u64>(),
        );
    }
}
