//! Deterministic fault injection: seeded message-level faults, timed link
//! partitions, process crashes, and the splittable PRNG behind them.
//!
//! The paper's runtime systems (TreadMarks over user-level reliable UDP, PVM
//! over TCP) both sit on a *reliable* transport: datagram loss, duplication
//! and reordering are absorbed by retransmission and resequencing below the
//! protocol, surfacing to the runtime only as extra delay and extra wire
//! traffic.  This module models exactly that contract:
//!
//! * **drop** — the message's datagrams are lost once on the wire and
//!   retransmitted after [`FaultPlan::retransmit`]; the arrival is delayed by
//!   the timeout and the retransmitted datagrams are charged to the cost
//!   model (sender and receiver datagram counters, and the shared medium when
//!   the preset has one).
//! * **duplicate** — the wire carries a second copy of every datagram; the
//!   copy is suppressed by the reliability layer (delivered once) but its
//!   occupancy and datagram count are charged.
//! * **delay** — the message is held in a queue somewhere for an extra
//!   `delay_factor × latency × u` seconds (`u ∈ (0, 1]` seeded).
//! * **reorder** — delivery slips behind the most recently queued message
//!   from a *different* source (per-link FIFO is preserved — the reliability
//!   layer resequences each link), so wildcard receivers service requests in
//!   a different order.
//! * **partition** — messages crossing an active [`Partition`] window cannot
//!   be delivered before the partition heals: the reliability layer keeps
//!   retransmitting (one retry per [`FaultPlan::retransmit`] interval is
//!   charged) and the message arrives after the heal instant.
//! * **crash** — the named process dies at a virtual time or at its nth
//!   transport event ([`Crash`]); peers blocked on it are reported as a
//!   structured deadlock naming the crashed rank (see `Cluster::try_run`).
//!
//! Every seeded decision draws from [`SplitMix64`] streams split per link
//! from [`FaultPlan::seed`], and all draws are made by the token holder at
//! deterministic points of the token discipline — so `(scenario, seed)`
//! determines the run bit-for-bit, independent of `--jobs` width or host
//! scheduling.  This module is the **only** place in the workspace allowed
//! to construct the PRNG (enforced by `xtask lint`).
//!
//! It is also the one place a fault's effect is decided, counted and traced:
//! the transport hands `FaultState` each message and gets back only the
//! extra delay, datagrams and occupancy, and whether the message slips.

use crate::config::ClusterConfig;
use crate::obs::{self, EventKind, Trace};

/// The workspace's one and only pseudo-random number generator: the
/// SplitMix64 sequence of Steele, Lea & Flood, chosen because it is tiny,
/// splittable (independent streams from `split`), and has a closed-form
/// n-th element — every fault decision is a pure function of `(seed, link,
/// counter)`.
///
/// Deliberately *not* `rand`-compatible: determinism of the simulation
/// requires that all randomness flows through seeded streams owned by this
/// module, which the `xtask lint` prng-confinement rule enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Golden-ratio increment of the SplitMix64 sequence.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A stream seeded with `seed`.
    pub fn seeded(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        Self::mix(self.state)
    }

    /// Next value in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An independent stream derived from this one and a stream id: the
    /// "split" operation that makes per-link fault streams independent of
    /// how many draws other links have consumed.
    pub fn split(&self, stream: u64) -> SplitMix64 {
        SplitMix64 {
            state: Self::mix(self.state ^ Self::mix(stream.wrapping_mul(Self::GAMMA))),
        }
    }

    /// The finaliser of the SplitMix64 sequence (Stafford's Mix13 variant).
    fn mix(mut z: u64) -> u64 {
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A timed link partition: while `from <= t < until`, no message can cross
/// between group `a` and group `b` (in either direction); the partition
/// heals at virtual time `until`.  The groups are disjoint: a rank on both
/// sides would be cut off from everyone, which is refused, not a cut.
///
/// The canonical text form is `"0,1|2,3@0.005..0.02"`: the two groups,
/// separated by `|`, then `@from..until` in seconds (shortest round-trip
/// float form, so formatting then parsing is the identity).
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Ranks on one side of the cut.
    pub a: Vec<usize>,
    /// Ranks on the other side.
    pub b: Vec<usize>,
    /// Virtual time at which the partition starts, seconds.
    pub from: f64,
    /// Virtual time at which the partition heals, seconds.
    pub until: f64,
}

impl Partition {
    /// True if a message departing at `t` from `src` to `dst` crosses the
    /// active partition.
    pub fn blocks(&self, src: usize, dst: usize, t: f64) -> bool {
        if t < self.from || t >= self.until {
            return false;
        }
        let (in_a, in_b) = (self.a.contains(&src), self.b.contains(&src));
        let (out_a, out_b) = (self.a.contains(&dst), self.b.contains(&dst));
        (in_a && out_b) || (in_b && out_a)
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let join = |v: &[usize]| {
            v.iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "{}|{}@{}..{}",
            join(&self.a),
            join(&self.b),
            self.from,
            self.until
        )
    }
}

impl std::str::FromStr for Partition {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("bad partition spec '{s}'; expected 'a,b|c,d@from..until'");
        let (groups, window) = s.split_once('@').ok_or_else(err)?;
        let (a, b) = groups.split_once('|').ok_or_else(err)?;
        let ranks = |g: &str| -> Result<Vec<usize>, String> {
            g.split(',')
                .map(|r| r.trim().parse::<usize>().map_err(|_| err()))
                .collect()
        };
        let (from, until) = window.split_once("..").ok_or_else(err)?;
        let parsed = Partition {
            a: ranks(a)?,
            b: ranks(b)?,
            from: from.trim().parse().map_err(|_| err())?,
            until: until.trim().parse().map_err(|_| err())?,
        };
        // Both ends finite: a partition healing at `inf` would carry the
        // run's virtual time (and its JSON) to `inf`.
        let window = parsed.from.is_finite() && parsed.until.is_finite();
        let overlap = parsed.a.iter().any(|r| parsed.b.contains(r));
        if parsed.a.is_empty()
            || parsed.b.is_empty()
            || overlap
            || !window
            || parsed.from >= parsed.until
        {
            return Err(err());
        }
        Ok(parsed)
    }
}

/// When a [`Crash`] fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPoint {
    /// At the first interaction at or after this virtual time, seconds.
    Time(f64),
    /// At the process's nth transport event (send or receive), counting
    /// from 1.
    Event(u64),
}

/// A process-crash fault: the process dies (its body unwinds, its state
/// vanishes) at the given point; it never sends again and never answers.
///
/// The canonical text form is `"2@0.0015"` (rank 2 at t = 1.5 ms) or
/// `"2#120"` (rank 2 at its 120th transport event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// Rank of the process to crash.
    pub rank: usize,
    /// When the crash fires.
    pub at: CrashPoint,
}

impl std::fmt::Display for Crash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.at {
            CrashPoint::Time(t) => write!(f, "{}@{}", self.rank, t),
            CrashPoint::Event(n) => write!(f, "{}#{}", self.rank, n),
        }
    }
}

impl std::str::FromStr for Crash {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("bad crash spec '{s}'; expected 'rank@time' or 'rank#event'");
        if let Some((rank, t)) = s.split_once('@') {
            // A NaN or infinite crash time would never fire.
            let t: f64 = t.trim().parse().map_err(|_| err())?;
            Ok(Crash {
                rank: rank.trim().parse().map_err(|_| err())?,
                at: CrashPoint::Time(t.is_finite().then_some(t).ok_or_else(err)?),
            })
        } else if let Some((rank, n)) = s.split_once('#') {
            // Events count from 1: `#0` would fire exactly like `#1`.
            let n: u64 = n.trim().parse().map_err(|_| err())?;
            Ok(Crash {
                rank: rank.trim().parse().map_err(|_| err())?,
                at: CrashPoint::Event((n > 0).then_some(n).ok_or_else(err)?),
            })
        } else {
            Err(err())
        }
    }
}

/// A deterministic fault-injection plan, carried on `ClusterConfig` and in
/// the scenario schema (`[fault]` table).
///
/// The default plan is inert ([`FaultPlan::is_empty`]) and adds zero cost:
/// the transport checks one cached flag per message.  Probabilities are per
/// logical message, evaluated on an independent seeded stream per directed
/// link, so the outcome of one link's draws never depends on another link's
/// traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed for the per-link fault streams.
    pub seed: u64,
    /// Per-message probability that the wire drops the datagrams once
    /// (retransmitted after [`retransmit`](Self::retransmit)).
    pub drop: f64,
    /// Per-message probability that the wire carries a duplicate copy
    /// (suppressed on delivery, charged on the wire).
    pub duplicate: f64,
    /// Per-message probability of delivery slipping behind the previously
    /// queued message from a different source.
    pub reorder: f64,
    /// Per-message probability of extra queueing delay.
    pub delay: f64,
    /// Scale of the extra delay: `delay_factor × latency × u`, `u ∈ (0, 1]`.
    pub delay_factor: f64,
    /// Reliability-layer retransmission timeout, seconds.
    pub retransmit: f64,
    /// Timed link partitions.
    pub partitions: Vec<Partition>,
    /// Process crashes.
    pub crashes: Vec<Crash>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            delay_factor: 4.0,
            retransmit: 2e-3,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A moderately lossy built-in plan (the `--faults lossy` battery): a
    /// few percent of messages dropped-and-retransmitted, duplicated,
    /// delayed or reordered.  Correctness must survive it — only timing and
    /// wire counters change.
    pub fn lossy(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.02,
            duplicate: 0.01,
            reorder: 0.02,
            delay: 0.02,
            ..FaultPlan::default()
        }
    }

    /// A built-in plan (the `--faults partition` battery) that cuts the even
    /// ranks off from the odd ranks for a window in the early part of a
    /// Tiny-preset run, healing at 4 ms virtual.
    pub fn partitioned(seed: u64, nprocs: usize) -> Self {
        let a: Vec<usize> = (0..nprocs).filter(|r| r % 2 == 0).collect();
        let b: Vec<usize> = (0..nprocs).filter(|r| r % 2 == 1).collect();
        let partitions = if a.is_empty() || b.is_empty() {
            Vec::new()
        } else {
            vec![Partition {
                a,
                b,
                from: 1e-3,
                until: 4e-3,
            }]
        };
        FaultPlan {
            seed,
            partitions,
            ..FaultPlan::default()
        }
    }

    /// True if the plan can never inject anything: all probabilities zero
    /// and no partitions or crashes.  The transport skips the fault path
    /// entirely for empty plans, so the pre-fault byte stream is preserved
    /// exactly.
    pub fn is_empty(&self) -> bool {
        let FaultPlan {
            seed: _,
            drop,
            duplicate,
            reorder,
            delay,
            delay_factor: _,
            retransmit: _,
            partitions,
            crashes,
        } = self;
        *drop == 0.0
            && *duplicate == 0.0
            && *reorder == 0.0
            && *delay == 0.0
            && partitions.is_empty()
            && crashes.is_empty()
    }

    /// The same plan reseeded for fuzzing iteration `seed` (the master seed
    /// and the iteration are split into an independent stream seed).
    pub fn for_seed(&self, seed: u64) -> Self {
        let mut plan = self.clone();
        plan.seed = SplitMix64::seeded(self.seed).split(seed).state;
        plan
    }

    /// The crash point configured for `rank`, if any (first matching spec).
    pub fn crash_for(&self, rank: usize) -> Option<CrashPoint> {
        self.crashes.iter().find(|c| c.rank == rank).map(|c| c.at)
    }

    /// Refuse a plan that a run of `nprocs` processes would partly ignore: a
    /// partition or crash naming a rank the run lacks, or a second crash for
    /// one rank.  One line naming the `[fault]` key, the rank and the count.
    pub fn check_ranks(&self, nprocs: usize) -> Result<(), String> {
        let refuse = |key, spec: &dyn std::fmt::Display, rank, why| {
            Err(format!(
                "[fault] {key} = \"{spec}\": rank {rank} {why} a run of {nprocs} processes"
            ))
        };
        for p in &self.partitions {
            if let Some(&rank) = p.a.iter().chain(&p.b).find(|&&r| r >= nprocs) {
                return refuse("partitions", p, rank, "does not exist in");
            }
        }
        for (i, c) in self.crashes.iter().enumerate() {
            if c.rank >= nprocs {
                return refuse("crashes", c, c.rank, "does not exist in");
            } else if self.crashes[..i].iter().any(|d| d.rank == c.rank) {
                return refuse("crashes", c, c.rank, "crashes twice in");
            }
        }
        Ok(())
    }

    /// A stable 64-bit identity of the plan (FNV-1a over the canonical
    /// encoding, floats by bit pattern).  `0` for the empty default plan, so
    /// un-fuzzed JSON records stay byte-identical to pre-fault output.
    pub fn hash(&self) -> u64 {
        if self.is_empty() && self.seed == 0 {
            return 0;
        }
        let FaultPlan {
            seed,
            drop,
            duplicate,
            reorder,
            delay,
            delay_factor,
            retransmit,
            partitions,
            crashes,
        } = self;
        let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(*seed);
        for f in [drop, duplicate, reorder, delay, delay_factor, retransmit] {
            eat(f.to_bits());
        }
        for p in partitions {
            for r in p.a.iter().chain(&p.b) {
                eat(*r as u64);
            }
            eat(u64::MAX); // group separator
            eat(p.from.to_bits());
            eat(p.until.to_bits());
        }
        for c in crashes {
            eat(c.rank as u64);
            match c.at {
                CrashPoint::Time(t) => eat(t.to_bits()),
                CrashPoint::Event(n) => {
                    eat(u64::MAX);
                    eat(n);
                }
            }
        }
        h
    }
}

/// What kind of fault an injection event records (trace stream and
/// counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Datagrams dropped once and retransmitted.
    Drop,
    /// A duplicate copy charged on the wire.
    Duplicate,
    /// Delivery slipped behind another source's message.
    Reorder,
    /// Extra seeded queueing delay.
    Delay,
    /// Delivery deferred past a partition heal.
    Partition,
    /// A process crash fired.
    Crash,
}

impl FaultKind {
    /// Every fault kind the plan schema supports, in catalogue order
    /// (rendered by `reproduce --list`).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Delay,
        FaultKind::Partition,
        FaultKind::Crash,
    ];

    /// Stable lowercase name used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Delay => "delay",
            FaultKind::Partition => "partition",
            FaultKind::Crash => "crash",
        }
    }

    /// One-line description for `reproduce --list`.
    pub fn describe(self) -> &'static str {
        match self {
            FaultKind::Drop => {
                "datagrams lost once on the wire; retransmitted after the timeout, delay and extra datagrams charged"
            }
            FaultKind::Duplicate => {
                "wire carries a second copy; suppressed on delivery, occupancy and datagrams charged"
            }
            FaultKind::Reorder => {
                "delivery slips behind the previously queued message from another source (per-link FIFO preserved)"
            }
            FaultKind::Delay => "extra queueing delay of delay_factor x latency x u seconds",
            FaultKind::Partition => {
                "timed link partition 'a|b@from..until'; crossing messages retransmit until the heal instant"
            }
            FaultKind::Crash => {
                "process death at 'rank@time' or 'rank#event'; peers report a structured deadlock naming it"
            }
        }
    }
}

/// The arbiter's seeded tie-break stream: when several processes are parked
/// at exactly the same minimum virtual time, a seeded draw picks the grant
/// instead of the lowest rank, so one scenario explores many legal
/// schedules.  Seed 0 never draws and always picks the lowest rank — the
/// pre-fault engine, bit for bit.
///
/// Lives in this module (not `sched`) so the PRNG stays confined to
/// `cluster::fault`, as the `xtask lint` prng-confinement rule requires.
#[derive(Debug)]
pub(crate) struct TieBreak {
    rng: SplitMix64,
    seeded: bool,
    /// After this many draws, fall back to rank order (`None` = unlimited);
    /// the shrinker bisects this to find the minimal seeded prefix.
    limit: Option<u64>,
    draws: u64,
}

impl TieBreak {
    /// A stream for `seed` with an optional draw cap.
    pub(crate) fn new(seed: u64, limit: Option<u64>) -> Self {
        TieBreak {
            rng: SplitMix64::seeded(seed).split(u64::from_le_bytes(*b"tiebreak")),
            seeded: seed != 0,
            limit,
            draws: 0,
        }
    }

    /// True if ties are broken by draws rather than by rank.
    pub(crate) fn seeded(&self) -> bool {
        self.seeded
    }

    /// Draws consumed so far.
    #[cfg(test)]
    pub(crate) fn draws(&self) -> u64 {
        self.draws
    }

    /// Pick one of the tied candidate ranks (callers pass them sorted
    /// ascending, so rank order is the deterministic fallback).
    pub(crate) fn pick(&mut self, candidates: &[usize]) -> usize {
        debug_assert!(!candidates.is_empty());
        if candidates.len() == 1 || !self.seeded || self.limit.is_some_and(|cap| self.draws >= cap)
        {
            return candidates[0];
        }
        self.draws += 1;
        candidates[(self.rng.next_u64() % candidates.len() as u64) as usize]
    }
}

/// What the transport does to one message, as decided by
/// [`FaultState::on_transmit`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Injection {
    /// Extra arrival delay, seconds.
    pub extra_delay: f64,
    /// Extra wire datagrams (retransmissions and duplicates).
    pub extra_datagrams: u64,
    /// Extra wire occupancy to charge the shared medium, seconds.
    pub extra_occupancy: f64,
    /// Queue the message one slot before the destination's tail.
    pub slip: bool,
}

/// Runtime fault state, owned by the transport's simulation state and
/// touched only by the token holder: the plan, one PRNG stream per directed
/// link, the count of injected faults and the crashes that fired.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    nprocs: usize,
    /// The network's one-way latency, the scale of an extra delay.
    latency: f64,
    /// Per-directed-link streams, indexed `src * nprocs + dst`.
    links: Vec<SplitMix64>,
    /// Drops, duplicates, delays, partition hits and applied reorder slips.
    injected: u64,
    /// `(rank, virtual_time)` of every crash that fired.
    crashed: Vec<(usize, f64)>,
}

impl FaultState {
    /// Build the runtime state of a run of `cfg`, or `None` for an empty
    /// plan (the transport then skips the fault path entirely).
    pub(crate) fn new(cfg: &ClusterConfig) -> Option<Self> {
        if cfg.fault.is_empty() {
            return None;
        }
        let root = SplitMix64::seeded(cfg.fault.seed);
        Some(FaultState {
            plan: cfg.fault.clone(),
            nprocs: cfg.nprocs,
            latency: cfg.latency,
            links: (0..cfg.nprocs * cfg.nprocs)
                .map(|link| root.split(link as u64))
                .collect(),
            injected: 0,
            crashed: Vec::new(),
        })
    }

    /// Decide, count and trace the faults of one message on link `src →
    /// dst` departing at `depart`, `datagrams` datagrams of `occupancy`
    /// seconds wire time, bound for a queue whose tail came from `tail_src`.
    /// Exactly four draws are consumed per message (one per probabilistic
    /// kind), so the stream position is a pure function of the link's
    /// message count.
    pub(crate) fn on_transmit(
        &mut self,
        (src, dst): (usize, usize),
        depart: f64,
        (datagrams, occupancy): (u64, f64),
        tail_src: Option<usize>,
        trace: &mut Trace,
    ) -> Injection {
        let rng = &mut self.links[src * self.nprocs + dst];
        let [u_drop, u_dup, u_delay, u_reorder] = [(); 4].map(|()| rng.next_f64());
        let plan = &self.plan;
        // Partition first: it dominates (the message cannot cross until the
        // heal), and is a pure function of the departure time.
        let cut = plan.partitions.iter().find(|p| p.blocks(src, dst, depart));
        let drop = u_drop < plan.drop;
        let duplicate = u_dup < plan.duplicate;
        let delay = u_delay < plan.delay;
        let mut inj = Injection::default();
        if let Some(p) = cut {
            let wait = p.until - depart;
            let retries = (wait / plan.retransmit).ceil().max(1.0);
            inj.extra_delay += wait;
            inj.extra_datagrams += retries as u64 * datagrams;
            inj.extra_occupancy += retries * occupancy;
        }
        if drop {
            inj.extra_delay += plan.retransmit;
            inj.extra_datagrams += datagrams;
            inj.extra_occupancy += occupancy;
        }
        if duplicate {
            inj.extra_datagrams += datagrams;
            inj.extra_occupancy += occupancy;
        }
        if delay {
            // `1 - u` maps the draw to (0, 1] so the delay is never zero.
            inj.extra_delay += plan.delay_factor * self.latency * (1.0 - u_delay / plan.delay);
        }
        // A slip applies only behind another source's message: per-link
        // FIFO, the reliability layer's resequencing guarantee, holds.
        inj.slip = u_reorder < plan.reorder && tail_src.is_some_and(|s| s != src);
        let delay_ns = obs::ns(inj.extra_delay);
        for (kind, hit, delay_ns) in [
            (FaultKind::Partition, cut.is_some(), delay_ns),
            (FaultKind::Drop, drop, delay_ns),
            (FaultKind::Duplicate, duplicate, delay_ns),
            (FaultKind::Delay, delay, delay_ns),
            (FaultKind::Reorder, inj.slip, 0),
        ] {
            if hit {
                self.injected += 1;
                let fault = EventKind::Fault {
                    kind,
                    dst: dst as u32,
                    delay_ns,
                };
                trace.record(depart, src, fault);
            }
        }
        inj
    }

    /// Record that `rank` crashed at virtual time `at`.
    pub(crate) fn crash(&mut self, rank: usize, at: f64, trace: &mut Trace) {
        self.crashed.push((rank, at));
        let crash = EventKind::Fault {
            kind: FaultKind::Crash,
            dst: rank as u32,
            delay_ns: 0,
        };
        trace.record(at, rank, crash);
    }

    /// Lines appended to a deadlock/livelock report naming the fault context:
    /// which peers the plan crashed, and which plan partitions could have
    /// blocked delivery — so an injected-fault deadlock names its cause
    /// instead of presenting as a protocol bug.
    pub(crate) fn context(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(rank, at) in &self.crashed {
            let _ = writeln!(
                out,
                "  fault context: process {rank} crashed by fault plan at t={at:.6}"
            );
        }
        for p in &self.plan.partitions {
            let _ = writeln!(out, "  fault context: fault-plan partition {p}");
        }
        out
    }

    /// Once the run is over: the number of faults injected, and the crashes
    /// that fired.
    pub(crate) fn into_outcome(self) -> (u64, Vec<(usize, f64)>) {
        (self.injected, self.crashed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsLevel;

    #[test]
    fn splitmix_is_stable() {
        // Golden values: the fault model's byte-identity rests on this
        // sequence never changing.
        let mut rng = SplitMix64::seeded(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut rng = SplitMix64::seeded(42);
        let first = rng.next_u64();
        assert_eq!(first, SplitMix64::seeded(42).next_u64());
        let f = SplitMix64::seeded(7).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn split_streams_are_independent_of_draw_order() {
        let root = SplitMix64::seeded(9);
        let mut a1 = root.split(0);
        let mut b1 = root.split(1);
        let (x, y) = (a1.next_u64(), b1.next_u64());
        // Re-derive b without touching a: same value.
        let mut b2 = root.split(1);
        assert_eq!(b2.next_u64(), y);
        assert_ne!(x, y);
    }

    #[test]
    fn partition_spec_round_trips() {
        for s in ["0,1|2,3@0.005..0.02", "0|1@0.001..0.004"] {
            let p: Partition = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
            assert_eq!(p.to_string().parse::<Partition>().unwrap(), p);
        }
        assert!("0,1@1..2".parse::<Partition>().is_err());
        assert!("0|1@2..1".parse::<Partition>().is_err());
        assert!("|1@1..2".parse::<Partition>().is_err());
    }

    #[test]
    fn partition_blocks_only_inside_the_window_and_across_the_cut() {
        let p: Partition = "0,1|2,3@0.5..1.0".parse().unwrap();
        assert!(p.blocks(0, 2, 0.5));
        assert!(p.blocks(3, 1, 0.75));
        assert!(!p.blocks(0, 1, 0.75)); // same side
        assert!(!p.blocks(0, 2, 0.25)); // before
        assert!(!p.blocks(0, 2, 1.0)); // healed
    }

    #[test]
    fn crash_spec_round_trips() {
        for s in ["2@0.0015", "0#120"] {
            let c: Crash = s.parse().unwrap();
            assert_eq!(c.to_string(), s);
        }
        assert!("x@1".parse::<Crash>().is_err());
        assert!("2".parse::<Crash>().is_err());
    }

    #[test]
    fn specs_that_would_be_silently_reinterpreted_are_refused() {
        // A rank on both sides of a cut would be cut off from everyone.
        let e = "0,1|1,2@0.001..0.004".parse::<Partition>().unwrap_err();
        assert_eq!(
            e,
            "bad partition spec '0,1|1,2@0.001..0.004'; expected 'a,b|c,d@from..until'"
        );
        // Events count from 1, so `#0` would fire exactly like `#1`.
        let e = "2#0".parse::<Crash>().unwrap_err();
        assert_eq!(
            e,
            "bad crash spec '2#0'; expected 'rank@time' or 'rank#event'"
        );
        assert!("2#1".parse::<Crash>().is_ok());
    }

    #[test]
    fn a_plan_fits_a_run_only_if_it_names_its_ranks_once() {
        let plan = FaultPlan {
            partitions: vec!["0|2@0..1".parse().unwrap()],
            crashes: vec!["2@0.5".parse().unwrap(), "1#3".parse().unwrap()],
            ..FaultPlan::default()
        };
        assert_eq!(plan.check_ranks(3), Ok(()));
        assert!(plan
            .check_ranks(2)
            .unwrap_err()
            .contains("rank 2 does not exist"));
    }

    #[test]
    fn empty_plan_hashes_to_zero_and_nonempty_does_not() {
        assert_eq!(FaultPlan::default().hash(), 0);
        let lossy = FaultPlan::lossy(1);
        assert_ne!(lossy.hash(), 0);
        assert_eq!(lossy.hash(), FaultPlan::lossy(1).hash());
        assert_ne!(lossy.hash(), FaultPlan::lossy(2).hash());
        assert_ne!(lossy.hash(), FaultPlan::partitioned(1, 4).hash());
    }

    #[test]
    fn for_seed_derives_distinct_reproducible_streams() {
        let base = FaultPlan::lossy(7);
        assert_eq!(base.for_seed(3), base.for_seed(3));
        assert_ne!(base.for_seed(3).seed, base.for_seed(4).seed);
        // Seed material flows from the master seed too.
        assert_ne!(
            FaultPlan::lossy(1).for_seed(3).seed,
            FaultPlan::lossy(2).for_seed(3).seed
        );
    }

    /// A run of `fault` on four processes of the calibrated FDDI model.
    fn four(fault: FaultPlan) -> ClusterConfig {
        ClusterConfig {
            fault,
            ..ClusterConfig::calibrated_fddi(4)
        }
    }

    #[test]
    fn fault_state_is_deterministic_per_link() {
        let cfg = four(FaultPlan::lossy(11));
        let mut s1 = FaultState::new(&cfg).unwrap();
        let mut s2 = FaultState::new(&cfg).unwrap();
        let (mut t1, mut t2) = (Trace::new(ObsLevel::Trace), Trace::new(ObsLevel::Off));
        for i in 0..64 {
            let depart = i as f64 * 1e-4;
            // Every third message queues behind one from its own link, where
            // a drawn slip must not apply.
            let tail = Some(i % 3);
            let a = s1.on_transmit((0, 1), depart, (2, 1e-4), tail, &mut t1);
            let b = s2.on_transmit((0, 1), depart, (2, 1e-4), tail, &mut t2);
            assert_eq!(a.extra_delay.to_bits(), b.extra_delay.to_bits());
            assert_eq!(a.extra_datagrams, b.extra_datagrams);
            assert_eq!(a.slip, b.slip);
            assert!(!(a.slip && tail == Some(0)), "a slip broke per-link FIFO");
        }
        assert_eq!(s1.injected, s2.injected);
        assert!(s1.injected > 0, "lossy plan never fired in 64 sends");
        // One trace event per injected fault; not tracing changes nothing.
        assert_eq!(t1.into_events().len() as u64, s1.injected);
        assert!(t2.into_events().is_empty());
    }

    #[test]
    fn a_crash_is_recorded_traced_and_named_in_the_context() {
        let cut = "0|1@0..1".parse().unwrap();
        let mut f = FaultState::new(&four(FaultPlan {
            partitions: vec![cut],
            ..FaultPlan::default()
        }))
        .unwrap();
        let mut trace = Trace::new(ObsLevel::Trace);
        f.crash(2, 0.5, &mut trace);
        assert_eq!(
            f.context(),
            "  fault context: process 2 crashed by fault plan at t=0.500000\n  \
             fault context: fault-plan partition 0|1@0..1\n"
        );
        assert_eq!(trace.into_events().len(), 1);
        assert_eq!(f.into_outcome(), (0, vec![(2, 0.5)]));
    }

    #[test]
    fn empty_plan_builds_no_state() {
        assert!(FaultState::new(&four(FaultPlan::default())).is_none());
        let seeded_only = FaultPlan {
            seed: 99,
            ..FaultPlan::default()
        };
        assert!(FaultState::new(&four(seeded_only)).is_none());
    }
}
