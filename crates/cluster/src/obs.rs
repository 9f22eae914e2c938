//! Deterministic virtual-time observability: per-process recorders, span
//! recording, log-scale latency histograms, and per-process time attribution.
//!
//! Everything in this module is stamped in **virtual** time (integer
//! nanoseconds, converted once from the f64 virtual clock), so the output is
//! a pure function of the simulated program and the cost model: two runs of
//! the same configuration produce byte-identical traces and histograms
//! regardless of host scheduling or `--jobs` width.  Observability here is
//! therefore itself a correctness oracle — any nondeterminism in the engine
//! shows up as a trace diff.
//!
//! The layer has three levels ([`ObsLevel`]):
//!
//! * `Off` — a process holds no [`Recorder`] and every emission site is a
//!   single predictable branch; the simulation byte-stream is unchanged.
//! * `Metrics` — per-process span durations are recorded into fixed-bucket
//!   log-scale [`Histogram`]s and attributed to a [`SpanCat`] time-breakdown
//!   profile, but no event list is kept.
//! * `Trace` — additionally, every span boundary and every message
//!   send/deliver/consume plus arbiter grant is recorded as an [`Event`] for
//!   export as a Chrome-trace / Perfetto JSON file.
//!
//! Span recording never perturbs the simulation: recorders only *read* the
//! virtual clock, so enabling tracing cannot change any reported time or
//! counter (a property the test suite asserts).

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Convert a virtual-time instant in seconds to integer virtual nanoseconds.
///
/// All observability output quantises through this single function so the
/// mapping from the engine's f64 clock to trace timestamps is uniform (and
/// deterministic: `round` on a finite f64 is exact).
pub fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// How much the engine records about a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ObsLevel {
    /// No recording; emission sites reduce to one branch (no [`Recorder`]).
    #[default]
    Off,
    /// Histograms and the per-process time-breakdown profile only.
    Metrics,
    /// Metrics plus the full structured event list (for trace export).
    Trace,
}

impl ObsLevel {
    /// True unless the level is [`ObsLevel::Off`].
    pub fn enabled(self) -> bool {
        self != ObsLevel::Off
    }
}

/// Number of span categories (the length of [`SpanCat::ALL`]).
pub const NCATS: usize = 7;

/// The categories virtual time is attributed to, beyond plain computation.
///
/// These are the non-compute components of the paper's time-breakdown
/// figure: a process's total execution time decomposes into compute (the
/// residual) plus the *self time* of the spans below (nested spans are
/// attributed innermost-first, so the components are disjoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanCat {
    /// Servicing an access fault on an invalid page (DSM).
    Fault,
    /// Waiting for a remote lock grant (DSM).
    LockWait,
    /// Waiting in a barrier episode (DSM).
    BarrierWait,
    /// Barrier-time garbage collection (DSM).
    Gc,
    /// Flushing diffs to their home nodes at interval close (HLRC).
    Flush,
    /// Blocked in a user-level receive (message passing).
    RecvWait,
    /// Final handshake draining requests at process exit (DSM).
    Exit,
}

impl SpanCat {
    /// Every category, in profile-report order.
    pub const ALL: [SpanCat; NCATS] = [
        SpanCat::Fault,
        SpanCat::LockWait,
        SpanCat::BarrierWait,
        SpanCat::Gc,
        SpanCat::Flush,
        SpanCat::RecvWait,
        SpanCat::Exit,
    ];

    /// Stable index of this category into `[u64; NCATS]` profile arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in traces, reports, and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            SpanCat::Fault => "fault",
            SpanCat::LockWait => "lock-wait",
            SpanCat::BarrierWait => "barrier-wait",
            SpanCat::Gc => "gc",
            SpanCat::Flush => "flush",
            SpanCat::RecvWait => "recv-wait",
            SpanCat::Exit => "exit-wait",
        }
    }
}

/// What happened at one instant of virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A [`SpanCat`] span opened; `arg` is a category-specific operand
    /// (page id for faults, lock id for lock waits, barrier epoch, ...).
    SpanBegin {
        /// Category of the opened span.
        cat: SpanCat,
        /// Category-specific operand (page, lock id, epoch, ...).
        arg: u64,
    },
    /// The innermost open span of `cat` closed.
    SpanEnd {
        /// Category of the closed span.
        cat: SpanCat,
    },
    /// A message left `rank` for the wire (timestamped at departure).
    Send {
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// Wire datagrams after MTU fragmentation.
        datagrams: u64,
        /// Arrival instant at the destination, virtual ns.
        arrival_ns: u64,
    },
    /// `rank` consumed a queued message (timestamped at the consume instant,
    /// i.e. `max(receiver clock, arrival)`).
    Consume {
        /// Source rank of the consumed message.
        src: u32,
        /// Message tag.
        tag: u32,
        /// Arrival instant of the consumed message, virtual ns.
        arrival_ns: u64,
    },
    /// The arbiter granted `rank` the scheduling token at its parked key.
    Grant,
    /// The fault plan injected a fault into a message leaving `rank` (or,
    /// for [`FaultKind::Crash`](crate::fault::FaultKind::Crash), killed
    /// `rank` itself).
    Fault {
        /// Which fault kind fired.
        kind: crate::fault::FaultKind,
        /// Destination rank of the affected message (the crashed rank
        /// itself for crashes).
        dst: u32,
        /// Total extra arrival delay injected into the message, virtual ns.
        delay_ns: u64,
    },
}

/// One structured trace event, stamped in virtual nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual-time instant of the event, nanoseconds.
    pub t_ns: u64,
    /// Rank of the process the event belongs to.
    pub rank: u32,
    /// What happened.
    pub kind: EventKind,
}

/// A run's central event stream (sends, consumes, grants, faults), recorded
/// by the token holder, so in deterministic order; empty below
/// [`ObsLevel::Trace`].
#[derive(Debug)]
pub(crate) struct Trace(Option<Vec<Event>>);

impl Trace {
    /// The stream of a run recording at `level`.
    pub(crate) fn new(level: ObsLevel) -> Self {
        Trace((level == ObsLevel::Trace).then(Vec::new))
    }

    /// Record that `kind` happened to `rank` at virtual time `t`: the one
    /// push site of the central stream.
    #[inline]
    pub(crate) fn record(&mut self, t: f64, rank: usize, kind: EventKind) {
        if let Some(events) = &mut self.0 {
            let (t_ns, rank) = (ns(t), rank as u32);
            events.push(Event { t_ns, rank, kind });
        }
    }

    /// The events recorded.
    pub(crate) fn into_events(self) -> Vec<Event> {
        self.0.unwrap_or_default()
    }
}

/// Sub-bucket resolution bits: 32 buckets per octave, ≤ 3.2 % relative error.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS; // 32

/// A deterministic fixed-layout log-linear histogram over integer virtual
/// nanoseconds (the HdrHistogram bucketing scheme, sized for the full u64
/// range).
///
/// Values below 32 ns get exact unit buckets; above that, each power-of-two
/// octave is split into 32 linear sub-buckets, so any recorded value is
/// attributed with at most 1/32 relative error.  The layout is fixed (no
/// auto-resizing, no configuration), so two histograms fed the same values
/// are structurally identical and their reports diff clean.  Storage is a
/// sparse map keyed by bucket index: only occupied buckets cost memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u16, u64>,
    count: u64,
    max: u64,
}

impl Histogram {
    /// A new, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index of `v`: exact below 32, log-linear above.
    fn bucket_index(v: u64) -> u16 {
        if v < SUB_COUNT {
            v as u16
        } else {
            let msb = 63 - v.leading_zeros(); // >= SUB_BITS
            let octave = msb - (SUB_BITS - 1);
            let sub = (v >> (msb - SUB_BITS)) & (SUB_COUNT - 1);
            (octave as u64 * SUB_COUNT + sub) as u16
        }
    }

    /// Inclusive upper bound of bucket `idx` (the value a quantile reports).
    fn bucket_high(idx: u16) -> u64 {
        let idx = idx as u64;
        if idx < SUB_COUNT {
            idx
        } else {
            let octave = idx / SUB_COUNT;
            let sub = idx % SUB_COUNT;
            let high = ((SUB_COUNT + sub + 1) as u128) << (octave - 1);
            (high - 1).min(u64::MAX as u128) as u64
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.max = self.max.max(v);
        self.count += 1;
        *self.buckets.entry(Self::bucket_index(v)).or_insert(0) += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        self.max = self.max.max(other.max);
        self.count += other.count;
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q·count)`, clamped to the
    /// exact maximum.  Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0;
        for (&idx, &c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return Self::bucket_high(idx).min(self.max);
            }
        }
        self.max
    }
}

/// One open span on the recorder stack.
struct OpenSpan {
    cat: SpanCat,
    t0_ns: u64,
    /// Total duration of directly nested child spans, for self-time
    /// attribution.
    inner_ns: u64,
}

struct RecorderState {
    stack: Vec<OpenSpan>,
    self_ns: [u64; NCATS],
    hists: Vec<Histogram>,
    events: Vec<Event>,
}

/// The per-process recorder used at [`ObsLevel::Metrics`] and
/// [`ObsLevel::Trace`].  A process at [`ObsLevel::Off`] holds none, so
/// disabled recording costs one `Option` branch per emission site.
///
/// Span durations are recorded **in full** (begin to end, including nested
/// spans) into the per-category histograms — a lock-acquire latency is the
/// whole wait, even if serving a fault nested inside it — while the
/// time-breakdown profile uses **self time** (duration minus nested spans),
/// so the profile components are disjoint and sum to at most the process's
/// finish time.
pub struct Recorder {
    rank: u32,
    level: ObsLevel,
    inner: RefCell<RecorderState>,
}

impl Recorder {
    /// A recorder for process `rank` at `level` (must not be `Off`).
    pub fn new(rank: u32, level: ObsLevel) -> Self {
        assert!(level.enabled(), "a Recorder needs Metrics or Trace level");
        Recorder {
            rank,
            level,
            inner: RefCell::new(RecorderState {
                stack: Vec::new(),
                self_ns: [0; NCATS],
                hists: vec![Histogram::new(); NCATS],
                events: Vec::new(),
            }),
        }
    }

    /// A span of `cat` opened at virtual time `t_ns` with operand `arg`.
    pub fn span_begin(&self, t_ns: u64, cat: SpanCat, arg: u64) {
        let mut st = self.inner.borrow_mut();
        if self.level == ObsLevel::Trace {
            st.events.push(Event {
                t_ns,
                rank: self.rank,
                kind: EventKind::SpanBegin { cat, arg },
            });
        }
        st.stack.push(OpenSpan {
            cat,
            t0_ns: t_ns,
            inner_ns: 0,
        });
    }

    /// The innermost open span of `cat` closed at virtual time `t_ns`.
    pub fn span_end(&self, t_ns: u64, cat: SpanCat) {
        let mut st = self.inner.borrow_mut();
        let open = st.stack.pop().expect("span_end without a matching begin");
        assert_eq!(open.cat, cat, "span_end category mismatch");
        let dur = t_ns.saturating_sub(open.t0_ns);
        let self_time = dur.saturating_sub(open.inner_ns);
        st.self_ns[cat.index()] += self_time;
        st.hists[cat.index()].record(dur);
        if let Some(parent) = st.stack.last_mut() {
            parent.inner_ns += dur;
        }
        if self.level == ObsLevel::Trace {
            st.events.push(Event {
                t_ns,
                rank: self.rank,
                kind: EventKind::SpanEnd { cat },
            });
        }
    }

    /// Consume the recorder and return what it recorded.
    pub fn finish(self) -> ProcObs {
        let st = self.inner.into_inner();
        debug_assert!(st.stack.is_empty(), "spans still open at finish");
        ProcObs {
            self_ns: st.self_ns,
            hists: st.hists,
            events: st.events,
        }
    }
}

/// What one process recorded: the time-breakdown profile, the per-category
/// duration histograms, and (at [`ObsLevel::Trace`]) the span event list.
#[derive(Debug, Clone, Default)]
pub struct ProcObs {
    /// Self time attributed to each [`SpanCat`], indexed by
    /// [`SpanCat::index`], virtual ns.  Compute time is the residual:
    /// finish time minus the sum of these.
    pub self_ns: [u64; NCATS],
    /// Full-duration histogram per category (indexed by [`SpanCat::index`]).
    pub hists: Vec<Histogram>,
    /// Span boundary events, in emission (= virtual time) order; empty below
    /// [`ObsLevel::Trace`].
    pub events: Vec<Event>,
}

impl ProcObs {
    /// Number of completed spans of `cat`.
    pub fn span_count(&self, cat: SpanCat) -> u64 {
        self.hists[cat.index()].count()
    }

    /// Total self time across every category, virtual ns.
    pub fn total_attributed_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// Everything a cluster run recorded: per-process output plus the central
/// transport/arbiter event stream (message sends, consumes, grants) in
/// deterministic grant order.
#[derive(Debug, Clone, Default)]
pub struct ClusterObs {
    /// Per-process recordings, indexed by rank.
    pub procs: Vec<ProcObs>,
    /// Transport and scheduling events recorded under the arbiter lock, in
    /// the (deterministic) order the token discipline serialised them;
    /// empty below [`ObsLevel::Trace`].
    pub central: Vec<Event>,
}

impl ClusterObs {
    /// The histogram of `cat` merged across every process.
    pub fn merged_hist(&self, cat: SpanCat) -> Histogram {
        let mut h = Histogram::new();
        for p in &self.procs {
            h.merge(&p.hists[cat.index()]);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion_rounds_to_nearest() {
        assert_eq!(ns(0.0), 0);
        assert_eq!(ns(1.0), 1_000_000_000);
        assert_eq!(ns(1.5e-9), 2); // round half up
        assert_eq!(ns(0.000_123_456_789), 123_457);
    }

    #[test]
    fn bucket_zero_and_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.max(), 31);
        // Every value below 32 has its own bucket: quantiles are exact.
        assert_eq!(h.value_at_quantile(1.0 / 32.0), 0);
        assert_eq!(h.value_at_quantile(0.5), 15);
        assert_eq!(h.value_at_quantile(1.0), 31);
    }

    #[test]
    fn bucket_boundaries_at_the_first_octave() {
        // 31 is the last exact bucket; 32 opens the log-linear range.
        assert_eq!(Histogram::bucket_index(31), 31);
        assert_eq!(Histogram::bucket_index(32), 32);
        assert_eq!(Histogram::bucket_index(33), 33);
        assert_eq!(Histogram::bucket_index(63), 63);
        // 64 and 65 share a bucket (width 2 in the second octave).
        assert_eq!(Histogram::bucket_index(64), 64);
        assert_eq!(Histogram::bucket_index(65), 64);
        assert_eq!(Histogram::bucket_index(66), 65);
        assert_eq!(Histogram::bucket_high(64), 65);
    }

    #[test]
    fn bucket_max_value_is_representable() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.value_at_quantile(0.5), u64::MAX);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
        // The top bucket's upper bound saturates exactly at u64::MAX.
        assert_eq!(
            Histogram::bucket_high(Histogram::bucket_index(u64::MAX)),
            u64::MAX
        );
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        let mut h = Histogram::new();
        for v in [1_000u64, 10_000, 100_000, 1_000_000, 123_456_789] {
            h.record(v);
            let got = h.value_at_quantile(1.0);
            // p100 is clamped to the exact max.
            assert_eq!(got, v.max(h.max()));
        }
        // A mid quantile lands within 1/32 of the true value.
        let mut h = Histogram::new();
        h.record(999_983);
        let got = h.value_at_quantile(0.5);
        assert!(got >= 999_983);
        assert!((got as f64) <= 999_983.0 * (1.0 + 1.0 / 32.0));
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5u64, 500, 50_000] {
            a.record(v);
        }
        for v in [7u64, 700, 70_000, 7_000_000] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.max(), 7_000_000);
        // The same as recording every value into one histogram.
        let mut all = a.clone();
        for v in [7u64, 700, 70_000, 7_000_000] {
            all.record(v);
        }
        assert_eq!(merged, all);
        // Merging an empty histogram is the identity.
        let mut c = a.clone();
        c.merge(&Histogram::new());
        assert_eq!(c, a);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::new();
        for v in 0..10_000u64 {
            h.record(v * 37);
        }
        let mut last = 0;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.value_at_quantile(q);
            assert!(v >= last, "quantile not monotone at q={q}");
            last = v;
        }
    }

    #[test]
    fn recorder_attributes_self_time_to_the_innermost_span() {
        let rec = Recorder::new(0, ObsLevel::Trace);
        // lock-wait [10, 110] containing fault [30, 80]: lock self = 50.
        rec.span_begin(10, SpanCat::LockWait, 1);
        rec.span_begin(30, SpanCat::Fault, 7);
        rec.span_end(80, SpanCat::Fault);
        rec.span_end(110, SpanCat::LockWait);
        let obs = rec.finish();
        assert_eq!(obs.self_ns[SpanCat::Fault.index()], 50);
        assert_eq!(obs.self_ns[SpanCat::LockWait.index()], 50);
        // Histograms record full durations.
        assert_eq!(obs.hists[SpanCat::Fault.index()].max(), 50);
        assert_eq!(obs.hists[SpanCat::LockWait.index()].max(), 100);
        assert_eq!(obs.span_count(SpanCat::LockWait), 1);
        assert_eq!(obs.events.len(), 4);
        assert_eq!(obs.total_attributed_ns(), 100);
    }

    #[test]
    fn metrics_level_records_no_events() {
        let rec = Recorder::new(3, ObsLevel::Metrics);
        rec.span_begin(0, SpanCat::BarrierWait, 0);
        rec.span_end(40, SpanCat::BarrierWait);
        let obs = rec.finish();
        assert!(obs.events.is_empty());
        assert_eq!(obs.span_count(SpanCat::BarrierWait), 1);
    }
}
