//! Cluster configuration and communication cost model.
//!
//! The constants in [`ClusterConfig::calibrated_fddi`] approximate the
//! testbed of the paper: 8 HP-735 workstations on a 100 Mbit/s FDDI ring,
//! user-level UDP (TreadMarks) or direct TCP (PVM), 4 KB virtual memory
//! pages.  docs/ARCHITECTURE.md documents the calibration.
//!
//! The paper measured exactly one interconnect; this module also models the
//! *what-if* networks the study's conclusions are most often asked about:
//! a named preset per interconnect ([`NetPreset`]), per-field overrides on
//! top of a preset ([`Overrides`]), and the combination of the two as a
//! comparable identity ([`NetModel`]) that the reproduction harness keys
//! its run matrices and sweeps on.

use crate::analysis::AnalysisLevel;
use crate::fault::FaultPlan;
use crate::obs::ObsLevel;

/// Virtual-memory page size of the simulated workstations (HP-735: 4 KB).
pub const PAGE_SIZE: usize = 4096;

/// Communication and timing model for a simulated cluster.
///
/// A logical message of `b` payload bytes sent from one process to another is
/// charged as follows:
///
/// * the sender pays [`send_overhead`](Self::send_overhead) on its own clock;
/// * the message is split into `ceil(b / mtu)` datagrams (at least one);
/// * the wire occupancy is `datagrams * fragment_overhead + b / bandwidth`;
///   when [`shared_medium`](Self::shared_medium) is enabled the occupancy is
///   serialised over a single shared medium, modelling FDDI ring saturation;
/// * the message arrives at the receiver `latency + occupancy` after it was
///   put on the wire, and the receiver pays
///   [`recv_overhead`](Self::recv_overhead) when it consumes it.
///
/// # Example
///
/// Pick an interconnect preset, tweak one knob, and cost a message:
///
/// ```
/// use cluster::{ClusterConfig, NetPreset};
///
/// // The paper's testbed: 8 workstations on the 100 Mbit/s FDDI ring.
/// let fddi = ClusterConfig::calibrated_fddi(8);
/// // The same cluster on switched 155 Mbit/s ATM, via the preset registry.
/// let atm = NetPreset::Atm.config(8);
/// // ATM moves a 64 KB page set faster than the ring...
/// assert!(atm.one_way(64 * 1024) < fddi.one_way(64 * 1024));
/// // ...and, being switched, does not serialise senders over one medium.
/// assert!(fddi.shared_medium && !atm.shared_medium);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated processes (workstations).
    pub nprocs: usize,
    /// Fixed one-way software + wire latency per logical message, seconds.
    pub latency: f64,
    /// Additional fixed cost per datagram (fragment), seconds.
    pub fragment_overhead: f64,
    /// Effective bandwidth of the interconnect, bytes per second.
    pub bandwidth: f64,
    /// Maximum transfer unit: payload bytes per datagram.
    pub mtu: usize,
    /// CPU cost charged to the sender per logical send, seconds.
    pub send_overhead: f64,
    /// CPU cost charged to the receiver per consumed message, seconds.
    pub recv_overhead: f64,
    /// Whether wire occupancy is serialised over one shared medium
    /// (models the FDDI ring; disable for an idealised full-bisection net).
    pub shared_medium: bool,
    /// Observability level of the run (defaults to [`ObsLevel::Off`] in
    /// every preset).  Not part of the network cost model: recording only
    /// reads the virtual clock, so no level can change reported times or
    /// counters.
    pub obs: ObsLevel,
    /// Run-time analysis level (defaults to [`AnalysisLevel::Off`] in every
    /// preset).  Like [`obs`](Self::obs) it is not part of the cost model:
    /// an analysis only observes the run, so no level can change reported
    /// times, counters or checksums.
    pub analysis: AnalysisLevel,
    /// Deterministic fault-injection plan (defaults to the inert empty plan
    /// in every preset).  A non-empty plan *is* part of the cost model: its
    /// injected delays and retransmitted datagrams change reported times
    /// and counters — bit-reproducibly, as a pure function of
    /// `(plan, seed)`.  See [`crate::fault`].
    pub fault: FaultPlan,
    /// Seed of the arbiter's tie-break stream.  `0` (the default in every
    /// preset) breaks virtual-time ties by rank, bit-identical to the
    /// pre-fault engine; any other value breaks ties by a seeded draw, so
    /// one scenario explores many legal schedules.
    pub sched_seed: u64,
    /// Optional cap on the number of seeded tie-break decisions: after this
    /// many draws the arbiter falls back to rank order.  `None` means
    /// unlimited.  The shrinker bisects this to find the minimal seeded
    /// prefix a finding needs.
    pub tie_limit: Option<u64>,
    /// Retired.  It once chose the width of an island scheduler; every
    /// value has always produced identical bytes, and since PR 22 every
    /// value runs the same code — nothing in the workspace reads it.  Kept
    /// only because `benchmark/layers` writes it in struct literals;
    /// deleted with its probes (ROADMAP item 0(i)).
    pub islands: usize,
    /// Retired, like [`islands`](Self::islands): it once chose the thread
    /// count of a windowed engine, and nothing reads it.
    pub island_threads: usize,
}

impl ClusterConfig {
    /// The calibrated model of the paper's testbed (see README.md §Design notes):
    /// 100 Mbit/s FDDI, ~400 µs small-message latency, 8 KB MTU,
    /// ~10.5 MB/s effective bandwidth.  The other presets state only where
    /// they differ from it; every preset leaves the run settings (`obs`
    /// through `island_threads`) at their inert defaults.
    pub fn calibrated_fddi(nprocs: usize) -> Self {
        ClusterConfig {
            nprocs,
            latency: 400e-6,
            fragment_overhead: 150e-6,
            bandwidth: 10.5e6,
            mtu: 8 * 1024,
            send_overhead: 80e-6,
            recv_overhead: 80e-6,
            shared_medium: true,
            obs: ObsLevel::Off,
            analysis: AnalysisLevel::Off,
            fault: FaultPlan::default(),
            sched_seed: 0,
            tie_limit: None,
            islands: 1,
            island_threads: 1,
        }
    }

    /// A 10 Mbit/s shared-bus Ethernet (10BASE-T era, CSMA/CD): the
    /// commodity alternative to the paper's FDDI ring.  Same workstation
    /// software stack (per-message and per-fragment CPU costs match the
    /// FDDI calibration), but ~1.1 MB/s effective bandwidth, the classic
    /// 1500-byte MTU, and a slightly longer small-message latency; the bus
    /// is a shared medium, so concurrent senders serialise just as on the
    /// ring — only nine times slower per byte.
    pub fn ethernet_10mbit(nprocs: usize) -> Self {
        ClusterConfig {
            latency: 500e-6,
            bandwidth: 1.1e6,
            mtu: 1500,
            ..Self::calibrated_fddi(nprocs)
        }
    }

    /// A 155 Mbit/s switched ATM fabric (OC-3): the upgrade path the
    /// mid-90s NOW projects actually took.  ~16 MB/s effective bandwidth
    /// after SONET framing and the AAL5 cell tax, the RFC 1626 default
    /// 9180-byte IP MTU, a shorter small-message latency (no token
    /// rotation), hardware segmentation (cheaper per-fragment cost) — and
    /// crucially **no shared medium**: the switch gives every
    /// source-destination pair its own path, so senders no longer
    /// serialise.
    pub fn atm_155mbit(nprocs: usize) -> Self {
        ClusterConfig {
            latency: 250e-6,
            fragment_overhead: 100e-6,
            bandwidth: 16.0e6,
            mtu: 9180,
            shared_medium: false,
            ..Self::calibrated_fddi(nprocs)
        }
    }

    /// An idealised network with negligible cost.  Used by functional tests
    /// that only care about answers, not about performance modelling.
    pub fn ideal(nprocs: usize) -> Self {
        ClusterConfig {
            latency: 1e-9,
            fragment_overhead: 0.0,
            bandwidth: 1e12,
            mtu: usize::MAX / 2,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            shared_medium: false,
            ..Self::calibrated_fddi(nprocs)
        }
    }

    /// Number of datagrams needed for a payload of `bytes` bytes.
    pub fn datagrams_for(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.mtu) as u64
        }
    }

    /// Wire occupancy (seconds) of a payload of `bytes` bytes: per-fragment
    /// overhead plus serialisation time at the configured bandwidth.
    pub fn occupancy(&self, bytes: usize) -> f64 {
        self.datagrams_for(bytes) as f64 * self.fragment_overhead + bytes as f64 / self.bandwidth
    }

    /// End-to-end one-way cost of a message that finds the medium idle.
    pub fn one_way(&self, bytes: usize) -> f64 {
        self.latency + self.occupancy(bytes)
    }
}

/// The named interconnect presets the scenario subsystem can select.
///
/// Each preset is a calibrated [`ClusterConfig`] constructor; the names are
/// what `reproduce --net <name>` and the `net = "<name>"` key of a scenario
/// file accept (see [`crate::scenario`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum NetPreset {
    /// The paper's testbed: 100 Mbit/s FDDI ring
    /// ([`ClusterConfig::calibrated_fddi`]); the default.
    #[default]
    Fddi,
    /// 10 Mbit/s shared-bus Ethernet
    /// ([`ClusterConfig::ethernet_10mbit`]).
    Ethernet,
    /// 155 Mbit/s switched ATM ([`ClusterConfig::atm_155mbit`]).
    Atm,
    /// Idealised full-bisection network with negligible cost
    /// ([`ClusterConfig::ideal`]).
    Ideal,
}

impl NetPreset {
    /// Every preset, in documentation order.
    pub fn all() -> [NetPreset; 4] {
        [
            NetPreset::Fddi,
            NetPreset::Ethernet,
            NetPreset::Atm,
            NetPreset::Ideal,
        ]
    }

    /// The canonical name: what the CLI and scenario files print and parse.
    pub fn name(&self) -> &'static str {
        match self {
            NetPreset::Fddi => "fddi",
            NetPreset::Ethernet => "ethernet",
            NetPreset::Atm => "atm",
            NetPreset::Ideal => "ideal",
        }
    }

    /// Build the preset's calibrated configuration for `nprocs` processes.
    pub fn config(&self, nprocs: usize) -> ClusterConfig {
        match self {
            NetPreset::Fddi => ClusterConfig::calibrated_fddi(nprocs),
            NetPreset::Ethernet => ClusterConfig::ethernet_10mbit(nprocs),
            NetPreset::Atm => ClusterConfig::atm_155mbit(nprocs),
            NetPreset::Ideal => ClusterConfig::ideal(nprocs),
        }
    }
}

impl std::fmt::Display for NetPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for NetPreset {
    type Err = String;

    /// Parse a preset name; long aliases (`ethernet_10mbit`, `atm_155mbit`,
    /// `fddi_100mbit`) are accepted alongside the canonical short names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fddi" | "fddi_100mbit" => Ok(NetPreset::Fddi),
            "ethernet" | "ether" | "ethernet_10mbit" => Ok(NetPreset::Ethernet),
            "atm" | "atm_155mbit" => Ok(NetPreset::Atm),
            "ideal" | "full-bisection" => Ok(NetPreset::Ideal),
            other => Err(format!(
                "unknown net preset '{other}'; known presets: fddi, ethernet, atm, ideal"
            )),
        }
    }
}

/// Per-field overrides applied on top of a [`NetPreset`]: every `Some`
/// replaces the preset's value, every `None` keeps it.  This is the
/// `[overrides]` table of a scenario file and the lever the sensitivity
/// sweeps turn (`sweep --vary bandwidth|latency` scales exactly one field).
#[derive(Debug, Clone, Copy, Default)]
pub struct Overrides {
    /// Replace [`ClusterConfig::latency`].
    pub latency: Option<f64>,
    /// Replace [`ClusterConfig::fragment_overhead`].
    pub fragment_overhead: Option<f64>,
    /// Replace [`ClusterConfig::bandwidth`].
    pub bandwidth: Option<f64>,
    /// Replace [`ClusterConfig::mtu`].
    pub mtu: Option<usize>,
    /// Replace [`ClusterConfig::send_overhead`].
    pub send_overhead: Option<f64>,
    /// Replace [`ClusterConfig::recv_overhead`].
    pub recv_overhead: Option<f64>,
    /// Replace [`ClusterConfig::shared_medium`].
    pub shared_medium: Option<bool>,
}

impl Overrides {
    /// True if no field is overridden: no `[overrides]` row of the scenario
    /// schema has a value to write.
    pub fn is_empty(&self) -> bool {
        crate::scenario::override_fields(self).next().is_none()
    }

    /// Apply every `Some` field to `cfg`.
    pub fn apply(&self, cfg: &mut ClusterConfig) {
        let Overrides {
            latency,
            fragment_overhead,
            bandwidth,
            mtu,
            send_overhead,
            recv_overhead,
            shared_medium,
        } = *self;
        if let Some(v) = latency {
            cfg.latency = v;
        }
        if let Some(v) = fragment_overhead {
            cfg.fragment_overhead = v;
        }
        if let Some(v) = bandwidth {
            cfg.bandwidth = v;
        }
        if let Some(v) = mtu {
            cfg.mtu = v;
        }
        if let Some(v) = send_overhead {
            cfg.send_overhead = v;
        }
        if let Some(v) = recv_overhead {
            cfg.recv_overhead = v;
        }
        if let Some(v) = shared_medium {
            cfg.shared_medium = v;
        }
    }
}

impl PartialEq for Overrides {
    fn eq(&self, other: &Self) -> bool {
        // Floats are compared by bit pattern: an override identity must be
        // usable as a run-matrix key, where NaN != NaN and -0.0 != 0.0
        // semantics would silently merge or split entries.
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let Overrides {
            latency,
            fragment_overhead,
            bandwidth,
            mtu,
            send_overhead,
            recv_overhead,
            shared_medium,
        } = *other;
        bits(self.latency) == bits(latency)
            && bits(self.fragment_overhead) == bits(fragment_overhead)
            && bits(self.bandwidth) == bits(bandwidth)
            && self.mtu == mtu
            && bits(self.send_overhead) == bits(send_overhead)
            && bits(self.recv_overhead) == bits(recv_overhead)
            && self.shared_medium == shared_medium
    }
}

impl Eq for Overrides {}

/// The comparable identity of an interconnect model: a preset plus the
/// overrides applied to it.  [`NetModel`]s key run matrices and sweep
/// points, so equality is exact (floats by bit pattern, via [`Overrides`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetModel {
    /// The base preset.
    pub preset: NetPreset,
    /// Field overrides applied on top of it.
    pub overrides: Overrides,
}

impl NetModel {
    /// A bare preset with no overrides.
    pub fn preset(preset: NetPreset) -> Self {
        NetModel {
            preset,
            overrides: Overrides::default(),
        }
    }

    /// Materialise the configuration for `nprocs` processes.
    pub fn config(&self, nprocs: usize) -> ClusterConfig {
        let mut cfg = self.preset.config(nprocs);
        self.overrides.apply(&mut cfg);
        cfg
    }

    /// Compact human-readable label: the preset name, plus any overridden
    /// fields as `key=value` pairs (`fddi`, `atm{bandwidth=8000000}`), each
    /// value as a scenario file writes it.  Floats print in Rust's
    /// shortest-round-trip form, so equal models always label identically.
    pub fn label(&self) -> String {
        let parts: Vec<String> = crate::scenario::override_fields(&self.overrides)
            .map(|(key, value)| format!("{key}={value}"))
            .collect();
        if parts.is_empty() {
            self.preset.name().to_string()
        } else {
            format!("{}{{{}}}", self.preset.name(), parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_counting() {
        let cfg = ClusterConfig::calibrated_fddi(8);
        assert_eq!(cfg.datagrams_for(0), 1);
        assert_eq!(cfg.datagrams_for(1), 1);
        assert_eq!(cfg.datagrams_for(8 * 1024), 1);
        assert_eq!(cfg.datagrams_for(8 * 1024 + 1), 2);
        assert_eq!(cfg.datagrams_for(64 * 1024), 8);
    }

    #[test]
    fn occupancy_monotone_in_size() {
        // Strictly: every byte costs wire time (1 MiB more than 64 B).
        let cfg = ClusterConfig::calibrated_fddi(8);
        let mut last = 0.0;
        for b in [0usize, 64, 4096, 8192, 100_000, 1 << 20] {
            let o = cfg.occupancy(b);
            assert!(o > last, "{b} bytes: {o} s after {last} s");
            last = o;
        }
    }

    #[test]
    fn one_way_includes_latency() {
        let cfg = ClusterConfig::calibrated_fddi(8);
        assert!(cfg.one_way(0) >= cfg.latency);
        // A 1 MB transfer is dominated by bandwidth, not latency.
        let big = cfg.one_way(1 << 20);
        assert!(big > (1 << 20) as f64 / cfg.bandwidth);
        assert!(big < 2.0 * ((1 << 20) as f64 / cfg.bandwidth) + 1.0);
    }

    #[test]
    fn ideal_network_is_cheap() {
        let cfg = ClusterConfig::ideal(4);
        assert!(cfg.one_way(1 << 20) < 1e-3);
    }

    #[test]
    fn preset_ordering_matches_link_speeds() {
        // A bulk transfer orders the interconnects exactly by link speed:
        // Ethernet slower than FDDI, FDDI slower than ATM, ATM slower than
        // the ideal net.
        let bytes = 1 << 20;
        let ethernet = ClusterConfig::ethernet_10mbit(8).one_way(bytes);
        let fddi = ClusterConfig::calibrated_fddi(8).one_way(bytes);
        let atm = ClusterConfig::atm_155mbit(8).one_way(bytes);
        let ideal = ClusterConfig::ideal(8).one_way(bytes);
        assert!(ethernet > fddi && fddi > atm && atm > ideal);
    }

    #[test]
    fn preset_names_round_trip_through_parsing() {
        for preset in NetPreset::all() {
            assert_eq!(preset.name().parse::<NetPreset>(), Ok(preset));
            assert_eq!(preset.to_string(), preset.name());
            assert_eq!(preset.config(4).nprocs, 4);
        }
        assert_eq!("ethernet_10mbit".parse(), Ok(NetPreset::Ethernet));
        assert_eq!("ATM_155MBIT".parse(), Ok(NetPreset::Atm));
        assert!("token-ring".parse::<NetPreset>().is_err());
    }

    #[test]
    fn overrides_apply_only_set_fields() {
        let overrides = Overrides {
            bandwidth: Some(8e6),
            shared_medium: Some(false),
            ..Overrides::default()
        };
        let model = NetModel {
            preset: NetPreset::Fddi,
            overrides,
        };
        let base = NetPreset::Fddi.config(8);
        let cfg = model.config(8);
        assert_eq!(cfg.bandwidth, 8e6);
        assert!(!cfg.shared_medium);
        assert_eq!(cfg.latency, base.latency);
        assert_eq!(cfg.mtu, base.mtu);
        assert!(!overrides.is_empty() && Overrides::default().is_empty());
    }

    #[test]
    fn net_model_labels_and_equality() {
        let plain = NetModel::preset(NetPreset::Atm);
        assert_eq!(plain.label(), "atm");
        let tweaked = NetModel {
            preset: NetPreset::Atm,
            overrides: Overrides {
                bandwidth: Some(8e6),
                ..Overrides::default()
            },
        };
        assert_eq!(tweaked.label(), "atm{bandwidth=8000000}");
        assert_ne!(plain, tweaked);
        assert_eq!(tweaked, tweaked);
    }
}
