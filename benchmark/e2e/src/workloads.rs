//! The six workloads and the seeded generator of their inputs.
//!
//! Every workload is one `reproduce` command line over a generated scenario
//! file.  Seed 0 generates the paper's testbed exactly, and the simulated
//! statistics it must produce are pinned below; any other seed scales the
//! interconnect's latency and bandwidth by seeded factors in [0.9, 1.1]
//! (and seeds the fault plan), which shifts every virtual timestamp and
//! interleaving while leaving the code paths alone.

/// The simulated statistics a workload must reproduce at seed 0.  A change
/// that moves one has changed the simulation, not its speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// Simulated runs in one invocation.
    pub runs: u64,
    /// `deterministic.total_messages` (0 where the CLI reports none).
    pub events: u64,
    /// `deterministic.total_virtual_seconds_bits`.
    pub virtual_bits: u64,
    /// `deterministic.checksum_bits_xor`.
    pub checksum_xor: u64,
    /// FNV-1a 64 of the invocation's standard output.
    pub stdout_fnv: u64,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Problem-size preset of the scenario.
    pub preset: &'static str,
    /// Top processor count of the scenario.
    pub procs: usize,
    /// Application subset (empty: all twelve).
    pub apps: &'static [&'static str],
    /// System subset (empty: all four).
    pub systems: &'static [&'static str],
    /// Run as a `reproduce fuzz` campaign under the lossy fault plan.
    pub fuzz: bool,
    /// Arguments after `--scenario FILE --jobs N`.
    pub args: &'static [&'static str],
    /// `--jobs`; the child is pinned to this many CPUs.
    pub jobs: usize,
    /// What seed 0 must produce.
    pub pinned: Pinned,
}

/// Fuzz seeds per `fuzz-lossy` campaign.
const FUZZ_SEEDS: &str = "12";

/// The workloads, in the order `all` runs them (`scaled-full-j2` last: it
/// is the one that uses both CPUs).
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tiny-matrix",
        why: "384 three-millisecond simulations: per-run fixed cost (rank-thread spawns, Tmk heap \
              init, render) and handoffs dominate; the matrix tier-1 and CI run",
        preset: "tiny",
        procs: 8,
        apps: &[],
        systems: &[],
        fuzz: false,
        args: &[],
        jobs: 1,
        pinned: Pinned {
            runs: 384,
            events: 168_486,
            virtual_bits: 0x4056_3a00_d13a_d853,
            checksum_xor: 1,
            stdout_fnv: 0xf9c4_8187_a993_9bfe,
        },
    },
    Workload {
        name: "scaled-msg",
        why: "TSP, QSORT, ILINK under all four systems at 8 procs: message-bound, so net/sched \
              handoff, arbiter and mailbox work is most of the wall",
        preset: "scaled",
        procs: 8,
        apps: &["TSP", "QSORT", "ILINK"],
        systems: &[],
        fuzz: false,
        args: &["--table2"],
        jobs: 1,
        pinned: Pinned {
            runs: 12,
            events: 148_693,
            virtual_bits: 0x4058_8611_7852_51bc,
            checksum_xor: 0,
            stdout_fnv: 0x54dc_b028_62f6_f637,
        },
    },
    Workload {
        name: "scaled-dsm",
        why: "SOR-Nonzero, IS-Large under lrc and hlrc at 8 procs: >100 us/event, so twin/diff, \
              interval log, page pool and allocator churn do the work (0.5 GiB RSS)",
        preset: "scaled",
        procs: 8,
        apps: &["SOR-Nonzero", "IS-Large"],
        systems: &["lrc", "hlrc"],
        fuzz: false,
        args: &["--table2"],
        jobs: 1,
        pinned: Pinned {
            runs: 4,
            events: 23_068,
            virtual_bits: 0x4035_9ccd_f043_a001,
            checksum_xor: 0,
            stdout_fnv: 0x88bb_a904_fc6b_f00a,
        },
    },
    Workload {
        name: "scaled-compute",
        why: "EP, Barnes-Hut, Water-1728 under all four systems, 1-8 procs: >90% user time in app \
              kernels and typed accessors; engine changes must not move it",
        preset: "scaled",
        procs: 8,
        apps: &["EP", "Water-1728", "Barnes-Hut"],
        systems: &[],
        fuzz: false,
        args: &[],
        jobs: 1,
        pinned: Pinned {
            runs: 96,
            events: 37_680,
            virtual_bits: 0x404f_cfb0_ce67_796c,
            checksum_xor: 0,
            stdout_fnv: 0x2ff7_598d_60e0_19f7,
        },
    },
    Workload {
        name: "fuzz-lossy",
        why: "fuzz campaign under a lossy plan: fault draws, retransmits, seeded tie-breaking, \
              try_run + invariants - the configs the windowed engine falls back on",
        preset: "tiny",
        procs: 4,
        apps: &[],
        systems: &[],
        fuzz: true,
        args: &["--seeds", FUZZ_SEEDS],
        jobs: 1,
        pinned: Pinned {
            runs: 576,
            events: 0,
            virtual_bits: 0,
            checksum_xor: 0,
            stdout_fnv: 0x827e_a3d7_b03c_4412,
        },
    },
    Workload {
        name: "scaled-full-j2",
        why: "what a user types: the full scaled matrix at --jobs 2 on two CPUs - exec fan-out, \
              cross-CPU wakes, memory x jobs; ROADMAP's headline number",
        preset: "scaled",
        procs: 8,
        apps: &[],
        systems: &[],
        fuzz: false,
        args: &[],
        jobs: 2,
        pinned: Pinned {
            runs: 384,
            events: 1_253_329,
            virtual_bits: 0x4090_a671_28c7_49a2,
            checksum_xor: 7,
            stdout_fnv: 0x2cb6_2c1f_6040_4de8,
        },
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The calibrated FDDI preset's latency (seconds) and bandwidth (bytes/s):
/// the values the seeded factors scale.  `layers`' self-test holds them
/// equal to `cluster::NetPreset::Fddi`.
pub const FDDI_LATENCY: f64 = 400e-6;
/// See [`FDDI_LATENCY`].
pub const FDDI_BANDWIDTH: f64 = 10.5e6;

/// SplitMix64: the benchmark's only source of seeded randomness.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0.9, 1.1].
    fn factor(&mut self) -> f64 {
        0.9 + 0.2 * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

impl Workload {
    /// The scenario file of this workload at `seed`, at its own preset or —
    /// for the warm-up — at `preset`.  Written in the canonical form of
    /// `cluster::Scenario::to_toml`, so it round-trips byte for byte.
    pub fn scenario(&self, seed: u64, preset: &str) -> String {
        let list = |items: &[&str]| {
            let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
            format!("[{}]", quoted.join(", "))
        };
        let mut out = format!(
            "name = \"{}\"\nnet = \"fddi\"\nprocs = {}\npreset = \"{preset}\"\n",
            self.name, self.procs
        );
        if !self.apps.is_empty() {
            out.push_str(&format!("workloads = {}\n", list(self.apps)));
        }
        if !self.systems.is_empty() {
            out.push_str(&format!("systems = {}\n", list(self.systems)));
        }
        if seed != 0 {
            let mut rng = SplitMix64(seed);
            out.push_str(&format!(
                "\n[overrides]\nlatency = {}\nbandwidth = {}\n",
                FDDI_LATENCY * rng.factor(),
                FDDI_BANDWIDTH * rng.factor()
            ));
        }
        if self.fuzz {
            out.push_str("\n[fault]\n");
            if seed != 0 {
                out.push_str(&format!("seed = {seed}\n"));
            }
            out.push_str("drop = 0.02\nduplicate = 0.01\nreorder = 0.02\ndelay = 0.02\n");
        }
        out
    }

    /// The `reproduce` arguments of one invocation over `scenario`, writing
    /// its `--bench-out` report (matrix workloads only) to `bench_out`.
    pub fn command(&self, scenario: &str, jobs: usize, bench_out: &str) -> Vec<String> {
        let mut cmd: Vec<String> = Vec::new();
        if self.fuzz {
            cmd.push("fuzz".into());
        }
        cmd.extend(["--scenario".into(), scenario.into()]);
        cmd.extend(["--jobs".into(), jobs.to_string()]);
        cmd.extend(self.args.iter().map(|a| a.to_string()));
        if !self.fuzz {
            cmd.extend(["--bench-out".into(), bench_out.into()]);
        }
        cmd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_bytes_and_seeds_differ() {
        for w in &WORKLOADS {
            assert_eq!(w.scenario(7, w.preset), w.scenario(7, w.preset));
            assert_ne!(w.scenario(7, w.preset), w.scenario(8, w.preset));
        }
    }

    #[test]
    fn seed_zero_is_the_papers_testbed_with_no_overrides() {
        for w in &WORKLOADS {
            let text = w.scenario(0, w.preset);
            assert!(!text.contains("[overrides]"), "{text}");
            assert!(!text.contains("seed ="), "{text}");
            assert_eq!(text.contains("[fault]"), w.fuzz);
        }
    }

    #[test]
    fn seeded_factors_stay_within_ten_percent() {
        for seed in 1..200u64 {
            let text = WORKLOADS[1].scenario(seed, "scaled");
            let field = |key: &str| -> f64 {
                let line = text.lines().find(|l| l.starts_with(key)).unwrap();
                line.split(" = ").nth(1).unwrap().parse().unwrap()
            };
            let (lat, bw) = (field("latency"), field("bandwidth"));
            assert!(
                (0.9..=1.1).contains(&(lat / FDDI_LATENCY)),
                "seed {seed}: {lat}"
            );
            assert!(
                (0.9..=1.1).contains(&(bw / FDDI_BANDWIDTH)),
                "seed {seed}: {bw}"
            );
        }
    }

    #[test]
    fn command_lines_carry_the_subcommand_and_report_path() {
        let msg = by_name("scaled-msg").unwrap();
        assert_eq!(
            msg.command("s.toml", 1, "b.json"),
            [
                "--scenario",
                "s.toml",
                "--jobs",
                "1",
                "--table2",
                "--bench-out",
                "b.json"
            ]
        );
        let fuzz = by_name("fuzz-lossy").unwrap();
        assert_eq!(
            fuzz.command("s.toml", 1, "b.json"),
            [
                "fuzz",
                "--scenario",
                "s.toml",
                "--jobs",
                "1",
                "--seeds",
                "12"
            ]
        );
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn names_and_reasons_fit_the_benchmark_contract() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.name.len() <= 64);
        }
    }
}
