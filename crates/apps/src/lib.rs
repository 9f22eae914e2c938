//! The nine applications of the SC'95 comparison study, each implemented
//! three times: sequentially, for the TreadMarks-style DSM ([`treadmarks`]),
//! and for PVM-style message passing ([`msgpass`]).
//!
//! | Module | Application | Origin |
//! |--------|-------------|--------|
//! | [`ep`] | Embarrassingly Parallel | NAS |
//! | [`sor`] | Red-Black Successive Over-Relaxation | kernel |
//! | [`is`] | Integer Sort (bucket ranking) | NAS |
//! | [`tsp`] | Traveling Salesman (branch & bound) | kernel |
//! | [`qsort`] | Quicksort with a shared work queue | kernel |
//! | [`water`] | Water molecular dynamics | SPLASH |
//! | [`barnes`] | Barnes-Hut N-body | SPLASH |
//! | [`fft3d`] | 3-D FFT | NAS |
//! | [`ilink`] | Genetic linkage analysis (synthetic pedigree) | ILINK |
//!
//! Every module follows the same shape: a `*Params` struct with `paper()`,
//! `scaled()` and `tiny()` presets that implements [`App`] — the sequential
//! reference plus one process body per paradigm — and [`run`] executes
//! either parallel version on any cluster model, returning a
//! [`runner::AppRun`] with the time, message and data metrics the paper's
//! tables and figures report.  [`Workload`] names every (application, input
//! set) pair of the study and holds the one table from workload and
//! [`Preset`] to parameters.  Computation is charged through a calibrated
//! work model (see README.md §Design notes) so that speedups are deterministic
//! and independent of the host machine.  Only [`memo`] holds state between
//! runs: the answers of the pure kernels a matrix repeats — EP's
//! tabulation, TSP's subtree search and Barnes-Hut's force field, the last
//! looked up only after a rank has read the bodies through its system.
//! SOR's and Water's kernels are not memoised: their keys would cost as
//! much as the kernel, or more memory than a matrix's peak can spare.

#![deny(missing_docs)]

pub mod barnes;
pub mod ep;
pub mod fft3d;
pub mod ilink;
pub mod is;
pub mod memo;
pub mod qsort;
pub mod runner;
pub mod sor;
pub mod tsp;
pub mod water;

pub use runner::{run, App, AppRun, SeqRun, System};

use cluster::{ClusterConfig, RunFailure};

/// The apps' one seeded generator: the MMIX 64-bit linear congruential
/// step.  Each app keeps its own output mapping of the raw state.
#[derive(Debug, Clone)]
pub(crate) struct Lcg {
    state: u64,
}

impl Lcg {
    /// A stream one step past `seed` — EP's per-chunk streams.
    pub(crate) fn new(seed: u64) -> Self {
        let mut lcg = Lcg::from_state(seed);
        lcg.next_u64();
        lcg
    }

    /// A stream whose first output is one step past `state`.
    pub(crate) fn from_state(state: u64) -> Self {
        Lcg { state }
    }

    /// Advance one step and return the new state.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state
    }

    /// The top 53 bits of the next state, uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Problem-size preset of a [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Tiny inputs used by tests of the harness itself.
    Tiny,
    /// Scaled-down inputs (default): the whole suite runs in minutes.
    Scaled,
    /// Paper-scale inputs.
    Paper,
}

impl Preset {
    /// The name scenario files and `--list` use.
    pub fn name(&self) -> &'static str {
        match self {
            Preset::Tiny => "tiny",
            Preset::Scaled => "scaled",
            Preset::Paper => "paper",
        }
    }
}

impl std::str::FromStr for Preset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Preset::Tiny),
            "scaled" => Ok(Preset::Scaled),
            "paper" | "full" => Ok(Preset::Paper),
            other => Err(format!(
                "unknown preset '{other}'; known presets: tiny, scaled, paper"
            )),
        }
    }
}

/// The applications and input sets of the study, in the order the paper
/// lists them (Figures 1–12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// NAS Embarrassingly Parallel (Figure 1).
    Ep,
    /// Red-Black SOR, zero-initialised interior (Figure 2).
    SorZero,
    /// Red-Black SOR, non-zero interior (Figure 3).
    SorNonzero,
    /// Integer Sort, small key range (Figure 4).
    IsSmall,
    /// Integer Sort, large key range (Figure 5).
    IsLarge,
    /// Traveling Salesman Problem (Figure 6).
    Tsp,
    /// Quicksort (Figure 7).
    Qsort,
    /// Water, 288 molecules (Figure 8).
    Water288,
    /// Water, 1728 molecules (Figure 9).
    Water1728,
    /// Barnes-Hut (Figure 10).
    BarnesHut,
    /// 3-D FFT (Figure 11).
    Fft3d,
    /// ILINK genetic linkage analysis (Figure 12).
    Ilink,
}

impl Workload {
    /// All twelve workloads, in figure order.
    pub fn all() -> [Workload; 12] {
        [
            Workload::Ep,
            Workload::SorZero,
            Workload::SorNonzero,
            Workload::IsSmall,
            Workload::IsLarge,
            Workload::Tsp,
            Workload::Qsort,
            Workload::Water288,
            Workload::Water1728,
            Workload::BarnesHut,
            Workload::Fft3d,
            Workload::Ilink,
        ]
    }

    /// Human-readable name used in the harness output.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Ep => "EP",
            Workload::SorZero => "SOR-Zero",
            Workload::SorNonzero => "SOR-Nonzero",
            Workload::IsSmall => "IS-Small",
            Workload::IsLarge => "IS-Large",
            Workload::Tsp => "TSP",
            Workload::Qsort => "QSORT",
            Workload::Water288 => "Water-288",
            Workload::Water1728 => "Water-1728",
            Workload::BarnesHut => "Barnes-Hut",
            Workload::Fft3d => "3D-FFT",
            Workload::Ilink => "ILINK",
        }
    }

    /// Figure number in the paper whose speedup curve this workload
    /// reproduces.
    pub fn figure(&self) -> u32 {
        match self {
            Workload::Ep => 1,
            Workload::SorZero => 2,
            Workload::SorNonzero => 3,
            Workload::IsSmall => 4,
            Workload::IsLarge => 5,
            Workload::Tsp => 6,
            Workload::Qsort => 7,
            Workload::Water288 => 8,
            Workload::Water1728 => 9,
            Workload::BarnesHut => 10,
            Workload::Fft3d => 11,
            Workload::Ilink => 12,
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    /// A workload by its harness name ([`Workload::name`]), in any letter
    /// case.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Workload::all()
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::all().iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{name}'; known workloads: {}",
                    known.join(", ")
                )
            })
    }
}

/// The one table from (workload, preset) to the application's parameters:
/// evaluates `$body` with `$app` bound to them, monomorphised per row.  A
/// new workload is one module implementing [`App`] plus one row here.
macro_rules! with_app {
    ($w:expr, $preset:expr, $app:ident => $body:expr) => {
        with_app!(@rows $w, $preset, $app, $body;
            Ep => ep::EpParams::tiny(), ep::EpParams::scaled(), ep::EpParams::paper();
            SorZero => sor::SorParams::tiny(true), sor::SorParams::scaled_zero(), sor::SorParams::paper_zero();
            SorNonzero => sor::SorParams::tiny(false), sor::SorParams::scaled_nonzero(), sor::SorParams::paper_nonzero();
            IsSmall => is::IsParams::tiny(), is::IsParams::scaled_small(), is::IsParams::paper_small();
            IsLarge => is::IsParams::tiny(), is::IsParams::scaled_large(), is::IsParams::paper_large();
            Tsp => tsp::TspParams::tiny(), tsp::TspParams::scaled(), tsp::TspParams::paper();
            Qsort => qsort::QsortParams::tiny(), qsort::QsortParams::scaled(), qsort::QsortParams::paper();
            Water288 => water::WaterParams::tiny(), water::WaterParams::scaled_288(), water::WaterParams::paper_288();
            Water1728 => water::WaterParams::tiny(), water::WaterParams::scaled_1728(), water::WaterParams::paper_1728();
            BarnesHut => barnes::BarnesParams::tiny(), barnes::BarnesParams::scaled(), barnes::BarnesParams::paper();
            Fft3d => fft3d::FftParams::tiny(), fft3d::FftParams::scaled(), fft3d::FftParams::paper();
            Ilink => ilink::IlinkParams::tiny(), ilink::IlinkParams::scaled(), ilink::IlinkParams::paper();
        )
    };
    (@rows $w:expr, $preset:expr, $app:ident, $body:expr;
     $($variant:ident => $tiny:expr, $scaled:expr, $paper:expr;)*) => {
        match $w {
            $(Workload::$variant => {
                let $app = &match $preset {
                    Preset::Tiny => $tiny,
                    Preset::Scaled => $scaled,
                    Preset::Paper => $paper,
                };
                $body
            })*
        }
    };
}

impl Workload {
    /// The sequential reference of this workload at `preset`.
    pub fn sequential(self, preset: Preset) -> SeqRun {
        with_app!(self, preset, app => app.sequential())
    }

    /// Problem-size description printed in the Table 1 reproduction.
    pub fn problem_size(self, preset: Preset) -> String {
        with_app!(self, preset, app => app.problem_size())
    }

    /// Run this workload at `preset` under `sys` on `cfg`'s cluster model
    /// (see [`run`]).
    pub fn run(
        self,
        preset: Preset,
        sys: System,
        cfg: &ClusterConfig,
    ) -> Result<AppRun, RunFailure> {
        with_app!(self, preset, app => run(app, sys, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_list_matches_figures() {
        let all = Workload::all();
        assert_eq!(all.len(), 12);
        for (i, w) in all.iter().enumerate() {
            assert_eq!(w.figure(), i as u32 + 1);
        }
    }

    /// Walks the one workload table: every row has a sequential baseline
    /// and a problem size, runs under every system at 2 processes, and
    /// reproduces its sequential checksum with a finite speedup and real
    /// communication.
    #[test]
    fn every_workload_runs_under_every_system_and_matches_its_sequential_checksum() {
        let cfg = ClusterConfig::calibrated_fddi(2);
        for w in Workload::all() {
            let seq = w.sequential(Preset::Tiny);
            assert!(seq.time > 0.0, "{}: no sequential baseline", w.name());
            assert!(!w.problem_size(Preset::Scaled).is_empty(), "{}", w.name());
            for sys in System::all() {
                let run = w.run(Preset::Tiny, sys, &cfg).unwrap();
                let speedup = run.speedup(seq.time);
                assert!(
                    run.time > 0.0 && speedup.is_finite() && speedup > 0.0,
                    "{} under {sys}: speedup {speedup} not finite",
                    w.name()
                );
                assert!(
                    run.messages > 0,
                    "{} under {sys}: no messages at 2 processes",
                    w.name()
                );
                assert!(
                    seq.agrees(run.checksum),
                    "{} under {sys}: checksum {} vs sequential {}",
                    w.name(),
                    run.checksum,
                    seq.checksum
                );
            }
        }
    }

    #[test]
    fn every_workload_name_parses_back_in_any_case() {
        for w in Workload::all() {
            for name in [
                w.name().to_string(),
                w.name().to_ascii_lowercase(),
                w.name().to_ascii_uppercase(),
            ] {
                assert_eq!(name.parse::<Workload>(), Ok(w), "{name}");
            }
        }
        let e = "nope".parse::<Workload>().unwrap_err();
        assert!(e.starts_with("unknown workload 'nope'; known workloads: EP, SOR-Zero,"));
    }

    #[test]
    fn workload_names_are_unique() {
        let mut names: Vec<&str> = Workload::all().iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }
}
