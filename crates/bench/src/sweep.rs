//! Sensitivity sweeps: paper-style figures beyond the paper's testbed.
//!
//! The paper plots speedup for 1–8 processors on one FDDI ring.  A sweep
//! generalises the x-axis: [`Vary::Procs`] extends the speedup curves past
//! 8 processes, [`Vary::Bandwidth`] and [`Vary::Latency`] hold the
//! processor count fixed and scale one field of the interconnect model
//! (×0.25 … ×4), answering "how much of each system's advantage is the
//! network?" per workload × {TreadMarks-LRC, TMK-HLRC, PVM}.
//!
//! A sweep is just a set of [`RunKey`]s — the interconnect lives *in* the
//! key — so [`run_matrix`](crate::run_matrix) fans the whole sensitivity
//! matrix across cores exactly as it fans the reproduction, and the
//! rendered figures are byte-identical for every `--jobs` value.

use crate::scenario::Request;
use crate::{proc_series, RunKey, RunMatrix};
use cluster::{NetModel, SpanCat};

/// Which axis a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vary {
    /// Processor count: the paper's speedup figures, extended past 8.
    Procs,
    /// Interconnect bandwidth, scaled ×0.25 … ×4 around the base model.
    Bandwidth,
    /// Interconnect latency, scaled ×0.25 … ×4 around the base model.
    Latency,
}

impl Vary {
    /// Human-readable axis name used in figure headers.
    pub fn axis(&self) -> &'static str {
        match self {
            Vary::Procs => "processes",
            Vary::Bandwidth => "bandwidth",
            Vary::Latency => "latency",
        }
    }

    /// What the figure plots on the y axis.
    pub fn measure(&self) -> &'static str {
        match self {
            Vary::Procs => "speedup",
            Vary::Bandwidth | Vary::Latency => "runtime (s)",
        }
    }
}

impl std::str::FromStr for Vary {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "procs" | "processes" | "nprocs" => Ok(Vary::Procs),
            "bandwidth" | "bw" => Ok(Vary::Bandwidth),
            "latency" | "lat" => Ok(Vary::Latency),
            other => Err(format!(
                "unknown sweep axis '{other}'; known axes: procs, bandwidth, latency"
            )),
        }
    }
}

/// The multipliers a bandwidth or latency sweep applies to the base model.
pub const SCALES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Width of the rendered ASCII bars, in characters.
const BAR_WIDTH: usize = 50;

/// A fully specified sensitivity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The varied axis.
    pub vary: Vary,
    /// The workloads swept and the systems compared at every point, at the
    /// request's preset.  Its network is the base model the sweep perturbs
    /// (or, for [`Vary::Procs`], simply runs on).  Its process count is the
    /// top of the processor series for [`Vary::Procs`], and every point's
    /// fixed count for the network axes.
    pub request: Request,
}

/// One x-axis position of a sweep: a label plus the cluster model behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The x-axis tick label (`"16"`, `"0.5x (5250000 B/s)"`, ...).
    pub label: String,
    /// The interconnect at this point.
    pub net: NetModel,
    /// The processor count at this point.
    pub nprocs: usize,
}

impl Sweep {
    /// The x-axis positions of this sweep, in plotting order.
    pub fn points(&self) -> Vec<SweepPoint> {
        let (base_net, procs) = (self.request.net, self.request.procs);
        match self.vary {
            Vary::Procs => proc_series(procs)
                .into_iter()
                .map(|n| SweepPoint {
                    label: n.to_string(),
                    net: base_net,
                    nprocs: n,
                })
                .collect(),
            Vary::Bandwidth | Vary::Latency => {
                let base = base_net.config(procs);
                SCALES
                    .iter()
                    .map(|&scale| {
                        let mut net = base_net;
                        let (field, value, unit) = if self.vary == Vary::Bandwidth {
                            (&mut net.overrides.bandwidth, base.bandwidth * scale, "B/s")
                        } else {
                            (&mut net.overrides.latency, base.latency * scale, "s")
                        };
                        *field = Some(value);
                        SweepPoint {
                            label: format!("{scale}x ({value} {unit})"),
                            net,
                            nprocs: procs,
                        }
                    })
                    .collect()
            }
        }
    }

    /// Every run the sweep needs: workloads × points × systems.
    pub fn keys(&self) -> Vec<RunKey> {
        let points = self.points();
        let mut keys = Vec::new();
        for &w in &self.request.workloads {
            for point in &points {
                for &sys in &self.request.systems {
                    keys.push(RunKey::new(w, sys, point.net, point.nprocs));
                }
            }
        }
        keys
    }

    /// Render the sweep's figures from a computed matrix.
    ///
    /// One figure per workload: a table (x-axis rows, one column per
    /// system) followed by a horizontal-bar chart per system, bars scaled
    /// to the workload's best value so the systems stay visually
    /// comparable.  Rendering is a pure function of the matrix, so the
    /// output is byte-identical across reruns and `--jobs` values.
    ///
    /// # Panics
    ///
    /// Panics if a run is missing from the matrix or a parallel checksum
    /// disagrees with its sequential baseline.
    pub fn render(&self, matrix: &RunMatrix) -> String {
        let Request {
            ref workloads,
            ref systems,
            net,
            procs,
            ..
        } = self.request;
        let points = self.points();
        let label_width = points
            .iter()
            .map(|p| p.label.len())
            .max()
            .unwrap_or(0)
            .max(self.vary.axis().len());
        let mut out = String::new();
        out.push_str(&format!(
            "Sweep: {} vs {} — net {}, {:?} preset{}\n",
            self.vary.measure(),
            self.vary.axis(),
            net.label(),
            matrix.preset,
            match self.vary {
                Vary::Procs => String::new(),
                _ => format!(", {procs} processes"),
            },
        ));
        for &w in workloads {
            let seq = matrix.sequential(w);
            out.push_str(&format!(
                "\n{} — {} vs {} (sequential {:.2}s)\n",
                w.name(),
                self.vary.measure(),
                self.vary.axis(),
                seq.time
            ));
            // The measured value per (point, system) — and, when the matrix
            // was computed at an observability level, the cell's p99
            // lock-acquire latency — in plotting order.
            let mut columns: Vec<Vec<f64>> = Vec::with_capacity(systems.len());
            let mut p99_lock: Vec<Vec<String>> = Vec::with_capacity(systems.len());
            for &sys in systems {
                let mut column = Vec::with_capacity(points.len());
                let mut p99s = Vec::with_capacity(points.len());
                for point in &points {
                    let key = RunKey::new(w, sys, point.net, point.nprocs);
                    let run = matrix.run(&key);
                    assert!(
                        seq.agrees(run.checksum),
                        "{}: {sys} checksum mismatch at {} ({})",
                        w.name(),
                        point.label,
                        point.net.label(),
                    );
                    column.push(match self.vary {
                        Vary::Procs => run.speedup(seq.time),
                        Vary::Bandwidth | Vary::Latency => run.time,
                    });
                    // "-" when the run recorded nothing (observability off,
                    // or a system with no remote lock acquires).
                    p99s.push(
                        run.obs
                            .as_ref()
                            .map(|o| o.merged_hist(SpanCat::LockWait))
                            .filter(|h| !h.is_empty())
                            .map(|h| crate::obs::us(h.value_at_quantile(0.99)))
                            .unwrap_or_else(|| "-".to_string()),
                    );
                }
                columns.push(column);
                p99_lock.push(p99s);
            }
            // The table: per system, the measure plus the cell's p99
            // lock-acquire latency (virtual µs, from the merged histogram).
            out.push_str(&format!("  {:>label_width$}", self.vary.axis()));
            for sys in systems {
                out.push_str(&format!(" {:>12} {:>12}", sys.to_string(), "p99-lock-us"));
            }
            out.push('\n');
            for (pi, point) in points.iter().enumerate() {
                out.push_str(&format!("  {:>label_width$}", point.label));
                for (column, p99s) in columns.iter().zip(&p99_lock) {
                    out.push_str(&format!(" {:>12.2} {:>12}", column[pi], p99s[pi]));
                }
                out.push('\n');
            }
            // The bars, all scaled to the workload's best value.
            let best = columns
                .iter()
                .flatten()
                .copied()
                .fold(0.0f64, f64::max)
                .max(f64::MIN_POSITIVE);
            for (si, sys) in systems.iter().enumerate() {
                out.push_str(&format!("  {} {}\n", sys, self.vary.measure()));
                for (pi, point) in points.iter().enumerate() {
                    let value = columns[si][pi];
                    let len = ((value / best) * BAR_WIDTH as f64).round() as usize;
                    out.push_str(&format!(
                        "  {:>label_width$} {:<BAR_WIDTH$} {:.2}\n",
                        point.label,
                        "#".repeat(len.min(BAR_WIDTH)),
                        value
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_matrix, Exec, Preset, RunTuning};
    use apps::{System, Workload};
    use cluster::NetPreset;
    use treadmarks::ProtocolKind;

    const LRC: System = System::TreadMarks(ProtocolKind::Lrc);

    /// A Tiny sweep of `workload` over FDDI.
    fn tiny(vary: Vary, workload: Workload, systems: Vec<System>, procs: usize) -> Sweep {
        Sweep {
            vary,
            request: Request {
                preset: Preset::Tiny,
                net: NetModel::preset(NetPreset::Fddi),
                procs,
                workloads: vec![workload],
                systems,
                exec: Exec::with_jobs(2),
                tuning: RunTuning::default(),
            },
        }
    }

    fn tiny_sweep(vary: Vary) -> Sweep {
        let procs = match vary {
            Vary::Procs => 16,
            _ => 4,
        };
        tiny(vary, Workload::Ep, vec![LRC, System::Pvm], procs)
    }

    #[test]
    fn procs_sweep_extends_past_eight() {
        let sweep = tiny_sweep(Vary::Procs);
        let points = sweep.points();
        assert_eq!(points.last().unwrap().nprocs, 16);
        assert_eq!(points.last().unwrap().label, "16");
        assert!(points.iter().all(|p| p.net == sweep.request.net));
        assert_eq!(sweep.keys().len(), points.len() * 2);
    }

    #[test]
    fn bandwidth_sweep_scales_only_bandwidth() {
        let sweep = tiny_sweep(Vary::Bandwidth);
        let points = sweep.points();
        assert_eq!(points.len(), SCALES.len());
        let base = sweep.request.net.config(4);
        for (point, scale) in points.iter().zip(SCALES) {
            let cfg = point.net.config(point.nprocs);
            assert_eq!(cfg.bandwidth, base.bandwidth * scale);
            assert_eq!(cfg.latency, base.latency);
            assert_eq!(point.nprocs, 4);
        }
        // The x1.0 point is still a *distinct* key from the bare preset
        // (explicit override), so a sweep never collides with a plain run.
        assert_ne!(points[2].net, sweep.request.net);
    }

    #[test]
    fn rendered_sweep_is_deterministic_and_shows_bars() {
        let sweep = tiny_sweep(Vary::Latency);
        let keys = sweep.keys();
        let workloads = &sweep.request.workloads;
        let a = sweep.render(&run_matrix(Preset::Tiny, workloads, &keys, 1));
        let b = sweep.render(&run_matrix(Preset::Tiny, workloads, &keys, 4));
        assert_eq!(a, b, "sweep rendering must not depend on the job count");
        assert!(a.contains("EP — runtime (s) vs latency"), "{a}");
        assert!(a.contains('#'), "no bars rendered:\n{a}");
        assert!(a.contains("0.25x"), "{a}");
    }

    #[test]
    fn metrics_matrix_fills_the_p99_lock_column() {
        // TSP is lock-heavy: the column has data.
        let sweep = tiny(Vary::Procs, Workload::Tsp, vec![LRC], 4);
        let keys = sweep.keys();
        let workloads = &sweep.request.workloads;
        let off = sweep.render(&run_matrix(Preset::Tiny, workloads, &keys, 2));
        let metrics = sweep.render(&crate::run_matrix_obs(
            Preset::Tiny,
            workloads,
            &keys,
            2,
            cluster::ObsLevel::Metrics,
        ));
        assert!(off.contains("p99-lock-us"));
        // Off: every cell renders "-".  Metrics: at least one cell at >1
        // process has a real latency, and the measure columns are unchanged
        // (recording must not perturb the simulation).
        assert!(off.contains(" -"));
        let digits = metrics
            .lines()
            .filter(|l| l.contains('.') && !l.contains('#'))
            .count();
        assert!(digits > 0, "no p99 latencies rendered:\n{metrics}");
        let strip = |s: &str| {
            s.lines()
                .map(|l| l.split_whitespace().take(2).collect::<Vec<_>>().join(" "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&off), strip(&metrics));
    }

    #[test]
    fn vary_parses_its_aliases() {
        assert_eq!("procs".parse(), Ok(Vary::Procs));
        assert_eq!("BW".parse(), Ok(Vary::Bandwidth));
        assert_eq!("latency".parse(), Ok(Vary::Latency));
        assert!("cheese".parse::<Vary>().is_err());
        assert_eq!(Vary::Procs.measure(), "speedup");
        assert_eq!(Vary::Bandwidth.axis(), "bandwidth");
    }
}
