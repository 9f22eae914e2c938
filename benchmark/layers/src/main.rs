//! The traced run: times calls into each of the repo's crates from outside
//! (`probes.rs`), pinned to one CPU, and reports one number per layer metric.
//!
//! ```text
//! layers OUT_DIR      spans go to OUT_DIR/trace.json; the last stdout line is
//!                     {"metrics": {NAME: {value, unit, q1, q3, samples}}, "notes": {...}}
//! ```
//!
//! Every sampled probe is taken once per round for [`ROUNDS`] rounds, so a
//! probe's samples are spread over the whole run and a ratio's operands are
//! taken back to back; odd rounds go through the probes in reverse, so no
//! operand is always the one that warms the allocator for its partner.  The
//! metric is the median.  The scaled Table-2 slice runs once: its
//! per-system sums are over twelve run spans each.

mod probes;

use e2e::json::Json;
use e2e::stats::{median, quartiles};
use e2e::sys;
use e2e::trace::Tracer;
use probes::PROBES;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Samples per probe.
const ROUNDS: usize = 5;

/// Metrics computed from the probes' samples: name, unit, formula.
type Derived = (&'static str, &'static str, fn(&Samples) -> f64);

struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn of(&self, name: &str) -> &[f64] {
        self.0
            .get(name)
            .unwrap_or_else(|| panic!("no probe named {name}"))
    }

    fn med(&self, name: &str) -> f64 {
        median(self.of(name))
    }

    fn ratio(&self, over: &str, under: &str) -> f64 {
        self.med(over) / self.med(under)
    }
}

const DERIVED: &[Derived] = &[
    // What a grant to another thread costs over a grant to oneself: the
    // number ROADMAP item 2 wants to remove.
    ("cluster.handoff_ns", "ns", |s| {
        s.med("cluster.pingpong_event_ns") - s.med("cluster.self_event_ns")
    }),
    // Bimodal on a two-CPU host (rank threads kept on one CPU, or not), so
    // the extremes say more than a median.
    ("cluster.pingpong_unpinned_ratio_min", "ratio", |s| {
        let unpinned = s.of("cluster.pingpong_unpinned_event_ns");
        unpinned.iter().copied().fold(f64::INFINITY, f64::min) / s.med("cluster.pingpong_event_ns")
    }),
    ("cluster.pingpong_unpinned_ratio_max", "ratio", |s| {
        let unpinned = s.of("cluster.pingpong_unpinned_event_ns");
        unpinned.iter().copied().fold(0.0, f64::max) / s.med("cluster.pingpong_event_ns")
    }),
    ("cluster.sched.islands4_ratio", "ratio", |s| {
        s.ratio("cluster.ring8_islands4_event_ns", "cluster.ring8_event_ns")
    }),
    ("cluster.window.i4t2_ratio", "ratio", |s| {
        s.ratio("cluster.ring8_i4t2_event_ns", "cluster.ring8_event_ns")
    }),
    ("cluster.sched.seeded_tie_ratio", "ratio", |s| {
        s.ratio("cluster.ring8_seeded_event_ns", "cluster.ring8_event_ns")
    }),
    ("cluster.fault.lossy_ratio", "ratio", |s| {
        s.ratio(
            "cluster.pingpong_lossy_event_ns",
            "cluster.pingpong_event_ns",
        )
    }),
    ("cluster.obs.metrics_ratio", "ratio", |s| {
        s.ratio(
            "treadmarks.lock_handoff_metrics_us",
            "treadmarks.lock_handoff_us",
        )
    }),
    ("cluster.obs.trace_ratio", "ratio", |s| {
        s.ratio(
            "treadmarks.lock_handoff_trace_us",
            "treadmarks.lock_handoff_us",
        )
    }),
    ("treadmarks.race_ratio", "ratio", |s| {
        s.ratio("treadmarks.sor_race_on_ms", "treadmarks.sor_race_off_ms")
    }),
    ("treadmarks.init_us_per_rank", "us", |s| {
        s.med("treadmarks.init_exit_us_per_rank") - s.med("cluster.spawn_us_per_rank")
    }),
    ("bench.exec.jobs2_speedup", "ratio", |s| {
        s.ratio("bench.table2_tiny_jobs1_s", "bench.table2_tiny_jobs2_s")
    }),
    ("bench.p8.i4_ratio", "ratio", |s| {
        s.ratio("bench.p8_tiny_i4_s", "bench.p8_tiny_s")
    }),
    ("bench.p8.i4t2_ratio", "ratio", |s| {
        s.ratio("bench.p8_tiny_i4t2_s", "bench.p8_tiny_s")
    }),
    // The same slice with span recording switched off: what tracing costs.
    ("trace.overhead_ratio", "ratio", |s| {
        s.ratio("bench.p8_tiny_s", "bench.p8_tiny_untraced_s")
    }),
];

/// The metrics of the one scaled Table-2 pass, in report order.
const SLICE_METRICS: [(&str, &str); 13] = [
    ("bench.p8.lrc_s", "s"),
    ("bench.p8.hlrc_s", "s"),
    ("bench.p8.sc_s", "s"),
    ("bench.p8.pvm_s", "s"),
    ("bench.p8.top_run_share", "ratio"),
    ("bench.p8.span_coverage", "ratio"),
    ("count.p8.datagrams", "count"),
    ("count.p8.kilobytes", "KB"),
    ("count.p8.page_faults", "count"),
    ("count.p8.diff_requests", "count"),
    ("count.p8.diff_flushes", "count"),
    ("count.p8.page_requests", "count"),
    ("bench.p8.wall_s", "s"),
];

/// Every metric this program reports, `(name, unit)`, in report order.
fn metric_names() -> Vec<(&'static str, &'static str)> {
    PROBES
        .iter()
        .filter(|p| p.publish)
        .map(|p| (p.name, p.unit))
        .chain(DERIVED.iter().map(|d| (d.0, d.1)))
        .chain(SLICE_METRICS)
        .collect()
}

fn main() -> ExitCode {
    let Some(out_dir) = std::env::args().nth(1) else {
        eprintln!("usage: layers OUT_DIR");
        return ExitCode::from(2);
    };
    let host_cpus = sys::allowed_cpus();
    probes::HOST_CPUS.set(host_cpus.clone()).expect("set once");
    if let Err(e) = sys::pin(&host_cpus[..1]) {
        eprintln!("cannot pin to CPU {}: {e}", host_cpus[0]);
        return ExitCode::from(2);
    }

    let mut tracer = Tracer::new(true);
    let mut samples = Samples(BTreeMap::new());
    for round in 0..ROUNDS {
        tracer.span(&format!("round {round}"), |t| {
            let mut order: Vec<_> = PROBES.iter().collect();
            if round % 2 == 1 {
                order.reverse();
            }
            for p in order {
                samples
                    .0
                    .entry(p.name)
                    .or_default()
                    .push((p.run)(t, p.name));
            }
        });
    }
    let slice = probes::scaled_table2_slice(&mut tracer, "bench.p8");

    // name → (value, q1, q3, samples)
    let mut values: BTreeMap<&str, (f64, f64, f64, usize)> = BTreeMap::new();
    for p in PROBES.iter().filter(|p| p.publish) {
        let v = samples.of(p.name);
        let (q1, q3) = quartiles(v);
        values.insert(p.name, (median(v), q1, q3, v.len()));
    }
    for &(name, _, formula) in DERIVED {
        let v = formula(&samples);
        values.insert(name, (v, v, v, ROUNDS));
    }
    let [dsm_faults, dsm_diff_requests, dsm_flushes, dsm_page_requests] = slice.dsm;
    let slice_values = [
        slice.system_s[0],
        slice.system_s[1],
        slice.system_s[2],
        slice.system_s[3],
        slice.top_run.1 / slice.wall_s,
        slice.covered_s / slice.wall_s,
        slice.datagrams as f64,
        slice.kilobytes,
        dsm_faults as f64,
        dsm_diff_requests as f64,
        dsm_flushes as f64,
        dsm_page_requests as f64,
        slice.wall_s,
    ];
    for (&(name, _), v) in SLICE_METRICS.iter().zip(slice_values) {
        values.insert(name, (v, v, v, 1));
    }

    let trace_path = std::path::Path::new(&out_dir).join("trace.json");
    if let Err(e) = std::fs::write(&trace_path, format!("{}\n", tracer.to_json())) {
        eprintln!("cannot write {}: {e}", trace_path.display());
        return ExitCode::from(2);
    }

    let mut metrics = Vec::new();
    for (name, unit) in metric_names() {
        let (value, q1, q3, n) = values[name];
        eprintln!("  {name:<38} {value:>14.4} {unit:<6} (q1 {q1:.4}, q3 {q3:.4}, n {n})");
        metrics.push((
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("samples", Json::Num(n as f64)),
            ]),
        ));
    }
    eprintln!("  top run of the scaled Table-2 slice: {}", slice.top_run.0);
    let notes = Json::obj([
        ("bench.p8.top_run", Json::str(slice.top_run.0.as_str())),
        ("trace", Json::str(trace_path.display().to_string())),
        ("spans", Json::Num(tracer.spans().len() as f64)),
    ]);
    println!(
        "{}",
        Json::obj([("metrics", Json::obj(metrics)), ("notes", notes)])
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2e::workloads::{FDDI_BANDWIDTH, FDDI_LATENCY, WORKLOADS};

    /// The generator in `e2e` cannot link the reader, so its output is held
    /// to the reader here: every generated scenario parses and re-serialises
    /// to the same bytes.
    #[test]
    fn generated_scenarios_parse_and_round_trip_through_the_repos_reader() {
        for w in &WORKLOADS {
            for seed in [0, 1, 7, 1 << 40, u64::MAX] {
                for preset in [w.preset, "tiny"] {
                    let text = w.scenario(seed, preset);
                    let back = probes::scenario_round_trip(&text);
                    assert_eq!(back.as_deref(), Ok(text.as_str()), "{} seed {seed}", w.name);
                }
            }
        }
    }

    #[test]
    fn the_generator_scales_the_fddi_presets_own_numbers() {
        assert_eq!(
            probes::fddi_latency_bandwidth(),
            (FDDI_LATENCY, FDDI_BANDWIDTH)
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_per_layer_metrics_reported() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("unit"))
            })
            .collect();
        let reported: Vec<(&str, &str)> = e2e::run::HOST_LAYER
            .into_iter()
            .chain(metric_names())
            .collect();
        assert_eq!(listed, reported);
    }

    #[test]
    fn metric_names_are_unique_and_every_formula_finds_its_operands() {
        let names = metric_names();
        let unique: std::collections::BTreeSet<_> = names.iter().map(|n| n.0).collect();
        assert_eq!(unique.len(), names.len());
        let ones = Samples(PROBES.iter().map(|p| (p.name, vec![1.0; ROUNDS])).collect());
        for &(name, _, formula) in DERIVED {
            assert!(formula(&ones).is_finite(), "{name}");
        }
    }
}
