//! End-to-end benchmark of the application suite at tiny problem sizes —
//! one criterion measurement per (workload, system), so regressions in the
//! runtime systems or in the simulator show up in `cargo bench` output.
//! The full paper-shaped sweeps (Figures 1–12, Tables 1–2) are produced by
//! the `reproduce` binary, which is not time-boxed by criterion.

use apps::runner::System;
use apps::Workload;
use bench::{run_parallel_on, Preset};
use cluster::ClusterConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_apps(c: &mut Criterion) {
    let mut group = c.benchmark_group("apps_tiny_4procs");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let cfg = ClusterConfig::calibrated_fddi(4);
    for w in Workload::all() {
        for sys in System::all() {
            group.bench_with_input(
                BenchmarkId::new(w.name(), sys.to_string()),
                &(w, sys),
                |b, &(w, sys)| b.iter(|| run_parallel_on(w, sys, &cfg, Preset::Tiny)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_apps);
criterion_main!(benches);
