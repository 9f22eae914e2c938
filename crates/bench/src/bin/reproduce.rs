//! Regenerate the tables and figures of the paper — on the paper's testbed
//! or on any scenario the cluster model can express — fanning the
//! independent runs out across cores.
//!
//! ```text
//! cargo run -p bench --release --bin reproduce                        # every protocol, everything
//! cargo run -p bench --release --bin reproduce -- --list              # everything a flag can name
//! cargo run -p bench --release --bin reproduce -- sweep --vary procs  # speedup past 8
//! cargo run -p bench --release --bin reproduce -- fuzz --seeds 25     # schedule exploration
//! ```
//!
//! docs/EXPERIMENTS.md is the reference for every flag and the scenario
//! schema (docs/FUZZING.md, OBSERVABILITY.md and ANALYSIS.md for `fuzz`,
//! `--metrics`/`--trace` and `--racecheck`); the flags themselves are the
//! one table in [`bench::cli`].
//!
//! Every run of a matrix is an independent deterministic simulation, so the
//! harness computes the whole requested matrix first — on `--jobs N` worker
//! threads — and renders from the completed matrix afterwards.  Results are
//! stored under their matrix keys, never in completion order, so stdout,
//! `--json`, `--trace` and the `deterministic` section of `--bench-out` are
//! byte-identical for every `--jobs` value.

use apps::{System, Workload};
use bench::cli::{self, Invocation, Mode};
use bench::fuzz::{self, run_fuzz, FuzzSpec};
use bench::scenario::Request;
use bench::sweep::{Sweep, Vary};
use bench::{
    obs, proc_series, render_race_reports, run_matrix_exec, run_record_json, Preset, RunKey,
    RunMatrix,
};
use cluster::{FaultKind, NetModel, NetPreset};
use treadmarks::ProtocolKind;

/// `print!` for every byte this binary puts on stdout: see [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` for every line this binary puts on stdout.
macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

/// Write to stdout.  A reader that went away (`reproduce … | head`) chose to
/// stop reading: that ends the process quietly, with status 0.  Any other
/// write failure is an error.
#[inline(never)]
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(err) = std::io::stdout().write_fmt(args) {
        if err.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        fail(format!("cannot write to stdout: {err}"));
    }
}

fn table1(matrix: &RunMatrix, workloads: &[Workload]) {
    outln!(
        "\nTable 1: Sequential Time of Applications ({:?} preset)",
        matrix.preset
    );
    outln!(
        "{:<12} {:<34} {:>12}",
        "Program",
        "Problem Size",
        "Time (s)"
    );
    for &w in workloads {
        let seq = matrix.sequential(w);
        outln!(
            "{:<12} {:<34} {:>12.2}",
            w.name(),
            w.problem_size(matrix.preset),
            seq.time
        );
    }
}

fn figure(matrix: &RunMatrix, w: Workload, net: NetModel, max_procs: usize, systems: &[System]) {
    let seq = matrix.sequential(w);
    outln!(
        "\nFigure {}: {} speedups (net {}, sequential time {:.2}s)",
        w.figure(),
        w.name(),
        net.label(),
        seq.time
    );
    out!("{:>6}", "procs");
    for sys in systems {
        out!(" {sys:>12}");
    }
    outln!();
    for n in proc_series(max_procs) {
        for &sys in systems {
            let run = matrix.run(&RunKey::new(w, sys, net, n));
            assert!(
                seq.agrees(run.checksum),
                "{}: {} checksum mismatch at {n} processes",
                w.name(),
                run.system
            );
        }
        out!("{n:>6}");
        for &sys in systems {
            out!(
                " {:>12.2}",
                matrix.run(&RunKey::new(w, sys, net, n)).speedup(seq.time)
            );
        }
        outln!();
    }
}

fn table2(
    matrix: &RunMatrix,
    net: NetModel,
    procs: usize,
    systems: &[System],
    workloads: &[Workload],
) {
    outln!(
        "\nTable 2: Messages and Data at {procs} Processors (net {}, {:?} preset)",
        net.label(),
        matrix.preset
    );
    out!("{:<12}", "Program");
    for sys in systems {
        out!(" {:>14} {:>14}", format!("{sys} msgs"), format!("{sys} KB"));
    }
    outln!();
    let mut protocol_lines: Vec<String> = Vec::new();
    for &w in workloads {
        out!("{:<12}", w.name());
        for &sys in systems {
            let run = matrix.run(&RunKey::new(w, sys, net, procs));
            out!(" {:>14} {:>14.0}", run.messages, run.kilobytes);
            if let (System::TreadMarks(protocol), Some(stats)) = (sys, &run.tmk_stats) {
                // Each backend renders its own counter set (its Table-2
                // stats contribution), so a new protocol never edits the
                // harness.
                protocol_lines.push(format!(
                    "{:<12} {:<5} {}",
                    w.name(),
                    protocol.name(),
                    protocol.counter_summary(stats),
                ));
            }
        }
        outln!();
    }
    if !protocol_lines.is_empty() {
        outln!("\nPer-protocol DSM runtime counters at {procs} processors:");
        for line in protocol_lines {
            outln!("  {line}");
        }
    }
}

/// Machine-readable dump of the full reproduction: every selected workload
/// at each processor count under each selected system, plus the sequential
/// baselines.  Deterministic execution makes the output byte-stable.
fn json_dump(
    matrix: &RunMatrix,
    net: NetModel,
    proc_counts: &[usize],
    systems: &[System],
    workloads: &[Workload],
) {
    outln!("{{");
    outln!("  \"preset\": \"{:?}\",", matrix.preset);
    outln!("  \"net\": \"{}\",", net.label());
    outln!("  \"sequential\": [");
    let seqs: Vec<String> = workloads
        .iter()
        .map(|&w| {
            let seq = matrix.sequential(w);
            format!(
                "    {{\"workload\": \"{}\", \"time\": {}, \"time_bits\": \"{:016x}\", \
                 \"checksum_bits\": \"{:016x}\"}}",
                w.name(),
                seq.time,
                seq.time.to_bits(),
                seq.checksum.to_bits()
            )
        })
        .collect();
    outln!("{}", seqs.join(",\n"));
    outln!("  ],");
    outln!("  \"runs\": [");
    let mut recs = Vec::new();
    for &w in workloads {
        for &n in proc_counts {
            for &sys in systems {
                let key = RunKey::new(w, sys, net, n);
                recs.push(format!("    {}", run_record_json(&key, matrix.run(&key))));
            }
        }
    }
    outln!("{}", recs.join(",\n"));
    outln!("  ]");
    outln!("}}");
}

/// The engine-throughput report written by `--bench-out`: deterministic
/// matrix totals first (byte-stable across runs and job counts — CI diffs
/// them), wall-clock timing of this execution second — with the kernel
/// memo's host counters (`apps::memo`), which depend on which worker raced
/// which and so appear nowhere else.
fn bench_report(matrix: &RunMatrix, req: &Request, wall_seconds: f64) -> String {
    let tuning = &req.tuning;
    let mut events = 0u64; // transport messages processed (sent == consumed)
    let mut virtual_seconds = 0.0f64;
    let mut checksum_xor = 0u64;
    for (_, run) in matrix.runs() {
        events += run.proc_stats.iter().map(|s| s.messages_sent).sum::<u64>();
        virtual_seconds += run.time;
        checksum_xor ^= run.checksum.to_bits();
    }
    // The tuning stamps appear only when non-default, so an untuned report
    // stays byte-identical to every report the harness ever produced.
    let mut tuning_fields = String::new();
    if tuning.sched_seed != 0 {
        tuning_fields.push_str(&format!("    \"sched_seed\": {},\n", tuning.sched_seed));
    }
    if tuning.fault.hash() != 0 {
        tuning_fields.push_str(&format!(
            "    \"fault_plan_hash\": \"{:016x}\",\n",
            tuning.fault.hash()
        ));
    }
    let memo = apps::memo::kernel_stats();
    format!(
        "{{\n  \"preset\": \"{:?}\",\n  \"deterministic\": {{\n{tuning_fields}    \"runs\": {},\n    \
         \"total_messages\": {},\n    \"total_virtual_seconds\": {},\n    \
         \"total_virtual_seconds_bits\": \"{:016x}\",\n    \"checksum_bits_xor\": \"{:016x}\"\n  }},\n  \
         \"timing\": {{\n    \"jobs\": {},\n    \"wall_seconds\": {:.3},\n    \
         \"events_per_second\": {:.0},\n    \"virtual_seconds_per_wall_second\": {:.2},\n    \
         \"kernel_memo\": {{\"lookups\": {}, \"hits\": {}, \"entries\": {}}}\n  }}\n}}\n",
        matrix.preset,
        matrix.len(),
        events,
        virtual_seconds,
        virtual_seconds.to_bits(),
        checksum_xor,
        req.exec.jobs,
        wall_seconds,
        events as f64 / wall_seconds,
        virtual_seconds / wall_seconds,
        memo.lookups,
        memo.hits,
        memo.entries,
    )
}

/// `--list`: everything a scenario (or the CLI) can name, so authors stop
/// grepping the source.  `--json` renders the same catalogue
/// machine-readably.
fn list_catalogue(json: bool) {
    let protocols: Vec<ProtocolKind> = ProtocolKind::all().to_vec();
    let systems: Vec<System> = System::all().to_vec();
    let presets = [Preset::Tiny, Preset::Scaled, Preset::Paper].map(|p| p.name());
    let axes = ["procs", "bandwidth", "latency"];
    if json {
        outln!("{{");
        let protos: Vec<String> = protocols
            .iter()
            .map(|p| {
                format!(
                    "    {{\"name\": \"{}\", \"system_label\": \"{}\", \"description\": \"{}\"}}",
                    p.name(),
                    p.system_label(),
                    p.describe()
                )
            })
            .collect();
        outln!("  \"protocols\": [\n{}\n  ],", protos.join(",\n"));
        let sys: Vec<String> = systems.iter().map(|s| format!("\"{s}\"")).collect();
        outln!("  \"systems\": [{}],", sys.join(", "));
        let nets: Vec<String> = NetPreset::all()
            .iter()
            .map(|n| {
                let cfg = n.config(8);
                format!(
                    "    {{\"name\": \"{}\", \"bandwidth_bytes_per_s\": {}, \"latency_s\": {}, \
                     \"shared_medium\": {}}}",
                    n.name(),
                    cfg.bandwidth,
                    cfg.latency,
                    cfg.shared_medium
                )
            })
            .collect();
        outln!("  \"nets\": [\n{}\n  ],", nets.join(",\n"));
        let loads: Vec<String> = Workload::all()
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"figure\": {}}}",
                    w.name(),
                    w.figure()
                )
            })
            .collect();
        outln!("  \"workloads\": [\n{}\n  ],", loads.join(",\n"));
        fn quoted<S: std::fmt::Display>(xs: &[S]) -> String {
            let quoted: Vec<String> = xs.iter().map(|x| format!("\"{x}\"")).collect();
            quoted.join(", ")
        }
        outln!("  \"presets\": [{}],", quoted(&presets));
        outln!("  \"sweep_axes\": [{}],", quoted(&axes));
        let knobs: Vec<String> = cli::knobs()
            .map(|f| f.name.trim_start_matches("--").replace('-', "_"))
            .collect();
        outln!("  \"execution_knobs\": [{}],", quoted(&knobs));
        let kinds: Vec<String> = FaultKind::ALL
            .map(|k| (k.name(), k.describe()))
            .map(|(name, desc)| {
                format!("    {{\"name\": \"{name}\", \"description\": \"{desc}\"}}")
            })
            .into();
        outln!("  \"fault_kinds\": [\n{}\n  ]", kinds.join(",\n"));
        outln!("}}");
        return;
    }
    outln!("Protocols (--protocol NAME, or `all`):");
    for p in &protocols {
        outln!(
            "  {:<6} {:<12} {}",
            p.name(),
            p.system_label(),
            p.describe()
        );
    }
    outln!("\nSystems (scenario `systems = [...]`):");
    for s in &systems {
        outln!("  {s}");
    }
    outln!("\nNet presets (--net NAME, scenario `net = \"NAME\"`):");
    for n in NetPreset::all() {
        let cfg = n.config(8);
        outln!(
            "  {:<9} {:>12.0} B/s bandwidth, {:>9.1} us latency, {}",
            n.name(),
            cfg.bandwidth,
            cfg.latency * 1e6,
            if cfg.shared_medium {
                "shared medium"
            } else {
                "full bisection"
            }
        );
    }
    outln!("\nWorkloads (--workload NAME, repeatable):");
    for w in Workload::all() {
        outln!("  {:<12} (Figure {})", w.name(), w.figure());
    }
    outln!("\nProblem-size presets: {}", presets.join(", "));
    outln!("Sweep axes (sweep --vary AXIS): {}", axes.join(", "));
    let knobs: Vec<String> = cli::knobs().map(cli::Flag::usage).collect();
    outln!(
        "Execution knobs (byte-identical output at every value): {}",
        knobs.join(", ")
    );
    outln!("\nFault kinds (scenario [fault] section; fuzz --faults {{lossy,partitioned,FILE}}):");
    for k in FaultKind::ALL {
        outln!("  {:<12} {}", k.name(), k.describe());
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Compute a matrix of the request, timing this machine's execution for
/// the `--bench-out` report.
fn timed_matrix(req: &Request, seq_workloads: &[Workload], keys: &[RunKey]) -> (RunMatrix, f64) {
    // lint:allow(wall-clock): times this machine's execution for the --bench-out report
    let started = std::time::Instant::now();
    let matrix = run_matrix_exec(req.preset, seq_workloads, keys, &req.exec, &req.tuning);
    (matrix, started.elapsed().as_secs_f64())
}

fn write_bench_report(path: &str, matrix: &RunMatrix, req: &Request, wall_seconds: f64) {
    if let Err(err) = std::fs::write(path, bench_report(matrix, req, wall_seconds)) {
        fail(format!("cannot write {path}: {err}"));
    }
    eprintln!("bench report written to {path}");
}

fn fuzz_campaign(inv: &Invocation, request: Request) {
    let out = run_fuzz(&FuzzSpec {
        request,
        seeds: inv.seeds.unwrap_or(10),
        until_failure: inv.until_failure,
    });
    out!("{}", out.report);
    // Like --racecheck: a campaign that found anything fails the
    // invocation, after the report (and every reproducer) is printed.
    if !out.findings.is_empty() {
        std::process::exit(1);
    }
}

fn sweep_figures(inv: &Invocation, request: Request) {
    let sweep = Sweep {
        vary: inv.vary.unwrap_or(Vary::Procs),
        request,
    };
    let req = &sweep.request;
    let (matrix, wall_seconds) = timed_matrix(req, &req.workloads, &sweep.keys());
    out!("{}", sweep.render(&matrix));
    if inv.metrics {
        out!("\n{}", obs::metrics_report(&matrix));
    }
    if let Some(path) = &inv.bench_out {
        write_bench_report(path, &matrix, req, wall_seconds);
    }
}

/// Replay a scenario whose fault plan crashes processes: instead of a
/// reproduction matrix (impossible — crashed runs have no results to
/// tabulate), classify every workload × system point through the invariant
/// battery and print one verdict line each, naming the fault context.  The
/// fan uses the ordered executor, so the table is byte-identical across
/// `--jobs` widths.
fn replay_verdicts(req: &Request) {
    outln!(
        "Crash-plan scenario: verdict replay at {} processes (net {}, {:?} preset)",
        req.procs,
        req.net.label(),
        req.preset
    );
    let points = req.points();
    let verdicts = fuzz::verdicts(req, &req.exec, &points, &req.baselines(), &req.tuning);
    for (&(w, sys), (verdict, _)) in points.iter().zip(verdicts) {
        outln!(
            "  {:<12} {:<10} {}",
            w.name(),
            sys.to_string(),
            verdict.summary()
        );
    }
}

fn reproduction(inv: &Invocation, req: Request) {
    // The scenario's tuning rides on every run of the reproduction.  A plan
    // that crashes processes cannot fill a matrix — the crashed runs have no
    // results to tabulate — so it replays as a verdict table instead; this
    // is how a shrunk fuzz reproducer with a crash is replayed.
    if !req.tuning.fault.crashes.is_empty() {
        replay_verdicts(&req);
        return;
    }
    let Request {
        net,
        procs: max_procs,
        ref systems,
        ref workloads,
        ..
    } = req;
    let run_all = !inv.json && !inv.table1 && !inv.table2 && inv.figure.is_none();
    let want_table1 = inv.table1 || run_all;
    let want_table2 = inv.table2 || run_all;
    // `--json` dumps the full matrix (`cli::parse` refuses `--figure` and
    // `--table*` beside it).
    let figure_workloads: Vec<Workload> = if inv.json || run_all {
        workloads.clone()
    } else {
        inv.figure.into_iter().collect()
    };

    // Assemble the requested matrix: sequential baselines plus parallel
    // runs.  (Everything below renders from this precomputed matrix.)
    let mut seq_workloads: Vec<Workload> = Vec::new();
    if want_table1 || inv.json {
        seq_workloads.extend(workloads);
    }
    seq_workloads.extend(&figure_workloads);
    let mut keys: Vec<RunKey> = Vec::new();
    // The JSON dump reports powers of two (the paper's 1/2/4/8, extended
    // by --procs) plus the requested top count itself; the figures report
    // the full paper series plus the extension.
    let mut json_procs: Vec<usize> = (0..usize::BITS)
        .map(|k| 1 << k)
        .take_while(|&p| p <= max_procs)
        .collect();
    if json_procs.last() != Some(&max_procs) {
        json_procs.push(max_procs);
    }
    for &w in &figure_workloads {
        let counts = if inv.json {
            json_procs.clone()
        } else {
            proc_series(max_procs)
        };
        for n in counts {
            for &sys in systems {
                keys.push(RunKey::new(w, sys, net, n));
            }
        }
    }
    if want_table2 {
        for &w in workloads {
            for &sys in systems {
                keys.push(RunKey::new(w, sys, net, max_procs));
            }
        }
    }

    let (matrix, wall_seconds) = timed_matrix(&req, &seq_workloads, &keys);

    if inv.json {
        json_dump(&matrix, net, &json_procs, systems, workloads);
    } else {
        if want_table1 {
            table1(&matrix, workloads);
        }
        for &w in &figure_workloads {
            figure(&matrix, w, net, max_procs, systems);
        }
        if want_table2 {
            table2(&matrix, net, max_procs, systems, workloads);
        }
        if inv.metrics {
            out!("\n{}", obs::metrics_report(&matrix));
        }
    }

    if req.exec.analysis.enabled() {
        let report = render_race_reports(&matrix);
        if inv.json {
            // stdout is a pure JSON document (the per-run `races` fields are
            // already in it), so the readable report goes to stderr.
            eprint!("{report}");
        } else {
            out!("\nRace check (happens-before, byte-range granularity):\n{report}");
        }
    }

    if let Some(path) = &inv.trace {
        let trace = obs::chrome_trace_json(&matrix);
        if let Err(err) = obs::validate_json(&trace) {
            fail(format!("internal error: exported trace is invalid: {err}"));
        }
        if let Err(err) = std::fs::write(path, &trace) {
            fail(format!("cannot write {path}: {err}"));
        }
        eprintln!("trace written to {path} (open in https://ui.perfetto.dev)");
    }

    if let Some(path) = &inv.bench_out {
        write_bench_report(path, &matrix, &req, wall_seconds);
    }

    // A racecheck run that found races fails the invocation — after every
    // requested output has been written, so the report is never lost.
    let races_found = matrix
        .runs()
        .any(|(_, r)| r.race.as_ref().is_some_and(|rep| !rep.is_race_free()));
    if races_found {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = cli::parse(&args).unwrap_or_else(|e| fail(e));
    if inv.list {
        list_catalogue(inv.json);
        return;
    }
    let req = Request::resolve(&inv).unwrap_or_else(|e| fail(e));
    match inv.mode {
        Mode::Reproduction => reproduction(&inv, req),
        Mode::Sweep => sweep_figures(&inv, req),
        Mode::Fuzz => fuzz_campaign(&inv, req),
    }
}
