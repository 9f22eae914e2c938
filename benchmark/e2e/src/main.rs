//! The benchmark's one command.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//! e2e all [--seed N] [--seconds S]                       all six workloads, then the traced runs
//! e2e compare OLD.jsonl NEW.jsonl                        verdicts between two result files
//! ```

use e2e::compare::{compare, ResultSet};
use e2e::run::{self, Env, Outcome, RUN_SECONDS};
use e2e::workloads::{by_name, Workload, WORKLOADS};
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e --workload NAME --seed N --seconds S --trace 0|1\n       \
         e2e all [--seed N] [--seconds S]\n       \
         e2e compare OLD.jsonl NEW.jsonl\nworkloads: {}",
        names.join(", ")
    )
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} requires a value"))?;
        let bad = || format!("{flag}: cannot use '{value}'");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(by_name(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// Append the run's full record to `benchmark/out/runs.jsonl`.
fn log(env: &Env, outcome: &Outcome, seconds: f64) -> Result<(), String> {
    let path = env.out.join("runs.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{}", outcome.record(env, seconds)))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// One contract run: the timed reps, or the traced rep plus the layer
/// probes.  Prints every metric, then the contract's JSON line last.
fn one(env: &mut Env, args: &Args) -> Result<bool, String> {
    let w = args.workload.ok_or_else(usage)?;
    let mut outcome = run::run(env, w, args.seed, args.seconds, args.traced)?;
    if args.traced {
        match run::run_layers(env) {
            Ok(metrics) => outcome.metrics.extend(metrics),
            Err(why) => println!("layers: unavailable ({why})"),
        }
    }
    log(env, &outcome, args.seconds)?;
    print!("{}", outcome.render());
    println!("{}", outcome.contract_line());
    Ok(outcome.correct())
}

/// Every workload timed, then every workload's traced rep, then the layer
/// probes once.
fn all(env: &mut Env, args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for traced in [false, true] {
        for w in &WORKLOADS {
            let outcome = run::run(env, w, args.seed, args.seconds, traced)?;
            log(env, &outcome, args.seconds)?;
            print!("{}", outcome.render());
            correct &= outcome.correct();
        }
    }
    match run::run_layers(env) {
        Ok(metrics) => {
            println!("layers (benchmark/out/trace.json has the spans):");
            for (name, value, unit) in metrics {
                println!("  {name:<34} {value:>16.6} {unit}");
            }
        }
        Err(why) => println!("layers: unavailable ({why})"),
    }
    println!(
        "build_s {:.3} (cargo build of reproduce; not part of setup_s)",
        env.build_s
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [old, new] => {
                let read = |path: &String| {
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))
                        .and_then(|text| {
                            ResultSet::parse(&text).map_err(|e| format!("{path}: {e}"))
                        })
                };
                read(old).and_then(|old| {
                    let cmp = compare(&old, &read(new)?);
                    print!("{}", cmp.text);
                    Ok(cmp.regressions == 0 && cmp.drifted == 0)
                })
            }
            _ => Err(usage()),
        },
        Some("all") => {
            parse(&args[1..]).and_then(|a| Env::prepare().and_then(|mut env| all(&mut env, &a)))
        }
        Some(_) => parse(&args).and_then(|a| Env::prepare().and_then(|mut env| one(&mut env, &a))),
        None => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
