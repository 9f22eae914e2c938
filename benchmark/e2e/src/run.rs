//! Building `reproduce`, running it as a pinned child process, checking what
//! it simulated and turning the timings into metrics.

use crate::json::Json;
use crate::report::{fnv64, BenchOut, FuzzOut};
use crate::stats::{median, quartiles};
use crate::sys::{self, Rusage};
use crate::workloads::{Pinned, Workload};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a run measures unless `--seconds` says otherwise;
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 16.0;

/// Set-ups per timed run: at least three, and — because a cheap set-up is a
/// noisy one — up to nine while they have taken under a second in all.
/// `setup_s` is their median.
const SETUPS: std::ops::RangeInclusive<usize> = 3..=9;

/// The end-to-end metrics: name, unit, which direction is better, and the
/// share of the parent's median a change may lose before it is a regression.
/// Mirrors `BENCHMARK.json` (a test holds the two equal).
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("wall_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// The per-layer metrics the driver itself measures on a traced run, from
/// the traced invocation's rusage and `--bench-out` report.  The counts
/// must repeat exactly between runs and commits.
pub const HOST_LAYER: [(&str, &str); 8] = [
    ("bench.overhead_s", "s"),
    ("host.sys_share", "ratio"),
    ("host.vcsw_per_event", "count"),
    ("host.ivcsw_per_event", "count"),
    ("host.minflt_per_run", "count"),
    ("count.runs", "count"),
    ("count.events", "count"),
    ("count.virtual_s", "s"),
];

/// The host the numbers were taken on; they do not transfer between hosts.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs this process may run on.
    pub cpus: Vec<usize>,
    /// `model name` of /proc/cpuinfo.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or "unknown" outside a git checkout.
    pub commit: String,
}

impl Host {
    fn probe(root: &Path) -> Host {
        let first_line = |out: std::io::Result<std::process::Output>| {
            out.ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_string))
                .unwrap_or_else(|| "unknown".to_string())
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Host {
            cpus: sys::allowed_cpus(),
            cpu_model,
            kernel,
            rustc: first_line(Command::new("rustc").arg("--version").output()),
            commit: first_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(root)
                    .stderr(Stdio::null())
                    .output(),
            ),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.cpus.len() as f64)),
            ("cpu_model", Json::str(self.cpu_model.as_str())),
            ("kernel", Json::str(self.kernel.as_str())),
            ("rustc", Json::str(self.rustc.as_str())),
            ("commit", Json::str(self.commit.as_str())),
        ])
    }
}

/// Everything an invocation needs: where the repo is, the built binary and
/// the host it runs on.
pub struct Env {
    /// The checkout (the directory holding `BENCHMARK.json`).
    pub root: PathBuf,
    /// `benchmark/out`: result files, traces and per-invocation temp dirs.
    pub out: PathBuf,
    /// The release `reproduce` binary.
    pub reproduce: PathBuf,
    /// Seconds `cargo build` took (near zero when up to date); not part of
    /// `setup_s`.
    pub build_s: f64,
    /// Host fingerprint.
    pub host: Host,
    invocations: usize,
}

/// The checkout: the nearest directory at or above the current one that
/// holds `BENCHMARK.json`.
pub fn find_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    cwd.ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("no BENCHMARK.json at or above {}", cwd.display()))
}

/// Where cargo puts artifacts of the manifest in `manifest_dir` when invoked
/// from `root`.
fn target_dir(root: &Path, manifest_dir: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => manifest_dir.join("target"),
    }
}

/// `cargo build --release --offline` with `args`, from the checkout root;
/// returns the seconds it took.
fn cargo_build(root: &Path, args: &[&str]) -> Result<f64, String> {
    let started = Instant::now();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(args)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(started.elapsed().as_secs_f64())
    } else {
        Err(format!("cargo build {} failed ({status})", args.join(" ")))
    }
}

impl Env {
    /// Build `reproduce` from source and fingerprint the host.
    pub fn prepare() -> Result<Env, String> {
        let root = find_root()?;
        let host = Host::probe(&root);
        let build_s = cargo_build(&root, &["-p", "bench", "--bin", "reproduce"])?;
        let reproduce = target_dir(&root, &root).join("release/reproduce");
        if !reproduce.is_file() {
            return Err(format!("{} was not built", reproduce.display()));
        }
        let out = root.join("benchmark/out");
        std::fs::create_dir_all(&out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        Ok(Env {
            root,
            out,
            reproduce,
            build_s,
            host,
            invocations: 0,
        })
    }

    /// The CPUs a `jobs`-wide child is pinned to, and whether the host had
    /// fewer than it wanted.
    fn cpus_for(&self, jobs: usize) -> (&[usize], bool) {
        let have = self.host.cpus.len().min(jobs);
        (&self.host.cpus[..have], have < jobs)
    }
}

/// One invocation of `reproduce`.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Spawn-to-exit wall seconds.
    pub wall_s: f64,
    /// The child's own resource usage.
    pub usage: Rusage,
    /// Exit code (`None`: killed by a signal).
    pub exit: Option<i32>,
    /// FNV-1a 64 of its standard output.
    pub stdout_fnv: u64,
    /// Its `--bench-out` report (matrix workloads).
    pub bench: Option<BenchOut>,
    /// Its campaign report (fuzz workloads).
    pub fuzz: Option<FuzzOut>,
    /// Last lines of its standard error, for a failure's diagnosis.
    pub stderr_tail: String,
}

impl Rep {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.usage.user + self.usage.sys).as_secs_f64()
    }

    /// Simulated runs the invocation reports as completed.
    pub fn runs(&self) -> u64 {
        let fuzz_runs = self.fuzz.map_or(0, |f| f.runs_passed);
        self.bench.map_or(fuzz_runs, |b| b.runs)
    }

    /// The invocation's unit of simulated work: transport events where the
    /// CLI reports them, simulated runs for a fuzz campaign (which has no
    /// `--bench-out`).
    pub fn events(&self) -> u64 {
        self.bench.map_or(self.runs(), |b| b.events)
    }
}

/// Run `w` once over `scenario`, in a fresh directory with an empty
/// environment (so no on-disk memo or variable can leak between reps),
/// pinned to as many CPUs as it has jobs.
pub fn invoke(env: &mut Env, w: &Workload, scenario: &str) -> Result<Rep, String> {
    env.invocations += 1;
    let dir = env
        .out
        .join(format!("tmp-{}-{}", std::process::id(), env.invocations));
    let io = |what: &str, e: std::io::Error| format!("{what} in {}: {e}", dir.display());
    std::fs::create_dir_all(&dir).map_err(|e| io("cannot create", e))?;
    std::fs::write(dir.join("scenario.toml"), scenario).map_err(|e| io("cannot write", e))?;
    let stderr =
        std::fs::File::create(dir.join("stderr.txt")).map_err(|e| io("cannot write", e))?;

    let (cpus, degraded) = env.cpus_for(w.jobs);
    let jobs = if degraded { cpus.len() } else { w.jobs };
    sys::pin(cpus).map_err(|e| format!("cannot pin to CPUs {cpus:?}: {e}"))?;

    let started = Instant::now();
    let mut child = Command::new(&env.reproduce)
        .args(w.command("scenario.toml", jobs, "bench.json"))
        .current_dir(&dir)
        .env_clear()
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", env.reproduce.display()))?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout)
        .map_err(|e| io("cannot read the child's output", e))?;
    // wait4, not Child::wait: the child's own rusage comes with the reaping.
    let (exit, usage) = sys::wait_child(child.id()).map_err(|e| io("cannot reap the child", e))?;
    let wall_s = started.elapsed().as_secs_f64();

    let bench = std::fs::read_to_string(dir.join("bench.json"))
        .ok()
        .and_then(|text| BenchOut::parse(&text).ok());
    let fuzz = w
        .fuzz
        .then(|| FuzzOut::parse(&String::from_utf8_lossy(&stdout)).ok())
        .flatten();
    let stderr_text = std::fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
    let lines: Vec<&str> = stderr_text.lines().collect();
    let stderr_tail = lines[lines.len().saturating_sub(5)..].join(" | ");
    std::fs::remove_dir_all(&dir).map_err(|e| io("cannot remove", e))?;
    Ok(Rep {
        wall_s,
        usage,
        exit,
        stdout_fnv: fnv64(&stdout),
        bench,
        fuzz,
        stderr_tail,
    })
}

/// Compare one invocation against what it must reproduce; every mismatch is
/// one located line.  `source` says where `expect` came from.
pub fn check(w: &Workload, label: &str, rep: &Rep, expect: &Pinned, source: &str) -> Vec<String> {
    fn hex(v: u64) -> String {
        format!("{v:016x}")
    }
    // (what, got, expected)
    let mut fields = vec![
        (
            "exit code",
            format!("{:?}", rep.exit),
            "Some(0)".to_string(),
        ),
        (
            "simulated runs",
            rep.runs().to_string(),
            expect.runs.to_string(),
        ),
    ];
    if w.fuzz {
        let findings = rep
            .fuzz
            .map_or("no report".to_string(), |f| f.findings.to_string());
        fields.push(("fuzz findings", findings, "0".to_string()));
    } else {
        let field =
            |f: fn(&BenchOut) -> String| rep.bench.as_ref().map_or("no report".to_string(), f);
        fields.extend([
            (
                "deterministic.total_messages",
                field(|b| b.events.to_string()),
                expect.events.to_string(),
            ),
            (
                "deterministic.total_virtual_seconds_bits",
                field(|b| hex(b.virtual_bits)),
                hex(expect.virtual_bits),
            ),
            (
                "deterministic.checksum_bits_xor",
                field(|b| hex(b.checksum_xor)),
                hex(expect.checksum_xor),
            ),
        ]);
    }
    fields.push(("stdout FNV-64", hex(rep.stdout_fnv), hex(expect.stdout_fnv)));
    let mut diffs: Vec<String> = fields
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| {
            format!(
                "{} {label}: {what} = {got}, expected {want} ({source})",
                w.name
            )
        })
        .collect();
    if rep.exit != Some(0) && !rep.stderr_tail.is_empty() {
        diffs.push(format!("{} {label}: stderr: {}", w.name, rep.stderr_tail));
    }
    diffs
}

/// What `rep` produced, in the shape of a pin: the reference the later reps
/// of a seeded run are held to.  The run count stays the pinned one — the
/// matrix has the same shape under every seed.
fn observed(w: &Workload, rep: &Rep) -> Pinned {
    Pinned {
        runs: w.pinned.runs,
        events: rep.bench.map_or(0, |b| b.events),
        virtual_bits: rep.bench.map_or(0, |b| b.virtual_bits),
        checksum_xor: rep.bench.map_or(0, |b| b.checksum_xor),
        stdout_fnv: rep.stdout_fnv,
    }
}

/// The outcome of one benchmark run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static Workload,
    /// `--seed`.
    pub seed: u64,
    /// Traced run (per-layer metrics) or timed run (end-to-end metrics).
    pub traced: bool,
    /// The measured invocations, in order.
    pub reps: Vec<Rep>,
    /// Seconds each set-up took.
    pub setups: Vec<f64>,
    /// Operations attempted and failed, and why.
    pub tally: Tally,
    /// The host had fewer CPUs than the workload has jobs.
    pub degraded: bool,
    /// The metrics, `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

/// The run's operations — every invocation and every simulated run in it.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One located line per correctness failure.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count `rep` and its simulated runs, failed where `diffs` says so.
    fn count(&mut self, w: &Workload, rep: &Rep, diffs: Vec<String>) {
        let ops = 1 + w.pinned.runs;
        let missing = w.pinned.runs.saturating_sub(rep.runs());
        let findings = rep.fuzz.map_or(0, |f| f.findings);
        let bad = u64::from(!diffs.is_empty()) + missing + findings;
        self.attempted += ops;
        self.failed += bad.min(ops);
        self.problems.extend(diffs);
    }
}

/// One set-up: generate the workload's input from the seed and warm the
/// host with one untimed invocation of the same command at the tiny preset
/// (binary paged in, allocator and thread paths exercised).  Returns the
/// generated scenario.
fn set_up(env: &mut Env, w: &Workload, seed: u64, tally: &mut Tally) -> Result<String, String> {
    let warm_up = invoke(env, w, &w.scenario(seed, "tiny"))?;
    // Only liveness is checked: the tiny twin's statistics are not pinned.
    tally.attempted += 1;
    if warm_up.exit != Some(0) {
        tally.failed += 1;
        tally.problems.push(format!(
            "{} warm-up: exit code {:?}: {}",
            w.name, warm_up.exit, warm_up.stderr_tail
        ));
    }
    Ok(w.scenario(seed, w.preset))
}

/// Run workload `w` at `seed`: set up, then invoke it back to back — a
/// closed loop, one child at a time — until `seconds` have passed (always at
/// least once; a traced run invokes exactly once), checking every rep.
pub fn run(
    env: &mut Env,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let scenario = loop {
        let started = Instant::now();
        let scenario = set_up(env, w, seed, &mut tally)?;
        setups.push(started.elapsed().as_secs_f64());
        let cheap = setups.iter().sum::<f64>() < 1.0;
        if traced || setups.len() >= *SETUPS.end() || (setups.len() >= *SETUPS.start() && !cheap) {
            break scenario;
        }
    };

    let mut reps: Vec<Rep> = Vec::new();
    let mut expect = (w.pinned, "pinned seed 0");
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let rep = invoke(env, w, &scenario)?;
        if seed != 0 && reps.is_empty() {
            // A seeded input has no pinned statistics: the first rep sets
            // them and every later one must repeat it exactly.
            expect = (observed(w, &rep), "rep 1");
        }
        let label = format!("rep {}", reps.len() + 1);
        tally.count(w, &rep, check(w, &label, &rep, &expect.0, expect.1));
        reps.push(rep);
        if traced || Instant::now() >= deadline {
            break;
        }
    }

    let metrics = if traced {
        host_layer_metrics(&reps[0])
    } else {
        end_to_end_metrics(&reps, &setups)
    };
    Ok(Outcome {
        workload: w,
        seed,
        traced,
        reps,
        setups,
        tally,
        degraded: env.cpus_for(w.jobs).1,
        metrics,
    })
}

fn end_to_end_metrics(reps: &[Rep], setups: &[f64]) -> Vec<(String, f64, String)> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let values = [
        med(&|r| r.wall_s),
        med(&|r| r.events() as f64 / r.wall_s),
        med(&Rep::cpu_s),
        // A peak is the highest seen, not the typical: with glibc's
        // per-thread arenas a rep lands in one of two sizes 4 MiB apart, and
        // a median over reps would flip between them from run to run.
        reps.iter().map(|r| r.usage.maxrss_kib).max().unwrap_or(0) as f64 / 1024.0,
        median(setups),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name.to_string(), v, unit.to_string()))
        .collect()
}

fn host_layer_metrics(rep: &Rep) -> Vec<(String, f64, String)> {
    let events = rep.events().max(1) as f64;
    let values = [
        rep.bench.map_or(0.0, |b| rep.wall_s - b.matrix_wall_s),
        rep.usage.sys.as_secs_f64() / rep.cpu_s().max(f64::MIN_POSITIVE),
        rep.usage.nvcsw as f64 / events,
        rep.usage.nivcsw as f64 / events,
        rep.usage.minflt as f64 / rep.runs().max(1) as f64,
        rep.runs() as f64,
        rep.bench.map_or(0.0, |b| b.events as f64),
        rep.bench.map_or(0.0, |b| f64::from_bits(b.virtual_bits)),
    ];
    HOST_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit.to_string()))
        .collect()
}

/// The traced run's second half: build and run `benchmark/layers`, which
/// times calls into each crate's public functions, and return its metrics.
/// An `Err` means the probes are unavailable (say, a library signature
/// changed under them) — the caller reports that and carries on.
pub fn run_layers(env: &Env) -> Result<Vec<(String, f64, String)>, String> {
    let manifest_dir = env.root.join("benchmark/layers");
    let manifest = manifest_dir.join("Cargo.toml");
    if !manifest.is_file() {
        return Err("benchmark/layers is not there".into());
    }
    // The last rep left this process pinned; cargo should have the host.
    sys::pin(&env.host.cpus).map_err(|e| format!("cannot unpin: {e}"))?;
    cargo_build(
        &env.root,
        &["--manifest-path", "benchmark/layers/Cargo.toml"],
    )?;
    let binary = target_dir(&env.root, &manifest_dir).join("release/layers");
    let output = Command::new(&binary)
        .arg(&env.out)
        .current_dir(&env.root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!("{} failed ({})", binary.display(), output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let doc = Json::parse(text.lines().last().unwrap_or_default())?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("layers printed no metrics object")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("layers metric {name} has no value or unit")),
            }
        })
        .collect()
}

impl Outcome {
    /// No operation failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The one JSON object the benchmark contract asks for.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    let m = [
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit.as_str())),
                    ];
                    (name.as_str(), Json::obj(m))
                })),
            ),
        ])
    }

    /// The full record of the run — host, every rep, every metric — as one
    /// line of `benchmark/out/runs.jsonl`, the file `compare` reads.
    pub fn record(&self, env: &Env, seconds: f64) -> Json {
        let reps = self.reps.iter().map(|r| {
            Json::obj([
                ("wall_s", Json::Num(r.wall_s)),
                ("user_s", Json::Num(r.usage.user.as_secs_f64())),
                ("sys_s", Json::Num(r.usage.sys.as_secs_f64())),
                ("maxrss_kib", Json::Num(r.usage.maxrss_kib as f64)),
                ("minflt", Json::Num(r.usage.minflt as f64)),
                ("nvcsw", Json::Num(r.usage.nvcsw as f64)),
                ("nivcsw", Json::Num(r.usage.nivcsw as f64)),
                ("runs", Json::Num(r.runs() as f64)),
                ("events", Json::Num(r.events() as f64)),
                ("stdout_fnv", Json::str(format!("{:016x}", r.stdout_fnv))),
            ])
        });
        let mut fields = vec![
            ("workload".to_string(), Json::str(self.workload.name)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("trace".to_string(), Json::Num(u8::from(self.traced) as f64)),
            ("seconds".to_string(), Json::Num(seconds)),
            ("jobs".to_string(), Json::Num(self.workload.jobs as f64)),
            ("degraded".to_string(), Json::Bool(self.degraded)),
            ("host".to_string(), env.host.to_json()),
            ("build_s".to_string(), Json::Num(env.build_s)),
            ("reps".to_string(), Json::Arr(reps.collect())),
            (
                "setup_s".to_string(),
                Json::Arr(self.setups.iter().map(|&s| Json::Num(s)).collect()),
            ),
            (
                "problems".to_string(),
                Json::Arr(self.tally.problems.iter().map(Json::str).collect()),
            ),
        ];
        if let Json::Obj(contract) = self.contract_line() {
            fields.extend(contract);
        }
        Json::Obj(fields)
    }

    /// Every metric by name with its unit, one per line; timed metrics with
    /// their sample count and quartiles.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} seed {} ({}): {} rep(s), {} of {} operations failed{}\n",
            self.workload.name,
            self.seed,
            if self.traced { "traced" } else { "timed" },
            self.reps.len(),
            self.tally.failed,
            self.tally.attempted,
            if self.degraded {
                " [degraded: fewer CPUs than jobs]"
            } else {
                ""
            }
        );
        for (name, value, unit) in &self.metrics {
            writeln!(out, "  {name:<34} {value:>16.6} {unit}").unwrap();
        }
        if !self.traced {
            let walls: Vec<f64> = self.reps.iter().map(|r| r.wall_s).collect();
            let (q1, q3) = quartiles(&walls);
            writeln!(
                out,
                "  (medians over {} reps; wall_s quartiles {q1:.4} .. {q3:.4}; setup_s over {} set-ups)",
                walls.len(),
                self.setups.len()
            )
            .unwrap();
        }
        for p in &self.tally.problems {
            writeln!(out, "  FAILED {p}").unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    fn clean_rep(w: &Workload) -> Rep {
        Rep {
            wall_s: 2.0,
            usage: Rusage {
                user: Duration::from_millis(1500),
                sys: Duration::from_millis(500),
                maxrss_kib: 2048,
                minflt: 1200,
                nvcsw: 297_386,
                nivcsw: 10,
            },
            exit: Some(0),
            stdout_fnv: w.pinned.stdout_fnv,
            bench: (!w.fuzz).then_some(BenchOut {
                runs: w.pinned.runs,
                events: w.pinned.events,
                virtual_bits: w.pinned.virtual_bits,
                checksum_xor: w.pinned.checksum_xor,
                matrix_wall_s: 1.75,
            }),
            fuzz: w.fuzz.then_some(FuzzOut {
                runs_passed: w.pinned.runs,
                findings: 0,
            }),
            stderr_tail: String::new(),
        }
    }

    #[test]
    fn a_rep_that_reproduces_the_pin_passes_and_counts_every_run() {
        for w in &crate::workloads::WORKLOADS {
            let rep = clean_rep(w);
            assert!(check(w, "rep 1", &rep, &w.pinned, "pinned seed 0").is_empty());
            let mut tally = Tally::default();
            tally.count(w, &rep, Vec::new());
            assert_eq!((tally.attempted, tally.failed), (1 + w.pinned.runs, 0));
        }
    }

    #[test]
    fn every_kind_of_mismatch_is_a_located_failure() {
        let w = by_name("scaled-msg").unwrap();
        let mut rep = clean_rep(w);
        rep.bench.as_mut().unwrap().events += 1;
        rep.stdout_fnv ^= 1;
        let diffs = check(w, "rep 2", &rep, &w.pinned, "pinned seed 0");
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].starts_with("scaled-msg rep 2: deterministic.total_messages = 148694"));
        assert!(diffs[0].ends_with("expected 148693 (pinned seed 0)"));

        let mut dead = clean_rep(w);
        dead.exit = Some(101);
        dead.bench = None;
        dead.stderr_tail = "thread panicked".into();
        let diffs = check(w, "rep 1", &dead, &w.pinned, "pinned seed 0");
        assert!(diffs.iter().any(|d| d.contains("exit code = Some(101)")));
        assert!(diffs.iter().any(|d| d.contains("thread panicked")));
        let mut tally = Tally::default();
        tally.count(w, &dead, diffs);
        assert_eq!((tally.attempted, tally.failed), (13, 13));

        let f = by_name("fuzz-lossy").unwrap();
        let mut found = clean_rep(f);
        found.fuzz = Some(FuzzOut {
            runs_passed: f.pinned.runs - 48,
            findings: 2,
        });
        let diffs = check(f, "rep 1", &found, &f.pinned, "pinned seed 0");
        assert!(diffs
            .iter()
            .any(|d| d.contains("fuzz findings = 2, expected 0")));
        tally.count(f, &found, diffs);
        assert_eq!(tally.failed, 13 + 1 + 48 + 2);
    }

    #[test]
    fn metrics_come_out_in_contract_order_with_their_units() {
        let w = by_name("scaled-msg").unwrap();
        let reps = vec![clean_rep(w), clean_rep(w), clean_rep(w)];
        let e2e = end_to_end_metrics(&reps, &[0.5, 0.25, 0.75]);
        let names: Vec<&str> = e2e.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            ["wall_s", "events_per_s", "cpu_s", "peak_rss_mb", "setup_s"]
        );
        assert_eq!(e2e[0].1, 2.0);
        assert_eq!(e2e[1].1, 148_693.0 / 2.0);
        assert_eq!(e2e[2].1, 2.0);
        assert_eq!(e2e[3].1, 2.0);
        assert_eq!(e2e[4], ("setup_s".to_string(), 0.5, "s".to_string()));

        let layer = host_layer_metrics(&reps[0]);
        let get = |n: &str| layer.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("bench.overhead_s"), 0.25);
        assert_eq!(get("host.sys_share"), 0.25);
        assert_eq!(get("host.vcsw_per_event"), 2.0);
        assert_eq!(get("host.minflt_per_run"), 100.0);
        assert_eq!(get("count.runs"), 12.0);
        assert_eq!(
            get("count.virtual_s"),
            f64::from_bits(w.pinned.virtual_bits)
        );
    }
}
