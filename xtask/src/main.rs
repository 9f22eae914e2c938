//! Repository automation tasks.  `lint` is a static source analysis
//! enforcing the determinism discipline the simulation depends on, run by
//! the CI lint job next to rustfmt and clippy; `loc` is the non-test line
//! count ROADMAP.md's budgets are written in.
//!
//! ```text
//! cargo run -p xtask -- lint            # lint the workspace
//! cargo run -p xtask -- lint --root DIR # lint another tree (used by CI's
//!                                       # seeded-violation check)
//! cargo run -p xtask -- loc             # non-test lines per crate, the
//!                                       # apps + bench + cluster sum, the
//!                                       # two budgets and their margins,
//!                                       # and the five largest files; exits
//!                                       # 1 when crates/cluster is over its
//!                                       # budget (the sum's is report-only)
//! ```
//!
//! A file's non-test lines are the lines above its column-0 `#[cfg(test)]`
//! `mod tests` pair (the whole file if it has none) — comments and blank
//! lines included, a `#[cfg(test)]` item further up not mistaken for the end.
//!
//! ## Rules
//!
//! **Determinism hazards** (`HashMap`/`HashSet` with their hash-ordered
//! iteration, `Instant::now`, `SystemTime`, `thread_rng`/`rand::`) are
//! forbidden outright in the simulation crates `crates/core`,
//! `crates/cluster` and `crates/msgpass`: every byte of their output must be
//! a pure function of the configuration, so there is no justifiable use and
//! no allow marker is honoured there.
//!
//! In the host-side crates `crates/apps` and `crates/bench` the hash
//! containers and RNG rules still apply (checksums and tables must be
//! byte-stable), but *wall-clock reads* are legitimate when they measure
//! this machine's own execution (benchmark throughput, `--bench-out`
//! timing).  Those sites must carry a justification marker on the same line
//! or in the comment block immediately above:
//!
//! ```text
//! // lint:allow(wall-clock): measures this machine's throughput
//! let started = Instant::now();
//! ```
//!
//! **Annotated unsynchronized reads** (`*_unsync(...)` heap accessors, the
//! race detector's benign-race escape hatch) must likewise carry a
//! `lint:allow(unsync-read): <why the race is harmless>` marker at every
//! call site in the host crates.
//!
//! **Thread confinement**: OS threads decide nothing in this engine — every
//! simulated byte is fixed before any interleaving can observe it — and
//! that only stays true while threading is confined to the executor layer:
//! `crates/bench/src/exec.rs` (the host-side fan of whole runs).  Spawn
//! tokens (`std::thread`, `thread::spawn`, `thread::scope`, `rayon`)
//! anywhere else in the linted crates need a `lint:allow(threads): <reason>`
//! marker, so a future PR cannot quietly grow a thread that races the
//! determinism discipline.  One engine site carries one:
//! `crates/cluster/src/lib.rs` spawns a run's hosting thread.
//!
//! **Unsafe confinement**: `unsafe`, `asm!` and `extern "C"` are findings in
//! every linted crate outside `crates/cluster/src/coro.rs` — the context
//! switch and the stack mappings of the engine's coroutines, whose
//! `SAFETY` comments are the whole audit surface.  No marker is honoured.
//!
//! **A run holds no lock**: a run's ranks are coroutines on one thread, so
//! nothing inside a run is concurrent and the engine's state is a `RefCell`.
//! In `crates/cluster` the lock tokens (`Mutex`, `RwLock`, `Condvar`,
//! `parking_lot`) are findings outside `crates/cluster/src/coro.rs`, whose
//! idle-stack pool is process-wide and shared by the runs of every `--jobs`
//! worker.  No marker is honoured.
//!
//! **Memo confinement**: in `crates/apps` the tokens for process state that
//! outlives a run (`Mutex`, `RwLock`, `OnceLock`, `LazyLock`, `Atomic`,
//! `static mut`, `thread_local!`) are findings outside
//! `crates/apps/src/memo.rs`, and no marker is honoured.  That file's
//! contract is what makes such state harmless: a memoised value is a pure
//! function of its key, and the key carries every input the kernel reads.
//!
//! **PRNG confinement**: the deterministic generator `SplitMix64` lives in
//! `crates/cluster/src/fault.rs`, where every stream is split from the
//! fault plan's root seed so that (scenario, seed) pins every draw.  Any
//! use of the token outside that file — simulation and host crates alike —
//! needs a `lint:allow(prng): <reason>` marker, so ad-hoc generators can't
//! grow randomness outside the seed discipline.  (Unlike `thread_rng`,
//! `SplitMix64` is deterministic, so justified uses exist — test drivers
//! feeding pseudo-random transition sequences — and the marker is honoured
//! even in the simulation crates.)
//!
//! **Probe-kept delegations**: `Tmk::read_f64`/`write_f64`/`read_i64`/
//! `write_i64` and `SendBuffer::pack_f64`/`RecvBuffer::unpack_f64` are
//! one-line delegations to the generic accessors, kept only because
//! `benchmark/layers`' probes call them.  A call to any of them in the
//! linted crates (anywhere but its own `fn` line) is a finding, and no
//! marker is honoured, so they stay probe-only until the probes go.
//!
//! A marker must carry a non-empty reason after its colon; a bare
//! `lint:allow(wall-clock):` is itself a finding.  Doc and line comments
//! are stripped before token matching, so prose *about* a hazard never
//! trips the linter.

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose output must be a pure function of the configuration: no
/// hazard is justifiable, no allow marker is honoured.
const SIM_CRATES: [&str; 3] = ["crates/core", "crates/cluster", "crates/msgpass"];

/// Host-side crates: hazards still apply, but wall-clock reads (and
/// annotated unsynchronized reads) are allowed with a justification marker.
const HOST_CRATES: [&str; 2] = ["crates/apps", "crates/bench"];

/// One rule violation at one source line.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Finding {
    file: PathBuf,
    line: usize,
    msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file.display(), self.line, self.msg)
    }
}

/// The hazard tokens and the marker rule (if any) that can justify them in
/// the host crates.  In simulation crates every one is a hard error.
const HAZARDS: [(&str, Option<&str>); 6] = [
    ("HashMap", None),
    ("HashSet", None),
    ("Instant::now", Some("wall-clock")),
    ("SystemTime", Some("wall-clock")),
    ("thread_rng", None),
    ("rand::", None),
];

/// The executor layer: the only files where spawning OS threads is
/// legitimate without a marker.  Everywhere else a spawn token needs
/// `lint:allow(threads): <reason>`.
const THREAD_FILES: [&str; 1] = ["crates/bench/src/exec.rs"];

/// The coroutine file: the one file that may contain the [`UNSAFE_TOKENS`],
/// and the one file in `crates/cluster` that may contain the [`LOCK_TOKENS`].
const CORO_FILE: &str = "crates/cluster/src/coro.rs";

/// Tokens that leave the language's checked subset (`asm!` also matches
/// `naked_asm!` and `global_asm!`).
const UNSAFE_TOKENS: [&str; 3] = ["unsafe", "asm!", "extern \"C\""];

/// Tokens that name a lock, or the crate that provides one.
const LOCK_TOKENS: [&str; 4] = ["Mutex", "RwLock", "Condvar", "parking_lot"];

/// The one file in `crates/apps` that may contain the [`PROCESS_STATE_TOKENS`].
const MEMO_FILE: &str = "crates/apps/src/memo.rs";

/// Tokens that name state shared between, or outliving, the runs of a process.
const PROCESS_STATE_TOKENS: [&str; 7] = [
    "Mutex",
    "RwLock",
    "OnceLock",
    "LazyLock",
    "Atomic",
    "static mut",
    "thread_local!",
];

/// Delegations kept only for `benchmark/layers`' probes: no call site in the
/// linted crates may name them.
const PROBE_KEPT: [&str; 6] = [
    "read_f64",
    "write_f64",
    "read_i64",
    "write_i64",
    "pack_f64",
    "unpack_f64",
];

/// The probe-kept delegation `code` calls, if any: `name(` not preceded by
/// an identifier character (`unpack_f64(` is no `pack_f64(` call) or by the
/// `fn ` of its definition.
fn probe_kept_call(code: &str) -> Option<&'static str> {
    PROBE_KEPT.into_iter().find(|name| {
        code.match_indices(&format!("{name}(")).any(|(i, _)| {
            let before = &code[..i];
            !before.ends_with(|c: char| c.is_alphanumeric() || c == '_') && !before.ends_with("fn ")
        })
    })
}

/// Tokens that spawn (or name machinery that spawns) OS threads.  Ordered
/// longest-prefix first so the reported token is the most specific match.
const THREAD_TOKENS: [&str; 4] = ["std::thread", "thread::spawn", "thread::scope", "rayon"];

fn is_under(rel: &Path, roots: &[&str]) -> bool {
    roots.iter().any(|r| rel.starts_with(r))
}

/// The line with any `//` comment removed, so tokens in prose (doc
/// comments, trailing notes) are never matched.  Cheap and slightly
/// over-eager (a `//` inside a string literal also truncates), which only
/// makes the linter more lenient, never false-positive.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// True if line `idx` (0-based) is justified for `rule`: a
/// `lint:allow(<rule>): <non-empty reason>` marker on the line itself or in
/// the contiguous comment block immediately above it.
fn has_marker(lines: &[&str], idx: usize, rule: &str) -> bool {
    let tag = format!("lint:allow({rule}):");
    let carries = |line: &str| {
        line.find(&tag)
            .map(|i| !line[i + tag.len()..].trim().is_empty())
            .unwrap_or(false)
    };
    if carries(lines[idx]) {
        return true;
    }
    let mut k = idx;
    while k > 0 && lines[k - 1].trim_start().starts_with("//") {
        k -= 1;
        if carries(lines[k]) {
            return true;
        }
    }
    false
}

/// Lint one file's contents; `rel` is its path relative to the tree root.
fn lint_source(rel: &Path, text: &str, findings: &mut Vec<Finding>) {
    let sim = is_under(rel, &SIM_CRATES);
    let host = is_under(rel, &HOST_CRATES);
    let lines: Vec<&str> = text.lines().collect();
    let mut push = |line: usize, msg: String| {
        findings.push(Finding {
            file: rel.to_path_buf(),
            line: line + 1,
            msg,
        })
    };
    for (i, &raw) in lines.iter().enumerate() {
        let code = code_part(raw);
        if (sim || host) && !code.trim().is_empty() {
            for (token, marker) in HAZARDS {
                if !code.contains(token) {
                    continue;
                }
                match marker {
                    Some(rule) if host => {
                        if !has_marker(&lines, i, rule) {
                            push(
                                i,
                                format!(
                                    "`{token}` needs a `lint:allow({rule}): <reason>` marker \
                                     (same line or the comment block above)"
                                ),
                            );
                        }
                    }
                    _ => push(
                        i,
                        format!(
                            "determinism hazard `{token}` is forbidden in {} crates",
                            if sim { "simulation" } else { "host" }
                        ),
                    ),
                }
            }
            if code.contains("SplitMix64")
                && rel != Path::new("crates/cluster/src/fault.rs")
                && !has_marker(&lines, i, "prng")
            {
                push(
                    i,
                    "`SplitMix64` outside crates/cluster/src/fault.rs needs a \
                     `lint:allow(prng): <reason>` marker: seeded randomness is confined \
                     to the fault plan's split streams"
                        .to_string(),
                );
            }
            if !THREAD_FILES.iter().any(|f| rel == Path::new(f)) {
                // One finding per line even when several tokens overlap
                // (`thread::spawn` is a substring of `std::thread::spawn`).
                if let Some(token) = THREAD_TOKENS.iter().find(|t| code.contains(*t)) {
                    if !has_marker(&lines, i, "threads") {
                        push(
                            i,
                            format!(
                                "`{token}` spawns OS threads outside the executor layer \
                                 ({}); move the threading there or justify with a \
                                 `lint:allow(threads): <reason>` marker",
                                THREAD_FILES.join(", ")
                            ),
                        );
                    }
                }
            }
            if rel != Path::new(CORO_FILE) {
                if let Some(token) = UNSAFE_TOKENS.iter().find(|t| code.contains(*t)) {
                    push(
                        i,
                        format!(
                            "`{token}` outside {CORO_FILE}: unchecked code is confined to \
                             that file, and no marker lifts this"
                        ),
                    );
                }
            }
            if rel.starts_with("crates/cluster") && rel != Path::new(CORO_FILE) {
                if let Some(token) = LOCK_TOKENS.iter().find(|t| code.contains(*t)) {
                    push(
                        i,
                        format!(
                            "`{token}` outside {CORO_FILE}: a run is one thread and holds no \
                             lock (only the process-wide stack pool does), and no marker \
                             lifts this"
                        ),
                    );
                }
            }
            if rel.starts_with("crates/apps") && rel != Path::new(MEMO_FILE) {
                if let Some(token) = PROCESS_STATE_TOKENS.iter().find(|t| code.contains(*t)) {
                    push(
                        i,
                        format!(
                            "`{token}` outside {MEMO_FILE}: state that outlives a run is \
                             confined to the kernel memo, and no marker lifts this"
                        ),
                    );
                }
            }
            if let Some(name) = probe_kept_call(code) {
                push(
                    i,
                    format!(
                        "`{name}` is kept only for benchmark/layers' probes: call the \
                         generic `read`/`write`/`pack`/`unpack`, and no marker lifts this"
                    ),
                );
            }
            if host && code.contains("_unsync(") && !has_marker(&lines, i, "unsync-read") {
                push(
                    i,
                    "annotated unsynchronized read needs a `lint:allow(unsync-read): <reason>` \
                     marker (same line or the comment block above)"
                        .to_string(),
                );
            }
        }
    }
}

/// Every `.rs` file under the linted crate roots of `root`, lexicographically
/// sorted so the report (and CI diff of it) is deterministic.
fn rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for crate_root in SIM_CRATES.iter().chain(HOST_CRATES.iter()) {
        let dir = root.join(crate_root);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    Ok(out)
}

/// Lint the workspace tree at `root`, returning every finding sorted by
/// (file, line).
fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in rust_files(root)? {
        let text = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        lint_source(&rel, &text, &mut findings);
    }
    findings.sort();
    Ok(findings)
}

/// Lines of `text` above its `#[cfg(test)]` + `mod tests` pair at column 0;
/// all of them if it has none.
fn non_test_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    lines
        .windows(2)
        .position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod tests"))
        .unwrap_or(lines.len())
}

/// ROADMAP.md's non-test line budget for `crates/cluster`; `loc` fails
/// past it.
const CLUSTER_BUDGET: usize = 4_000;

/// The `loc` report for the tree at `root`: one row per linted crate (its
/// `src/` only — integration tests and benches are not production lines),
/// the tracked sum of the apps, bench and cluster rows, ROADMAP.md's two
/// budgets (cluster, and that sum) with each one's margin, then the five
/// largest files.  The flag is true when `crates/cluster` is over its
/// budget.
fn loc_report(root: &Path) -> std::io::Result<(String, bool)> {
    use std::fmt::Write as _;
    let crates: Vec<&str> = SIM_CRATES.iter().chain(&HOST_CRATES).copied().collect();
    let mut files = Vec::new();
    for path in rust_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if crates
            .iter()
            .any(|c| rel.starts_with(Path::new(c).join("src")))
        {
            files.push((non_test_lines(&std::fs::read_to_string(&path)?), rel));
        }
    }
    let mut out = String::new();
    let (mut tracked, mut cluster) = (0, 0);
    for crate_root in crates {
        let in_crate = files.iter().filter(|(_, rel)| rel.starts_with(crate_root));
        let total: usize = in_crate.map(|(lines, _)| lines).sum();
        let _ = writeln!(out, "{total:>6}  {crate_root}");
        if ["crates/apps", "crates/bench", "crates/cluster"].contains(&crate_root) {
            tracked += total;
        }
        if crate_root == "crates/cluster" {
            cluster = total;
        }
    }
    let _ = writeln!(out, "{tracked:>6}  apps + bench + cluster");
    let _ = writeln!(out, "budgets:");
    for (label, lines, budget) in [
        ("crates/cluster", cluster, CLUSTER_BUDGET),
        ("apps + bench + cluster", tracked, 10_000),
    ] {
        let margin = if lines > budget {
            format!("{} over", lines - budget)
        } else {
            format!("{} under", budget - lines)
        };
        let _ = writeln!(out, "{budget:>6}  {label}: {margin}");
    }
    files.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let _ = writeln!(out, "five largest files:");
    for (lines, rel) in files.iter().take(5) {
        let _ = writeln!(out, "{lines:>6}  {}", rel.display());
    }
    Ok((out, cluster > CLUSTER_BUDGET))
}

fn usage() -> ! {
    eprintln!("usage: cargo run -p xtask -- <lint|loc> [--root DIR]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = match args.first().map(String::as_str) {
        Some(task @ ("lint" | "loc")) => task,
        _ => usage(),
    };
    let root = match args.get(1).map(String::as_str) {
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask lives one level below the workspace root")
            .to_path_buf(),
        Some("--root") => match args.get(2) {
            Some(dir) if args.len() == 3 => PathBuf::from(dir),
            _ => usage(),
        },
        Some(_) => usage(),
    };
    let unreadable = |e: std::io::Error| -> ! {
        eprintln!("xtask {task}: cannot read {}: {e}", root.display());
        std::process::exit(2);
    };
    if task == "loc" {
        let (report, cluster_over) = loc_report(&root).unwrap_or_else(|e| unreadable(e));
        print!("{report}");
        if cluster_over {
            eprintln!("xtask loc: crates/cluster is over its {CLUSTER_BUDGET}-line budget");
            std::process::exit(1);
        }
        return;
    }
    let findings = lint_tree(&root).unwrap_or_else(|e| unreadable(e));
    if findings.is_empty() {
        println!("xtask lint: clean ({} ok)", root.display());
        return;
    }
    for f in &findings {
        println!("{f}");
    }
    eprintln!("xtask lint: {} finding(s)", findings.len());
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch tree under the system temp dir, removed on drop.
    struct Tree(PathBuf);

    impl Tree {
        fn new(case: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("xtask-lint-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Tree(dir)
        }

        fn write(&self, rel: &str, text: &str) {
            let path = self.0.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }

        fn lint(&self) -> Vec<Finding> {
            lint_tree(&self.0).unwrap()
        }
    }

    impl Drop for Tree {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn hash_containers_are_forbidden_in_simulation_crates() {
        let t = Tree::new("sim-hash");
        t.write(
            "crates/core/src/bad.rs",
            "use std::collections::HashMap;\nfn f() { let _: HashSet<u32>; }\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].msg.contains("HashMap"));
        assert_eq!(f[0].line, 1);
        assert!(f[1].msg.contains("HashSet"));
    }

    #[test]
    fn wall_clock_in_sim_crates_has_no_marker_escape() {
        let t = Tree::new("sim-clock");
        t.write(
            "crates/msgpass/src/bad.rs",
            "// lint:allow(wall-clock): markers are not honoured here\n\
             fn f() { let _ = std::time::Instant::now(); }\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("forbidden in simulation crates"));
    }

    #[test]
    fn wall_clock_in_host_crates_wants_a_reasoned_marker() {
        let t = Tree::new("host-clock");
        t.write(
            "crates/bench/src/a.rs",
            "fn f() { let _ = Instant::now(); }\n",
        );
        t.write(
            "crates/bench/src/b.rs",
            "// lint:allow(wall-clock):\nfn f() { let _ = Instant::now(); }\n",
        );
        t.write(
            "crates/bench/src/c.rs",
            "// lint:allow(wall-clock): times this machine\nfn f() { let _ = Instant::now(); }\n",
        );
        t.write(
            "crates/bench/src/d.rs",
            "fn f() { let _ = Instant::now(); } // lint:allow(wall-clock): same-line form\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.file.ends_with("a.rs")), "unmarked site");
        assert!(f.iter().any(|f| f.file.ends_with("b.rs")), "empty reason");
    }

    #[test]
    fn comment_prose_about_hazards_is_ignored() {
        let t = Tree::new("prose");
        t.write(
            "crates/core/src/doc.rs",
            "/// Unlike a HashMap, a BTreeMap iterates deterministically.\n\
             // SystemTime would break replay.\nfn f() {}\n",
        );
        assert!(t.lint().is_empty());
    }

    #[test]
    fn unsync_reads_want_a_marker_in_host_crates() {
        let t = Tree::new("unsync");
        t.write(
            "crates/apps/src/a.rs",
            "fn f(t: &Tmk) { let _ = t.read_f64_unsync(0); }\n",
        );
        t.write(
            "crates/apps/src/b.rs",
            "fn f(t: &Tmk) {\n    // lint:allow(unsync-read): stale reads only weaken pruning\n    \
             // and the update re-checks under the lock.\n    let _ = t.read_f64_unsync(0);\n}\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].file.ends_with("a.rs"));
        assert!(f[0].msg.contains("unsync-read"));
    }

    #[test]
    fn probe_kept_delegations_have_no_callers() {
        let t = Tree::new("probe-kept");
        // The definitions themselves, and names that merely contain one.
        t.write(
            "crates/msgpass/src/buffer.rs",
            "pub fn pack_f64(&mut self, vals: &[f64]) { self.pack(vals) }\n\
             pub fn unpack_f64(&mut self, n: usize) -> Vec<f64> { self.unpack(n) }\n",
        );
        t.write(
            "crates/apps/src/tsp.rs",
            "// lint:allow(unsync-read): an annotated read, not a delegation\n\
             fn f(t: &Tmk) { let _ = t.read_f64_unsync(0); let _ = t.read::<f64>(0); }\n",
        );
        // Every call is a finding, marker or not, in any linted crate.
        t.write(
            "crates/apps/src/ep.rs",
            "fn f(t: &Tmk) { t.write_i64(0, 1); }\n\
             // lint:allow(probe-kept): markers are not honoured\n\
             fn g(b: &mut SendBuffer) { b.pack_f64(&[1.0]); }\n",
        );
        t.write(
            "crates/core/src/lib.rs",
            "fn f(t: &Tmk) -> f64 { Tmk::read_f64(t, 0) }\n\
             fn g(r: &mut RecvBuffer) { r.unpack_f64(1); }\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 4, "{f:#?}");
        assert!(f.iter().all(|f| f.msg.contains("benchmark/layers")));
        for (file, line, name) in [
            ("ep.rs", 1, "`write_i64`"),
            ("ep.rs", 3, "`pack_f64`"),
            ("lib.rs", 1, "`read_f64`"),
            ("lib.rs", 2, "`unpack_f64`"),
        ] {
            assert!(
                f.iter()
                    .any(|f| f.file.ends_with(file) && f.line == line && f.msg.starts_with(name)),
                "{file}:{line}: {f:#?}"
            );
        }
    }

    #[test]
    fn splitmix_outside_the_fault_module_wants_a_prng_marker() {
        let t = Tree::new("prng");
        // Home of the generator: exempt.
        t.write(
            "crates/cluster/src/fault.rs",
            "pub struct SplitMix64 { state: u64 }\n",
        );
        // Unmarked use elsewhere, even in a sim crate: a finding.
        t.write(
            "crates/cluster/src/rogue.rs",
            "fn f() { let _ = crate::fault::SplitMix64::seeded(1); }\n",
        );
        // Marked use with a reason: fine, in sim and host crates alike.
        t.write(
            "crates/cluster/src/driver.rs",
            "// lint:allow(prng): deterministic test transition sequence\n\
             fn f() { let _ = crate::fault::SplitMix64::seeded(1); }\n",
        );
        t.write(
            "crates/bench/src/mixer.rs",
            "fn f() { let _ = cluster::SplitMix64::seeded(2); } \
             // lint:allow(prng): seeded, same-line form\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].file.ends_with("rogue.rs"));
        assert!(f[0].msg.contains("prng"));
    }

    #[test]
    fn thread_spawns_are_confined_to_the_executor_layer() {
        let t = Tree::new("threads");
        // The executor layer itself: exempt, no marker needed.
        t.write(
            "crates/bench/src/exec.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        // Rogue spawns elsewhere: findings, one per line, across every
        // spawn token.
        t.write(
            "crates/cluster/src/rogue.rs",
            "fn f() { std::thread::spawn(|| {}); }\nfn g() { rayon::join(|| {}, || {}); }\n",
        );
        t.write(
            "crates/core/src/rogue.rs",
            "use std::thread;\nfn f() { thread::scope(|s| { let _ = s; }); }\n",
        );
        // A marked site with a reason: honoured.
        t.write(
            "crates/cluster/src/justified.rs",
            "// lint:allow(threads): the cluster's own per-process threads\n\
             fn f() { std::thread::scope(|s| { let _ = s; }); }\n",
        );
        // An empty reason is itself a finding.
        t.write(
            "crates/cluster/src/bare.rs",
            "fn f() { std::thread::spawn(|| {}); } // lint:allow(threads):\n",
        );
        // The engine's files are no longer exempt: its ranks are coroutines.
        t.write(
            "crates/cluster/src/net.rs",
            "fn f() { std::thread::park(); }\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 6, "{f:#?}");
        assert!(f.iter().all(|f| f.msg.contains("executor layer")), "{f:#?}");
        assert!(f.iter().any(|f| f.file.ends_with("bare.rs")));
        assert!(f.iter().any(|f| f.file.ends_with("net.rs")));
        assert_eq!(
            f.iter()
                .filter(|f| f.file.ends_with("cluster/src/rogue.rs"))
                .count(),
            2
        );
        assert_eq!(
            f.iter()
                .filter(|f| f.file.ends_with("core/src/rogue.rs"))
                .count(),
            2,
            "`use std::thread` and `thread::scope` are both spawn tokens"
        );
    }

    #[test]
    fn unchecked_code_is_confined_to_the_coroutine_file() {
        let t = Tree::new("unsafe");
        // Home of the context switch: exempt.
        t.write(
            "crates/cluster/src/coro.rs",
            "extern \"C\" { fn mmap(); }\n#[unsafe(naked)]\nunsafe extern \"C\" fn switch() \
             { core::arch::naked_asm!(\"ret\") }\n",
        );
        // Anywhere else, simulation and host crates alike, each token is a
        // finding (one per line), and a marker does not lift it.
        t.write(
            "crates/cluster/src/net.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        t.write(
            "crates/core/src/page.rs",
            "// lint:allow(unsafe): markers are not honoured\n\
             fn f() { unsafe { core::arch::asm!(\"nop\") } }\n",
        );
        t.write(
            "crates/bench/src/exec.rs",
            "extern \"C\" { fn sched_setaffinity(); }\n",
        );
        t.write(
            "crates/apps/src/ep.rs",
            "fn f() { core::arch::asm!(\"nop\"); }\n",
        );
        // Prose about it is not code.
        t.write(
            "crates/msgpass/src/lib.rs",
            "//! No unsafe code here.\nfn f() {}\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 4, "{f:#?}");
        assert!(f
            .iter()
            .all(|f| f.msg.contains("outside crates/cluster/src/coro.rs")));
        for (file, token) in [
            ("net.rs", "`unsafe`"),
            ("page.rs", "`unsafe`"),
            ("exec.rs", "`extern \"C\"`"),
            ("ep.rs", "`asm!`"),
        ] {
            assert!(
                f.iter()
                    .any(|f| f.file.ends_with(file) && f.msg.starts_with(token)),
                "{file}: {f:#?}"
            );
        }
    }

    #[test]
    fn process_state_in_apps_is_confined_to_the_memo_file() {
        let t = Tree::new("memo");
        // Home of the memo: exempt.
        t.write(
            "crates/apps/src/memo.rs",
            "use std::sync::Mutex;\npub struct Memo<K, V>(Mutex<(K, V)>);\n",
        );
        // A memo declared beside its kernel names none of the tokens.
        t.write(
            "crates/apps/src/ep.rs",
            "static TABULATED: Memo<u64, u64> = Memo::new();\n",
        );
        // Anywhere else in apps each token is a finding, marker or not.
        t.write(
            "crates/apps/src/tsp.rs",
            "// lint:allow(memo): markers are not honoured\n\
             static CACHE: std::sync::Mutex<Vec<u8>> = std::sync::Mutex::new(Vec::new());\n\
             static HITS: AtomicU64 = AtomicU64::new(0);\nstatic mut BEST: f64 = 0.0;\n\
             thread_local! { static T: u8 = 0; }\nstatic L: OnceLock<u8> = OnceLock::new();\n",
        );
        // The rule is about apps: the executor keeps its locks.
        t.write(
            "crates/bench/src/exec.rs",
            "use std::sync::Mutex;\nuse std::sync::atomic::AtomicUsize;\n",
        );
        let f = t.lint();
        assert_eq!(f.len(), 5, "{f:#?}");
        assert!(f.iter().all(|f| f.file.ends_with("tsp.rs")), "{f:#?}");
        assert!(f
            .iter()
            .all(|f| f.msg.contains("outside crates/apps/src/memo.rs")));
        for (line, token) in [
            (2, "`Mutex`"),
            (3, "`Atomic`"),
            (4, "`static mut`"),
            (5, "`thread_local!`"),
            (6, "`OnceLock`"),
        ] {
            assert!(
                f.iter().any(|f| f.line == line && f.msg.starts_with(token)),
                "line {line}: {f:#?}"
            );
        }
    }

    #[test]
    fn locks_in_the_engine_are_confined_to_the_coroutine_file() {
        let t = Tree::new("lock");
        // Home of the process-wide stack pool: exempt.
        t.write(
            "crates/cluster/src/coro.rs",
            "use std::sync::Mutex;\nstatic POOL: Mutex<Vec<usize>> = Mutex::new(Vec::new());\n",
        );
        // Anywhere else in the engine each token is a finding, marker or not.
        t.write(
            "crates/cluster/src/net.rs",
            "// lint:allow(lock): markers are not honoured\n\
             struct Core { state: std::sync::Mutex<u8> }\nuse parking_lot::RwLock;\n\
             static WAKE: std::sync::Condvar = std::sync::Condvar::new();\n",
        );
        // The rule is about the engine: the executor and the memo keep theirs.
        t.write(
            "crates/bench/src/exec.rs",
            "use std::sync::{Condvar, Mutex};\n",
        );
        t.write("crates/apps/src/memo.rs", "use std::sync::Mutex;\n");
        let f = t.lint();
        assert_eq!(f.len(), 3, "{f:#?}");
        assert!(f.iter().all(|f| f.file.ends_with("cluster/src/net.rs")));
        assert!(f
            .iter()
            .all(|f| f.msg.contains("outside crates/cluster/src/coro.rs")));
        for (line, token) in [(2, "`Mutex`"), (3, "`RwLock`"), (4, "`Condvar`")] {
            assert!(
                f.iter().any(|f| f.line == line && f.msg.starts_with(token)),
                "line {line}: {f:#?}"
            );
        }
    }

    #[test]
    fn non_test_lines_stop_at_the_tests_module_not_at_a_test_only_item() {
        let text = "//! Doc.\n#[cfg(test)]\nconst LIMIT: u64 = 1;\nfn f() {}\n\n\
                    #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(text), 5);
        assert_eq!(non_test_lines("fn f() {}\nfn g() {}\n"), 2);
    }

    #[test]
    fn loc_reports_every_crate_and_the_largest_files_first() {
        let t = Tree::new("loc");
        t.write("crates/cluster/src/a.rs", &"fn a() {}\n".repeat(4_000));
        t.write(
            "crates/cluster/src/b.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n}\n",
        );
        t.write("crates/cluster/tests/it.rs", "fn not_production() {}\n");
        t.write("crates/bench/src/lib.rs", "fn f() {}\nfn g() {}\n");
        let (report, _) = loc_report(&t.0).unwrap();
        let rows: Vec<&str> = report.lines().collect();
        assert_eq!(
            rows,
            [
                "     0  crates/core",
                "  4001  crates/cluster",
                "     0  crates/msgpass",
                "     0  crates/apps",
                "     2  crates/bench",
                "  4003  apps + bench + cluster",
                "budgets:",
                "  4000  crates/cluster: 1 over",
                " 10000  apps + bench + cluster: 5997 under",
                "five largest files:",
                "  4000  crates/cluster/src/a.rs",
                "     2  crates/bench/src/lib.rs",
                "     1  crates/cluster/src/b.rs",
            ]
        );
    }

    #[test]
    fn loc_fails_only_past_the_cluster_budget() {
        let t = Tree::new("loc-budget");
        t.write("crates/cluster/src/a.rs", &"fn a() {}\n".repeat(4_000));
        // The sum's budget is report-only: 7,000 more lines elsewhere put it
        // over without failing.
        t.write("crates/apps/src/a.rs", &"fn a() {}\n".repeat(7_000));
        let (report, cluster_over) = loc_report(&t.0).unwrap();
        assert!(!cluster_over, "{report}");
        assert!(
            report.contains("  4000  crates/cluster: 0 under\n"),
            "{report}"
        );
        assert!(
            report.contains("apps + bench + cluster: 1000 over\n"),
            "{report}"
        );
        t.write("crates/cluster/src/b.rs", "fn b() {}\n");
        let (report, cluster_over) = loc_report(&t.0).unwrap();
        assert!(cluster_over, "{report}");
        assert!(
            report.contains("  4000  crates/cluster: 1 over\n"),
            "{report}"
        );
    }

    #[test]
    fn findings_are_sorted_by_file_then_line() {
        let t = Tree::new("sorted");
        t.write(
            "crates/core/src/z.rs",
            "fn f() { let _: HashMap<u32, u32>; }\n",
        );
        t.write(
            "crates/core/src/a.rs",
            "fn f() {}\nfn g() { let _: HashSet<u32>; }\nfn h() { thread_rng(); }\n",
        );
        let f = t.lint();
        let order: Vec<(String, usize)> = f
            .iter()
            .map(|f| (f.file.display().to_string(), f.line))
            .collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn the_real_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let f = lint_tree(root).unwrap();
        assert!(f.is_empty(), "lint findings in the tree: {f:#?}");
    }
}
