//! The `reproduce` binary from outside: stdout of representative
//! invocations pinned by FNV-1a 64 (each recorded with the binary before a
//! refactor touched its path, so any drift in a rendered byte fails here),
//! the kernel memo's exact counters, a reader that closes
//! the pipe early, and the command-line rejections that must reach stderr
//! without running anything.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary runs")
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_stdout_hash(args: &[&str], want: u64) {
    assert_exit_and_stdout_hash(args, 0, want);
}

fn assert_exit_and_stdout_hash(args: &[&str], code: i32, want: u64) {
    let out = reproduce(args);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
    assert_eq!(
        fnv1a64(&out.stdout),
        want,
        "{args:?}: stdout drifted from the pinned bytes"
    );
}

#[test]
fn the_tiny_reproduction_renders_the_pinned_bytes() {
    assert_stdout_hash(&["--tiny", "--jobs", "2"], 0xf9c4_8187_a993_9bfe);
}

#[test]
fn the_tiny_json_dump_renders_the_pinned_bytes() {
    assert_stdout_hash(&["--tiny", "--json"], 0xce4e_e950_2775_f575);
}

/// Re-pinned once, in PR 22, which retired a sweep axis and two execution
/// knobs: the sweep-axes and execution-knobs lines are the only bytes that
/// moved.
#[test]
fn the_catalogue_renders_the_pinned_bytes() {
    assert_stdout_hash(&["--list"], 0x8271_5822_5c84_4c9c);
    assert_stdout_hash(&["--list", "--json"], 0xfc17_2e73_3cbb_c8a2);
}

#[test]
fn a_procs_sweep_renders_the_pinned_bytes() {
    assert_stdout_hash(
        &["sweep", "--vary", "procs", "--tiny", "--workload", "EP"],
        0xc20d_a129_8ace_9a06,
    );
}

#[test]
fn the_network_sweeps_render_the_pinned_bytes() {
    for (axis, want) in [
        ("bandwidth", 0x556e_25d9_a8a6_3264),
        ("latency", 0xe295_7a3d_b298_4631),
    ] {
        let args = ["sweep", "--vary", axis, "--tiny", "--workload", "EP"];
        assert_stdout_hash(&args, want);
    }
}

/// The one pinned run past eight ranks: every grant and barrier release fans
/// interval records out to 63 peers, and diff accumulation spreads each
/// diff over many holders.
#[test]
fn a_sixty_four_rank_table_renders_the_pinned_bytes() {
    assert_stdout_hash(
        &[
            "--tiny",
            "--table2",
            "--workload",
            "sor-zero",
            "--workload",
            "qsort",
            "--procs",
            "64",
            "--protocol",
            "all",
        ],
        0x1c1a_49fb_9ffb_12dd,
    );
}

#[test]
fn a_lossy_fuzz_campaign_renders_the_pinned_bytes() {
    assert_stdout_hash(
        &[
            "fuzz",
            "--seeds",
            "2",
            "--faults",
            "lossy",
            "--workload",
            "EP",
        ],
        0x9495_c53f_58e1_f534,
    );
}

/// The checked-in scenario with a `[fault]` section (a lossy plan plus a
/// timed partition): the one reproduction pinned under a tuning that is
/// not the default.
const LOSSY_SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/scenarios/lossy_fddi_tiny.toml"
);

#[test]
fn the_tuned_reproduction_renders_the_pinned_bytes() {
    assert_stdout_hash(
        &["--scenario", LOSSY_SCENARIO, "--jobs", "2"],
        0x3b8f_5815_6351_a69d,
    );
}

/// The lossy scenario's `--json` dump: every run record carries the number
/// of faults its plan injected (`faults_injected`).
#[test]
fn the_tuned_json_dump_renders_the_pinned_bytes() {
    assert_stdout_hash(
        &["--scenario", LOSSY_SCENARIO, "--jobs", "2", "--json"],
        0xeaeb_8a1c_489f_a9af,
    );
}

/// The lossy scenario's TSP trace holds 549 fault events: 223 drops, 119
/// duplicates, 197 delays, 4 partition hits and 6 applied reorder slips.
#[test]
fn the_tuned_trace_records_the_pinned_fault_events() {
    let trace = std::env::temp_dir().join(format!("reproduce-lossy-{}.json", std::process::id()));
    let out = reproduce(&[
        "--scenario",
        LOSSY_SCENARIO,
        "--jobs",
        "2",
        "--table2",
        "--workload",
        "TSP",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let bytes = std::fs::read(&trace).unwrap();
    std::fs::remove_file(&trace).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    let counts = [
        "drop",
        "duplicate",
        "delay",
        "partition",
        "reorder",
        "crash",
    ]
    .map(|kind| text.matches(&format!("\"fault:{kind}\"")).count());
    assert_eq!(counts, [223, 119, 197, 4, 6, 0]);
    assert_eq!(fnv1a64(&out.stdout), 0x88d6_52d9_f6f9_74d1);
    assert_eq!(fnv1a64(&bytes), 0x3565_06b1_ac90_aca9);
}

/// `--trace` and the `deterministic` section of `--bench-out` on a slice
/// small enough to export in a debug build.
#[test]
fn the_trace_and_the_deterministic_report_section_are_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, report) = (dir.join("trace.json"), dir.join("bench.json"));
    let out = reproduce(&[
        "--tiny",
        "--table2",
        "--workload",
        "EP",
        "--jobs",
        "1",
        "--trace",
        trace.to_str().unwrap(),
        "--bench-out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let trace = std::fs::read(&trace).unwrap();
    assert_eq!(fnv1a64(&out.stdout), 0x884b_32e1_b85a_ccd2);
    assert_eq!(fnv1a64(&trace), 0x2f1c_aedd_560b_0486);
    let report = std::fs::read_to_string(&report).unwrap();
    let (deterministic, timing) = report.split_at(report.find("  \"timing\"").unwrap());
    // The kernel memo's host counters — four systems tabulate EP's 64 chunks
    // once each, exactly countable on one worker — live under `timing` only.
    assert!(
        timing.contains("\"kernel_memo\": {\"lookups\": 256, \"hits\": 192, \"entries\": 64}"),
        "{timing}"
    );
    for (name, bytes) in [("stdout", out.stdout), ("trace", trace)] {
        let text = String::from_utf8(bytes).unwrap();
        assert!(!text.contains("memo"), "{name} names the memo");
    }
    assert_eq!(
        deterministic,
        "{\n  \"preset\": \"Tiny\",\n  \"deterministic\": {\n    \"runs\": 4,\n    \
         \"total_messages\": 384,\n    \"total_virtual_seconds\": 0.13761199952380926,\n    \
         \"total_virtual_seconds_bits\": \"3fc19d451ebef782\",\n    \
         \"checksum_bits_xor\": \"0000000000000000\"\n  },\n"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Barnes-Hut's step memo: 2 steps × (the sequential run + four systems ×
/// 1..=8 ranks) = 290 lookups of two distinct body arrays, on one worker.
#[test]
fn barnes_hut_builds_each_distinct_body_array_once() {
    let report = std::env::temp_dir().join(format!("reproduce-bh-{}.json", std::process::id()));
    let out = reproduce(&[
        "--tiny",
        "--workload",
        "Barnes-Hut",
        "--jobs",
        "1",
        "--bench-out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let report_text = std::fs::read_to_string(&report).unwrap();
    std::fs::remove_file(&report).unwrap();
    assert!(
        report_text.contains("\"kernel_memo\": {\"lookups\": 290, \"hits\": 288, \"entries\": 2}"),
        "{report_text}"
    );
}

/// A reader that stops early (`reproduce … | head -1`) ends the process
/// quietly: status 0 and no panic.  The output (≈ 98 KB) is larger than a
/// pipe's buffer, so the writer is still writing when the pipe closes.
#[test]
fn a_reader_that_goes_away_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args([
            "--tiny",
            "--metrics",
            "--workload",
            "EP",
            "--workload",
            "TSP",
            "--workload",
            "IS-Small",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the reproduce binary runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// A rejected command line: exit 1, nothing on stdout, one stderr line that
/// names `needle` and lists the flags the mode does take.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = reproduce(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} still printed a report");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains("--jobs N"), "{args:?}: {stderr}");
}

#[test]
fn a_mistyped_flag_runs_nothing() {
    assert_rejected(&["--tiny", "--tabel2"], "'--tabel2'");
}

#[test]
fn a_repeated_flag_runs_nothing() {
    assert_rejected(
        &["--procs", "2", "--procs", "4"],
        "--procs given more than once",
    );
}

#[test]
fn contradictory_presets_run_nothing() {
    assert_rejected(&["--tiny", "--full"], "--tiny and --full");
}

#[test]
fn a_flag_the_mode_would_drop_runs_nothing() {
    assert_rejected(&["--list", "--procs", "3"], "--list ignores --procs");
    assert_rejected(&["--tiny", "--json", "--table2"], "--json ignores --table2");
}

/// A sweep runs every point untuned: a scenario's `[fault]` (or schedule
/// seed, or tie cap) is refused by name, not swept clean.
#[test]
fn a_sweep_over_a_tuned_scenario_runs_nothing() {
    let out = reproduce(&[
        "sweep",
        "--scenario",
        LOSSY_SCENARIO,
        "--workload",
        "EP",
        "--procs",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "the sweep still ran");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("sweep mode does not apply sched_seed, tie_limit or [fault]")
            && stderr.contains("lossy_fddi_tiny.toml: "),
        "{stderr}"
    );
}

/// The built-in partition plan cuts even ranks off from odd ones: at one
/// process it would cut nothing, yet the campaign would run under its hash.
#[test]
fn a_partition_campaign_below_two_processes_runs_nothing() {
    let out = reproduce(&[
        "fuzz",
        "--tiny",
        "--faults",
        "partition",
        "--procs",
        "1",
        "--seeds",
        "1",
        "--workload",
        "EP",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "the campaign still ran");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("--faults partition") && stderr.contains("at least 2 processes, got 1"),
        "{stderr}"
    );
}

#[test]
fn a_flag_in_value_position_runs_nothing_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-value-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--tiny", "--workload", "EP", "--bench-out", "--json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--bench-out requires a value"));
    assert!(
        !dir.join("--json").exists(),
        "wrote a report named `--json`"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_both_alias_and_the_json_carrier_are_named_errors() {
    assert_rejected(&["--tiny", "--protocol", "both"], "'both'");
    let out = reproduce(&["--scenario", "examples/scenarios/ideal_32procs.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("ideal_32procs.json") && stderr.contains("TOML"),
        "{stderr}"
    );
}

/// The retired execution knobs are unknown arguments like any other: named,
/// with the surviving list, and nothing run.
#[test]
fn the_retired_island_knobs_run_nothing() {
    assert_rejected(&["--tiny", "--islands", "2"], "'--islands'");
    assert_rejected(&["--tiny", "--island-threads", "2"], "'--island-threads'");
    let out = reproduce(&["sweep", "--vary", "islands", "--tiny"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("'islands'") && stderr.contains("known axes: procs, bandwidth, latency;"),
        "{stderr}"
    );
    assert!(stderr.contains("--jobs N"), "{stderr}");
}

/// Run `mode --scenario FILE extra` on a scenario file for three EP
/// processes whose `[fault]` section is `fault`: it must exit 1 with nothing
/// on stdout and one stderr line holding every one of `needles`.
fn assert_plan_refused(fault: &str, mode: &[&str], extra: &[&str], needles: &[&str]) {
    let path = std::env::temp_dir().join(format!(
        "reproduce-cli-plan-{}-{:016x}.toml",
        std::process::id(),
        fnv1a64(fault.as_bytes())
    ));
    std::fs::write(
        &path,
        format!(
            "procs = 3\npreset = \"tiny\"\nworkloads = [\"EP\"]\nsystems = [\"lrc\"]\n\n\
             [fault]\n{fault}\n"
        ),
    )
    .unwrap();
    let file = ["--scenario", path.to_str().unwrap()];
    let args = [mode, &file, extra].concat();
    let out = reproduce(&args);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} still ran");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn a_fault_plan_the_run_cannot_honour_runs_nothing() {
    let crash7 = "crashes = [\"7@0.00001\"]";
    let needles = ["crashes", "rank 7", "3 processes"];
    assert_plan_refused(crash7, &[], &[], &needles);
    assert_plan_refused(crash7, &["fuzz"], &["--seeds", "1"], &needles);
    let partition9 = "partitions = [\"0|9@0..1\"]";
    assert_plan_refused(
        partition9,
        &[],
        &[],
        &["partitions", "rank 9", "3 processes"],
    );
    let twice = "crashes = [\"1@0.00001\", \"1#3\"]";
    assert_plan_refused(
        twice,
        &[],
        &[],
        &["crashes", "rank 1 crashes twice", "3 processes"],
    );
    // `--procs` below the file's count is the count the plan must fit.
    let crash2 = "crashes = [\"2@0.00001\"]";
    assert_plan_refused(crash2, &[], &["--procs", "2"], &["rank 2", "2 processes"]);
}

/// A crash plan replays as a verdict table: every flag that renders or
/// writes a matrix is refused by name, and no file is written.
#[test]
fn a_crash_replay_refuses_every_matrix_output_flag() {
    let crash = "crashes = [\"1@0.00001\"]";
    let dir = std::env::temp_dir().join(format!("reproduce-cli-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, report) = (dir.join("trace.json"), dir.join("bench.json"));
    let (trace, report) = (trace.to_str().unwrap(), report.to_str().unwrap());
    for flag in [
        &["--trace", trace][..],
        &["--json"],
        &["--metrics"],
        &["--bench-out", report],
        &["--table1"],
        &["--table2"],
        &["--figure", "EP"],
    ] {
        assert_plan_refused(crash, &[], flag, &[flag[0], "verdict table"]);
    }
    assert_plan_refused(
        crash,
        &[],
        &[
            "--trace",
            trace,
            "--json",
            "--metrics",
            "--bench-out",
            report,
        ],
        &["--trace"],
    );
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a refused replay wrote a file"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fuzz campaign draws every run's schedule seed itself: a scenario's
/// `sched_seed`/`tie_limit` is refused by name, not silently replaced.
#[test]
fn a_fuzz_campaign_over_a_seeded_scenario_runs_nothing() {
    let path =
        std::env::temp_dir().join(format!("reproduce-cli-seeded-{}.toml", std::process::id()));
    std::fs::write(
        &path,
        "procs = 3\npreset = \"tiny\"\nworkloads = [\"EP\"]\nsched_seed = 7\ntie_limit = 3\n",
    )
    .unwrap();
    let out = reproduce(&["fuzz", "--scenario", path.to_str().unwrap(), "--seeds", "1"]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "the campaign still ran");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("fuzz mode does not apply sched_seed or tie_limit"),
        "{stderr}"
    );
}

/// A scenario for three tiny EP processes under LRC and PVM whose plan
/// crashes rank 1 ten virtual microseconds in, written to a temp file named
/// after `case`.
fn crash_scenario(case: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("reproduce-cli-{case}-{}.toml", std::process::id()));
    std::fs::write(
        &path,
        "procs = 3\npreset = \"tiny\"\nworkloads = [\"EP\"]\nsystems = [\"lrc\", \"pvm\"]\n\n\
         [fault]\ncrashes = [\"1@0.00001\"]\n",
    )
    .unwrap();
    path
}

/// A crash plan replays as a verdict table: one line per point, each naming
/// the crashed rank as the deadlock's fault context.
#[test]
fn a_crash_replay_renders_the_pinned_verdict_table() {
    let path = crash_scenario("replay");
    assert_stdout_hash(
        &["--scenario", path.to_str().unwrap()],
        0x3788_c356_6cb6_013a,
    );
    std::fs::remove_file(&path).unwrap();
}

/// A campaign over the crash plan finds every point deadlocked on every seed
/// and prints each finding's shrunk reproducer; it exits 1.  Seed 1's
/// reproducers carry no `seed =` line in `[fault]`: the crash-only plan
/// draws nothing from its fault streams, so the shrinker drops their key.
#[test]
fn a_crash_campaign_renders_the_pinned_findings() {
    let path = crash_scenario("campaign");
    assert_exit_and_stdout_hash(
        &["fuzz", "--scenario", path.to_str().unwrap(), "--seeds", "2"],
        1,
        0xf163_e440_2d17_a813,
    );
    std::fs::remove_file(&path).unwrap();
}
