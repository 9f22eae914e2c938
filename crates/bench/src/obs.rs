//! Rendering the engine's observability output: Chrome-trace / Perfetto JSON
//! export, the latency-histogram report, and the virtual-time profile.
//!
//! Everything here is a pure function of a computed [`RunMatrix`] whose runs
//! carry [`AppRun::obs`] recordings: no clocks, no host state, integer
//! formatting only.  Two matrices computed from the same request — serially
//! or on any `--jobs` width — therefore render to byte-identical traces and
//! reports, which is what the determinism test battery diffs.
//!
//! The trace format is the Chrome trace-event JSON array form (the format
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) open
//! directly): one *process* track per matrix run, one *thread* track per
//! simulated rank, `B`/`E` duration events for the engine's spans and `i`
//! instant events for message sends, deliveries, consumes and arbiter
//! grants.  Timestamps are virtual microseconds rendered from the integer
//! virtual-nanosecond event stamps as `<µs>.<ns%1000>`, so no float
//! formatting is involved anywhere.

use crate::RunMatrix;
use apps::runner::AppRun;
use cluster::obs::EventKind;
use cluster::{Histogram, SpanCat};
use std::fmt::Write as _;

/// Render an integer virtual-nanosecond stamp or duration in microseconds
/// (`123456` ns → `"123.456"`): pure integer formatting, the decimal
/// fraction being exactly the sub-microsecond nanoseconds.  Every virtual
/// µs the harness prints (trace timestamps, metrics quantiles, a sweep's
/// p99 lock-acquire column) is this.
pub(crate) fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The stable track label of run `key` in the exported trace.
fn run_label(key: &crate::RunKey) -> String {
    format!(
        "{}/{}/{}/p{}",
        key.workload.name(),
        key.system,
        key.net.label(),
        key.nprocs
    )
}

/// Export every traced run of the matrix as one Chrome-trace JSON document.
///
/// Runs appear in matrix request order as trace *processes* (pid = run
/// ordinal, labelled `workload/system/net/pN` via `process_name` metadata);
/// simulated ranks appear as *threads*.  Runs without recordings (computed
/// below [`cluster::ObsLevel::Trace`]) are skipped.  The output is
/// deterministic byte-for-byte: event order is per-process emission order
/// followed by the central transport stream in arbiter-serialised order,
/// and all numbers are formatted from integers.
pub fn chrome_trace_json(matrix: &RunMatrix) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (pid, (key, run)) in matrix.runs().enumerate() {
        let Some(obs) = &run.obs else { continue };
        lines.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}}",
            esc(&run_label(key))
        ));
        for rank in 0..obs.procs.len() {
            lines.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {rank}, \
                 \"args\": {{\"name\": \"rank {rank}\"}}}}"
            ));
        }
        for po in &obs.procs {
            for ev in &po.events {
                match &ev.kind {
                    EventKind::SpanBegin { cat, arg } => lines.push(format!(
                        "{{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"B\", \"ts\": {}, \
                         \"pid\": {pid}, \"tid\": {}, \"args\": {{\"arg\": {arg}}}}}",
                        cat.name(),
                        us(ev.t_ns),
                        ev.rank
                    )),
                    EventKind::SpanEnd { cat } => lines.push(format!(
                        "{{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"E\", \"ts\": {}, \
                         \"pid\": {pid}, \"tid\": {}}}",
                        cat.name(),
                        us(ev.t_ns),
                        ev.rank
                    )),
                    // Send/Consume/Grant live on the central stream, not here.
                    _ => unreachable!("per-process recorder records span events only"),
                }
            }
        }
        for ev in &obs.central {
            match &ev.kind {
                EventKind::Send {
                    dst,
                    tag,
                    bytes,
                    datagrams,
                    arrival_ns,
                } => {
                    lines.push(format!(
                        "{{\"name\": \"send\", \"cat\": \"msg\", \"ph\": \"i\", \"s\": \"t\", \
                         \"ts\": {}, \"pid\": {pid}, \"tid\": {}, \"args\": {{\"dst\": {dst}, \
                         \"tag\": {tag}, \"bytes\": {bytes}, \"datagrams\": {datagrams}}}}}",
                        us(ev.t_ns),
                        ev.rank
                    ));
                    // The delivery instant on the destination track, so a
                    // message's wire flight is visible end to end.
                    lines.push(format!(
                        "{{\"name\": \"deliver\", \"cat\": \"msg\", \"ph\": \"i\", \"s\": \"t\", \
                         \"ts\": {}, \"pid\": {pid}, \"tid\": {dst}, \"args\": {{\"src\": {}, \
                         \"tag\": {tag}}}}}",
                        us(*arrival_ns),
                        ev.rank
                    ));
                }
                EventKind::Consume {
                    src,
                    tag,
                    arrival_ns,
                } => lines.push(format!(
                    "{{\"name\": \"consume\", \"cat\": \"msg\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {}, \"pid\": {pid}, \"tid\": {}, \"args\": {{\"src\": {src}, \
                     \"tag\": {tag}, \"arrival_ns\": {arrival_ns}}}}}",
                    us(ev.t_ns),
                    ev.rank
                )),
                EventKind::Grant => lines.push(format!(
                    "{{\"name\": \"grant\", \"cat\": \"sched\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {}, \"pid\": {pid}, \"tid\": {}}}",
                    us(ev.t_ns),
                    ev.rank
                )),
                EventKind::Fault {
                    kind,
                    dst,
                    delay_ns,
                } => lines.push(format!(
                    "{{\"name\": \"fault:{}\", \"cat\": \"fault\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {}, \"pid\": {pid}, \"tid\": {}, \"args\": {{\"dst\": {dst}, \
                     \"delay_ns\": {delay_ns}}}}}",
                    kind.name(),
                    us(ev.t_ns),
                    ev.rank
                )),
                _ => unreachable!("central stream holds transport/sched events only"),
            }
        }
    }
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// `p50/p99/p999` of a histogram, in microseconds, or `-` when empty.
fn quantile_triple(h: &Histogram) -> String {
    if h.is_empty() {
        "-".to_string()
    } else {
        format!(
            "{}/{}/{}",
            us(h.value_at_quantile(0.50)),
            us(h.value_at_quantile(0.99)),
            us(h.value_at_quantile(0.999))
        )
    }
}

/// Percent of `part` in `total` with one decimal, via integer arithmetic
/// (`1234 / 10000` → `"12.3"`); `0.0` when `total` is zero.
fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        return "0.0".to_string();
    }
    let tenths = (part as u128 * 1000 / total as u128) as u64;
    format!("{}.{}", tenths / 10, tenths % 10)
}

/// The latency-histogram section of `--metrics`: per traced run, the
/// merged-across-ranks p50/p99/p999 (µs) of lock-acquire latency
/// ([`SpanCat::LockWait`], the full remote-acquire wait), fault service
/// time ([`SpanCat::Fault`]), and barrier skew ([`SpanCat::BarrierWait`] —
/// the arrival-to-release wait, which is exactly how far ahead of the last
/// arrival the process reached the barrier).
pub fn histogram_report(matrix: &RunMatrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Latency histograms (virtual µs, p50/p99/p999 across ranks) =="
    );
    let _ = writeln!(
        out,
        "{:<44} {:>8} {:>30} {:>30} {:>30}",
        "run", "spans", "lock-acquire", "fault-service", "barrier-skew"
    );
    for (key, run) in matrix.runs() {
        let Some(obs) = &run.obs else { continue };
        let lock = obs.merged_hist(SpanCat::LockWait);
        let fault = obs.merged_hist(SpanCat::Fault);
        let barrier = obs.merged_hist(SpanCat::BarrierWait);
        let spans: u64 = SpanCat::ALL
            .iter()
            .map(|&c| obs.merged_hist(c).count())
            .sum();
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>30} {:>30} {:>30}",
            run_label(key),
            spans,
            quantile_triple(&lock),
            quantile_triple(&fault),
            quantile_triple(&barrier)
        );
    }
    out
}

/// Self time (ns) of each category plus the compute residual for one rank
/// of a run: `(compute_ns, [self_ns; NCATS], total_ns)`.
fn rank_profile(run: &AppRun, rank: usize) -> (u64, [u64; cluster::obs::NCATS], u64) {
    let po = &run.obs.as_ref().expect("profiled run has obs").procs[rank];
    let total = cluster::obs::ns(run.proc_stats[rank].finish_time);
    let attributed = po.total_attributed_ns();
    (total.saturating_sub(attributed), po.self_ns, total)
}

/// The virtual-time profile section of `--metrics`: for every traced run,
/// per-rank rows attributing each process's finish time to compute (the
/// residual) and the self time of every [`SpanCat`], followed by an `all`
/// row aggregating the ranks.  Percentages use integer arithmetic so the
/// report is byte-deterministic.
///
/// This is the reproduction of the paper's time-breakdown figure: the
/// non-compute columns are exactly the overhead components the paper
/// charges to each system (fault stalls, lock and barrier waits, GC,
/// diff flushes, receive waits).
pub fn profile_report(matrix: &RunMatrix) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Virtual-time profile (% of process time) ==");
    let _ = write!(out, "{:<44} {:>5} {:>8}", "run", "rank", "compute");
    for cat in SpanCat::ALL {
        let _ = write!(out, " {:>12}", cat.name());
    }
    let _ = writeln!(out);
    for (key, run) in matrix.runs() {
        let Some(obs) = &run.obs else { continue };
        let mut agg_self = [0u64; cluster::obs::NCATS];
        let mut agg_compute = 0u64;
        let mut agg_total = 0u64;
        for rank in 0..obs.procs.len() {
            let (compute, self_ns, total) = rank_profile(run, rank);
            agg_compute += compute;
            agg_total += total;
            for (a, s) in agg_self.iter_mut().zip(self_ns) {
                *a += s;
            }
            let _ = write!(
                out,
                "{:<44} {:>5} {:>8}",
                run_label(key),
                rank,
                pct(compute, total)
            );
            for v in self_ns {
                let _ = write!(out, " {:>12}", pct(v, total));
            }
            let _ = writeln!(out);
        }
        let _ = write!(
            out,
            "{:<44} {:>5} {:>8}",
            run_label(key),
            "all",
            pct(agg_compute, agg_total)
        );
        for v in agg_self {
            let _ = write!(out, " {:>12}", pct(v, agg_total));
        }
        let _ = writeln!(out);
    }
    out
}

/// The full `--metrics` report: histograms, then the profile.
pub fn metrics_report(matrix: &RunMatrix) -> String {
    let mut out = histogram_report(matrix);
    out.push('\n');
    out.push_str(&profile_report(matrix));
    out
}

/// Structural validation of a JSON document: non-empty, starts with `{` or
/// `[`, every brace/bracket balanced outside string literals, every string
/// literal and escape closed, nothing after the root value.  (CI
/// additionally runs the trace through a full JSON parser; this check makes
/// the test suite self-contained.)
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut stack: Vec<char> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut root_closed = false;
    let trimmed = s.trim_start();
    if !trimmed.starts_with('{') && !trimmed.starts_with('[') {
        return Err("document does not start with '{' or '['".to_string());
    }
    for (i, c) in s.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                if root_closed {
                    return Err(format!("content after root value at byte {i}"));
                }
                stack.push(c);
            }
            '}' | ']' => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("unmatched '{c}' at byte {i}"))?;
                let want = if open == '{' { '}' } else { ']' };
                if c != want {
                    return Err(format!("mismatched '{c}' at byte {i}, expected '{want}'"));
                }
                if stack.is_empty() {
                    root_closed = true;
                }
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string literal".to_string());
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed scopes at end of input", stack.len()));
    }
    if !root_closed {
        return Err("no root value".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_matrix_obs, Preset, RunKey};
    use apps::runner::System;
    use apps::Workload;
    use cluster::ObsLevel;
    use treadmarks::ProtocolKind;

    fn tiny_traced_matrix(jobs: usize) -> RunMatrix {
        let keys = [
            RunKey::fddi(Workload::Ep, System::TreadMarks(ProtocolKind::Lrc), 2),
            RunKey::fddi(Workload::Ep, System::Pvm, 2),
        ];
        run_matrix_obs(Preset::Tiny, &[], &keys, jobs, ObsLevel::Trace)
    }

    #[test]
    fn trace_is_valid_and_deterministic_across_jobs() {
        let a = chrome_trace_json(&tiny_traced_matrix(1));
        let b = chrome_trace_json(&tiny_traced_matrix(4));
        assert_eq!(a, b, "trace differs between --jobs 1 and --jobs 4");
        validate_json(&a).expect("trace is structurally valid JSON");
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("EP/PVM/fddi/p2"));
        assert!(a.contains("\"ph\": \"B\""));
        assert!(a.contains("\"name\": \"send\""));
        assert!(a.contains("\"name\": \"deliver\""));
        assert!(a.contains("\"name\": \"grant\""));
    }

    #[test]
    fn metrics_report_is_deterministic_and_covers_every_run() {
        let a = metrics_report(&tiny_traced_matrix(1));
        let b = metrics_report(&tiny_traced_matrix(4));
        assert_eq!(a, b);
        assert!(a.contains("lock-acquire"));
        assert!(a.contains("EP/TreadMarks/fddi/p2"));
        // Per-rank rows and the aggregate row are both present.
        assert!(a.contains("  all"));
        assert!(a.contains("barrier-wait"));
    }

    #[test]
    fn untraced_matrix_renders_an_empty_trace() {
        let keys = [RunKey::fddi(Workload::Ep, System::Pvm, 2)];
        let m = crate::run_matrix(Preset::Tiny, &[], &keys, 1);
        let trace = chrome_trace_json(&m);
        validate_json(&trace).expect("empty trace is still valid JSON");
        assert!(!trace.contains("process_name"));
    }

    #[test]
    fn ts_formatting_is_pure_integer() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(123_456_789), "123456.789");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, 2, {\"b\": \"x\\\"y\"}]}").unwrap();
        validate_json("[]").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("plain").is_err());
        assert!(validate_json("{\"a\": 1").is_err());
        assert!(validate_json("{\"a\": 1]}").is_err());
        assert!(validate_json("{\"a\": \"unterminated}").is_err());
        assert!(validate_json("{} {}").is_err());
    }

    #[test]
    fn pct_is_integer_exact() {
        assert_eq!(pct(0, 100), "0.0");
        assert_eq!(pct(1, 1000), "0.1");
        assert_eq!(pct(123, 1000), "12.3");
        assert_eq!(pct(1000, 1000), "100.0");
        assert_eq!(pct(5, 0), "0.0");
    }
}
