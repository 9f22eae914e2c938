//! `compare OLD NEW`: one verdict per (end-to-end metric, workload) between
//! two result files of the same host, and an exact-equality check of
//! everything the simulation counted.
//!
//! The rules are the `choosing-metrics` guide's: a metric whose run-to-run
//! quartile spread is wider than its bound is *unresolved*, not unchanged; a
//! median worse than the old one by more than the bound is a *regression*;
//! a gain is claimed only when the new side wins at least nine tenths of at
//! least ten pairs and the medians differ by more than the old side's own
//! quartile distance.  Every ratio is printed with its base.

use crate::json::Json;
use crate::run::END_TO_END;
use crate::stats::{median, quartiles, spread};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins nine tenths of at least ten pairs, by more than the old spread.
    Improved,
    /// Neither a resolved gain nor a loss beyond the bound.
    Unchanged,
    /// The new median is worse than the old by more than the bound.
    Regressed,
    /// Run-to-run spread wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs, in run order, in which the new side beats the old; ties count for
/// neither.
fn wins(old: &[f64], new: &[f64], lower_is_better: bool) -> usize {
    let better = |(o, n): &(&f64, &f64)| if lower_is_better { n < o } else { n > o };
    old.iter().zip(new).filter(better).count()
}

/// Judge `new` against `old` (one value per run, paired in run order).
pub fn verdict(old: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if spread(old).max(spread(new)) > bound {
        return Verdict::Unresolved;
    }
    let (mo, mn) = (median(old), median(new));
    let gain = if lower_is_better { mo - mn } else { mn - mo };
    if -gain / mo > bound {
        return Verdict::Regressed;
    }
    let pairs = old.len().min(new.len());
    let (q1, q3) = quartiles(old);
    if pairs >= 10 && wins(old, new, lower_is_better) * 10 >= pairs * 9 && gain > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The runs of one result file.
#[derive(Debug, Default)]
pub struct ResultSet {
    /// (workload, metric) → one value per timed run, in file order.
    timed: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, seed, name) → everything the simulation counted: the
    /// traced runs' `count.*` metrics and every run's first-rep totals.
    counts: BTreeMap<(String, u64, String), String>,
    /// Host fingerprints seen (nproc × CPU model).
    hosts: Vec<String>,
}

impl ResultSet {
    /// Parse a `runs.jsonl` file: one run record per line.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let field = |key: &str| rec.get(key).ok_or(format!("line {}: no '{key}'", i + 1));
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
            let traced = field("trace")?.as_f64() == Some(1.0);
            let host = format!(
                "{} x {}",
                rec.at(&["host", "nproc"])
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                rec.at(&["host", "cpu_model"])
                    .and_then(Json::as_str)
                    .unwrap_or("?")
            );
            if !set.hosts.contains(&host) {
                set.hosts.push(host);
            }
            for (name, m) in field("metrics")?.as_obj().unwrap_or_default() {
                let Some(value) = m.get("value").and_then(Json::as_f64) else {
                    continue;
                };
                if name.starts_with("count.") {
                    let key = (workload.clone(), seed, name.clone());
                    set.counts.insert(key, value.to_string());
                } else if !traced {
                    let key = (workload.clone(), name.clone());
                    set.timed.entry(key).or_default().push(value);
                }
            }
            if let Some(first) = field("reps")?.as_arr().and_then(<[Json]>::first) {
                for name in ["runs", "events", "stdout_fnv"] {
                    let value = match first.get(name) {
                        Some(Json::Num(n)) => n.to_string(),
                        Some(Json::Str(s)) => s.clone(),
                        _ => continue,
                    };
                    let key = (workload.clone(), seed, format!("rep.{name}"));
                    set.counts.insert(key, value);
                }
            }
        }
        Ok(set)
    }
}

/// The comparison: a rendered table and whether anything regressed or
/// drifted.
#[derive(Debug)]
pub struct Comparison {
    /// One line per (metric, workload) pair, then the count check.
    pub text: String,
    /// Pairs whose verdict is [`Verdict::Regressed`].
    pub regressions: usize,
    /// Counts that differ between the files.
    pub drifted: usize,
}

/// Compare two result sets.
pub fn compare(old: &ResultSet, new: &ResultSet) -> Comparison {
    use std::fmt::Write as _;
    let mut text = String::new();
    if old.hosts != new.hosts {
        writeln!(
            text,
            "warning: hosts differ (old {:?}, new {:?}); timings do not transfer between hosts",
            old.hosts, new.hosts
        )
        .unwrap();
    }
    let mut regressions = 0;
    for w in &WORKLOADS {
        for &(metric, unit, better, bound) in &END_TO_END {
            let key = (w.name.to_string(), metric.to_string());
            let (Some(o), Some(n)) = (old.timed.get(&key), new.timed.get(&key)) else {
                continue;
            };
            let v = verdict(o, n, better == "lower", bound);
            regressions += usize::from(v == Verdict::Regressed);
            let (mo, mn) = (median(o), median(n));
            let wins = wins(o, n, better == "lower");
            writeln!(
                text,
                "{:<15} {:<13} {:<10} new {mn:.6} vs old {mo:.6} {unit} ({:+.1}% of old; {better} is \
                 better; bound {:.0}%; spread old {:.1}% new {:.1}%; runs {}/{}; new wins {wins} of {} \
                 pairs)",
                w.name,
                metric,
                v.name(),
                (mn - mo) / mo * 100.0,
                bound * 100.0,
                spread(o) * 100.0,
                spread(n) * 100.0,
                o.len(),
                n.len(),
                o.len().min(n.len()),
            )
            .unwrap();
        }
    }
    let mut drifted = 0;
    let mut checked = 0;
    for (key, old_value) in &old.counts {
        let Some(new_value) = new.counts.get(key) else {
            continue;
        };
        checked += 1;
        if old_value != new_value {
            drifted += 1;
            writeln!(
                text,
                "count drift: {} seed {} {}: new {new_value} vs old {old_value}",
                key.0, key.1, key.2
            )
            .unwrap();
        }
    }
    writeln!(
        text,
        "counts: {checked} compared exactly, {drifted} drifted; {regressions} regression(s)"
    )
    .unwrap();
    Comparison {
        text,
        regressions,
        drifted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(centre: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| centre + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn the_verdict_table() {
        let old = around(10.0, 0.02);
        // Within the bound and no resolved gain: unchanged.
        assert_eq!(
            verdict(&old, &around(10.3, 0.02), true, 0.1),
            Verdict::Unchanged
        );
        // Worse by more than the bound, in either direction of "better".
        assert_eq!(
            verdict(&old, &around(11.5, 0.02), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&old, &around(8.5, 0.02), false, 0.1),
            Verdict::Regressed
        );
        // Wins every pair by more than the old quartile distance: improved.
        assert_eq!(
            verdict(&old, &around(9.0, 0.02), true, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&old, &around(11.0, 0.02), false, 0.1),
            Verdict::Improved
        );
        // The same gain on fewer than ten pairs is not claimed.
        assert_eq!(
            verdict(&old[..5], &around(9.0, 0.02)[..5], true, 0.1),
            Verdict::Unchanged
        );
        // A gain smaller than the old runs' own spread is not claimed.
        assert_eq!(
            verdict(&around(10.0, 0.1), &around(9.8, 0.1), true, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = around(10.0, 0.4);
        assert!(spread(&noisy) > 0.1);
        assert_eq!(
            verdict(&noisy, &around(10.0, 0.02), true, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&around(10.0, 0.02), &noisy, true, 0.1),
            Verdict::Unresolved
        );
        // Even when the medians are far apart.
        assert_eq!(
            verdict(&noisy, &around(20.0, 0.4), true, 0.1),
            Verdict::Unresolved
        );
    }

    fn record(workload: &str, seed: u64, trace: u8, wall: f64, events: u64) -> String {
        let metrics = if trace == 1 {
            format!("\"count.events\": {{\"value\": {events}, \"unit\": \"count\"}}")
        } else {
            format!("\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}")
        };
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"host\": {{\"nproc\": 2, \"cpu_model\": \"x\"}}, \
             \"reps\": [{{\"runs\": 12, \"events\": {events}, \"stdout_fnv\": \"00ff\"}}], \
             \"metrics\": {{{metrics}}}}}\n"
        )
    }

    #[test]
    fn result_files_compare_per_workload_and_catch_count_drift() {
        let file = |wall: f64, events: u64| -> String {
            let mut text: String = (0..10)
                .map(|i| record("scaled-msg", i, 0, wall + 0.001 * i as f64, events))
                .collect();
            text.push_str(&record("scaled-msg", 0, 1, 0.0, events));
            text
        };
        let old = ResultSet::parse(&file(1.5, 148_693)).unwrap();
        let same = compare(&old, &ResultSet::parse(&file(1.51, 148_693)).unwrap());
        assert_eq!((same.regressions, same.drifted), (0, 0), "{}", same.text);
        assert!(
            same.text
                .contains("scaled-msg      wall_s        unchanged"),
            "{}",
            same.text
        );

        let slower = compare(&old, &ResultSet::parse(&file(1.9, 148_693)).unwrap());
        assert_eq!(slower.regressions, 1, "{}", slower.text);
        assert!(slower.text.contains("regressed"), "{}", slower.text);

        let drift = compare(&old, &ResultSet::parse(&file(1.5, 148_694)).unwrap());
        assert_eq!(drift.regressions, 0);
        // count.events of the traced run and rep.events of all ten seeds.
        assert_eq!(drift.drifted, 11, "{}", drift.text);
        assert!(drift
            .text
            .contains("count drift: scaled-msg seed 0 count.events"));

        assert!(ResultSet::parse("{\"workload\": \"x\"}\n").is_err());
        assert!(ResultSet::parse("not json\n").is_err());
    }
}
