//! Greedy minimisation of failing fault plans.
//!
//! When the fuzzer ([`crate::fuzz`]) finds a `(plan, seed)` that breaks an
//! invariant, the raw reproducer is noisy: probabilities that never
//! mattered, partitions that never blocked the failing message, thousands
//! of seeded tie-breaks of which only the first few steered the schedule
//! off the rank-order path.  [`shrink`] strips all of that: it repeatedly
//! tries simplifications — zero a probability, remove a crash or a
//! partition, shorten a partition window, drop the fault seed or the
//! schedule seed, bisect the tie-break stream — keeping each one only if the failure still
//! *reproduces with the same verdict kind*, until no simplification
//! survives.  Because every trial run is deterministic, the result is a
//! fixpoint: shrinking a shrunk tuning returns it unchanged (the
//! idempotence the test battery asserts).
//!
//! The oracle is a caller-supplied closure `test: &RunTuning -> bool`
//! (true = the failure still reproduces), so the same shrinker drives real
//! cluster runs in the fuzzer and synthetic predicates in unit tests.

use crate::RunTuning;
use cluster::Partition;

/// Upper bound on the tie-break draws considered when bisecting an
/// uncapped seeded stream: far beyond what any Tiny-preset run draws, and
/// it only bounds the *search*, not the runs themselves.
const TIE_SEARCH_CEILING: u64 = 1 << 16;

/// Greedily minimise `tuning` while `test` keeps returning true.
///
/// `test` must be true for `tuning` itself (the caller verified the
/// failure); the shrunk result is the smallest tuning this greedy pass
/// reaches for which `test` is still true.  Deterministic and idempotent:
/// `shrink(&shrink(t, f), f) == shrink(t, f)` for any pure `f`.
pub fn shrink<F>(tuning: &RunTuning, mut test: F) -> RunTuning
where
    F: FnMut(&RunTuning) -> bool,
{
    let mut cur = tuning.clone();
    // One bounded bisection of the tie-break stream up front (it is the
    // only non-monotone knob: a cap changes *which* draws happen, so it is
    // searched once rather than re-halved every fixpoint round).
    cur = bisect_ties(cur, &mut test);
    loop {
        let mut changed = false;
        let mut attempt = |cand: RunTuning, cur: &mut RunTuning| {
            if cand != *cur && test(&cand) {
                *cur = cand;
                true
            } else {
                false
            }
        };

        // Drop whole fault kinds: zero each probability.
        for zero in [
            |p: &mut RunTuning| p.fault.drop = 0.0,
            |p: &mut RunTuning| p.fault.duplicate = 0.0,
            |p: &mut RunTuning| p.fault.reorder = 0.0,
            |p: &mut RunTuning| p.fault.delay = 0.0,
        ] {
            let mut cand = cur.clone();
            zero(&mut cand);
            changed |= attempt(cand, &mut cur);
        }

        // Remove each crash, then each partition, one at a time.
        for i in (0..cur.fault.crashes.len()).rev() {
            let mut cand = cur.clone();
            cand.fault.crashes.remove(i);
            changed |= attempt(cand, &mut cur);
        }
        for i in (0..cur.fault.partitions.len()).rev() {
            let mut cand = cur.clone();
            cand.fault.partitions.remove(i);
            changed |= attempt(cand, &mut cur);
        }

        // Shorten each surviving partition window: try healing at the
        // midpoint, then try starting at the midpoint.
        for i in 0..cur.fault.partitions.len() {
            let Partition { from, until, .. } = cur.fault.partitions[i];
            let mid = from + (until - from) / 2.0;
            if mid > from && mid < until {
                let mut cand = cur.clone();
                cand.fault.partitions[i].until = mid;
                changed |= attempt(cand, &mut cur);
                let Partition { from, until, .. } = cur.fault.partitions[i];
                let mid = from + (until - from) / 2.0;
                if mid > from && mid < until {
                    let mut cand = cur.clone();
                    cand.fault.partitions[i].from = mid;
                    changed |= attempt(cand, &mut cur);
                }
            }
        }

        // Drop the fault streams' key: a plan whose probabilities are all
        // zero draws nothing from it.
        if cur.fault.seed != 0 {
            let mut cand = cur.clone();
            cand.fault.seed = 0;
            changed |= attempt(cand, &mut cur);
        }

        // Drop the schedule exploration entirely if the fault plan alone
        // reproduces.
        if cur.sched_seed != 0 {
            let mut cand = cur.clone();
            cand.sched_seed = 0;
            cand.tie_limit = None;
            changed |= attempt(cand, &mut cur);
        }

        if !changed {
            break;
        }
    }
    cur
}

/// Bound the seeded tie-break stream: find the smallest `tie_limit` that
/// still reproduces (rank order resumes after the cap), by doubling up to
/// a ceiling and then binary-searching down.  No-op for seed 0.
fn bisect_ties<F>(mut cur: RunTuning, test: &mut F) -> RunTuning
where
    F: FnMut(&RunTuning) -> bool,
{
    if cur.sched_seed == 0 {
        return cur;
    }
    let with_limit = |cur: &RunTuning, limit: u64| {
        let mut cand = cur.clone();
        cand.tie_limit = Some(limit);
        cand
    };
    // Find a reproducing upper bound by doubling.
    let ceiling = cur.tie_limit.unwrap_or(TIE_SEARCH_CEILING);
    let mut hi = 1u64;
    while hi < ceiling && !test(&with_limit(&cur, hi)) {
        hi *= 2;
    }
    if hi >= ceiling {
        if !test(&with_limit(&cur, ceiling)) {
            // Never reproduced under any cap up to the ceiling: leave the
            // stream uncapped (or at its original cap).
            return cur;
        }
        hi = ceiling;
    }
    // Smallest reproducing cap in (lo, hi]; lo is known non-reproducing
    // (or 0, checked below).
    let mut lo = hi / 2;
    if hi == 1 && test(&with_limit(&cur, 0)) {
        cur.tie_limit = Some(0);
        return cur;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if test(&with_limit(&cur, mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    cur.tie_limit = Some(hi);
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::FaultPlan;

    fn full_tuning() -> RunTuning {
        RunTuning {
            sched_seed: 42,
            tie_limit: None,
            fault: FaultPlan {
                seed: 9,
                drop: 0.02,
                duplicate: 0.01,
                reorder: 0.02,
                delay: 0.02,
                partitions: vec!["0|1@0.001..0.004".parse().unwrap()],
                crashes: vec!["1@0.002".parse().unwrap()],
                ..FaultPlan::default()
            },
        }
    }

    #[test]
    fn shrink_strips_everything_an_oracle_never_looks_at() {
        // Failure depends only on the drop probability being nonzero.
        let test = |t: &RunTuning| t.fault.drop > 0.0;
        let shrunk = shrink(&full_tuning(), test);
        assert!(shrunk.fault.drop > 0.0);
        assert_eq!(shrunk.fault.duplicate, 0.0);
        assert_eq!(shrunk.fault.reorder, 0.0);
        assert_eq!(shrunk.fault.delay, 0.0);
        assert!(shrunk.fault.partitions.is_empty());
        assert!(shrunk.fault.crashes.is_empty());
        assert_eq!(shrunk.sched_seed, 0, "schedule seed was not needed");
    }

    #[test]
    fn shrink_is_idempotent() {
        let test = |t: &RunTuning| !t.fault.crashes.is_empty();
        let once = shrink(&full_tuning(), test);
        let twice = shrink(&once, test);
        assert_eq!(once, twice);
    }

    #[test]
    fn shrink_bisects_the_tie_stream_to_the_minimal_cap() {
        // Failure needs the seeded schedule with at least 11 draws.
        let test =
            |t: &RunTuning| t.sched_seed == 42 && t.tie_limit.map(|l| l >= 11).unwrap_or(true);
        let shrunk = shrink(&full_tuning(), test);
        assert_eq!(shrunk.sched_seed, 42);
        assert_eq!(shrunk.tie_limit, Some(11), "minimal reproducing cap");
        assert!(shrunk.fault.is_empty(), "fault plan was not needed");
    }

    #[test]
    fn shrink_shortens_partition_windows() {
        // Failure needs a partition still active at t = 0.0015.
        let test = |t: &RunTuning| {
            t.fault
                .partitions
                .iter()
                .any(|p| p.from <= 0.0015 && p.until > 0.0015)
        };
        let shrunk = shrink(&full_tuning(), test);
        assert_eq!(shrunk.fault.partitions.len(), 1);
        let p = &shrunk.fault.partitions[0];
        assert!(p.until - p.from < 0.003, "window was not shortened: {p}");
        assert!(p.from <= 0.0015 && p.until > 0.0015);
    }

    #[test]
    fn a_crash_only_plan_drops_its_fault_seed() {
        // The crash alone fails, whatever the fault streams' key.
        let tuning = RunTuning {
            sched_seed: 0,
            tie_limit: None,
            fault: FaultPlan {
                seed: 9,
                crashes: vec!["1@0.002".parse().unwrap()],
                ..FaultPlan::default()
            },
        };
        let shrunk = shrink(&tuning, |t: &RunTuning| !t.fault.crashes.is_empty());
        assert_eq!(shrunk.fault.seed, 0, "{shrunk:?}");
        assert_eq!(shrunk.fault.crashes, tuning.fault.crashes);
    }

    #[test]
    fn an_always_failing_oracle_shrinks_to_the_empty_tuning() {
        let shrunk = shrink(&full_tuning(), |_| true);
        assert!(shrunk.is_default(), "{shrunk:?}");
    }
}
