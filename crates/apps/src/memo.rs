//! A process-wide memo for the pure host kernels a matrix repeats: one
//! `reproduce` matrix runs every program 33 times on the same input, so EP's
//! `tabulate` and TSP's `recursive_solve` are asked the same question again
//! and again.  A [`Memo`] answers it once per process.
//!
//! The contract, which `xtask lint` ("memo confinement") keeps local to
//! this file: **a value is a pure function of its key, and the key carries
//! every input the kernel reads.**  Then which run — or which `--jobs`
//! worker — fills an entry is a race no simulated byte can observe; the
//! `oracle-checks` feature (on in CI) recomputes every hit and asserts it.
//! Kernels whose inputs arrive through the simulated memory (SOR, Barnes-Hut,
//! Water) are not memoised: that traffic is the thing being measured.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Entries a memo holds before it stops inserting (hits still answer).  Not a
/// knob: 128 bytes an entry ([`Memo::new`]), B-tree nodes half full, ≤ 2 MiB.
const CAP: usize = 8192;

/// Host-side counters of one memo, or from [`kernel_stats`] of all of them.
/// Which worker raced which shows in them: `--bench-out`'s `timing` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Calls of [`Memo::get_or`].
    pub lookups: u64,
    /// Lookups answered without running the kernel.
    pub hits: u64,
    /// Distinct keys held.
    pub entries: u64,
}

struct Inner<K, V> {
    map: BTreeMap<K, V>,
    stats: MemoStats,
}

/// A capped, never-evicting map from a kernel's arguments to its result.
pub struct Memo<K, V>(Mutex<Inner<K, V>>);

impl<K: Ord, V: Copy + Eq + std::fmt::Debug> Memo<K, V> {
    /// An empty memo; `const`, so it can be a `static` beside its kernel.
    pub(crate) const fn new() -> Self {
        const { assert!(size_of::<K>() + size_of::<V>() <= 128) };
        let stats = MemoStats {
            lookups: 0,
            hits: 0,
            entries: 0,
        };
        Memo(Mutex::new(Inner {
            map: BTreeMap::new(),
            stats,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.0.lock().expect("kernels run outside the memo lock")
    }

    /// The value stored under `key`, or `raw()` — computed outside the lock
    /// (two workers missing one key compute one value) and stored if room.
    pub fn get_or(&self, key: K, raw: impl FnOnce() -> V) -> V {
        let hit = {
            let mut inner = self.lock();
            let hit = inner.map.get(&key).copied();
            inner.stats.lookups += 1;
            inner.stats.hits += u64::from(hit.is_some());
            hit
        };
        if let Some(v) = hit {
            #[cfg(feature = "oracle-checks")]
            assert_eq!(raw(), v, "memoised kernel is not a function of its key");
            return v;
        }
        let v = raw();
        let mut inner = self.lock();
        if inner.map.len() < CAP {
            inner.map.insert(key, v);
            inner.stats.entries = inner.map.len() as u64;
        }
        v
    }

    /// This memo's counters.
    pub fn stats(&self) -> MemoStats {
        self.lock().stats
    }
}

/// Counters summed over every kernel memo of the process.
pub fn kernel_stats() -> MemoStats {
    let (ep, tsp) = (crate::ep::TABULATED.stats(), crate::tsp::SOLVED.stats());
    MemoStats {
        lookups: ep.lookups + tsp.lookups,
        hits: ep.hits + tsp.hits,
        entries: ep.entries + tsp.entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_key_does_not_run_the_kernel_again() {
        let memo: Memo<u32, u64> = Memo::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = memo.get_or(7, || {
                calls += 1;
                49
            });
            assert_eq!(v, 49);
        }
        // Under `oracle-checks` every hit recomputes, by design.
        assert_eq!(
            calls,
            if cfg!(feature = "oracle-checks") {
                3
            } else {
                1
            }
        );
        assert_eq!(
            memo.stats(),
            MemoStats {
                lookups: 3,
                hits: 2,
                entries: 1
            }
        );
    }

    #[test]
    fn a_full_memo_answers_hits_and_stops_inserting() {
        let memo: Memo<usize, usize> = Memo::new();
        for k in 0..CAP + 100 {
            assert_eq!(memo.get_or(k, || k * 2), k * 2);
        }
        assert_eq!(memo.stats().entries, CAP as u64);
        let before = memo.stats().hits;
        assert_eq!(memo.get_or(3, || 6), 6);
        assert_eq!(memo.stats().hits, before + 1, "an early key still hits");
        assert_eq!(memo.get_or(CAP + 5, || 2 * CAP + 10), 2 * CAP + 10);
        assert_eq!(memo.stats().hits, before + 1, "a late key was never stored");
        assert_eq!(memo.stats().entries, CAP as u64);
    }

    #[test]
    fn a_panicking_kernel_leaves_the_memo_usable() {
        let memo: Memo<u32, u32> = Memo::new();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or(1, || panic!("kernel failed"))
        }));
        assert!(boom.is_err());
        assert_eq!(memo.get_or(1, || 11), 11);
        assert_eq!(memo.stats().entries, 1);
    }
}
