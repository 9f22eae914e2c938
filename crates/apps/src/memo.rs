//! A process-wide memo for the pure host kernels a matrix repeats: one
//! `reproduce` matrix runs every program 33 times on the same input, so EP's
//! `tabulate`, TSP's `recursive_solve` and Barnes-Hut's force field are asked
//! the same question again and again.  A [`Memo`] answers it once per process.
//!
//! The contract, which `xtask lint` ("memo confinement") keeps local to
//! this file: **a value is a pure function of its key, and the key carries
//! every input the kernel reads.**  Then which run — or which `--jobs`
//! worker — fills an entry is a race no simulated byte can observe; the
//! `oracle-checks` feature (on in CI) recomputes every hit and asserts it.
//! A kernel whose inputs arrive through the simulated memory is memoised
//! only *after* the read: Barnes-Hut still reads every body through its
//! system, and only the field computed from bytes already read is shared.
//! SOR's and Water's kernels are not memoised (docs/ARCHITECTURE.md §Where a
//! matrix's host time goes says why).

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Mutex, MutexGuard};

/// Bytes of keys and values a memo holds before it stops inserting (hits
/// still answer).  Not a knob: the paper preset's four Barnes-Hut steps at
/// 8,192 bodies are ≈ 2 MiB; the B-tree's own nodes are not counted.
const BUDGET: usize = 4 << 20;

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
    /// Bytes charged against [`BUDGET`].
    held: usize,
    stats: MemoStats,
}

/// A byte-capped, never-evicting map from a kernel's arguments to its
/// result.  A value is cloned out under the lock, so a large one is an `Arc`.
pub struct Memo<K, V> {
    inner: Mutex<Inner<K, V>>,
    /// Heap bytes an entry holds beyond `size_of::<K>() + size_of::<V>()`.
    heap: fn(&K, &V) -> usize,
}

fn inline_only<K, V>(_: &K, _: &V) -> usize {
    0
}

impl<K: Ord, V: Clone + Eq + std::fmt::Debug> Memo<K, V> {
    /// An empty memo of inline keys and values; `const`, so it can be a
    /// `static` beside its kernel.
    pub(crate) const fn new() -> Self {
        Self::with_heap(inline_only::<K, V>)
    }

    /// An empty memo whose entries also hold `heap(key, value)` bytes.
    pub(crate) const fn with_heap(heap: fn(&K, &V) -> usize) -> Self {
        let stats = MemoStats {
            lookups: 0,
            hits: 0,
            entries: 0,
        };
        Memo {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                held: 0,
                stats,
            }),
            heap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner
            .lock()
            .expect("kernels run outside the memo lock")
    }

    /// The value stored under `key`, or `raw()` — computed outside the lock
    /// (two workers missing one key compute one value) and stored if the
    /// budget has room.
    pub fn get_or(&self, key: K, raw: impl FnOnce() -> V) -> V {
        let hit = {
            let mut inner = self.lock();
            let hit = inner.map.get(&key).cloned();
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
        let bytes = size_of::<K>() + size_of::<V>() + (self.heap)(&key, &v);
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Entry::Vacant(slot) = inner.map.entry(key) {
            if inner.held + bytes <= BUDGET {
                slot.insert(v.clone());
                inner.held += bytes;
                inner.stats.entries += 1;
            }
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
    let all = [
        crate::ep::TABULATED.stats(),
        crate::tsp::SOLVED.stats(),
        crate::barnes::FIELDS.stats(),
    ];
    MemoStats {
        lookups: all.iter().map(|m| m.lookups).sum(),
        hits: all.iter().map(|m| m.hits).sum(),
        entries: all.iter().map(|m| m.entries).sum(),
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
        // Each entry holds a MiB on the heap beside its 16 inline bytes, so
        // three fit in the budget and the fourth does not.
        let memo: Memo<usize, usize> = Memo::with_heap(|_, _| 1 << 20);
        for k in 0..10 {
            assert_eq!(memo.get_or(k, || k * 2), k * 2);
        }
        assert_eq!(memo.stats().entries, 3);
        let before = memo.stats().hits;
        assert_eq!(memo.get_or(2, || 4), 4);
        assert_eq!(memo.stats().hits, before + 1, "an early key still hits");
        assert_eq!(memo.get_or(3, || 6), 6);
        assert_eq!(memo.stats().hits, before + 1, "a late key was never stored");
        assert_eq!(memo.stats().entries, 3);
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
