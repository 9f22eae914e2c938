//! Vector timestamps representing the `hb1` partial order on intervals.
//!
//! The execution of each TreadMarks process is divided into *intervals*; a
//! new interval begins every time the process synchronizes.  Intervals are
//! partially ordered: program order on one process, release→acquire edges
//! between processes, and transitive closure.  Vector timestamps represent
//! this partial order: entry `p` of a process's clock is the number of
//! intervals of process `p` whose write notices the process has seen.

/// A vector timestamp over `nprocs` processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock {
    entries: Vec<u32>,
}

impl VectorClock {
    /// The zero clock for `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        VectorClock {
            entries: vec![0; nprocs],
        }
    }

    /// Build a clock from raw entries.
    pub fn from_entries(entries: Vec<u32>) -> Self {
        VectorClock { entries }
    }

    /// Number of processes this clock covers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the clock covers zero processes (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for process `p`: how many of `p`'s intervals are known.
    pub fn get(&self, p: usize) -> u32 {
        self.entries[p]
    }

    /// Set the entry for process `p`.
    pub fn set(&mut self, p: usize, v: u32) {
        self.entries[p] = v;
    }

    /// Increment the entry for process `p` and return the new value.
    pub fn increment(&mut self, p: usize) -> u32 {
        self.entries[p] += 1;
        self.entries[p]
    }

    /// Component-wise maximum with `other`.
    pub fn merge(&mut self, other: &VectorClock) {
        assert_eq!(self.len(), other.len(), "merging clocks of different size");
        for (a, b) in self.entries.iter_mut().zip(other.entries.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Does this clock already cover interval `seq` of process `creator`?
    ///
    /// Interval sequence numbers are 1-based: the first closed interval of a
    /// process has `seq == 1`, and a clock entry of `k` covers intervals
    /// `1..=k`.
    pub fn covers(&self, creator: usize, seq: u32) -> bool {
        self.entries[creator] >= seq
    }

    /// True if every entry of `self` is `>=` the corresponding entry of
    /// `other`, i.e. `self` knows at least as much as `other`.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        assert_eq!(self.len(), other.len());
        self.entries
            .iter()
            .zip(other.entries.iter())
            .all(|(a, b)| a >= b)
    }

    /// Sum of the entries — a linear extension key for `hb1`: if interval A
    /// happens-before interval B then `A.vc.sum() < B.vc.sum()`, so sorting
    /// diffs by this key applies them in an order consistent with `hb1`.
    pub fn sum(&self) -> u64 {
        self.entries.iter().map(|&e| e as u64).sum()
    }

    /// Raw entries, for wire encoding.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increment_and_covers() {
        let mut vc = VectorClock::new(4);
        assert!(!vc.covers(2, 1));
        assert_eq!(vc.increment(2), 1);
        assert!(vc.covers(2, 1));
        assert!(!vc.covers(2, 2));
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = VectorClock::from_entries(vec![3, 0, 5]);
        let b = VectorClock::from_entries(vec![1, 4, 2]);
        a.merge(&b);
        assert_eq!(a.entries(), &[3, 4, 5]);
    }

    #[test]
    fn dominates_is_a_partial_order() {
        let a = VectorClock::from_entries(vec![2, 2]);
        let b = VectorClock::from_entries(vec![1, 2]);
        let c = VectorClock::from_entries(vec![2, 1]);
        assert!(a.dominates(&b));
        assert!(a.dominates(&c));
        assert!(!b.dominates(&c));
        assert!(!c.dominates(&b));
        assert!(a.dominates(&a));
    }

    #[test]
    fn sum_is_a_linear_extension_key() {
        // b happens-before a (componentwise <=, strictly less somewhere).
        let a = VectorClock::from_entries(vec![2, 3, 1]);
        let b = VectorClock::from_entries(vec![2, 2, 1]);
        assert!(a.dominates(&b) && a != b);
        assert!(b.sum() < a.sum());
    }

    #[test]
    #[should_panic]
    fn merging_mismatched_sizes_panics() {
        let mut a = VectorClock::new(2);
        a.merge(&VectorClock::new(3));
    }
}
