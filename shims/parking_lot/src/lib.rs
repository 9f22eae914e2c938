//! Offline stand-in for the subset of `parking_lot` this workspace uses:
//! a [`Mutex`] whose `lock` returns the guard directly (no poison `Result`).
//!
//! Implemented over `std::sync`; a poisoned lock (a panicked holder) is
//! recovered rather than propagated, matching parking_lot's behaviour of
//! not poisoning at all.

#![warn(missing_docs)]

/// Guard returned by [`Mutex::lock`]; unlocks on drop.
pub use std::sync::MutexGuard;

/// A mutual-exclusion lock with parking_lot's panic-free API.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_guards_mutation() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }
}
