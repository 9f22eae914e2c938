//! The repo's benchmark, end to end: six workloads driven through the
//! release `reproduce` binary as a pinned child process, timed from outside
//! and checked for simulated-statistics identity.  Host time is what is
//! measured; see `../README.md`.
//!
//! This package depends on nothing in the repo — it only spawns the built
//! binary — so it keeps working when library signatures change.  The traced
//! per-layer probes live in `../layers`, which links the repo's crates and
//! borrows this crate's helpers.

#![deny(missing_docs)]

pub mod compare;
pub mod json;
pub mod report;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
