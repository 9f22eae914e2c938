//! `netws` — reproduction of *"Message Passing Versus Distributed Shared
//! Memory on Networks of Workstations"* (Lu, Dwarkadas, Cox, Zwaenepoel,
//! SC'95).
//!
//! This facade crate re-exports the workspace components so that examples and
//! integration tests can use a single dependency:
//!
//! * [`cluster`] — the simulated network-of-workstations substrate,
//! * [`msgpass`] — the PVM-style message passing library,
//! * [`treadmarks`] — the TreadMarks-style software DSM (lazy release
//!   consistency, multiple-writer protocol),
//! * [`apps`] — the nine applications of the study, in both paradigms.
//!
//! See README.md for a repo tour, the protocol-backend documentation,
//! and the reproduction methodology.

pub use apps;
pub use cluster;
pub use msgpass;
pub use treadmarks;
