//! Run-time analysis levels.
//!
//! Like the observability layer ([`crate::obs`]), analysis lives **outside
//! the cost model**: enabling an analysis must never change any virtual
//! time, message count or checksum a run reports.  The analyses themselves
//! live with the runtime they instrument (the happens-before race detector
//! rides the DSM runtime in the `treadmarks` crate); this module only
//! defines the switch that [`crate::ClusterConfig`] carries so every layer
//! between the CLI and the runtime can plumb it without new parameters.

/// How much run-time analysis a run performs.
///
/// Carried on [`crate::ClusterConfig`] next to [`crate::ObsLevel`] and, like
/// it, **not** part of the communication cost model: with any level the
/// simulated virtual times, message counts and checksums are bit-identical
/// to [`AnalysisLevel::Off`].  Analyses only *observe* the run and append
/// their findings to the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AnalysisLevel {
    /// No analysis (the default): zero overhead, nothing recorded.
    #[default]
    Off,
    /// Happens-before data-race detection: the DSM runtime records every
    /// shared read/write with its analysis vector clock and a post-mortem
    /// pass flags conflicting access pairs not ordered by happens-before.
    Race,
}

impl AnalysisLevel {
    /// Whether any analysis is recording at this level.
    pub fn enabled(self) -> bool {
        self != AnalysisLevel::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert_eq!(AnalysisLevel::default(), AnalysisLevel::Off);
        assert!(!AnalysisLevel::Off.enabled());
        assert!(AnalysisLevel::Race.enabled());
    }
}
