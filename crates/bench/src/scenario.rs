//! Resolution of declarative scenario files into harness terms.
//!
//! `cluster::scenario` owns the *file format* and the network-model half of
//! a scenario; this module resolves the harness half — the strings naming a
//! problem-size preset, a workload subset and a system subset — into
//! [`Preset`], [`Workload`] and [`System`] values, with defaults filled in.
//! `reproduce --scenario FILE` goes through [`ResolvedScenario::resolve`];
//! explicit CLI flags then override individual fields.

use crate::{Preset, RunTuning};
use apps::runner::System;
use apps::Workload;
use cluster::{NetModel, Scenario};
use treadmarks::ProtocolKind;

/// A scenario with every harness-level string resolved and every default
/// filled in: ready to drive a reproduction or a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedScenario {
    /// Display name (empty if the file named none).
    pub name: String,
    /// The interconnect model (preset plus overrides).
    pub net: NetModel,
    /// Top processor count of the figures / the Table 2 count.
    pub max_procs: usize,
    /// Problem-size preset.
    pub preset: Preset,
    /// Workloads to run, in figure order.
    pub workloads: Vec<Workload>,
    /// Systems to compare, in [`System::all`] order.
    pub systems: Vec<System>,
    /// Schedule seed, tie-break cap and fault plan (all default unless the
    /// file carries `sched_seed` / `tie_limit` / `[fault]` keys), applied
    /// to every run the scenario drives — this is how a fuzz reproducer
    /// replays its finding.
    pub tuning: RunTuning,
}

/// Look a workload up by its harness name (`EP`, `SOR-Zero`, ...),
/// case-insensitively.
pub fn workload_by_name(name: &str) -> Result<Workload, String> {
    Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = Workload::all().iter().map(|w| w.name()).collect();
            format!(
                "unknown workload '{name}'; known workloads: {}",
                known.join(", ")
            )
        })
}

/// Look a system up by name: a DSM protocol backend (`lrc`, `hlrc`, `sc`,
/// `treadmarks` for the paper's LRC) or `pvm`.
pub fn system_by_name(name: &str) -> Result<System, String> {
    match name.to_ascii_lowercase().as_str() {
        "pvm" => Ok(System::Pvm),
        "tmk-hlrc" => Ok(System::TreadMarks(ProtocolKind::Hlrc)),
        "tmk-sc" => Ok(System::TreadMarks(ProtocolKind::Sc)),
        other => match other.parse::<ProtocolKind>() {
            Ok(kind) => Ok(System::TreadMarks(kind)),
            Err(_) => Err(format!(
                "unknown system '{other}'; known systems: lrc, hlrc, sc, pvm"
            )),
        },
    }
}

impl ResolvedScenario {
    /// Resolve a parsed scenario file, filling absent fields from
    /// `default_preset` and `default_procs`.  An empty workload or system
    /// list means "all"; duplicates are dropped and order is normalised
    /// (figure order for workloads, [`System::all`] order for systems) so
    /// equal subsets always render identically.
    pub fn resolve(
        s: &Scenario,
        default_preset: Preset,
        default_procs: usize,
    ) -> Result<Self, String> {
        let preset = match &s.preset {
            None => default_preset,
            Some(name) => name.parse()?,
        };
        let workloads: Vec<Workload> = if s.workloads.is_empty() {
            Workload::all().to_vec()
        } else {
            let mut subset = Vec::new();
            for name in &s.workloads {
                subset.push(workload_by_name(name)?);
            }
            // Filtering the (duplicate-free) master list both orders and
            // deduplicates the subset.
            Workload::all()
                .into_iter()
                .filter(|w| subset.contains(w))
                .collect()
        };
        let systems: Vec<System> = if s.systems.is_empty() {
            System::all().to_vec()
        } else {
            let mut subset = Vec::new();
            for name in &s.systems {
                subset.push(system_by_name(name)?);
            }
            System::all()
                .into_iter()
                .filter(|sys| subset.contains(sys))
                .collect()
        };
        Ok(ResolvedScenario {
            name: s.name.clone(),
            net: s.net_model(),
            max_procs: s.procs.unwrap_or(default_procs),
            preset,
            workloads,
            systems,
            tuning: RunTuning {
                sched_seed: s.sched_seed.unwrap_or(0),
                tie_limit: s.tie_limit,
                fault: s.fault.clone().unwrap_or_default(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::NetPreset;

    #[test]
    fn defaults_fill_an_empty_scenario() {
        let r = ResolvedScenario::resolve(&Scenario::default(), Preset::Scaled, 8).unwrap();
        assert_eq!(r.preset, Preset::Scaled);
        assert_eq!(r.max_procs, 8);
        assert_eq!(r.net, NetModel::preset(NetPreset::Fddi));
        assert_eq!(r.workloads, Workload::all().to_vec());
        assert_eq!(r.systems, System::all().to_vec());
        assert!(r.tuning.is_default());
    }

    #[test]
    fn seeds_and_fault_plans_resolve_onto_the_tuning() {
        let s =
            Scenario::parse_toml("sched_seed = 7\ntie_limit = 3\n[fault]\ndrop = 0.01").unwrap();
        let r = ResolvedScenario::resolve(&s, Preset::Tiny, 8).unwrap();
        assert_eq!(r.tuning.sched_seed, 7);
        assert_eq!(r.tuning.tie_limit, Some(3));
        assert_eq!(r.tuning.fault.drop, 0.01);
        assert!(!r.tuning.is_default());
    }

    #[test]
    fn subsets_resolve_normalised_and_deduplicated() {
        let s = Scenario {
            preset: Some("tiny".into()),
            procs: Some(16),
            // Out of figure order, with a duplicate and mixed case.
            workloads: vec!["Water-288".into(), "ep".into(), "EP".into()],
            systems: vec!["pvm".into(), "LRC".into()],
            ..Scenario::default()
        };
        let r = ResolvedScenario::resolve(&s, Preset::Scaled, 8).unwrap();
        assert_eq!(r.preset, Preset::Tiny);
        assert_eq!(r.max_procs, 16);
        assert_eq!(r.workloads, vec![Workload::Ep, Workload::Water288]);
        assert_eq!(
            r.systems,
            vec![System::TreadMarks(ProtocolKind::Lrc), System::Pvm]
        );
    }

    #[test]
    fn unknown_names_are_reported_with_the_candidates() {
        let s = Scenario {
            workloads: vec!["NOPE".into()],
            ..Scenario::default()
        };
        let e = ResolvedScenario::resolve(&s, Preset::Tiny, 8).unwrap_err();
        assert!(e.contains("unknown workload 'NOPE'"), "{e}");
        assert!(e.contains("EP"), "{e}");
        assert!(system_by_name("mpi").is_err());
        assert!("nano".parse::<Preset>().is_err());
    }
}
