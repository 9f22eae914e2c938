//! Scenario files: declarative descriptions of a simulated testbed.
//!
//! A scenario file names an interconnect preset, optional per-field
//! overrides on top of it, a processor count, and — opaquely to this crate
//! — the benchmark preset, workload subset and system subset the
//! reproduction harness should run (the harness resolves those strings; the
//! cluster crate only owns the network model).  The carrier is TOML;
//! `examples/scenarios/` in the repository root holds commented examples
//! and docs/EXPERIMENTS.md documents every key.
//!
//! The canonical shape:
//!
//! ```toml
//! name = "atm-16"
//! net = "atm"              # fddi | ethernet | atm | ideal
//! procs = 16
//! preset = "scaled"        # tiny | scaled | paper (harness-interpreted)
//! workloads = ["EP", "Water-288"]
//! systems = ["lrc", "hlrc", "pvm"]
//!
//! [overrides]              # every key optional; replaces the preset value
//! bandwidth = 8.0e6        # bytes/second
//! latency = 250.0e-6       # seconds
//! shared_medium = false
//! ```
//!
//! The build environment has no crates.io access and the `serde` shim is
//! declare-only, so this module carries its own small reader (a
//! line-oriented TOML subset: comments, one `[section]` level, scalar and
//! single-line-array values).  [`Scenario::to_toml`] re-serialises canonically; parse → serialise →
//! parse is the identity, which the round-trip tests assert.
//!
//! # Example
//!
//! ```
//! use cluster::scenario::Scenario;
//!
//! let s = Scenario::parse_toml(r#"
//!     name = "slow-ring"
//!     net = "fddi"
//!     procs = 16
//!     [overrides]
//!     bandwidth = 5.25e6
//! "#).unwrap();
//! assert_eq!(s.procs, Some(16));
//! let cfg = s.cluster_config(8); // 8 is the fallback when procs is absent
//! assert_eq!(cfg.nprocs, 16);
//! assert_eq!(cfg.bandwidth, 5.25e6);
//! // Canonical re-serialisation round-trips.
//! assert_eq!(Scenario::parse_toml(&s.to_toml()).unwrap(), s);
//! ```

use crate::config::{ClusterConfig, NetModel, NetPreset, Overrides};
use crate::fault::{Crash, FaultPlan, Partition};
use std::path::Path;

/// A parsed scenario file.
///
/// The network-model half ([`net`](Self::net), [`overrides`](Self::overrides),
/// [`procs`](Self::procs)) is interpreted by this crate; the harness half
/// ([`preset`](Self::preset), [`workloads`](Self::workloads),
/// [`systems`](Self::systems)) is carried as opaque strings for the
/// reproduction harness to resolve.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name of the scenario (defaults to empty).
    pub name: String,
    /// The interconnect preset to start from (defaults to FDDI).
    pub net: NetPreset,
    /// Processor count; `None` leaves the caller's default in force.
    pub procs: Option<usize>,
    /// Benchmark problem-size preset name (`tiny` / `scaled` / `paper`);
    /// opaque to this crate.
    pub preset: Option<String>,
    /// Workload subset by harness name; empty means "all".
    pub workloads: Vec<String>,
    /// System subset (`lrc` / `hlrc` / `pvm`); empty means "all".
    pub systems: Vec<String>,
    /// Field overrides applied on top of [`net`](Self::net).
    pub overrides: Overrides,
    /// Arbiter tie-break seed (`sched_seed` key); `None`/0 = rank order.
    pub sched_seed: Option<u64>,
    /// Cap on seeded tie-break draws (`tie_limit` key); rank order after.
    pub tie_limit: Option<u64>,
    /// Fault-injection plan (`[fault]` section); `None` = no faults.
    pub fault: Option<FaultPlan>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: String::new(),
            net: NetPreset::Fddi,
            procs: None,
            preset: None,
            workloads: Vec::new(),
            systems: Vec::new(),
            overrides: Overrides::default(),
            sched_seed: None,
            tie_limit: None,
            fault: None,
        }
    }
}

/// Why a scenario file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError(msg.into()))
}

/// A parsed right-hand-side value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    /// A non-negative integer kept exact: 64-bit seeds do not survive a
    /// round trip through f64, so the readers preserve bare integers.
    Int(u64),
    Bool(bool),
    List(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(_) | Value::Int(_) => "number",
            Value::Bool(_) => "boolean",
            Value::List(_) => "array",
        }
    }

    fn as_str(&self, key: &str) -> Result<&str, ScenarioError> {
        match self {
            Value::Str(s) => Ok(s),
            other => err(format!(
                "'{key}' must be a string, got {}",
                other.type_name()
            )),
        }
    }

    fn as_f64(&self, key: &str) -> Result<f64, ScenarioError> {
        match self {
            Value::Num(n) => Ok(*n),
            Value::Int(n) => Ok(*n as f64),
            other => err(format!(
                "'{key}' must be a number, got {}",
                other.type_name()
            )),
        }
    }

    fn as_u64(&self, key: &str) -> Result<u64, ScenarioError> {
        match self {
            Value::Int(n) => Ok(*n),
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Ok(*n as u64)
            }
            other => err(format!(
                "'{key}' must be a non-negative integer, got {other:?}"
            )),
        }
    }

    fn as_nonneg_f64(&self, key: &str) -> Result<f64, ScenarioError> {
        let n = self.as_f64(key)?;
        if n >= 0.0 {
            Ok(n)
        } else {
            err(format!("'{key}' must not be negative, got {n}"))
        }
    }

    fn as_positive_f64(&self, key: &str) -> Result<f64, ScenarioError> {
        let n = self.as_f64(key)?;
        if n > 0.0 {
            Ok(n)
        } else {
            err(format!("'{key}' must be positive, got {n}"))
        }
    }

    fn as_usize(&self, key: &str) -> Result<usize, ScenarioError> {
        let n = self.as_f64(key)?;
        if n.fract() == 0.0 && n >= 1.0 && n <= u32::MAX as f64 {
            Ok(n as usize)
        } else {
            err(format!("'{key}' must be a positive integer, got {n}"))
        }
    }

    /// Parse a list of `T: FromStr` strings (partition and crash specs).
    fn as_spec_list<T: std::str::FromStr<Err = String>>(
        &self,
        key: &str,
    ) -> Result<Vec<T>, ScenarioError> {
        self.as_string_list(key)?
            .iter()
            .map(|s| s.parse().map_err(ScenarioError))
            .collect()
    }

    fn as_bool(&self, key: &str) -> Result<bool, ScenarioError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => err(format!(
                "'{key}' must be a boolean, got {}",
                other.type_name()
            )),
        }
    }

    fn as_string_list(&self, key: &str) -> Result<Vec<String>, ScenarioError> {
        match self {
            Value::List(items) => items
                .iter()
                .map(|v| v.as_str(key).map(String::from))
                .collect(),
            other => err(format!(
                "'{key}' must be an array of strings, got {}",
                other.type_name()
            )),
        }
    }
}

impl Scenario {
    /// Load a scenario from a TOML file.  A `.json` path is rejected by
    /// name rather than misread as TOML.
    pub fn from_path(path: &Path) -> Result<Self, ScenarioError> {
        if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"))
        {
            return err(format!(
                "{}: scenario files are TOML (see docs/EXPERIMENTS.md and \
                 examples/scenarios/*.toml); there is no JSON carrier",
                path.display()
            ));
        }
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return err(format!("cannot read {}: {e}", path.display())),
        };
        Self::parse_toml(&text).map_err(|e| ScenarioError(format!("{}: {}", path.display(), e.0)))
    }

    /// Parse the TOML carrier (see the module docs for the accepted subset).
    pub fn parse_toml(text: &str) -> Result<Self, ScenarioError> {
        let mut scenario = Scenario::default();
        let mut section: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| ScenarioError(format!("line {}: {msg}", lineno + 1));
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(at(format!("malformed section header '{line}'")));
                };
                let name = name.trim();
                if name != "overrides" && name != "fault" {
                    return Err(at(format!(
                        "unknown section '[{name}]'; only [overrides] and [fault] exist"
                    )));
                }
                if name == "fault" {
                    // A bare [fault] header is a valid (empty) plan.
                    scenario.fault.get_or_insert_with(FaultPlan::default);
                }
                section = Some(name.to_string());
                continue;
            }
            let Some((key, rhs)) = line.split_once('=') else {
                return Err(at(format!("expected 'key = value', got '{line}'")));
            };
            let key = key.trim();
            let value = parse_toml_value(rhs.trim()).map_err(|e| at(e.0))?;
            scenario
                .set(section.as_deref(), key, &value)
                .map_err(|e| at(e.0))?;
        }
        Ok(scenario)
    }

    /// Assign one parsed key; `section` is `None` at top level.
    fn set(
        &mut self,
        section: Option<&str>,
        key: &str,
        value: &Value,
    ) -> Result<(), ScenarioError> {
        match section {
            None => match key {
                "name" => self.name = value.as_str(key)?.to_string(),
                "net" => {
                    self.net = value.as_str(key)?.parse().map_err(ScenarioError)?;
                }
                "procs" | "nprocs" => self.procs = Some(value.as_usize(key)?),
                "preset" => self.preset = Some(value.as_str(key)?.to_string()),
                "workloads" => self.workloads = value.as_string_list(key)?,
                "systems" => self.systems = value.as_string_list(key)?,
                "sched_seed" => self.sched_seed = Some(value.as_u64(key)?),
                "tie_limit" => self.tie_limit = Some(value.as_u64(key)?),
                other => {
                    return err(format!(
                        "unknown key '{other}'; known keys: name, net, procs, preset, \
                         workloads, systems, sched_seed, tie_limit, [overrides], [fault]"
                    ))
                }
            },
            // Time costs may be zero (the ideal preset's are), but never
            // negative; a zero bandwidth would make occupancy infinite and
            // surface as a baffling virtual-time deadlock, so it must be
            // strictly positive.
            Some("overrides") => match key {
                "latency" => self.overrides.latency = Some(value.as_nonneg_f64(key)?),
                "fragment_overhead" => {
                    self.overrides.fragment_overhead = Some(value.as_nonneg_f64(key)?)
                }
                "bandwidth" => self.overrides.bandwidth = Some(value.as_positive_f64(key)?),
                "mtu" => self.overrides.mtu = Some(value.as_usize(key)?),
                "send_overhead" => self.overrides.send_overhead = Some(value.as_nonneg_f64(key)?),
                "recv_overhead" => self.overrides.recv_overhead = Some(value.as_nonneg_f64(key)?),
                "shared_medium" => self.overrides.shared_medium = Some(value.as_bool(key)?),
                other => {
                    return err(format!(
                        "unknown override '{other}'; known overrides: latency, \
                         fragment_overhead, bandwidth, mtu, send_overhead, recv_overhead, \
                         shared_medium"
                    ))
                }
            },
            // Probabilities must be valid; partitions and crashes arrive as
            // the canonical spec strings their `FromStr` impls validate.
            Some("fault") => {
                let plan = self.fault.get_or_insert_with(FaultPlan::default);
                let as_prob = |v: &Value| -> Result<f64, ScenarioError> {
                    let p = v.as_nonneg_f64(key)?;
                    if p <= 1.0 {
                        Ok(p)
                    } else {
                        err(format!("'{key}' is a probability; got {p} > 1"))
                    }
                };
                match key {
                    "seed" => plan.seed = value.as_u64(key)?,
                    "drop" => plan.drop = as_prob(value)?,
                    "duplicate" => plan.duplicate = as_prob(value)?,
                    "reorder" => plan.reorder = as_prob(value)?,
                    "delay" => plan.delay = as_prob(value)?,
                    "delay_factor" => plan.delay_factor = value.as_nonneg_f64(key)?,
                    "retransmit" => plan.retransmit = value.as_positive_f64(key)?,
                    "partitions" => plan.partitions = value.as_spec_list::<Partition>(key)?,
                    "crashes" => plan.crashes = value.as_spec_list::<Crash>(key)?,
                    other => {
                        return err(format!(
                            "unknown fault key '{other}'; known keys: seed, drop, duplicate, \
                             reorder, delay, delay_factor, retransmit, partitions, crashes"
                        ))
                    }
                }
            }
            Some(s) => return err(format!("unknown section '{s}'")),
        }
        Ok(())
    }

    /// The interconnect identity this scenario describes.
    pub fn net_model(&self) -> NetModel {
        NetModel {
            preset: self.net,
            overrides: self.overrides,
        }
    }

    /// Materialise the cluster configuration, using `default_procs` when the
    /// file does not pin a processor count.  Carries the fault plan and
    /// schedule seed onto the config, so a reproducer scenario replays its
    /// finding exactly.
    pub fn cluster_config(&self, default_procs: usize) -> ClusterConfig {
        let mut cfg = self.net_model().config(self.procs.unwrap_or(default_procs));
        if let Some(seed) = self.sched_seed {
            cfg.sched_seed = seed;
        }
        if let Some(limit) = self.tie_limit {
            cfg.tie_limit = Some(limit);
        }
        if let Some(plan) = &self.fault {
            cfg.fault = plan.clone();
        }
        cfg
    }

    /// Serialise canonically as TOML.  Floats print in Rust's
    /// shortest-round-trip form, so `parse_toml(to_toml(s)) == s` exactly.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        if !self.name.is_empty() {
            out.push_str(&format!("name = {}\n", toml_escape(&self.name)));
        }
        out.push_str(&format!("net = \"{}\"\n", self.net.name()));
        if let Some(p) = self.procs {
            out.push_str(&format!("procs = {p}\n"));
        }
        if let Some(p) = &self.preset {
            out.push_str(&format!("preset = {}\n", toml_escape(p)));
        }
        let list = |items: &[String]| {
            let quoted: Vec<String> = items.iter().map(|s| toml_escape(s)).collect();
            format!("[{}]", quoted.join(", "))
        };
        if !self.workloads.is_empty() {
            out.push_str(&format!("workloads = {}\n", list(&self.workloads)));
        }
        if !self.systems.is_empty() {
            out.push_str(&format!("systems = {}\n", list(&self.systems)));
        }
        if let Some(seed) = self.sched_seed {
            out.push_str(&format!("sched_seed = {seed}\n"));
        }
        if let Some(limit) = self.tie_limit {
            out.push_str(&format!("tie_limit = {limit}\n"));
        }
        if !self.overrides.is_empty() {
            out.push_str("\n[overrides]\n");
            // Exhaustive destructuring: a new override field fails to
            // compile here instead of silently vanishing from the
            // canonical serialisation.
            let Overrides {
                latency,
                fragment_overhead,
                bandwidth,
                mtu,
                send_overhead,
                recv_overhead,
                shared_medium,
            } = self.overrides;
            if let Some(v) = latency {
                out.push_str(&format!("latency = {v}\n"));
            }
            if let Some(v) = fragment_overhead {
                out.push_str(&format!("fragment_overhead = {v}\n"));
            }
            if let Some(v) = bandwidth {
                out.push_str(&format!("bandwidth = {v}\n"));
            }
            if let Some(v) = mtu {
                out.push_str(&format!("mtu = {v}\n"));
            }
            if let Some(v) = send_overhead {
                out.push_str(&format!("send_overhead = {v}\n"));
            }
            if let Some(v) = recv_overhead {
                out.push_str(&format!("recv_overhead = {v}\n"));
            }
            if let Some(v) = shared_medium {
                out.push_str(&format!("shared_medium = {v}\n"));
            }
        }
        if let Some(plan) = &self.fault {
            out.push_str("\n[fault]\n");
            // Exhaustive destructuring, as for [overrides]: a new fault
            // field fails to compile here instead of silently vanishing.
            // Only non-default fields are emitted; the defaults re-apply on
            // parse, so the round trip is exact.
            let d = FaultPlan::default();
            let FaultPlan {
                seed,
                drop,
                duplicate,
                reorder,
                delay,
                delay_factor,
                retransmit,
                partitions,
                crashes,
            } = plan;
            if *seed != d.seed {
                out.push_str(&format!("seed = {seed}\n"));
            }
            for (name, v, dv) in [
                ("drop", drop, d.drop),
                ("duplicate", duplicate, d.duplicate),
                ("reorder", reorder, d.reorder),
                ("delay", delay, d.delay),
                ("delay_factor", delay_factor, d.delay_factor),
                ("retransmit", retransmit, d.retransmit),
            ] {
                if *v != dv {
                    out.push_str(&format!("{name} = {v}\n"));
                }
            }
            if !partitions.is_empty() {
                let specs: Vec<String> = partitions
                    .iter()
                    .map(|p| toml_escape(&p.to_string()))
                    .collect();
                out.push_str(&format!("partitions = [{}]\n", specs.join(", ")));
            }
            if !crashes.is_empty() {
                let specs: Vec<String> = crashes
                    .iter()
                    .map(|c| toml_escape(&c.to_string()))
                    .collect();
                out.push_str(&format!("crashes = [{}]\n", specs.join(", ")));
            }
        }
        out
    }
}

/// Quote a string for [`Scenario::to_toml`], escaping exactly the
/// sequences the parser accepts (`\\`, `\"`, `\n`, `\t`, `\r`), so
/// serialise → parse is the identity for any content.
fn toml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

/// Strip a `#` comment, respecting `"..."` strings (with escapes).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse one TOML right-hand side: a quoted string (with `\\ \" \n \t \r`
/// escapes), `true`/`false`, a single-line array, or a number (integer,
/// float, scientific notation).
fn parse_toml_value(rhs: &str) -> Result<Value, ScenarioError> {
    let chars: Vec<char> = rhs.chars().collect();
    let mut pos = 0usize;
    let value = parse_value_at(&chars, &mut pos, rhs)?;
    while pos < chars.len() && chars[pos].is_whitespace() {
        pos += 1;
    }
    if pos != chars.len() {
        return err(format!("trailing content after value in '{rhs}'"));
    }
    Ok(value)
}

/// Recursive-descent worker behind [`parse_toml_value`]: parses one value
/// starting at `pos`, leaving `pos` just past it.
fn parse_value_at(chars: &[char], pos: &mut usize, rhs: &str) -> Result<Value, ScenarioError> {
    while *pos < chars.len() && chars[*pos].is_whitespace() {
        *pos += 1;
    }
    match chars.get(*pos) {
        None => err("missing value"),
        Some('"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match chars.get(*pos) {
                    None => return err(format!("unterminated string in '{rhs}'")),
                    Some('"') => {
                        *pos += 1;
                        return Ok(Value::Str(s));
                    }
                    Some('\\') => {
                        *pos += 1;
                        match chars.get(*pos) {
                            Some('\\') => s.push('\\'),
                            Some('"') => s.push('"'),
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            other => {
                                return err(format!(
                                    "unsupported escape '\\{}' in '{rhs}'",
                                    other.copied().map(String::from).unwrap_or_default()
                                ))
                            }
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        s.push(c);
                        *pos += 1;
                    }
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                while *pos < chars.len() && chars[*pos].is_whitespace() {
                    *pos += 1;
                }
                match chars.get(*pos) {
                    None => {
                        return err(format!(
                            "unterminated array in '{rhs}' (arrays are single-line)"
                        ))
                    }
                    Some(']') => {
                        *pos += 1;
                        return Ok(Value::List(items));
                    }
                    Some(',') => {
                        // Separator (also tolerates a trailing comma).
                        *pos += 1;
                    }
                    Some(_) => items.push(parse_value_at(chars, pos, rhs)?),
                }
            }
        }
        Some(_) => {
            // A bare word: a boolean or a number, ending at whitespace,
            // a comma or a closing bracket.
            let start = *pos;
            while *pos < chars.len()
                && !chars[*pos].is_whitespace()
                && chars[*pos] != ','
                && chars[*pos] != ']'
            {
                *pos += 1;
            }
            let word: String = chars[start..*pos].iter().collect();
            match word.as_str() {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                _ => {
                    // TOML permits underscores in numbers.  Bare integers
                    // stay exact (u64) — 64-bit seeds don't survive f64.
                    let cleaned: String = word.chars().filter(|&c| c != '_').collect();
                    if let Ok(n) = cleaned.parse::<u64>() {
                        return Ok(Value::Int(n));
                    }
                    match cleaned.parse::<f64>() {
                        Ok(n) if n.is_finite() => Ok(Value::Num(n)),
                        _ => err(format!("cannot parse value '{word}'")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL_TOML: &str = r#"
        # A fully specified scenario.
        name = "atm-sixteen"    # trailing comment
        net = "atm"
        procs = 16
        preset = "tiny"
        workloads = ["EP", "SOR-Zero"]
        systems = ["lrc", "pvm"]

        [overrides]
        latency = 250e-6
        fragment_overhead = 1e-4
        bandwidth = 8.0e6
        mtu = 9_180
        send_overhead = 75e-6
        recv_overhead = 0.0
        shared_medium = false
    "#;

    #[test]
    fn toml_parses_every_key() {
        let s = Scenario::parse_toml(FULL_TOML).unwrap();
        assert_eq!(s.name, "atm-sixteen");
        assert_eq!(s.net, NetPreset::Atm);
        assert_eq!(s.procs, Some(16));
        assert_eq!(s.preset.as_deref(), Some("tiny"));
        assert_eq!(s.workloads, ["EP", "SOR-Zero"]);
        assert_eq!(s.systems, ["lrc", "pvm"]);
        // Every override field is exercised, so the round-trip test below
        // covers the full serialisation surface.
        assert_eq!(
            s.overrides,
            Overrides {
                latency: Some(250e-6),
                fragment_overhead: Some(1e-4),
                bandwidth: Some(8.0e6),
                mtu: Some(9180),
                send_overhead: Some(75e-6),
                recv_overhead: Some(0.0),
                shared_medium: Some(false),
            }
        );
        let cfg = s.cluster_config(8);
        assert_eq!(cfg.nprocs, 16);
        assert_eq!(cfg.mtu, 9180);
        assert_eq!(cfg.send_overhead, 75e-6);
    }

    #[test]
    fn nonsense_override_values_are_rejected() {
        let e = Scenario::parse_toml("[overrides]\nbandwidth = 0.0").unwrap_err();
        assert!(
            e.to_string().contains("'bandwidth' must be positive"),
            "{e}"
        );
        let e = Scenario::parse_toml("[overrides]\nbandwidth = -1e6").unwrap_err();
        assert!(
            e.to_string().contains("'bandwidth' must be positive"),
            "{e}"
        );
        let e = Scenario::parse_toml("[overrides]\nlatency = -1e-6").unwrap_err();
        assert!(
            e.to_string().contains("'latency' must not be negative"),
            "{e}"
        );
        // Zero time costs are legitimate (the ideal preset uses them).
        let s = Scenario::parse_toml("[overrides]\nlatency = 0.0").unwrap();
        assert_eq!(s.overrides.latency, Some(0.0));
    }

    #[test]
    fn a_json_path_is_a_located_error_naming_the_toml_carrier() {
        let e = Scenario::from_path(Path::new("examples/scenarios/old.json")).unwrap_err();
        assert!(e.to_string().contains("old.json"), "{e}");
        assert!(e.to_string().contains("TOML"), "{e}");
    }

    #[test]
    fn to_toml_round_trips_exactly() {
        let original = Scenario::parse_toml(FULL_TOML).unwrap();
        let reparsed = Scenario::parse_toml(&original.to_toml()).unwrap();
        assert_eq!(reparsed, original);
        // And a second serialisation is byte-identical to the first.
        assert_eq!(reparsed.to_toml(), original.to_toml());
    }

    #[test]
    fn defaults_are_fddi_with_nothing_pinned() {
        let s = Scenario::parse_toml("").unwrap();
        assert_eq!(s, Scenario::default());
        assert_eq!(s.net, NetPreset::Fddi);
        assert_eq!(s.cluster_config(4).nprocs, 4);
        assert!(s.net_model().overrides.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers_and_key_names() {
        let e = Scenario::parse_toml("net = \"warpdrive\"").unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        assert!(e.to_string().contains("warpdrive"), "{e}");
        let e = Scenario::parse_toml("speed = 3").unwrap_err();
        assert!(e.to_string().contains("unknown key 'speed'"), "{e}");
        // A retired key is an unknown key: located, with the surviving list.
        let e = Scenario::parse_toml("procs = 4\nislands = 4").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        assert!(e.to_string().contains("unknown key 'islands'"), "{e}");
        assert!(
            e.to_string().contains("sched_seed, tie_limit, [overrides]"),
            "{e}"
        );
        let e = Scenario::parse_toml("[overrides]\nwarp = 9").unwrap_err();
        assert!(e.to_string().contains("unknown override 'warp'"), "{e}");
        let e = Scenario::parse_toml("procs = 2.5").unwrap_err();
        assert!(e.to_string().contains("positive integer"), "{e}");
    }

    #[test]
    fn fault_section_and_seeds_round_trip() {
        let text = r#"
            name = "lossy-repro"
            procs = 4
            sched_seed = 18446744073709551615   # u64::MAX survives exactly
            tie_limit = 12

            [fault]
            seed = 9874321098765432109
            drop = 0.02
            delay = 0.01
            partitions = ["0,1|2,3@0.001..0.004"]
            crashes = ["2@0.0015", "3#120"]
        "#;
        let s = Scenario::parse_toml(text).unwrap();
        assert_eq!(s.sched_seed, Some(u64::MAX));
        assert_eq!(s.tie_limit, Some(12));
        let plan = s.fault.as_ref().unwrap();
        assert_eq!(plan.seed, 9874321098765432109);
        assert_eq!(plan.drop, 0.02);
        assert_eq!(plan.delay, 0.01);
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(
            plan.crash_for(3),
            Some(crate::fault::CrashPoint::Event(120))
        );
        // The plan lands on the cluster config.
        let cfg = s.cluster_config(8);
        assert_eq!(cfg.nprocs, 4);
        assert_eq!(cfg.sched_seed, u64::MAX);
        assert_eq!(cfg.tie_limit, Some(12));
        assert_eq!(&cfg.fault, plan);
        // Canonical serialisation round-trips exactly, twice.
        let reparsed = Scenario::parse_toml(&s.to_toml()).unwrap();
        assert_eq!(reparsed, s);
        assert_eq!(reparsed.to_toml(), s.to_toml());
    }

    #[test]
    fn bad_fault_values_are_rejected() {
        let e = Scenario::parse_toml("[fault]\ndrop = 1.5").unwrap_err();
        assert!(e.to_string().contains("probability"), "{e}");
        let e = Scenario::parse_toml("[fault]\npartitions = [\"0|@1..2\"]").unwrap_err();
        assert!(e.to_string().contains("bad partition spec"), "{e}");
        let e = Scenario::parse_toml("[fault]\ncrashes = [\"nope\"]").unwrap_err();
        assert!(e.to_string().contains("bad crash spec"), "{e}");
        let e = Scenario::parse_toml("[fault]\nretransmit = 0.0").unwrap_err();
        assert!(e.to_string().contains("must be positive"), "{e}");
        let e = Scenario::parse_toml("[fault]\nwarp = 1").unwrap_err();
        assert!(e.to_string().contains("unknown fault key"), "{e}");
        // A bare [fault] header is a valid empty plan.
        let s = Scenario::parse_toml("[fault]").unwrap();
        assert!(s.fault.as_ref().unwrap().is_empty());
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        let s = Scenario::parse_toml("name = \"has # hash\" # real comment").unwrap();
        assert_eq!(s.name, "has # hash");
    }

    #[test]
    fn awkward_strings_round_trip_through_to_toml() {
        // Quotes, backslashes, commas, hashes and tabs in string values:
        // serialise → parse must be the identity for all of them.
        let s = Scenario {
            name: "a \"quoted\\name\", with # hash\tand more".to_string(),
            workloads: vec!["EP, almost".into(), "SOR \"Zero\"".into()],
            ..Scenario::default()
        };
        let reparsed = Scenario::parse_toml(&s.to_toml()).unwrap();
        assert_eq!(reparsed, s);
        // And escaped quotes don't confuse the comment stripper.
        let t = Scenario::parse_toml("name = \"ends with \\\\\" # comment").unwrap();
        assert_eq!(t.name, "ends with \\");
    }

    #[test]
    fn trailing_garbage_after_a_value_is_rejected() {
        let e = Scenario::parse_toml("name = \"x\" \"y\"").unwrap_err();
        assert!(e.to_string().contains("trailing content"), "{e}");
        let e = Scenario::parse_toml("procs = 4 5").unwrap_err();
        assert!(e.to_string().contains("trailing content"), "{e}");
        let e = Scenario::parse_toml("name = \"bad \\q escape\"").unwrap_err();
        assert!(e.to_string().contains("unsupported escape"), "{e}");
    }
}
