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
//! The schema is one table, `KEYS`: a row per key names the table it lives
//! in (the top level, `[overrides]` or `[fault]`) and carries the function
//! that reads and checks its value and the one that writes it back.  The
//! reader, the canonical writer [`Scenario::to_toml`], the unknown-key
//! messages, [`Overrides::is_empty`] and [`NetModel::label`] all walk it,
//! and a test holds docs/EXPERIMENTS.md's three key tables to it row by row.
//!
//! The reader is line-oriented and takes only what the rows need: `#`
//! comments, `[overrides]` and `[fault]` headers, and `key = value` lines
//! whose value is a quoted string (escapes `\\ \" \n \t \r`), `true` or
//! `false`, a number (underscores allowed; a bare integer is read exactly,
//! so 64-bit seeds survive), or a single-line array of strings.  Parse →
//! serialise → parse is the identity, which the round-trip tests assert.
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
//! let cfg = s.net_model().config(s.procs.unwrap_or(8));
//! assert_eq!(cfg.nprocs, 16);
//! assert_eq!(cfg.bandwidth, 5.25e6);
//! // Canonical re-serialisation round-trips.
//! assert_eq!(Scenario::parse_toml(&s.to_toml()).unwrap(), s);
//! ```

use crate::config::{NetModel, NetPreset, Overrides};
use crate::fault::FaultPlan;
use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

/// A parsed scenario file.
///
/// The network-model half ([`net`](Self::net), [`overrides`](Self::overrides),
/// [`procs`](Self::procs)) is interpreted by this crate; the harness half
/// ([`preset`](Self::preset), [`workloads`](Self::workloads),
/// [`systems`](Self::systems)) is carried as opaque strings for the
/// reproduction harness to resolve.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// System subset (`lrc` / `hlrc` / `sc` / `pvm`); empty means "all".
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

/// Why a scenario file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// The tables of a scenario file in file order: the top level (no header),
/// then `[overrides]` and `[fault]`.
const TABLES: [&str; 3] = ["", "overrides", "fault"];

/// One key of the scenario schema.
struct Key {
    /// The entry of [`TABLES`] the key lives in.
    table: &'static str,
    /// The key as written in the file.
    name: &'static str,
    /// Read and check a right-hand side into the scenario.
    read: fn(&mut Scenario, &Rhs<'_>) -> Result<(), String>,
    /// The canonical right-hand side, or `None` to leave the key out.
    write: fn(&Scenario) -> Option<String>,
}

/// The scenario schema, in file order.  Time costs may be zero (the ideal
/// preset's are) but never negative; a zero bandwidth or retransmission
/// timeout would surface as a baffling virtual-time deadlock, so both must
/// be strictly positive.  Partitions and crashes arrive as the spec strings
/// their `FromStr` impls check.
static KEYS: [Key; 24] = [
    Key {
        table: "",
        name: "name",
        read: |s, v| v.string().map(|x| s.name = x),
        write: |s| (!s.name.is_empty()).then(|| quote(&s.name)),
    },
    Key {
        table: "",
        name: "net",
        read: |s, v| v.string()?.parse().map(|x| s.net = x),
        write: |s| Some(quote(s.net.name())),
    },
    Key {
        table: "",
        name: "procs",
        read: |s, v| v.count().map(|x| s.procs = Some(x)),
        write: |s| s.procs.map(|x| x.to_string()),
    },
    Key {
        table: "",
        name: "preset",
        read: |s, v| v.string().map(|x| s.preset = Some(x)),
        write: |s| s.preset.as_deref().map(quote),
    },
    Key {
        table: "",
        name: "workloads",
        read: |s, v| v.strings().map(|x| s.workloads = x),
        write: |s| list(&s.workloads),
    },
    Key {
        table: "",
        name: "systems",
        read: |s, v| v.strings().map(|x| s.systems = x),
        write: |s| list(&s.systems),
    },
    Key {
        table: "",
        name: "sched_seed",
        read: |s, v| v.uint().map(|x| s.sched_seed = Some(x)),
        write: |s| s.sched_seed.map(|x| x.to_string()),
    },
    Key {
        table: "",
        name: "tie_limit",
        read: |s, v| v.uint().map(|x| s.tie_limit = Some(x)),
        write: |s| s.tie_limit.map(|x| x.to_string()),
    },
    Key {
        table: "overrides",
        name: "latency",
        read: |s, v| v.nonneg().map(|x| s.overrides.latency = Some(x)),
        write: |s| s.overrides.latency.map(|x| x.to_string()),
    },
    Key {
        table: "overrides",
        name: "fragment_overhead",
        read: |s, v| v.nonneg().map(|x| s.overrides.fragment_overhead = Some(x)),
        write: |s| s.overrides.fragment_overhead.map(|x| x.to_string()),
    },
    Key {
        table: "overrides",
        name: "bandwidth",
        read: |s, v| v.positive().map(|x| s.overrides.bandwidth = Some(x)),
        write: |s| s.overrides.bandwidth.map(|x| x.to_string()),
    },
    Key {
        table: "overrides",
        name: "mtu",
        read: |s, v| v.count().map(|x| s.overrides.mtu = Some(x)),
        write: |s| s.overrides.mtu.map(|x| x.to_string()),
    },
    Key {
        table: "overrides",
        name: "send_overhead",
        read: |s, v| v.nonneg().map(|x| s.overrides.send_overhead = Some(x)),
        write: |s| s.overrides.send_overhead.map(|x| x.to_string()),
    },
    Key {
        table: "overrides",
        name: "recv_overhead",
        read: |s, v| v.nonneg().map(|x| s.overrides.recv_overhead = Some(x)),
        write: |s| s.overrides.recv_overhead.map(|x| x.to_string()),
    },
    Key {
        table: "overrides",
        name: "shared_medium",
        read: |s, v| v.boolean().map(|x| s.overrides.shared_medium = Some(x)),
        write: |s| s.overrides.shared_medium.map(|x| x.to_string()),
    },
    Key {
        table: "fault",
        name: "seed",
        read: |s, v| v.uint().map(|x| plan(s).seed = x),
        write: |s| changed(s, |p| p.seed),
    },
    Key {
        table: "fault",
        name: "drop",
        read: |s, v| v.probability().map(|x| plan(s).drop = x),
        write: |s| changed(s, |p| p.drop),
    },
    Key {
        table: "fault",
        name: "duplicate",
        read: |s, v| v.probability().map(|x| plan(s).duplicate = x),
        write: |s| changed(s, |p| p.duplicate),
    },
    Key {
        table: "fault",
        name: "reorder",
        read: |s, v| v.probability().map(|x| plan(s).reorder = x),
        write: |s| changed(s, |p| p.reorder),
    },
    Key {
        table: "fault",
        name: "delay",
        read: |s, v| v.probability().map(|x| plan(s).delay = x),
        write: |s| changed(s, |p| p.delay),
    },
    Key {
        table: "fault",
        name: "delay_factor",
        read: |s, v| v.nonneg().map(|x| plan(s).delay_factor = x),
        write: |s| changed(s, |p| p.delay_factor),
    },
    Key {
        table: "fault",
        name: "retransmit",
        read: |s, v| v.positive().map(|x| plan(s).retransmit = x),
        write: |s| changed(s, |p| p.retransmit),
    },
    Key {
        table: "fault",
        name: "partitions",
        read: |s, v| v.specs().map(|x| plan(s).partitions = x),
        write: |s| list(&s.fault.as_ref()?.partitions),
    },
    Key {
        table: "fault",
        name: "crashes",
        read: |s, v| v.specs().map(|x| plan(s).crashes = x),
        write: |s| list(&s.fault.as_ref()?.crashes),
    },
];

/// The scenario's fault plan, created empty on first use.
fn plan(s: &mut Scenario) -> &mut FaultPlan {
    s.fault.get_or_insert_with(FaultPlan::default)
}

/// A `[fault]` field's value, if the scenario has a plan and the field
/// differs from its default there (the default re-applies on parse).
fn changed<T: PartialEq + Display>(s: &Scenario, field: fn(&FaultPlan) -> T) -> Option<String> {
    let value = field(s.fault.as_ref()?);
    (value != field(&FaultPlan::default())).then(|| value.to_string())
}

/// A non-empty list as a single-line array of quoted strings.
fn list<T: Display>(items: &[T]) -> Option<String> {
    let quoted: Vec<String> = items.iter().map(|x| quote(&x.to_string())).collect();
    (!quoted.is_empty()).then(|| format!("[{}]", quoted.join(", ")))
}

/// The unknown-key message for `key` in `table`, listing what the schema
/// knows there.
fn unknown_key(table: &str, key: &str) -> String {
    let known: Vec<&str> = KEYS
        .iter()
        .filter(|k| k.table == table)
        .map(|k| k.name)
        .collect();
    let place = match table {
        "" => String::new(),
        _ => format!(" in [{table}]"),
    };
    format!(
        "unknown key '{key}'{place}; known keys: {}, [overrides], [fault]",
        known.join(", ")
    )
}

/// The `[overrides]` fields `overrides` sets, as `(key, canonical value)`
/// pairs in schema order.  The rows write from a whole scenario, so
/// `overrides` rides in an otherwise default one.
pub(crate) fn override_fields(
    overrides: &Overrides,
) -> impl Iterator<Item = (&'static str, String)> {
    let s = Scenario {
        overrides: *overrides,
        ..Scenario::default()
    };
    KEYS.iter()
        .filter(|k| k.table == "overrides")
        .filter_map(move |k| Some((k.name, (k.write)(&s)?)))
}

impl Scenario {
    /// Load a scenario from a TOML file.  A `.json` path is rejected by
    /// name rather than misread as TOML.
    pub fn from_path(path: &Path) -> Result<Self, ScenarioError> {
        let at = |msg: &str| ScenarioError(format!("{}: {msg}", path.display()));
        if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"))
        {
            return Err(at("scenario files are TOML (see docs/EXPERIMENTS.md and \
                           examples/scenarios/*.toml); there is no JSON carrier"));
        }
        let text = std::fs::read_to_string(path).map_err(|e| at(&format!("cannot read: {e}")))?;
        Self::parse_toml(&text).map_err(|e| at(&e.0))
    }

    /// Parse the TOML carrier (see the module docs for the accepted subset).
    pub fn parse_toml(text: &str) -> Result<Self, ScenarioError> {
        let mut scenario = Scenario::default();
        let mut table = "";
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            let at = |msg: String| ScenarioError(format!("line {}: {msg}", lineno + 1));
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| at(format!("malformed section header '{line}'")))?
                    .trim();
                table = TABLES[1..]
                    .iter()
                    .copied()
                    .find(|&t| t == name)
                    .ok_or_else(|| {
                        at(format!(
                            "unknown section '[{name}]'; only [overrides] and [fault] exist"
                        ))
                    })?;
                if table == "fault" {
                    // A bare [fault] header is a valid (empty) plan.
                    plan(&mut scenario);
                }
                continue;
            }
            let (key, rhs) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected 'key = value', got '{line}'")))?;
            let key = key.trim();
            let row = KEYS
                .iter()
                .find(|k| k.table == table && k.name == key)
                .ok_or_else(|| at(unknown_key(table, key)))?;
            let rhs = Rhs {
                key,
                text: rhs.trim(),
            };
            (row.read)(&mut scenario, &rhs).map_err(at)?;
        }
        Ok(scenario)
    }

    /// The interconnect identity this scenario describes.
    pub fn net_model(&self) -> NetModel {
        NetModel {
            preset: self.net,
            overrides: self.overrides,
        }
    }

    /// Serialise canonically as TOML: every table's set keys in schema
    /// order, a `[fault]` key only where it differs from the default.
    /// Floats print in Rust's shortest-round-trip form, so
    /// `parse_toml(to_toml(s)) == s` exactly.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for table in TABLES {
            let lines: String = KEYS
                .iter()
                .filter(|k| k.table == table)
                .filter_map(|k| Some(format!("{} = {}\n", k.name, (k.write)(self)?)))
                .collect();
            // A bare [fault] header is an empty plan, not no plan.
            if table == "overrides" && !lines.is_empty() || table == "fault" && self.fault.is_some()
            {
                out.push_str(&format!("\n[{table}]\n"));
            }
            out.push_str(&lines);
        }
        out
    }
}

/// A key's right-hand side, as its row's typed reader sees it.
struct Rhs<'a> {
    key: &'a str,
    text: &'a str,
}

impl Rhs<'_> {
    fn expected(&self, what: &str) -> String {
        format!("'{}' must be {what}, got {}", self.key, self.text)
    }

    /// `value`, if only whitespace follows it.
    fn end<T>(&self, value: T, rest: &str) -> Result<T, String> {
        if rest.trim().is_empty() {
            Ok(value)
        } else {
            Err(format!("trailing content after value in '{}'", self.text))
        }
    }

    /// A quoted string.
    fn string(&self) -> Result<String, String> {
        let (s, rest) = self.quoted(self.text, "a string")?;
        self.end(s, rest)
    }

    /// A single-line array of quoted strings (a trailing comma allowed).
    fn strings(&self) -> Result<Vec<String>, String> {
        let what = "a single-line array of strings";
        let mut rest = self
            .text
            .strip_prefix('[')
            .ok_or_else(|| self.expected(what))?;
        let mut items = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                return self.end(items, after);
            }
            let (item, after) = self.quoted(rest, what)?;
            items.push(item);
            rest = after.trim_start();
            match rest.strip_prefix(',') {
                Some(after) => rest = after,
                None if rest.starts_with(']') => {}
                None => return Err(self.expected(what)),
            }
        }
    }

    /// Strings of [`Self::strings`], each parsed as a fault spec.
    fn specs<T: FromStr<Err = String>>(&self) -> Result<Vec<T>, String> {
        self.strings()?.iter().map(|s| s.parse()).collect()
    }

    /// The quoted string `text` starts with, unescaped, and what follows
    /// its closing quote.
    fn quoted<'t>(&self, text: &'t str, what: &str) -> Result<(String, &'t str), String> {
        let body = text.strip_prefix('"').ok_or_else(|| self.expected(what))?;
        let mut out = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((out, &body[i + 1..])),
                '\\' => {
                    let letter = chars.next().map(|(_, e)| e);
                    match ESCAPES.iter().find(|&&(_, e)| Some(e) == letter) {
                        Some(&(raw, _)) => out.push(raw),
                        None => {
                            let e = letter.map(String::from).unwrap_or_default();
                            return Err(format!("unsupported escape '\\{e}' in '{}'", self.text));
                        }
                    }
                }
                c => out.push(c),
            }
        }
        Err(format!("unterminated string in '{}'", self.text))
    }

    /// The value as one bare word.
    fn word(&self) -> Result<&str, String> {
        let (word, rest) = self
            .text
            .split_once(char::is_whitespace)
            .unwrap_or((self.text, ""));
        self.end(word, rest)
    }

    fn boolean(&self) -> Result<bool, String> {
        self.word()?
            .parse()
            .map_err(|_| self.expected("true or false"))
    }

    /// A bare non-negative integer, read exactly: 64-bit seeds do not
    /// survive a round trip through f64.
    fn uint(&self) -> Result<u64, String> {
        self.word()?
            .replace('_', "")
            .parse()
            .map_err(|_| self.expected("a non-negative integer"))
    }

    /// A finite number passing `ok`; `'key' {why}` otherwise.
    fn number(&self, ok: impl Fn(f64) -> bool, why: &str) -> Result<f64, String> {
        match self.word()?.replace('_', "").parse::<f64>() {
            Ok(n) if !n.is_finite() => Err(self.expected("a finite number")),
            Ok(n) if ok(n) => Ok(n),
            Ok(n) => Err(format!("'{}' {why}, got {n}", self.key)),
            Err(_) => Err(self.expected("a number")),
        }
    }

    fn nonneg(&self) -> Result<f64, String> {
        self.number(|n| n >= 0.0, "must not be negative")
    }

    fn positive(&self) -> Result<f64, String> {
        self.number(|n| n > 0.0, "must be positive")
    }

    fn probability(&self) -> Result<f64, String> {
        self.number(|p| (0.0..=1.0).contains(&p), "is a probability in [0, 1]")
    }

    fn count(&self) -> Result<usize, String> {
        let whole = |n: f64| n.fract() == 0.0 && (1.0..=u32::MAX as f64).contains(&n);
        self.number(whole, "must be a positive integer")
            .map(|n| n as usize)
    }
}

/// The string escapes, `(character, letter after the backslash)`: what
/// [`quote`] writes is exactly what [`Rhs::quoted`] reads, so serialise →
/// parse is the identity for any content.
const ESCAPES: [(char, char); 5] = [
    ('\\', '\\'),
    ('"', '"'),
    ('\n', 'n'),
    ('\t', 't'),
    ('\r', 'r'),
];

/// Quote a string for [`Scenario::to_toml`].
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match ESCAPES.iter().find(|&&(raw, _)| raw == c) {
            Some(&(_, letter)) => out.extend(['\\', letter]),
            None => out.push(c),
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
        let cfg = s.net_model().config(16);
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
        let e = Scenario::parse_toml("[overrides]\nlatency = inf").unwrap_err();
        assert!(e.to_string().contains("finite number"), "{e}");
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
    fn to_toml_writes_each_table_in_schema_order() {
        let e = Scenario::parse_toml(
            "[fault]\ncrashes = [\"1#4\"]\ndrop = 0.5\n[overrides]\nmtu = 1500\nlatency = 1e-4\n\
             systems = []\nnet = \"ideal\"",
        )
        .unwrap_err();
        // `systems` after a header belongs to [overrides]: located, listed.
        assert!(
            e.to_string()
                .contains("line 7: unknown key 'systems' in [overrides]"),
            "{e}"
        );
        let s = Scenario::parse_toml(
            "net = \"ideal\"\nsystems = []\n[fault]\ncrashes = [\"1#4\"]\ndrop = 0.5\n\
             [overrides]\nmtu = 1500\nlatency = 1e-4",
        )
        .unwrap();
        assert_eq!(
            s.to_toml(),
            "net = \"ideal\"\n\n[overrides]\nlatency = 0.0001\nmtu = 1500\n\n\
             [fault]\ndrop = 0.5\ncrashes = [\"1#4\"]\n"
        );
    }

    #[test]
    fn defaults_are_fddi_with_nothing_pinned() {
        let s = Scenario::parse_toml("").unwrap();
        assert_eq!(s, Scenario::default());
        assert_eq!(s.net, NetPreset::Fddi);
        assert!(s.net_model().overrides.is_empty());
        assert_eq!(s.to_toml(), "net = \"fddi\"\n");
    }

    #[test]
    fn errors_carry_line_numbers_and_key_names() {
        let e = Scenario::parse_toml("net = \"warpdrive\"").unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        assert!(e.to_string().contains("warpdrive"), "{e}");
        let e = Scenario::parse_toml("speed = 3").unwrap_err();
        assert!(e.to_string().contains("unknown key 'speed'"), "{e}");
        // A retired or alias key is an unknown key: located, with the
        // schema's list.
        for retired in ["islands", "nprocs"] {
            let e = Scenario::parse_toml(&format!("procs = 4\n{retired} = 4")).unwrap_err();
            assert!(e.to_string().contains("line 2"), "{e}");
            assert!(
                e.to_string().contains(&format!("unknown key '{retired}'")),
                "{e}"
            );
            assert!(
                e.to_string()
                    .contains("sched_seed, tie_limit, [overrides], [fault]"),
                "{e}"
            );
        }
        let e = Scenario::parse_toml("[overrides]\nwarp = 9").unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown key 'warp' in [overrides]; known keys: latency,"),
            "{e}"
        );
        let e = Scenario::parse_toml("procs = 2.5").unwrap_err();
        assert!(e.to_string().contains("positive integer"), "{e}");
        let e = Scenario::parse_toml("[islands]").unwrap_err();
        assert!(e.to_string().contains("unknown section '[islands]'"), "{e}");
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
        // Non-finite times would never fire (a crash) or carry the run's
        // virtual time to `inf` (a partition's heal).  A rank on both sides
        // of a cut, a crash at event 0 or a negative time would be silently
        // reinterpreted.
        for (key, spec, kind) in [
            ("crashes", "1@NaN", "crash"),
            ("crashes", "1@inf", "crash"),
            ("partitions", "0|1@0..inf", "partition"),
            ("partitions", "0,1|1,2@0.001..0.004", "partition"),
            ("crashes", "2#0", "crash"),
            ("crashes", "2@-0.001", "crash"),
            ("partitions", "0|1@-0.001..0.004", "partition"),
        ] {
            let e = Scenario::parse_toml(&format!("[fault]\n{key} = [\"{spec}\"]")).unwrap_err();
            assert!(
                e.to_string()
                    .contains(&format!("line 2: bad {kind} spec '{spec}'")),
                "{e}"
            );
        }
        let e = Scenario::parse_toml("[fault]\nretransmit = 0.0").unwrap_err();
        assert!(e.to_string().contains("must be positive"), "{e}");
        let e = Scenario::parse_toml("[fault]\nwarp = 1").unwrap_err();
        assert!(
            e.to_string().contains("unknown key 'warp' in [fault]"),
            "{e}"
        );
        // A bare [fault] header is a valid empty plan, and writes back.
        let s = Scenario::parse_toml("[fault]").unwrap();
        assert!(s.fault.as_ref().unwrap().is_empty());
        assert_eq!(s.to_toml(), "net = \"fddi\"\n\n[fault]\n");
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
    fn values_outside_the_grammar_are_rejected() {
        for (text, msg) in [
            ("name = \"x\" \"y\"", "trailing content"),
            ("procs = 4 5", "trailing content"),
            ("name = \"bad \\q escape\"", "unsupported escape"),
            ("name = \"open", "unterminated string"),
            ("name = 4", "'name' must be a string"),
            ("procs = \"4\"", "'procs' must be a number"),
            ("sched_seed = 1.5", "non-negative integer"),
            ("workloads = [[\"EP\"]]", "array of strings"),
            ("workloads = [\"EP\" \"IS\"]", "array of strings"),
            ("workloads = [\"EP\"", "array of strings"),
            ("systems = \"lrc\"", "array of strings"),
            ("[overrides]\nshared_medium = 1", "true or false"),
        ] {
            let e = Scenario::parse_toml(text).unwrap_err();
            assert!(e.to_string().contains(msg), "{text}: {e}");
        }
        let s =
            Scenario::parse_toml("workloads = [ \"EP\" ,\"IS-Small\", ]\nsystems = []").unwrap();
        assert_eq!(s.workloads, ["EP", "IS-Small"]);
        assert!(s.systems.is_empty());
    }

    /// docs/EXPERIMENTS.md's three scenario tables list exactly the schema's
    /// keys, table by table and in schema order: a new key cannot ship
    /// undocumented, and a removed one cannot stay documented.
    #[test]
    fn the_scenario_reference_documents_every_key() {
        let doc = include_str!("../../../docs/EXPERIMENTS.md");
        let schema = doc
            .split("### Scenario file schema")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("docs/EXPERIMENTS.md has a scenario schema section");
        let mut documented: Vec<Vec<&str>> = Vec::new();
        let mut in_table = false;
        for line in schema.lines() {
            if line.starts_with('|') && !in_table {
                documented.push(Vec::new());
            }
            in_table = line.starts_with('|');
            if let Some((key, _)) = line.strip_prefix("| `").and_then(|r| r.split_once('`')) {
                documented.last_mut().unwrap().push(key);
            }
        }
        let schema: Vec<Vec<&str>> = TABLES
            .iter()
            .map(|&t| {
                KEYS.iter()
                    .filter(|k| k.table == t)
                    .map(|k| k.name)
                    .collect()
            })
            .collect();
        assert_eq!(documented, schema);
    }
}
