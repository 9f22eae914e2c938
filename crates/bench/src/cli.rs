//! The `reproduce` command line: one flag table and one pure parser.
//!
//! [`FLAGS`] is the only list of flags there is — [`parse`] accepts exactly
//! its rows, the error messages and `--list`'s knob line are rendered from
//! it, and a test checks docs/EXPERIMENTS.md (the flag reference) against
//! it.  Parsing touches no file and runs nothing, so every rejection —
//! unknown flag, flag outside its mode, missing value, repeat — happens
//! before the first simulation starts.

use crate::sweep::Vary;
use crate::Preset;
use apps::{System, Workload};
use cluster::{NetModel, NetPreset};
use treadmarks::ProtocolKind;

/// What an invocation renders: the paper's tables and figures, sensitivity
/// sweeps (`reproduce sweep ...`) or a fuzz campaign (`reproduce fuzz ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The reproduction: Table 1, Figures 1–12, Table 2.
    Reproduction,
    /// `reproduce sweep`: sensitivity figures.
    Sweep,
    /// `reproduce fuzz`: seeded schedule and fault exploration.
    Fuzz,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Reproduction => "the reproduction",
            Mode::Sweep => "sweep mode",
            Mode::Fuzz => "fuzz mode",
        }
    }
}

use Mode::{Fuzz, Reproduction, Sweep};

const EVERY_MODE: &[Mode] = &[Reproduction, Sweep, Fuzz];

/// One row of the flag table.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, `--name`.
    pub name: &'static str,
    /// Placeholder of the value the flag takes; `None` for a switch.
    pub value: Option<&'static str>,
    /// Whether the flag may be given more than once.
    pub repeatable: bool,
    /// The modes that accept the flag.
    pub modes: &'static [Mode],
    /// An execution knob: output is byte-identical at every value.
    pub knob: bool,
}

const fn flag(name: &'static str, value: Option<&'static str>, modes: &'static [Mode]) -> Flag {
    Flag {
        name,
        value,
        repeatable: false,
        modes,
        knob: false,
    }
}

const fn knob(name: &'static str) -> Flag {
    Flag {
        knob: true,
        ..flag(name, Some("N"), EVERY_MODE)
    }
}

/// Every flag `reproduce` takes.
pub const FLAGS: &[Flag] = &[
    flag("--list", None, &[Reproduction]),
    flag("--json", None, &[Reproduction]),
    flag("--table1", None, &[Reproduction]),
    flag("--table2", None, &[Reproduction]),
    flag("--figure", Some("WORKLOAD"), &[Reproduction]),
    flag("--trace", Some("FILE"), &[Reproduction]),
    flag("--racecheck", None, &[Reproduction]),
    flag("--metrics", None, &[Reproduction, Sweep]),
    flag("--bench-out", Some("FILE"), &[Reproduction, Sweep]),
    flag("--vary", Some("AXIS"), &[Sweep]),
    flag("--seeds", Some("N"), &[Fuzz]),
    flag("--faults", Some("PLAN"), &[Fuzz]),
    flag("--until-failure", None, &[Fuzz]),
    flag("--tiny", None, EVERY_MODE),
    flag("--full", None, EVERY_MODE),
    flag("--protocol", Some("NAME"), EVERY_MODE),
    flag("--net", Some("NAME"), EVERY_MODE),
    flag("--procs", Some("N"), EVERY_MODE),
    flag("--scenario", Some("FILE"), EVERY_MODE),
    Flag {
        repeatable: true,
        ..flag("--workload", Some("NAME"), EVERY_MODE)
    },
    knob("--jobs"),
];

impl Flag {
    /// The flag with its value placeholder, as a usage line shows it.
    pub fn usage(&self) -> String {
        match self.value {
            Some(value) => format!("{} {value}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// The execution knobs of the table, in table order.
pub fn knobs() -> impl Iterator<Item = &'static Flag> {
    FLAGS.iter().filter(|f| f.knob)
}

/// The flags `mode` accepts, as one usage line.
pub fn usage(mode: Mode) -> String {
    let flags: Vec<String> = FLAGS
        .iter()
        .filter(|f| f.modes.contains(&mode))
        .map(Flag::usage)
        .collect();
    format!("{} takes: {}", mode.name(), flags.join(", "))
}

/// A parsed command line: every flag's value, typed, and nothing resolved
/// against a scenario file yet (`None` = not given).
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// What to render.
    pub mode: Mode,
    /// `--list`: print the catalogue and exit.
    pub list: bool,
    /// `--json`: the machine-readable dump.
    pub json: bool,
    /// `--table1`.
    pub table1: bool,
    /// `--table2`.
    pub table2: bool,
    /// `--figure WORKLOAD`.
    pub figure: Option<Workload>,
    /// `--trace FILE`.
    pub trace: Option<String>,
    /// `--racecheck`.
    pub racecheck: bool,
    /// `--metrics`.
    pub metrics: bool,
    /// `--bench-out FILE`.
    pub bench_out: Option<String>,
    /// `--vary AXIS`.
    pub vary: Option<Vary>,
    /// `--seeds N`.
    pub seeds: Option<u64>,
    /// `--faults {lossy,partitioned,FILE}`.
    pub faults: Option<String>,
    /// `--until-failure`.
    pub until_failure: bool,
    /// `--tiny` or `--full`.
    pub preset: Option<Preset>,
    /// `--protocol NAME`: the selected backend(s) plus PVM.
    pub systems: Option<Vec<System>>,
    /// `--net NAME`.
    pub net: Option<NetModel>,
    /// `--procs N`.
    pub procs: Option<usize>,
    /// `--scenario FILE`.
    pub scenario: Option<String>,
    /// Every `--workload NAME`, in the order given.
    pub workloads: Vec<Workload>,
    /// `--jobs N`.
    pub jobs: Option<usize>,
}

/// Parse `reproduce`'s arguments (without the program name).  Every error
/// is one line naming the offending argument and listing the flags the
/// mode takes.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let (mode, args) = match args.first().map(String::as_str) {
        Some("sweep") => (Sweep, &args[1..]),
        Some("fuzz") => (Fuzz, &args[1..]),
        _ => (Reproduction, args),
    };
    parse_flags(mode, args).map_err(|e| format!("{e}; {}", usage(mode)))
}

fn parse_flags(mode: Mode, args: &[String]) -> Result<Invocation, String> {
    let mut given: Vec<(&'static str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            return Err(if arg == "sweep" || arg == "fuzz" {
                format!("`{arg}` must be the first argument: `reproduce {arg} ...`")
            } else {
                format!("unknown argument '{arg}'")
            });
        };
        if !flag.modes.contains(&mode) {
            let homes: Vec<&str> = flag.modes.iter().map(|m| m.name()).collect();
            return Err(format!(
                "{arg} does not apply to {}, only to {}",
                mode.name(),
                homes.join(" and ")
            ));
        }
        if !flag.repeatable && given.iter().any(|(name, _)| *name == flag.name) {
            return Err(format!("{arg} given more than once"));
        }
        let value = match flag.value {
            None => "",
            Some(placeholder) => match it.next() {
                Some(v) if !v.starts_with("--") => v.as_str(),
                _ => return Err(format!("{arg} requires a value: {arg} {placeholder}")),
            },
        };
        given.push((flag.name, value));
    }

    let has = |name: &str| given.iter().any(|(n, _)| *n == name);
    let value = |name: &str| given.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    // `--list` prints the catalogue (in JSON with `--json`) and exits, and
    // `--json` dumps the whole matrix: a flag either would drop is refused.
    let dropped = given.iter().find_map(|&(name, _)| match name {
        "--list" | "--json" => None,
        _ if has("--list") => Some(("--list", name)),
        "--table1" | "--table2" | "--figure" if has("--json") => Some(("--json", name)),
        _ => None,
    });
    if let Some((by, name)) = dropped {
        return Err(format!("{by} ignores {name}; give one or the other"));
    }
    fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
        name: &str,
        v: Option<&str>,
    ) -> Result<Option<T>, String> {
        v.map(|v| match v.parse::<T>() {
            Ok(n) if n >= T::from(1) => Ok(n),
            _ => Err(format!("{name} requires a positive integer, got '{v}'")),
        })
        .transpose()
    }

    let preset = match (has("--tiny"), has("--full")) {
        (true, true) => return Err("--tiny and --full are mutually exclusive".into()),
        (true, false) => Some(Preset::Tiny),
        (false, true) => Some(Preset::Paper),
        (false, false) => None,
    };
    let systems = match value("--protocol") {
        None => None,
        Some("all") => Some(
            ProtocolKind::all()
                .iter()
                .map(|&p| System::TreadMarks(p))
                .chain(std::iter::once(System::Pvm))
                .collect(),
        ),
        Some(name) => Some(vec![
            System::TreadMarks(
                name.parse::<ProtocolKind>()
                    .map_err(|e| format!("{e}, or `all` for every backend"))?,
            ),
            System::Pvm,
        ]),
    };
    Ok(Invocation {
        mode,
        list: has("--list"),
        json: has("--json"),
        table1: has("--table1"),
        table2: has("--table2"),
        figure: value("--figure").map(str::parse).transpose()?,
        trace: value("--trace").map(String::from),
        racecheck: has("--racecheck"),
        metrics: has("--metrics"),
        bench_out: value("--bench-out").map(String::from),
        vary: value("--vary").map(str::parse::<Vary>).transpose()?,
        seeds: positive("--seeds", value("--seeds"))?,
        faults: value("--faults").map(String::from),
        until_failure: has("--until-failure"),
        preset,
        systems,
        net: value("--net")
            .map(|name| name.parse::<NetPreset>().map(NetModel::preset))
            .transpose()?,
        procs: positive("--procs", value("--procs"))?,
        scenario: value("--scenario").map(String::from),
        workloads: given
            .iter()
            .filter(|(name, _)| *name == "--workload")
            .map(|(_, v)| v.parse())
            .collect::<Result<_, _>>()?,
        jobs: positive("--jobs", value("--jobs"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn prefix(mode: Mode) -> &'static str {
        match mode {
            Reproduction => "",
            Sweep => "sweep ",
            Fuzz => "fuzz ",
        }
    }

    /// A syntactically valid use of `flag`.
    fn sample(flag: &Flag) -> String {
        let value = match flag.name {
            "--figure" | "--workload" => "EP",
            "--protocol" => "hlrc",
            "--net" => "atm",
            "--vary" => "latency",
            "--faults" => "lossy",
            _ => "3",
        };
        match flag.value {
            Some(_) => format!("{} {value}", flag.name),
            None => flag.name.to_string(),
        }
    }

    #[test]
    fn every_flag_parses_in_each_mode_it_applies_to_and_only_there() {
        for flag in FLAGS {
            for mode in [Reproduction, Sweep, Fuzz] {
                let line = format!("{}{}", prefix(mode), sample(flag));
                let parsed = parse_str(&line);
                if flag.modes.contains(&mode) {
                    let inv = parsed.unwrap_or_else(|e| panic!("`{line}`: {e}"));
                    assert_eq!(inv.mode, mode, "`{line}`");
                } else {
                    let e = parsed.expect_err(&line);
                    assert!(e.contains(flag.name), "`{line}`: {e}");
                    assert!(e.contains("does not apply"), "`{line}`: {e}");
                    // The error lists what the mode does take.
                    assert!(e.contains("--jobs N"), "`{line}`: {e}");
                    assert!(!e.contains('\n'), "`{line}`: {e}");
                }
            }
        }
    }

    #[test]
    fn every_value_flag_rejects_a_missing_value() {
        for flag in FLAGS.iter().filter(|f| f.value.is_some()) {
            let mode = flag.modes[0];
            // At the end of the line, and swallowing the next flag.
            for line in [
                format!("{}{}", prefix(mode), flag.name),
                format!("{}{} --tiny", prefix(mode), flag.name),
            ] {
                let e = parse_str(&line).expect_err(&line);
                assert!(e.contains(flag.name), "`{line}`: {e}");
                assert!(e.contains("requires a value"), "`{line}`: {e}");
            }
        }
    }

    #[test]
    fn only_repeatable_flags_repeat() {
        for flag in FLAGS {
            let mode = flag.modes[0];
            let line = format!("{}{} {}", prefix(mode), sample(flag), sample(flag));
            let parsed = parse_str(&line);
            if flag.repeatable {
                parsed.unwrap_or_else(|e| panic!("`{line}`: {e}"));
            } else {
                let e = parsed.expect_err(&line);
                assert!(e.contains(flag.name), "`{line}`: {e}");
                assert!(e.contains("more than once"), "`{line}`: {e}");
            }
        }
        // The bug at the parent commit: the second count was ignored.
        let e = parse_str("--procs 2 --procs 4").unwrap_err();
        assert!(e.contains("--procs given more than once"), "{e}");
        assert!(e.contains("the reproduction takes: --list"), "{e}");
        let inv = parse_str("--workload ep --workload TSP").unwrap();
        assert_eq!(inv.workloads, vec![Workload::Ep, Workload::Tsp]);
    }

    #[test]
    fn unknown_arguments_are_named_and_the_known_flags_listed() {
        for mode in [Reproduction, Sweep, Fuzz] {
            let line = format!("{}--tiny --tabel2", prefix(mode));
            let e = parse_str(&line).expect_err(&line);
            assert!(e.contains("unknown argument '--tabel2'"), "{e}");
            for flag in FLAGS.iter().filter(|f| f.modes.contains(&mode)) {
                assert!(e.contains(flag.name), "`{line}`: {e} lacks {}", flag.name);
            }
            assert!(!e.contains('\n'), "{e}");
        }
        // A stray positional is an error too, not a silently ignored word.
        assert!(parse_str("--tiny table2").is_err());
        // The retired alias of `--protocol all`.
        assert!(parse_str("--protocol both").is_err());
    }

    #[test]
    fn the_presets_are_mutually_exclusive() {
        let e = parse_str("--tiny --full").unwrap_err();
        assert!(e.contains("--tiny") && e.contains("--full"), "{e}");
        assert_eq!(parse_str("--tiny").unwrap().preset, Some(Preset::Tiny));
        assert_eq!(parse_str("--full").unwrap().preset, Some(Preset::Paper));
        assert_eq!(parse_str("").unwrap().preset, None);
    }

    #[test]
    fn a_flag_the_mode_would_drop_is_refused() {
        // The bugs at the parent commit: the catalogue printed with `--procs`
        // ignored, and the JSON dump printed with `--table2` ignored.
        for (line, needle) in [
            ("--tiny --list --procs 3", "--list ignores --tiny"),
            ("--list --json --figure EP", "--list ignores --figure"),
            ("--table2 --json", "--json ignores --table2"),
            ("--json --table1", "--json ignores --table1"),
            ("--figure EP --json --tiny", "--json ignores --figure"),
        ] {
            let e = parse_str(line).expect_err(line);
            assert!(e.contains(needle), "`{line}`: {e}");
            assert!(
                e.contains("the reproduction takes: --list"),
                "`{line}`: {e}"
            );
            assert!(!e.contains('\n'), "`{line}`: {e}");
        }
        // What either mode does read still combines with it.
        assert!(parse_str("--list --json").is_ok());
        assert!(parse_str("--json --tiny --procs 4 --workload EP --metrics --racecheck").is_ok());
    }

    #[test]
    fn a_flag_is_never_taken_as_another_flags_value() {
        // The bug at the parent commit: a report written to a file named
        // `--json`, with stdout switched to the JSON dump as well.
        let e = parse_str("--bench-out --json").unwrap_err();
        assert!(e.contains("--bench-out requires a value"), "{e}");
    }

    #[test]
    fn subcommands_are_only_subcommands_in_first_position() {
        for word in ["sweep", "fuzz"] {
            let e = parse_str(&format!("--tiny {word}")).unwrap_err();
            assert!(e.contains("must be the first argument"), "{e}");
        }
        // ... but a flag's value may spell one.
        let inv = parse_str("--bench-out sweep").unwrap();
        assert_eq!(inv.mode, Reproduction);
        assert_eq!(inv.bench_out.as_deref(), Some("sweep"));
    }

    #[test]
    fn values_are_typed_and_bad_ones_name_the_flag() {
        let inv = parse_str(
            "sweep --vary bw --net atm --procs 16 --protocol sc --jobs 2 \
             --scenario s.toml --metrics",
        )
        .unwrap();
        assert_eq!(inv.mode, Sweep);
        assert_eq!(inv.vary, Some(Vary::Bandwidth));
        assert_eq!(inv.net, Some(NetModel::preset(NetPreset::Atm)));
        assert_eq!(inv.procs, Some(16));
        assert_eq!(
            inv.systems,
            Some(vec![System::TreadMarks(ProtocolKind::Sc), System::Pvm])
        );
        assert_eq!(inv.jobs, Some(2));
        assert_eq!(inv.scenario.as_deref(), Some("s.toml"));
        assert!(inv.metrics && !inv.json);
        assert_eq!(
            parse_str("--protocol all").unwrap().systems,
            Some(System::all().to_vec())
        );
        for (line, needle) in [
            ("--procs 0", "--procs requires a positive integer"),
            ("--jobs many", "--jobs requires a positive integer"),
            ("fuzz --seeds -1", "--seeds requires a positive integer"),
            ("--net token-ring", "token-ring"),
            ("--protocol mesi", "mesi"),
            ("--figure nope", "unknown workload 'nope'"),
            ("--workload nope", "unknown workload 'nope'"),
            ("sweep --vary cheese", "cheese"),
        ] {
            let e = parse_str(line).expect_err(line);
            assert!(e.contains(needle), "`{line}`: {e}");
        }
    }

    #[test]
    fn jobs_is_the_one_execution_knob() {
        let names: Vec<&str> = knobs().map(|f| f.name).collect();
        assert_eq!(names, ["--jobs"]);
    }

    /// docs/EXPERIMENTS.md is the flag reference: every row of the table
    /// appears in it, spelled with its value placeholder.
    #[test]
    fn the_flag_reference_documents_every_flag() {
        let doc = include_str!("../../../docs/EXPERIMENTS.md");
        for flag in FLAGS {
            assert!(
                doc.contains(&format!("| `{}` |", flag.usage())),
                "docs/EXPERIMENTS.md has no flag-reference row for {}",
                flag.usage()
            );
        }
    }
}
