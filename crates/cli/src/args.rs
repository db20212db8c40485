//! A small typed flag parser (the workspace's allowed dependency list
//! has no CLI crate; the surface here is tiny).
//!
//! Grammar: `oa <command> [verb] [--flag value]... [--switch]...`.
//! Flags may appear in any order; unknown flags are errors so typos
//! fail loudly. Only commands on the verb list (`trace`) accept a
//! second positional verb (`oa trace export ...`); anywhere else a
//! bare word is still an error.

use std::collections::BTreeMap;

/// Parsed command line: the command word plus its flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first positional word).
    pub command: String,
    /// The verb (second positional word), for commands that take one.
    pub verb: Option<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Parse/lookup errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// `--flag` at end of line with no value.
    MissingValue(String),
    /// A word that is not a `--flag`.
    Unexpected(String),
    /// A flag the command does not know.
    UnknownFlag(String),
    /// A flag value that does not parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// Expected value.
        expect: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no command given; try `oa help`"),
            ArgError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            ArgError::Unexpected(w) => write!(f, "unexpected argument {w:?}"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag --{flag}"),
            ArgError::BadValue {
                flag,
                value,
                expect,
            } => {
                write!(f, "--{flag} {value:?}: expected {expect}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Switch-style flags (no value).
const SWITCHES: &[&str] = &[
    "per-proc", "staging", "json", "all", "fused", "rules", "unfused", "matrix", "pipe", "dot",
    "naive",
];

/// Commands that take a second positional verb (`oa trace export`).
const VERB_COMMANDS: &[&str] = &["trace", "audit"];

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ArgError> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().ok_or(ArgError::NoCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::NoCommand);
        }
        let mut verb = None;
        if VERB_COMMANDS.contains(&command.as_str()) {
            if let Some(next) = it.peek() {
                if !next.starts_with("--") {
                    verb = it.next();
                }
            }
        }
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(word) = it.next() {
            let Some(name) = word.strip_prefix("--") else {
                return Err(ArgError::Unexpected(word));
            };
            if SWITCHES.contains(&name) {
                switches.push(name.to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
            flags.insert(name.to_string(), value);
        }
        Ok(Self {
            command,
            verb,
            flags,
            switches,
        })
    }

    /// A flag parsed as `T` if given; `expect` names the accepted
    /// values in the error.
    fn parsed<T: std::str::FromStr>(
        &self,
        flag: &str,
        expect: &'static str,
    ) -> Result<Option<T>, ArgError> {
        let Some(value) = self.flags.get(flag) else {
            return Ok(None);
        };
        value.parse().map(Some).map_err(|_| ArgError::BadValue {
            flag: flag.to_string(),
            value: value.clone(),
            expect,
        })
    }

    /// A `u32` flag with a default.
    pub fn u32_or(&self, flag: &str, default: u32) -> Result<u32, ArgError> {
        Ok(self.parsed(flag, "a positive integer")?.unwrap_or(default))
    }

    /// An `f64` flag with a default.
    pub fn f64_or(&self, flag: &str, default: f64) -> Result<f64, ArgError> {
        Ok(self.parsed(flag, "a number")?.unwrap_or(default))
    }

    /// The `--jobs N` worker-count flag, when given. `None` lets the
    /// caller fall back to `OA_JOBS` / available parallelism.
    pub fn jobs_opt(&self) -> Result<Option<usize>, ArgError> {
        self.parsed("jobs", "a positive integer")
    }

    /// A string flag if given.
    pub fn str_opt(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A string flag with a default.
    pub fn str_or(&self, flag: &str, default: &str) -> String {
        self.flags
            .get(flag)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Errors on any flag not in `allowed` (switches included).
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownFlag(k.clone()));
            }
        }
        for s in &self.switches {
            if !allowed.contains(&s.as_str()) {
                return Err(ArgError::UnknownFlag(s.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(words.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let a = parse(&["plan", "--r", "53", "--heuristic", "knapsack", "--json"]).unwrap();
        assert_eq!(a.command, "plan");
        assert_eq!(a.u32_or("r", 0).unwrap(), 53);
        assert_eq!(a.str_or("heuristic", "basic"), "knapsack");
        assert!(a.switch("json"));
        assert!(!a.switch("staging"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["plan"]).unwrap();
        assert_eq!(a.u32_or("ns", 10).unwrap(), 10);
        assert_eq!(a.str_or("cluster", "reference"), "reference");
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse(&[]), Err(ArgError::NoCommand));
        assert_eq!(parse(&["--r", "5"]), Err(ArgError::NoCommand));
        assert_eq!(
            parse(&["plan", "--r"]),
            Err(ArgError::MissingValue("r".into()))
        );
        assert_eq!(
            parse(&["plan", "oops"]),
            Err(ArgError::Unexpected("oops".into()))
        );
        let a = parse(&["plan", "--r", "many"]).unwrap();
        assert!(matches!(a.u32_or("r", 1), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn jobs_flag_parses() {
        let a = parse(&["analyze", "--jobs", "4"]).unwrap();
        assert_eq!(a.jobs_opt().unwrap(), Some(4));
        let a = parse(&["analyze"]).unwrap();
        assert_eq!(a.jobs_opt().unwrap(), None);
        let a = parse(&["analyze", "--jobs", "lots"]).unwrap();
        assert!(matches!(a.jobs_opt(), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn verb_commands_take_a_second_positional() {
        let a = parse(&["trace", "export", "--format", "chrome"]).unwrap();
        assert_eq!(a.command, "trace");
        assert_eq!(a.verb.as_deref(), Some("export"));
        assert_eq!(a.str_or("format", "jsonl"), "chrome");
        // No verb is fine too; flags may follow directly.
        let a = parse(&["trace", "--ns", "4"]).unwrap();
        assert_eq!(a.verb, None);
        // Non-verb commands still reject bare words.
        assert_eq!(
            parse(&["plan", "export"]),
            Err(ArgError::Unexpected("export".into()))
        );
    }

    #[test]
    fn unfused_is_a_switch() {
        let a = parse(&["sim", "--unfused", "--policy", "round-robin"]).unwrap();
        assert!(a.switch("unfused"));
        assert_eq!(a.str_or("policy", "least-advanced"), "round-robin");
    }

    #[test]
    fn unknown_flags_rejected() {
        let a = parse(&["plan", "--bogus", "1"]).unwrap();
        assert_eq!(
            a.check_known(&["r", "ns"]),
            Err(ArgError::UnknownFlag("bogus".into()))
        );
        let a = parse(&["plan", "--r", "5"]).unwrap();
        assert!(a.check_known(&["r"]).is_ok());
    }
}
