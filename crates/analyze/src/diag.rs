//! Diagnostic primitives: rule codes, severities, locations, reports.
//!
//! Modeled on rustc's lint machinery: every finding is a [`Diagnostic`]
//! with a stable [`RuleCode`] (`OA002`…), a [`Severity`], a structured
//! [`Location`] and a human-readable message. Checkers *collect* every
//! violation instead of failing on the first one, so a single pass over
//! a corrupted schedule reports all of its problems.

use oa_sched::read;
use serde::{Serialize, Value};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Severity {
    /// Informational note; never fails an analysis.
    Info,
    /// Suspicious but not provably wrong; does not fail an analysis.
    Warn,
    /// A hard violation; `oa analyze` exits nonzero.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which layer of the stack a rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Layer {
    /// The shape of the workload: its scenarios and months.
    Workflow,
    /// Groupings and their accounting against an [`oa_sched::params::Instance`].
    Scheduling,
    /// Concrete schedules: records pinned to processors and times.
    Schedule,
    /// Cluster descriptions and network feasibility.
    Platform,
    /// Rust source files of the workspace itself (the determinism
    /// auditor's ND rules).
    Source,
    /// Static campaign certification: analytic bounds and kernel
    /// eligibility cross-checked against the engine (CT rules).
    Certify,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Layer::Workflow => "workflow",
            Layer::Scheduling => "scheduling",
            Layer::Schedule => "schedule",
            Layer::Platform => "platform",
            Layer::Source => "source",
            Layer::Certify => "certify",
        })
    }
}

/// Stable identifiers of every rule the engine knows.
///
/// Codes are append-only: a rule keeps its code forever, even if its
/// implementation changes, and a retired rule's code is never given to
/// another rule, so downstream tooling can match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleCode {
    /// OA002: the campaign is empty (`ns` or `nm` is zero), so it has
    /// no `(scenario, month)` to run.
    EmptyCampaign,
    /// OA004: a group size is outside `4..=11`.
    GroupSizeOutOfRange,
    /// OA005: a grouping claims more processors than the cluster has.
    OverSubscribed,
    /// OA006: group/pool accounting is impossible (no groups, or more
    /// groups than scenarios).
    GroupAccounting,
    /// OA007: the event estimator and the analytic model (Equations
    /// 1–5) diverge on a uniform grouping.
    EstimateDivergence,
    /// OA008: a task is scheduled zero or several times.
    WrongMultiplicity,
    /// OA009: a record starts before a predecessor ends.
    DependenceViolated,
    /// OA010: two records overlap in time on a shared processor.
    ProcessorConflict,
    /// OA011: a record uses processors outside `0..R`.
    ProcOutOfRange,
    /// OA012: a record has a non-positive or non-finite interval.
    BadInterval,
    /// OA013: a scheduled main task ran on a group outside `4..=11`.
    ScheduledGroupSize,
    /// OA014: a group idles more than 10% of its active window.
    IdleGap,
    /// OA015: post-processing starves far behind its main task.
    PostStarvation,
    /// OA016: a cluster description is degenerate or off the
    /// benchmarked envelope.
    ClusterSanity,
    /// OA017: the 120 MB inter-month transfer cannot hide inside a
    /// month on the given link.
    BandwidthInfeasible,
    /// OA018: a campaign configuration (policy × granularity ×
    /// recovery + fault plan) is unrunnable or self-defeating.
    CampaignConfigSanity,
    /// ND001: an order-unstable map/set (`HashMap`/`HashSet`) in code
    /// whose iteration can feed records or serialized output.
    UnstableMapOrder,
    /// ND002: a wall-clock read (`Instant::now`/`SystemTime`) outside
    /// the benchmark harness.
    WallClockRead,
    /// ND003: `partial_cmp(..).unwrap()` on floats — panics on `NaN`
    /// and invites ad-hoc orderings; use `total_cmp` or `Time`.
    PartialCmpUnwrap,
    /// ND004: a raw `thread::spawn` outside the deterministic worker
    /// pool crate — scheduling order leaks into results.
    UnmanagedThread,
    /// ND005: unsorted filesystem iteration (`read_dir` order is
    /// platform-dependent).
    UnsortedDirWalk,
    /// ND006: a randomly seeded hasher (`DefaultHasher`/`RandomState`).
    RandomHashState,
    /// ND007: an allowlist entry that no longer matches any finding —
    /// the hazard it justified is gone, so the entry should go too.
    StaleAllowEntry,
    /// CT001: a simulated makespan escaped the certifier's static
    /// bounds — the analytic model no longer brackets the engine.
    BoundsViolated,
    /// CT002: the certifier's static integer-kernel verdict disagrees
    /// with the engine's runtime fast-path decision.
    KernelVerdictMismatch,
}

impl RuleCode {
    /// Every rule, in code order: the data-level `OA` rules, then the
    /// determinism auditor's `ND` rules, then the certifier's `CT`
    /// rules.
    pub const ALL: [RuleCode; 25] = [
        RuleCode::EmptyCampaign,
        RuleCode::GroupSizeOutOfRange,
        RuleCode::OverSubscribed,
        RuleCode::GroupAccounting,
        RuleCode::EstimateDivergence,
        RuleCode::WrongMultiplicity,
        RuleCode::DependenceViolated,
        RuleCode::ProcessorConflict,
        RuleCode::ProcOutOfRange,
        RuleCode::BadInterval,
        RuleCode::ScheduledGroupSize,
        RuleCode::IdleGap,
        RuleCode::PostStarvation,
        RuleCode::ClusterSanity,
        RuleCode::BandwidthInfeasible,
        RuleCode::CampaignConfigSanity,
        RuleCode::UnstableMapOrder,
        RuleCode::WallClockRead,
        RuleCode::PartialCmpUnwrap,
        RuleCode::UnmanagedThread,
        RuleCode::UnsortedDirWalk,
        RuleCode::RandomHashState,
        RuleCode::StaleAllowEntry,
        RuleCode::BoundsViolated,
        RuleCode::KernelVerdictMismatch,
    ];

    /// The stable `OAxxx` code.
    pub const fn code(self) -> &'static str {
        match self {
            RuleCode::EmptyCampaign => read::EMPTY_CAMPAIGN,
            RuleCode::GroupSizeOutOfRange => "OA004",
            RuleCode::OverSubscribed => "OA005",
            RuleCode::GroupAccounting => "OA006",
            RuleCode::EstimateDivergence => "OA007",
            RuleCode::WrongMultiplicity => "OA008",
            RuleCode::DependenceViolated => "OA009",
            RuleCode::ProcessorConflict => "OA010",
            RuleCode::ProcOutOfRange => "OA011",
            RuleCode::BadInterval => "OA012",
            RuleCode::ScheduledGroupSize => "OA013",
            RuleCode::IdleGap => "OA014",
            RuleCode::PostStarvation => "OA015",
            RuleCode::ClusterSanity => read::CLUSTER_INSANE,
            RuleCode::BandwidthInfeasible => "OA017",
            RuleCode::CampaignConfigSanity => "OA018",
            RuleCode::UnstableMapOrder => "ND001",
            RuleCode::WallClockRead => "ND002",
            RuleCode::PartialCmpUnwrap => "ND003",
            RuleCode::UnmanagedThread => "ND004",
            RuleCode::UnsortedDirWalk => "ND005",
            RuleCode::RandomHashState => "ND006",
            RuleCode::StaleAllowEntry => "ND007",
            RuleCode::BoundsViolated => "CT001",
            RuleCode::KernelVerdictMismatch => "CT002",
        }
    }

    /// The layer this rule inspects.
    pub fn layer(self) -> Layer {
        match self {
            RuleCode::EmptyCampaign => Layer::Workflow,
            RuleCode::GroupSizeOutOfRange
            | RuleCode::OverSubscribed
            | RuleCode::GroupAccounting
            | RuleCode::EstimateDivergence
            | RuleCode::CampaignConfigSanity => Layer::Scheduling,
            RuleCode::WrongMultiplicity
            | RuleCode::DependenceViolated
            | RuleCode::ProcessorConflict
            | RuleCode::ProcOutOfRange
            | RuleCode::BadInterval
            | RuleCode::ScheduledGroupSize
            | RuleCode::IdleGap
            | RuleCode::PostStarvation => Layer::Schedule,
            RuleCode::ClusterSanity | RuleCode::BandwidthInfeasible => Layer::Platform,
            RuleCode::UnstableMapOrder
            | RuleCode::WallClockRead
            | RuleCode::PartialCmpUnwrap
            | RuleCode::UnmanagedThread
            | RuleCode::UnsortedDirWalk
            | RuleCode::RandomHashState
            | RuleCode::StaleAllowEntry => Layer::Source,
            RuleCode::BoundsViolated | RuleCode::KernelVerdictMismatch => Layer::Certify,
        }
    }

    /// One-line summary for the rule catalog.
    pub fn summary(self) -> &'static str {
        match self {
            RuleCode::EmptyCampaign => "ns and nm must both be nonzero",
            RuleCode::GroupSizeOutOfRange => "group sizes must lie in 4..=11",
            RuleCode::OverSubscribed => "groupings may not claim more processors than R",
            RuleCode::GroupAccounting => "1..=NS groups (surplus groups can never work)",
            RuleCode::EstimateDivergence => {
                "event estimator must track Equations 1-5 on uniform groupings"
            }
            RuleCode::WrongMultiplicity => "every task runs exactly once",
            RuleCode::DependenceViolated => "no task may start before its predecessors end",
            RuleCode::ProcessorConflict => "a processor runs at most one task at a time",
            RuleCode::ProcOutOfRange => "records must stay inside processors 0..R",
            RuleCode::BadInterval => "intervals must be finite with end > start",
            RuleCode::ScheduledGroupSize => "scheduled mains must use 4..=11 processors",
            RuleCode::IdleGap => "groups should not idle >10% of their active window",
            RuleCode::PostStarvation => "posts should not lag far behind their main task",
            RuleCode::ClusterSanity => "clusters need >=4 procs and a sane timing table",
            RuleCode::BandwidthInfeasible => "the 120 MB inter-month transfer must fit in a month",
            RuleCode::CampaignConfigSanity => "fault plans must target live groups at finite times",
            RuleCode::UnstableMapOrder => {
                "no HashMap/HashSet where iteration order can reach output"
            }
            RuleCode::WallClockRead => "no Instant::now/SystemTime outside oa-bench",
            RuleCode::PartialCmpUnwrap => "no partial_cmp().unwrap(); use total_cmp or Time",
            RuleCode::UnmanagedThread => "no raw thread::spawn outside oa-par",
            RuleCode::UnsortedDirWalk => "no unsorted read_dir iteration",
            RuleCode::RandomHashState => "no randomly seeded hashers (DefaultHasher/RandomState)",
            RuleCode::StaleAllowEntry => "allowlist entries must still match a finding",
            RuleCode::BoundsViolated => "simulated makespans must stay inside the static bounds",
            RuleCode::KernelVerdictMismatch => {
                "static kernel eligibility must match the engine's decision"
            }
        }
    }

    /// The severity the rule emits when it fires in its default mode.
    /// Individual diagnostics may downgrade (e.g. OA007 warns inside
    /// tolerance bands and errors beyond them).
    pub fn default_severity(self) -> Severity {
        match self {
            RuleCode::IdleGap | RuleCode::PostStarvation | RuleCode::StaleAllowEntry => {
                Severity::Warn
            }
            _ => Severity::Error,
        }
    }
}

impl Serialize for RuleCode {
    fn to_value(&self) -> Value {
        Value::Str(self.code().to_string())
    }
}

impl std::fmt::Display for RuleCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Where in the campaign a diagnostic points.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Location {
    /// Scenario index, if the finding concerns one scenario.
    pub scenario: Option<u32>,
    /// Month index, if the finding concerns one month.
    pub month: Option<u32>,
    /// Task discriminator (`"main"` or `"post"`), if task-specific.
    pub task: Option<String>,
    /// Processor range `(first, count)`, if processor-specific.
    pub procs: Option<(u32, u32)>,
    /// Workspace-relative source file path, for source-layer findings.
    pub file: Option<String>,
    /// 1-based line number within [`Location::file`].
    pub line: Option<u32>,
}

impl Location {
    /// Location of the main task of `(scenario, month)`.
    pub fn main(scenario: u32, month: u32) -> Self {
        Self {
            scenario: Some(scenario),
            month: Some(month),
            task: Some("main".into()),
            ..Self::default()
        }
    }

    /// Location of the post task of `(scenario, month)`.
    pub fn post(scenario: u32, month: u32) -> Self {
        Self {
            scenario: Some(scenario),
            month: Some(month),
            task: Some("post".into()),
            ..Self::default()
        }
    }

    /// A `file:line` source location (the determinism auditor's
    /// coordinate system).
    pub fn source(file: impl Into<String>, line: u32) -> Self {
        Self {
            file: Some(file.into()),
            line: Some(line),
            ..Self::default()
        }
    }

    /// Attaches a processor range.
    pub fn on_procs(mut self, first: u32, count: u32) -> Self {
        self.procs = Some((first, count));
        self
    }

    /// True when no coordinate is set.
    pub fn is_empty(&self) -> bool {
        self.scenario.is_none()
            && self.month.is_none()
            && self.task.is_none()
            && self.procs.is_none()
            && self.file.is_none()
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(file) = &self.file {
            return match self.line {
                Some(line) => write!(f, "{file}:{line}"),
                None => write!(f, "{file}"),
            };
        }
        let mut sep = "";
        if let Some(t) = &self.task {
            match (self.scenario, self.month) {
                (Some(s), Some(m)) => write!(f, "{t}({s},{m})")?,
                _ => write!(f, "{t}")?,
            }
            sep = " ";
        } else {
            if let Some(s) = self.scenario {
                write!(f, "scenario {s}")?;
                sep = " ";
            }
            if let Some(m) = self.month {
                write!(f, "{sep}month {m}")?;
                sep = " ";
            }
        }
        if let Some((first, count)) = self.procs {
            write!(f, "{sep}procs [{first},{})", first as u64 + count as u64)?;
        }
        Ok(())
    }
}

/// A named numeric fact attached to a diagnostic, so callers can act on
/// the finding without parsing the message (rustc's "machine-applicable"
/// idea, scaled down to numbers).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Quantity {
    /// Name of the fact (e.g. `"count"`, `"pred_ends"`).
    pub name: &'static str,
    /// Its value.
    pub value: f64,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleCode,
    /// How bad it is.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// Second location for pairwise findings (e.g. the other task of a
    /// processor conflict).
    pub related: Option<Location>,
    /// Human-readable explanation.
    pub message: String,
    /// Structured numeric facts backing the message.
    pub quantities: Vec<Quantity>,
}

impl Diagnostic {
    /// A diagnostic at the rule's default severity with no location.
    pub fn new(rule: RuleCode, message: impl Into<String>) -> Self {
        Self {
            rule,
            severity: rule.default_severity(),
            location: Location::default(),
            related: None,
            message: message.into(),
            quantities: Vec::new(),
        }
    }

    /// Overrides the severity.
    pub fn severity(mut self, s: Severity) -> Self {
        self.severity = s;
        self
    }

    /// Sets the location.
    pub fn at(mut self, location: Location) -> Self {
        self.location = location;
        self
    }

    /// Sets the related location.
    pub fn related_to(mut self, location: Location) -> Self {
        self.related = Some(location);
        self
    }

    /// Attaches a named numeric fact.
    pub fn with(mut self, name: &'static str, value: f64) -> Self {
        self.quantities.push(Quantity { name, value });
        self
    }

    /// Looks up a numeric fact by name.
    pub fn quantity(&self, name: &str) -> Option<f64> {
        self.quantities
            .iter()
            .find(|q| q.name == name)
            .map(|q| q.value)
    }

    /// Renders the rustc-style one-liner.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.rule.code());
        if !self.location.is_empty() {
            out.push_str(&format!(" {}", self.location));
        }
        out.push_str(&format!(": {}", self.message));
        out.push_str(&format!(" ({} layer)", self.rule.layer()));
        out
    }
}

/// The outcome of an analysis: every diagnostic found, in check order.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Report {
    /// Findings, in the order the rules emitted them.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a diagnostic list.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> Self {
        Self { diagnostics }
    }

    /// Appends the diagnostics of another pass.
    pub fn extend(&mut self, diagnostics: Vec<Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// True when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings of one severity.
    pub fn of_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == s)
    }

    /// Renders every diagnostic plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// The `N errors, M warnings` trailer.
    pub fn summary_line(&self) -> String {
        if self.is_clean() {
            "analysis clean: no diagnostics".to_string()
        } else {
            format!(
                "{} error(s), {} warning(s), {} diagnostic(s) total",
                self.error_count(),
                self.warn_count(),
                self.diagnostics.len()
            )
        }
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serializable")
    }

    /// The one rendering every CLI report path shares: pretty JSON when
    /// `json` is set (trailing newline included), else the `scope`
    /// header followed by [`Report::render_text`]. `oa analyze` and
    /// `oa audit` both go through here so their output shapes cannot
    /// drift apart.
    pub fn render(&self, scope: &str, json: bool) -> String {
        if json {
            let mut out = self.to_json();
            out.push('\n');
            out
        } else {
            format!("{scope}{}", self.render_text())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut codes: Vec<&str> = RuleCode::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), 25);
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 25, "duplicate rule code");
        assert_eq!(RuleCode::ALL[0].code(), "OA002");
        assert_eq!(RuleCode::ALL[1].code(), "OA004");
        assert_eq!(RuleCode::ALL[15].code(), "OA018");
        assert_eq!(RuleCode::ALL[16].code(), "ND001");
        assert_eq!(RuleCode::ALL[22].code(), "ND007");
        assert_eq!(RuleCode::ALL[23].code(), "CT001");
        assert_eq!(RuleCode::ALL[24].code(), "CT002");
    }

    #[test]
    fn every_layer_is_covered() {
        for layer in [
            Layer::Workflow,
            Layer::Scheduling,
            Layer::Schedule,
            Layer::Platform,
            Layer::Source,
            Layer::Certify,
        ] {
            assert!(
                RuleCode::ALL.iter().any(|r| r.layer() == layer),
                "no rule covers {layer}"
            );
        }
    }

    #[test]
    fn source_locations_render_as_file_line() {
        let d = Diagnostic::new(RuleCode::UnstableMapOrder, "unstable iteration order")
            .at(Location::source("crates/sim/src/profile.rs", 105));
        let line = d.render();
        assert!(line.contains("error[ND001]"), "{line}");
        assert!(line.contains("crates/sim/src/profile.rs:105"), "{line}");
        assert!(line.contains("(source layer)"), "{line}");
        assert!(!Location::source("x.rs", 1).is_empty());
    }

    #[test]
    fn shared_render_switches_between_text_and_json() {
        let r = Report::from_diagnostics(vec![Diagnostic::new(
            RuleCode::BoundsViolated,
            "outside bounds",
        )]);
        let text = r.render("scope line\n", false);
        assert!(text.starts_with("scope line\n"), "{text}");
        assert!(text.contains("error[CT001]"), "{text}");
        let json = r.render("ignored\n", true);
        assert!(
            json.contains("\"CT001\"") && !json.contains("ignored"),
            "{json}"
        );
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn render_mentions_code_location_and_layer() {
        let d = Diagnostic::new(RuleCode::ProcessorConflict, "tasks overlap on processor 3")
            .at(Location::main(0, 1).on_procs(0, 4))
            .related_to(Location::post(0, 0));
        let line = d.render();
        assert!(line.contains("error[OA010]"), "{line}");
        assert!(line.contains("main(0,1)"), "{line}");
        assert!(line.contains("procs [0,4)"), "{line}");
        assert!(line.contains("(schedule layer)"), "{line}");
    }

    #[test]
    fn report_counts_and_json() {
        let mut r = Report::new();
        assert!(r.is_clean() && !r.has_errors());
        r.extend(vec![
            Diagnostic::new(RuleCode::IdleGap, "idle").severity(Severity::Warn),
            Diagnostic::new(RuleCode::BadInterval, "bad").with("end", 1.0),
        ]);
        assert!(r.has_errors());
        assert_eq!((r.error_count(), r.warn_count()), (1, 1));
        let json = r.to_json();
        assert!(json.contains("\"OA012\""), "{json}");
        assert!(json.contains("\"end\""), "{json}");
        assert!(r.summary_line().contains("1 error(s)"));
    }
}
