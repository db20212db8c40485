//! `oa-analyze` — static diagnostics for the ocean-atmosphere scheduler.
//!
//! A rule-based verification engine modeled on rustc's lints: every
//! check has a stable code (`OA002`…), a severity, a structured
//! location and a human-readable message, and every checker *collects*
//! all violations in one pass instead of failing fast. The rules cover
//! six layers of the stack:
//!
//! | Layer      | Rules               | What they verify                                  |
//! |------------|---------------------|---------------------------------------------------|
//! | workflow   | OA002               | the campaign shape: `ns` and `nm` nonzero (refused by `oa_sched::read`) |
//! | scheduling | OA004–OA007, OA018  | group sizes, accounting, estimator cross-checks, campaign configs |
//! | schedule   | OA008–OA015         | multiplicity, dependences, exclusivity, idleness  |
//! | platform   | OA016–OA017         | cluster sanity, inter-month bandwidth feasibility |
//! | source     | ND001–ND007         | reproducibility hazards in the workspace's own Rust sources ([`audit`]) |
//! | certify    | CT001–CT002         | static makespan bounds bracket the engine; kernel verdicts agree ([`certify`]) |
//!
//! The simulator (`oa-sim`) rebuilds its `Schedule::validate` API on
//! top of [`schedule::check_schedule`]; the `oa analyze` CLI subcommand
//! runs the platform, scheduling and schedule layers over a planned
//! campaign (its shape has passed OA002 in `oa_sched::read`, and its
//! mesh is the preset lowering), and `oa audit` runs the [`audit`]
//! source scan and the [`certify`] pass. Both exit nonzero when any
//! error-severity diagnostic fires. A workflow spec needs no rule
//! here: `oa_workflow::ir::from_value` answers a spec with a preset
//! lowering or an IR that has passed `WorkflowIr::validate`.
//!
//! # Examples
//!
//! ```
//! use oa_platform::prelude::*;
//! use oa_sched::prelude::*;
//!
//! let table = PcrModel::reference().table(1.0).unwrap();
//! let inst = Instance::new(10, 1800, 53);
//!
//! // A planned grouping passes the scheduling-layer rules…
//! let good = Heuristic::Knapsack.grouping(inst, &table).unwrap();
//! let mut report = oa_analyze::Report::new();
//! report.extend(oa_analyze::scheduling::check_grouping(inst, &table, &good));
//! assert!(!report.has_errors());
//!
//! // …while an oversubscribed one is collected, not panicked on.
//! let bad = Grouping::new(vec![8; 7], 4); // 60 procs > R = 53
//! let mut report = oa_analyze::Report::new();
//! report.extend(oa_analyze::scheduling::check_grouping(inst, &table, &bad));
//! assert!(report.has_errors());
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod certify;
pub mod diag;
pub mod platform;
pub mod schedule;
pub mod scheduling;

pub use diag::{Diagnostic, Layer, Location, Quantity, Report, RuleCode, Severity};

/// One row of the rule catalog.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable code (`OA002`…).
    pub code: &'static str,
    /// Layer the rule inspects.
    pub layer: Layer,
    /// Default severity when the rule fires.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
}

/// The full rule catalog, in code order — the source of truth behind
/// `oa analyze --rules` and the documentation table.
pub fn catalog() -> Vec<RuleInfo> {
    RuleCode::ALL
        .iter()
        .map(|&r| RuleInfo {
            code: r.code(),
            layer: r.layer(),
            severity: r.default_severity(),
            summary: r.summary(),
        })
        .collect()
}

/// Renders the catalog as an aligned text table.
pub fn render_catalog() -> String {
    let mut out = String::from("CODE   LAYER       SEVERITY  RULE\n");
    for r in catalog() {
        out.push_str(&format!(
            "{:<6} {:<11} {:<9} {}\n",
            r.code,
            r.layer.to_string(),
            r.severity.to_string(),
            r.summary
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_rules_and_layers() {
        let cat = catalog();
        assert_eq!(cat.len(), 25);
        for layer in [
            Layer::Workflow,
            Layer::Scheduling,
            Layer::Schedule,
            Layer::Platform,
            Layer::Source,
            Layer::Certify,
        ] {
            assert!(cat.iter().any(|r| r.layer == layer));
        }
        let text = render_catalog();
        assert!(text.contains("OA002") && text.contains("OA018"), "{text}");
        assert!(text.contains("ND001") && text.contains("CT002"), "{text}");
    }
}
