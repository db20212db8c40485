//! The experiment shape: `NS` scenarios of `NM` chained months.
//!
//! A *scenario* models 150 years of climate as `NM = 1800` chained
//! monthly simulations: the results of month *n* are the starting point
//! of month *n + 1*, so `pcr(n) → caif(n + 1)`. An *experiment* runs
//! `NS` independent scenarios simultaneously — there is no edge between
//! scenarios. [`crate::ir::lower_experiment`] and
//! [`crate::ir::lower_fused`] build the graph of a shape.

use serde::{Deserialize, Serialize};

/// The paper's canonical scenario length: 150 years of monthly runs.
pub const CANONICAL_MONTHS: u32 = 150 * 12;
/// The paper's canonical ensemble size ("the number of simulations is
/// going to be around 10").
pub const CANONICAL_SCENARIOS: u32 = 10;

/// Size of an experiment: `NS` scenarios of `NM` months.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExperimentShape {
    /// Number of independent scenarios (`NS`).
    pub scenarios: u32,
    /// Number of chained months per scenario (`NM`).
    pub months: u32,
}

impl ExperimentShape {
    /// Creates a shape; panics on a degenerate (zero-sized) experiment.
    pub fn new(scenarios: u32, months: u32) -> Self {
        assert!(scenarios > 0, "an experiment needs at least one scenario");
        assert!(months > 0, "a scenario needs at least one month");
        Self { scenarios, months }
    }

    /// The paper's canonical experiment: 10 scenarios × 1800 months.
    pub fn canonical() -> Self {
        Self::new(CANONICAL_SCENARIOS, CANONICAL_MONTHS)
    }

    /// Total number of monthly simulations, `nbtasks = NS × NM`.
    pub fn total_months(&self) -> u64 {
        self.scenarios as u64 * self.months as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{lower_experiment, node_of, ReferenceDurations};
    use crate::task::{month_reference_work, TaskId, TaskKind};

    #[test]
    fn shape_counts() {
        let s = ExperimentShape::new(10, 1800);
        assert_eq!(s.total_months(), 18_000);
        assert_eq!(ExperimentShape::canonical(), s);
    }

    #[test]
    #[should_panic(expected = "at least one scenario")]
    fn zero_scenarios_rejected() {
        ExperimentShape::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one month")]
    fn zero_months_rejected() {
        ExperimentShape::new(1, 0);
    }

    #[test]
    fn experiment_node_and_edge_counts() {
        let ir = lower_experiment(ExperimentShape::new(3, 5));
        // 3 × 5 months × 6 tasks.
        assert_eq!(ir.node_count(), 90);
        // Per month 5 intra edges, plus 4 cross-month edges per scenario.
        assert_eq!(ir.edge_count(), 3 * (5 * 5 + 4));
        ir.validate().unwrap();
    }

    #[test]
    fn scenarios_are_disconnected() {
        let ir = lower_experiment(ExperimentShape::new(2, 3));
        let a = node_of(&ir, TaskId::new(0, 0, TaskKind::Caif));
        let b = node_of(&ir, TaskId::new(1, 2, TaskKind::Cd));
        assert!(!ir.dag.reaches(a, b));
        assert!(!ir.dag.reaches(b, a));
    }

    #[test]
    fn cross_month_edge_goes_pcr_to_caif() {
        let ir = lower_experiment(ExperimentShape::new(1, 2));
        let pcr0 = node_of(&ir, TaskId::new(0, 0, TaskKind::Pcr));
        let cof0 = node_of(&ir, TaskId::new(0, 0, TaskKind::Cof));
        let caif1 = node_of(&ir, TaskId::new(0, 1, TaskKind::Caif));
        assert!(ir.dag.successors(pcr0).contains(&caif1));
        // Post-processing of month 0 does not gate month 1.
        assert!(!ir.dag.reaches(cof0, caif1));
    }

    #[test]
    fn sources_and_sinks_are_per_scenario() {
        let ir = lower_experiment(ExperimentShape::new(4, 6));
        // One source per scenario: month 0's caif.
        assert_eq!(ir.dag.sources().len(), 4);
        // Sinks: last month's cd per scenario... plus each month's cd is
        // a sink! cd has no successors in any month.
        let sinks = ir.dag.sinks();
        assert_eq!(sinks.len(), 4 * 6);
        for s in sinks {
            assert_eq!(ir.dag.node(s).origin.unwrap().kind, TaskKind::Cd);
        }
    }

    #[test]
    fn critical_path_is_one_chain() {
        let ir = lower_experiment(ExperimentShape::new(3, 4));
        // Per month the path through pcr + posts, chained via pcr:
        // months 0..2 contribute caif+mp+pcr (1262), last month the full
        // 1442, and the first three months' post tails (180) are off the
        // spine... the longest path is 3×1262 + 1442.
        let expected = 3.0 * 1262.0 + month_reference_work();
        assert_eq!(ir.critical_path(&ReferenceDurations).unwrap(), expected);
    }
}
