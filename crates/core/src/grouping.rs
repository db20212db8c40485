//! Processor groupings: the object every heuristic produces.
//!
//! A grouping divides the `R` processors of a cluster into disjoint
//! *groups* of legal sizes (4–11 processors for the paper's `pcr`),
//! each running one multiprocessor task at a time, plus a (possibly
//! empty) pool of processors dedicated to post-processing. Processors
//! in neither set idle until groups disband at the end of the campaign.

use serde::{Deserialize, Serialize};

use oa_platform::timing::TimingTable;
use oa_workflow::moldable::MoldableSpec;

use crate::params::Instance;

/// Errors raised when validating a grouping against an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupingError {
    /// A group size is outside the legal allocation range.
    BadGroupSize(u32),
    /// The grouping uses more processors than the cluster has.
    OverSubscribed {
        /// Processors requested.
        used: u64,
        /// Processors available.
        available: u32,
    },
    /// More groups than scenarios: the surplus could never run anything
    /// (at most `NS` main tasks are ready simultaneously).
    TooManyGroups {
        /// Groups in the grouping.
        groups: usize,
        /// Number of scenarios.
        scenarios: u32,
    },
    /// No group at all: main tasks can never run.
    NoGroups,
}

impl std::fmt::Display for GroupingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupingError::BadGroupSize(g) => {
                write!(f, "group size {g} outside the allocation range")
            }
            GroupingError::OverSubscribed { used, available } => {
                write!(
                    f,
                    "grouping uses {used} processors, cluster has {available}"
                )
            }
            GroupingError::TooManyGroups { groups, scenarios } => {
                write!(
                    f,
                    "{groups} groups for {scenarios} scenarios: surplus groups can never work"
                )
            }
            GroupingError::NoGroups => write!(f, "grouping has no multiprocessor group"),
        }
    }
}

impl std::error::Error for GroupingError {}

/// A division of a cluster's processors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grouping {
    /// Sizes of the multiprocessor groups, each a legal allocation.
    /// Kept sorted descending so equal groupings compare equal.
    groups: Vec<u32>,
    /// Processors dedicated to post-processing (`R2` in the paper).
    pub post_procs: u32,
}

impl Grouping {
    /// Builds a grouping from group sizes and a post-processing pool.
    /// Sizes are sorted (descending) for canonical form.
    pub fn new(mut groups: Vec<u32>, post_procs: u32) -> Self {
        groups.sort_unstable_by(|a, b| b.cmp(a));
        Self { groups, post_procs }
    }

    /// The uniform grouping of the basic heuristic: `count` groups of
    /// `size`, remainder to post-processing.
    pub fn uniform(size: u32, count: u32, post_procs: u32) -> Self {
        Self::new(vec![size; count as usize], post_procs)
    }

    /// Group sizes, largest first.
    pub fn groups(&self) -> &[u32] {
        &self.groups
    }

    /// Number of groups (`nbmax` for uniform groupings).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Processors inside multiprocessor groups (`R1`).
    pub fn main_procs(&self) -> u64 {
        self.groups.iter().map(|&g| g as u64).sum()
    }

    /// Every processor accounted for by this grouping.
    pub fn total_procs(&self) -> u64 {
        self.main_procs() + self.post_procs as u64
    }

    /// Aggregate main-task throughput `Σ 1/T[gᵢ]` — the knapsack
    /// objective, in tasks per second.
    pub fn throughput(&self, table: &TimingTable) -> f64 {
        self.groups.iter().map(|&g| 1.0 / table.main_secs(g)).sum()
    }

    /// Validates the grouping against an instance, with groups of
    /// `4..=11` processors.
    pub fn validate(&self, inst: Instance) -> Result<(), GroupingError> {
        self.check(MoldableSpec::pcr(), inst)
    }

    /// Validates the grouping against an instance whose groups may take
    /// any size in `range`.
    pub(crate) fn check(&self, range: MoldableSpec, inst: Instance) -> Result<(), GroupingError> {
        if self.groups.is_empty() {
            return Err(GroupingError::NoGroups);
        }
        for &g in &self.groups {
            if !range.accepts(g) {
                return Err(GroupingError::BadGroupSize(g));
            }
        }
        if self.total_procs() > inst.r as u64 {
            return Err(GroupingError::OverSubscribed {
                used: self.total_procs(),
                available: inst.r,
            });
        }
        if self.groups.len() > inst.ns as usize {
            return Err(GroupingError::TooManyGroups {
                groups: self.groups.len(),
                scenarios: inst.ns,
            });
        }
        Ok(())
    }

    /// Processors in no group and not dedicated to post-processing.
    pub fn idle_procs(&self, inst: Instance) -> u64 {
        (inst.r as u64).saturating_sub(self.total_procs())
    }
}

impl std::fmt::Display for Grouping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render as e.g. "3×8 + 4×7 | post:1".
        let mut first = true;
        let mut i = 0;
        while i < self.groups.len() {
            let g = self.groups[i];
            let mut j = i;
            while j < self.groups.len() && self.groups[j] == g {
                j += 1;
            }
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}×{}", j - i, g)?;
            first = false;
            i = j;
        }
        if first {
            write!(f, "∅")?;
        }
        write!(f, " | post:{}", self.post_procs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;

    fn inst() -> Instance {
        Instance::new(10, 12, 53)
    }

    #[test]
    fn canonical_form_sorts_sizes() {
        let a = Grouping::new(vec![7, 8, 7, 8, 8, 7, 7], 1);
        let b = Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1);
        assert_eq!(a, b);
        assert_eq!(a.groups(), &[8, 8, 8, 7, 7, 7, 7]);
    }

    #[test]
    fn paper_example_counts() {
        // R = 53, NS = 10 under Improvement 1: 3×8 + 4×7 + 1 post.
        let g = Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1);
        assert_eq!(g.main_procs(), 52);
        assert_eq!(g.total_procs(), 53);
        assert_eq!(g.idle_procs(inst()), 0);
        g.validate(inst()).unwrap();
    }

    #[test]
    fn uniform_constructor() {
        let g = Grouping::uniform(7, 7, 4);
        assert_eq!(g.group_count(), 7);
        assert_eq!(g.main_procs(), 49);
        assert_eq!(g.post_procs, 4);
        g.validate(inst()).unwrap();
        assert_eq!(g.idle_procs(inst()), 0);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            Grouping::new(vec![], 5).validate(inst()),
            Err(GroupingError::NoGroups)
        );
        assert_eq!(
            Grouping::new(vec![3], 0).validate(inst()),
            Err(GroupingError::BadGroupSize(3))
        );
        assert_eq!(
            Grouping::new(vec![11; 5], 0).validate(inst()),
            Err(GroupingError::OverSubscribed {
                used: 55,
                available: 53
            })
        );
        let small = Instance::new(2, 5, 53);
        assert_eq!(
            Grouping::new(vec![4, 4, 4], 0).validate(small),
            Err(GroupingError::TooManyGroups {
                groups: 3,
                scenarios: 2
            })
        );
    }

    #[test]
    fn throughput_is_knapsack_objective() {
        let table = PcrModel::reference().table(1.0).unwrap();
        let g = Grouping::new(vec![11, 4], 0);
        let expect = 1.0 / table.main_secs(11) + 1.0 / table.main_secs(4);
        assert!((g.throughput(&table) - expect).abs() < 1e-15);
    }

    #[test]
    fn display_groups_runs() {
        let g = Grouping::new(vec![8, 7, 8, 7, 7, 7, 8], 1);
        assert_eq!(g.to_string(), "3×8 + 4×7 | post:1");
        assert_eq!(Grouping::new(vec![], 2).to_string(), "∅ | post:2");
    }
}
