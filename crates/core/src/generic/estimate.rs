//! Event-driven makespan estimation for generic workloads.
//!
//! The policy of [`crate::estimate`] — least-advanced-first
//! assignment, largest idle group first, surplus-group disbanding,
//! FIFO trailing tasks — over arbitrary allocation ranges, arbitrary
//! per-unit blocking time `unit_secs(g)` and arbitrary trailing work.
//! It runs that module's event loop, so on an Ocean-Atmosphere-shaped
//! workload it returns exactly what `crate::estimate` returns.

use serde::{Deserialize, Serialize};

use super::workload::Workload;
use crate::estimate::{simulate, Campaign};

/// A processor division for a generic workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Groups {
    /// Group sizes (each within the workload's allocation range),
    /// kept sorted descending.
    sizes: Vec<u32>,
    /// Processors dedicated to trailing work.
    pub pool: u32,
}

/// Errors from generic grouping validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupsError {
    /// A size is outside the workload's allocation range.
    BadSize(u32),
    /// More processors used than available.
    OverSubscribed {
        /// Processors requested.
        used: u64,
        /// Processors available.
        available: u32,
    },
    /// More groups than chains.
    TooManyGroups {
        /// Groups in the grouping.
        groups: usize,
        /// Chains in the workload.
        chains: u32,
    },
    /// No groups.
    NoGroups,
}

impl std::fmt::Display for GroupsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupsError::BadSize(g) => write!(f, "group size {g} outside the workload's range"),
            GroupsError::OverSubscribed { used, available } => {
                write!(f, "{used} processors used, {available} available")
            }
            GroupsError::TooManyGroups { groups, chains } => {
                write!(f, "{groups} groups for {chains} chains")
            }
            GroupsError::NoGroups => write!(f, "no groups"),
        }
    }
}

impl std::error::Error for GroupsError {}

impl Groups {
    /// Builds a canonical (descending) grouping.
    pub fn new(mut sizes: Vec<u32>, pool: u32) -> Self {
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        Self { sizes, pool }
    }

    /// Group sizes, largest first.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Processors inside groups.
    pub fn main_procs(&self) -> u64 {
        self.sizes.iter().map(|&g| g as u64).sum()
    }

    /// Validates against a workload and a processor budget.
    pub fn validate(&self, w: &Workload, r: u32) -> Result<(), GroupsError> {
        if self.sizes.is_empty() {
            return Err(GroupsError::NoGroups);
        }
        let range = w.alloc_range();
        for &g in &self.sizes {
            if !range.accepts(g) {
                return Err(GroupsError::BadSize(g));
            }
        }
        let used = self.main_procs() + self.pool as u64;
        if used > r as u64 {
            return Err(GroupsError::OverSubscribed { used, available: r });
        }
        if self.sizes.len() > w.chains as usize {
            return Err(GroupsError::TooManyGroups {
                groups: self.sizes.len(),
                chains: w.chains,
            });
        }
        Ok(())
    }
}

/// Estimation result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenericEstimate {
    /// Campaign makespan, seconds.
    pub makespan: f64,
    /// Last blocking-phase completion.
    pub main_finish: f64,
    /// Last trailing-task completion (equals `main_finish` when the
    /// workload has no trailing work).
    pub trailing_finish: f64,
}

/// Simulates `w` on `r` processors divided as `groups`.
pub fn estimate_generic(
    w: &Workload,
    r: u32,
    groups: &Groups,
) -> Result<GenericEstimate, GroupsError> {
    groups.validate(w, r)?;
    let campaign = Campaign {
        sizes: groups.sizes(),
        post_procs: groups.pool,
        tp: w.trailing_secs(),
        chains: w.chains,
        units: w.units,
    };
    let e = simulate(&campaign, |g| w.unit_secs(g));
    // With no trailing work each post ends where it became ready, so
    // the last one ends at `main_finish`.
    Ok(GenericEstimate {
        makespan: e.makespan,
        main_finish: e.main_finish,
        trailing_finish: e.post_finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::workload::{Phase, PhaseTime};
    use oa_workflow::moldable::MoldableSpec;

    fn tiny() -> Workload {
        Workload::new(
            2,
            3,
            vec![
                Phase {
                    name: "solve".into(),
                    time: PhaseTime::Moldable {
                        range: MoldableSpec {
                            min_procs: 2,
                            max_procs: 3,
                        },
                        table: vec![100.0, 80.0],
                    },
                    blocking: true,
                },
                Phase {
                    name: "report".into(),
                    time: PhaseTime::Sequential(10.0),
                    blocking: false,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn two_chains_two_groups() {
        let w = tiny();
        let g = Groups::new(vec![3, 2], 1);
        let e = estimate_generic(&w, 6, &g).unwrap();
        // Fast group does 3 units of chain A in 240; slow group 300.
        assert_eq!(e.main_finish, 300.0);
        assert_eq!(e.makespan, 310.0);
    }

    #[test]
    fn no_trailing_work() {
        let w = Workload::new(
            2,
            2,
            vec![Phase {
                name: "only".into(),
                time: PhaseTime::Sequential(50.0),
                blocking: true,
            }],
        )
        .unwrap();
        let g = Groups::new(vec![1, 1], 0);
        let e = estimate_generic(&w, 2, &g).unwrap();
        assert_eq!(e.makespan, 100.0);
        assert_eq!(e.trailing_finish, e.main_finish);
    }

    #[test]
    fn validation_errors() {
        let w = tiny();
        assert_eq!(
            estimate_generic(&w, 6, &Groups::new(vec![], 2)).unwrap_err(),
            GroupsError::NoGroups
        );
        assert_eq!(
            estimate_generic(&w, 6, &Groups::new(vec![4], 0)).unwrap_err(),
            GroupsError::BadSize(4)
        );
        assert_eq!(
            estimate_generic(&w, 4, &Groups::new(vec![3, 2], 0)).unwrap_err(),
            GroupsError::OverSubscribed {
                used: 5,
                available: 4
            }
        );
        assert_eq!(
            estimate_generic(&w, 9, &Groups::new(vec![3, 3, 3], 0)).unwrap_err(),
            GroupsError::TooManyGroups {
                groups: 3,
                chains: 2
            }
        );
    }

    #[test]
    fn matches_specialized_estimator_on_oa_workloads() {
        use crate::estimate::estimate;
        use crate::grouping::Grouping;
        use crate::params::Instance;
        use oa_platform::speedup::PcrModel;

        let table = PcrModel::reference().table(1.0).unwrap();
        for (ns, nm, r) in [(10u32, 24u32, 53u32), (3, 10, 30), (7, 13, 90)] {
            let w = Workload::ocean_atmosphere(ns, nm, &table);
            let inst = Instance::new(ns, nm, r);
            for (sizes, pool) in [
                (
                    vec![7u32; (r / 7).min(ns) as usize],
                    r - 7 * (r / 7).min(ns),
                ),
                (vec![11, 4], r - 15),
            ] {
                let oa = Grouping::new(sizes.clone(), pool);
                let gen = Groups::new(sizes, pool);
                let a = estimate(inst, &table, &oa).unwrap();
                let b = estimate_generic(&w, r, &gen).unwrap();
                assert_eq!(
                    (a.makespan, a.main_finish, a.post_finish),
                    (b.makespan, b.main_finish, b.trailing_finish),
                    "ns={ns} nm={nm} r={r}"
                );
            }
        }
    }
}
