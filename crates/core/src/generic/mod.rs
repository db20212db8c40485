//! The paper's stated future work, implemented: "extending the present
//! work to a generic heuristic that can schedule the same kind of
//! workflow, made of independent chains of identical DAGs composed of
//! moldable tasks" (Conclusion).
//!
//! * [`workload`] — the generic chain-of-units model: blocking and
//!   trailing phases, arbitrary moldable allocation ranges, with the
//!   Ocean-Atmosphere campaign as the canonical instance;
//! * [`estimate_generic`], [`basic_generic`], [`knapsack_generic`] and
//!   [`balanced_generic`] — the crate's one planner fed a workload's
//!   allocation range, per-unit times and trailing time, answering in
//!   the paper's own [`Grouping`], [`Estimate`] and
//!   [`HeuristicError`].
//!
//! The knapsack formulation carries over verbatim: items are the legal
//! allocations of the workload's range, an item's value is
//! `1 / unit_secs(g)`, the constraints are `Σ g·n_g ≤ R` and
//! `Σ n_g ≤ chains`. The basic heuristic generalizes by sweeping the
//! range with the estimator (the closed form of Equations 1–5 would
//! need re-derivation per workload; the estimator subsumes it). On an
//! Ocean-Atmosphere-shaped workload every answer is bitwise the
//! paper's.

pub mod workload;

pub use workload::{Phase, PhaseTime, Workload, WorkloadError};

use oa_knapsack::solve_dp;
use oa_par::Pool;

use crate::estimate::Estimate;
use crate::grouping::{Grouping, GroupingError};
use crate::heuristics::HeuristicError;
use crate::params::Instance;
use crate::planner::{uniform, Planner};

/// Runs `f` on the planner of `w` — its allocation range, the per-unit
/// time of each legal group size and its trailing time — and the
/// instance of `w` on `r` processors.
fn plan<T>(w: &Workload, r: u32, f: impl FnOnce(Planner<'_>, Instance) -> T) -> T {
    let range = w.alloc_range();
    let row: Vec<f64> = range.allocations().map(|g| w.unit_secs(g)).collect();
    let planner = Planner {
        range,
        row: &row,
        tp: w.trailing_secs(),
    };
    // Built field by field: a zero-processor machine is a legal
    // question, answered `ClusterTooSmall`.
    let inst = Instance {
        ns: w.chains,
        nm: w.units,
        r,
    };
    f(planner, inst)
}

/// Simulates `w` on `r` processors divided as `groups`, under the
/// paper's least-advanced-first policy. `post_finish` is the last
/// trailing-task completion (equal to `main_finish` when the workload
/// has no trailing work).
pub fn estimate_generic(
    w: &Workload,
    r: u32,
    groups: &Grouping,
) -> Result<Estimate, GroupingError> {
    plan(w, r, |p, inst| p.estimate(inst, groups))
}

/// The generic basic heuristic: for every allocation `g` in range,
/// form `min(chains, ⌊R/g⌋)` uniform groups, dedicate the remainder to
/// the trailing pool, score with the estimator, keep the best.
pub fn basic_generic(w: &Workload, r: u32) -> Result<Grouping, HeuristicError> {
    plan(w, r, |p, inst| {
        p.pick_best(inst, &Pool::serial(), uniform(p.range, inst).collect())
    })
    .map(|(g, _)| g)
}

/// The generic knapsack heuristic (the paper's Improvement 3 for any
/// chain-of-moldable-DAGs workload).
pub fn knapsack_generic(w: &Workload, r: u32) -> Result<Grouping, HeuristicError> {
    plan(w, r, |p, inst| p.knapsack(inst, solve_dp))
}

/// The balanced generic heuristic — our refinement of the knapsack
/// formulation for wide allocation ranges, returning the winner and
/// its estimate.
///
/// Raw throughput maximization has a blind spot the Ocean-Atmosphere
/// range (4..=11, a 2.75× spread) hides but wide ranges expose: when
/// the number of groups approaches the number of chains, each chain is
/// effectively pinned to one group, and a slow small group — added
/// because it still increases `Σ 1/T` — becomes the critical path
/// (`makespan ≥ units × unit_secs(smallest group)`). The fix: solve
/// the knapsack once per allowed group count `k ∈ 1..=chains`
/// (cardinality bound `k` instead of `chains`), include the uniform
/// groupings of the basic sweep, score every candidate with the event
/// estimator and keep the winner — [`crate::heuristics::Heuristic::Balanced`]
/// over the workload.
pub fn balanced_generic(w: &Workload, r: u32) -> Result<(Grouping, Estimate), HeuristicError> {
    plan(w, r, |p, inst| p.balanced(inst, &Pool::serial()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;
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

    /// A molecular-dynamics-like workload: wide allocation range
    /// (2..=16) with near-linear scaling then saturation.
    fn md_workload(chains: u32, units: u32) -> Workload {
        let range = MoldableSpec {
            min_procs: 2,
            max_procs: 16,
        };
        let table: Vec<f64> = range
            .allocations()
            .map(|p| 40.0 + 4000.0 / p as f64 + 3.0 * p as f64)
            .collect();
        Workload::new(
            chains,
            units,
            vec![
                Phase {
                    name: "md".into(),
                    time: PhaseTime::Moldable { range, table },
                    blocking: true,
                },
                Phase {
                    name: "traj".into(),
                    time: PhaseTime::Sequential(25.0),
                    blocking: false,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn two_chains_two_groups() {
        let w = tiny();
        let g = Grouping::new(vec![3, 2], 1);
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
        let g = Grouping::new(vec![1, 1], 0);
        let e = estimate_generic(&w, 2, &g).unwrap();
        assert_eq!(e.makespan, 100.0);
        assert_eq!(e.post_finish, e.main_finish);
    }

    #[test]
    fn validation_errors_use_the_workload_range() {
        let w = tiny();
        assert_eq!(
            estimate_generic(&w, 6, &Grouping::new(vec![], 2)).unwrap_err(),
            GroupingError::NoGroups
        );
        assert_eq!(
            estimate_generic(&w, 6, &Grouping::new(vec![4], 0)).unwrap_err(),
            GroupingError::BadGroupSize(4)
        );
        assert_eq!(
            estimate_generic(&w, 4, &Grouping::new(vec![3, 2], 0)).unwrap_err(),
            GroupingError::OverSubscribed {
                used: 5,
                available: 4
            }
        );
        assert_eq!(
            estimate_generic(&w, 9, &Grouping::new(vec![3, 3, 3], 0)).unwrap_err(),
            GroupingError::TooManyGroups {
                groups: 3,
                scenarios: 2
            }
        );
    }

    #[test]
    fn matches_specialized_estimator_on_oa_workloads() {
        use crate::estimate::estimate;

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
                let g = Grouping::new(sizes, pool);
                let a = estimate(inst, &table, &g).unwrap();
                let b = estimate_generic(&w, r, &g).unwrap();
                assert_eq!(a, b, "ns={ns} nm={nm} r={r}");
            }
        }
    }

    #[test]
    fn raw_knapsack_has_a_per_chain_bottleneck_pitfall() {
        // Documented pitfall: on wide ranges the raw throughput
        // knapsack pins chains to slow small groups. At R = 16 it
        // chooses [3,3,3,3,2,2] (higher Σ1/T) over [4,4,4,4], yet the
        // size-2 groups run their chains ~2× slower — the makespan is
        // far worse. This is invisible in the paper's 4..=11 range but
        // fundamental to the generic extension.
        let w = md_workload(6, 200);
        let b = basic_generic(&w, 16).unwrap();
        let k = knapsack_generic(&w, 16).unwrap();
        let bm = estimate_generic(&w, 16, &b).unwrap().makespan;
        let km = estimate_generic(&w, 16, &k).unwrap().makespan;
        assert!(
            k.group_count() > b.group_count(),
            "knapsack should over-split here"
        );
        assert!(km > bm * 1.2, "pitfall vanished: basic {bm}, knapsack {km}");
    }

    #[test]
    fn balanced_beats_or_ties_both_everywhere_and_wins_somewhere() {
        let w = md_workload(6, 200);
        let mut strict_wins = 0;
        for r in (4..=120).step_by(3) {
            let Ok(b) = basic_generic(&w, r) else {
                continue;
            };
            let k = knapsack_generic(&w, r).expect("feasible");
            let bm = estimate_generic(&w, r, &b).unwrap().makespan;
            let km = estimate_generic(&w, r, &k).unwrap().makespan;
            let (_, e) = balanced_generic(&w, r).expect("feasible");
            assert!(
                e.makespan <= bm + 1e-9,
                "R={r}: balanced {} > basic {bm}",
                e.makespan
            );
            assert!(
                e.makespan <= km + 1e-9,
                "R={r}: balanced {} > knapsack {km}",
                e.makespan
            );
            if e.makespan < bm.min(km) - 1e-9 {
                strict_wins += 1;
            }
        }
        assert!(strict_wins > 0, "balanced never strictly improved on both");
    }

    #[test]
    fn generic_heuristics_match_oa_heuristics_on_oa_workloads() {
        use crate::heuristics::Heuristic;

        let table = PcrModel::reference().table(1.0).unwrap();
        for r in [23u32, 53, 87] {
            let w = Workload::ocean_atmosphere(10, 48, &table);
            let inst = Instance::new(10, 48, r);
            let oa = Heuristic::Knapsack.grouping(inst, &table).unwrap();
            assert_eq!(oa, knapsack_generic(&w, r).unwrap(), "R = {r}");
        }
    }

    #[test]
    fn machine_too_small() {
        let w = md_workload(2, 2);
        let too_small = Err(HeuristicError::ClusterTooSmall { resources: 1 });
        assert_eq!(basic_generic(&w, 1), too_small);
        assert_eq!(knapsack_generic(&w, 1), too_small);
        assert_eq!(balanced_generic(&w, 1).map(|(g, _)| g), too_small);
    }

    #[test]
    fn balanced_picks_the_best_candidate() {
        let w = md_workload(5, 12);
        for r in [10u32, 33, 64] {
            let (g, e) = balanced_generic(&w, r).unwrap();
            let b = estimate_generic(&w, r, &basic_generic(&w, r).unwrap()).unwrap();
            let k = estimate_generic(&w, r, &knapsack_generic(&w, r).unwrap()).unwrap();
            assert!(e.makespan <= b.makespan + 1e-9);
            assert!(e.makespan <= k.makespan + 1e-9);
            assert_eq!(estimate_generic(&w, r, &g), Ok(e));
        }
    }

    #[test]
    fn sequential_only_workload_degenerates_to_pool_scheduling() {
        let w = Workload::new(
            4,
            6,
            vec![Phase {
                name: "s".into(),
                time: PhaseTime::Sequential(10.0),
                blocking: true,
            }],
        )
        .unwrap();
        let g = knapsack_generic(&w, 4).unwrap();
        // Four chains, four single-processor "groups".
        assert_eq!(g.groups(), &[1, 1, 1, 1]);
        let e = estimate_generic(&w, 4, &g).unwrap();
        assert_eq!(e.makespan, 60.0);
    }
}
