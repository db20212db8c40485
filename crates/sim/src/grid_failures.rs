//! Cluster loss at grid level: the price of "no migration".
//!
//! Section 5 fixes placement for life: "once a scenario has been
//! scheduled on a cluster, it can not change location". That is the
//! right call when clusters are reliable — but what if one dies
//! mid-campaign? This module quantifies the choice:
//!
//! * [`ClusterFailurePolicy::Strand`] — the paper's rule taken
//!   literally: the victim cluster's unfinished scenarios are lost;
//! * [`ClusterFailurePolicy::Replan`] — scenarios *may* migrate after
//!   a failure: each victim scenario ships its latest restart payload
//!   (120 MB over the wide area) to a surviving cluster and its
//!   remaining months run there after that cluster's own assignment.
//!
//! The replanning model is deliberately conservative: survivors finish
//! their original assignments untouched, then run adopted scenarios as
//! a fresh campaign (planned by the same heuristic). Interleaving
//! adopted months into surviving clusters' tails could only improve on
//! the numbers reported here.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use oa_platform::cluster::ClusterId;
use oa_platform::grid::Grid;
use oa_sched::hetero::repartition_with;
use oa_sched::heuristics::{Heuristic, HeuristicError};
use oa_sched::params::Instance;
use oa_trace::NullTracer;

use crate::grid_exec::{run_grid, GridConfig};
use crate::transfer::{migration_secs, Link};

/// What happens to the victim cluster's scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterFailurePolicy {
    /// Paper rule: no migration; the scenarios are abandoned.
    Strand,
    /// Migrate restart payloads and finish on the survivors.
    Replan,
}

/// Outcome of a grid execution with one cluster failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridFailureOutcome {
    /// The failure instant, seconds.
    pub failed_at: f64,
    /// Scenarios that were still unfinished on the dead cluster.
    pub victim_scenarios: Vec<u32>,
    /// Months those scenarios had already completed (saved by the
    /// monthly checkpoints).
    pub checkpointed_months: u64,
    /// Months re-homed to survivors (`Replan`) or lost (`Strand`).
    pub remaining_months: u64,
    /// Campaign makespan. Under `Strand` this covers only the
    /// surviving scenarios — `complete` says whether the campaign
    /// actually finished.
    pub makespan: f64,
    /// Whether every scenario finished.
    pub complete: bool,
}

/// Which cluster to kill, when, and what to do about it — the failure
/// scenario under study, bundled so experiment entry points stay at a
/// sane arity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterFailureSpec {
    /// The cluster that dies.
    pub failed: ClusterId,
    /// When it dies, as a fraction of the failure-free makespan
    /// (must be in `[0, 1]`).
    pub at_fraction: f64,
    /// What happens to its unfinished scenarios.
    pub policy: ClusterFailurePolicy,
}

/// Plans and executes `ns × nm` on `grid`, kills `spec.failed` at
/// `spec.at_fraction` of the failure-free makespan, and applies
/// `spec.policy`.
///
/// Panics if `spec.failed` is out of range or `spec.at_fraction` is
/// not in `[0, 1]`.
pub fn run_grid_with_cluster_failure(
    grid: &Grid,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
    spec: ClusterFailureSpec,
    link: &Link,
) -> Result<GridFailureOutcome, HeuristicError> {
    let ClusterFailureSpec {
        failed,
        at_fraction,
        policy,
    } = spec;
    assert!(failed.index() < grid.len(), "failed cluster out of range");
    assert!(
        (0.0..=1.0).contains(&at_fraction),
        "at_fraction must be in [0, 1]"
    );

    let base = run_grid(
        grid,
        heuristic,
        ns,
        nm,
        &GridConfig::default(),
        &mut NullTracer,
    )?;
    let failed_at = base.makespan * at_fraction;

    // Progress of the dead cluster's scenarios at the failure instant.
    let victim = &base.clusters[failed.index()];
    let mut victim_scenarios = Vec::new();
    let mut checkpointed = 0u64;
    let mut remaining = 0u64;
    if let Some(schedule) = victim.schedule() {
        let local_ns = schedule.instance.ns;
        let mut done = vec![0u32; local_ns as usize];
        for r in schedule.mains() {
            if r.end <= failed_at {
                done[r.task.scenario as usize] += 1;
            }
        }
        for (local, &months) in done.iter().enumerate() {
            if months < nm {
                victim_scenarios.push(victim.scenarios[local]);
                checkpointed += months as u64;
                remaining += (nm - months) as u64;
            }
        }
    }

    // Survivors' own makespans are unaffected.
    let survivor_ms: Vec<(usize, f64)> = base
        .clusters
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != failed.index())
        .map(|(i, c)| (i, c.makespan()))
        .collect();
    let survivors_finish = survivor_ms.iter().map(|&(_, m)| m).fold(0.0f64, f64::max);

    if victim_scenarios.is_empty() {
        // The dead cluster had already finished (or had no work).
        return Ok(GridFailureOutcome {
            failed_at,
            victim_scenarios,
            checkpointed_months: 0,
            remaining_months: 0,
            makespan: base.makespan.min(survivors_finish.max(failed_at)),
            complete: true,
        });
    }

    match policy {
        ClusterFailurePolicy::Strand => Ok(GridFailureOutcome {
            failed_at,
            victim_scenarios,
            checkpointed_months: checkpointed,
            remaining_months: remaining,
            makespan: survivors_finish,
            complete: false,
        }),
        ClusterFailurePolicy::Replan => {
            // Greedily adopt victims through Algorithm 1: each goes to
            // the survivor whose completion time grows the least. A
            // survivor adopting k scenarios runs them as a fresh
            // campaign of the *longest* remaining chain (conservative:
            // remaining months differ by at most one here, and the
            // estimator needs one nm). The dead cluster prices at +∞.
            assert!(grid.len() > 1, "at least one survivor");
            let longest_left = (remaining.div_ceil(victim_scenarios.len() as u64) as u32).max(1);
            let migration = migration_secs(link);
            // Priced once per (survivor, k): the greedy, then the
            // closing makespan, read the same entries.
            let mut memo: BTreeMap<(usize, u32), f64> = BTreeMap::new();
            let mut adoption = |i: usize, k: u32| {
                if i == failed.index() {
                    return f64::INFINITY;
                }
                *memo.entry((i, k)).or_insert_with(|| {
                    let cluster = &grid.clusters()[i];
                    let inst = Instance::new(k, longest_left, cluster.resources);
                    let extra = heuristic
                        .makespan(inst, &cluster.timing)
                        .expect("survivors priced the campaign, so they fit groups");
                    base.clusters[i].makespan().max(failed_at) + migration + extra
                })
            };
            let ids: Vec<ClusterId> = grid.iter().map(|(id, _)| id).collect();
            let adopted = repartition_with(&ids, victim_scenarios.len(), &mut adoption).nb_dags;
            let mut makespan = survivors_finish;
            for (i, &k) in adopted.iter().enumerate() {
                if k > 0 {
                    makespan = makespan.max(adoption(i, k));
                }
            }
            Ok(GridFailureOutcome {
                failed_at,
                victim_scenarios,
                checkpointed_months: checkpointed,
                remaining_months: remaining,
                makespan,
                complete: true,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::presets::benchmark_grid;

    fn setup() -> Grid {
        benchmark_grid(30)
    }

    #[test]
    fn strand_loses_the_victims() {
        let grid = setup();
        let out = run_grid_with_cluster_failure(
            &grid,
            Heuristic::Knapsack,
            10,
            24,
            ClusterFailureSpec {
                failed: ClusterId(0),
                at_fraction: 0.5,
                policy: ClusterFailurePolicy::Strand,
            },
            &Link::gigabit(),
        )
        .unwrap();
        assert!(!out.complete);
        assert!(!out.victim_scenarios.is_empty());
        assert!(out.remaining_months > 0);
    }

    #[test]
    fn replan_completes_and_never_beats_the_clean_run() {
        let grid = setup();
        let config = GridConfig::default();
        let clean = run_grid(&grid, Heuristic::Knapsack, 10, 24, &config, &mut NullTracer)
            .unwrap()
            .makespan;
        // Losing the *fastest* cluster: its victims re-home onto other
        // survivors whose slack (relative to the slowest cluster, which
        // sets the grid makespan) can absorb the work — replanning may
        // be nearly free here.
        let fast = run_grid_with_cluster_failure(
            &grid,
            Heuristic::Knapsack,
            10,
            24,
            ClusterFailureSpec {
                failed: ClusterId(0),
                at_fraction: 0.5,
                policy: ClusterFailurePolicy::Replan,
            },
            &Link::gigabit(),
        )
        .unwrap();
        assert!(fast.complete);
        assert!(fast.makespan + 1e-6 >= clean);
        assert!(fast.checkpointed_months > 0);

        // Losing the *slowest* cluster mid-run must cost real time: its
        // remaining months restart on survivors after their own work.
        let slow = run_grid_with_cluster_failure(
            &grid,
            Heuristic::Knapsack,
            10,
            24,
            ClusterFailureSpec {
                failed: ClusterId(4),
                at_fraction: 0.5,
                policy: ClusterFailurePolicy::Replan,
            },
            &Link::gigabit(),
        )
        .unwrap();
        if !slow.victim_scenarios.is_empty() {
            assert!(slow.complete);
            assert!(
                slow.makespan > clean,
                "losing the critical cluster must cost time"
            );
        }
    }

    #[test]
    fn late_failure_costs_less_than_early() {
        let grid = setup();
        let run = |frac| {
            run_grid_with_cluster_failure(
                &grid,
                Heuristic::Knapsack,
                10,
                24,
                ClusterFailureSpec {
                    failed: ClusterId(0),
                    at_fraction: frac,
                    policy: ClusterFailurePolicy::Replan,
                },
                &Link::gigabit(),
            )
            .unwrap()
            .makespan
        };
        assert!(run(0.9) <= run(0.1) + 1e-6);
    }

    #[test]
    fn failure_after_victims_finished_is_free() {
        let grid = setup();
        // Cluster 4 (slowest) gets the fewest scenarios; failing the
        // fastest cluster at 100% — everything it had is done.
        let out = run_grid_with_cluster_failure(
            &grid,
            Heuristic::Knapsack,
            10,
            24,
            ClusterFailureSpec {
                failed: ClusterId(0),
                at_fraction: 1.0,
                policy: ClusterFailurePolicy::Strand,
            },
            &Link::gigabit(),
        )
        .unwrap();
        assert!(out.complete);
        assert!(out.victim_scenarios.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_cluster_panics() {
        let grid = setup();
        let _ = run_grid_with_cluster_failure(
            &grid,
            Heuristic::Basic,
            2,
            2,
            ClusterFailureSpec {
                failed: ClusterId(9),
                at_fraction: 0.5,
                policy: ClusterFailurePolicy::Strand,
            },
            &Link::gigabit(),
        );
    }
}
