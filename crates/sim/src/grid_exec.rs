//! Grid-level execution: run a scenario repartition across clusters.
//!
//! This is the simulation backend of Section 6: given the repartition
//! computed by Algorithm 1, each cluster independently schedules its
//! subset of scenarios with a grouping heuristic (step 6 of Figure 9);
//! the grid makespan is the slowest cluster's makespan. Scenarios never
//! migrate — "once a scenario has been scheduled on a cluster, it can
//! not change location" (Section 5).
//!
//! Every grid run goes through one loop, [`execute_repartition`]: each
//! used cluster gets a heuristic grouping, a `Decision` event and one
//! [`simulate_campaign`] call under its [`ClusterCampaign`] knobs. A
//! [`GridConfig`] carries those knobs plus optional wide-area
//! [`Staging`]; [`run_grid`] plans the repartition first, pricing each
//! cluster's performance-vector entries only as Algorithm 1 reads them.

use serde::{Deserialize, Serialize};

use oa_platform::cluster::ClusterId;
use oa_platform::grid::Grid;
use oa_sched::hetero::{repartition_grid, Repartition};
use oa_sched::heuristics::{Heuristic, HeuristicError};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};
use oa_trace::{EventKind, TraceEvent, Tracer, TransferKind};

use crate::engine::{simulate_campaign, CampaignOutcome};
use crate::schedule::Schedule;
use crate::tracing::ClusterTag;
use crate::transfer::{staging_delays, Link, StagingModel};

/// Per-cluster campaign knobs: the full [`CampaignConfig`] (scenario
/// policy × task granularity × recovery model) plus a [`FaultPlan`]
/// whose group ids are local to the cluster's grouping.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterCampaign {
    /// The cluster's event-loop configuration.
    pub config: CampaignConfig,
    /// Group failures to inject on this cluster.
    pub faults: FaultPlan,
}

/// Wide-area staging charged around each cluster's computation:
/// stage-in before the first month, repatriation after the last one
/// (see [`staging_delays`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Staging {
    /// One link per cluster, in cluster-id order.
    pub links: Vec<Link>,
    /// Data shipped per scenario.
    pub model: StagingModel,
}

/// Knobs of a grid run. The default is the paper's run: fused,
/// fault-free, least-advanced campaigns everywhere and free staging.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GridConfig {
    /// One campaign per cluster, in cluster-id order; empty runs the
    /// default campaign on every cluster.
    pub campaigns: Vec<ClusterCampaign>,
    /// Wide-area staging; `None` charges nothing.
    pub staging: Option<Staging>,
}

/// One cluster's part of a grid execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Which cluster.
    pub cluster: ClusterId,
    /// Global scenario ids this cluster ran (local id = index here).
    pub scenarios: Vec<u32>,
    /// The campaign outcome, if any scenarios were assigned.
    pub outcome: Option<CampaignOutcome>,
}

impl ClusterOutcome {
    /// Local makespan, staging excluded (0 when idle or stranded).
    pub fn makespan(&self) -> f64 {
        self.outcome
            .as_ref()
            .and_then(CampaignOutcome::makespan)
            .unwrap_or(0.0)
    }

    /// The local schedule (scenario ids are *local*), recorded when the
    /// cluster ran a fused, fault-free campaign.
    pub fn schedule(&self) -> Option<&Schedule> {
        self.outcome.as_ref()?.completed()?.schedule.as_ref()
    }
}

/// Outcome of a grid execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridOutcome {
    /// The repartition that was executed.
    pub repartition: Repartition,
    /// Per-cluster outcomes, in cluster-id order.
    pub clusters: Vec<ClusterOutcome>,
    /// Grid makespan: the slowest completed cluster, staging included.
    pub makespan: f64,
    /// Whether every used cluster completed its campaign (no cluster
    /// was stranded by its fault plan).
    pub complete: bool,
}

/// Plans (via Algorithm 1 on `heuristic`'s performance vectors) and
/// executes `ns` scenarios of `nm` months on `grid`; see
/// [`execute_repartition`]. The plan is [`repartition_grid`]'s, which
/// prices each vector entry the first time Algorithm 1 reads it.
pub fn run_grid<T: Tracer>(
    grid: &Grid,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
    config: &GridConfig,
    tracer: &mut T,
) -> Result<GridOutcome, HeuristicError> {
    let plan = repartition_grid(grid, heuristic, ns, nm);
    execute_repartition(grid, &plan, heuristic, nm, config, tracer)
}

/// Executes an existing repartition on `grid`: on every used cluster,
/// `heuristic` groups the assigned scenarios and the engine runs them
/// under that cluster's campaign knobs.
///
/// Every event reaches `tracer` stamped with its cluster (see
/// [`ClusterTag`]) and shifted by the cluster's stage-in delay: a
/// `Decision` naming the grouping at grid time 0, the stage-in
/// transfer when staging is on, the campaign, then the repatriation.
///
/// # Panics
///
/// Panics if `config` lists campaigns or staging links for a number of
/// clusters other than `grid.len()`.
pub fn execute_repartition<T: Tracer>(
    grid: &Grid,
    plan: &Repartition,
    heuristic: Heuristic,
    nm: u32,
    config: &GridConfig,
    tracer: &mut T,
) -> Result<GridOutcome, HeuristicError> {
    assert!(
        config.campaigns.is_empty() || config.campaigns.len() == grid.len(),
        "one campaign per cluster"
    );
    if let Some(staging) = &config.staging {
        assert_eq!(staging.links.len(), grid.len(), "one link per cluster");
    }
    let default_campaign = ClusterCampaign::default();
    let mut clusters = Vec::with_capacity(grid.len());
    let mut makespan = 0.0f64;
    let mut complete = true;
    for (id, cluster) in grid.iter() {
        let scenarios = plan.scenarios_of(id);
        let outcome = if scenarios.is_empty() {
            None
        } else {
            let n = scenarios.len() as u32;
            let inst = Instance::new(n, nm, cluster.resources);
            let grouping = heuristic.grouping(inst, &cluster.timing)?;
            let campaign = config
                .campaigns
                .get(id.index())
                .unwrap_or(&default_campaign);
            let delays = config
                .staging
                .as_ref()
                .map(|s| staging_delays(&s.model, &s.links[id.index()], n, nm));
            let (pre, post) = delays.unwrap_or((0.0, 0.0));
            // Compute events start after stage-in completes.
            let mut tag = ClusterTag::new(tracer, id.0, pre);
            if tag.enabled() {
                tag.record(TraceEvent::at(
                    -pre, // grid time 0, before the tag's offset
                    EventKind::Decision {
                        heuristic: heuristic.label().to_string(),
                        groups: grouping.groups().to_vec(),
                        post_procs: grouping.post_procs,
                    },
                ));
                if delays.is_some() {
                    tag.record(TraceEvent::at(
                        -pre,
                        EventKind::TransferStart {
                            kind: TransferKind::StageIn,
                            scenarios: n,
                            secs: pre,
                        },
                    ));
                    tag.record(TraceEvent::at(
                        0.0,
                        EventKind::TransferFinish {
                            kind: TransferKind::StageIn,
                            scenarios: n,
                        },
                    ));
                }
            }
            let out = simulate_campaign(
                inst,
                &cluster.timing,
                &grouping,
                &campaign.config,
                &campaign.faults,
                &mut tag,
            )
            .expect("heuristics build valid groupings");
            match out.makespan() {
                Some(local) => {
                    if delays.is_some() && tag.enabled() {
                        tag.record(TraceEvent::at(
                            local,
                            EventKind::TransferStart {
                                kind: TransferKind::Repatriate,
                                scenarios: n,
                                secs: post,
                            },
                        ));
                        tag.record(TraceEvent::at(
                            local + post,
                            EventKind::TransferFinish {
                                kind: TransferKind::Repatriate,
                                scenarios: n,
                            },
                        ));
                    }
                    makespan = makespan.max(pre + local + post);
                }
                None => complete = false,
            }
            Some(out)
        };
        clusters.push(ClusterOutcome {
            cluster: id,
            scenarios,
            outcome,
        });
    }
    Ok(GridOutcome {
        repartition: plan.clone(),
        clusters,
        makespan,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::presets::benchmark_grid;
    use oa_sched::hetero::{grid_performance, repartition};
    use oa_sched::policy::{Granularity, Recovery, ScenarioPolicy};
    use oa_trace::prelude::*;

    /// The paper's grid run, untraced.
    fn plain(grid: &Grid, heuristic: Heuristic, ns: u32, nm: u32) -> GridOutcome {
        run_grid(
            grid,
            heuristic,
            ns,
            nm,
            &GridConfig::default(),
            &mut NullTracer,
        )
        .unwrap()
    }

    fn with_campaigns(campaigns: Vec<ClusterCampaign>) -> GridConfig {
        GridConfig {
            campaigns,
            ..GridConfig::default()
        }
    }

    fn gigabit_staging(grid: &Grid) -> GridConfig {
        GridConfig {
            staging: Some(Staging {
                links: vec![Link::gigabit(); grid.len()],
                model: StagingModel::default(),
            }),
            ..GridConfig::default()
        }
    }

    #[test]
    fn grid_run_covers_all_scenarios() {
        let out = plain(&benchmark_grid(30), Heuristic::Knapsack, 10, 12);
        assert!(out.complete);
        let total: usize = out.clusters.iter().map(|c| c.scenarios.len()).sum();
        assert_eq!(total, 10);
        for c in &out.clusters {
            if let Some(s) = c.schedule() {
                s.validate().unwrap();
                assert_eq!(s.instance.ns as usize, c.scenarios.len());
            }
        }
    }

    #[test]
    fn grid_makespan_is_max_cluster_makespan() {
        let out = plain(&benchmark_grid(25), Heuristic::Basic, 8, 10);
        let max = out
            .clusters
            .iter()
            .map(ClusterOutcome::makespan)
            .fold(0.0, f64::max);
        assert_eq!(out.makespan, max);
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn simulated_makespan_close_to_predicted() {
        // The performance vectors *are* simulated makespans, so the
        // executed grid must match the planner's prediction exactly.
        let grid = benchmark_grid(40);
        let vectors = grid_performance(&grid, Heuristic::Knapsack, 10, 12);
        let plan = repartition(&vectors);
        let predicted = plan.predicted_makespan(&vectors);
        let config = GridConfig::default();
        let out = execute_repartition(
            &grid,
            &plan,
            Heuristic::Knapsack,
            12,
            &config,
            &mut NullTracer,
        )
        .unwrap();
        assert!(
            (out.makespan - predicted).abs() < 1e-6,
            "executed {} vs predicted {predicted}",
            out.makespan
        );
    }

    #[test]
    fn more_clusters_never_slow_the_grid() {
        let grid = benchmark_grid(20);
        let mut prev = f64::INFINITY;
        for n in 1..=5 {
            let out = plain(&grid.take(n), Heuristic::Knapsack, 10, 12);
            assert!(
                out.makespan <= prev + 1e-6,
                "grid of {n} clusters slower than {}: {} > {prev}",
                n - 1,
                out.makespan
            );
            prev = out.makespan;
        }
    }

    #[test]
    fn staging_adds_a_small_constant() {
        let grid = benchmark_grid(25);
        let plain = plain(&grid, Heuristic::Knapsack, 10, 12);
        let staged = run_grid(
            &grid,
            Heuristic::Knapsack,
            10,
            12,
            &gigabit_staging(&grid),
            &mut NullTracer,
        )
        .unwrap();
        assert!(staged.makespan > plain.makespan);
        // Staging is seconds against hours of computation.
        assert!(staged.makespan < plain.makespan + 60.0);
        // Local campaigns are untouched by the wide area.
        for (s, p) in staged.clusters.iter().zip(&plain.clusters) {
            assert_eq!(s.makespan().to_bits(), p.makespan().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "one link per cluster")]
    fn staging_requires_matching_links() {
        let grid = benchmark_grid(25);
        let config = GridConfig {
            staging: Some(Staging {
                links: vec![Link::gigabit()],
                model: StagingModel::default(),
            }),
            ..GridConfig::default()
        };
        let _ = run_grid(&grid, Heuristic::Basic, 2, 2, &config, &mut NullTracer);
    }

    #[test]
    #[should_panic(expected = "one campaign per cluster")]
    fn campaigns_must_cover_the_grid() {
        let grid = benchmark_grid(25);
        let config = with_campaigns(vec![ClusterCampaign::default()]);
        let _ = run_grid(&grid, Heuristic::Basic, 2, 2, &config, &mut NullTracer);
    }

    #[test]
    fn traced_grid_stamps_every_event_with_its_cluster() {
        let grid = benchmark_grid(30);
        let mut sink = VecTracer::new();
        let config = GridConfig::default();
        let out = run_grid(&grid, Heuristic::Knapsack, 10, 12, &config, &mut sink).unwrap();
        assert_eq!(out, plain(&grid, Heuristic::Knapsack, 10, 12));
        let events = sink.into_events();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.cluster.is_some()));
        // Each used cluster announces its grouping decision at t = 0.
        let decisions: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| {
                matches!(&e.kind, EventKind::Decision { heuristic, .. }
                    if heuristic == Heuristic::Knapsack.label())
            })
            .collect();
        let used = out.clusters.iter().filter(|c| c.outcome.is_some()).count();
        assert_eq!(decisions.len(), used);
        assert!(decisions.iter().all(|e| e.t.to_bits() == 0f64.to_bits()));
        // The slowest cluster's campaign end is the grid makespan.
        let max_end = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::CampaignEnd { makespan } => Some(makespan),
                _ => None,
            })
            .fold(0.0, f64::max);
        assert!((max_end - out.makespan).abs() < 1e-9);
    }

    #[test]
    fn traced_staging_brackets_the_computation() {
        let grid = benchmark_grid(25);
        let config = gigabit_staging(&grid);
        let mut sink = VecTracer::new();
        let out = run_grid(&grid, Heuristic::Knapsack, 10, 12, &config, &mut sink).unwrap();
        let untraced =
            run_grid(&grid, Heuristic::Knapsack, 10, 12, &config, &mut NullTracer).unwrap();
        assert_eq!(out, untraced);
        let events = sink.into_events();
        // Decisions and stage-ins start at the grid origin…
        let at_origin =
            |pred: fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind) && e.t == 0.0);
        assert!(at_origin(|k| matches!(k, EventKind::Decision { .. })));
        assert!(at_origin(|k| matches!(
            k,
            EventKind::TransferStart {
                kind: TransferKind::StageIn,
                ..
            }
        )));
        // …and the last repatriation lands exactly at the grid makespan.
        let last_repatriation = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::TransferFinish {
                        kind: TransferKind::Repatriate,
                        ..
                    }
                )
            })
            .map(|e| e.t)
            .fold(0.0, f64::max);
        assert!(
            (last_repatriation - out.makespan).abs() < 1e-9,
            "{last_repatriation} vs {}",
            out.makespan
        );
    }

    #[test]
    fn explicit_default_campaigns_match_the_plain_run() {
        let grid = benchmark_grid(30);
        let campaigns = vec![ClusterCampaign::default(); grid.len()];
        let explicit = run_grid(
            &grid,
            Heuristic::Knapsack,
            10,
            12,
            &with_campaigns(campaigns),
            &mut NullTracer,
        )
        .unwrap();
        assert_eq!(explicit, plain(&grid, Heuristic::Knapsack, 10, 12));
    }

    #[test]
    fn per_cluster_knobs_are_independent() {
        let grid = benchmark_grid(30);
        // Cluster 0 runs unfused + round-robin; cluster 1 takes a
        // mid-campaign group failure; the rest keep the paper defaults.
        let mut campaigns = vec![ClusterCampaign::default(); grid.len()];
        campaigns[0].config = CampaignConfig::unfused(ScenarioPolicy::RoundRobin);
        campaigns[1].faults = FaultPlan::none().kill(0, 2000.0);
        let config = with_campaigns(campaigns);
        let out = run_grid(&grid, Heuristic::Knapsack, 10, 12, &config, &mut NullTracer).unwrap();
        assert!(out.complete, "one group failure cannot strand a cluster");
        let base = plain(&grid, Heuristic::Knapsack, 10, 12);
        // Untouched clusters are bitwise unchanged…
        for i in 2..grid.len() {
            assert_eq!(out.clusters[i], base.clusters[i]);
        }
        // …and the failure made cluster 1 strictly slower.
        assert!(out.clusters[1].makespan() > base.clusters[1].makespan());
        let run = out.clusters[1]
            .outcome
            .as_ref()
            .unwrap()
            .completed()
            .unwrap();
        assert_eq!(run.months_lost, 1);
        // The unfused cluster completed too, with no schedule recorded.
        assert!(out.clusters[0].makespan() > 0.0);
        assert!(out.clusters[0].schedule().is_none());
        assert_eq!(
            config.campaigns[0].config.granularity,
            Granularity::Unfused,
            "knob survived the round trip"
        );
    }

    #[test]
    fn group_failures_degrade_one_cluster_without_stranding_the_grid() {
        let grid = benchmark_grid(30);
        let clean = plain(&grid, Heuristic::Knapsack, 10, 24);
        let faulted = |recovery| {
            // Kill one group on cluster 2 mid-campaign.
            let mut campaigns = vec![ClusterCampaign::default(); grid.len()];
            campaigns[2] = ClusterCampaign {
                config: CampaignConfig {
                    recovery,
                    ..CampaignConfig::default()
                },
                faults: FaultPlan::none().kill(0, clean.makespan * 0.3),
            };
            let config = with_campaigns(campaigns);
            run_grid(&grid, Heuristic::Knapsack, 10, 24, &config, &mut NullTracer).unwrap()
        };
        // That cluster loses at most a month per its checkpoints; the
        // others are untouched.
        let hurt = faulted(Recovery::MonthlyCheckpoint);
        assert!(hurt.complete, "one group loss cannot strand a cluster");
        assert!(hurt.clusters[2].makespan() > clean.clusters[2].makespan());
        for i in [0usize, 1, 3, 4] {
            assert_eq!(hurt.clusters[i], clean.clusters[i]);
        }
        // Restart-from-scratch recovery can only be worse on the victim.
        let restart = faulted(Recovery::RestartScenario);
        assert!(restart.clusters[2].makespan() + 1e-9 >= hurt.clusters[2].makespan());
    }

    #[test]
    fn killing_every_group_of_a_cluster_strands_the_grid() {
        let grid = benchmark_grid(30);
        let base = plain(&grid, Heuristic::Knapsack, 10, 12);
        let first = &grid.clusters()[0];
        let inst = Instance::new(base.clusters[0].scenarios.len() as u32, 12, first.resources);
        let groups = Heuristic::Knapsack
            .grouping(inst, &first.timing)
            .unwrap()
            .group_count();
        let mut campaigns = vec![ClusterCampaign::default(); grid.len()];
        campaigns[0].faults = FaultPlan {
            failures: (0..groups).map(|g| (g, 10.0)).collect(),
        };
        let config = with_campaigns(campaigns);
        let out = run_grid(&grid, Heuristic::Knapsack, 10, 12, &config, &mut NullTracer).unwrap();
        assert!(!out.complete, "an all-dead cluster strands the grid");
        assert!(matches!(
            out.clusters[0].outcome,
            Some(CampaignOutcome::Stranded { .. })
        ));
        // Survivors still finish their own assignments.
        for i in 1..grid.len() {
            assert_eq!(out.clusters[i], base.clusters[i]);
        }
    }

    #[test]
    fn empty_cluster_has_no_outcome() {
        // With a single scenario only the best (first) cluster is used.
        let out = plain(&benchmark_grid(30), Heuristic::Knapsack, 1, 6);
        let used = out.clusters.iter().filter(|c| c.outcome.is_some()).count();
        assert_eq!(used, 1);
        assert!(
            out.clusters[0].schedule().is_some(),
            "fastest (first) cluster should win"
        );
        assert_eq!(out.clusters[1].makespan(), 0.0);
    }
}
