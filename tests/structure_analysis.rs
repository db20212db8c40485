//! Structural analysis of the application and its schedules: the
//! paper's qualitative statements about the workload, checked with the
//! ASAP/ALAP machinery and occupancy profiles.

use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sim::profile::profile;

/// "There are as many critical paths as simulations" (Section 3.2):
/// every scenario's spine is critical; the independent chains give the
/// DAG exactly NS-way main-task parallelism (post tasks add a fringe).
#[test]
fn as_many_critical_paths_as_simulations() {
    let shape = ExperimentShape::new(5, 6);
    let ir = lower_experiment(shape);
    let l = ir.levels(&ReferenceDurations).unwrap();
    // Critical nodes include every pcr of every scenario.
    let criticals = l.critical_nodes();
    let critical_pcrs = criticals
        .iter()
        .filter(|n| ir.dag.node(**n).origin.unwrap().kind == TaskKind::Pcr)
        .count();
    assert_eq!(critical_pcrs, 5 * 6, "every pcr on every chain is critical");
    // The span equals one scenario's chain (scenarios are identical).
    let single = lower_experiment(ExperimentShape::new(1, 6));
    let sl = single.levels(&ReferenceDurations).unwrap();
    assert!((l.span - sl.span).abs() < 1e-9);
}

/// The unbounded-processor parallelism of the fused DAG is NS mains
/// (plus trailing posts), which is why `nbmax = min(NS, ⌊R/G⌋)` is the
/// right cap on concurrent groups.
#[test]
fn useful_parallelism_is_bounded_by_ns() {
    for ns in [2u32, 4, 8] {
        let ir = lower_fused(ExperimentShape::new(ns, 5));
        let l = ir.levels(&ReferenceDurations).unwrap();
        let p = l.max_parallelism();
        // NS mains can run at once; posts of the previous month overlap
        // the next main, adding at most NS more.
        assert!(p >= ns as usize, "ns={ns}: {p}");
        assert!(p <= 2 * ns as usize, "ns={ns}: {p}");
    }
}

/// Executed schedules realize the theory: with R ≥ 11·NS the knapsack
/// grouping keeps NS groups of 11 busy, occupancy ≈ NS × 11 during the
/// steady state.
#[test]
fn steady_state_occupancy_matches_group_capacity() {
    let inst = Instance::new(5, 20, 60);
    let table = reference_cluster(60).timing;
    let g = Heuristic::Knapsack.grouping(inst, &table).unwrap();
    assert_eq!(g.groups(), &[11; 5]);
    let schedule = execute_default(inst, &table, &g).unwrap();
    let p = profile(&schedule);
    // At least 80% of the horizon has all 55 group processors busy.
    assert!(p.fraction_at_least(55) > 0.8, "{}", p.fraction_at_least(55));
    assert!(p.peak_busy() <= 60);
}

/// Occupancy accounting closes against the metrics module on a large
/// campaign.
#[test]
fn occupancy_conservation_at_scale() {
    let inst = Instance::new(10, 120, 53);
    let table = reference_cluster(53).timing;
    let g = Heuristic::RedistributeIdle.grouping(inst, &table).unwrap();
    let schedule = execute_default(inst, &table, &g).unwrap();
    let p = profile(&schedule);
    let m = ocean_atmosphere::sim::metrics::metrics(&schedule);
    let busy = m.main_proc_secs + m.post_proc_secs;
    assert!((p.idle_proc_secs() + busy - 53.0 * schedule.makespan).abs() < 1e-3);
}
