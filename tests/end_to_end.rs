//! End-to-end pipeline tests across the workspace crates: application
//! model → platform → heuristics → simulator → metrics.

use ocean_atmosphere::prelude::*;

/// The unfused application DAG and the executed schedule must agree on
/// the dependence structure: a schedule is a legal linearization of the
/// fused DAG, and the fused DAG is a faithful contraction of the
/// 7-task-per-month graph.
#[test]
fn dag_to_schedule_pipeline() {
    let shape = ExperimentShape::new(4, 6);
    let full = lower_experiment(shape);
    full.validate().expect("chains are acyclic");
    let fused = lower_fused(shape);
    fused.validate().expect("chains are acyclic");
    assert_eq!(fused.node_count() as u64, 2 * shape.total_months());

    let cluster = reference_cluster(20);
    let inst = Instance::for_shape(shape, 20);
    let grouping = Heuristic::Knapsack
        .grouping(inst, &cluster.timing)
        .expect("feasible");
    let schedule = execute_default(inst, &cluster.timing, &grouping).expect("valid");
    schedule.validate().expect("schedule respects the DAG");

    // Every fused task of the DAG is placed exactly once.
    assert_eq!(schedule.records.len(), fused.node_count());
}

/// The synthetic benchmark campaign must produce a table on which the
/// heuristics behave like on the ground-truth table.
#[test]
fn benchmark_campaign_feeds_scheduler() {
    let truth = PcrModel::reference();
    let result = run_campaign(
        &truth,
        1.0,
        BenchmarkConfig {
            repetitions: 5,
            noise: 0.01,
            seed: 7,
        },
    )
    .expect("campaign is valid");
    let inst = Instance::new(10, 240, 53);
    let from_truth = Heuristic::Basic
        .grouping(inst, &truth.table(1.0).expect("valid"))
        .expect("ok");
    let from_bench = Heuristic::Basic.grouping(inst, &result.table).expect("ok");
    // 1% noise must not flip the G decision on this instance.
    assert_eq!(from_truth.groups(), from_bench.groups());
    // The fitted model reproduces the curve within noise.
    let fitted = result.fitted.expect("1% noise fits cleanly");
    for g in 4..=11 {
        let rel = (fitted.pcr_secs(g) - truth.pcr_secs(g)).abs() / truth.pcr_secs(g);
        assert!(rel < 0.05, "G={g}: {rel}");
    }
}

/// Critical-path consistency: no schedule can beat the chain lower
/// bound `NM × T[11] (+ TP)`, and a single scenario on a full group
/// exactly achieves it.
#[test]
fn critical_path_lower_bound_is_tight() {
    let cluster = reference_cluster(12);
    let inst = Instance::new(1, 24, 12);
    let grouping = Grouping::new(vec![11], 1);
    let schedule = execute_default(inst, &cluster.timing, &grouping).expect("valid");
    let lb = 24.0 * cluster.timing.main_secs(11) + cluster.timing.post_secs();
    assert!((schedule.makespan - lb).abs() < 1e-6);
}

/// Scaling sanity across the whole stack: doubling the resources never
/// increases the knapsack heuristic's makespan.
#[test]
fn resources_monotonicity() {
    let cluster = reference_cluster(120);
    let mut prev = f64::INFINITY;
    for r in [12u32, 24, 48, 96] {
        let inst = Instance::new(8, 120, r);
        let ms = Heuristic::Knapsack
            .makespan(inst, &cluster.timing)
            .expect("feasible");
        assert!(ms <= prev + 1e-6, "R={r}: {ms} > {prev}");
        prev = ms;
    }
}

/// Estimator/simulator agreement on a large canonical instance.
#[test]
fn estimator_matches_simulator_at_scale() {
    let cluster = reference_cluster(53);
    let inst = Instance::new(10, 1800, 53);
    for h in Heuristic::PAPER {
        let grouping = h.grouping(inst, &cluster.timing).expect("feasible");
        let est = estimate(inst, &cluster.timing, &grouping)
            .expect("valid")
            .makespan;
        let sim = execute_default(inst, &cluster.timing, &grouping)
            .expect("valid")
            .makespan;
        assert!((est - sim).abs() < 1e-6, "{h:?}: {est} vs {sim}");
    }
}

/// Metrics are conserved: busy processor-seconds equal the task-level
/// accounting.
#[test]
fn metrics_conservation() {
    let cluster = reference_cluster(30);
    let inst = Instance::new(5, 36, 30);
    let grouping = Heuristic::Knapsack
        .grouping(inst, &cluster.timing)
        .expect("feasible");
    let schedule = execute_default(inst, &cluster.timing, &grouping).expect("valid");
    let m = metrics(&schedule);
    let expect_posts = inst.nbtasks() as f64 * cluster.timing.post_secs();
    assert!((m.post_proc_secs - expect_posts).abs() < 1e-6);
    let expect_mains: f64 = schedule
        .mains()
        .map(|r| (r.end - r.start) * r.procs.count as f64)
        .sum();
    assert!((m.main_proc_secs - expect_mains).abs() < 1e-6);
    assert_eq!(m.scenario_finish.len(), 5);
}
