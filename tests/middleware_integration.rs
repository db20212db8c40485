//! Middleware integration: the threaded protocol must be an exact
//! refinement of the in-process planner, survive faults, and stay
//! deterministic under concurrency.

use ocean_atmosphere::prelude::*;

#[test]
fn protocol_refines_direct_planning_for_every_heuristic() {
    let grid = benchmark_grid(35);
    for h in Heuristic::PAPER {
        let deployment = Deployment::new(&grid, h);
        let report = deployment.client().submit(9, 24).expect("usable grid");

        let vectors = grid_performance(&grid, h, 9, 24);
        let plan = repartition(&vectors);
        let config = GridConfig::default();
        let outcome = execute_repartition(&grid, &plan, h, 24, &config, &mut NullTracer)
            .expect("plan feasible");
        assert!(
            (report.makespan - outcome.makespan).abs() < 1e-6,
            "{h:?}: middleware {} vs direct {}",
            report.makespan,
            outcome.makespan
        );
        for rep in &report.reports {
            assert_eq!(rep.scenarios, plan.scenarios_of(rep.cluster), "{h:?}");
        }
    }
}

#[test]
fn repeated_submissions_are_deterministic() {
    let grid = benchmark_grid(28);
    let deployment = Deployment::new(&grid, Heuristic::Knapsack);
    let client = deployment.client();
    let first = client.submit(10, 36).expect("usable");
    for _ in 0..3 {
        let again = client.submit(10, 36).expect("usable");
        assert_eq!(again.makespan, first.makespan);
        assert_eq!(
            again
                .reports
                .iter()
                .map(|r| r.scenarios.clone())
                .collect::<Vec<_>>(),
            first
                .reports
                .iter()
                .map(|r| r.scenarios.clone())
                .collect::<Vec<_>>(),
        );
    }
}

#[test]
fn protocol_trace_has_all_six_steps_in_order() {
    let grid = benchmark_grid(30).take(3);
    let deployment = Deployment::new(&grid, Heuristic::Knapsack);
    let report = deployment.client().submit(5, 12).expect("usable");
    let step = |e: &ProtocolEvent| match e {
        ProtocolEvent::RequestReceived { .. } => 1,
        ProtocolEvent::PerfQueried { .. } => 2,
        ProtocolEvent::PerfReceived { .. } | ProtocolEvent::PerfMissing { .. } => 3,
        ProtocolEvent::RepartitionComputed { .. } => 4,
        ProtocolEvent::ExecSent { .. } => 5,
        ProtocolEvent::ReportReceived { .. } => 6,
    };
    let steps: Vec<i32> = report.trace.iter().map(step).collect();
    let mut sorted = steps.clone();
    sorted.sort_unstable();
    assert_eq!(steps, sorted, "steps out of order: {steps:?}");
    for s in 1..=6 {
        assert!(steps.contains(&s), "missing step {s}");
    }
    // 3 clusters: one query/reply/order/report each.
    assert_eq!(steps.iter().filter(|&&s| s == 2).count(), 3);
    assert_eq!(steps.iter().filter(|&&s| s == 6).count(), 3);
}

#[test]
fn degraded_grid_still_completes_campaigns() {
    let grid = benchmark_grid(30);
    // Three of five clusters down.
    let deployment = Deployment::with_plugins(&grid, |id, _| {
        if id.index() % 2 == 0 {
            Box::new(HeuristicPlugin(Heuristic::Knapsack))
        } else {
            Box::new(UnavailablePlugin)
        }
    });
    let report = deployment
        .client()
        .submit(7, 12)
        .expect("three clusters remain");
    let total: usize = report.reports.iter().map(|r| r.scenarios.len()).sum();
    assert_eq!(total, 7);
    for rep in &report.reports {
        if rep.cluster.index() % 2 == 1 {
            assert!(rep.scenarios.is_empty(), "down cluster got work");
        }
    }
}

#[test]
fn single_cluster_grid_degenerates_to_local_scheduling() {
    let grid = benchmark_grid(53).take(1);
    let deployment = Deployment::new(&grid, Heuristic::Knapsack);
    let report = deployment.client().submit(10, 120).expect("usable");
    let local = Heuristic::Knapsack
        .makespan(
            Instance::new(10, 120, 53),
            &grid.cluster(ClusterId(0)).timing,
        )
        .expect("feasible");
    assert!((report.makespan - local).abs() < 1e-6);
}
