//! Determinism across the whole stack: every planning and execution
//! path must produce byte-identical results on repeated runs — the
//! experiments in EXPERIMENTS.md are only reproducible if this holds.

use ocean_atmosphere::platform::benchmarks::{run_campaign, BenchmarkConfig};
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::service::protocol::run_protocol;

#[test]
fn heuristics_are_deterministic() {
    let table = reference_cluster(77).timing;
    for r in [13u32, 53, 77] {
        let inst = Instance::new(10, 48, r);
        for h in Heuristic::PAPER {
            let a = h.grouping(inst, &table).expect("feasible");
            let b = h.grouping(inst, &table).expect("feasible");
            assert_eq!(a, b, "{h:?} R={r}");
        }
    }
}

#[test]
fn schedules_serialize_identically() {
    let table = reference_cluster(40).timing;
    let inst = Instance::new(6, 12, 40);
    let g = Heuristic::Knapsack
        .grouping(inst, &table)
        .expect("feasible");
    let s1 = execute_default(inst, &table, &g).expect("valid");
    let s2 = execute_default(inst, &table, &g).expect("valid");
    let j1 = serde_json::to_string(&s1).expect("serializable");
    let j2 = serde_json::to_string(&s2).expect("serializable");
    assert_eq!(j1, j2);
}

#[test]
fn grid_planning_is_deterministic() {
    let grid = benchmark_grid(31);
    let config = GridConfig::default();
    let run = || run_grid(&grid, Heuristic::Knapsack, 10, 24, &config, &mut NullTracer);
    let a = run().expect("ok");
    let b = run().expect("ok");
    assert_eq!(a.repartition, b.repartition);
    assert_eq!(a.makespan, b.makespan);
}

#[test]
fn benchmark_campaigns_are_seeded() {
    let cfg = BenchmarkConfig {
        repetitions: 4,
        noise: 0.05,
        seed: 99,
    };
    let a = run_campaign(&PcrModel::reference(), 1.1, cfg).expect("ok");
    let b = run_campaign(&PcrModel::reference(), 1.1, cfg).expect("ok");
    assert_eq!(a, b);
    // A different seed must actually change the measurements.
    let c = run_campaign(
        &PcrModel::reference(),
        1.1,
        BenchmarkConfig { seed: 100, ..cfg },
    )
    .expect("ok");
    assert_ne!(a.samples, c.samples);
}

#[test]
fn middleware_reports_are_reproducible_across_deployments() {
    // The grid protocol as a daemon session: fresh services agree, and
    // the worker count never changes a bit of the report.
    let grid = benchmark_grid(26).take(3);
    let report = |jobs| run_protocol(&grid, Heuristic::Knapsack, 7, 18, jobs).expect("usable");
    let a = report(1);
    assert_eq!(report(1), a);
    assert_eq!(report(2), a);
}
