//! Simulator benchmarks: full-schedule execution vs the aggregate
//! estimator, schedule validation, Gantt rendering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_platform::presets::reference_cluster;
use oa_sched::estimate::estimate;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sim::engine::execute_default;
use oa_sim::gantt::{render, GanttOptions};
use oa_sim::metrics::metrics;

fn bench_execute(c: &mut Criterion) {
    let table = reference_cluster(53).timing;
    let mut group = c.benchmark_group("simulator");
    for nm in [120u32, 600, 1800] {
        let inst = Instance::new(10, nm, 53);
        let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
        group.bench_with_input(BenchmarkId::new("execute", nm), &inst, |b, &inst| {
            b.iter(|| black_box(execute_default(inst, &table, &grouping).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("estimate", nm), &inst, |b, &inst| {
            b.iter(|| black_box(estimate(inst, &table, &grouping).unwrap()));
        });
    }
    group.finish();
}

fn bench_validate_and_render(c: &mut Criterion) {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 600, 53);
    let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
    let schedule = execute_default(inst, &table, &grouping).unwrap();
    c.bench_function("simulator/validate_6000_months", |b| {
        b.iter(|| schedule.validate().unwrap());
    });
    c.bench_function("simulator/metrics_6000_months", |b| {
        b.iter(|| black_box(metrics(&schedule)));
    });
    c.bench_function("simulator/gantt_6000_months", |b| {
        b.iter(|| black_box(render(&schedule, GanttOptions::default())));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_execute, bench_validate_and_render
}
criterion_main!(benches);
