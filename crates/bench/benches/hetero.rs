//! Grid-level benchmarks: performance-vector pricing, Algorithm 1, and
//! the full six-step protocol as a daemon session.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_platform::presets::benchmark_grid;
use oa_sched::hetero::{grid_performance, repartition};
use oa_sched::heuristics::Heuristic;
use oa_service::protocol::run_protocol;

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("hetero");
    for n in [2usize, 5] {
        let grid = benchmark_grid(40).take(n);
        group.bench_with_input(BenchmarkId::new("vectors_nm120", n), &grid, |b, grid| {
            b.iter(|| black_box(grid_performance(grid, Heuristic::Knapsack, 10, 120)));
        });
        let vectors = grid_performance(&grid, Heuristic::Knapsack, 10, 120);
        group.bench_with_input(BenchmarkId::new("algorithm1", n), &vectors, |b, v| {
            b.iter(|| black_box(repartition(v)));
        });
    }
    group.finish();
}

fn bench_protocol_round_trip(c: &mut Criterion) {
    let grid = benchmark_grid(30);
    c.bench_function("protocol/submit_10x60", |b| {
        b.iter(|| black_box(run_protocol(&grid, Heuristic::Knapsack, 10, 60, 1).unwrap()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_planning, bench_protocol_round_trip
}
criterion_main!(benches);
