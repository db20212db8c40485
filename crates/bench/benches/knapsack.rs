//! Solver micro-benchmarks: the exact DP must stay interactive (the
//! daemon prices every cluster its placement reads), and the greedy /
//! branch-and-bound alternatives bound the cost of exactness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_knapsack::{solve_branch_bound, solve_dp, solve_greedy, Item, Problem};
use oa_platform::presets::reference_cluster;

fn instance(r: u32, ns: u32) -> Problem {
    let t = reference_cluster(r.max(4)).timing;
    let items: Vec<Item> = (4..=11)
        .map(|g| Item::new(g, 1.0 / t.main_secs(g), ns))
        .collect();
    Problem::new(items, r, ns)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("knapsack");
    for r in [53u32, 120, 500, 1000] {
        let p = instance(r, 10);
        group.bench_with_input(BenchmarkId::new("dp", r), &p, |b, p| {
            b.iter(|| black_box(solve_dp(p)));
        });
        group.bench_with_input(BenchmarkId::new("branch_bound", r), &p, |b, p| {
            b.iter(|| black_box(solve_branch_bound(p)));
        });
        group.bench_with_input(BenchmarkId::new("greedy", r), &p, |b, p| {
            b.iter(|| black_box(solve_greedy(p)));
        });
    }
    group.finish();
}

fn bench_scaling_in_ns(c: &mut Criterion) {
    let mut group = c.benchmark_group("knapsack_ns");
    for ns in [5u32, 10, 20, 40] {
        let p = instance(200, ns);
        group.bench_with_input(BenchmarkId::new("dp", ns), &p, |b, p| {
            b.iter(|| black_box(solve_dp(p)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_solvers, bench_scaling_in_ns
}
criterion_main!(benches);
