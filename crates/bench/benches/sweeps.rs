//! Parallel-sweep benchmarks for the oa-par engine and the zero-alloc
//! executor hot path: single-campaign execution, a scaled-down Figure 8
//! gain sweep at 1 vs N jobs, and the knapsack candidate search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_par::Pool;
use oa_platform::presets::{benchmark_grid, reference_cluster, DEFAULT_RESOURCES};
use oa_platform::timing::TimingTable;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sim::engine::execute_default;

fn bench_single_campaign(c: &mut Criterion) {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 1800, 53);
    let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
    c.bench_function("sweeps/execute_single_campaign", |b| {
        b.iter(|| black_box(execute_default(inst, &table, &grouping).unwrap()));
    });
}

/// One Figure-8 sweep point: the four heuristic makespans of every
/// benchmark cluster at resource count `r`.
fn fig8_point(r: u32, nm: u32, tables: &[TimingTable]) -> f64 {
    let inst = Instance::new(10, nm, r);
    let mut acc = 0.0;
    for t in tables {
        for h in [
            Heuristic::Basic,
            Heuristic::RedistributeIdle,
            Heuristic::NoPostReservation,
            Heuristic::Knapsack,
        ] {
            acc += h.makespan(inst, t).expect("R ≥ 11");
        }
    }
    acc
}

fn bench_fig8_sweep(c: &mut Criterion) {
    let grid = benchmark_grid(DEFAULT_RESOURCES);
    let tables: Vec<TimingTable> = grid.clusters().iter().map(|c| c.timing.clone()).collect();
    let rs: Vec<u32> = (11..=60).collect();
    let mut group = c.benchmark_group("sweeps");
    for jobs in [1usize, oa_par::available_jobs()] {
        let pool = Pool::new(jobs);
        group.bench_with_input(
            BenchmarkId::new("fig8_sweep_nm120", jobs),
            &pool,
            |b, pool| {
                b.iter(|| black_box(pool.par_map(&rs, |&r| fig8_point(r, 120, &tables))));
            },
        );
    }
    group.finish();
}

fn bench_knapsack_search(c: &mut Criterion) {
    let table = reference_cluster(120).timing;
    let inst = Instance::new(10, 1800, 97);
    c.bench_function("sweeps/knapsack_search_r97", |b| {
        b.iter(|| black_box(Heuristic::Knapsack.makespan(inst, &table).unwrap()));
    });
    let pool = Pool::new(oa_par::available_jobs());
    c.bench_function("sweeps/balanced_search_r97_par", |b| {
        b.iter(|| {
            black_box(
                Heuristic::Balanced
                    .makespan_with(inst, &table, &pool)
                    .unwrap(),
            )
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_single_campaign, bench_fig8_sweep, bench_knapsack_search
}
criterion_main!(benches);
