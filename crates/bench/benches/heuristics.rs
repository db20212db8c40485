//! Heuristic-construction benchmarks: how long each grouping decision
//! takes, including the analytic G selection and the event estimator
//! that Improvement 2 sweeps. The estimator is timed on one knapsack
//! grouping at three `NM`, and at `NM = 1800` on five shapes of one or
//! two size classes, since its loop steps a size class at a time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_platform::presets::{preset_cluster, reference_cluster};
use oa_sched::analytic::best_group;
use oa_sched::estimate::estimate;
use oa_sched::grouping::Grouping;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;

fn bench_grouping(c: &mut Criterion) {
    let table = reference_cluster(120).timing;
    let mut group = c.benchmark_group("grouping");
    for h in [
        Heuristic::Basic,
        Heuristic::RedistributeIdle,
        Heuristic::NoPostReservation,
        Heuristic::Knapsack,
    ] {
        for r in [53u32, 120] {
            let inst = Instance::new(10, 1800, r);
            group.bench_with_input(BenchmarkId::new(h.label(), r), &inst, |b, &inst| {
                b.iter(|| black_box(h.grouping(inst, &table).unwrap()));
            });
        }
    }
    group.finish();
}

fn bench_analytic(c: &mut Criterion) {
    let table = reference_cluster(120).timing;
    c.bench_function("analytic/best_group_R120", |b| {
        let inst = Instance::new(10, 1800, 120);
        b.iter(|| black_box(best_group(inst, &table)));
    });
}

fn bench_estimator(c: &mut Criterion) {
    let table = reference_cluster(53).timing;
    let mut group = c.benchmark_group("estimate");
    for nm in [120u32, 600, 1800] {
        let inst = Instance::new(10, nm, 53);
        let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
        group.bench_with_input(BenchmarkId::new("nm", nm), &inst, |b, &inst| {
            b.iter(|| black_box(estimate(inst, &table, &grouping).unwrap()));
        });
    }
    let table = preset_cluster("chinqchint", 90).timing;
    for (label, ns, groups, post) in [
        ("1x11_ns1", 1, vec![11], 0),
        ("4x11_ns4", 4, vec![11; 4], 0),
        ("7x7_ns10", 10, vec![7; 7], 4),
        ("3x8+4x7_ns10", 10, vec![8, 8, 8, 7, 7, 7, 7], 1),
        ("10x9_ns10", 10, vec![9; 10], 0),
    ] {
        let grouping = Grouping::new(groups, post);
        let r = u32::try_from(grouping.total_procs()).expect("small");
        let inst = Instance::new(ns, 1800, r);
        group.bench_with_input(BenchmarkId::new("shape", label), &inst, |b, &inst| {
            b.iter(|| black_box(estimate(inst, &table, &grouping).unwrap()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_grouping, bench_analytic, bench_estimator
}
criterion_main!(benches);
