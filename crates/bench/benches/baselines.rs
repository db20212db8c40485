//! Cost of the related-work baselines: one list-scheduling pass over
//! the pinned fused mesh (the `execute_ir` loop CPA, CPR and
//! one-DAG-at-a-time share), CPA's allocation phase, and the full CPR
//! loops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_baselines::{cpa, cpr, cpr_batched, schedule_pinned};
use oa_platform::presets::reference_cluster;
use oa_sched::params::Instance;
use oa_workflow::ir::lower_fused;

fn bench_list_scheduler(c: &mut Criterion) {
    let table = reference_cluster(53).timing;
    let mut group = c.benchmark_group("pinned_mesh");
    for nm in [60u32, 240, 600] {
        let inst = Instance::new(10, nm, 53);
        let mut ir = lower_fused(inst.shape());
        group.bench_with_input(BenchmarkId::new("nm", nm), &inst, |b, &inst| {
            b.iter(|| black_box(schedule_pinned(&mut ir, &table, inst.r, &[5; 10]).unwrap()));
        });
    }
    group.finish();
}

fn bench_cpa_cpr(c: &mut Criterion) {
    let table = reference_cluster(80).timing;
    let inst = Instance::new(8, 60, 80);
    c.bench_function("baselines/cpa", |b| {
        b.iter(|| black_box(cpa(inst, &table).unwrap()));
    });
    c.bench_function("baselines/cpr_single", |b| {
        b.iter(|| black_box(cpr(inst, &table).unwrap()));
    });
    c.bench_function("baselines/cpr_batched", |b| {
        b.iter(|| black_box(cpr_batched(inst, &table).unwrap()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1000));
    targets = bench_list_scheduler, bench_cpa_cpr
}
criterion_main!(benches);
