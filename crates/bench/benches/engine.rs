//! Criterion benchmarks for the campaign-engine simulation kernel:
//! event-by-event execution versus the steady-state fast-forward
//! (integer-time runs only), on the NM = 1800 reference campaign
//! whose outputs are pinned bitwise identical by
//! `tests/kernel_equivalence.rs`, plus the workflow-IR front-end
//! (preset lowering, topological sort, critical path) at the full
//! 18,000-month canonical shape. The wall-clock matrix over more
//! campaign lengths lives in the `engine_kernel` binary
//! (`results/BENCH_engine.json`), which also records the IR timings.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use oa_platform::presets::reference_cluster;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity, Recovery, ScenarioPolicy};
use oa_sim::engine::{simulate_campaign_kernel, KernelOpts};
use oa_trace::NullTracer;
use oa_workflow::chain::ExperimentShape;
use oa_workflow::ir::{lower_fused, ReferenceDurations};

fn bench_kernel_nm1800(c: &mut Criterion) {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 1800, 53);
    // The homogeneous 7×7 grouping: every group runs the same monthly
    // duration, so the engine reaches a periodic steady state the
    // fast-forward can replay (heterogeneous groupings drift in phase
    // for far longer than the campaign).
    let grouping = Heuristic::Basic.grouping(inst, &table).unwrap();
    let config = CampaignConfig {
        policy: ScenarioPolicy::LeastAdvanced,
        granularity: Granularity::Fused,
        recovery: Recovery::MonthlyCheckpoint,
    };
    let plan = FaultPlan::none();
    let mut group = c.benchmark_group("engine");
    for (label, opts) in [
        ("event_by_event_nm1800", KernelOpts::event_by_event()),
        ("kernel_nm1800", KernelOpts::default()),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(
                    simulate_campaign_kernel(
                        inst,
                        &table,
                        &grouping,
                        &config,
                        &plan,
                        opts,
                        &mut NullTracer,
                    )
                    .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_ir_nm18000(c: &mut Criterion) {
    // The IR front-end at full campaign scale: 10 scenarios × 18,000
    // months is 360,000 nodes fused. Lowering, topological sort and
    // critical path are all linear passes; the bench pins that they
    // stay cheap next to the simulation itself.
    let shape = ExperimentShape::new(10, 18_000);
    let ir = lower_fused(shape);
    let mut group = c.benchmark_group("ir");
    group.bench_function("lower_fused_nm18000", |b| {
        b.iter(|| black_box(lower_fused(black_box(shape))));
    });
    group.bench_function("topo_sort_nm18000", |b| {
        b.iter(|| black_box(ir.dag.topo_sort().unwrap()));
    });
    group.bench_function("critical_path_nm18000", |b| {
        b.iter(|| black_box(ir.critical_path(&ReferenceDurations).unwrap()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_kernel_nm1800, bench_ir_nm18000
}
criterion_main!(benches);
