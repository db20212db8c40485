//! Ablation timing: the cost of the design choices DESIGN.md calls out
//! (scenario policies, exact vs greedy knapsack inside the heuristic,
//! analytic selection vs estimator sweep).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_platform::presets::reference_cluster;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, ScenarioPolicy};
use oa_sim::engine::simulate_campaign;
use oa_trace::NullTracer;

fn bench_policies(c: &mut Criterion) {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 600, 53);
    let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
    let mut group = c.benchmark_group("policy");
    for policy in [
        ScenarioPolicy::LeastAdvanced,
        ScenarioPolicy::RoundRobin,
        ScenarioPolicy::MostAdvanced,
    ] {
        group.bench_with_input(
            BenchmarkId::new("execute", format!("{policy:?}")),
            &policy,
            |b, &policy| {
                let config = CampaignConfig::fused(policy);
                let plan = FaultPlan::none();
                b.iter(|| {
                    black_box(
                        simulate_campaign(inst, &table, &grouping, &config, &plan, &mut NullTracer)
                            .unwrap(),
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_knapsack_variants(c: &mut Criterion) {
    let table = reference_cluster(120).timing;
    let inst = Instance::new(10, 1800, 97);
    let mut group = c.benchmark_group("knapsack_variant");
    for h in [Heuristic::Knapsack, Heuristic::KnapsackGreedy] {
        group.bench_with_input(BenchmarkId::new("grouping", h.label()), &h, |b, &h| {
            b.iter(|| black_box(h.grouping(inst, &table).unwrap()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1000));
    targets = bench_policies, bench_knapsack_variants
}
criterion_main!(benches);
