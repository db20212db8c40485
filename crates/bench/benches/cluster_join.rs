//! `ClusterJoin` benchmarks: a cold daemon joins one cluster and
//! admits its first `Submit`.
//!
//! Placement prices performance-vector entries on demand, so the join
//! itself prices nothing and the first submission prices the joined
//! cluster's entries up to its planned count plus one — whatever the
//! capacity. `capacity = 1536` is the stress point (6× the default
//! 256) at which a join used to price every entry up front; both
//! capacities must now cost the same.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_service::daemon::{run_script, Service, ServiceConfig};

const SCRIPT: &str = r#"{"ClusterJoin":{"name":"ref","preset":"reference","resources":53}}
{"Submit":{"session":"s","ns":3,"nm":60,"heuristic":"knapsack","policy":"least-advanced","granularity":"fused","recovery":"checkpoint","kills":"","deadline":0.0}}"#;

fn service(capacity: u32) -> Service {
    let cfg = ServiceConfig {
        capacity,
        ..ServiceConfig::default()
    };
    Service::new(cfg, 1)
}

fn bench_cluster_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_join");
    for capacity in [384u32, 1536] {
        group.bench_with_input(BenchmarkId::new("cold", capacity), &capacity, |b, &cap| {
            b.iter(|| black_box(run_script(&mut service(cap), SCRIPT)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_cluster_join
}
criterion_main!(benches);
