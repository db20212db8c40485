//! Bit-identity of the oa-par parallel sweep engine with the serial
//! path: the "determinism under parallelism" invariant of DESIGN.md.
//! Whatever the worker count, groupings, schedules, metrics registries
//! and Chrome exports must compare byte-for-byte equal — parallelism
//! is a wall-clock optimization, never an observable behavior change.

use ocean_atmosphere::par::Pool;
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::hetero::{grid_performance, grid_performance_with};
use proptest::prelude::*;

/// Worker counts under test: the serial short-circuit, a typical small
/// pool, and an oversubscribed one.
const JOBS: [usize; 3] = [1, 2, 8];

/// Every heuristic with a pool-parameterized candidate search.
const POOLED_HEURISTICS: [Heuristic; 5] = [
    Heuristic::Basic,
    Heuristic::RedistributeIdle,
    Heuristic::NoPostReservation,
    Heuristic::Knapsack,
    Heuristic::Balanced,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn par_map_is_order_preserving_and_bit_identical(
        xs in proptest::collection::vec(-1e9f64..1e9, 0..96),
    ) {
        let f = |x: &f64| (x * 1.5 - 2.0, x.to_bits());
        let serial: Vec<(f64, u64)> = xs.iter().map(f).collect();
        for jobs in JOBS {
            let par = Pool::new(jobs).par_map(&xs, f);
            prop_assert_eq!(&par, &serial, "jobs = {}", jobs);
        }
    }

    #[test]
    fn par_sweep_grid_is_row_major_and_bit_identical(
        a in proptest::collection::vec(0u32..100, 1..6),
        b in proptest::collection::vec(0u32..100, 1..6),
        c in proptest::collection::vec(0u32..100, 1..6),
    ) {
        let f = |x: &u32, y: &u32, z: &u32| u64::from(x * 10_000 + y * 100 + z);
        let mut serial = Vec::new();
        for x in &a {
            for y in &b {
                for z in &c {
                    serial.push(f(x, y, z));
                }
            }
        }
        for jobs in JOBS {
            let par = Pool::new(jobs).par_sweep(&a, &b, &c, f);
            prop_assert_eq!(&par, &serial, "jobs = {}", jobs);
        }
    }

    #[test]
    fn campaign_pipeline_is_bit_identical_across_jobs(
        ns in 1u32..=8,
        nm in 1u32..=24,
        r in 11u32..=90,
    ) {
        let table = reference_cluster(r).timing;
        let inst = Instance::new(ns, nm, r);
        for h in POOLED_HEURISTICS {
            // Reference artifacts from the fully serial pool.
            let serial = h.grouping_with(inst, &table, &Pool::serial());
            let reference = artifacts(inst, &table, serial.as_ref().ok());
            for jobs in JOBS {
                let par = h.grouping_with(inst, &table, &Pool::new(jobs));
                prop_assert_eq!(
                    par.is_ok(),
                    serial.is_ok(),
                    "{:?} feasibility flips at jobs = {}", h, jobs
                );
                let got = artifacts(inst, &table, par.as_ref().ok());
                prop_assert_eq!(&got, &reference, "{:?} at jobs = {}", h, jobs);
            }
        }
    }

    #[test]
    fn grid_performance_is_bit_identical_across_jobs(
        n in 2usize..=5,
        r in 11u32..=60,
        ns in 1u32..=10,
        nm in 1u32..=24,
    ) {
        let grid = benchmark_grid(r).take(n);
        let serial = grid_performance(&grid, Heuristic::Knapsack, ns, nm);
        let reference = serde_json::to_string(&serial).expect("serializable");
        for jobs in JOBS {
            let par =
                grid_performance_with(&grid, Heuristic::Knapsack, ns, nm, &Pool::new(jobs));
            let got = serde_json::to_string(&par).expect("serializable");
            prop_assert_eq!(&got, &reference, "jobs = {}", jobs);
        }
    }
}

/// The observable artifacts of one campaign: grouping display form,
/// schedule JSON, Chrome trace export, and the rendered metrics
/// registry — everything the figure binaries and `oa trace` emit.
fn artifacts(
    inst: Instance,
    table: &TimingTable,
    grouping: Option<&Grouping>,
) -> Option<(String, String, String, String)> {
    let grouping = grouping?;
    let mut sink = VecTracer::new();
    let config = CampaignConfig::default();
    let schedule = simulate_campaign(
        inst,
        table,
        grouping,
        &config,
        &FaultPlan::none(),
        &mut sink,
    )
    .expect("valid")
    .into_schedule()
    .expect("fused fault-free runs record a schedule");
    let events = sink.into_events();
    Some((
        grouping.to_string(),
        serde_json::to_string(&schedule).expect("serializable"),
        chrome_trace_string(&events),
        MetricsRegistry::fold(&events).snapshot().render_text(),
    ))
}
