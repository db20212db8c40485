//! Load generator for the `oa-service` daemon: thousands of campaign
//! sessions through one in-process service, wall-clock latencies on
//! every request.
//!
//! The daemon itself never reads a wall clock (its determinism audit
//! forbids it); this harness is the one place latency is *measured* —
//! each `handle()` call is timed with `Instant` and the observation is
//! fed back into the service's `service_admit_latency_secs` /
//! `service_decision_latency_secs` histograms, which `{"Metrics": {}}`
//! then reports. Exact percentiles over the raw samples go to
//! `results/BENCH_service.json`.
//!
//! Run: `cargo run --release -p oa-bench --bin service_load [--fast]`
//!
//! The full run keeps > 1000 sessions concurrently admitted before the
//! first clock advance; `--fast` shrinks everything for CI smoke. A
//! second phase then admits 30 preset `SubmitWorkflow`s at the paper's
//! `NM = 1800` (half fused, half unfused, `NS` 1–3) into the capacity
//! the storm left, timed as `workflow_admit_latency_secs`. The record
//! carries the five joins' wall time (`join_secs`), the wall time from
//! the first join to the last admission (`last_admission_secs`), the
//! host's `nproc` and the checked-out `commit`.

use std::time::Instant;

use oa_bench::{commit, write_json};
use oa_service::daemon::{Service, ServiceConfig};
use oa_service::wire::{Request, Response};
use oa_trace::metrics::keys;
use oa_workflow::chain::ExperimentShape;
use oa_workflow::ir::preset_value;
use serde::Value;

/// Preset `SubmitWorkflow`s admitted after the storm, and their shape.
const WORKFLOWS: u32 = 30;
const WORKFLOW_NM: u32 = 1800;

/// Exact quantile over a sorted sample set (nearest-rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summary(samples: &mut [f64]) -> Value {
    samples.sort_by(f64::total_cmp);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Value::Object(vec![
        ("count".into(), Value::U64(samples.len() as u64)),
        ("mean".into(), Value::F64(mean)),
        ("p50".into(), Value::F64(quantile(samples, 0.50))),
        ("p90".into(), Value::F64(quantile(samples, 0.90))),
        ("p99".into(), Value::F64(quantile(samples, 0.99))),
        ("max".into(), Value::F64(*samples.last().unwrap())),
    ])
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    // 1100 singleton sessions plus 100 three-scenario sessions keep
    // 1200 sessions (1400 scenarios) concurrently admitted.
    let (singles, triples, capacity, advance_steps) = if fast {
        (120, 10, 256, 40)
    } else {
        (1100, 100, 1536, 400)
    };
    let submissions = singles + triples;
    // Planning with the greedy knapsack: placement prices each
    // cluster's performance-vector entries on demand, up to its planned
    // count plus one (about 280 per cluster in this storm), and the
    // exact knapsack costs ~3x more per entry at this scale for the
    // same counts on this workload. The per-session execution
    // heuristics are chosen by each submission, not here.
    let cfg = ServiceConfig {
        capacity,
        planning_heuristic: oa_sched::heuristics::Heuristic::KnapsackGreedy,
        ..Default::default()
    };
    let mut service = Service::new(cfg, oa_par::resolve_jobs(None));

    println!("== oa-service load: {submissions} sessions over 5 clusters ==");
    let presets = [
        "sagittaire",
        "capricorne",
        "chinqchint",
        "grillon",
        "grelon",
    ];
    let t0 = Instant::now();
    for p in presets {
        let responses = service.handle(Request::ClusterJoin {
            name: p.to_string(),
            preset: p.to_string(),
            resources: 64,
        });
        assert!(
            matches!(responses[0], Response::ClusterUp { .. }),
            "join failed: {responses:?}"
        );
    }
    let join_secs = t0.elapsed().as_secs_f64();
    println!(
        "  joined {} clusters (capacity {capacity}) in {join_secs:.6}s",
        presets.len(),
    );

    // Phase 1: admission storm. No clock advance in between, so every
    // admitted session stays concurrently active.
    let mut admit = Vec::with_capacity(submissions);
    let mut admitted = 0u64;
    let t_submit = Instant::now();
    for i in 0..submissions {
        let ns = if i < singles { 1 } else { 3 };
        let req = Request::Submit {
            session: format!("s{i:05}"),
            ns,
            nm: 12,
            heuristic: "knapsack".to_string(),
            policy: "least-advanced".to_string(),
            granularity: "fused".to_string(),
            recovery: "checkpoint".to_string(),
            kills: String::new(),
            deadline: 0.0,
        };
        let t = Instant::now();
        let responses = service.handle(req);
        let secs = t.elapsed().as_secs_f64();
        admit.push(secs);
        service.observe_latency(keys::ADMIT_LATENCY_SECS, secs);
        if matches!(responses[0], Response::Admitted { .. }) {
            admitted += 1;
        } else {
            panic!("submission {i} not admitted: {responses:?}");
        }
    }
    let submit_wall = t_submit.elapsed().as_secs_f64();
    let max_concurrent = service
        .metrics()
        .gauge(keys::SESSIONS_ACTIVE)
        .unwrap_or(0.0) as u64;
    println!(
        "  admitted {admitted} sessions in {submit_wall:.2}s \
         ({:.0} submissions/s), {max_concurrent} concurrently active",
        admitted as f64 / submit_wall
    );

    // Phase 1b: preset workflow admissions at the paper's campaign
    // length. Their 60 scenarios fit the capacity the storm left
    // (136 full, 106 fast).
    let mut workflow_admit = Vec::with_capacity(WORKFLOWS as usize);
    for i in 0..WORKFLOWS {
        let shape = ExperimentShape::new(1 + i % 3, WORKFLOW_NM);
        let req = Request::SubmitWorkflow {
            session: format!("w{i:02}"),
            workflow: preset_value(shape, i % 2 == 0),
            heuristic: "knapsack".to_string(),
            policy: "least-advanced".to_string(),
            recovery: "checkpoint".to_string(),
            kills: String::new(),
            deadline: 0.0,
        };
        let t = Instant::now();
        let responses = service.handle(req);
        workflow_admit.push(t.elapsed().as_secs_f64());
        assert!(
            matches!(responses[0], Response::Admitted { .. }),
            "workflow {i} not admitted: {responses:?}"
        );
    }
    let last_admission_secs = t0.elapsed().as_secs_f64();
    println!(
        "  admitted {WORKFLOWS} preset workflows at nm={WORKFLOW_NM}; \
         {last_admission_secs:.3}s from the first join to the last admission"
    );

    // Phase 2: scheduling decisions. Advance the virtual clock in
    // steps; each step releases finished portions, rebalances the
    // plan and emits completion reports.
    let horizon = 16.0 * 3600.0 * submissions as f64 / presets.len() as f64;
    let mut decide = Vec::with_capacity(advance_steps + 1);
    let mut completed = 0u64;
    for step in 1..=advance_steps {
        let to = horizon * step as f64 / advance_steps as f64;
        let t = Instant::now();
        let responses = service.handle(Request::Advance { to });
        let secs = t.elapsed().as_secs_f64();
        decide.push(secs);
        service.observe_latency(keys::DECISION_LATENCY_SECS, secs);
        completed += responses
            .iter()
            .filter(|r| matches!(r, Response::Completed { .. }))
            .count() as u64;
    }
    let t = Instant::now();
    let responses = service.handle(Request::Drain {});
    let secs = t.elapsed().as_secs_f64();
    decide.push(secs);
    service.observe_latency(keys::DECISION_LATENCY_SECS, secs);
    completed += responses
        .iter()
        .filter(|r| matches!(r, Response::Completed { .. }))
        .count() as u64;
    assert_eq!(
        completed,
        admitted + u64::from(WORKFLOWS),
        "every admitted session completes"
    );
    println!(
        "  completed {completed} sessions over {} advances; \
         final virtual clock {:.0}h",
        decide.len(),
        service.now() / 3600.0
    );

    // The service's own histogram view of the same numbers (bucketed,
    // so coarser than the exact sample percentiles).
    let snapshot = service.metrics().snapshot();
    let hist_p99 = snapshot
        .histogram(keys::ADMIT_LATENCY_SECS)
        .and_then(|h| h.quantile(0.99))
        .unwrap_or(0.0);

    let record = Value::Object(vec![
        ("fast".into(), Value::Bool(fast)),
        ("nproc".into(), Value::U64(oa_par::available_jobs() as u64)),
        ("commit".into(), Value::Str(commit())),
        ("clusters".into(), Value::U64(presets.len() as u64)),
        ("capacity".into(), Value::U64(u64::from(capacity))),
        ("submissions".into(), Value::U64(submissions as u64)),
        ("join_secs".into(), Value::F64(join_secs)),
        (
            "last_admission_secs".into(),
            Value::F64(last_admission_secs),
        ),
        ("admitted".into(), Value::U64(admitted)),
        ("completed".into(), Value::U64(completed)),
        ("max_concurrent_sessions".into(), Value::U64(max_concurrent)),
        (
            "submissions_per_sec".into(),
            Value::F64(admitted as f64 / submit_wall),
        ),
        ("admit_latency_secs".into(), summary(&mut admit)),
        ("workflows".into(), Value::U64(u64::from(WORKFLOWS))),
        (
            "workflow_admit_latency_secs".into(),
            summary(&mut workflow_admit),
        ),
        ("decision_latency_secs".into(), summary(&mut decide)),
        ("admit_p99_histogram_secs".into(), Value::F64(hist_p99)),
        ("virtual_horizon_secs".into(), Value::F64(service.now())),
    ]);
    write_json("BENCH_service", &record);
    println!(
        "  admit p50 {:.0}us / p99 {:.0}us; workflow admit p50 {:.0}us / max {:.0}us; \
         decision p50 {:.0}us / p99 {:.0}us",
        quantile(&admit, 0.5) * 1e6,
        quantile(&admit, 0.99) * 1e6,
        quantile(&workflow_admit, 0.5) * 1e6,
        quantile(&workflow_admit, 1.0) * 1e6,
        quantile(&decide, 0.5) * 1e6,
        quantile(&decide, 0.99) * 1e6,
    );
}
