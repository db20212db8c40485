//! Kernel speedup matrix: wall-clock of the campaign engine with the
//! simulation kernel (the steady-state fast-forward, gated on integer
//! time) on versus plain event-by-event execution, at fused and
//! unfused granularity over growing campaign lengths. The outputs
//! of the two modes are bitwise identical (pinned by
//! `tests/kernel_equivalence.rs`); this binary records what the
//! identity costs — or rather, what it saves.
//!
//! Results merge by configuration key into `results/BENCH_engine.json`
//! (wall-clock history, like `BENCH_sweeps.json`: re-running a
//! configuration replaces its entry and leaves the others). Every
//! entry carries `nproc`, the recording host's available parallelism.
//! The deterministic fields — `integer_time`, the skipped-cycle
//! counts, `drain_closed_form`, `posts_closed_form`, batch `heads` and
//! `checksum`, and the IR's `nodes` — are a regression signal of their
//! own: CI re-runs this binary without `--big` and diffs them against
//! the committed file. Besides the recorded kernel rows, four rows run
//! unobserved (killed runs), so the drain regimes that only such runs
//! reach, and the main-phase replay between faults, show up as counts
//! too.
//!
//! Run: `cargo run --release -p oa-bench --bin engine_kernel [--smoke]`
//!
//! `--smoke` is the CI gate: the NM = 18000 fused point only, asserting
//! that the fast-forward actually engaged and skipped cycles within a
//! generous wall-clock budget.
//!
//! `--batch-smoke` gates the mass-batch engine: a 2000-variant Monte
//! Carlo sweep must agree with the naive per-variant loop bitwise
//! (checksums) and beat it by a comfortable margin even on a loaded
//! runner.
//!
//! The full run also records the batch engine's campaigns/sec against
//! the naive loop at 10³ and 10⁴ variants (single-fault Monte Carlo at
//! the reference shape, one core); pass `--big` to add the 10⁵ point
//! (the naive baseline alone takes ~90 s there).

use std::time::Instant;

use oa_bench::write_json;
use oa_platform::presets::reference_cluster;
use oa_sched::grouping::Grouping;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sched::policy::Granularity::{self, Fused, Unfused};
use oa_sched::policy::{CampaignConfig, FaultPlan, Recovery, ScenarioPolicy};
use oa_sim::batch::{run_batch, run_naive, BatchSpec};
use oa_sim::engine::{simulate_campaign_kernel, KernelOpts, KernelReport};
use oa_trace::NullTracer;
use serde::Value;

const NS: u32 = 10;
const R: u32 = 53;
const NMS: [u32; 3] = [120, 1800, 18000];

/// An unobserved row: `(name, R, granularity, group sizes, post
/// processors, kills)`.
type Unobserved = (
    &'static str,
    u32,
    Granularity,
    &'static [u32],
    u32,
    &'static [(usize, f64)],
);

/// Runs that nothing observes, where the drain's unobserved regimes
/// engage: a kill keeps each run from recording a schedule (reference
/// table, `NS = 10`, `NM = 1800`). The fused `7×7 | post:4`
/// replays its drain by availability and counts its last posts off the
/// pool, the fused knapsack `4×8 + 3×7 | post:0` counts nearly all of
/// its posts off the pool, and the unfused `7×7 | post:7` keeps pace, so
/// it takes the closed form. Each replays main-phase cycles before and
/// after its kill; the second `7×7 | post:4` row, killed twice, also
/// between its kills.
const UNOBSERVED: [Unobserved; 4] = [
    ("7x7_post4", 53, Fused, &[7; 7], 4, ONE_KILL),
    (
        "knapsack_post0",
        53,
        Fused,
        &[8, 8, 8, 8, 7, 7, 7],
        0,
        ONE_KILL,
    ),
    ("7x7_post7", 56, Unfused, &[7; 7], 7, ONE_KILL),
    (
        "7x7_post4_two_kills",
        53,
        Fused,
        &[7; 7],
        4,
        &[(2, 1_000_000.0), (5, 3_000_000.0)],
    ),
];

/// The unobserved rows' one kill: group 2 at 3,000,000 s.
const ONE_KILL: &[(usize, f64)] = &[(2, 3_000_000.0)];

/// The kernel report's counters as ledger fields.
fn counter_fields(rep: &KernelReport) -> Vec<(String, Value)> {
    [
        ("integer_time", Value::Bool(rep.integer_time)),
        ("main_cycles_skipped", Value::U64(rep.main_cycles_skipped)),
        ("post_cycles_skipped", Value::U64(rep.post_cycles_skipped)),
        ("drain_closed_form", Value::Bool(rep.drain_closed_form)),
        ("posts_closed_form", Value::U64(rep.posts_closed_form)),
    ]
    .into_iter()
    .map(|(key, value)| (key.into(), value))
    .collect()
}

/// Best-of-N wall-clock of one configuration, with the report of the
/// last run (the report is identical across repetitions).
fn time_config(
    inst: Instance,
    table: &oa_platform::timing::TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
    opts: KernelOpts,
    reps: usize,
) -> (f64, KernelReport) {
    let mut best = f64::INFINITY;
    let mut report = KernelReport::default();
    for _ in 0..reps {
        let t = Instant::now();
        let (out, rep) =
            simulate_campaign_kernel(inst, table, grouping, config, plan, opts, &mut NullTracer)
                .expect("valid grouping");
        let secs = t.elapsed().as_secs_f64();
        assert!(out.completed().is_some(), "the ledger's runs complete");
        std::hint::black_box(&out);
        best = best.min(secs);
        report = rep;
    }
    (best, report)
}

/// Best-of-N wall-clock of one sweep; the returned report is the last
/// run's (identical across repetitions — the sweep is deterministic).
fn time_sweep(
    spec: &BatchSpec,
    pool: &oa_par::Pool,
    share: bool,
    reps: usize,
) -> (f64, oa_sim::batch::BatchReport) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps {
        let t = Instant::now();
        let rep = if share {
            run_batch(spec, pool)
        } else {
            run_naive(spec, pool)
        }
        .expect("reference sweeps are valid");
        best = best.min(t.elapsed().as_secs_f64());
        report = Some(rep);
    }
    (best, report.expect("reps >= 1"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let batch_smoke = std::env::args().any(|a| a == "--batch-smoke");
    let big = std::env::args().any(|a| a == "--big");
    let table = reference_cluster(R).timing;

    if batch_smoke {
        // CI gate: the mass-batch engine must agree with the naive
        // loop bitwise and beat it clearly, even on a loaded runner.
        let spec = BatchSpec::reference_mc(2_000, 42);
        let pool = oa_par::Pool::serial();
        let (batch_secs, batch) = time_sweep(&spec, &pool, true, 1);
        let (naive_secs, naive) = time_sweep(&spec, &pool, false, 1);
        let (bs, ns) = (batch.summary(), naive.summary());
        assert_eq!(bs.checksum, ns.checksum, "batch/naive outcomes diverge");
        assert_eq!(batch.heads, 1, "the reference shape must share a head");
        let speedup = naive_secs / batch_secs;
        assert!(
            speedup > 3.0,
            "batch engine only {speedup:.1}x over naive (expected >3x even loaded)"
        );
        println!(
            "batch smoke ok: 2000 variants, batch {batch_secs:.3}s vs naive {naive_secs:.3}s \
             ({speedup:.1}x), checksum {}",
            bs.checksum
        );
        return;
    }

    if smoke {
        // CI gate: the big fused point must fast-forward and finish
        // comfortably inside the budget even on a loaded runner.
        let inst = Instance::new(NS, 18000, R);
        let grouping = Heuristic::Basic.grouping(inst, &table).expect("feasible");
        let config = CampaignConfig::default();
        let t = Instant::now();
        let (secs, report) = time_config(
            inst,
            &table,
            &grouping,
            &config,
            &FaultPlan::none(),
            KernelOpts::default(),
            3,
        );
        assert!(
            report.integer_time,
            "reference cluster must take the integer-time path"
        );
        assert!(
            report.main_cycles_skipped > 0,
            "fast-forward did not engage on the steady-state campaign"
        );
        assert!(
            t.elapsed().as_secs_f64() < 60.0,
            "kernel smoke exceeded its wall-clock budget"
        );
        println!(
            "smoke ok: NM=18000 fused kernel run {secs:.4}s, {} main + {} post cycles skipped",
            report.main_cycles_skipped, report.post_cycles_skipped
        );
        return;
    }

    println!("== Engine kernel speedup: fast-forward vs event-by-event ==");
    println!(
        "instance: NS = {NS}, R = {R} (reference cluster, integral seconds); basic 7×7 grouping\n"
    );
    println!(
        "{:>8} {:>9} {:>14} {:>12} {:>9} {:>13} {:>13}",
        "gran", "NM", "event-by-event", "kernel", "speedup", "main-skipped", "post-skipped"
    );

    let mut entries: Vec<(String, Value)> = Vec::new();
    for granularity in [Fused, Unfused] {
        for nm in NMS {
            let inst = Instance::new(NS, nm, R);
            let grouping = Heuristic::Basic.grouping(inst, &table).expect("feasible");
            let config = CampaignConfig {
                policy: ScenarioPolicy::LeastAdvanced,
                granularity,
                recovery: Recovery::MonthlyCheckpoint,
            };
            let reps = if nm >= 18000 { 3 } else { 7 };
            let plan = FaultPlan::none();
            let (base, base_rep) = time_config(
                inst,
                &table,
                &grouping,
                &config,
                &plan,
                KernelOpts::event_by_event(),
                reps,
            );
            assert_eq!(
                base_rep,
                KernelReport::default(),
                "baseline must not kernel"
            );
            let (fast, rep) = time_config(
                inst,
                &table,
                &grouping,
                &config,
                &plan,
                KernelOpts::default(),
                reps,
            );
            let speedup = base / fast;
            // Unfused, the post counters read zero: the drain's replays
            // and its saturated count need a one-step chain (see
            // DESIGN.md, "Unfused post phase").
            println!(
                "{:>8} {:>9} {:>13.5}s {:>11.5}s {:>8.2}x {:>13} {:>13}",
                granularity.label(),
                nm,
                base,
                fast,
                speedup,
                rep.main_cycles_skipped,
                rep.post_cycles_skipped,
            );
            let mut fields = vec![
                ("granularity".into(), Value::Str(granularity.label().into())),
                ("nm".into(), Value::U64(u64::from(nm))),
                ("event_by_event_secs".into(), Value::F64(base)),
                ("kernel_secs".into(), Value::F64(fast)),
                ("speedup".into(), Value::F64(speedup)),
            ];
            fields.extend(counter_fields(&rep));
            entries.push((
                format!("{}_nm{}", granularity.label(), nm),
                Value::Object(fields),
            ));
        }
    }

    // The unobserved rows: the counters the recorded rows above never
    // reach, each run's best of 7 wall-clock alongside.
    println!("\n== Unobserved runs, killed: NS = {NS}, NM = 1800 ==");
    println!(
        "{:>46} {:>9} {:>13} {:>13} {:>6} {:>8}",
        "run", "kernel", "main-skipped", "post-skipped", "closed", "counted"
    );
    for (name, r, granularity, groups, post, kills) in UNOBSERVED {
        let table = reference_cluster(r).timing;
        let inst = Instance::new(NS, 1800, r);
        let grouping = Grouping::new(groups.to_vec(), post);
        let config = CampaignConfig {
            granularity,
            ..CampaignConfig::default()
        };
        let plan = FaultPlan {
            failures: kills.to_vec(),
        };
        let (secs, rep) = time_config(
            inst,
            &table,
            &grouping,
            &config,
            &plan,
            KernelOpts::default(),
            7,
        );
        println!(
            "{:>46} {:>8.5}s {:>13} {:>13} {:>6} {:>8}",
            format!(
                "{} {grouping}, R = {r}, {} kill(s)",
                granularity.label(),
                kills.len()
            ),
            secs,
            rep.main_cycles_skipped,
            rep.post_cycles_skipped,
            rep.drain_closed_form,
            rep.posts_closed_form
        );
        let mut fields = vec![
            ("granularity".into(), Value::Str(granularity.label().into())),
            ("grouping".into(), Value::Str(grouping.to_string())),
            ("r".into(), Value::U64(u64::from(r))),
            ("nm".into(), Value::U64(1800)),
            ("kernel_secs".into(), Value::F64(secs)),
        ];
        fields.extend(counter_fields(&rep));
        let key = format!("unobserved_{}_{name}", granularity.label());
        entries.push((key, Value::Object(fields)));
    }

    // The workflow-IR front-end at full campaign scale: lowering the
    // canonical 10 × 18,000 preset, topologically sorting it, and
    // computing its critical path. All three are linear passes over
    // the 360,000-node fused mesh; recording them next to the engine
    // numbers keeps the "IR layer is free" claim honest.
    {
        use oa_workflow::chain::ExperimentShape;
        use oa_workflow::ir::{lower_fused, ReferenceDurations};
        let shape = ExperimentShape::new(NS, 18000);
        let best_of = |f: &mut dyn FnMut()| {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                f();
                best = best.min(t.elapsed().as_secs_f64());
            }
            best
        };
        let lower = best_of(&mut || {
            std::hint::black_box(lower_fused(shape));
        });
        let ir = lower_fused(shape);
        let topo = best_of(&mut || {
            std::hint::black_box(ir.dag.topo_sort().expect("acyclic"));
        });
        let cp = best_of(&mut || {
            std::hint::black_box(ir.critical_path(&ReferenceDurations).expect("acyclic"));
        });
        println!(
            "\nIR front-end at NM = 18000 ({} nodes): lower {:.5}s, topo-sort {:.5}s, critical path {:.5}s",
            ir.node_count(),
            lower,
            topo,
            cp
        );
        entries.push((
            "ir_front_end_nm18000".into(),
            Value::Object(vec![
                ("nm".into(), Value::U64(18000)),
                ("nodes".into(), Value::U64(ir.node_count() as u64)),
                ("lower_secs".into(), Value::F64(lower)),
                ("topo_sort_secs".into(), Value::F64(topo)),
                ("critical_path_secs".into(), Value::F64(cp)),
            ]),
        ));
    }

    // The mass-batch variant engine against the naive per-variant
    // loop: single-fault Monte Carlo sweeps at the reference shape
    // (NS = 10, NM = 1800, R = 53, basic 7×7 grouping), one core —
    // the acceptance configuration of the batch engine.
    {
        println!("\n== Mass-batch variant engine: campaigns/sec vs the naive loop (one core) ==");
        println!(
            "{:>9} {:>11} {:>11} {:>13} {:>13} {:>9} {:>18}",
            "variants", "naive", "batch", "naive c/s", "batch c/s", "speedup", "checksum"
        );
        let pool = oa_par::Pool::serial();
        let mut counts = vec![1_000u64, 10_000];
        if big {
            counts.push(100_000);
        }
        for n in counts {
            let spec = BatchSpec::reference_mc(n, 42);
            let reps = if n >= 10_000 { 1 } else { 3 };
            let (batch_secs, batch) = time_sweep(&spec, &pool, true, reps);
            let (naive_secs, naive) = time_sweep(&spec, &pool, false, reps);
            let (bs, ns) = (batch.summary(), naive.summary());
            assert_eq!(bs.checksum, ns.checksum, "batch/naive outcomes diverge");
            let speedup = naive_secs / batch_secs;
            let (ncs, bcs) = (n as f64 / naive_secs, n as f64 / batch_secs);
            println!(
                "{n:>9} {naive_secs:>10.3}s {batch_secs:>10.3}s {ncs:>13.0} {bcs:>13.0} \
                 {speedup:>8.1}x {:>18}",
                bs.checksum
            );
            entries.push((
                format!("batch_mc{n}"),
                Value::Object(vec![
                    ("variants".into(), Value::U64(n)),
                    ("max_faults".into(), Value::U64(1)),
                    ("nm".into(), Value::U64(1800)),
                    ("naive_secs".into(), Value::F64(naive_secs)),
                    ("batch_secs".into(), Value::F64(batch_secs)),
                    ("naive_campaigns_per_sec".into(), Value::F64(ncs)),
                    ("batch_campaigns_per_sec".into(), Value::F64(bcs)),
                    ("speedup".into(), Value::F64(speedup)),
                    ("heads".into(), Value::U64(batch.heads as u64)),
                    ("checksum".into(), Value::Str(bs.checksum)),
                ]),
            ));
        }
    }

    // Merge by key into the wall-clock history.
    let path = std::path::Path::new("results").join("BENCH_engine.json");
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
        .filter(|v| matches!(v, Value::Object(_)))
        .unwrap_or(Value::Object(Vec::new()));
    let nproc = Value::U64(oa_par::available_jobs() as u64);
    if let Value::Object(fields) = &mut root {
        for (key, mut entry) in entries {
            if let Value::Object(entry_fields) = &mut entry {
                entry_fields.push(("nproc".into(), nproc.clone()));
            }
            match fields.iter_mut().find(|(k, _)| *k == key) {
                Some((_, slot)) => *slot = entry,
                None => fields.push((key, entry)),
            }
        }
    }
    write_json("BENCH_engine", &root);
}
