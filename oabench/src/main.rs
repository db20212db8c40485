//! `oabench`: the repository benchmark.
//!
//! ```text
//! oabench --workload W --seed S [--seconds N] [--trace 0|1]
//! oabench compare [--bench BENCHMARK.json] --base RUN... --new RUN...
//! ```
//!
//! One invocation runs one workload (`figures`, `mc_uniform`,
//! `mc_mixed`, `serve`) in one process on one thread. The seed only
//! generates inputs. Every metric is printed as `name value unit`; the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics;
//! `--trace 1` records a span around every call into a layer, writes
//! the spans as Chrome trace-event JSON and reports the per-layer
//! metrics. The exit code is 1 when a correctness gate fails.
//!
//! `compare` reads saved stdout of runs and judges each workload
//! against the bounds in `BENCHMARK.json`; see `compare.rs`.

mod calib;
mod compare;
mod figures;
mod mc;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use oa_platform::timing::TimingTable;
use oa_sched::grouping::Grouping;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};
use oa_sim::engine::{simulate_campaign_kernel, CampaignOutcome, KernelOpts};
use oa_trace::NullTracer;

use crate::calib::Calibration;
use crate::trace::{json_str, Clock, Tracer, Wall};

/// Fewest operations a time-boxed run completes, so throughput rests on
/// several operations even on a slow host.
pub const MIN_OPS: usize = 5;

/// Calibration samples on either side of the set-ups of `figures` and
/// `mc_*`: the two marks scale every set-up, so a single preempted
/// sample must not set them.
const SETUP_MARK_SAMPLES: usize = 9;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["figures", "mc_uniform", "mc_mixed", "serve"];

/// Run-wide state every workload threads through its layer calls.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window (the time box).
    pub seconds: f64,
    pub wall: Wall,
    pub tr: Tracer,
    /// Work counters read from layer results (kernel reports, batch and
    /// memo statistics, response tallies).
    pub counters: BTreeMap<&'static str, f64>,
    pub cal: Calibration,
}

impl Ctx {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counters.entry(key).or_default() += v;
    }

    /// A calibration mark from `n` samples (see [`calib::normalize`]),
    /// taken outside any timed interval and traced as harness work.
    pub fn calibrate(&mut self, n: usize) -> f64 {
        self.tr.begin("bench.calibrate");
        let mark = self.cal.mark(&self.wall, n);
        self.tr.end();
        mark
    }
}

/// Runs `reps` set-ups back to back and returns the last one's state,
/// every set-up's time in reference-host seconds, and the calibration
/// mark taken after them. A mark between set-ups would evict what the
/// next one reads, so one mark on either side scales them all.
pub fn timed_setups<T>(
    ctx: &mut Ctx,
    reps: usize,
    mut setup: impl FnMut(&mut Ctx) -> Result<T, String>,
) -> Result<(T, Vec<f64>, f64), String> {
    let before = ctx.calibrate(SETUP_MARK_SAMPLES);
    let mut raw = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        let t = ctx.wall.now();
        ctx.tr.begin("bench.setup");
        state = Some(setup(ctx)?);
        ctx.tr.end();
        raw.push(ctx.wall.now() - t);
    }
    let after = ctx.calibrate(SETUP_MARK_SAMPLES);
    let speed = calib::speed((before + after) / 2.0);
    let setup_s = raw.iter().map(|t| t * speed).collect();
    Ok((state.expect("reps > 0"), setup_s, after))
}

/// What a workload hands back for reporting. Times are in
/// reference-host seconds (see `calib`).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds per operation (`figures`, `mc_*`).
    pub op_s: Vec<f64>,
    pub throughput_per_s: f64,
    pub attempted: u64,
    /// Operations whose outcome was not the expected one.
    pub failed: u64,
    /// Every correctness gate passed.
    pub gate_ok: bool,
    /// Details for stderr.
    pub notes: Vec<String>,
}

/// A per-heuristic entry point of `oa_sched`.
#[derive(Debug, Clone, Copy)]
pub enum Stage {
    Grouping,
    Makespan,
    GridPerformance,
}

/// Span name `oa_sched.<stage>.<heuristic>` of a per-heuristic call.
pub fn span(stage: Stage, h: Heuristic) -> &'static str {
    const NAMES: [[&str; 6]; 3] = [
        [
            "oa_sched.grouping.basic",
            "oa_sched.grouping.redistribute",
            "oa_sched.grouping.nopost",
            "oa_sched.grouping.knapsack",
            "oa_sched.grouping.knapsack_greedy",
            "oa_sched.grouping.balanced",
        ],
        [
            "oa_sched.makespan.basic",
            "oa_sched.makespan.redistribute",
            "oa_sched.makespan.nopost",
            "oa_sched.makespan.knapsack",
            "oa_sched.makespan.knapsack_greedy",
            "oa_sched.makespan.balanced",
        ],
        [
            "oa_sched.hetero.grid_performance.basic",
            "oa_sched.hetero.grid_performance.redistribute",
            "oa_sched.hetero.grid_performance.nopost",
            "oa_sched.hetero.grid_performance.knapsack",
            "oa_sched.hetero.grid_performance.knapsack_greedy",
            "oa_sched.hetero.grid_performance.balanced",
        ],
    ];
    let column = match h {
        Heuristic::Basic => 0,
        Heuristic::RedistributeIdle => 1,
        Heuristic::NoPostReservation => 2,
        Heuristic::Knapsack => 3,
        Heuristic::KnapsackGreedy => 4,
        Heuristic::Balanced => 5,
    };
    NAMES[stage as usize][column]
}

/// One `simulate_campaign_kernel` call with default kernel options,
/// traced as `oa_sim.engine`, its `KernelReport` folded into the
/// counters.
pub fn run_engine(
    ctx: &mut Ctx,
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> CampaignOutcome {
    let (outcome, report) = ctx
        .tr
        .leaf("oa_sim.engine", || {
            simulate_campaign_kernel(
                inst,
                table,
                grouping,
                config,
                plan,
                KernelOpts::default(),
                &mut NullTracer,
            )
        })
        .expect("callers pass groupings the planner built for this instance");
    let skipped = report.main_cycles_skipped + report.post_cycles_skipped;
    ctx.add("oa_sim.engine.months", inst.nbtasks() as f64);
    ctx.add(
        "oa_sim.kernel.main_cycles_skipped",
        report.main_cycles_skipped as f64,
    );
    ctx.add(
        "oa_sim.kernel.post_cycles_skipped",
        report.post_cycles_skipped as f64,
    );
    ctx.add("oa_sim.kernel.runs", 1.0);
    ctx.add(
        "oa_sim.kernel.engaged_runs",
        f64::from(u8::from(skipped > 0)),
    );
    outcome
}

/// An end-to-end metric: name, unit, and its value from a run.
type EndToEnd = (&'static str, &'static str, fn(&Outcome) -> f64);

/// End-to-end metrics, reported by every workload with tracing off.
/// Request latency is not among them: on `serve` its spread between runs
/// on a shared 2-CPU host (15–30%) exceeds any usable bound, so it is
/// reported on stderr instead (see the README).
pub const END_TO_END: [EndToEnd; 3] = [
    ("setup_s", "s", |o| {
        stats::median(&o.setup_s).expect("set up at least once")
    }),
    ("throughput_per_s", "1/s", |o| o.throughput_per_s),
    ("peak_rss_mb", "MB", |_| peak_rss_mb()),
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Src {
    /// Spans named `prefix` or `prefix.*`: number of calls.
    Calls(&'static str),
    /// The same spans' busy time as a share of the traced wall time.
    Busy(&'static str),
    /// The same spans' busy time per call, reference-host microseconds.
    UsPerCall(&'static str),
    /// The same spans' busy time per unit of a counter, reference-host
    /// microseconds.
    UsPer(&'static str, &'static str),
    /// Self time of the root span (harness overhead) as a share.
    HarnessSelf,
    /// Traced wall time, reference-host seconds.
    Wall,
    /// Host speed relative to the reference host.
    HostSpeed,
    Counter(&'static str),
    /// `a / b` of two counters (0 when `b` is 0).
    Ratio(&'static str, &'static str),
    /// `hits / (hits + misses)` of the plan memo.
    MemoHitRatio,
}

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer a workload never calls reads 0 calls and 0%. Shares are of
/// the traced run's wall time, so they compare across hosts and run
/// lengths; the README maps each to the end-to-end metric it moves.
pub const PER_LAYER: [(&str, &str, &str, Src); 66] = [
    ("bench.traced_wall_s", "s", "lower", Src::Wall),
    ("bench.host_speed", "ratio", "higher", Src::HostSpeed),
    ("bench.self_pct", "%", "lower", Src::HarnessSelf),
    (
        "bench.calibrate_pct",
        "%",
        "lower",
        Src::Busy("bench.calibrate"),
    ),
    ("bench.setup_pct", "%", "lower", Src::Busy("bench.setup")),
    ("bench.gate_pct", "%", "lower", Src::Busy("bench.gate")),
    ("bench.wait_pct", "%", "lower", Src::Busy("bench.wait")),
    (
        "oa_sched.grouping.calls",
        "count",
        "higher",
        Src::Calls("oa_sched.grouping"),
    ),
    (
        "oa_sched.grouping.busy_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.grouping"),
    ),
    (
        "oa_sched.grouping.basic_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.grouping.basic"),
    ),
    (
        "oa_sched.grouping.redistribute_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.grouping.redistribute"),
    ),
    (
        "oa_sched.grouping.nopost_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.grouping.nopost"),
    ),
    (
        "oa_sched.grouping.knapsack_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.grouping.knapsack"),
    ),
    (
        "oa_sched.grouping.portion_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.grouping.portion"),
    ),
    (
        "oa_sched.makespan.calls",
        "count",
        "higher",
        Src::Calls("oa_sched.makespan"),
    ),
    (
        "oa_sched.makespan.busy_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.makespan"),
    ),
    (
        "oa_sched.hetero.calls",
        "count",
        "higher",
        Src::Calls("oa_sched.hetero"),
    ),
    (
        "oa_sched.hetero.grid_performance_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.hetero.grid_performance"),
    ),
    (
        "oa_sched.hetero.repartition_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.hetero.repartition"),
    ),
    (
        "oa_sched.memo.hits",
        "count",
        "higher",
        Src::Counter("oa_sched.memo.hits"),
    ),
    (
        "oa_sched.memo.misses",
        "count",
        "lower",
        Src::Counter("oa_sched.memo.misses"),
    ),
    (
        "oa_sched.memo.dp_builds",
        "count",
        "lower",
        Src::Counter("oa_sched.memo.dp_builds"),
    ),
    (
        "oa_sched.memo.hit_ratio",
        "ratio",
        "higher",
        Src::MemoHitRatio,
    ),
    (
        "oa_sched.memo.performance_vector_pct",
        "%",
        "lower",
        Src::Busy("oa_sched.memo.performance_vector"),
    ),
    (
        "oa_analyze.check_grouping.calls",
        "count",
        "higher",
        Src::Calls("oa_analyze.check_grouping"),
    ),
    (
        "oa_analyze.check_grouping_pct",
        "%",
        "lower",
        Src::Busy("oa_analyze.check_grouping"),
    ),
    (
        "oa_sim.engine.calls",
        "count",
        "higher",
        Src::Calls("oa_sim.engine"),
    ),
    (
        "oa_sim.engine.busy_pct",
        "%",
        "lower",
        Src::Busy("oa_sim.engine"),
    ),
    (
        "oa_sim.engine.months",
        "count",
        "higher",
        Src::Counter("oa_sim.engine.months"),
    ),
    (
        "oa_sim.kernel.main_cycles_skipped",
        "count",
        "higher",
        Src::Counter("oa_sim.kernel.main_cycles_skipped"),
    ),
    (
        "oa_sim.kernel.post_cycles_skipped",
        "count",
        "higher",
        Src::Counter("oa_sim.kernel.post_cycles_skipped"),
    ),
    (
        "oa_sim.kernel.engaged_ratio",
        "ratio",
        "higher",
        Src::Ratio("oa_sim.kernel.engaged_runs", "oa_sim.kernel.runs"),
    ),
    (
        "oa_sim.batch.calls",
        "count",
        "higher",
        Src::Calls("oa_sim.batch.run"),
    ),
    (
        "oa_sim.batch.run_pct",
        "%",
        "lower",
        Src::Busy("oa_sim.batch.run"),
    ),
    (
        "oa_sim.batch.expand_shapes_pct",
        "%",
        "lower",
        Src::Busy("oa_sim.batch.expand_shapes"),
    ),
    (
        "oa_sim.batch.variants",
        "count",
        "higher",
        Src::Counter("oa_sim.batch.variants"),
    ),
    (
        "oa_sim.batch.shapes",
        "count",
        "higher",
        Src::Counter("oa_sim.batch.shapes"),
    ),
    (
        "oa_sim.batch.heads",
        "count",
        "higher",
        Src::Counter("oa_sim.batch.heads"),
    ),
    (
        "oa_sim.batch.head_ratio",
        "ratio",
        "higher",
        Src::Ratio("oa_sim.batch.heads", "oa_sim.batch.shapes"),
    ),
    (
        "oa_sim.batch.sharing_gain",
        "ratio",
        "higher",
        Src::Counter("oa_sim.batch.sharing_gain"),
    ),
    (
        "oa_sim.batch.us_per_variant",
        "us",
        "lower",
        Src::UsPer("oa_sim.batch.run", "oa_sim.batch.variants"),
    ),
    (
        "oa_sim.engine.us_per_variant",
        "us",
        "lower",
        Src::UsPerCall("oa_sim.engine"),
    ),
    (
        "oa_sim.driver.new_pct",
        "%",
        "lower",
        Src::Busy("oa_sim.driver.new"),
    ),
    (
        "oa_service.cluster_join.calls",
        "count",
        "higher",
        Src::Calls("oa_service.cluster_join"),
    ),
    (
        "oa_service.cluster_join_pct",
        "%",
        "lower",
        Src::Busy("oa_service.cluster_join"),
    ),
    (
        "oa_service.wire.parse_pct",
        "%",
        "lower",
        Src::Busy("oa_service.wire.parse"),
    ),
    (
        "oa_service.wire.render_pct",
        "%",
        "lower",
        Src::Busy("oa_service.wire.render"),
    ),
    (
        "oa_service.wire.render_bytes",
        "B",
        "lower",
        Src::Counter("oa_service.wire.render_bytes"),
    ),
    (
        "oa_service.handle.submit_calls",
        "count",
        "higher",
        Src::Calls("oa_service.handle.submit"),
    ),
    (
        "oa_service.handle.submit_pct",
        "%",
        "lower",
        Src::Busy("oa_service.handle.submit"),
    ),
    (
        "oa_service.handle.submit_workflow_calls",
        "count",
        "higher",
        Src::Calls("oa_service.handle.submit_workflow"),
    ),
    (
        "oa_service.handle.submit_workflow_pct",
        "%",
        "lower",
        Src::Busy("oa_service.handle.submit_workflow"),
    ),
    (
        "oa_service.handle.status_calls",
        "count",
        "higher",
        Src::Calls("oa_service.handle.status"),
    ),
    (
        "oa_service.handle.status_pct",
        "%",
        "lower",
        Src::Busy("oa_service.handle.status"),
    ),
    (
        "oa_service.handle.advance_calls",
        "count",
        "higher",
        Src::Calls("oa_service.handle.advance"),
    ),
    (
        "oa_service.handle.advance_pct",
        "%",
        "lower",
        Src::Busy("oa_service.handle.advance"),
    ),
    (
        "oa_service.handle.metrics_calls",
        "count",
        "higher",
        Src::Calls("oa_service.handle.metrics"),
    ),
    (
        "oa_service.handle.metrics_pct",
        "%",
        "lower",
        Src::Busy("oa_service.handle.metrics"),
    ),
    (
        "oa_service.admission.parse_submission_pct",
        "%",
        "lower",
        Src::Busy("oa_service.admission.parse_submission"),
    ),
    (
        "oa_service.admission.admit_portion_pct",
        "%",
        "lower",
        Src::Busy("oa_service.admission.admit_portion"),
    ),
    (
        "oa_service.sessions.admitted",
        "count",
        "higher",
        Src::Counter("oa_service.sessions.admitted"),
    ),
    (
        "oa_service.sessions.rejected",
        "count",
        "lower",
        Src::Counter("oa_service.sessions.rejected"),
    ),
    (
        "oa_service.sessions.completed",
        "count",
        "higher",
        Src::Counter("oa_service.sessions.completed"),
    ),
    (
        serve::LATE_KEYS[0],
        "ms",
        "lower",
        Src::Counter(serve::LATE_KEYS[0]),
    ),
    (
        serve::LATE_KEYS[1],
        "ms",
        "lower",
        Src::Counter(serve::LATE_KEYS[1]),
    ),
    (
        "oa_workflow.ir.from_value_pct",
        "%",
        "lower",
        Src::Busy("oa_workflow.ir.from_value"),
    ),
];

fn per_layer_value(src: Src, ctx: &Ctx, layers: &BTreeMap<&'static str, trace::LayerStat>) -> f64 {
    let wall = ctx.tr.wall_secs();
    let sum = |prefix: &str, f: fn(&trace::LayerStat) -> f64| -> f64 {
        layers
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(prefix)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .fold(0.0, |acc, (_, s)| acc + f(s))
    };
    let counter = |k: &str| ctx.counters.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let us = |prefix: &str| sum(prefix, |s| s.busy) * ctx.cal.speed() * 1e6;
    match src {
        Src::Calls(p) => sum(p, |s| s.calls as f64),
        Src::Busy(p) => ratio(sum(p, |s| s.busy) * 100.0, wall),
        Src::UsPerCall(p) => ratio(us(p), sum(p, |s| s.calls as f64)),
        Src::UsPer(p, k) => ratio(us(p), counter(k)),
        Src::HarnessSelf => ratio(
            layers.get("bench.run").map_or(0.0, |s| s.self_time) * 100.0,
            wall,
        ),
        Src::Wall => wall * ctx.cal.speed(),
        Src::HostSpeed => ctx.cal.speed(),
        Src::Counter(k) => counter(k),
        Src::Ratio(a, b) => ratio(counter(a), counter(b)),
        Src::MemoHitRatio => {
            let hits = counter("oa_sched.memo.hits");
            ratio(hits, hits + counter("oa_sched.memo.misses"))
        }
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("Linux exposes /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn fmt_json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<bool, String> {
    let wall = Wall::start();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let commit = commit();
    println!(
        "# oabench workload={} seed={} seconds={} trace={} nproc={nproc} jobs=1 commit={commit}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        wall,
        tr: Tracer::new(args.trace, wall),
        counters: BTreeMap::new(),
        cal: Calibration::new(),
    };
    ctx.tr.begin("bench.run");
    let outcome = match args.workload.as_str() {
        "figures" => figures::run(&mut ctx),
        "mc_uniform" => mc::run(&mut ctx, mc::Mix::Uniform),
        "mc_mixed" => mc::run(&mut ctx, mc::Mix::Mixed),
        "serve" => serve::run(&mut ctx),
        _ => unreachable!("parse_args checked the workload"),
    }?;
    ctx.tr.end();
    for note in &outcome.notes {
        eprintln!("oabench: {note}");
    }
    println!(
        "# host speed {:.4} of the reference host over {} calibration samples; \
         times are reference-host times (wall time x speed)",
        ctx.cal.speed(),
        ctx.cal.count()
    );

    let e2e: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .map(|&(name, unit, f)| (name, f(&outcome), unit))
        .collect();
    if let Some(p50) = stats::median(&outcome.op_s) {
        println!(
            "# {} operations, median {:.4} ms; {} set-up repetitions",
            outcome.op_s.len(),
            p50 * 1e3,
            outcome.setup_s.len()
        );
    }
    let reported = if args.trace {
        let layers = ctx.tr.layers();
        for &(name, v, unit) in &e2e {
            println!("traced.{name} {v} {unit}");
        }
        let path = trace_path(&args.workload, args.seed);
        let meta = [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("nproc", nproc.to_string()),
            ("jobs", "1".to_string()),
            ("commit", commit),
        ];
        write_trace(&path, &ctx.tr.chrome_json(&meta))?;
        eprintln!("oabench: wrote spans to {path}");
        PER_LAYER
            .iter()
            .map(|&(name, unit, _, src)| (name, per_layer_value(src, &ctx, &layers), unit))
            .collect()
    } else {
        e2e
    };
    for &(name, v, unit) in &reported {
        assert!(v.is_finite(), "metric {name} is {v}");
        println!("{name} {v} {unit}");
    }
    let correct = outcome.gate_ok && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        fmt_json_metrics(&reported)
    );
    Ok(correct)
}

/// Spans go under the build directory the benchmark already writes to.
fn trace_path(workload: &str, seed: u64) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    format!("{dir}/oabench/trace-{workload}-{seed}.json")
}

fn write_trace(path: &str, json: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("oabench: {e}");
            ExitCode::from(2)
        }
    }
}
