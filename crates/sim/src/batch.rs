//! Mass-batch variant execution: 10⁵–10⁶ campaign variants per run.
//!
//! A *batch* is a parameter grid (`R` × `NS` × `NM` × policy ×
//! granularity) crossed with Monte Carlo fault plans, all priced and
//! executed with cross-variant sharing:
//!
//! * **planning memo** — groupings come from
//!   [`oa_sched::memo::PlanMemo`], so knapsack DP tables and makespan
//!   scans are solved once per `(timing, R)` rectangle and replayed
//!   bitwise for every shape that shares them;
//! * **kernel head sharing** — for each fused shape one fault-free
//!   *head* run ([`crate::engine`] in capture mode) records the
//!   campaign's canonical state at every `NS`-completion boundary;
//!   every fault variant then resumes from the last checkpoint before
//!   its first fault instead of re-simulating the fault-free prefix;
//! * **SoA streaming** — variant results land in [`BatchSoA`]
//!   (structure-of-arrays columns), and workers reuse thread-local
//!   fault buffers plus the engine's thread-local scratch, so the
//!   steady state allocates nothing per variant.
//!
//! The hard invariant, pinned by `tests/batch_equivalence.rs`: every
//! variant's outcome is **bitwise identical** to running that variant
//! individually through [`crate::engine::simulate_campaign_kernel`],
//! at any worker count. [`run_naive`] executes the same enumeration
//! without sharing and is the baseline `oa-bench` measures against.

use std::cell::RefCell;
use std::fmt;

use serde::Serialize;
use serde_json::Value;

use oa_par::Pool;
use oa_platform::speedup::PcrModel;
use oa_platform::timing::TimingTable;
use oa_sched::estimate::estimate;
use oa_sched::grouping::Grouping;
use oa_sched::heuristics::Heuristic;
use oa_sched::memo::{MemoStats, PlanMemo};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity, Recovery, ScenarioPolicy};
use oa_sched::read::{self, ReadError};
use oa_trace::NullTracer;

use crate::engine::{
    run_batch_head, run_batch_variant, simulate_campaign_kernel, CampaignOutcome, KernelOpts,
};

/// Specification of one batch sweep, parsed from the JSON the CLI and
/// the service both accept. Axes hold at least one entry each; the
/// variant count is `r × ns × nm × policies × granularities ×
/// variants_per_shape`.
#[derive(Debug, Clone, Serialize)]
pub struct BatchSpec {
    /// Timing table shared by every variant.
    pub table: TimingTable,
    /// Grouping heuristic (one per batch — groupings are shape state,
    /// not variant state).
    pub heuristic: Heuristic,
    /// Recovery model applied to every variant.
    pub recovery: Recovery,
    /// Cluster-size axis.
    pub rs: Vec<u32>,
    /// Scenario-count axis.
    pub nss: Vec<u32>,
    /// Month-count axis.
    pub nms: Vec<u32>,
    /// Scenario-policy axis.
    pub policies: Vec<ScenarioPolicy>,
    /// Granularity axis.
    pub granularities: Vec<Granularity>,
    /// Monte Carlo fault variants per shape.
    pub variants_per_shape: u64,
    /// Faults per variant are uniform in `1..=max_faults`.
    pub max_faults: u32,
    /// Base seed of the deterministic splitmix64 stream.
    pub seed: u64,
    /// Fault-time granularity in seconds. `1.0` keeps times integral
    /// (resumed variants stay in integer time and may fast-forward);
    /// finer values produce fractional times and run event by event.
    pub fault_resolution: f64,
}

/// Why a [`BatchSpec`] could not be parsed or expanded.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// Malformed or out-of-range JSON, or a field `oa_sched::read`
    /// refuses below a cap (a zero shape, an unknown label, an `r`
    /// entry under 4).
    Parse(String),
    /// The spec enumerates more than [`MAX_BATCH_VARIANTS`] variants,
    /// or `oa_sched::read` refuses one of its shapes or `r` entries
    /// over a cap.
    OverSizeCap(String),
    /// A grid shape cannot be planned at all.
    InfeasibleShape {
        /// Processors of the failing shape.
        r: u32,
        /// Scenarios of the failing shape.
        ns: u32,
        /// Why planning failed.
        why: String,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Parse(why) => write!(f, "bad batch spec: {why}"),
            BatchError::OverSizeCap(why) => write!(f, "batch spec over a size cap: {why}"),
            BatchError::InfeasibleShape { r, ns, why } => {
                write!(f, "infeasible shape (r={r}, ns={ns}): {why}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

impl From<ReadError> for BatchError {
    /// A field the reader refuses: over a cap is
    /// [`BatchError::OverSizeCap`], anything else malformed.
    fn from(e: ReadError) -> Self {
        if e.code == read::OVER_SIZE_CAP {
            BatchError::OverSizeCap(e.message)
        } else {
            BatchError::Parse(e.message)
        }
    }
}

/// The most variants one spec may enumerate: 2^20 result rows, about
/// 47 MB of [`BatchSoA`] columns.
pub const MAX_BATCH_VARIANTS: u64 = 1 << 20;

const HEURISTICS: [Heuristic; 6] = [
    Heuristic::Basic,
    Heuristic::RedistributeIdle,
    Heuristic::NoPostReservation,
    Heuristic::Knapsack,
    Heuristic::KnapsackGreedy,
    Heuristic::Balanced,
];

fn parse_err(why: impl Into<String>) -> BatchError {
    BatchError::Parse(why.into())
}

// The vendored `serde::Value` exposes only variant matching; these
// mirror real serde_json's `as_*` accessors for the shapes the spec
// uses.
fn val_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::U64(n) => Some(n),
        Value::I64(n) => u64::try_from(n).ok(),
        _ => None,
    }
}

fn val_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

fn val_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn u32_axis(v: &Value, key: &str, default: u32) -> Result<Vec<u32>, BatchError> {
    let Some(field) = v.get(key) else {
        return Ok(vec![default]);
    };
    let one = |x: &Value| {
        val_u64(x)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| parse_err(format!("{key} entries must be u32")))
    };
    let axis = match field {
        Value::Array(items) => items.iter().map(one).collect::<Result<Vec<_>, _>>()?,
        other => vec![one(other)?],
    };
    if axis.is_empty() {
        return Err(parse_err(format!("{key} axis is empty")));
    }
    Ok(axis)
}

fn str_axis<T: Copy>(
    v: &Value,
    key: &str,
    default: T,
    read: fn(&str) -> Result<T, ReadError>,
) -> Result<Vec<T>, BatchError> {
    let Some(field) = v.get(key) else {
        return Ok(vec![default]);
    };
    let one = |x: &Value| match val_str(x) {
        Some(name) => Ok(read(name)?),
        None => Err(parse_err(format!("{key} entries must be strings"))),
    };
    let axis = match field {
        Value::Array(items) => items.iter().map(one).collect::<Result<Vec<_>, _>>()?,
        other => vec![one(other)?],
    };
    if axis.is_empty() {
        return Err(parse_err(format!("{key} axis is empty")));
    }
    Ok(axis)
}

impl BatchSpec {
    /// The headline benchmark spec: a Monte Carlo single-fault sweep
    /// over the paper's reference shape (`NS=10`, `NM=1800`, `R=53`)
    /// under the basic `7×7 | post:4` grouping — the same reference
    /// configuration `oa-bench` times.
    ///
    /// The basic grouping is deliberate: its uniform month duration
    /// lets the steady-state detector lock, so resumed variants skip
    /// the main cycles between and after their faults and the periodic
    /// drain region.
    /// Mixed-size knapsack groupings (e.g. `4×8 + 3×7` here) produce
    /// an aperiodic busy pattern the detector cannot fold, capping
    /// sharing at checkpoint-resume alone; select them via the spec's
    /// `heuristic` field when throughput matters less than makespan.
    pub fn reference_mc(variants: u64, seed: u64) -> Self {
        Self {
            table: PcrModel::reference()
                .table(1.0)
                .expect("reference model is valid"),
            heuristic: Heuristic::Basic,
            recovery: Recovery::MonthlyCheckpoint,
            rs: vec![53],
            nss: vec![10],
            nms: vec![1800],
            policies: vec![ScenarioPolicy::LeastAdvanced],
            granularities: vec![Granularity::Fused],
            variants_per_shape: variants,
            max_faults: 1,
            seed,
            fault_resolution: 1.0,
        }
    }

    /// Parses the JSON form. Every field is optional; the defaults are
    /// [`BatchSpec::reference_mc`] with 10⁴ variants and seed 42. Labels,
    /// shapes and `r` entries go through `oa_sched::read`. A spec over
    /// [`MAX_BATCH_VARIANTS`] variants, with a shape over
    /// `MAX_CAMPAIGN_MONTHS` months or with an `r` entry over
    /// `MAX_CLUSTER_PROCS` is [`BatchError::OverSizeCap`], refused
    /// before anything is planned or allocated for it.
    pub fn from_json(v: &Value) -> Result<Self, BatchError> {
        if !matches!(v, Value::Object(_)) {
            return Err(parse_err("spec must be a JSON object"));
        }
        let mut spec = Self::reference_mc(10_000, 42);
        if let Some(t) = v.get("table") {
            let Some(Value::Array(mains)) = t.get("main") else {
                return Err(parse_err("table.main must be an array of 8 seconds"));
            };
            if mains.len() != 8 {
                return Err(parse_err("table.main must hold exactly 8 entries"));
            }
            let mut main = [0.0f64; 8];
            for (slot, m) in main.iter_mut().zip(mains) {
                *slot =
                    val_f64(m).ok_or_else(|| parse_err("table.main entries must be numbers"))?;
            }
            let post = t
                .get("post")
                .and_then(val_f64)
                .ok_or_else(|| parse_err("table.post must be a number"))?;
            spec.table = TimingTable::new(main, post)
                .map_err(|e| parse_err(format!("bad timing table: {e}")))?;
        }
        spec.rs = u32_axis(v, "r", 53)?;
        spec.nss = u32_axis(v, "ns", 10)?;
        spec.nms = u32_axis(v, "nm", 1800)?;
        spec.policies = str_axis(v, "policies", ScenarioPolicy::LeastAdvanced, read::policy)?;
        spec.granularities = str_axis(v, "granularities", Granularity::Fused, read::granularity)?;
        if let Some(h) = v.get("heuristic") {
            let name = val_str(h).ok_or_else(|| parse_err("heuristic must be a string"))?;
            // The `Submit` names first, then the canonical labels, so
            // specs read like wire requests and like `Heuristic` docs
            // alike.
            let label = HEURISTICS.into_iter().find(|c| c.label() == name);
            spec.heuristic = read::heuristic(name).or_else(|e| label.ok_or(e))?;
        }
        if let Some(r) = v.get("recovery") {
            let name = val_str(r).ok_or_else(|| parse_err("recovery must be a string"))?;
            spec.recovery = read::recovery(name)?;
        }
        if let Some(n) = v.get("variants") {
            spec.variants_per_shape = val_u64(n)
                .filter(|&n| n > 0)
                .ok_or_else(|| parse_err("variants must be a positive integer"))?;
        }
        if let Some(n) = v.get("max_faults") {
            spec.max_faults = val_u64(n)
                .and_then(|n| u32::try_from(n).ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| parse_err("max_faults must be a positive u32"))?;
        }
        if let Some(n) = v.get("seed") {
            spec.seed = val_u64(n).ok_or_else(|| parse_err("seed must be a u64"))?;
        }
        if let Some(n) = v.get("fault_resolution") {
            spec.fault_resolution = val_f64(n)
                .filter(|&x| x > 0.0 && x.is_finite())
                .ok_or_else(|| parse_err("fault_resolution must be a positive number"))?;
        }
        if spec.variant_count() > MAX_BATCH_VARIANTS {
            return Err(BatchError::OverSizeCap(format!(
                "more than {MAX_BATCH_VARIANTS} variants"
            )));
        }
        // The axes are a full cross product, so their extreme entries
        // are shapes of the sweep: the smallest catch a zero, the
        // largest the month cap.
        let lo = |axis: &[u32]| axis.iter().copied().min().unwrap_or(0);
        let hi = |axis: &[u32]| axis.iter().copied().max().unwrap_or(0);
        read::shape(lo(&spec.nss), lo(&spec.nms))?;
        read::shape(hi(&spec.nss), hi(&spec.nms))?;
        for &r in &spec.rs {
            read::procs(r)?;
        }
        Ok(spec)
    }

    /// Total variants the spec enumerates, saturating at `u64::MAX`.
    #[must_use]
    pub fn variant_count(&self) -> u64 {
        [
            self.rs.len(),
            self.nss.len(),
            self.nms.len(),
            self.policies.len(),
            self.granularities.len(),
        ]
        .into_iter()
        .fold(self.variants_per_shape, |acc, n| {
            acc.saturating_mul(n as u64)
        })
    }

    /// Grid shapes the spec enumerates.
    #[must_use]
    pub fn shape_count(&self) -> usize {
        self.rs.len()
            * self.nss.len()
            * self.nms.len()
            * self.policies.len()
            * self.granularities.len()
    }
}

/// One expanded grid shape: the per-shape state every variant of that
/// shape shares.
#[derive(Debug, Clone)]
pub struct ShapePlan {
    /// Position in the spec's enumeration order (seeds fault streams).
    pub shape_idx: usize,
    /// Instance of the shape.
    pub inst: Instance,
    /// Campaign configuration of the shape.
    pub config: CampaignConfig,
    /// Grouping chosen by the spec's heuristic.
    pub grouping: Grouping,
    /// Fault-time window: fault-free makespan, rounded up to seconds.
    pub horizon_ticks: u64,
}

/// Expands the spec's grid into per-shape plans, pricing groupings
/// through `memo` (knapsack tables shared across the `R` axis).
pub fn expand_shapes(spec: &BatchSpec, memo: &mut PlanMemo) -> Result<Vec<ShapePlan>, BatchError> {
    let mut shapes = Vec::with_capacity(spec.shape_count());
    let mut shape_idx = 0usize;
    for &r in &spec.rs {
        for &ns in &spec.nss {
            for &nm in &spec.nms {
                for &policy in &spec.policies {
                    for &granularity in &spec.granularities {
                        let inst = Instance::new(ns, nm, r);
                        let grouping =
                            memo.grouping(spec.heuristic, inst, &spec.table)
                                .map_err(|e| BatchError::InfeasibleShape {
                                    r,
                                    ns,
                                    why: e.to_string(),
                                })?;
                        let makespan = estimate(inst, &spec.table, &grouping)
                            .map_err(|e| BatchError::InfeasibleShape {
                                r,
                                ns,
                                why: e.to_string(),
                            })?
                            .makespan;
                        shapes.push(ShapePlan {
                            shape_idx,
                            inst,
                            config: CampaignConfig {
                                policy,
                                granularity,
                                recovery: spec.recovery,
                            },
                            grouping,
                            horizon_ticks: (makespan.ceil() as u64).max(1),
                        });
                        shape_idx += 1;
                    }
                }
            }
        }
    }
    Ok(shapes)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes variant `v`'s fault plan for `shape` into `out`, sorted by
/// time (ties keep draw order — the exact comparator the engine
/// applies to a [`FaultPlan`]). Deterministic and order-free: the plan
/// depends only on `(spec.seed, shape.shape_idx, v)`, never on which
/// worker generates it.
pub fn faults_for(spec: &BatchSpec, shape: &ShapePlan, v: u64, out: &mut Vec<(usize, f64)>) {
    out.clear();
    let mut state = spec
        .seed
        .wrapping_add((shape.shape_idx as u64).wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(v.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    let k = 1 + splitmix64(&mut state) % u64::from(spec.max_faults);
    let groups = shape.grouping.group_count() as u64;
    let per_sec = (1.0 / spec.fault_resolution).round().max(1.0) as u64;
    let span = shape.horizon_ticks.saturating_mul(per_sec).max(1);
    for _ in 0..k {
        let g = (splitmix64(&mut state) % groups) as usize;
        let t = (splitmix64(&mut state) % span) as f64 * spec.fault_resolution;
        out.push((g, t));
    }
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
}

/// One variant's result — the outcome fields of a
/// [`CampaignOutcome`], flattened to a `Copy` row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VariantOut {
    /// Whether the campaign completed.
    pub completed: bool,
    /// Makespan (0 when stranded).
    pub makespan: f64,
    /// Last main-phase completion (0 when stranded).
    pub main_finish: f64,
    /// Last post-chain completion (0 when stranded).
    pub post_finish: f64,
    /// Processor-seconds destroyed by crashes (0 when stranded).
    pub lost_proc_secs: f64,
    /// Months lost to crashes (0 when stranded).
    pub months_lost: u32,
    /// Months completed (`NS·NM` when completed).
    pub completed_months: u64,
}

impl VariantOut {
    /// Flattens an engine outcome.
    #[must_use]
    pub fn of(outcome: &CampaignOutcome, inst: Instance) -> Self {
        match outcome {
            CampaignOutcome::Completed(run) => Self {
                completed: true,
                makespan: run.makespan,
                main_finish: run.main_finish,
                post_finish: run.post_finish,
                lost_proc_secs: run.lost_proc_secs,
                months_lost: run.months_lost,
                completed_months: inst.nbtasks(),
            },
            CampaignOutcome::Stranded { completed_months } => Self {
                completed: false,
                makespan: 0.0,
                main_finish: 0.0,
                post_finish: 0.0,
                lost_proc_secs: 0.0,
                months_lost: 0,
                completed_months: *completed_months,
            },
        }
    }
}

/// Variant results in structure-of-arrays form: one column per
/// [`VariantOut`] field, indexed by the spec's enumeration order.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BatchSoA {
    /// Completion flags.
    pub completed: Vec<bool>,
    /// Makespans.
    pub makespan: Vec<f64>,
    /// Main-phase finishes.
    pub main_finish: Vec<f64>,
    /// Post-chain finishes.
    pub post_finish: Vec<f64>,
    /// Crash losses, processor-seconds.
    pub lost_proc_secs: Vec<f64>,
    /// Months lost to crashes.
    pub months_lost: Vec<u32>,
    /// Months completed.
    pub completed_months: Vec<u64>,
}

impl BatchSoA {
    fn with_capacity(n: usize) -> Self {
        Self {
            completed: Vec::with_capacity(n),
            makespan: Vec::with_capacity(n),
            main_finish: Vec::with_capacity(n),
            post_finish: Vec::with_capacity(n),
            lost_proc_secs: Vec::with_capacity(n),
            months_lost: Vec::with_capacity(n),
            completed_months: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, v: VariantOut) {
        self.completed.push(v.completed);
        self.makespan.push(v.makespan);
        self.main_finish.push(v.main_finish);
        self.post_finish.push(v.post_finish);
        self.lost_proc_secs.push(v.lost_proc_secs);
        self.months_lost.push(v.months_lost);
        self.completed_months.push(v.completed_months);
    }

    /// Variants held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.makespan.len()
    }

    /// Whether no variant is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.makespan.is_empty()
    }

    /// Re-assembles row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    #[must_use]
    pub fn at(&self, i: usize) -> VariantOut {
        VariantOut {
            completed: self.completed[i],
            makespan: self.makespan[i],
            main_finish: self.main_finish[i],
            post_finish: self.post_finish[i],
            lost_proc_secs: self.lost_proc_secs[i],
            months_lost: self.months_lost[i],
            completed_months: self.completed_months[i],
        }
    }

    /// FNV-1a over every row's bits in index order — the batch/naive
    /// byte-diff oracle CI checks.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in 0..self.len() {
            eat(u64::from(self.completed[i]));
            eat(self.makespan[i].to_bits());
            eat(self.main_finish[i].to_bits());
            eat(self.post_finish[i].to_bits());
            eat(self.lost_proc_secs[i].to_bits());
            eat(u64::from(self.months_lost[i]));
            eat(self.completed_months[i]);
        }
        h
    }
}

/// Result of a batch (or naive) sweep.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-variant results, spec enumeration order.
    pub outs: BatchSoA,
    /// Grid shapes executed.
    pub shapes: usize,
    /// Shapes that qualified for a shared kernel head (checkpoint
    /// resume); the rest fell back to per-variant runs.
    pub heads: usize,
    /// Planning-memo statistics this sweep contributed (a delta when
    /// the caller shares a memo via [`run_batch_with`]).
    pub memo: MemoStats,
}

/// Deterministic aggregate of a sweep — what the service returns and
/// the CLI prints.
#[derive(Debug, Clone, Serialize)]
pub struct SweepSummary {
    /// Variants executed.
    pub variants: u64,
    /// Variants that completed.
    pub completed: u64,
    /// Variants stranded.
    pub stranded: u64,
    /// Smallest completed makespan (0 when none completed).
    pub makespan_min: f64,
    /// Largest completed makespan (0 when none completed).
    pub makespan_max: f64,
    /// Mean completed makespan, index-order summation (0 when none).
    pub makespan_mean: f64,
    /// Total months lost across variants.
    pub months_lost_total: u64,
    /// Total crash losses, processor-seconds, index-order summation.
    pub lost_proc_secs_total: f64,
    /// [`BatchSoA::checksum`], hex — the bitwise-identity fingerprint.
    pub checksum: String,
}

impl BatchReport {
    /// Aggregates the sweep.
    #[must_use]
    pub fn summary(&self) -> SweepSummary {
        let outs = &self.outs;
        let mut completed = 0u64;
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let mut sum = 0.0f64;
        let mut months_lost = 0u64;
        let mut lost = 0.0f64;
        for i in 0..outs.len() {
            if outs.completed[i] {
                completed += 1;
                let m = outs.makespan[i];
                if m < min {
                    min = m;
                }
                if m > max {
                    max = m;
                }
                sum += m;
            }
            months_lost += u64::from(outs.months_lost[i]);
            lost += outs.lost_proc_secs[i];
        }
        SweepSummary {
            variants: outs.len() as u64,
            completed,
            stranded: outs.len() as u64 - completed,
            makespan_min: if completed > 0 { min } else { 0.0 },
            makespan_max: max,
            makespan_mean: if completed > 0 {
                sum / completed as f64
            } else {
                0.0
            },
            months_lost_total: months_lost,
            lost_proc_secs_total: lost,
            checksum: format!("{:016x}", outs.checksum()),
        }
    }
}

thread_local! {
    static FAULTS: RefCell<Vec<(usize, f64)>> = const { RefCell::new(Vec::new()) };
}

/// Runs the sweep with cross-variant sharing. Results are bitwise
/// [`run_naive`]'s (and the individual engine's) at any `pool` width.
pub fn run_batch(spec: &BatchSpec, pool: &Pool) -> Result<BatchReport, BatchError> {
    let mut memo = PlanMemo::new();
    run_sweep(spec, pool, true, &mut memo)
}

/// [`run_batch`] against a caller-owned planning memo, so the sweep
/// shares knapsack DP tables and makespan scans with other planning
/// work (the service daemon routes `VariantSweep` requests through
/// its placement pricing memo). The report's [`BatchReport::memo`]
/// counters are the delta this sweep contributed.
pub fn run_batch_with(
    spec: &BatchSpec,
    pool: &Pool,
    memo: &mut PlanMemo,
) -> Result<BatchReport, BatchError> {
    run_sweep(spec, pool, true, memo)
}

/// Runs the same enumeration variant by variant with no sharing — the
/// baseline the batch engine is benchmarked against.
pub fn run_naive(spec: &BatchSpec, pool: &Pool) -> Result<BatchReport, BatchError> {
    let mut memo = PlanMemo::new();
    run_sweep(spec, pool, false, &mut memo)
}

fn run_sweep(
    spec: &BatchSpec,
    pool: &Pool,
    share: bool,
    memo: &mut PlanMemo,
) -> Result<BatchReport, BatchError> {
    let before = memo.stats();
    let shapes = expand_shapes(spec, memo)?;
    let per_shape = usize::try_from(spec.variants_per_shape).expect("variant count fits usize");
    let mut outs = BatchSoA::with_capacity(shapes.len() * per_shape);
    let mut heads = 0usize;
    for shape in &shapes {
        let head = if share {
            run_batch_head(shape.inst, &spec.table, &shape.grouping, &shape.config)
                .expect("expand_shapes validated the grouping")
        } else {
            None
        };
        if head.is_some() {
            heads += 1;
        }
        let head = head.as_deref();
        let rows = pool.par_map_indices(per_shape, |v| {
            FAULTS.with(|cell| {
                let buf = &mut *cell.borrow_mut();
                faults_for(spec, shape, v as u64, buf);
                let outcome = match head {
                    Some(h) => {
                        let (outcome, _) = run_batch_variant(
                            shape.inst,
                            &spec.table,
                            &shape.grouping,
                            &shape.config,
                            KernelOpts::default(),
                            h,
                            buf,
                        );
                        outcome
                    }
                    None => {
                        let plan = FaultPlan {
                            failures: buf.clone(),
                        };
                        let mut tracer = NullTracer;
                        let (outcome, _) = simulate_campaign_kernel(
                            shape.inst,
                            &spec.table,
                            &shape.grouping,
                            &shape.config,
                            &plan,
                            KernelOpts::default(),
                            &mut tracer,
                        )
                        .expect("expand_shapes validated the grouping");
                        outcome
                    }
                };
                VariantOut::of(&outcome, shape.inst)
            })
        });
        for row in rows {
            outs.push(row);
        }
    }
    let after = memo.stats();
    Ok(BatchReport {
        outs,
        shapes: shapes.len(),
        heads,
        memo: MemoStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            dp_builds: after.dp_builds - before.dp_builds,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> BatchSpec {
        let mut spec = BatchSpec::reference_mc(64, 7);
        spec.nss = vec![4];
        spec.nms = vec![40];
        spec.rs = vec![30, 31];
        spec.max_faults = 3;
        spec
    }

    #[test]
    fn batch_equals_naive_bitwise() {
        let spec = small_spec();
        let pool = Pool::serial();
        let batch = run_batch(&spec, &pool).unwrap();
        let naive = run_naive(&spec, &pool).unwrap();
        assert_eq!(batch.outs.len() as u64, spec.variant_count());
        assert_eq!(batch.heads, 2, "both fused shapes should get a head");
        assert_eq!(batch.outs.checksum(), naive.outs.checksum());
        for i in 0..batch.outs.len() {
            assert_eq!(batch.outs.at(i), naive.outs.at(i), "variant {i}");
        }
    }

    #[test]
    fn worker_count_is_bitwise_neutral() {
        let spec = small_spec();
        let serial = run_batch(&spec, &Pool::serial()).unwrap();
        for jobs in [2, 8] {
            let par = run_batch(&spec, &Pool::new(jobs)).unwrap();
            assert_eq!(par.outs.checksum(), serial.outs.checksum(), "jobs={jobs}");
        }
    }

    #[test]
    fn fractional_faults_take_the_heap_path_and_still_agree() {
        let mut spec = small_spec();
        spec.fault_resolution = 0.5;
        spec.variants_per_shape = 32;
        let pool = Pool::serial();
        let batch = run_batch(&spec, &pool).unwrap();
        let naive = run_naive(&spec, &pool).unwrap();
        assert_eq!(batch.outs.checksum(), naive.outs.checksum());
    }

    #[test]
    fn unfused_shapes_fall_back_without_heads() {
        let mut spec = small_spec();
        spec.granularities = vec![Granularity::Unfused];
        spec.variants_per_shape = 16;
        let pool = Pool::serial();
        let batch = run_batch(&spec, &pool).unwrap();
        let naive = run_naive(&spec, &pool).unwrap();
        assert_eq!(batch.heads, 0);
        assert_eq!(batch.outs.checksum(), naive.outs.checksum());
    }

    #[test]
    fn spec_parses_with_defaults_and_rejects_junk() {
        let v: Value = serde_json::from_str(
            r#"{"r": [30, 40], "ns": 4, "nm": 40, "variants": 100, "seed": 9,
                "policies": ["least-advanced", "round-robin"],
                "heuristic": "basic", "max_faults": 2}"#,
        )
        .unwrap();
        let spec = BatchSpec::from_json(&v).unwrap();
        assert_eq!(spec.shape_count(), 4);
        assert_eq!(spec.variant_count(), 400);
        assert_eq!(spec.heuristic, Heuristic::Basic);
        // Recovery names are `Submit`'s and `oa`'s, aliases included.
        for (name, want) in [
            ("checkpoint", Recovery::MonthlyCheckpoint),
            ("monthly-checkpoint", Recovery::MonthlyCheckpoint),
            ("restart", Recovery::RestartScenario),
            ("restart-scenario", Recovery::RestartScenario),
        ] {
            let v: Value = serde_json::from_str(&format!(r#"{{"recovery": "{name}"}}"#)).unwrap();
            assert_eq!(BatchSpec::from_json(&v).unwrap().recovery, want, "{name}");
        }

        for bad in [
            r#"{"variants": 0}"#,
            r#"{"max_faults": 0}"#,
            r#"{"heuristic": "nope"}"#,
            r#"{"recovery": "nope"}"#,
            r#"{"recovery": 1}"#,
            r#"{"policies": []}"#,
            r#"{"fault_resolution": -1.0}"#,
            r#"{"ns": [0]}"#,
            r#"{"r": [53, 0]}"#,
            r#"[1, 2]"#,
        ] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert!(BatchSpec::from_json(&v).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn specs_exactly_at_the_size_caps_parse() {
        let parse = |text: &str| BatchSpec::from_json(&serde_json::from_str(text).unwrap());
        let over = |text: &str| matches!(parse(text), Err(BatchError::OverSizeCap(_)));
        // Two shapes of 2^19 variants each.
        let spec = parse(r#"{"r": [30, 31], "variants": 524288}"#).unwrap();
        assert_eq!(spec.variant_count(), MAX_BATCH_VARIANTS);
        assert!(over(r#"{"r": [30, 31], "variants": 524289}"#));
        assert!(over(r#"{"r": [30, 31], "variants": 18446744073709551615}"#));
        // The largest shape, 16 × 65,536, is exactly 2^20 months.
        let spec = parse(r#"{"ns": [1, 16], "nm": [65536, 2], "variants": 1}"#).unwrap();
        assert_eq!(spec.shape_count(), 4);
        assert!(over(r#"{"ns": [1, 16], "nm": [65537, 2], "variants": 1}"#));
        assert!(over(
            r#"{"ns": [2000000000], "nm": [2000000000], "variants": 1}"#
        ));
        // The largest cluster is exactly 1,024 processors.
        let spec = parse(r#"{"r": [53, 1024], "variants": 1}"#).unwrap();
        assert_eq!(spec.rs, vec![53, 1024]);
        assert!(over(r#"{"r": [53, 1025], "variants": 1}"#));
        assert!(over(r#"{"r": [4000000000], "variants": 1}"#));
    }

    #[test]
    fn summary_aggregates_are_deterministic() {
        let spec = small_spec();
        let pool = Pool::serial();
        let a = run_batch(&spec, &pool).unwrap().summary();
        let b = run_batch(&spec, &Pool::new(4)).unwrap().summary();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(a.variants, spec.variant_count());
        assert!(a.completed > 0);
    }
}
