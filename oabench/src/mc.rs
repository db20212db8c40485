//! `mc_uniform` and `mc_mixed`: Monte Carlo variant sweeps through the
//! mass-batch engine (`oa_sim::batch::run_batch`).
//!
//! * `mc_uniform` keeps the batch mechanism fully on: the basic `7×7`
//!   grouping family has uniform month durations, so every shape gets a
//!   shared fault-free head and resumed variants fast-forward.
//! * `mc_mixed` runs the same layer with the mechanism mostly bypassed:
//!   the knapsack grouping (`4×8 + 3×7`) stops sharing at checkpoint
//!   resume and never fast-forwards, and unfused shapes fall back to
//!   one engine run per variant.
//!
//! Correctness gate: sampled variants are rerun one at a time through
//! `simulate_campaign_kernel` with `faults_for` and must equal the
//! batch's `VariantOut` bit for bit.

use oa_analyze::scheduling::check_grouping;
use oa_analyze::Severity;
use oa_par::Pool;
use oa_sched::heuristics::Heuristic;
use oa_sched::memo::{MemoStats, PlanMemo};
use oa_sched::policy::{FaultPlan, Granularity, ScenarioPolicy};
use oa_sim::batch::{
    expand_shapes, faults_for, run_batch, BatchSoA, BatchSpec, ShapePlan, VariantOut,
};

use crate::rng::Rng;
use crate::trace::Clock;
use crate::{calib, run_engine, span, timed_setups, Ctx, Outcome, Stage, MIN_OPS};

/// Sampled one-at-a-time reruns per shape in the correctness gate.
const GATE_SAMPLES: usize = 64;
/// Set-up repetitions. A set-up takes milliseconds, so the median of
/// many is steady where a few are not.
const SETUPS: usize = 31;

#[derive(Debug, Clone, Copy)]
pub enum Mix {
    Uniform,
    Mixed,
}

/// One spec family of a workload: the template every operation
/// re-seeds, and its shapes as `expand_shapes` plans them.
struct Family {
    spec: BatchSpec,
    shapes: Vec<ShapePlan>,
    /// Batch seconds and variants, and gate rerun seconds and count,
    /// for the sharing-gain estimate.
    batch_secs: f64,
    batch_variants: u64,
    rerun_secs: f64,
    reruns: u64,
}

/// The spec templates. One operation takes about half a second on a
/// 2-CPU host, with 100 variants per shape so a shared head costs under
/// a tenth of its shape's work, as in a large sweep.
fn templates(mix: Mix) -> Vec<BatchSpec> {
    match mix {
        Mix::Uniform => {
            let mut spec = BatchSpec::reference_mc(100, 0);
            spec.rs = vec![40, 53, 80];
            spec.policies = vec![ScenarioPolicy::LeastAdvanced, ScenarioPolicy::RoundRobin];
            spec.max_faults = 3;
            vec![spec]
        }
        Mix::Mixed => {
            let mut knapsack = BatchSpec::reference_mc(100, 0);
            knapsack.heuristic = Heuristic::Knapsack;
            let mut unfused = BatchSpec::reference_mc(10, 0);
            unfused.granularities = vec![Granularity::Unfused];
            vec![knapsack, unfused]
        }
    }
}

fn add_memo(ctx: &mut Ctx, m: MemoStats) {
    ctx.add("oa_sched.memo.hits", m.hits as f64);
    ctx.add("oa_sched.memo.misses", m.misses as f64);
    ctx.add("oa_sched.memo.dp_builds", m.dp_builds as f64);
}

fn setup(ctx: &mut Ctx, mix: Mix) -> Result<(Vec<Family>, MemoStats), String> {
    let mut memo = PlanMemo::new();
    let mut families = Vec::new();
    for spec in templates(mix) {
        let shapes = ctx
            .tr
            .leaf("oa_sim.batch.expand_shapes", || {
                expand_shapes(&spec, &mut memo)
            })
            .map_err(|e| e.to_string())?;
        families.push(Family {
            spec,
            shapes,
            batch_secs: 0.0,
            batch_variants: 0,
            rerun_secs: 0.0,
            reruns: 0,
        });
    }
    Ok((families, memo.stats()))
}

fn same_bits(a: &VariantOut, b: &VariantOut) -> bool {
    a.completed == b.completed
        && a.makespan.to_bits() == b.makespan.to_bits()
        && a.main_finish.to_bits() == b.main_finish.to_bits()
        && a.post_finish.to_bits() == b.post_finish.to_bits()
        && a.lost_proc_secs.to_bits() == b.lost_proc_secs.to_bits()
        && a.months_lost == b.months_lost
        && a.completed_months == b.completed_months
}

/// The fault-stream seed of operation `op` of family `f`: a fresh,
/// seeded set of Monte Carlo variants every operation.
fn op_seed(seed: u64, op: usize, f: usize) -> u64 {
    Rng::new(seed, 0x4D43 + f as u64 * 1_000_003 + op as u64 * 7).next_u64()
}

pub fn run(ctx: &mut Ctx, mix: Mix) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((mut families, setup_memo), setup_s, after) =
        timed_setups(ctx, SETUPS, |ctx| setup(ctx, mix))?;
    out.setup_s = setup_s;
    let mut marks = vec![after];
    let mut raw = Vec::new();
    add_memo(ctx, setup_memo);

    // Batch outputs per (operation, family), kept for the gate.
    let mut outs: Vec<Vec<BatchSoA>> = Vec::new();
    let pool = Pool::serial();
    let start = ctx.wall.now();
    while ctx.wall.now() - start < ctx.seconds || outs.len() < MIN_OPS {
        let op = outs.len();
        let t_op = ctx.wall.now();
        let mut row = Vec::with_capacity(families.len());
        for (f, fam) in families.iter_mut().enumerate() {
            let mut spec = fam.spec.clone();
            spec.seed = op_seed(ctx.seed, op, f);
            let t = ctx.wall.now();
            let report = ctx
                .tr
                .leaf("oa_sim.batch.run", || run_batch(&spec, &pool))
                .map_err(|e| e.to_string())?;
            fam.batch_secs += ctx.wall.now() - t;
            fam.batch_variants += report.outs.len() as u64;
            out.attempted += report.outs.len() as u64;
            ctx.add("oa_sim.batch.variants", report.outs.len() as f64);
            ctx.add("oa_sim.batch.shapes", report.shapes as f64);
            ctx.add("oa_sim.batch.heads", report.heads as f64);
            add_memo(ctx, report.memo);
            row.push(report.outs);
        }
        raw.push(ctx.wall.now() - t_op);
        marks.push(ctx.calibrate(1));
        outs.push(row);
    }
    out.op_s = calib::normalize(&raw, &marks);
    out.throughput_per_s = out.attempted as f64 / out.op_s.iter().sum::<f64>();

    ctx.tr.begin("bench.gate");
    let mut rng = Rng::new(ctx.seed, 0x6761);
    for (f, fam) in families.iter_mut().enumerate() {
        for shape in &fam.shapes {
            // The shape's grouping is the heuristic's own (the memo is a
            // cache, not a different planner) and passes the analyzer.
            let direct = ctx
                .tr
                .leaf(span(Stage::Grouping, fam.spec.heuristic), || {
                    fam.spec.heuristic.grouping(shape.inst, &fam.spec.table)
                })
                .map_err(|e| e.to_string())?;
            let diags = ctx.tr.leaf("oa_analyze.check_grouping", || {
                check_grouping(shape.inst, &fam.spec.table, &shape.grouping)
            });
            if direct != shape.grouping || diags.iter().any(|d| d.severity == Severity::Error) {
                out.failed += 1;
                out.notes.push(format!(
                    "shape {} grouping is not the heuristic's",
                    shape.shape_idx
                ));
            }

            let per_shape = fam.spec.variants_per_shape as usize;
            let mut faults = Vec::new();
            for _ in 0..GATE_SAMPLES {
                let op = rng.below(outs.len());
                let v = rng.below(per_shape);
                let mut spec = fam.spec.clone();
                spec.seed = op_seed(ctx.seed, op, f);
                faults_for(&spec, shape, v as u64, &mut faults);
                let plan = FaultPlan {
                    failures: faults.clone(),
                };
                let t = ctx.wall.now();
                let outcome = run_engine(
                    ctx,
                    shape.inst,
                    &spec.table,
                    &shape.grouping,
                    &shape.config,
                    &plan,
                );
                fam.rerun_secs += ctx.wall.now() - t;
                fam.reruns += 1;
                let want = outs[op][f].at(shape.shape_idx * per_shape + v);
                if !same_bits(&VariantOut::of(&outcome, shape.inst), &want) {
                    out.failed += 1;
                    out.notes.push(format!(
                        "op {op} shape {} variant {v}: batch and one-at-a-time runs differ",
                        shape.shape_idx
                    ));
                }
            }
        }
    }
    ctx.tr.end();

    // What the same variants would cost run one at a time, over what the
    // batch took: the cross-variant sharing the batch engine delivered.
    let naive: f64 = families
        .iter()
        .map(|f| f.rerun_secs / f.reruns as f64 * f.batch_variants as f64)
        .sum();
    let batch: f64 = families.iter().map(|f| f.batch_secs).sum();
    ctx.add("oa_sim.batch.sharing_gain", naive / batch);
    out.gate_ok = out.failed == 0;
    out.notes.push(format!(
        "{} operations, {} variants; {} sampled variants rerun one at a time",
        outs.len(),
        out.attempted,
        families.iter().map(|f| f.reruns).sum::<u64>()
    ));
    Ok(out)
}
