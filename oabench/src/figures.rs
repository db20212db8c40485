//! `figures`: the planning-heavy workload. Recomputes points of the
//! paper's Figure 8 (single-cluster gains) and Figure 10 (grid gains)
//! from the scheduler's public entry points and checks each one, bit for
//! bit, against the tracked `results/fig8_gains.json` and
//! `results/fig10_grid.json`.
//!
//! The grid run of a Figure 10 point is assembled here from
//! `grid_performance` → `repartition` → per-cluster `grouping` →
//! `simulate_campaign_kernel`, so every layer call is visible from
//! outside; no `run_grid*` wrapper is used.

use std::collections::BTreeMap;

use oa_analyze::scheduling::check_grouping;
use oa_analyze::Severity;
use oa_platform::grid::Grid;
use oa_platform::presets::{benchmark_grid, DEFAULT_RESOURCES};
use oa_sched::hetero::{grid_performance, repartition};
use oa_sched::heuristics::{gain_pct, Heuristic};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, ScenarioPolicy};
use serde::Value;

use crate::rng::{spread_order, Rng};
use crate::trace::Clock;
use crate::{calib, run_engine, span, timed_setups, Ctx, Outcome, Stage, MIN_OPS};

const NS: u32 = 10;
const NM: u32 = 1800;
/// Set-up repetitions. One set-up prices 55 × 5 Basic makespans (about
/// a quarter second); the median of several is steady.
const SETUPS: usize = 9;
const IMPROVEMENTS: [Heuristic; 3] = [
    Heuristic::RedistributeIdle,
    Heuristic::NoPostReservation,
    Heuristic::Knapsack,
];

/// A Figure 8 entry: `[mean, stddev, min, max]` of each improvement's
/// gain over the five clusters.
type Fig8Point = [[f64; 4]; 3];

/// A Figure 10 entry: `[x, basic_makespan, gain1, gain2, gain3]`.
type Fig10Point = [f64; 5];

/// The tracked figure points the correctness gate compares against.
struct Reference {
    fig8: BTreeMap<u32, Fig8Point>,
    fig10: BTreeMap<(usize, u32), Fig10Point>,
}

struct Setup {
    grid: Grid,
    /// Basic makespan per cluster at every Figure 8 `R`: the baseline
    /// each Figure 8 gain is measured against, priced once up front as
    /// a figure script prices its baseline series.
    base8: BTreeMap<u32, Vec<f64>>,
    /// Figure 8 resource counts, in visiting order.
    order8: Vec<u32>,
    /// Figure 10 resource counts per cluster count (2..=5), each in
    /// visiting order.
    order10: [Vec<u32>; 4],
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::F64(x)) => Ok(*x),
        Some(Value::U64(n)) => Ok(*n as f64),
        _ => Err(format!("missing number {key:?}")),
    }
}

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match serde_json::from_str::<Value>(&text) {
        Ok(Value::Array(items)) => Ok(items),
        Ok(_) => Err(format!("{path}: expected a JSON array")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Loads the tracked reference points.
fn reference() -> Result<Reference, String> {
    let mut fig8 = BTreeMap::new();
    for p in load("results/fig8_gains.json")? {
        let mut point = [[0.0; 4]; 3];
        for (k, gain) in ["gain1", "gain2", "gain3"].into_iter().enumerate() {
            let g = p.get(gain).ok_or("fig8 point without gains")?;
            for (j, field) in ["mean", "stddev", "min", "max"].into_iter().enumerate() {
                point[k][j] = num(g, field)?;
            }
        }
        fig8.insert(num(&p, "r")? as u32, point);
    }
    let mut fig10 = BTreeMap::new();
    for p in load("results/fig10_grid.json")? {
        let key = (num(&p, "clusters")? as usize, num(&p, "resources")? as u32);
        let mut point = [0.0; 5];
        for (j, field) in ["x", "basic_makespan", "gain1", "gain2", "gain3"]
            .into_iter()
            .enumerate()
        {
            point[j] = num(&p, field)?;
        }
        fig10.insert(key, point);
    }
    Ok(Reference { fig8, fig10 })
}

/// Builds the benchmark grid, prices the Figure 8 baseline and draws the
/// seeded visiting orders. The seed picks the resource-count parity (odd
/// or even `R`) and where each stride walk starts.
fn setup(ctx: &mut Ctx) -> Setup {
    let mut rng = Rng::new(ctx.seed, 8);
    let parity = (ctx.seed % 2) as u32;
    let rs8: Vec<u32> = (11 + parity..=120).step_by(2).collect();
    let grid = benchmark_grid(DEFAULT_RESOURCES);
    let base8 = rs8
        .iter()
        .map(|&r| {
            let inst = Instance::new(NS, NM, r);
            let row = grid
                .clusters()
                .iter()
                .map(|c| {
                    ctx.tr
                        .leaf(span(Stage::Makespan, Heuristic::Basic), || {
                            Heuristic::Basic.makespan(inst, &c.timing)
                        })
                        .expect("every figure R fits a group")
                })
                .collect();
            (r, row)
        })
        .collect();
    let order8 = spread_order(rs8.len(), &mut rng)
        .into_iter()
        .map(|i| rs8[i])
        .collect();
    let rs10: Vec<u32> = (11 + 4 * parity..=99).step_by(8).collect();
    let order10 = [0, 1, 2, 3].map(|_| {
        spread_order(rs10.len(), &mut rng)
            .into_iter()
            .map(|i| rs10[i])
            .collect()
    });
    Setup {
        grid,
        base8,
        order8,
        order10,
    }
}

/// Population statistics of one gain series, computed exactly as the
/// figure binary computes them (same summation order), so the result
/// can be compared bit for bit.
fn gain_stats(samples: &[f64]) -> [f64; 4] {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    [mean, var.sqrt(), min, max]
}

/// One Figure 8 point against the Basic makespans `base` (one per
/// cluster); `None` when a grouping fails the analyzer.
fn fig8_point(ctx: &mut Ctx, grid: &Grid, r: u32, base: &[f64]) -> Option<Fig8Point> {
    let inst = Instance::new(NS, NM, r);
    let mut gains: [Vec<f64>; 3] = Default::default();
    let mut clean = true;
    for (cluster, &base) in grid.clusters().iter().zip(base) {
        let t = &cluster.timing;
        for (k, h) in IMPROVEMENTS.into_iter().enumerate() {
            let g = ctx
                .tr
                .leaf(span(Stage::Grouping, h), || h.grouping(inst, t))
                .expect("every figure R fits a group");
            let diags = ctx
                .tr
                .leaf("oa_analyze.check_grouping", || check_grouping(inst, t, &g));
            clean &= !diags.iter().any(|d| d.severity == Severity::Error);
            let ms = ctx
                .tr
                .leaf(span(Stage::Makespan, h), || h.makespan(inst, t))
                .expect("every figure R fits a group");
            gains[k].push(gain_pct(base, ms));
        }
    }
    clean.then(|| gains.map(|g| gain_stats(&g)))
}

/// One Figure 10 point: plan and run the grid under each heuristic.
fn fig10_point(ctx: &mut Ctx, base: &Grid, n: usize, r: u32) -> Fig10Point {
    let grid = base.take(n).with_uniform_resources(r);
    let config = CampaignConfig::fused(ScenarioPolicy::LeastAdvanced);
    let mut makespans = [0.0f64; 4];
    for (k, h) in Heuristic::PAPER.into_iter().enumerate() {
        let vectors = ctx.tr.leaf(span(Stage::GridPerformance, h), || {
            grid_performance(&grid, h, NS, NM)
        });
        let plan = ctx
            .tr
            .leaf("oa_sched.hetero.repartition", || repartition(&vectors));
        for (id, cluster) in grid.iter() {
            let scenarios = plan.scenarios_of(id).len() as u32;
            if scenarios == 0 {
                continue;
            }
            let inst = Instance::new(scenarios, NM, cluster.resources);
            let g = ctx
                .tr
                .leaf(span(Stage::Grouping, h), || {
                    h.grouping(inst, &cluster.timing)
                })
                .expect("Algorithm 1 only places scenarios where a group fits");
            let outcome = run_engine(ctx, inst, &cluster.timing, &g, &config, &FaultPlan::none());
            let ms = outcome.makespan().expect("fault-free runs complete");
            makespans[k] = makespans[k].max(ms);
        }
    }
    let basic = makespans[0];
    [
        n as f64 + f64::from(r) / 100.0,
        basic,
        gain_pct(basic, makespans[1]),
        gain_pct(basic, makespans[2]),
        gain_pct(basic, makespans[3]),
    ]
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Cluster-count pairs of the Figure 10 points in one operation. A grid
/// point's cost grows with its cluster count, and 2 + 5 costs about what
/// 3 + 4 does, so operations stay alike and the latency median does not
/// hop between cost modes.
const PAIRS: [[usize; 2]; 2] = [[2, 5], [3, 4]];

/// Runs operations until the time box closes. One operation is one
/// Figure 8 point plus two Figure 10 points (one [`PAIRS`] entry).
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The reference belongs to the gate, not to the workload, so it is
    // loaded before the set-ups are timed. (Its JSON parse alone moved
    // set-up time 1.8x between two builds of the same source.)
    ctx.tr.begin("bench.gate");
    let want = reference()?;
    ctx.tr.end();
    let (s, setup_s, after) = timed_setups(ctx, SETUPS, |ctx| Ok(setup(ctx)))?;
    out.setup_s = setup_s;
    let mut marks = vec![after];
    let mut raw = Vec::new();

    let start = ctx.wall.now();
    let mut op = 0usize;
    while ctx.wall.now() - start < ctx.seconds || op < MIN_OPS {
        let t = ctx.wall.now();
        let r8 = s.order8[op % s.order8.len()];
        let got8 = fig8_point(ctx, &s.grid, r8, &s.base8[&r8]);
        let mut got10 = Vec::with_capacity(2);
        for n in PAIRS[op % 2] {
            let list = &s.order10[n - 2];
            let r = list[(op / 2) % list.len()];
            got10.push((n, r, fig10_point(ctx, &s.grid, n, r)));
        }
        raw.push(ctx.wall.now() - t);
        marks.push(ctx.calibrate(1));
        out.attempted += 3;

        let ok8 = match (got8, want.fig8.get(&r8)) {
            (Some(got), Some(want)) => same_bits(got.as_flattened(), want.as_flattened()),
            _ => false,
        };
        if !ok8 {
            out.failed += 1;
            out.notes
                .push(format!("fig8 R={r8} differs from the tracked result"));
        }
        for (n, r, got) in got10 {
            if !want
                .fig10
                .get(&(n, r))
                .is_some_and(|want| same_bits(&got, want))
            {
                out.failed += 1;
                out.notes
                    .push(format!("fig10 {n}x{r} differs from the tracked result"));
            }
        }
        op += 1;
    }
    out.op_s = calib::normalize(&raw, &marks);
    out.throughput_per_s = out.attempted as f64 / out.op_s.iter().sum::<f64>();
    out.gate_ok = out.failed == 0;
    out.notes.push(format!(
        "{op} operations ({} points) checked bitwise against results/fig8_gains.json and results/fig10_grid.json",
        out.attempted
    ));
    Ok(out)
}
