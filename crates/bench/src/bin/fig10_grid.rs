//! Figure 10: gains on the grid — 2 to 5 clusters, 11 to 99 resources
//! each, scenarios spread with Algorithm 1, per-cluster scheduling by
//! each heuristic, gains measured against the basic heuristic.
//!
//! The X axis follows the paper's encoding: `n.rr` means `n` clusters
//! of `rr` resources each (e.g. `2.25` = two clusters × 25 processors).
//!
//! Run: `cargo run --release -p oa-bench --bin fig10_grid [--fast] [--jobs N]`

use oa_bench::{fast_mode, jobs, par_sweep, row, write_json, SweepRecorder};
use oa_platform::prelude::*;
use oa_sched::prelude::*;
use oa_sim::prelude::*;
use oa_trace::{NullTracer, VecTracer};

#[derive(serde::Serialize)]
struct Point {
    clusters: usize,
    resources: u32,
    /// Paper-style x coordinate: clusters + resources/100.
    x: f64,
    basic_makespan: f64,
    gain1: f64,
    gain2: f64,
    gain3: f64,
}

fn main() {
    let ns = 10u32;
    let (nm, step) = if fast_mode() {
        (120u32, 8)
    } else {
        (1800u32, 4)
    };
    let base_grid = benchmark_grid(DEFAULT_RESOURCES);

    let mut configs: Vec<(usize, u32)> = Vec::new();
    for n in 2..=5usize {
        for r in (11..=99u32).step_by(step) {
            configs.push((n, r));
        }
    }

    let mut rec = SweepRecorder::start("fig10_grid");
    println!(
        "== Figure 10: grid gains (NS = {ns}, NM = {nm}, {} jobs) ==",
        jobs()
    );
    let points = configs.len();
    let series: Vec<Point> = rec.phase("grid_sweep", points, || {
        par_sweep(configs, jobs(), |&(n, r)| {
            let grid = base_grid.take(n).with_uniform_resources(r);
            let run = |h: Heuristic| -> f64 {
                run_grid(&grid, h, ns, nm, &GridConfig::default(), &mut NullTracer)
                    .expect("R ≥ 11 fits groups")
                    .makespan
            };
            let basic = run(Heuristic::Basic);
            Point {
                clusters: n,
                resources: r,
                x: n as f64 + r as f64 / 100.0,
                basic_makespan: basic,
                gain1: gain_pct(basic, run(Heuristic::RedistributeIdle)),
                gain2: gain_pct(basic, run(Heuristic::NoPostReservation)),
                gain3: gain_pct(basic, run(Heuristic::Knapsack)),
            }
        })
    });

    let widths = [7usize, 10, 16, 8, 8, 8];
    println!(
        "{}",
        row(
            &[
                "x".into(),
                "(n, R)".into(),
                "basic(h)".into(),
                "gain1%".into(),
                "gain2%".into(),
                "gain3%".into(),
            ],
            &widths
        )
    );
    for p in &series {
        println!(
            "{}",
            row(
                &[
                    format!("{:.2}", p.x),
                    format!("{}x{}", p.clusters, p.resources),
                    format!("{:.1}", p.basic_makespan / 3600.0),
                    format!("{:.2}", p.gain1),
                    format!("{:.2}", p.gain2),
                    format!("{:.2}", p.gain3),
                ],
                &widths
            )
        );
    }

    // Paper-shape checks: best gains ~12 %, most 0–8 %, gains shrink as
    // clusters are added, stable zero-gain plateaus exist.
    let max_gain = series
        .iter()
        .flat_map(|p| [p.gain1, p.gain2, p.gain3])
        .fold(f64::NEG_INFINITY, f64::max);
    let mean3_by_n: Vec<(usize, f64)> = (2..=5)
        .map(|n| {
            let pts: Vec<&Point> = series.iter().filter(|p| p.clusters == n).collect();
            (
                n,
                pts.iter().map(|p| p.gain3).sum::<f64>() / pts.len() as f64,
            )
        })
        .collect();
    let zero_plateaus = series
        .iter()
        .filter(|p| p.gain1.abs() < 0.01 && p.gain2.abs() < 0.01 && p.gain3.abs() < 0.01)
        .count();
    println!("\nbest gain anywhere: {max_gain:.1}% (paper: almost 12%, most 0–8%)");
    println!("mean knapsack gain per cluster count: {mean3_by_n:?} (paper: gains shrink as clusters are added)");
    println!(
        "configurations where no heuristic improves: {zero_plateaus}/{} (paper: stable phases exist)",
        series.len()
    );
    write_json("fig10_grid", &series);
    rec.finish();

    // `--trace PATH` (or OA_TRACE): dump a representative grid run
    // (5 clusters × 30, knapsack) as a cluster-tagged event trace; the
    // Chrome export shows one process lane per cluster.
    if let Some(path) = oa_bench::trace_path() {
        let grid = base_grid.take(5).with_uniform_resources(30);
        let mut sink = VecTracer::new();
        run_grid(
            &grid,
            Heuristic::Knapsack,
            ns,
            nm,
            &GridConfig::default(),
            &mut sink,
        )
        .expect("R = 30 fits groups");
        oa_bench::write_trace(&path, &sink.into_events());
    }
}
