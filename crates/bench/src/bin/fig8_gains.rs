//! Figure 8: gains of the three improvements over the basic heuristic
//! on a single cluster, averaged over the five benchmark clusters
//! ("These results come from 5 simulations done on clusters with
//! different computing powers. The figure shows the average of the
//! gains, and also the standard deviation.").
//!
//! Run: `cargo run --release -p oa-bench --bin fig8_gains [--fast] [--jobs N]`

use oa_bench::{fast_mode, jobs, par_sweep, row, stats, write_json, Stats, SweepRecorder};
use oa_platform::prelude::*;
use oa_sched::prelude::*;

#[derive(serde::Serialize)]
struct Point {
    r: u32,
    gain1: Stats,
    gain2: Stats,
    gain3: Stats,
}

fn main() {
    let (ns, nm) = (10u32, if fast_mode() { 120 } else { 1800 });
    let grid = benchmark_grid(DEFAULT_RESOURCES);
    let tables: Vec<TimingTable> = grid.clusters().iter().map(|c| c.timing.clone()).collect();
    let rs: Vec<u32> = (11..=120).collect();

    let mut rec = SweepRecorder::start("fig8_gains");
    println!(
        "== Figure 8: improvement gains vs basic (NS = {ns}, NM = {nm}, 5 clusters, {} jobs) ==",
        jobs()
    );
    let points = rs.len();
    let series: Vec<Point> = rec.phase("gain_sweep", points, || {
        par_sweep(rs, jobs(), |&r| {
            let inst = Instance::new(ns, nm, r);
            let mut gains = [Vec::new(), Vec::new(), Vec::new()];
            for t in &tables {
                let base = Heuristic::Basic.makespan(inst, t).expect("R ≥ 11");
                for (k, h) in [
                    Heuristic::RedistributeIdle,
                    Heuristic::NoPostReservation,
                    Heuristic::Knapsack,
                ]
                .into_iter()
                .enumerate()
                {
                    // Every grouping entering the gain average must pass
                    // the scheduling-layer rules first; its estimate is
                    // the heuristic's makespan.
                    let grouping = h.grouping(inst, t).expect("R ≥ 11");
                    let report = oa_analyze::Report::from_diagnostics(
                        oa_analyze::scheduling::check_grouping(inst, t, &grouping),
                    );
                    assert!(
                        !report.has_errors(),
                        "fig8 R={r} {}: {}",
                        h.label(),
                        report.render_text()
                    );
                    let makespan = estimate(inst, t, &grouping)
                        .expect("heuristics construct valid groupings")
                        .makespan;
                    gains[k].push(gain_pct(base, makespan));
                }
            }
            Point {
                r,
                gain1: stats(&gains[0]),
                gain2: stats(&gains[1]),
                gain3: stats(&gains[2]),
            }
        })
    });

    let widths = [5usize, 8, 6, 8, 6, 8, 6];
    println!(
        "{}",
        row(
            &[
                "R".into(),
                "gain1%".into(),
                "±sd".into(),
                "gain2%".into(),
                "±sd".into(),
                "gain3%".into(),
                "±sd".into(),
            ],
            &widths
        )
    );
    for p in &series {
        println!(
            "{}",
            row(
                &[
                    p.r.to_string(),
                    format!("{:.2}", p.gain1.mean),
                    format!("{:.2}", p.gain1.stddev),
                    format!("{:.2}", p.gain2.mean),
                    format!("{:.2}", p.gain2.stddev),
                    format!("{:.2}", p.gain3.mean),
                    format!("{:.2}", p.gain3.stddev),
                ],
                &widths
            )
        );
    }

    // Paper-shape checks.
    let best3 = series
        .iter()
        .map(|p| p.gain3.mean)
        .fold(f64::NEG_INFINITY, f64::max);
    let low_r: Vec<&Point> = series.iter().filter(|p| p.r <= 60).collect();
    let high_r: Vec<&Point> = series.iter().filter(|p| p.r >= 100).collect();
    let mean3_low = low_r.iter().map(|p| p.gain3.mean).sum::<f64>() / low_r.len() as f64;
    let mean3_high = high_r.iter().map(|p| p.gain3.mean).sum::<f64>() / high_r.len() as f64;
    println!("\npeak knapsack gain: {best3:.1}% (paper: up to ~12%, best at low R)");
    println!(
        "knapsack mean gain  R ≤ 60: {mean3_low:.1}%   R ≥ 100: {mean3_high:.1}%  (paper: gains shrink with resources)"
    );
    write_json("fig8_gains", &series);
    rec.finish();
}
