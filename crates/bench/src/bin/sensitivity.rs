//! Sensitivity of the gains to campaign shape — an extension of
//! Figure 8 along the `NM` (campaign length) and `NS` (ensemble size)
//! axes, which the paper fixes at 1800 and 10.
//!
//! End effects (the incomplete last set, trailing posts) shrink
//! relative to the campaign as `NM` grows, so gains stabilize; `NS`
//! moves `nbmax` and the knapsack's room to mix group sizes.
//!
//! Run: `cargo run --release -p oa-bench --bin sensitivity [--fast] [--jobs N]`

use oa_bench::{fast_mode, row, stats, write_json, SweepRecorder};
use oa_platform::prelude::*;
use oa_sched::prelude::*;

#[derive(serde::Serialize)]
struct Sweep {
    axis: &'static str,
    value: u32,
    mean_gain_pct: f64,
    max_gain_pct: f64,
}

fn gains_over_r(
    ns: u32,
    nm: u32,
    table: &TimingTable,
    rs: &[u32],
    pool: &oa_par::Pool,
) -> Vec<f64> {
    pool.par_map(rs, |&r| {
        let inst = Instance::new(ns, nm, r);
        let base = Heuristic::Basic.makespan(inst, table).ok()?;
        let k = Heuristic::Knapsack.makespan(inst, table).ok()?;
        Some(gain_pct(base, k))
    })
    .into_iter()
    .flatten()
    .collect()
}

fn main() {
    let table = reference_cluster(120).timing;
    let rs: Vec<u32> = (11..=120)
        .step_by(if fast_mode() { 13 } else { 5 })
        .collect();
    let pool = oa_bench::pool();
    let mut rec = SweepRecorder::start("sensitivity");
    let mut out = Vec::new();

    println!("== Sensitivity of the knapsack gain (vs basic) ==\n");
    let widths = [8usize, 8, 12, 12];
    println!(
        "{}",
        row(
            &[
                "axis".into(),
                "value".into(),
                "mean gain%".into(),
                "max gain%".into()
            ],
            &widths
        )
    );

    // NM sweep at NS = 10.
    let nms = [12u32, 60, 240, 600, 1800];
    let nm_gains = rec.phase("nm_sweep", nms.len() * rs.len(), || {
        nms.map(|nm| gains_over_r(10, nm, &table, &rs, &pool))
    });
    for (nm, g) in nms.into_iter().zip(nm_gains) {
        let s = stats(&g);
        println!(
            "{}",
            row(
                &[
                    "NM".into(),
                    nm.to_string(),
                    format!("{:.2}", s.mean),
                    format!("{:.2}", s.max)
                ],
                &widths
            )
        );
        out.push(Sweep {
            axis: "nm",
            value: nm,
            mean_gain_pct: s.mean,
            max_gain_pct: s.max,
        });
    }
    println!();
    // NS sweep at NM = 600.
    let nss = [2u32, 5, 10, 15, 20];
    let ns_gains = rec.phase("ns_sweep", nss.len() * rs.len(), || {
        nss.map(|ns| gains_over_r(ns, 600, &table, &rs, &pool))
    });
    for (ns, g) in nss.into_iter().zip(ns_gains) {
        let s = stats(&g);
        println!(
            "{}",
            row(
                &[
                    "NS".into(),
                    ns.to_string(),
                    format!("{:.2}", s.mean),
                    format!("{:.2}", s.max)
                ],
                &widths
            )
        );
        out.push(Sweep {
            axis: "ns",
            value: ns,
            mean_gain_pct: s.mean,
            max_gain_pct: s.max,
        });
    }

    println!(
        "\nreading: gains persist as NM grows — they are structural, not an\n\
         end-effect artifact. Along NS the knapsack's advantage grows with\n\
         the ensemble (more groups to mix), but at NS = 2 it can go\n\
         *negative*: with two chains the raw throughput objective pins each\n\
         chain to one group and a slow small group becomes the critical\n\
         path — the same pitfall oa_sched::chains::ChainPlan::balanced fixes."
    );
    write_json("sensitivity", &out);
    rec.finish();
}
