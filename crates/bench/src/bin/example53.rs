//! The Section 4.2 worked example: `R = 53` processors, `NS = 10`
//! scenarios. The basic heuristic picks `G = 7` (7 groups, 49
//! processors, 1 post processor needed, 3 idle); Improvement 1
//! redistributes the 3 idle processors (3×8 + 4×7 + 1 post) for a gain
//! the paper reports as 4.5 % — "58 hours less on the makespan".
//!
//! Run: `cargo run --release -p oa-bench --bin example53 [--jobs N]`

use oa_bench::{pool, trace_path, write_json, write_trace, SweepRecorder};
use oa_platform::prelude::*;
use oa_sched::prelude::*;
use oa_sim::prelude::*;
use oa_trace::VecTracer;

fn main() {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 1800, 53);
    let pool = pool();
    let mut rec = SweepRecorder::start("example53");

    println!("== Section 4.2 example: R = 53, NS = 10, NM = 1800 ==");
    let breakdown = best_group_with(inst, &table, &pool).expect("53 processors fit groups");
    println!(
        "basic heuristic: G = {} (nbmax = {}, R2 = {})  [paper: G = 7, 7 groups, 49 procs]",
        breakdown.g, breakdown.nbmax, breakdown.r2
    );

    #[derive(serde::Serialize)]
    struct Row {
        heuristic: &'static str,
        grouping: String,
        makespan_secs: f64,
        makespan_hours: f64,
        gain_pct: f64,
        gain_hours: f64,
    }
    let base_ms = Heuristic::Basic
        .makespan_with(inst, &table, &pool)
        .expect("feasible");
    let mut rows = Vec::new();
    let groupings = rec.phase("heuristics", Heuristic::PAPER.len(), || {
        Heuristic::PAPER.map(|h| h.grouping_with(inst, &table, &pool).expect("feasible"))
    });
    for (h, grouping) in Heuristic::PAPER.into_iter().zip(groupings) {
        let ms = estimate(inst, &table, &grouping)
            .expect("valid grouping")
            .makespan;
        let gain = gain_pct(base_ms, ms);
        println!(
            "{:<26} {:<24} makespan {:>9.1} h   gain {:>5.2}% ({:>5.1} h)",
            h.label(),
            grouping.to_string(),
            ms / 3600.0,
            gain,
            (base_ms - ms) / 3600.0,
        );
        rows.push(Row {
            heuristic: h.label(),
            grouping: grouping.to_string(),
            makespan_secs: ms,
            makespan_hours: ms / 3600.0,
            gain_pct: gain,
            gain_hours: (base_ms - ms) / 3600.0,
        });
    }
    println!("\npaper: Improvement 1 gains 4.5% — 58 hours — with grouping 3×8 + 4×7 + 1 post");
    write_json("example53", &rows);
    rec.finish();

    // `--trace PATH` (or OA_TRACE): record the Improvement-1 campaign
    // as a structured event stream; replay it with `oa trace export
    // --file PATH` or `oa trace summarize --file PATH`.
    if let Some(path) = trace_path() {
        let grouping = Heuristic::RedistributeIdle
            .grouping(inst, &table)
            .expect("feasible");
        let mut sink = VecTracer::new();
        let config = CampaignConfig::default();
        simulate_campaign(
            inst,
            &table,
            &grouping,
            &config,
            &FaultPlan::none(),
            &mut sink,
        )
        .expect("valid grouping");
        write_trace(&path, &sink.into_events());
    }
}
