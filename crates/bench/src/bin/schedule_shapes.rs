//! Figures 3–6: the schedule shapes behind the analytic model,
//! rendered as ASCII Gantt charts.
//!
//! * Figure 3 — `R2 = 0`: post-processing packed after the mains;
//! * Figure 4 — dedicated post processors *overpassed* by the post
//!   load (`TP` large relative to `TG`);
//! * Figures 5/6 — overpassing with an incomplete final set: trailing
//!   posts spill onto the processors freed by the finished groups.
//!
//! Run: `cargo run --release -p oa-bench --bin schedule_shapes [--jobs N] [--policy P]`

use oa_bench::SweepRecorder;
use oa_platform::timing::TimingTable;
use oa_sched::prelude::*;
use oa_sim::prelude::*;

fn show(title: &str, inst: Instance, table: &TimingTable, grouping: &Grouping) {
    println!("== {title} ==");
    println!(
        "instance: NS = {}, NM = {}, R = {}; grouping: {grouping}",
        inst.ns, inst.nm, inst.r
    );
    let config = CampaignConfig::fused(oa_bench::policy_flag());
    let schedule = simulate_campaign(
        inst,
        table,
        grouping,
        &config,
        &FaultPlan::none(),
        &mut oa_trace::NullTracer,
    )
    .expect("valid grouping")
    .into_schedule()
    .expect("fused fault-free runs record a schedule");
    // Full schedule-layer analysis instead of the bare fail-fast
    // validate: advisory diagnostics (idle gaps, post starvation) are
    // part of what these figures illustrate, so print them too.
    oa_bench::gate_on_analysis(title, &schedule.analyze());
    print!(
        "{}",
        render(
            &schedule,
            GanttOptions {
                width: 68,
                by_group: true
            }
        )
    );
    let m = metrics(&schedule);
    println!(
        "utilization {:.0}%   fairness(stddev of scenario finishes) {:.0} s\n",
        m.utilization * 100.0,
        m.fairness_stddev
    );
}

fn main() {
    let mut rec = SweepRecorder::start("schedule_shapes");
    let t = rec.phase("shapes", 4, render_shapes);
    // `--trace PATH` (or OA_TRACE): dump the R = 53 example above as a
    // structured event trace for `oa trace export`/`summarize`.
    if let Some(path) = oa_bench::trace_path() {
        let mut sink = oa_trace::VecTracer::new();
        simulate_campaign(
            Instance::new(10, 6, 53),
            &t,
            &Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1),
            &CampaignConfig::fused(oa_bench::policy_flag()),
            &FaultPlan::none(),
            &mut sink,
        )
        .expect("valid grouping");
        oa_bench::write_trace(&path, &sink.into_events());
    }
    rec.finish();
}

/// Renders Figures 3–6 and the R = 53 example; returns the R = 53
/// timing table for the optional trace dump.
fn render_shapes() -> TimingTable {
    // Figure 3: no dedicated post processors — hatched mains, then the
    // post wave at the end.
    let t = TimingTable::new([100.0; 8], 18.0).unwrap();
    show(
        "Figure 3: R2 = 0, posts after the mains",
        Instance::new(4, 3, 16),
        &t,
        &Grouping::uniform(4, 4, 0),
    );

    // Figure 4: dedicated post processors that cannot keep up — posts
    // overpass each set of mains.
    let t = TimingTable::new([100.0; 8], 60.0).unwrap();
    show(
        "Figure 4: posts overpassing on dedicated processors",
        Instance::new(5, 4, 22),
        &t,
        &Grouping::uniform(4, 5, 2),
    );

    // Figures 5–6: incomplete final set; the overpassed posts finish on
    // the Rleft processors freed by the disbanded groups.
    let t = TimingTable::new([100.0; 8], 60.0).unwrap();
    show(
        "Figures 5-6: incomplete last set, trailing posts on freed groups",
        Instance::new(5, 5, 17),
        &t,
        &Grouping::uniform(4, 4, 1),
    );

    // Bonus: the paper's R = 53 example under Improvement 1 (3×8 + 4×7).
    let t = oa_platform::presets::reference_cluster(53).timing;
    show(
        "R = 53 example, Improvement 1 grouping (first 6 months)",
        Instance::new(10, 6, 53),
        &t,
        &Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1),
    );
    t
}
