//! Visualize a schedule: the first year of a small campaign as an
//! ASCII Gantt chart, with and without dedicated post processors.
//!
//! Since the observability layer landed, the chart is drawn from the
//! campaign's *event trace*: the engine records structured
//! [`TraceEvent`]s into a sink while it runs, the metrics registry
//! folds the same stream live, and the renderer consumes the recorded
//! events — the very stream `oa trace export` replays from disk.
//!
//! Run: `cargo run --release --example gantt_view`

use ocean_atmosphere::prelude::*;

fn main() {
    let cluster = reference_cluster(26);
    let inst = Instance::new(4, 12, 26);

    for h in [Heuristic::Basic, Heuristic::Knapsack] {
        let grouping = h.grouping(inst, &cluster.timing).expect("feasible");

        // Execute with a metered buffering sink: the events feed the
        // Gantt renderer, the registry answers summary questions.
        let mut sink = Metered::new(VecTracer::new());
        let schedule = simulate_campaign(
            inst,
            &cluster.timing,
            &grouping,
            &CampaignConfig::default(),
            &FaultPlan::none(),
            &mut sink,
        )
        .expect("valid")
        .into_schedule()
        .expect("fused fault-free runs record a schedule");
        schedule.validate().expect("valid schedule");

        let snap = sink.registry.snapshot();
        let events = sink.inner.into_events();
        println!("== {} : {} ==", h.label(), grouping);
        print!(
            "{}",
            render_events(
                &events,
                GanttOptions {
                    width: 76,
                    by_group: true
                }
            )
        );
        println!(
            "   {} mains + {} posts traced, {} events total\n",
            snap.counter(ocean_atmosphere::trace::metrics::keys::TASKS_MAIN)
                .unwrap_or(0),
            snap.counter(ocean_atmosphere::trace::metrics::keys::TASKS_POST)
                .unwrap_or(0),
            events.len()
        );
    }

    // Per-processor view of a tiny run, to see the group internals.
    // `render` converts the schedule to its event stream internally —
    // the post-hoc path, same renderer.
    let inst = Instance::new(2, 3, 11);
    let grouping = Grouping::new(vec![6, 4], 1);
    let schedule = execute_default(inst, &cluster.timing, &grouping).expect("valid");
    println!("== per-processor view ({grouping}) ==");
    print!(
        "{}",
        render(
            &schedule,
            GanttOptions {
                width: 76,
                by_group: false
            }
        )
    );
}
