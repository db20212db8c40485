//! A full climate-prediction campaign on one cluster, heuristic by
//! heuristic — the workload the paper's introduction motivates: an
//! ensemble of coupled ocean-atmosphere scenarios exploring the
//! uncertainty of 21st-century warming.
//!
//! Run: `cargo run --release --example climate_campaign [R]`

use ocean_atmosphere::prelude::*;

fn main() {
    let r: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(53);

    // The application structure (Figure 1): 10 scenarios of 1800 months.
    let shape = ExperimentShape::canonical();
    let experiment = lower_fused(shape);
    experiment.validate().expect("chains are acyclic");
    println!(
        "campaign: {} scenarios × {} months = {} monthly simulations ({} fused tasks)",
        shape.scenarios,
        shape.months,
        shape.total_months(),
        experiment.node_count()
    );
    println!(
        "data handed between consecutive months: {} MB; per scenario: {} MB",
        INTER_MONTH_TRANSFER.as_mb(),
        oa_workflow::data::scenario_internal_traffic(shape.months).as_mb()
    );

    let cluster = reference_cluster(r);
    let inst = Instance::for_shape(shape, r);
    println!("\ncluster: {r} processors (reference timing)\n");

    let base = Heuristic::Basic
        .makespan(inst, &cluster.timing)
        .expect("cluster too small");
    println!(
        "{:<26} {:<26} {:>12} {:>8} {:>7}",
        "heuristic", "grouping", "makespan(h)", "gain%", "util%"
    );
    for h in Heuristic::PAPER {
        let grouping = h.grouping(inst, &cluster.timing).expect("feasible");
        let schedule = execute_default(inst, &cluster.timing, &grouping).expect("valid");
        let m = metrics(&schedule);
        println!(
            "{:<26} {:<26} {:>12.1} {:>8.2} {:>7.1}",
            h.label(),
            grouping.to_string(),
            schedule.makespan / 3600.0,
            gain_pct(base, schedule.makespan),
            m.utilization * 100.0,
        );
    }

    // What the analytic model predicted for the basic choice.
    let b = best_group(inst, &cluster.timing).expect("feasible");
    println!(
        "\nanalytic model (Eq. 1-5): G = {}, nbmax = {}, predicted makespan {:.1} h",
        b.g,
        b.nbmax,
        b.makespan / 3600.0
    );
}
