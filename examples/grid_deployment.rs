//! Spreading a campaign over a heterogeneous grid (Sections 5–6):
//! performance vectors, Algorithm 1, per-cluster execution — both
//! directly through the scheduler and through the daemon's six-step
//! grid protocol.
//!
//! Run: `cargo run --release --example grid_deployment`

use ocean_atmosphere::prelude::*;
use ocean_atmosphere::service::protocol::run_protocol;

fn main() {
    let (ns, nm) = (10u32, 120u32);
    let grid = benchmark_grid(30);
    println!("grid: {} clusters × 30 processors", grid.len());
    for (_, c) in grid.iter() {
        println!(
            "  {:<12} pcr(11) = {:.0} s",
            c.name,
            c.timing.main_secs(11) - 2.0
        );
    }

    // Step 2-3: per-cluster performance vectors (knapsack model).
    let vectors = grid_performance(&grid, Heuristic::Knapsack, ns, nm);
    println!("\nperformance vectors (hours for 1..={ns} scenarios):");
    for v in &vectors {
        let hours: Vec<String> = v
            .makespans
            .iter()
            .map(|m| format!("{:.0}", m / 3600.0))
            .collect();
        println!(
            "  {:<12} [{}]",
            grid.cluster(v.cluster).name,
            hours.join(", ")
        );
    }

    // Step 4: Algorithm 1.
    let plan = repartition(&vectors);
    println!("\nAlgorithm 1 repartition (nb_dags): {:?}", plan.nb_dags);
    println!(
        "predicted grid makespan: {:.1} h",
        plan.predicted_makespan(&vectors) / 3600.0
    );

    // Steps 5-6: execute on every cluster.
    let config = GridConfig::default();
    let outcome = execute_repartition(
        &grid,
        &plan,
        Heuristic::Knapsack,
        nm,
        &config,
        &mut NullTracer,
    )
    .expect("plan is feasible");
    println!("executed grid makespan: {:.1} h", outcome.makespan / 3600.0);
    for c in &outcome.clusters {
        println!(
            "  {:<12} scenarios {:?} -> {:.1} h",
            grid.cluster(c.cluster).name,
            c.scenarios,
            c.makespan() / 3600.0
        );
    }

    // The same campaign through the grid protocol: identical result.
    let report = run_protocol(&grid, Heuristic::Knapsack, ns, nm, 1).expect("grid usable");
    println!(
        "\nvia the grid protocol: makespan {:.1} h ({} protocol events)",
        report.makespan / 3600.0,
        report.trace.len()
    );
    assert_eq!(report.makespan.to_bits(), outcome.makespan.to_bits());

    // How much does the grid buy over the best single cluster?
    let single = vectors
        .iter()
        .map(|v| v.of(ns))
        .fold(f64::INFINITY, f64::min);
    println!(
        "best single cluster would need {:.1} h; the grid saves {:.1}%",
        single / 3600.0,
        gain_pct(single, outcome.makespan)
    );
}
