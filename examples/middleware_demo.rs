//! The grid protocol under stress: a campaign submitted while the
//! fastest cluster is down, then resubmitted with every cluster
//! healthy. A cluster that is down never joins the daemon, so the
//! protocol plans over the clusters that did.
//!
//! Run: `cargo run --release --example middleware_demo`

use ocean_atmosphere::prelude::*;
use ocean_atmosphere::service::protocol::run_protocol;

fn main() {
    let grid = benchmark_grid(25);
    let (ns, nm) = (8, 60);

    // Degraded grid: the fastest cluster is down.
    let survivors = Grid::from_clusters(grid.clusters()[1..].to_vec());
    let degraded_report =
        run_protocol(&survivors, Heuristic::Knapsack, ns, nm, 1).expect("4 clusters remain");
    println!(
        "degraded grid (sagittaire down): makespan {:.1} h",
        degraded_report.makespan / 3600.0
    );
    for r in &degraded_report.reports {
        println!(
            "  {:<12} {} scenario(s)",
            survivors.cluster(r.cluster).name,
            r.scenarios.len()
        );
    }
    let placed: usize = degraded_report
        .reports
        .iter()
        .map(|r| r.scenarios.len())
        .sum();
    assert_eq!(placed, ns as usize);

    // Healthy grid.
    let healthy_report = run_protocol(&grid, Heuristic::Knapsack, ns, nm, 1).expect("grid usable");
    println!(
        "\nhealthy grid: makespan {:.1} h",
        healthy_report.makespan / 3600.0
    );
    for r in &healthy_report.reports {
        println!(
            "  {:<12} {} scenario(s)  grouping {}",
            grid.cluster(r.cluster).name,
            r.scenarios.len(),
            r.grouping
        );
    }
    println!(
        "\nlosing the fastest cluster costs {:.1}% of makespan",
        gain_pct(degraded_report.makespan, healthy_report.makespan)
    );
}
