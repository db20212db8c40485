//! Figure 9: the six execution steps of the grid submission protocol,
//! observed as one session of the campaign daemon.
//!
//! Run: `cargo run --release -p oa-bench --bin fig9_protocol [--jobs N]`

use oa_bench::{write_json, SweepRecorder};
use oa_platform::prelude::*;
use oa_sched::prelude::*;
use oa_service::protocol::{run_protocol, ProtocolEvent};

fn main() {
    let (ns, nm) = (10, 60);
    let grid = benchmark_grid(40);
    println!(
        "== Figure 9: execution steps over {} clusters ==",
        grid.len()
    );
    let mut rec = SweepRecorder::start("fig9_protocol");
    let jobs = oa_bench::jobs();
    let report = rec.phase("protocol", grid.len(), || {
        run_protocol(&grid, Heuristic::Knapsack, ns, nm, jobs).expect("grid is usable")
    });

    for event in &report.trace {
        let line = match event {
            ProtocolEvent::RequestReceived { request, ns, nm } => {
                format!("(1) client request #{request}: NS = {ns}, NM = {nm}")
            }
            ProtocolEvent::PerfQueried { cluster } => {
                format!(
                    "(2) {} computes its performance vector (knapsack model)",
                    name(&grid, *cluster)
                )
            }
            ProtocolEvent::PerfReceived { cluster } => {
                format!("(3) {} returned its vector", name(&grid, *cluster))
            }
            ProtocolEvent::RepartitionComputed { nb_dags } => {
                format!("(4) client computed the repartition: {nb_dags:?}")
            }
            ProtocolEvent::ExecSent { cluster, scenarios } => {
                format!(
                    "(5) {} receives {scenarios} scenario(s)",
                    name(&grid, *cluster)
                )
            }
            ProtocolEvent::ReportReceived { cluster, makespan } => {
                format!(
                    "(6) {} finished in {:.1} h (virtual)",
                    name(&grid, *cluster),
                    makespan / 3600.0
                )
            }
        };
        println!("{line}");
    }
    println!(
        "\ngrid makespan: {:.1} h (virtual time)",
        report.makespan / 3600.0
    );
    for r in &report.reports {
        println!(
            "  {:<12} scenarios {:?} grouping {}",
            name(&grid, r.cluster),
            r.scenarios,
            r.grouping
        );
    }
    write_json("fig9_protocol", &report);
    rec.finish();
}

fn name(grid: &Grid, id: oa_platform::cluster::ClusterId) -> String {
    grid.cluster(id).name.clone()
}
