//! Failure resilience: what a group crash costs the campaign under the
//! application's monthly checkpointing, versus a counterfactual
//! without restart files.
//!
//! Run: `cargo run --release -p oa-bench --bin failure_impact [--fast] [--jobs N]`

use oa_bench::{fast_mode, pool, row, stats, write_json, SweepRecorder};
use oa_platform::prelude::*;
use oa_sched::prelude::*;
use oa_sim::prelude::*;
use oa_trace::NullTracer;

fn main() {
    let nm = if fast_mode() { 120 } else { 600 };
    let (ns, r) = (10u32, 53u32);
    let table = reference_cluster(r).timing;
    let inst = Instance::new(ns, nm, r);
    let grouping = Heuristic::Knapsack
        .grouping(inst, &table)
        .expect("feasible");
    let clean = execute_default(inst, &table, &grouping)
        .expect("valid")
        .makespan;

    println!("== One group crash: overhead vs failure time (NS = {ns}, NM = {nm}, R = {r}) ==");
    println!(
        "grouping: {grouping}; failure-free makespan {:.1} h\n",
        clean / 3600.0
    );
    let widths = [12usize, 16, 16, 14];
    println!(
        "{}",
        row(
            &[
                "fail at".into(),
                "checkpoint(+%)".into(),
                "restart(+%)".into(),
                "ckpt saves".into(),
            ],
            &widths
        )
    );

    #[derive(serde::Serialize)]
    struct Point {
        fail_fraction: f64,
        checkpoint_overhead_pct: f64,
        restart_overhead_pct: f64,
    }
    let pool = pool();
    let mut rec = SweepRecorder::start("failure_impact");
    let pcts = [10u32, 25, 50, 75, 90];
    let outcomes = rec.phase("crash_sweep", pcts.len(), || {
        pool.par_map(&pcts, |&pct| {
            let tf = clean * pct as f64 / 100.0;
            let plan = FaultPlan::none().kill(0, tf);
            let run = |recovery| {
                let config = CampaignConfig {
                    recovery,
                    ..CampaignConfig::default()
                };
                simulate_campaign(inst, &table, &grouping, &config, &plan, &mut NullTracer)
                    .expect("valid grouping")
                    .makespan()
                    .unwrap_or(f64::INFINITY)
            };
            (
                run(Recovery::MonthlyCheckpoint),
                run(Recovery::RestartScenario),
            )
        })
    });

    let mut series = Vec::new();
    let mut savings = Vec::new();
    for (pct, (ck, rs)) in pcts.into_iter().zip(outcomes) {
        let ck_over = (ck - clean) / clean * 100.0;
        let rs_over = (rs - clean) / clean * 100.0;
        println!(
            "{}",
            row(
                &[
                    format!("{pct}%"),
                    format!("{ck_over:+.2}"),
                    format!("{rs_over:+.2}"),
                    format!("{:.2}pp", rs_over - ck_over),
                ],
                &widths
            )
        );
        savings.push(rs_over - ck_over);
        series.push(Point {
            fail_fraction: pct as f64 / 100.0,
            checkpoint_overhead_pct: ck_over,
            restart_overhead_pct: rs_over,
        });
    }

    let s = stats(&savings);
    println!(
        "\nmonthly checkpointing saves {:.1}pp of overhead on average (max {:.1}pp):\n\
         losing one group costs roughly the group's share of throughput, while\n\
         losing a scenario's history additionally serializes its re-run.",
        s.mean, s.max
    );
    write_json("failure_impact", &series);

    // --- Grid level: a whole cluster dies -------------------------------
    println!("\n== Cluster loss at grid level (5 clusters × 30 procs, NS = 10) ==");
    let grid = benchmark_grid(30);
    let link = Link::gigabit();
    let grid_nm = if fast_mode() { 60 } else { 240 };
    let clean = run_grid(
        &grid,
        Heuristic::Knapsack,
        ns,
        grid_nm,
        &GridConfig::default(),
        &mut NullTracer,
    )
    .expect("feasible")
    .makespan;
    println!("failure-free grid makespan: {:.1} h", clean / 3600.0);
    let grid_cases: Vec<(&str, u32, ClusterFailurePolicy)> =
        [("fastest (sagittaire)", 0u32), ("slowest (grelon)", 4u32)]
            .into_iter()
            .flat_map(|(label, victim)| {
                [ClusterFailurePolicy::Strand, ClusterFailurePolicy::Replan]
                    .into_iter()
                    .map(move |policy| (label, victim, policy))
            })
            .collect();
    let grid_outcomes = rec.phase("cluster_loss", grid_cases.len(), || {
        pool.par_map(&grid_cases, |&(_, victim, policy)| {
            run_grid_with_cluster_failure(
                &grid,
                Heuristic::Knapsack,
                ns,
                grid_nm,
                ClusterFailureSpec {
                    failed: oa_platform::cluster::ClusterId(victim),
                    at_fraction: 0.5,
                    policy,
                },
                &link,
            )
            .expect("feasible")
        })
    });
    for ((label, _, policy), out) in grid_cases.into_iter().zip(grid_outcomes) {
        println!(
            "  {label} dies at 50% · {policy:?}: makespan {:.1} h ({:+.1}%), {} scenario(s) affected, complete = {}",
            out.makespan / 3600.0,
            (out.makespan - clean) / clean * 100.0,
            out.victim_scenarios.len(),
            out.complete,
        );
    }
    rec.finish();
}
