//! The paper's future work in action: scheduling a *different*
//! application with the chain planner — independent chains of
//! identical DAGs of moldable tasks (here: a molecular-dynamics-style
//! pipeline with a wide 2..=16 allocation range), described as a
//! workflow IR like any spec file.
//!
//! Run: `cargo run --release --example generic_workflow`

use ocean_atmosphere::prelude::*;

fn main() {
    // A replica-exchange MD campaign: 8 replicas × 500 exchange windows.
    // Each window: a moldable dynamics step (2..=16 cores), a blocking
    // exchange barrier step, then trajectory post-processing that does
    // not gate the next window.
    let range = MoldableSpec {
        min_procs: 2,
        max_procs: 16,
    };
    let dynamics: Vec<f64> = range
        .allocations()
        .map(|p| 30.0 + 2500.0 / p as f64 + 2.5 * p as f64)
        .collect();
    let mut ir = WorkflowIr::new();
    for replica in 0..8 {
        let mut barrier: Option<NodeId> = None;
        for window in 0..500 {
            let step = ir.add_task(
                &format!("dynamics r{replica} w{window}"),
                IrTaskKind::Moldable(range),
                DurationModel::PerAllocation(dynamics.clone()),
            );
            let exchange = ir.add_task(
                &format!("exchange r{replica} w{window}"),
                IrTaskKind::Rigid(1),
                DurationModel::Fixed(8.0),
            );
            let trajectory = ir.add_task(
                &format!("trajectory r{replica} w{window}"),
                IrTaskKind::Rigid(1),
                DurationModel::Fixed(20.0),
            );
            for (from, to) in [
                (barrier, step),
                (Some(step), exchange),
                (Some(exchange), trajectory),
            ] {
                if let Some(from) = from {
                    ir.add_dep(from, to).expect("forward edge");
                }
            }
            barrier = Some(exchange);
        }
    }
    let table = PcrModel::reference().table(1.0).expect("reference table");
    let plan = ChainPlan::of(&ir, &table).expect("chains of identical units");
    let row = plan.row();
    println!(
        "workload: {} chains × {} units; unit on {} procs {:.0} s, on {} procs {:.0} s, trailing {:.0} s",
        plan.chains(),
        plan.units(),
        plan.range().min_procs,
        row[0],
        plan.range().max_procs,
        row[row.len() - 1],
        plan.trailing_secs()
    );

    println!(
        "\n{:<6} {:>12} {:>12} {:>12}  best grouping",
        "R", "basic(h)", "knapsack(h)", "balanced(h)"
    );
    for r in [9u32, 13, 19, 27, 42, 70, 101, 121] {
        let basic = plan.basic(r).expect("fits");
        let knap = plan.knapsack(r).expect("fits");
        let (bal_groups, bal) = plan.balanced(r).expect("fits");
        let bm = plan.estimate(r, &basic).expect("valid").makespan;
        let km = plan.estimate(r, &knap).expect("valid").makespan;
        println!(
            "{:<6} {:>12.1} {:>12.1} {:>12.1}  {:?}+pool{}",
            r,
            bm / 3600.0,
            km / 3600.0,
            bal.makespan / 3600.0,
            bal_groups.groups(),
            bal_groups.post_procs
        );
    }

    println!(
        "\nnote: the raw knapsack can lose to uniform groups on wide ranges (the\n\
         per-chain bottleneck documented in oa_sched::chains); the balanced\n\
         heuristic sweeps group counts and never loses to either."
    );
}
