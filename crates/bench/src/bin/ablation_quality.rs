//! Quality ablations for the design choices DESIGN.md calls out:
//!
//! * scenario-selection policy (least-advanced vs round-robin vs
//!   most-advanced) — makespan and fairness;
//! * exact knapsack DP vs greedy knapsack inside Improvement 3;
//! * analytic `G` selection (Equations 1–5) vs exhaustive selection by
//!   the event estimator;
//! * dedicated post processors vs post-at-end for the basic grouping.
//!
//! Run: `cargo run --release -p oa-bench --bin ablation_quality [--fast] [--jobs N]`

use oa_bench::{fast_mode, pool, stats, write_json, SweepRecorder};
use oa_platform::prelude::*;
use oa_sched::analytic;
use oa_sched::prelude::*;
use oa_sim::prelude::*;
use oa_workflow::moldable::MoldableSpec;

fn main() {
    let nm = if fast_mode() { 120 } else { 1800 };
    let ns = 10u32;
    let table = reference_cluster(120).timing;
    let rs: Vec<u32> = (11..=120).step_by(3).collect();
    let pool = pool();
    let mut rec = SweepRecorder::start("ablation_quality");

    // --- Policy ablation -------------------------------------------------
    println!("== Ablation 1: scenario policy (knapsack grouping, R sweep) ==");
    let policy_rows = rec.phase("policy", rs.len(), || {
        pool.par_map(&rs, |&r| {
            let inst = Instance::new(ns, nm, r);
            let grouping = Heuristic::Knapsack
                .grouping(inst, &table)
                .expect("feasible");
            let run = |policy| {
                let config = CampaignConfig::fused(policy);
                let s = simulate_campaign(
                    inst,
                    &table,
                    &grouping,
                    &config,
                    &FaultPlan::none(),
                    &mut oa_trace::NullTracer,
                )
                .expect("valid")
                .into_schedule()
                .expect("fused fault-free runs record a schedule");
                let m = metrics(&s);
                (s.makespan, m.fairness_stddev)
            };
            let (fair_ms, fair_sd) = run(ScenarioPolicy::LeastAdvanced);
            let (rr_ms, _) = run(ScenarioPolicy::RoundRobin);
            let (most_ms, most_sd) = run(ScenarioPolicy::MostAdvanced);
            (
                gain_pct(rr_ms, fair_ms),
                gain_pct(most_ms, fair_ms),
                (most_sd > 0.0).then(|| fair_sd / most_sd),
            )
        })
    });
    let deltas_rr: Vec<f64> = policy_rows.iter().map(|&(d, _, _)| d).collect();
    let deltas_most: Vec<f64> = policy_rows.iter().map(|&(_, d, _)| d).collect();
    let fairness_ratio: Vec<f64> = policy_rows.iter().filter_map(|&(_, _, f)| f).collect();
    println!(
        "least-advanced vs round-robin: mean gain {:.2}% (sd {:.2})",
        stats(&deltas_rr).mean,
        stats(&deltas_rr).stddev
    );
    println!(
        "least-advanced vs most-advanced: mean gain {:.2}% (sd {:.2})",
        stats(&deltas_most).mean,
        stats(&deltas_most).stddev
    );
    if !fairness_ratio.is_empty() {
        println!(
            "fairness stddev ratio (least/most): {:.2} (lower = fairer)",
            stats(&fairness_ratio).mean
        );
    }

    // --- Exact vs greedy knapsack ---------------------------------------
    println!("\n== Ablation 2: exact DP vs greedy knapsack ==");
    let exact_gain = rec.phase("exact_vs_greedy", rs.len(), || {
        pool.par_map(&rs, |&r| {
            let inst = Instance::new(ns, nm, r);
            let e = Heuristic::Knapsack
                .makespan(inst, &table)
                .expect("feasible");
            let g = Heuristic::KnapsackGreedy
                .makespan(inst, &table)
                .expect("feasible");
            gain_pct(g, e)
        })
    });
    let s = stats(&exact_gain);
    println!(
        "exact vs greedy: mean gain {:.2}%  max {:.2}%  min {:.2}%",
        s.mean, s.max, s.min
    );

    // --- Analytic G selection vs estimator-exhaustive selection ----------
    println!("\n== Ablation 3: analytic Eq. 1-5 selection vs estimator sweep ==");
    let selection_rows = rec.phase("analytic_selection", rs.len(), || {
        pool.par_map(&rs, |&r| {
            let inst = Instance::new(ns, nm, r);
            let analytic_best = analytic::best_group(inst, &table)?;
            // Exhaustive: evaluate every uniform grouping with the estimator.
            let mut best_sim = f64::INFINITY;
            let mut best_g = 0;
            for g in MoldableSpec::pcr().allocations() {
                let nbmax = inst.nbmax(g);
                if nbmax == 0 {
                    continue;
                }
                let grouping = Grouping::uniform(g, nbmax, inst.r - nbmax * g);
                let ms = estimate(inst, &table, &grouping).expect("valid").makespan;
                if ms < best_sim {
                    best_sim = ms;
                    best_g = g;
                }
            }
            let chosen = Grouping::uniform(
                analytic_best.g,
                analytic_best.nbmax,
                inst.r - analytic_best.nbmax * analytic_best.g,
            );
            let chosen_ms = estimate(inst, &table, &chosen).expect("valid").makespan;
            Some((
                analytic_best.g != best_g,
                gain_pct(chosen_ms, best_sim).max(0.0),
            ))
        })
    });
    let disagreements = selection_rows
        .iter()
        .filter(|row| matches!(row, Some((true, _))))
        .count();
    let selection_regret: Vec<f64> = selection_rows
        .iter()
        .filter_map(|row| row.map(|(_, regret)| regret))
        .collect();
    let s = stats(&selection_regret);
    println!(
        "G disagreements: {disagreements}/{}; regret of analytic choice: mean {:.3}% max {:.3}%",
        rs.len(),
        s.mean,
        s.max
    );

    // --- Dedicated posts vs post-at-end ----------------------------------
    println!("\n== Ablation 4: dedicated post processors vs post-at-end ==");
    let post_mode_gain: Vec<f64> = rec
        .phase("post_mode", rs.len(), || {
            pool.par_map(&rs, |&r| {
                let inst = Instance::new(ns, nm, r);
                let b = analytic::best_group(inst, &table)?;
                let dedicated = Grouping::uniform(b.g, b.nbmax, inst.r - b.nbmax * b.g);
                let at_end = Grouping::uniform(b.g, b.nbmax, 0);
                let d = estimate(inst, &table, &dedicated).expect("valid").makespan;
                let e = estimate(inst, &table, &at_end).expect("valid").makespan;
                Some(gain_pct(e, d))
            })
        })
        .into_iter()
        .flatten()
        .collect();
    let s = stats(&post_mode_gain);
    println!(
        "dedicated vs at-end (same groups): mean gain {:.2}%  min {:.2}%  max {:.2}%",
        s.mean, s.min, s.max
    );

    // --- Balanced vs raw knapsack ----------------------------------------
    println!("\n== Ablation 5: balanced refinement vs raw knapsack ==");
    let balanced_gain = rec.phase("balanced", rs.len(), || {
        pool.par_map(&rs, |&r| {
            let inst = Instance::new(ns, nm, r);
            let k = Heuristic::Knapsack
                .makespan(inst, &table)
                .expect("feasible");
            let b = Heuristic::Balanced
                .makespan(inst, &table)
                .expect("feasible");
            gain_pct(k, b)
        })
    });
    let s = stats(&balanced_gain);
    println!(
        "balanced vs knapsack (NS = {ns}): mean gain {:.2}%  max {:.2}%  min {:.2}%",
        s.mean, s.max, s.min
    );
    let small_ns_gain = rec.phase("balanced_ns2", rs.len(), || {
        pool.par_map(&rs, |&r| {
            let inst = Instance::new(2, nm, r);
            let k = Heuristic::Knapsack
                .makespan(inst, &table)
                .expect("feasible");
            let b = Heuristic::Balanced
                .makespan(inst, &table)
                .expect("feasible");
            gain_pct(k, b)
        })
    });
    let s2 = stats(&small_ns_gain);
    println!(
        "balanced vs knapsack (NS = 2, the pitfall regime): mean gain {:.2}%  max {:.2}%",
        s2.mean, s2.max
    );

    #[derive(serde::Serialize)]
    struct Dump {
        policy_gain_vs_round_robin: Vec<f64>,
        policy_gain_vs_most_advanced: Vec<f64>,
        exact_vs_greedy_gain: Vec<f64>,
        analytic_selection_regret: Vec<f64>,
        dedicated_post_gain: Vec<f64>,
        balanced_vs_knapsack_gain: Vec<f64>,
        balanced_vs_knapsack_gain_ns2: Vec<f64>,
    }
    write_json(
        "ablation_quality",
        &Dump {
            policy_gain_vs_round_robin: deltas_rr,
            policy_gain_vs_most_advanced: deltas_most,
            exact_vs_greedy_gain: exact_gain,
            analytic_selection_regret: selection_regret,
            dedicated_post_gain: post_mode_gain,
            balanced_vs_knapsack_gain: balanced_gain,
            balanced_vs_knapsack_gain_ns2: small_ns_gain,
        },
    );
    rec.finish();
}
