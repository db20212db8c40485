//! # oa-sched — the scheduling contribution of the paper
//!
//! This crate implements the heart of *"Ocean-Atmosphere Modelization
//! over the Grid"*: dividing a cluster's processors into disjoint
//! groups for the moldable main-processing tasks of an ensemble
//! climate campaign, and spreading the campaign over a heterogeneous
//! grid.
//!
//! * [`params`] — instance notation (`NS`, `NM`, `R`, `nbmax`, …);
//! * [`grouping`] — the [`grouping::Grouping`] type with validation;
//! * [`analytic`] — the closed-form makespan model of Equations 1–5;
//! * [`estimate`] — event-driven makespan evaluation of arbitrary
//!   groupings under the paper's least-advanced-first policy;
//! * [`heuristics`] — the basic heuristic and its three improvements
//!   (idle redistribution, no post reservation, exact knapsack), plus
//!   a greedy-knapsack ablation and the balanced refinement;
//! * [`generic`] — the same planner over any workload of independent
//!   chains of identical moldable units (the paper's future work);
//! * [`hetero`] — per-cluster performance vectors and the greedy
//!   scenario repartition of Algorithm 1;
//! * [`kernel`] — the integer-time gate `oa-sim` and its certifier share;
//! * [`incremental`] — Algorithm 1 as an online scheduler: arrivals,
//!   departures and cluster churn over cached performance vectors,
//!   bitwise-equal to the batch greedy (the planning core of
//!   `oa-service`);
//! * [`memo`] — the cross-variant planning memo: retained knapsack DP
//!   tables and a makespan cache keyed by timing table, bitwise
//!   equal to the uncached heuristics (the pricing core of mass-batch
//!   sweeps and `oa-service` `ClusterJoin`);
//! * [`policy`] — campaign policy knobs shared by every event loop:
//!   scenario-selection queues, task granularity, fault plans and
//!   recovery models (the configuration of `oa-sim::engine`);
//! * [`read`] — the one reader of campaign fields from outside the
//!   program, each refusal with its stable code;
//! * [`time`] — the shared totally-ordered `f64` heap key every
//!   discrete-event loop in the workspace uses.
//!
//! # Examples
//!
//! ```
//! use oa_sched::prelude::*;
//! use oa_platform::prelude::*;
//!
//! // The paper's Section 4.2 example: 53 processors, 10 scenarios.
//! let table = PcrModel::reference().table(1.0).unwrap();
//! let inst = Instance::new(10, 1800, 53);
//!
//! let basic = Heuristic::Basic.grouping(inst, &table).unwrap();
//! assert_eq!(format!("{basic}"), "7×7 | post:4");
//!
//! let knapsack = Heuristic::Knapsack.grouping(inst, &table).unwrap();
//! let base_ms = Heuristic::Basic.makespan(inst, &table).unwrap();
//! let knap_ms = estimate(inst, &table, &knapsack).unwrap().makespan;
//! assert!(knap_ms <= base_ms); // the knapsack grouping wins here
//! ```

#![warn(missing_docs)]

pub mod analytic;
pub mod estimate;
pub mod generic;
pub mod grouping;
pub mod hetero;
pub mod heuristics;
pub mod incremental;
pub mod kernel;
pub mod memo;
pub mod params;
mod planner;
pub mod policy;
pub mod read;
pub mod time;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::analytic::{best_group, best_group_with, Breakdown};
    pub use crate::estimate::{estimate, Estimate};
    pub use crate::generic;
    pub use crate::grouping::{Grouping, GroupingError};
    pub use crate::hetero::{
        grid_performance, grid_performance_with, performance_vector, performance_vector_with,
        repartition, repartition_exact, repartition_n, PerformanceVector, Repartition,
    };
    pub use crate::heuristics::{gain_pct, Heuristic, HeuristicError};
    pub use crate::incremental::{Departure, IncrementalRepartition, Rebalance};
    pub use crate::memo::{MemoStats, PlanMemo};
    pub use crate::params::Instance;
    pub use crate::policy::{
        CampaignConfig, FaultPlan, Granularity, Recovery, ScenarioPolicy, ScenarioQueue,
    };
    pub use crate::time::{Time, TimeInterval};
}

#[cfg(test)]
mod proptests {
    use crate::analytic;
    use crate::estimate::estimate;
    use crate::grouping::Grouping;
    use crate::heuristics::Heuristic;
    use crate::params::Instance;
    use oa_platform::timing::TimingTable;
    use proptest::prelude::*;

    fn arb_table() -> impl Strategy<Value = TimingTable> {
        // Random but physical tables: decreasing mains, positive post.
        (
            50.0f64..4000.0,
            1.0f64..400.0,
            proptest::collection::vec(0.0f64..500.0, 8),
        )
            .prop_map(|(t11, tp, bumps)| {
                let mut main = [0.0f64; 8];
                let mut acc = t11;
                for i in (0..8).rev() {
                    main[i] = acc;
                    acc += bumps[i];
                }
                TimingTable::new(main, tp).expect("constructed non-increasing")
            })
    }

    fn arb_instance() -> impl Strategy<Value = Instance> {
        (1u32..=12, 1u32..=40, 4u32..=140).prop_map(|(ns, nm, r)| Instance::new(ns, nm, r))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn heuristic_groupings_always_validate((inst, table) in (arb_instance(), arb_table())) {
            for h in Heuristic::PAPER {
                match h.grouping(inst, &table) {
                    Ok(g) => prop_assert!(g.validate(inst).is_ok(), "{h:?} produced invalid grouping"),
                    Err(_) => prop_assert!(inst.r < 4, "{h:?} failed on feasible instance"),
                }
            }
        }

        #[test]
        fn estimate_never_beats_critical_path((inst, table) in (arb_instance(), arb_table())) {
            if let Ok(g) = Heuristic::Basic.grouping(inst, &table) {
                let e = estimate(inst, &table, &g).unwrap();
                // Lower bound: one scenario's chain on the largest group.
                let best_main = table.main_secs(11);
                let lb = inst.nm as f64 * best_main + table.post_secs();
                prop_assert!(e.makespan + 1e-6 >= lb,
                    "makespan {} below critical path {lb}", e.makespan);
                // And the work bound: nbtasks mains on ≤ R procs.
                let work = inst.nbtasks() as f64 * 4.0 * table.main_secs(4);
                prop_assert!(e.makespan <= work, "no schedule should exceed serial work");
            }
        }

        #[test]
        fn analytic_equals_estimate_when_exact((inst, table) in (arb_instance(), arb_table())) {
            // In the no-overpass, dedicated-post regime the closed form
            // and the event simulation agree exactly.
            for g in 4u32..=11 {
                let Some(b) = analytic::makespan(inst, &table, g) else { continue };
                let ratio = (table.main_secs(g) / table.post_secs()) as u64;
                let keeps_up = b.r2 > 0 && ratio * b.r2 as u64 >= b.nbmax as u64;
                if b.nbused == 0 && keeps_up && b.nbmax as u64 <= inst.r as u64 {
                    let e = estimate(inst, &table, &Grouping::uniform(g, b.nbmax, b.r2)).unwrap();
                    prop_assert!((e.makespan - b.makespan).abs() < 1e-6,
                        "G={g}: sim {} vs analytic {}", e.makespan, b.makespan);
                }
            }
        }

        #[test]
        fn estimate_monotone_in_months(table in arb_table(), ns in 1u32..=8, r in 12u32..=90) {
            let small = Instance::new(ns, 5, r);
            let big = Instance::new(ns, 10, r);
            if let (Ok(a), Ok(b)) = (
                Heuristic::Knapsack.makespan(small, &table),
                Heuristic::Knapsack.makespan(big, &table),
            ) {
                prop_assert!(b + 1e-9 >= a);
            }
        }

        #[test]
        fn memoized_planning_is_bitwise_uncached((inst, table) in (arb_instance(), arb_table())) {
            // The planning-memo invariant: groupings and performance
            // vectors answered from the retained DP table and the
            // makespan cache equal the uncached heuristic bitwise,
            // regardless of query history.
            let mut memo = crate::memo::PlanMemo::new();
            let pool = oa_par::Pool::serial();
            for _ in 0..2 { // second lap replays from the cache
                prop_assert_eq!(
                    memo.knapsack_grouping(inst, &table),
                    Heuristic::Knapsack.grouping(inst, &table)
                );
                for h in [Heuristic::Knapsack, Heuristic::Basic] {
                    let id = oa_platform::cluster::ClusterId(1);
                    let want = crate::hetero::performance_vector_with(
                        id, inst.r, &table, h, inst.ns, inst.nm, &pool);
                    let got = memo.performance_vector(
                        id, inst.r, &table, h, inst.ns, inst.nm, &pool);
                    let wb: Vec<u64> = want.makespans.iter().map(|m| m.to_bits()).collect();
                    let gb: Vec<u64> = got.makespans.iter().map(|m| m.to_bits()).collect();
                    prop_assert_eq!(gb, wb);
                }
            }
            // ±1-delta neighbours ride (or grow) the same table.
            for r in [inst.r.saturating_sub(1).max(4), inst.r + 1] {
                let d = Instance::new(inst.ns, inst.nm, r);
                prop_assert_eq!(
                    memo.knapsack_grouping(d, &table),
                    Heuristic::Knapsack.grouping(d, &table)
                );
            }
        }

        #[test]
        fn knapsack_grouping_maximizes_throughput_vs_basic((inst, table) in (arb_instance(), arb_table())) {
            if let (Ok(k), Ok(b)) = (
                Heuristic::Knapsack.grouping(inst, &table),
                Heuristic::Basic.grouping(inst, &table),
            ) {
                prop_assert!(k.throughput(&table) + 1e-12 >= b.throughput(&table),
                    "knapsack throughput below basic");
            }
        }
    }
}
