//! # oa-sim — discrete-event execution of Ocean-Atmosphere campaigns
//!
//! The validated simulation backend of the reproduction:
//!
//! * [`schedule`] — complete schedules (every task pinned to processors
//!   and times) with structural validation: multiplicities, DAG
//!   dependences, processor exclusivity, moldable group sizes;
//! * [`engine`] — the one generic discrete-event campaign loop, driven
//!   by an `oa_sched::policy::CampaignConfig` (scenario policy × task
//!   granularity × recovery model) plus a fault plan and a tracer.
//!   Every execution below is one `simulate_campaign` call; fused
//!   fault-free runs record the full schedule (`execute_default` is the
//!   paper's default run, least-advanced-first with surplus-group
//!   disbanding and FIFO posts). Its busy set is one binary heap, and
//!   on integer-time runs a steady-state fast-forward replays whole
//!   cycles, bitwise identical to event-by-event execution and
//!   controlled via `engine::KernelOpts`;
//! * [`batch`] — the mass-batch variant engine: 10⁵–10⁶ Monte Carlo /
//!   grid variants per run with cross-variant sharing (planning memo,
//!   checkpoint-resume kernel heads, SoA result streaming), bitwise
//!   identical to running each variant individually;
//! * [`driver`] — session-resumable wrapper over the engine: one
//!   simulation pinned to a virtual start instant, with any later
//!   instant resolvable to a session state (the per-session backend
//!   of the `oa-service` daemon);
//! * [`gantt`] — ASCII Gantt rendering (the paper's Figures 3–6);
//! * [`metrics`] — utilization, fairness, phase-split accounting;
//! * [`tracing`] — bridges to the `oa-trace` observability layer:
//!   schedule → event-stream conversion and the cluster-tagging
//!   adapter for grid timelines;
//! * [`grid_exec`] — multi-cluster execution of an Algorithm 1
//!   repartition (the simulation behind Figure 10): one loop, one engine
//!   call per used cluster, with per-cluster knobs and wide-area
//!   staging;
//! * [`grid_failures`] — whole-cluster loss, and what the paper's "no
//!   migration" rule costs;
//! * [`ir_exec`] — execution of the generalized workflow IR: the one
//!   flat-pool list scheduler, a ready-set loop driven purely by IR
//!   precedence that every flat-pool baseline of `oa-baselines` runs
//!   on, with the one flat-pool schedule type and validator; and a
//!   router that sends recognized ocean-atmosphere preset meshes
//!   through the legacy [`engine`] unchanged (byte-identical outputs,
//!   integer-time kernel gate preserved).
//!
//! The makespans produced here agree (to float tolerance) with the
//! fast aggregate estimator `oa_sched::estimate` — property-tested in
//! this crate — so heuristics can plan with the estimator and the
//! simulator remains the single source of truth for *schedules*.
//!
//! # Examples
//!
//! ```
//! use oa_platform::prelude::*;
//! use oa_sched::prelude::*;
//! use oa_sim::prelude::*;
//!
//! let table = PcrModel::reference().table(1.0).unwrap();
//! let inst = Instance::new(4, 6, 30);
//! let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
//! let schedule = execute_default(inst, &table, &grouping).unwrap();
//! schedule.validate().unwrap();
//! println!("{}", render_default(&schedule));
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod driver;
pub mod engine;
pub(crate) mod ffwd;
pub mod gantt;
pub mod grid_exec;
pub mod grid_failures;
pub mod ir_exec;
pub mod metrics;
pub(crate) mod post_pool;
pub mod profile;
pub mod schedule;
pub mod tracing;
pub mod transfer;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::batch::{
        expand_shapes, faults_for, run_batch, run_naive, BatchError, BatchReport, BatchSoA,
        BatchSpec, ShapePlan, SweepSummary, VariantOut,
    };
    pub use crate::driver::{SessionDriver, SessionState};
    pub use crate::engine::{
        execute_default, kernel_eligibility, simulate_campaign, simulate_campaign_kernel,
        CampaignOutcome, CampaignRun, KernelOpts, KernelReport,
    };
    pub use crate::gantt::{render, render_default, GanttOptions};
    pub use crate::grid_exec::{
        execute_repartition, run_grid, ClusterCampaign, ClusterOutcome, GridConfig, GridOutcome,
        Staging,
    };
    pub use crate::grid_failures::{
        run_grid_with_cluster_failure, ClusterFailurePolicy, ClusterFailureSpec, GridFailureOutcome,
    };
    pub use crate::ir_exec::{
        execute_ir, simulate_ir, IrExecError, IrOutcome, IrRecord, IrSchedule, IrSimError,
    };
    pub use crate::metrics::{metrics, metrics_from_events, Metrics};
    pub use crate::profile::{profile, Profile, Step};
    pub use crate::schedule::{ProcRange, Schedule, ScheduleError, TaskRecord};
    pub use crate::tracing::{events_of, ClusterTag};
    pub use crate::transfer::{migration_secs, staging_delays, Link, StagingModel};
    pub use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity, Recovery, ScenarioPolicy};
}

#[cfg(test)]
mod proptests {
    use crate::engine::{simulate_campaign, CampaignOutcome};
    use crate::schedule::Schedule;
    use oa_platform::timing::TimingTable;
    use oa_sched::estimate::estimate;
    use oa_sched::grouping::Grouping;
    use oa_sched::heuristics::{no_post_candidates, Heuristic};
    use oa_sched::params::Instance;
    use oa_sched::policy::{CampaignConfig, FaultPlan, ScenarioPolicy};
    use oa_trace::{NullTracer, Tracer};
    use proptest::prelude::*;

    fn arb_table() -> impl Strategy<Value = TimingTable> {
        (
            50.0f64..3000.0,
            1.0f64..400.0,
            proptest::collection::vec(0.0f64..400.0, 8),
        )
            .prop_map(|(t11, tp, bumps)| {
                let mut main = [0.0f64; 8];
                let mut acc = t11;
                for i in (0..8).rev() {
                    main[i] = acc;
                    acc += bumps[i];
                }
                TimingTable::new(main, tp).expect("non-increasing by construction")
            })
    }

    /// [`arb_table`] rounded down to whole seconds half the time, so
    /// both the integer-time kernel and the event loop run.
    fn arb_table_any() -> impl Strategy<Value = TimingTable> {
        (arb_table(), 0u8..2).prop_map(|(table, integral)| {
            if integral == 0 {
                return table;
            }
            let main = table.main_array().map(f64::floor);
            TimingTable::new(main, table.post_secs().floor()).expect("floor keeps the order")
        })
    }

    fn arb_instance() -> impl Strategy<Value = Instance> {
        (1u32..=10, 1u32..=25, 4u32..=130).prop_map(|(ns, nm, r)| Instance::new(ns, nm, r))
    }

    /// The recorded schedule of a fused fault-free run under `policy`.
    fn schedule_under<T: Tracer>(
        inst: Instance,
        table: &TimingTable,
        grouping: &Grouping,
        policy: ScenarioPolicy,
        tracer: &mut T,
    ) -> Schedule {
        let config = CampaignConfig::fused(policy);
        simulate_campaign(inst, table, grouping, &config, &FaultPlan::none(), tracer)
            .unwrap()
            .into_schedule()
            .expect("fused fault-free runs record a schedule")
    }

    /// Debug builds run 32 engine-versus-estimator cases; release
    /// builds (CI's engine-differential job) run 256.
    const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Every paper heuristic's grouping and every Improvement-2
        /// candidate: the schedule validates, and the engine's fault-free
        /// default run is the estimator's makespan, main finish and
        /// post finish bit for bit.
        #[test]
        fn schedules_validate_and_match_estimator((inst, table) in (arb_instance(), arb_table_any())) {
            let paper = Heuristic::PAPER.into_iter().filter_map(|h| h.grouping(inst, &table).ok());
            for grouping in paper.chain(no_post_candidates(inst)) {
                let config = CampaignConfig::default();
                let outcome = simulate_campaign(inst, &table, &grouping, &config, &FaultPlan::none(), &mut NullTracer)
                    .unwrap();
                let CampaignOutcome::Completed(run) = outcome else {
                    return Err(TestCaseError::fail(format!("{grouping}: fault-free run stranded")));
                };
                let sched = run.schedule.as_ref().expect("fused fault-free runs record a schedule");
                prop_assert!(sched.validate().is_ok(), "{grouping}: invalid schedule");
                let est = estimate(inst, &table, &grouping).unwrap();
                prop_assert_eq!(
                    [sched.makespan, run.makespan, run.main_finish, run.post_finish].map(f64::to_bits),
                    [est.makespan, est.makespan, est.main_finish, est.post_finish].map(f64::to_bits),
                    "{}: engine ({}, {}, {}) vs estimate {:?}",
                    grouping, run.makespan, run.main_finish, run.post_finish, est
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_fault_plans_behave(
            (inst, table) in (arb_instance(), arb_table()),
            kills in proptest::collection::vec((0usize..4, 0.0f64..1.5), 0..4),
        ) {
            let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
            let clean = estimate(inst, &table, &grouping).unwrap().makespan;
            let plan = FaultPlan {
                failures: kills
                    .iter()
                    .map(|&(g, f)| (g % grouping.group_count().max(1), f * clean))
                    .collect(),
            };
            let config = CampaignConfig::default();
            let out = simulate_campaign(inst, &table, &grouping, &config, &plan, &mut NullTracer)
                .unwrap();
            match out {
                CampaignOutcome::Completed(run) => {
                    let (makespan, lost_proc_secs, months_lost) =
                        (run.makespan, run.lost_proc_secs, run.months_lost);
                    // NOTE: failures can legitimately *shorten* the
                    // campaign when groups are heterogeneous — killing a
                    // slow group re-homes its month onto a faster one,
                    // which the non-preemptive policy would never do on
                    // its own. So the bound is the critical path, not
                    // the failure-free makespan.
                    let lb = inst.nm as f64 * table.main_secs(11);
                    prop_assert!(makespan + 1e-6 >= lb,
                        "faulty {makespan} beats the critical path {lb}");
                    if grouping.groups().iter().all(|&g| g == grouping.groups()[0]) {
                        // Uniform groups: no re-homing speedup exists.
                        prop_assert!(makespan + 1e-6 >= clean,
                            "faulty {makespan} < clean {clean} with uniform groups");
                    }
                    let bound = plan.failures.len() as f64 * 11.0 * table.main_secs(4);
                    prop_assert!(lost_proc_secs <= bound + 1e-6);
                    prop_assert!(months_lost as usize <= plan.failures.len());
                }
                CampaignOutcome::Stranded { completed_months } => {
                    prop_assert!(completed_months < inst.nbtasks());
                }
            }
        }

        #[test]
        fn traced_registry_agrees_with_post_hoc_metrics((inst, table) in (arb_instance(), arb_table())) {
            // The live metrics fold (a `Metered` sink observing the
            // engine's event stream) and the post-hoc `metrics()`
            // aggregation must agree exactly — same fold, same order,
            // same bits.
            use oa_trace::metrics::keys;
            use oa_trace::Metered;
            let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
            let mut sink = Metered::null();
            let sched = schedule_under(
                inst, &table, &grouping, ScenarioPolicy::LeastAdvanced, &mut sink);
            let m = crate::metrics::metrics(&sched);
            let snap = sink.registry.snapshot();
            prop_assert_eq!(snap.gauge(keys::PROC_SECS_MAIN), Some(m.main_proc_secs));
            prop_assert_eq!(snap.gauge(keys::PROC_SECS_POST), Some(m.post_proc_secs));
            prop_assert_eq!(snap.gauge(keys::MAKESPAN), Some(sched.makespan));
            prop_assert_eq!(snap.counter(keys::TASKS_MAIN), Some(inst.nbtasks()));
            prop_assert_eq!(snap.counter(keys::TASKS_POST), Some(inst.nbtasks()));
        }

        #[test]
        fn all_policies_produce_valid_schedules((inst, table) in (arb_instance(), arb_table())) {
            let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
            for policy in ScenarioPolicy::ALL {
                let sched = schedule_under(inst, &table, &grouping, policy, &mut NullTracer);
                prop_assert!(sched.validate().is_ok(), "{policy:?}: invalid schedule");
                prop_assert_eq!(sched.records.len() as u64, inst.nbtasks() * 2);
            }
        }
    }
}
