//! Bit-identity across the generic campaign engine's configurations:
//! the "one loop, one call" invariant of DESIGN.md §3. A knob that does
//! not apply (recovery without faults, a tracer) must change no bit of
//! what the plain executor (`execute_default`) records, and the knob
//! combinations (unfused + tracing, unfused + policy ablation,
//! unfused + faults) must stay deterministic under parallel sweeps.
//!
//! `PROPTEST_CASES` raises the case count in CI's release-mode
//! differential job.

use ocean_atmosphere::par::Pool;
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::trace::metrics::keys;
use proptest::prelude::*;

/// Worker counts under test: the serial short-circuit, a typical small
/// pool, and an oversubscribed one.
const JOBS: [usize; 3] = [1, 2, 8];

const POLICIES: [ScenarioPolicy; 3] = [
    ScenarioPolicy::LeastAdvanced,
    ScenarioPolicy::RoundRobin,
    ScenarioPolicy::MostAdvanced,
];

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

fn arb_instance() -> impl Strategy<Value = Instance> {
    (1u32..=8, 1u32..=20, 4u32..=120).prop_map(|(ns, nm, r)| Instance::new(ns, nm, r))
}

/// The engine under a fused, fault-free, least-advanced configuration
/// with the given recovery model.
fn degenerate_run(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    recovery: Recovery,
) -> CampaignRun {
    let config = CampaignConfig {
        recovery,
        ..CampaignConfig::fused(ScenarioPolicy::LeastAdvanced)
    };
    let out = simulate_campaign(
        inst,
        table,
        grouping,
        &config,
        &FaultPlan::none(),
        &mut NullTracer,
    )
    .expect("valid grouping");
    match out {
        CampaignOutcome::Completed(run) => run,
        CampaignOutcome::Stranded { .. } => panic!("fault-free runs never strand"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Empty fault plan through the failure-configured engine ==
    /// plain executor, bitwise, under either recovery model: schedule
    /// records, makespan bits, and no damage.
    #[test]
    fn empty_fault_plan_is_bitwise_the_plain_executor(
        (inst, table) in (arb_instance(), arb_table()),
    ) {
        let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
        let sched = execute_default(inst, &table, &grouping).expect("valid grouping");
        for recovery in [Recovery::MonthlyCheckpoint, Recovery::RestartScenario] {
            let run = degenerate_run(inst, &table, &grouping, recovery);
            let engine_sched = run.schedule.as_ref().expect("fused fault-free runs record");
            prop_assert_eq!(run.makespan.to_bits(), sched.makespan.to_bits());
            prop_assert_eq!(&engine_sched.records, &sched.records);
            prop_assert_eq!(run.lost_proc_secs.to_bits(), 0f64.to_bits());
            prop_assert_eq!(run.months_lost, 0);
        }
    }

    /// Unfused runs under every scenario policy: the live metrics fold
    /// (a `Metered` sink) agrees with the engine's own outcome — the
    /// makespan bit for bit, one main and three chained post steps per
    /// month — and observing the run changes none of its bits.
    #[test]
    fn unfused_metrics_fold_matches_the_outcome_under_every_policy(
        (inst, table) in (arb_instance(), arb_table()),
    ) {
        let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
        for policy in POLICIES {
            let config = CampaignConfig::unfused(policy);
            let mut sink = Metered::null();
            let out = simulate_campaign(
                inst, &table, &grouping, &config, &FaultPlan::none(), &mut sink,
            ).expect("valid grouping");
            let run = out.completed().expect("fault-free runs never strand");
            let snap = sink.registry.snapshot();
            prop_assert_eq!(
                snap.gauge(keys::MAKESPAN).map(f64::to_bits), Some(run.makespan.to_bits()),
                "{:?}", policy
            );
            prop_assert_eq!(snap.counter(keys::TASKS_MAIN), Some(inst.nbtasks()), "{:?}", policy);
            prop_assert_eq!(snap.counter(keys::TASKS_POST), Some(3 * inst.nbtasks()), "{:?}", policy);
            let silent = simulate_campaign(
                inst, &table, &grouping, &config, &FaultPlan::none(), &mut NullTracer,
            ).expect("valid grouping");
            prop_assert_eq!(&silent, &out, "{:?}", policy);
        }
    }

    /// Unfused + tracing: the traced run tells a non-empty event story
    /// and leaves every outcome bit untouched.
    #[test]
    fn unfused_tracing_is_an_observer_not_a_participant(
        (inst, table) in (arb_instance(), arb_table()),
    ) {
        let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
        let config = CampaignConfig::unfused(ScenarioPolicy::LeastAdvanced);
        let silent = simulate_campaign(
            inst, &table, &grouping, &config, &FaultPlan::none(), &mut NullTracer,
        ).expect("valid grouping");
        let mut sink = VecTracer::new();
        let traced = simulate_campaign(
            inst, &table, &grouping, &config, &FaultPlan::none(), &mut sink,
        ).expect("valid grouping");
        prop_assert_eq!(&traced, &silent);
        prop_assert!(!sink.into_events().is_empty(), "traced runs must emit events");
    }

    /// `MonthlyCheckpoint` with zero failures sweeps bit-identically
    /// at every worker count: the engine composes with `oa-par`
    /// exactly like the executors it replaced.
    #[test]
    fn checkpoint_recovery_sweeps_are_jobs_invariant(
        table in arb_table(),
        ns in 1u32..=6,
        nm in 1u32..=12,
    ) {
        let rs: Vec<u32> = vec![11, 26, 53, 80, 120];
        let config = CampaignConfig {
            policy: ScenarioPolicy::LeastAdvanced,
            granularity: Granularity::Fused,
            recovery: Recovery::MonthlyCheckpoint,
        };
        let cell = |&r: &u32| -> Option<u64> {
            let inst = Instance::new(ns, nm, r);
            let grouping = Heuristic::Knapsack.grouping(inst, &table).ok()?;
            let out = simulate_campaign(
                inst, &table, &grouping, &config, &FaultPlan::none(), &mut NullTracer,
            ).expect("valid grouping");
            Some(out.completed().expect("fault-free runs never strand").makespan.to_bits())
        };
        let serial: Vec<Option<u64>> = rs.iter().map(cell).collect();
        for jobs in JOBS {
            let par = Pool::new(jobs).par_map(&rs, cell);
            prop_assert_eq!(&par, &serial, "jobs = {}", jobs);
        }
    }

    /// Fault injection at unfused granularity (the other new
    /// combination) is deterministic and no more optimistic than the
    /// critical path.
    #[test]
    fn unfused_faults_are_deterministic(
        (inst, table) in (arb_instance(), arb_table()),
        frac in 0.05f64..0.95,
    ) {
        let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
        let clean = degenerate_run(inst, &table, &grouping, Recovery::MonthlyCheckpoint).makespan;
        let plan = FaultPlan::none().kill(0, frac * clean);
        let config = CampaignConfig::unfused(ScenarioPolicy::LeastAdvanced);
        let run = |_: &()| {
            simulate_campaign(inst, &table, &grouping, &config, &plan, &mut NullTracer)
                .expect("valid grouping")
        };
        let a = run(&());
        let b = run(&());
        prop_assert_eq!(&a, &b, "same config, same bits");
        if let Some(done) = a.completed() {
            let lb = f64::from(inst.nm) * table.main_secs(11);
            prop_assert!(done.makespan + 1e-6 >= lb,
                "faulty unfused {} beats the critical path {}", done.makespan, lb);
        }
    }
}
