//! Bit-identity of the simulation kernel (steady-state fast-forward +
//! integer-time calendar queue) with plain event-by-event execution:
//! the hard invariant of DESIGN.md §"Cycle detection". The kernel is a
//! pure wall-clock optimization — schedule records, makespan bits, the
//! live metrics fold, and the Chrome export must not move by a single
//! bit whether the clock runs tick-by-tick or leaps whole cycles, on
//! integral-second timing tables (where the kernel engages) and on
//! fractional ones (where it must stand down cleanly).
//!
//! Debug builds run 24 random cases; release builds (CI's differential
//! job) run 256.

use ocean_atmosphere::par::Pool;
use ocean_atmosphere::prelude::*;
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 256 };

/// Worker counts under test: the serial short-circuit, a typical small
/// pool, and an oversubscribed one.
const JOBS: [usize; 3] = [1, 2, 8];

const POLICIES: [ScenarioPolicy; 3] = [
    ScenarioPolicy::LeastAdvanced,
    ScenarioPolicy::RoundRobin,
    ScenarioPolicy::MostAdvanced,
];

/// Integral-second timing tables: the precondition of the integer-time
/// kernel. Whole-second base duration and bumps keep every `T[G]` (and
/// the post duration) on the tick lattice.
fn arb_integral_table() -> impl Strategy<Value = TimingTable> {
    (
        50u32..3000,
        1u32..400,
        proptest::collection::vec(0u32..400, 8),
    )
        .prop_map(|(t11, tp, bumps)| {
            let mut main = [0.0f64; 8];
            let mut acc = f64::from(t11);
            for i in (0..8).rev() {
                main[i] = acc;
                acc += f64::from(bumps[i]);
            }
            TimingTable::new(main, f64::from(tp)).expect("non-increasing by construction")
        })
}

/// Fractional-second tables: the kernel must detect ineligibility and
/// fall back without touching a bit.
fn arb_fractional_table() -> impl Strategy<Value = TimingTable> {
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
    (1u32..=8, 1u32..=60, 11u32..=120).prop_map(|(ns, nm, r)| Instance::new(ns, nm, r))
}

/// Runs one configuration twice — kernel on, kernel off — and asserts
/// the outcomes (records, makespans, stranding) are equal and that the
/// baseline run reports no kernel activity.
fn assert_bitwise(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> Result<KernelReport, TestCaseError> {
    let (fast, rep) = simulate_campaign_kernel(
        inst,
        table,
        grouping,
        config,
        plan,
        KernelOpts::default(),
        &mut NullTracer,
    )
    .expect("valid grouping");
    let (base, base_rep) = simulate_campaign_kernel(
        inst,
        table,
        grouping,
        config,
        plan,
        KernelOpts::event_by_event(),
        &mut NullTracer,
    )
    .expect("valid grouping");
    prop_assert_eq!(
        base_rep,
        KernelReport::default(),
        "baseline must not kernel"
    );
    prop_assert_eq!(&fast, &base, "kernel changed the outcome: {:?}", rep);
    if let (Some(f), Some(b)) = (fast.completed(), base.completed()) {
        prop_assert_eq!(f.makespan.to_bits(), b.makespan.to_bits());
    }
    Ok(rep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Integral tables, every policy × granularity, homogeneous and
    /// knapsack groupings: kernel on == kernel off, bitwise.
    #[test]
    fn kernel_is_bitwise_on_integral_tables(
        (inst, table) in (arb_instance(), arb_integral_table()),
    ) {
        for h in [Heuristic::Basic, Heuristic::Knapsack] {
            let Ok(grouping) = h.grouping(inst, &table) else { continue };
            for policy in POLICIES {
                for granularity in [Granularity::Fused, Granularity::Unfused] {
                    let config = CampaignConfig {
                        policy,
                        granularity,
                        recovery: Recovery::MonthlyCheckpoint,
                    };
                    let rep = assert_bitwise(inst, &table, &grouping, &config, &FaultPlan::none())?;
                    prop_assert!(rep.integer_time, "integral tables must take the integer path");
                }
            }
        }
    }

    /// Fractional tables: the kernel detects ineligibility, stands
    /// down, and the outputs still match bit-for-bit.
    #[test]
    fn kernel_stands_down_on_fractional_tables(
        (inst, table) in (arb_instance(), arb_fractional_table()),
    ) {
        let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
        for granularity in [Granularity::Fused, Granularity::Unfused] {
            let config = CampaignConfig {
                policy: ScenarioPolicy::LeastAdvanced,
                granularity,
                recovery: Recovery::MonthlyCheckpoint,
            };
            let rep = assert_bitwise(inst, &table, &grouping, &config, &FaultPlan::none())?;
            prop_assert!(!rep.integer_time, "fractional seconds are off the tick lattice");
            prop_assert_eq!(rep.main_cycles_skipped, 0);
            prop_assert_eq!(rep.post_cycles_skipped, 0);
        }
    }

    /// Random fault plans on integral tables, at both granularities:
    /// failures disturb the detector, never the bits.
    #[test]
    fn kernel_is_bitwise_under_fault_plans(
        (inst, table) in (arb_instance(), arb_integral_table()),
        kills in proptest::collection::vec((0usize..4, 0.0f64..1.5), 0..4),
    ) {
        let Ok(grouping) = Heuristic::Basic.grouping(inst, &table) else { return Ok(()) };
        let clean = estimate(inst, &table, &grouping).expect("valid grouping").makespan;
        let plan = FaultPlan {
            failures: kills
                .iter()
                .map(|&(g, f)| (g % grouping.group_count().max(1), (f * clean).floor()))
                .collect(),
        };
        for granularity in [Granularity::Fused, Granularity::Unfused] {
            let config = CampaignConfig {
                policy: ScenarioPolicy::LeastAdvanced,
                granularity,
                recovery: Recovery::MonthlyCheckpoint,
            };
            assert_bitwise(inst, &table, &grouping, &config, &plan)?;
        }
    }

    /// Tracing and metrics see the same story either way: identical
    /// Chrome export bytes and an identical live metrics fold.
    #[test]
    fn kernel_preserves_traces_and_metrics(
        (inst, table) in (arb_instance(), arb_integral_table()),
    ) {
        let Ok(grouping) = Heuristic::Basic.grouping(inst, &table) else { return Ok(()) };
        for granularity in [Granularity::Fused, Granularity::Unfused] {
            let config = CampaignConfig {
                policy: ScenarioPolicy::LeastAdvanced,
                granularity,
                recovery: Recovery::MonthlyCheckpoint,
            };
            let run = |opts: KernelOpts| {
                let mut sink = Metered::new(VecTracer::new());
                let (out, _) = simulate_campaign_kernel(
                    inst, &table, &grouping, &config, &FaultPlan::none(), opts, &mut sink,
                )
                .expect("valid grouping");
                (out, sink.registry.snapshot(), sink.inner.into_events())
            };
            let (fast_out, fast_metrics, fast_events) = run(KernelOpts::default());
            let (base_out, base_metrics, base_events) = run(KernelOpts::event_by_event());
            prop_assert_eq!(&fast_out, &base_out);
            prop_assert_eq!(&fast_metrics, &base_metrics, "metrics fold diverged");
            prop_assert_eq!(
                chrome_trace_string(&fast_events),
                chrome_trace_string(&base_events),
                "chrome export diverged"
            );
        }
    }

    /// The kernel composes with `oa-par` exactly like plain execution:
    /// sweeps are bit-invariant in the worker count.
    #[test]
    fn kernel_sweeps_are_jobs_invariant(
        table in arb_integral_table(),
        ns in 1u32..=6,
        nm in 1u32..=40,
    ) {
        let rs: Vec<u32> = vec![11, 26, 53, 80, 120];
        let config = CampaignConfig {
            policy: ScenarioPolicy::LeastAdvanced,
            granularity: Granularity::Fused,
            recovery: Recovery::MonthlyCheckpoint,
        };
        let cell = |&r: &u32| -> Option<u64> {
            let inst = Instance::new(ns, nm, r);
            let grouping = Heuristic::Basic.grouping(inst, &table).ok()?;
            let (out, _) = simulate_campaign_kernel(
                inst, &table, &grouping, &config, &FaultPlan::none(),
                KernelOpts::default(), &mut NullTracer,
            ).expect("valid grouping");
            Some(out.completed().expect("fault-free runs never strand").makespan.to_bits())
        };
        let serial: Vec<Option<u64>> = rs.iter().map(cell).collect();
        for jobs in JOBS {
            let par = Pool::new(jobs).par_map(&rs, cell);
            prop_assert_eq!(&par, &serial, "jobs = {}", jobs);
        }
    }
}

/// A pending failure must hold the fast-forward off: replaying cycles
/// over an unprocessed fault would stamp records the fault should have
/// interrupted. The detector only arms once the fault plan is fully
/// drained.
#[test]
fn pending_fault_holds_the_detector() {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 600, 53);
    let grouping = Heuristic::Basic.grouping(inst, &table).expect("feasible");
    let config = CampaignConfig {
        policy: ScenarioPolicy::LeastAdvanced,
        granularity: Granularity::Fused,
        recovery: Recovery::MonthlyCheckpoint,
    };
    let run = |plan: &FaultPlan| {
        simulate_campaign_kernel(
            inst,
            &table,
            &grouping,
            &config,
            plan,
            KernelOpts::default(),
            &mut NullTracer,
        )
        .expect("valid grouping")
    };

    // Control: the steady-state campaign fast-forwards in both phases.
    let (clean, clean_rep) = run(&FaultPlan::none());
    assert!(clean_rep.integer_time);
    assert!(
        clean_rep.main_cycles_skipped > 0,
        "control must fast-forward"
    );
    assert!(
        clean_rep.post_cycles_skipped > 0,
        "control must fast-forward posts"
    );

    // A failure scheduled beyond the campaign end never fires, but it
    // stays *pending* for the whole run — so the detector must never
    // arm and the engine must replay nothing.
    let plan = FaultPlan::none().kill(0, 1.0e12);
    let (held, held_rep) = run(&plan);
    assert_eq!(
        held_rep.main_cycles_skipped, 0,
        "pending fault must hold the detector"
    );
    assert_eq!(held_rep.post_cycles_skipped, 0);

    // The unfired failure changes nothing observable.
    let c = clean.completed().expect("fault-free runs complete");
    let h = held.completed().expect("the fault never fires");
    assert_eq!(c.makespan.to_bits(), h.makespan.to_bits());
}
