//! Cross-crate property tests on *arbitrary* (not heuristic-built)
//! groupings and platforms.
//!
//! The engine-versus-estimator property runs 32 cases in debug builds
//! and 256 in release builds (CI's engine-differential job).

use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::heuristics::no_post_candidates;
use proptest::prelude::*;
use proptest::strategy::ValueTree;

const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

fn arb_table() -> impl Strategy<Value = TimingTable> {
    (
        100.0f64..3000.0,
        5.0f64..500.0,
        proptest::collection::vec(0.0f64..400.0, 8),
    )
        .prop_map(|(t11, tp, bumps)| {
            let mut main = [0.0f64; 8];
            let mut acc = t11;
            for i in (0..8).rev() {
                main[i] = acc;
                acc += bumps[i];
            }
            TimingTable::new(main, tp).expect("non-increasing")
        })
}

/// [`arb_table`] rounded down to whole seconds half the time: integral
/// tables run the engine's integer-time kernel, fractional ones its
/// event-by-event loop.
fn arb_table_any() -> impl Strategy<Value = TimingTable> {
    (arb_table(), 0u8..2).prop_map(|(table, integral)| {
        if integral == 0 {
            return table;
        }
        let main = table.main_array().map(f64::floor);
        TimingTable::new(main, table.post_secs().floor()).expect("floor keeps the order")
    })
}

/// The engine's fault-free default run of `grouping` against the
/// planning estimator: the recorded schedule validates, and makespan,
/// main finish and post finish are the same bits.
fn engine_matches_estimator(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
) -> Result<(), TestCaseError> {
    let est = estimate(inst, table, grouping).expect("valid");
    let outcome = simulate_campaign(
        inst,
        table,
        grouping,
        &CampaignConfig::default(),
        &FaultPlan::none(),
        &mut NullTracer,
    )
    .expect("valid");
    let CampaignOutcome::Completed(run) = outcome else {
        return Err(TestCaseError::fail(format!(
            "{grouping}: fault-free run stranded"
        )));
    };
    let schedule = run
        .schedule
        .as_ref()
        .expect("fused fault-free runs record a schedule");
    prop_assert!(
        schedule.validate().is_ok(),
        "invalid schedule for {grouping}"
    );
    prop_assert_eq!(
        [
            run.makespan,
            run.main_finish,
            run.post_finish,
            schedule.makespan
        ]
        .map(f64::to_bits),
        [est.makespan, est.main_finish, est.post_finish, est.makespan].map(f64::to_bits),
        "{} on {:?}: engine ({}, {}, {}) vs estimate {:?}",
        grouping,
        inst,
        run.makespan,
        run.main_finish,
        run.post_finish,
        est
    );
    Ok(())
}

/// Random *valid* grouping for an instance: random group sizes that
/// fit, remainder split between post pool and idle.
fn arb_grouping(ns: u32, r: u32) -> impl Strategy<Value = Grouping> {
    let max_groups = (r / 4).min(ns).max(1);
    (
        proptest::collection::vec(4u32..=11, 1..=max_groups as usize),
        0u32..=8,
    )
        .prop_map(move |(mut sizes, post)| {
            // Trim to fit the processor budget.
            let mut used: u32 = 0;
            sizes.retain(|&g| {
                if used + g <= r {
                    used += g;
                    true
                } else {
                    false
                }
            });
            if sizes.is_empty() {
                sizes.push(4);
                used = 4;
            }
            let post = post.min(r.saturating_sub(used));
            Grouping::new(sizes, post)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The engine and the estimator agree bit for bit on random
    /// groupings, on every paper heuristic's grouping and on every
    /// Improvement-2 candidate, on integral and fractional tables.
    #[test]
    fn executor_and_estimator_agree_on_arbitrary_groupings(
        table in arb_table_any(),
        ns in 1u32..=8,
        nm in 1u32..=20,
        r in 12u32..=100,
    ) {
        let inst = Instance::new(ns, nm, r);
        let strategy = arb_grouping(ns, r);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut groupings: Vec<Grouping> = (0..4)
            .map(|_| strategy.new_tree(&mut runner).expect("tree").current())
            .filter(|g| g.validate(inst).is_ok())
            .collect();
        for h in Heuristic::PAPER {
            groupings.push(h.grouping(inst, &table).expect("R >= 12 fits a group"));
        }
        groupings.extend(no_post_candidates(inst));
        for grouping in &groupings {
            engine_matches_estimator(inst, &table, grouping)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn analytic_is_an_upper_bound_modulo_one_wave(
        table in arb_table(),
        ns in 1u32..=8,
        nm in 1u32..=20,
        r in 12u32..=100,
    ) {
        // The closed form batches trailing posts pessimistically; the
        // event simulation never exceeds it by more than one TP wave
        // (tie-breaking of simultaneous frees can shift one wave).
        let inst = Instance::new(ns, nm, r);
        for g in 4u32..=11 {
            let nbmax = inst.nbmax(g);
            if nbmax == 0 { continue; }
            let b = best_group(inst, &table).expect("feasible");
            let _ = b;
            let breakdown = oa_sched::analytic::makespan(inst, &table, g).expect("nbmax > 0");
            let grouping = Grouping::uniform(g, nbmax, inst.r - nbmax * g);
            let sim = estimate(inst, &table, &grouping).expect("valid").makespan;
            prop_assert!(sim <= breakdown.makespan + table.post_secs() + 1e-6,
                "G={g}: sim {sim} ≫ analytic {}", breakdown.makespan);
        }
    }

    #[test]
    fn repartition_never_worse_than_single_cluster(
        ns in 1u32..=10,
        nm in 1u32..=12,
        r in 12u32..=60,
    ) {
        let grid = benchmark_grid(r);
        let vectors = grid_performance(&grid, Heuristic::Knapsack, ns, nm);
        let plan = repartition(&vectors);
        let grid_ms = plan.predicted_makespan(&vectors);
        let best_single = vectors.iter().map(|v| v.of(ns)).fold(f64::INFINITY, f64::min);
        prop_assert!(grid_ms <= best_single + 1e-6,
            "grid {grid_ms} worse than best single {best_single}");
    }
}
