//! The makespan floor shared by the certifier and the planner's
//! candidate pruning (`oa_sched::estimate::makespan_floor`) never lies
//! above a makespan: on arbitrary valid groupings, every Improvement 2
//! candidate and every paper heuristic's grouping, `floor·(1 − 1e-9)`
//! is at most both the planning estimator's makespan and the
//! fault-free engine's. Tables are integral (the engine's integer-time
//! kernel), scaled by 0.7 (fractional, event by event) or by 1e300
//! (near the top of the float range).
//!
//! The planner skips a candidate whose floor, less that slack, exceeds
//! the best makespan so far; this property is what makes the skip
//! safe. Its bitwise equality with the exhaustive search is pinned by
//! `oa_sched`'s own `planner` proptest.
//!
//! Debug builds run 32 random cases; release builds (CI's
//! engine-differential job) run 256.

use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::estimate::{makespan_floor, FLOOR_SLACK};
use ocean_atmosphere::sched::heuristics::no_post_candidates;
use proptest::prelude::*;
use proptest::strategy::ValueTree;

const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

/// Non-increasing integral mains and post, then as they are, scaled by
/// 0.7 or scaled by 1e300.
fn arb_table() -> impl Strategy<Value = TimingTable> {
    (
        100u32..3000,
        5u32..500,
        proptest::collection::vec(0u32..400, 8),
        0u8..3,
    )
        .prop_map(|(t11, tp, bumps, kind)| {
            let scale = [1.0, 0.7, 1e300][kind as usize];
            let mut main = [0.0f64; 8];
            let mut acc = t11;
            for i in (0..8).rev() {
                main[i] = f64::from(acc) * scale;
                acc += bumps[i];
            }
            TimingTable::new(main, f64::from(tp) * scale).expect("non-increasing")
        })
}

/// A random valid grouping of `inst`: at most `NS` groups of legal
/// sizes that fit in `R`, some of the rest on posts.
fn arb_grouping(inst: Instance) -> impl Strategy<Value = Grouping> {
    let max_groups = (inst.r / 4).min(inst.ns).max(1) as usize;
    (
        proptest::collection::vec(4u32..=11, 1..=max_groups),
        0u32..=8,
    )
        .prop_map(move |(sizes, post)| {
            let mut used = 0;
            let mut groups: Vec<u32> = sizes
                .into_iter()
                .filter(|&g| {
                    let fits = used + g <= inst.r;
                    used += if fits { g } else { 0 };
                    fits
                })
                .collect();
            if groups.is_empty() {
                groups.push(4);
                used = 4;
            }
            Grouping::new(groups, post.min(inst.r - used))
        })
}

fn floor_holds(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
) -> Result<(), TestCaseError> {
    let floor = makespan_floor(inst, grouping, table.post_secs(), |g| table.main_secs(g));
    let est = estimate(inst, table, grouping).expect("valid grouping");
    let run = simulate_campaign(
        inst,
        table,
        grouping,
        &CampaignConfig::default(),
        &FaultPlan::none(),
        &mut NullTracer,
    )
    .expect("valid grouping");
    let engine = run.makespan().expect("fault-free runs complete");
    let below = floor * (1.0 - FLOOR_SLACK);
    prop_assert!(
        below <= est.makespan && below <= engine,
        "{grouping} on {inst:?}: floor {floor} over estimate {} or engine {engine}",
        est.makespan
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn floor_is_below_every_makespan(
        table in arb_table(),
        ns in 1u32..=8,
        nm in 1u32..=200,
        r in 4u32..=100,
    ) {
        let inst = Instance::new(ns, nm, r);
        let strategy = arb_grouping(inst);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut groupings: Vec<Grouping> = (0..4)
            .map(|_| strategy.new_tree(&mut runner).expect("tree").current())
            .collect();
        groupings.extend(no_post_candidates(inst));
        groupings.extend(Heuristic::PAPER.into_iter().filter_map(|h| h.grouping(inst, &table).ok()));
        for grouping in &groupings {
            floor_holds(inst, &table, grouping)?;
        }
    }
}
