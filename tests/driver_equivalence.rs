//! Session-driver equivalence: a `SessionDriver` runs the engine with
//! nothing recorded, keeps the main finish offsets off the completion
//! chain, plus its makespan, months lost and stranded count, and counts
//! finished months by binary search. The oracle kept below is the seed
//! query over the whole recorded `simulate_campaign` outcome: it counts
//! the `FusedMain` records of the recorded schedule whose
//! `end <= t − start`. The oracle's run is observed, so its fused drain
//! fast-forwards only by processor id; the driver's run is not, so its
//! drain may fast-forward by availability or be skipped for its closed
//! form.
//!
//! Every case compares `state_at` at each instant of interest, the
//! bits of `makespan` and `finish`, and `months_lost`, against the
//! outcome of the same campaign. The instants are the start and the
//! double just before it, each main end and the doubles either side of
//! it, eight points across the run, the finish and the doubles either
//! side of it, ±∞ and NaN. Half the cases start at 0, where `t − start`
//! is exactly each main end.
//!
//! Random cases cover `NS` 1–6, `NM` 1–60 and `R` 4–80 on preset,
//! random integral and random fractional tables, under every heuristic
//! that groups the instance, every policy and both granularities, with
//! no fault and with one kill under either recovery.
//!
//! Debug builds run 32 random cases; release builds (CI's differential
//! job) run 256.
//!
//! Deterministic service-shaped cases cover what `oa serve` admits:
//! the five preset clusters at R 64 under their knapsack grouping,
//! `NS` 1–3 and `NM` 12, 120 and 1800 (1800 in release builds only),
//! fused and unfused, with no fault and with one kill. Every such
//! portion has at least one dedicated post processor per group and
//! posts far shorter than its mains, so every one that completes skips
//! its drain for the closed form (the engine's module docs, "The
//! closed-form drain"). Among them is capricorne's `3×11 | post:31`,
//! whose drain the by-id detector never matches.

use ocean_atmosphere::prelude::*;
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

const HEURISTICS: [Heuristic; 6] = [
    Heuristic::Basic,
    Heuristic::RedistributeIdle,
    Heuristic::NoPostReservation,
    Heuristic::Knapsack,
    Heuristic::KnapsackGreedy,
    Heuristic::Balanced,
];

const POLICIES: [ScenarioPolicy; 3] = [
    ScenarioPolicy::LeastAdvanced,
    ScenarioPolicy::RoundRobin,
    ScenarioPolicy::MostAdvanced,
];

// ---- Oracle: the seed record scan ----

/// The seed `state_at`, reading the whole engine outcome: months done
/// is the count of recorded fused mains with `end <= t − start`.
fn seed_state_at(start: f64, outcome: &CampaignOutcome, t: f64) -> SessionState {
    if t < start {
        return SessionState::Pending;
    }
    match outcome {
        CampaignOutcome::Stranded { completed_months } => SessionState::Stranded {
            completed_months: *completed_months,
        },
        CampaignOutcome::Completed(run) => {
            let finish = start + run.makespan;
            if t >= finish {
                return SessionState::Completed { finish };
            }
            let months_done = run.schedule.as_ref().map(|schedule| {
                let elapsed = t - start;
                schedule
                    .records
                    .iter()
                    .filter(|r| r.task.kind == TaskKind::FusedMain && r.end <= elapsed)
                    .count() as u32
            });
            SessionState::Running { months_done }
        }
    }
}

/// A state with its float as bits, so `-0.0` and `0.0` differ.
#[derive(Debug, PartialEq)]
enum Bits {
    Pending,
    Running(Option<u32>),
    Completed(u64),
    Stranded(u64),
}

fn bits(state: SessionState) -> Bits {
    match state {
        SessionState::Pending => Bits::Pending,
        SessionState::Running { months_done } => Bits::Running(months_done),
        SessionState::Completed { finish } => Bits::Completed(finish.to_bits()),
        SessionState::Stranded { completed_months } => Bits::Stranded(completed_months),
    }
}

// ---- Checks ----

/// Pins one campaign at `start`, checks the driver against the seed
/// query over the same campaign's outcome, and returns the driver.
fn check(
    start: f64,
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> Result<SessionDriver, TestCaseError> {
    let outcome = simulate_campaign(inst, table, grouping, config, plan, &mut NullTracer)
        .expect("valid grouping");
    let driver =
        SessionDriver::new(start, inst, table, grouping, config, plan).expect("valid grouping");
    let context = format!("{grouping} on {inst:?} from {start}, {config:?}, {plan:?}");
    let run = outcome.completed();
    prop_assert_eq!(
        driver.makespan().map(f64::to_bits),
        run.map(|r| r.makespan.to_bits()),
        "{}: makespan",
        context
    );
    prop_assert_eq!(
        driver.finish().map(f64::to_bits),
        run.map(|r| (start + r.makespan).to_bits()),
        "{}: finish",
        context
    );
    prop_assert_eq!(
        driver.months_lost(),
        run.map(|r| r.months_lost),
        "{}: months_lost",
        context
    );

    let mut instants = vec![
        start,
        start.next_down(),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    if let Some(run) = run {
        let finish = start + run.makespan;
        instants.extend([finish, finish.next_down(), finish.next_up()]);
        instants.extend((1..8).map(|k| start + run.makespan * f64::from(k) / 8.0));
        if let Some(schedule) = &run.schedule {
            for r in &schedule.records {
                if r.task.kind == TaskKind::FusedMain {
                    let t = start + r.end;
                    instants.extend([t, t.next_down(), t.next_up()]);
                }
            }
        }
    }
    for t in instants {
        prop_assert_eq!(
            bits(driver.state_at(t)),
            bits(seed_state_at(start, &outcome, t)),
            "{}: state at t = {}",
            context,
            t
        );
    }
    Ok(driver)
}

/// A non-increasing table from `T[11]`, per-step bumps and `TP`, all
/// rounded to whole seconds when `integral`.
fn table_from(t11: f64, bumps: &[f64], tp: f64, integral: bool) -> TimingTable {
    let round = |x: f64| if integral { x.floor() } else { x };
    let mut main = [0.0f64; 8];
    let mut acc = round(t11);
    for i in (0..8).rev() {
        main[i] = acc;
        acc += round(bumps[i]);
    }
    TimingTable::new(main, round(tp)).expect("non-increasing by construction")
}

/// A preset cluster's table (`kind` 0: the reference cluster or one of
/// the five benchmark clusters), or a random integral (1) or
/// fractional (2) one.
fn arb_table() -> impl Strategy<Value = TimingTable> {
    (
        0u32..3,
        0usize..6,
        50.0f64..3000.0,
        1.0f64..400.0,
        proptest::collection::vec(0.0f64..400.0, 8),
    )
        .prop_map(|(kind, preset, t11, tp, bumps)| match kind {
            0 => {
                let grid = benchmark_grid(DEFAULT_RESOURCES);
                match grid.clusters().get(preset) {
                    Some(c) => c.timing.clone(),
                    None => reference_cluster(53).timing,
                }
            }
            k => table_from(t11, &bumps, tp, k == 1),
        })
}

/// Months of the deterministic service-shaped cases.
const SERVICE_NMS: &[u32] = if cfg!(debug_assertions) {
    &[12, 120]
} else {
    &[12, 120, 1800]
};

#[test]
fn service_shaped_sessions_are_the_seed_record_scan() {
    for (name, ..) in PRESET_CLUSTERS {
        let table = preset_cluster(name, 64).timing;
        for ns in 1u32..=3 {
            for &nm in SERVICE_NMS {
                let inst = Instance::new(ns, nm, 64);
                let grouping = Heuristic::Knapsack
                    .grouping(inst, &table)
                    .expect("R 64 groups every preset");
                for granularity in [Granularity::Fused, Granularity::Unfused] {
                    let config = CampaignConfig {
                        granularity,
                        ..CampaignConfig::default()
                    };
                    for plan in [FaultPlan::none(), FaultPlan::none().kill(0, 3600.0)] {
                        for start in [0.0, 4.0e6] {
                            let driver = check(start, inst, &table, &grouping, &config, &plan)
                                .unwrap_or_else(|e| panic!("{name}: {e}"));
                            let kernel = driver.kernel_report();
                            assert!(
                                driver.makespan().is_none() || kernel.drain_closed_form,
                                "{name}: {grouping} on {inst:?}, {config:?}, {plan:?}: {kernel:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn driver_is_the_seed_record_scan(
        (ns, nm, r) in (1u32..=6, 1u32..=60, 4u32..=80),
        table in arb_table(),
        (at_zero, later) in (0u32..2, 1.0f64..1e6),
        (group, frac) in (0usize..8, 0.0f64..1.2),
    ) {
        let inst = Instance::new(ns, nm, r);
        let start = if at_zero == 1 { 0.0 } else { later };
        for h in HEURISTICS {
            let Ok(grouping) = h.grouping(inst, &table) else { continue };
            let clean = estimate(inst, &table, &grouping).expect("valid grouping").makespan;
            let kill = FaultPlan::none().kill(group % grouping.group_count(), (frac * clean).floor());
            for policy in POLICIES {
                for granularity in [Granularity::Fused, Granularity::Unfused] {
                    let config = CampaignConfig {
                        policy,
                        granularity,
                        recovery: Recovery::MonthlyCheckpoint,
                    };
                    check(start, inst, &table, &grouping, &config, &FaultPlan::none())?;
                    for recovery in [Recovery::MonthlyCheckpoint, Recovery::RestartScenario] {
                        let config = CampaignConfig { recovery, ..config };
                        check(start, inst, &table, &grouping, &config, &kill)?;
                    }
                }
            }
        }
    }
}
