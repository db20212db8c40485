//! Bit-identity of the simulation kernel (the steady-state fast-forward
//! over the integer-time gate) with plain event-by-event execution:
//! the hard invariant of DESIGN.md §"Cycle detection". The kernel is a
//! pure wall-clock optimization — schedule records, makespan bits, the
//! live metrics fold, and the Chrome export must not move by a single
//! bit whether the clock runs tick-by-tick or leaps whole cycles, on
//! integral-second timing tables (where the kernel engages) and on
//! fractional ones (where it must stand down cleanly).
//!
//! Debug builds run 24 random cases; release builds (CI's differential
//! job) run 256.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ocean_atmosphere::par::Pool;
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::kernel::{main_dur, post_model};
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

/// Shortest month of a long-month table: 2^16 s. Month length alone
/// must never stand integer time down.
const LONG_MONTH: f64 = 65_536.0;

/// Integral-second timing tables: the precondition of the integer-time
/// kernel. Whole-second base duration and bumps keep every `T[G]` (and
/// the post duration) on the tick lattice. One table in four is a
/// long-month table, every main duration at least [`LONG_MONTH`].
fn arb_integral_table() -> impl Strategy<Value = TimingTable> {
    (
        50u32..3000,
        1u32..400,
        proptest::collection::vec(0u32..400, 8),
        0u32..4,
    )
        .prop_map(|(t11, tp, bumps, branch)| {
            let mut main = [0.0f64; 8];
            let long = if branch == 0 { LONG_MONTH } else { 0.0 };
            let mut acc = f64::from(t11) + long;
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

/// The closed-form drain's premise, re-derived from the table (engine
/// module docs, "The closed-form drain"): at least one dedicated post
/// processor per group, and a post chain that ends before its group can
/// complete again — fused, `TP` at most the shortest main; unfused, the
/// step sum plus a rounding margin strictly below it.
fn keeps_pace(
    table: &TimingTable,
    grouping: &Grouping,
    granularity: Granularity,
    main_finish: f64,
) -> bool {
    let (steps, pre, _) = post_model(granularity, table.post_secs());
    let min_dur = grouping
        .groups()
        .iter()
        .map(|&g| main_dur(table.main_array(), g, granularity, pre))
        .fold(f64::INFINITY, f64::min);
    let chain_fits = match granularity {
        Granularity::Fused => table.post_secs() <= min_dur,
        Granularity::Unfused => {
            steps.iter().sum::<f64>() + 4.0 * f64::EPSILON * (main_finish + min_dur) < min_dur
        }
    };
    grouping.post_procs as usize >= grouping.group_count() && chain_fits
}

/// The saturated drain's premise on the pool, re-derived from a traced
/// run (engine module docs, "The saturated drain"). The fused drain is
/// replayed over availabilities alone: the dedicated processors free at
/// 0, each `GroupDisband` adds its processors at its instant, and the
/// posts are ready at the main `TaskFinish` instants, in order. Returns
/// how many posts remain at the first take whose processor frees at or
/// after the last ready time, or 0 when no take's does.
fn saturated_posts(events: &[TraceEvent], post_procs: u32, tp: f64) -> u64 {
    let mut pool: BinaryHeap<Reverse<Time>> = (0..post_procs).map(|_| Reverse(Time(0.0))).collect();
    let mut readies = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::TaskFinish { group: Some(_), .. } => readies.push(ev.t),
            EventKind::GroupDisband { procs, .. } => {
                pool.extend((0..procs).map(|_| Reverse(Time(ev.t))));
            }
            _ => {}
        }
    }
    let Some(&last) = readies.last() else {
        return 0;
    };
    for (j, &ready) in readies.iter().enumerate() {
        let Reverse(Time(avail)) = pool.pop().expect("a completed run has a post pool");
        if avail >= last {
            return (readies.len() - j) as u64;
        }
        pool.push(Reverse(Time(avail.max(ready) + tp)));
    }
    0
}

/// The bits a run's outcome must keep: makespan, main and post finish,
/// and the work lost to crashes (`None` when stranded).
fn outcome_bits(outcome: &CampaignOutcome) -> Option<[u64; 4]> {
    outcome
        .completed()
        .map(|r| [r.makespan, r.main_finish, r.post_finish, r.lost_proc_secs].map(f64::to_bits))
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
            let rep = assert_bitwise(inst, &table, &grouping, &config, &plan)?;
            // The replays and the saturated count need a one-step chain.
            if granularity == Granularity::Unfused {
                prop_assert_eq!((rep.post_cycles_skipped, rep.posts_closed_form), (0, 0));
            }
        }
    }

    /// Tracing and metrics see the same story either way: identical
    /// Chrome export bytes and an identical live metrics fold, with
    /// 0–3 kills, so the journal replays between faults are pinned too.
    #[test]
    fn kernel_preserves_traces_and_metrics(
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
            let run = |opts: KernelOpts| {
                let mut sink = Metered::new(VecTracer::new());
                let (out, _) = simulate_campaign_kernel(
                    inst, &table, &grouping, &config, &plan, opts, &mut sink,
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

    /// The fast-forward's fault cap at its boundary: a replay ends
    /// strictly before the next pending failure, which goes first at an
    /// equal instant. The first kill lands on a main completion instant
    /// of the fault-free event-by-event run, the second on one of the
    /// once-killed run's after the first kill, each exactly and a tick
    /// either side. Basic and knapsack groupings, both granularities,
    /// a drawn policy and recovery, traced and untraced: every run
    /// equals the event-by-event run in its outcome bits and, traced, in
    /// every event. Random fault instants almost never land on a
    /// replayed cycle's last completion, where a cap that lets the
    /// replay reach the fault (`t + k·D ≤ tf`) differs.
    #[test]
    fn the_fault_cap_holds_at_completion_instants(
        (inst, table) in (arb_instance(), arb_integral_table()),
        (first, second) in (0.0f64..1.0, 0.0f64..1.0),
        (g1, g2) in (0usize..8, 0usize..8),
        (policy, restart) in (0usize..3, 0u32..2),
    ) {
        let recovery = if restart == 1 { Recovery::RestartScenario } else { Recovery::MonthlyCheckpoint };
        for h in [Heuristic::Basic, Heuristic::Knapsack] {
            let Ok(grouping) = h.grouping(inst, &table) else { continue };
            let n = grouping.group_count();
            for granularity in [Granularity::Fused, Granularity::Unfused] {
                let config = CampaignConfig { policy: POLICIES[policy], granularity, recovery };
                let traced = |plan: &FaultPlan, opts: KernelOpts| {
                    let mut tracer = VecTracer::new();
                    let (out, _) = simulate_campaign_kernel(
                        inst, &table, &grouping, &config, plan, opts, &mut tracer,
                    )
                    .expect("valid grouping");
                    (out, tracer.into_events())
                };
                // Main completion instants from `after` on, in order.
                let finishes = |plan: &FaultPlan, after: f64| -> Vec<f64> {
                    let (_, events) = traced(plan, KernelOpts::event_by_event());
                    events
                        .iter()
                        .filter(|ev| ev.t >= after)
                        .filter_map(|ev| match ev.kind {
                            EventKind::TaskFinish { group: Some(_), .. } => Some(ev.t),
                            _ => None,
                        })
                        .collect()
                };
                let pick = |ts: &[f64], f: f64, or: f64| {
                    ts.get((f * ts.len() as f64) as usize).copied().unwrap_or(or)
                };
                let t1 = pick(&finishes(&FaultPlan::none(), 0.0), first, 0.0);
                for d1 in [-1.0, 0.0, 1.0] {
                    let once = FaultPlan::none().kill(g1 % n, (t1 + d1).max(0.0));
                    let t2 = pick(&finishes(&once, t1 + d1), second, t1);
                    for d2 in [-1.0, 0.0, 1.0] {
                        let plan = once.clone().kill(g2 % n, (t2 + d2).max(0.0));
                        let rep = assert_bitwise(inst, &table, &grouping, &config, &plan)?;
                        prop_assert!(rep.integer_time, "integral kills keep integer time");
                        let (fast, fast_events) = traced(&plan, KernelOpts::default());
                        let (base, base_events) = traced(&plan, KernelOpts::event_by_event());
                        prop_assert_eq!(outcome_bits(&fast), outcome_bits(&base), "{} {:?}: {:?}", grouping, granularity, plan);
                        prop_assert_eq!(&fast, &base);
                        prop_assert!(fast_events == base_events, "{} {:?}: trace diverged under {:?}", grouping, granularity, plan);
                    }
                }
            }
        }
    }

    /// Unobserved fused drains: a kill keeps the run from recording,
    /// and with no tracer nothing observes the drain, so its pool
    /// fast-forwards by availability. Equal groups ahead of 30–40
    /// dedicated post processors end posts together, which keeps the
    /// processor-id map permuting while the availability multiset
    /// recurs. Kill instants are integral, so the run keeps integer
    /// time.
    #[test]
    fn unobserved_drains_are_bitwise_on_wide_pools(
        table in arb_integral_table(),
        (ns, nm) in (1u32..=4, 12u32..=150),
        (size, post) in (4u32..=11, 30u32..=40),
        (group, frac) in (0usize..4, 0.0f64..1.2),
    ) {
        let grouping = Grouping::uniform(size, ns, post);
        let inst = Instance::new(ns, nm, size * ns + post);
        let clean = estimate(inst, &table, &grouping).expect("valid grouping").makespan;
        let plan = FaultPlan::none().kill(group % ns as usize, (frac * clean).floor());
        let config = CampaignConfig::default();
        let rep = assert_bitwise(inst, &table, &grouping, &config, &plan)?;
        prop_assert!(rep.integer_time, "integral kills keep integer time");
    }

    /// The closed-form drain at the edge of its premise. Up to three
    /// groups on `G − 1`, `G` or `G + k` dedicated post processors;
    /// `TP` a second short of the shortest main, equal to it, a second
    /// over, an ulp either side, or up to 4096 ulps short, where the
    /// unfused rounding margin decides; integral and fractional tables;
    /// no fault or one kill. Every run equals the event-by-event run
    /// bitwise, and skips its drain for the closed form exactly when it
    /// completes unobserved (a fused fault-free run records its
    /// schedule) and the premise holds.
    #[test]
    fn the_closed_form_drain_takes_exactly_its_premise(
        (integral, fractional, pick) in (arb_integral_table(), arb_fractional_table(), 0u32..2),
        sizes in proptest::collection::vec(4u32..=11, 1..=3),
        (ns_extra, nm, k) in (0u32..=2, 1u32..=40, 1u32..=8),
        (ulps, group, frac) in (1u32..=4096, 0usize..3, 0.0f64..1.2),
    ) {
        let main = *if pick == 0 { &integral } else { &fractional }.main_array();
        let g = sizes.len() as u32;
        let ns = g + ns_extra;
        let shortest = sizes
            .iter()
            .map(|&size| main[(size - 4) as usize])
            .fold(f64::INFINITY, f64::min);
        let below = shortest - f64::from(ulps) * (shortest.next_up() - shortest);
        let tps = [
            shortest - 1.0,
            shortest,
            shortest + 1.0,
            shortest.next_down(),
            shortest.next_up(),
            below,
        ];
        for post in [g - 1, g, g + k] {
            let grouping = Grouping::new(sizes.clone(), post);
            let inst = Instance::new(ns, nm, grouping.total_procs() as u32);
            for tp in tps {
                let table = TimingTable::new(main, tp).expect("non-increasing");
                for granularity in [Granularity::Fused, Granularity::Unfused] {
                    let config = CampaignConfig { granularity, ..CampaignConfig::default() };
                    let clean = simulate_campaign(
                        inst, &table, &grouping, &config, &FaultPlan::none(), &mut NullTracer,
                    )
                    .expect("valid grouping")
                    .makespan()
                    .unwrap_or(0.0);
                    let kill = FaultPlan::none().kill(group % sizes.len(), (frac * clean).floor());
                    for plan in [FaultPlan::none(), kill] {
                        let rep = assert_bitwise(inst, &table, &grouping, &config, &plan)?;
                        let (outcome, _) = simulate_campaign_kernel(
                            inst, &table, &grouping, &config, &plan,
                            KernelOpts::default(), &mut NullTracer,
                        )
                        .expect("valid grouping");
                        let observed =
                            granularity == Granularity::Fused && plan.failures.is_empty();
                        let closed_form = !observed
                            && outcome.completed().is_some_and(|run| {
                                keeps_pace(&table, &grouping, granularity, run.main_finish)
                            });
                        prop_assert_eq!(
                            rep.drain_closed_form,
                            closed_form,
                            "{} on {:?}, TP {}, {:?}, {:?}: {:?}",
                            grouping, inst, tp, granularity, plan, rep
                        );
                    }
                }
            }
        }
    }

    /// The saturated drain at the edge of its premise. Up to three
    /// groups on 0, 1, `G − 1` or `G + k` dedicated post processors,
    /// after one kill. A fused run's main phase does not read `TP`, so
    /// one traced event-by-event run fixes the ready times and the pool,
    /// and a bisection over the replay of [`saturated_posts`] finds the
    /// least whole `TP*` whose drain saturates: there the last take's
    /// processor often frees exactly at the last ready time, and at
    /// `TP* − 1` often a tick before it. Runs at `TP*`, `TP* ± 1`, an
    /// ulp over `TP*`, `TP* + 0.5` and one drawn `TP` each equal the
    /// event-by-event run bitwise, and count exactly the posts the
    /// replay leaves when the premise holds: integer time (integral
    /// mains and kill instant), a tick-exact `TP`, and a pool that does
    /// not keep pace (that drain is skipped for its own closed form).
    /// Otherwise they count none, so fractional mains, a half-second
    /// kill, the ulp and the half decline. Then a batch on the case's
    /// mains resumes its variants from shared heads, and each equals
    /// its event-by-event run bitwise.
    #[test]
    fn the_saturated_drain_takes_exactly_its_premise(
        (integral, fractional, pick) in (arb_integral_table(), arb_fractional_table(), 0u32..4),
        sizes in proptest::collection::vec(4u32..=11, 1..=3),
        (ns_extra, nm, k) in (0u32..=2, 1u32..=30, 1u32..=8),
        (group, frac, half, drawn) in (0usize..3, 0.0f64..1.0, 0u32..4, 1u32..=3000),
        (r, seed, faults) in (11u32..=90, 0u32..1000, 1u32..=3),
    ) {
        let main = *if pick == 0 { &fractional } else { &integral }.main_array();
        let g = sizes.len() as u32;
        let ns = g + ns_extra;
        let config = CampaignConfig::default();
        let mut posts = vec![0, 1, g - 1, g + k];
        posts.sort_unstable();
        posts.dedup();
        for post in posts {
            let grouping = Grouping::new(sizes.clone(), post);
            let inst = Instance::new(ns, nm, grouping.total_procs() as u32);
            let table = TimingTable::new(main, f64::from(drawn)).expect("non-increasing");
            let clean = simulate_campaign(
                inst, &table, &grouping, &config, &FaultPlan::none(), &mut NullTracer,
            )
            .expect("valid grouping");
            let Some(clean) = clean.completed() else { continue };
            let at = (frac * clean.main_finish).floor() + if half == 0 { 0.5 } else { 0.0 };
            let plan = FaultPlan::none().kill(group % sizes.len(), at);
            let mut tracer = VecTracer::new();
            let (traced, _) = simulate_campaign_kernel(
                inst, &table, &grouping, &config, &plan, KernelOpts::event_by_event(), &mut tracer,
            )
            .expect("valid grouping");
            let Some(traced) = traced.completed() else { continue };
            let events = tracer.into_events();
            let saturates = |tp: u32| saturated_posts(&events, post, f64::from(tp)) > 0;
            let top = traced.main_finish.ceil() as u32 + 1;
            let threshold = saturates(top).then(|| {
                let (mut lo, mut hi) = (1u32, top);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if saturates(mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                f64::from(lo)
            });
            let mut tps = vec![f64::from(drawn)];
            if let Some(t) = threshold {
                tps.extend([t, t + 1.0, t.next_up(), t + 0.5]);
                if t > 1.0 {
                    tps.push(t - 1.0);
                }
            }
            for tp in tps {
                let table = TimingTable::new(main, tp).expect("non-increasing");
                let run = |opts: KernelOpts| {
                    simulate_campaign_kernel(
                        inst, &table, &grouping, &config, &plan, opts, &mut NullTracer,
                    )
                    .expect("valid grouping")
                };
                let (fast, rep) = run(KernelOpts::default());
                let (base, base_rep) = run(KernelOpts::event_by_event());
                prop_assert_eq!(base_rep, KernelReport::default());
                prop_assert_eq!(outcome_bits(&fast), outcome_bits(&base), "{} on {:?}, TP {}, {:?}: {:?}", grouping, inst, tp, plan, rep);
                prop_assert_eq!(&fast, &base);
                let premise = kernel_eligibility(inst, &table, &grouping, &config, &plan)
                    && tp.fract() == 0.0
                    && !keeps_pace(&table, &grouping, Granularity::Fused, traced.main_finish);
                let want = if premise { saturated_posts(&events, post, tp) } else { 0 };
                // A post-phase replay may carry the drain past the take
                // where its premise first holds, so it counts fewer.
                if rep.post_cycles_skipped == 0 {
                    prop_assert_eq!(rep.posts_closed_form, want, "{} on {:?}, TP {}, {:?}: {:?}", grouping, inst, tp, plan, rep);
                } else {
                    prop_assert!(rep.posts_closed_form <= want, "{} on {:?}, TP {}, {:?}: {:?}", grouping, inst, tp, plan, rep);
                }
            }
        }

        let mut spec = BatchSpec::reference_mc(6, u64::from(seed));
        spec.table = TimingTable::new(main, f64::from(drawn)).expect("non-increasing");
        spec.heuristic = if pick % 2 == 0 { Heuristic::Knapsack } else { Heuristic::Basic };
        spec.rs = vec![r];
        spec.nss = vec![ns];
        spec.nms = vec![nm];
        spec.policies = POLICIES.to_vec();
        spec.max_faults = faults;
        let Ok(shapes) = expand_shapes(&spec, &mut PlanMemo::new()) else { return Ok(()) };
        let report = run_batch(&spec, &Pool::new(1)).expect("the shapes expanded");
        let per_shape = spec.variants_per_shape as usize;
        let mut failures = Vec::new();
        for shape in &shapes {
            for v in 0..per_shape {
                faults_for(&spec, shape, v as u64, &mut failures);
                let plan = FaultPlan { failures: failures.clone() };
                let (base, _) = simulate_campaign_kernel(
                    shape.inst, &spec.table, &shape.grouping, &shape.config, &plan,
                    KernelOpts::event_by_event(), &mut NullTracer,
                )
                .expect("valid grouping");
                let want = VariantOut::of(&base, shape.inst);
                let got = report.outs.at(shape.shape_idx * per_shape + v);
                let bits = |o: &VariantOut| {
                    (o.completed, [o.makespan, o.main_finish, o.post_finish, o.lost_proc_secs].map(f64::to_bits), o.months_lost)
                };
                prop_assert_eq!(bits(&got), bits(&want), "{} on {:?}, {:?}", shape.grouping, shape.inst, plan);
            }
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

/// Long months fast-forward like short ones. Six scenarios on six
/// groups of 7, months of 68,000–80,000 s: the run takes integer time
/// and skips 117 of its 120 one-month cycles, bitwise equal to
/// event-by-event runs; the static gate and the certifier agree.
#[test]
fn long_months_take_integer_time_and_fast_forward() {
    let mut main = [0.0f64; 8];
    for (i, slot) in main.iter_mut().enumerate() {
        *slot = 80_000.0 - 1_500.0 * i as f64;
    }
    let table = TimingTable::new(main, 600.0).expect("non-increasing");
    let inst = Instance::new(6, 120, 53);
    let grouping = Grouping::uniform(7, 6, 11);
    let config = CampaignConfig::default();
    let plan = FaultPlan::none();
    assert!(table.main_secs(11) > LONG_MONTH);
    let rep = assert_bitwise(inst, &table, &grouping, &config, &plan).expect("bitwise");
    assert!(rep.integer_time, "long months must take the integer path");
    assert_eq!(rep.main_cycles_skipped, 117);
    assert!(rep.post_cycles_skipped > 0, "{rep:?}");
    assert!(kernel_eligibility(inst, &table, &grouping, &config, &plan));
    let cert = ocean_atmosphere::analyze::certify::certify(inst, &table, &grouping, &config, &plan);
    assert!(cert.integer_kernel);
}

/// Capricorne's `3×11 | post:31` after a kill: 31 dedicated post
/// processors keep pace with the three groups (184 s posts on 1290 s
/// mains), so the unobserved run skips its drain for the closed form,
/// bitwise equal to event-by-event runs.
///
/// Outside that premise, `3×8 | post:37` with 3883 s posts on 543 s
/// mains, after a kill: the surviving groups settle into a new steady
/// state, and the unobserved drain replays its cycles by availability.
/// A traced run of the same plan is observed, and its by-id match never
/// engages: three posts per cycle end together, so the pool's
/// processor-id map keeps permuting.
#[test]
fn a_killed_run_fast_forwards_its_drain_by_availability() {
    let table = preset_cluster("capricorne", 64).timing;
    let inst = Instance::new(3, 120, 64);
    let grouping = Grouping::uniform(11, 3, 31);
    let plan = FaultPlan::none().kill(0, 3600.0);
    let rep = assert_bitwise(inst, &table, &grouping, &CampaignConfig::default(), &plan)
        .expect("bitwise");
    assert!(rep.main_cycles_skipped > 0, "{rep:?}");
    assert!(rep.drain_closed_form, "{rep:?}");
    assert_eq!(rep.post_cycles_skipped, 0, "{rep:?}");

    let main = [1500.0, 1321.0, 1201.0, 904.0, 543.0, 390.0, 376.0, 247.0];
    let table = TimingTable::new(main, 3883.0).expect("non-increasing");
    let inst = Instance::new(3, 128, 61);
    let grouping = Grouping::uniform(8, 3, 37);
    let config = CampaignConfig::default();
    let rep = assert_bitwise(inst, &table, &grouping, &config, &plan).expect("bitwise");
    assert!(rep.main_cycles_skipped > 0, "{rep:?}");
    assert!(!rep.drain_closed_form, "{rep:?}");
    assert!(rep.post_cycles_skipped > 0, "{rep:?}");
    let (traced, traced_rep) = simulate_campaign_kernel(
        inst,
        &table,
        &grouping,
        &config,
        &plan,
        KernelOpts::default(),
        &mut VecTracer::new(),
    )
    .expect("valid grouping");
    let untraced = simulate_campaign(inst, &table, &grouping, &config, &plan, &mut NullTracer)
        .expect("valid grouping");
    assert_eq!(traced, untraced);
    assert_eq!(traced_rep.post_cycles_skipped, 0, "{traced_rep:?}");
}

/// The replay cap holds on an unobserved drain. Two scenarios on two
/// groups of 8 with no dedicated post processor; the kill leaves one
/// group, whose 8 processors join the pool only when it disbands, after
/// every post is ready. Two posts per 796 s boundary, each lasting
/// 796 s: at one boundary the pool reads `[X, X, Y × 6]`, at the next
/// `[Y × 8]` with `Y = X + 796`, a recurrence whose shifted values reach
/// the stable one. The cap refuses it; replaying would pop the stable
/// processors as if they were cycling.
#[test]
fn a_saturated_unobserved_drain_is_capped() {
    let mut main = [0.0f64; 8];
    for (i, slot) in main.iter_mut().enumerate() {
        *slot = 438.0 - 10.0 * i as f64;
    }
    let table = TimingTable::new(main, 796.0).expect("non-increasing");
    let inst = Instance::new(2, 30, 16);
    let grouping = Grouping::uniform(8, 2, 0);
    let plan = FaultPlan::none().kill(0, 4042.0);
    let rep = assert_bitwise(inst, &table, &grouping, &CampaignConfig::default(), &plan)
        .expect("bitwise");
    assert!(rep.main_cycles_skipped > 0, "{rep:?}");
    assert_eq!(rep.post_cycles_skipped, 0, "{rep:?}");
}

/// The three `oabench` shapes without dedicated post processors, on the
/// reference table at `NS = 10`, `NM = 1800`: basic `5×8` at R 40 and
/// `10×8` at R 80, knapsack `4×8 + 3×7` at R 53. Every post waits for
/// the groups to disband. After a kill nothing observes the run. Under
/// the two policies the `mc_*` workloads sweep, the scenarios finish
/// together, so the groups disband at the end of the campaign and the
/// drain saturates early: the run counts more than 14,000 of its 18,000
/// posts off the pool (17,496–17,882 under least-advanced, and 14,836
/// for the knapsack under round-robin). Every policy's run counts exactly as
/// many as the replay of its traced twin leaves (most-advanced finishes
/// scenarios one after another, so its groups disband early and its
/// pool keeps up), bitwise equal to the event-by-event run.
#[test]
fn post_free_shapes_count_their_drain_off_the_pool() {
    let table = BatchSpec::reference_mc(1, 0).table;
    let shapes = [
        (Heuristic::Basic, 40, vec![8; 5]),
        (Heuristic::Basic, 80, vec![8; 10]),
        (Heuristic::Knapsack, 53, vec![8, 8, 8, 8, 7, 7, 7]),
    ];
    for (heuristic, r, sizes) in shapes {
        let inst = Instance::new(10, 1800, r);
        let grouping = heuristic.grouping(inst, &table).expect("feasible");
        assert_eq!((grouping.groups(), grouping.post_procs), (&sizes[..], 0));
        let plan = FaultPlan::none().kill(1, 1_000_000.0);
        for policy in POLICIES {
            let config = CampaignConfig {
                policy,
                ..CampaignConfig::default()
            };
            let rep = assert_bitwise(inst, &table, &grouping, &config, &plan).expect("bitwise");
            let mut tracer = VecTracer::new();
            simulate_campaign_kernel(
                inst,
                &table,
                &grouping,
                &config,
                &plan,
                KernelOpts::event_by_event(),
                &mut tracer,
            )
            .expect("valid grouping");
            let want = saturated_posts(&tracer.into_events(), 0, table.post_secs());
            assert_eq!(rep.posts_closed_form, want, "{grouping} under {policy}");
            if policy != ScenarioPolicy::MostAdvanced {
                assert!(want > 14_000, "{grouping} under {policy}: {rep:?}");
            }
        }
    }
}

/// A pending failure caps the fast-forward instead of holding it off:
/// replaying cycles over an unprocessed fault would stamp records the
/// fault should have interrupted, so every replayed completion lies
/// strictly before it. A failure scheduled beyond the campaign end never
/// fires, so it caps nothing: the run replays the fault-free cycles, 84
/// main and 84 post, and keeps the fault-free makespan.
#[test]
fn a_pending_fault_caps_the_replay() {
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
    assert_eq!(
        (clean_rep.main_cycles_skipped, clean_rep.post_cycles_skipped),
        (84, 84),
        "control must fast-forward"
    );

    // The kill stays pending for the whole run and lies past every
    // cycle, so the detector replays exactly what the control does.
    let plan = FaultPlan::none().kill(0, 1.0e12);
    let (held, held_rep) = run(&plan);
    assert!(held_rep.integer_time);
    assert_eq!(
        (held_rep.main_cycles_skipped, held_rep.post_cycles_skipped),
        (84, 84),
        "a fault past the campaign caps nothing"
    );

    // The unfired failure changes nothing observable.
    let c = clean.completed().expect("fault-free runs complete");
    let h = held.completed().expect("the fault never fires");
    assert_eq!(c.makespan.to_bits(), h.makespan.to_bits());
}
