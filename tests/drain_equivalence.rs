//! Bit-identity of the engine's post drain with the heap drain it
//! replaced. The engine holds the ready post chain as one FIFO queue
//! per chain step and merges the queue fronts, and it takes each
//! step's processor from a two-queue pool: the entries present when
//! the drain starts, sorted once, and a sorted FIFO of re-entries
//! (`oa_sim::engine` module docs, "The post drain"). The heap drain
//! kept below verbatim as the oracle pops one chain heap keyed
//! `(ready, step, seq, scenario, month)` against a pool heap keyed
//! `(avail, proc)`, with a pop and a push per step.
//!
//! The oracle reads its input back from a `VecTracer` recording of the
//! engine's own run: the groups and post processors of
//! `CampaignBegin`, the `GroupDisband` instants, and the order of the
//! main `TaskFinish` events. Every post-step `TaskStart`/`TaskFinish`
//! must then match the oracle in order — task, processor, and the bits
//! of start and end — and so must the `post_finish` and `makespan`
//! bits of the traced run and of an untraced one (which takes the
//! fused drain's quiet replay path).
//!
//! Random cases cover integral and fractional tables, `NS` 1–16 and
//! `NM` 1–48, basic, knapsack and random groupings (the random ones
//! with 0–3 post processors), every policy, both recoveries, 0–3
//! kills, and both granularities. Fixed cases replay unfused
//! `NM = 1800` campaigns on the reference cluster and on each preset,
//! and fused ones with no dedicated post processor, whose pool is
//! every group's processors at their disband instants.
//!
//! Debug builds run 32 random cases; release builds (CI's differential
//! job) run 256.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::time::{time_key, Time, TimeKey};
use ocean_atmosphere::workflow::task::{CD_SECS, COF_SECS, EMF_SECS, FUSED_POST_SECS};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

const POLICIES: [ScenarioPolicy; 3] = [
    ScenarioPolicy::LeastAdvanced,
    ScenarioPolicy::RoundRobin,
    ScenarioPolicy::MostAdvanced,
];

// ---- Oracle: the heap drain, verbatim ----

/// What the main phase hands the drain, read back from a trace.
struct DrainInput {
    /// Pool pushes `(availability, processor)` in engine order: the
    /// dedicated post processors at 0, then each disbanded group's
    /// processors at its disband instant.
    pool: Vec<(f64, u32)>,
    /// Main completions `(finish, scenario, month)` in completion order.
    mains: Vec<(f64, u32, u32)>,
    /// The last main completion.
    main_finish: f64,
}

/// The step durations and task kinds of one month's post chain: the
/// fused post, or the Figure 1 chain rescaled by the table's post/180
/// cluster-speed ratio.
fn post_steps(granularity: Granularity, tp: f64) -> (Vec<f64>, Vec<TaskKind>) {
    match granularity {
        Granularity::Fused => (vec![tp], vec![TaskKind::FusedPost]),
        Granularity::Unfused => {
            let speed = tp / FUSED_POST_SECS;
            (
                vec![COF_SECS * speed, EMF_SECS * speed, CD_SECS * speed],
                vec![TaskKind::Cof, TaskKind::Emf, TaskKind::Cd],
            )
        }
    }
}

/// One placed post step: task, processor, start and end.
type Placed = (FusedTask, u32, f64, f64);

/// Drains `input` through one chain heap and one pool heap, returning
/// every placed step in pop order and the post finish.
fn heap_drain(input: &DrainInput, steps: &[f64], kinds: &[TaskKind]) -> (Vec<Placed>, f64) {
    let last_step = u8::try_from(steps.len() - 1).expect("at most 3 steps");
    let mut post_pool: BinaryHeap<TimeKey<u32>> = BinaryHeap::new();
    for &(avail, proc) in &input.pool {
        post_pool.push(time_key(avail, proc));
    }
    let mut heap: BinaryHeap<TimeKey<(u8, u64, u32, u32)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    for &(t, s, month) in &input.mains {
        heap.push(time_key(t, (0, seq, s, month)));
        seq += 1;
    }
    let mut placed = Vec::with_capacity(input.mains.len() * steps.len());
    let mut post_finish = 0.0f64;
    while let Some(Reverse((Time(ready), (step, _, s, month)))) = heap.pop() {
        let Reverse((Time(avail), proc)) = post_pool.pop().expect("pool non-empty");
        let start = if avail > ready { avail } else { ready };
        let end = start + steps[step as usize];
        post_pool.push(time_key(end, proc));
        let task = FusedTask {
            scenario: s,
            month,
            kind: kinds[step as usize],
        };
        placed.push((task, proc, start, end));
        if step < last_step {
            heap.push(time_key(end, (step + 1, seq, s, month)));
            seq += 1;
        } else {
            post_finish = post_finish.max(end);
        }
    }
    (placed, post_finish)
}

// ---- Reading the engine's run ----

/// Rebuilds the drain's input from the engine's event stream.
fn drain_input(events: &[TraceEvent]) -> DrainInput {
    let mut bases = Vec::new();
    let mut input = DrainInput {
        pool: Vec::new(),
        mains: Vec::new(),
        main_finish: 0.0,
    };
    for ev in events {
        match &ev.kind {
            EventKind::CampaignBegin {
                groups, post_procs, ..
            } => {
                let mut acc = 0u32;
                for &g in groups {
                    bases.push(acc);
                    acc += g;
                }
                input.pool.extend((0..*post_procs).map(|p| (0.0, acc + p)));
            }
            EventKind::GroupDisband { group, procs } => {
                let base = bases[*group as usize];
                input.pool.extend((0..*procs).map(|p| (ev.t, base + p)));
            }
            EventKind::TaskFinish {
                task,
                group: Some(_),
                ..
            } => {
                input.mains.push((ev.t, task.scenario, task.month));
                input.main_finish = ev.t;
            }
            _ => {}
        }
    }
    input
}

/// A post-step trace event, floats as bits.
#[derive(Debug, PartialEq)]
enum PostEvent {
    Start {
        task: FusedTask,
        proc: u32,
        t: u64,
    },
    Finish {
        task: FusedTask,
        proc: u32,
        t: u64,
        secs: u64,
    },
}

/// The engine's post-step events, in stream order.
fn post_events(events: &[TraceEvent]) -> Vec<PostEvent> {
    events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::TaskStart {
                task,
                first_proc,
                group: None,
                ..
            } => Some(PostEvent::Start {
                task,
                proc: first_proc,
                t: ev.t.to_bits(),
            }),
            EventKind::TaskFinish {
                task,
                first_proc,
                group: None,
                secs,
                ..
            } => Some(PostEvent::Finish {
                task,
                proc: first_proc,
                t: ev.t.to_bits(),
                secs: secs.to_bits(),
            }),
            _ => None,
        })
        .collect()
}

/// The events the engine emits for the oracle's placements.
fn expected_events(placed: &[Placed]) -> Vec<PostEvent> {
    placed
        .iter()
        .flat_map(|&(task, proc, start, end)| {
            [
                PostEvent::Start {
                    task,
                    proc,
                    t: start.to_bits(),
                },
                PostEvent::Finish {
                    task,
                    proc,
                    t: end.to_bits(),
                    secs: (end - start).to_bits(),
                },
            ]
        })
        .collect()
}

// ---- Checks ----

/// Runs one campaign traced and untraced and checks its drain against
/// the oracle, bit for bit.
fn check(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> Result<(), TestCaseError> {
    let opts = KernelOpts::default();
    let mut tracer = VecTracer::new();
    let (traced, _) =
        simulate_campaign_kernel(inst, table, grouping, config, plan, opts, &mut tracer)
            .expect("valid grouping");
    let (quiet, _) =
        simulate_campaign_kernel(inst, table, grouping, config, plan, opts, &mut NullTracer)
            .expect("valid grouping");
    let events = tracer.into_events();
    let got = post_events(&events);
    let (Some(traced), Some(quiet)) = (traced.completed(), quiet.completed()) else {
        prop_assert!(traced.completed().is_none() && quiet.completed().is_none());
        prop_assert!(got.is_empty(), "a stranded run drained posts");
        return Ok(());
    };

    let input = drain_input(&events);
    let (steps, kinds) = post_steps(config.granularity, table.post_secs());
    let (placed, post_finish) = heap_drain(&input, &steps, &kinds);
    let want = expected_events(&placed);
    let context = format!("{grouping} on {inst:?}, {config:?}, {plan:?}");
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        return Err(TestCaseError::fail(format!(
            "{context}: post event {i} is {:?}, heap drain {:?}",
            got[i], want[i]
        )));
    }
    prop_assert_eq!(got.len(), want.len(), "{}: post event count", context);

    let makespan = input.main_finish.max(post_finish);
    for (label, run) in [("traced", traced), ("untraced", quiet)] {
        prop_assert_eq!(
            run.main_finish.to_bits(),
            input.main_finish.to_bits(),
            "{} {}: main_finish",
            label,
            context
        );
        prop_assert_eq!(
            run.post_finish.to_bits(),
            post_finish.to_bits(),
            "{} {}: post_finish {} vs heap drain {}",
            label,
            context,
            run.post_finish,
            post_finish
        );
        prop_assert_eq!(
            run.makespan.to_bits(),
            makespan.to_bits(),
            "{} {}: makespan",
            label,
            context
        );
    }
    Ok(())
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

/// An instance, a table and a grouping. `kind` picks the basic (0) or
/// knapsack (1) grouping, or (2, and whenever a heuristic does not
/// fit) a random one of up to `NS` groups with 0–3 post processors and
/// a few idle processors.
fn arb_case() -> impl Strategy<Value = (Instance, TimingTable, Grouping)> {
    (
        (1u32..=16, 1u32..=48, 11u32..=120),
        (
            0u32..2,
            50.0f64..3000.0,
            1.0f64..400.0,
            proptest::collection::vec(0.0f64..400.0, 8),
        ),
        (
            0usize..3,
            proptest::collection::vec(4u32..=11, 16),
            1usize..=16,
            0u32..=3,
            0u32..=8,
        ),
    )
        .prop_map(
            |((ns, nm, r), (integral, t11, tp, bumps), (kind, mut sizes, count, post, idle))| {
                let table = table_from(t11, &bumps, tp, integral == 1);
                let planned = Instance::new(ns, nm, r);
                let heuristic = [Heuristic::Basic, Heuristic::Knapsack]
                    .get(kind)
                    .and_then(|h| h.grouping(planned, &table).ok());
                if let Some(grouping) = heuristic {
                    return (planned, table, grouping);
                }
                sizes.truncate(count.min(ns as usize));
                let grouping = Grouping::new(sizes, post);
                let r = u32::try_from(grouping.total_procs()).expect("small") + idle;
                (Instance::new(ns, nm, r), table, grouping)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Random campaigns under every policy, recovery and granularity,
    /// with up to three kills at whole-second instants.
    #[test]
    fn drain_is_bitwise_the_heap_drain(
        (inst, table, grouping) in arb_case(),
        kills in proptest::collection::vec((0usize..4, 0.0f64..1.5), 0..=3),
    ) {
        let clean = estimate(inst, &table, &grouping).expect("valid grouping").makespan;
        let plan = FaultPlan {
            failures: kills
                .iter()
                .map(|&(g, f)| (g % grouping.group_count(), (f * clean).floor()))
                .collect(),
        };
        for policy in POLICIES {
            for recovery in [Recovery::MonthlyCheckpoint, Recovery::RestartScenario] {
                for granularity in [Granularity::Fused, Granularity::Unfused] {
                    let config = CampaignConfig {
                        policy,
                        granularity,
                        recovery,
                    };
                    check(inst, &table, &grouping, &config, &plan)?;
                }
            }
        }
    }
}

/// The reference cluster's table, then each preset's.
fn reference_and_preset_tables() -> Vec<TimingTable> {
    let mut tables = vec![reference_cluster(53).timing];
    tables.extend(
        benchmark_grid(DEFAULT_RESOURCES)
            .clusters()
            .iter()
            .map(|c| c.timing.clone()),
    );
    tables
}

/// Unfused `NM = 1800` campaigns, the runs whose drain dominated their
/// cost, on the reference cluster and on each preset, under the basic
/// and knapsack groupings.
#[test]
fn unfused_reference_campaigns_are_bitwise_the_heap_drain() {
    let tables = reference_and_preset_tables();
    let inst = Instance::new(10, 1800, 53);
    let config = CampaignConfig {
        policy: ScenarioPolicy::LeastAdvanced,
        granularity: Granularity::Unfused,
        recovery: Recovery::MonthlyCheckpoint,
    };
    for table in &tables {
        for h in [Heuristic::Basic, Heuristic::Knapsack] {
            let grouping = h.grouping(inst, table).expect("R = 53 fits");
            check(inst, table, &grouping, &config, &FaultPlan::none())
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Fused `NM = 1800` campaigns with no dedicated post processor: the
/// knapsack groups at `R = 53` on the reference cluster (`4×8 + 3×7`,
/// all 53 processors) and on each preset, with any post reserve
/// dropped, so every processor enters the pool at its group's disband
/// and the whole drain runs on disbanded processors.
#[test]
fn fused_campaigns_without_post_processors_are_bitwise_the_heap_drain() {
    let config = CampaignConfig::default();
    for table in &reference_and_preset_tables() {
        let knapsack = Heuristic::Knapsack
            .grouping(Instance::new(10, 1800, 53), table)
            .expect("R = 53 fits");
        let grouping = Grouping::new(knapsack.groups().to_vec(), 0);
        let r = u32::try_from(grouping.total_procs()).expect("at most 53");
        let inst = Instance::new(10, 1800, r);
        check(inst, table, &grouping, &config, &FaultPlan::none())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
