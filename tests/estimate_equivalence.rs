//! Bit-identity of the planning estimator (`oa_sched::estimate`) with
//! the heap-based event loop it replaced. The estimator scores every
//! candidate grouping of the heuristic searches, so all five
//! `Estimate` fields must stay bitwise what the textbook loop
//! computes: a binary heap of busy groups with a pop-push-assign pass
//! per completion, and a binary heap of processor-free times for the
//! post drain. That loop is kept below verbatim as the oracle.
//!
//! Cases cover fractional and integral random tables and the five
//! preset clusters (whose `T[G]` and `TP` are mostly fractional),
//! `NS` from 1 to 64 plus service-sized shapes at 512, one group per
//! scenario, uniform and mixed group sizes, and post pools empty or
//! not. Every case is also planned through the chain planner, from the
//! fused mesh of its shape, and checked against the oracle too. A deterministic
//! sweep replays every candidate grouping of Figure 8, each also run
//! through the `oa-sim` engine, whose makespan, main finish and post
//! finish must be the same bits.
//!
//! The estimator steps one size class (a run of equal adjacent group
//! sizes) at a time, so the order of two classes that finish at the
//! same instant matters. Random fractional tables almost never make
//! two classes meet, so a deterministic sweep runs tables whose
//! durations are commensurate — integral and dyadic, where `T[8]` and
//! `T[7]` meet every third and second month — on mixed groupings with
//! scenarios waiting, and on groupings whose sizes are not sorted.
//!
//! A grouping of one size class replays its steady rotation: whole
//! cycles of the loop's float operations with no scenario bookkeeping.
//! A deterministic sweep runs one-class groupings whose group count
//! equals, divides, does not divide and is one against `NS`, at every
//! campaign length up to three rotations and two months past, on the
//! presets and an integral table, so every way a campaign can end in
//! or after a cycle is checked against the oracle.
//!
//! Debug builds run 32 random cases per property; release builds
//! (CI's differential job) run 256.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::RangeInclusive;

use ocean_atmosphere::platform::presets::{benchmark_grid, DEFAULT_RESOURCES};
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::heuristics::no_post_candidates;
use ocean_atmosphere::sched::time::{time_key, TimeKey};
use ocean_atmosphere::workflow::task::MIN_PROCS;
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

/// Months per scenario in the Figure 8 replay: the figure's 1800 in
/// release builds, a shorter 24 in debug ones.
const FIG8_NM: u32 = if cfg!(debug_assertions) { 24 } else { 1800 };

/// The long campaign of the one-class sweep: the paper's 1800 months
/// in release builds, a shorter 120 in debug ones.
const LONG_NM: u32 = if cfg!(debug_assertions) { 120 } else { 1800 };

// ---- Oracle: the heap-based estimator loop, verbatim ----

#[derive(Default)]
struct Scratch {
    /// Per-group main duration, `T[sizes[i]]`.
    durs: Vec<f64>,
    /// Busy groups: (finish time, group). Min-heap on the shared key.
    busy: BinaryHeap<TimeKey<usize>>,
    /// Which scenario each busy group is running.
    running: Vec<Option<u32>>,
    /// Waiting scenarios: least months first. Min-heap via `Reverse`.
    waiting: BinaryHeap<Reverse<(u32, u32)>>,
    /// Months completed per scenario.
    months_done: Vec<u32>,
    /// Idle groups, sorted ascending by (size, index).
    idle: Vec<usize>,
    /// Main-task finish times, in completion order.
    post_ready: Vec<f64>,
    /// Post-processor availability times.
    post_pool: BinaryHeap<Reverse<Time>>,
}

/// The event loop proper, on pre-validated input and reusable state.
fn run(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    scratch: &mut Scratch,
) -> Estimate {
    let sizes: &[u32] = grouping.groups();
    // The `T[G]` row, indexed by `G - 4` — one array load per group
    // instead of a spec lookup per `main_secs` call.
    let trow = table.main_array();
    let tp = table.post_secs();
    let nm = inst.nm;

    let Scratch {
        durs,
        busy,
        running,
        waiting,
        months_done,
        idle,
        post_ready,
        post_pool,
    } = scratch;
    durs.clear();
    durs.extend(sizes.iter().map(|&g| trow[(g - MIN_PROCS) as usize]));
    let durs: &[f64] = durs;
    busy.clear();
    busy.reserve(sizes.len());
    running.clear();
    running.resize(sizes.len(), None);
    waiting.clear();
    waiting.reserve(inst.ns as usize);
    for s in 0..inst.ns {
        waiting.push(Reverse((0, s)));
    }
    months_done.clear();
    months_done.resize(inst.ns as usize, 0);
    let mut unfinished = inst.ns as usize;
    // Idle groups, kept sorted ascending by (size, index) — the largest
    // is at the back for O(1) pop, the smallest at the front to disband.
    idle.clear();
    idle.extend(0..sizes.len());
    idle.sort_unstable_by_key(|&g| (sizes[g], g));
    let mut alive = sizes.len();

    // Post bookkeeping.
    post_ready.clear();
    post_ready.reserve(inst.nbtasks() as usize);
    // Processor pool for posts: avail times (dedicated start at 0).
    post_pool.clear();
    post_pool.reserve(inst.r as usize);
    for _ in 0..grouping.post_procs {
        post_pool.push(Reverse(Time(0.0)));
    }

    let mut main_finish = 0.0f64;
    let mut main_busy = 0.0f64;

    // Assignment + disband pass at time `now`.
    let assign = |now: f64,
                  idle: &mut Vec<usize>,
                  waiting: &mut BinaryHeap<Reverse<(u32, u32)>>,
                  busy: &mut BinaryHeap<TimeKey<usize>>,
                  running: &mut Vec<Option<u32>>,
                  alive: &mut usize,
                  unfinished: usize,
                  post_pool: &mut BinaryHeap<Reverse<Time>>| {
        while !idle.is_empty() {
            if let Some(&Reverse((_, s))) = waiting.peek() {
                let g = idle.pop().expect("checked non-empty"); // largest idle group
                waiting.pop();
                running[g] = Some(s);
                busy.push(time_key(now + durs[g], g));
            } else {
                break;
            }
        }
        // Disband surplus: a group beyond the number of unfinished
        // scenarios can never receive another main task.
        while !idle.is_empty() && *alive > unfinished {
            let g = idle.remove(0); // smallest idle group
            *alive -= 1;
            for _ in 0..sizes[g] {
                post_pool.push(Reverse(Time(now)));
            }
        }
    };

    assign(
        0.0,
        &mut *idle,
        &mut *waiting,
        &mut *busy,
        &mut *running,
        &mut alive,
        unfinished,
        &mut *post_pool,
    );

    while let Some(Reverse((Time(t), g))) = busy.pop() {
        let s = running[g].take().expect("busy group has a scenario");
        months_done[s as usize] += 1;
        main_finish = t;
        main_busy += durs[g] * sizes[g] as f64;
        post_ready.push(t);
        if months_done[s as usize] == nm {
            unfinished -= 1;
        } else {
            waiting.push(Reverse((months_done[s as usize], s)));
        }
        // Re-insert g as idle, keeping the (size, index) order.
        let pos = idle
            .binary_search_by_key(&(sizes[g], g), |&x| (sizes[x], x))
            .unwrap_err();
        idle.insert(pos, g);
        assign(
            t,
            &mut *idle,
            &mut *waiting,
            &mut *busy,
            &mut *running,
            &mut alive,
            unfinished,
            &mut *post_pool,
        );
    }
    debug_assert_eq!(unfinished, 0);
    debug_assert_eq!(post_ready.len(), inst.nbtasks() as usize);
    debug_assert!(post_ready.windows(2).all(|w| w[0] <= w[1]));

    // Post phase: FIFO on the pool (dedicated + disbanded processors).
    debug_assert!(!post_pool.is_empty(), "groups always disband eventually");
    let mut post_finish = 0.0f64;
    let mut post_busy = 0.0f64;
    for &ready in post_ready.iter() {
        let Reverse(Time(avail)) = post_pool.pop().expect("pool is non-empty");
        let start = if avail > ready { avail } else { ready };
        let fin = start + tp;
        post_busy += tp;
        if fin > post_finish {
            post_finish = fin;
        }
        post_pool.push(Reverse(Time(fin)));
    }

    Estimate {
        makespan: main_finish.max(post_finish),
        main_finish,
        post_finish,
        main_busy_proc_secs: main_busy,
        post_busy_proc_secs: post_busy,
    }
}

fn oracle(inst: Instance, table: &TimingTable, grouping: &Grouping) -> Estimate {
    grouping.validate(inst).expect("valid grouping");
    run(inst, table, grouping, &mut Scratch::default())
}

// ---- Checks ----

fn bits(e: &Estimate) -> [u64; 5] {
    [
        e.makespan,
        e.main_finish,
        e.post_finish,
        e.main_busy_proc_secs,
        e.post_busy_proc_secs,
    ]
    .map(f64::to_bits)
}

/// The chain plan of the fused mesh of `inst`'s shape on `table`.
fn mesh_plan(inst: Instance, table: &TimingTable) -> ChainPlan {
    let mesh = lower_fused(ExperimentShape::new(inst.ns, inst.nm));
    ChainPlan::of(&mesh, table).expect("a fused mesh is a chain workload")
}

/// `estimate` and the chain planner's `plan` of `inst`'s mesh against
/// the oracle, bit for bit.
fn check(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    plan: &ChainPlan,
) -> Result<(), TestCaseError> {
    let want = oracle(inst, table, grouping);
    let got = estimate(inst, table, grouping).expect("valid grouping");
    prop_assert_eq!(
        bits(&got),
        bits(&want),
        "{} on {:?}: {:?}, heap loop {:?}",
        grouping,
        inst,
        got,
        want
    );
    prop_assert_eq!((plan.chains(), plan.units()), (inst.ns, inst.nm));
    let planned = plan.estimate(inst.r, grouping).expect("valid grouping");
    prop_assert_eq!(
        bits(&planned),
        bits(&want),
        "chain plan {} on {:?}: {:?}, heap loop {:?}",
        grouping,
        inst,
        planned,
        want
    );
    Ok(())
}

fn preset_tables() -> Vec<TimingTable> {
    let grid = benchmark_grid(DEFAULT_RESOURCES);
    grid.clusters().iter().map(|c| c.timing.clone()).collect()
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

/// Tables: fractional (kind 0), integral (kind 1) or one of the five
/// presets (kinds 2..=6).
fn arb_table() -> impl Strategy<Value = TimingTable> {
    (
        0usize..7,
        50.0f64..3000.0,
        1.0f64..400.0,
        proptest::collection::vec(0.0f64..400.0, 8),
    )
        .prop_map(|(kind, t11, tp, bumps)| match kind {
            0 | 1 => table_from(t11, &bumps, tp, kind == 1),
            k => preset_tables().swap_remove(k - 2),
        })
}

/// An instance with `NS` in `ns` and a grouping for it. Mode bits
/// force one group per scenario (1), an empty post pool (2) and
/// uniform sizes (4); otherwise up to `NS` mixed groups, a post pool
/// and a few idle processors.
fn arb_case(ns: RangeInclusive<u32>, nm_max: u32) -> impl Strategy<Value = (Instance, Grouping)> {
    let ns_max = *ns.end() as usize;
    (
        ns,
        1u32..=nm_max,
        proptest::collection::vec(4u32..=11, ns_max),
        (1usize..=ns_max, 0u32..8),
        (1u32..=24, 0u32..=8),
    )
        .prop_map(|(ns, nm, mut sizes, (count, mode), (post, idle))| {
            let n = if mode & 1 == 1 {
                ns as usize
            } else {
                count.min(ns as usize)
            };
            sizes.truncate(n);
            if mode & 4 == 4 {
                let g = sizes[0];
                sizes.fill(g);
            }
            let post = if mode & 2 == 2 { 0 } else { post };
            let grouping = Grouping::new(sizes, post);
            let r = u32::try_from(grouping.total_procs()).expect("small") + idle;
            (Instance::new(ns, nm, r), grouping)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Random shapes with 1 to 64 scenarios on fractional, integral
    /// and preset tables.
    #[test]
    fn estimator_is_bitwise_the_heap_loop(
        (inst, grouping) in arb_case(1..=64, 40),
        table in arb_table(),
    ) {
        check(inst, &table, &grouping, &mesh_plan(inst, &table))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES / 8))]

    /// A few service-sized shapes: 512 scenarios, as a `ClusterJoin`
    /// prices them.
    #[test]
    fn estimator_is_bitwise_the_heap_loop_at_512_scenarios(
        (inst, grouping) in arb_case(512..=512, 6),
        table in arb_table(),
    ) {
        check(inst, &table, &grouping, &mesh_plan(inst, &table))?;
    }
}

/// The engine's fault-free default run of `grouping` against the
/// oracle: makespan, main finish and post finish, bit for bit.
fn check_engine(inst: Instance, table: &TimingTable, grouping: &Grouping) {
    let want = oracle(inst, table, grouping);
    let outcome = simulate_campaign(
        inst,
        table,
        grouping,
        &CampaignConfig::default(),
        &FaultPlan::none(),
        &mut NullTracer,
    )
    .expect("valid grouping");
    let run = outcome.completed().expect("fault-free runs complete");
    assert_eq!(
        [run.makespan, run.main_finish, run.post_finish].map(f64::to_bits),
        [want.makespan, want.main_finish, want.post_finish].map(f64::to_bits),
        "engine {grouping} on {inst:?}: ({}, {}, {}), heap loop {want:?}",
        run.makespan,
        run.main_finish,
        run.post_finish
    );
}

/// Every grouping Figure 8 scores or plots — the Improvement-2
/// candidates plus the Basic, RedistributeIdle and Knapsack choices —
/// at `NS = 10` and every `R` in `11..=120`, on the five presets,
/// through the estimator and the engine.
#[test]
fn figure8_candidates_are_bitwise_the_heap_loop() {
    let mut checked = 0;
    for table in preset_tables() {
        let plan = mesh_plan(Instance::new(10, FIG8_NM, 11), &table);
        for r in 11..=120 {
            let planned = Instance::new(10, 1800, r);
            let mut cands = no_post_candidates(planned);
            for h in [
                Heuristic::Basic,
                Heuristic::RedistributeIdle,
                Heuristic::Knapsack,
            ] {
                cands.push(h.grouping(planned, &table).expect("R >= 11"));
            }
            let inst = Instance::new(10, FIG8_NM, r);
            for grouping in &cands {
                check(inst, &table, grouping, &plan).unwrap_or_else(|e| panic!("{e}"));
                check_engine(inst, &table, grouping);
            }
            checked += cands.len();
        }
    }
    assert!(checked > 5 * 110 * 4, "only {checked} groupings replayed");
}

/// `T[G]` for `G = 4..=11` in units of `scale`: every two durations
/// have a small common multiple, so classes of different sizes finish
/// together every few months (`T[8] = 1000`, `T[7] = 1500`: every
/// 3000).
fn commensurate(scale: f64) -> TimingTable {
    let main = [3000.0, 3000.0, 2000.0, 1500.0, 1000.0, 1000.0, 750.0, 600.0];
    TimingTable::new(main.map(|t| t * scale), 250.0 * scale).expect("non-increasing")
}

/// Mixed groupings on integral and dyadic commensurate tables, with
/// `NS` from the group count to three times it, so that classes meet
/// while scenarios wait; and serde-built groupings whose sizes are not
/// sorted, whose equal sizes form separate classes.
#[test]
fn classes_that_meet_are_bitwise_the_heap_loop() {
    let sorted: [&[u32]; 6] = [
        &[8, 7],
        &[8, 8, 7],
        &[8, 8, 8, 7, 7, 7, 7],
        &[11, 8, 7, 4],
        &[10, 8, 8, 6, 6, 6],
        &[9, 9, 7, 7, 4, 4],
    ];
    let unsorted: [&[u32]; 4] = [&[7, 8, 7], &[7, 8, 8, 7], &[4, 11, 4, 8, 8], &[7, 7, 8, 7]];
    let groupings: Vec<Grouping> = sorted
        .iter()
        .map(|sizes| Grouping::new(sizes.to_vec(), 1))
        .chain(unsorted.iter().map(|sizes| {
            let json = format!(r#"{{"groups":{sizes:?},"post_procs":1}}"#);
            let g: Grouping = serde_json::from_str(&json).expect("a grouping");
            assert_eq!(g.groups(), *sizes, "serde keeps the order");
            g
        }))
        .collect();
    let mut checked = 0;
    for scale in [1.0, 1.0 / 64.0, 0.375] {
        let table = commensurate(scale);
        for grouping in &groupings {
            let n = grouping.group_count() as u32;
            let r = u32::try_from(grouping.total_procs()).expect("small");
            for ns in [n, n + 1, n + 2, 2 * n + 1, 3 * n] {
                for nm in [1, 2, 3, 7, 12, 25] {
                    let inst = Instance::new(ns, nm, r);
                    let plan = mesh_plan(inst, &table);
                    check(inst, &table, grouping, &plan).unwrap_or_else(|e| panic!("{e}"));
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 3 * 10 * 5 * 6);
}

/// `NS` and the group counts the one-class sweep runs at it: `NS`
/// itself, a proper divisor, counts that do not divide it (some with a
/// common factor), and one.
const ROTATIONS: [(u32, &[u32]); 7] = [
    (1, &[1]),
    (2, &[2, 1]),
    (3, &[3, 2, 1]),
    (7, &[7, 3, 5, 1]),
    (10, &[10, 5, 7, 4, 1]),
    (64, &[64, 16, 7, 48, 1]),
    (512, &[512, 128, 3, 384, 1]),
];

/// One-class groupings against the oracle at every `NM` from 1 to
/// three rotations and two months past (a rotation runs every
/// scenario `G / gcd(G, NS)` months), and at a long campaign, with and
/// without a post pool, on the five presets and an integral table.
#[test]
fn one_class_rotations_are_bitwise_the_heap_loop() {
    let gcd = |mut a: u32, mut b: u32| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut tables = preset_tables();
    tables.push(commensurate(1.0));
    let mut checked = 0;
    for (t, table) in tables.iter().enumerate() {
        for (ns, counts) in ROTATIONS {
            for &g in counts {
                let size = 4 + (t as u32 + g) % 8;
                let dm = g / gcd(g, ns);
                for post in [0, 3] {
                    let grouping = Grouping::uniform(size, g, post);
                    let r = size * g + post;
                    for nm in (1..=3 * dm + 2).chain([LONG_NM]) {
                        let inst = Instance::new(ns, nm, r);
                        let want = oracle(inst, table, &grouping);
                        let got = estimate(inst, table, &grouping).expect("valid grouping");
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{grouping} on {inst:?}: {got:?}, heap loop {want:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(
        checked > 6 * 2 * 26 * 5,
        "only {checked} campaigns replayed"
    );
}
