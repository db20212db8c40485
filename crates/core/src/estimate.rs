//! Fast makespan evaluation of arbitrary groupings.
//!
//! The paper evaluates groupings by simulation: "The execution of
//! multiprocessor tasks is done by sorting the ready time of each group
//! of processors and when a group becomes ready, the month of the less
//! advanced simulation waiting is scheduled on this group"
//! (Section 4.3). This module implements that policy as a tight
//! event-driven list scheduler that returns the makespan (and a few
//! aggregates) without materializing a trace — heuristics call it in
//! inner loops. The full-featured simulator in `oa-sim` implements the
//! same policy with traces and validation and is property-tested to
//! agree with this estimator bit for bit (makespan, main finish and
//! post finish).
//!
//! Policy details beyond the quoted sentence (all derivable from the
//! schedule figures and Equations 3–5):
//!
//! * a freed group takes the *waiting* (not running, not finished)
//!   scenario with the fewest completed months;
//! * when several groups are idle, the largest (fastest) group is
//!   served first;
//! * a group disbands — its processors join the post-processing pool —
//!   as soon as the number of live groups exceeds the number of
//!   unfinished scenarios (the surplus group could never receive work:
//!   each completion re-readies at most its own scenario);
//! * post tasks are FIFO on the pool of dedicated post processors plus
//!   disbanded group processors; with identical durations FIFO is
//!   optimal, and assigning each post to the earliest-available
//!   processor minimizes its start time.
//!
//! # The event loop
//!
//! Groups never outnumber scenarios, so at `t = 0` every group takes a
//! scenario and none idles. From then on every live group is busy
//! until it frees, and the freed group is the only idle one: it takes
//! the least advanced waiting scenario (its own, unless one is further
//! behind), or — when its scenario finished and none waits — it is the
//! surplus group and disbands. Three invariants make each step cheap:
//!
//! * **Size classes.** A live group re-arms at `t + T[g]` the instant
//!   it frees, and every group starts at 0, so groups of one size add
//!   the same durations in the same order and share every finish
//!   instant. The groups split into classes — maximal runs of equal
//!   adjacent sizes, so each is a contiguous index range, sorted
//!   grouping or not — with one clock each. The class with the least
//!   `(clock, class index)` steps: its live groups, in index order,
//!   take a scenario or disband, and its clock then advances once. A
//!   re-armed group lands strictly later, so this is exactly the
//!   `(finish, group)` order a heap of busy groups would pop.
//! * **Distinct keys.** Waiting scenarios wait in the engine's own
//!   [`ScenarioQueue`], keyed `(months, scenario)` packed into one
//!   `u64`, and no two share a key. A binary heap's pop sequence is
//!   then fixed by its key set alone, so a freed group's scenario is
//!   swapped with the queue's top in place
//!   ([`ScenarioQueue::push_pop`]), instead of a push and a pop.
//! * **Two sorted queues.** The post pool starts as the dedicated
//!   processors (free at 0) followed by the disbanded processors in
//!   disband order — non-decreasing. Posts are ready in completion
//!   order, so each post's finish, `max(free, ready) + TP`, is
//!   non-decreasing too. The pool is therefore the merge of the
//!   unused initial processors and a FIFO of post finish times, and
//!   the earliest-free processor is the smaller of the two fronts.
//!
//! Each step chooses exactly what a full heap would, and every float
//! operation happens in the same order, so the five [`Estimate`]
//! fields are bitwise those of the textbook loop (pinned by
//! `tests/estimate_equivalence.rs`).
//!
//! # Steady rotation
//!
//! A grouping of one size class (every Basic grouping, and most of
//! the others a Figure 10 point prices) replays whole cycles of its
//! loop instead of running them. Every live group frees at the one
//! clock `t` and re-arms at `t + dur`, so a step's float operations —
//! `main_finish = t`, then `main_busy += work` and a post ready at `t`
//! per live group, then `clock = t + dur` — do not depend on which
//! scenario runs where. Only the bookkeeping (month counts, queue,
//! running ids) does, and it is what the replay must prove periodic:
//!
//! * A **checkpoint** is a step boundary, no group having disbanded,
//!   where every scenario has done the same `m` months (the check runs
//!   when the completions are a multiple of `NS`). The queue then holds
//!   every scenario not running at `(m, s)`, so the bookkeeping is the
//!   running ids in slot order, with `m`. The start, `m = 0`, is one.
//! * Until some count reaches `NM`, the step rule reads month counts
//!   only through their order, and adding one constant to every count
//!   keeps that order. So if the ids at a checkpoint equal those at the
//!   previous one, `dm` months and `p` steps earlier, the next `p`
//!   steps repeat those `p` with every count `dm` higher, and end at a
//!   checkpoint with the same ids again.
//! * The counts only grow, so a cycle started at `m'` runs as the
//!   first one did as long as its last completion stays below `NM`:
//!   `m' + dm ≤ NM − 1`. The run replays `k = ⌊(NM − 1 − m)/dm⌋`
//!   cycles — `k·p` steps of the float operations above, in order, so
//!   every sum is bitwise the loop's — then adds `k·dm` to every count
//!   and to the queue ([`ScenarioQueue::shift_months`]); the ids do
//!   not change. The tail, where scenarios finish and groups disband,
//!   runs event by event.
//!
//! Nothing in the argument reads a duration, so the replay is exact on
//! every table, fractional ones included. Groupings of two or more
//! classes step as above: their classes drift apart unless the table
//! is commensurate, and then a rotation would need the clocks' common
//! period as well.

use std::cell::RefCell;
use std::cmp::Reverse;

use serde::{Deserialize, Serialize};

use oa_platform::timing::TimingTable;

use crate::grouping::{Grouping, GroupingError};
use crate::params::Instance;
use crate::planner::Planner;
use crate::policy::{ScenarioPolicy, ScenarioQueue};

/// Reusable event-loop state. Heuristic searches call [`estimate`]
/// thousands of times per sweep point; keeping the heaps and arenas in
/// a thread-local and clearing them (which preserves capacity) makes
/// the inner loop allocation-free after warm-up. Each worker thread of
/// an `oa-par` pool gets its own scratch, so the parallel sweep path
/// shares nothing.
#[derive(Default)]
struct Scratch {
    /// Size classes with a live group, in group index order.
    classes: Vec<Class>,
    /// Class indices in first-assignment order: largest size first,
    /// ties to the higher index.
    order: Vec<usize>,
    /// The scenario each live group runs: class `c`'s live groups, in
    /// index order, are `running[c.start..c.start + c.live]`.
    running: Vec<u32>,
    /// Waiting scenarios, least advanced first.
    waiting: ScenarioQueue,
    /// Months completed per scenario.
    months_done: Vec<u32>,
    /// The running ids at the last checkpoint of a steady rotation.
    rotation: Vec<u32>,
    /// Main-task finish times in completion order; during the post
    /// phase, entry `i` becomes post `i`'s finish once read.
    post_ready: Vec<f64>,
    /// Initial post pool: when each processor first serves posts.
    pool: Vec<f64>,
}

/// A maximal run of equal adjacent group sizes: groups that free,
/// re-arm and finish together.
#[derive(Clone, Copy)]
struct Class {
    /// The next finish instant of every live group of the class.
    clock: f64,
    /// Main-task duration of one group.
    dur: f64,
    /// Processor-seconds of one main task, `dur · size`.
    work: f64,
    /// Processors per group.
    size: u32,
    /// First slot of the class in [`Scratch::running`].
    start: usize,
    /// Live groups of the class.
    live: usize,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Aggregates returned by [`estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Campaign makespan, seconds.
    pub makespan: f64,
    /// Completion time of the last main task.
    pub main_finish: f64,
    /// Completion time of the last post task.
    pub post_finish: f64,
    /// Aggregate processor-seconds spent inside main tasks.
    pub main_busy_proc_secs: f64,
    /// Aggregate processor-seconds spent inside post tasks.
    pub post_busy_proc_secs: f64,
}

impl Estimate {
    /// Mean processor utilization over the makespan.
    pub fn utilization(&self, inst: Instance) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (self.main_busy_proc_secs + self.post_busy_proc_secs) / (self.makespan * inst.r as f64)
    }
}

/// Simulates the campaign of `inst` under `grouping` on a cluster with
/// timing `table`, returning makespan aggregates.
///
/// ```
/// use oa_platform::speedup::PcrModel;
/// use oa_sched::{estimate::estimate, grouping::Grouping, params::Instance};
///
/// let table = PcrModel::reference().table(1.0).unwrap();
/// let inst = Instance::new(10, 1800, 53);
/// // The paper's Improvement 1 grouping for R = 53.
/// let grouping = Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1);
/// let e = estimate(inst, &table, &grouping).unwrap();
/// assert!(e.makespan > 0.0 && e.utilization(inst) > 0.9);
/// ```
pub fn estimate(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
) -> Result<Estimate, GroupingError> {
    Planner::pcr(table).estimate(inst, grouping)
}

/// Relative slack a floor test grants a simulated makespan: the floor
/// is a few products, a makespan a long float sum, and the two may
/// disagree in the last ulps. A makespan below `floor·(1 − FLOOR_SLACK)`
/// means one of the two models is wrong.
pub const FLOOR_SLACK: f64 = 1e-9;

/// A floor under every makespan of `inst` on a valid `grouping` whose
/// groups of `g` processors take `dur(g)` per main task and whose
/// every month trails `w` seconds of one-processor post work. Write
/// `N = NS·NM`, `d_i` for group `i`'s duration and `P` for the
/// grouping's processors. The floor is the largest of three bounds,
/// each of which holds for any execution, faulty or not, because
/// faults only destroy work:
///
/// * chain: some scenario runs its `NM` months one after another, none
///   faster than `d_min`, and its last post trails: `NM·d_min + w`;
/// * throughput: `N` month completions at an aggregate rate of at most
///   `Σ 1/d_i`: `N/Σ(1/d_i) + w`;
/// * area: at least `N·min_i(g_i·d_i) + N·w` processor-seconds of work
///   on `P` processors.
///
/// Compare it with a makespan through [`FLOOR_SLACK`]. The certifier's
/// lower bound and the planner's candidate pruning both read this one
/// function.
///
/// ```
/// use oa_platform::speedup::PcrModel;
/// use oa_sched::estimate::{estimate, makespan_floor, FLOOR_SLACK};
/// use oa_sched::{grouping::Grouping, params::Instance};
///
/// let table = PcrModel::reference().table(1.0).unwrap();
/// let inst = Instance::new(10, 1800, 53);
/// let grouping = Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1);
/// let floor = makespan_floor(inst, &grouping, table.post_secs(), |g| table.main_secs(g));
/// let e = estimate(inst, &table, &grouping).unwrap();
/// assert!(floor * (1.0 - FLOOR_SLACK) <= e.makespan);
/// ```
pub fn makespan_floor(
    inst: Instance,
    grouping: &Grouping,
    w: f64,
    dur: impl Fn(u32) -> f64,
) -> f64 {
    let sizes = grouping.groups();
    let n = inst.nbtasks() as f64;
    let nm = f64::from(inst.nm);
    let p = grouping.total_procs() as f64;
    let d_min = sizes.iter().map(|&g| dur(g)).fold(f64::INFINITY, f64::min);
    let rate: f64 = sizes.iter().map(|&g| 1.0 / dur(g)).sum();
    let min_area = sizes
        .iter()
        .map(|&g| f64::from(g) * dur(g))
        .fold(f64::INFINITY, f64::min);
    (nm * d_min + w)
        .max(n / rate + w)
        .max((n * min_area + n * w) / p)
}

/// Runs the event loop on a validated `grouping` of `inst`: a group of
/// `g` processors takes `dur(g)` per main task, and each post takes
/// `tp` on one processor.
pub(crate) fn simulate(
    inst: Instance,
    grouping: &Grouping,
    tp: f64,
    dur: impl Fn(u32) -> f64,
) -> Estimate {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        scratch.classes.clear();
        let mut start = 0;
        for same in grouping.groups().chunk_by(|a, b| a == b) {
            let (size, d) = (same[0], dur(same[0]));
            scratch.classes.push(Class {
                clock: d,
                dur: d,
                work: d * f64::from(size),
                size,
                start,
                live: same.len(),
            });
            start += same.len();
        }
        run(inst, grouping.post_procs, tp, scratch)
    })
}

/// The event loop proper, on pre-validated input and reusable state
/// whose classes are set up, each with every group live.
fn run(inst: Instance, post_procs: u32, tp: f64, scratch: &mut Scratch) -> Estimate {
    let (chains, units) = (inst.ns, inst.nm);
    let Scratch {
        classes,
        order,
        running,
        waiting,
        months_done,
        rotation,
        post_ready,
        pool,
    } = scratch;
    let groups = classes.last().map_or(0, |c| c.start + c.live);
    debug_assert!(groups > 0 && groups <= chains as usize);

    // t = 0: groups take scenarios 0, 1, … largest group first (ties to
    // the higher index); the remaining scenarios wait.
    order.clear();
    order.extend(0..classes.len());
    order.sort_unstable_by_key(|&c| Reverse((classes[c].size, c)));
    waiting.reset(ScenarioPolicy::LeastAdvanced, chains);
    running.clear();
    running.resize(groups, 0);
    for &c in order.iter() {
        let Class { start, live, .. } = classes[c];
        for slot in running[start..start + live].iter_mut().rev() {
            *slot = waiting.pop().expect("groups never outnumber scenarios");
        }
    }
    months_done.clear();
    months_done.resize(chains as usize, 0);
    post_ready.clear();
    post_ready.reserve(chains as usize * units as usize);
    pool.clear();
    pool.resize(post_procs as usize, 0.0);
    // A one-class run keeps its last checkpoint's month count, and its
    // running ids in `rotation` (module docs, "Steady rotation").
    let mut last = (classes.len() == 1).then_some(0u32);
    rotation.clone_from(running);

    let mut main_finish = 0.0f64;
    let mut main_busy = 0.0f64;
    while !classes.is_empty() {
        // The class with the least (clock, class index) steps: its live
        // groups free in index order, then re-arm together.
        let mut c = 0;
        for (i, class) in classes.iter().enumerate().skip(1) {
            if class.clock.total_cmp(&classes[c].clock).is_lt() {
                c = i;
            }
        }
        let Class {
            clock: t,
            dur,
            work,
            size,
            start,
            live,
        } = classes[c];
        main_finish = t;
        let mut kept = start;
        for i in start..start + live {
            let s = running[i];
            months_done[s as usize] += 1;
            let m = months_done[s as usize];
            main_busy += work;
            post_ready.push(t);
            // `s` waits again unless it finished; the freed group takes
            // the least advanced waiting scenario, or disbands as surplus.
            let next = if m < units {
                Some(waiting.push_pop(m, s))
            } else {
                waiting.pop()
            };
            if let Some(next) = next {
                running[kept] = next;
                kept += 1;
            } else {
                pool.extend(std::iter::repeat_n(t, size as usize));
            }
        }
        #[cfg(test)]
        STEPS.with(|n| n.set((n.get().0 + 1, n.get().1)));
        if kept == start {
            classes.remove(c);
        } else {
            classes[c].live = kept - start;
            classes[c].clock = t + dur;
        }
        let Some(m0) = last else { continue };
        if kept < start + live {
            last = None; // a disband ends the rotation
            continue;
        }
        // A checkpoint: every scenario has done the same `m` months.
        let done = post_ready.len() as u64;
        let m = (done / u64::from(chains)) as u32;
        if !done.is_multiple_of(u64::from(chains)) || months_done.iter().any(|&d| d != m) {
            continue;
        }
        if running != rotation {
            rotation.copy_from_slice(running);
            last = Some(m);
            continue;
        }
        // The ids recur `dm` months on: replay the `k` whole cycles that
        // keep every count below `NM`, `dm·NS/G` steps each, as the loop
        // would run them, then move every count on.
        let (dm, class) = (m - m0, &mut classes[0]);
        let k = (units - 1 - m) / dm;
        let steps = u64::from(k * dm) * u64::from(chains) / groups as u64;
        for _ in 0..steps {
            main_finish = class.clock;
            for _ in 0..groups {
                main_busy += class.work;
            }
            post_ready.extend(std::iter::repeat_n(class.clock, groups));
            class.clock += class.dur;
        }
        #[cfg(test)]
        STEPS.with(|n| n.set((n.get().0, n.get().1 + steps)));
        months_done.iter_mut().for_each(|d| *d += k * dm);
        waiting.shift_months(k * dm);
        last = None;
    }
    debug_assert!(waiting.is_empty());
    debug_assert_eq!(post_ready.len(), chains as usize * units as usize);
    debug_assert!(post_ready.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(!pool.is_empty(), "groups always disband eventually");

    // Post phase: FIFO on the pool, each post on the earliest-free
    // processor — the smaller front of the unused initial processors
    // `pool[used..]` and the finished posts `post_ready[head..i]`.
    let mut post_finish = 0.0f64;
    let mut post_busy = 0.0f64;
    let (mut used, mut head) = (0, 0);
    for i in 0..post_ready.len() {
        let ready = post_ready[i];
        let avail = if used < pool.len() && (head == i || pool[used] <= post_ready[head]) {
            used += 1;
            pool[used - 1]
        } else {
            head += 1;
            post_ready[head - 1]
        };
        let start = if avail > ready { avail } else { ready };
        let fin = start + tp;
        post_busy += tp;
        debug_assert!(fin >= post_finish);
        post_finish = fin;
        post_ready[i] = fin;
    }

    Estimate {
        makespan: main_finish.max(post_finish),
        main_finish,
        post_finish,
        main_busy_proc_secs: main_busy,
        post_busy_proc_secs: post_busy,
    }
}

#[cfg(test)]
thread_local! {
    /// Class steps this thread's estimates ran event by event and
    /// replayed, for the tests that pin where the rotation replays.
    static STEPS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use oa_platform::speedup::PcrModel;
    use oa_platform::timing::TimingTable;

    fn flat(tg: f64, tp: f64) -> TimingTable {
        TimingTable::new([tg; 8], tp).unwrap()
    }

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    #[test]
    fn single_scenario_single_group_is_a_chain() {
        let inst = Instance::new(1, 5, 11);
        let g = Grouping::uniform(11, 1, 0);
        let t = flat(100.0, 10.0);
        let e = estimate(inst, &t, &g).unwrap();
        // Five chained mains end at 500, then all five posts run at once on the disbanded group.
        assert_eq!(e.main_finish, 500.0);
        assert_eq!(e.makespan, 510.0);
        assert_eq!(e.post_finish, 510.0);
    }

    #[test]
    fn dedicated_post_procs_absorb_posts_during_run() {
        let inst = Instance::new(1, 5, 12);
        let g = Grouping::uniform(11, 1, 1);
        let t = flat(100.0, 10.0);
        let e = estimate(inst, &t, &g).unwrap();
        // Post of month m starts right at 100(m+1); last at 510.
        assert_eq!(e.makespan, 510.0);
        assert_eq!(
            e.utilization(inst),
            (5.0 * 1100.0 + 5.0 * 10.0) / (510.0 * 12.0)
        );
    }

    #[test]
    fn matches_equation_2_exactly() {
        // R2 = 0, nbused = 0: analytic is exact.
        let inst = Instance::new(5, 4, 20);
        let t = flat(100.0, 10.0);
        let b = analytic::makespan(inst, &t, 4).unwrap();
        let e = estimate(inst, &t, &Grouping::uniform(4, 5, 0)).unwrap();
        assert_eq!(e.makespan, b.makespan);
    }

    #[test]
    fn matches_equation_4_when_posts_keep_up() {
        let inst = Instance::new(5, 4, 22);
        let t = flat(100.0, 10.0);
        let b = analytic::makespan(inst, &t, 4).unwrap();
        let e = estimate(inst, &t, &Grouping::uniform(4, 5, 2)).unwrap();
        assert_eq!(e.makespan, b.makespan);
    }

    #[test]
    fn estimator_beats_or_matches_analytic_on_overpass() {
        // The analytic model batches trailing posts into ⌈…/R⌉ waves;
        // the event simulation is at least as tight.
        let inst = Instance::new(5, 4, 22);
        let t = flat(100.0, 60.0);
        let b = analytic::makespan(inst, &t, 4).unwrap();
        let e = estimate(inst, &t, &Grouping::uniform(4, 5, 2)).unwrap();
        assert!(
            e.makespan <= b.makespan + 1e-9,
            "sim {} analytic {}",
            e.makespan,
            b.makespan
        );
        assert!(e.makespan >= b.ms_multi);
    }

    #[test]
    fn fairness_least_advanced_first() {
        // 6 months of 3 scenarios on 2 equal groups end after 3 waves.
        let inst = Instance::new(3, 2, 8);
        let t = flat(100.0, 10.0);
        let e = estimate(inst, &t, &Grouping::uniform(4, 2, 0)).unwrap();
        assert_eq!(e.main_finish, 300.0);
    }

    #[test]
    fn heterogeneous_groups_lets_fast_group_do_more() {
        // One group of 11 (faster) and one of 4: the big group should
        // complete more months.
        let inst = Instance::new(2, 10, 15);
        let t = reference();
        let g = Grouping::new(vec![11, 4], 0);
        let e = estimate(inst, &t, &g).unwrap();
        // Strictly better than two groups of 4 — more capacity helps.
        let worse = estimate(inst.with_resources(15), &t, &Grouping::new(vec![4, 4], 0)).unwrap();
        assert!(e.makespan < worse.makespan);
    }

    #[test]
    fn disbanded_groups_finish_trailing_posts() {
        // R2 = 0: every post must still complete (on disbanded procs).
        let inst = Instance::new(4, 3, 16);
        let t = flat(100.0, 10.0);
        let e = estimate(inst, &t, &Grouping::uniform(4, 4, 0)).unwrap();
        assert!(e.post_finish > e.main_finish);
        assert_eq!(e.post_busy_proc_secs, 12.0 * 10.0);
    }

    #[test]
    fn invalid_grouping_is_rejected() {
        let inst = Instance::new(2, 2, 12);
        let err = estimate(inst, &flat(10.0, 1.0), &Grouping::uniform(4, 3, 0)).unwrap_err();
        assert!(matches!(err, GroupingError::TooManyGroups { .. }));
    }

    #[test]
    fn paper_example_gain_improvement_1() {
        // R = 53, NS = 10: basic = 7×7 + 4 post; improvement 1 =
        // 3×8 + 4×7 + 1 post. The paper reports a ≈4.5 % gain.
        let inst = Instance::new(10, 1800, 53);
        let t = reference();
        let basic = estimate(inst, &t, &Grouping::uniform(7, 7, 4)).unwrap();
        let imp1 = estimate(inst, &t, &Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1)).unwrap();
        let gain = (basic.makespan - imp1.makespan) / basic.makespan * 100.0;
        assert!(gain > 2.0 && gain < 8.0, "gain was {gain:.2}%");
    }

    /// Class steps one estimate runs event by event and replays.
    fn steps(inst: Instance, grouping: &Grouping) -> (u64, u64) {
        STEPS.with(|n| n.set((0, 0)));
        estimate(inst, &reference(), grouping).unwrap();
        STEPS.with(std::cell::Cell::get)
    }

    #[test]
    fn one_class_replays_its_rotation_and_two_classes_do_not() {
        let inst = Instance::new(10, 1800, 53);
        let (run, replayed) = steps(inst, &Grouping::uniform(7, 7, 4));
        assert!(
            replayed * 100 >= 99 * (run + replayed),
            "7×7 | post:4 replayed {replayed} of {} steps",
            run + replayed
        );
        let imp1 = Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1);
        assert_eq!(steps(inst, &imp1).1, 0, "two classes never replay");
    }

    #[test]
    fn utilization_is_in_unit_interval() {
        let inst = Instance::new(10, 50, 53);
        let e = estimate(inst, &reference(), &Grouping::uniform(7, 7, 4)).unwrap();
        let u = e.utilization(inst);
        assert!(u > 0.5 && u <= 1.0, "utilization {u}");
    }
}
