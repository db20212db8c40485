//! The generic discrete-event campaign engine: one loop, one call.
//!
//! Every campaign execution in the workspace is one
//! [`simulate_campaign`] call, generic over the orthogonal knobs of
//! [`CampaignConfig`]:
//!
//! * **policy** — a [`ScenarioQueue`] object (least-advanced,
//!   round-robin, most-advanced) consulted at every assignment;
//! * **granularity** — fused one-shot posts (Figure 2) or the unfused
//!   `cof → emf → cd` chain of Figure 1. Unfused, a group holds its
//!   scenario through `caif + mp + pcr` exactly as fusion assumes, but
//!   each post step re-enters the post pool on its own, so it may land
//!   on another processor or wait behind other scenarios' steps; the
//!   Figure 1 constants are rescaled by the table's post/180
//!   cluster-speed ratio;
//! * **recovery** — what a scenario crashed by a [`FaultPlan`] resumes
//!   from: its last completed month (the application's restart files)
//!   or month 0 (a counterfactual without them). Dead groups never
//!   return and their processors never join the post pool; a failure
//!   addressed to a group that already disbanded is ignored;
//!
//! plus a [`Tracer`] sink for the full event story and the thread-local
//! scratch arenas that keep repeat runs allocation-free. The
//! [`CampaignOutcome`] carries everything a caller projects from a run:
//! makespan and phase finishes, the damage a fault plan did, and — for
//! fused fault-free runs — the full [`Schedule`]
//! ([`CampaignOutcome::into_schedule`]; [`execute_default`] is the
//! paper's default run with that projection). Every public entry point
//! records that schedule; the session driver ([`crate::driver`]) runs
//! the same loop with recording off and reads the main finish instants
//! off the completion chain instead.
//!
//! # The simulation kernel
//!
//! The busy set is one `BinaryHeap` of [`TimeKey`]s, `(finish time,
//! group)` in pop order, with at most one entry per group. When a
//! completion frees the only idle group and a scenario is ready for it,
//! the loop re-keys the busy top in place and swaps the freed scenario
//! with the policy queue's top ([`ScenarioQueue::push_pop`]) instead of
//! popping both and pushing both back. Each structure holds distinct
//! keys (one per group, one per waiting scenario), so its pops depend
//! only on its key set, which is the same either way. On top of
//! the generic loop sits the steady-state fast-forward, controlled by
//! [`KernelOpts`] and reported by [`KernelReport`]. A fault-free
//! campaign repeats the same event pattern every cycle once the
//! pipeline fills. The detector in the private `ffwd` module spots the
//! recurrence (same busy/running/idle/waiting shape modulo a constant
//! time offset and a uniform month shift), and the engine then
//! *replays* the cycle's journal arithmetically — records, chain
//! entries and trace events stamped from the template with `t + j·D` —
//! instead of re-simulating it. The fused post drain runs the same
//! trick over the processor pool. Both fall back to event-by-event
//! execution around faults, cluster transitions and the campaign
//! head/tail.
//!
//! Integer time is the fast-forward's gate and nothing else: the
//! stamped additions are exact only when every task duration and every
//! failure instant is an integral second ([`oa_sched::time::exact_ticks`])
//! and the horizon stays far below 2^53, so that every clock value in
//! the run is an exactly-represented integer. The detector reads the
//! heap's entries sorted by `(tick, group)`, which is its pop order.
//!
//! # The post drain
//!
//! An unobserved run whose post pool keeps pace with the groups skips
//! everything in this section for its closed form (see "The
//! closed-form drain" below), and an unobserved fused drain whose pool
//! saturates stops taking posts and counts the rest (see "The saturated
//! drain"). Ready post work is held as one FIFO queue per chain step.
//! Main completions push `(t, scenario, month)` onto queue 0 in completion
//! order, which is chronological. The fused drain reads queue 0 in
//! order. The unfused drain pops the earliest queue front, ties going
//! to the lower step, and pushes the next step onto the following
//! queue.
//!
//! Each pop takes the earliest-available processor from the post pool,
//! which is two sorted queues of `(avail, proc)`, as in the planning
//! estimator (the private `post_pool` module). The start queue holds
//! the entries present when the drain starts: dedicated processors at
//! 0 and disbanded groups' processors at their disband instants,
//! sorted once. The re-entry queue is a FIFO of `(end, proc)`. A take
//! pops the smaller front, appends its processor with `push_back`, and
//! swaps it back past any entry that sorts after it.
//!
//! This is exactly what one chain heap keyed `(ready, step, insertion)`
//! and one pool heap keyed `(avail, proc)` would pop. Every key pushed
//! (onto a queue or the pool) is at least the key just popped, so both
//! pop sequences are non-decreasing, and so is `start = max(avail,
//! ready)`. Each chain queue therefore receives `start + d_step` in its
//! own `(time, insertion)` order, and comparing the fronts by `(time,
//! step)` picks what the chain heap would pop. Pool keys are distinct
//! and both pool queues stay sorted, so their smaller front is the pool
//! heap's top. One drain's steps share one duration (fused `TP`, or
//! unfused `COF = EMF = CD` at one speed), so every end is at least
//! every end already queued, and the back-swap passes only equal-end
//! entries. The post-phase fast-forward's cycle shift and the batch
//! resume's prefix adoption change pool entries in place, then re-sort
//! the pool into its start queue.
//!
//! The fused drain's fast-forward snapshots the pool at the cycle
//! boundaries of the periodic chain region the main phase handed over,
//! and replays whole cycles once two snapshots split the pool into a
//! part shifted by the boundary delta and a stable part above it. How
//! snapshots compare depends on whether anything observes the run:
//!
//! * **observed** (a recorded schedule or an enabled tracer): by
//!   processor id, because the replay stamps each post's processor from
//!   the template. A processor whose availability did not move was
//!   never popped, so the stable part is inert.
//! * **unobserved**: by availability. Without records or a tracer the
//!   drain's values depend only on the availability multiset — pop the
//!   least, push `max(avail, ready) + TP` — so the two sorted snapshots
//!   pair rank by rank, and the replay keeps only the post finish, the
//!   template's largest end shifted. Equal ends re-enter in id order, so
//!   on a pool whose posts end together the id → availability map keeps
//!   permuting and only this comparison matches. The stable part is
//!   proved inert by the guard "the last availability popped before the
//!   boundary lies below every stable value": pops are non-decreasing,
//!   so no stable entry was ever popped. A resumed batch variant that
//!   adopts the head's drain prefix seeds its last pop with the prefix's
//!   `maxpop`.
//!
//! In both modes the replay cap keeps every shifted value strictly
//! below every stable one for the whole replay, and the cycle shift
//! moves exactly the entries below the least stable value.
//!
//! # The closed-form drain
//!
//! Section 4.1 of the paper names the regime where the post processors
//! keep pace with the groups: no post outlives its cycle, and the
//! makespan is the last main completion plus `TP`. A run skips its
//! drain for that closed form when fast-forward is on, nothing
//! observes the run (no schedule, no enabled tracer), it is not a batch
//! head capture, and the pool keeps pace: with `G` groups of main
//! durations `durs`,
//!
//! * `post_procs ≥ G`, and
//! * fused: `TP ≤ min(durs)`; unfused: `Σ steps + 4ε·(main_finish +
//!   min(durs)) < min(durs)`, with `ε` the `f64` epsilon.
//!
//! The post finish is then the last chain entry's ready time plus each
//! step duration, added in chain order (for a resumed batch variant
//! whose own chain is empty, the head prefix's last entry). The pool,
//! its sort, both snapshot detectors and the resume's prefix adoption
//! are skipped, and [`KernelReport::drain_closed_form`] says so. Why
//! that is bitwise the drain's value:
//!
//! * **A group's completions are a main apart.** Completions `r < r'`
//!   of one group satisfy `r' = fl(s + T_g)` for a start `s ≥ r`, so
//!   `r' ≥ fl(r + T_g) ≥ fl(r + min(durs))`: `fl` is monotone. Dead
//!   groups never complete again.
//! * **Fused: no post waits.** A post ready at `r` ends at `fl(r + TP)
//!   ≤ fl(r + min(durs)) ≤ r'`, so at any ready instant each group has
//!   at most one post still running, and none for the group whose
//!   completion is ready. At most `G − 1` dedicated processors are busy,
//!   so each take finds one free (`avail ≤ ready`) and the post starts
//!   at its ready time. Disbanded processors only add capacity.
//! * **Fused: the value is exact.** Ready times are chronological and
//!   `fl` is monotone, so the largest end is `fl(r_last + TP)`: bitwise
//!   the value the drain keeps.
//! * **Unfused.** A month's chain holds at most one processor at a
//!   time. Each of its three additions rounds with a relative error of
//!   at most `ε/2`, so the strict inequality with its margin ends the
//!   chain strictly before `fl(r + min(durs))`, hence before the
//!   group's next completion. The chain's last step is then popped before the next
//!   chain's first (the tie that a group completes again exactly at
//!   its previous chain's end would otherwise pop the next chain first,
//!   ties going to the lower step), every pop finds at most `G − 1`
//!   chains holding a processor, and each step starts at its ready
//!   time. The last chain ends last, at its steps added in order.
//!
//! The gate is on [`KernelOpts::fast_forward`], so
//! [`KernelOpts::event_by_event`] still runs the real drain and reports
//! [`KernelReport::default`]: every differential test pins the closed
//! form.
//!
//! # The saturated drain
//!
//! The other regime of Section 4.1, and Improvement 2's: with too few
//! post processors (none at all when `R2 = 0`), posts queue up, and
//! most of them run after the last main completion. A fused drain stops
//! taking posts when all of these hold:
//!
//! * nothing observes the run, and it is not a batch head capture;
//! * fast-forward is on, the run is in integer time, and `TP` is a
//!   positive tick-exact value;
//! * the pool's earliest availability, the one the next take would pop,
//!   is at or after the last post's ready time `r_last`.
//!
//! The drain checks before every take, so it stops at the first take
//! the premise covers; a run the closed form skips never drains. With
//! `K` posts left, the post finish is the larger of the one so far and
//! `x_K + TP`, where `x_K` is the `K`-th least term of the progressions
//! `a + j·TP` (`j ≥ 0`) over the pool's availabilities `a`, and
//! [`KernelReport::posts_closed_form`] reports `K`. The pool finds `x_K`
//! by bisection on the count `Σ_a max(0, ⌊(x − a)/TP⌋ + 1) ≥ K`, in
//! `O(P · log(a_max − a_min))` for `P` processors instead of `K` takes.
//! Why that is bitwise the drain's value:
//!
//! * **Every remaining post starts at its pop.** Pops are non-decreasing
//!   ("The post drain"), so every later pop is at least this one, hence
//!   at least `r_last`, which is at least every ready time: the chain is
//!   chronological. A take then starts at `max(avail, ready) = avail` and
//!   re-enters its processor at `avail + TP`.
//! * **The pops are the merged progressions.** "Pop the least `a`, push
//!   `a + TP`", `K` times, pops the `K` least terms of `a + j·TP` over
//!   the pool, in order; processor ids only order equal values.
//! * **The values are exact.** In integer time every availability is a
//!   whole tick and so is `TP`, and the horizon bound of the gate keeps
//!   every term far below 2^53. The event loop's repeated additions `a +
//!   TP + … + TP` are then the integers `a + j·TP`, and `x_K + TP` is the
//!   `f64` the last take computes.
//! * **The last take ends last.** Its start `x_K` is the largest pop, so
//!   `x_K + TP` is the largest remaining end. Earlier ends are already in
//!   the post finish.
//!
//! The premise reads the last ready time, not the current one: a post
//! ready after its pop waits, and the count would miss the wait. Like
//! the closed form, the gate is on [`KernelOpts::fast_forward`]:
//! [`KernelOpts::event_by_event`] still drains every post through the
//! pool, so every differential test pins the count.
//!
//! # Equivalence guarantees
//!
//! A knob that does not apply changes no bit: with an empty fault plan
//! both recovery models give the same floats, record order and event
//! stream, and any tracer, including none, leaves every output
//! unchanged. The fast-forward keeps the same contract:
//! fast-forwarded runs are bitwise identical to event-by-event runs,
//! matched by processor id when observed (records and trace events
//! included) and by availability when not (makespan and phase
//! finishes). An unobserved fast-forwarded run may leave processor ids
//! in the pool that an event-by-event run would not, skip the drain for
//! its closed form, or count its saturated posts off the pool, but no
//! output reads the pool. `tests/engine_equivalence.rs`,
//! `tests/kernel_equivalence.rs` (unobserved drains under kills among
//! them, and the premises of the closed form and of the saturated drain
//! at their boundaries), `tests/driver_equivalence.rs` (the
//! unrecorded driver against a recorded run) and the tracked
//! `results/*.json` enforce this;
//! `tests/drain_equivalence.rs` pins both post drains to a heap-drain
//! oracle, and a proptest of the pool pins every take to a
//! `BinaryHeap` pool's.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use oa_platform::timing::TimingTable;
use oa_sched::grouping::{Grouping, GroupingError};
use oa_sched::kernel::{kernel_gate, post_model, push_durs};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity, Recovery, ScenarioQueue};
use oa_sched::time::{exact_ticks, is_tick_exact, time_key, Time, TimeKey};
use oa_trace::{EventKind, TraceEvent, Tracer};
use oa_workflow::fusion::FusedTask;
use oa_workflow::task::TaskKind;

use crate::ffwd::{
    pool_match, pool_snapshot, Detector, LogEv, PoolKey, PoolSnap, PostPeriodic, SnapView,
    MAX_POOL_SNAPS,
};
use crate::post_pool::PostPool;
use crate::schedule::{ProcRange, Schedule, TaskRecord};

pub use crate::ffwd::{KernelOpts, KernelReport};
pub use oa_sched::kernel::kernel_eligibility;

/// Post-chain step kinds at unfused granularity, in chain order.
const STEP_KINDS: [TaskKind; 3] = [TaskKind::Cof, TaskKind::Emf, TaskKind::Cd];

/// Aggregates of a completed campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRun {
    /// The full schedule, recorded only for fused runs with an empty
    /// fault plan (the one case where every task runs exactly once and
    /// the record set is a valid [`Schedule`]).
    pub schedule: Option<Schedule>,
    /// Campaign makespan, seconds.
    pub makespan: f64,
    /// Last main-phase completion.
    pub main_finish: f64,
    /// Last post-chain completion.
    pub post_finish: f64,
    /// Processor-seconds of work destroyed by crashes.
    pub lost_proc_secs: f64,
    /// Months whose in-flight run was lost (re-executed later).
    pub months_lost: u32,
}

/// Outcome of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignOutcome {
    /// The campaign completed.
    Completed(CampaignRun),
    /// Every group died with months still unscheduled.
    Stranded {
        /// Months completed before the grid went dark.
        completed_months: u64,
    },
}

impl CampaignOutcome {
    /// The completed run, if any.
    pub fn completed(&self) -> Option<&CampaignRun> {
        match self {
            CampaignOutcome::Completed(run) => Some(run),
            CampaignOutcome::Stranded { .. } => None,
        }
    }

    /// Makespan of a completed run (`None` when stranded).
    pub fn makespan(&self) -> Option<f64> {
        self.completed().map(|r| r.makespan)
    }

    /// The recorded schedule: present exactly when the run was fused
    /// and fault-free (see [`CampaignRun::schedule`]).
    pub fn into_schedule(self) -> Option<Schedule> {
        match self {
            CampaignOutcome::Completed(run) => run.schedule,
            CampaignOutcome::Stranded { .. } => None,
        }
    }
}

/// What one processed failure actually destroyed — the damage
/// assessment the trace layer reports as a `FailureDetect` event.
struct FailureImpact {
    /// The scenario whose in-flight month died, with the month it will
    /// resume from (`None` when the group was idle).
    victim: Option<(u32, u32)>,
    /// Processor-seconds destroyed.
    lost_proc_secs: f64,
    /// Months of progress destroyed.
    months_lost: u32,
}

/// Emits the inject/detect/recover event triple for one processed
/// failure (inject always; detect and recover only if the kill landed).
fn emit_failure<T: Tracer>(tracer: &mut T, failure: (usize, f64), impact: Option<&FailureImpact>) {
    let (g, tf) = failure;
    tracer.record(TraceEvent::at(
        tf,
        EventKind::FailureInject { group: g as u32 },
    ));
    let Some(im) = impact else { return };
    tracer.record(TraceEvent::at(
        tf,
        EventKind::FailureDetect {
            group: g as u32,
            victim: im.victim.map(|(s, _)| s),
            lost_proc_secs: im.lost_proc_secs,
            months_lost: im.months_lost,
        },
    ));
    if let Some((s, m)) = im.victim {
        tracer.record(TraceEvent::at(
            tf,
            EventKind::Recover {
                scenario: s,
                resume_month: m,
            },
        ));
    }
}

/// Writes the busy set's content into `out` in pop order: `(finish
/// tick, group)` ascending. Only called in integer time, where every
/// finish is an exact integral second; the heap holds at most one entry
/// per group, so the sort is over a handful of distinct keys.
fn busy_ticks(busy: &BinaryHeap<TimeKey<usize>>, out: &mut Vec<(u64, usize)>) {
    out.clear();
    out.extend(busy.iter().map(|&Reverse((Time(t), g))| {
        debug_assert!(t >= 0.0 && t.fract() == 0.0, "non-integral tick {t}");
        (t as u64, g)
    }));
    out.sort_unstable();
}

/// The closed-form drain's premise (module docs, "The closed-form
/// drain"): at least one dedicated post processor per group, and a
/// month's post chain that ends before its group can complete again.
/// `durs` are the groups' main durations, `steps` the post chain's
/// steps, `main_finish` the last main completion.
fn keeps_pace(
    durs: &[f64],
    steps: &[f64; 3],
    granularity: Granularity,
    grouping: &Grouping,
    main_finish: f64,
) -> bool {
    let min_dur = durs.iter().copied().fold(f64::INFINITY, f64::min);
    grouping.post_procs as usize >= grouping.group_count()
        && match granularity {
            Granularity::Fused => steps[0] <= min_dur,
            Granularity::Unfused => {
                let chain_secs: f64 = steps.iter().sum();
                chain_secs + 4.0 * f64::EPSILON * (main_finish + min_dur) < min_dur
            }
        }
}

/// The fused drain's view of the completion chain: an optional
/// borrowed prefix (the shared head chain of a batch resume) followed
/// by this run's own completions. Indexing is chain-absolute, so the
/// fast-forward bookkeeping (`PostPeriodic::start_idx`, template
/// windows) is oblivious to where the prefix ends.
struct Entries<'a> {
    prefix: &'a [(f64, u32, u32)],
    tail: &'a [(f64, u32, u32)],
}

impl Entries<'_> {
    fn len(&self) -> usize {
        self.prefix.len() + self.tail.len()
    }

    #[inline]
    fn at(&self, i: usize) -> (f64, u32, u32) {
        if i < self.prefix.len() {
            self.prefix[i]
        } else {
            self.tail[i - self.prefix.len()]
        }
    }
}

/// One resumable engine state, captured at an `NS`-completion boundary
/// of a fault-free head run (index 0 is the post-first-assignment
/// state at `t = 0`). Every collection is stored in its canonical
/// (sorted / pop-order) form; pop order is a pure function of content
/// for each container involved, so pushing the content back rebuilds
/// an indistinguishable queue.
#[derive(Debug, Clone, Default)]
pub(crate) struct Checkpoint {
    /// Instant of the boundary (the `completions`-th main finish; 0 at
    /// index 0).
    t: f64,
    /// `main_finish` as of the boundary (equals `t` except at index 0).
    main_finish: f64,
    /// Main completions so far.
    completions: u64,
    /// Busy groups as absolute `(finish tick, group)`, ascending.
    busy: Vec<(u64, u32)>,
    /// Per-group `(scenario, start)` while running.
    running: Vec<Option<(u32, f64)>>,
    /// Months completed per scenario.
    months_done: Vec<u32>,
    /// Idle groups, ascending by `(size, index)`.
    idle: Vec<u32>,
    /// Waiting scenario ids in the queue's canonical order.
    waiting: Vec<u32>,
    /// Post pool as `(availability, processor)`, ascending.
    pool: Vec<(f64, u32)>,
    /// Groups not yet disbanded or dead.
    alive: usize,
    /// Scenarios with months still to run.
    unfinished: usize,
}

/// Post-drain state at the same boundary as its [`Checkpoint`]: what
/// the head's drain looked like after consuming exactly the chain
/// prefix up to the boundary. A resumed variant may adopt this state —
/// skipping the prefix drain entirely — iff `valid` holds and every
/// variant-side pool entry below `post_base` (group disbands, which
/// differ after the fault) is strictly later than `maxpop`, so none of
/// them could have been popped inside the prefix.
#[derive(Debug, Clone, Default)]
pub(crate) struct DrainCk {
    /// No processor below `post_base` was popped within the prefix.
    valid: bool,
    /// Largest availability popped within the prefix.
    maxpop: f64,
    /// `post_finish` after the prefix.
    post_finish: f64,
    /// Pool entries at ids ≥ `post_base` after the prefix, ascending.
    pool: Vec<(f64, u32)>,
}

/// Everything a fault-free head run captures for later resumes: the
/// per-boundary checkpoints (main phase and drain) and the full
/// completion chain.
#[derive(Debug, Default)]
pub(crate) struct BatchHead {
    checkpoints: Vec<Checkpoint>,
    drain_cks: Vec<DrainCk>,
    chain: Vec<(f64, u32, u32)>,
}

/// The most entries one batch head may capture, 2^22 (about 64 MB).
/// The paper's shapes capture well under a tenth of that: `NS = 10`,
/// `NM = 1800`, `R = 80` is about 400k entries.
const MAX_HEAD_ENTRIES: u64 = 1 << 22;

/// An upper bound on the entries a head of `inst` under `grouping`
/// captures. Each of the `NM + 1` boundaries keeps a [`Checkpoint`]
/// (busy, running and idle groups, per-scenario months, waiting
/// scenarios, the pool) and a [`DrainCk`] (the pool); the completion
/// chain adds `NS × NM` entries.
fn head_entries(inst: Instance, grouping: &Grouping) -> u64 {
    let per_boundary =
        3 * grouping.group_count() as u64 + 2 * u64::from(inst.ns) + 2 * grouping.total_procs();
    (u64::from(inst.nm) + 1)
        .saturating_mul(per_boundary)
        .saturating_add(inst.nbtasks())
}

impl BatchHead {
    /// Index of the last checkpoint strictly before `t`, i.e. the
    /// furthest state a variant whose first fault hits at `t` can adopt
    /// unchanged. Strictness matters: a checkpoint taken *at* the
    /// fault instant already contains completions the faulted run
    /// handles after the fault. The `t = 0` checkpoint is the one
    /// exception — it precedes the event loop entirely, so a fault at
    /// `t = 0` resumes from it (the saturation below).
    pub fn checkpoint_before(&self, t: f64) -> usize {
        self.checkpoints
            .partition_point(|ck| ck.t < t)
            .saturating_sub(1)
    }
}

/// How one `run` call participates in cross-variant batching.
pub(crate) enum Batch<'a> {
    /// Plain single run.
    Off,
    /// Fault-free head run: capture checkpoints into the given head.
    /// Requires fused granularity, an integer-time eligible run and
    /// fast-forward off (every boundary must be visited to be
    /// captured). Records nothing.
    Capture(&'a mut BatchHead),
    /// Variant run: restore the `ck`-th checkpoint of `head` and
    /// simulate onward under `failures` (pre-sorted by time, ties in
    /// plan order — the order `run` itself would produce).
    Resume {
        /// The captured head to resume from.
        head: &'a BatchHead,
        /// Checkpoint index, from [`BatchHead::checkpoint_before`].
        ck: usize,
        /// The variant's fault plan, sorted.
        failures: &'a [(usize, f64)],
    },
}

/// Reusable event-loop state: the sweeps execute thousands of
/// campaigns back to back, and clearing these collections (capacity
/// preserved) makes each run allocation-free apart from the returned
/// record arena and the bounded buffers of the fast-forward detector.
/// Thread-local, so every `oa-par` worker owns its own.
struct Scratch {
    /// Per-group main duration.
    durs: Vec<f64>,
    /// First processor id of each group.
    bases: Vec<u32>,
    /// Busy groups: `(finish time, group)`, at most one per group.
    busy: BinaryHeap<TimeKey<usize>>,
    /// Per-group (scenario, start time) while running.
    running: Vec<Option<(u32, f64)>>,
    /// Waiting scenarios under the configured policy.
    waiting: ScenarioQueue,
    /// Months completed per scenario.
    months_done: Vec<u32>,
    /// Idle groups, sorted ascending by (size, index).
    idle: Vec<usize>,
    /// `dead[g]`: group `g` crashed and never returns.
    dead: Vec<bool>,
    /// Ready post work: one FIFO queue of `(ready, scenario, month)`
    /// per chain step, read through cursors. Mains fill queue 0; the
    /// unfused drain feeds queues 1 and 2 (module docs, "The post
    /// drain").
    chain: [Vec<(f64, u32, u32)>; 3],
    /// Post-processor pool: two sorted queues of (availability,
    /// processor id) (module docs, "The post drain").
    post_pool: PostPool,
    /// Steady-state cycle detector (snapshots + event journal).
    det: Detector,
    /// Snapshot build buffer: busy as (tick offset, group).
    snap_busy: Vec<(u64, u32)>,
    /// Snapshot build buffer: running as (group, scenario, age ticks).
    snap_running: Vec<(u32, u32, u64)>,
    /// Snapshot build buffer: idle groups.
    snap_idle: Vec<u32>,
    /// Snapshot build buffer: waiting scenario ids, canonical order.
    snap_wait: Vec<u32>,
    /// Waiting-queue canonical content buffer.
    wait_buf: Vec<(u32, u32)>,
    /// Busy-set content in pop order (snapshots and checkpoints).
    busy_buf: Vec<(u64, usize)>,
    /// Post-drain boundary snapshots of the pool shape.
    pool_snaps: Vec<PoolSnap>,
    /// Post-drain replay template: (processor, start, end) per entry
    /// of the periodic chain region.
    tmpl: Vec<(u32, f64, f64)>,
    /// Failure sort buffer: the plan in time order, reused run to run.
    fail_buf: Vec<(usize, f64)>,
}

impl Default for Scratch {
    fn default() -> Self {
        Self {
            durs: Vec::new(),
            bases: Vec::new(),
            busy: BinaryHeap::new(),
            running: Vec::new(),
            waiting: ScenarioQueue::Least(BinaryHeap::new()),
            months_done: Vec::new(),
            idle: Vec::new(),
            dead: Vec::new(),
            chain: Default::default(),
            post_pool: PostPool::default(),
            det: Detector::default(),
            snap_busy: Vec::new(),
            snap_running: Vec::new(),
            snap_idle: Vec::new(),
            snap_wait: Vec::new(),
            wait_buf: Vec::new(),
            busy_buf: Vec::new(),
            pool_snaps: Vec::new(),
            tmpl: Vec::new(),
            fail_buf: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs one campaign under `config`, injecting the failures of `plan`,
/// streaming the full event story into `tracer`.
///
/// This is the one engine call: recorded schedules, the seven-task
/// ablation, failure replays, the clusters of a grid run
/// ([`crate::grid_exec`]), service sessions ([`crate::driver`]) and
/// preset workflow meshes ([`crate::ir_exec`]) all run through it and
/// differ only in `config`, `plan` and `tracer`. Callers project what
/// they need from the [`CampaignOutcome`].
///
/// Runs with the default [`KernelOpts`] (fast-forward on, which is
/// bitwise-neutral); use
/// [`simulate_campaign_kernel`] to pick kernel options or observe what
/// the kernel did.
///
/// # Panics
///
/// Panics if the plan targets a group outside the grouping or gives a
/// non-finite/negative failure time; the OA018 lint
/// (`oa_analyze::scheduling::check_campaign`) pre-flights both.
pub fn simulate_campaign<T: Tracer>(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
    tracer: &mut T,
) -> Result<CampaignOutcome, GroupingError> {
    simulate_campaign_kernel(
        inst,
        table,
        grouping,
        config,
        plan,
        KernelOpts::default(),
        tracer,
    )
    .map(|(outcome, _)| outcome)
}

/// The paper's default run — fused tasks, least-advanced-first, no
/// faults, no tracer — returning its recorded schedule. Fails exactly
/// when `grouping` does not fit `inst`.
pub fn execute_default(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
) -> Result<Schedule, GroupingError> {
    let config = CampaignConfig::default();
    let outcome = simulate_campaign(
        inst,
        table,
        grouping,
        &config,
        &FaultPlan::none(),
        &mut oa_trace::NullTracer,
    )?;
    Ok(outcome
        .into_schedule()
        .expect("fused fault-free runs record a schedule"))
}

/// [`simulate_campaign`] with explicit kernel options, returning what
/// the kernel did alongside the outcome. The outcome is bitwise
/// independent of `opts` — fast-forward is a pure performance knob,
/// pinned by `tests/kernel_equivalence.rs`.
///
/// # Panics
///
/// Same contract as [`simulate_campaign`].
pub fn simulate_campaign_kernel<T: Tracer>(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
    opts: KernelOpts,
    tracer: &mut T,
) -> Result<(CampaignOutcome, KernelReport), GroupingError> {
    validate(inst, grouping, plan)?;
    SCRATCH.with(|cell| {
        Ok(run(
            inst,
            table,
            grouping,
            config,
            plan,
            opts,
            true,
            tracer,
            &mut cell.borrow_mut(),
            Batch::Off,
        ))
    })
}

/// Main finish instants of a run, in completion order.
pub(crate) type MainEnds = Box<[f64]>;

/// The session driver's run ([`crate::driver`]): [`simulate_campaign`]
/// with nothing recorded and nothing traced. Returns the outcome, whose
/// `schedule` is `None`, what the kernel did, and for a completed fused
/// fault-free run the main finish instants read off the completion
/// chain. The chain holds them in completion order, which is
/// chronological, so they are the `end`s of a recorded schedule's
/// `FusedMain` records, sorted.
pub(crate) fn simulate_unrecorded(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> Result<(CampaignOutcome, KernelReport, Option<MainEnds>), GroupingError> {
    validate(inst, grouping, plan)?;
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let (outcome, report) = run(
            inst,
            table,
            grouping,
            config,
            plan,
            KernelOpts::default(),
            false,
            &mut oa_trace::NullTracer,
            scratch,
            Batch::Off,
        );
        let ends: Option<MainEnds> = (matches!(outcome, CampaignOutcome::Completed(_))
            && config.granularity == Granularity::Fused
            && plan.failures.is_empty())
        .then(|| scratch.chain[0].iter().map(|&(t, _, _)| t).collect());
        debug_assert!(ends
            .as_deref()
            .is_none_or(|e| e.windows(2).all(|w| w[0] <= w[1])));
        Ok((outcome, report, ends))
    })
}

/// Checks `grouping` against `inst` and the fault plan against the
/// grouping (see [`simulate_campaign`]'s panics).
fn validate(inst: Instance, grouping: &Grouping, plan: &FaultPlan) -> Result<(), GroupingError> {
    grouping.validate(inst)?;
    for &(g, t) in &plan.failures {
        assert!(
            g < grouping.group_count(),
            "failure targets group {g}, grouping has {}",
            grouping.group_count()
        );
        assert!(
            t.is_finite() && t >= 0.0,
            "failure time must be a finite non-negative instant"
        );
    }
    Ok(())
}

/// Runs the fault-free head of a batch: fused granularity, integer
/// time, fast-forward off (every `NS`-completion boundary must be
/// visited to be captured), nothing recorded. Returns `None` when the
/// shape does not qualify for integer time, or when its capture could
/// exceed [`MAX_HEAD_ENTRIES`]; callers fall back to plain per-variant
/// runs.
pub(crate) fn run_batch_head(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
) -> Result<Option<Box<BatchHead>>, GroupingError> {
    grouping.validate(inst)?;
    let plan = FaultPlan::none();
    if config.granularity != Granularity::Fused
        || head_entries(inst, grouping) > MAX_HEAD_ENTRIES
        || !kernel_eligibility(inst, table, grouping, config, &plan)
    {
        return Ok(None);
    }
    let mut head = Box::new(BatchHead::default());
    let (outcome, _) = SCRATCH.with(|cell| {
        run(
            inst,
            table,
            grouping,
            config,
            &plan,
            KernelOpts::event_by_event(),
            false,
            &mut oa_trace::NullTracer,
            &mut cell.borrow_mut(),
            Batch::Capture(&mut head),
        )
    });
    // A fault-free run can strand only on degenerate groupings (no post
    // processors); nothing to resume from.
    Ok(matches!(outcome, CampaignOutcome::Completed(_)).then_some(head))
}

/// Runs one variant by resuming `head` at the last checkpoint strictly
/// before the variant's first fault. `failures` must be non-empty,
/// sorted by time with ties in plan order, and valid for `grouping`
/// (the caller generated them). The outcome is bitwise what
/// [`simulate_campaign_kernel`] returns for the same plan.
pub(crate) fn run_batch_variant(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    opts: KernelOpts,
    head: &BatchHead,
    failures: &[(usize, f64)],
) -> (CampaignOutcome, KernelReport) {
    debug_assert!(!failures.is_empty(), "variants carry at least one fault");
    debug_assert!(failures.windows(2).all(|w| w[0].1 <= w[1].1));
    let ck = head.checkpoint_before(failures[0].1);
    let plan = FaultPlan::none();
    let mut tracer = oa_trace::NullTracer;
    SCRATCH.with(|cell| {
        run(
            inst,
            table,
            grouping,
            config,
            &plan,
            opts,
            false,
            &mut tracer,
            &mut cell.borrow_mut(),
            Batch::Resume { head, ck, failures },
        )
    })
}

/// The event loop proper, on pre-validated input and reusable state.
/// `record` asks for the schedule, which the run keeps only when it is
/// fused and fault-free.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run<T: Tracer>(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
    opts: KernelOpts,
    record: bool,
    tracer: &mut T,
    scratch: &mut Scratch,
    batch: Batch<'_>,
) -> (CampaignOutcome, KernelReport) {
    let (capture, head_prefix, resume_ck, resume_failures) = match batch {
        Batch::Off => (None, &[][..], None, None),
        Batch::Capture(h) => (Some(h), &[][..], None, None),
        Batch::Resume { head, ck, failures } => (
            None,
            &head.chain[..head.checkpoints[ck].completions as usize],
            Some((&head.checkpoints[ck], &head.drain_cks[ck])),
            Some(failures),
        ),
    };
    let mut capture = capture;
    let sizes: &[u32] = grouping.groups();
    // The `T[G]` row, indexed by `G - 4` — one array load per group
    // instead of a spec lookup per `main_secs` call.
    let trow = table.main_array();
    let tp = table.post_secs();
    let nm = inst.nm;

    let (steps, pre, last_step) = post_model(config.granularity, tp);

    let Scratch {
        durs,
        bases,
        busy,
        running,
        waiting,
        months_done,
        idle,
        dead,
        chain,
        post_pool,
        det,
        snap_busy,
        snap_running,
        snap_idle,
        snap_wait,
        wait_buf,
        busy_buf,
        pool_snaps,
        tmpl,
        fail_buf,
    } = scratch;
    durs.clear();
    push_durs(durs, sizes, trow, config.granularity, pre);
    let durs: &[f64] = durs;

    // Processor layout: groups first (descending sizes, canonical),
    // then the dedicated post pool; any remainder stays idle forever.
    bases.clear();
    let mut acc = 0u32;
    for &g in sizes {
        bases.push(acc);
        acc += g;
    }
    let bases: &[u32] = bases;
    let post_base = acc;

    // Failures in time order; ties keep plan order (stable sort). A
    // batch resume brings its own pre-sorted slice.
    let failures: &[(usize, f64)] = match resume_failures {
        Some(f) => f,
        None => {
            fail_buf.clear();
            fail_buf.extend_from_slice(&plan.failures);
            fail_buf.sort_by(|a, b| a.1.total_cmp(&b.1));
            fail_buf
        }
    };
    let mut next_failure = 0usize;

    // Integer time gates the fast-forward, and a capture run's
    // tick-valued checkpoints — see [`kernel_gate`].
    let mut report = KernelReport::default();
    let integer_time = (opts.fast_forward || capture.is_some())
        && kernel_gate(durs, failures, inst, steps.iter().sum());
    report.integer_time = integer_time;
    let ff_on = opts.fast_forward && integer_time;
    det.reset_run();
    debug_assert!(
        capture.is_none() || integer_time,
        "capture implies integer time"
    );

    if tracer.enabled() {
        tracer.record(TraceEvent::at(
            0.0,
            EventKind::CampaignBegin {
                ns: inst.ns,
                nm: inst.nm,
                r: inst.r,
                groups: sizes.to_vec(),
                post_procs: grouping.post_procs,
            },
        ));
    }

    // Records become a `Schedule` only when the caller asks for one and
    // every task provably runs exactly once: fused granularity, nothing
    // to inject. The arena is then the one allocation of the run,
    // pre-sized to its exact final length. A batch head keeps
    // checkpoints, not records.
    let record = record
        && config.granularity == Granularity::Fused
        && failures.is_empty()
        && resume_ck.is_none()
        && capture.is_none();
    let mut records: Vec<TaskRecord> = if record {
        Vec::with_capacity(inst.nbtasks() as usize * 2)
    } else {
        Vec::new()
    };

    busy.clear();
    busy.reserve(sizes.len());
    running.clear();
    running.resize(sizes.len(), None); // (scenario, start)
    waiting.reset(config.policy, inst.ns);
    months_done.clear();
    months_done.resize(inst.ns as usize, 0);
    let mut unfinished = inst.ns as usize;
    idle.clear();
    idle.extend(0..sizes.len());
    idle.sort_unstable_by_key(|&g| (sizes[g], g));
    let mut alive = sizes.len();
    dead.clear();
    dead.resize(sizes.len(), false);

    // Each queue in use receives one entry per main completion.
    for (step, q) in chain.iter_mut().enumerate() {
        q.clear();
        if step <= last_step {
            q.reserve(inst.nbtasks() as usize);
        }
    }
    // Every processor of a group or of the reserve may enter the pool.
    let pool_procs = (post_base + grouping.post_procs) as usize;
    post_pool.clear(pool_procs);
    for p in 0..grouping.post_procs {
        post_pool.push(0.0, post_base + p);
    }

    let mut lost_proc_secs = 0.0f64;
    let mut months_lost = 0u32;
    let mut completions: u64 = 0;
    let mut post_periodic: Option<PostPeriodic> = None;
    let mut main_finish = 0.0f64;

    // A batch resume re-enters the loop mid-run: install the chosen
    // checkpoint's canonical state over the t=0 layout. The checkpoint
    // precedes the variant's first fault, so the history up to here is
    // bitwise the fault-free head's — losses stay zero and the skipped
    // prefix of the completion chain is `head_prefix`.
    if let Some((ck, _)) = resume_ck {
        for &(tick, bg) in &ck.busy {
            busy.push(time_key(tick as f64, bg as usize));
        }
        running.clear();
        running.extend_from_slice(&ck.running);
        months_done.clear();
        months_done.extend_from_slice(&ck.months_done);
        unfinished = ck.unfinished;
        idle.clear();
        idle.extend(ck.idle.iter().map(|&g| g as usize));
        alive = ck.alive;
        waiting.reset(config.policy, 0);
        for &ws in &ck.waiting {
            waiting.push(months_done[ws as usize], ws);
        }
        post_pool.clear(pool_procs);
        for &(a, pp) in &ck.pool {
            post_pool.push(a, pp);
        }
        completions = ck.completions;
        main_finish = ck.main_finish;
    }

    // Starts scenario `s` on group `g` at `now`: its running slot, and
    // the dispatch's journal entry and trace events. The caller keys the
    // group's busy entry.
    macro_rules! dispatch {
        ($g:expr, $s:expr, $now:expr) => {{
            let (g, s, now): (usize, u32, f64) = ($g, $s, $now);
            running[g] = Some((s, now));
            if ff_on && det.armed() && tracer.enabled() {
                det.log.push(LogEv::Dispatch {
                    t: now,
                    g: g as u32,
                    s,
                    month: months_done[s as usize],
                    queue_depth: waiting.len() as u32,
                });
            }
            if tracer.enabled() {
                let task = FusedTask::main(s, months_done[s as usize]);
                tracer.record(TraceEvent::at(
                    now,
                    EventKind::TaskDispatch {
                        task,
                        group: Some(g as u32),
                        queue_depth: waiting.len() as u32,
                    },
                ));
                tracer.record(TraceEvent::at(
                    now,
                    EventKind::TaskStart {
                        task,
                        first_proc: bases[g],
                        procs: sizes[g],
                        group: Some(g as u32),
                    },
                ));
            }
        }};
    }

    // One assignment + disband pass; mirrors `oa_sched::estimate`.
    macro_rules! assign {
        ($now:expr) => {{
            let now: f64 = $now;
            while !idle.is_empty() && !waiting.is_empty() {
                let g = idle.pop().expect("non-empty"); // largest idle group
                let s = waiting.pop().expect("non-empty");
                busy.push(time_key(now + durs[g], g));
                dispatch!(g, s, now);
            }
            while !idle.is_empty() && alive > unfinished {
                let g = idle.remove(0); // smallest idle group disbands
                alive -= 1;
                for p in 0..sizes[g] {
                    post_pool.push(now, bases[g] + p);
                }
                if tracer.enabled() {
                    tracer.record(TraceEvent::at(
                        now,
                        EventKind::GroupDisband {
                            group: g as u32,
                            procs: sizes[g],
                        },
                    ));
                }
            }
        }};
    }

    // Records the loop state in canonical form for later batch resumes.
    // Only reached in capture runs (fused, integer time, fault-free), at
    // instants where `completions` is a multiple of `NS` — the offsets
    // batch variants look up by their first fault time. Every container
    // is stored in an order that makes its pop sequence a pure function
    // of content, so a rebuilt queue replays bitwise.
    macro_rules! capture_ck {
        ($now:expr) => {{
            if let Some(head) = capture.as_deref_mut() {
                let now: f64 = $now;
                busy_ticks(busy, busy_buf);
                waiting.canonical_content_into(wait_buf);
                head.checkpoints.push(Checkpoint {
                    t: now,
                    main_finish,
                    completions,
                    busy: busy_buf
                        .iter()
                        .map(|&(tick, bg)| (tick, bg as u32))
                        .collect(),
                    running: running.clone(),
                    months_done: months_done.clone(),
                    idle: idle.iter().map(|&g| g as u32).collect(),
                    waiting: wait_buf.iter().map(|&(_, ws)| ws).collect(),
                    pool: post_pool.sorted(|_| true),
                    alive,
                    unfinished,
                });
            }
        }};
    }

    // Applies one `(group, time)` failure under the configured
    // recovery, charging destroyed work to the loss accumulators.
    // Double kills and failures of already-disbanded groups are no-ops
    // (`None`); a kill that lands returns its damage assessment.
    macro_rules! process_failure {
        ($g:expr, $tf:expr) => {{
            let (g, tf): (usize, f64) = ($g, $tf);
            if dead[g] {
                None // double kill: no-op
            } else if let Some((s, started)) = running[g].take() {
                // In-flight month lost.
                let lost = (tf - started).max(0.0) * sizes[g] as f64;
                lost_proc_secs += lost;
                months_lost += 1;
                if config.recovery == Recovery::RestartScenario {
                    months_done[s as usize] = 0;
                }
                waiting.push(months_done[s as usize], s);
                dead[g] = true;
                alive -= 1;
                Some(FailureImpact {
                    victim: Some((s, months_done[s as usize])),
                    lost_proc_secs: lost,
                    months_lost: 1,
                })
            } else {
                // A group that already disbanded is not in `idle` nor
                // `running`; its processors belong to the post pool now
                // — ignore (documented in `failures`).
                let key = (sizes[g], g);
                let pos = match idle.binary_search_by_key(&key, |&x| (sizes[x], x)) {
                    Ok(p) | Err(p) => p,
                };
                if pos < idle.len() && idle[pos] == g {
                    idle.remove(pos);
                    dead[g] = true;
                    alive -= 1;
                    Some(FailureImpact {
                        victim: None,
                        lost_proc_secs: 0.0,
                        months_lost: 0,
                    })
                } else {
                    None
                }
            }
        }};
    }

    macro_rules! stranded {
        () => {{
            let completed: u64 = months_done.iter().map(|&m| u64::from(m)).sum();
            return (
                CampaignOutcome::Stranded {
                    completed_months: completed,
                },
                report,
            );
        }};
    }

    if resume_ck.is_none() {
        assign!(0.0);
        capture_ck!(0.0);
    }

    loop {
        // Choose the next event: completion or failure.
        let completion_time = busy.peek().map(|&Reverse((Time(t), _))| t);
        let failure_time = failures.get(next_failure).map(|&(_, t)| t);
        match (completion_time, failure_time) {
            (None, None) => break,
            (Some(tc), Some(tf)) if tf <= tc => {
                let failure = failures[next_failure];
                let impact = process_failure!(failure.0, failure.1);
                if tracer.enabled() {
                    emit_failure(tracer, failure, impact.as_ref());
                }
                next_failure += 1;
                det.disturb();
                assign!(tf);
            }
            (None, Some(tf)) => {
                let failure = failures[next_failure];
                let impact = process_failure!(failure.0, failure.1);
                if tracer.enabled() {
                    emit_failure(tracer, failure, impact.as_ref());
                }
                next_failure += 1;
                det.disturb();
                if alive == 0 && unfinished > 0 {
                    // Nothing can run the remaining months.
                    stranded!();
                }
                assign!(tf);
            }
            (Some(_), _) => {
                let Reverse((Time(t), g)) = *busy.peek().expect("peeked");
                if dead[g] {
                    busy.pop();
                    continue; // stale completion of a crashed group
                }
                let (s, started) = running[g].take().expect("busy group has a scenario");
                let month = months_done[s as usize];
                months_done[s as usize] += 1;
                main_finish = t;
                completions += 1;
                if record {
                    records.push(TaskRecord {
                        task: FusedTask::main(s, month),
                        procs: ProcRange {
                            first: bases[g],
                            count: sizes[g],
                        },
                        start: started,
                        end: t,
                        group: Some(g as u32),
                    });
                }
                chain[0].push((t, s, month));
                if ff_on && det.armed() {
                    det.log.push(LogEv::Finish {
                        t,
                        g: g as u32,
                        s,
                        month,
                    });
                }
                if tracer.enabled() {
                    tracer.record(TraceEvent::at(
                        t,
                        EventKind::TaskFinish {
                            task: FusedTask::main(s, month),
                            first_proc: bases[g],
                            procs: sizes[g],
                            group: Some(g as u32),
                            secs: t - started,
                        },
                    ));
                }
                let again = months_done[s as usize] < nm;
                if !again {
                    unfinished -= 1;
                }
                if idle.is_empty() && (again || !waiting.is_empty()) {
                    // The freed group is the only idle one and a scenario
                    // is ready for it: the assignment pass would pop it
                    // straight back. Re-key the busy top and swap with
                    // the queue's top instead. Both hold distinct keys
                    // (one per group, one per waiting scenario), so their
                    // pops depend only on the content, which is the same.
                    let next = if again {
                        waiting.push_pop(months_done[s as usize], s)
                    } else {
                        waiting.pop().expect("non-empty")
                    };
                    *busy.peek_mut().expect("peeked") = time_key(t + durs[g], g);
                    dispatch!(g, next, t);
                } else {
                    busy.pop();
                    if again {
                        waiting.push(months_done[s as usize], s);
                    }
                    let pos = idle
                        .binary_search_by_key(&(sizes[g], g), |&x| (sizes[x], x))
                        .unwrap_err();
                    idle.insert(pos, g);
                    assign!(t);
                }
                let boundary = completions.is_multiple_of(u64::from(inst.ns));
                if boundary {
                    capture_ck!(t);
                }

                // Steady-state detection: offer a snapshot every NS
                // completions once the fault plan is exhausted. A
                // cycle always spans NS·dm completions, so this
                // cadence cannot miss the period.
                if ff_on && det.active() && next_failure == failures.len() && boundary {
                    busy_ticks(busy, busy_buf);
                    let t_tick = t as u64;
                    snap_busy.clear();
                    snap_busy.extend(
                        busy_buf
                            .iter()
                            .map(|&(tick, bg)| (tick - t_tick, bg as u32)),
                    );
                    snap_running.clear();
                    for (rg, slot) in running.iter().enumerate() {
                        if let Some((rs, start)) = slot {
                            snap_running.push((rg as u32, *rs, (t - start) as u64));
                        }
                    }
                    snap_idle.clear();
                    snap_idle.extend(idle.iter().map(|&ig| ig as u32));
                    waiting.canonical_content_into(wait_buf);
                    snap_wait.clear();
                    snap_wait.extend(wait_buf.iter().map(|&(_, ws)| ws));
                    let view = SnapView {
                        t,
                        completions,
                        chain_len: head_prefix.len() + chain[0].len(),
                        months: months_done,
                        busy: snap_busy,
                        running: snap_running,
                        idle: snap_idle,
                        waiting: snap_wait,
                    };
                    if let Some(m) = det.observe(&view, nm) {
                        // Replay the matched cycle k times from the
                        // journal: all sums below are integer-exact,
                        // so every stamped value is bitwise what
                        // event-by-event simulation would compute.
                        for j in 1..=m.k {
                            let shift = (j as f64) * m.d;
                            let dmj = u32::try_from(j).expect("k < NM") * m.dm;
                            for ev in &det.log[m.log_start..m.log_end] {
                                match *ev {
                                    LogEv::Finish {
                                        t: te,
                                        g: eg,
                                        s: es,
                                        month: em,
                                    } => {
                                        let eg = eg as usize;
                                        let t2 = te + shift;
                                        let m2 = em + dmj;
                                        main_finish = t2;
                                        if record {
                                            records.push(TaskRecord {
                                                task: FusedTask::main(es, m2),
                                                procs: ProcRange {
                                                    first: bases[eg],
                                                    count: sizes[eg],
                                                },
                                                start: t2 - durs[eg],
                                                end: t2,
                                                group: Some(eg as u32),
                                            });
                                        }
                                        chain[0].push((t2, es, m2));
                                        if tracer.enabled() {
                                            tracer.record(TraceEvent::at(
                                                t2,
                                                EventKind::TaskFinish {
                                                    task: FusedTask::main(es, m2),
                                                    first_proc: bases[eg],
                                                    procs: sizes[eg],
                                                    group: Some(eg as u32),
                                                    secs: durs[eg],
                                                },
                                            ));
                                        }
                                    }
                                    LogEv::Dispatch {
                                        t: te,
                                        g: eg,
                                        s: es,
                                        month: em,
                                        queue_depth,
                                    } => {
                                        // Journaled only when tracing.
                                        let t2 = te + shift;
                                        let task = FusedTask::main(es, em + dmj);
                                        tracer.record(TraceEvent::at(
                                            t2,
                                            EventKind::TaskDispatch {
                                                task,
                                                group: Some(eg),
                                                queue_depth,
                                            },
                                        ));
                                        tracer.record(TraceEvent::at(
                                            t2,
                                            EventKind::TaskStart {
                                                task,
                                                first_proc: bases[eg as usize],
                                                procs: sizes[eg as usize],
                                                group: Some(eg),
                                            },
                                        ));
                                    }
                                }
                            }
                        }
                        // Shift the live state k cycles forward. One exact
                        // addition to every key keeps the heap order.
                        let total = (m.k as f64) * m.d;
                        let mut keys = std::mem::take(busy).into_vec();
                        for Reverse((Time(tb), _)) in &mut keys {
                            *tb += total;
                        }
                        *busy = BinaryHeap::from(keys);
                        for slot in running.iter_mut().flatten() {
                            slot.1 += total;
                        }
                        let dm_total = u32::try_from(m.k).expect("k < NM") * m.dm;
                        for md in months_done.iter_mut() {
                            *md += dm_total;
                        }
                        waiting.canonical_content_into(wait_buf);
                        waiting.reset(config.policy, 0);
                        for &(_, ws) in wait_buf.iter() {
                            waiting.push(months_done[ws as usize], ws);
                        }
                        completions += m.k * m.cycle_completions;
                        report.main_cycles_skipped = m.k;
                        if config.granularity == Granularity::Fused {
                            post_periodic = Some(PostPeriodic {
                                start_idx: m.chain_start,
                                cycles: m.k + 1,
                                len: m.cycle_completions as usize,
                                d: m.d,
                            });
                        }
                    }
                }
            }
        }
        if unfinished > 0 && alive == 0 && busy.is_empty() {
            stranded!();
        }
    }

    if unfinished > 0 {
        stranded!();
    }

    // Posts: the ready chain drains through the pool, earliest-ready
    // first, each step taking the earliest-available processor (module
    // docs, "The post drain"). If the pool is empty every group died
    // without disbanding: no post capacity exists.
    if post_pool.is_empty() {
        stranded!();
    }
    let observed = record || tracer.enabled();
    let closed_form = opts.fast_forward
        && !observed
        && capture.is_none()
        && keeps_pace(durs, &steps, config.granularity, grouping, main_finish);
    let mut post_finish = 0.0f64;
    match config.granularity {
        _ if closed_form => {
            // No step waits, so the last month's chain ends last: its
            // ready time plus each step, added in chain order (module
            // docs, "The closed-form drain").
            let last = chain[0].last().or(head_prefix.last());
            if let Some(&(ready, _, _)) = last {
                post_finish = steps[..=last_step].iter().fold(ready, |t, &d| t + d);
            }
            report.drain_closed_form = true;
        }
        Granularity::Fused => {
            // Fused drain, with its own steady-state fast-forward: the
            // main-phase replay hands over the periodic chain region,
            // and once the pool shape recurs at a cycle boundary
            // (relative to the boundary instant, bitwise), the drain
            // stamps whole cycles from the template. Sound only when
            // the post duration is integral too. An observed run's
            // replay stamps processor ids, so its pool must recur by
            // id; a run nothing observes needs only the availability
            // multiset to recur (module docs, "The post drain").
            // The availability of the latest pop, the largest so far.
            let mut last_pop = f64::NEG_INFINITY;
            let tail: &[(f64, u32, u32)] = &chain[0];
            if let Some(head) = capture.as_deref_mut() {
                head.chain.clear();
                head.chain.extend_from_slice(tail);
            }
            let entries = Entries {
                prefix: head_prefix,
                tail,
            };
            let mut pd =
                post_periodic.filter(|p| is_tick_exact(steps[0]) && p.len > 0 && p.cycles >= 2);
            let mut n_pool_snaps = 0usize;
            tmpl.clear();
            let mut i = 0usize;
            // A resumed variant re-drains the head's chain prefix. When
            // the head's own drain of that prefix never popped a
            // disbanded-group processor, and none of the variant's
            // disbanded entries can preempt a pop the head made (every
            // one strictly later than the latest availability the head
            // popped), the pool evolution over the prefix is bitwise
            // the head's: adopt its recorded result and start at the
            // tail. Otherwise fall back to the full event-by-event
            // drain, which is always correct.
            if let Some((_, dck)) = resume_ck {
                let min_disband = post_pool
                    .iter()
                    .filter(|&(_, pp)| pp < post_base)
                    .map(|(a, _)| a)
                    .fold(f64::INFINITY, f64::min);
                if dck.valid && !head_prefix.is_empty() && min_disband > dck.maxpop {
                    post_pool.retain(|pp| pp < post_base);
                    for &(a, pp) in &dck.pool {
                        post_pool.push(a, pp);
                    }
                    post_finish = dck.post_finish;
                    last_pop = dck.maxpop;
                    i = head_prefix.len();
                }
            }
            post_pool.sort();
            // An unobserved run in integer time with a tick-exact `TP`
            // counts its remaining posts off the pool once no processor
            // frees before the last post is ready (module docs, "The
            // saturated drain"). The chain is chronological, so its last
            // entry is ready last.
            let last_ready = entries.len().checked_sub(1).map(|l| entries.at(l).0);
            let saturable = exact_ticks(steps[0])
                .filter(|&tp| tp > 0 && ff_on && !observed && capture.is_none())
                .zip(last_ready);
            // Capture-side drain bookkeeping: one `DrainCk` per main
            // checkpoint, recorded when the drain reaches that
            // checkpoint's chain offset.
            let mut next_dck = 0usize;
            let mut dck_maxpop = 0.0f64;
            let mut dck_valid = true;
            macro_rules! capture_dck {
                () => {{
                    if let Some(head) = capture.as_deref_mut() {
                        while next_dck < head.checkpoints.len()
                            && head.checkpoints[next_dck].completions as usize == i
                        {
                            head.drain_cks.push(DrainCk {
                                valid: dck_valid,
                                maxpop: dck_maxpop,
                                post_finish,
                                pool: post_pool.sorted(|pp| pp >= post_base),
                            });
                            next_dck += 1;
                        }
                    }
                }};
            }
            while i < entries.len() {
                capture_dck!();
                if let Some((tp, last_ready)) = saturable {
                    if post_pool.first_avail().is_some_and(|a| a >= last_ready) {
                        let k = (entries.len() - i) as u64;
                        let end = post_pool.saturated_pop(k, tp) as f64 + steps[0];
                        if end > post_finish {
                            post_finish = end;
                        }
                        report.posts_closed_form = k;
                        break;
                    }
                }
                if let Some(p) = pd {
                    if i >= p.start_idx && (i - p.start_idx).is_multiple_of(p.len) {
                        let c = ((i - p.start_idx) / p.len) as u64;
                        if c >= p.cycles {
                            pd = None; // past the periodic region
                        } else {
                            let t_b = entries.at(i).0;
                            if n_pool_snaps == pool_snaps.len() {
                                pool_snaps.push(PoolSnap::default());
                            }
                            let (prev, slot) = pool_snaps.split_at_mut(n_pool_snaps);
                            let snap = &mut slot[0];
                            let key = if observed {
                                PoolKey::ById
                            } else {
                                PoolKey::ByAvail { last_pop }
                            };
                            pool_snapshot(snap, c, t_b, key, post_pool.iter());
                            let hit = prev[..n_pool_snaps]
                                .iter()
                                .rev()
                                .find_map(|ps| pool_match(ps, snap).map(|sh| (ps, sh)));
                            if let Some((ps, sh)) = hit {
                                let q = c - ps.cycle;
                                // The handed-over region spaces boundaries
                                // exactly `d` apart; anything else means the
                                // chain is not actually periodic here.
                                debug_assert_eq!(sh.delta, (q as f64) * p.d);
                                let mut n = if sh.delta == (q as f64) * p.d {
                                    (p.cycles - c) / q
                                } else {
                                    0
                                };
                                if let Some(min_stable) = sh.min_stable {
                                    // A replayed window may only pop shifted
                                    // (cycling) processors: cap n so the
                                    // largest shifted availability, advancing
                                    // `delta` per window, stays strictly
                                    // below every parked one.
                                    let room = min_stable - sh.max_shifted - 1.0;
                                    let cap = if room < 0.0 {
                                        0.0
                                    } else {
                                        (room / sh.delta).floor()
                                    };
                                    n = n.min(cap as u64);
                                }
                                if n >= 1 {
                                    let w0 =
                                        usize::try_from(ps.cycle).expect("cycle index") * p.len;
                                    let w1 = usize::try_from(c).expect("cycle index") * p.len;
                                    if !observed {
                                        // Nothing observes the replayed
                                        // tasks: only the final clock
                                        // matters, and shifted ends are
                                        // monotone in both the window
                                        // entry and the replay index —
                                        // the max is the window max
                                        // shifted the full n·q cycles,
                                        // the same f64 the loop below
                                        // would keep.
                                        let mut en_max = f64::NEG_INFINITY;
                                        for &(_, _, en) in &tmpl[w0..w1] {
                                            if en > en_max {
                                                en_max = en;
                                            }
                                        }
                                        let end = en_max + ((n * q) as f64) * p.d;
                                        if end > post_finish {
                                            post_finish = end;
                                        }
                                    } else {
                                        for r in 1..=n {
                                            let shift_secs = ((r * q) as f64) * p.d;
                                            let stride = usize::try_from(r * q)
                                                .expect("cycle stride")
                                                * p.len;
                                            for (off, &(proc, st, en)) in
                                                tmpl[w0..w1].iter().enumerate()
                                            {
                                                let ci = p.start_idx + w0 + stride + off;
                                                let (er, es, em) = entries.at(ci);
                                                debug_assert_eq!(
                                                    er,
                                                    entries.at(p.start_idx + w0 + off).0
                                                        + shift_secs,
                                                    "replayed chain entry off the periodic lattice"
                                                );
                                                let start = st + shift_secs;
                                                let end = en + shift_secs;
                                                let task = FusedTask::post(es, em);
                                                if record {
                                                    records.push(TaskRecord {
                                                        task,
                                                        procs: ProcRange::single(proc),
                                                        start,
                                                        end,
                                                        group: None,
                                                    });
                                                }
                                                if tracer.enabled() {
                                                    tracer.record(TraceEvent::at(
                                                        start,
                                                        EventKind::TaskStart {
                                                            task,
                                                            first_proc: proc,
                                                            procs: 1,
                                                            group: None,
                                                        },
                                                    ));
                                                    tracer.record(TraceEvent::at(
                                                        end,
                                                        EventKind::TaskFinish {
                                                            task,
                                                            first_proc: proc,
                                                            procs: 1,
                                                            group: None,
                                                            secs: end - start,
                                                        },
                                                    ));
                                                }
                                                if end > post_finish {
                                                    post_finish = end;
                                                }
                                            }
                                        }
                                    }
                                    // Advance the cycling processors n·q
                                    // cycles; the parked ones kept their
                                    // absolute availabilities throughout.
                                    let total = ((n * q) as f64) * p.d;
                                    let cutoff = sh.min_stable.unwrap_or(f64::INFINITY);
                                    post_pool.shift_below(cutoff, total);
                                    report.post_cycles_skipped = n * q;
                                    i += usize::try_from(n * q).expect("cycle stride") * p.len;
                                    pd = None;
                                    continue;
                                }
                                pd = None; // matched too late to skip
                            } else {
                                n_pool_snaps += 1;
                                if n_pool_snaps == MAX_POOL_SNAPS {
                                    pd = None; // pool never settled
                                }
                            }
                        }
                    }
                }
                let (ready, s, month) = entries.at(i);
                let (avail, proc, start, end) = post_pool.take(ready, steps[0]);
                last_pop = avail;
                if capture.is_some() {
                    if avail > dck_maxpop {
                        dck_maxpop = avail;
                    }
                    if proc < post_base {
                        dck_valid = false;
                    }
                }
                if let Some(p) = pd {
                    if i >= p.start_idx {
                        tmpl.push((proc, start, end));
                    }
                }
                let task = FusedTask::post(s, month);
                if record {
                    records.push(TaskRecord {
                        task,
                        procs: ProcRange::single(proc),
                        start,
                        end,
                        group: None,
                    });
                }
                if tracer.enabled() {
                    tracer.record(TraceEvent::at(
                        start,
                        EventKind::TaskStart {
                            task,
                            first_proc: proc,
                            procs: 1,
                            group: None,
                        },
                    ));
                    tracer.record(TraceEvent::at(
                        end,
                        EventKind::TaskFinish {
                            task,
                            first_proc: proc,
                            procs: 1,
                            group: None,
                            secs: end - start,
                        },
                    ));
                }
                if end > post_finish {
                    post_finish = end;
                }
                i += 1;
            }
            // The final checkpoint sits at the end of the chain.
            capture_dck!();
        }
        Granularity::Unfused => {
            // Unfused drain, event by event: a merge of the per-step
            // queues. The earliest front goes first, ties to the lower
            // step; its next step joins the following queue.
            debug_assert!(head_prefix.is_empty(), "batch heads are fused");
            post_pool.sort();
            let mut next = [0usize; 3];
            loop {
                let mut step = usize::MAX;
                let mut ready = 0.0f64;
                for (k, q) in chain.iter().enumerate() {
                    if let Some(&(r, _, _)) = q.get(next[k]) {
                        if step == usize::MAX || r < ready {
                            step = k;
                            ready = r;
                        }
                    }
                }
                if step == usize::MAX {
                    break;
                }
                let (_, s, month) = chain[step][next[step]];
                next[step] += 1;
                let (_, proc, start, end) = post_pool.take(ready, steps[step]);
                let task = FusedTask {
                    scenario: s,
                    month,
                    kind: STEP_KINDS[step],
                };
                if tracer.enabled() {
                    tracer.record(TraceEvent::at(
                        start,
                        EventKind::TaskStart {
                            task,
                            first_proc: proc,
                            procs: 1,
                            group: None,
                        },
                    ));
                    tracer.record(TraceEvent::at(
                        end,
                        EventKind::TaskFinish {
                            task,
                            first_proc: proc,
                            procs: 1,
                            group: None,
                            secs: end - start,
                        },
                    ));
                }
                if step < last_step {
                    chain[step + 1].push((end, s, month));
                } else {
                    post_finish = post_finish.max(end);
                }
            }
        }
    }

    let makespan = main_finish.max(post_finish);
    if tracer.enabled() {
        tracer.record(TraceEvent::at(
            makespan,
            EventKind::CampaignEnd { makespan },
        ));
    }

    let schedule = if record {
        let schedule = Schedule {
            instance: inst,
            records,
            makespan,
        };
        // In debug builds, run the full schedule-layer rule set (OA008–
        // OA015) over every schedule the engine produces: a cheap,
        // always-on oracle that any future change to the event loop
        // still respects multiplicity, dependences and processor
        // exclusivity.
        #[cfg(debug_assertions)]
        {
            let report = schedule.analyze();
            debug_assert!(
                !report.has_errors(),
                "engine produced an invalid schedule:\n{}",
                report.render_text()
            );
        }
        Some(schedule)
    } else {
        None
    };

    (
        CampaignOutcome::Completed(CampaignRun {
            schedule,
            makespan,
            main_finish,
            post_finish,
            lost_proc_secs,
            months_lost,
        }),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::presets::preset_cluster;

    /// One run of `run` with the given recording wish and kernel
    /// options, untraced.
    fn go(
        inst: Instance,
        table: &TimingTable,
        grouping: &Grouping,
        record: bool,
        opts: KernelOpts,
    ) -> (CampaignRun, KernelReport) {
        let (outcome, report) = SCRATCH.with(|cell| {
            run(
                inst,
                table,
                grouping,
                &CampaignConfig::default(),
                &FaultPlan::none(),
                opts,
                record,
                &mut oa_trace::NullTracer,
                &mut cell.borrow_mut(),
                Batch::Off,
            )
        });
        let CampaignOutcome::Completed(run) = outcome else {
            panic!("fault-free runs with post processors complete");
        };
        (run, report)
    }

    /// One fault-free campaign run three ways: event by event and
    /// recorded, fast-forwarded and recorded, fast-forwarded and
    /// unobserved. Every run keeps the event-by-event makespan, main
    /// and post finish bits. Returns the last two runs' kernel reports.
    fn three_ways(inst: Instance, table: &TimingTable, grouping: &Grouping) -> [KernelReport; 2] {
        let (base, base_rep) = go(inst, table, grouping, true, KernelOpts::event_by_event());
        let (recorded, recorded_rep) = go(inst, table, grouping, true, KernelOpts::default());
        let (unobserved, rep) = go(inst, table, grouping, false, KernelOpts::default());
        assert_eq!(base_rep, KernelReport::default());
        assert!(recorded.schedule.is_some() && unobserved.schedule.is_none());
        let bits = |r: &CampaignRun| [r.makespan, r.main_finish, r.post_finish].map(f64::to_bits);
        assert_eq!(bits(&recorded), bits(&base));
        assert_eq!(bits(&unobserved), bits(&base));
        [recorded_rep, rep]
    }

    /// Capricorne at R 64, three scenarios on `3×11 | post:31`: 31
    /// dedicated post processors keep pace with three groups (184 s
    /// posts on 1290 s mains), so the unobserved run skips its drain for
    /// the closed form and replays no post cycle.
    ///
    /// Outside that premise, `3×8 | post:37` with 3883 s posts on 543 s
    /// mains: three posts per cycle end together, so the pool's
    /// processor-id map keeps permuting and the by-id detector never
    /// matches. The availability multiset recurs once the fresh
    /// processors are used up, so the unobserved drain replays nearly
    /// every cycle.
    #[test]
    fn an_unobserved_drain_fast_forwards_by_availability() {
        let table = preset_cluster("capricorne", 64).timing;
        assert_eq!((table.main_secs(11), table.post_secs()), (1290.0, 184.0));
        let grouping = Grouping::uniform(11, 3, 31);
        let [recorded, unobserved] = three_ways(Instance::new(3, 120, 64), &table, &grouping);
        assert!(recorded.main_cycles_skipped > 0, "{recorded:?}");
        assert!(!recorded.drain_closed_form, "{recorded:?}");
        assert!(unobserved.drain_closed_form, "{unobserved:?}");
        assert_eq!(unobserved.post_cycles_skipped, 0, "{unobserved:?}");

        let main = [1500.0, 1321.0, 1201.0, 904.0, 543.0, 390.0, 376.0, 247.0];
        let table = TimingTable::new(main, 3883.0).expect("non-increasing");
        let grouping = Grouping::uniform(8, 3, 37);
        let [recorded, unobserved] = three_ways(Instance::new(3, 128, 61), &table, &grouping);
        assert!(recorded.main_cycles_skipped > 0, "{recorded:?}");
        assert_eq!(recorded.post_cycles_skipped, 0, "{recorded:?}");
        assert!(!unobserved.drain_closed_form, "{unobserved:?}");
        assert!(unobserved.post_cycles_skipped >= 100, "{unobserved:?}");
    }
}
