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
//! [`KernelOpts`] and reported by [`KernelReport`]. A campaign repeats
//! the same event pattern every cycle once the pipeline fills, and
//! between two faults it does so exactly as a fault-free run. The
//! detector in the private `ffwd` module spots the recurrence (same
//! busy/running/idle/waiting shape modulo a constant time offset and a
//! uniform month shift), and the engine then *replays* the cycle's
//! journal arithmetically — records, chain entries and trace events
//! stamped from the template with `t + j·D` — instead of re-simulating
//! it. The fused post drain runs the same trick over the processor
//! pool. Both fall back to event-by-event execution around faults,
//! cluster transitions and the campaign head/tail: a pending fault caps
//! the main-phase replay so that every replayed completion lies
//! strictly before it, and each processed fault starts a new stretch in
//! which the detector looks again. The drain replays the newest
//! stretch's periodic region.
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
//! The post chain has `k` steps: the fused post of Figure 2 (`k = 1`)
//! or Figure 1's `cof → emf → cd` (`k = 3`). Ready post work is held as
//! one FIFO queue per step. Main completions push `(t, scenario, month)`
//! onto queue 0 in completion order, which is chronological; a resumed
//! batch variant reads the head's chain prefix ahead of its own. One
//! drain serves both granularities: each take pops the earliest queue
//! front, ties going to the lower step, and pushes the month's next step
//! onto the following queue. With one step, it reads queue 0 in order.
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
//! Each shortcut of the drain sits behind one premise function:
//!
//! * the closed form skips the drain (`keeps_pace`, "The closed-form
//!   drain" below);
//! * the saturated count stops taking posts and counts the rest off the
//!   pool (`saturable`, "The saturated drain");
//! * the replays skip whole cycles (`replayable`, below);
//! * a batch head records the drain's state at its checkpoints, and a
//!   resumed variant adopts the head's drain of its chain prefix (batch
//!   heads are fused).
//!
//! Only the closed form holds for a `k`-step chain. The other proofs
//! take every ready time from the main phase, while a later step's
//! ready time is set by the drain itself, so their premises require one
//! step: an unfused drain that does not keep pace runs event by event.
//!
//! The replays snapshot the pool at the cycle boundaries of the
//! periodic chain region the main phase handed over, and replay whole
//! cycles once two snapshots split the pool into a part shifted by the
//! boundary delta and a stable part above it. How snapshots compare
//! depends on whether anything observes the run:
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
//! taking posts when all of these hold (the first two are `saturable`):
//!
//! * nothing observes the run, and it is not a batch head capture;
//! * fast-forward is on, the run is in integer time, and the chain's
//!   one step `TP` is a positive tick-exact value;
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
//! `tests/drain_equivalence.rs` pins the drain at both granularities
//! to a heap-drain oracle, and a proptest of the pool pins every take
//! to a `BinaryHeap` pool's.

#![warn(clippy::too_many_lines)]

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

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
    pool_match, pool_snapshot, CycleMatch, Detector, LogEv, PoolKey, PoolSnap, PostPeriodic,
    SnapView, MAX_POOL_SNAPS,
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
#[derive(Default)]
struct FailureImpact {
    /// The scenario whose in-flight month died, with the month it will
    /// resume from (`None` when the group was idle).
    victim: Option<(u32, u32)>,
    /// Processor-seconds destroyed.
    lost_proc_secs: f64,
    /// Months of progress destroyed.
    months_lost: u32,
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
fn keeps_pace(durs: &[f64], steps: &[f64], grouping: &Grouping, main_finish: f64) -> bool {
    let min_dur = durs.iter().copied().fold(f64::INFINITY, f64::min);
    grouping.post_procs as usize >= grouping.group_count()
        && match steps {
            [tp] => *tp <= min_dur,
            _ => {
                let chain_secs: f64 = steps.iter().sum();
                chain_secs + 4.0 * f64::EPSILON * (main_finish + min_dur) < min_dur
            }
        }
}

/// The drain's view of the chain's queue 0: an optional borrowed
/// prefix (the shared head chain of a batch resume) followed by this
/// run's own completions. Indexing is chain-absolute, so the
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
#[derive(Default)]
struct Scratch {
    /// Per-group main duration.
    durs: Vec<f64>,
    /// Each group's processors.
    procs: Vec<ProcRange>,
    /// Failure sort buffer: the plan in time order, reused run to run.
    fail_buf: Vec<(usize, f64)>,
    /// The main phase's collections.
    groups: Groups,
    /// The post phase's collections.
    posts: Posts,
}

/// The main phase's collections (see [`Scratch`]).
#[derive(Default)]
struct Groups {
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
    /// Steady-state cycle detector (snapshots + event journal).
    det: Detector,
    /// Snapshot build buffers: busy as (tick offset, group), running as
    /// (group, scenario, age ticks), idle groups, and waiting scenario
    /// ids in canonical order.
    snap_busy: Vec<(u64, u32)>,
    snap_running: Vec<(u32, u32, u64)>,
    snap_idle: Vec<u32>,
    snap_wait: Vec<u32>,
    /// Waiting-queue canonical content buffer.
    wait_buf: Vec<(u32, u32)>,
    /// Busy-set content in pop order (snapshots and checkpoints).
    busy_buf: Vec<(u64, usize)>,
}

/// The post phase's collections (see [`Scratch`]).
#[derive(Default)]
struct Posts {
    /// Ready post work: one FIFO queue of `(ready, scenario, month)`
    /// per chain step. Mains fill queue 0; the drain feeds the later
    /// steps' queues (module docs, "The post drain").
    chain: [Vec<(f64, u32, u32)>; 3],
    /// Post-processor pool: two sorted queues of (availability,
    /// processor id) (module docs, "The post drain").
    pool: PostPool,
    /// Post-drain boundary snapshots of the pool shape.
    snaps: Vec<PoolSnap>,
    /// Post-drain replay template: (processor, start, end) per entry
    /// of the periodic chain region.
    tmpl: Vec<(u32, f64, f64)>,
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
        .then(|| scratch.posts.chain[0].iter().map(|&(t, _, _)| t).collect());
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

/// The event loop proper, on pre-validated input and reusable state:
/// the main phase ([`Main`]), then the post phase. `record` asks for
/// the schedule, which the run keeps only when it is fused and
/// fault-free.
#[allow(clippy::too_many_arguments)]
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
    let (capture, prefix, resume) = match batch {
        Batch::Off => (None, &[][..], None),
        Batch::Capture(head) => (Some(head), &[][..], None),
        Batch::Resume { head, ck, failures } => (
            None,
            &head.chain[..head.checkpoints[ck].completions as usize],
            Some((&head.checkpoints[ck], &head.drain_cks[ck], failures)),
        ),
    };
    let sizes: &[u32] = grouping.groups();
    let (steps, pre, last_step) = post_model(config.granularity, table.post_secs());
    let durs = &mut scratch.durs;
    durs.clear();
    push_durs(durs, sizes, table.main_array(), config.granularity, pre);
    // Processor layout: groups first (descending sizes, canonical),
    // then the dedicated post pool; any remainder stays idle forever.
    let procs = &mut scratch.procs;
    procs.clear();
    let mut first = 0u32;
    for &count in sizes {
        procs.push(ProcRange { first, count });
        first += count;
    }
    // Failures in time order; ties keep plan order (stable sort). A
    // batch resume brings its own pre-sorted slice.
    let failures: &[(usize, f64)] = match resume {
        Some((_, _, failures)) => failures,
        None => {
            let buf = &mut scratch.fail_buf;
            buf.clear();
            buf.extend_from_slice(&plan.failures);
            buf.sort_by(|a, b| a.1.total_cmp(&b.1));
            buf
        }
    };

    // Integer time gates the fast-forward, and a capture run's
    // tick-valued checkpoints — see [`kernel_gate`].
    let integer_time = (opts.fast_forward || capture.is_some())
        && kernel_gate(durs, failures, inst, steps.iter().sum());
    debug_assert!(
        capture.is_none() || integer_time,
        "capture implies integer time"
    );
    // The post chain: one step fused, three unfused.
    let steps = &steps[..=last_step];
    let kinds: &[TaskKind] = match config.granularity {
        Granularity::Fused => &[TaskKind::FusedPost],
        Granularity::Unfused => &STEP_KINDS,
    };
    debug_assert!(last_step == 0 || resume.is_none(), "batch heads are fused");
    // Records become a `Schedule` only when the caller asks for one and
    // every task provably runs exactly once: fused granularity, nothing
    // to inject. The arena is then the one allocation of the run,
    // pre-sized to its exact final length. A batch head keeps
    // checkpoints, not records.
    let record = record
        && config.granularity == Granularity::Fused
        && failures.is_empty()
        && resume.is_none()
        && capture.is_none();
    let records = record.then(|| Vec::with_capacity(inst.nbtasks() as usize * 2));

    let mut main = Main {
        inst,
        config,
        sizes,
        procs,
        durs,
        failures,
        next_failure: 0,
        groups: &mut scratch.groups,
        posts: &mut scratch.posts,
        stamp: Stamp { tracer, records },
        alive: sizes.len(),
        unfinished: inst.ns as usize,
        completions: 0,
        main_finish: 0.0,
        lost_proc_secs: 0.0,
        months_lost: 0,
        ff_on: opts.fast_forward && integer_time,
        report: KernelReport {
            integer_time,
            ..KernelReport::default()
        },
        post_periodic: None,
        capture,
        steps,
        kinds,
        prefix,
    };
    main.start(grouping.post_procs, resume.map(|(ck, _, _)| ck));
    // If the pool is empty every group died without disbanding: no
    // post capacity exists.
    if !main.run() || main.posts.pool.is_empty() {
        let completed_months = main.groups.months_done.iter().map(|&m| u64::from(m)).sum();
        return (CampaignOutcome::Stranded { completed_months }, main.report);
    }
    let closed_form = opts.fast_forward
        && !main.stamp.observed()
        && main.capture.is_none()
        && keeps_pace(durs, steps, grouping, main.main_finish);
    let adopt = resume.map(|(_, dck, _)| dck);
    let post_finish = main.post_phase(adopt, closed_form);
    main.outcome(post_finish)
}

/// Where a run's task records and trace events go. Each task kind is
/// stamped here once, for the live loop and the fast-forward replays
/// alike.
struct Stamp<'a, T: Tracer> {
    tracer: &'a mut T,
    /// The schedule's records, when the run keeps them.
    records: Option<Vec<TaskRecord>>,
}

impl<T: Tracer> Stamp<'_, T> {
    /// Whether anything observes the run: a recorded schedule or an
    /// enabled tracer.
    fn observed(&self) -> bool {
        self.records.is_some() || self.tracer.enabled()
    }

    /// Records the event `kind` builds at `t`, when the tracer is on.
    #[inline]
    fn event(&mut self, t: f64, kind: impl FnOnce() -> EventKind) {
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent::at(t, kind()));
        }
    }

    /// A main dispatched onto group `g`'s `procs` at `now`, leaving
    /// `depth` scenarios waiting.
    fn dispatch(&mut self, task: FusedTask, g: usize, procs: ProcRange, now: f64, depth: u32) {
        let group = Some(g as u32);
        self.event(now, || EventKind::TaskDispatch {
            task,
            group,
            queue_depth: depth,
        });
        self.event(now, || EventKind::TaskStart {
            task,
            first_proc: procs.first,
            procs: procs.count,
            group,
        });
    }

    /// A task that ran on `procs` over `start..end`, on group `g` (`None`
    /// for a post step): its record, when the run keeps them, and its
    /// finish event. A main's start event is its dispatch's.
    #[inline]
    fn finish(&mut self, task: FusedTask, procs: ProcRange, g: Option<u32>, start: f64, end: f64) {
        if let Some(records) = &mut self.records {
            records.push(TaskRecord {
                task,
                procs,
                start,
                end,
                group: g,
            });
        }
        self.event(end, || EventKind::TaskFinish {
            task,
            first_proc: procs.first,
            procs: procs.count,
            group: g,
            secs: end - start,
        });
    }

    /// Post step `kind` of `(s, month)` on processor `proc` over
    /// `start..end`: its start event, then [`Stamp::finish`].
    #[inline]
    fn post(&mut self, kind: TaskKind, s: u32, month: u32, proc: u32, start: f64, end: f64) {
        let task = FusedTask {
            scenario: s,
            month,
            kind,
        };
        self.event(start, || EventKind::TaskStart {
            task,
            first_proc: proc,
            procs: 1,
            group: None,
        });
        self.finish(task, ProcRange::single(proc), None, start, end);
    }

    /// The inject/detect/recover event triple of group `g`'s failure at
    /// `tf` (inject always; detect and recover only if the kill landed).
    fn failure(&mut self, g: usize, tf: f64, impact: Option<&FailureImpact>) {
        let group = g as u32;
        self.event(tf, || EventKind::FailureInject { group });
        let Some(im) = impact else { return };
        self.event(tf, || EventKind::FailureDetect {
            group,
            victim: im.victim.map(|(s, _)| s),
            lost_proc_secs: im.lost_proc_secs,
            months_lost: im.months_lost,
        });
        if let Some((scenario, resume_month)) = im.victim {
            self.event(tf, || EventKind::Recover {
                scenario,
                resume_month,
            });
        }
    }
}

/// The main phase: groups run scenario months under the policy until
/// every scenario has finished, faults strike, and idle groups disband
/// into the post pool. Completions fill the chain's queue 0 in
/// completion order.
struct Main<'a, T: Tracer> {
    inst: Instance,
    config: &'a CampaignConfig,
    sizes: &'a [u32],
    procs: &'a [ProcRange],
    durs: &'a [f64],
    /// The fault plan in time order, and the index of the next failure.
    failures: &'a [(usize, f64)],
    next_failure: usize,
    groups: &'a mut Groups,
    posts: &'a mut Posts,
    stamp: Stamp<'a, T>,
    /// Groups not yet disbanded or dead.
    alive: usize,
    /// Scenarios with months still to run.
    unfinished: usize,
    /// Main completions so far, a batch resume's prefix included.
    completions: u64,
    /// The last main completion.
    main_finish: f64,
    /// Work destroyed by crashes (see [`CampaignRun`]).
    lost_proc_secs: f64,
    months_lost: u32,
    /// Fast-forward on, in integer time.
    ff_on: bool,
    report: KernelReport,
    /// The chain's periodic region, once cycles were replayed; the
    /// drain's replays start from it.
    post_periodic: Option<PostPeriodic>,
    /// A batch head run's capture.
    capture: Option<&'a mut BatchHead>,
    /// The post chain's step durations and task kinds.
    steps: &'a [f64],
    kinds: &'a [TaskKind],
    /// The head chain prefix a batch resume reads ahead of queue 0.
    prefix: &'a [(f64, u32, u32)],
}

impl<T: Tracer> Main<'_, T> {
    /// Lays the run out at `t = 0` and runs the first assignment pass,
    /// or installs a batch resume's checkpoint instead. The checkpoint
    /// precedes the variant's first fault, so the history up to it is
    /// bitwise the fault-free head's: losses stay zero and the chain's
    /// skipped prefix is the head's. Each chain queue in use receives
    /// one entry per main completion, and every processor of a group or
    /// of the reserve may enter the pool.
    fn start(&mut self, post_procs: u32, resume: Option<&Checkpoint>) {
        let (n, ns, sizes) = (self.sizes.len(), self.inst.ns, self.sizes);
        self.stamp.event(0.0, || EventKind::CampaignBegin {
            ns,
            nm: self.inst.nm,
            r: self.inst.r,
            groups: sizes.to_vec(),
            post_procs,
        });
        let post_base: u32 = sizes.iter().sum();
        let chain = &mut self.posts.chain;
        chain.iter_mut().for_each(Vec::clear);
        for q in &mut chain[..self.steps.len()] {
            q.reserve(self.inst.nbtasks() as usize);
        }
        self.posts.pool.clear((post_base + post_procs) as usize);
        let gs = &mut *self.groups;
        gs.det.disturb(); // a run starts its first fault-free stretch
        gs.busy.clear();
        gs.busy.reserve(n);
        gs.running.clear();
        gs.months_done.clear();
        gs.idle.clear();
        gs.dead.clear();
        gs.dead.resize(n, false);
        let Some(ck) = resume else {
            gs.running.resize(n, None);
            gs.months_done.resize(ns as usize, 0);
            gs.idle.extend(0..n);
            gs.idle.sort_unstable_by_key(|&g| (sizes[g], g));
            gs.waiting.reset(self.config.policy, ns);
            for p in post_base..post_base + post_procs {
                self.posts.pool.push(0.0, p);
            }
            self.assign(0.0);
            self.capture_ck(0.0);
            return;
        };
        for &(tick, g) in &ck.busy {
            gs.busy.push(time_key(tick as f64, g as usize));
        }
        gs.running.extend_from_slice(&ck.running);
        gs.months_done.extend_from_slice(&ck.months_done);
        gs.idle.extend(ck.idle.iter().map(|&g| g as usize));
        gs.waiting.reset(self.config.policy, 0);
        for &s in &ck.waiting {
            gs.waiting.push(gs.months_done[s as usize], s);
        }
        for &(a, p) in &ck.pool {
            self.posts.pool.push(a, p);
        }
        self.alive = ck.alive;
        self.unfinished = ck.unfinished;
        self.completions = ck.completions;
        self.main_finish = ck.main_finish;
    }

    /// Runs the main phase to its end, one event at a time: the next
    /// failure, or the earliest completion (a failure first at an equal
    /// instant). Returns whether every scenario finished; `false` when
    /// every group died with months still unscheduled.
    fn run(&mut self) -> bool {
        loop {
            let completion = self.groups.busy.peek().map(|&Reverse((Time(t), g))| (t, g));
            match (completion, self.failures.get(self.next_failure).copied()) {
                (c, Some((g, tf))) if c.is_none_or(|(tc, _)| tf <= tc) => {
                    // With no completion pending, a kill that leaves no
                    // group alive makes the assignment a no-op, and the
                    // run strands below.
                    let impact = self.kill(g, tf);
                    self.stamp.failure(g, tf, impact.as_ref());
                    self.next_failure += 1;
                    self.groups.det.disturb();
                    self.assign(tf);
                }
                (Some((_, g)), _) if self.groups.dead[g] => {
                    self.groups.busy.pop();
                    continue; // stale completion of a crashed group
                }
                (Some((t, g)), _) => self.complete(t, g),
                (None, _) => return self.unfinished == 0,
            }
            if self.unfinished > 0 && self.alive == 0 && self.groups.busy.is_empty() {
                return false;
            }
        }
    }

    /// Starts scenario `s` on group `g` at `now`: its running slot, and
    /// the dispatch's journal entry and trace events. The caller keys
    /// the group's busy entry.
    #[inline]
    fn dispatch(&mut self, g: usize, s: u32, now: f64) {
        self.groups.running[g] = Some((s, now));
        if self.stamp.tracer.enabled() {
            let gs = &mut *self.groups;
            let (month, queue_depth) = (gs.months_done[s as usize], gs.waiting.len() as u32);
            if self.ff_on && gs.det.armed() {
                gs.det.log.push(LogEv::Dispatch {
                    t: now,
                    g: g as u32,
                    s,
                    month,
                    queue_depth,
                });
            }
            let task = FusedTask::main(s, month);
            self.stamp
                .dispatch(task, g, self.procs[g], now, queue_depth);
        }
    }

    /// One assignment + disband pass; mirrors `oa_sched::estimate`.
    #[inline]
    fn assign(&mut self, now: f64) {
        while !self.groups.idle.is_empty() && !self.groups.waiting.is_empty() {
            let g = self.groups.idle.pop().expect("non-empty"); // largest idle group
            let s = self.groups.waiting.pop().expect("non-empty");
            self.groups.busy.push(time_key(now + self.durs[g], g));
            self.dispatch(g, s, now);
        }
        while !self.groups.idle.is_empty() && self.alive > self.unfinished {
            let g = self.groups.idle.remove(0); // smallest idle group disbands
            self.alive -= 1;
            let procs = self.procs[g];
            for p in procs.first..procs.first + procs.count {
                self.posts.pool.push(now, p);
            }
            self.stamp.event(now, || EventKind::GroupDisband {
                group: g as u32,
                procs: procs.count,
            });
        }
    }

    /// Records the loop state in canonical form for later batch resumes.
    /// Only capture runs (fused, integer time, fault-free) record, at
    /// instants where `completions` is a multiple of `NS` — the offsets
    /// batch variants look up by their first fault time. Every container
    /// is stored in an order that makes its pop sequence a pure function
    /// of content, so a rebuilt queue replays bitwise.
    fn capture_ck(&mut self, now: f64) {
        let Some(head) = self.capture.as_deref_mut() else {
            return;
        };
        let gs = &mut *self.groups;
        busy_ticks(&gs.busy, &mut gs.busy_buf);
        gs.waiting.canonical_content_into(&mut gs.wait_buf);
        head.checkpoints.push(Checkpoint {
            t: now,
            main_finish: self.main_finish,
            completions: self.completions,
            busy: gs.busy_buf.iter().map(|&(t, g)| (t, g as u32)).collect(),
            running: gs.running.clone(),
            months_done: gs.months_done.clone(),
            idle: gs.idle.iter().map(|&g| g as u32).collect(),
            waiting: gs.wait_buf.iter().map(|&(_, s)| s).collect(),
            pool: self.posts.pool.sorted(|_| true),
            alive: self.alive,
            unfinished: self.unfinished,
        });
    }

    /// Applies the failure of group `g` at `tf` under the configured
    /// recovery, charging destroyed work to the loss accumulators. A
    /// double kill, or a kill of a group that already disbanded (its
    /// processors belong to the post pool now), is a no-op (`None`); a
    /// kill that lands returns its damage assessment.
    fn kill(&mut self, g: usize, tf: f64) -> Option<FailureImpact> {
        let (gs, sizes) = (&mut *self.groups, self.sizes);
        if gs.dead[g] {
            return None;
        }
        let impact = if let Some((s, started)) = gs.running[g].take() {
            // In-flight month lost.
            let lost = (tf - started).max(0.0) * sizes[g] as f64;
            self.lost_proc_secs += lost;
            self.months_lost += 1;
            if self.config.recovery == Recovery::RestartScenario {
                gs.months_done[s as usize] = 0;
            }
            gs.waiting.push(gs.months_done[s as usize], s);
            FailureImpact {
                victim: Some((s, gs.months_done[s as usize])),
                lost_proc_secs: lost,
                months_lost: 1,
            }
        } else {
            let pos = gs
                .idle
                .binary_search_by_key(&(sizes[g], g), |&x| (sizes[x], x))
                .ok()?;
            gs.idle.remove(pos);
            FailureImpact::default()
        };
        gs.dead[g] = true;
        self.alive -= 1;
        Some(impact)
    }

    /// Completes group `g`'s month at `t`, the busy top: the freed
    /// group takes the next scenario, and at every `NS`-completion
    /// boundary a capture run records a checkpoint and the detector is
    /// offered a snapshot.
    #[inline]
    fn complete(&mut self, t: f64, g: usize) {
        let (gs, sizes) = (&mut *self.groups, self.sizes);
        let (s, started) = gs.running[g].take().expect("busy group has a scenario");
        let month = gs.months_done[s as usize];
        gs.months_done[s as usize] += 1;
        let again = gs.months_done[s as usize] < self.inst.nm;
        if self.ff_on && gs.det.armed() {
            gs.det.log.push(LogEv::Finish {
                t,
                g: g as u32,
                s,
                month,
            });
        }
        if !again {
            self.unfinished -= 1;
        }
        self.completions += 1;
        self.finish_main(g, s, month, started, t);
        let gs = &mut *self.groups;
        if gs.idle.is_empty() && (again || !gs.waiting.is_empty()) {
            // The freed group is the only idle one and a scenario is
            // ready for it: the assignment pass would pop it straight
            // back. Re-key the busy top and swap with the queue's top
            // instead. Both hold distinct keys (one per group, one per
            // waiting scenario), so their pops depend only on the
            // content, which is the same.
            let next = if again {
                gs.waiting.push_pop(gs.months_done[s as usize], s)
            } else {
                gs.waiting.pop().expect("non-empty")
            };
            *gs.busy.peek_mut().expect("peeked") = time_key(t + self.durs[g], g);
            self.dispatch(g, next, t);
        } else {
            gs.busy.pop();
            if again {
                gs.waiting.push(gs.months_done[s as usize], s);
            }
            let pos = gs
                .idle
                .binary_search_by_key(&(sizes[g], g), |&x| (sizes[x], x))
                .unwrap_err();
            gs.idle.insert(pos, g);
            self.assign(t);
        }
        if self.completions.is_multiple_of(u64::from(self.inst.ns)) {
            self.capture_ck(t);
            if self.ff_on && self.groups.det.active() {
                self.fast_forward(t);
            }
        }
    }

    /// A main completion of `(s, month)` on group `g` over `start..end`:
    /// the main finish, the chain entry, and the task's record and trace
    /// event.
    #[inline]
    fn finish_main(&mut self, g: usize, s: u32, month: u32, start: f64, end: f64) {
        self.main_finish = end;
        self.posts.chain[0].push((end, s, month));
        let (task, group) = (FusedTask::main(s, month), Some(g as u32));
        self.stamp.finish(task, self.procs[g], group, start, end);
    }

    /// Steady-state detection at the `NS`-completion boundary `t`. A
    /// cycle always spans `NS·dm` completions, so this cadence cannot
    /// miss the period. On a match the cycle is replayed, at most up to
    /// the next pending failure (`ffwd` module docs, "When detection is
    /// sound").
    fn fast_forward(&mut self, t: f64) {
        let fault = self.failures.get(self.next_failure).map(|&(_, tf)| tf);
        let gs = &mut *self.groups;
        busy_ticks(&gs.busy, &mut gs.busy_buf);
        let now = t as u64;
        gs.snap_busy.clear();
        gs.snap_busy
            .extend(gs.busy_buf.iter().map(|&(b, g)| (b - now, g as u32)));
        gs.snap_running.clear();
        for (g, slot) in gs.running.iter().enumerate() {
            if let Some((s, start)) = slot {
                gs.snap_running.push((g as u32, *s, (t - start) as u64));
            }
        }
        gs.snap_idle.clear();
        gs.snap_idle.extend(gs.idle.iter().map(|&g| g as u32));
        gs.waiting.canonical_content_into(&mut gs.wait_buf);
        gs.snap_wait.clear();
        gs.snap_wait.extend(gs.wait_buf.iter().map(|&(_, s)| s));
        let view = SnapView {
            t,
            completions: self.completions,
            chain_len: self.prefix.len() + self.posts.chain[0].len(),
            months: &gs.months_done,
            busy: &gs.snap_busy,
            running: &gs.snap_running,
            idle: &gs.snap_idle,
            waiting: &gs.snap_wait,
        };
        if let Some(m) = gs.det.observe(&view, self.inst.nm, fault) {
            self.replay(m);
        }
    }

    /// Replays the matched cycle `m.k` times from the journal, then
    /// shifts the live state `k` cycles forward. Every sum is
    /// integer-exact, so every stamped value is bitwise what
    /// event-by-event simulation would compute. Each fault-free stretch
    /// adds its cycles to the report; the drain gets the newest
    /// periodic region.
    fn replay(&mut self, m: CycleMatch) {
        for j in 1..=m.k {
            let shift = (j as f64) * m.d;
            let dmj = u32::try_from(j).expect("k < NM") * m.dm;
            for e in m.log_start..m.log_end {
                match self.groups.det.log[e] {
                    LogEv::Finish { t, g, s, month } => {
                        let (g, end) = (g as usize, t + shift);
                        self.finish_main(g, s, month + dmj, end - self.durs[g], end);
                    }
                    // Journaled only when tracing.
                    LogEv::Dispatch {
                        t,
                        g,
                        s,
                        month,
                        queue_depth,
                    } => {
                        let (g, task) = (g as usize, FusedTask::main(s, month + dmj));
                        let procs = self.procs[g];
                        self.stamp.dispatch(task, g, procs, t + shift, queue_depth);
                    }
                }
            }
        }
        // One exact addition to every key keeps the heap order.
        let total = (m.k as f64) * m.d;
        let gs = &mut *self.groups;
        let mut keys = std::mem::take(&mut gs.busy).into_vec();
        for Reverse((Time(tb), _)) in &mut keys {
            *tb += total;
        }
        gs.busy = BinaryHeap::from(keys);
        for slot in gs.running.iter_mut().flatten() {
            slot.1 += total;
        }
        let dm_total = u32::try_from(m.k).expect("k < NM") * m.dm;
        for md in &mut gs.months_done {
            *md += dm_total;
        }
        gs.waiting.shift_months(dm_total);
        self.completions += m.k * m.cycle_completions;
        self.report.main_cycles_skipped += m.k;
        self.post_periodic = Some(PostPeriodic {
            start_idx: m.chain_start,
            cycles: m.k + 1,
            len: m.cycle_completions as usize,
            d: m.d,
        });
    }

    /// The post phase: the chain drains through the pool, or the run
    /// takes its `closed_form` (module docs, "The closed-form drain").
    /// A batch resume may `adopt` the head's drain of its prefix.
    /// Returns the post finish.
    fn post_phase(&mut self, adopt: Option<&DrainCk>, closed_form: bool) -> f64 {
        let (steps, prefix) = (self.steps, self.prefix);
        let (queue0, later) = self.posts.chain[..steps.len()]
            .split_first_mut()
            .expect("a chain has steps");
        if closed_form {
            // No step waits, so the last month's chain ends last: its
            // ready time plus each step, added in chain order.
            self.report.drain_closed_form = true;
            let last = queue0.last().or(prefix.last());
            return last.map_or(0.0, |&(ready, _, _)| {
                steps.iter().fold(ready, |t, &d| t + d)
            });
        }
        let entries = Entries {
            prefix,
            tail: queue0,
        };
        let unobserved = self.ff_on && !self.stamp.observed() && self.capture.is_none();
        let drain = Drain {
            saturable: saturable(steps, unobserved, &entries),
            periodic: replayable(self.post_periodic, steps),
            entries,
            later,
            pool: &mut self.posts.pool,
            steps,
            kinds: self.kinds,
            stamp: &mut self.stamp,
            report: &mut self.report,
            post_finish: 0.0,
            last_pop: f64::NEG_INFINITY,
            snaps: &mut self.posts.snaps,
            n_snaps: 0,
            tmpl: &mut self.posts.tmpl,
            capture: self.capture.as_deref_mut(),
            dck: DrainCk {
                valid: true,
                ..DrainCk::default()
            },
            post_base: self.sizes.iter().sum(),
        };
        drain.run(adopt)
    }

    /// The completed run's outcome, given its post finish.
    fn outcome(mut self, post_finish: f64) -> (CampaignOutcome, KernelReport) {
        let makespan = self.main_finish.max(post_finish);
        self.stamp
            .event(makespan, || EventKind::CampaignEnd { makespan });
        let schedule = self.stamp.records.map(|records| {
            let schedule = Schedule {
                instance: self.inst,
                records,
                makespan,
            };
            // In debug builds, run the full schedule-layer rule set
            // (OA008–OA015) over every schedule the engine produces: a
            // cheap, always-on oracle that any future change to the
            // event loop still respects multiplicity, dependences and
            // processor exclusivity.
            #[cfg(debug_assertions)]
            {
                let report = schedule.analyze();
                debug_assert!(
                    !report.has_errors(),
                    "engine produced an invalid schedule:\n{}",
                    report.render_text()
                );
            }
            schedule
        });
        let run = CampaignRun {
            schedule,
            makespan,
            main_finish: self.main_finish,
            post_finish,
            lost_proc_secs: self.lost_proc_secs,
            months_lost: self.months_lost,
        };
        (CampaignOutcome::Completed(run), self.report)
    }
}

/// The saturated count's premise (module docs, "The saturated drain"),
/// less the pool check the drain makes before each take: a one-step
/// chain whose step is a positive whole number of ticks, in an
/// `unobserved` run (fast-forward on in integer time, nothing observes
/// it, no batch head capture). Returns the step in ticks and the last
/// post's ready time.
fn saturable(steps: &[f64], unobserved: bool, entries: &Entries<'_>) -> Option<(u64, f64)> {
    let [tp] = steps else { return None };
    let tp = exact_ticks(*tp).filter(|&tp| tp > 0 && unobserved)?;
    // The chain is chronological, so its last entry is ready last.
    Some((tp, entries.at(entries.len().checked_sub(1)?).0))
}

/// The drain replays' premise (module docs, "The post drain"): the
/// periodic `region` the main phase handed over, kept for a one-step
/// chain whose step is a whole number of ticks, when the region spans
/// at least two cycles.
fn replayable(region: Option<PostPeriodic>, steps: &[f64]) -> Option<PostPeriodic> {
    let [tp] = steps else { return None };
    region.filter(|p| is_tick_exact(*tp) && p.len > 0 && p.cycles >= 2)
}

/// The post phase's one drain (module docs, "The post drain"), over
/// the chain's step queues: queue 0 through [`Entries`], the later
/// steps' queues fed by the drain itself. The one-step regimes (the
/// saturated count, the replays, a batch head's drain checkpoints and
/// a resume's prefix adoption) stay off unless their premise holds.
struct Drain<'a, 'b, T: Tracer> {
    entries: Entries<'a>,
    /// Queues 1 to `steps.len() − 1`.
    later: &'a mut [Vec<(f64, u32, u32)>],
    pool: &'a mut PostPool,
    /// Each step's duration and task kind.
    steps: &'a [f64],
    kinds: &'a [TaskKind],
    stamp: &'a mut Stamp<'b, T>,
    report: &'a mut KernelReport,
    post_finish: f64,
    /// The availability of the latest pop, the largest so far.
    last_pop: f64,
    /// The saturated count's premise ([`saturable`]).
    saturable: Option<(u64, f64)>,
    /// The periodic region still to replay ([`replayable`]), the pool
    /// snapshots at its cycle boundaries (`n_snaps` in use), and its
    /// template.
    periodic: Option<PostPeriodic>,
    snaps: &'a mut Vec<PoolSnap>,
    n_snaps: usize,
    tmpl: &'a mut Vec<(u32, f64, f64)>,
    /// A batch head run's capture, with its drain checkpoint in
    /// progress: whether no pop so far took a processor below
    /// `post_base`, and the largest availability popped.
    capture: Option<&'a mut BatchHead>,
    dck: DrainCk,
    post_base: u32,
}

impl<T: Tracer> Drain<'_, '_, T> {
    /// Drains the queues: each take pops the earliest queue front, ties
    /// going to the lower step, onto the earliest-available processor,
    /// and the month's next step joins the following queue. A batch
    /// resume starts past the prefix it `adopt`s. Before each take, a
    /// one-step drain records batch checkpoints, counts its saturated
    /// rest or replays cycles. Returns the post finish.
    fn run(mut self, adopt: Option<&DrainCk>) -> f64 {
        if let Some(head) = self.capture.as_deref_mut() {
            head.chain.clear();
            head.chain.extend_from_slice(self.entries.tail);
        }
        self.tmpl.clear();
        // Each queue's cursor; queue 0's is a chain index.
        let mut next = [self.adopt(adopt), 0, 0];
        self.pool.sort();
        // The one-step regimes, on only where their premises held.
        let shortcuts =
            self.saturable.is_some() || self.periodic.is_some() || self.capture.is_some();
        loop {
            let mut step = 0;
            let mut front = (next[0] < self.entries.len()).then(|| self.entries.at(next[0]));
            for (k, q) in self.later.iter().enumerate() {
                if let Some(&e) = q.get(next[k + 1]) {
                    if front.is_none_or(|f| e.0 < f.0) {
                        (step, front) = (k + 1, Some(e));
                    }
                }
            }
            let Some((ready, s, month)) = front else {
                break;
            };
            if shortcuts {
                self.capture_dck(next[0]);
                if self.saturated(next[0]) {
                    break;
                }
                if let Some(i) = self.periodic.and_then(|p| self.replay(p, next[0])) {
                    next[0] = i;
                    continue;
                }
            }
            let i = next[step];
            next[step] += 1;
            let (avail, proc, start, end) = self.pool.take(ready, self.steps[step]);
            if shortcuts {
                self.last_pop = avail;
                if self.capture.is_some() {
                    self.dck.maxpop = self.dck.maxpop.max(avail);
                    self.dck.valid &= proc >= self.post_base;
                }
                if self.periodic.is_some_and(|p| i >= p.start_idx) {
                    self.tmpl.push((proc, start, end));
                }
            }
            self.stamp
                .post(self.kinds[step], s, month, proc, start, end);
            match self.later.get_mut(step) {
                Some(q) => q.push((end, s, month)),
                None => self.post_finish = self.post_finish.max(end),
            }
        }
        // The last drain checkpoint sits at the end of the chain.
        self.capture_dck(next[0]);
        self.post_finish
    }

    /// A resumed variant re-drains the head's chain prefix. When the
    /// head's own drain of that prefix never popped a disbanded-group
    /// processor, and none of the variant's disbanded entries can
    /// preempt a pop the head made (every one strictly later than the
    /// latest availability the head popped), the pool evolution over the
    /// prefix is bitwise the head's: adopt its recorded result and
    /// return the tail's chain index. Otherwise the drain starts at 0,
    /// event by event, which is always correct.
    fn adopt(&mut self, dck: Option<&DrainCk>) -> usize {
        let Some(dck) = dck else { return 0 };
        let post_base = self.post_base;
        let min_disband = self
            .pool
            .iter()
            .filter(|&(_, p)| p < post_base)
            .map(|(a, _)| a)
            .fold(f64::INFINITY, f64::min);
        if !dck.valid || self.entries.prefix.is_empty() || min_disband <= dck.maxpop {
            return 0;
        }
        self.pool.retain(|p| p < post_base);
        for &(a, p) in &dck.pool {
            self.pool.push(a, p);
        }
        self.post_finish = dck.post_finish;
        self.last_pop = dck.maxpop;
        self.entries.prefix.len()
    }

    /// A batch head's drain checkpoints: one per main checkpoint, taken
    /// when the drain reaches that checkpoint's chain index `i`.
    #[inline]
    fn capture_dck(&mut self, i: usize) {
        let Some(head) = self.capture.as_deref_mut() else {
            return;
        };
        let post_base = self.post_base;
        while head
            .checkpoints
            .get(head.drain_cks.len())
            .is_some_and(|ck| ck.completions as usize == i)
        {
            head.drain_cks.push(DrainCk {
                post_finish: self.post_finish,
                pool: self.pool.sorted(|p| p >= post_base),
                ..self.dck
            });
        }
    }

    /// The saturated count (module docs, "The saturated drain"): once
    /// the pool's earliest availability is at or after the last ready
    /// time, the posts from chain index `i` on are counted off the pool.
    /// Returns whether it counted.
    #[inline]
    fn saturated(&mut self, i: usize) -> bool {
        let Some((tp, last_ready)) = self.saturable else {
            return false;
        };
        if !self.pool.first_avail().is_some_and(|a| a >= last_ready) {
            return false;
        }
        let k = (self.entries.len() - i) as u64;
        let end = self.pool.saturated_pop(k, tp) as f64 + self.steps[0];
        self.post_finish = self.post_finish.max(end);
        self.report.posts_closed_form = k;
        true
    }

    /// The drain's fast-forward (module docs, "The post drain"): at
    /// each cycle boundary `i` of the periodic region `p`, snapshot the
    /// pool; once two snapshots split it into a part shifted by the
    /// boundary delta and a stable part above it, replay whole cycles.
    /// Returns the chain index past the replay.
    fn replay(&mut self, p: PostPeriodic, i: usize) -> Option<usize> {
        if i < p.start_idx || !(i - p.start_idx).is_multiple_of(p.len) {
            return None;
        }
        let c = ((i - p.start_idx) / p.len) as u64;
        if c >= p.cycles {
            self.periodic = None; // past the periodic region
            return None;
        }
        if self.n_snaps == self.snaps.len() {
            self.snaps.push(PoolSnap::default());
        }
        let (prev, slot) = self.snaps.split_at_mut(self.n_snaps);
        let last_pop = self.last_pop;
        let key = if self.stamp.observed() {
            PoolKey::ById
        } else {
            PoolKey::ByAvail { last_pop }
        };
        pool_snapshot(&mut slot[0], c, self.entries.at(i).0, key, self.pool.iter());
        let hit = prev
            .iter()
            .rev()
            .find_map(|ps| pool_match(ps, &slot[0]).map(|sh| (ps.cycle, sh)));
        let Some((prev_cycle, sh)) = hit else {
            self.n_snaps += 1;
            if self.n_snaps == MAX_POOL_SNAPS {
                self.periodic = None; // pool never settled
            }
            return None;
        };
        // One match ends the region, replayed or matched too late.
        self.periodic = None;
        let q = c - prev_cycle;
        // The handed-over region spaces boundaries exactly `d` apart;
        // anything else means the chain is not actually periodic here.
        debug_assert_eq!(sh.delta, (q as f64) * p.d);
        let mut n = if sh.delta == (q as f64) * p.d {
            (p.cycles - c) / q
        } else {
            0
        };
        if let Some(min_stable) = sh.min_stable {
            // A replayed window may only pop shifted (cycling)
            // processors: cap n so the largest shifted availability,
            // advancing `delta` per window, stays strictly below every
            // parked one. A negative room casts to a cap of 0.
            let room = min_stable - sh.max_shifted - 1.0;
            n = n.min((room / sh.delta).floor() as u64);
        }
        if n == 0 {
            return None;
        }
        let cycle_start = |cycle: u64| usize::try_from(cycle).expect("cycle index") * p.len;
        self.stamp_replay(p, cycle_start(prev_cycle)..cycle_start(c), n, q);
        // Advance the cycling processors n·q cycles; the parked ones
        // kept their absolute availabilities throughout.
        let cutoff = sh.min_stable.unwrap_or(f64::INFINITY);
        self.pool.shift_below(cutoff, ((n * q) as f64) * p.d);
        self.report.post_cycles_skipped = n * q;
        Some(i + cycle_start(n * q))
    }

    /// Stamps `n` replays of the template `window`, `q` cycles of the
    /// region `p` apart. When nothing observes the replayed tasks only
    /// the post finish moves: shifted ends are monotone in both the
    /// window entry and the replay index, so the largest is the
    /// window's largest shifted the full `n·q` cycles, the same `f64`
    /// the event loop would keep.
    fn stamp_replay(&mut self, p: PostPeriodic, window: Range<usize>, n: u64, q: u64) {
        if !self.stamp.observed() {
            let ends = self.tmpl[window].iter().map(|&(_, _, end)| end);
            let end = ends.fold(f64::NEG_INFINITY, f64::max) + ((n * q) as f64) * p.d;
            self.post_finish = self.post_finish.max(end);
            return;
        }
        for r in 1..=n {
            let shift = ((r * q) as f64) * p.d;
            let stride = usize::try_from(r * q).expect("cycle stride") * p.len;
            for off in window.clone() {
                let (proc, start, end) = self.tmpl[off];
                let (ready, s, month) = self.entries.at(p.start_idx + stride + off);
                debug_assert_eq!(
                    ready,
                    self.entries.at(p.start_idx + off).0 + shift,
                    "replayed chain entry off the periodic lattice"
                );
                let (start, end) = (start + shift, end + shift);
                self.stamp
                    .post(TaskKind::FusedPost, s, month, proc, start, end);
                self.post_finish = self.post_finish.max(end);
            }
        }
    }
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
