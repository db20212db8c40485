//! Steady-state cycle detection for the campaign engine's
//! fast-forward kernel.
//!
//! A fault-free campaign is NS independent scenarios of NM identical
//! monthly DAGs: once the pipeline fills, the engine state becomes
//! *periodic* — the same busy/running/idle/waiting shape recurs, only
//! shifted by a constant time offset `D` and a constant per-scenario
//! month offset `dm`. From that point on, re-simulating each cycle is
//! wasted work: the records, trace events and state deltas of one
//! cycle are a template for all the following ones.
//!
//! This module is the detector half of that optimisation. The engine
//! feeds it a state snapshot every NS processed completions (a cycle
//! always spans `NS · dm` completions, so this cadence cannot miss a
//! period); the detector hashes the time-shift-invariant shape,
//! compares against up to [`MAX_SNAPS`] earlier snapshots, and on a
//! verified match returns a [`CycleMatch`] telling the engine how many
//! whole cycles it may replay arithmetically. The engine performs the
//! replay itself (it owns the records, the chain and the tracer) from
//! the [`LogEv`] journal captured while the detector was armed.
//!
//! # When detection is sound
//!
//! The replay stamps event times as `t + j·D`. For that to be *bitwise*
//! identical to event-by-event simulation, every addition must be
//! exact, which the engine guarantees before arming the detector: all
//! task durations (and any failure instants) are integral seconds below
//! `2^53` (`oa_sched::time::exact_ticks`), so every clock value in the
//! run is an exactly-represented integer and `f64` addition never
//! rounds. Two caps bound the skip:
//!
//! * **No scenario reaches its final month inside a replayed cycle.**
//!   Completion events change the state shape: scenarios leave the
//!   system and groups disband, which only the event-by-event path
//!   handles.
//! * **Every replayed completion lies strictly before the next pending
//!   failure.** Between two faults the state recurs exactly as in a
//!   fault-free run, so a stretch replays like one, but a failure goes
//!   first at an equal instant: with the fault at `tf`, the last
//!   replayed completion `t + k·D` must stay below it, so in ticks
//!   `k ≤ (tf − t − 1) / D`. The live state then resumes at
//!   `t + k·D < tf`, and the event loop processes the fault in its
//!   place.
//!
//! A processed failure changes the state in ways no earlier snapshot
//! shares, so the engine calls [`Detector::disturb`], which forgets the
//! snapshots and the journal and re-opens the detector. It fires at
//! most once per fault-free stretch: after a match, or a cap of zero
//! cycles, it retires until the next failure.

/// Kernel knobs of [`crate::engine::simulate_campaign_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOpts {
    /// Detect periodic steady state and advance whole cycles
    /// arithmetically when the run is eligible for integer time
    /// (integral durations and failure instants, bounded horizon), and
    /// skip the post drain of an unobserved run whose post pool keeps
    /// pace with the groups for its closed form, on any table (engine
    /// module docs, "The closed-form drain"). Output remains bitwise
    /// identical either way.
    pub fast_forward: bool,
}

impl Default for KernelOpts {
    fn default() -> Self {
        Self { fast_forward: true }
    }
}

impl KernelOpts {
    /// The pure event-by-event baseline: no fast-forward and no
    /// closed-form drain, so every post runs through the pool — the
    /// exact seed behaviour, kept reachable for differential tests and
    /// the kernel benches. Its runs report [`KernelReport::default`].
    #[must_use]
    pub fn event_by_event() -> Self {
        Self {
            fast_forward: false,
        }
    }
}

/// What the kernel actually did during one run — the observability
/// counterpart of [`KernelOpts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelReport {
    /// Fast-forward was requested and the run qualified for integer
    /// time (integral durations and failure instants, bounded horizon):
    /// the detector was allowed to engage.
    pub integer_time: bool,
    /// Whole main-phase cycles the fast-forward replayed from template
    /// instead of simulating, summed over the run's fault-free
    /// stretches (a faulted run replays between its faults too).
    pub main_cycles_skipped: u64,
    /// Whole post-phase cycles replayed from template during the drain.
    pub post_cycles_skipped: u64,
    /// The post drain was skipped for its closed form: fast-forward was
    /// requested, nothing observed the run, and its post pool kept pace
    /// with the groups, so the post finish is the last main completion
    /// plus the post chain (engine module docs, "The closed-form
    /// drain"). Such a run replays no post cycle.
    pub drain_closed_form: bool,
    /// Posts the fused drain did not pop because its pool saturated:
    /// from the first take whose processor frees at or after the last
    /// post's ready time, the post finish is counted off the pool
    /// (engine module docs, "The saturated drain"). Zero when that
    /// drain did not run.
    pub posts_closed_form: u64,
}

/// Snapshots kept before the detector gives up. 64 snapshots at one
/// per NS completions covers a transient of 64 candidate cycles —
/// pipelines fill in a handful.
const MAX_SNAPS: usize = 64;

/// Journal cap: if the log grows past this without a match the
/// detector gives up rather than hoard memory (the pathological case
/// is a long aperiodic run under the most-advanced policy).
const MAX_LOG: usize = 1 << 20;

/// One journaled engine event, captured while the detector is armed.
/// Times are absolute; the replay shifts them by whole cycle deltas.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LogEv {
    /// A main-task completion on group `g`.
    Finish {
        /// Completion instant.
        t: f64,
        /// Group index.
        g: u32,
        /// Scenario.
        s: u32,
        /// Month that completed.
        month: u32,
    },
    /// A dispatch of scenario `s` onto group `g` (the engine emits a
    /// `TaskDispatch` + `TaskStart` pair for it).
    Dispatch {
        /// Dispatch instant.
        t: f64,
        /// Group index.
        g: u32,
        /// Scenario.
        s: u32,
        /// Month being started.
        month: u32,
        /// Waiting-queue depth after the pop, for the trace event.
        queue_depth: u32,
    },
}

/// A verified periodic match: the engine may replay the journal window
/// `log[log_start..log_end]` `k` times, shifting times by `j·d` and
/// months by `j·dm` on replay `j`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleMatch {
    /// Cycle time delta (exact integral seconds).
    pub d: f64,
    /// Months every scenario advances per cycle.
    pub dm: u32,
    /// Whole cycles to replay (≥ 1).
    pub k: u64,
    /// Journal window start (snapshot A's log length).
    pub log_start: usize,
    /// Journal window end (current log length).
    pub log_end: usize,
    /// Chain length at snapshot A — the first chain index of the
    /// periodic region, which the post drain's own detector picks up.
    pub chain_start: usize,
    /// Completions per cycle (= NS · dm).
    pub cycle_completions: u64,
}

/// One stored state snapshot, shape fields relative to the snapshot
/// instant so that time-shifted recurrences compare equal. All offsets
/// are exact (integral-second mode), stored as raw `f64` bits.
#[derive(Debug, Default)]
struct Snap {
    /// Snapshot instant.
    t: f64,
    /// Completions processed so far.
    completions: u64,
    /// Chain length at the snapshot.
    chain_len: usize,
    /// Journal length at the snapshot.
    log_len: usize,
    /// Hash of the shape fields below.
    hash: u64,
    /// Months completed per scenario (absolute; compared modulo a
    /// uniform shift).
    months: Vec<u32>,
    /// Busy set: (finish − t) in exact bits, group — sorted pop order.
    busy: Vec<(u64, u32)>,
    /// Running groups: (group, scenario, (t − start) bits).
    running: Vec<(u32, u32, u64)>,
    /// Idle groups in assignment order.
    idle: Vec<u32>,
    /// Waiting scenarios in canonical pop-determining order.
    waiting: Vec<u32>,
}

/// A borrowed view of the engine state at a snapshot point.
pub(crate) struct SnapView<'a> {
    /// Current instant (a completion time).
    pub t: f64,
    /// Completions processed so far.
    pub completions: u64,
    /// Chain length right now.
    pub chain_len: usize,
    /// Months completed per scenario.
    pub months: &'a [u32],
    /// Busy set as (finish − t) bits and group, sorted pop order.
    pub busy: &'a [(u64, u32)],
    /// Running groups as (group, scenario, (t − start) bits).
    pub running: &'a [(u32, u32, u64)],
    /// Idle groups in assignment order.
    pub idle: &'a [u32],
    /// Waiting scenario ids in canonical order.
    pub waiting: &'a [u32],
}

/// FNV-1a over a word stream; collisions are harmless (a full
/// comparison always verifies a hash hit).
fn hash_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The steady-state detector. Lives in the engine's thread-local
/// scratch; all buffers are reused across runs.
#[derive(Debug, Default)]
pub(crate) struct Detector {
    /// Snapshot arena; only the first `n` entries are live.
    snaps: Vec<Snap>,
    /// Live snapshots.
    n: usize,
    /// Event journal since arming.
    pub(crate) log: Vec<LogEv>,
    /// Whether the journal is being captured.
    armed: bool,
    /// Gave up or already fired — no further snapshots this stretch.
    done: bool,
}

impl Detector {
    /// Starts a fault-free stretch: at the start of a run, and after
    /// each processed failure. Drops every snapshot and the journal, and
    /// re-opens a retired detector.
    pub(crate) fn disturb(&mut self) {
        self.n = 0;
        self.log.clear();
        self.armed = false;
        self.done = false;
    }

    /// Whether the journal should be fed.
    pub(crate) fn armed(&self) -> bool {
        self.armed && !self.done
    }

    /// Whether the detector still wants snapshots.
    pub(crate) fn active(&self) -> bool {
        !self.done
    }

    /// Offers a snapshot; `fault` is the instant of the next pending
    /// failure, if any, strictly after `view.t`. Returns a verified cycle
    /// match capped by the months left and by the fault (module docs,
    /// "When detection is sound"). After any match, fired or capped to
    /// zero cycles, the detector retires until the next
    /// [`Detector::disturb`]: the remaining months, or the time left
    /// before the fault, fit in fewer than two cycles, so a second
    /// fast-forward in the same stretch cannot pay for its detection.
    pub(crate) fn observe(
        &mut self,
        view: &SnapView<'_>,
        nm: u32,
        fault: Option<f64>,
    ) -> Option<CycleMatch> {
        if self.done {
            return None;
        }
        if self.log.len() > MAX_LOG {
            self.give_up();
            return None;
        }
        let hash = hash_words(
            view.busy
                .iter()
                .flat_map(|&(dt, g)| [dt, u64::from(g)])
                .chain(
                    view.running
                        .iter()
                        .flat_map(|&(g, s, age)| [u64::from(g), u64::from(s), age]),
                )
                .chain(view.idle.iter().map(|&g| u64::from(g)))
                .chain(view.waiting.iter().map(|&s| u64::from(s))),
        );
        // Newest first: the most recent matching snapshot gives the
        // shortest period and therefore the smallest replay template.
        for i in (0..self.n).rev() {
            let snap = &self.snaps[i];
            if snap.hash != hash || !Self::shape_eq(snap, view) {
                continue;
            }
            let Some(dm) = Self::uniform_month_shift(&snap.months, view.months) else {
                continue;
            };
            let d = view.t - snap.t;
            debug_assert!(d > 0.0 && d.fract() == 0.0, "cycle delta must be exact");
            debug_assert_eq!(
                view.completions - snap.completions,
                u64::from(dm) * view.months.len() as u64,
                "a cycle spans NS * dm completions"
            );
            // Cap the skip so every replayed completion still re-queues
            // its scenario: months stay strictly below NM throughout.
            let months_cap = view
                .months
                .iter()
                .map(|&m| {
                    // Matching shapes put every scenario in running or
                    // waiting, so none has completed yet.
                    debug_assert!(m < nm, "completed scenario inside a matched cycle");
                    u64::from((nm - 1 - m) / dm)
                })
                .min()
                .expect("at least one scenario");
            // And so the last replayed completion, `t + k·D`, lies
            // strictly before the pending fault, which goes first at an
            // equal instant.
            let fault_cap = fault.map_or(u64::MAX, |tf| {
                debug_assert!(tf > view.t, "a pending fault lies ahead");
                ((tf - view.t) as u64).saturating_sub(1) / d as u64
            });
            let k = months_cap.min(fault_cap);
            self.done = true; // one shot per stretch either way
            if k == 0 {
                return None;
            }
            return Some(CycleMatch {
                d,
                dm,
                k,
                log_start: snap.log_len,
                log_end: self.log.len(),
                chain_start: snap.chain_len,
                cycle_completions: view.completions - snap.completions,
            });
        }
        if self.n == MAX_SNAPS {
            self.give_up();
            return None;
        }
        self.store(view, hash);
        self.armed = true;
        None
    }

    fn give_up(&mut self) {
        self.done = true;
        self.n = 0;
        self.log.clear();
    }

    fn shape_eq(snap: &Snap, view: &SnapView<'_>) -> bool {
        snap.busy == view.busy
            && snap.running == view.running
            && snap.idle == view.idle
            && snap.waiting == view.waiting
    }

    /// The uniform `dm ≥ 1` with `b[s] == a[s] + dm` for every
    /// scenario, if one exists.
    fn uniform_month_shift(a: &[u32], b: &[u32]) -> Option<u32> {
        debug_assert_eq!(a.len(), b.len());
        let dm = b
            .first()
            .zip(a.first())
            .and_then(|(&b0, &a0)| b0.checked_sub(a0))?;
        (dm >= 1 && a.iter().zip(b).all(|(&x, &y)| y.checked_sub(x) == Some(dm))).then_some(dm)
    }

    /// Stores `view` in the snapshot arena, reusing buffers.
    fn store(&mut self, view: &SnapView<'_>, hash: u64) {
        if self.n == self.snaps.len() {
            self.snaps.push(Snap::default());
        }
        let snap = &mut self.snaps[self.n];
        snap.t = view.t;
        snap.completions = view.completions;
        snap.chain_len = view.chain_len;
        snap.log_len = self.log.len();
        snap.hash = hash;
        snap.months.clear();
        snap.months.extend_from_slice(view.months);
        snap.busy.clear();
        snap.busy.extend_from_slice(view.busy);
        snap.running.clear();
        snap.running.extend_from_slice(view.running);
        snap.idle.clear();
        snap.idle.extend_from_slice(view.idle);
        snap.waiting.clear();
        snap.waiting.extend_from_slice(view.waiting);
        self.n += 1;
    }
}

/// The periodic region of the post chain, handed from the main-phase
/// fast-forward to the drain: chain entries
/// `[start_idx, start_idx + cycles·len)` repeat with period `len`
/// entries / `d` seconds. The drain runs its own pool-shape detector
/// over the cycle boundaries (engine module docs, "The post drain").
#[derive(Debug, Clone, Copy)]
pub(crate) struct PostPeriodic {
    /// First chain index of the periodic region.
    pub start_idx: usize,
    /// Whole cycles in the region (the matched window plus the
    /// replayed ones).
    pub cycles: u64,
    /// Chain entries per cycle.
    pub len: usize,
    /// Cycle time delta, exact integral seconds.
    pub d: f64,
}

/// How a pool snapshot identifies its entries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PoolKey {
    /// By processor id, for an observed run (a recorded schedule or an
    /// enabled tracer): its replay stamps processor ids, so the pool
    /// must recur processor by processor.
    ById,
    /// By availability alone, for a run nothing observes: pop the
    /// least availability, push `max(avail, ready) + TP`, so the drain's
    /// values depend only on the availability multiset. Carries the
    /// availability of the last pop before the boundary, the largest
    /// popped so far (pops are non-decreasing).
    ByAvail {
        /// Last availability popped, `-∞` before the first pop.
        last_pop: f64,
    },
}

/// One pool snapshot at a post-phase cycle boundary: the *absolute*
/// availability of every processor (exact bits). Absolute, not
/// boundary-relative, because the pool mixes two populations: the
/// reserved post processors cycle with the chain (their availabilities
/// recur relative to the boundary), while the main-phase processors sit
/// parked at the instant they will finish their last main task — a
/// *constant* availability far in the future that a relative encoding
/// would smear across every boundary.
///
/// Keyed [`PoolKey::ById`], entries are `(processor id, bits)` sorted
/// by id. Keyed [`PoolKey::ByAvail`], ids are erased to 0 and entries
/// are sorted by availability: equal ends re-enter the pool in id
/// order, so the id → availability map of a recurring multiset keeps
/// permuting, and only the multiset can match.
#[derive(Debug, Default)]
pub(crate) struct PoolSnap {
    /// Cycle index within the periodic region.
    pub cycle: u64,
    /// Boundary instant (first ready time of the cycle).
    pub t_b: f64,
    /// The last availability popped before the boundary, for an
    /// id-free snapshot; `None` when keyed by id.
    pub last_pop: Option<f64>,
    /// (processor id or 0, absolute availability bits), sorted.
    pub avails: Vec<(u32, u64)>,
}

/// A pool recurrence between two boundaries: every processor either
/// kept its availability bit-for-bit (*stable* — parked, untouched by
/// the window) or advanced by exactly the boundary delta (*shifted* —
/// participating in the cycle).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolShift {
    /// Boundary time delta (exact integral seconds).
    pub delta: f64,
    /// Largest availability among shifted processors at the newer
    /// boundary.
    pub max_shifted: f64,
    /// Smallest availability among stable processors, if any. A
    /// replayed window may only pop shifted processors, so replay must
    /// stop while `max_shifted` (advancing `delta` per window) is
    /// still strictly below this.
    pub min_stable: Option<f64>,
}

/// Boundary snapshots kept before the post-phase detector gives up.
pub(crate) const MAX_POOL_SNAPS: usize = 64;

/// Builds a pool snapshot into `snap` from `(avail, proc)` pairs at
/// boundary instant `t_b`, keyed by `key`. Availabilities are
/// non-negative, where bit order is numeric order.
pub(crate) fn pool_snapshot(
    snap: &mut PoolSnap,
    cycle: u64,
    t_b: f64,
    key: PoolKey,
    pool: impl Iterator<Item = (f64, u32)>,
) {
    snap.cycle = cycle;
    snap.t_b = t_b;
    snap.last_pop = match key {
        PoolKey::ById => None,
        PoolKey::ByAvail { last_pop } => Some(last_pop),
    };
    let by_id = snap.last_pop.is_none();
    snap.avails.clear();
    snap.avails.extend(pool.map(|(avail, p)| {
        debug_assert!(avail >= 0.0, "negative availability {avail}");
        (if by_id { p } else { 0 }, avail.to_bits())
    }));
    // Ids are distinct, so keyed by id this sorts by id alone.
    snap.avails.sort_unstable();
}

/// Tests whether `cur` is a recurrence of `prev`, pairing their entries
/// in order: each pair either stable or shifted by exactly the boundary
/// delta.
///
/// Keyed by id, the pairs are processors. Stability over a window
/// proves the processor was never popped in it (a pop re-enters
/// strictly later), so during a shifted replay the stable set is inert
/// as long as no shifted availability crosses it.
///
/// Keyed by availability, the pairs are the ranks of the two sorted
/// multisets, and the guard `last_pop < min_stable` proves the stable
/// part inert: pops are non-decreasing, so no entry at or above the
/// least stable value was ever popped. Under the replay cap (every
/// shifted value below every stable one) the pool then splits into a
/// low part shifted by the delta and a high part never touched.
pub(crate) fn pool_match(prev: &PoolSnap, cur: &PoolSnap) -> Option<PoolShift> {
    if prev.avails.len() != cur.avails.len() {
        return None;
    }
    let delta = cur.t_b - prev.t_b;
    if delta <= 0.0 {
        return None;
    }
    let mut max_shifted = f64::NEG_INFINITY;
    let mut min_stable = f64::INFINITY;
    let mut any_shifted = false;
    for (&(pa, ba), &(pb, bb)) in prev.avails.iter().zip(&cur.avails) {
        if pa != pb {
            return None;
        }
        if ba == bb {
            min_stable = min_stable.min(f64::from_bits(bb));
        } else if (f64::from_bits(ba) + delta).to_bits() == bb {
            any_shifted = true;
            max_shifted = max_shifted.max(f64::from_bits(bb));
        } else {
            return None;
        }
    }
    if !any_shifted || cur.last_pop.is_some_and(|popped| popped >= min_stable) {
        return None;
    }
    Some(PoolShift {
        delta,
        max_shifted,
        min_stable: min_stable.is_finite().then_some(min_stable),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(
        t: f64,
        completions: u64,
        months: &'a [u32],
        busy: &'a [(u64, u32)],
        running: &'a [(u32, u32, u64)],
        idle: &'a [u32],
        waiting: &'a [u32],
    ) -> SnapView<'a> {
        SnapView {
            t,
            completions,
            chain_len: completions as usize,
            months,
            busy,
            running,
            idle,
            waiting,
        }
    }

    #[test]
    fn detects_a_uniform_shift_and_caps_k() {
        let mut det = Detector::default();
        let busy = [(100u64, 0u32), (250, 1)];
        let running = [(0u32, 0u32, 50u64), (1, 1, 10)];
        let idle: [u32; 0] = [];
        let waiting = [2u32];
        // ns = 3 scenarios, dm = 2 per cycle, cycle = 6 completions.
        let a = view(1000.0, 6, &[4, 4, 4], &busy, &running, &idle, &waiting);
        assert!(det.observe(&a, 100, None).is_none());
        let b = view(1600.0, 12, &[6, 6, 6], &busy, &running, &idle, &waiting);
        let m = det
            .observe(&b, 100, None)
            .expect("periodic state must match");
        assert_eq!(m.dm, 2);
        assert_eq!(m.d, 600.0);
        assert_eq!(m.cycle_completions, 6);
        // (nm - 1 - 6) / 2 = 46 whole cycles stay below month 100.
        assert_eq!(m.k, 46);
        // One shot: the detector retires after firing.
        assert!(!det.active());
    }

    #[test]
    fn non_uniform_month_progress_never_matches() {
        let mut det = Detector::default();
        let busy = [(10u64, 0u32)];
        let running = [(0u32, 0u32, 5u64)];
        let idle: [u32; 0] = [];
        let waiting = [1u32];
        let a = view(10.0, 2, &[1, 1], &busy, &running, &idle, &waiting);
        assert!(det.observe(&a, 50, None).is_none());
        // Same shape, but scenario 1 advanced twice as fast.
        let b = view(30.0, 4, &[2, 3], &busy, &running, &idle, &waiting);
        assert!(det.observe(&b, 50, None).is_none());
        assert!(det.active(), "a non-match keeps the detector alive");
    }

    #[test]
    fn shape_difference_never_matches() {
        let mut det = Detector::default();
        let running = [(0u32, 0u32, 5u64)];
        let idle: [u32; 0] = [];
        let waiting = [1u32];
        let a = view(10.0, 2, &[1, 1], &[(10, 0)], &running, &idle, &waiting);
        assert!(det.observe(&a, 50, None).is_none());
        let b = view(30.0, 4, &[2, 2], &[(11, 0)], &running, &idle, &waiting);
        assert!(det.observe(&b, 50, None).is_none());
    }

    #[test]
    fn disturb_forgets_everything() {
        let mut det = Detector::default();
        let busy = [(10u64, 0u32)];
        let running: [(u32, u32, u64); 0] = [];
        let idle = [0u32];
        let waiting: [u32; 0] = [];
        let a = view(10.0, 1, &[1], &busy, &running, &idle, &waiting);
        assert!(det.observe(&a, 50, None).is_none());
        assert!(det.armed());
        det.disturb();
        assert!(!det.armed());
        // The exact recurrence of snapshot A no longer matches anything.
        let b = view(20.0, 2, &[2], &busy, &running, &idle, &waiting);
        assert!(det.observe(&b, 50, None).is_none());
    }

    #[test]
    fn near_tail_match_retires_without_firing() {
        let mut det = Detector::default();
        let busy = [(10u64, 0u32)];
        let running: [(u32, u32, u64); 0] = [];
        let idle = [0u32];
        let waiting: [u32; 0] = [];
        let a = view(10.0, 1, &[8], &busy, &running, &idle, &waiting);
        assert!(det.observe(&a, 10, None).is_none());
        // dm = 1, nm = 10, month 9: (10 - 1 - 9) / 1 = 0 cycles fit.
        let b = view(20.0, 2, &[9], &busy, &running, &idle, &waiting);
        assert!(det.observe(&b, 10, None).is_none());
        assert!(!det.active());
    }

    /// Offers the shape of [`detects_a_uniform_shift_and_caps_k`] twice,
    /// `D = 600` s apart from `t` on, with every scenario at month `m`
    /// and then `m + 2` of 100, under the pending `fault`. Returns the
    /// second offer's answer.
    fn offer_cycle(det: &mut Detector, t: f64, m: u32, fault: Option<f64>) -> Option<CycleMatch> {
        let busy = [(100u64, 0u32), (250, 1)];
        let running = [(0u32, 0u32, 50u64), (1, 1, 10)];
        let waiting = [2u32];
        let (before, after) = ([m; 3], [m + 2; 3]);
        let done = u64::from(m) * 3;
        let a = view(t, done, &before, &busy, &running, &[], &waiting);
        assert!(det.observe(&a, 100, fault).is_none());
        let b = view(t + 600.0, done + 6, &after, &busy, &running, &[], &waiting);
        det.observe(&b, 100, fault)
    }

    /// A fault at `t + D` would go first at the instant of the replayed
    /// cycle's last completion, so no cycle fits: the detector replays
    /// nothing and retires for the rest of the stretch.
    #[test]
    fn a_fault_one_cycle_ahead_replays_nothing() {
        let mut det = Detector::default();
        assert!(offer_cycle(&mut det, 1000.0, 4, Some(2200.0)).is_none());
        assert!(!det.active() && !det.armed(), "a zero cap retires");
        // Retired: a later recurrence of the stretch is not looked at.
        assert!(offer_cycle(&mut det, 1000.0, 4, None).is_none());
    }

    /// One tick later, the cycle's last completion lies strictly before
    /// the fault: one cycle replays. The month cap still binds when the
    /// fault is further away than the months left.
    #[test]
    fn a_fault_a_tick_later_replays_one_cycle() {
        let mut det = Detector::default();
        let m = offer_cycle(&mut det, 1000.0, 4, Some(2201.0)).expect("one cycle fits");
        assert_eq!((m.k, m.d), (1, 600.0));
        for (fault, k) in [(2800.0, 1), (2801.0, 2), (1.0e12, 46)] {
            det.disturb();
            let m = offer_cycle(&mut det, 1000.0, 4, Some(fault)).expect("a match");
            assert_eq!(m.k, k, "fault at {fault}");
        }
    }

    /// A retired detector stays closed until the next failure re-opens
    /// it, and then fires again in the new stretch.
    #[test]
    fn disturb_reopens_a_retired_detector() {
        let mut det = Detector::default();
        assert_eq!(
            offer_cycle(&mut det, 1000.0, 4, None).map(|m| m.k),
            Some(46)
        );
        assert!(!det.active());
        assert!(offer_cycle(&mut det, 5000.0, 60, None).is_none());
        det.disturb();
        assert!(det.active() && !det.armed());
        // (100 − 1 − 62) / 2 = 18 cycles stay below month 100.
        assert_eq!(
            offer_cycle(&mut det, 5000.0, 60, None).map(|m| m.k),
            Some(18)
        );
    }

    #[test]
    fn gives_up_after_the_snapshot_cap() {
        let mut det = Detector::default();
        let running: [(u32, u32, u64); 0] = [];
        let idle = [0u32];
        let waiting: [u32; 0] = [];
        for i in 0..=MAX_SNAPS as u64 {
            // Every snapshot has a distinct busy shape: never matches.
            let busy = [(i, 0u32)];
            let v = view(i as f64, i, &[0], &busy, &running, &idle, &waiting);
            assert!(det.observe(&v, 1000, None).is_none());
        }
        assert!(!det.active());
    }

    #[test]
    fn pool_match_partitions_stable_and_shifted() {
        let mut a = PoolSnap::default();
        let mut b = PoolSnap::default();
        // Processors 2 and 0 cycle with the chain (+300 across the
        // window); processor 5 is parked at 9000 until the main phase
        // ends.
        pool_snapshot(
            &mut a,
            0,
            100.0,
            PoolKey::ById,
            [(90.0, 2), (9000.0, 5), (110.0, 0)].into_iter(),
        );
        pool_snapshot(
            &mut b,
            3,
            400.0,
            PoolKey::ById,
            [(410.0, 0), (390.0, 2), (9000.0, 5)].into_iter(),
        );
        let m = pool_match(&a, &b).expect("stable + uniformly shifted must match");
        assert_eq!(m.delta, 300.0);
        assert_eq!(m.max_shifted, 410.0);
        assert_eq!(m.min_stable, Some(9000.0));

        // A processor moving by anything but the boundary delta kills
        // the match.
        let mut c = PoolSnap::default();
        pool_snapshot(
            &mut c,
            3,
            400.0,
            PoolKey::ById,
            [(410.0, 0), (395.0, 2), (9000.0, 5)].into_iter(),
        );
        assert!(pool_match(&a, &c).is_none());

        // All-stable pools carry no cycle to replay.
        let mut d = PoolSnap::default();
        pool_snapshot(
            &mut d,
            3,
            400.0,
            PoolKey::ById,
            [(110.0, 0), (90.0, 2), (9000.0, 5)].into_iter(),
        );
        assert!(pool_match(&a, &d).is_none());
    }

    /// Equal ends re-enter in id order, so a recurring pool can come
    /// back with its availabilities on other processors: keyed by id it
    /// never matches, keyed by availability it does.
    #[test]
    fn an_id_permuted_recurrence_matches_by_availability() {
        let prev = [(100.0, 0), (100.0, 1), (300.0, 2), (9000.0, 3)];
        let cur = [(400.0, 2), (400.0, 0), (600.0, 1), (9000.0, 3)];
        let snap = |key, cycle, t_b, pool: &[(f64, u32)]| {
            let mut s = PoolSnap::default();
            pool_snapshot(&mut s, cycle, t_b, key, pool.iter().copied());
            s
        };
        let by_id = |cycle, t_b, pool| snap(PoolKey::ById, cycle, t_b, pool);
        assert!(pool_match(&by_id(0, 50.0, &prev), &by_id(1, 350.0, &cur)).is_none());

        let last_pop = PoolKey::ByAvail { last_pop: 300.0 };
        let a = snap(PoolKey::ByAvail { last_pop: 0.0 }, 0, 50.0, &prev);
        let b = snap(last_pop, 1, 350.0, &cur);
        let m = pool_match(&a, &b).expect("the multiset recurs shifted by 300");
        assert_eq!(m.delta, 300.0);
        assert_eq!(m.max_shifted, 600.0);
        assert_eq!(m.min_stable, Some(9000.0));
    }

    /// A "stable" value that was popped and re-created with the same
    /// value is refused: the last pop before the boundary reached it, so
    /// nothing proves the high part inert.
    #[test]
    fn a_popped_stable_value_is_refused_by_the_guard() {
        let prev = [(0.0, 0), (100.0, 1), (500.0, 2)];
        let cur = [(200.0, 2), (300.0, 0), (500.0, 1)];
        let snap = |last_pop, cycle, t_b, pool: &[(f64, u32)]| {
            let mut s = PoolSnap::default();
            pool_snapshot(
                &mut s,
                cycle,
                t_b,
                PoolKey::ByAvail { last_pop },
                pool.iter().copied(),
            );
            s
        };
        let a = snap(f64::NEG_INFINITY, 0, 0.0, &prev);
        // Ranks 0 and 1 shift by 200 and rank 2 keeps 500: a match while
        // every pop stayed below 500 ...
        let m = pool_match(&a, &snap(300.0, 1, 200.0, &cur)).expect("guard holds");
        assert_eq!(m.min_stable, Some(500.0));
        // ... refused once the last pop took the 500 itself.
        assert!(pool_match(&a, &snap(500.0, 1, 200.0, &cur)).is_none());
        assert!(pool_match(&a, &snap(700.0, 1, 200.0, &cur)).is_none());
        // With no stable part there is nothing to guard.
        let all = [(200.0, 0), (300.0, 1), (700.0, 2)];
        assert!(pool_match(&a, &snap(600.0, 1, 200.0, &all)).is_some());
    }
}
