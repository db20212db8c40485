//! The analytic makespan model of Section 4.1 (Equations 1–5).
//!
//! For a *uniform* grouping — `nbmax = min(NS, ⌊R/G⌋)` groups of `G`
//! processors, the remaining `R2 = R − nbmax·G` processors dedicated to
//! post-processing — the paper derives the campaign makespan in closed
//! form, split over four cases: `R2 = 0` vs `R2 ≠ 0`, crossed with
//! `nbused = 0` vs `nbused ≠ 0` (`nbused = nbtasks mod nbmax`, the
//! size of the final, incomplete set of simultaneous main tasks).
//!
//! The model's key quantity is `⌊TG/TP⌋`: how many post tasks one
//! processor retires while a group runs one main task. When the `R2`
//! processors cannot keep up (`Npossible = ⌊TG/TP⌋·R2 < nbmax`), posts
//! *overpass* into the tail and are finished on all `R` processors
//! after the mains (Figures 4–6).

use serde::{Deserialize, Serialize};

use oa_par::Pool;
use oa_platform::timing::TimingTable;
use oa_workflow::moldable::MoldableSpec;

use crate::params::{div_ceil_u64, Instance};

/// Everything Equations 1–5 compute for one `(instance, G)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Group size `G` this breakdown describes.
    pub g: u32,
    /// `nbmax`: simultaneous main tasks.
    pub nbmax: u32,
    /// `R2`: processors dedicated to post-processing.
    pub r2: u32,
    /// `nbused`: main tasks in the final, incomplete set (0 = exact fit).
    pub nbused: u64,
    /// Number of sets of simultaneous main tasks, `n = ⌈nbtasks/nbmax⌉`.
    pub sets: u64,
    /// Makespan of the main tasks alone (Equation 1), seconds.
    pub ms_multi: f64,
    /// Post-processing tasks that outlive the main phase and finish on
    /// the whole cluster.
    pub trailing_posts: u64,
    /// Total makespan, seconds.
    pub makespan: f64,
}

/// Evaluates Equations 1–5 for group size `g`. Returns `None` when not
/// even one group of `g` fits on the cluster (`nbmax = 0`).
///
/// ```
/// use oa_platform::speedup::PcrModel;
/// use oa_sched::{analytic, params::Instance};
///
/// let table = PcrModel::reference().table(1.0).unwrap();
/// let b = analytic::makespan(Instance::new(10, 1800, 53), &table, 7).unwrap();
/// assert_eq!((b.nbmax, b.r2), (7, 4)); // the paper's §4.2 example
/// ```
pub fn makespan(inst: Instance, table: &TimingTable, g: u32) -> Option<Breakdown> {
    let nbmax = inst.nbmax(g);
    if nbmax == 0 {
        return None;
    }
    let nbtasks = inst.nbtasks();
    let tg = table.main_secs(g);
    let tp = table.post_secs();
    let r = inst.r as u64;
    let r2 = inst.r - nbmax * g;
    let sets = div_ceil_u64(nbtasks, nbmax as u64);
    let nbused = nbtasks % nbmax as u64;
    // ⌊TG/TP⌋: posts one processor absorbs per main-task slot.
    let ratio = (tg / tp) as u64;
    let ms_multi = sets as f64 * tg;

    let trailing_posts: u64 = if r2 == 0 {
        if nbused == 0 {
            // Equation 2: every post waits for the end of the mains.
            nbtasks
        } else {
            // Equation 3: the final incomplete set leaves
            // Rleft = R − nbused·G processors free for one TG slot.
            let rleft = r - nbused * g as u64;
            nbused + (nbtasks - nbused).saturating_sub(ratio * rleft)
        }
    } else {
        // Npossible: posts the dedicated R2 processors retire per set.
        let npossible = ratio * r2 as u64;
        let excess_per_set = (nbmax as u64).saturating_sub(npossible);
        if nbused == 0 {
            // Equation 4: the first n−1 sets each push their excess to
            // the tail; the last set's posts all trail by definition.
            (sets - 1) * excess_per_set + nbmax as u64
        } else {
            // Equation 5: the first n−2 *complete* sets overpass; the
            // last complete set's nbmax posts plus the overpass land on
            // Rleft during the incomplete set's TG slot.
            let noverpass = sets.saturating_sub(2) * excess_per_set;
            let novertot = noverpass + nbmax as u64;
            let rleft = r - g as u64 * nbused;
            nbused + novertot.saturating_sub(ratio * rleft)
        }
    };

    let tail = div_ceil_u64(trailing_posts, r) as f64 * tp;
    Some(Breakdown {
        g,
        nbmax,
        r2,
        nbused,
        sets,
        ms_multi,
        trailing_posts,
        makespan: ms_multi + tail,
    })
}

/// Evaluates every legal `G` and returns the breakdown with the least
/// makespan — the selection rule of the basic heuristic. Ties prefer
/// the smaller `G` (fewer processors per group ⇒ more left for posts).
/// `None` when the cluster cannot fit even a group of 4.
///
/// ```
/// use oa_platform::speedup::PcrModel;
/// use oa_sched::{analytic, params::Instance};
///
/// let table = PcrModel::reference().table(1.0).unwrap();
/// let best = analytic::best_group(Instance::new(10, 1800, 53), &table).unwrap();
/// assert_eq!(best.g, 7); // "the optimal grouping is G = 7"
/// ```
pub fn best_group(inst: Instance, table: &TimingTable) -> Option<Breakdown> {
    best_group_with(inst, table, &Pool::serial())
}

/// [`best_group`] with the `G ∈ {4..11}` evaluations fanned out on
/// `pool`. The reduction runs on the caller's side in candidate order
/// (same `min_by`, same tie-breaking toward smaller `G`), so the
/// result is identical for any job count.
pub fn best_group_with(inst: Instance, table: &TimingTable, pool: &Pool) -> Option<Breakdown> {
    let gs: Vec<u32> = MoldableSpec::pcr().allocations().collect();
    pool.par_map(&gs, |&g| makespan(inst, table, g))
        .into_iter()
        .flatten()
        .min_by(|a, b| a.makespan.total_cmp(&b.makespan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;

    fn table() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    /// A flat synthetic table for hand-computable cases.
    fn flat(tg: f64, tp: f64) -> TimingTable {
        TimingTable::new([tg; 8], tp).unwrap()
    }

    #[test]
    fn infeasible_group_returns_none() {
        let i = Instance::new(10, 12, 10);
        assert!(makespan(i, &table(), 11).is_none());
        assert!(makespan(i, &table(), 10).is_some());
    }

    #[test]
    fn equation_2_exact_fit_no_post_procs() {
        // R = 20, G = 4, NS = 5 → nbmax = 5, R2 = 0. NM = 4 → 20 tasks,
        // 4 full sets. TG = 100, TP = 10.
        let i = Instance::new(5, 4, 20);
        let t = flat(100.0, 10.0);
        let b = makespan(i, &t, 4).unwrap();
        assert_eq!(b.r2, 0);
        assert_eq!(b.nbused, 0);
        assert_eq!(b.sets, 4);
        assert_eq!(b.ms_multi, 400.0);
        // All 20 posts trail on 20 procs: one TP wave.
        assert_eq!(b.trailing_posts, 20);
        assert_eq!(b.makespan, 410.0);
    }

    #[test]
    fn equation_3_incomplete_last_set() {
        // R = 20, G = 4, NS = 5, NM = 5 → 25 tasks: 5 sets, nbused = 0…
        // use NM chosen so nbused ≠ 0: NS = 5, NM = 5 → nbtasks = 25,
        // nbmax = 5 → nbused = 0. Take NS = 5, R = 20, NM = 21 /
        // simpler: nbtasks must not divide nbmax. NS=5, NM=5, R=17,
        // G=4 → nbmax = 4, nbtasks = 25, sets = 7, nbused = 1, R2 = 1.
        // That's case R2 ≠ 0. For R2 = 0 take R = 16: nbmax = 4, R2 = 0.
        let i = Instance::new(5, 5, 16);
        let t = flat(100.0, 10.0);
        let b = makespan(i, &t, 4).unwrap();
        assert_eq!((b.r2, b.nbused, b.sets), (0, 1, 7));
        // Rleft = 16 − 4 = 12 procs for ⌊100/10⌋ = 10 posts each: 120
        // absorbable ≥ 24 accumulated − handled, so trail = nbused = 1.
        assert_eq!(b.trailing_posts, 1);
        assert_eq!(b.makespan, 700.0 + 10.0);
    }

    #[test]
    fn equation_4_dedicated_posts_keep_up() {
        // R = 22, G = 4, NS = 5 → nbmax = 5, R2 = 2. TG/TP = 10 →
        // Npossible = 20 ≥ nbmax: no overpass. NM = 4 → 20 tasks, 4 sets.
        let i = Instance::new(5, 4, 22);
        let t = flat(100.0, 10.0);
        let b = makespan(i, &t, 4).unwrap();
        assert_eq!((b.r2, b.nbused), (2, 0));
        // Only the last set's nbmax = 5 posts trail; one wave on 22.
        assert_eq!(b.trailing_posts, 5);
        assert_eq!(b.makespan, 400.0 + 10.0);
    }

    #[test]
    fn equation_4_overpassing() {
        // Make posts slow: TG = 100, TP = 60 → ratio = 1, Npossible = R2.
        // R = 22, G = 4, NS = 5: nbmax = 5, R2 = 2 → excess 3/set.
        // NM = 4: 4 sets → trailing = 3·3 + 5 = 14 ⇒ ⌈14/22⌉ = 1 wave.
        let i = Instance::new(5, 4, 22);
        let t = flat(100.0, 60.0);
        let b = makespan(i, &t, 4).unwrap();
        assert_eq!(b.trailing_posts, 14);
        assert_eq!(b.makespan, 400.0 + 60.0);
    }

    #[test]
    fn equation_5_incomplete_set_with_dedicated_posts() {
        // R = 17, G = 4, NS = 4 → nbmax = 4, R2 = 1. NM = 5 → 20 tasks…
        // 20 % 4 = 0; use NS = 4, NM = 5, nbtasks = 20 — need nbused ≠ 0
        // so pick NS = 3, NM = 7 → 21 tasks, nbmax = 3 (NS binds),
        // R2 = 17 − 12 = 5, sets = 7, nbused = 0. Hmm — pick NS = 4,
        // NM = 5, R = 17, G = 4: nbmax = 4, nbtasks = 20, nbused = 0.
        // Choose NM = 6, NS = 4, R = 17: nbtasks 24, nbused 0. NM = 5,
        // NS = 5, R = 17: nbmax = 4, nbtasks = 25, nbused = 1, R2 = 1. ✓
        let i = Instance::new(5, 5, 17);
        let t = flat(100.0, 60.0); // ratio 1 → Npossible = 1, excess 3.
        let b = makespan(i, &t, 4).unwrap();
        assert_eq!((b.r2, b.nbused, b.sets), (1, 1, 7));
        // noverpass = (7−2)·3 = 15, novertot = 19, Rleft = 17−4 = 13
        // absorbs 13 → trailing = 1 + 6 = 7 ⇒ 1 wave of 60 s.
        assert_eq!(b.trailing_posts, 7);
        assert_eq!(b.makespan, 760.0);
    }

    #[test]
    fn single_set_case_has_no_negative_overpass() {
        // sets = 1 with nbused ≠ 0 exercises the (n−2) guard.
        let i = Instance::new(10, 1, 30); // 10 tasks, G = 4 → nbmax = 7
        let t = flat(100.0, 60.0);
        let b = makespan(i, &t, 4).unwrap();
        assert_eq!(b.sets, 2); // 10 tasks / 7 = 2 sets, nbused = 3
                               // noverpass = 0·excess, novertot = 7, Rleft = 30 − 12 = 18 ≥ 7.
        assert_eq!(b.trailing_posts, 3);
    }

    #[test]
    fn best_group_for_paper_example() {
        // Paper §4.2: R = 53, 10 scenarios → optimal grouping G = 7.
        let i = Instance::new(10, 1800, 53);
        let b = best_group(i, &table()).unwrap();
        assert_eq!(b.g, 7);
        assert_eq!(b.nbmax, 7);
        assert_eq!(b.r2, 4);
    }

    #[test]
    fn best_group_uses_groups_of_11_with_plentiful_resources() {
        // R ≥ 11·NS: every scenario gets its own group of 11.
        let i = Instance::new(10, 1800, 115);
        let b = best_group(i, &table()).unwrap();
        assert_eq!(b.g, 11);
        assert_eq!(b.nbmax, 10);
    }

    #[test]
    fn best_group_none_when_cluster_too_small() {
        // Instance::new requires r ≥ 1; 3 processors fit no group.
        let i = Instance::new(2, 2, 3);
        assert!(best_group(i, &table()).is_none());
    }

    #[test]
    fn makespan_monotone_in_nm() {
        let t = table();
        let base = makespan(Instance::new(10, 100, 53), &t, 7)
            .unwrap()
            .makespan;
        let more = makespan(Instance::new(10, 200, 53), &t, 7)
            .unwrap()
            .makespan;
        assert!(more > base);
    }
}
