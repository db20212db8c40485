//! The one planner behind every grouping answer.
//!
//! The grouping searches read a campaign through four numbers per
//! instance — `NS` chains of `NM` units on `R` processors — and a
//! [`Planner`]: the legal group sizes, the per-unit time of a group of
//! each size, and the single-processor trailing work each unit leaves.
//! The paper's heuristics ([`crate::heuristics`]) plan over the `pcr`
//! range `4..=11`, a timing table's `T[G]` row and `TP`; a workflow of
//! chains of identical units ([`crate::chains`]) over the range, unit
//! times and trailing time read off its IR. Both reach the same
//! estimator, knapsack reconstruction, uniform sweep and candidate
//! reduction here, so each planning answer has one implementation.

use std::collections::BTreeSet;

use oa_knapsack::{solve_dp, Item, Problem, Solution};
use oa_par::Pool;
use oa_platform::timing::TimingTable;
use oa_workflow::moldable::MoldableSpec;

use crate::estimate::{makespan_floor, simulate, Estimate, FLOOR_SLACK};
use crate::grouping::{Grouping, GroupingError};
use crate::heuristics::HeuristicError;
use crate::params::Instance;

/// What a chain campaign's planning answers depend on besides the
/// instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planner<'a> {
    /// Legal group sizes.
    pub(crate) range: MoldableSpec,
    /// `row[i]` is the per-unit time of a group of
    /// `range.min_procs + i` processors.
    pub(crate) row: &'a [f64],
    /// Trailing work of one unit on one processor (`TP`).
    pub(crate) tp: f64,
}

/// The uniform candidates of the basic sweep: for each legal size `g`,
/// `min(NS, ⌊R/g⌋)` groups of `g` with the remaining processors on
/// posts. Sizes that fit no group are skipped.
pub(crate) fn uniform(range: MoldableSpec, inst: Instance) -> impl Iterator<Item = Grouping> {
    range.allocations().filter_map(move |g| {
        let count = inst.nbmax(g);
        (count > 0).then(|| Grouping::uniform(g, count, inst.r - count * g))
    })
}

impl<'a> Planner<'a> {
    /// The paper's planner: groups of `4..=11`, `T[G]` and `TP` read
    /// from `table` without copying.
    pub(crate) fn pcr(table: &'a TimingTable) -> Self {
        Self {
            range: MoldableSpec::pcr(),
            row: table.main_array(),
            tp: table.post_secs(),
        }
    }

    fn unit_secs(&self, g: u32) -> f64 {
        self.row[(g - self.range.min_procs) as usize]
    }

    /// Validates `grouping` against the range and `inst`, then runs the
    /// least-advanced-first event loop on it.
    pub(crate) fn estimate(
        &self,
        inst: Instance,
        grouping: &Grouping,
    ) -> Result<Estimate, GroupingError> {
        grouping.check(self.range, inst)?;
        Ok(simulate(inst, grouping, self.tp, |g| self.unit_secs(g)))
    }

    /// The knapsack's item kinds: one per legal size `g`, of cost `g`
    /// and value `1 / T[g]`, at most `max_copies` copies each.
    pub(crate) fn items(&self, max_copies: u32) -> Vec<Item> {
        self.range
            .allocations()
            .map(|g| Item::new(g, 1.0 / self.unit_secs(g), max_copies))
            .collect()
    }

    /// The grouping a knapsack selection over [`Planner::items`]
    /// describes on `r` processors: `counts[i]` groups of the `i`-th
    /// legal size, every processor it leaves unused on posts. `None`
    /// when it selects nothing.
    pub(crate) fn grouping_from(&self, r: u32, sol: &Solution) -> Option<Grouping> {
        let mut groups = Vec::with_capacity(sol.copies as usize);
        for (g, &n) in self.range.allocations().zip(&sol.counts) {
            groups.extend(std::iter::repeat_n(g, n as usize));
        }
        (!groups.is_empty()).then(|| Grouping::new(groups, r - sol.cost))
    }

    /// Scores `cands` with the estimator and returns the first
    /// strict-makespan minimizer with its estimate: the least
    /// `(makespan, index)`. It scores only what that answer needs:
    ///
    /// * a candidate equal to an earlier one is dropped: equal
    ///   groupings score bitwise alike, and the earlier wins a tie;
    /// * the rest are scored in ascending `(floor, index)` order, in
    ///   waves of `pool.jobs()` fanned out on `pool`, where the floor
    ///   is [`makespan_floor`] under this planner's durations and
    ///   `TP`;
    /// * before each wave, every candidate whose floor less its slack
    ///   exceeds the best makespan so far is dropped: its makespan
    ///   does too, so it can win no tie. A NaN floor is never dropped.
    ///
    /// The minimizer's own floor never exceeds its makespan, so it is
    /// always scored, and the answer is bitwise the exhaustive loop's
    /// at any job count.
    pub(crate) fn pick_best(
        &self,
        inst: Instance,
        pool: &Pool,
        cands: Vec<Grouping>,
    ) -> Result<(Grouping, Estimate), HeuristicError> {
        self.pick_best_by(inst, pool, cands, |cand| {
            self.estimate(inst, cand)
                .expect("candidates are valid groupings")
        })
    }

    /// [`Planner::pick_best`] with the estimator supplied by the caller.
    fn pick_best_by(
        &self,
        inst: Instance,
        pool: &Pool,
        mut cands: Vec<Grouping>,
        score: impl Fn(&Grouping) -> Estimate + Sync,
    ) -> Result<(Grouping, Estimate), HeuristicError> {
        let mut seen = BTreeSet::new();
        let mut pending: Vec<(f64, usize)> = (0..cands.len())
            .filter(|&i| seen.insert((cands[i].groups(), cands[i].post_procs)))
            .map(|i| {
                let floor = makespan_floor(inst, &cands[i], self.tp, |g| self.unit_secs(g));
                (floor, i)
            })
            .collect();
        // Descending, so each wave pops the cheapest floors off the end.
        pending.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        let mut best: Option<(Estimate, usize)> = None;
        while !pending.is_empty() {
            if let Some((b, _)) = best {
                pending.retain(|&(floor, _)| !beaten(floor, b.makespan));
            }
            let split = pending.len().saturating_sub(pool.jobs());
            let wave: Vec<usize> = pending.drain(split..).rev().map(|(_, i)| i).collect();
            let scores = pool.par_map(&wave, |&i| score(&cands[i]));
            for (e, i) in scores.into_iter().zip(wave) {
                if best.is_none_or(|(b, j)| (e.makespan, i) < (b.makespan, j)) {
                    best = Some((e, i));
                }
            }
        }
        best.map(|(e, i)| (cands.swap_remove(i), e))
            .ok_or(HeuristicError::ClusterTooSmall { resources: inst.r })
    }

    /// Improvement 3: the group sizes `solve` picks to maximize
    /// `Σ 1/T[g]` under `Σ g·n_g ≤ R` and `Σ n_g ≤ NS`, leftover
    /// processors on posts.
    pub(crate) fn knapsack(
        &self,
        inst: Instance,
        solve: fn(&Problem) -> Solution,
    ) -> Result<Grouping, HeuristicError> {
        let sol = solve(&Problem::new(self.items(inst.ns), inst.r, inst.ns));
        self.grouping_from(inst.r, &sol)
            .ok_or(HeuristicError::ClusterTooSmall { resources: inst.r })
    }

    /// The balanced refinement: the best of
    /// [`Planner::balanced_candidates`], scored by the estimator.
    pub(crate) fn balanced(
        &self,
        inst: Instance,
        pool: &Pool,
    ) -> Result<(Grouping, Estimate), HeuristicError> {
        self.pick_best(inst, pool, self.balanced_candidates(inst, pool))
    }

    /// The balanced refinement's candidates: the exact knapsack once per
    /// group-count bound `k ∈ 1..=NS` (the `NS` solves fan out on
    /// `pool`), then the uniform candidates, each one valid.
    fn balanced_candidates(&self, inst: Instance, pool: &Pool) -> Vec<Grouping> {
        let items = self.items(inst.ns);
        let ks: Vec<u32> = (1..=inst.ns).collect();
        let mut cands: Vec<Grouping> = pool
            .par_map(&ks, |&k| {
                let sol = solve_dp(&Problem::new(items.clone(), inst.r, k));
                self.grouping_from(inst.r, &sol)
            })
            .into_iter()
            .flatten()
            .collect();
        cands.extend(uniform(self.range, inst));
        cands.retain(|c| c.check(self.range, inst).is_ok());
        cands
    }
}

/// Whether a candidate with makespan floor `floor` can no longer win
/// against the best makespan so far: its makespan lies above `best`.
fn beaten(floor: f64, best: f64) -> bool {
    floor * (1.0 - FLOOR_SLACK) > best
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use oa_platform::speedup::PcrModel;
    use proptest::prelude::*;

    use super::*;
    use crate::heuristics::{no_post_candidates, Heuristic};

    /// Random cases per property: 32 in debug builds, 256 in release
    /// builds (CI's engine-differential job).
    const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

    /// The exhaustive reduction the pruned search replaced, kept as the
    /// oracle: every candidate scored in order, the first strict
    /// makespan minimizer wins.
    fn exhaustive(
        planner: &Planner<'_>,
        inst: Instance,
        cands: &[Grouping],
    ) -> Option<(Grouping, Estimate)> {
        let mut best: Option<(Estimate, usize)> = None;
        for (i, cand) in cands.iter().enumerate() {
            let e = planner.estimate(inst, cand).expect("valid candidate");
            if best.is_none_or(|(b, _)| e.makespan < b.makespan) {
                best = Some((e, i));
            }
        }
        best.map(|(e, i)| (cands[i].clone(), e))
    }

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

    /// Non-increasing integral mains and post, then as they are, scaled
    /// by 0.7 (fractional) or by 1e300 (near the top of the range).
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

    /// `cands` with random repeats, shuffled by a splitmix stream.
    fn shuffled_with_repeats(cands: &[Grouping], seed: usize) -> Vec<Grouping> {
        let mut seed = seed as u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 27)) as usize
        };
        let mut out = cands.to_vec();
        for _ in 0..cands.len() {
            let i = next() % cands.len();
            out.push(cands[i].clone());
        }
        for i in (1..out.len()).rev() {
            out.swap(i, next() % (i + 1));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// The pruned search returns bitwise the exhaustive oracle's
        /// grouping and all five estimate fields, on the Improvement 2
        /// candidates, on the balanced list and on shuffled lists with
        /// repeats, serially and on two workers.
        #[test]
        fn pruned_pick_best_is_the_exhaustive_reduction(
            table in arb_table(),
            ns in 1u32..=12,
            nm in 1u32..=40,
            r in 4u32..=140,
            seed in 0usize..usize::MAX,
        ) {
            let inst = Instance::new(ns, nm, r);
            let planner = Planner::pcr(&table);
            let nopost = no_post_candidates(inst);
            let balanced = planner.balanced_candidates(inst, &Pool::serial());
            let mut all = nopost.clone();
            all.extend(balanced.iter().cloned());
            all.extend(uniform(planner.range, inst));
            // The same groups on a smaller post pool: a different
            // grouping, however alike.
            let fewer_posts: Vec<Grouping> = all
                .iter()
                .filter(|g| g.post_procs > 0)
                .map(|g| Grouping::new(g.groups().to_vec(), g.post_procs / 2))
                .collect();
            all.extend(fewer_posts);
            let shuffled = shuffled_with_repeats(&all, seed);
            for cands in [&nopost, &balanced, &shuffled] {
                let want = exhaustive(&planner, inst, cands);
                for pool in [Pool::serial(), Pool::new(2)] {
                    let got = planner.pick_best(inst, &pool, cands.clone()).ok();
                    prop_assert_eq!(
                        got.as_ref().map(|(g, e)| (g.clone(), bits(e))),
                        want.as_ref().map(|(g, e)| (g.clone(), bits(e))),
                        "{:?} at {} jobs on {} candidates",
                        inst,
                        pool.jobs(),
                        cands.len()
                    );
                }
            }
        }
    }

    /// Improvement 2 through the pruned search on the reference table,
    /// with the groupings it scored, in order.
    fn nopost_scored(inst: Instance) -> (Grouping, Estimate, Vec<Grouping>) {
        let table = PcrModel::reference().table(1.0).unwrap();
        let planner = Planner::pcr(&table);
        let cands = no_post_candidates(inst);
        let scored = Mutex::new(Vec::new());
        let (grouping, e) = planner
            .pick_best_by(inst, &Pool::serial(), cands.clone(), |cand| {
                scored.lock().unwrap().push(cand.clone());
                planner.estimate(inst, cand).unwrap()
            })
            .unwrap();
        let (want, want_e) = exhaustive(&planner, inst, &cands).unwrap();
        assert_eq!((&grouping, bits(&e)), (&want, bits(&want_e)), "{inst:?}");
        assert_eq!(
            Heuristic::NoPostReservation.grouping(inst, &table).as_ref(),
            Ok(&grouping)
        );
        (grouping, e, scored.into_inner().unwrap())
    }

    #[test]
    fn nopost_scores_at_most_one_estimate_per_group_count() {
        let inst = Instance::new(10, 1800, 53);
        let counts: BTreeSet<usize> = no_post_candidates(inst)
            .iter()
            .map(Grouping::group_count)
            .collect();
        assert_eq!(counts.len(), 6, "8 candidates, 6 group counts");
        let (_, _, scored) = nopost_scored(inst);
        // One per distinct count at most, and the floor skips some.
        assert!(
            scored.len() < counts.len(),
            "{} estimates for {} group counts",
            scored.len(),
            counts.len()
        );
        for r in 11..=120 {
            let (_, _, scored) = nopost_scored(Instance::new(10, 120, r));
            let counts: BTreeSet<usize> = scored.iter().map(Grouping::group_count).collect();
            assert_eq!(counts.len(), scored.len(), "R {r}: a count scored twice");
        }
    }
}
