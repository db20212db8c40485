//! The one planner behind every grouping answer.
//!
//! The grouping searches read a campaign through four numbers per
//! instance — `NS` chains of `NM` units on `R` processors — and a
//! [`Planner`]: the legal group sizes, the per-unit time of a group of
//! each size, and the single-processor trailing work each unit leaves.
//! The paper's heuristics ([`crate::heuristics`]) plan over the `pcr`
//! range `4..=11`, a timing table's `T[G]` row and `TP`; a generic
//! workload ([`crate::generic`]) over its own range, unit times and
//! trailing time. Both reach the same estimator, knapsack
//! reconstruction, uniform sweep and candidate reduction here, so each
//! planning answer has one implementation.

use oa_knapsack::{solve_dp, Item, Problem, Solution};
use oa_par::Pool;
use oa_platform::timing::TimingTable;
use oa_workflow::moldable::MoldableSpec;

use crate::estimate::{simulate, Estimate};
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

    /// Scores `cands` with the estimator, fanned out on `pool`, and
    /// returns the first strict-makespan minimizer with its estimate.
    /// The reduction runs in candidate order on the caller's side, so
    /// ties resolve toward the earlier candidate at any job count.
    pub(crate) fn pick_best(
        &self,
        inst: Instance,
        pool: &Pool,
        mut cands: Vec<Grouping>,
    ) -> Result<(Grouping, Estimate), HeuristicError> {
        let scores = pool.par_map(&cands, |cand| {
            self.estimate(inst, cand)
                .expect("candidates are valid groupings")
        });
        let mut best: Option<(Estimate, usize)> = None;
        for (i, e) in scores.into_iter().enumerate() {
            if best.is_none_or(|(b, _)| e.makespan < b.makespan) {
                best = Some((e, i));
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

    /// The balanced refinement: the exact knapsack once per group-count
    /// bound `k ∈ 1..=NS` (the `NS` solves fan out on `pool`), then the
    /// uniform candidates, every valid one scored by the estimator.
    pub(crate) fn balanced(
        &self,
        inst: Instance,
        pool: &Pool,
    ) -> Result<(Grouping, Estimate), HeuristicError> {
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
        self.pick_best(inst, pool, cands)
    }
}
