//! The four grouping heuristics of Section 4.
//!
//! * [`Heuristic::Basic`] — Section 4.1: try every `G ∈ 4..=11`,
//!   evaluate Equations 1–5, keep the best; `nbmax` groups of `G`,
//!   the remaining `R2` processors dedicated to post-processing.
//! * [`Heuristic::RedistributeIdle`] (Improvement 1) — keep the basic
//!   `G`, but hand the processors that neither the groups nor the
//!   post-processing pool needs to the groups, enlarging some of them
//!   (e.g. `R = 53, NS = 10`: 3×8 + 4×7 + 1 post).
//! * [`Heuristic::NoPostReservation`] (Improvement 2) — reserve nothing
//!   for post-processing: for each candidate `G` give *all* leftover
//!   processors to the groups and run every post task at the end;
//!   candidates are compared with the event estimator, each distinct
//!   one at most once, cheapest makespan floor first, none whose floor
//!   exceeds the best makespan so far.
//! * [`Heuristic::Knapsack`] (Improvement 3, the paper's best) — pick
//!   the multiset of group sizes by the exact bounded-knapsack DP
//!   maximizing `Σ 1/T[G]` under `Σ G·n_G ≤ R` and `Σ n_G ≤ NS`;
//!   leftover processors serve post-processing.
//! * [`Heuristic::KnapsackGreedy`] — ablation: same formulation solved
//!   with the greedy knapsack instead of the exact DP.
//! * [`Heuristic::Balanced`] — beyond the paper: the per-group-count
//!   knapsack sweep scored by the event estimator; dominates Basic and
//!   Knapsack by construction.
//!
//! The knapsack, balanced and scored searches run in the crate's one
//! planner, over the `pcr` range and the table's `T[G]` row;
//! [`crate::chains`] runs the same searches over workflows of chains of
//! identical units.

use serde::{Deserialize, Serialize};

use oa_knapsack::{solve_dp, solve_greedy};
use oa_par::Pool;
use oa_platform::timing::TimingTable;
use oa_workflow::moldable::MoldableSpec;
use oa_workflow::task::MAX_PROCS;

use crate::analytic;
use crate::grouping::Grouping;
use crate::params::{div_ceil_u64, Instance};
use crate::planner::{uniform, Planner};

/// Errors raised by heuristic construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeuristicError {
    /// The cluster cannot fit even one group of the smallest legal size.
    ClusterTooSmall {
        /// Processors available.
        resources: u32,
    },
}

impl std::fmt::Display for HeuristicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeuristicError::ClusterTooSmall { resources } => {
                write!(
                    f,
                    "cluster with {resources} processors cannot fit a group of the smallest legal size"
                )
            }
        }
    }
}

impl std::error::Error for HeuristicError {}

/// The grouping heuristics compared in Figures 8 and 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Heuristic {
    /// Section 4.1 baseline.
    Basic,
    /// Improvement 1: redistribute idle processors across groups.
    RedistributeIdle,
    /// Improvement 2: all processors to groups, posts at the end.
    NoPostReservation,
    /// Improvement 3: exact knapsack grouping (the paper's best).
    Knapsack,
    /// Ablation: knapsack grouping via the greedy solver.
    KnapsackGreedy,
    /// Beyond the paper: the balanced refinement — per-group-count
    /// knapsacks plus the uniform candidates, scored with the event
    /// estimator. Never loses to [`Heuristic::Basic`] or
    /// [`Heuristic::Knapsack`] and repairs the raw knapsack's
    /// per-chain bottleneck (visible at small `NS`).
    Balanced,
}

impl Heuristic {
    /// The paper's three improvements plus the baseline, in figure
    /// order.
    pub const PAPER: [Heuristic; 4] = [
        Heuristic::Basic,
        Heuristic::RedistributeIdle,
        Heuristic::NoPostReservation,
        Heuristic::Knapsack,
    ];

    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Heuristic::Basic => "basic",
            Heuristic::RedistributeIdle => "gain1-redistribute",
            Heuristic::NoPostReservation => "gain2-no-post-reservation",
            Heuristic::Knapsack => "gain3-knapsack",
            Heuristic::KnapsackGreedy => "knapsack-greedy",
            Heuristic::Balanced => "balanced",
        }
    }

    /// The names `oa` and the service's `Submit` accept: each
    /// heuristic's canonical name first, then its aliases.
    /// [`Heuristic::Balanced`] has none.
    const NAMES: [(&'static str, Heuristic); 8] = [
        ("basic", Heuristic::Basic),
        ("redistribute", Heuristic::RedistributeIdle),
        ("gain1", Heuristic::RedistributeIdle),
        ("nopost", Heuristic::NoPostReservation),
        ("gain2", Heuristic::NoPostReservation),
        ("knapsack", Heuristic::Knapsack),
        ("gain3", Heuristic::Knapsack),
        ("knapsack-greedy", Heuristic::KnapsackGreedy),
    ];

    /// Parses a heuristic name or alias (`knapsack`, `gain3`, …).
    pub fn parse(s: &str) -> Option<Self> {
        Self::NAMES
            .into_iter()
            .find(|&(n, _)| n == s)
            .map(|(_, h)| h)
    }

    /// The canonical name [`Heuristic::parse`] reads back; `None` for
    /// [`Heuristic::Balanced`].
    pub fn name(self) -> Option<&'static str> {
        Self::NAMES
            .into_iter()
            .find(|&(_, h)| h == self)
            .map(|(n, _)| n)
    }

    /// Builds the grouping this heuristic chooses for `inst` on a
    /// cluster with timing `table`.
    pub fn grouping(self, inst: Instance, table: &TimingTable) -> Result<Grouping, HeuristicError> {
        self.grouping_with(inst, table, &Pool::serial())
    }

    /// Like [`Heuristic::grouping`], with the candidate searches —
    /// the `G ∈ {4..11}` analytic evaluation, the Improvement-2
    /// estimator sweep and the per-group-count knapsacks of
    /// [`Heuristic::Balanced`] — fanned out on `pool`. Candidates are
    /// generated in the same order as the serial path and reduced to
    /// the least `(simulated makespan, index)`, so the chosen grouping
    /// is bit-identical for any job count.
    pub fn grouping_with(
        self,
        inst: Instance,
        table: &TimingTable,
        pool: &Pool,
    ) -> Result<Grouping, HeuristicError> {
        let planner = Planner::pcr(table);
        match self {
            Heuristic::Basic => basic(inst, table, pool),
            Heuristic::RedistributeIdle => redistribute_idle(inst, table, pool),
            Heuristic::NoPostReservation => planner
                .pick_best(inst, pool, no_post_candidates(inst))
                .map(|(g, _)| g),
            Heuristic::Knapsack => planner.knapsack(inst, solve_dp),
            Heuristic::KnapsackGreedy => planner.knapsack(inst, solve_greedy),
            Heuristic::Balanced => planner.balanced(inst, pool).map(|(g, _)| g),
        }
    }

    /// Convenience: the simulated makespan of this heuristic's grouping.
    pub fn makespan(self, inst: Instance, table: &TimingTable) -> Result<f64, HeuristicError> {
        self.makespan_with(inst, table, &Pool::serial())
    }

    /// [`Heuristic::makespan`] on top of [`Heuristic::grouping_with`].
    /// The estimator-scored searches ([`Heuristic::NoPostReservation`],
    /// [`Heuristic::Balanced`]) return their winner's score instead of
    /// simulating the winner again.
    pub fn makespan_with(
        self,
        inst: Instance,
        table: &TimingTable,
        pool: &Pool,
    ) -> Result<f64, HeuristicError> {
        let planner = Planner::pcr(table);
        let scored = match self {
            Heuristic::NoPostReservation => planner.pick_best(inst, pool, no_post_candidates(inst)),
            Heuristic::Balanced => planner.balanced(inst, pool),
            _ => self.grouping_with(inst, table, pool).map(|g| {
                let e = planner
                    .estimate(inst, &g)
                    .expect("heuristics construct valid groupings");
                (g, e)
            }),
        };
        scored.map(|(_, e)| e.makespan)
    }
}

/// Relative gain of `improved` over `baseline`, in percent (positive =
/// improvement), as plotted in Figures 8 and 10.
pub fn gain_pct(baseline: f64, improved: f64) -> f64 {
    assert!(baseline > 0.0, "baseline makespan must be positive");
    (baseline - improved) / baseline * 100.0
}

fn basic(inst: Instance, table: &TimingTable, pool: &Pool) -> Result<Grouping, HeuristicError> {
    let best = analytic::best_group_with(inst, table, pool)
        .ok_or(HeuristicError::ClusterTooSmall { resources: inst.r })?;
    Ok(Grouping::uniform(best.g, best.nbmax, best.r2))
}

/// Processors the post-processing phase actually needs to keep up with
/// `nbmax` simultaneous groups of `g`: `⌈nbmax / ⌊TG/TP⌋⌉` (Section
/// 4.2's `Runused` discussion), clamped to at least one when any posts
/// exist and `R2 > 0`.
fn posts_needed(table: &TimingTable, g: u32, nbmax: u32) -> u32 {
    let ratio = table.posts_per_main(g);
    if ratio == 0 {
        // Posts are longer than mains: every dedicated processor helps;
        // treat all of R2 as needed.
        u32::MAX
    } else {
        div_ceil_u64(nbmax as u64, ratio) as u32
    }
}

/// Hands `spare` processors to `groups` one at a time, round-robin,
/// none past 11 per group, and returns how many are left once every
/// group is full.
fn spread(groups: &mut [u32], mut spare: u32) -> u32 {
    while spare > 0 && groups.iter().any(|&g| g < MAX_PROCS) {
        for size in groups.iter_mut() {
            if spare > 0 && *size < MAX_PROCS {
                *size += 1;
                spare -= 1;
            }
        }
    }
    spare
}

fn redistribute_idle(
    inst: Instance,
    table: &TimingTable,
    pool: &Pool,
) -> Result<Grouping, HeuristicError> {
    let best = analytic::best_group_with(inst, table, pool)
        .ok_or(HeuristicError::ClusterTooSmall { resources: inst.r })?;
    let needed = posts_needed(table, best.g, best.nbmax).min(best.r2);
    let mut groups = vec![best.g; best.nbmax as usize];
    // "Redistribute the resources left unoccupied among the groups."
    let spare = spread(&mut groups, best.r2 - needed);
    Ok(Grouping::new(groups, needed + spare))
}

/// The candidates Improvement 2 scores: for each `G` with
/// `nbmax(G) > 0`, `nbmax` groups of `G` enlarged evenly (capped at 11)
/// by every leftover processor. The enlargement ends at the same
/// grouping from every `G` with the same `nbmax`, so the list repeats
/// itself; the planner scores each distinct grouping at most once.
pub fn no_post_candidates(inst: Instance) -> Vec<Grouping> {
    uniform(MoldableSpec::pcr(), inst)
        .map(|cand| {
            let mut groups = cand.groups().to_vec();
            // Nothing is *reserved* for posts, but processors stranded
            // by the 11-per-group cap would otherwise idle — let them
            // serve post-processing rather than waste.
            let stranded = spread(&mut groups, cand.post_procs);
            Grouping::new(groups, stranded)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;

    fn table() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    fn inst53() -> Instance {
        Instance::new(10, 1800, 53)
    }

    /// Knapsack values are `1/T`: on a table scaled by `2^k` they
    /// shrink by `2^k`, and a tolerance with an absolute floor once
    /// tied every selection with the empty one (from `k = 40` on the
    /// preset tables). Scaling by a power of two is exact, so the
    /// grouping must not move and the makespan must scale bit for bit.
    #[test]
    fn knapsack_is_scale_free_on_every_preset_table() {
        use oa_platform::presets::{preset_cluster, reference_cluster, PRESET_CLUSTERS};
        let inst = Instance::new(10, 120, 53);
        let clusters = std::iter::once(reference_cluster(53))
            .chain(PRESET_CLUSTERS.iter().map(|(n, ..)| preset_cluster(n, 53)));
        for table in clusters.map(|c| c.timing) {
            let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
            let makespan = Heuristic::Knapsack.makespan(inst, &table).unwrap();
            for k in [0, 20, 40, 600] {
                let scale = 2f64.powi(k);
                let scaled = TimingTable::new(
                    table.main_array().map(|t| t * scale),
                    table.post_secs() * scale,
                )
                .unwrap();
                let h = Heuristic::Knapsack;
                assert_eq!(h.grouping(inst, &scaled).unwrap(), grouping, "2^{k}");
                assert_eq!(
                    h.makespan(inst, &scaled).unwrap(),
                    makespan * scale,
                    "2^{k}"
                );
            }
        }
    }

    #[test]
    fn basic_reproduces_paper_example() {
        let g = Heuristic::Basic.grouping(inst53(), &table()).unwrap();
        assert_eq!(g.groups(), &[7; 7]);
        assert_eq!(g.post_procs, 4);
    }

    #[test]
    fn improvement_1_reproduces_paper_example() {
        // "3 groups with 8 resources and 4 groups with 7 resources and
        // 1 resource for the post processing tasks."
        let g = Heuristic::RedistributeIdle
            .grouping(inst53(), &table())
            .unwrap();
        assert_eq!(g.groups(), &[8, 8, 8, 7, 7, 7, 7]);
        assert_eq!(g.post_procs, 1);
    }

    #[test]
    fn improvement_2_reserves_nothing_for_posts() {
        let g = Heuristic::NoPostReservation
            .grouping(inst53(), &table())
            .unwrap();
        assert_eq!(g.post_procs, 0);
        assert_eq!(g.total_procs(), 53);
    }

    #[test]
    fn knapsack_uses_capacity_within_constraints() {
        let inst = inst53();
        let g = Heuristic::Knapsack.grouping(inst, &table()).unwrap();
        g.validate(inst).unwrap();
        assert!(g.group_count() <= 10);
        assert!(g.total_procs() <= 53);
    }

    #[test]
    fn all_heuristics_validate_across_resource_sweep() {
        let t = table();
        for r in 11..=120 {
            let inst = Instance::new(10, 24, r);
            for h in Heuristic::PAPER {
                let g = h.grouping(inst, &t).unwrap();
                g.validate(inst)
                    .unwrap_or_else(|e| panic!("{h:?} at R={r}: {e}"));
            }
        }
    }

    #[test]
    fn cluster_too_small_error() {
        let inst = Instance::new(10, 10, 3);
        for h in Heuristic::PAPER {
            assert_eq!(
                h.grouping(inst, &table()),
                Err(HeuristicError::ClusterTooSmall { resources: 3 }),
                "{h:?}"
            );
        }
    }

    #[test]
    fn improvements_never_lose_much_to_basic() {
        // The paper observes gains mostly in [0, 12] % with occasional
        // tiny regressions (Figure 8 dips slightly below 0).
        let t = table();
        for r in (11..=120).step_by(7) {
            let inst = Instance::new(10, 120, r);
            let base = Heuristic::Basic.makespan(inst, &t).unwrap();
            for h in [
                Heuristic::RedistributeIdle,
                Heuristic::NoPostReservation,
                Heuristic::Knapsack,
            ] {
                let ms = h.makespan(inst, &t).unwrap();
                let gain = gain_pct(base, ms);
                assert!(gain > -5.0, "{h:?} at R={r}: gain {gain:.2}%");
                assert!(
                    gain < 30.0,
                    "{h:?} at R={r}: gain {gain:.2}% implausibly large"
                );
            }
        }
    }

    #[test]
    fn knapsack_beats_greedy_knapsack_somewhere() {
        // The DP maximizes throughput, not makespan, so on isolated
        // resource counts end effects can favor either grouping — but
        // across the sweep the exact solver must dominate.
        let t = table();
        let (mut exact_wins, mut greedy_wins) = (0, 0);
        for r in 11..=120 {
            let inst = Instance::new(10, 120, r);
            let e = Heuristic::Knapsack.makespan(inst, &t).unwrap();
            let g = Heuristic::KnapsackGreedy.makespan(inst, &t).unwrap();
            assert!(e <= g * 1.02 + 1e-6, "exact ≫ greedy at R={r}: {e} vs {g}");
            if e < g - 1e-6 {
                exact_wins += 1;
            } else if g < e - 1e-6 {
                greedy_wins += 1;
            }
        }
        assert!(
            exact_wins > greedy_wins,
            "exact {exact_wins} vs greedy {greedy_wins}"
        );
    }

    #[test]
    fn with_plentiful_resources_all_converge_to_ns_groups_of_11() {
        // "With a lot of resources, there are no more gains since there
        // are NS groups of 11 resources."
        let t = table();
        let inst = Instance::new(10, 120, 120);
        for h in Heuristic::PAPER {
            let g = h.grouping(inst, &t).unwrap();
            assert_eq!(g.groups(), &[11; 10], "{h:?}");
        }
    }

    #[test]
    fn balanced_never_loses_to_basic_or_knapsack() {
        let t = table();
        for ns in [2u32, 5, 10] {
            for r in (11..=120).step_by(9) {
                let inst = Instance::new(ns, 60, r);
                let bal = Heuristic::Balanced.makespan(inst, &t).unwrap();
                let basic = Heuristic::Basic.makespan(inst, &t).unwrap();
                let knap = Heuristic::Knapsack.makespan(inst, &t).unwrap();
                assert!(
                    bal <= basic + 1e-6,
                    "NS={ns} R={r}: bal {bal} > basic {basic}"
                );
                assert!(
                    bal <= knap + 1e-6,
                    "NS={ns} R={r}: bal {bal} > knapsack {knap}"
                );
            }
        }
    }

    #[test]
    fn balanced_repairs_the_small_ensemble_pitfall() {
        // At NS = 2 the raw knapsack can pin a chain to a slow small
        // group; the balanced sweep must recover the basic grouping.
        let t = table();
        let mut repaired = 0;
        for r in 11..=60 {
            let inst = Instance::new(2, 120, r);
            let knap = Heuristic::Knapsack.makespan(inst, &t).unwrap();
            let bal = Heuristic::Balanced.makespan(inst, &t).unwrap();
            if bal < knap - 1e-6 {
                repaired += 1;
            }
        }
        assert!(
            repaired > 0,
            "balanced never improved on the raw knapsack at NS = 2"
        );
    }

    #[test]
    fn scored_searches_return_their_winners_makespan() {
        let t = table();
        for (ns, r) in [(10u32, 53u32), (2, 30), (10, 120), (7, 11)] {
            let inst = Instance::new(ns, 60, r);
            for h in [Heuristic::NoPostReservation, Heuristic::Balanced] {
                let g = h.grouping(inst, &t).unwrap();
                let again = crate::estimate::estimate(inst, &t, &g).unwrap().makespan;
                assert_eq!(h.makespan(inst, &t).unwrap().to_bits(), again.to_bits());
            }
        }
    }

    #[test]
    fn gain_pct_math() {
        assert_eq!(gain_pct(200.0, 180.0), 10.0);
        assert_eq!(gain_pct(100.0, 112.0), -12.0);
    }

    #[test]
    fn posts_needed_guard_when_posts_longer_than_mains() {
        let t = TimingTable::new([50.0; 8], 60.0).unwrap();
        assert_eq!(posts_needed(&t, 4, 5), u32::MAX);
    }
}
