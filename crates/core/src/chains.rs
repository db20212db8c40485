//! The paper's stated future work: "extending the present work to a
//! generic heuristic that can schedule the same kind of workflow, made
//! of independent chains of identical DAGs composed of moldable tasks"
//! (Conclusion).
//!
//! Such a workload has one description, the workflow IR that spec files
//! and `oa sim --workflow` read. [`ChainPlan::of`] reads its planning
//! numbers off a [`WorkflowIr`] — the chains (`NS`), the units per chain
//! (`NM`), the allocation range, the per-unit time of a group of each
//! size and the trailing time of a unit — and plans it through the
//! crate's one planner, answering in the paper's own [`Grouping`],
//! [`Estimate`] and [`HeuristicError`].
//!
//! The knapsack formulation carries over verbatim: items are the legal
//! allocations of the range, an item's value is `1 / row[g]`, the
//! constraints are `Σ g·n_g ≤ R` and `Σ n_g ≤ NS`. The basic heuristic
//! generalizes by sweeping the range with the estimator (the closed
//! form of Equations 1–5 would need re-derivation per workload; the
//! estimator subsumes it). On an Ocean-Atmosphere mesh every answer is
//! bitwise the paper's.

use oa_knapsack::solve_dp;
use oa_par::Pool;
use oa_workflow::dag::NodeId;
use oa_workflow::ir::{read_chains, recognize, Durations, IrTaskKind, WorkflowIr};
use oa_workflow::moldable::MoldableSpec;

use crate::estimate::Estimate;
use crate::grouping::{Grouping, GroupingError};
use crate::heuristics::HeuristicError;
use crate::params::Instance;
use crate::planner::{uniform, Planner};

/// A workflow of independent chains of identical units, read for
/// planning.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPlan {
    chains: u32,
    units: u32,
    range: MoldableSpec,
    row: Vec<f64>,
    tp: f64,
}

impl ChainPlan {
    /// Reads `ir` as chains of identical units ([`read_chains`]) and
    /// times them under `d`, or `None` when it is not such a workload.
    ///
    /// * The range is the one the unit's blocking moldable nodes share,
    ///   or `1..=1` when none is moldable; every other node must be
    ///   `Rigid(1)`.
    /// * `row[i]` is the sum of the blocking nodes' seconds on
    ///   `range.min_procs + i` processors, a rigid node timed at its
    ///   own allocation of 1; the row must never increase.
    /// * The trailing time is the sum of the trailing nodes' seconds.
    ///
    /// A mesh that [`recognize`] calls a preset plans on `d`'s `T[G]`
    /// row over `4..=11` and its `TP`, as the paper's heuristics do: its
    /// origins say which node is the post, which the graph cannot say
    /// when a chain has one month.
    pub fn of(ir: &WorkflowIr, d: &impl Durations) -> Option<Self> {
        let plan = match recognize(ir).shape() {
            Some(shape) => {
                let range = MoldableSpec::pcr();
                Self {
                    chains: shape.scenarios,
                    units: shape.months,
                    range,
                    row: range.allocations().map(|g| d.main_secs(g)).collect(),
                    tp: d.post_secs(),
                }
            }
            None => Self::read(ir, d)?,
        };
        (!plan.row.windows(2).any(|w| w[0] < w[1])).then_some(plan)
    }

    /// The planning numbers of a workflow that is no preset.
    fn read(ir: &WorkflowIr, d: &impl Durations) -> Option<Self> {
        let chains = read_chains(ir)?;
        let mut range = None;
        for &v in &chains.blocking {
            match ir.dag.node(v).kind {
                IrTaskKind::Moldable(spec) if range.is_none_or(|r| r == spec) => {
                    range = Some(spec);
                }
                IrTaskKind::Rigid(1) => {}
                _ => return None,
            }
        }
        let rigid = |v: &NodeId| ir.dag.node(*v).kind == IrTaskKind::Rigid(1);
        if !chains.trailing.iter().all(rigid) {
            return None;
        }
        let range = range.unwrap_or(MoldableSpec {
            min_procs: 1,
            max_procs: 1,
        });
        let secs = |v: NodeId, g: u32| {
            let node = ir.dag.node(v);
            node.secs(if node.kind.is_moldable() { g } else { 1 }, d)
        };
        Some(Self {
            chains: chains.chains,
            units: chains.units,
            range,
            row: range
                .allocations()
                .map(|g| chains.blocking.iter().map(|&v| secs(v, g)).sum())
                .collect(),
            tp: chains.trailing.iter().map(|&v| secs(v, 1)).sum(),
        })
    }

    /// Independent chains (`NS`).
    pub fn chains(&self) -> u32 {
        self.chains
    }

    /// Units per chain (`NM`).
    pub fn units(&self) -> u32 {
        self.units
    }

    /// Legal group sizes.
    pub fn range(&self) -> MoldableSpec {
        self.range
    }

    /// `row()[i]` is the time a group of `range().min_procs + i`
    /// processors spends on one unit — the generic `T[G]`.
    pub fn row(&self) -> &[f64] {
        &self.row
    }

    /// The trailing work of one unit on one processor — the generic
    /// `TP`.
    pub fn trailing_secs(&self) -> f64 {
        self.tp
    }

    /// Runs `f` on this workload's planner and its instance on `r`
    /// processors.
    fn plan<T>(&self, r: u32, f: impl FnOnce(Planner<'_>, Instance) -> T) -> T {
        let planner = Planner {
            range: self.range,
            row: &self.row,
            tp: self.tp,
        };
        // Built field by field: a zero-processor machine is a legal
        // question, answered `ClusterTooSmall`.
        let inst = Instance {
            ns: self.chains,
            nm: self.units,
            r,
        };
        f(planner, inst)
    }

    /// Simulates the workload on `r` processors divided as `groups`,
    /// under the paper's least-advanced-first policy. `post_finish` is
    /// the last trailing completion (equal to `main_finish` when a unit
    /// has no trailing work).
    pub fn estimate(&self, r: u32, groups: &Grouping) -> Result<Estimate, GroupingError> {
        self.plan(r, |p, inst| p.estimate(inst, groups))
    }

    /// The basic heuristic: for every allocation `g` in range, form
    /// `min(NS, ⌊R/g⌋)` uniform groups, dedicate the remainder to the
    /// trailing pool, score with the estimator, keep the best.
    pub fn basic(&self, r: u32) -> Result<Grouping, HeuristicError> {
        self.plan(r, |p, inst| {
            p.pick_best(inst, &Pool::serial(), uniform(p.range, inst).collect())
        })
        .map(|(g, _)| g)
    }

    /// The knapsack heuristic, the paper's Improvement 3.
    pub fn knapsack(&self, r: u32) -> Result<Grouping, HeuristicError> {
        self.plan(r, |p, inst| p.knapsack(inst, solve_dp))
    }

    /// The balanced refinement of the knapsack for wide allocation
    /// ranges, returning the winner and its estimate.
    ///
    /// Raw throughput maximization has a blind spot the Ocean-Atmosphere
    /// range (4..=11, a 2.75× spread) hides but wide ranges expose: when
    /// the number of groups approaches the number of chains, each chain
    /// is effectively pinned to one group, and a slow small group —
    /// added because it still increases `Σ 1/T` — becomes the critical
    /// path (`makespan ≥ NM × row[smallest group]`). The fix: solve the
    /// knapsack once per allowed group count `k ∈ 1..=NS` (cardinality
    /// bound `k` instead of `NS`), include the uniform groupings of the
    /// basic sweep, score every candidate with the estimator and keep
    /// the winner — [`crate::heuristics::Heuristic::Balanced`] over the
    /// workload.
    pub fn balanced(&self, r: u32) -> Result<(Grouping, Estimate), HeuristicError> {
        self.plan(r, |p, inst| p.balanced(inst, &Pool::serial()))
    }
}

#[cfg(test)]
mod tests {
    use oa_platform::speedup::PcrModel;
    use oa_platform::timing::TimingTable;
    use oa_workflow::chain::ExperimentShape;
    use oa_workflow::ir::{lower_fused, DurationModel};
    use proptest::prelude::*;

    use super::*;

    /// Random cases per property: 32 in debug builds, 256 in release
    /// builds (CI's differential job).
    const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

    /// One node of a unit: its processor shape and duration model.
    type Node = (IrTaskKind, DurationModel);

    /// A splitmix stream.
    fn stream(mut seed: u64) -> impl FnMut() -> usize {
        move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 27)) as usize
        }
    }

    fn shuffle<T>(v: &mut [T], seed: u64) {
        let mut next = stream(seed);
        for i in (1..v.len()).rev() {
            v.swap(i, next() % (i + 1));
        }
    }

    /// `chains` chains of `units` units, each `blocking` then
    /// `trailing` node for node: a path through both, and a hand-off
    /// edge from the last blocking node to the next unit's first. Nodes
    /// and edges are inserted in chain, unit and path order, or in an
    /// order shuffled by `seed`.
    fn chain_ir(
        chains: u32,
        units: u32,
        blocking: &[Node],
        trailing: &[Node],
        seed: Option<u64>,
    ) -> WorkflowIr {
        let unit: Vec<&Node> = blocking.iter().chain(trailing).collect();
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for c in 0..chains {
            for u in 0..units {
                let start = nodes.len();
                for (i, node) in unit.iter().enumerate() {
                    nodes.push((format!("c{c}u{u}n{i}"), *node));
                    if i > 0 {
                        edges.push((start + i - 1, start + i));
                    }
                }
                if u > 0 {
                    edges.push((start - unit.len() + blocking.len() - 1, start));
                }
            }
        }
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        if let Some(seed) = seed {
            shuffle(&mut order, seed);
            shuffle(&mut edges, seed ^ 1);
        }
        let mut ids = vec![NodeId(0); nodes.len()];
        let mut ir = WorkflowIr::with_capacity(nodes.len());
        for i in order {
            let (name, (kind, duration)) = &nodes[i];
            ids[i] = ir.add_task(name, *kind, duration.clone());
        }
        for (a, b) in edges {
            ir.add_dep(ids[a], ids[b]).expect("forward edge");
        }
        ir
    }

    fn moldable(lo: u32, hi: u32, secs: Vec<f64>) -> Node {
        let range = MoldableSpec {
            min_procs: lo,
            max_procs: hi,
        };
        (
            IrTaskKind::Moldable(range),
            DurationModel::PerAllocation(secs),
        )
    }

    fn rigid(secs: f64) -> Node {
        (IrTaskKind::Rigid(1), DurationModel::Fixed(secs))
    }

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    fn plan_of(ir: &WorkflowIr) -> Option<ChainPlan> {
        ChainPlan::of(ir, &reference())
    }

    fn tiny() -> ChainPlan {
        let ir = chain_ir(
            2,
            3,
            &[moldable(2, 3, vec![100.0, 80.0])],
            &[rigid(10.0)],
            None,
        );
        plan_of(&ir).unwrap()
    }

    /// A molecular-dynamics-like workload: wide allocation range
    /// (2..=16) with near-linear scaling then saturation.
    fn md_workload(chains: u32, units: u32) -> ChainPlan {
        let secs = (2..=16)
            .map(|p| 40.0 + 4000.0 / f64::from(p) + 3.0 * f64::from(p))
            .collect();
        let ir = chain_ir(
            chains,
            units,
            &[moldable(2, 16, secs)],
            &[rigid(25.0)],
            None,
        );
        plan_of(&ir).unwrap()
    }

    #[test]
    fn fused_meshes_plan_on_the_table() {
        let t = reference();
        let plan = ChainPlan::of(&lower_fused(ExperimentShape::new(10, 1800)), &t).unwrap();
        assert_eq!((plan.chains(), plan.units()), (10, 1800));
        assert_eq!(plan.range(), MoldableSpec::pcr());
        assert_eq!(plan.row(), t.main_array());
        assert_eq!(plan.trailing_secs(), t.post_secs());
        // One month: the origins still say which node is the post.
        let one = ChainPlan::of(&lower_fused(ExperimentShape::new(3, 1)), &t).unwrap();
        assert_eq!((one.chains(), one.units()), (3, 1));
        assert_eq!(one.row(), t.main_array());
        assert_eq!(one.trailing_secs(), t.post_secs());
    }

    #[test]
    fn multi_node_unit_sums_blocking_times() {
        // A unit = moldable solve (2..=4 procs) + blocking sequential
        // checkpoint + trailing sequential analysis + trailing archive.
        let ir = chain_ir(
            3,
            5,
            &[moldable(2, 4, vec![90.0, 60.0, 50.0]), rigid(10.0)],
            &[rigid(7.0), rigid(3.0)],
            None,
        );
        let plan = plan_of(&ir).unwrap();
        assert_eq!((plan.chains(), plan.units()), (3, 5));
        assert_eq!(plan.row(), &[100.0, 70.0, 60.0]);
        assert_eq!(plan.trailing_secs(), 10.0);
        assert_eq!(
            plan.range().allocations().collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn fully_sequential_workload_is_legal() {
        let plan = plan_of(&chain_ir(2, 3, &[rigid(5.0)], &[], None)).unwrap();
        assert_eq!(plan.range().allocations().collect::<Vec<_>>(), vec![1]);
        assert_eq!(plan.row(), &[5.0]);
        // An empty sum: no trailing work.
        assert_eq!(plan.trailing_secs(), 0.0);
    }

    /// With nothing branching off a chain the graph cannot tell trailing
    /// from blocking work: every node blocks, and the unit is the chain's
    /// shortest repeating block.
    #[test]
    fn unbranched_chains_read_as_their_shortest_repeating_block() {
        // Units of two equal steps read as twice the units of one.
        let plan = plan_of(&chain_ir(2, 3, &[rigid(5.0), rigid(5.0)], &[], None)).unwrap();
        assert_eq!((plan.chains(), plan.units()), (2, 6));
        assert_eq!(plan.row(), &[5.0]);
        // A step then a different one: the unit stays whole.
        let plan = plan_of(&chain_ir(2, 3, &[rigid(5.0), rigid(6.0)], &[], None)).unwrap();
        assert_eq!((plan.units(), plan.row()), (3, &[11.0][..]));
        // One unit with trailing work: the trailing node blocks too.
        let ir = chain_ir(
            4,
            1,
            &[moldable(2, 3, vec![100.0, 80.0])],
            &[rigid(10.0)],
            None,
        );
        let plan = plan_of(&ir).unwrap();
        assert_eq!((plan.chains(), plan.units()), (4, 1));
        assert_eq!(plan.row(), &[110.0, 90.0]);
        assert_eq!(plan.trailing_secs().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn the_reader_refuses_what_no_chain_plan_describes() {
        // A moldable trailing node.
        let ir = chain_ir(1, 2, &[rigid(1.0)], &[moldable(2, 3, vec![5.0, 4.0])], None);
        assert_eq!(plan_of(&ir), None);
        // Two blocking moldable nodes with different ranges.
        let ir = chain_ir(
            1,
            2,
            &[
                moldable(2, 3, vec![5.0, 4.0]),
                moldable(2, 4, vec![5.0, 4.0, 3.0]),
            ],
            &[],
            None,
        );
        assert_eq!(plan_of(&ir), None);
        // A row that increases with processors.
        let ir = chain_ir(1, 2, &[moldable(2, 3, vec![4.0, 5.0])], &[], None);
        assert_eq!(plan_of(&ir), None);
        // A rigid node of two processors.
        let ir = chain_ir(
            1,
            2,
            &[(IrTaskKind::Rigid(2), DurationModel::Fixed(1.0))],
            &[],
            None,
        );
        assert_eq!(plan_of(&ir), None);
        // What validation refuses: an empty graph, a bad duration.
        assert_eq!(plan_of(&WorkflowIr::new()), None);
        assert_eq!(plan_of(&chain_ir(1, 2, &[rigid(-1.0)], &[], None)), None);
        // Two sources that share the rest of their chain: each walk
        // alone reads a chain of two units.
        let mut ir = chain_ir(1, 2, &[rigid(1.0)], &[], None);
        let other = ir.add_task("other", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        ir.add_dep(other, NodeId(1)).unwrap();
        assert_eq!(plan_of(&ir), None);
        // Chains of different lengths.
        let mut ir = chain_ir(1, 2, &[rigid(1.0)], &[rigid(2.0)], None);
        let a = ir.add_task("a", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        let b = ir.add_task("b", IrTaskKind::Rigid(1), DurationModel::Fixed(2.0));
        ir.add_dep(a, b).unwrap();
        assert_eq!(plan_of(&ir), None);
    }

    #[test]
    fn two_chains_two_groups() {
        let plan = tiny();
        let e = plan.estimate(6, &Grouping::new(vec![3, 2], 1)).unwrap();
        // Fast group does 3 units of chain A in 240; slow group 300.
        assert_eq!(e.main_finish, 300.0);
        assert_eq!(e.makespan, 310.0);
    }

    #[test]
    fn no_trailing_work() {
        let plan = plan_of(&chain_ir(2, 2, &[rigid(50.0)], &[], None)).unwrap();
        let e = plan.estimate(2, &Grouping::new(vec![1, 1], 0)).unwrap();
        assert_eq!(e.makespan, 100.0);
        assert_eq!(e.post_finish, e.main_finish);
    }

    #[test]
    fn validation_errors_use_the_workload_range() {
        let plan = tiny();
        assert_eq!(
            plan.estimate(6, &Grouping::new(vec![], 2)).unwrap_err(),
            GroupingError::NoGroups
        );
        assert_eq!(
            plan.estimate(6, &Grouping::new(vec![4], 0)).unwrap_err(),
            GroupingError::BadGroupSize(4)
        );
        assert_eq!(
            plan.estimate(4, &Grouping::new(vec![3, 2], 0)).unwrap_err(),
            GroupingError::OverSubscribed {
                used: 5,
                available: 4
            }
        );
        assert_eq!(
            plan.estimate(9, &Grouping::new(vec![3, 3, 3], 0))
                .unwrap_err(),
            GroupingError::TooManyGroups {
                groups: 3,
                scenarios: 2
            }
        );
    }

    #[test]
    fn matches_specialized_estimator_on_oa_workloads() {
        use crate::estimate::estimate;

        let table = reference();
        for (ns, nm, r) in [(10u32, 24u32, 53u32), (3, 10, 30), (7, 13, 90)] {
            let mesh = lower_fused(ExperimentShape::new(ns, nm));
            let plan = ChainPlan::of(&mesh, &table).unwrap();
            let inst = Instance::new(ns, nm, r);
            for (sizes, pool) in [
                (
                    vec![7u32; (r / 7).min(ns) as usize],
                    r - 7 * (r / 7).min(ns),
                ),
                (vec![11, 4], r - 15),
            ] {
                let g = Grouping::new(sizes, pool);
                let a = estimate(inst, &table, &g).unwrap();
                let b = plan.estimate(r, &g).unwrap();
                assert_eq!(a, b, "ns={ns} nm={nm} r={r}");
            }
        }
    }

    #[test]
    fn raw_knapsack_has_a_per_chain_bottleneck_pitfall() {
        // Documented pitfall: on wide ranges the raw throughput
        // knapsack pins chains to slow small groups. At R = 16 it
        // chooses [3,3,3,3,2,2] (higher Σ1/T) over [4,4,4,4], yet the
        // size-2 groups run their chains ~2× slower — the makespan is
        // far worse. This is invisible in the paper's 4..=11 range but
        // fundamental to chains of wider units.
        let plan = md_workload(6, 200);
        let b = plan.basic(16).unwrap();
        let k = plan.knapsack(16).unwrap();
        let bm = plan.estimate(16, &b).unwrap().makespan;
        let km = plan.estimate(16, &k).unwrap().makespan;
        assert!(
            k.group_count() > b.group_count(),
            "knapsack should over-split here"
        );
        assert!(km > bm * 1.2, "pitfall vanished: basic {bm}, knapsack {km}");
    }

    #[test]
    fn balanced_beats_or_ties_both_everywhere_and_wins_somewhere() {
        let plan = md_workload(6, 200);
        let mut strict_wins = 0;
        for r in (4..=120).step_by(3) {
            let Ok(b) = plan.basic(r) else {
                continue;
            };
            let k = plan.knapsack(r).expect("feasible");
            let bm = plan.estimate(r, &b).unwrap().makespan;
            let km = plan.estimate(r, &k).unwrap().makespan;
            let (_, e) = plan.balanced(r).expect("feasible");
            assert!(
                e.makespan <= bm + 1e-9,
                "R={r}: balanced {} > basic {bm}",
                e.makespan
            );
            assert!(
                e.makespan <= km + 1e-9,
                "R={r}: balanced {} > knapsack {km}",
                e.makespan
            );
            if e.makespan < bm.min(km) - 1e-9 {
                strict_wins += 1;
            }
        }
        assert!(strict_wins > 0, "balanced never strictly improved on both");
    }

    #[test]
    fn chain_heuristics_match_oa_heuristics_on_oa_meshes() {
        use crate::heuristics::Heuristic;

        let table = reference();
        let plan = ChainPlan::of(&lower_fused(ExperimentShape::new(10, 48)), &table).unwrap();
        for r in [23u32, 53, 87] {
            let inst = Instance::new(10, 48, r);
            let oa = Heuristic::Knapsack.grouping(inst, &table).unwrap();
            assert_eq!(oa, plan.knapsack(r).unwrap(), "R = {r}");
        }
    }

    #[test]
    fn machine_too_small() {
        let plan = md_workload(2, 2);
        let too_small = Err(HeuristicError::ClusterTooSmall { resources: 1 });
        assert_eq!(plan.basic(1), too_small);
        assert_eq!(plan.knapsack(1), too_small);
        assert_eq!(plan.balanced(1).map(|(g, _)| g), too_small);
    }

    #[test]
    fn balanced_picks_the_best_candidate() {
        let plan = md_workload(5, 12);
        for r in [10u32, 33, 64] {
            let (g, e) = plan.balanced(r).unwrap();
            let b = plan.estimate(r, &plan.basic(r).unwrap()).unwrap();
            let k = plan.estimate(r, &plan.knapsack(r).unwrap()).unwrap();
            assert!(e.makespan <= b.makespan + 1e-9);
            assert!(e.makespan <= k.makespan + 1e-9);
            assert_eq!(plan.estimate(r, &g), Ok(e));
        }
    }

    #[test]
    fn sequential_only_workload_degenerates_to_pool_scheduling() {
        let plan = plan_of(&chain_ir(4, 6, &[rigid(10.0)], &[], None)).unwrap();
        let g = plan.knapsack(4).unwrap();
        // Four chains, four single-processor "groups".
        assert_eq!(g.groups(), &[1, 1, 1, 1]);
        let e = plan.estimate(4, &g).unwrap();
        assert_eq!(e.makespan, 60.0);
    }

    // ---- Reader property ----

    /// A random unit: the blocking nodes, moldable over one shared
    /// range or rigid on one processor, then the rigid trailing nodes.
    #[derive(Debug, Clone)]
    struct Template {
        chains: u32,
        units: u32,
        blocking: Vec<Node>,
        trailing: Vec<Node>,
    }

    /// A node: moldable over `range` when `mold`, else rigid on one
    /// processor, timed `Fixed`, `PerAllocation` (non-increasing) or by
    /// a table reference.
    fn node(range: MoldableSpec, mold: bool, model: u8, secs: f64, bumps: &[f64]) -> Node {
        let kind = if mold {
            IrTaskKind::Moldable(range)
        } else {
            IrTaskKind::Rigid(1)
        };
        let duration = match model {
            0 => DurationModel::Fixed(secs),
            1 => {
                let n = kind.allocation_count();
                let mut v: Vec<f64> = bumps[..n].to_vec();
                let mut acc = secs;
                for x in v.iter_mut().rev() {
                    acc += *x;
                    *x = acc;
                }
                DurationModel::PerAllocation(v)
            }
            2 => DurationModel::MainTable,
            3 => DurationModel::PcrTable,
            _ => DurationModel::PostTable,
        };
        (kind, duration)
    }

    fn arb_node() -> impl Strategy<Value = (u8, u8, f64, Vec<f64>)> {
        (
            0u8..2,
            0u8..5,
            1.0f64..1000.0,
            proptest::collection::vec(0.0f64..100.0, 6),
        )
    }

    fn arb_template() -> impl Strategy<Value = Template> {
        (
            (1u32..=4, 1u32..=5),
            proptest::collection::vec(arb_node(), 1..=4),
            proptest::collection::vec(arb_node(), 0..=3),
            (1u32..=5, 2u32..=20),
        )
            .prop_map(|((lo, span), blocking, trailing, (chains, units))| {
                let range = MoldableSpec {
                    min_procs: lo,
                    max_procs: lo + span,
                };
                let build = |nodes: Vec<(u8, u8, f64, Vec<f64>)>, may_mold: bool| {
                    nodes
                        .into_iter()
                        .map(|(mold, model, secs, bumps)| {
                            node(range, may_mold && mold == 1, model, secs, &bumps)
                        })
                        .collect()
                };
                Template {
                    chains,
                    units,
                    blocking: build(blocking, true),
                    trailing: build(trailing, false),
                }
            })
    }

    fn build(t: &Template, seed: Option<u64>) -> WorkflowIr {
        chain_ir(t.chains, t.units, &t.blocking, &t.trailing, seed)
    }

    /// What a plan reads, as bits.
    fn reading(plan: &ChainPlan) -> (u32, u32, MoldableSpec, Vec<u64>, u64) {
        (
            plan.chains(),
            plan.units(),
            plan.range(),
            plan.row().iter().map(|x| x.to_bits()).collect(),
            plan.trailing_secs().to_bits(),
        )
    }

    /// What the template should read as: its own unit, or, without
    /// trailing work, its shortest repeating block, every node
    /// blocking.
    fn expected(t: &Template, d: &TimingTable) -> (u32, u32, MoldableSpec, Vec<u64>, u64) {
        let p = t.blocking.len();
        let q = if t.trailing.is_empty() {
            (1..=p)
                .find(|&q| {
                    p.is_multiple_of(q) && (q..p).all(|i| t.blocking[i] == t.blocking[i - q])
                })
                .unwrap()
        } else {
            p
        };
        let unit = &t.blocking[..q];
        let range = unit
            .iter()
            .find_map(|(kind, _)| match kind {
                IrTaskKind::Moldable(range) => Some(*range),
                IrTaskKind::Rigid(_) => None,
            })
            .unwrap_or(MoldableSpec {
                min_procs: 1,
                max_procs: 1,
            });
        let secs = |(kind, duration): &Node, g: u32| {
            let node = oa_workflow::ir::IrNode {
                name: String::new(),
                kind: *kind,
                duration: duration.clone(),
                origin: None,
            };
            node.secs(if kind.is_moldable() { g } else { 1 }, d)
        };
        let row: Vec<f64> = range
            .allocations()
            .map(|g| unit.iter().map(|n| secs(n, g)).sum())
            .collect();
        let tp: f64 = t.trailing.iter().map(|n| secs(n, 1)).sum();
        (
            t.chains,
            t.units * (p / q) as u32,
            range,
            row.iter().map(|x| x.to_bits()).collect(),
            tp.to_bits(),
        )
    }

    /// The node of the in-order build at chain `c`, unit `u`, position
    /// `i` of the unit.
    fn at(t: &Template, c: u32, u: u32, i: usize) -> NodeId {
        let width = t.blocking.len() + t.trailing.len();
        let unit = (c * t.units + u) as usize;
        NodeId((unit * width + i) as u32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// A template reads back the same whether its nodes and edges
        /// are inserted in order or shuffled, and every perturbation
        /// that leaves chains of identical units reads as `None`.
        #[test]
        fn chains_read_back_in_any_node_order(
            t in arb_template(),
            seed in 0usize..usize::MAX,
        ) {
            let seed = seed as u64;
            let d = reference();
            let want = expected(&t, &d);
            for order in [None, Some(seed)] {
                let plan = ChainPlan::of(&build(&t, order), &d);
                prop_assert_eq!(plan.as_ref().map(reading), Some(want.clone()), "{:?}", order);
            }
            let mut next = stream(seed);
            let width = t.blocking.len() + t.trailing.len();
            let (c, u, i) = (
                (next() % t.chains as usize) as u32,
                (next() % t.units as usize) as u32,
                next() % width,
            );
            let mut refused = Vec::new();
            // One unit's duration changed.
            if t.chains > 1 || !t.trailing.is_empty() {
                let mut ir = build(&t, None);
                ir.dag.node_mut(at(&t, c, u, i)).duration = DurationModel::Fixed(5000.0);
                refused.push(("one unit changed", ir));
            }
            // An edge between two chains. It ends past the other chain's
            // source: an edge from the end of one chain of two to the
            // start of the other joins them into one chain of identical
            // units.
            if t.chains > 1 {
                let mut ir = build(&t, None);
                let other = (c + 1 + (next() % (t.chains as usize - 1)) as u32) % t.chains;
                let (unit, k) = match (next() % t.units as usize, next() % width) {
                    (0, 0) => (1, 0),
                    (unit, k) => (unit as u32, k),
                };
                ir.add_dep(at(&t, c, u, i), at(&t, other, unit, k)).unwrap();
                refused.push(("an edge between chains", ir));
            }
            if !t.trailing.is_empty() {
                // A trailing node that gates the next unit.
                let mut ir = build(&t, None);
                let u = u % (t.units - 1);
                let k = t.blocking.len() + next() % t.trailing.len();
                ir.add_dep(at(&t, c, u, k), at(&t, c, u + 1, 0)).unwrap();
                refused.push(("a gating trailing node", ir));
                // A moldable trailing node.
                let mut moldy = t.clone();
                let range = MoldableSpec { min_procs: 2, max_procs: 3 };
                moldy.trailing[0] = (IrTaskKind::Moldable(range), DurationModel::Fixed(1.0));
                refused.push(("a moldable trailing node", build(&moldy, None)));
            }
            // Two blocking ranges that disagree.
            let mut split = t.clone();
            split.blocking.push(moldable(20, 21, vec![2.0, 1.0]));
            split.blocking.push(moldable(20, 22, vec![3.0, 2.0, 1.0]));
            refused.push(("disagreeing ranges", build(&split, None)));
            // A row that increases: a blocking node over the template's
            // range (or 1..=2 when no node is moldable) that grows by
            // more than the rest of the row falls.
            let mut rising = t.clone();
            let range = t
                .blocking
                .iter()
                .find_map(|(kind, _)| kind.is_moldable().then_some(*kind))
                .unwrap_or(IrTaskKind::Moldable(MoldableSpec { min_procs: 1, max_procs: 2 }));
            let grows = (1..=range.allocation_count()).map(|k| 1e6 * k as f64).collect();
            rising.blocking.push((range, DurationModel::PerAllocation(grows)));
            refused.push(("an increasing row", build(&rising, None)));
            for (what, ir) in refused {
                prop_assert!(ChainPlan::of(&ir, &d).is_none(), "{} read as a chain plan", what);
            }
        }
    }
}
