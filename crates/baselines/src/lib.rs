//! # oa-baselines — the related work, implemented
//!
//! Section 3 of the paper surveys mixed-parallelism schedulers and
//! argues they do not fit the Ocean-Atmosphere workload ("our
//! application does not contain a single critical path since all
//! scenario simulations are independent"). This crate implements those
//! baselines so the claim can be measured instead of asserted:
//!
//! * [`mod@cpa`] — Critical Path and Area-based allocation (Radulescu &
//!   van Gemund, ICPP 2001) adapted to multiple chains;
//! * [`mod@cpr`] — Critical Path Reduction (Radulescu et al., IPDPS 2001),
//!   the one-step makespan-guided variant — which *plateaus* on this
//!   workload, exactly as the paper predicts — plus a batched
//!   multi-critical-path adaptation ([`cpr::cpr_batched`]);
//! * [`naive`] — the Section 3.1 strawman: one DAG at a time;
//! * [`mod@heft`] — moldable HEFT over the generalized workflow IR:
//!   upward-rank ordering with insertion-based earliest-finish
//!   placement, where the per-task choice is the allocation size;
//! * [`mod@coalloc`] — a level-synchronized co-allocation baseline (after
//!   arXiv:1106.5309): each precedence level runs as one all-granted
//!   reservation wave, the pool split evenly among its members.
//!
//! Every baseline schedules a flat processor pool and returns the
//! simulator's [`IrSchedule`], checked by [`IrSchedule::validate`].
//! CPA, CPR and one-DAG-at-a-time split scheduling into an
//! *allocation* phase (how many processors each scenario's mains take)
//! and a *list-scheduling* phase, [`schedule_pinned`]: the allocations
//! become an IR rewrite of the lowered fused mesh, which
//! [`execute_ir`] — the workspace's one flat-pool list scheduler —
//! then runs.
//!
//! The `baselines_compare` binary in `oa-bench` runs all of them
//! against the paper's heuristics across a resource sweep.

#![warn(missing_docs)]

pub mod coalloc;
pub mod cpa;
pub mod cpr;
pub mod heft;
pub mod naive;

pub use coalloc::coalloc;
pub use cpa::{cpa, cpa_allocations};
pub use cpr::{cpr, cpr_batched, CprResult};
pub use heft::heft;
pub use naive::{best_single_allocation, one_dag_at_a_time};

use oa_platform::timing::TimingTable;
use oa_sim::ir_exec::{execute_ir, IrExecError, IrSchedule};
use oa_workflow::dag::NodeId;
use oa_workflow::ir::{IrTaskKind, WorkflowIr};
use oa_workflow::moldable::MoldableSpec;
use oa_workflow::task::{TaskId, TaskKind};

/// The list-scheduling phase of CPA, CPR and one-DAG-at-a-time: pins
/// every main of `ir`, a lowered fused mesh, to its scenario's
/// allocation (`min_procs == max_procs == allocs[scenario]`) and runs
/// [`execute_ir`] on `r` processors. Mains then start in strict
/// remaining-work order with head-of-line blocking, and posts backfill
/// FIFO. The rewrite is in place, so a caller trying many allocation
/// vectors lowers the mesh once.
///
/// # Panics
///
/// Panics if `allocs` has no entry for one of the mesh's scenarios.
pub fn schedule_pinned(
    ir: &mut WorkflowIr,
    table: &TimingTable,
    r: u32,
    allocs: &[u32],
) -> Result<IrSchedule, IrExecError> {
    for v in 0..ir.node_count() as u32 {
        let node = ir.dag.node_mut(NodeId(v));
        if let Some(TaskId {
            scenario,
            kind: TaskKind::FusedMain,
            ..
        }) = node.origin
        {
            let a = allocs[scenario as usize];
            node.kind = IrTaskKind::Moldable(MoldableSpec {
                min_procs: a,
                max_procs: a,
            });
        }
    }
    execute_ir(ir, table, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;
    use oa_sched::params::Instance;
    use oa_workflow::chain::ExperimentShape;
    use oa_workflow::ir::lower_fused;
    use proptest::prelude::*;

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    fn flat(tg: f64, tp: f64) -> TimingTable {
        TimingTable::new([tg; 8], tp).unwrap()
    }

    /// The pinned-mesh schedule of `inst`, validated against the
    /// unpinned mesh, with the mesh for reading record origins.
    fn pinned(inst: Instance, table: &TimingTable, allocs: &[u32]) -> (IrSchedule, WorkflowIr) {
        let ir = lower_fused(inst.shape());
        let s = schedule_pinned(&mut ir.clone(), table, inst.r, allocs).unwrap();
        s.validate(&ir).unwrap();
        (s, ir)
    }

    #[test]
    fn single_chain_runs_back_to_back() {
        let (s, _) = pinned(Instance::new(1, 4, 10), &flat(100.0, 10.0), &[4]);
        assert_eq!(s.makespan, 410.0);
    }

    #[test]
    fn two_chains_share_the_pool() {
        // R = 8 fits two mains of 4 concurrently.
        let (s, _) = pinned(Instance::new(2, 3, 8), &flat(100.0, 10.0), &[4, 4]);
        assert_eq!(s.makespan, 310.0);
    }

    #[test]
    fn head_of_line_blocking_is_respected() {
        // R = 12, equal chains: scenario 0 takes 8 at t = 0, leaving 4.
        // Scenario 1 (8) is next in priority and does not fit, so
        // scenario 2 (4) must wait behind it although it would fit.
        let (s, ir) = pinned(Instance::new(3, 2, 12), &flat(100.0, 10.0), &[8, 8, 4]);
        let start_of = |scenario: u32| {
            s.records
                .iter()
                .find(|r| ir.dag.node(r.node).origin.unwrap().scenario == scenario)
                .unwrap()
                .start
        };
        assert_eq!((start_of(0), start_of(1), start_of(2)), (0.0, 100.0, 100.0));
    }

    #[test]
    fn posts_backfill_free_processors() {
        // Posts of months 0 and 1 run on the 5th processor while the
        // next month runs: makespan = 300 + 10 (last post).
        let (s, _) = pinned(Instance::new(1, 3, 5), &flat(100.0, 10.0), &[4]);
        assert_eq!(s.makespan, 310.0);
    }

    #[test]
    fn longest_remaining_chain_goes_first() {
        // Unequal allocations ⇒ unequal chain lengths; the slow chain
        // (smaller alloc, longer remaining work) must get priority.
        let (s, ir) = pinned(Instance::new(2, 5, 8), &reference(), &[4, 8]);
        let first = s
            .records
            .iter()
            .min_by(|a, b| a.start.total_cmp(&b.start))
            .unwrap();
        let origin = ir.dag.node(first.node).origin.unwrap();
        assert_eq!(origin.scenario, 0, "slow chain should start first");
    }

    #[test]
    fn oversized_allocations_do_not_fit() {
        let mut ir = lower_fused(ExperimentShape::new(2, 2));
        assert!(matches!(
            schedule_pinned(&mut ir, &reference(), 10, &[11, 4]),
            Err(IrExecError::DoesNotFit { needs: 11, .. })
        ));
    }

    #[test]
    fn tampered_schedule_fails_validation() {
        let (s, ir) = pinned(Instance::new(2, 2, 8), &flat(50.0, 5.0), &[4, 4]);
        let tampered = |edit: fn(&mut IrSchedule)| {
            let mut t = s.clone();
            edit(&mut t);
            t.validate(&ir)
        };
        assert!(tampered(|t| t.records[0].end = t.records[0].start).is_err());
        // The last post: a NaN end there breaks no capacity sum.
        assert!(tampered(|t| t.records.last_mut().unwrap().end = f64::NAN).is_err());
        assert!(tampered(|t| t.records[0].node = NodeId(999)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn pinned_schedules_always_validate(
            ns in 1u32..=8,
            nm in 1u32..=15,
            r in 11u32..=100,
            bump in proptest::collection::vec(0u32..=7, 8),
        ) {
            let inst = Instance::new(ns, nm, r);
            let allocs: Vec<u32> = (0..ns as usize).map(|s| 4 + bump[s]).collect();
            let (s, _) = pinned(inst, &reference(), &allocs);
            prop_assert_eq!(s.records.len() as u64, inst.nbtasks() * 2);
        }

        #[test]
        fn cpa_and_cpr_schedules_validate(ns in 1u32..=6, nm in 1u32..=10, r in 11u32..=90) {
            let inst = Instance::new(ns, nm, r);
            let t = reference();
            let ir = lower_fused(inst.shape());
            let a = cpa(inst, &t).unwrap();
            prop_assert!(a.validate(&ir).is_ok());
            let b = cpr(inst, &t).unwrap();
            prop_assert!(b.schedule.validate(&ir).is_ok());
            // CPR consults real makespans, so it can only do at least
            // as well as its own starting point; CPA has no such
            // guarantee — just check both produce finite schedules.
            prop_assert!(a.makespan.is_finite() && b.schedule.makespan.is_finite());
        }

        #[test]
        fn paper_heuristics_beat_one_at_a_time(ns in 2u32..=8, r in 22u32..=100) {
            use oa_sched::heuristics::Heuristic;
            let inst = Instance::new(ns, 6, r);
            let t = reference();
            let naive = one_dag_at_a_time(inst, &t).unwrap().makespan;
            let knapsack = Heuristic::Knapsack.makespan(inst, &t).unwrap();
            // With at least two groups' worth of processors, group
            // scheduling must not lose to full serialization.
            prop_assert!(knapsack <= naive + 1e-6,
                "knapsack {knapsack} worse than one-at-a-time {naive}");
        }
    }
}
