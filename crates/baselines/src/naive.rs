//! Naive multi-DAG strategies from Section 3.1 of the paper.
//!
//! "A first approach is to schedule each DAG on the resources one
//! after the other" — the whole machine works on one scenario at a
//! time. Since a chain admits no intra-scenario main parallelism, at
//! most 11 processors are ever busy with mains; the rest idle or
//! absorb posts. The paper's groups exist precisely to avoid this.

use oa_platform::timing::TimingTable;
use oa_sched::params::Instance;
use oa_sim::ir_exec::{IrExecError, IrSchedule};
use oa_workflow::chain::ExperimentShape;
use oa_workflow::ir::lower_fused;
use oa_workflow::moldable::MoldableSpec;

use crate::schedule_pinned;

/// Best single allocation for a lone chain on `r` processors: the one
/// minimizing `T[G]` among those that fit.
pub fn best_single_allocation(table: &TimingTable, r: u32) -> Option<u32> {
    MoldableSpec::pcr()
        .allocations()
        .filter(|&g| g <= r)
        .min_by(|&a, &b| table.main_secs(a).total_cmp(&table.main_secs(b)))
}

/// One-DAG-at-a-time: scenarios run strictly sequentially, each month
/// on the fastest allocation that fits. Implemented by scheduling a
/// single synthetic chain of `NS × NM` months, so posts still backfill
/// as they would in reality; the schedule is that chain's (month `m`
/// of scenario `s` is its month `s × NM + m`). A machine below the
/// minimum allocation reports [`IrExecError::DoesNotFit`].
pub fn one_dag_at_a_time(inst: Instance, table: &TimingTable) -> Result<IrSchedule, IrExecError> {
    let alloc = best_single_allocation(table, inst.r).unwrap_or(MoldableSpec::pcr().min_procs);
    let months = inst
        .nbtasks()
        .try_into()
        .expect("campaign sizes fit u32 in this reproduction");
    let mut chain = lower_fused(ExperimentShape::new(1, months));
    schedule_pinned(&mut chain, table, inst.r, &[alloc])
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    #[test]
    fn picks_the_fastest_allocation_that_fits() {
        let t = reference();
        assert_eq!(best_single_allocation(&t, 120), Some(11));
        assert_eq!(best_single_allocation(&t, 9), Some(9));
        assert_eq!(best_single_allocation(&t, 3), None);
    }

    #[test]
    fn sequential_makespan_is_roughly_linear_in_total_months() {
        let t = reference();
        let inst = Instance::new(4, 6, 40);
        let s = one_dag_at_a_time(inst, &t).unwrap();
        s.validate(&lower_fused(ExperimentShape::new(1, 24)))
            .unwrap();
        let expect = 24.0 * t.main_secs(11);
        assert!(s.makespan >= expect);
        assert!(s.makespan <= expect + t.post_secs() + 1.0);
    }

    #[test]
    fn chain_records_cover_every_task() {
        let t = reference();
        let inst = Instance::new(3, 5, 20);
        let s = one_dag_at_a_time(inst, &t).unwrap();
        s.validate(&lower_fused(ExperimentShape::new(1, 15)))
            .unwrap();
        assert_eq!(s.records.len(), 30);
    }

    #[test]
    fn too_small_machines_do_not_fit() {
        let inst = Instance::new(2, 3, 3);
        assert!(matches!(
            one_dag_at_a_time(inst, &reference()),
            Err(IrExecError::DoesNotFit { needs: 4, .. })
        ));
    }

    #[test]
    fn group_scheduling_crushes_one_at_a_time_with_many_resources() {
        use oa_sched::heuristics::Heuristic;
        let t = reference();
        let inst = Instance::new(8, 12, 88);
        let naive = one_dag_at_a_time(inst, &t).unwrap().makespan;
        let knapsack = Heuristic::Knapsack.makespan(inst, &t).unwrap();
        // 8 parallel groups vs a single serialized chain: ~8× gap.
        assert!(
            knapsack * 4.0 < naive,
            "knapsack {knapsack} vs naive {naive}"
        );
    }
}
