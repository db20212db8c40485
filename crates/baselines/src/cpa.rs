//! CPA — Critical Path and Area-based scheduling (Radulescu & van
//! Gemund, ICPP 2001), adapted to the multi-chain workload.
//!
//! The paper's related work (Section 3.2) dismisses CPA because "our
//! application does not contain a single critical path since all
//! scenario simulations are independent". We implement it anyway as a
//! quantitative baseline, with the canonical multi-DAG adaptation:
//! the critical path is the *longest remaining chain over all
//! scenarios*, and the area is the total work over `R` processors.
//!
//! Allocation phase (classic CPA): start every moldable task at its
//! minimum allocation; while `CP > Area`, give one more processor to
//! the critical-path task whose enlargement most reduces `CP` per
//! added processor. With identical chains the critical path rotates
//! across scenarios, so allocations grow in a round-robin fashion —
//! exactly what the general algorithm would do, computed directly.
//! Scheduling phase: [`crate::schedule_pinned`] on the fused mesh.

use oa_platform::timing::TimingTable;
use oa_sched::params::Instance;
use oa_sim::ir_exec::{IrExecError, IrSchedule};
use oa_workflow::ir::lower_fused;
use oa_workflow::moldable::MoldableSpec;

use crate::schedule_pinned;

/// Per-scenario chain length (the scenario's critical path).
fn chain_secs(inst: Instance, table: &TimingTable, alloc: u32) -> f64 {
    inst.nm as f64 * table.main_secs(alloc) + table.post_secs()
}

/// Total work (processor-seconds) over the whole campaign for an
/// allocation vector.
fn area(inst: Instance, table: &TimingTable, allocs: &[u32]) -> f64 {
    let posts = inst.nbtasks() as f64 * table.post_secs();
    let mains: f64 = allocs
        .iter()
        .map(|&a| inst.nm as f64 * table.main_secs(a) * a as f64)
        .sum();
    (mains + posts) / inst.r as f64
}

/// The CPA allocation phase: returns per-scenario allocations.
pub fn cpa_allocations(inst: Instance, table: &TimingTable) -> Vec<u32> {
    let spec = MoldableSpec::pcr();
    let mut allocs = vec![spec.min_procs; inst.ns as usize];
    loop {
        // Critical path: the longest chain.
        let (cp_scenario, cp) = allocs
            .iter()
            .enumerate()
            .map(|(s, &a)| (s, chain_secs(inst, table, a)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("ns ≥ 1");
        if cp <= area(inst, table, &allocs) {
            break;
        }
        let a = allocs[cp_scenario];
        if a >= spec.max_procs || a + 1 > inst.r {
            // The CP task cannot grow further; CPA stops (no other
            // task's growth can shorten the CP).
            break;
        }
        allocs[cp_scenario] = a + 1;
    }
    allocs
}

/// Full CPA: allocation phase + list scheduling.
pub fn cpa(inst: Instance, table: &TimingTable) -> Result<IrSchedule, IrExecError> {
    let allocs = cpa_allocations(inst, table);
    schedule_pinned(&mut lower_fused(inst.shape()), table, inst.r, &allocs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    #[test]
    fn allocations_grow_with_resources() {
        let t = reference();
        let small = cpa_allocations(Instance::new(4, 24, 16), &t);
        let big = cpa_allocations(Instance::new(4, 24, 120), &t);
        let sum_small: u32 = small.iter().sum();
        let sum_big: u32 = big.iter().sum();
        assert!(sum_big > sum_small, "{small:?} vs {big:?}");
    }

    #[test]
    fn allocations_balanced_across_identical_chains() {
        let t = reference();
        let a = cpa_allocations(Instance::new(5, 24, 60), &t);
        let min = a.iter().min().unwrap();
        let max = a.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "round-robin growth should stay balanced: {a:?}"
        );
    }

    #[test]
    fn cpa_schedule_is_valid() {
        let t = reference();
        for r in [13u32, 30, 53, 90] {
            let inst = Instance::new(6, 12, r);
            let s = cpa(inst, &t).unwrap();
            s.validate(&lower_fused(inst.shape()))
                .unwrap_or_else(|e| panic!("R={r}: {e}"));
            assert!(s.makespan > 0.0);
        }
    }

    #[test]
    fn area_accounts_for_posts_and_allocations() {
        let t = reference();
        let inst = Instance::new(2, 3, 10);
        let a4 = area(inst, &t, &[4, 4]);
        let a8 = area(inst, &t, &[8, 8]);
        // With this curve the 3 sequential components waste the most
        // processor-seconds at *small* allocations (they idle while one
        // atmosphere processor grinds), so the area shrinks as groups
        // grow — until communication overhead would win again.
        assert!(a4 > a8, "a4 {a4} vs a8 {a8}");
    }
}
