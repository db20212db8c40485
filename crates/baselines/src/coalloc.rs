//! A level-synchronized co-allocation baseline (after "Resource
//! CoAllocation for Scheduling Tasks with Dependencies, in Grid",
//! arXiv:1106.5309).
//!
//! The co-allocation family schedules a DAG as synchronized *waves*:
//! all tasks of one precedence level are granted their processor sets
//! together, run together, and release together before the next level
//! starts. Within a wave the pool is divided among the members — rigid
//! tasks take their fixed share, moldable tasks split what remains as
//! evenly as the allocation ranges allow (the "co-allocation" step).
//! A level too wide for the pool is cut into successive waves in task
//! order.
//!
//! The barriers are the point of the baseline: they model the
//! all-resources-granted-at-once reservation the co-allocation
//! literature assumes, and their cost on the ocean-atmosphere mesh —
//! posts serializing behind the next month's wave instead of
//! backfilling — is exactly what the paper's grouping heuristic
//! avoids. Comparing its makespan against the knapsack heuristic and
//! HEFT quantifies that gap.

use oa_sim::ir_exec::{check_input, IrExecError, IrRecord, IrSchedule};
use oa_workflow::dag::NodeId;
use oa_workflow::ir::{Durations, WorkflowIr};

/// Schedules a workflow as level-synchronized co-allocated waves on
/// `r` processors.
pub fn coalloc(ir: &WorkflowIr, d: &impl Durations, r: u32) -> Result<IrSchedule, IrExecError> {
    check_input(ir, r)?;
    let n = ir.node_count();

    // Hop levels: the wave index of the synchronized execution.
    let order = ir.dag.topo_sort().expect("validated");
    let mut level = vec![0usize; n];
    for &v in &order {
        for &s in ir.dag.successors(v) {
            level[s.index()] = level[s.index()].max(level[v.index()] + 1);
        }
    }
    let depth = level.iter().max().copied().unwrap_or(0) + 1;
    let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); depth];
    for v in ir.dag.node_ids() {
        by_level[level[v.index()]].push(v);
    }

    let mut records = Vec::with_capacity(n);
    let mut now = 0.0f64;
    for members in &by_level {
        // Cut the level into waves that fit the pool at minimum
        // allocations, preserving task order.
        let mut wave: Vec<NodeId> = Vec::new();
        let mut need = 0u32;
        let mut waves: Vec<Vec<NodeId>> = Vec::new();
        for &v in members {
            let min = ir.dag.node(v).kind.min_procs();
            if need + min > r && !wave.is_empty() {
                waves.push(std::mem::take(&mut wave));
                need = 0;
            }
            need += min;
            wave.push(v);
        }
        if !wave.is_empty() {
            waves.push(wave);
        }

        for wave in waves {
            // Co-allocate: start from minimums, then grant spare
            // processors one at a time round-robin to moldable tasks
            // that can still grow — the even split of the pool.
            let mut alloc: Vec<u32> = wave
                .iter()
                .map(|&v| ir.dag.node(v).kind.min_procs())
                .collect();
            let mut spare = r - alloc.iter().sum::<u32>();
            loop {
                let mut granted = false;
                for (i, &v) in wave.iter().enumerate() {
                    if spare == 0 {
                        break;
                    }
                    let node = ir.dag.node(v);
                    if node.kind.is_moldable() && alloc[i] < node.kind.max_procs() {
                        alloc[i] += 1;
                        spare -= 1;
                        granted = true;
                    }
                }
                if !granted || spare == 0 {
                    break;
                }
            }

            // The wave runs as one reservation: everything starts at
            // the barrier, the barrier moves to the slowest member.
            let mut wave_end = now;
            for (i, &v) in wave.iter().enumerate() {
                let dur = ir.dag.node(v).secs(alloc[i], d);
                let end = now + dur;
                wave_end = wave_end.max(end);
                records.push(IrRecord {
                    node: v,
                    procs: alloc[i],
                    start: now,
                    end,
                });
            }
            now = wave_end;
        }
    }

    Ok(IrSchedule {
        resources: r,
        records,
        makespan: now,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;
    use oa_platform::timing::TimingTable;
    use oa_workflow::chain::ExperimentShape;
    use oa_workflow::ir::{lower_fused, DurationModel, IrTaskKind};
    use oa_workflow::moldable::MoldableSpec;

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    #[test]
    fn fused_mesh_waves_validate() {
        let t = reference();
        for (ns, nm, r) in [(1u32, 3u32, 11u32), (4, 6, 30), (6, 10, 53), (3, 8, 9)] {
            let ir = lower_fused(ExperimentShape::new(ns, nm));
            let s = coalloc(&ir, &t, r).unwrap();
            s.validate(&ir)
                .unwrap_or_else(|e| panic!("{ns}x{nm} R={r}: {e}"));
        }
    }

    #[test]
    fn waves_split_the_pool_evenly() {
        // Two moldable tasks on 16 processors: 8 + 8.
        let t = reference();
        let mut ir = WorkflowIr::new();
        for name in ["a", "b"] {
            ir.add_task(
                name,
                IrTaskKind::Moldable(MoldableSpec::pcr()),
                DurationModel::MainTable,
            );
        }
        let s = coalloc(&ir, &t, 16).unwrap();
        s.validate(&ir).unwrap();
        assert_eq!(
            s.records.iter().map(|r| r.procs).collect::<Vec<_>>(),
            vec![8, 8]
        );
        assert_eq!(s.makespan, t.main_secs(8));
    }

    #[test]
    fn oversized_levels_run_as_successive_waves() {
        // Three tasks of fixed width 4 on an 8-wide pool: 2 waves.
        let t = reference();
        let mut ir = WorkflowIr::new();
        for name in ["a", "b", "c"] {
            ir.add_task(name, IrTaskKind::Rigid(4), DurationModel::Fixed(10.0));
        }
        let s = coalloc(&ir, &t, 8).unwrap();
        s.validate(&ir).unwrap();
        assert_eq!(s.makespan, 20.0, "{s:?}");
    }

    #[test]
    fn barriers_cost_more_than_the_paper_heuristic() {
        // The whole point of the baseline: on the real mesh the
        // synchronized waves leave the pool idle while the slowest
        // member finishes, so co-allocation must not beat the fastest
        // possible chain time.
        let t = reference();
        let ir = lower_fused(ExperimentShape::new(4, 12));
        let s = coalloc(&ir, &t, 53).unwrap();
        let cp = 12.0 * t.main_secs(11) + t.post_secs();
        assert!(s.makespan + 1e-9 >= cp, "{} < {cp}", s.makespan);
    }

    #[test]
    fn too_small_pools_are_rejected() {
        let t = reference();
        let ir = lower_fused(ExperimentShape::new(1, 1));
        assert!(matches!(
            coalloc(&ir, &t, 3),
            Err(IrExecError::DoesNotFit { .. })
        ));
    }
}
