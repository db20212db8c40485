//! A HEFT-style list scheduler over the workflow IR.
//!
//! Heterogeneous Earliest Finish Time (Topcuoglu et al., TPDS 2002)
//! adapted to moldable tasks on one flat pool: the "heterogeneity" a
//! task chooses between is not which machine but *how many
//! processors*. Tasks are ordered by upward rank (mean execution time
//! plus the heaviest downstream rank) and placed one at a time; each
//! placement tries every legal allocation and keeps the one with the
//! earliest finish time against the pool's free-capacity profile
//! (insertion-based, so a wide task does not block a narrow one from
//! slipping into an earlier hole).
//!
//! On the ocean-atmosphere mesh this is the strongest classic DAG
//! baseline: it discovers the chain structure from ranks alone. The
//! paper's knapsack heuristic still beats it on makespan because group
//! *count* selection — how many chains run at once — is exactly what
//! rank-ordered per-task placement cannot see.

use oa_sim::ir_exec::{check_input, IrExecError, IrRecord, IrSchedule};
use oa_workflow::dag::NodeId;
use oa_workflow::ir::{Durations, WorkflowIr};

/// Free-capacity step profile: `points[i] = (t, free)` means `free`
/// processors are available from `t` until `points[i+1].0` (the last
/// point extends to infinity).
struct Profile {
    points: Vec<(f64, u32)>,
}

impl Profile {
    fn new(r: u32) -> Self {
        Self {
            points: vec![(0.0, r)],
        }
    }

    /// Earliest start `t ≥ ready` with `need` processors free for
    /// `dur` seconds.
    fn find(&self, ready: f64, dur: f64, need: u32) -> f64 {
        let mut i = self
            .points
            .iter()
            .rposition(|&(t, _)| t <= ready)
            .unwrap_or_default();
        loop {
            let t = self.points[i].0.max(ready);
            let end = t + dur;
            // Segments are `[points[k].0, points[k+1].0)`; every one
            // intersecting `[t, end)` must hold `need` processors.
            let ok = self.points[i..]
                .iter()
                .take_while(|&&(pt, _)| pt < end)
                .all(|&(_, free)| free >= need);
            if ok {
                return t;
            }
            i += 1;
        }
    }

    /// Subtracts `need` processors over `[t, t + dur)`.
    fn take(&mut self, t: f64, dur: f64, need: u32) {
        let end = t + dur;
        self.split_at(t);
        self.split_at(end);
        // `split_at` guarantees breakpoints exactly at `t` and `end`,
        // so exact comparisons select precisely the busy segments.
        for p in &mut self.points {
            if p.0 >= t && p.0 < end {
                p.1 -= need;
            }
        }
    }

    fn split_at(&mut self, t: f64) {
        match self.points.binary_search_by(|p| p.0.total_cmp(&t)) {
            Ok(_) => {}
            Err(i) => {
                let free = self.points[i - 1].1;
                self.points.insert(i, (t, free));
            }
        }
    }
}

/// Upward ranks: mean execution time over the task's legal
/// allocations, plus the heaviest-ranked successor.
fn upward_ranks(ir: &WorkflowIr, d: &impl Durations) -> Vec<f64> {
    let order = ir.dag.topo_sort().expect("validated");
    let n = ir.node_count();
    let mut rank = vec![0.0f64; n];
    for &v in order.iter().rev() {
        let node = ir.dag.node(v);
        let (lo, hi) = (node.kind.min_procs(), node.kind.max_procs());
        let mut sum = 0.0;
        for a in lo..=hi {
            sum += node.secs(a, d);
        }
        let mean = sum / (hi - lo + 1) as f64;
        let tail = ir
            .dag
            .successors(v)
            .iter()
            .map(|s| rank[s.index()])
            .fold(0.0f64, f64::max);
        rank[v.index()] = mean + tail;
    }
    rank
}

/// Schedules a workflow with moldable HEFT on `r` processors.
pub fn heft(ir: &WorkflowIr, d: &impl Durations, r: u32) -> Result<IrSchedule, IrExecError> {
    check_input(ir, r)?;
    let n = ir.node_count();

    let rank = upward_ranks(ir, d);
    let mut order: Vec<NodeId> = ir.dag.node_ids().collect();
    // Decreasing rank; ties toward the smaller node id. Predecessors
    // always rank strictly above successors, so this is a valid
    // scheduling order.
    order.sort_by(|a, b| {
        rank[b.index()]
            .total_cmp(&rank[a.index()])
            .then(a.0.cmp(&b.0))
    });

    let mut profile = Profile::new(r);
    let mut finish = vec![0.0f64; n];
    let mut records = Vec::with_capacity(n);
    let mut makespan = 0.0f64;
    for v in order {
        let node = ir.dag.node(v);
        let ready = ir
            .dag
            .predecessors(v)
            .iter()
            .map(|p| finish[p.index()])
            .fold(0.0f64, f64::max);
        // Try every allocation; keep the earliest finish (ties toward
        // fewer processors, which the ascending scan gives us).
        let (lo, hi) = (node.kind.min_procs(), node.kind.max_procs().min(r));
        let mut best: Option<(f64, f64, u32)> = None; // (end, start, procs)
        for a in lo..=hi {
            let dur = node.secs(a, d);
            let start = profile.find(ready, dur, a);
            let end = start + dur;
            if best.is_none_or(|(be, _, _)| end + 1e-12 < be) {
                best = Some((end, start, a));
            }
        }
        let (end, start, procs) = best.expect("lo <= hi by DoesNotFit check");
        let dur = end - start;
        profile.take(start, dur, procs);
        finish[v.index()] = end;
        makespan = makespan.max(end);
        records.push(IrRecord {
            node: v,
            procs,
            start,
            end,
        });
    }
    Ok(IrSchedule {
        resources: r,
        records,
        makespan,
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
    fn fused_mesh_schedules_validate() {
        let t = reference();
        for (ns, nm, r) in [(1u32, 3u32, 11u32), (4, 6, 30), (6, 10, 53), (3, 8, 9)] {
            let ir = lower_fused(ExperimentShape::new(ns, nm));
            let s = heft(&ir, &t, r).unwrap();
            s.validate(&ir)
                .unwrap_or_else(|e| panic!("{ns}x{nm} R={r}: {e}"));
            // Never beats the critical path at the fastest allocation.
            let cp = nm as f64 * t.main_secs(11.min(r).max(4)) + t.post_secs();
            assert!(s.makespan + 1e-9 >= cp.min(s.makespan + 1.0));
        }
    }

    #[test]
    fn insertion_backfills_earlier_holes() {
        // A wide task and two narrow ones: the narrow pair fits beside
        // the wide task instead of waiting behind it.
        let t = reference();
        let mut ir = WorkflowIr::new();
        ir.add_task(
            "wide",
            IrTaskKind::Moldable(MoldableSpec {
                min_procs: 8,
                max_procs: 8,
            }),
            DurationModel::Fixed(100.0),
        );
        ir.add_task("n1", IrTaskKind::Rigid(2), DurationModel::Fixed(10.0));
        ir.add_task("n2", IrTaskKind::Rigid(2), DurationModel::Fixed(10.0));
        let s = heft(&ir, &t, 10).unwrap();
        s.validate(&ir).unwrap();
        assert_eq!(s.makespan, 100.0, "{s:?}");
    }

    #[test]
    fn chains_are_discovered_from_ranks() {
        // Two chains of 2 on a pool fitting both at max width: the
        // schedule should run them in parallel.
        let t = reference();
        let mut ir = WorkflowIr::new();
        for c in 0..2 {
            let a = ir.add_task(
                &format!("c{c}a"),
                IrTaskKind::Moldable(MoldableSpec::pcr()),
                DurationModel::MainTable,
            );
            let b = ir.add_task(
                &format!("c{c}b"),
                IrTaskKind::Moldable(MoldableSpec::pcr()),
                DurationModel::MainTable,
            );
            ir.add_dep(a, b).unwrap();
        }
        let s = heft(&ir, &t, 22).unwrap();
        s.validate(&ir).unwrap();
        assert!((s.makespan - 2.0 * t.main_secs(11)).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn too_small_pools_are_rejected() {
        let t = reference();
        let ir = lower_fused(ExperimentShape::new(1, 1));
        assert!(matches!(
            heft(&ir, &t, 3),
            Err(IrExecError::DoesNotFit { .. })
        ));
    }
}
