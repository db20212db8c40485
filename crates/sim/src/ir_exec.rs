//! Deterministic execution of arbitrary workflow IRs.
//!
//! Two entry points:
//!
//! * [`execute_ir`] — the workspace's one moldable list scheduler over
//!   a flat pool, its ready set driven purely by IR precedence:
//!   moldable tasks start in strict bottom-level priority order
//!   (head-of-line blocking, no lower-priority task jumps the queue),
//!   rigid tasks backfill FIFO, and events pop in `(time, lineage,
//!   kind, node)` order. Every flat-pool baseline runs on it: CPA, CPR
//!   and one-DAG-at-a-time (`oa-baselines`) pin each scenario's main
//!   to its allocation on the lowered fused mesh and call it.
//!   `tests/ir_equivalence.rs` keeps the seed moldable list scheduler
//!   as its oracle, record for record and bit for bit. [`IrSchedule`]
//!   is the one flat-pool schedule shape and [`IrSchedule::validate`]
//!   the one flat-pool validator; HEFT and co-allocation return them
//!   too, behind the same [`check_input`].
//! * [`simulate_ir`] — the campaign router: recognized preset meshes
//!   go through the legacy [`crate::engine`] (grouped processors,
//!   scenario policies, fault plans, the integer-time kernel —
//!   byte-identical to the pre-IR stack), and everything else runs on
//!   [`execute_ir`]'s flat pool.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use oa_platform::timing::TimingTable;
use oa_sched::grouping::GroupingError;
use oa_sched::heuristics::{Heuristic, HeuristicError};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity};
use oa_sched::time::{time_key, Time, TimeKey};
use oa_trace::Tracer;
use oa_workflow::dag::NodeId;
use oa_workflow::ir::{recognize, Durations, IrClass, IrError, WorkflowIr};

use crate::engine::{simulate_campaign, CampaignOutcome};

/// One executed IR task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrRecord {
    /// The task executed.
    pub node: NodeId,
    /// Processors occupied.
    pub procs: u32,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// A schedule on a flat processor pool: what [`execute_ir`] and the
/// IR baselines of `oa-baselines` return.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrSchedule {
    /// Processors of the flat pool.
    pub resources: u32,
    /// All task records ([`execute_ir`] emits them in start order).
    pub records: Vec<IrRecord>,
    /// Workflow makespan, seconds.
    pub makespan: f64,
}

/// Errors from flat-pool scheduling ([`check_input`]).
#[derive(Debug, Clone, PartialEq)]
pub enum IrExecError {
    /// The workflow failed structural validation.
    Invalid(IrError),
    /// A task needs more processors than the machine has.
    DoesNotFit {
        /// The task concerned.
        node: NodeId,
        /// Its minimum allocation.
        needs: u32,
        /// Processors available.
        resources: u32,
    },
}

impl std::fmt::Display for IrExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrExecError::Invalid(e) => write!(f, "invalid workflow: {e}"),
            IrExecError::DoesNotFit {
                node,
                needs,
                resources,
            } => write!(
                f,
                "node {} needs {needs} processors, the machine has {resources}",
                node.0
            ),
        }
    }
}

impl std::error::Error for IrExecError {}

/// The input check every flat-pool scheduler runs first: the workflow
/// validates, and every task fits a pool of `r` processors at its
/// minimum allocation (the first task that does not is reported).
pub fn check_input(ir: &WorkflowIr, r: u32) -> Result<(), IrExecError> {
    ir.validate().map_err(IrExecError::Invalid)?;
    match ir.dag.iter().find(|(_, node)| node.kind.min_procs() > r) {
        Some((node, n)) => Err(IrExecError::DoesNotFit {
            node,
            needs: n.kind.min_procs(),
            resources: r,
        }),
        None => Ok(()),
    }
}

/// Executes a workflow on a flat pool of `r` processors.
///
/// Allocation rule: a moldable task takes `min(max_procs, r)`
/// processors (never below its minimum — [`IrExecError::DoesNotFit`]
/// otherwise); rigid tasks take exactly their requirement. Priority is
/// the bottom level (longest downstream chain including the task
/// itself) at those allocations; ties break toward the smaller node
/// id, and event completions pop in `(time, lineage, kind, node)`
/// order, so the schedule is a pure function of the workflow.
pub fn execute_ir(ir: &WorkflowIr, d: &impl Durations, r: u32) -> Result<IrSchedule, IrExecError> {
    check_input(ir, r)?;

    let n = ir.node_count();
    let mut alloc = vec![0u32; n];
    let mut dur = vec![0.0f64; n];
    for (id, node) in ir.dag.iter() {
        let a = node.kind.max_procs().min(r).max(node.kind.min_procs());
        alloc[id.index()] = a;
        dur[id.index()] = node.secs(a, d);
    }

    // Bottom levels over the chosen allocations (reverse topological
    // accumulation), and each node's lineage: the smallest source it
    // descends from. Completion ties break lineage-major, moldable
    // before rigid, then by node id — on a lowered mesh that is
    // exactly the `(scenario, main-before-post)` order of the
    // reference list scheduler.
    let order = ir.dag.topo_sort().expect("validated above");
    let mut bottom = vec![0.0f64; n];
    for &node in order.iter().rev() {
        let tail = ir
            .dag
            .successors(node)
            .iter()
            .map(|s| bottom[s.index()])
            .fold(0.0f64, f64::max);
        bottom[node.index()] = dur[node.index()] + tail;
    }
    let mut lineage: Vec<u32> = (0..n as u32).collect();
    for &node in &order {
        for &s in ir.dag.successors(node) {
            lineage[s.index()] = lineage[s.index()].min(lineage[node.index()]);
        }
    }
    let event_key = |v: NodeId| (lineage[v.index()], !ir.dag.node(v).kind.is_moldable(), v);

    // Ready sets: moldable tasks are picked by priority, rigid tasks
    // backfill FIFO in the order they became ready.
    let mut indeg: Vec<usize> = ir.dag.node_ids().map(|v| ir.dag.in_degree(v)).collect();
    let mut ready_moldable: Vec<NodeId> = Vec::new();
    let mut ready_rigid: VecDeque<NodeId> = VecDeque::new();
    let admit = |v: NodeId, mold: &mut Vec<NodeId>, rigid: &mut VecDeque<NodeId>| {
        if ir.dag.node(v).kind.is_moldable() {
            mold.push(v);
        } else {
            rigid.push_back(v);
        }
    };
    for v in ir.dag.node_ids() {
        if indeg[v.index()] == 0 {
            admit(v, &mut ready_moldable, &mut ready_rigid);
        }
    }

    let mut free = r;
    let mut events: BinaryHeap<TimeKey<(u32, bool, NodeId)>> = BinaryHeap::new();
    let mut records = Vec::with_capacity(n);
    let mut makespan = 0.0f64;
    let mut now = 0.0f64;

    loop {
        // Start moldable tasks in strict priority order: the best
        // bottom level first, smaller node id on ties; if the head
        // does not fit, nothing overtakes it. Candidates are scanned
        // in ascending node id so exact ties resolve to the smaller
        // id by first-seen, robustly at any magnitude.
        ready_moldable.sort_unstable();
        loop {
            let mut best: Option<usize> = None;
            for (i, &v) in ready_moldable.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some(b) => bottom[v.index()] > bottom[ready_moldable[b].index()] + 1e-12,
                };
                if better {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            let v = ready_moldable[i];
            if alloc[v.index()] > free {
                break; // head-of-line blocking
            }
            ready_moldable.remove(i);
            free -= alloc[v.index()];
            let end = now + dur[v.index()];
            records.push(IrRecord {
                node: v,
                procs: alloc[v.index()],
                start: now,
                end,
            });
            events.push(time_key(end, event_key(v)));
        }
        // Backfill rigid tasks on whatever is left, FIFO.
        while free > 0 {
            let Some(&v) = ready_rigid.front() else { break };
            if alloc[v.index()] > free {
                break;
            }
            ready_rigid.pop_front();
            free -= alloc[v.index()];
            let end = now + dur[v.index()];
            records.push(IrRecord {
                node: v,
                procs: alloc[v.index()],
                start: now,
                end,
            });
            events.push(time_key(end, event_key(v)));
        }

        // Advance time by one completion.
        let Some(Reverse((Time(t), (_, _, v)))) = events.pop() else {
            break;
        };
        now = t;
        makespan = makespan.max(t);
        free += alloc[v.index()];
        for &s in ir.dag.successors(v) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                admit(s, &mut ready_moldable, &mut ready_rigid);
            }
        }
    }

    Ok(IrSchedule {
        resources: r,
        records,
        makespan,
    })
}

impl IrSchedule {
    /// Validates the schedule against its workflow: every record names
    /// a task of the workflow with a finite, non-empty interval, every
    /// task runs exactly once, no task starts before a predecessor
    /// finishes, and processor usage never exceeds the pool. Only the
    /// records' `procs` count, not the nodes' allocation ranges, so a
    /// schedule of a pinned mesh validates against the unpinned one.
    pub fn validate(&self, ir: &WorkflowIr) -> Result<(), String> {
        let n = ir.node_count();
        if self.records.len() != n {
            return Err(format!("{} records for {n} tasks", self.records.len()));
        }
        let mut iv = vec![None; n];
        for rec in &self.records {
            let Some(slot) = iv.get_mut(rec.node.index()) else {
                return Err(format!("node {} is not in the workflow", rec.node.0));
            };
            if !(rec.start.is_finite() && rec.end.is_finite() && rec.end > rec.start) {
                return Err(format!("bad interval for node {}", rec.node.0));
            }
            if slot.replace((rec.start, rec.end)).is_some() {
                return Err(format!("node {} ran twice", rec.node.0));
            }
        }
        const TOL: f64 = 1e-9;
        for v in ir.dag.node_ids() {
            let (start, _) = iv[v.index()].ok_or_else(|| format!("node {} never ran", v.0))?;
            for &p in ir.dag.predecessors(v) {
                let (_, pend) = iv[p.index()].unwrap();
                if start + TOL < pend {
                    return Err(format!("node {} started before {} finished", v.0, p.0));
                }
            }
        }
        let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(n * 2);
        for rec in &self.records {
            deltas.push((rec.start, rec.procs as i64));
            deltas.push((rec.end, -(rec.procs as i64)));
        }
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used = 0i64;
        for (t, delta) in deltas {
            used += delta;
            if used > self.resources as i64 {
                return Err(format!(
                    "capacity exceeded at t={t}: {used} > {}",
                    self.resources
                ));
            }
        }
        Ok(())
    }
}

/// Outcome of [`simulate_ir`]: which path ran and what it produced.
#[derive(Debug, Clone)]
pub enum IrOutcome {
    /// A recognized preset mesh, executed by the legacy campaign
    /// engine — byte-identical to the pre-IR stack.
    Campaign(CampaignOutcome),
    /// A general workflow, executed by [`execute_ir`] on a flat pool.
    Generic(IrSchedule),
}

/// Errors from [`simulate_ir`].
#[derive(Debug, Clone, PartialEq)]
pub enum IrSimError {
    /// Generic execution failed.
    Exec(IrExecError),
    /// The grouping heuristic failed on the recognized mesh.
    Heuristic(HeuristicError),
    /// The mesh grouping did not validate.
    Grouping(GroupingError),
    /// Fault plans only apply to the grouped mesh engine.
    FaultsUnsupported,
}

impl std::fmt::Display for IrSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrSimError::Exec(e) => write!(f, "{e}"),
            IrSimError::Heuristic(e) => write!(f, "{e}"),
            IrSimError::Grouping(e) => write!(f, "{e}"),
            IrSimError::FaultsUnsupported => {
                write!(f, "fault plans are only supported for preset meshes")
            }
        }
    }
}

impl std::error::Error for IrSimError {}

/// Simulates a workflow campaign on `r` processors.
///
/// Recognized ocean-atmosphere meshes run on the legacy engine with
/// the granularity implied by the mesh (fused or unfused), the given
/// scenario policy/recovery and fault plan — producing exactly the
/// records, metrics and traces of the pre-IR path. General workflows
/// run on [`execute_ir`]; fault plans are rejected there.
#[allow(clippy::too_many_arguments)]
pub fn simulate_ir<T: Tracer>(
    ir: &WorkflowIr,
    table: &TimingTable,
    r: u32,
    heuristic: Heuristic,
    config: &CampaignConfig,
    plan: &FaultPlan,
    tracer: &mut T,
) -> Result<IrOutcome, IrSimError> {
    let class = recognize(ir);
    let shape = match class {
        IrClass::FusedMesh(s) | IrClass::UnfusedMesh(s) => s,
        IrClass::General => {
            if !plan.failures.is_empty() {
                return Err(IrSimError::FaultsUnsupported);
            }
            return execute_ir(ir, table, r)
                .map(IrOutcome::Generic)
                .map_err(IrSimError::Exec);
        }
    };
    let inst = Instance::for_shape(shape, r);
    let grouping = heuristic
        .grouping(inst, table)
        .map_err(IrSimError::Heuristic)?;
    let config = CampaignConfig {
        granularity: match class {
            IrClass::FusedMesh(_) => Granularity::Fused,
            _ => Granularity::Unfused,
        },
        ..*config
    };
    simulate_campaign(inst, table, &grouping, &config, plan, tracer)
        .map(IrOutcome::Campaign)
        .map_err(IrSimError::Grouping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;
    use oa_sched::policy::ScenarioPolicy;
    use oa_trace::NullTracer;
    use oa_workflow::chain::ExperimentShape;
    use oa_workflow::ir::{lower_fused, DurationModel, IrTaskKind};
    use oa_workflow::moldable::MoldableSpec;

    fn table() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    #[test]
    fn general_diamond_respects_precedence() {
        let mut ir = WorkflowIr::new();
        let a = ir.add_task("prep", IrTaskKind::Rigid(1), DurationModel::Fixed(10.0));
        let b = ir.add_task(
            "left",
            IrTaskKind::Moldable(MoldableSpec::pcr()),
            DurationModel::Fixed(100.0),
        );
        let c = ir.add_task(
            "right",
            IrTaskKind::Moldable(MoldableSpec::pcr()),
            DurationModel::Fixed(50.0),
        );
        let d = ir.add_task("join", IrTaskKind::Rigid(2), DurationModel::Fixed(5.0));
        ir.add_dep(a, b).unwrap();
        ir.add_dep(a, c).unwrap();
        ir.add_dep(b, d).unwrap();
        ir.add_dep(c, d).unwrap();
        let s = execute_ir(&ir, &table(), 30).unwrap();
        s.validate(&ir).unwrap();
        // prep [0,10], both branches [10,·] in parallel (11+11 ≤ 30),
        // join after the long branch.
        assert_eq!(s.makespan, 115.0);
    }

    #[test]
    fn too_small_machines_are_rejected() {
        let mut ir = WorkflowIr::new();
        ir.add_task("wide", IrTaskKind::Rigid(64), DurationModel::Fixed(1.0));
        assert!(matches!(
            execute_ir(&ir, &table(), 8),
            Err(IrExecError::DoesNotFit { needs: 64, .. })
        ));
    }

    #[test]
    fn router_sends_meshes_to_the_engine() {
        let table = table();
        let shape = ExperimentShape::new(3, 4);
        let ir = lower_fused(shape);
        let out = simulate_ir(
            &ir,
            &table,
            30,
            Heuristic::Knapsack,
            &CampaignConfig::fused(ScenarioPolicy::LeastAdvanced),
            &FaultPlan::default(),
            &mut NullTracer,
        )
        .unwrap();
        let IrOutcome::Campaign(CampaignOutcome::Completed(run)) = out else {
            panic!("mesh should complete on the engine");
        };
        assert!(run.makespan > 0.0);
    }

    #[test]
    fn router_rejects_faults_on_general_workflows() {
        let mut ir = WorkflowIr::new();
        ir.add_task("solo", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        let plan = FaultPlan {
            failures: vec![(0, 10.0)],
        };
        assert_eq!(
            simulate_ir(
                &ir,
                &table(),
                8,
                Heuristic::Knapsack,
                &CampaignConfig::default(),
                &plan,
                &mut NullTracer,
            )
            .err(),
            Some(IrSimError::FaultsUnsupported)
        );
    }
}
