//! Workflow-layer rules (OA001–OA003, OA019–OA021, plus generalized
//! OA004): shape checks over typed workflow DAGs.
//!
//! Every rule inspects a [`WorkflowIr`], including hand-written or
//! deserialized graphs the presets never produced; the preset
//! lowerings pass them all by construction:
//!
//! * **OA019** — structural validity: the graph must pass
//!   [`WorkflowIr::validate`] (non-empty, acyclic, no dangling data
//!   flows, unique names, sane allocation ranges and durations).
//! * **OA001** — a *fused* graph, one whose every node carries a
//!   `FusedMain` or `FusedPost` origin, reports a cycle as OA001
//!   instead: no execution order exists.
//! * **OA002** — origin-annotated graphs must cover their full
//!   `NS × NM` mesh: every `(scenario, month)` needs its task(s).
//! * **OA003** — a fused graph that covers its mesh must have exactly
//!   the Figure 2 edges, `main → post` and `main → next main`.
//! * **OA020** — a graph whose every node claims a preset origin must
//!   *be* the canonical lowering of that preset; annotations that
//!   survive structural drift are lies.
//! * **OA004 (generalized, warning)** — moldable allocation ranges
//!   outside the benchmarked `4..=11` envelope run on clamped timings
//!   and deserve a flag, though they are legal in the IR.
//! * **OA021** — data-flow payloads: zero-volume flows are
//!   meaningless, and an annotated mesh's total volume must equal the
//!   `NS · (NM − 1)` instances of the 120 MB inter-month hand-off.

use oa_workflow::dag::NodeId;
use oa_workflow::data::INTER_MONTH_TRANSFER;
use oa_workflow::ir::{recognize, IrClass, IrError, WorkflowIr};
use oa_workflow::task::{TaskId, TaskKind, MAX_PROCS, MIN_PROCS};

use crate::diag::{Diagnostic, Location, RuleCode, Severity};

/// Runs the IR shape rules over a workflow, collecting every finding.
pub fn check_ir(ir: &WorkflowIr) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // A fused graph: every node lowers a task of the Figure 2 mesh.
    let fused = ir.dag.iter().all(|(_, n)| {
        n.origin
            .is_some_and(|o| matches!(o.kind, TaskKind::FusedMain | TaskKind::FusedPost))
    });

    // OA019 (OA001 for a cycle in a fused graph): structural
    // validation. An invalid graph makes the deeper walks meaningless
    // (a cyclic graph has no lowering to compare against), so stop
    // here when it fires.
    if let Err(e) = ir.validate() {
        out.push(if fused && matches!(e, IrError::Cyclic) {
            Diagnostic::new(
                RuleCode::DagCycle,
                "fused DAG contains a cycle: no execution order exists",
            )
        } else {
            Diagnostic::new(
                RuleCode::IrStructureInvalid,
                format!("workflow IR fails validation: {e}"),
            )
            .with("nodes", ir.node_count() as f64)
        });
        return out;
    }

    let annotated = ir.dag.iter().all(|(_, n)| n.origin.is_some());
    if annotated {
        // The shape the annotations claim, in `u64`: one node can claim
        // any `u32` scenario and month.
        let (mut ns, mut nm) = (0u64, 0u64);
        for (_, n) in ir.dag.iter() {
            let o = n.origin.expect("all annotated");
            ns = ns.max(u64::from(o.scenario) + 1);
            nm = nm.max(u64::from(o.month) + 1);
        }
        let months = ns.saturating_mul(nm);
        let nodes = ir.node_count() as u64;

        // OA002 generalized: full mesh coverage. A covering mesh has at
        // least one node per month, so a claim of more months than
        // nodes is one finding rather than a walk over the claim.
        if months > nodes {
            out.push(
                Diagnostic::new(
                    RuleCode::IncompleteChain,
                    format!(
                        "annotated {ns}x{nm} mesh claims {months} months but has only {nodes} nodes"
                    ),
                )
                .with("scenarios", ns as f64)
                .with("months", nm as f64)
                .with("nodes", nodes as f64),
            );
        } else {
            // Mark the months present; a hole means an incomplete chain.
            let mut seen = vec![false; months as usize];
            for (_, n) in ir.dag.iter() {
                let o = n.origin.expect("all annotated");
                seen[(u64::from(o.scenario) * nm + u64::from(o.month)) as usize] = true;
            }
            for (i, _) in seen.iter().enumerate().filter(|&(_, &hit)| !hit) {
                // Below the claim, so both fit the `u32` origins.
                let (s, m) = ((i as u64 / nm) as u32, (i as u64 % nm) as u32);
                out.push(
                    Diagnostic::new(
                        RuleCode::IncompleteChain,
                        format!(
                            "annotated {ns}x{nm} mesh has no task for month {m} of scenario {s}"
                        ),
                    )
                    .at(Location {
                        scenario: Some(s),
                        month: Some(m),
                        ..Location::default()
                    }),
                );
            }
        }

        // OA003: a fused graph that covers its mesh has exactly the
        // Figure 2 edges. Holes are OA002's finding; degree checks
        // around them would only repeat it with noisier messages.
        if fused && out.is_empty() {
            check_fusion_edges(ir, nm, &mut out);
        }

        // OA020: the annotations must describe a real preset lowering.
        // Node counts come from the claimed shape (two tasks a month
        // fused, six unfused), and only a graph of a preset's node
        // count is handed to `recognize`, so no mesh of the claimed
        // shape is ever built for a graph that cannot be it.
        let which = if Some(nodes) == months.checked_mul(2) {
            "fused"
        } else if Some(nodes) == months.checked_mul(6) {
            "unfused"
        } else {
            "any"
        };
        if which == "any" || recognize(ir) == IrClass::General {
            out.push(
                Diagnostic::new(
                    RuleCode::IrPresetDrift,
                    format!(
                        "every node claims a {ns}x{nm} preset origin, but the graph is not the {which} lowering of that shape"
                    ),
                )
                .with("scenarios", ns as f64)
                .with("months", nm as f64),
            );
        }

        // OA021: the mesh hand-off budget. NS scenarios with NM months
        // carry exactly NS · (NM − 1) inter-month transfers.
        let expected = INTER_MONTH_TRANSFER
            .0
            .saturating_mul(ns)
            .saturating_mul(nm.saturating_sub(1));
        let actual = ir.total_flow().0;
        if actual != expected {
            out.push(
                Diagnostic::new(
                    RuleCode::IrFlowMismatch,
                    format!(
                        "annotated {ns}x{nm} mesh should carry {expected} B of inter-month hand-off, found {actual} B"
                    ),
                )
                .with("expected_bytes", expected as f64)
                .with("actual_bytes", actual as f64),
            );
        }
    }

    // OA004 generalized: moldable ranges off the benchmarked envelope.
    for (id, n) in ir.dag.iter() {
        if !n.kind.is_moldable() {
            continue;
        }
        let (lo, hi) = (n.kind.min_procs(), n.kind.max_procs());
        if lo < MIN_PROCS || hi > MAX_PROCS {
            out.push(
                Diagnostic::new(
                    RuleCode::GroupSizeOutOfRange,
                    format!(
                        "moldable task '{}' allows {lo}..={hi} processors, outside the benchmarked {MIN_PROCS}..={MAX_PROCS}: timings will be clamped",
                        n.name
                    ),
                )
                .severity(Severity::Warn)
                .with("node", id.index() as f64)
                .with("min_procs", lo as f64)
                .with("max_procs", hi as f64),
            );
        }
    }

    // OA021 (general): zero-volume flows say "data moves here" while
    // carrying nothing — always a modeling bug.
    for f in &ir.flows {
        if f.volume.0 == 0 {
            out.push(
                Diagnostic::new(
                    RuleCode::IrFlowMismatch,
                    format!(
                        "flow {} -> {} declares zero volume",
                        f.from.index(),
                        f.to.index()
                    ),
                )
                .with("from", f.from.index() as f64)
                .with("to", f.to.index() as f64),
            );
        }
    }

    out
}

/// OA003 over a fused graph that covers its `NS × NM` mesh: each main
/// `(s, m)` has exactly the successors `post(s, m)` and, before the
/// last month, `main(s, m + 1)`; each post has its main as only
/// predecessor and gates nothing. Tasks are found by origin.
fn check_fusion_edges(ir: &WorkflowIr, nm: u64, out: &mut Vec<Diagnostic>) {
    let origin = |n: NodeId| ir.dag.node(n).origin.expect("fused graph");
    for node in ir.dag.node_ids() {
        let o = origin(node);
        let (s, m) = (o.scenario, o.month);
        if o.kind == TaskKind::FusedPost {
            if ir.dag.out_degree(node) != 0 {
                out.push(
                    Diagnostic::new(
                        RuleCode::FusionInconsistent,
                        format!(
                            "post task has {} successor(s); post-processing never gates anything",
                            ir.dag.out_degree(node)
                        ),
                    )
                    .at(Location::post(s, m)),
                );
            }
            if ir.dag.in_degree(node) != 1 {
                out.push(
                    Diagnostic::new(
                        RuleCode::FusionInconsistent,
                        format!(
                            "post task has {} predecessor(s), expected exactly its main",
                            ir.dag.in_degree(node)
                        ),
                    )
                    .at(Location::post(s, m)),
                );
            }
            continue;
        }
        let succ = ir.dag.successors(node);
        let gates = |id: TaskId| succ.iter().any(|&t| origin(t) == id);
        if !gates(TaskId::new(s, m, TaskKind::FusedPost)) {
            out.push(
                Diagnostic::new(
                    RuleCode::FusionInconsistent,
                    "missing main→post edge: the post task is not gated by its month",
                )
                .at(Location::main(s, m))
                .related_to(Location::post(s, m)),
            );
        }
        let last = u64::from(m) + 1 == nm;
        if !last && !gates(TaskId::new(s, m + 1, TaskKind::FusedMain)) {
            out.push(
                Diagnostic::new(
                    RuleCode::FusionInconsistent,
                    "missing main→main edge: month dependence lost at fusion",
                )
                .at(Location::main(s, m))
                .related_to(Location::main(s, m + 1)),
            );
        }
        let expected_out = if last { 1 } else { 2 };
        if succ.len() != expected_out {
            out.push(
                Diagnostic::new(
                    RuleCode::FusionInconsistent,
                    format!(
                        "main task has {} successor(s), fusion produces exactly {expected_out}",
                        succ.len()
                    ),
                )
                .at(Location::main(s, m))
                .with("out_degree", succ.len() as f64),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_workflow::chain::ExperimentShape;
    use oa_workflow::data::DataVolume;
    use oa_workflow::ir::{lower_experiment, lower_fused, DurationModel, IrTaskKind};
    use oa_workflow::moldable::MoldableSpec;

    /// The node of `ir` that lowers `id`.
    fn node(ir: &WorkflowIr, id: TaskId) -> NodeId {
        ir.dag
            .iter()
            .find(|(_, n)| n.origin == Some(id))
            .map(|(node, _)| node)
            .expect("lowered task")
    }

    fn main(s: u32, m: u32) -> TaskId {
        TaskId::new(s, m, TaskKind::FusedMain)
    }

    fn post(s: u32, m: u32) -> TaskId {
        TaskId::new(s, m, TaskKind::FusedPost)
    }

    /// The fused mesh of `shape` without the two tasks of month `m` of
    /// scenario `s`, every other node, edge and flow kept.
    fn fused_without(shape: ExperimentShape, s: u32, m: u32) -> WorkflowIr {
        let full = lower_fused(shape);
        let mut ir = WorkflowIr::new();
        let mut map = vec![None; full.node_count()];
        for (id, n) in full.dag.iter() {
            let o = n.origin.unwrap();
            if (o.scenario, o.month) != (s, m) {
                map[id.index()] = Some(ir.dag.add_node(n.clone()));
            }
        }
        for from in full.dag.node_ids() {
            for &to in full.dag.successors(from) {
                let (Some(a), Some(b)) = (map[from.index()], map[to.index()]) else {
                    continue;
                };
                match full.flow(from, to) {
                    Some(v) => ir.add_flow(a, b, v),
                    None => ir.add_dep(a, b),
                }
                .unwrap();
            }
        }
        ir
    }

    #[test]
    fn lowered_presets_are_clean() {
        for shape in [ExperimentShape::new(3, 4), ExperimentShape::new(1, 1)] {
            assert!(check_ir(&lower_fused(shape)).is_empty());
            assert!(check_ir(&lower_experiment(shape)).is_empty());
        }
    }

    #[test]
    fn invalid_graphs_fire_oa019_and_stop() {
        let ir = WorkflowIr::new();
        let ds = check_ir(&ir);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, RuleCode::IrStructureInvalid);
    }

    #[test]
    fn unannotated_cycles_stay_oa019() {
        let mut ir = WorkflowIr::new();
        let a = ir.add_task("a", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        let b = ir.add_task("b", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        ir.add_dep(a, b).unwrap();
        ir.add_dep(b, a).unwrap();
        let ds = check_ir(&ir);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, RuleCode::IrStructureInvalid);
    }

    #[test]
    fn fused_back_edge_fires_oa001() {
        let mut ir = lower_fused(ExperimentShape::new(1, 3));
        // Back edge: main(0,2) → main(0,0).
        ir.add_dep(node(&ir, main(0, 2)), node(&ir, main(0, 0)))
            .unwrap();
        let ds = check_ir(&ir);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, RuleCode::DagCycle);
        assert_eq!(
            ds[0].message,
            "fused DAG contains a cycle: no execution order exists"
        );
    }

    #[test]
    fn a_missing_month_fires_oa002_there() {
        let ir = fused_without(ExperimentShape::new(2, 3), 0, 1);
        let ds = check_ir(&ir);
        let holes: Vec<_> = ds
            .iter()
            .filter(|d| d.rule == RuleCode::IncompleteChain)
            .collect();
        assert_eq!(holes.len(), 1, "{ds:?}");
        assert_eq!(
            (holes[0].location.scenario, holes[0].location.month),
            (Some(0), Some(1))
        );
        // The hole is not re-reported as fusion edges, and the graph
        // has the node count of neither preset.
        assert!(!ds.iter().any(|d| d.rule == RuleCode::FusionInconsistent));
        let drift = ds
            .iter()
            .find(|d| d.rule == RuleCode::IrPresetDrift)
            .expect("drift");
        assert!(drift.message.contains("not the any lowering"), "{drift:?}");
    }

    #[test]
    fn a_claim_larger_than_the_graph_fires_one_oa002() {
        // Two nodes claiming scenario and month 70,000: the claimed
        // 70,001 × 70,001 mesh would need 4.9 · 10^9 coverage cells.
        let mut ir = lower_fused(ExperimentShape::new(1, 1));
        for (id, kind) in [
            (node(&ir, main(0, 0)), TaskKind::FusedMain),
            (node(&ir, post(0, 0)), TaskKind::FusedPost),
        ] {
            ir.dag.node_mut(id).origin = Some(TaskId::new(70_000, 70_000, kind));
        }
        let ds = check_ir(&ir);
        let holes: Vec<_> = ds
            .iter()
            .filter(|d| d.rule == RuleCode::IncompleteChain)
            .collect();
        assert_eq!(holes.len(), 1, "{ds:?}");
        assert_eq!(
            holes[0].message,
            "annotated 70001x70001 mesh claims 4900140001 months but has only 2 nodes"
        );
        assert_eq!(holes[0].quantity("nodes"), Some(2.0));
    }

    #[test]
    fn post_gating_a_main_fires_oa003_at_the_post() {
        let mut ir = lower_fused(ExperimentShape::new(1, 2));
        // Forbidden edge: post(0,0) → main(0,1).
        ir.add_dep(node(&ir, post(0, 0)), node(&ir, main(0, 1)))
            .unwrap();
        let ds = check_ir(&ir);
        let fusion: Vec<_> = ds
            .iter()
            .filter(|d| d.rule == RuleCode::FusionInconsistent)
            .collect();
        assert_eq!(fusion.len(), 1, "{ds:?}");
        assert_eq!(fusion[0].location, Location::post(0, 0));
        assert_eq!(
            fusion[0].message,
            "post task has 1 successor(s); post-processing never gates anything"
        );
    }

    #[test]
    fn lost_fusion_edges_fire_oa003_at_the_main() {
        // The fused mesh of 1 × 2 without main(0,0) → main(0,1): the
        // month dependence is gone, and main(0,0) has one successor.
        let full = lower_fused(ExperimentShape::new(1, 2));
        let mut ir = WorkflowIr::new();
        for (_, n) in full.dag.iter() {
            ir.dag.add_node(n.clone());
        }
        ir.add_dep(node(&ir, main(0, 0)), node(&ir, post(0, 0)))
            .unwrap();
        ir.add_dep(node(&ir, main(0, 1)), node(&ir, post(0, 1)))
            .unwrap();
        let ds = check_ir(&ir);
        let fusion: Vec<_> = ds
            .iter()
            .filter(|d| d.rule == RuleCode::FusionInconsistent)
            .map(|d| (d.location.clone(), d.message.as_str()))
            .collect();
        assert_eq!(
            fusion,
            [
                (
                    Location::main(0, 0),
                    "missing main→main edge: month dependence lost at fusion"
                ),
                (
                    Location::main(0, 0),
                    "main task has 1 successor(s), fusion produces exactly 2"
                ),
            ],
            "{ds:?}"
        );
    }

    #[test]
    fn drifted_annotations_fire_oa020() {
        // An extra edge breaks structural equality with the lowering
        // while every origin annotation survives.
        let mut ir = lower_fused(ExperimentShape::new(2, 3));
        let ids: Vec<_> = ir.dag.node_ids().collect();
        ir.add_dep(ids[0], *ids.last().unwrap()).unwrap();
        let ds = check_ir(&ir);
        let drift = ds
            .iter()
            .find(|d| d.rule == RuleCode::IrPresetDrift)
            .expect("drift");
        assert!(
            drift.message.contains("not the fused lowering"),
            "{drift:?}"
        );
        // The same drift on the unfused mesh names that lowering.
        let mut ir = lower_experiment(ExperimentShape::new(2, 3));
        let ids: Vec<_> = ir.dag.node_ids().collect();
        ir.add_dep(ids[0], *ids.last().unwrap()).unwrap();
        let ds = check_ir(&ir);
        let drift = ds
            .iter()
            .find(|d| d.rule == RuleCode::IrPresetDrift)
            .expect("drift");
        assert!(
            drift.message.contains("not the unfused lowering"),
            "{drift:?}"
        );
    }

    #[test]
    fn missing_flows_fire_oa021_on_annotated_meshes() {
        let mut ir = lower_fused(ExperimentShape::new(2, 3));
        ir.flows.pop();
        let ds = check_ir(&ir);
        let d = ds
            .iter()
            .find(|d| d.rule == RuleCode::IrFlowMismatch)
            .expect("flow mismatch");
        assert_eq!(
            d.quantity("expected_bytes").unwrap() - d.quantity("actual_bytes").unwrap(),
            INTER_MONTH_TRANSFER.0 as f64
        );
    }

    #[test]
    fn off_envelope_ranges_warn_via_oa004() {
        let mut ir = WorkflowIr::new();
        ir.add_task(
            "wide",
            IrTaskKind::Moldable(MoldableSpec {
                min_procs: 2,
                max_procs: 64,
            }),
            DurationModel::Fixed(10.0),
        );
        let ds = check_ir(&ir);
        let d = ds
            .iter()
            .find(|d| d.rule == RuleCode::GroupSizeOutOfRange)
            .expect("range warning");
        assert_eq!(d.severity, Severity::Warn);
    }

    #[test]
    fn zero_volume_flows_fire_oa021() {
        let mut ir = WorkflowIr::new();
        let a = ir.add_task("a", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        let b = ir.add_task("b", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        ir.add_dep(a, b).unwrap();
        ir.add_flow(a, b, DataVolume(0)).unwrap();
        let ds = check_ir(&ir);
        assert!(
            ds.iter().any(|d| d.rule == RuleCode::IrFlowMismatch),
            "{ds:?}"
        );
    }
}
