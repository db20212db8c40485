//! Graphviz DOT export for application DAGs.
//!
//! `dot -Tsvg` renders of the monthly chain make Figure 1/2 style
//! pictures straight from the code; the export is also handy for
//! debugging generated experiments ("is the cross-month edge where the
//! paper says it is?").
//!
//! There is one renderer, [`ir_dot`], which draws any [`WorkflowIr`]:
//! nodes are colour-coded by phase (preset lowerings) or by task shape
//! (hand-written workflows), and precedence edges that carry a data
//! flow are labelled with the volume. `oa dot` renders the preset
//! lowerings, [`crate::ir::lower_experiment`] and
//! [`crate::ir::lower_fused`].

use crate::ir::{IrNode, WorkflowIr};
use crate::task::Phase;

/// Escapes a DOT identifier/label.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a workflow IR as DOT: phase/shape colour-coding plus
/// data-volume labels on flow-carrying edges.
pub fn ir_dot(ir: &WorkflowIr, name: &str) -> String {
    let mut out = format!(
        "digraph \"{}\" {{\n  rankdir=LR;\n  node [shape=box, style=filled];\n",
        esc(name)
    );
    for (id, n) in ir.dag.iter() {
        out.push_str(&format!(
            "  n{} [label=\"{}\", fillcolor=\"{}\"];\n",
            id.0,
            esc(&n.name),
            node_color(n)
        ));
    }
    for from in ir.dag.node_ids() {
        for &to in ir.dag.successors(from) {
            match ir.flow(from, to) {
                Some(v) => out.push_str(&format!(
                    "  n{} -> n{} [label=\"{} MB\"];\n",
                    from.0,
                    to.0,
                    v.as_mb()
                )),
                None => out.push_str(&format!("  n{} -> n{};\n", from.0, to.0)),
            }
        }
    }
    out.push_str("}\n");
    out
}

fn node_color(n: &IrNode) -> &'static str {
    match n.origin.map(|id| id.kind.phase()) {
        Some(Phase::Pre) => "lightyellow",
        Some(Phase::Main) => "lightblue",
        Some(Phase::Post) => "lightgrey",
        // Hand-written workflows: colour by task shape.
        None if n.kind.is_moldable() => "lightblue",
        None => "white",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ExperimentShape;
    use crate::ir::{lower_experiment, lower_fused, DurationModel, IrTaskKind};
    use crate::task::TaskKind;

    #[test]
    fn dot_contains_every_node_and_edge() {
        let ir = lower_experiment(ExperimentShape::new(2, 2));
        let dot = ir_dot(&ir, "experiment");
        assert_eq!(dot.matches("fillcolor").count(), ir.node_count());
        assert_eq!(dot.matches(" -> ").count(), ir.edge_count());
        assert!(dot.contains("s0m0:caif"));
        assert!(dot.contains("s1m1:cd"));
        // The cross-month hand-off is drawn with its volume.
        assert!(dot.contains("120 MB"));
    }

    #[test]
    fn fused_mesh_dot_mentions_mains_and_posts() {
        let dot = ir_dot(&lower_fused(ExperimentShape::new(1, 2)), "fused");
        assert!(dot.contains("s0m0:main"));
        assert!(dot.contains("s0m1:post"));
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("120 MB"));
    }

    #[test]
    fn labels_are_escaped() {
        let mut ir = WorkflowIr::new();
        ir.add_task(
            "odd \"name\" \\ here",
            IrTaskKind::Rigid(1),
            DurationModel::Fixed(1.0),
        );
        assert!(ir_dot(&ir, "esc").contains("odd \\\"name\\\" \\\\ here"));
    }

    #[test]
    fn phases_are_color_coded() {
        let dot = ir_dot(&lower_experiment(ExperimentShape::new(1, 1)), "experiment");
        assert!(dot.contains("lightyellow")); // pre
        assert!(dot.contains("lightblue")); // main
        assert!(dot.contains("lightgrey")); // post
    }

    #[test]
    fn general_workflows_color_by_shape() {
        let mut ir = WorkflowIr::new();
        let a = ir.add_task(
            "solve",
            IrTaskKind::Moldable(crate::moldable::MoldableSpec::pcr()),
            DurationModel::Fixed(100.0),
        );
        let b = ir.add_task("reduce", IrTaskKind::Rigid(1), DurationModel::Fixed(10.0));
        ir.add_dep(a, b).unwrap();
        let dot = ir_dot(&ir, "custom");
        assert!(dot.contains("lightblue")); // moldable
        assert!(dot.contains("white")); // rigid
        assert_eq!(dot.matches(" -> ").count(), 1);
    }

    #[test]
    fn mnemonic_covers_all_kinds() {
        for k in TaskKind::CONCRETE {
            assert!(!k.mnemonic().is_empty());
        }
    }
}
