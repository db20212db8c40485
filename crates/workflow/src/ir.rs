//! The typed workflow IR — arbitrary DAG workloads over the generic
//! [`Dag`], and the workspace's one graph model.
//!
//! The paper's application is "several 1D-meshes of identical DAGs".
//! This module describes that workload and anything more general: a
//! [`WorkflowIr`] is a [`Dag`] of [`IrNode`]s — each node carries a
//! processor-shape [`IrTaskKind`] (moldable with an allocation range,
//! or rigid) and a [`DurationModel`] — plus optional *data-flow
//! payloads* on precedence edges ([`DataFlow`]). The paper's 120 MB
//! inter-month hand-off becomes one [`DataFlow`] instance per
//! cross-month edge instead of a constant wired through every layer.
//!
//! The ocean-atmosphere experiment is a *preset*: [`lower_fused`]
//! (Figure 2) and [`lower_experiment`] (Figure 1) build its two
//! granularities in a fixed node and edge insertion order, so node
//! ids, topological order and critical paths are stable — pinned
//! against the seed builders, which the IR equivalence proptests keep
//! as their oracle. [`recognize`] classifies an IR back into the preset
//! mesh shapes — downstream schedulers use it to route recognized
//! meshes through the campaign engine and everything else through the
//! generic IR executor. [`classify_spec`] gives the same class straight
//! from a JSON spec, without lowering a preset. [`read_chains`] reads
//! any workflow of independent chains of identical units — the
//! workload the paper's conclusion names — for the chain planner.
//!
//! Durations that depend on the platform resolve through the
//! [`Durations`] trait (implemented by `oa-platform`'s `TimingTable`
//! and by [`ReferenceDurations`] for the paper's Figure 1 constants),
//! keeping this crate platform-free.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::analysis::{self, Levels};
use crate::chain::ExperimentShape;
use crate::dag::{Dag, DagError, NodeId};
use crate::data::{DataVolume, INTER_MONTH_TRANSFER};
use crate::moldable::MoldableSpec;
use crate::task::{
    TaskId, TaskKind, CAIF_SECS, CD_SECS, COF_SECS, EMF_SECS, FUSED_POST_SECS, FUSED_PRE_SECS,
    MP_SECS, PCR_REF_SECS,
};

/// How many processors an IR task may occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IrTaskKind {
    /// Moldable: any allocation inside the spec's range.
    Moldable(MoldableSpec),
    /// Rigid: exactly this many processors.
    Rigid(u32),
}

impl IrTaskKind {
    /// Smallest legal allocation.
    pub fn min_procs(&self) -> u32 {
        match self {
            IrTaskKind::Moldable(spec) => spec.min_procs,
            IrTaskKind::Rigid(p) => *p,
        }
    }

    /// Largest legal allocation.
    pub fn max_procs(&self) -> u32 {
        match self {
            IrTaskKind::Moldable(spec) => spec.max_procs,
            IrTaskKind::Rigid(p) => *p,
        }
    }

    /// Whether the allocation is a degree of freedom.
    pub fn is_moldable(&self) -> bool {
        matches!(self, IrTaskKind::Moldable(_))
    }

    /// Number of legal allocations (1 for rigid tasks).
    pub fn allocation_count(&self) -> usize {
        (self.max_procs() - self.min_procs()) as usize + 1
    }
}

/// Resolves platform-dependent task durations. `oa-platform`'s
/// `TimingTable` implements this; [`ReferenceDurations`] provides the
/// paper's Figure 1 reference constants for platform-free analysis.
pub trait Durations {
    /// Fused main-task entry `T[procs]` (pre-processing + coupled run).
    fn main_secs(&self, procs: u32) -> f64;

    /// Sequential post entry `TP`.
    fn post_secs(&self) -> f64;

    /// Coupled-run (`pcr`) duration alone: the fused entry minus the
    /// cluster-speed-scaled pre-processing, exactly as the unfused
    /// engine subtracts it.
    fn pcr_secs(&self, procs: u32) -> f64 {
        self.main_secs(procs) - FUSED_PRE_SECS * (self.post_secs() / FUSED_POST_SECS)
    }
}

/// The paper's reference-cluster constants (Figure 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceDurations;

impl Durations for ReferenceDurations {
    fn main_secs(&self, _procs: u32) -> f64 {
        FUSED_PRE_SECS + PCR_REF_SECS
    }

    fn post_secs(&self) -> f64 {
        FUSED_POST_SECS
    }
}

/// How an IR task's duration is determined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DurationModel {
    /// A fixed number of seconds, independent of platform and
    /// allocation.
    Fixed(f64),
    /// A reference-cluster constant scaled by cluster speed
    /// (`secs × TP / 180`), like the unfused engine's pre/post steps.
    Scaled(f64),
    /// The platform's fused main entry `T[alloc]`.
    MainTable,
    /// The coupled run alone: `T[alloc]` minus the scaled
    /// pre-processing.
    PcrTable,
    /// The platform's sequential post entry `TP`.
    PostTable,
    /// Explicit per-allocation seconds: entry `i` is the duration at
    /// allocation `min_procs + i`.
    PerAllocation(Vec<f64>),
}

/// One task of a workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrNode {
    /// Workflow-unique display name.
    pub name: String,
    /// Processor shape.
    pub kind: IrTaskKind,
    /// Duration model.
    pub duration: DurationModel,
    /// The ocean-atmosphere task this node lowers, when it does
    /// (presets set it; hand-written workflows leave it `None`).
    pub origin: Option<TaskId>,
}

impl IrNode {
    /// Duration at allocation `alloc` under the resolver `d`.
    ///
    /// # Panics
    ///
    /// Panics if a [`DurationModel::PerAllocation`] vector does not
    /// cover `alloc` (callers validate first).
    pub fn secs(&self, alloc: u32, d: &impl Durations) -> f64 {
        match &self.duration {
            DurationModel::Fixed(s) => *s,
            DurationModel::Scaled(s) => s * (d.post_secs() / FUSED_POST_SECS),
            DurationModel::MainTable => d.main_secs(alloc),
            DurationModel::PcrTable => d.pcr_secs(alloc),
            DurationModel::PostTable => d.post_secs(),
            DurationModel::PerAllocation(v) => v[(alloc - self.kind.min_procs()) as usize],
        }
    }

    /// Duration at the node's largest allocation under `d` — the value
    /// level/critical-path analyses use.
    pub fn best_secs(&self, d: &impl Durations) -> f64 {
        self.secs(self.kind.max_procs(), d)
    }
}

/// A data-flow payload attached to a precedence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataFlow {
    /// Producing node.
    pub from: NodeId,
    /// Consuming node.
    pub to: NodeId,
    /// Bytes handed over.
    pub volume: DataVolume,
}

/// A typed workflow: the task DAG plus data-flow edge payloads.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkflowIr {
    /// The precedence DAG.
    pub dag: Dag<IrNode>,
    /// Data-flow payloads; every `(from, to)` must be a DAG edge.
    pub flows: Vec<DataFlow>,
}

/// Validation errors over a [`WorkflowIr`]. The first three variants
/// are the *malformed DAG* class the service maps to `PROTO009`.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// The workflow has no tasks.
    Empty,
    /// The precedence graph has a cycle.
    Cyclic,
    /// A data flow references a pair that is not a DAG edge.
    DanglingFlow {
        /// Producing endpoint as given.
        from: NodeId,
        /// Consuming endpoint as given.
        to: NodeId,
    },
    /// Two tasks share a name.
    DuplicateName(String),
    /// A spec edge endpoint names a task that does not exist.
    UnknownEndpoint(String),
    /// An allocation range is empty or starts at zero.
    BadAllocation {
        /// Offending node.
        node: NodeId,
        /// Range minimum.
        min: u32,
        /// Range maximum.
        max: u32,
    },
    /// A duration is non-finite, non-positive, or a per-allocation
    /// vector has the wrong arity.
    BadDuration {
        /// Offending node.
        node: NodeId,
    },
    /// The underlying DAG is structurally broken.
    Graph(DagError),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::Empty => write!(f, "workflow has no tasks"),
            IrError::Cyclic => write!(f, "workflow precedence graph has a cycle"),
            IrError::DanglingFlow { from, to } => write!(
                f,
                "data flow {} -> {} does not follow a precedence edge",
                from.0, to.0
            ),
            IrError::DuplicateName(n) => write!(f, "duplicate task name {n:?}"),
            IrError::UnknownEndpoint(n) => {
                write!(f, "edge endpoint {n:?} names no task")
            }
            IrError::BadAllocation { node, min, max } => {
                write!(f, "node {}: bad allocation range {min}..={max}", node.0)
            }
            IrError::BadDuration { node } => write!(f, "node {}: bad duration", node.0),
            IrError::Graph(e) => write!(f, "broken workflow graph: {e}"),
        }
    }
}

impl std::error::Error for IrError {}

impl WorkflowIr {
    /// An empty workflow.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty workflow with room for `nodes` tasks.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            dag: Dag::with_capacity(nodes),
            flows: Vec::new(),
        }
    }

    /// Adds a task and returns its handle.
    pub fn add_task(&mut self, name: &str, kind: IrTaskKind, duration: DurationModel) -> NodeId {
        self.dag.add_node(IrNode {
            name: name.to_string(),
            kind,
            duration,
            origin: None,
        })
    }

    /// Adds a plain precedence edge.
    pub fn add_dep(&mut self, from: NodeId, to: NodeId) -> Result<(), DagError> {
        self.dag.add_edge(from, to)
    }

    /// Adds a precedence edge carrying a data-flow payload.
    pub fn add_flow(
        &mut self,
        from: NodeId,
        to: NodeId,
        volume: DataVolume,
    ) -> Result<(), DagError> {
        self.dag.add_edge(from, to)?;
        self.flows.push(DataFlow { from, to, volume });
        Ok(())
    }

    /// Number of tasks.
    pub fn node_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.dag.edge_count()
    }

    /// The data volume on edge `(from, to)`, when one is attached.
    pub fn flow(&self, from: NodeId, to: NodeId) -> Option<DataVolume> {
        self.flows
            .iter()
            .find(|fl| fl.from == from && fl.to == to)
            .map(|fl| fl.volume)
    }

    /// Total bytes moved along data-flow edges.
    pub fn total_flow(&self) -> DataVolume {
        self.flows.iter().map(|fl| fl.volume).sum()
    }

    /// Full structural validation: non-empty, acyclic, consistent
    /// flows, sane allocation ranges and durations.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.dag.is_empty() {
            return Err(IrError::Empty);
        }
        self.dag.validate().map_err(|e| match e {
            DagError::Cyclic => IrError::Cyclic,
            other => IrError::Graph(other),
        })?;
        let mut names: Vec<&str> = self.dag.iter().map(|(_, n)| n.name.as_str()).collect();
        names.sort_unstable();
        for pair in names.windows(2) {
            if pair[0] == pair[1] {
                return Err(IrError::DuplicateName(pair[0].to_string()));
            }
        }
        for fl in &self.flows {
            let known = (fl.from.index() < self.dag.node_count())
                && (fl.to.index() < self.dag.node_count())
                && self.dag.successors(fl.from).contains(&fl.to);
            if !known {
                return Err(IrError::DanglingFlow {
                    from: fl.from,
                    to: fl.to,
                });
            }
        }
        for (id, n) in self.dag.iter() {
            let (min, max) = (n.kind.min_procs(), n.kind.max_procs());
            if min == 0 || min > max {
                return Err(IrError::BadAllocation { node: id, min, max });
            }
            let ok = match &n.duration {
                DurationModel::Fixed(s) | DurationModel::Scaled(s) => s.is_finite() && *s > 0.0,
                DurationModel::MainTable | DurationModel::PcrTable | DurationModel::PostTable => {
                    true
                }
                DurationModel::PerAllocation(v) => {
                    v.len() == n.kind.allocation_count()
                        && v.iter().all(|s| s.is_finite() && *s > 0.0)
                }
            };
            if !ok {
                return Err(IrError::BadDuration { node: id });
            }
        }
        Ok(())
    }

    /// Critical-path length with durations resolved through `d` at
    /// each node's best allocation.
    pub fn critical_path(&self, d: &impl Durations) -> Result<f64, DagError> {
        self.dag.critical_path(|_, n| n.best_secs(d))
    }

    /// ASAP/ALAP level analysis with durations resolved through `d`.
    pub fn levels(&self, d: &impl Durations) -> Result<Levels, DagError> {
        analysis::levels(&self.dag, |_, n: &IrNode| n.best_secs(d))
    }

    /// Shape profile of the workflow: the numbers the scheduler plans
    /// from.
    pub fn profile(&self, d: &impl Durations) -> Result<IrProfile, DagError> {
        let levels = self.levels(d)?;
        let moldable = self
            .dag
            .iter()
            .filter(|(_, n)| n.kind.is_moldable())
            .count();
        Ok(IrProfile {
            nodes: self.dag.node_count(),
            edges: self.dag.edge_count(),
            moldable,
            rigid: self.dag.node_count() - moldable,
            sources: self.dag.sources().len(),
            width: levels.max_parallelism(),
            critical_path_secs: levels.span,
            total_flow: self.total_flow(),
        })
    }
}

/// Planning-facing summary of a workflow's shape.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IrProfile {
    /// Task count.
    pub nodes: usize,
    /// Precedence-edge count.
    pub edges: usize,
    /// Moldable task count.
    pub moldable: usize,
    /// Rigid task count.
    pub rigid: usize,
    /// Entry tasks (no predecessors) — the mesh presets have one per
    /// scenario chain.
    pub sources: usize,
    /// Maximum number of tasks overlapping in the ASAP schedule.
    pub width: usize,
    /// Critical-path seconds at best allocations.
    pub critical_path_secs: f64,
    /// Total bytes on data-flow edges.
    pub total_flow: DataVolume,
}

/// Lowers the fused two-task-per-month preset (Figure 2) into the IR.
/// Per scenario and month it inserts the main, then the post, then the
/// `main → post` edge and the `main(n − 1) → main(n)` edge; the 120 MB
/// inter-month hand-off rides the cross-month edges as [`DataFlow`]s.
pub fn lower_fused(shape: ExperimentShape) -> WorkflowIr {
    let mut ir = WorkflowIr::with_capacity(shape.total_months() as usize * 2);
    for s in 0..shape.scenarios {
        let mut prev: Option<NodeId> = None;
        for m in 0..shape.months {
            let id = TaskId::new(s, m, TaskKind::FusedMain);
            let main = ir.dag.add_node(IrNode {
                name: id.to_string(),
                kind: IrTaskKind::Moldable(MoldableSpec::pcr()),
                duration: DurationModel::MainTable,
                origin: Some(id),
            });
            let id = TaskId::new(s, m, TaskKind::FusedPost);
            let post = ir.dag.add_node(IrNode {
                name: id.to_string(),
                kind: IrTaskKind::Rigid(1),
                duration: DurationModel::PostTable,
                origin: Some(id),
            });
            ir.add_dep(main, post).expect("fresh nodes");
            if let Some(prev) = prev {
                ir.add_flow(prev, main, INTER_MONTH_TRANSFER)
                    .expect("forward edge");
            }
            prev = Some(main);
        }
    }
    ir
}

/// Lowers the unfused seven-task preset (Figure 1) into the IR. Per
/// scenario and month it inserts the six tasks in phase order, chains
/// them, then adds the `pcr(n − 1) → caif(n)` edge that carries the
/// 120 MB hand-off.
pub fn lower_experiment(shape: ExperimentShape) -> WorkflowIr {
    let mut ir = WorkflowIr::with_capacity(shape.total_months() as usize * 6);
    let step = |kind: TaskKind| match kind {
        TaskKind::Caif => (IrTaskKind::Rigid(1), DurationModel::Scaled(CAIF_SECS)),
        TaskKind::Mp => (IrTaskKind::Rigid(1), DurationModel::Scaled(MP_SECS)),
        TaskKind::Pcr => (
            IrTaskKind::Moldable(MoldableSpec::pcr()),
            DurationModel::PcrTable,
        ),
        TaskKind::Cof => (IrTaskKind::Rigid(1), DurationModel::Scaled(COF_SECS)),
        TaskKind::Emf => (IrTaskKind::Rigid(1), DurationModel::Scaled(EMF_SECS)),
        TaskKind::Cd => (IrTaskKind::Rigid(1), DurationModel::Scaled(CD_SECS)),
        TaskKind::FusedMain | TaskKind::FusedPost => unreachable!("unfused lowering"),
    };
    for s in 0..shape.scenarios {
        let mut prev_pcr: Option<NodeId> = None;
        for m in 0..shape.months {
            let mut month = [NodeId(0); 6];
            for (i, kind) in TaskKind::CONCRETE.iter().enumerate() {
                let id = TaskId::new(s, m, *kind);
                let (k, dur) = step(*kind);
                month[i] = ir.dag.add_node(IrNode {
                    name: id.to_string(),
                    kind: k,
                    duration: dur,
                    origin: Some(id),
                });
            }
            for w in month.windows(2) {
                ir.add_dep(w[0], w[1]).expect("fresh nodes");
            }
            if let Some(prev) = prev_pcr {
                ir.add_flow(prev, month[0], INTER_MONTH_TRANSFER)
                    .expect("forward edge");
            }
            prev_pcr = Some(month[2]);
        }
    }
    ir
}

/// What [`recognize`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrClass {
    /// The fused ocean-atmosphere mesh of this shape.
    FusedMesh(ExperimentShape),
    /// The unfused (Figure 1) ocean-atmosphere mesh of this shape.
    UnfusedMesh(ExperimentShape),
    /// Anything else — schedulable only by the generic IR path.
    General,
}

impl IrClass {
    /// The mesh shape, when one was recognized.
    pub fn shape(&self) -> Option<ExperimentShape> {
        match self {
            IrClass::FusedMesh(s) | IrClass::UnfusedMesh(s) => Some(*s),
            IrClass::General => None,
        }
    }
}

/// Classifies a workflow: is it (structurally, byte-for-byte) one of
/// the ocean-atmosphere preset meshes? Recognized meshes may be routed
/// through the campaign engine, which is how the IR pipeline keeps
/// preset outputs byte-identical to the pre-IR stack.
pub fn recognize(ir: &WorkflowIr) -> IrClass {
    let mut shape: Option<(u32, u32)> = None;
    let mut fused = true;
    let mut unfused = true;
    for (_, n) in ir.dag.iter() {
        let Some(origin) = n.origin else {
            return IrClass::General;
        };
        match origin.kind {
            TaskKind::FusedMain | TaskKind::FusedPost => unfused = false,
            _ => fused = false,
        }
        let (s, m) = shape.unwrap_or((0, 0));
        shape = Some((s.max(origin.scenario + 1), m.max(origin.month + 1)));
    }
    let Some((ns, nm)) = shape else {
        return IrClass::General;
    };
    let candidate = ExperimentShape::new(ns, nm);
    if fused && *ir == lower_fused(candidate) {
        return IrClass::FusedMesh(candidate);
    }
    if unfused && *ir == lower_experiment(candidate) {
        return IrClass::UnfusedMesh(candidate);
    }
    IrClass::General
}

/// A workflow of independent chains of identical units, as
/// [`read_chains`] reads it: the shape, and the two paths of the first
/// unit of the first chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainUnits {
    /// Independent chains (`NS`).
    pub chains: u32,
    /// Units per chain (`NM`).
    pub units: u32,
    /// The unit's blocking path `b1 → … → bp`, which gates the next
    /// unit of its chain.
    pub blocking: Vec<NodeId>,
    /// The unit's trailing path `t1 → … → tj` off `bp`, which gates
    /// nothing; empty when the unit has none.
    pub trailing: Vec<NodeId>,
}

/// Reads a workflow as independent chains of identical units — the
/// workload the paper's conclusion names, "independent chains of
/// identical DAGs composed of moldable tasks" — or `None` when it is
/// not one (or fails [`WorkflowIr::validate`]).
///
/// Each chain is a weakly connected component with one source, and its
/// units follow each other: a unit is a blocking path `b1 → … → bp`
/// with an optional trailing path `t1 → … → tj` off `bp`, and one
/// hand-off edge `bp → b1` joins each unit to the next. There is no
/// other edge. Every unit of every chain is the same, node for node, in
/// [`IrTaskKind`] and [`DurationModel`]; names, origins and data flows
/// are ignored. The reader follows edges, so the order in which a spec
/// lists its nodes does not matter.
///
/// The graph alone cannot tell a trailing path from blocking work when
/// nothing branches off a chain: with one unit per chain, or with no
/// trailing work, every node blocks, and the unit is the chain's
/// shortest repeating block.
pub fn read_chains(ir: &WorkflowIr) -> Option<ChainUnits> {
    ir.validate().ok()?;
    let dag = &ir.dag;
    if dag.node_ids().any(|v| dag.in_degree(v) > 1) {
        return None;
    }
    let sources = dag.sources();
    let first = *sources.first()?;
    // The first chain up to its first branch, which ends a unit, or to
    // its sink when nothing branches.
    let (mut blocking, mut v) = (vec![first], first);
    let trailing = loop {
        match dag.successors(v) {
            [next] => {
                v = *next;
                blocking.push(v);
            }
            [] => {
                let n = blocking.len();
                let p = (1..=n)
                    .find(|&p| {
                        n.is_multiple_of(p)
                            && blocking.chunks(p).all(|c| same(ir, c, &blocking[..p]))
                    })
                    .expect("the whole path repeats once");
                blocking.truncate(p);
                break Vec::new();
            }
            // The trailing branch runs to a sink; the hand-off branch
            // branches again or, in the last unit, runs further.
            [a, b] => {
                let paths = [*a, *b].into_iter().filter_map(|t| pure_path(ir, t));
                break paths.min_by_key(Vec::len)?;
            }
            _ => return None,
        }
    };
    let units = units_of(ir, first, &blocking, &trailing)?;
    for &source in &sources[1..] {
        if units_of(ir, source, &blocking, &trailing)? != units {
            return None;
        }
    }
    Some(ChainUnits {
        chains: u32::try_from(sources.len()).ok()?,
        units,
        blocking,
        trailing,
    })
}

/// Whether two paths have the same kinds and duration models, node for
/// node.
fn same(ir: &WorkflowIr, a: &[NodeId], b: &[NodeId]) -> bool {
    let node = |v: &NodeId| {
        let n = ir.dag.node(*v);
        (n.kind, &n.duration)
    };
    a.len() == b.len() && a.iter().map(node).eq(b.iter().map(node))
}

/// The path from `v` to a sink, when no node on it branches.
fn pure_path(ir: &WorkflowIr, mut v: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![v];
    loop {
        match ir.dag.successors(v) {
            [] => return Some(path),
            [next] => {
                v = *next;
                path.push(v);
            }
            _ => return None,
        }
    }
}

/// The number of units of the chain from `source` when each is
/// `blocking` then `trailing` node for node, and one hand-off edge
/// joins each unit to the next.
fn units_of(
    ir: &WorkflowIr,
    source: NodeId,
    blocking: &[NodeId],
    trailing: &[NodeId],
) -> Option<u32> {
    let dag = &ir.dag;
    let trails = |v: NodeId| pure_path(ir, v).is_some_and(|path| same(ir, &path, trailing));
    let (mut v, mut units) = (source, 0u32);
    loop {
        let mut unit = vec![v];
        while unit.len() < blocking.len() {
            let [next] = dag.successors(v) else {
                return None;
            };
            v = *next;
            unit.push(v);
        }
        if !same(ir, &unit, blocking) {
            return None;
        }
        units += 1;
        match (trailing.is_empty(), dag.successors(v)) {
            (true, []) => return Some(units),
            (false, [t]) if trails(*t) => return Some(units),
            (true, [next]) => v = *next,
            // Either successor may head the trailing path.
            (false, [t, next] | [next, t]) if trails(*t) => v = *next,
            _ => return None,
        }
    }
}

/// Errors from the JSON workflow-spec front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document parses but describes a structurally malformed DAG
    /// (empty, cyclic, dangling edge, duplicate name) — `PROTO009`.
    Malformed(IrError),
    /// A field is missing, mistyped, or references an unknown name —
    /// `PROTO003` on the wire.
    BadField(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Malformed(e) => write!(f, "malformed workflow DAG: {e}"),
            SpecError::BadField(m) => write!(f, "bad workflow spec: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

fn spec_f64(v: &Value, what: &str) -> Result<f64, SpecError> {
    match v {
        Value::F64(x) if x.is_finite() => Ok(*x),
        Value::I64(x) => Ok(*x as f64),
        Value::U64(x) => Ok(*x as f64),
        _ => Err(SpecError::BadField(format!("{what} must be a number"))),
    }
}

fn spec_u32(v: &Value, what: &str) -> Result<u32, SpecError> {
    match v {
        Value::U64(x) if *x <= u64::from(u32::MAX) => Ok(*x as u32),
        Value::I64(x) if *x >= 0 && *x <= i64::from(u32::MAX) => Ok(*x as u32),
        _ => Err(SpecError::BadField(format!(
            "{what} must be a non-negative integer"
        ))),
    }
}

fn spec_duration(node: &Value, kind: IrTaskKind) -> Result<DurationModel, SpecError> {
    let Some(secs) = node.get("secs") else {
        return Err(SpecError::BadField("node needs a \"secs\" field".into()));
    };
    Ok(match secs {
        Value::Str(s) => match s.as_str() {
            "main" => DurationModel::MainTable,
            "pcr" => DurationModel::PcrTable,
            "post" => DurationModel::PostTable,
            other => {
                return Err(SpecError::BadField(format!(
                    "unknown table reference {other:?}; try \"main\", \"pcr\" or \"post\""
                )))
            }
        },
        Value::Array(items) => {
            let mut v = Vec::with_capacity(items.len());
            for it in items {
                v.push(spec_f64(it, "secs entry")?);
            }
            if v.len() != kind.allocation_count() {
                return Err(SpecError::BadField(format!(
                    "secs array has {} entries, the allocation range has {}",
                    v.len(),
                    kind.allocation_count()
                )));
            }
            DurationModel::PerAllocation(v)
        }
        other => DurationModel::Fixed(spec_f64(other, "secs")?),
    })
}

/// Parses a JSON workflow spec into a validated [`WorkflowIr`].
///
/// Two forms are accepted:
///
/// * the **preset** form,
///   `{"preset": {"ns": N, "nm": M, "granularity": "fused"|"unfused"}}`,
///   which lowers the ocean-atmosphere mesh of that shape;
/// * the **explicit** form,
///   `{"nodes": [{"name", "procs"| "min_procs"+"max_procs", "secs"}...],
///     "edges": [{"from", "to", ("mb")}...]}`,
///   where `secs` is a number (fixed), an array (per allocation), or a
///   table reference (`"main"`, `"pcr"`, `"post"`), and `mb` attaches
///   a data-flow payload to the edge.
///
/// Structural defects (empty graph, cycle, dangling edge, duplicate
/// name) come back as [`SpecError::Malformed`]; everything else as
/// [`SpecError::BadField`].
pub fn from_value(doc: &Value) -> Result<WorkflowIr, SpecError> {
    match preset_header(doc)? {
        Some((shape, true)) => Ok(lower_fused(shape)),
        Some((shape, false)) => Ok(lower_experiment(shape)),
        None => explicit_spec(doc),
    }
}

/// Classifies a JSON workflow spec: exactly
/// `from_value(doc).map(|ir| recognize(&ir))`, errors included, but a
/// preset-form spec is read as its shape and granularity without
/// building its mesh. Only an explicit spec is lifted into the IR and
/// recognized.
///
/// # Examples
///
/// ```
/// use oa_workflow::chain::ExperimentShape;
/// use oa_workflow::ir::{classify_spec, preset_value, IrClass};
///
/// let shape = ExperimentShape::new(10, 1800);
/// let class = classify_spec(&preset_value(shape, true)).unwrap();
/// assert_eq!(class, IrClass::FusedMesh(shape));
/// ```
pub fn classify_spec(doc: &Value) -> Result<IrClass, SpecError> {
    Ok(match preset_header(doc)? {
        Some((shape, true)) => IrClass::FusedMesh(shape),
        Some((shape, false)) => IrClass::UnfusedMesh(shape),
        None => recognize(&explicit_spec(doc)?),
    })
}

/// Reads the preset header of a spec: `Some((shape, fused))` for the
/// preset form, `None` for the explicit form, with every check of the
/// preset form in [`from_value`]'s order.
fn preset_header(doc: &Value) -> Result<Option<(ExperimentShape, bool)>, SpecError> {
    let Value::Object(fields) = doc else {
        return Err(SpecError::BadField(
            "workflow spec must be an object".into(),
        ));
    };
    let Some(preset) = doc.get("preset") else {
        return Ok(None);
    };
    if fields.len() != 1 {
        return Err(SpecError::BadField(
            "a preset spec has exactly one key".into(),
        ));
    }
    let ns = spec_u32(
        preset
            .get("ns")
            .ok_or_else(|| SpecError::BadField("preset needs an \"ns\" field".into()))?,
        "ns",
    )?;
    let nm = spec_u32(
        preset
            .get("nm")
            .ok_or_else(|| SpecError::BadField("preset needs an \"nm\" field".into()))?,
        "nm",
    )?;
    if ns == 0 || nm == 0 {
        return Err(SpecError::Malformed(IrError::Empty));
    }
    let fused = match preset.get("granularity") {
        None => true,
        Some(Value::Str(g)) if g == "fused" => true,
        Some(Value::Str(g)) if g == "unfused" => false,
        Some(_) => {
            return Err(SpecError::BadField(
                "preset granularity must be \"fused\" or \"unfused\"".into(),
            ))
        }
    };
    Ok(Some((ExperimentShape::new(ns, nm), fused)))
}

/// Lifts an explicit-form spec into a validated [`WorkflowIr`]. Names
/// are indexed in an ordered map, so duplicate detection and endpoint
/// lookup stay linear-logarithmic in the spec size.
fn explicit_spec(doc: &Value) -> Result<WorkflowIr, SpecError> {
    let Some(Value::Array(nodes)) = doc.get("nodes") else {
        return Err(SpecError::BadField(
            "spec needs a \"nodes\" array (or a \"preset\" object)".into(),
        ));
    };
    if nodes.is_empty() {
        return Err(SpecError::Malformed(IrError::Empty));
    }
    let mut ir = WorkflowIr::with_capacity(nodes.len());
    let mut names: BTreeMap<&str, NodeId> = BTreeMap::new();
    for node in nodes {
        let Some(Value::Str(name)) = node.get("name") else {
            return Err(SpecError::BadField("every node needs a \"name\"".into()));
        };
        if names.contains_key(name.as_str()) {
            return Err(SpecError::Malformed(IrError::DuplicateName(name.clone())));
        }
        let kind = match (
            node.get("procs"),
            node.get("min_procs"),
            node.get("max_procs"),
        ) {
            (Some(p), None, None) => IrTaskKind::Rigid(spec_u32(p, "procs")?),
            (None, Some(lo), Some(hi)) => {
                let (lo, hi) = (spec_u32(lo, "min_procs")?, spec_u32(hi, "max_procs")?);
                if lo == 0 || lo > hi {
                    return Err(SpecError::BadField(format!(
                        "node {name:?}: bad allocation range {lo}..={hi}"
                    )));
                }
                IrTaskKind::Moldable(MoldableSpec {
                    min_procs: lo,
                    max_procs: hi,
                })
            }
            _ => {
                return Err(SpecError::BadField(format!(
                    "node {name:?} needs either \"procs\" or \"min_procs\"+\"max_procs\""
                )))
            }
        };
        let duration = spec_duration(node, kind)?;
        let id = ir.add_task(name, kind, duration);
        names.insert(name.as_str(), id);
    }
    if let Some(edges) = doc.get("edges") {
        let Value::Array(edges) = edges else {
            return Err(SpecError::BadField("\"edges\" must be an array".into()));
        };
        for edge in edges {
            let endpoint = |key: &str| -> Result<NodeId, SpecError> {
                let Some(Value::Str(n)) = edge.get(key) else {
                    return Err(SpecError::BadField(format!(
                        "every edge needs a {key:?} name"
                    )));
                };
                names
                    .get(n.as_str())
                    .copied()
                    .ok_or_else(|| SpecError::Malformed(IrError::UnknownEndpoint(n.clone())))
            };
            let (from, to) = (endpoint("from")?, endpoint("to")?);
            let added = match edge.get("mb") {
                Some(mb) => {
                    // A volume is a byte count: at least one byte, and
                    // no more than a `u64` holds (2^64 is the first
                    // float past `u64::MAX`).
                    let bytes = (spec_f64(mb, "mb")? * 1e6).round();
                    if !(1.0..u64::MAX as f64).contains(&bytes) {
                        return Err(SpecError::BadField(format!(
                            "mb must round to between 1 and {} bytes",
                            u64::MAX
                        )));
                    }
                    ir.add_flow(from, to, DataVolume(bytes as u64))
                }
                None => ir.add_dep(from, to),
            };
            added.map_err(|e| match e {
                DagError::WouldCycle { .. } | DagError::SelfLoop(_) => {
                    SpecError::Malformed(IrError::Cyclic)
                }
                other => SpecError::Malformed(IrError::Graph(other)),
            })?;
        }
    }
    ir.validate().map_err(SpecError::Malformed)?;
    Ok(ir)
}

/// Renders a workflow back into the explicit JSON-spec form
/// [`from_value`] accepts — the wire encoding of a workflow
/// submission.
pub fn to_spec_value(ir: &WorkflowIr) -> Value {
    let mut nodes = Vec::with_capacity(ir.node_count());
    for (_, n) in ir.dag.iter() {
        let mut fields: Vec<(String, Value)> = vec![("name".into(), Value::Str(n.name.clone()))];
        match n.kind {
            IrTaskKind::Rigid(p) => fields.push(("procs".into(), Value::U64(u64::from(p)))),
            IrTaskKind::Moldable(spec) => {
                fields.push(("min_procs".into(), Value::U64(u64::from(spec.min_procs))));
                fields.push(("max_procs".into(), Value::U64(u64::from(spec.max_procs))));
            }
        }
        let secs = match &n.duration {
            DurationModel::Fixed(s) => Value::F64(*s),
            // The explicit form has no "scaled" spelling; a scaled
            // constant round-trips as its reference value.
            DurationModel::Scaled(s) => Value::F64(*s),
            DurationModel::MainTable => Value::Str("main".into()),
            DurationModel::PcrTable => Value::Str("pcr".into()),
            DurationModel::PostTable => Value::Str("post".into()),
            DurationModel::PerAllocation(v) => {
                Value::Array(v.iter().map(|s| Value::F64(*s)).collect())
            }
        };
        fields.push(("secs".into(), secs));
        nodes.push(Value::Object(fields));
    }
    let mut edges = Vec::with_capacity(ir.edge_count());
    for from in ir.dag.node_ids() {
        for &to in ir.dag.successors(from) {
            let mut fields: Vec<(String, Value)> = vec![
                ("from".into(), Value::Str(ir.dag.node(from).name.clone())),
                ("to".into(), Value::Str(ir.dag.node(to).name.clone())),
            ];
            if let Some(v) = ir.flow(from, to) {
                fields.push(("mb".into(), Value::F64(v.0 as f64 / 1e6)));
            }
            edges.push(Value::Object(fields));
        }
    }
    Value::Object(vec![
        ("nodes".into(), Value::Array(nodes)),
        ("edges".into(), Value::Array(edges)),
    ])
}

/// The preset-form spec document for an ocean-atmosphere mesh.
pub fn preset_value(shape: ExperimentShape, fused: bool) -> Value {
    Value::Object(vec![(
        "preset".into(),
        Value::Object(vec![
            ("ns".into(), Value::U64(u64::from(shape.scenarios))),
            ("nm".into(), Value::U64(u64::from(shape.months))),
            (
                "granularity".into(),
                Value::Str(if fused { "fused" } else { "unfused" }.into()),
            ),
        ]),
    )])
}

/// The node of `ir` whose origin is `id` — how unit tests address the
/// tasks of a lowered mesh.
#[cfg(test)]
pub(crate) fn node_of(ir: &WorkflowIr, id: TaskId) -> NodeId {
    ir.dag
        .iter()
        .find(|(_, n)| n.origin == Some(id))
        .map(|(node, _)| node)
        .expect("the mesh lowers this task")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_critical_paths_match_the_paper() {
        let shape = ExperimentShape::new(1, 3);
        let fused = lower_fused(shape);
        let cp = fused.critical_path(&ReferenceDurations).unwrap();
        assert!((cp - (3.0 * 1262.0 + 180.0)).abs() < 1e-9);
    }

    #[test]
    fn recognizer_round_trips_both_presets() {
        let shape = ExperimentShape::new(2, 3);
        assert_eq!(recognize(&lower_fused(shape)), IrClass::FusedMesh(shape));
        assert_eq!(
            recognize(&lower_experiment(shape)),
            IrClass::UnfusedMesh(shape)
        );
        // A near-mesh with one extra edge is General.
        let mut ir = lower_fused(shape);
        let ids: Vec<NodeId> = ir.dag.node_ids().collect();
        ir.add_dep(ids[0], ids[3]).unwrap();
        assert_eq!(recognize(&ir), IrClass::General);
        // A hand-written workflow is General.
        let mut ir = WorkflowIr::new();
        let a = ir.add_task("a", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        let b = ir.add_task("b", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        ir.add_dep(a, b).unwrap();
        assert_eq!(recognize(&ir), IrClass::General);
    }

    #[test]
    fn validation_catches_each_defect() {
        assert_eq!(WorkflowIr::new().validate(), Err(IrError::Empty));

        let mut ir = WorkflowIr::new();
        let a = ir.add_task("a", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        let b = ir.add_task("a", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        ir.add_dep(a, b).unwrap();
        assert_eq!(ir.validate(), Err(IrError::DuplicateName("a".into())));

        let mut ir = WorkflowIr::new();
        let a = ir.add_task("a", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        let b = ir.add_task("b", IrTaskKind::Rigid(1), DurationModel::Fixed(1.0));
        ir.add_dep(a, b).unwrap();
        ir.flows.push(DataFlow {
            from: b,
            to: a,
            volume: DataVolume::from_mb(1),
        });
        assert!(matches!(ir.validate(), Err(IrError::DanglingFlow { .. })));

        let mut ir = WorkflowIr::new();
        ir.add_task("a", IrTaskKind::Rigid(0), DurationModel::Fixed(1.0));
        assert!(matches!(ir.validate(), Err(IrError::BadAllocation { .. })));

        let mut ir = WorkflowIr::new();
        ir.add_task("a", IrTaskKind::Rigid(1), DurationModel::Fixed(f64::NAN));
        assert!(matches!(ir.validate(), Err(IrError::BadDuration { .. })));

        let mut ir = WorkflowIr::new();
        ir.add_task(
            "a",
            IrTaskKind::Moldable(MoldableSpec::pcr()),
            DurationModel::PerAllocation(vec![1.0; 3]),
        );
        assert!(matches!(ir.validate(), Err(IrError::BadDuration { .. })));
    }

    #[test]
    fn profile_reports_mesh_shape() {
        let shape = ExperimentShape::new(4, 6);
        let p = lower_fused(shape).profile(&ReferenceDurations).unwrap();
        assert_eq!(p.nodes, 48);
        assert_eq!(p.moldable, 24);
        assert_eq!(p.rigid, 24);
        assert_eq!(p.sources, 4);
        // All four chains overlap; posts overlap the next month's main.
        assert!(p.width >= 4);
        assert!((p.critical_path_secs - (6.0 * 1262.0 + 180.0)).abs() < 1e-9);
        assert_eq!(p.total_flow.as_mb(), 4 * 5 * 120);
    }

    #[test]
    fn spec_round_trips_and_classifies_errors() {
        let shape = ExperimentShape::new(2, 2);
        let ir = lower_fused(shape);
        let spec = to_spec_value(&ir);
        let back = from_value(&spec).unwrap();
        // The explicit form drops preset origins, so it is General —
        // but structurally identical.
        assert_eq!(back.node_count(), ir.node_count());
        assert_eq!(back.edge_count(), ir.edge_count());
        assert_eq!(back.flows.len(), ir.flows.len());
        assert_eq!(back.dag.topo_sort().unwrap(), ir.dag.topo_sort().unwrap());

        // Preset form recognizes.
        let preset = from_value(&preset_value(shape, true)).unwrap();
        assert_eq!(recognize(&preset), IrClass::FusedMesh(shape));
        assert_eq!(preset, ir);

        // Error classes.
        let empty = serde_json::from_str::<Value>(r#"{"nodes": [], "edges": []}"#).unwrap();
        assert!(matches!(
            from_value(&empty),
            Err(SpecError::Malformed(IrError::Empty))
        ));
        let dangling = serde_json::from_str::<Value>(
            r#"{"nodes": [{"name": "a", "procs": 1, "secs": 1.0}],
                "edges": [{"from": "a", "to": "ghost"}]}"#,
        )
        .unwrap();
        assert!(matches!(
            from_value(&dangling),
            Err(SpecError::Malformed(IrError::UnknownEndpoint(_)))
        ));
        let cyclic = serde_json::from_str::<Value>(
            r#"{"nodes": [{"name": "a", "procs": 1, "secs": 1.0},
                          {"name": "b", "procs": 1, "secs": 1.0}],
                "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}]}"#,
        )
        .unwrap();
        assert!(matches!(
            from_value(&cyclic),
            Err(SpecError::Malformed(IrError::Cyclic))
        ));
        let bad =
            serde_json::from_str::<Value>(r#"{"nodes": [{"name": "a", "procs": 1}], "edges": []}"#)
                .unwrap();
        assert!(matches!(from_value(&bad), Err(SpecError::BadField(_))));
    }

    /// An explicit chain spec `t0 → t1 → … → t{n−1}` of rigid
    /// one-processor tasks.
    fn chain_spec(n: usize) -> (Vec<Value>, Vec<Value>) {
        let name = |i: usize| Value::Str(format!("t{i}"));
        let nodes = (0..n)
            .map(|i| {
                Value::Object(vec![
                    ("name".into(), name(i)),
                    ("procs".into(), Value::U64(1)),
                    ("secs".into(), Value::F64(1.0)),
                ])
            })
            .collect();
        let edges = (1..n)
            .map(|i| Value::Object(vec![("from".into(), name(i - 1)), ("to".into(), name(i))]))
            .collect();
        (nodes, edges)
    }

    fn spec_of(nodes: Vec<Value>, edges: Vec<Value>) -> Value {
        Value::Object(vec![
            ("nodes".into(), Value::Array(nodes)),
            ("edges".into(), Value::Array(edges)),
        ])
    }

    #[test]
    fn a_40k_node_chain_spec_parses() {
        let (nodes, edges) = chain_spec(40_000);
        let ir = from_value(&spec_of(nodes, edges)).unwrap();
        assert_eq!(ir.node_count(), 40_000);
        assert_eq!(ir.edge_count(), 39_999);
        assert_eq!(ir.dag.node(NodeId(39_999)).name, "t39999");
    }

    #[test]
    fn a_renamed_last_node_is_a_duplicate_of_the_first() {
        let (mut nodes, edges) = chain_spec(40_000);
        let Some(Value::Object(last)) = nodes.last_mut() else {
            unreachable!("chain nodes are objects");
        };
        last[0].1 = Value::Str("t0".into());
        assert_eq!(
            from_value(&spec_of(nodes, edges)),
            Err(SpecError::Malformed(IrError::DuplicateName("t0".into())))
        );
    }

    #[test]
    fn an_edge_to_a_missing_name_is_an_unknown_endpoint() {
        let (nodes, mut edges) = chain_spec(40_000);
        edges.push(Value::Object(vec![
            ("from".into(), Value::Str("t7".into())),
            ("to".into(), Value::Str("ghost".into())),
        ]));
        assert_eq!(
            from_value(&spec_of(nodes, edges)),
            Err(SpecError::Malformed(IrError::UnknownEndpoint(
                "ghost".into()
            )))
        );
    }

    /// An edge volume is a byte count: `mb` must round to at least one
    /// byte and fit a `u64`, so every flow the reader keeps renders back
    /// into a spec it reads again.
    #[test]
    fn edge_volumes_are_byte_counts() {
        let spec = |mb: f64| {
            let (nodes, mut edges) = chain_spec(2);
            let Value::Object(edge) = &mut edges[0] else {
                unreachable!("chain edges are objects");
            };
            edge.push(("mb".into(), Value::F64(mb)));
            spec_of(nodes, edges)
        };
        for mb in [1e-7, 1e300, 0.0, -1.0, 18_446_744_073_709.55] {
            assert!(
                matches!(from_value(&spec(mb)), Err(SpecError::BadField(_))),
                "mb {mb}"
            );
        }
        for (mb, bytes) in [(1e-6, 1), (120.0, 120_000_000)] {
            let ir = from_value(&spec(mb)).unwrap();
            assert_eq!(ir.total_flow(), DataVolume(bytes), "mb {mb}");
            assert_eq!(from_value(&to_spec_value(&ir)).unwrap(), ir, "mb {mb}");
        }
        // The largest `mb` whose byte count stays below 2^64 fits; the
        // next float up is refused above.
        let top = from_value(&spec(18_446_744_073_709.547)).unwrap();
        assert_eq!(top.total_flow(), DataVolume(18_446_744_073_709_547_520));
    }

    #[test]
    fn serde_round_trip_preserves_the_ir() {
        let ir = lower_fused(ExperimentShape::new(2, 3));
        let v = ir.to_value();
        let back = WorkflowIr::from_value(&v).unwrap();
        assert_eq!(back, ir);
    }
}
