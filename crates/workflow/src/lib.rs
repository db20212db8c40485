//! # oa-workflow — application substrate of the Ocean-Atmosphere reproduction
//!
//! This crate models the climate-prediction application of *"Ocean-
//! Atmosphere Modelization over the Grid"* (Caniou, Caron, Charrier,
//! Chis, Desprez, Maisonnave — INRIA RR-6695 / ICPP 2008):
//!
//! * the task vocabulary and the benchmarked durations of Figure 1
//!   ([`task`]), and the fused task identities and durations of
//!   Figure 2 ([`fusion`]);
//! * the experiment shape, `NS` scenarios of `NM` chained months
//!   ([`chain`]);
//! * a generic DAG container with topological sorting and critical-path
//!   queries ([`dag`]);
//! * moldable-task allocation ranges ([`moldable`]);
//! * data volumes — the 120 MB inter-month hand-off ([`data`]);
//! * static analysis: ASAP/ALAP levels, slack, parallelism width
//!   ([`analysis`]);
//! * the typed workflow IR, the one graph model every layer reads —
//!   arbitrary DAGs of moldable/rigid tasks with duration models and
//!   data-flow edge payloads, plus the lowering of the ocean-atmosphere
//!   presets into it, the reader of independent chains of identical
//!   units out of it ([`ir`]) and its Graphviz rendering ([`dot`]).
//!
//! The crate is deliberately free of scheduling policy: it describes
//! *what* must run and in which order, nothing about *where* or *when*.
//!
//! ## Quick example
//!
//! ```
//! use oa_workflow::prelude::*;
//!
//! // The paper's canonical campaign: 10 scenarios × 150 years.
//! let shape = ExperimentShape::canonical();
//! assert_eq!(shape.total_months(), 18_000);
//!
//! // The fused mesh the scheduler consumes: a main and a post a month.
//! let fused = lower_fused(ExperimentShape::new(2, 3));
//! assert_eq!(fused.node_count(), 12);
//! fused.validate().unwrap();
//! assert_eq!(recognize(&fused), IrClass::FusedMesh(ExperimentShape::new(2, 3)));
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod chain;
pub mod dag;
pub mod data;
pub mod dot;
pub mod fusion;
pub mod ir;
pub mod moldable;
pub mod task;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::analysis::{levels, Levels};
    pub use crate::chain::{ExperimentShape, CANONICAL_MONTHS, CANONICAL_SCENARIOS};
    pub use crate::dag::{Dag, DagError, NodeId};
    pub use crate::data::{DataVolume, INTER_MONTH_TRANSFER};
    pub use crate::dot::ir_dot;
    pub use crate::fusion::{fused_main_secs, fused_post_secs, FusedTask};
    pub use crate::ir::{
        lower_experiment, lower_fused, read_chains, recognize, ChainUnits, DataFlow, DurationModel,
        Durations, IrClass, IrError, IrNode, IrProfile, IrTaskKind, ReferenceDurations, SpecError,
        WorkflowIr,
    };
    pub use crate::moldable::MoldableSpec;
    pub use crate::task::{Phase, TaskId, TaskKind, MAX_PROCS, MIN_PROCS, NUM_GROUP_SIZES};
}
