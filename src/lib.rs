//! # ocean-atmosphere
//!
//! A from-scratch Rust reproduction of *"Ocean-Atmosphere Modelization
//! over the Grid"* (Caniou, Caron, Charrier, Chis, Desprez,
//! Maisonnave — INRIA RR-6695 / ICPP 2008): scheduling an ensemble
//! climate-prediction campaign — `NS` independent scenarios, each a
//! chain of `NM` monthly coupled-model runs with a *moldable* main
//! task — on clusters and grids.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`workflow`] | tasks, DAGs, and the typed workflow IR with the paper's mesh as its preset lowering |
//! | [`platform`] | timing tables, moldable speedup model, clusters, grids, presets |
//! | [`knapsack`] | exact bounded knapsack with cardinality constraint (+ greedy, B&B) |
//! | [`sched`] | Equations 1–5, the basic heuristic and Improvements 1–3, Algorithm 1 |
//! | [`par`] | deterministic scoped worker pool: order-preserving `par_map` / `par_sweep` |
//! | [`analyze`] | rule-based static diagnostics: OA001–OA021 over the workflow, scheduling, schedule and platform layers, ND001–ND007 over sources, CT001–CT002 certifying campaigns |
//! | [`sim`] | discrete-event executor, schedule validation, Gantt, metrics, grid runs |
//! | [`trace`] | structured event tracing, metrics registry, Chrome/Gantt exporters |
//! | [`service`] | campaign-as-a-service daemon: line-delimited JSON protocol, admission, virtual time, and the paper's six-step grid protocol as a daemon session |
//! | [`baselines`] | the related work implemented: CPA, CPR, one-DAG-at-a-time, HEFT, co-allocation |
//!
//! ## Quickstart
//!
//! ```
//! use ocean_atmosphere::prelude::*;
//!
//! // A 53-processor cluster benchmarked like the paper's reference.
//! let cluster = reference_cluster(53);
//! let inst = Instance::new(10, 1800, 53);
//!
//! // The paper's best heuristic: knapsack grouping.
//! let grouping = Heuristic::Knapsack.grouping(inst, &cluster.timing).unwrap();
//! let schedule = execute_default(inst, &cluster.timing, &grouping).unwrap();
//! schedule.validate().unwrap();
//! println!("campaign finishes in {:.1} hours", schedule.makespan / 3600.0);
//! ```

#![warn(missing_docs)]

pub use oa_analyze as analyze;
pub use oa_baselines as baselines;
pub use oa_knapsack as knapsack;
pub use oa_par as par;
pub use oa_platform as platform;
pub use oa_sched as sched;
pub use oa_service as service;
pub use oa_sim as sim;
pub use oa_trace as trace;
pub use oa_workflow as workflow;

/// Everything a typical user needs.
pub mod prelude {
    pub use oa_analyze::{catalog, Diagnostic, Layer, Location, Report, RuleCode, Severity};
    pub use oa_platform::prelude::*;
    pub use oa_sched::prelude::*;
    pub use oa_sim::prelude::*;
    pub use oa_trace::prelude::*;
    pub use oa_workflow::prelude::*;
}
