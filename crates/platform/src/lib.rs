//! # oa-platform — execution platforms for the Ocean-Atmosphere reproduction
//!
//! The scheduling heuristics of the paper see a platform as timing
//! tables: `T[G]`, the fused main-task duration on a group of
//! `G ∈ 4..=11` processors, and `TP`, the post-processing duration.
//! This crate produces and validates those tables:
//!
//! * [`timing`] — the [`timing::TimingTable`] type and its invariants;
//! * [`speedup`] — the Amdahl-style moldable model of
//!   `process_coupled_run` (sequential OPA/TRIP/OASIS + parallel
//!   ARPEGE over `G − 3` processors) with least-squares calibration;
//! * [`cluster`], [`grid`] — homogeneous clusters and heterogeneous
//!   federations of them;
//! * [`presets`] — the five benchmark clusters of the paper's
//!   simulations (fastest `pcr` on 11 processors: 1177 s, slowest:
//!   1622 s);
//! * [`benchmarks`] — a synthetic benchmark campaign standing in for
//!   the paper's Grid'5000 measurements (noise, repetitions, median
//!   aggregation, model fitting).
//!
//! ```
//! use oa_platform::prelude::*;
//!
//! let grid = benchmark_grid(64);
//! assert_eq!(grid.len(), 5);
//! let fastest = grid.cluster(grid.fastest().unwrap());
//! assert_eq!(fastest.name, "sagittaire");
//! // T[11] < T[4]: more processors never hurt.
//! assert!(fastest.timing.main_secs(11) < fastest.timing.main_secs(4));
//! ```

#![warn(missing_docs)]

pub mod benchmarks;
pub mod cluster;
pub mod grid;
pub mod import;
pub mod presets;
pub mod speedup;
pub mod timing;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::benchmarks::{run_campaign, BenchmarkConfig, CampaignResult, Sample};
    pub use crate::cluster::{Cluster, ClusterId};
    pub use crate::grid::Grid;
    pub use crate::import::{parse_grid, render_grid, ImportError, StanzaProblem};
    pub use crate::presets::{
        benchmark_grid, preset_cluster, reference_cluster, DEFAULT_RESOURCES, FASTEST_T11,
        PRESET_CLUSTERS, SLOWEST_T11,
    };
    pub use crate::speedup::{fit, PcrModel};
    pub use crate::timing::{TimingError, TimingTable};
}
