//! Clusters: homogeneous pools of processors with one timing table.
//!
//! "Grid'5000 is a grid composed of several clusters. Each cluster is
//! composed of homogeneous resources but differs from one another."
//! (paper, Section 5)

use serde::{Deserialize, Serialize};

use oa_workflow::task::MIN_PROCS;

use crate::speedup::PcrModel;
use crate::timing::{TimingError, TimingTable};

/// The most processors one requested cluster may have: 1,024, well
/// above the paper's largest `R` of 120. Planners and engines size
/// tables and pools by `R`: the knapsack DP's cardinality saturates at
/// `R/4`, so a cluster at the cap builds a table of at most 1,025 ×
/// 257 cells per group size whatever the requested scenario count,
/// and the engine's post pool holds at most `R` entries.
pub const MAX_CLUSTER_PROCS: u32 = 1024;

/// A requested processor count outside
/// `MIN_PROCS..=`[`MAX_CLUSTER_PROCS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcsError {
    /// Fewer processors than the smallest group.
    TooFew(u32),
    /// More processors than [`MAX_CLUSTER_PROCS`].
    OverCap(u32),
}

impl std::fmt::Display for ProcsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcsError::TooFew(r) => {
                write!(f, "{r} processors; the smallest group needs {MIN_PROCS}")
            }
            ProcsError::OverCap(r) => {
                write!(f, "{r} processors, over the cap of {MAX_CLUSTER_PROCS}")
            }
        }
    }
}

/// The one range check on a requested cluster's processor count, run
/// before anything is built or sized by it: every front end reads a
/// cluster through it (`oa_sched::read`, and [`crate::import`] for
/// benchmark files). [`Cluster::new`] asserts the floor.
pub fn check_procs(resources: u32) -> Result<u32, ProcsError> {
    match resources {
        r if r < MIN_PROCS => Err(ProcsError::TooFew(r)),
        r if r > MAX_CLUSTER_PROCS => Err(ProcsError::OverCap(r)),
        r => Ok(r),
    }
}

/// Identifier of a cluster inside a [`crate::grid::Grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Index into grid-parallel arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster#{}", self.0)
    }
}

/// A homogeneous cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Human-readable name (Grid'5000 clusters are named).
    pub name: String,
    /// Number of processors, `R`.
    pub resources: u32,
    /// Benchmarked timing table for this cluster's hardware.
    pub timing: TimingTable,
}

impl Cluster {
    /// Builds a cluster; rejects degenerate processor counts (below the
    /// smallest legal group, nothing can ever run).
    pub fn new(name: impl Into<String>, resources: u32, timing: TimingTable) -> Self {
        assert!(
            resources >= 4,
            "a cluster needs at least 4 processors to run any pcr"
        );
        Self {
            name: name.into(),
            resources,
            timing,
        }
    }

    /// Builds a cluster from a speedup model and a relative speed
    /// factor (1.0 = reference hardware).
    pub fn from_model(
        name: impl Into<String>,
        resources: u32,
        model: &PcrModel,
        speed_factor: f64,
    ) -> Result<Self, TimingError> {
        Ok(Self::new(name, resources, model.table(speed_factor)?))
    }

    /// Duration of one `pcr` (fused main) on 11 processors — the
    /// figure the paper uses to compare cluster speeds (1177 s fastest,
    /// 1622 s slowest).
    pub fn headline_secs(&self) -> f64 {
        self.timing.main_secs(11)
    }

    /// Returns a copy with a different processor count (used by the
    /// resource sweeps of Figures 8 and 10).
    pub fn with_resources(&self, resources: u32) -> Self {
        Self::new(self.name.clone(), resources, self.timing.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_model_reference() {
        let c = Cluster::from_model("ref", 64, &PcrModel::reference(), 1.0).unwrap();
        assert_eq!(c.resources, 64);
        assert!((c.headline_secs() - 1262.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 4 processors")]
    fn tiny_cluster_rejected() {
        let t = PcrModel::reference().table(1.0).unwrap();
        Cluster::new("nope", 3, t);
    }

    #[test]
    fn with_resources_keeps_timing() {
        let c = Cluster::from_model("ref", 64, &PcrModel::reference(), 1.0).unwrap();
        let d = c.with_resources(128);
        assert_eq!(d.resources, 128);
        assert_eq!(d.timing, c.timing);
        assert_eq!(d.name, "ref");
    }

    #[test]
    fn speed_factor_slows_headline() {
        let m = PcrModel::reference();
        let fast = Cluster::from_model("fast", 32, &m, 0.9).unwrap();
        let slow = Cluster::from_model("slow", 32, &m, 1.3).unwrap();
        assert!(fast.headline_secs() < slow.headline_secs());
    }

    #[test]
    fn cluster_id_display() {
        assert_eq!(ClusterId(3).to_string(), "cluster#3");
        assert_eq!(ClusterId(3).index(), 3);
    }
}
