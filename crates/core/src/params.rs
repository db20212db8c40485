//! Scheduling-instance parameters and shared notation.
//!
//! Mirrors the notation of Section 4.1 of the paper:
//!
//! * `NS` — number of independent simulations (scenarios);
//! * `NM` — months per simulation;
//! * `R`  — total processors of the (homogeneous) cluster;
//! * `nbtasks = NS × NM` — main tasks (equivalently post tasks);
//! * `nbmax = min(NS, ⌊R/G⌋)` — concurrent multiprocessor tasks for a
//!   group size `G`;
//! * `nbused = nbtasks mod nbmax` — tasks in the last, incomplete set.

use serde::{Deserialize, Serialize};

/// The most months (`NS × NM`) one requested campaign may ask for:
/// 2^20 = 1,048,576, above a capacity-512 request at the paper's
/// `NM = 1800` (921,600 months). The engine sizes its record arena and
/// completion chain by the month count, so [`crate::read::shape`]
/// checks this before anything is sized by the request.
pub const MAX_CAMPAIGN_MONTHS: u64 = 1 << 20;

pub use oa_platform::cluster::MAX_CLUSTER_PROCS;

use oa_workflow::chain::ExperimentShape;

/// One homogeneous scheduling instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instance {
    /// `NS`: number of independent scenarios.
    pub ns: u32,
    /// `NM`: months per scenario.
    pub nm: u32,
    /// `R`: processors available on the cluster.
    pub r: u32,
}

impl Instance {
    /// Builds an instance; all parameters must be positive.
    pub fn new(ns: u32, nm: u32, r: u32) -> Self {
        assert!(ns > 0 && nm > 0, "NS and NM must be positive");
        assert!(r > 0, "R must be positive");
        Self { ns, nm, r }
    }

    /// The paper's canonical experiment on `r` processors.
    pub fn canonical(r: u32) -> Self {
        let shape = ExperimentShape::canonical();
        Self::new(shape.scenarios, shape.months, r)
    }

    /// An instance for an explicit experiment shape.
    pub fn for_shape(shape: ExperimentShape, r: u32) -> Self {
        Self::new(shape.scenarios, shape.months, r)
    }

    /// The experiment shape of this instance.
    pub fn shape(&self) -> ExperimentShape {
        ExperimentShape::new(self.ns, self.nm)
    }

    /// `nbtasks = NS × NM`.
    pub fn nbtasks(&self) -> u64 {
        self.ns as u64 * self.nm as u64
    }

    /// `nbmax = min(NS, ⌊R/G⌋)` for group size `g`; zero when not even
    /// one group fits.
    pub fn nbmax(&self, g: u32) -> u32 {
        debug_assert!(g > 0);
        (self.r / g).min(self.ns)
    }

    /// Same instance with a different processor count.
    pub fn with_resources(&self, r: u32) -> Self {
        Self::new(self.ns, self.nm, r)
    }

    /// Same instance with a different scenario count.
    pub fn with_scenarios(&self, ns: u32) -> Self {
        Self::new(ns, self.nm, self.r)
    }
}

/// Ceiling division for task counts.
#[inline]
pub fn div_ceil_u64(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nbmax_binds_on_scenarios_then_resources() {
        let i = Instance::new(10, 12, 53);
        assert_eq!(i.nbmax(7), 7); // ⌊53/7⌋ = 7 < 10
        assert_eq!(i.nbmax(4), 10); // ⌊53/4⌋ = 13, clamped to NS
        assert_eq!(i.nbmax(11), 4);
        assert_eq!(i.nbtasks(), 120);
    }

    #[test]
    fn nbmax_zero_when_nothing_fits() {
        let i = Instance::new(10, 12, 3);
        assert_eq!(i.nbmax(4), 0);
    }

    #[test]
    fn canonical_matches_paper() {
        let i = Instance::canonical(120);
        assert_eq!((i.ns, i.nm, i.r), (10, 1800, 120));
        assert_eq!(i.shape(), ExperimentShape::canonical());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resources_rejected() {
        Instance::new(1, 1, 0);
    }

    #[test]
    fn with_modifiers() {
        let i = Instance::new(10, 12, 53);
        assert_eq!(i.with_resources(60).r, 60);
        assert_eq!(i.with_scenarios(3).ns, 3);
    }

    #[test]
    fn ceil_div() {
        assert_eq!(div_ceil_u64(10, 3), 4);
        assert_eq!(div_ceil_u64(9, 3), 3);
        assert_eq!(div_ceil_u64(0, 3), 0);
    }
}
