//! Moldable-task descriptors.
//!
//! `process_coupled_run` is a *moldable* task: the scheduler chooses,
//! before launch, how many processors it runs on (the allocation cannot
//! change afterwards — the tasks are moldable, not malleable). ARPEGE
//! is MPI-parallel while OPA, TRIP and OASIS are sequential, so a `pcr`
//! on `G` processors devotes `G − 3` of them to the atmosphere, and the
//! atmosphere stops scaling past 8 processors — hence `G ∈ 4..=11`.

use serde::{Deserialize, Serialize};

use crate::task::{MAX_PROCS, MIN_PROCS};

/// The processor range a moldable task accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MoldableSpec {
    /// Smallest legal allocation.
    pub min_procs: u32,
    /// Largest useful allocation.
    pub max_procs: u32,
}

impl Default for MoldableSpec {
    fn default() -> Self {
        Self::pcr()
    }
}

impl MoldableSpec {
    /// The `pcr` range of the paper, `4..=11`.
    pub fn pcr() -> Self {
        Self {
            min_procs: MIN_PROCS,
            max_procs: MAX_PROCS,
        }
    }

    /// All legal allocations, smallest first.
    pub fn allocations(&self) -> impl Iterator<Item = u32> + Clone {
        self.min_procs..=self.max_procs
    }

    /// Number of legal allocations.
    pub fn len(&self) -> usize {
        (self.max_procs - self.min_procs + 1) as usize
    }

    /// Whether the range is empty (never true for well-formed specs).
    pub fn is_empty(&self) -> bool {
        self.max_procs < self.min_procs
    }

    /// Whether `procs` is a legal allocation.
    pub fn accepts(&self, procs: u32) -> bool {
        (self.min_procs..=self.max_procs).contains(&procs)
    }

    /// Index of allocation `procs` into dense per-allocation tables
    /// (`T[G]` arrays), or `None` when out of range.
    pub fn index_of(&self, procs: u32) -> Option<usize> {
        self.accepts(procs)
            .then(|| (procs - self.min_procs) as usize)
    }

    /// The allocation at dense-table index `i`.
    pub fn allocation_at(&self, i: usize) -> Option<u32> {
        let g = self.min_procs + i as u32;
        self.accepts(g).then_some(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::NUM_GROUP_SIZES;

    #[test]
    fn pcr_spec() {
        let s = MoldableSpec::pcr();
        assert_eq!(s.len(), NUM_GROUP_SIZES);
        assert!(!s.is_empty());
        assert_eq!(
            s.allocations().collect::<Vec<_>>(),
            vec![4, 5, 6, 7, 8, 9, 10, 11]
        );
    }

    #[test]
    fn index_round_trip() {
        let s = MoldableSpec::pcr();
        for (i, g) in s.allocations().enumerate() {
            assert_eq!(s.index_of(g), Some(i));
            assert_eq!(s.allocation_at(i), Some(g));
        }
        assert_eq!(s.index_of(3), None);
        assert_eq!(s.index_of(12), None);
        assert_eq!(s.allocation_at(8), None);
    }
}
