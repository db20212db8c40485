//! Task fusion: from the seven-task monthly DAG to the two-task model
//! of Figure 2.
//!
//! "Given the short duration of the pre-processing tasks compared to the
//! duration of the main-processing task, we made the decision to group
//! them all in a single task. The same decision was taken for the 3
//! post-processing tasks." (paper, Section 4.1)
//!
//! After fusion a month is a *main* multiprocessor task (pre-processing
//! plus `pcr`) and a *post* sequential task, with dependencies
//! `main(n) → main(n + 1)` and `main(n) → post(n)`. Post-processing
//! never gates the next month. [`crate::ir::lower_fused`] builds that
//! mesh; this module names its tasks and their durations.

use serde::{Deserialize, Serialize};

use crate::task::{TaskId, TaskKind, FUSED_POST_SECS, FUSED_PRE_SECS};

/// Identity of a fused task: `(scenario, month, main-or-post)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FusedTask {
    /// Scenario index.
    pub scenario: u32,
    /// Month index.
    pub month: u32,
    /// `FusedMain` or `FusedPost`.
    pub kind: TaskKind,
}

impl FusedTask {
    /// The fused main task of `(scenario, month)`.
    pub fn main(scenario: u32, month: u32) -> Self {
        Self {
            scenario,
            month,
            kind: TaskKind::FusedMain,
        }
    }

    /// The fused post task of `(scenario, month)`.
    pub fn post(scenario: u32, month: u32) -> Self {
        Self {
            scenario,
            month,
            kind: TaskKind::FusedPost,
        }
    }

    /// The equivalent [`TaskId`].
    pub fn task_id(&self) -> TaskId {
        TaskId::new(self.scenario, self.month, self.kind)
    }
}

/// Duration of the fused main task given the duration of the `pcr` part.
///
/// The paper's `TG` includes data access and redistribution time
/// (Section 4.1); we fold the 2 s of pre-processing in as well.
pub fn fused_main_secs(pcr_secs: f64) -> f64 {
    FUSED_PRE_SECS + pcr_secs
}

/// Duration of the fused post task, `TP` (180 s on the reference
/// cluster; scaled by cluster speed elsewhere).
pub fn fused_post_secs() -> f64 {
    FUSED_POST_SECS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ExperimentShape;
    use crate::ir::{lower_fused, node_of};

    #[test]
    fn fused_counts() {
        let ir = lower_fused(ExperimentShape::new(3, 4));
        assert_eq!(ir.node_count(), 24);
        // Per month: main→post; per scenario 3 chain edges.
        assert_eq!(ir.edge_count(), 3 * (4 + 3));
        ir.validate().unwrap();
    }

    #[test]
    fn figure_2_dependencies() {
        let ir = lower_fused(ExperimentShape::new(1, 2));
        let m0 = node_of(&ir, FusedTask::main(0, 0).task_id());
        let m1 = node_of(&ir, FusedTask::main(0, 1).task_id());
        let p0 = node_of(&ir, FusedTask::post(0, 0).task_id());
        let p1 = node_of(&ir, FusedTask::post(0, 1).task_id());
        assert!(ir.dag.successors(m0).contains(&p0));
        assert!(ir.dag.successors(m0).contains(&m1));
        assert!(ir.dag.successors(m1).contains(&p1));
        // post1 does not gate main2.
        assert!(!ir.dag.reaches(p0, m1));
    }

    #[test]
    fn fused_durations() {
        assert_eq!(fused_main_secs(1260.0), 1262.0);
        assert_eq!(fused_post_secs(), 180.0);
    }

    #[test]
    fn fused_task_identities() {
        let t = FusedTask::main(2, 9);
        assert_eq!(t.task_id(), TaskId::new(2, 9, TaskKind::FusedMain));
        let p = FusedTask::post(2, 9);
        assert!(t < p); // main sorts before post for equal (s, m).
    }
}
