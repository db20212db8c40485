//! Task vocabulary of the Ocean-Atmosphere application.
//!
//! A monthly simulation (Figure 1 of the paper) is made of seven tasks:
//!
//! * pre-processing: `concatenate_atmospheric_input_files` (**caif**, 1 s)
//!   and `modify_parameters` (**mp**, 1 s);
//! * main-processing: `process_coupled_run` (**pcr**), a *moldable*
//!   multiprocessor task integrating the coupled climate model for one
//!   month (1260 s on the reference configuration);
//! * post-processing: `convert_output_format` (**cof**, 60 s),
//!   `extract_minimum_information` (**emf**, 60 s) and `compress_diags`
//!   (**cd**, 60 s).
//!
//! The scheduler of the paper works on a *fused* model (Figure 2) where
//! the pre-processing tasks are folded into the main task and the three
//! post-processing tasks become a single sequential task.

use serde::{Deserialize, Serialize};

/// Reference duration of `concatenate_atmospheric_input_files`, seconds.
pub const CAIF_SECS: f64 = 1.0;
/// Reference duration of `modify_parameters`, seconds.
pub const MP_SECS: f64 = 1.0;
/// Reference duration of `process_coupled_run` on the reference
/// configuration (the paper benchmarks it at 1260 s), seconds.
pub const PCR_REF_SECS: f64 = 1260.0;
/// Reference duration of `convert_output_format`, seconds.
pub const COF_SECS: f64 = 60.0;
/// Reference duration of `extract_minimum_information`, seconds.
pub const EMF_SECS: f64 = 60.0;
/// Reference duration of `compress_diags`, seconds.
pub const CD_SECS: f64 = 60.0;

/// Duration of the fused post-processing task (`cof` + `emf` + `cd`).
pub const FUSED_POST_SECS: f64 = COF_SECS + EMF_SECS + CD_SECS;
/// Duration of the fused pre-processing work (`caif` + `mp`), folded into
/// the fused main task.
pub const FUSED_PRE_SECS: f64 = CAIF_SECS + MP_SECS;

/// Minimum number of processors a `pcr` task can run on: OPA, TRIP and
/// the OASIS coupler each take one processor and ARPEGE needs at least
/// one.
pub const MIN_PROCS: u32 = 4;
/// Maximum useful number of processors for a `pcr` task: ARPEGE's
/// speedup stops past 8 processors, plus the 3 sequential components.
pub const MAX_PROCS: u32 = 11;
/// Number of distinct group sizes (`4..=11`).
pub const NUM_GROUP_SIZES: usize = (MAX_PROCS - MIN_PROCS + 1) as usize;

/// The kind of a task in the (possibly fused) monthly simulation DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TaskKind {
    /// `concatenate_atmospheric_input_files` — gathers input files.
    Caif,
    /// `modify_parameters` — edits the model parametrization.
    Mp,
    /// `process_coupled_run` — the moldable coupled-model integration.
    Pcr,
    /// `convert_output_format` — standardizes diagnostic files.
    Cof,
    /// `extract_minimum_information` — computes regional/global means.
    Emf,
    /// `compress_diags` — compresses diagnostic files.
    Cd,
    /// Fused main-processing task (pre-processing + `pcr`), Figure 2.
    FusedMain,
    /// Fused post-processing task (`cof` + `emf` + `cd`), Figure 2.
    FusedPost,
}

impl TaskKind {
    /// All seven concrete (unfused) task kinds, in phase order.
    pub const CONCRETE: [TaskKind; 6] = [
        TaskKind::Caif,
        TaskKind::Mp,
        TaskKind::Pcr,
        TaskKind::Cof,
        TaskKind::Emf,
        TaskKind::Cd,
    ];

    /// Short lowercase mnemonic used in traces and Gantt charts.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TaskKind::Caif => "caif",
            TaskKind::Mp => "mp",
            TaskKind::Pcr => "pcr",
            TaskKind::Cof => "cof",
            TaskKind::Emf => "emf",
            TaskKind::Cd => "cd",
            TaskKind::FusedMain => "main",
            TaskKind::FusedPost => "post",
        }
    }

    /// Reference duration on the reference cluster, in seconds.
    ///
    /// For the moldable kinds ([`TaskKind::Pcr`], [`TaskKind::FusedMain`])
    /// this is the duration at the reference allocation benchmarked in
    /// the paper; platform timing tables refine it per group size.
    pub fn reference_secs(self) -> f64 {
        match self {
            TaskKind::Caif => CAIF_SECS,
            TaskKind::Mp => MP_SECS,
            TaskKind::Pcr => PCR_REF_SECS,
            TaskKind::Cof => COF_SECS,
            TaskKind::Emf => EMF_SECS,
            TaskKind::Cd => CD_SECS,
            TaskKind::FusedMain => FUSED_PRE_SECS + PCR_REF_SECS,
            TaskKind::FusedPost => FUSED_POST_SECS,
        }
    }

    /// Which phase of the monthly simulation the task belongs to.
    pub fn phase(self) -> Phase {
        match self {
            TaskKind::Caif | TaskKind::Mp => Phase::Pre,
            TaskKind::Pcr | TaskKind::FusedMain => Phase::Main,
            TaskKind::Cof | TaskKind::Emf | TaskKind::Cd | TaskKind::FusedPost => Phase::Post,
        }
    }
}

/// Phase of a monthly simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Input preparation (seconds of work).
    Pre,
    /// The coupled-model integration (the only parallel phase).
    Main,
    /// Diagnostics conversion, analysis and compression.
    Post,
}

/// Fully qualified identity of a task instance inside an experiment:
/// which scenario, which month, which task of the monthly DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId {
    /// Scenario (ensemble member) index, `0..NS`.
    pub scenario: u32,
    /// Month index within the scenario, `0..NM`.
    pub month: u32,
    /// Which task of the monthly DAG.
    pub kind: TaskKind,
}

impl TaskId {
    /// Creates a task identity.
    pub fn new(scenario: u32, month: u32, kind: TaskKind) -> Self {
        Self {
            scenario,
            month,
            kind,
        }
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "s{}m{}:{}",
            self.scenario,
            self.month,
            self.kind.mnemonic()
        )
    }
}

/// Sum of the sequential reference durations of one month
/// (1 + 1 + 1260 + 60 + 60 + 60 = 1442 s on the reference cluster).
pub fn month_reference_work() -> f64 {
    TaskKind::CONCRETE.iter().map(|k| k.reference_secs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ExperimentShape;
    use crate::ir::{lower_experiment, node_of, IrTaskKind, ReferenceDurations, WorkflowIr};
    use crate::moldable::MoldableSpec;

    #[test]
    fn fused_durations_match_figure_1() {
        assert_eq!(FUSED_POST_SECS, 180.0);
        assert_eq!(FUSED_PRE_SECS, 2.0);
        assert_eq!(TaskKind::FusedMain.reference_secs(), 1262.0);
        assert_eq!(TaskKind::Pcr.reference_secs(), 1260.0);
    }

    /// One month of the unfused lowering: Figure 1's task chain.
    fn month() -> WorkflowIr {
        lower_experiment(ExperimentShape::new(1, 1))
    }

    #[test]
    fn moldable_range_is_4_to_11() {
        let ir = month();
        let pcr = ir.dag.node(node_of(&ir, TaskId::new(0, 0, TaskKind::Pcr)));
        assert_eq!(pcr.kind, IrTaskKind::Moldable(MoldableSpec::pcr()));
        assert_eq!((pcr.kind.min_procs(), pcr.kind.max_procs()), (4, 11));
        assert_eq!(NUM_GROUP_SIZES, 8);
    }

    #[test]
    fn sequential_tasks_take_one_processor() {
        let ir = month();
        for (_, n) in ir.dag.iter() {
            let kind = n.origin.unwrap().kind;
            if kind != TaskKind::Pcr {
                assert_eq!(n.kind, IrTaskKind::Rigid(1), "{kind:?}");
            }
        }
    }

    #[test]
    fn month_has_seven_minus_one_tasks_and_five_edges() {
        // Seven tasks in the paper's prose count the DAG *plus* the data
        // node; the task DAG itself has six task nodes and five edges.
        let ir = month();
        assert_eq!(ir.node_count(), 6);
        assert_eq!(ir.edge_count(), 5);
        ir.validate().unwrap();
    }

    #[test]
    fn month_is_a_chain() {
        let ir = month();
        let caif = node_of(&ir, TaskId::new(0, 0, TaskKind::Caif));
        let cd = node_of(&ir, TaskId::new(0, 0, TaskKind::Cd));
        assert_eq!(ir.dag.sources(), vec![caif]);
        assert_eq!(ir.dag.sinks(), vec![cd]);
        for n in ir.dag.node_ids() {
            assert!(ir.dag.in_degree(n) <= 1);
            assert!(ir.dag.out_degree(n) <= 1);
        }
    }

    #[test]
    fn phases_ordered_pre_main_post() {
        let ir = month();
        let order = ir.dag.topo_sort().unwrap();
        let phases: Vec<Phase> = order
            .iter()
            .map(|&n| ir.dag.node(n).origin.unwrap().kind.phase())
            .collect();
        let mut sorted = phases.clone();
        sorted.sort();
        assert_eq!(phases, sorted);
    }

    #[test]
    fn identities_carry_scenario_and_month() {
        let ir = lower_experiment(ExperimentShape::new(5, 18));
        let t = ir.dag.node(node_of(&ir, TaskId::new(4, 17, TaskKind::Pcr)));
        assert_eq!(t.name, "s4m17:pcr");
    }

    #[test]
    fn reference_work_matches_figure_1_sum() {
        assert_eq!(month_reference_work(), 1442.0);
    }

    #[test]
    fn critical_path_equals_total_work_for_a_chain() {
        let cp = month().critical_path(&ReferenceDurations).unwrap();
        assert_eq!(cp, month_reference_work());
    }

    #[test]
    fn phases_are_assigned_per_figure_1() {
        assert_eq!(TaskKind::Caif.phase(), Phase::Pre);
        assert_eq!(TaskKind::Mp.phase(), Phase::Pre);
        assert_eq!(TaskKind::Pcr.phase(), Phase::Main);
        assert_eq!(TaskKind::Cof.phase(), Phase::Post);
        assert_eq!(TaskKind::Emf.phase(), Phase::Post);
        assert_eq!(TaskKind::Cd.phase(), Phase::Post);
        assert_eq!(TaskKind::FusedMain.phase(), Phase::Main);
        assert_eq!(TaskKind::FusedPost.phase(), Phase::Post);
    }

    #[test]
    fn display_is_compact() {
        let id = TaskId::new(3, 17, TaskKind::Pcr);
        assert_eq!(id.to_string(), "s3m17:pcr");
    }

    #[test]
    fn task_ids_order_by_scenario_then_month() {
        let a = TaskId::new(0, 5, TaskKind::Cd);
        let b = TaskId::new(1, 0, TaskKind::Caif);
        assert!(a < b);
    }
}
