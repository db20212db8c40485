//! Session-resumable driver over the generic campaign engine.
//!
//! `oa-service` keeps many campaigns alive at once on a virtual clock:
//! a session is admitted at some instant, its portion of work starts
//! when its cluster frees up, and the daemon later asks "where is this
//! session *now*?" as the clock advances. The engine itself answers
//! only the batch question (one full run, one outcome), so this module
//! wraps the engine in a [`SessionDriver`]: simulate once at admission,
//! pin the result to a virtual start instant, and resolve any later
//! instant to a [`SessionState`] — no re-simulation, no drift between
//! queries.
//!
//! The admission run records no schedule and traces nothing, so its
//! fused drain may fast-forward by availability, and a drain whose post
//! pool keeps pace with the groups is skipped for its closed form (see
//! the engine's module docs, "The post drain" and "The closed-form
//! drain"). A driver keeps only what a query reads, so a live session
//! costs memory per month, not per task: the makespan, the months lost,
//! the stranded count, the run's [`KernelReport`], and — for a fused
//! fault-free run — the finish offsets of its main tasks, 8 bytes per
//! month, read off the engine's completion chain, which holds them in
//! completion order and so already sorted. A month-progress query
//! counts the offsets `end <= t − start` by binary search, the same
//! comparisons a scan of a recorded schedule makes. Once the clock has
//! passed the finish, no query reads the offsets, and
//! [`SessionDriver::release_offsets`] drops them.
//!
//! Everything here is virtual-time arithmetic over the engine's
//! deterministic output, so a driver query is itself deterministic:
//! the same submission trace yields byte-identical session logs no
//! matter how often or when the daemon is asked.

use oa_platform::timing::TimingTable;
use oa_sched::grouping::{Grouping, GroupingError};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};

use crate::engine::{simulate_unrecorded, CampaignOutcome, KernelReport, MainEnds};

/// Where a session stands at a queried virtual instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionState {
    /// The query instant precedes the session's start.
    Pending,
    /// Running: months whose fused main task has completed by the
    /// instant, counted from the main finish offsets the driver kept
    /// (`None` for faulted or unfused runs, whose months do not map
    /// onto one finish each, and after
    /// [`SessionDriver::release_offsets`]).
    Running {
        /// Completed months, when resolvable.
        months_done: Option<u32>,
    },
    /// The campaign finished at the carried virtual instant.
    Completed {
        /// Absolute finish instant, seconds.
        finish: f64,
    },
    /// Every group died with months still unscheduled.
    Stranded {
        /// Months completed before the grid went dark.
        completed_months: u64,
    },
}

/// What a driver keeps of the engine's outcome.
#[derive(Debug, Clone)]
enum Kept {
    Completed {
        makespan: f64,
        months_lost: u32,
        /// Main-task finish offsets in ascending order, for a fused
        /// fault-free run until [`SessionDriver::release_offsets`].
        main_ends: Option<MainEnds>,
    },
    Stranded {
        completed_months: u64,
    },
}

/// One simulated campaign pinned to a virtual start instant.
///
/// # Examples
///
/// ```
/// use oa_platform::prelude::*;
/// use oa_sched::prelude::*;
/// use oa_sim::driver::{SessionDriver, SessionState};
///
/// let table = PcrModel::reference().table(1.0).unwrap();
/// let inst = Instance::new(2, 12, 53);
/// let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
/// let config = CampaignConfig::default();
///
/// // Admitted at t = 100 s of virtual time.
/// let d = SessionDriver::new(100.0, inst, &table, &grouping, &config, &FaultPlan::none())
///     .unwrap();
/// assert_eq!(d.state_at(0.0), SessionState::Pending);
/// let finish = d.finish().unwrap();
/// assert!(finish > 100.0);
/// assert_eq!(d.state_at(finish), SessionState::Completed { finish });
/// assert!(matches!(d.state_at(finish - 1.0), SessionState::Running { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct SessionDriver {
    start: f64,
    kept: Kept,
    kernel: KernelReport,
}

impl SessionDriver {
    /// Simulates the campaign once through the generic engine, with
    /// nothing recorded, and pins the result to virtual instant
    /// `start`. Its makespan, months lost and stranded count are
    /// bitwise those of [`crate::engine::simulate_campaign`] on the
    /// same input.
    pub fn new(
        start: f64,
        inst: Instance,
        table: &TimingTable,
        grouping: &Grouping,
        config: &CampaignConfig,
        plan: &FaultPlan,
    ) -> Result<Self, GroupingError> {
        let (outcome, kernel, main_ends) =
            simulate_unrecorded(inst, table, grouping, config, plan)?;
        let kept = match outcome {
            CampaignOutcome::Completed(run) => Kept::Completed {
                makespan: run.makespan,
                months_lost: run.months_lost,
                main_ends,
            },
            CampaignOutcome::Stranded { completed_months } => Kept::Stranded { completed_months },
        };
        Ok(Self {
            start,
            kept,
            kernel,
        })
    }

    /// What the simulation kernel did in the admission run. A portion
    /// whose post pool keeps pace with its groups skips the post drain
    /// ([`KernelReport::drain_closed_form`]).
    #[must_use]
    pub fn kernel_report(&self) -> KernelReport {
        self.kernel
    }

    /// Drops the main finish offsets. A caller whose clock has reached
    /// [`SessionDriver::finish`] never asks for month progress again:
    /// [`SessionDriver::state_at`] of any instant at or after the
    /// finish answers `Completed` without them. An earlier instant then
    /// answers `Running { months_done: None }`.
    pub fn release_offsets(&mut self) {
        if let Kept::Completed { main_ends, .. } = &mut self.kept {
            *main_ends = None;
        }
    }

    /// How many main finish offsets the driver holds, 8 bytes each.
    #[must_use]
    pub fn offsets_held(&self) -> usize {
        match &self.kept {
            Kept::Completed {
                main_ends: Some(ends),
                ..
            } => ends.len(),
            _ => 0,
        }
    }

    /// The virtual instant the session's work begins.
    #[must_use]
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Simulated makespan, `None` when stranded.
    #[must_use]
    pub fn makespan(&self) -> Option<f64> {
        match self.kept {
            Kept::Completed { makespan, .. } => Some(makespan),
            Kept::Stranded { .. } => None,
        }
    }

    /// Absolute virtual finish instant (`start + makespan`), `None`
    /// when stranded.
    #[must_use]
    pub fn finish(&self) -> Option<f64> {
        self.makespan().map(|m| self.start + m)
    }

    /// Months whose in-flight run was lost and re-executed, `None`
    /// when stranded.
    #[must_use]
    pub fn months_lost(&self) -> Option<u32> {
        match self.kept {
            Kept::Completed { months_lost, .. } => Some(months_lost),
            Kept::Stranded { .. } => None,
        }
    }

    /// Resolves a virtual instant to the session's state, counting
    /// month-level progress from the kept main finish offsets when the
    /// run recorded them.
    #[must_use]
    pub fn state_at(&self, t: f64) -> SessionState {
        if t < self.start {
            return SessionState::Pending;
        }
        match &self.kept {
            Kept::Stranded { completed_months } => SessionState::Stranded {
                completed_months: *completed_months,
            },
            Kept::Completed {
                makespan,
                main_ends,
                ..
            } => {
                let finish = self.start + makespan;
                if t >= finish {
                    SessionState::Completed { finish }
                } else {
                    let elapsed = t - self.start;
                    SessionState::Running {
                        months_done: main_ends
                            .as_ref()
                            .map(|ends| ends.partition_point(|&end| end <= elapsed) as u32),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;
    use oa_sched::heuristics::Heuristic;

    fn driver(start: f64, plan: FaultPlan) -> SessionDriver {
        let table = PcrModel::reference().table(1.0).unwrap();
        let inst = Instance::new(3, 10, 53);
        let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
        SessionDriver::new(
            start,
            inst,
            &table,
            &grouping,
            &CampaignConfig::default(),
            &plan,
        )
        .unwrap()
    }

    #[test]
    fn states_partition_the_timeline() {
        let d = driver(500.0, FaultPlan::none());
        let finish = d.finish().unwrap();
        assert_eq!(d.state_at(499.9), SessionState::Pending);
        assert_eq!(d.state_at(1e12), SessionState::Completed { finish });
        match d.state_at(500.0) {
            SessionState::Running { months_done } => assert_eq!(months_done, Some(0)),
            other => panic!("expected Running at start, got {other:?}"),
        }
    }

    #[test]
    fn month_progress_is_monotone_and_complete() {
        let d = driver(0.0, FaultPlan::none());
        let finish = d.finish().unwrap();
        let total: u32 = 3 * 10;
        let mut last = 0u32;
        for i in 0..=10 {
            let t = finish * f64::from(i) / 10.0;
            if let SessionState::Running {
                months_done: Some(m),
            } = d.state_at(t)
            {
                assert!(m >= last, "progress went backwards");
                assert!(m < total, "all months done but still Running");
                last = m;
            }
        }
        // Just before the end, nearly everything is done.
        if let SessionState::Running {
            months_done: Some(m),
        } = d.state_at(finish - 1e-6)
        {
            assert!(m > 0);
        }
    }

    #[test]
    fn faulted_runs_have_no_month_resolution() {
        let d = driver(0.0, FaultPlan::none().kill(0, 2000.0));
        let finish = d.finish().expect("checkpoint recovery completes");
        match d.state_at(finish / 2.0) {
            SessionState::Running { months_done } => assert_eq!(months_done, None),
            SessionState::Completed { .. } => {} // half-point may already be done
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn released_offsets_leave_completion_answers_alone() {
        let mut d = driver(40.0, FaultPlan::none());
        assert_eq!(d.offsets_held(), 3 * 10, "one offset per month");
        let finish = d.finish().unwrap();
        let before = [finish, finish + 1.0, 1e12].map(|t| d.state_at(t));
        d.release_offsets();
        assert_eq!(d.offsets_held(), 0);
        assert_eq!([finish, finish + 1.0, 1e12].map(|t| d.state_at(t)), before);
        assert_eq!(
            d.state_at(finish / 2.0),
            SessionState::Running { months_done: None }
        );
        assert_eq!(d.finish(), Some(finish));
    }

    #[test]
    fn start_offset_shifts_finish() {
        let a = driver(0.0, FaultPlan::none());
        let b = driver(777.0, FaultPlan::none());
        assert_eq!(a.makespan(), b.makespan());
        assert!((b.finish().unwrap() - a.finish().unwrap() - 777.0).abs() < 1e-9);
    }
}
