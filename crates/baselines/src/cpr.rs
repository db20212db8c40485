//! CPR — Critical Path Reduction (Radulescu, Nicolescu, van Gemund &
//! Jonker, IPDPS 2001), adapted to the multi-chain workload.
//!
//! CPR is the one-step variant: repeatedly give one more processor to
//! a critical-path task, re-run the list scheduler, and keep the
//! change only if the *measured* makespan improved; stop otherwise.
//! With our identical chains the critical path is the scenario whose
//! chain currently finishes last, so each iteration tries to enlarge
//! that scenario's allocation.
//!
//! Unlike CPA, CPR's stopping rule consults the actual schedule, which
//! makes it stronger but much more expensive (one full list-scheduling
//! pass per trial; the fused mesh is lowered once and re-pinned for
//! each trial).
//!
//! **The plateau the paper predicts.** Section 3.2 dismisses CPR
//! because "our application does not contain a single critical path
//! since all scenario simulations are independent. […] there are as
//! many critical paths as simulations." The faithful algorithm
//! demonstrates it: with `NS` identical chains, enlarging *one*
//! chain's allocation never improves the makespan (the other `NS − 1`
//! chains still finish at the old time), so every trial is rejected
//! and CPR terminates at minimum allocations. [`cpr_batched`] is the
//! natural multi-DAG repair — enlarge the whole critical front at
//! once — and is the variant the comparison bench reports.

use oa_platform::timing::TimingTable;
use oa_sched::params::Instance;
use oa_sim::ir_exec::{IrExecError, IrSchedule};
use oa_workflow::ir::{lower_fused, WorkflowIr};
use oa_workflow::moldable::MoldableSpec;

use crate::schedule_pinned;

/// Outcome of the CPR loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CprResult {
    /// Final per-scenario allocations.
    pub allocations: Vec<u32>,
    /// The final schedule, over the instance's fused mesh.
    pub schedule: IrSchedule,
    /// Number of accepted enlargements.
    pub accepted_steps: u32,
    /// Number of rejected trials.
    pub rejected_steps: u32,
}

/// Latest record end per scenario, read from the mesh's node origins.
fn scenario_finish(ir: &WorkflowIr, ns: u32, schedule: &IrSchedule) -> Vec<f64> {
    let mut finish = vec![0.0f64; ns as usize];
    for rec in &schedule.records {
        let origin = ir.dag.node(rec.node).origin.expect("lowered mesh");
        let f = &mut finish[origin.scenario as usize];
        if rec.end > *f {
            *f = rec.end;
        }
    }
    finish
}

/// Runs CPR. The trial budget is bounded by `NS × range` (every
/// scenario can grow at most `max − min` times) plus one rejected trial
/// per scenario, so termination is structural.
pub fn cpr(inst: Instance, table: &TimingTable) -> Result<CprResult, IrExecError> {
    let spec = MoldableSpec::pcr();
    let mut ir = lower_fused(inst.shape());
    let mut allocs = vec![spec.min_procs; inst.ns as usize];
    let mut schedule = schedule_pinned(&mut ir, table, inst.r, &allocs)?;
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    // Scenarios whose enlargement has been rejected at the current
    // makespan; retried only after an accepted step changes the field.
    let mut frozen = vec![false; inst.ns as usize];

    loop {
        // Critical scenario: the one whose chain finishes last.
        let finish = scenario_finish(&ir, inst.ns, &schedule);
        let candidate = (0..inst.ns as usize)
            .filter(|&s| !frozen[s] && allocs[s] < spec.max_procs && allocs[s] < inst.r)
            .max_by(|&a, &b| finish[a].total_cmp(&finish[b]));
        let Some(s) = candidate else { break };

        let mut trial = allocs.clone();
        trial[s] += 1;
        let trial_schedule = schedule_pinned(&mut ir, table, inst.r, &trial)?;
        if trial_schedule.makespan < schedule.makespan - 1e-9 {
            allocs = trial;
            schedule = trial_schedule;
            accepted += 1;
            frozen.fill(false);
        } else {
            frozen[s] = true;
            rejected += 1;
        }
    }

    Ok(CprResult {
        allocations: allocs,
        schedule,
        accepted_steps: accepted,
        rejected_steps: rejected,
    })
}

/// Batched CPR: each iteration enlarges the allocation of *every*
/// scenario on the critical front (all scenarios finishing within one
/// post-task of the makespan), keeping the step only if the measured
/// makespan improves. This is the natural adaptation to workloads with
/// `NS` simultaneous critical paths.
pub fn cpr_batched(inst: Instance, table: &TimingTable) -> Result<CprResult, IrExecError> {
    let spec = MoldableSpec::pcr();
    let mut ir = lower_fused(inst.shape());
    let mut allocs = vec![spec.min_procs; inst.ns as usize];
    let mut schedule = schedule_pinned(&mut ir, table, inst.r, &allocs)?;
    let mut accepted = 0u32;
    let mut rejected = 0u32;

    loop {
        let finish = scenario_finish(&ir, inst.ns, &schedule);
        let front = schedule.makespan - table.post_secs() - 1e-9;
        let mut trial = allocs.clone();
        let mut grew = false;
        for (s, &fin) in finish.iter().enumerate() {
            if fin >= front && trial[s] < spec.max_procs && trial[s] < inst.r {
                trial[s] += 1;
                grew = true;
            }
        }
        if !grew {
            break;
        }
        let trial_schedule = schedule_pinned(&mut ir, table, inst.r, &trial)?;
        if trial_schedule.makespan < schedule.makespan - 1e-9 {
            allocs = trial;
            schedule = trial_schedule;
            accepted += 1;
        } else {
            rejected += 1;
            break; // one-step stopping rule, as in the original
        }
    }

    Ok(CprResult {
        allocations: allocs,
        schedule,
        accepted_steps: accepted,
        rejected_steps: rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    #[test]
    fn faithful_cpr_plateaus_on_identical_chains() {
        // The empirical form of the paper's Section 3.2 argument:
        // enlarging a single chain never improves the makespan when
        // NS − 1 identical chains remain critical, so CPR rejects every
        // trial and stays at minimum allocations despite 40 processors.
        let t = reference();
        let inst = Instance::new(4, 12, 40);
        let r = cpr(inst, &t).unwrap();
        r.schedule.validate(&lower_fused(inst.shape())).unwrap();
        assert_eq!(r.accepted_steps, 0);
        assert_eq!(r.allocations, vec![4; 4]);
    }

    #[test]
    fn batched_cpr_escapes_the_plateau() {
        let t = reference();
        let inst = Instance::new(4, 12, 40);
        let single = cpr(inst, &t).unwrap();
        let batched = cpr_batched(inst, &t).unwrap();
        batched
            .schedule
            .validate(&lower_fused(inst.shape()))
            .unwrap();
        assert!(batched.accepted_steps > 0);
        assert!(
            batched.schedule.makespan < single.schedule.makespan * 0.8,
            "batched {} vs single {}",
            batched.schedule.makespan,
            single.schedule.makespan
        );
    }

    #[test]
    fn cpr_never_worse_than_start_across_sweep() {
        let t = reference();
        for r in [12u32, 23, 47, 88] {
            let inst = Instance::new(5, 8, r);
            let mut ir = lower_fused(inst.shape());
            let start = schedule_pinned(&mut ir, &t, r, &[4; 5]).unwrap();
            let out = cpr(inst, &t).unwrap();
            out.schedule.validate(&ir).unwrap();
            assert!(out.schedule.makespan <= start.makespan + 1e-9, "R={r}");
        }
    }

    #[test]
    fn cpr_terminates_with_bounded_steps() {
        let t = reference();
        let inst = Instance::new(6, 6, 70);
        let out = cpr(inst, &t).unwrap();
        // At most NS × 7 enlargements possible.
        assert!(out.accepted_steps <= 42);
        assert!(out.rejected_steps <= 60);
    }

    #[test]
    fn tiny_machine_keeps_minimum_allocations() {
        let t = reference();
        let inst = Instance::new(3, 4, 4);
        let out = cpr(inst, &t).unwrap();
        assert_eq!(out.allocations, vec![4, 4, 4]);
        assert_eq!(out.accepted_steps, 0);
    }
}
