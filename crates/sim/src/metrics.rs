//! Schedule metrics: utilization, idleness, fairness, phase split.
//!
//! Since the observability layer landed, the aggregation itself lives
//! in `oa-trace`: a schedule is converted to its event stream and
//! folded there, so these post-hoc numbers and a live
//! [`MetricsRegistry`] grown during a traced run are the same fold
//! (bit for bit — tested by property).

use serde::{Deserialize, Serialize};

use oa_trace::prelude::*;

use crate::schedule::Schedule;
use crate::tracing::events_of;

/// Aggregate metrics of an executed schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Campaign makespan, seconds.
    pub makespan: f64,
    /// Mean processor utilization over `R × makespan`.
    pub utilization: f64,
    /// Processor-seconds spent in main tasks.
    pub main_proc_secs: f64,
    /// Processor-seconds spent in post tasks.
    pub post_proc_secs: f64,
    /// Completion time of each scenario's last post task, seconds.
    pub scenario_finish: Vec<f64>,
    /// Standard deviation of scenario finish times — the fairness
    /// indicator (the paper wants "some fairness in the execution of
    /// the simulations", Section 3.1).
    pub fairness_stddev: f64,
    /// Processors that never ran anything.
    pub never_used_procs: u32,
}

/// Computes [`Metrics`] from a schedule by folding its trace-event
/// stream (see [`metrics_from_events`]).
pub fn metrics(schedule: &Schedule) -> Metrics {
    metrics_from_events(
        schedule.instance.ns,
        schedule.instance.r,
        &events_of(schedule),
    )
}

/// Computes [`Metrics`] from a recorded event stream — the post-hoc
/// side of the observability layer. The phase split is the
/// [`phase_totals`] fold (stream order), so numbers computed here, by
/// a live [`Metered`] sink, and by the Chrome exporter's `otherData`
/// all agree exactly.
pub fn metrics_from_events(ns: u32, r: u32, events: &[TraceEvent]) -> Metrics {
    let totals = phase_totals(events);
    let mut makespan = totals.makespan;
    let mut scenario_finish = vec![0.0f64; ns as usize];
    let mut used = vec![false; r as usize];
    for ev in events {
        match &ev.kind {
            EventKind::TaskFinish {
                task,
                first_proc,
                procs,
                ..
            } => {
                let sf = &mut scenario_finish[task.scenario as usize];
                if ev.t > *sf {
                    *sf = ev.t;
                }
                for p in *first_proc..first_proc + procs {
                    used[p as usize] = true;
                }
            }
            EventKind::CampaignEnd { makespan: m } => makespan = *m,
            _ => {}
        }
    }
    let (main_proc_secs, post_proc_secs) = (totals.main_proc_secs, totals.post_proc_secs);
    let utilization = if makespan > 0.0 {
        (main_proc_secs + post_proc_secs) / (makespan * r as f64)
    } else {
        0.0
    };
    let mean = scenario_finish.iter().sum::<f64>() / scenario_finish.len() as f64;
    let var = scenario_finish
        .iter()
        .map(|f| (f - mean).powi(2))
        .sum::<f64>()
        / scenario_finish.len() as f64;
    Metrics {
        makespan,
        utilization,
        main_proc_secs,
        post_proc_secs,
        scenario_finish,
        fairness_stddev: var.sqrt(),
        never_used_procs: used.iter().filter(|&&u| !u).count() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_default, simulate_campaign};
    use oa_platform::speedup::PcrModel;
    use oa_platform::timing::TimingTable;
    use oa_sched::grouping::Grouping;
    use oa_sched::heuristics::Heuristic;
    use oa_sched::params::Instance;

    #[test]
    fn metrics_of_tiny_schedule() {
        let inst = Instance::new(1, 2, 5);
        let t = TimingTable::new([100.0; 8], 10.0).unwrap();
        let s = execute_default(inst, &t, &Grouping::uniform(4, 1, 1)).unwrap();
        let m = metrics(&s);
        assert_eq!(m.makespan, 210.0);
        assert_eq!(m.main_proc_secs, 2.0 * 100.0 * 4.0);
        assert_eq!(m.post_proc_secs, 2.0 * 10.0);
        assert_eq!(m.scenario_finish, vec![210.0]);
        assert_eq!(m.fairness_stddev, 0.0);
        assert_eq!(m.never_used_procs, 0);
    }

    #[test]
    fn idle_procs_counted() {
        // Basic heuristic at R = 53 occupies everything (7×7 + 4 post);
        // a hand-made grouping with one orphan proc shows up here.
        let inst = Instance::new(10, 6, 53);
        let t = PcrModel::reference().table(1.0).unwrap();
        let g = Grouping::uniform(7, 7, 3); // 49 + 3 = 52 < 53
        let s = execute_default(inst, &t, &g).unwrap();
        assert_eq!(metrics(&s).never_used_procs, 1);
    }

    #[test]
    fn least_advanced_is_fairer_than_most_advanced() {
        use oa_sched::policy::{CampaignConfig, FaultPlan, ScenarioPolicy};
        let inst = Instance::new(6, 10, 26);
        let t = PcrModel::reference().table(1.0).unwrap();
        let g = Heuristic::Knapsack.grouping(inst, &t).unwrap();
        let metrics_under = |policy| {
            let config = CampaignConfig::fused(policy);
            let plan = FaultPlan::none();
            let out = simulate_campaign(inst, &t, &g, &config, &plan, &mut oa_trace::NullTracer);
            metrics(&out.unwrap().into_schedule().unwrap())
        };
        let fair = metrics_under(ScenarioPolicy::LeastAdvanced);
        let unfair = metrics_under(ScenarioPolicy::MostAdvanced);
        assert!(
            fair.fairness_stddev <= unfair.fairness_stddev + 1e-9,
            "fair {} vs unfair {}",
            fair.fairness_stddev,
            unfair.fairness_stddev
        );
    }

    #[test]
    fn utilization_bounded() {
        let inst = Instance::new(10, 24, 53);
        let t = PcrModel::reference().table(1.0).unwrap();
        for h in Heuristic::PAPER {
            let g = h.grouping(inst, &t).unwrap();
            let m = metrics(&execute_default(inst, &t, &g).unwrap());
            assert!(
                m.utilization > 0.0 && m.utilization <= 1.0,
                "{h:?}: {}",
                m.utilization
            );
        }
    }
}
