//! Occupancy profiles: how many processors a schedule keeps busy over
//! time, split by phase.
//!
//! The paper's schedule figures (3–6) are really occupancy pictures —
//! hatched main blocks, post fills, idle gaps. This module computes
//! the underlying step function exactly (no sampling): a sweep over
//! task start/end events yields busy-processor counts per phase, from
//! which come time-weighted averages, peaks, and the makespan share
//! spent above/below occupancy thresholds.

use serde::{Deserialize, Serialize};

use oa_workflow::task::TaskKind;

use crate::schedule::Schedule;

/// One step of the occupancy function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// Interval start, seconds.
    pub start: f64,
    /// Interval end, seconds.
    pub end: f64,
    /// Processors busy with main tasks.
    pub main_procs: u32,
    /// Processors busy with post tasks.
    pub post_procs: u32,
}

impl Step {
    /// Total busy processors in this step.
    pub fn busy(&self) -> u32 {
        self.main_procs + self.post_procs
    }
}

/// The complete occupancy profile of a schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Steps in time order, covering `[0, makespan]` without gaps.
    pub steps: Vec<Step>,
    /// Cluster size (`R`).
    pub resources: u32,
}

/// Computes the exact occupancy profile.
pub fn profile(schedule: &Schedule) -> Profile {
    let mut events: Vec<(f64, i64, i64)> = Vec::with_capacity(schedule.records.len() * 2);
    for r in &schedule.records {
        let (dm, dp) = match r.task.kind {
            TaskKind::FusedMain => (r.procs.count as i64, 0),
            _ => (0, r.procs.count as i64),
        };
        events.push((r.start, dm, dp));
        events.push((r.end, -dm, -dp));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut steps = Vec::new();
    let mut main = 0i64;
    let mut post = 0i64;
    let mut t = 0.0f64;
    let mut i = 0;
    while i < events.len() {
        let at = events[i].0;
        if at > t {
            steps.push(Step {
                start: t,
                end: at,
                main_procs: main as u32,
                post_procs: post as u32,
            });
            t = at;
        }
        // Apply every event at this instant.
        while i < events.len() && events[i].0 == at {
            main += events[i].1;
            post += events[i].2;
            i += 1;
        }
    }
    debug_assert_eq!(main, 0);
    debug_assert_eq!(post, 0);
    Profile {
        steps,
        resources: schedule.instance.r,
    }
}

impl Profile {
    /// Time-weighted mean busy processors.
    pub fn mean_busy(&self) -> f64 {
        let (num, den) = self.steps.iter().fold((0.0, 0.0), |(n, d), s| {
            let span = s.end - s.start;
            (n + s.busy() as f64 * span, d + span)
        });
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Peak busy processors.
    pub fn peak_busy(&self) -> u32 {
        self.steps.iter().map(Step::busy).max().unwrap_or(0)
    }

    /// Fraction of the horizon with at least `threshold` processors
    /// busy.
    pub fn fraction_at_least(&self, threshold: u32) -> f64 {
        let (hit, total) = self.steps.iter().fold((0.0, 0.0), |(h, t), s| {
            let span = s.end - s.start;
            (if s.busy() >= threshold { h + span } else { h }, t + span)
        });
        if total > 0.0 {
            hit / total
        } else {
            0.0
        }
    }

    /// Total idle processor-seconds over the horizon.
    pub fn idle_proc_secs(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| (self.resources - s.busy().min(self.resources)) as f64 * (s.end - s.start))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_default;
    use crate::metrics::metrics;
    use oa_platform::presets::reference_cluster;
    use oa_platform::timing::TimingTable;
    use oa_sched::grouping::Grouping;
    use oa_sched::heuristics::Heuristic;
    use oa_sched::params::Instance;

    fn flat(tg: f64, tp: f64) -> TimingTable {
        TimingTable::new([tg; 8], tp).unwrap()
    }

    #[test]
    fn profile_covers_the_horizon_without_gaps() {
        let inst = Instance::new(4, 6, 20);
        let t = reference_cluster(20).timing;
        let g = Heuristic::Knapsack.grouping(inst, &t).unwrap();
        let s = execute_default(inst, &t, &g).unwrap();
        let p = profile(&s);
        assert!((p.steps.first().unwrap().start - 0.0).abs() < 1e-12);
        assert!((p.steps.last().unwrap().end - s.makespan).abs() < 1e-9);
        for w in p.steps.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-12, "gap in profile");
        }
    }

    #[test]
    fn occupancy_never_exceeds_resources() {
        let inst = Instance::new(5, 8, 23);
        let t = reference_cluster(23).timing;
        let g = Heuristic::Knapsack.grouping(inst, &t).unwrap();
        let p = profile(&execute_default(inst, &t, &g).unwrap());
        assert!(p.peak_busy() <= 23);
    }

    #[test]
    fn mean_busy_matches_metrics_utilization() {
        let inst = Instance::new(3, 5, 14);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 3, 2);
        let s = execute_default(inst, &t, &g).unwrap();
        let p = profile(&s);
        let m = metrics(&s);
        // mean_busy / R over the same horizon equals utilization.
        assert!((p.mean_busy() / 14.0 - m.utilization).abs() < 1e-9);
        // Conservation: idle + busy = R × makespan.
        let busy = m.main_proc_secs + m.post_proc_secs;
        assert!((p.idle_proc_secs() + busy - 14.0 * s.makespan).abs() < 1e-6);
    }

    #[test]
    fn threshold_fractions_are_monotone() {
        let inst = Instance::new(4, 6, 18);
        let t = flat(50.0, 5.0);
        let g = Grouping::uniform(4, 4, 2);
        let p = profile(&execute_default(inst, &t, &g).unwrap());
        let mut prev = 1.0;
        for thr in 0..=18 {
            let f = p.fraction_at_least(thr);
            assert!(f <= prev + 1e-12, "threshold {thr}");
            prev = f;
        }
        assert_eq!(p.fraction_at_least(0), 1.0);
    }

    #[test]
    fn steady_state_uses_all_groups() {
        // 4 groups of 4 running continuously: main occupancy 16 for
        // most of the horizon.
        let inst = Instance::new(4, 10, 18);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 4, 2);
        let p = profile(&execute_default(inst, &t, &g).unwrap());
        assert!(p.fraction_at_least(16) > 0.9);
    }
}
