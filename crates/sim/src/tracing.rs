//! Bridges between schedules and the `oa-trace` event layer.
//!
//! Two directions: [`events_of`] converts a finished [`Schedule`] into
//! the exact event stream a traced engine run would have emitted for
//! it (so post-hoc exports need no re-execution), and [`ClusterTag`]
//! adapts a [`Tracer`] so a per-cluster engine run lands on the grid
//! timeline — stamped with its cluster id and shifted by the cluster's
//! staging offset.

use oa_trace::prelude::*;

use crate::schedule::Schedule;

/// Converts a schedule into task-finish events (record order — all
/// mains in completion order, then all posts) plus a final
/// `CampaignEnd`. The per-task `secs` is `end − start` of the record,
/// the same expression the metrics fold uses, so aggregates computed
/// from these events match `metrics()` bit for bit.
pub fn events_of(schedule: &Schedule) -> Vec<TraceEvent> {
    let mut events = Vec::with_capacity(schedule.records.len() + 1);
    for r in &schedule.records {
        events.push(TraceEvent::at(
            r.end,
            EventKind::TaskFinish {
                task: r.task,
                first_proc: r.procs.first,
                procs: r.procs.count,
                group: r.group,
                secs: r.end - r.start,
            },
        ));
    }
    events.push(TraceEvent::at(
        schedule.makespan,
        EventKind::CampaignEnd {
            makespan: schedule.makespan,
        },
    ));
    events
}

/// Re-stamps every event with a cluster id and shifts its timestamp by
/// a fixed offset before forwarding — the adapter grid executions use
/// to put each cluster's events on the shared grid timeline (offset =
/// the cluster's stage-in delay).
#[derive(Debug)]
pub struct ClusterTag<'a, T: Tracer> {
    inner: &'a mut T,
    cluster: u32,
    offset: f64,
}

impl<'a, T: Tracer> ClusterTag<'a, T> {
    /// Tags events for `cluster`, shifting times by `offset` seconds.
    pub fn new(inner: &'a mut T, cluster: u32, offset: f64) -> Self {
        Self {
            inner,
            cluster,
            offset,
        }
    }
}

impl<T: Tracer> Tracer for ClusterTag<'_, T> {
    fn record(&mut self, mut event: TraceEvent) {
        event.t += self.offset;
        event.cluster = Some(self.cluster);
        self.inner.record(event);
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_default, simulate_campaign};
    use crate::metrics::metrics;
    use oa_platform::timing::TimingTable;
    use oa_sched::grouping::Grouping;
    use oa_sched::params::Instance;
    use oa_sched::policy::{CampaignConfig, FaultPlan};
    use oa_trace::metrics::keys;

    fn small_schedule() -> Schedule {
        let inst = Instance::new(2, 3, 9);
        let t = TimingTable::new([100.0; 8], 30.0).unwrap();
        execute_default(inst, &t, &Grouping::uniform(4, 2, 1)).unwrap()
    }

    /// The paper's default run, streaming its events into `tracer`.
    fn traced_schedule<T: Tracer>(
        inst: Instance,
        t: &TimingTable,
        g: &Grouping,
        tracer: &mut T,
    ) -> Schedule {
        let config = CampaignConfig::default();
        simulate_campaign(inst, t, g, &config, &FaultPlan::none(), tracer)
            .unwrap()
            .into_schedule()
            .unwrap()
    }

    #[test]
    fn events_mirror_records() {
        let s = small_schedule();
        let events = events_of(&s);
        assert_eq!(events.len(), s.records.len() + 1);
        let totals = phase_totals(&events);
        let m = metrics(&s);
        assert_eq!(totals.main_proc_secs, m.main_proc_secs);
        assert_eq!(totals.post_proc_secs, m.post_proc_secs);
        assert_eq!(totals.makespan, s.makespan);
    }

    #[test]
    fn live_trace_agrees_with_post_hoc_conversion() {
        let inst = Instance::new(2, 3, 9);
        let t = TimingTable::new([100.0; 8], 30.0).unwrap();
        let g = Grouping::uniform(4, 2, 1);
        let mut sink = VecTracer::new();
        let s = traced_schedule(inst, &t, &g, &mut sink);
        let live: Vec<TraceEvent> = sink
            .into_events()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::TaskFinish { .. } | EventKind::CampaignEnd { .. }
                )
            })
            .collect();
        assert_eq!(live, events_of(&s));
    }

    #[test]
    fn metered_execution_matches_metrics_exactly() {
        let inst = Instance::new(4, 6, 26);
        let t = TimingTable::new(
            [800.0, 420.0, 290.0, 230.0, 200.0, 180.0, 165.0, 155.0],
            30.0,
        )
        .unwrap();
        let g = Grouping::uniform(7, 3, 2);
        let mut sink = Metered::null();
        let s = traced_schedule(inst, &t, &g, &mut sink);
        let snap = sink.registry.snapshot();
        let m = metrics(&s);
        assert_eq!(snap.gauge(keys::PROC_SECS_MAIN), Some(m.main_proc_secs));
        assert_eq!(snap.gauge(keys::PROC_SECS_POST), Some(m.post_proc_secs));
        assert_eq!(snap.gauge(keys::MAKESPAN), Some(s.makespan));
        assert_eq!(
            snap.counter(keys::TASKS_MAIN),
            Some(s.mains().count() as u64)
        );
        assert_eq!(
            snap.counter(keys::TASKS_POST),
            Some(s.posts().count() as u64)
        );
    }

    #[test]
    fn cluster_tag_shifts_and_stamps() {
        let mut sink = VecTracer::new();
        let mut tag = ClusterTag::new(&mut sink, 3, 50.0);
        tag.record(TraceEvent::at(
            10.0,
            EventKind::CampaignEnd { makespan: 10.0 },
        ));
        let events = sink.into_events();
        assert_eq!(events[0].t, 60.0);
        assert_eq!(events[0].cluster, Some(3));
    }

    #[test]
    fn disabled_inner_disables_tag() {
        let mut null = NullTracer;
        let tag = ClusterTag::new(&mut null, 0, 0.0);
        assert!(!tag.enabled());
    }
}
