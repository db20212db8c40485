//! SeD — the server daemon living next to each cluster.
//!
//! In DIET a SeD fronts a computational resource and answers
//! performance queries and execution requests. Ours holds the cluster
//! description, a [`SchedulerPlugin`], and a receive loop running on
//! its own thread. Execution is simulated in virtual time with the
//! `oa-sim` engine; the SeD reports the resulting makespan.

use crossbeam::channel::{Receiver, Sender};

use oa_platform::cluster::{Cluster, ClusterId};
use oa_sched::hetero::PerformanceVector;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};
use oa_sim::engine::simulate_campaign;
use oa_sim::tracing::ClusterTag;
use oa_trace::{EventKind, NullTracer, TraceEvent, Tracer};

use crate::cache::VectorCache;
use crate::plugin::SchedulerPlugin;
use crate::protocol::{AgentMsg, ExecReport, ExecRequest, PerfReply, PerfRequest, SedMsg};

/// Performance vectors cached per SeD (shapes repeat across campaigns).
const CACHE_CAPACITY: usize = 16;

/// A server daemon bound to one cluster.
pub struct Sed {
    /// Identity within the grid.
    pub id: ClusterId,
    /// The cluster it fronts.
    pub cluster: Cluster,
    /// Scheduling policy.
    pub plugin: Box<dyn SchedulerPlugin>,
    cache: VectorCache,
}

impl Sed {
    /// Creates a SeD.
    pub fn new(id: ClusterId, cluster: Cluster, plugin: Box<dyn SchedulerPlugin>) -> Self {
        Self {
            id,
            cluster,
            plugin,
            cache: VectorCache::new(CACHE_CAPACITY),
        }
    }

    /// Handles one performance query (step 2 of Figure 9), consulting
    /// the per-SeD vector cache first.
    pub fn handle_perf(&mut self, req: &PerfRequest) -> PerfReply {
        let (id, resources, timing, plugin) = (
            self.id,
            self.cluster.resources,
            &self.cluster.timing,
            &self.plugin,
        );
        let vector: PerformanceVector = self.cache.get_or_compute(req.ns, req.nm, || {
            plugin.performance(id, resources, timing, req.ns, req.nm)
        });
        PerfReply {
            request: req.request,
            cluster: self.id,
            vector,
        }
    }

    /// `(hits, misses)` of the vector cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Handles one execution order (step 6): schedules the assigned
    /// scenarios locally (virtual time) and reports the makespan. The
    /// plugin's grouping decision and the engine's full event stream
    /// flow into `tracer`, every event stamped with this SeD's cluster
    /// id — the same cluster-tagged shape `oa_sim::grid_exec` emits, so
    /// middleware campaigns feed the same registries and exporters.
    pub fn handle_exec<T: Tracer>(&self, req: &ExecRequest, tracer: &mut T) -> ExecReport {
        if req.scenarios.is_empty() {
            return ExecReport {
                request: req.request,
                cluster: self.id,
                scenarios: Vec::new(),
                makespan: 0.0,
                grouping: String::from("(none)"),
            };
        }
        let inst = Instance::new(req.scenarios.len() as u32, req.nm, self.cluster.resources);
        let grouping = self
            .plugin
            .grouping(inst, &self.cluster.timing)
            .expect("the agent only assigns work to clusters that priced it finitely");
        let mut tag = ClusterTag::new(tracer, self.id.0, 0.0);
        if tag.enabled() {
            tag.record(TraceEvent::at(
                0.0,
                EventKind::Decision {
                    heuristic: self.plugin.name().to_string(),
                    groups: grouping.groups().to_vec(),
                    post_procs: grouping.post_procs,
                },
            ));
        }
        let outcome = simulate_campaign(
            inst,
            &self.cluster.timing,
            &grouping,
            &CampaignConfig::default(),
            &FaultPlan::none(),
            &mut tag,
        )
        .expect("plugin groupings are valid");
        ExecReport {
            request: req.request,
            cluster: self.id,
            scenarios: req.scenarios.clone(),
            makespan: outcome.makespan().expect("fault-free runs complete"),
            grouping: grouping.to_string(),
        }
    }

    /// The receive loop: runs until `Shutdown` or channel closure.
    pub fn serve(mut self, inbox: Receiver<SedMsg>, agent: Sender<AgentMsg>) {
        while let Ok(msg) = inbox.recv() {
            match msg {
                SedMsg::Perf(req) => {
                    let reply = self.handle_perf(&req);
                    if agent.send(AgentMsg::Perf(reply)).is_err() {
                        break; // agent gone
                    }
                }
                SedMsg::Exec(req) => {
                    let report = self.handle_exec(&req, &mut NullTracer);
                    if agent.send(AgentMsg::Report(report)).is_err() {
                        break;
                    }
                }
                SedMsg::Shutdown => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::HeuristicPlugin;
    use oa_platform::presets::reference_cluster;
    use oa_sched::heuristics::Heuristic;

    fn sed() -> Sed {
        Sed::new(
            ClusterId(0),
            reference_cluster(53),
            Box::new(HeuristicPlugin(Heuristic::Knapsack)),
        )
    }

    #[test]
    fn perf_reply_has_full_vector() {
        let mut s = sed();
        let r = s.handle_perf(&PerfRequest {
            request: 1,
            ns: 10,
            nm: 12,
        });
        assert_eq!(r.cluster, ClusterId(0));
        assert_eq!(r.vector.len(), 10);
        assert!(r.vector.of(10) > r.vector.of(1));
    }

    #[test]
    fn exec_reports_makespan_and_grouping() {
        let s = sed();
        let req = ExecRequest {
            request: 2,
            scenarios: vec![3, 5, 8],
            nm: 12,
        };
        let r = s.handle_exec(&req, &mut NullTracer);
        assert_eq!(r.scenarios, vec![3, 5, 8]);
        assert!(r.makespan > 0.0);
        assert!(r.grouping.contains("post"));
    }

    #[test]
    fn empty_assignment_reports_zero() {
        let s = sed();
        let req = ExecRequest {
            request: 3,
            scenarios: vec![],
            nm: 12,
        };
        let r = s.handle_exec(&req, &mut NullTracer);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.grouping, "(none)");
    }

    #[test]
    fn exec_makespan_matches_perf_prediction() {
        // The vector entry for k scenarios must equal what execution of
        // k scenarios then reports — the planner's contract.
        let mut s = sed();
        let perf = s.handle_perf(&PerfRequest {
            request: 4,
            ns: 5,
            nm: 10,
        });
        let req = ExecRequest {
            request: 4,
            scenarios: vec![0, 1, 2],
            nm: 10,
        };
        let exec = s.handle_exec(&req, &mut NullTracer);
        assert!((perf.vector.of(3) - exec.makespan).abs() < 1e-6);
    }

    #[test]
    fn traced_exec_narrates_the_decision_and_the_run() {
        use oa_trace::metrics::keys;
        use oa_trace::{Metered, VecTracer};
        let s = sed();
        let req = ExecRequest {
            request: 5,
            scenarios: vec![0, 1, 2],
            nm: 4,
        };
        let mut sink = Metered::new(VecTracer::new());
        let r = s.handle_exec(&req, &mut sink);
        // Every event carries this SeD's cluster id.
        assert!(sink.inner.events().all(|e| e.cluster == Some(0)));
        // The decision point names the plugin and its grouping.
        let decision = sink
            .inner
            .events()
            .find_map(|e| match &e.kind {
                EventKind::Decision { heuristic, .. } => Some(heuristic.clone()),
                _ => None,
            })
            .expect("a Decision event");
        assert!(decision.contains("knapsack"), "{decision}");
        // The live registry agrees with the report.
        let snap = sink.registry.snapshot();
        assert_eq!(snap.gauge(keys::MAKESPAN), Some(r.makespan));
        assert_eq!(snap.counter(keys::TASKS_MAIN), Some(3 * 4));
        // An untraced run reports identically.
        assert_eq!(s.handle_exec(&req, &mut NullTracer), r);
    }

    #[test]
    fn serve_loop_answers_and_shuts_down() {
        let (tx_in, rx_in) = crossbeam::channel::unbounded();
        let (tx_out, rx_out) = crossbeam::channel::unbounded();
        let handle = std::thread::spawn(move || sed().serve(rx_in, tx_out));
        tx_in
            .send(SedMsg::Perf(PerfRequest {
                request: 9,
                ns: 2,
                nm: 3,
            }))
            .unwrap();
        match rx_out.recv().unwrap() {
            AgentMsg::Perf(p) => assert_eq!(p.request, 9),
            other => panic!("unexpected {other:?}"),
        }
        tx_in.send(SedMsg::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let mut s = sed();
        let q = PerfRequest {
            request: 1,
            ns: 6,
            nm: 12,
        };
        let a = s.handle_perf(&q);
        let b = s.handle_perf(&PerfRequest { request: 2, ..q });
        assert_eq!(a.vector, b.vector);
        assert_eq!(s.cache_stats(), (1, 1));
        // A different shape misses.
        s.handle_perf(&PerfRequest {
            request: 3,
            ns: 6,
            nm: 13,
        });
        assert_eq!(s.cache_stats(), (1, 2));
    }
}
