//! The grid submission protocol of the paper's Figure 9, run through
//! the daemon.
//!
//! The paper deploys Ocean-Atmosphere through the DIET grid middleware.
//! Its submission protocol has six steps:
//!
//! 1. the client sends a request with `NS` and `NM`;
//! 2. each cluster computes its performance vector (makespan of
//!    `1..=NS` simulations under the campaign's heuristic);
//! 3. the clusters return the vectors;
//! 4. the client computes the repartition (Algorithm 1);
//! 5. the client sends each cluster its set of simulations;
//! 6. each cluster executes its assignment.
//!
//! [`run_protocol`] walks those steps as one daemon session: steps 2–3
//! happen at each `ClusterJoin`, step 1 at `Submit`, and steps 4–6 at
//! `Submit` and `Drain`. The report types here are also the payload of
//! the daemon's `Completed` response, so a campaign completed over the
//! wire reads exactly like one completed in process.
//! [`PROTOCOL_VERSION`] names the wire revision (see `docs/PROTOCOL.md`
//! for the versioning rules).
//!
//! ```
//! use oa_platform::presets::benchmark_grid;
//! use oa_sched::heuristics::Heuristic;
//! use oa_service::protocol::run_protocol;
//!
//! let report = run_protocol(&benchmark_grid(30), Heuristic::Knapsack, 10, 12, 1).unwrap();
//! assert_eq!(report.reports.iter().map(|r| r.scenarios.len()).sum::<usize>(), 10);
//! ```

use serde::{Deserialize, Serialize};

use oa_platform::cluster::ClusterId;
use oa_platform::grid::Grid;
use oa_sched::heuristics::Heuristic;

use crate::admission::{parse_submission, Refusal};
use crate::daemon::{Service, ServiceConfig};
use crate::wire::{Request, Response};

/// Revision of the wire types. Transports embed it in their handshake
/// (`Hello`/`Welcome`); peers speaking a different revision are
/// refused rather than misparsed.
pub const PROTOCOL_VERSION: u32 = 1;

/// Step 6: execution report from one cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecReport {
    /// Request correlation id.
    pub request: u64,
    /// The reporting cluster.
    pub cluster: ClusterId,
    /// Scenarios it ran.
    pub scenarios: Vec<u32>,
    /// Simulated (virtual-time) makespan of the local schedule, seconds.
    pub makespan: f64,
    /// The grouping the cluster used, rendered (`"3×8 + 4×7 | post:1"`).
    pub grouping: String,
}

/// The client's view of a completed campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Correlation id of the request.
    pub request: u64,
    /// Per-cluster execution reports.
    pub reports: Vec<ExecReport>,
    /// Grid makespan: slowest cluster.
    pub makespan: f64,
    /// Protocol trace (for inspection/debugging; Figure 9 steps).
    pub trace: Vec<ProtocolEvent>,
}

impl CampaignReport {
    /// Assembles a report from per-cluster execution reports: the grid
    /// makespan is the slowest cluster's.
    #[must_use]
    pub fn from_reports(request: u64, reports: Vec<ExecReport>, trace: Vec<ProtocolEvent>) -> Self {
        let makespan = reports.iter().map(|r| r.makespan).fold(0.0, f64::max);
        Self {
            request,
            reports,
            makespan,
            trace,
        }
    }
}

/// One protocol step, as observed by the client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtocolEvent {
    /// Step 1: request received.
    RequestReceived {
        /// Request correlation id.
        request: u64,
        /// Scenario count.
        ns: u32,
        /// Months per scenario.
        nm: u32,
    },
    /// Step 2: vector query sent to a cluster.
    PerfQueried {
        /// Cluster concerned.
        cluster: ClusterId,
    },
    /// Step 3: vector received.
    PerfReceived {
        /// Cluster concerned.
        cluster: ClusterId,
    },
    /// Step 4: repartition computed, `nb_dags[cluster]` counts.
    RepartitionComputed {
        /// Scenarios per cluster.
        nb_dags: Vec<u32>,
    },
    /// Step 5: execution order sent.
    ExecSent {
        /// Cluster concerned.
        cluster: ClusterId,
        /// Number of scenarios.
        scenarios: u32,
    },
    /// Step 6: report received.
    ReportReceived {
        /// Cluster concerned.
        cluster: ClusterId,
        /// Reported makespan, seconds.
        makespan: f64,
    },
}

/// Runs a campaign of `ns` scenarios × `nm` months over `grid` as one
/// session of a fresh [`Service`], whose vectors cover `ns` scenarios
/// at `nm` months under `heuristic`, on a pool of `jobs` workers (any
/// count gives the same report).
///
/// Every cluster of `grid` joins under its own name as the preset of
/// that name (`reference` or one of the five benchmark clusters), in
/// grid order, so cluster `i` of the report is cluster `i` of `grid`.
/// The report lists every joined cluster: one that received no
/// scenario reports `(none)` with makespan 0.0.
///
/// # Errors
///
/// The daemon's own refusal, code and message: the submission is
/// checked before any cluster prices a vector (`PROTO011` past the
/// size cap), a join can be refused (`PROTO011` past the processor
/// cap, `PROTO003` for a cluster that is not a preset), and an empty
/// or priced-out grid is `OA005`.
pub fn run_protocol(
    grid: &Grid,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
    jobs: usize,
) -> Result<CampaignReport, Refusal> {
    // The paper's campaign: fused, least advanced first, no faults.
    let (session, policy, granularity, recovery) =
        ("campaign", "least-advanced", "fused", "checkpoint");
    let label = heuristic.name().unwrap_or(heuristic.label());
    parse_submission(
        session,
        ns,
        nm,
        label,
        policy,
        granularity,
        recovery,
        "",
        0.0,
    )?;

    let cfg = ServiceConfig {
        capacity: ns,
        planning_nm: nm,
        planning_heuristic: heuristic,
    };
    let mut service = Service::new(cfg, jobs);
    for (_, c) in grid.iter() {
        answer(service.handle(Request::ClusterJoin {
            name: c.name.clone(),
            preset: c.name.clone(),
            resources: c.resources,
        }))?;
    }
    answer(service.handle(Request::Submit {
        session: session.to_string(),
        ns,
        nm,
        heuristic: label.to_string(),
        policy: policy.to_string(),
        granularity: granularity.to_string(),
        recovery: recovery.to_string(),
        kills: String::new(),
        deadline: 0.0,
    }))?;
    let done = service
        .handle(Request::Drain {})
        .into_iter()
        .find_map(|r| match r {
            Response::Completed { report, .. } => Some(report),
            _ => None,
        })
        .expect("a fault-free admitted session completes at the drain");

    let request = done.request;
    let mut reports: Vec<ExecReport> = (0..grid.len() as u32)
        .map(|i| ExecReport {
            request,
            cluster: ClusterId(i),
            scenarios: Vec::new(),
            makespan: 0.0,
            grouping: String::from("(none)"),
        })
        .collect();
    for r in done.reports {
        let i = r.cluster.index();
        reports[i] = r;
    }
    let mut trace = vec![ProtocolEvent::RequestReceived { request, ns, nm }];
    trace.extend(
        reports
            .iter()
            .map(|r| ProtocolEvent::PerfQueried { cluster: r.cluster }),
    );
    trace.extend(
        reports
            .iter()
            .map(|r| ProtocolEvent::PerfReceived { cluster: r.cluster }),
    );
    trace.push(ProtocolEvent::RepartitionComputed {
        nb_dags: reports.iter().map(|r| r.scenarios.len() as u32).collect(),
    });
    trace.extend(reports.iter().map(|r| ProtocolEvent::ExecSent {
        cluster: r.cluster,
        scenarios: r.scenarios.len() as u32,
    }));
    trace.extend(reports.iter().map(|r| ProtocolEvent::ReportReceived {
        cluster: r.cluster,
        makespan: r.makespan,
    }));
    Ok(CampaignReport::from_reports(request, reports, trace))
}

/// The refusal among a request's responses, if the daemon refused it.
fn answer(responses: Vec<Response>) -> Result<(), Refusal> {
    match responses.into_iter().next() {
        Some(Response::Error { code, message } | Response::Rejected { code, message, .. }) => {
            Err(Refusal { code, message })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::presets::benchmark_grid;

    #[test]
    fn a_heuristic_without_a_wire_name_is_refused_before_any_join() {
        let err = run_protocol(&benchmark_grid(40), Heuristic::Balanced, 2, 6, 1).unwrap_err();
        assert_eq!(err.to_string(), "PROTO003: unknown heuristic \"balanced\"");
    }
}
