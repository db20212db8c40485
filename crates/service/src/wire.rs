//! Line-delimited JSON wire format of the campaign service.
//!
//! One request per line in, one or more responses per line out. Every
//! line is a single-key JSON object whose key names the message kind
//! (the externally-tagged rendering of the enums below); the protocol
//! is fully documented in `docs/PROTOCOL.md`, and the error/rejection
//! codes live in [`codes`]. The execution-level payloads —
//! [`CampaignReport`] and its `ExecReport`s — are the
//! [`crate::protocol`] types carried verbatim, so a campaign completed
//! over the wire reads exactly like one completed in process.
//!
//! # Examples
//!
//! ```
//! use oa_service::wire::{parse_request, Request};
//!
//! let req = parse_request(r#"{"Advance": {"to": 3600.0}}"#).unwrap();
//! assert_eq!(req, Request::Advance { to: 3600.0 });
//!
//! let err = parse_request(r#"{"Warp": {}}"#).unwrap_err();
//! assert_eq!(err.code, "PROTO002");
//! ```

use oa_sched::read::ReadError;
use serde::{Deserialize, Serialize};

use crate::protocol::CampaignReport;

/// Stable error and rejection codes of the service protocol.
///
/// `PROTO…` codes are transport-level (malformed or unacceptable
/// requests); admission rejections reuse the analyzer rule ids
/// (`OA…`/`CT…`) of the `oa-analyze` rule that refused the submission,
/// so an operator can look the failure up in `oa analyze --rules`. The
/// four codes of the campaign reader (`PROTO003`, `PROTO011`, `OA002`,
/// `OA016`) are `oa_sched::read`'s; a request line over
/// [`MAX_LINE_BYTES`] is `PROTO011` too.
pub mod codes {
    use oa_analyze::RuleCode;

    pub use oa_sched::read::{BAD_FIELD, CLUSTER_INSANE, EMPTY_CAMPAIGN, OVER_SIZE_CAP};

    /// The line is not valid JSON.
    pub const BAD_JSON: &str = "PROTO001";
    /// The line is JSON but not a known request kind.
    pub const UNKNOWN_MESSAGE: &str = "PROTO002";
    /// `Hello` announced an incompatible protocol version.
    pub const VERSION_MISMATCH: &str = "PROTO004";
    /// A session or cluster name is already taken.
    pub const DUPLICATE_ID: &str = "PROTO005";
    /// The named session or cluster does not exist.
    pub const UNKNOWN_ID: &str = "PROTO006";
    /// The cluster still holds planned scenarios and cannot leave.
    pub const BUSY: &str = "PROTO007";
    /// `Advance`/`ClusterFail` targets an instant before the clock.
    pub const TIME_REGRESSION: &str = "PROTO008";
    /// `SubmitWorkflow` carried a structurally malformed DAG: empty
    /// graph, cycle, dangling edge, or duplicate node name.
    pub const MALFORMED_WORKFLOW: &str = "PROTO009";
    /// `VariantSweep` carried an invalid batch spec: unknown label,
    /// empty axis, zero axis entry or variant count, or an infeasible
    /// shape.
    pub const BAD_SWEEP: &str = "PROTO010";

    /// Admission: a target cluster cannot group the portion.
    pub const NO_GROUPING: &str = RuleCode::GroupSizeOutOfRange.code();
    /// Admission: the grid has no capacity left for the submission.
    pub const OVER_CAPACITY: &str = RuleCode::OverSubscribed.code();
    /// Admission: the fault plan violates the campaign checks.
    pub const BAD_FAULT_PLAN: &str = RuleCode::CampaignConfigSanity.code();
    /// Admission: the certified lower bound already misses the
    /// requested deadline.
    pub const DEADLINE_UNREACHABLE: &str = RuleCode::BoundsViolated.code();
}

/// Everything a client can send, one JSON object per line.
///
/// All fields are mandatory — the vendored deserializer has no
/// defaults — so "no deadline" is spelled `0.0` and "no kills" is the
/// empty string. `oa submit` fills the boilerplate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake: announce the protocol revision.
    Hello {
        /// Must equal [`crate::protocol::PROTOCOL_VERSION`].
        version: u32,
    },
    /// A cluster joins the grid.
    ClusterJoin {
        /// Grid-unique cluster name.
        name: String,
        /// Timing preset: `reference` or one of the paper's five
        /// benchmark clusters (`sagittaire`, `capricorne`,
        /// `chinqchint`, `grillon`, `grelon`).
        preset: String,
        /// Processors the cluster contributes.
        resources: u32,
    },
    /// An idle cluster leaves the grid cleanly.
    ClusterLeave {
        /// Cluster to remove; refused while it holds planned work.
        name: String,
    },
    /// A cluster fails at a virtual instant; its unfinished portions
    /// are displaced and replanned onto the survivors.
    ClusterFail {
        /// Cluster that dies.
        name: String,
        /// Virtual instant of the failure, seconds.
        at: f64,
    },
    /// Submit a campaign session.
    Submit {
        /// Service-unique session name.
        session: String,
        /// Scenarios to run.
        ns: u32,
        /// Months per scenario.
        nm: u32,
        /// Grouping heuristic label (`basic`, `redistribute`,
        /// `nopost`, `knapsack`, `knapsack-greedy`).
        heuristic: String,
        /// Scenario policy label (`least-advanced`, `round-robin`,
        /// `most-advanced`).
        policy: String,
        /// `fused` or `unfused`.
        granularity: String,
        /// `checkpoint` or `restart`.
        recovery: String,
        /// Fault plan, `"G@T,G@T"` pairs; empty string for none.
        kills: String,
        /// Virtual deadline, seconds; `0.0` for none. Enforced against
        /// the certified lower bound at admission (CT001).
        deadline: f64,
    },
    /// Submit a campaign session described as a workflow-IR spec
    /// (the `oa_workflow::ir::from_value` document) instead of an
    /// `(ns, nm, granularity)` triple. Recognized ocean-atmosphere
    /// preset meshes admit exactly like the equivalent `Submit`;
    /// malformed DAGs are refused with `PROTO009`.
    SubmitWorkflow {
        /// Service-unique session name.
        session: String,
        /// The workflow spec: `{"preset": {...}}` or
        /// `{"nodes": [...], "edges": [...]}`.
        workflow: serde::Value,
        /// Grouping heuristic label, as in `Submit`.
        heuristic: String,
        /// Scenario policy label, as in `Submit`.
        policy: String,
        /// `checkpoint` or `restart`. Granularity is not a field: the
        /// workflow itself is fused or unfused.
        recovery: String,
        /// Fault plan, `"G@T,G@T"` pairs; empty string for none.
        kills: String,
        /// Virtual deadline, seconds; `0.0` for none.
        deadline: f64,
    },
    /// Execute a mass-batch variant sweep (`oa_sim::batch`) and
    /// return its deterministic aggregate. The sweep runs to
    /// completion inside the request — it does not create a session
    /// or touch the virtual clock — and prices its groupings through
    /// the daemon's planning memo, so repeated sweeps over the same
    /// timing rectangle replay their knapsack tables. Invalid specs
    /// are refused with `PROTO010`.
    VariantSweep {
        /// The batch-spec document, same schema as `oa sim --batch`
        /// (every field optional; defaults are the 10⁴-variant
        /// reference Monte Carlo sweep).
        spec: serde::Value,
    },
    /// Query one session's state at the current virtual instant.
    Status {
        /// Session to query.
        session: String,
    },
    /// Advance the virtual clock, completing every session that
    /// finishes on the way.
    Advance {
        /// Target instant, seconds; must not precede the clock.
        to: f64,
    },
    /// Advance until every admitted session has completed.
    Drain {},
    /// Render the service metrics registry.
    Metrics {},
    /// Orderly shutdown: answer `Bye` and stop reading.
    Shutdown {},
}

/// Request kind names, for unknown-message classification.
pub const REQUEST_KINDS: [&str; 12] = [
    "Hello",
    "ClusterJoin",
    "ClusterLeave",
    "ClusterFail",
    "Submit",
    "SubmitWorkflow",
    "VariantSweep",
    "Status",
    "Advance",
    "Drain",
    "Metrics",
    "Shutdown",
];

/// One cluster's share of the current plan, by name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterLoad {
    /// Cluster name.
    pub name: String,
    /// Scenarios currently planned onto it.
    pub scenarios: u32,
}

/// One cluster's slice of an admitted session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortionInfo {
    /// Service-assigned cluster id.
    pub cluster: u32,
    /// Cluster name.
    pub name: String,
    /// Session-scoped scenario ids placed on this cluster.
    pub scenarios: Vec<u32>,
    /// Virtual start instant (admission time or when the cluster
    /// frees up, whichever is later).
    pub start: f64,
    /// Simulated makespan of the portion; `null` when stranded.
    pub makespan: Option<f64>,
    /// Absolute virtual finish instant; `null` when stranded.
    pub finish: Option<f64>,
    /// The grouping the portion runs under, rendered.
    pub grouping: String,
}

/// Everything the service can answer, one JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted.
    Welcome {
        /// The protocol revision the service speaks.
        version: u32,
        /// Service identifier.
        service: String,
    },
    /// A cluster joined; the plan shows the rebalanced loads.
    ClusterUp {
        /// Cluster name.
        name: String,
        /// Service-assigned cluster id.
        id: u32,
        /// Processors it contributes.
        resources: u32,
        /// Planned load per cluster after the join.
        plan: Vec<ClusterLoad>,
    },
    /// A cluster left cleanly.
    ClusterGone {
        /// Cluster name.
        name: String,
        /// Planned load per cluster after the leave.
        plan: Vec<ClusterLoad>,
    },
    /// A cluster failed; displaced sessions follow as `Replanned` or
    /// `Stranded` responses.
    ClusterFailed {
        /// Cluster name.
        name: String,
        /// Virtual instant of the failure.
        at: f64,
        /// Sessions that lost unfinished work, in admission order.
        displaced: Vec<String>,
        /// Planned load per surviving cluster.
        plan: Vec<ClusterLoad>,
    },
    /// A submission passed admission.
    Admitted {
        /// Session name.
        session: String,
        /// Admission instant (the virtual clock).
        at: f64,
        /// Per-cluster slices of the session.
        portions: Vec<PortionInfo>,
        /// Predicted absolute finish; `null` when a portion stranded.
        predicted_finish: Option<f64>,
        /// Certified lower bound on the absolute finish (CT001 gate).
        bound_lo: f64,
        /// Certified upper bound; `null` when the fault plan makes the
        /// finish unbounded.
        bound_hi: Option<f64>,
        /// Whether every portion qualifies for the integer-time
        /// kernel (the CT002 verdict).
        integer_kernel: bool,
        /// Planned load per cluster after the admission.
        plan: Vec<ClusterLoad>,
    },
    /// A submission was refused; the session does not exist.
    Rejected {
        /// Session name from the submission.
        session: String,
        /// Stable code from [`codes`].
        code: String,
        /// Human-readable reason.
        message: String,
    },
    /// A displaced session was re-placed onto the surviving grid.
    Replanned {
        /// Session name.
        session: String,
        /// Replan instant.
        at: f64,
        /// The replacement portions.
        portions: Vec<PortionInfo>,
        /// Months of work lost to the failure so far.
        months_lost: u32,
    },
    /// Answer to `VariantSweep`: the deterministic sweep aggregate.
    /// The `checksum` fingerprints every variant outcome bitwise, so
    /// two services given the same spec must answer byte-identically.
    SweepReport {
        /// Variants executed.
        variants: u64,
        /// Variants that completed.
        completed: u64,
        /// Variants stranded.
        stranded: u64,
        /// Grid shapes enumerated by the spec.
        shapes: u64,
        /// Shapes that qualified for a shared kernel head.
        heads: u64,
        /// Smallest completed makespan (0 when none completed).
        makespan_min: f64,
        /// Largest completed makespan (0 when none completed).
        makespan_max: f64,
        /// Mean completed makespan (0 when none completed).
        makespan_mean: f64,
        /// Total months lost across variants.
        months_lost_total: u64,
        /// Total crash losses, processor-seconds.
        lost_proc_secs_total: f64,
        /// FNV-1a fingerprint over every variant row, hex.
        checksum: String,
        /// Planning-memo makespan queries answered from cache.
        memo_hits: u64,
        /// Planning-memo makespan queries computed fresh.
        memo_misses: u64,
        /// Knapsack DP tables built for the sweep's shapes (reused
        /// across variants and later identical joins).
        memo_dp_builds: u64,
    },
    /// Answer to `Status`.
    State {
        /// Session name.
        session: String,
        /// The current virtual instant.
        at: f64,
        /// `queued`, `running`, `completed` or `stranded`.
        lifecycle: String,
        /// Completed months across all portions, when resolvable.
        months_done: Option<u32>,
        /// Predicted or actual absolute finish; `null` when stranded.
        finish: Option<f64>,
    },
    /// A session finished as the clock advanced.
    Completed {
        /// Session name.
        session: String,
        /// Absolute virtual finish instant.
        finish: f64,
        /// Months lost to failures over the session's lifetime.
        months_lost: u32,
        /// The campaign report of the protocol, busy clusters only.
        report: CampaignReport,
        /// Planned load per cluster after the slots freed.
        plan: Vec<ClusterLoad>,
    },
    /// A session can never finish: every group died or no capacity
    /// survived a failure.
    Stranded {
        /// Session name.
        session: String,
        /// Instant the stranding was established.
        at: f64,
        /// Months completed before the session went dark.
        completed_months: u64,
    },
    /// Acknowledges `Advance`.
    Advanced {
        /// The new virtual instant.
        to: f64,
        /// Sessions completed by this advance.
        completed: u32,
    },
    /// Acknowledges `Drain`.
    Drained {
        /// The virtual instant after draining.
        at: f64,
        /// Sessions completed by the drain.
        completed: u32,
    },
    /// Answer to `Metrics`: the registry rendered as text.
    MetricsReport {
        /// `render_text()` of the metrics snapshot.
        text: String,
    },
    /// Acknowledges `Shutdown`; the service stops reading.
    Bye {
        /// The final virtual instant.
        at: f64,
        /// Sessions admitted over the service lifetime.
        admitted: u64,
        /// Sessions completed over the service lifetime.
        completed: u64,
    },
    /// A request failed; nothing changed.
    Error {
        /// Stable code from [`codes`].
        code: String,
        /// Human-readable reason.
        message: String,
    },
}

/// The longest request line the daemon reads: 2^24 bytes (16 MiB), six
/// times the longest line any test sends (a 40,000-node workflow spec
/// of 2.8 MB). A longer line is refused with `PROTO011` before it is
/// parsed, and the pipe and socket readers never buffer past the cap.
pub const MAX_LINE_BYTES: usize = 1 << 24;

/// A transport-level parse failure: the campaign reader's coded error
/// with `PROTO001`, `PROTO002`, `PROTO003` or `PROTO011`.
pub type ParseError = ReadError;

/// The refusal of a request line longer than [`MAX_LINE_BYTES`].
pub(crate) fn line_over_cap() -> ParseError {
    let message = format!("request line over the cap of {MAX_LINE_BYTES} bytes");
    ReadError::new(codes::OVER_SIZE_CAP, message)
}

/// Parses one request line, classifying failures into the transport
/// codes: a line over [`MAX_LINE_BYTES`] (`PROTO011`), invalid JSON or
/// JSON nested deeper than the reader's limit of 128 (`PROTO001`), an
/// unknown message kind (`PROTO002`), or bad fields inside a known
/// kind (`PROTO003`).
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(line_over_cap());
    }
    let value: serde::Value = serde_json::from_str(line)
        .map_err(|e| ReadError::new(codes::BAD_JSON, format!("invalid JSON: {e}")))?;
    let kind = match &value {
        serde::Value::Object(pairs) if pairs.len() == 1 => pairs[0].0.as_str(),
        _ => {
            let message = "a request is a single-key JSON object";
            return Err(ReadError::new(codes::UNKNOWN_MESSAGE, message));
        }
    };
    if !REQUEST_KINDS.contains(&kind) {
        let message = format!("unknown request kind {kind:?}");
        return Err(ReadError::new(codes::UNKNOWN_MESSAGE, message));
    }
    Request::from_value(&value).map_err(|e| ReadError::new(codes::BAD_FIELD, e.to_string()))
}

/// Serializes one response as a single JSON line (no trailing
/// newline).
#[must_use]
pub fn render_response(resp: &Response) -> String {
    serde_json::to_string(resp).expect("responses always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello { version: 1 },
            Request::ClusterJoin {
                name: "sagittaire".into(),
                preset: "sagittaire".into(),
                resources: 64,
            },
            Request::Submit {
                session: "s1".into(),
                ns: 5,
                nm: 12,
                heuristic: "knapsack".into(),
                policy: "least-advanced".into(),
                granularity: "fused".into(),
                recovery: "checkpoint".into(),
                kills: "".into(),
                deadline: 0.0,
            },
            Request::SubmitWorkflow {
                session: "w1".into(),
                workflow: oa_workflow::ir::preset_value(
                    oa_workflow::chain::ExperimentShape::new(3, 12),
                    true,
                ),
                heuristic: "knapsack".into(),
                policy: "least-advanced".into(),
                recovery: "checkpoint".into(),
                kills: "".into(),
                deadline: 0.0,
            },
            Request::VariantSweep {
                spec: serde_json::from_str(r#"{"r": 30, "ns": 4, "variants": 8}"#).unwrap(),
            },
            Request::Drain {},
            Request::Shutdown {},
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            assert_eq!(parse_request(&line).unwrap(), req, "line {line}");
        }
    }

    #[test]
    fn parse_failures_classify() {
        assert_eq!(parse_request("{nope").unwrap_err().code, "PROTO001");
        assert_eq!(parse_request("[1,2]").unwrap_err().code, "PROTO002");
        assert_eq!(
            parse_request(r#"{"Teleport": {}}"#).unwrap_err().code,
            "PROTO002"
        );
        let err = parse_request(r#"{"Advance": {}}"#).unwrap_err();
        assert_eq!(err.code, "PROTO003");
        assert!(err.message.contains("to"), "message names the field");
    }

    #[test]
    fn responses_serialize_without_nonfinite_floats() {
        let resp = Response::Admitted {
            session: "s".into(),
            at: 0.0,
            portions: vec![],
            predicted_finish: None,
            bound_lo: 1.0,
            bound_hi: None,
            integer_kernel: true,
            plan: vec![],
        };
        let line = render_response(&resp);
        assert!(line.contains("\"bound_hi\":null"));
        assert!(!line.contains("inf"));
    }
}
