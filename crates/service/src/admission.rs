//! Admission control: what a submission must prove before it runs.
//!
//! The daemon admits nothing it has not statically checked. A
//! submission passes through, in order:
//!
//! 1. **shape** — the campaign reader `oa_sched::read`: `ns`/`nm`
//!    positive (`OA002`), `ns × nm` within [`MAX_CAMPAIGN_MONTHS`]
//!    (`PROTO011`), and every label and the kill plan parsable
//!    (`PROTO003`);
//! 2. **placement** — the incremental Algorithm 1 must find a slot for
//!    every scenario (`OA005` when the grid is full or priced out);
//! 3. **grouping** — each target cluster groups its portion under the
//!    session's heuristic (`OA004`);
//! 4. **campaign checks** — `oa-analyze`'s `check_campaign` rules on
//!    the fault plan against each portion's grouping (`OA018`);
//! 5. **certification** — the static certifier brackets each portion;
//!    a certified lower bound past the requested deadline rejects
//!    (`CT001`), and the CT002 integer-kernel verdict is reported in
//!    the `Admitted` response.
//!
//! # Examples
//!
//! ```
//! use oa_service::admission::parse_submission;
//!
//! let sub = parse_submission(
//!     "s1", 5, 12, "knapsack", "least-advanced", "fused", "checkpoint", "1@5000", 0.0,
//! )
//! .unwrap();
//! assert_eq!(sub.plan.failures, vec![(1, 5000.0)]);
//! assert_eq!(sub.deadline, None);
//!
//! let err = parse_submission(
//!     "s2", 0, 12, "knapsack", "least-advanced", "fused", "checkpoint", "", 0.0,
//! )
//! .unwrap_err();
//! assert_eq!(err.code, "OA002");
//! ```

use oa_analyze::certify::{certify, Certificate};
use oa_analyze::diag::Severity;
use oa_analyze::scheduling::check_campaign;
use oa_platform::timing::TimingTable;
use oa_sched::grouping::Grouping;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};
use oa_sched::read::{self, ReadError};

use crate::wire::codes;

pub use oa_sched::params::{MAX_CAMPAIGN_MONTHS, MAX_CLUSTER_PROCS};

/// Why a submission was refused: a stable code and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// Stable code from [`crate::wire::codes`].
    pub code: String,
    /// Human-readable reason.
    pub message: String,
}

impl Refusal {
    pub(crate) fn new(code: &str, message: impl Into<String>) -> Self {
        Self {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

impl From<ReadError> for Refusal {
    fn from(e: ReadError) -> Self {
        Self::new(e.code, e.message)
    }
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A submission with every field parsed into its domain type.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Session name.
    pub session: String,
    /// Scenarios to run.
    pub ns: u32,
    /// Months per scenario.
    pub nm: u32,
    /// Grouping heuristic for the session's own portions.
    pub heuristic: Heuristic,
    /// Engine configuration (policy, granularity, recovery).
    pub config: CampaignConfig,
    /// Fault plan, applied to every portion independently.
    pub plan: FaultPlan,
    /// Absolute virtual deadline; `None` when unconstrained.
    pub deadline: Option<f64>,
}

/// Parses the wire-level `Submit` fields into a [`Submission`]: the
/// shape, labels and kill plan through `oa_sched::read` (`OA002`,
/// `PROTO011`, `PROTO003`), then the session name and the deadline
/// (`PROTO003`).
#[allow(clippy::too_many_arguments)]
pub fn parse_submission(
    session: &str,
    ns: u32,
    nm: u32,
    heuristic: &str,
    policy: &str,
    granularity: &str,
    recovery: &str,
    kills: &str,
    deadline: f64,
) -> Result<Submission, Refusal> {
    if session.is_empty() {
        return Err(Refusal::new(codes::BAD_FIELD, "empty session name"));
    }
    let (ns, nm) = read::shape(ns, nm)?;
    let heuristic = read::heuristic(heuristic)?;
    let config = CampaignConfig {
        policy: read::policy(policy)?,
        granularity: read::granularity(granularity)?,
        recovery: read::recovery(recovery)?,
    };
    let plan = read::kills(kills)?;
    if !deadline.is_finite() || deadline < 0.0 {
        return Err(Refusal::new(
            codes::BAD_FIELD,
            format!("deadline must be a non-negative finite number, got {deadline}"),
        ));
    }
    Ok(Submission {
        session: session.to_string(),
        ns,
        nm,
        heuristic,
        config,
        plan,
        deadline: (deadline > 0.0).then_some(deadline),
    })
}

/// Statically checks one portion of an admitted-to-be session: the
/// `oa-analyze` campaign rules first (`OA018`), then the certifier.
/// The returned certificate carries the portion's makespan bracket and
/// integer-kernel verdict.
pub fn admit_portion(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> Result<Certificate, Refusal> {
    let diags = check_campaign(config, plan, grouping);
    if let Some(err) = diags.iter().find(|d| d.severity == Severity::Error) {
        return Err(Refusal::new(codes::BAD_FAULT_PLAN, err.message.clone()));
    }
    Ok(certify(inst, table, grouping, config, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;
    use oa_sched::policy::{Granularity, Recovery, ScenarioPolicy};

    #[test]
    fn labels_parse_into_domain_types() {
        let sub = parse_submission(
            "s",
            3,
            6,
            "gain3",
            "round-robin",
            "unfused",
            "restart",
            "0@100,1@200.5",
            9e6,
        )
        .unwrap();
        assert_eq!(sub.heuristic, Heuristic::Knapsack);
        assert_eq!(sub.config.policy, ScenarioPolicy::RoundRobin);
        assert_eq!(sub.config.granularity, Granularity::Unfused);
        assert_eq!(sub.config.recovery, Recovery::RestartScenario);
        assert_eq!(sub.plan.failures, vec![(0, 100.0), (1, 200.5)]);
        assert_eq!(sub.deadline, Some(9e6));
    }

    #[test]
    fn malformed_fields_are_proto003() {
        let cases = [
            (
                "s",
                1,
                1,
                "quantum",
                "least-advanced",
                "fused",
                "checkpoint",
                "",
                0.0,
            ),
            (
                "s",
                1,
                1,
                "basic",
                "psychic",
                "fused",
                "checkpoint",
                "",
                0.0,
            ),
            (
                "s",
                1,
                1,
                "basic",
                "least-advanced",
                "blended",
                "checkpoint",
                "",
                0.0,
            ),
            (
                "s",
                1,
                1,
                "basic",
                "least-advanced",
                "fused",
                "prayer",
                "",
                0.0,
            ),
            (
                "s",
                1,
                1,
                "basic",
                "least-advanced",
                "fused",
                "checkpoint",
                "1;2",
                0.0,
            ),
            (
                "s",
                1,
                1,
                "basic",
                "least-advanced",
                "fused",
                "checkpoint",
                "x@9",
                0.0,
            ),
            (
                "s",
                1,
                1,
                "basic",
                "least-advanced",
                "fused",
                "checkpoint",
                "",
                -1.0,
            ),
            (
                "",
                1,
                1,
                "basic",
                "least-advanced",
                "fused",
                "checkpoint",
                "",
                0.0,
            ),
        ];
        for (s, ns, nm, h, p, g, r, k, d) in cases {
            let err = parse_submission(s, ns, nm, h, p, g, r, k, d).unwrap_err();
            assert_eq!(err.code, codes::BAD_FIELD, "case {h}/{p}/{g}/{r}/{k}/{d}");
        }
    }

    #[test]
    fn the_size_cap_admits_exactly_its_month_count() {
        let parse = |ns, nm| {
            parse_submission(
                "s",
                ns,
                nm,
                "knapsack",
                "least-advanced",
                "fused",
                "checkpoint",
                "",
                0.0,
            )
        };
        let cap = u32::try_from(MAX_CAMPAIGN_MONTHS).unwrap();
        assert_eq!(parse(1, cap).unwrap().nm, cap);
        assert_eq!(parse(1 << 10, 1 << 10).unwrap().ns, 1 << 10);
        for (ns, nm) in [(1, cap + 1), (2, cap / 2 + 1), (u32::MAX, u32::MAX)] {
            assert_eq!(parse(ns, nm).unwrap_err().code, codes::OVER_SIZE_CAP);
        }
    }

    #[test]
    fn bad_fault_plans_fail_oa018() {
        let table = PcrModel::reference().table(1.0).unwrap();
        let inst = Instance::new(3, 6, 53);
        let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
        let config = CampaignConfig::default();
        // Group 99 does not exist in any grouping of 3 scenarios.
        let plan = FaultPlan::none().kill(99, 1000.0);
        let err = admit_portion(inst, &table, &grouping, &config, &plan).unwrap_err();
        assert_eq!(err.code, codes::BAD_FAULT_PLAN);

        let ok = admit_portion(inst, &table, &grouping, &config, &FaultPlan::none()).unwrap();
        assert!(ok.bounds.lo > 0.0 && ok.bounds.hi.is_finite());
    }
}
