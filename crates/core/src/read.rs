//! The one reader of the campaign fields that come from outside the
//! program: in Figure 9's step 1 the client hands the grid `NS`, `NM`
//! and a heuristic. Each `oa` command, `oa import`, the workflow and
//! batch spec readers and the daemon's `Submit` and `ClusterJoin` read
//! that hand-off here, so each decision is written once and every
//! front end applies the same caps. A refusal is a [`ReadError`] with
//! one of four stable codes; it prints as `CODE: message`.
//!
//! ```
//! use oa_sched::read;
//!
//! assert_eq!(read::shape(10, 1800), Ok((10, 1800)));
//! assert_eq!(read::shape(1, 2_000_000_000).unwrap_err().code, "PROTO011");
//! assert_eq!(read::kills(" 1 @ 5000").unwrap().failures, vec![(1, 5000.0)]);
//! ```

use oa_par::MAX_JOBS;
use oa_platform::cluster::{check_procs, Cluster, ProcsError};
use oa_platform::presets::{preset_cluster, reference_cluster, PRESET_CLUSTERS};

use crate::heuristics::Heuristic;
use crate::params::MAX_CAMPAIGN_MONTHS;
use crate::policy::{FaultPlan, Granularity, Recovery, ScenarioPolicy};

/// `ns` or `nm` is zero (the analyzer's rule id, reused by admission).
pub const EMPTY_CAMPAIGN: &str = "OA002";
/// A cluster of fewer processors than the smallest group (the
/// analyzer's rule id, reused by admission).
pub const CLUSTER_INSANE: &str = "OA016";
/// An unknown label or preset name, or a kill plan off the grammar.
pub const BAD_FIELD: &str = "PROTO003";
/// Over a size cap: a campaign's months, a cluster's processors, a
/// worker count (and, checked by their own readers, a batch spec's
/// variants or a request line's bytes).
pub const OVER_SIZE_CAP: &str = "PROTO011";

/// A refused field: its stable code and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// One of this module's codes.
    pub code: &'static str,
    /// Human-readable reason.
    pub message: String,
}

impl ReadError {
    /// A refusal with `code`.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// The refusal of `cluster`'s processor count.
    pub fn procs(cluster: &str, e: ProcsError) -> Self {
        Self::new(procs_code(e), format!("cluster {cluster:?} has {e}"))
    }
}

fn procs_code(e: ProcsError) -> &'static str {
    match e {
        ProcsError::TooFew(_) => CLUSTER_INSANE,
        ProcsError::OverCap(_) => OVER_SIZE_CAP,
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ReadError {}

/// Reads a campaign shape: `OA002` on a zero, `PROTO011` over
/// [`MAX_CAMPAIGN_MONTHS`] months.
pub fn shape(ns: u32, nm: u32) -> Result<(u32, u32), ReadError> {
    let months = u64::from(ns) * u64::from(nm);
    if months == 0 {
        Err(ReadError::new(
            EMPTY_CAMPAIGN,
            format!("empty campaign shape: ns={ns}, nm={nm}"),
        ))
    } else if months > MAX_CAMPAIGN_MONTHS {
        Err(ReadError::new(
            OVER_SIZE_CAP,
            format!(
                "campaign exceeds the size cap: ns={ns}, nm={nm} is {months} months, \
                 over {MAX_CAMPAIGN_MONTHS}"
            ),
        ))
    } else {
        Ok((ns, nm))
    }
}

/// Reads an unnamed cluster's processor count (a batch spec's `r`):
/// `OA016` under 4, `PROTO011` over 1,024 (`check_procs`).
pub fn procs(resources: u32) -> Result<u32, ReadError> {
    check_procs(resources).map_err(|e| ReadError::new(procs_code(e), e.to_string()))
}

/// Reads a cluster `name` on `resources` processors with the timing of
/// `preset` (`reference` or one of the paper's five clusters): the
/// processor range of [`procs`], then `PROTO003` on an unknown preset.
pub fn cluster(name: &str, preset: &str, resources: u32) -> Result<Cluster, ReadError> {
    check_procs(resources).map_err(|e| ReadError::procs(name, e))?;
    let template = if preset == "reference" {
        reference_cluster(resources)
    } else if PRESET_CLUSTERS.iter().any(|(n, ..)| *n == preset) {
        preset_cluster(preset, resources)
    } else {
        let message = format!("unknown preset {preset:?}");
        return Err(ReadError::new(BAD_FIELD, message));
    };
    Ok(Cluster::new(name, resources, template.timing))
}

fn label<T>(kind: &str, name: &str, parse: fn(&str) -> Option<T>) -> Result<T, ReadError> {
    parse(name).ok_or_else(|| ReadError::new(BAD_FIELD, format!("unknown {kind} {name:?}")))
}

/// Reads a heuristic name or alias: `PROTO003` unless
/// [`Heuristic::parse`] knows it.
pub fn heuristic(name: &str) -> Result<Heuristic, ReadError> {
    label("heuristic", name, Heuristic::parse)
}

/// Reads a policy label ([`ScenarioPolicy::parse`]).
pub fn policy(name: &str) -> Result<ScenarioPolicy, ReadError> {
    label("policy", name, ScenarioPolicy::parse)
}

/// Reads a granularity label ([`Granularity::parse`]).
pub fn granularity(name: &str) -> Result<Granularity, ReadError> {
    label("granularity", name, Granularity::parse)
}

/// Reads a recovery name or alias ([`Recovery::parse`]).
pub fn recovery(name: &str) -> Result<Recovery, ReadError> {
    label("recovery", name, Recovery::parse)
}

/// Reads a kill plan `G@T,G@T,…` (blanks around `G` and `T` allowed,
/// empty entries skipped): `PROTO003` off that grammar. Whether the
/// groups exist and the instants are sane is `OA018`'s call.
pub fn kills(spec: &str) -> Result<FaultPlan, ReadError> {
    let mut plan = FaultPlan::none();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let bad = || {
            let message = format!("bad kill {part:?}: expected GROUP@TIME (e.g. 0@1500)");
            ReadError::new(BAD_FIELD, message)
        };
        let (g, t) = part.split_once('@').ok_or_else(bad)?;
        let g = g.trim().parse().map_err(|_| bad())?;
        let t = t.trim().parse().map_err(|_| bad())?;
        plan = plan.kill(g, t);
    }
    Ok(plan)
}

/// Reads the worker count ([`oa_par::resolve_jobs`] of a `--jobs` flag,
/// `OA_JOBS` or the host): `PROTO011` over [`MAX_JOBS`].
pub fn jobs(explicit: Option<usize>) -> Result<usize, ReadError> {
    let jobs = oa_par::resolve_jobs(explicit);
    if jobs > MAX_JOBS {
        let message = format!("{jobs} jobs, over the cap of {MAX_JOBS}");
        return Err(ReadError::new(OVER_SIZE_CAP, message));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MAX_CLUSTER_PROCS;

    #[test]
    fn the_shape_cap_admits_exactly_its_month_count() {
        let cap = u32::try_from(MAX_CAMPAIGN_MONTHS).unwrap();
        assert_eq!(shape(1, cap), Ok((1, cap)));
        for (ns, nm) in [(1, cap + 1), (2, cap / 2 + 1), (u32::MAX, u32::MAX)] {
            assert_eq!(shape(ns, nm).unwrap_err().code, OVER_SIZE_CAP);
        }
        for (ns, nm) in [(0, 1), (1, 0), (0, u32::MAX)] {
            assert_eq!(shape(ns, nm).unwrap_err().code, EMPTY_CAMPAIGN);
        }
    }

    #[test]
    fn processor_counts_have_one_range() {
        assert_eq!(procs(4), Ok(4));
        assert_eq!(procs(MAX_CLUSTER_PROCS), Ok(MAX_CLUSTER_PROCS));
        assert_eq!(
            procs(3).unwrap_err().to_string(),
            "OA016: 3 processors; the smallest group needs 4"
        );
        assert_eq!(
            cluster("big", "reference", MAX_CLUSTER_PROCS + 1)
                .unwrap_err()
                .to_string(),
            "PROTO011: cluster \"big\" has 1025 processors, over the cap of 1024"
        );
        assert_eq!(
            cluster("x", "mars", 53).unwrap_err().to_string(),
            "PROTO003: unknown preset \"mars\""
        );
        let c = cluster("ref", "sagittaire", 64).unwrap();
        assert_eq!(c.name, "ref");
        assert_eq!(c.timing, preset_cluster("sagittaire", 64).timing);
    }

    #[test]
    fn kill_plans_trim_blanks_and_refuse_other_grammars() {
        assert_eq!(kills("").unwrap(), FaultPlan::none());
        assert_eq!(
            kills("0@100, 1 @ 200.5,").unwrap().failures,
            vec![(0, 100.0), (1, 200.5)]
        );
        for bad in ["1;2", "x@9", "1@", "@5", "1@2@3", "-1@5", " "] {
            assert_eq!(kills(bad).unwrap_err().code, BAD_FIELD, "{bad:?}");
        }
    }

    #[test]
    fn labels_read_every_name_their_parsers_know() {
        assert_eq!(heuristic("gain3"), Ok(Heuristic::Knapsack));
        assert_eq!(granularity("unfused"), Ok(Granularity::Unfused));
        assert_eq!(recovery("restart"), Ok(Recovery::RestartScenario));
        assert_eq!(policy("round-robin"), Ok(ScenarioPolicy::RoundRobin));
        assert_eq!(
            granularity("blended").unwrap_err().to_string(),
            "PROTO003: unknown granularity \"blended\""
        );
    }

    #[test]
    fn explicit_jobs_over_the_cap_are_refused() {
        assert_eq!(jobs(Some(MAX_JOBS)), Ok(MAX_JOBS));
        assert_eq!(jobs(Some(MAX_JOBS + 1)).unwrap_err().code, OVER_SIZE_CAP);
    }
}
