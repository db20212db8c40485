//! Platform-layer rules (OA016–OA017): cluster sanity and network
//! feasibility.
//!
//! [`oa_platform::cluster::Cluster::new`] and
//! [`oa_platform::timing::TimingTable::new`] validate on construction,
//! but both types deserialize from disk without revalidation (benchmark
//! imports, persisted grids), so a cluster reaching the scheduler can
//! still be degenerate. OA016 re-checks the invariants and warns when a
//! table falls outside the envelope the paper benchmarked on Grid'5000.
//! OA017 asks whether the 120 MB handed from month `n` to month `n+1`
//! can hide inside a month's compute time on a given link.

use oa_platform::cluster::{check_procs, Cluster, ProcsError};
use oa_platform::presets::{FASTEST_T11, SLOWEST_T11};
use oa_workflow::data::INTER_MONTH_TRANSFER;

use crate::diag::{Diagnostic, RuleCode, Severity};

/// Fraction of a month the inter-month transfer may consume before
/// OA017 warns that transfer time is no longer negligible.
pub const TRANSFER_WARN_FRACTION: f64 = 0.10;

/// Relative slack on the benchmarked `T[11]` envelope: the preset models
/// are calibrated fits, so their headline times land within a few
/// seconds of the paper's nominal values, not exactly on them.
pub const ENVELOPE_SLACK: f64 = 0.005;

/// Runs OA016 over a cluster description, collecting every finding.
pub fn check_cluster(cluster: &Cluster) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Err(e @ ProcsError::TooFew(_)) = check_procs(cluster.resources) {
        let message = format!("cluster {:?} has {e}", cluster.name);
        out.push(
            Diagnostic::new(RuleCode::ClusterSanity, message)
                .with("resources", f64::from(cluster.resources)),
        );
    }
    // Re-validate the timing table: deserialized tables bypass
    // TimingTable::new.
    let main = cluster.timing.main_array();
    for (i, &t) in main.iter().enumerate() {
        let g = 4 + i as u32;
        if !(t.is_finite() && t > 0.0) {
            out.push(
                Diagnostic::new(
                    RuleCode::ClusterSanity,
                    format!("T[{g}] = {t} is not a positive finite duration"),
                )
                .with("group", f64::from(g))
                .with("value", t),
            );
        }
    }
    let post = cluster.timing.post_secs();
    if !(post.is_finite() && post > 0.0) {
        out.push(
            Diagnostic::new(
                RuleCode::ClusterSanity,
                format!("TP = {post} is not a positive finite duration"),
            )
            .with("value", post),
        );
    }
    for (i, w) in main.windows(2).enumerate() {
        if w[0].is_finite() && w[1].is_finite() && w[0] < w[1] {
            let g = 4 + i as u32;
            out.push(
                Diagnostic::new(
                    RuleCode::ClusterSanity,
                    format!(
                        "T[{g}] = {} < T[{}] = {}: adding a processor must never slow the task down",
                        w[0],
                        g + 1,
                        w[1]
                    ),
                )
                .with("group", f64::from(g)),
            );
        }
    }
    // Envelope check: the paper benchmarked T[11] between 1177 s
    // (fastest cluster) and 1622 s (slowest). A table far outside that
    // band is probably a mis-scaled import, not a real machine.
    if out.is_empty() {
        let t11 = cluster.timing.main_secs(11);
        let (lo, hi) = (
            FASTEST_T11 * (1.0 - ENVELOPE_SLACK),
            SLOWEST_T11 * (1.0 + ENVELOPE_SLACK),
        );
        if !(lo..=hi).contains(&t11) {
            out.push(
                Diagnostic::new(
                    RuleCode::ClusterSanity,
                    format!(
                        "T[11] = {t11:.0} s lies outside the benchmarked Grid'5000 envelope [{FASTEST_T11:.0}, {SLOWEST_T11:.0}]"
                    ),
                )
                .severity(Severity::Warn)
                .with("t11", t11),
            );
        }
    }
    out
}

/// Runs OA017: can the 120 MB inter-month transfer hide inside a month
/// of `month_secs` on a link of `bandwidth_mbps` MB/s and
/// `latency_secs` latency?
pub fn check_bandwidth(bandwidth_mbps: f64, latency_secs: f64, month_secs: f64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let link_ok = bandwidth_mbps.is_finite()
        && bandwidth_mbps > 0.0
        && latency_secs.is_finite()
        && latency_secs >= 0.0;
    if !link_ok {
        out.push(
            Diagnostic::new(
                RuleCode::BandwidthInfeasible,
                format!(
                    "link ({bandwidth_mbps} MB/s, {latency_secs} s latency) is not a usable network"
                ),
            )
            .with("bandwidth_mbps", bandwidth_mbps)
            .with("latency_secs", latency_secs),
        );
        return out;
    }
    if !(month_secs.is_finite() && month_secs > 0.0) {
        out.push(
            Diagnostic::new(
                RuleCode::BandwidthInfeasible,
                format!("month duration {month_secs} s is not a positive finite span"),
            )
            .with("month_secs", month_secs),
        );
        return out;
    }
    let transfer = INTER_MONTH_TRANSFER.transfer_secs(bandwidth_mbps, latency_secs);
    if transfer >= month_secs {
        out.push(
            Diagnostic::new(
                RuleCode::BandwidthInfeasible,
                format!(
                    "moving the {} MB month hand-off takes {transfer:.1} s, a whole month computes in {month_secs:.1} s: the chain can never keep up",
                    INTER_MONTH_TRANSFER.as_mb()
                ),
            )
            .with("transfer_secs", transfer)
            .with("month_secs", month_secs),
        );
    } else if transfer > TRANSFER_WARN_FRACTION * month_secs {
        out.push(
            Diagnostic::new(
                RuleCode::BandwidthInfeasible,
                format!(
                    "the {} MB month hand-off takes {transfer:.1} s, {:.1}% of a {month_secs:.1} s month: transfer time is not negligible on this link",
                    INTER_MONTH_TRANSFER.as_mb(),
                    100.0 * transfer / month_secs
                ),
            )
            .severity(Severity::Warn)
            .with("transfer_secs", transfer)
            .with("month_secs", month_secs),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::presets::{preset_cluster, PRESET_CLUSTERS};

    #[test]
    fn presets_are_clean() {
        for (name, _, _, _) in PRESET_CLUSTERS {
            let ds = check_cluster(&preset_cluster(name, 64));
            assert!(ds.is_empty(), "{name}: {ds:?}");
        }
    }

    #[test]
    fn off_envelope_table_warns() {
        let mut c = preset_cluster("sagittaire", 64);
        c.timing = c.timing.scaled(0.5).unwrap(); // twice as fast as any real cluster
        let ds = check_cluster(&c);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, Severity::Warn);
    }

    #[test]
    fn gigabit_link_is_fine_for_reference_month() {
        // 100 MB/s, 50 ms latency, 1260 s month: 1.25 s ≪ a month.
        assert!(check_bandwidth(100.0, 0.05, 1260.0).is_empty());
    }

    #[test]
    fn slow_link_errors() {
        // 0.05 MB/s: the 120 MB hand-off takes 2400 s > one 1260 s month.
        let ds = check_bandwidth(0.05, 0.0, 1260.0);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, Severity::Error);
    }

    #[test]
    fn marginal_link_warns() {
        // 0.5 MB/s: 240 s transfer = 19% of a 1260 s month.
        let ds = check_bandwidth(0.5, 0.0, 1260.0);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, Severity::Warn);
    }
}
