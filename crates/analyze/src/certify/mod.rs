//! Pass 2 of `oa audit`: the static campaign certifier.
//!
//! Before a campaign is simulated, this pass derives two facts about it
//! by abstract interpretation of the analytic model — no event loop, no
//! clock, just closed forms over the `CampaignConfig` × platform pair:
//!
//! 1. **Makespan bounds.** A [`TimeInterval`] `[lo, hi]` that must
//!    bracket whatever makespan the engine later simulates. The lower
//!    bound holds for *every* execution, faulty or not; the upper bound
//!    is certified only for empty fault plans (a kill can strand work
//!    arbitrarily long, so `hi` degrades to `+∞`). A simulated makespan
//!    outside the interval is rule `CT001` — one of the two models is
//!    wrong, and either way the result cannot be trusted.
//! 2. **Integer-kernel eligibility.** Whether the run qualifies for the
//!    engine's integer-time fast-forward, decided from the same inputs
//!    the engine inspects (tick-exact durations and failure instants, a
//!    bounded horizon). A verdict that disagrees with the engine's own
//!    `KernelReport::integer_time`, from a run with default
//!    `KernelOpts`, is rule `CT002` — the static model and the engine
//!    have drifted.
//!
//! The durations and the gate are `oa_sched::kernel`'s, the functions
//! the engine itself runs, so the verdict cannot drift from the
//! engine's arithmetic; `CT002` still compares it with a real run.
//!
//! # Why the bounds are sound
//!
//! Write `N = NS·NM` for the month count, `d_i` for the main duration
//! of group `i` (`k` groups), `rate = Σ 1/d_i`, `P` for the grouping's
//! total processors and `w` for the per-month post work.
//!
//! *Lower bound*: `oa_sched::estimate::makespan_floor`, the largest of
//! its chain, throughput and area terms, each of which holds under any
//! fault plan because faults only destroy work.
//!
//! *Upper bound* (fault-free): the engine is greedy — an idle group
//! either receives a ready scenario at the same event or disbands, so
//! while at least `k` scenarios are unfinished every group is busy and
//! `rate·T − k ≤ N` bounds that phase by `(N + k)/rate`; afterwards
//! every surviving scenario runs continuously, adding at most
//! `NM·d_max`; the posts that remain after the last main are drained
//! greedily on all `P` processors (every group has disbanded into the
//! pool by then), adding at most `N·w/P` plus one chain length. One
//! further `w` of slack absorbs the phase boundaries.

use oa_platform::timing::TimingTable;
use oa_sched::estimate::{makespan_floor, FLOOR_SLACK};
use oa_sched::grouping::Grouping;
use oa_sched::kernel::{kernel_gate, main_dur, max_dur_ticks, post_model, push_durs};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};
use oa_sched::time::TimeInterval;

use crate::diag::{Diagnostic, Report, RuleCode};

/// What the certifier proves about one campaign before it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Static makespan bounds; `hi` is `+∞` when the fault plan is
    /// non-empty (no upper bound survives a kill).
    pub bounds: TimeInterval,
    /// Whether the run qualifies for the integer-time kernel, assuming
    /// the caller requests it (`KernelOpts::fast_forward`, on by
    /// default).
    pub integer_kernel: bool,
    /// Largest per-group duration in exact ticks, when every duration
    /// is tick-exact (the horizon bound is computed from this).
    pub max_dur_ticks: Option<u64>,
    /// Failures in the certified plan.
    pub fault_count: usize,
}

impl Certificate {
    /// `hi/lo` — how tight the static bracket is (`None` when the
    /// upper bound is `+∞`). The reference campaign sits around 1.7.
    #[must_use]
    pub fn tightness(&self) -> Option<f64> {
        self.bounds.ratio()
    }
}

/// Certifies one campaign: static makespan bounds plus the
/// integer-kernel verdict.
///
/// # Panics
///
/// The grouping must be valid for `inst` (`Grouping::validate`) — the
/// same precondition the engine enforces.
#[must_use]
pub fn certify(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> Certificate {
    grouping
        .validate(inst)
        .expect("certify requires a valid grouping");
    let (steps, pre, _) = post_model(config.granularity, table.post_secs());
    let trow = table.main_array();
    let dur = |g| main_dur(trow, g, config.granularity, pre);
    let mut durs = Vec::with_capacity(grouping.group_count());
    push_durs(&mut durs, grouping.groups(), trow, config.granularity, pre);
    let k = durs.len() as f64;
    let n = inst.nbtasks() as f64;
    let nm = f64::from(inst.nm);
    let p = grouping.total_procs() as f64;
    let w: f64 = steps.iter().sum();

    let d_max = durs.iter().copied().fold(0.0f64, f64::max);
    let rate: f64 = durs.iter().map(|&d| 1.0 / d).sum();
    let lo = makespan_floor(inst, grouping, w, dur);
    let bounds = if plan.is_empty() {
        let hi = (n + k) / rate + nm * d_max + n * w / p + 2.0 * w;
        TimeInterval::new(lo, hi)
    } else {
        TimeInterval::at_least(lo)
    };

    Certificate {
        bounds,
        integer_kernel: kernel_gate(&durs, &plan.failures, inst, w),
        max_dur_ticks: max_dur_ticks(&durs),
        fault_count: plan.failures.len(),
    }
}

/// `CT001`: the simulated makespan must lie inside the certified
/// bounds (with a relative `1e-9` float tolerance). Pass the
/// makespan of a *completed* outcome only — a stranded campaign has no
/// makespan to certify.
#[must_use]
pub fn check_bounds(cert: &Certificate, makespan: f64) -> Option<Diagnostic> {
    // The interval is analytic (products), the simulated clock a long
    // sum: both ends grant the floor's relative slack.
    let lo = cert.bounds.lo * (1.0 - FLOOR_SLACK);
    let hi = cert.bounds.hi * (1.0 + FLOOR_SLACK);
    if makespan >= lo && makespan <= hi {
        return None;
    }
    Some(
        Diagnostic::new(
            RuleCode::BoundsViolated,
            format!(
                "simulated makespan {makespan} s escapes the static bracket {}",
                cert.bounds
            ),
        )
        .with("makespan_secs", makespan)
        .with("bound_lo_secs", cert.bounds.lo)
        .with("bound_hi_secs", cert.bounds.hi),
    )
}

/// `CT002`: the engine's `KernelReport::integer_time` must equal the
/// static verdict. The report must come from a run with default
/// `KernelOpts` (fast-forward requested); with fast-forward off the
/// engine never enters integer time, whatever the verdict.
#[must_use]
pub fn check_kernel_verdict(cert: &Certificate, engine_integer_time: bool) -> Option<Diagnostic> {
    let expected = cert.integer_kernel;
    if engine_integer_time == expected {
        return None;
    }
    Some(
        Diagnostic::new(
            RuleCode::KernelVerdictMismatch,
            format!(
                "certifier says integer kernel {}, engine reported {}",
                if expected { "eligible" } else { "ineligible" },
                if engine_integer_time { "on" } else { "off" },
            ),
        )
        .with("expected", f64::from(u8::from(expected)))
        .with("reported", f64::from(u8::from(engine_integer_time))),
    )
}

/// Runs both certifier cross-checks against one engine run with
/// default `KernelOpts` and collects the findings. `makespan` is
/// `None` for stranded outcomes (no bracket check applies — the lower
/// bound certifies completions).
#[must_use]
pub fn verify(cert: &Certificate, makespan: Option<f64>, engine_integer_time: bool) -> Report {
    let mut report = Report::new();
    if let Some(ms) = makespan {
        report.extend(check_bounds(cert, ms).into_iter().collect());
    }
    report.extend(
        check_kernel_verdict(cert, engine_integer_time)
            .into_iter()
            .collect(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::speedup::PcrModel;
    use oa_sched::analytic;
    use oa_sched::policy::ScenarioPolicy;

    fn reference() -> (Instance, TimingTable, Grouping) {
        let table = PcrModel::reference().table(1.0).unwrap();
        let inst = Instance::new(10, 1800, 53);
        let b = analytic::best_group(inst, &table).unwrap();
        (inst, table, Grouping::uniform(b.g, b.nbmax, b.r2))
    }

    #[test]
    fn reference_bounds_bracket_the_analytic_model() {
        let (inst, table, grouping) = reference();
        let cert = certify(
            inst,
            &table,
            &grouping,
            &CampaignConfig::default(),
            &FaultPlan::none(),
        );
        // The paper's own Equation-4 makespan must sit inside the
        // bracket — the engine reproduces it bitwise for uniform
        // groupings, so this is the bracket check in miniature.
        let b = analytic::makespan(inst, &table, 7).unwrap();
        assert!(
            cert.bounds.contains(b.makespan),
            "{} outside {}",
            b.makespan,
            cert.bounds
        );
        assert!(cert.bounds.is_bounded());
        let tightness = cert.tightness().unwrap();
        assert!(
            tightness < 2.0,
            "reference bracket should be tight, got {tightness}"
        );
        assert!(check_bounds(&cert, b.makespan).is_none());
        assert!(check_bounds(&cert, cert.bounds.hi * 2.0).is_some());
        assert!(check_bounds(&cert, 1.0).is_some());
    }

    #[test]
    fn faulty_plans_lose_the_upper_bound_but_keep_the_lower() {
        let (inst, table, grouping) = reference();
        let plan = FaultPlan::none().kill(0, 40_000.0);
        let cert = certify(inst, &table, &grouping, &CampaignConfig::default(), &plan);
        assert!(!cert.bounds.is_bounded());
        assert!(cert.tightness().is_none());
        // Any huge makespan passes; anything below lo still fails.
        assert!(check_bounds(&cert, 1e12).is_none());
        assert!(check_bounds(&cert, 1.0).is_some());
    }

    #[test]
    fn integral_reference_is_kernel_eligible() {
        let (inst, table, grouping) = reference();
        let cert = certify(
            inst,
            &table,
            &grouping,
            &CampaignConfig::default(),
            &FaultPlan::none(),
        );
        assert!(cert.integer_kernel, "{cert:?}");
        // The basic grouping's one duration, T[7], is the largest.
        let ticks = cert.max_dur_ticks.unwrap();
        assert!(0 < ticks);
        assert_eq!(ticks as f64, table.main_secs(grouping.groups()[0]));
    }

    #[test]
    fn fractional_speed_stands_the_kernel_down() {
        let table = PcrModel::reference().table(1.1).unwrap();
        let inst = Instance::new(10, 1800, 53);
        let b = analytic::best_group(inst, &table).unwrap();
        let grouping = Grouping::uniform(b.g, b.nbmax, b.r2);
        let cert = certify(
            inst,
            &table,
            &grouping,
            &CampaignConfig::default(),
            &FaultPlan::none(),
        );
        assert!(!cert.integer_kernel);
        assert!(cert.max_dur_ticks.is_none());
    }

    #[test]
    fn fractional_fault_instant_stands_the_kernel_down() {
        let (inst, table, grouping) = reference();
        let plan = FaultPlan::none().kill(0, 1234.5);
        let cert = certify(inst, &table, &grouping, &CampaignConfig::default(), &plan);
        assert!(!cert.integer_kernel);
        assert_eq!(cert.fault_count, 1);
        // Durations are still ticky — only the instant disqualifies.
        assert!(cert.max_dur_ticks.is_some());
    }

    #[test]
    fn kernel_verdict_check_compares_against_the_certificate() {
        let (inst, table, grouping) = reference();
        let config = CampaignConfig::default();
        let eligible = certify(inst, &table, &grouping, &config, &FaultPlan::none());
        assert!(check_kernel_verdict(&eligible, true).is_none());
        let d = check_kernel_verdict(&eligible, false).unwrap();
        assert_eq!(d.rule.code(), "CT002");
        let plan = FaultPlan::none().kill(0, 1234.5);
        let ineligible = certify(inst, &table, &grouping, &config, &plan);
        assert!(check_kernel_verdict(&ineligible, false).is_none());
        assert!(check_kernel_verdict(&ineligible, true).is_some());
    }

    #[test]
    fn unfused_durations_match_the_fused_span_bitwise() {
        let (inst, table, grouping) = reference();
        let fused = certify(
            inst,
            &table,
            &grouping,
            &CampaignConfig::fused(ScenarioPolicy::default()),
            &FaultPlan::none(),
        );
        let unfused = certify(
            inst,
            &table,
            &grouping,
            &CampaignConfig::unfused(ScenarioPolicy::default()),
            &FaultPlan::none(),
        );
        // At cluster speed 1.0 the pre rescale is exact, so the
        // round-tripped duration — and with it the verdict — agrees.
        assert_eq!(fused.max_dur_ticks, unfused.max_dur_ticks);
        assert_eq!(fused.integer_kernel, unfused.integer_kernel);
    }

    #[test]
    fn verify_collects_both_checks() {
        let (inst, table, grouping) = reference();
        let cert = certify(
            inst,
            &table,
            &grouping,
            &CampaignConfig::default(),
            &FaultPlan::none(),
        );
        let clean = verify(&cert, Some(cert.bounds.lo), true);
        assert!(clean.is_clean(), "{}", clean.render_text());
        let bad = verify(&cert, Some(1.0), false);
        assert_eq!(bad.error_count(), 2);
        // Stranded outcomes skip the bracket, not the verdict.
        let stranded = verify(&cert, None, false);
        assert_eq!(stranded.error_count(), 1);
    }
}
