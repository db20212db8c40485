//! The integer-time kernel gate, defined once: the engine's per-group
//! durations and whether a run may fast-forward. `oa-sim`'s engine adds
//! these durations to its clock and asks [`kernel_gate`] before it
//! enters integer time; `oa-analyze`'s certifier reads the same
//! functions for its bounds and its `CT002` verdict.

use oa_platform::timing::TimingTable;
use oa_workflow::task::{CD_SECS, COF_SECS, EMF_SECS, FUSED_POST_SECS, FUSED_PRE_SECS, MIN_PROCS};

use crate::grouping::Grouping;
use crate::params::Instance;
use crate::policy::{CampaignConfig, FaultPlan, Granularity};
use crate::time::{exact_ticks, is_tick_exact, MAX_EXACT_SECS};

/// The post model for one granularity: step durations, the pre rescale
/// folded into the group span, and the index of the last chain step.
/// Fused runs one `tp` step; unfused runs the Figure 1 chain with the
/// constants rescaled by the table's post/180 cluster-speed ratio.
pub fn post_model(granularity: Granularity, tp: f64) -> ([f64; 3], f64, usize) {
    match granularity {
        Granularity::Fused => ([tp, 0.0, 0.0], 0.0, 0),
        Granularity::Unfused => {
            let speed = tp / FUSED_POST_SECS;
            (
                [COF_SECS * speed, EMF_SECS * speed, CD_SECS * speed],
                FUSED_PRE_SECS * speed,
                2,
            )
        }
    }
}

/// The main duration of a group of `g` processors, exactly as the event
/// loop adds it to its clock (`trow` is `table.main_array()`, `pre` from
/// [`post_model`]). Unfused, the scaled pre is subtracted and added
/// back so the span equals the fused duration *bitwise*.
pub fn main_dur(trow: &[f64], g: u32, granularity: Granularity, pre: f64) -> f64 {
    let t = trow[(g - MIN_PROCS) as usize];
    match granularity {
        Granularity::Fused => t,
        Granularity::Unfused => (t - pre) + pre,
    }
}

/// Appends [`main_dur`] of every group in `sizes` onto `durs`.
pub fn push_durs(
    durs: &mut Vec<f64>,
    sizes: &[u32],
    trow: &[f64],
    granularity: Granularity,
    pre: f64,
) {
    durs.extend(sizes.iter().map(|&g| main_dur(trow, g, granularity, pre)));
}

/// The largest duration in exact ticks, when every duration is a
/// positive tick-exact value.
pub fn max_dur_ticks(durs: &[f64]) -> Option<u64> {
    durs.iter().try_fold(0u64, |max, &d| match exact_ticks(d) {
        Some(ticks) if ticks > 0 => Some(max.max(ticks)),
        _ => None,
    })
}

/// The integer-time gate: whether a run over `durs` and `failures`
/// may fast-forward. Integer time is sound when every clock value the
/// run can produce is an exactly-represented integer: integral task
/// durations, integral failure instants, and a total horizon with
/// comfortable headroom below 2^53.
pub fn kernel_gate(
    durs: &[f64],
    failures: &[(usize, f64)],
    inst: Instance,
    steps_sum: f64,
) -> bool {
    let Some(max_dur_ticks) = max_dur_ticks(durs) else {
        return false;
    };
    if !failures.iter().all(|&(_, t)| is_tick_exact(t)) {
        return false;
    }
    let max_fault = failures.iter().fold(0.0f64, |a, &(_, t)| a.max(t));
    // Loose serial-work bound on the final clock value; restarts can
    // re-execute at most one campaign's worth of months per failure.
    let horizon = max_fault
        + (f64::from(inst.nm) + 1.0)
            * (f64::from(inst.ns) + failures.len() as f64 + 1.0)
            * (max_dur_ticks as f64 + steps_sum + 1.0);
    horizon < MAX_EXACT_SECS / 2.0
}

/// Whether a campaign qualifies for the integer-time kernel — the
/// engine's gate, decided without running the event loop. This is the
/// value `KernelReport::integer_time` reports whenever fast-forward is
/// requested; with it off the engine never enters integer time.
#[must_use]
pub fn kernel_eligibility(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> bool {
    let (steps, pre, _) = post_model(config.granularity, table.post_secs());
    let (sizes, trow) = (grouping.groups(), table.main_array());
    let mut durs = Vec::with_capacity(sizes.len());
    push_durs(&mut durs, sizes, trow, config.granularity, pre);
    kernel_gate(&durs, &plan.failures, inst, steps.iter().sum())
}
