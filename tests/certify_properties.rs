//! The static campaign certifier versus the live engine: the
//! "static brackets dynamic" invariant of DESIGN.md. For any campaign
//! the certifier can see, (CT001) the simulated makespan must land
//! inside the certified interval `[lo, hi]` — `hi = +∞` once a fault
//! plan is present — and (CT002) the certifier's integer-kernel
//! verdict must equal both the engine's static gate
//! (`kernel_eligibility`) and the runtime decision the engine actually
//! reports (`KernelReport::integer_time`).
//!
//! Debug builds run 24 random cases; release builds (CI's differential
//! job) run 256.

use ocean_atmosphere::analyze::certify::{certify, check_bounds, check_kernel_verdict, verify};
use ocean_atmosphere::prelude::*;
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 256 };

const POLICIES: [ScenarioPolicy; 3] = [
    ScenarioPolicy::LeastAdvanced,
    ScenarioPolicy::RoundRobin,
    ScenarioPolicy::MostAdvanced,
];

const GRANULARITIES: [Granularity; 2] = [Granularity::Fused, Granularity::Unfused];

/// Shortest month of a long-month table: 2^16 s. Month length alone
/// must never stand the certifier's verdict down.
const LONG_MONTH: f64 = 65_536.0;

/// Integral-second timing tables (the integer kernel's home turf). One
/// table in four is a long-month table, every main duration at least
/// [`LONG_MONTH`].
fn arb_integral_table() -> impl Strategy<Value = TimingTable> {
    (
        50u32..3000,
        1u32..400,
        proptest::collection::vec(0u32..400, 8),
        0u32..4,
    )
        .prop_map(|(t11, tp, bumps, branch)| {
            let mut main = [0.0f64; 8];
            let long = if branch == 0 { LONG_MONTH } else { 0.0 };
            let mut acc = f64::from(t11) + long;
            for i in (0..8).rev() {
                main[i] = acc;
                acc += f64::from(bumps[i]);
            }
            TimingTable::new(main, f64::from(tp)).expect("non-increasing by construction")
        })
}

/// Fractional-second tables, where the kernel must stand down — the
/// certifier has to predict that stand-down, not just the happy path.
fn arb_fractional_table() -> impl Strategy<Value = TimingTable> {
    (
        50.0f64..3000.0,
        1.0f64..400.0,
        proptest::collection::vec(0.0f64..400.0, 8),
    )
        .prop_map(|(t11, tp, bumps)| {
            let mut main = [0.0f64; 8];
            let mut acc = t11;
            for i in (0..8).rev() {
                main[i] = acc;
                acc += bumps[i];
            }
            TimingTable::new(main, tp).expect("non-increasing by construction")
        })
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (1u32..=8, 1u32..=60, 11u32..=120).prop_map(|(ns, nm, r)| Instance::new(ns, nm, r))
}

/// Certifies one fault-free campaign, runs it, and asserts the full
/// cross-check: bounds bracket the makespan, and all three kernel
/// verdicts (certificate, static engine gate, runtime report) agree.
fn assert_certified(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
) -> Result<(), TestCaseError> {
    let plan = FaultPlan::none();
    let cert = certify(inst, table, grouping, config, &plan);

    prop_assert!(cert.bounds.is_bounded(), "fault-free bounds must close");
    prop_assert!(
        cert.tightness().is_some_and(|t| t >= 1.0),
        "interval inverted: {}",
        cert.bounds
    );
    prop_assert_eq!(
        kernel_eligibility(inst, table, grouping, config, &plan),
        cert.integer_kernel,
        "certificate disagrees with the engine's static gate"
    );

    let (out, rep) = simulate_campaign_kernel(
        inst,
        table,
        grouping,
        config,
        &plan,
        KernelOpts::default(),
        &mut NullTracer,
    )
    .expect("valid grouping");
    let makespan = out.completed().expect("fault-free runs complete").makespan;

    if let Some(d) = check_bounds(&cert, makespan) {
        return Err(TestCaseError::fail(format!(
            "CT001: {} (bounds {})",
            d.render(),
            cert.bounds
        )));
    }
    if let Some(d) = check_kernel_verdict(&cert, rep.integer_time) {
        return Err(TestCaseError::fail(format!("CT002: {}", d.render())));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Integral tables, both paper heuristics, every policy ×
    /// granularity: the bracket holds and every verdict agrees (the
    /// kernel is typically *eligible* here, but the property is
    /// agreement, not eligibility — large horizons may still demur).
    #[test]
    fn bounds_bracket_integral_campaigns(
        (inst, table) in (arb_instance(), arb_integral_table()),
    ) {
        for h in [Heuristic::Basic, Heuristic::Knapsack] {
            let Ok(grouping) = h.grouping(inst, &table) else { continue };
            for policy in POLICIES {
                for granularity in GRANULARITIES {
                    let config = CampaignConfig {
                        policy,
                        granularity,
                        recovery: Recovery::MonthlyCheckpoint,
                    };
                    assert_certified(inst, &table, &grouping, &config)?;
                }
            }
        }
    }

    /// Fractional tables: the certifier must predict the kernel's
    /// stand-down, and the bracket must hold on the float path too.
    #[test]
    fn bounds_bracket_fractional_campaigns(
        (inst, table) in (arb_instance(), arb_fractional_table()),
    ) {
        let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
        for granularity in GRANULARITIES {
            let config = CampaignConfig {
                policy: ScenarioPolicy::LeastAdvanced,
                granularity,
                recovery: Recovery::MonthlyCheckpoint,
            };
            assert_certified(inst, &table, &grouping, &config)?;
        }
    }

    /// Fault plans void the upper bound but never the lower one:
    /// completed faulty runs still respect `lo`, and the kernel
    /// verdicts still agree (fractional kill instants are one of the
    /// ways a plan demotes the run to float time).
    #[test]
    fn fault_plans_keep_the_lower_bound(
        (inst, table) in (arb_instance(), arb_integral_table()),
        kills in proptest::collection::vec((0usize..4, 0.0f64..1.5), 1..4),
        integral_kills in 0u32..2,
    ) {
        let integral_kills = integral_kills == 1;
        let Ok(grouping) = Heuristic::Basic.grouping(inst, &table) else { return Ok(()) };
        let clean = estimate(inst, &table, &grouping).expect("valid grouping").makespan;
        let plan = FaultPlan {
            failures: kills
                .iter()
                .map(|&(g, f)| {
                    let t = f * clean;
                    (g % grouping.group_count().max(1),
                     if integral_kills { t.floor() } else { t })
                })
                .collect(),
        };
        let config = CampaignConfig {
            policy: ScenarioPolicy::LeastAdvanced,
            granularity: Granularity::Fused,
            recovery: Recovery::MonthlyCheckpoint,
        };
        let cert = certify(inst, &table, &grouping, &config, &plan);
        prop_assert!(!cert.bounds.is_bounded(), "a kill voids the upper bound");
        prop_assert_eq!(cert.fault_count, plan.failures.len());
        prop_assert_eq!(
            kernel_eligibility(inst, &table, &grouping, &config, &plan),
            cert.integer_kernel
        );

        let (out, rep) = simulate_campaign_kernel(
            inst, &table, &grouping, &config, &plan,
            KernelOpts::default(), &mut NullTracer,
        ).expect("valid grouping");
        // Stranded campaigns have no makespan to bracket; the verdict
        // cross-check applies either way.
        let makespan = out.completed().map(|c| c.makespan);
        let report = verify(&cert, makespan, rep.integer_time);
        prop_assert!(
            report.is_clean(),
            "certifier cross-check failed:\n{}",
            report.render_text()
        );
        if let Some(ms) = makespan {
            prop_assert!(ms >= cert.bounds.lo * (1.0 - 1e-9),
                "faulty makespan {} beats the certified floor {}", ms, cert.bounds.lo);
        }
    }
}

/// Every preset cluster of the paper (Table 2) certifies cleanly
/// against the live engine across policies and granularities — and the
/// preset pool itself exercises both kernel verdicts: the reference
/// and capricorne tables are tick-exact, while sagittaire's fractional
/// `T(1,1)` keeps the engine in float time. This pins the certifier to
/// real campaign data, not just generated tables.
#[test]
fn preset_clusters_certify_cleanly() {
    let clusters: Vec<(&str, TimingTable)> = std::iter::once("reference")
        .chain(PRESET_CLUSTERS.iter().map(|&(name, _, _, _)| name))
        .map(|name| {
            let cluster = if name == "reference" {
                reference_cluster(53)
            } else {
                preset_cluster(name, 53)
            };
            (name, cluster.timing)
        })
        .collect();

    let inst = Instance::new(10, 120, 53);
    let plan = FaultPlan::none();
    let mut integer_presets = 0usize;
    let mut float_presets = 0usize;

    for (name, table) in &clusters {
        let grouping = Heuristic::Knapsack
            .grouping(inst, table)
            .expect("53 procs fits the knapsack grouping");
        let mut verdicts = Vec::new();
        for policy in POLICIES {
            for granularity in GRANULARITIES {
                let config = CampaignConfig {
                    policy,
                    granularity,
                    recovery: Recovery::MonthlyCheckpoint,
                };
                let cert = certify(inst, table, &grouping, &config, &plan);
                assert_eq!(
                    kernel_eligibility(inst, table, &grouping, &config, &plan),
                    cert.integer_kernel,
                    "{name}/{policy:?}/{granularity:?}: static gate disagrees"
                );
                let (out, rep) = simulate_campaign_kernel(
                    inst,
                    table,
                    &grouping,
                    &config,
                    &plan,
                    KernelOpts::default(),
                    &mut NullTracer,
                )
                .expect("valid grouping");
                let makespan = out.completed().expect("fault-free").makespan;
                let report = verify(&cert, Some(makespan), rep.integer_time);
                assert!(
                    report.is_clean(),
                    "{name}/{policy:?}/{granularity:?}: {}",
                    report.render_text()
                );
                verdicts.push(cert.integer_kernel);
            }
        }
        // The verdict is a property of the timing table's fused/unfused
        // durations, not of the scenario policy.
        let fused: Vec<bool> = verdicts.iter().copied().step_by(2).collect();
        assert!(
            fused.iter().all(|&v| v == fused[0]),
            "{name}: kernel verdict varied across policies"
        );
        if verdicts.iter().any(|&v| v) {
            integer_presets += 1;
        }
        if verdicts.iter().any(|&v| !v) {
            float_presets += 1;
        }
    }

    // The preset pool must keep exercising both sides of the gate;
    // losing either side would let a verdict regression hide.
    assert!(integer_presets > 0, "no preset takes the integer path");
    assert!(float_presets > 0, "no preset exercises the float fallback");
}
