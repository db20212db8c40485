//! Bit-identity of the mass-batch variant engine: every variant a
//! batch sweep executes must equal running that variant individually
//! through `simulate_campaign_kernel`, bitwise, at any worker count —
//! the hard invariant of `oa_sim::batch`. Checkpoint resume, drain
//! prefix adoption and the quiet replay fast path are pure wall-clock
//! optimizations; if any of them moves a single output bit, these
//! properties fail.
//!
//! Debug builds run 16 random cases; release builds (CI's differential
//! job) run 256.

use ocean_atmosphere::par::Pool;
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::service::daemon::{run_script, Service, ServiceConfig};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 256 };

/// Worker counts under test: the serial short-circuit, a typical small
/// pool, and an oversubscribed one.
const JOBS: [usize; 3] = [1, 2, 8];

const POLICIES: [ScenarioPolicy; 3] = [
    ScenarioPolicy::LeastAdvanced,
    ScenarioPolicy::RoundRobin,
    ScenarioPolicy::MostAdvanced,
];

/// Integral-second timing tables, so shapes are kernel-eligible and
/// the batch head path actually engages (fractional tables fall back
/// to per-variant runs, covered by `spec.fault_resolution` below).
fn arb_integral_table() -> impl Strategy<Value = TimingTable> {
    (
        50u32..2000,
        1u32..300,
        proptest::collection::vec(0u32..300, 8),
    )
        .prop_map(|(t11, tp, bumps)| {
            let mut main = [0.0f64; 8];
            let mut acc = f64::from(t11);
            for i in (0..8).rev() {
                main[i] = acc;
                acc += f64::from(bumps[i]);
            }
            TimingTable::new(main, f64::from(tp)).expect("non-increasing by construction")
        })
}

/// Small random sweep specs: one or two `R` values, a policy, fused
/// and/or unfused granularity, multi-fault Monte Carlo plans, and an
/// occasional fractional fault lattice (which exercises the non-`u64`
/// fault-time path).
fn arb_spec() -> impl Strategy<Value = BatchSpec> {
    (
        // (table, ns, nm, r, two R values?)
        (
            arb_integral_table(),
            2u32..=5,
            6u32..=40,
            12u32..=40,
            0u32..2,
        ),
        // (policy, granularity mask [1 fused, 2 unfused, 3 both],
        //  max faults, fractional fault lattice?, variants per shape)
        (
            0usize..POLICIES.len(),
            1u32..=3,
            1u32..=3,
            0u32..2,
            4u32..=16,
        ),
        0u32..u32::MAX, // seed material
    )
        .prop_map(
            |((table, ns, nm, r, two_rs), (pol, mask, max_faults, frac, variants), seed)| {
                let seed = u64::from(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut spec = BatchSpec::reference_mc(u64::from(variants), seed);
                spec.table = table;
                spec.nss = vec![ns];
                spec.nms = vec![nm];
                spec.rs = if two_rs == 1 { vec![r, r + 1] } else { vec![r] };
                spec.policies = vec![POLICIES[pol]];
                spec.granularities = match mask {
                    1 => vec![Granularity::Fused],
                    2 => vec![Granularity::Unfused],
                    _ => vec![Granularity::Fused, Granularity::Unfused],
                };
                spec.max_faults = max_faults;
                spec.fault_resolution = if frac == 1 { 0.5 } else { 1.0 };
                spec
            },
        )
}

/// Runs every variant of `spec` individually through the engine —
/// the ground truth the batch engine must reproduce bitwise.
fn individual_rows(spec: &BatchSpec) -> Vec<VariantOut> {
    let mut memo = PlanMemo::new();
    let shapes = expand_shapes(spec, &mut memo).expect("arb specs are feasible");
    let mut rows = Vec::new();
    let mut faults = Vec::new();
    for shape in &shapes {
        for v in 0..spec.variants_per_shape {
            faults_for(spec, shape, v, &mut faults);
            let plan = FaultPlan {
                failures: faults.clone(),
            };
            let (outcome, _) = simulate_campaign_kernel(
                shape.inst,
                &spec.table,
                &shape.grouping,
                &shape.config,
                &plan,
                KernelOpts::default(),
                &mut NullTracer,
            )
            .expect("expand_shapes validated the grouping");
            rows.push(VariantOut::of(&outcome, shape.inst));
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The hard invariant: batch == naive == one-at-a-time engine
    /// runs, row for row, at every worker count.
    #[test]
    fn batch_rows_equal_individual_runs_at_any_jobs(spec in arb_spec()) {
        let truth = individual_rows(&spec);
        let serial = Pool::serial();
        let reference = run_batch(&spec, &serial).expect("feasible");
        prop_assert_eq!(reference.outs.len(), truth.len());
        for (i, want) in truth.iter().enumerate() {
            prop_assert_eq!(reference.outs.at(i), *want, "batch row {} diverged", i);
        }
        let naive = run_naive(&spec, &serial).expect("feasible");
        prop_assert_eq!(
            naive.summary().checksum,
            reference.summary().checksum,
            "naive loop diverged from batch"
        );
        for jobs in JOBS {
            let pool = Pool::new(jobs);
            for share in [true, false] {
                let report = if share {
                    run_batch(&spec, &pool)
                } else {
                    run_naive(&spec, &pool)
                }
                .expect("feasible");
                prop_assert_eq!(
                    report.summary().checksum,
                    reference.summary().checksum,
                    "jobs = {}, share = {} moved the checksum", jobs, share
                );
            }
        }
    }

    /// Unfused shapes never qualify for a shared head; they must fall
    /// back to per-variant execution and still agree.
    #[test]
    fn unfused_shapes_share_nothing_and_agree(spec in arb_spec()) {
        let mut spec = spec;
        spec.granularities = vec![Granularity::Unfused];
        let pool = Pool::serial();
        let batch = run_batch(&spec, &pool).expect("feasible");
        prop_assert_eq!(batch.heads, 0, "unfused shapes must not capture heads");
        let naive = run_naive(&spec, &pool).expect("feasible");
        prop_assert_eq!(batch.summary().checksum, naive.summary().checksum);
    }

    /// `VariantSweep` over the service wire: scripted transcripts are
    /// byte-identical at every worker count (the daemon's determinism
    /// contract extends to the batch engine).
    #[test]
    fn service_sweep_transcripts_are_jobs_invariant(
        (ns, nm, r) in (2u32..=4, 6u32..=24, 12u32..=30),
        (variants, max_faults, seed) in (4u32..=12, 1u32..=2, 0u32..u32::MAX),
    ) {
        let script = format!(
            "{{\"Hello\": {{\"version\": 1}}}}\n\
             {{\"VariantSweep\": {{\"spec\": {{\"r\": {r}, \"ns\": {ns}, \"nm\": {nm}, \
              \"variants\": {variants}, \"max_faults\": {max_faults}, \"seed\": {seed}}}}}}}\n"
        );
        let mut logs = Vec::new();
        for jobs in JOBS {
            let mut service = Service::new(ServiceConfig::default(), jobs);
            logs.push(run_script(&mut service, &script));
        }
        prop_assert!(logs[0].contains("\"SweepReport\""), "log:\n{}", logs[0]);
        prop_assert_eq!(&logs[0], &logs[1], "jobs 1 vs 2 transcripts differ");
        prop_assert_eq!(&logs[0], &logs[2], "jobs 1 vs 8 transcripts differ");
    }
}

/// A shape whose head would capture more than the head budget runs
/// its variants one at a time, bitwise as the naive loop; the same
/// shape at a quarter of the months is under budget and shares a head.
#[test]
fn over_budget_shapes_run_without_a_head() {
    let mut spec = BatchSpec::reference_mc(8, 5);
    spec.nss = vec![1];
    spec.rs = vec![1024];
    spec.max_faults = 2;
    let pool = Pool::serial();
    for (nm, heads) in [(1024, 1), (4096, 0)] {
        spec.nms = vec![nm];
        let batch = run_batch(&spec, &pool).expect("feasible");
        assert_eq!(batch.heads, heads, "nm = {nm}");
        let naive = run_naive(&spec, &pool).expect("feasible");
        assert_eq!(batch.summary().checksum, naive.summary().checksum);
    }
}

/// A long-month shape (every main duration at least 65,536 s) takes
/// integer time like any integral one, so it captures a shared head,
/// and its resumed variants still equal the naive loop and the
/// one-at-a-time engine runs bit for bit.
#[test]
fn long_month_shapes_capture_heads() {
    let mut main = [0.0f64; 8];
    for (i, slot) in main.iter_mut().enumerate() {
        *slot = 80_000.0 - 1_500.0 * i as f64;
    }
    let mut spec = BatchSpec::reference_mc(32, 11);
    spec.table = TimingTable::new(main, 600.0).expect("non-increasing");
    spec.nss = vec![6];
    spec.nms = vec![120];
    spec.max_faults = 2;
    let pool = Pool::serial();
    let batch = run_batch(&spec, &pool).expect("feasible");
    assert_eq!(batch.heads, 1, "the long-month shape must share a head");
    let naive = run_naive(&spec, &pool).expect("feasible");
    assert_eq!(batch.summary().checksum, naive.summary().checksum);
    for (i, want) in individual_rows(&spec).iter().enumerate() {
        assert_eq!(batch.outs.at(i), *want, "batch row {i} diverged");
    }
}
