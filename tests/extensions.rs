//! Integration tests for the beyond-the-paper extensions: the chain
//! planner, the baselines, fusion and staging — exercised through the
//! facade crate as a user would.

use ocean_atmosphere::baselines::{cpr, cpr_batched, one_dag_at_a_time};
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::workflow::ir::{from_value, to_spec_value};

/// The paper's grid run, untraced.
fn plain_grid(grid: &Grid, ns: u32, nm: u32) -> GridOutcome {
    let config = GridConfig::default();
    run_grid(grid, Heuristic::Knapsack, ns, nm, &config, &mut NullTracer).expect("ok")
}

/// The chain planner specializes exactly to the Ocean-Atmosphere path:
/// a fused mesh stripped of its origins is a general workflow, read off
/// the graph alone, and with two months or more it plans as the table
/// does, bit for bit.
#[test]
fn generic_specializes_to_oa() {
    let table = reference_cluster(77).timing;
    for (ns, nm, r) in [(10u32, 36u32, 53u32), (4, 60, 77), (7, 12, 30)] {
        let shape = ExperimentShape::new(ns, nm);
        let stripped =
            from_value(&to_spec_value(&lower_fused(shape))).expect("a lowered mesh round-trips");
        assert_eq!(recognize(&stripped), IrClass::General);
        let plan = ChainPlan::of(&stripped, &table).expect("a chain workload");
        assert_eq!((plan.chains(), plan.units()), (ns, nm));
        assert_eq!(plan.range(), MoldableSpec::pcr());
        assert_eq!(
            plan.row().iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            table.main_array().map(f64::to_bits)
        );
        assert_eq!(plan.trailing_secs().to_bits(), table.post_secs().to_bits());
        let inst = Instance::new(ns, nm, r);
        let oa = Heuristic::Knapsack
            .grouping(inst, &table)
            .expect("feasible");
        let gen = plan.knapsack(r).expect("feasible");
        assert_eq!(oa, gen);
        let balanced = Heuristic::Balanced.grouping(inst, &table);
        assert_eq!(plan.balanced(r).map(|(g, _)| g), balanced);
        let oa_e = estimate(inst, &table, &oa).expect("valid");
        let gen_e = plan.estimate(r, &gen).expect("valid");
        assert_eq!(
            [gen_e.makespan, gen_e.main_finish, gen_e.post_finish].map(f64::to_bits),
            [oa_e.makespan, oa_e.main_finish, oa_e.post_finish].map(f64::to_bits),
            "ns={ns} nm={nm} r={r}"
        );
    }
}

/// One node of a unit: its processor shape and duration model.
type Node = (IrTaskKind, DurationModel);

/// `chains` chains of `units` units, each the path `blocking` then
/// `trailing`, joined by a hand-off edge from the last blocking node
/// to the next unit's first.
fn chains(chains: u32, units: u32, blocking: &[Node], trailing: &[Node]) -> WorkflowIr {
    let mut ir = WorkflowIr::new();
    for c in 0..chains {
        let mut hand_off = None;
        for u in 0..units {
            let mut prev = hand_off;
            for (i, (kind, duration)) in blocking.iter().chain(trailing).enumerate() {
                let node = ir.add_task(&format!("c{c}u{u}n{i}"), *kind, duration.clone());
                if let Some(prev) = prev {
                    ir.add_dep(prev, node).expect("forward edge");
                }
                if i + 1 == blocking.len() {
                    hand_off = Some(node);
                }
                prev = Some(node);
            }
        }
    }
    ir
}

/// The workflows `tests/golden/generic_plans.txt` pins, each with the
/// processor counts it is planned at.
fn golden_workloads() -> Vec<(&'static str, ChainPlan, Vec<u32>)> {
    let moldable = |range: MoldableSpec, unit: &dyn Fn(f64) -> f64| {
        let secs = range.allocations().map(|p| unit(f64::from(p))).collect();
        (
            IrTaskKind::Moldable(range),
            DurationModel::PerAllocation(secs),
        )
    };
    let sequential = |secs: f64| (IrTaskKind::Rigid(1), DurationModel::Fixed(secs));
    let wide = MoldableSpec {
        min_procs: 2,
        max_procs: 16,
    };
    let table = PcrModel::reference().table(1.0).expect("reference table");
    let plan = |ir: WorkflowIr| ChainPlan::of(&ir, &table).expect("a chain workload");
    // The `generic_workflow` example's replica-exchange campaign.
    let exchange = chains(
        8,
        500,
        &[
            moldable(wide, &|p| 30.0 + 2500.0 / p + 2.5 * p),
            sequential(8.0),
        ],
        &[sequential(20.0)],
    );
    // A molecular-dynamics chain: near-linear scaling, then saturation.
    let md = chains(
        6,
        200,
        &[moldable(wide, &|p| 40.0 + 4000.0 / p + 3.0 * p)],
        &[sequential(25.0)],
    );
    let sequential_only = chains(4, 6, &[sequential(10.0)], &[]);
    vec![
        (
            "exchange",
            plan(exchange),
            vec![9, 13, 19, 27, 42, 70, 101, 121],
        ),
        // R = 1 fits no group of 2, so every heuristic answers `none`.
        (
            "md",
            plan(md),
            std::iter::once(1).chain((4..=120).step_by(3)).collect(),
        ),
        ("sequential", plan(sequential_only), (1..=6).collect()),
        (
            "ocean-atmosphere",
            plan(lower_fused(ExperimentShape::new(10, 48))),
            (11..=120).step_by(9).collect(),
        ),
    ]
}

/// One golden line: the plan's group sizes, its trailing pool and its
/// makespan, main finish and trailing finish as `f64` bits, or `none`
/// when nothing fits.
fn golden_line(
    out: &mut String,
    name: &str,
    r: u32,
    heuristic: &str,
    plan: Option<(&[u32], u32, [f64; 3])>,
) {
    use std::fmt::Write as _;
    let _ = write!(out, "{name} r={r} {heuristic}:");
    match plan {
        Some((sizes, pool, times)) => {
            let [makespan, main, trailing] = times.map(f64::to_bits);
            let _ = writeln!(
                out,
                " sizes {sizes:?} pool {pool} makespan {makespan:016x} main {main:016x} trailing {trailing:016x}"
            );
        }
        None => out.push_str(" none\n"),
    }
}

/// Every basic, knapsack and balanced plan of the golden workloads,
/// each read off its workflow IR, byte for byte.
#[test]
fn generic_plans_match_the_golden() {
    let mut got = String::new();
    for (name, w, rs) in golden_workloads() {
        for r in rs {
            let scored = |g: Grouping| {
                let e = w.estimate(r, &g).expect("heuristic plans are valid");
                (g, e)
            };
            for (heuristic, plan) in [
                ("basic", w.basic(r).ok().map(scored)),
                ("knapsack", w.knapsack(r).ok().map(scored)),
                ("balanced", w.balanced(r).ok()),
            ] {
                let plan = plan.as_ref().map(|(g, e)| {
                    (
                        g.groups(),
                        g.post_procs,
                        [e.makespan, e.main_finish, e.post_finish],
                    )
                });
                golden_line(&mut got, name, r, heuristic, plan);
            }
        }
    }
    let golden = include_str!("golden/generic_plans.txt");
    assert!(
        got == golden,
        "generic plans diverged from tests/golden/generic_plans.txt:\n{got}"
    );
}

/// The balanced refinement never loses to the paper's knapsack on the
/// paper's own workload (it includes it in the candidate pool).
#[test]
fn balanced_never_loses_on_oa_workloads() {
    let table = reference_cluster(120).timing;
    let mesh = lower_fused(ExperimentShape::new(10, 48));
    let plan = ChainPlan::of(&mesh, &table).expect("a fused mesh is a chain workload");
    for r in (11..=120).step_by(7) {
        let inst = Instance::new(10, 48, r);
        let knap = Heuristic::Knapsack
            .makespan(inst, &table)
            .expect("feasible");
        let (_, bal) = plan.balanced(r).expect("feasible");
        assert!(
            bal.makespan <= knap + 1e-6,
            "R={r}: balanced {} vs knapsack {knap}",
            bal.makespan
        );
    }
}

/// Section 3 of the paper, end to end: the paper's heuristics dominate
/// the implemented related work on the paper's workload.
#[test]
fn paper_heuristics_dominate_related_work() {
    let table = reference_cluster(60).timing;
    let inst = Instance::new(10, 24, 60);
    let knap = Heuristic::Knapsack
        .makespan(inst, &table)
        .expect("feasible");
    let naive = one_dag_at_a_time(inst, &table).expect("feasible").makespan;
    let stuck = cpr(inst, &table).expect("feasible");
    let batched = cpr_batched(inst, &table).expect("feasible");
    assert!(knap < naive, "knapsack {knap} vs one-by-one {naive}");
    assert_eq!(stuck.accepted_steps, 0, "faithful CPR should plateau");
    assert!(knap <= batched.schedule.makespan + 1e-6);
}

/// Fusion safety at campaign scale, through the facade.
#[test]
fn fusion_is_safe_at_scale() {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 300, 53);
    let g = Heuristic::Knapsack
        .grouping(inst, &table)
        .expect("feasible");
    let fused = estimate(inst, &table, &g).expect("valid").makespan;
    let config = CampaignConfig::unfused(ScenarioPolicy::LeastAdvanced);
    let unfused = simulate_campaign(
        inst,
        &table,
        &g,
        &config,
        &FaultPlan::none(),
        &mut NullTracer,
    )
    .expect("valid")
    .makespan()
    .expect("fault-free runs complete");
    assert!((fused - unfused).abs() / fused < 0.005);
}

/// Staged grid runs stay ordered and close to unstaged ones.
#[test]
fn staging_preserves_placement_and_ordering() {
    let grid = benchmark_grid(28);
    let plain = plain_grid(&grid, 10, 24);
    let config = GridConfig {
        staging: Some(Staging {
            links: vec![Link::gigabit(); grid.len()],
            model: StagingModel::default(),
        }),
        ..GridConfig::default()
    };
    let staged =
        run_grid(&grid, Heuristic::Knapsack, 10, 24, &config, &mut NullTracer).expect("ok");
    assert_eq!(plain.repartition, staged.repartition);
    assert!(staged.makespan >= plain.makespan);
    assert!(staged.makespan <= plain.makespan + 120.0);
}

/// Benchmark-file import round trip through the facade.
#[test]
fn import_round_trip() {
    let grid = benchmark_grid(40);
    let text = render_grid(&grid);
    let back = parse_grid(&text).expect("rendered grids parse");
    assert_eq!(back.len(), 5);
    // Scheduling on the re-imported grid gives identical results.
    let a = plain_grid(&grid, 6, 12);
    let b = plain_grid(&back, 6, 12);
    assert!((a.makespan - b.makespan).abs() < 1e-9);
}
