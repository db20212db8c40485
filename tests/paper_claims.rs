//! Integration tests pinning the paper's published claims to the
//! reproduction. Each test names the paper location it checks.

use ocean_atmosphere::prelude::*;

/// Figure 1: task durations benchmark — 1 + 1 + 1260 + 60 + 60 + 60.
#[test]
fn figure_1_durations() {
    assert_eq!(TaskKind::Caif.reference_secs(), 1.0);
    assert_eq!(TaskKind::Mp.reference_secs(), 1.0);
    assert_eq!(TaskKind::Pcr.reference_secs(), 1260.0);
    assert_eq!(TaskKind::Cof.reference_secs(), 60.0);
    assert_eq!(TaskKind::Emf.reference_secs(), 60.0);
    assert_eq!(TaskKind::Cd.reference_secs(), 60.0);
    assert_eq!(fused_post_secs(), 180.0);
}

/// Section 2: "a scenario combines 1800 simulations of one month each
/// (150×12)" and "the number of simulations is going to be around 10".
#[test]
fn section_2_campaign_shape() {
    let shape = ExperimentShape::canonical();
    assert_eq!(shape.months, 1800);
    assert_eq!(shape.scenarios, 10);
    assert_eq!(INTER_MONTH_TRANSFER.as_mb(), 120);
}

/// Section 2: "pcr needs from 4 to 11 processors" (OPA, TRIP, OASIS
/// take one each; ARPEGE's speedup stops past 8).
#[test]
fn section_2_moldable_range() {
    let spec = MoldableSpec::pcr();
    assert_eq!((spec.min_procs, spec.max_procs), (4, 11));
    // The largest allocation leaves ARPEGE its 8 processors once OPA,
    // TRIP and OASIS have taken one each.
    assert_eq!(spec.max_procs - 3, 8);
    // Every main of the preset mesh carries exactly this range.
    let mesh = lower_fused(ExperimentShape::new(2, 3));
    let mains: Vec<_> = mesh
        .dag
        .iter()
        .filter(|(_, n)| n.kind.is_moldable())
        .collect();
    assert_eq!(mains.len(), 6);
    assert!(mains
        .iter()
        .all(|(_, n)| n.kind == IrTaskKind::Moldable(spec)));
}

/// Section 4.2 example: "for R = 53 resources, and 10 scenario
/// simulations, the optimal grouping is G = 7 … occupying 49 resources.
/// The corresponding post-processing tasks need only 1 resource, which
/// leaves 3 resources unoccupied."
#[test]
fn section_4_2_basic_example() {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 1800, 53);
    let b = best_group(inst, &table).expect("feasible");
    assert_eq!(b.g, 7);
    assert_eq!(b.nbmax, 7);
    // Posts need one processor: ⌈7 / ⌊T[7]/TP⌋⌉ = 1.
    assert!(table.posts_per_main(7) >= 7);
}

/// Section 4.2: Improvement 1 redistributes the 3 idle processors:
/// "3 groups with 8 resources and 4 groups with 7 resources and 1
/// resource for the post processing tasks giving a gain of 4.5%".
#[test]
fn section_4_2_improvement_1_grouping_and_gain() {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 1800, 53);
    let g = Heuristic::RedistributeIdle
        .grouping(inst, &table)
        .expect("feasible");
    assert_eq!(g.groups(), &[8, 8, 8, 7, 7, 7, 7]);
    assert_eq!(g.post_procs, 1);

    let base = Heuristic::Basic.makespan(inst, &table).expect("feasible");
    let imp1 = Heuristic::RedistributeIdle
        .makespan(inst, &table)
        .expect("feasible");
    let gain = gain_pct(base, imp1);
    // Paper: 4.5%. Our timing curve is a calibrated model, not their
    // measured table, so allow a band around it.
    assert!(
        (2.0..9.0).contains(&gain),
        "gain {gain:.2}% outside the expected band"
    );
    // "58 hours less on the makespan" — same order of magnitude.
    let saved_hours = (base - imp1) / 3600.0;
    assert!(
        (30.0..120.0).contains(&saved_hours),
        "saved {saved_hours:.0} h"
    );
}

/// Abstract / Section 6: "simulations show improvements of the makespan
/// up to 12%" — our gains must peak in the upper single digits to low
/// teens at low resource counts and vanish with plentiful resources.
#[test]
fn gains_peak_low_r_and_vanish_high_r() {
    let grid = benchmark_grid(DEFAULT_RESOURCES);
    let mut peak: f64 = 0.0;
    for r in (11..=60).step_by(2) {
        let inst = Instance::new(10, 240, r);
        for c in grid.clusters() {
            let base = Heuristic::Basic
                .makespan(inst, &c.timing)
                .expect("feasible");
            let k = Heuristic::Knapsack
                .makespan(inst, &c.timing)
                .expect("feasible");
            peak = peak.max(gain_pct(base, k));
        }
    }
    assert!(peak > 5.0, "knapsack never gained more than {peak:.1}%");
    assert!(peak < 20.0, "gain {peak:.1}% implausibly large");

    // R ≥ 11·NS: every heuristic converges to NS groups of 11 — no gain.
    let inst = Instance::new(10, 240, 115);
    for c in grid.clusters() {
        let base = Heuristic::Basic
            .makespan(inst, &c.timing)
            .expect("feasible");
        let k = Heuristic::Knapsack
            .makespan(inst, &c.timing)
            .expect("feasible");
        assert!(gain_pct(base, k).abs() < 0.5);
    }
}

/// Section 6: "the fastest cluster executes one main-processing task on
/// 11 resources in 1177 seconds while the slowest needs 1622 seconds".
#[test]
fn section_6_cluster_speed_extremes() {
    let grid = benchmark_grid(32);
    let fast = grid.cluster(grid.fastest().expect("non-empty"));
    let slow = grid.cluster(grid.slowest().expect("non-empty"));
    assert!((fast.timing.main_secs(11) - 2.0 - 1177.0).abs() < 1e-6);
    assert!((slow.timing.main_secs(11) - 2.0 - 1622.0).abs() < 1e-6);
}

/// Section 6 / Figure 10: "the distribution of the simulations is
/// function of the clusters performance. The faster, the more DAGs."
#[test]
fn faster_clusters_get_more_dags() {
    let grid = benchmark_grid(40);
    let vectors = grid_performance(&grid, Heuristic::Knapsack, 10, 240);
    let plan = repartition(&vectors);
    let counts = &plan.nb_dags;
    // Clusters are ordered fastest → slowest in the preset grid.
    for w in counts.windows(2) {
        assert!(w[0] >= w[1], "slower cluster got more: {counts:?}");
    }
    assert_eq!(counts.iter().sum::<u32>(), 10);
}

/// Figure 7: optimal grouping reaches 11 once R ≥ 11·NS, and never
/// leaves 4..=11.
#[test]
fn figure_7_grouping_range() {
    let table = reference_cluster(120).timing;
    for r in 11..=120 {
        let inst = Instance::new(10, 1800, r);
        let b = best_group(inst, &table).expect("feasible for R ≥ 11");
        assert!((4..=11).contains(&b.g));
        if r >= 110 {
            assert_eq!(b.g, 11, "R = {r}");
        }
    }
}
