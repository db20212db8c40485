//! The grid protocol of Figure 9, run as a daemon session: an exact
//! refinement of the in-process planner, deterministic, and tolerant of
//! clusters that never join.

use ocean_atmosphere::prelude::*;
use ocean_atmosphere::service::protocol::{run_protocol, CampaignReport, ProtocolEvent};

/// The five heuristics `oa campaign --heuristic` names, by name.
const HEURISTICS: [(&str, Heuristic); 5] = [
    ("basic", Heuristic::Basic),
    ("redistribute", Heuristic::RedistributeIdle),
    ("nopost", Heuristic::NoPostReservation),
    ("knapsack", Heuristic::Knapsack),
    ("knapsack-greedy", Heuristic::KnapsackGreedy),
];

/// One golden line: a whole campaign report, every float as its bits.
fn golden_line(head: &str, report: &CampaignReport) -> String {
    let mut line = format!("{head} | request {} | trace", report.request);
    for event in &report.trace {
        line.push(' ');
        line.push_str(&match event {
            ProtocolEvent::RequestReceived { request, ns, nm } => format!("1:{request}/{ns}/{nm}"),
            ProtocolEvent::PerfQueried { cluster } => format!("2:{}", cluster.0),
            ProtocolEvent::PerfReceived { cluster } => format!("3:{}", cluster.0),
            ProtocolEvent::RepartitionComputed { nb_dags } => format!("4:{nb_dags:?}"),
            ProtocolEvent::ExecSent { cluster, scenarios } => {
                format!("5:{}/{scenarios}", cluster.0)
            }
            ProtocolEvent::ReportReceived { cluster, makespan } => {
                format!("6:{}/{:016x}", cluster.0, makespan.to_bits())
            }
        });
    }
    line.push_str(&format!(" | makespan {:016x}", report.makespan.to_bits()));
    for r in &report.reports {
        line.push_str(&format!(
            " ; cluster {} request {} scenarios {:?} grouping {} makespan {:016x}",
            r.cluster.0,
            r.request,
            r.scenarios,
            r.grouping,
            r.makespan.to_bits()
        ));
    }
    line.push('\n');
    line
}

/// Every report of `tests/golden/grid_protocol.txt`, pinned bit for bit:
/// five heuristics × R ∈ {25, 40} × 1..=5 preset clusters × three shapes.
#[test]
fn grid_protocol_matches_the_golden() {
    let mut out = String::new();
    for (name, h) in HEURISTICS {
        for r in [25, 40] {
            for clusters in 1..=5 {
                for (ns, nm) in [(1, 1), (7, 18), (10, 60)] {
                    let grid = benchmark_grid(r).take(clusters);
                    let report = run_protocol(&grid, h, ns, nm, 1).unwrap();
                    let head = format!("{name} r={r} clusters={clusters} ns={ns} nm={nm}");
                    out.push_str(&golden_line(&head, &report));
                }
            }
        }
    }
    let golden = include_str!("golden/grid_protocol.txt");
    assert!(
        out == golden,
        "grid protocol reports drifted from the golden"
    );
}

#[test]
fn protocol_refines_direct_planning_for_every_heuristic() {
    let grid = benchmark_grid(35);
    for h in Heuristic::PAPER {
        let report = run_protocol(&grid, h, 9, 24, 1).expect("usable grid");

        let vectors = grid_performance(&grid, h, 9, 24);
        let plan = repartition(&vectors);
        let config = GridConfig::default();
        let outcome = execute_repartition(&grid, &plan, h, 24, &config, &mut NullTracer)
            .expect("plan feasible");
        assert_eq!(
            report.makespan.to_bits(),
            outcome.makespan.to_bits(),
            "{h:?}: protocol {} vs direct {}",
            report.makespan,
            outcome.makespan
        );
        for rep in &report.reports {
            assert_eq!(rep.scenarios, plan.scenarios_of(rep.cluster), "{h:?}");
        }
    }
}

#[test]
fn repeated_submissions_are_deterministic() {
    let grid = benchmark_grid(28);
    let first = run_protocol(&grid, Heuristic::Knapsack, 10, 36, 1).expect("usable");
    for _ in 0..3 {
        let again = run_protocol(&grid, Heuristic::Knapsack, 10, 36, 1).expect("usable");
        assert_eq!(again, first);
    }
}

#[test]
fn protocol_trace_has_all_six_steps_in_order() {
    let grid = benchmark_grid(30).take(3);
    let report = run_protocol(&grid, Heuristic::Knapsack, 5, 12, 1).expect("usable");
    let step = |e: &ProtocolEvent| match e {
        ProtocolEvent::RequestReceived { .. } => 1,
        ProtocolEvent::PerfQueried { .. } => 2,
        ProtocolEvent::PerfReceived { .. } => 3,
        ProtocolEvent::RepartitionComputed { .. } => 4,
        ProtocolEvent::ExecSent { .. } => 5,
        ProtocolEvent::ReportReceived { .. } => 6,
    };
    let steps: Vec<i32> = report.trace.iter().map(step).collect();
    let mut sorted = steps.clone();
    sorted.sort_unstable();
    assert_eq!(steps, sorted, "steps out of order: {steps:?}");
    for s in 1..=6 {
        assert!(steps.contains(&s), "missing step {s}");
    }
    // 3 clusters: one query/reply/order/report each.
    assert_eq!(steps.iter().filter(|&&s| s == 2).count(), 3);
    assert_eq!(steps.iter().filter(|&&s| s == 6).count(), 3);
}

/// Down clusters never join. Matched by name, the survivors' reports
/// are bitwise those of Algorithm 1 over the whole grid with the down
/// clusters priced out (infinite vectors), for every proper subset of
/// the five clusters down.
#[test]
fn degraded_grid_still_completes_campaigns() {
    let grid = benchmark_grid(30);
    let (ns, nm) = (7, 12);
    let h = Heuristic::Knapsack;
    let full = grid_performance(&grid, h, ns, nm);
    for down in 1..(1u32 << grid.len()) - 1 {
        let up = |id: ClusterId| down & (1 << id.0) == 0;
        let survivors = Grid::from_clusters(
            grid.iter()
                .filter(|&(id, _)| up(id))
                .map(|(_, c)| c.clone())
                .collect(),
        );
        let report = run_protocol(&survivors, h, ns, nm, 1).expect("a cluster remains");

        let mut vectors = full.clone();
        for v in vectors.iter_mut().filter(|v| !up(v.cluster)) {
            v.makespans.fill(f64::INFINITY);
        }
        let plan = repartition(&vectors);
        let outcome =
            execute_repartition(&grid, &plan, h, nm, &GridConfig::default(), &mut NullTracer)
                .expect("plan feasible");
        assert_eq!(report.reports.len(), survivors.len());
        for rep in &report.reports {
            let name = &survivors.cluster(rep.cluster).name;
            let (id, _) = grid
                .iter()
                .find(|(_, c)| &c.name == name)
                .expect("a grid cluster");
            assert_eq!(
                rep.scenarios,
                plan.scenarios_of(id),
                "down {down:05b}, {name}"
            );
            assert_eq!(
                rep.makespan.to_bits(),
                outcome.clusters[id.index()].makespan().to_bits(),
                "down {down:05b}, {name}"
            );
        }
        assert_eq!(report.makespan.to_bits(), outcome.makespan.to_bits());
        let placed: usize = report.reports.iter().map(|r| r.scenarios.len()).sum();
        assert_eq!(placed, ns as usize);
    }
}

#[test]
fn empty_grid_answers_oa005() {
    let refusal = run_protocol(&Grid::new(), Heuristic::Knapsack, 3, 12, 1).unwrap_err();
    assert_eq!(refusal.code, "OA005", "{refusal}");
}

#[test]
fn single_cluster_grid_degenerates_to_local_scheduling() {
    let grid = benchmark_grid(53).take(1);
    let report = run_protocol(&grid, Heuristic::Knapsack, 10, 120, 1).expect("usable");
    let local = Heuristic::Knapsack
        .makespan(
            Instance::new(10, 120, 53),
            &grid.cluster(ClusterId(0)).timing,
        )
        .expect("feasible");
    assert_eq!(report.makespan.to_bits(), local.to_bits());
}
