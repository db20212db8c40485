//! The engine's knob configurations, exercised through the one public
//! call, `simulate_campaign`: fused schedules under the paper's policy
//! and its ablations, the Figure 1 seven-task granularity, and group
//! crashes under both recovery models.

use oa_platform::presets::benchmark_grid;
use oa_platform::speedup::PcrModel;
use oa_platform::timing::TimingTable;
use oa_sched::estimate::estimate;
use oa_sched::grouping::Grouping;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity, Recovery, ScenarioPolicy};
use oa_sim::engine::{execute_default, simulate_campaign, CampaignOutcome, CampaignRun};
use oa_trace::metrics::keys;
use oa_trace::prelude::*;
use oa_workflow::task::{
    TaskKind, CAIF_SECS, CD_SECS, COF_SECS, EMF_SECS, FUSED_POST_SECS, FUSED_PRE_SECS, MP_SECS,
};

fn reference() -> TimingTable {
    PcrModel::reference().table(1.0).unwrap()
}

fn flat(tg: f64, tp: f64) -> TimingTable {
    TimingTable::new([tg; 8], tp).unwrap()
}

fn run(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: CampaignConfig,
    plan: &FaultPlan,
) -> CampaignOutcome {
    simulate_campaign(inst, table, grouping, &config, plan, &mut NullTracer).unwrap()
}

fn completed(outcome: CampaignOutcome) -> CampaignRun {
    match outcome {
        CampaignOutcome::Completed(run) => run,
        other => panic!("unexpected {other:?}"),
    }
}

fn unfused(inst: Instance, table: &TimingTable, grouping: &Grouping) -> CampaignRun {
    let config = CampaignConfig::unfused(ScenarioPolicy::LeastAdvanced);
    completed(run(inst, table, grouping, config, &FaultPlan::none()))
}

fn with_recovery(recovery: Recovery) -> CampaignConfig {
    CampaignConfig {
        recovery,
        ..CampaignConfig::default()
    }
}

// --- Fused, fault-free: the recorded schedule -------------------------

#[test]
fn schedule_validates_and_matches_estimate() {
    let t = reference();
    for r in [13, 23, 37, 53, 80, 111] {
        let inst = Instance::new(7, 9, r);
        for h in Heuristic::PAPER {
            let g = h.grouping(inst, &t).unwrap();
            let sched = execute_default(inst, &t, &g).unwrap();
            sched
                .validate()
                .unwrap_or_else(|e| panic!("{h:?} R={r}: {e}"));
            let est = estimate(inst, &t, &g).unwrap();
            assert!(
                (sched.makespan - est.makespan).abs() < 1e-6,
                "{h:?} R={r}: sim {} vs estimate {}",
                sched.makespan,
                est.makespan
            );
        }
    }
}

#[test]
fn record_counts() {
    let inst = Instance::new(3, 4, 20);
    let g = Grouping::uniform(4, 3, 2);
    let s = execute_default(inst, &flat(100.0, 10.0), &g).unwrap();
    assert_eq!(s.records.len(), 24);
    assert_eq!(s.mains().count(), 12);
    assert_eq!(s.posts().count(), 12);
}

#[test]
fn months_of_one_scenario_are_sequential() {
    let inst = Instance::new(2, 6, 12);
    let g = Grouping::uniform(4, 2, 1);
    let s = execute_default(inst, &flat(50.0, 5.0), &g).unwrap();
    for sc in 0..2 {
        let mut months: Vec<(u32, f64)> = s
            .mains()
            .filter(|r| r.task.scenario == sc)
            .map(|r| (r.task.month, r.start))
            .collect();
        months.sort_by_key(|&(m, _)| m);
        for w in months.windows(2) {
            assert!(w[0].1 < w[1].1, "month {} not before {}", w[0].0, w[1].0);
        }
    }
}

#[test]
fn dedicated_post_procs_have_expected_ids() {
    let inst = Instance::new(2, 2, 10);
    let g = Grouping::uniform(4, 2, 2);
    let s = execute_default(inst, &flat(100.0, 10.0), &g).unwrap();
    // Groups use procs 0..8, posts 8..10 (until disband time).
    for r in s.posts() {
        assert!(r.procs.first >= 8 || r.start >= 200.0 - 1e-9);
    }
}

#[test]
fn only_fused_fault_free_runs_record_a_schedule() {
    let inst = Instance::new(3, 4, 20);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 3, 2);
    let clean = run(inst, &t, &g, CampaignConfig::default(), &FaultPlan::none());
    assert!(clean.into_schedule().is_some());
    let faulted = FaultPlan::none().kill(0, 150.0);
    let faulted = run(inst, &t, &g, CampaignConfig::default(), &faulted);
    assert!(faulted.into_schedule().is_none());
    let config = CampaignConfig::unfused(ScenarioPolicy::LeastAdvanced);
    let split = run(inst, &t, &g, config, &FaultPlan::none());
    assert!(split.into_schedule().is_none());
}

#[test]
fn invalid_grouping_rejected() {
    let inst = Instance::new(2, 2, 10);
    let g = Grouping::uniform(11, 2, 0);
    assert!(execute_default(inst, &reference(), &g).is_err());
}

#[test]
fn unfair_policies_never_beat_least_advanced_at_either_granularity() {
    // Unfair scheduling can only hurt (or tie) the makespan here:
    // finishing one scenario early starves the others' parallelism.
    let t = reference();
    let inst = Instance::new(6, 12, 30);
    let g = Heuristic::Knapsack.grouping(inst, &t).unwrap();
    for granularity in [Granularity::Fused, Granularity::Unfused] {
        let makespan = |policy| {
            let config = CampaignConfig {
                policy,
                granularity,
                ..CampaignConfig::default()
            };
            completed(run(inst, &t, &g, config, &FaultPlan::none())).makespan
        };
        let fair = makespan(ScenarioPolicy::LeastAdvanced);
        let unfair = makespan(ScenarioPolicy::MostAdvanced);
        let rr = makespan(ScenarioPolicy::RoundRobin);
        assert!(
            unfair + 1e-9 >= fair,
            "{granularity:?}: unfair {unfair} < fair {fair}"
        );
        assert!(rr > 0.0 && rr.is_finite());
    }
}

// --- Unfused: the Figure 1 seven-task granularity ---------------------

#[test]
fn single_chain_matches_fused_exactly() {
    // With one dedicated post processor there is no interleaving:
    // the chain cof→emf→cd behaves like one 180 s task.
    let inst = Instance::new(1, 5, 12);
    let t = reference();
    let g = Grouping::uniform(11, 1, 1);
    let fused = estimate(inst, &t, &g).unwrap();
    assert!((fused.makespan - unfused(inst, &t, &g).makespan).abs() < 1e-9);
}

#[test]
fn fusion_error_is_small_across_the_sweep() {
    // The paper's fusion decision is safe: across resource counts and
    // heuristics, scheduling at the 7-task granularity moves the
    // makespan by well under 1%.
    let t = reference();
    for r in [13u32, 23, 53, 87, 110] {
        let inst = Instance::new(10, 60, r);
        for h in [Heuristic::Basic, Heuristic::Knapsack] {
            let g = h.grouping(inst, &t).unwrap();
            let fused = estimate(inst, &t, &g).unwrap().makespan;
            let split = unfused(inst, &t, &g).makespan;
            let rel = (fused - split).abs() / fused;
            assert!(rel < 0.01, "{h:?} R={r}: fused {fused} vs unfused {split}");
        }
    }
}

#[test]
fn main_phase_is_identical_to_fused() {
    let inst = Instance::new(6, 20, 40);
    let t = reference();
    let g = Heuristic::Knapsack.grouping(inst, &t).unwrap();
    let fused = estimate(inst, &t, &g).unwrap();
    assert!((fused.main_finish - unfused(inst, &t, &g).main_finish).abs() < 1e-9);
}

#[test]
fn post_steps_scale_with_cluster_speed() {
    let inst = Instance::new(2, 4, 12);
    let slow = PcrModel::reference().table(2.0).unwrap();
    let g = Grouping::uniform(4, 2, 2);
    let fast = unfused(inst, &reference(), &g);
    assert!(unfused(inst, &slow, &g).makespan > fast.makespan * 1.9);
}

#[test]
fn figure1_scaling_is_pinned_to_the_grid5000_presets() {
    // The unfused model rescales the Figure 1 constants by the table's
    // post/180 cluster-speed ratio. Pin that scaling against every
    // Grid'5000 preset so a change to either the constants or the
    // preset tables cannot drift silently: the scaled post chain must
    // sum to the table's fused post duration exactly, and the scaled
    // pre must keep the same share of the fused span it has in
    // Figure 1.
    let grid = benchmark_grid(12);
    assert_eq!(grid.len(), 5, "the paper benchmarks five clusters");
    assert_eq!(COF_SECS + EMF_SECS + CD_SECS, FUSED_POST_SECS);
    assert_eq!(
        FUSED_PRE_SECS,
        CAIF_SECS + MP_SECS,
        "Figure 1 pre tasks sum"
    );
    for (_, cluster) in grid.iter() {
        let t = &cluster.timing;
        let speed = t.post_secs() / FUSED_POST_SECS;
        // Fusing the scaled chain reproduces the fused post (every
        // preset's post is 180 × a power-of-two-free ratio, so allow
        // one ulp of slack).
        let chain: f64 = COF_SECS * speed + EMF_SECS * speed + CD_SECS * speed;
        assert!(
            (chain - t.post_secs()).abs() <= t.post_secs() * 1e-15,
            "{}: chain {chain} vs post {}",
            cluster.name,
            t.post_secs()
        );
        // The pre share keeps Figure 1's 2 s : 180 s proportion.
        let pre = FUSED_PRE_SECS * speed;
        assert!(
            (pre / t.post_secs() - FUSED_PRE_SECS / FUSED_POST_SECS).abs() < 1e-15,
            "{}: pre {pre} breaks the Figure 1 proportion",
            cluster.name
        );
        // And the group span equals the fused duration for every group
        // size: fusion changes nothing about the main phase.
        for g in 4..=11u32 {
            let span = (t.main_secs(g) - pre) + pre;
            assert_eq!(
                span.to_bits(),
                t.main_secs(g).to_bits(),
                "{}: G={g} span drifts from the fused duration",
                cluster.name
            );
        }
    }
}

#[test]
fn traced_unfused_tells_the_seven_task_story() {
    let inst = Instance::new(2, 3, 12);
    let t = reference();
    let g = Grouping::uniform(4, 2, 2);
    let config = CampaignConfig::unfused(ScenarioPolicy::LeastAdvanced);
    let mut sink = VecTracer::new();
    let traced = simulate_campaign(inst, &t, &g, &config, &FaultPlan::none(), &mut sink).unwrap();
    assert_eq!(
        traced,
        run(inst, &t, &g, config, &FaultPlan::none()),
        "tracing must not change the outcome"
    );
    let makespan = traced.makespan().unwrap();
    let events = sink.into_events();
    // Each month finishes one main and the three chained posts.
    let finishes = |kind: TaskKind| {
        events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::TaskFinish { task, .. } if task.kind == kind))
            .count() as u64
    };
    for kind in [
        TaskKind::FusedMain,
        TaskKind::Cof,
        TaskKind::Emf,
        TaskKind::Cd,
    ] {
        assert_eq!(finishes(kind), inst.nbtasks(), "{kind:?}");
    }
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::CampaignEnd { makespan: m } if m == makespan
    )));
}

// --- Faults: group crashes under both recovery models -----------------

#[test]
fn one_crash_loses_at_most_one_month_with_checkpoints() {
    let inst = Instance::new(4, 6, 16);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 4, 0);
    // Kill group 0 mid-month at t = 150.
    let plan = FaultPlan::none().kill(0, 150.0);
    let out = completed(run(inst, &t, &g, CampaignConfig::default(), &plan));
    assert_eq!(out.months_lost, 1);
    assert!((out.lost_proc_secs - 50.0 * 4.0).abs() < 1e-9);
    // 24 months on 3 surviving groups, one month redone: strictly
    // worse than failure-free, still finite.
    let clean = execute_default(inst, &t, &g).unwrap().makespan;
    assert!(out.makespan > clean);
}

#[test]
fn checkpoints_beat_scenario_restarts() {
    let inst = Instance::new(4, 8, 16);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 4, 0);
    // Crash late: the victim scenario has real progress to lose.
    let plan = FaultPlan::none().kill(0, 650.0);
    let makespan = |recovery| completed(run(inst, &t, &g, with_recovery(recovery), &plan)).makespan;
    let ck = makespan(Recovery::MonthlyCheckpoint);
    let rs = makespan(Recovery::RestartScenario);
    assert!(ck < rs, "checkpointed {ck} should beat restart {rs}");
}

#[test]
fn all_groups_dead_strands_the_campaign() {
    let inst = Instance::new(3, 10, 12);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 3, 0);
    let plan = FaultPlan::none().kill(0, 50.0).kill(1, 50.0).kill(2, 150.0);
    let out = run(inst, &t, &g, CampaignConfig::default(), &plan);
    // One month completed (the survivor's first) at t = 100.
    assert_eq!(
        out,
        CampaignOutcome::Stranded {
            completed_months: 1
        }
    );
}

#[test]
fn double_kill_is_idempotent() {
    let inst = Instance::new(3, 4, 16);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 3, 4);
    let once = FaultPlan::none().kill(1, 120.0);
    let twice = FaultPlan::none().kill(1, 120.0).kill(1, 200.0);
    assert_eq!(
        run(inst, &t, &g, CampaignConfig::default(), &once),
        run(inst, &t, &g, CampaignConfig::default(), &twice)
    );
}

#[test]
fn late_failure_of_disbanded_group_is_harmless() {
    let inst = Instance::new(2, 2, 16);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 2, 0);
    // Campaign ends by t = 200 + posts; kill at t = 10000.
    let plan = FaultPlan::none().kill(0, 10_000.0);
    let out = completed(run(inst, &t, &g, CampaignConfig::default(), &plan));
    let clean = execute_default(inst, &t, &g).unwrap().makespan;
    assert!((out.makespan - clean).abs() < 1e-9);
    assert_eq!(out.months_lost, 0);
}

#[test]
fn traced_run_reports_the_damage() {
    let inst = Instance::new(4, 6, 16);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 4, 0);
    let plan = FaultPlan::none().kill(0, 150.0);
    let mut sink = Metered::new(VecTracer::new());
    let config = CampaignConfig::default();
    let out = completed(simulate_campaign(inst, &t, &g, &config, &plan, &mut sink).unwrap());
    // The live registry observed the same damage the outcome reports.
    let snap = sink.registry.snapshot();
    assert_eq!(snap.counter(keys::FAILURES), Some(1));
    assert_eq!(snap.counter(keys::RETRIES), Some(1));
    assert_eq!(snap.gauge(keys::PROC_SECS_LOST), Some(out.lost_proc_secs));
    assert_eq!(snap.gauge(keys::MAKESPAN), Some(out.makespan));
    // And the stream tells the inject → detect → recover story.
    let events = sink.inner.into_events();
    let pos = |pred: fn(&EventKind) -> bool| events.iter().position(|e| pred(&e.kind));
    let inject = pos(|k| matches!(k, EventKind::FailureInject { .. })).unwrap();
    let detect = pos(|k| matches!(k, EventKind::FailureDetect { .. })).unwrap();
    let recover = pos(|k| matches!(k, EventKind::Recover { .. })).unwrap();
    assert!(inject < detect && detect < recover);
}

#[test]
fn faults_compose_with_unfused_granularity() {
    let inst = Instance::new(4, 6, 16);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 4, 0);
    let plan = FaultPlan::none().kill(0, 150.0);
    let config = CampaignConfig::unfused(ScenarioPolicy::LeastAdvanced);
    let out = completed(run(inst, &t, &g, config, &plan));
    assert_eq!(out.months_lost, 1);
    assert!(out.lost_proc_secs > 0.0);
    // The clean unfused run is strictly faster.
    assert!(out.makespan > unfused(inst, &t, &g).makespan);
}

#[test]
#[should_panic(expected = "failure targets group")]
fn out_of_range_group_panics() {
    let inst = Instance::new(2, 2, 16);
    let t = flat(100.0, 10.0);
    let g = Grouping::uniform(4, 2, 0);
    let plan = FaultPlan::none().kill(9, 1.0);
    let _ = run(inst, &t, &g, CampaignConfig::default(), &plan);
}
