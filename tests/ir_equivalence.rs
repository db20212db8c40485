//! IR-vs-legacy equivalence: the workflow-IR tentpole's hard
//! invariant. Lowering the ocean-atmosphere presets into the typed IR
//! and running every downstream layer off it must be *observationally
//! invisible*: the lowerings are the seed `build_fused` /
//! `build_experiment` meshes (their loops kept below as the oracle)
//! node for node, edge for edge and flow for flow, so topological
//! orders and critical paths match; campaign outcomes through
//! `simulate_ir` are bitwise the legacy engine's; the IR executor
//! reproduces the seed moldable list scheduler (kept below verbatim as
//! the oracle) record for record on unpinned and pinned meshes; a
//! service `SubmitWorkflow` transcript is byte-identical to the
//! equivalent `Submit`; and `classify_spec`, which reads a preset
//! spec's header without lowering it, classifies every spec exactly as
//! `recognize` does the spec's `from_value` lowering, errors included.
//!
//! Case counts scale with the build profile: the release-mode CI
//! differential job runs the full 256 cases, a debug `cargo test`
//! keeps the quick count (the vendored proptest is deterministic, so
//! the release run strictly extends the debug one).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use ocean_atmosphere::baselines::schedule_pinned;
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::time::{time_key, Time, TimeKey};
use ocean_atmosphere::service::daemon::{run_script, Service, ServiceConfig};
use ocean_atmosphere::workflow::ir::{classify_spec, from_value, recognize, IrClass};
use proptest::prelude::*;
use serde_json::Value;

const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

// ---- Oracle: the seed mesh builders, insertion order verbatim ----

/// The seed `build_fused` loop: per scenario and month, the main, then
/// the post, then `main → post`, then `main(m − 1) → main(m)`.
fn seed_fused(shape: ExperimentShape) -> Dag<FusedTask> {
    let mut dag = Dag::with_capacity(shape.total_months() as usize * 2);
    for s in 0..shape.scenarios {
        let mut ms: Vec<NodeId> = Vec::with_capacity(shape.months as usize);
        for m in 0..shape.months {
            let main = dag.add_node(FusedTask::main(s, m));
            let post = dag.add_node(FusedTask::post(s, m));
            dag.add_edge(main, post).expect("fresh nodes");
            if m > 0 {
                let prev = ms[m as usize - 1];
                dag.add_edge(prev, main).expect("forward edge");
            }
            ms.push(main);
        }
    }
    dag
}

/// The seed `build_experiment` loop (`add_scenario` over `add_month`):
/// per scenario and month, the six Figure 1 tasks in phase order, the
/// five intra-month edges, then `pcr(m − 1) → caif(m)`.
fn seed_experiment(shape: ExperimentShape) -> Dag<TaskId> {
    let mut dag = Dag::with_capacity(shape.total_months() as usize * 6);
    for s in 0..shape.scenarios {
        let mut prev_pcr: Option<NodeId> = None;
        for m in 0..shape.months {
            let node = |dag: &mut Dag<TaskId>, kind| dag.add_node(TaskId::new(s, m, kind));
            let caif = node(&mut dag, TaskKind::Caif);
            let mp = node(&mut dag, TaskKind::Mp);
            let pcr = node(&mut dag, TaskKind::Pcr);
            let cof = node(&mut dag, TaskKind::Cof);
            let emf = node(&mut dag, TaskKind::Emf);
            let cd = node(&mut dag, TaskKind::Cd);
            for (from, to) in [(caif, mp), (mp, pcr), (pcr, cof), (cof, emf), (emf, cd)] {
                dag.add_edge(from, to)
                    .expect("chain construction cannot cycle");
            }
            if let Some(prev) = prev_pcr {
                dag.add_edge(prev, caif).expect("forward edge cannot cycle");
            }
            prev_pcr = Some(pcr);
        }
    }
    dag
}

/// A lowering against its seed mesh, node for node: the same origin
/// (and the `TaskId` display as name) at every id, the same successor
/// and predecessor lists in insertion order, and the 120 MB hand-off on
/// exactly the cross-month edges.
fn assert_same_mesh<N>(
    ir: &WorkflowIr,
    seed: &Dag<N>,
    id_of: impl Fn(&N) -> TaskId,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(ir.node_count(), seed.node_count());
    prop_assert_eq!(ir.edge_count(), seed.edge_count());
    let flows: BTreeMap<(NodeId, NodeId), DataVolume> = ir
        .flows
        .iter()
        .map(|f| ((f.from, f.to), f.volume))
        .collect();
    prop_assert_eq!(flows.len(), ir.flows.len(), "duplicate flows");
    let mut cross = 0;
    for (node, n) in ir.dag.iter() {
        let id = id_of(seed.node(node));
        prop_assert_eq!(n.origin, Some(id));
        prop_assert_eq!(&n.name, &id.to_string());
        prop_assert_eq!(ir.dag.successors(node), seed.successors(node));
        prop_assert_eq!(ir.dag.predecessors(node), seed.predecessors(node));
        for &to in seed.successors(node) {
            let hand_off = id_of(seed.node(to)).month != id.month;
            cross += usize::from(hand_off);
            prop_assert_eq!(
                flows.get(&(node, to)).copied(),
                hand_off.then_some(INTER_MONTH_TRANSFER),
                "flow on {} -> {}",
                id,
                id_of(seed.node(to))
            );
        }
    }
    prop_assert_eq!(ir.flows.len(), cross);
    Ok(())
}

// ---- Oracle: the seed moldable list scheduler, verbatim ----

/// One scheduled task of the seed list scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ListRecord {
    scenario: u32,
    month: u32,
    main: bool,
    procs: u32,
    start: f64,
    end: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Done {
    Main(u32),
    Post,
}

/// The seed list scheduler: every main of scenario `s` on `allocs[s]`
/// processors of a flat pool (each inside 4..=11 and at most `R`),
/// mains in strict remaining-work order with head-of-line blocking,
/// posts backfilling FIFO. Returns the records and the makespan.
fn list_schedule(inst: Instance, table: &TimingTable, allocs: &[u32]) -> (Vec<ListRecord>, f64) {
    let tp = table.post_secs();
    let dur: Vec<f64> = allocs.iter().map(|&a| table.main_secs(a)).collect();

    // Scenario state.
    let mut months_done = vec![0u32; inst.ns as usize];
    let mut running = vec![false; inst.ns as usize];
    let mut free = inst.r;
    // Completion events.
    let mut events: BinaryHeap<TimeKey<(u32, Done)>> = BinaryHeap::new();
    let mut posts: VecDeque<(f64, u32, u32)> = VecDeque::new(); // (ready, scenario, month)
    let mut records = Vec::with_capacity(inst.nbtasks() as usize * 2);
    let mut makespan = 0.0f64;

    // Remaining-work priority: (nm − done) × dur; recomputed on demand
    // since allocations are per-scenario constants.
    let remaining = |s: usize, months_done: &[u32]| (inst.nm - months_done[s]) as f64 * dur[s] + tp;

    let mut now = 0.0f64;
    loop {
        // Start mains in strict priority order.
        loop {
            let mut best: Option<usize> = None;
            for s in 0..inst.ns as usize {
                if running[s] || months_done[s] >= inst.nm {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (rb, rs) = (remaining(b, &months_done), remaining(s, &months_done));
                        rs > rb + 1e-12 || (rs > rb - 1e-12 && s < b)
                    }
                };
                if better {
                    best = Some(s);
                }
            }
            let Some(s) = best else { break };
            if allocs[s] > free {
                break; // strict order: the head blocks
            }
            free -= allocs[s];
            running[s] = true;
            let end = now + dur[s];
            records.push(ListRecord {
                scenario: s as u32,
                month: months_done[s],
                main: true,
                procs: allocs[s],
                start: now,
                end,
            });
            events.push(time_key(end, (s as u32, Done::Main(months_done[s]))));
        }
        // Backfill posts on whatever is left.
        while free > 0 {
            let Some(&(ready, s, m)) = posts.front() else {
                break;
            };
            debug_assert!(ready <= now + 1e-9);
            posts.pop_front();
            free -= 1;
            let end = now + tp;
            records.push(ListRecord {
                scenario: s,
                month: m,
                main: false,
                procs: 1,
                start: now,
                end,
            });
            events.push(time_key(end, (s, Done::Post)));
        }

        // Advance time.
        let Some(Reverse((Time(t), (s, done)))) = events.pop() else {
            break;
        };
        now = t;
        makespan = makespan.max(t);
        match done {
            Done::Main(m) => {
                let s = s as usize;
                free += allocs[s];
                running[s] = false;
                months_done[s] += 1;
                posts.push_back((t, s as u32, m));
            }
            Done::Post => free += 1,
        }
    }

    (records, makespan)
}

/// An IR schedule of the fused mesh `ir` against the oracle's: record
/// order, `(scenario, month, main)`, processors, and the bits of every
/// start, end and the makespan.
fn assert_matches_oracle(
    ir: &WorkflowIr,
    got: &IrSchedule,
    (records, makespan): &(Vec<ListRecord>, f64),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.records.len(), records.len());
    prop_assert_eq!(got.makespan.to_bits(), makespan.to_bits());
    for (a, b) in got.records.iter().zip(records) {
        let origin = ir
            .dag
            .node(a.node)
            .origin
            .expect("lowered nodes are annotated");
        prop_assert_eq!(
            (
                origin.scenario,
                origin.month,
                origin.kind == TaskKind::FusedMain
            ),
            (b.scenario, b.month, b.main)
        );
        prop_assert_eq!(
            (a.procs, a.start.to_bits(), a.end.to_bits()),
            (b.procs, b.start.to_bits(), b.end.to_bits())
        );
    }
    Ok(())
}

fn arb_table() -> impl Strategy<Value = TimingTable> {
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

/// Fractional tables, the same floored to whole seconds, or small
/// integral tables (a few seconds per entry) on which completions
/// often coincide.
fn arb_any_table() -> impl Strategy<Value = TimingTable> {
    (
        0u32..3,
        arb_table(),
        1.0f64..5.0,
        1.0f64..4.0,
        proptest::collection::vec(0u32..=2, 8),
    )
        .prop_map(|(kind, table, t11, tp, bumps)| match kind {
            0 => table,
            1 => TimingTable::new(
                std::array::from_fn(|i| table.main_secs(4 + i as u32).floor()),
                table.post_secs().floor(),
            )
            .expect("flooring keeps entries positive and non-increasing"),
            _ => {
                let mut main = [0.0f64; 8];
                let mut acc = t11.floor();
                for i in (0..8).rev() {
                    main[i] = acc;
                    acc += f64::from(bumps[i]);
                }
                TimingTable::new(main, tp.floor()).expect("non-increasing by construction")
            }
        })
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (1u32..=8, 1u32..=20, 4u32..=120).prop_map(|(ns, nm, r)| Instance::new(ns, nm, r))
}

/// Satellite invariant: the canonical 10×1800 preset lowers into the
/// seed builders' mesh — node ids, edges, flows, topological order and
/// critical path — at full paper scale, not just toy shapes.
#[test]
fn canonical_preset_lowering_matches_the_legacy_builders() {
    let shape = ExperimentShape::new(CANONICAL_SCENARIOS, CANONICAL_MONTHS);

    let ir = oa_workflow::ir::lower_fused(shape);
    let seed = seed_fused(shape);
    assert_same_mesh(&ir, &seed, FusedTask::task_id).unwrap();
    assert_eq!(
        ir.dag.topo_sort().unwrap(),
        seed.topo_sort().unwrap(),
        "fused topological order drifted"
    );
    let cp = ir.critical_path(&ReferenceDurations).unwrap();
    let seed_cp = seed.critical_path(|_, t| t.kind.reference_secs()).unwrap();
    assert_eq!(cp.to_bits(), seed_cp.to_bits(), "fused critical path");

    let ir = oa_workflow::ir::lower_experiment(shape);
    let seed = seed_experiment(shape);
    assert_same_mesh(&ir, &seed, |&id| id).unwrap();
    assert_eq!(
        ir.dag.topo_sort().unwrap(),
        seed.topo_sort().unwrap(),
        "unfused topological order drifted"
    );
    let cp = ir.critical_path(&ReferenceDurations).unwrap();
    let seed_cp = seed
        .critical_path(|_, id| id.kind.reference_secs())
        .unwrap();
    assert!(
        (cp - seed_cp).abs() < 1e-9,
        "unfused critical path: {cp} vs {seed_cp}"
    );

    // The 120 MB inter-month hand-off is one flow instance per
    // cross-month edge, not a constant wired through the consumers.
    let ir = oa_workflow::ir::lower_fused(shape);
    let expected = u64::from(CANONICAL_SCENARIOS) * u64::from(CANONICAL_MONTHS - 1);
    assert_eq!(ir.flows.len() as u64, expected);
    assert_eq!(ir.total_flow().0, INTER_MONTH_TRANSFER.0 * expected);
}

/// A `SubmitWorkflow` carrying the preset spec produces a transcript
/// byte-identical to the equivalent `Submit` — admission, completion
/// report, metrics and all — on a grid with queueing and a fault plan,
/// and, fault-free and fused, with `Status` month progress at four
/// instants before the drain.
#[test]
fn service_workflow_transcripts_match_submit_byte_for_byte() {
    let mk = || {
        Service::new(
            ServiceConfig {
                capacity: 16,
                planning_nm: 12,
                ..Default::default()
            },
            1,
        )
    };
    let setup = "{\"Hello\":{\"version\":1}}\n\
         {\"ClusterJoin\":{\"name\":\"a\",\"preset\":\"reference\",\"resources\":53}}\n\
         {\"ClusterJoin\":{\"name\":\"b\",\"preset\":\"sagittaire\",\"resources\":30}}\n";
    let status = "{\"Status\":{\"session\":\"s1\"}}\n";
    let progress: String = [2500.0, 5000.0, 7500.0, 10000.0]
        .iter()
        .map(|t| format!("{{\"Advance\":{{\"to\":{t:.1}}}}}\n{status}"))
        .collect();
    let tail = "{\"Drain\":{}}\n{\"Metrics\":{}}\n{\"Shutdown\":{}}";
    for (granularity, kills, middle) in [
        ("fused", "0@4000", status),
        ("unfused", "0@4000", status),
        ("fused", "", progress.as_str()),
    ] {
        let submit = format!(
            r#"{{"Submit":{{"session":"s1","ns":5,"nm":12,"heuristic":"knapsack","policy":"least-advanced","granularity":"{granularity}","recovery":"checkpoint","kills":"{kills}","deadline":0.0}}}}"#
        );
        let workflow = format!(
            r#"{{"SubmitWorkflow":{{"session":"s1","workflow":{{"preset":{{"ns":5,"nm":12,"granularity":"{granularity}"}}}},"heuristic":"knapsack","policy":"least-advanced","recovery":"checkpoint","kills":"{kills}","deadline":0.0}}}}"#
        );
        let mut a = mk();
        let legacy = run_script(&mut a, &format!("{setup}{submit}\n{middle}{tail}"));
        let mut b = mk();
        let lifted = run_script(&mut b, &format!("{setup}{workflow}\n{middle}{tail}"));
        assert!(legacy.contains("\"Admitted\""), "setup broke: {legacy}");
        assert_eq!(lifted, legacy, "{granularity} {kills:?} transcript drifted");
        if kills.is_empty() {
            // Month progress resolves at every instant, and moves.
            let done: Vec<&str> = legacy
                .lines()
                .filter(|l| l.contains("\"lifecycle\":\"running\""))
                .filter_map(|l| l.split("\"months_done\":").nth(1)?.split(',').next())
                .collect();
            assert_eq!(done.len(), 4, "four running Status answers: {legacy}");
            assert!(done.iter().all(|m| m.parse::<u32>().is_ok()), "{done:?}");
            assert!(done.windows(2).all(|w| w[0] != w[1]), "{done:?}");
        }
    }
}

/// A workflow spec document and, for a well-formed preset, the class
/// its header names (an absent granularity is fused). `kind` picks a
/// well-formed preset (0), one of seven malformed specs (1–7: ns 0,
/// missing nm, float ns, an extra key, a bad granularity, a non-object
/// document, a non-object preset), or an explicit spec rendered from a
/// lowered mesh (8).
fn arb_spec() -> impl Strategy<Value = (Value, Option<IrClass>)> {
    (0u32..9, 1u32..=6, 1u32..=40, 0u32..3).prop_map(|(kind, ns, nm, g)| {
        let shape = ExperimentShape::new(ns, nm);
        let granularity = match g {
            0 => None,
            1 => Some("fused"),
            _ => Some("unfused"),
        };
        let preset = |fields: Vec<(&str, Value)>| {
            let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
            Value::Object(vec![("preset".into(), Value::Object(fields.collect()))])
        };
        let mut header = vec![("ns", Value::U64(ns.into())), ("nm", Value::U64(nm.into()))];
        if let Some(g) = granularity {
            header.push(("granularity", Value::Str(g.into())));
        }
        match kind {
            0 => {
                let class = if g == 2 {
                    IrClass::UnfusedMesh(shape)
                } else {
                    IrClass::FusedMesh(shape)
                };
                (preset(header), Some(class))
            }
            1 => {
                header[0].1 = Value::U64(0);
                (preset(header), None)
            }
            2 => {
                header.remove(1);
                (preset(header), None)
            }
            3 => {
                header[0].1 = Value::F64(f64::from(ns));
                (preset(header), None)
            }
            4 => {
                let Value::Object(mut fields) = preset(header) else {
                    unreachable!("presets are objects")
                };
                fields.push(("nodes".into(), Value::Array(Vec::new())));
                (Value::Object(fields), None)
            }
            5 => {
                header.truncate(2);
                let bad = match g {
                    0 => Value::Str("blended".into()),
                    1 => Value::U64(1),
                    _ => Value::Null,
                };
                header.push(("granularity", bad));
                (preset(header), None)
            }
            6 => (Value::Array(vec![preset(header)]), None),
            7 => (
                Value::Object(vec![("preset".into(), Value::U64(ns.into()))]),
                None,
            ),
            _ => {
                let ir = if g == 2 {
                    oa_workflow::ir::lower_experiment(shape)
                } else {
                    oa_workflow::ir::lower_fused(shape)
                };
                (oa_workflow::ir::to_spec_value(&ir), None)
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The tentpole's byte-identity invariant, end to end: routing a
    /// lowered preset mesh through `simulate_ir` reproduces the legacy
    /// `simulate_campaign` outcome *bitwise* — schedule records,
    /// makespan bits, damage accounting — for both granularities,
    /// with and without fault injection.
    #[test]
    fn preset_meshes_through_the_ir_router_are_bitwise_legacy(
        (inst, table) in (arb_instance(), arb_table()),
        frac in 0.05f64..0.95,
    ) {
        let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
        let clean = match simulate_campaign(
            inst, &table, &grouping,
            &CampaignConfig::fused(ScenarioPolicy::LeastAdvanced),
            &FaultPlan::none(), &mut NullTracer,
        ).expect("valid grouping") {
            CampaignOutcome::Completed(run) => run.makespan,
            CampaignOutcome::Stranded { .. } => panic!("fault-free runs never strand"),
        };
        let plans = [FaultPlan::none(), FaultPlan::none().kill(0, frac * clean)];
        for (fused, config) in [
            (true, CampaignConfig::fused(ScenarioPolicy::LeastAdvanced)),
            (false, CampaignConfig::unfused(ScenarioPolicy::RoundRobin)),
        ] {
            let ir = if fused {
                oa_workflow::ir::lower_fused(inst.shape())
            } else {
                oa_workflow::ir::lower_experiment(inst.shape())
            };
            for plan in &plans {
                let legacy = simulate_campaign(
                    inst, &table, &grouping, &config, plan, &mut NullTracer,
                ).expect("valid grouping");
                let routed = simulate_ir(
                    &ir, &table, inst.r, Heuristic::Knapsack, &config, plan, &mut NullTracer,
                ).expect("recognized mesh");
                match routed {
                    IrOutcome::Campaign(outcome) => {
                        prop_assert_eq!(&outcome, &legacy, "fused={}", fused);
                    }
                    IrOutcome::Generic(_) => {
                        prop_assert!(false, "preset mesh fell off the legacy route");
                    }
                }
            }
        }
    }

    /// The IR executor against the seed list scheduler, on lowered
    /// fused meshes: unpinned at the paper's uniform allocation
    /// `min(11, R)`, and with every scenario's mains pinned to an
    /// allocation in 4..=min(11, R) — uniform or per scenario.
    #[test]
    fn ir_executor_matches_the_list_scheduler_bitwise(
        inst in arb_instance(),
        table in arb_any_table(),
        uniform in 0u32..2,
        picks in proptest::collection::vec(4u32..=11, 8),
    ) {
        let ir = oa_workflow::ir::lower_fused(inst.shape());
        let generic = execute_ir(&ir, &table, inst.r).unwrap();
        let paper = vec![11.min(inst.r); inst.ns as usize];
        assert_matches_oracle(&ir, &generic, &list_schedule(inst, &table, &paper))?;

        let allocs: Vec<u32> = (0..inst.ns as usize)
            .map(|s| picks[if uniform == 1 { 0 } else { s }].min(inst.r))
            .collect();
        let pinned = schedule_pinned(&mut ir.clone(), &table, inst.r, &allocs).unwrap();
        assert_matches_oracle(&ir, &pinned, &list_schedule(inst, &table, &allocs))?;
    }

    /// `classify_spec` reads a preset spec's header without building
    /// its mesh, and must still classify every document, errors
    /// included, exactly as lowering it and recognizing the result.
    /// Every IR `from_value` returns is also one no workflow check
    /// downstream could refuse: it passes `validate`, a preset spec is
    /// its canonical lowering, and an explicit spec's nodes carry no
    /// preset origin while each of its flows moves at least one byte.
    #[test]
    fn classify_spec_is_recognize_of_from_value((doc, header) in arb_spec()) {
        let classified = classify_spec(&doc);
        let lifted = from_value(&doc);
        prop_assert_eq!(
            &classified,
            &lifted.clone().map(|ir| recognize(&ir)),
            "{:?}",
            doc
        );
        if let Some(class) = header {
            prop_assert_eq!(classified, Ok(class));
        }
        if let Ok(ir) = lifted {
            prop_assert_eq!(ir.validate(), Ok(()), "{:?}", doc);
            if doc.get("preset").is_some() {
                let lowered = match header {
                    Some(IrClass::FusedMesh(shape)) => oa_workflow::ir::lower_fused(shape),
                    Some(IrClass::UnfusedMesh(shape)) => oa_workflow::ir::lower_experiment(shape),
                    other => {
                        return Err(TestCaseError::fail(format!("{doc:?} lifted, class {other:?}")))
                    }
                };
                prop_assert_eq!(ir, lowered, "{:?}", doc);
            } else {
                prop_assert!(ir.dag.iter().all(|(_, n)| n.origin.is_none()), "{:?}", doc);
                prop_assert!(ir.flows.iter().all(|fl| fl.volume.0 >= 1), "{:?}", doc);
            }
        }
    }

    /// Shape-level equivalence at every mesh size the sweep covers: the
    /// lowerings are the seed meshes node for node (names, origins,
    /// edges in insertion order, flow placement), with the same
    /// topological order and critical path (the canonical-shape test
    /// above pins 10×1800).
    #[test]
    fn lowerings_match_legacy_structure_at_every_shape(
        ns in 1u32..=10, nm in 1u32..=40,
    ) {
        let shape = ExperimentShape::new(ns, nm);
        let ir = oa_workflow::ir::lower_fused(shape);
        ir.validate().unwrap();
        let seed = seed_fused(shape);
        assert_same_mesh(&ir, &seed, FusedTask::task_id)?;
        prop_assert_eq!(ir.dag.topo_sort().unwrap(), seed.topo_sort().unwrap());
        let cp = ir.critical_path(&ReferenceDurations).unwrap();
        let scp = seed.critical_path(|_, t| t.kind.reference_secs()).unwrap();
        prop_assert_eq!(cp.to_bits(), scp.to_bits());

        let ir = oa_workflow::ir::lower_experiment(shape);
        ir.validate().unwrap();
        let seed = seed_experiment(shape);
        assert_same_mesh(&ir, &seed, |&id| id)?;
        prop_assert_eq!(ir.dag.topo_sort().unwrap(), seed.topo_sort().unwrap());
        let cp = ir.critical_path(&ReferenceDurations).unwrap();
        let scp = seed.critical_path(|_, id| id.kind.reference_secs()).unwrap();
        prop_assert!((cp - scp).abs() < 1e-9);
    }
}
