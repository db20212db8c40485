//! Table-driven admission/protocol rejection tests: one row per error
//! code, asserting the daemon answers each malformed or inadmissible
//! request with the *stable* code documented in `docs/PROTOCOL.md`.
//! Clients branch on these codes; changing one is a wire-protocol
//! break and must bump `PROTOCOL_VERSION`.

use ocean_atmosphere::service::daemon::{run_pipe, run_script, Service, ServiceConfig};
use ocean_atmosphere::service::wire::MAX_LINE_BYTES;

/// A fresh daemon with one 53-processor reference cluster joined —
/// the smallest grid that can admit work.
fn with_cluster() -> Service {
    let cfg = ServiceConfig {
        capacity: 16,
        planning_nm: 12,
        ..Default::default()
    };
    let mut s = Service::new(cfg, 1);
    let log = run_script(
        &mut s,
        "{\"Hello\":{\"version\":1}}\n\
         {\"ClusterJoin\":{\"name\":\"ref\",\"preset\":\"reference\",\"resources\":53}}",
    );
    assert!(log.contains("\"ClusterUp\""), "setup failed: {log}");
    s
}

fn submit(session: &str, ns: u32, nm: u32, heuristic: &str, kills: &str, deadline: f64) -> String {
    format!(
        r#"{{"Submit":{{"session":"{session}","ns":{ns},"nm":{nm},"heuristic":"{heuristic}","policy":"least-advanced","granularity":"fused","recovery":"checkpoint","kills":"{kills}","deadline":{deadline:.1}}}}}"#
    )
}

fn submit_workflow(session: &str, workflow: &str) -> String {
    format!(
        r#"{{"SubmitWorkflow":{{"session":"{session}","workflow":{workflow},"heuristic":"knapsack","policy":"least-advanced","recovery":"checkpoint","kills":"","deadline":0.0}}}}"#
    )
}

/// An explicit chain spec `t0 → t1 → … → t{n−1}` of rigid
/// one-processor tasks, as JSON.
fn chain_spec(n: usize) -> String {
    let nodes: Vec<String> = (0..n)
        .map(|i| format!(r#"{{"name":"t{i}","procs":1,"secs":1.0}}"#))
        .collect();
    let edges: Vec<String> = (1..n)
        .map(|i| format!(r#"{{"from":"t{}","to":"t{i}"}}"#, i - 1))
        .collect();
    format!(
        r#"{{"nodes":[{}],"edges":[{}]}}"#,
        nodes.join(","),
        edges.join(",")
    )
}

/// A `Hello` padded with trailing blanks to exactly `len` bytes: valid
/// JSON at any length, so only the line cap can refuse it.
fn padded_hello(len: usize) -> String {
    let hello = r#"{"Hello":{"version":1}}"#;
    format!("{hello}{}", " ".repeat(len - hello.len()))
}

/// Every rejection row: (label, request line, expected stable code).
/// The table mirrors the error-code table in `docs/PROTOCOL.md`.
fn rejection_table() -> Vec<(&'static str, String, &'static str)> {
    vec![
        // Protocol-layer errors (PROTO...): the line itself is bad.
        ("malformed JSON", "this is not json".into(), "PROTO001"),
        ("truncated JSON", r#"{"Submit":{"session""#.into(), "PROTO001"),
        // 50,000 nested arrays overflowed the daemon's stack in the
        // recursive JSON reader; nesting past 128 is invalid JSON.
        ("50,000-deep nesting", "[".repeat(50_000), "PROTO001"),
        // One byte over the line cap is refused before it is parsed.
        (
            "request line over the line cap",
            padded_hello(MAX_LINE_BYTES + 1),
            "PROTO011",
        ),
        ("unknown kind", r#"{"Teleport":{}}"#.into(), "PROTO002"),
        (
            "two kinds in one line",
            r#"{"Hello":{"version":1},"Drain":{}}"#.into(),
            "PROTO002",
        ),
        (
            "bad field type",
            r#"{"Submit":{"session":"x","ns":"six","nm":12,"heuristic":"knapsack","policy":"least-advanced","granularity":"fused","recovery":"checkpoint","kills":"","deadline":0.0}}"#.into(),
            "PROTO003",
        ),
        (
            "missing field",
            r#"{"Submit":{"session":"x"}}"#.into(),
            "PROTO003",
        ),
        (
            "empty session name",
            submit("", 2, 12, "knapsack", "", 0.0),
            "PROTO003",
        ),
        (
            "unknown heuristic",
            submit("x", 2, 12, "quantum", "", 0.0),
            "PROTO003",
        ),
        (
            "unknown recovery",
            r#"{"Submit":{"session":"x","ns":2,"nm":12,"heuristic":"knapsack","policy":"least-advanced","granularity":"fused","recovery":"bogus","kills":"","deadline":0.0}}"#.into(),
            "PROTO003",
        ),
        (
            "malformed kill plan",
            submit("x", 2, 12, "knapsack", "not-a-kill", 0.0),
            "PROTO003",
        ),
        (
            "negative deadline",
            submit("x", 2, 12, "knapsack", "", -5.0),
            "PROTO003",
        ),
        (
            "future protocol version",
            r#"{"Hello":{"version":99}}"#.into(),
            "PROTO004",
        ),
        (
            "unknown session status",
            r#"{"Status":{"session":"ghost"}}"#.into(),
            "PROTO006",
        ),
        (
            "unknown cluster leave",
            r#"{"ClusterLeave":{"name":"ghost"}}"#.into(),
            "PROTO006",
        ),
        (
            "unknown cluster fail",
            r#"{"ClusterFail":{"name":"ghost","at":10.0}}"#.into(),
            "PROTO006",
        ),
        (
            "clock regression",
            r#"{"Advance":{"to":-1.0}}"#.into(),
            "PROTO008",
        ),
        // Workflow submissions: structural DAG defects are PROTO009;
        // field-level problems and out-of-scope shapes stay PROTO003.
        (
            "empty workflow graph",
            submit_workflow("x", r#"{"nodes":[]}"#),
            "PROTO009",
        ),
        (
            "cyclic workflow",
            submit_workflow(
                "x",
                r#"{"nodes":[{"name":"a","procs":4,"secs":10.0},{"name":"b","procs":4,"secs":10.0}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]}"#,
            ),
            "PROTO009",
        ),
        (
            "self-loop workflow",
            submit_workflow(
                "x",
                r#"{"nodes":[{"name":"a","procs":4,"secs":10.0}],"edges":[{"from":"a","to":"a"}]}"#,
            ),
            "PROTO009",
        ),
        (
            "dangling workflow edge",
            submit_workflow(
                "x",
                r#"{"nodes":[{"name":"a","procs":4,"secs":10.0}],"edges":[{"from":"a","to":"ghost"}]}"#,
            ),
            "PROTO009",
        ),
        (
            "duplicate workflow node name",
            submit_workflow(
                "x",
                r#"{"nodes":[{"name":"a","procs":4,"secs":10.0},{"name":"a","procs":4,"secs":10.0}]}"#,
            ),
            "PROTO009",
        ),
        (
            "empty workflow preset shape",
            submit_workflow("x", r#"{"preset":{"ns":0,"nm":12}}"#),
            "PROTO009",
        ),
        (
            "workflow spec missing nodes",
            submit_workflow("x", r#"{"tasks":[]}"#),
            "PROTO003",
        ),
        (
            "general workflow out of service scope",
            submit_workflow(
                "x",
                r#"{"nodes":[{"name":"a","min_procs":4,"max_procs":11,"secs":"main"},{"name":"b","min_procs":4,"max_procs":11,"secs":"main"}],"edges":[{"from":"a","to":"b"}]}"#,
            ),
            "PROTO003",
        ),
        // Size caps: a campaign over MAX_CAMPAIGN_MONTHS is refused
        // before anything is sized by it. Each probe asks for an
        // allocation of tens to hundreds of gigabytes when uncapped.
        (
            "submit over the size cap",
            submit("x", 1, 2_000_000_000, "knapsack", "", 0.0),
            "PROTO011",
        ),
        (
            "preset over the size cap",
            submit_workflow("x", r#"{"preset":{"ns":1000,"nm":1000000}}"#),
            "PROTO011",
        ),
        (
            "one-scenario preset over the size cap",
            submit_workflow("x", r#"{"preset":{"ns":1,"nm":2000000000}}"#),
            "PROTO011",
        ),
        (
            "one month over the size cap",
            submit("x", 1, 1_048_577, "knapsack", "", 0.0),
            "PROTO011",
        ),
        // A sweep spec is checked before it is planned: a zero axis
        // entry panicked in `Instance::new`, and the two capped lines
        // aborted the daemon sizing 10^15 result rows and planning one
        // 2·10^9-month shape.
        (
            "variant sweep with a zero-scenario shape",
            r#"{"VariantSweep":{"spec":{"variants":1,"nm":[12],"ns":[0],"r":[20]}}}"#.into(),
            "PROTO010",
        ),
        (
            "variant sweep over the variant cap",
            r#"{"VariantSweep":{"spec":{"variants":1000000000000000,"nm":[12],"ns":[2],"r":[20]}}}"#
                .into(),
            "PROTO011",
        ),
        (
            "variant sweep shape over the size cap",
            r#"{"VariantSweep":{"spec":{"variants":1,"nm":[2000000000],"ns":[1],"r":[20]}}}"#
                .into(),
            "PROTO011",
        ),
        // A cluster over MAX_CLUSTER_PROCS is refused before pricing:
        // uncapped, the join panicked sizing the knapsack DP table and
        // the sweep aborted sizing the estimator's post pool (32 GB).
        (
            "cluster join over the processor cap",
            r#"{"ClusterJoin":{"name":"big","preset":"reference","resources":4000000000}}"#.into(),
            "PROTO011",
        ),
        (
            "variant sweep cluster over the processor cap",
            r#"{"VariantSweep":{"spec":{"r":[4000000000],"variants":1}}}"#.into(),
            "PROTO011",
        ),
        // A 2.8 MB line: reading it and lifting its 40,000 nodes must
        // stay linear, or the single-threaded daemon stalls.
        (
            "40,000-node general workflow",
            submit_workflow("x", &chain_spec(40_000)),
            "PROTO003",
        ),
        // Admission-layer rejections (OA.../CT...): the request is
        // well-formed but the campaign is inadmissible; codes are the
        // analyzer's own rule ids.
        (
            "empty campaign shape",
            submit("x", 0, 12, "knapsack", "", 0.0),
            "OA002",
        ),
        (
            "over service capacity",
            submit("x", 40, 12, "knapsack", "", 0.0),
            "OA005",
        ),
        (
            "kill of a nonexistent group",
            submit("x", 2, 12, "knapsack", "99@1000", 0.0),
            "OA018",
        ),
        (
            "unreachable deadline",
            submit("x", 6, 1800, "knapsack", "", 1.0),
            "CT001",
        ),
    ]
}

#[test]
fn every_rejection_answers_with_its_documented_code() {
    for (label, line, code) in rejection_table() {
        let mut s = with_cluster();
        let log = run_script(&mut s, &line);
        assert!(
            log.contains(&format!("\"{code}\"")),
            "{label}: expected {code}, got: {log}"
        );
        // A rejection is terminal for the request, not the daemon:
        // the same service must still admit a valid campaign.
        let after = run_script(
            &mut s,
            &submit("recovery-probe", 2, 12, "knapsack", "", 0.0),
        );
        assert!(
            after.contains("\"Admitted\""),
            "{label}: daemon wedged after rejection: {after}"
        );
    }
}

/// The pipe reader applies the line cap as it reads: a line at the cap
/// is served, a longer one is answered `PROTO011` without being
/// buffered, a line nested past the JSON reader's limit is `PROTO001`,
/// and the daemon reads on to the next line.
#[test]
fn pipe_mode_caps_line_length_and_nesting() {
    let input = [
        padded_hello(MAX_LINE_BYTES),
        padded_hello(MAX_LINE_BYTES + 1),
        "[".repeat(50_000),
        r#"{"Hello":{"version":1}}"#.to_string(),
    ]
    .join("\n");
    let mut service = Service::new(ServiceConfig::default(), 1);
    let mut out = Vec::new();
    // Small reads, so each long line arrives in many chunks.
    let reader = std::io::BufReader::with_capacity(1 << 16, input.as_bytes());
    run_pipe(&mut service, reader, &mut out).expect("in-memory I/O");
    let out = String::from_utf8(out).expect("responses are UTF-8");
    let answers: Vec<&str> = out.lines().collect();
    assert_eq!(answers.len(), 4, "{out}");
    for (answer, want) in
        answers
            .iter()
            .zip(["\"Welcome\"", "\"PROTO011\"", "\"PROTO001\"", "\"Welcome\""])
    {
        assert!(answer.contains(want), "expected {want}: {answer}");
    }
}

/// A character outside the Basic Multilingual Plane reads the same
/// whether it arrives raw or as a `\u` surrogate pair, which is how
/// Python's `json.dumps` writes it by default; the answer carries it
/// as raw UTF-8 either way. An unpaired surrogate is `PROTO001`.
#[test]
fn surrogate_pair_escapes_name_the_same_session() {
    let mut s = with_cluster();
    let admitted = run_script(&mut s, &submit("\u{1f30a}", 2, 12, "knapsack", "", 0.0));
    assert!(admitted.contains("\"Admitted\""), "{admitted}");
    let status = |session: &str| format!(r#"{{"Status":{{"session":"{session}"}}}}"#);
    let raw = run_script(&mut s, &status("\u{1f30a}"));
    let escaped = run_script(&mut s, &status(r"\ud83c\udf0a"));
    assert!(escaped.contains("\"session\":\"\u{1f30a}\""), "{escaped}");
    assert_eq!(escaped, raw);
    for lone in [r"\ud83c", r"\udf0a", r"\udf0a\ud83c", r"\ud83c\u0041"] {
        let log = run_script(&mut s, &status(lone));
        assert!(log.contains("\"PROTO001\""), "{lone}: {log}");
    }
}

/// Duplicate names: a second submit under a live session name is
/// PROTO005, as is a second cluster join under a taken name.
#[test]
fn duplicate_names_are_proto005() {
    let mut s = with_cluster();
    let first = run_script(&mut s, &submit("dup", 2, 12, "knapsack", "", 0.0));
    assert!(first.contains("\"Admitted\""), "{first}");
    let again = run_script(&mut s, &submit("dup", 2, 12, "knapsack", "", 0.0));
    assert!(again.contains("\"PROTO005\""), "{again}");
    let join = run_script(
        &mut s,
        r#"{"ClusterJoin":{"name":"ref","preset":"reference","resources":53}}"#,
    );
    assert!(join.contains("\"PROTO005\""), "{join}");
}

/// A busy cluster refuses to leave with PROTO007 until its planned
/// scenarios drain.
#[test]
fn busy_cluster_leave_is_proto007() {
    let mut s = with_cluster();
    let log = run_script(
        &mut s,
        &format!(
            "{}\n{}",
            submit("hold", 3, 12, "knapsack", "", 0.0),
            r#"{"ClusterLeave":{"name":"ref"}}"#
        ),
    );
    assert!(log.contains("\"PROTO007\""), "{log}");
    let drained = run_script(
        &mut s,
        "{\"Drain\":{}}\n{\"ClusterLeave\":{\"name\":\"ref\"}}",
    );
    assert!(drained.contains("\"ClusterGone\""), "{drained}");
}

/// A cluster that still runs a session portion refuses to leave with
/// PROTO007 even when the plan counts nothing on it: `short`'s release
/// relabels the plan's one remaining scenario onto `a`, while `long`
/// keeps running on `b`. After the drain `b` leaves.
#[test]
fn cluster_running_a_portion_cannot_leave() {
    let cfg = ServiceConfig {
        capacity: 16,
        planning_nm: 12,
        ..Default::default()
    };
    let mut s = Service::new(cfg, 1);
    let log = run_script(
        &mut s,
        &[
            r#"{"ClusterJoin":{"name":"a","preset":"sagittaire","resources":16}}"#,
            r#"{"ClusterJoin":{"name":"b","preset":"sagittaire","resources":16}}"#,
            &submit("short", 1, 12, "knapsack", "", 0.0),
            &submit("long", 1, 1200, "knapsack", "", 0.0),
            r#"{"Advance":{"to":100000.0}}"#,
            r#"{"ClusterLeave":{"name":"b"}}"#,
        ]
        .join("\n"),
    );
    let leave = log.lines().last().unwrap_or_default();
    assert!(leave.contains("\"PROTO007\""), "{log}");
    let drained = run_script(
        &mut s,
        "{\"Drain\":{}}\n{\"ClusterLeave\":{\"name\":\"b\"}}",
    );
    assert!(
        drained.contains("\"Completed\":{\"session\":\"long\""),
        "{drained}"
    );
    let leave = drained.lines().last().unwrap_or_default();
    assert!(leave.contains("\"ClusterGone\""), "{drained}");
}

/// A cluster of exactly `MAX_CLUSTER_PROCS` processors joins, and the
/// daemon goes on answering.
#[test]
fn cluster_join_at_the_processor_cap_is_admitted() {
    let mut s = with_cluster();
    let log = run_script(
        &mut s,
        "{\"ClusterJoin\":{\"name\":\"cap\",\"preset\":\"reference\",\"resources\":1024}}\n\
         {\"ClusterJoin\":{\"name\":\"over\",\"preset\":\"reference\",\"resources\":1025}}",
    );
    assert!(log.contains("\"ClusterUp\""), "{log}");
    assert!(log.contains("\"PROTO011\""), "{log}");
    let after = run_script(&mut s, &submit("after-cap", 2, 12, "knapsack", "", 0.0));
    assert!(after.contains("\"Admitted\""), "{after}");
}

/// A sweep whose batch head would capture more than the head budget
/// (one pool copy per month: 4,097 boundaries × 1,024 processors)
/// runs its variants one at a time and still answers a report.
#[test]
fn over_budget_sweep_answers_a_report() {
    let mut s = with_cluster();
    let log = run_script(
        &mut s,
        r#"{"VariantSweep":{"spec":{"ns":[1],"nm":[4096],"r":[1024],"variants":2}}}"#,
    );
    assert!(log.contains("\"SweepReport\""), "{log}");
    assert!(log.contains("\"heads\":0"), "{log}");
}

/// Sanity checks on grid-shape rejections that need their own setup:
/// insane cluster sizes (OA016) and zero-cluster admission.
#[test]
fn cluster_and_grid_shape_rejections() {
    let cfg = ServiceConfig {
        capacity: 16,
        planning_nm: 12,
        ..Default::default()
    };
    // A cluster below the moldable minimum of 4 processors is OA016.
    let mut s = Service::new(cfg, 1);
    let log = run_script(
        &mut s,
        r#"{"ClusterJoin":{"name":"tiny","preset":"reference","resources":2}}"#,
    );
    assert!(log.contains("\"OA016\""), "{log}");
    // With no cluster joined at all, a submit cannot be placed.
    let mut s = Service::new(cfg, 1);
    let log = run_script(&mut s, &submit("nowhere", 2, 12, "knapsack", "", 0.0));
    assert!(log.contains("\"Rejected\""), "{log}");
}
