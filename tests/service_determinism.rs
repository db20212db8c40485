//! Pipe-mode determinism of the `oa-service` daemon: a transcript is
//! a pure function of the request lines and the service
//! configuration. Same script, same config → byte-identical output,
//! across repeated runs and across `--jobs` worker counts (the pool
//! parallelizes performance-vector pricing; parallelism must never be
//! observable). This is the wire-level face of the workspace-wide
//! "determinism under parallelism" invariant in DESIGN.md, and the
//! golden transcript here is the one CI replays through
//! `oa serve --script`.

use ocean_atmosphere::service::daemon::{run_script, Service, ServiceConfig};
use proptest::prelude::*;

/// Worker counts under test: serial short-circuit, small pool,
/// oversubscribed pool (this box may have fewer cores than 8).
const JOBS: [usize; 3] = [1, 2, 8];

fn service(jobs: usize) -> Service {
    let cfg = ServiceConfig {
        capacity: 24,
        planning_nm: 12,
        ..Default::default()
    };
    Service::new(cfg, jobs)
}

/// Renders a random-but-deterministic request script from draw tags.
/// Invalid requests are kept in deliberately — error responses are
/// part of the transcript and must be as reproducible as admissions.
fn script_from(tags: &[(u8, u16)]) -> String {
    const PRESETS: [&str; 3] = ["sagittaire", "grillon", "capricorne"];
    const HEURISTICS: [&str; 4] = ["basic", "redistribute", "nopost", "knapsack"];
    const POLICIES: [&str; 3] = ["least-advanced", "round-robin", "most-advanced"];
    let mut lines = vec![r#"{"Hello":{"version":1}}"#.to_string()];
    let mut joined: Vec<String> = Vec::new();
    let mut submitted = 0usize;
    let mut clock = 0.0f64;
    for &(tag, x) in tags {
        let x = usize::from(x);
        match tag % 8 {
            0 => {
                let name = format!("c{}", joined.len());
                let preset = PRESETS[x % PRESETS.len()];
                let resources = 8 + 4 * (x % 12);
                lines.push(format!(
                    r#"{{"ClusterJoin":{{"name":"{name}","preset":"{preset}","resources":{resources}}}}}"#
                ));
                joined.push(name);
            }
            1..=3 => {
                let session = format!("s{submitted}");
                submitted += 1;
                let ns = 1 + x % 6;
                let heuristic = HEURISTICS[x % HEURISTICS.len()];
                let policy = POLICIES[x % POLICIES.len()];
                let granularity = if x % 2 == 0 { "fused" } else { "unfused" };
                let recovery = if x % 3 == 0 { "restart" } else { "checkpoint" };
                lines.push(format!(
                    r#"{{"Submit":{{"session":"{session}","ns":{ns},"nm":6,"heuristic":"{heuristic}","policy":"{policy}","granularity":"{granularity}","recovery":"{recovery}","kills":"","deadline":0.0}}}}"#
                ));
            }
            4 => {
                // Sometimes a live session, sometimes unknown (PROTO006).
                let session = format!("s{}", x % (submitted + 1));
                lines.push(format!(r#"{{"Status":{{"session":"{session}"}}}}"#));
            }
            5 => {
                clock += 1800.0 * (1 + x % 20) as f64;
                lines.push(format!(r#"{{"Advance":{{"to":{clock:.1}}}}}"#));
            }
            6 => {
                if !joined.is_empty() {
                    let name = &joined[x % joined.len()];
                    clock += 600.0;
                    lines.push(format!(
                        r#"{{"ClusterFail":{{"name":"{name}","at":{clock:.1}}}}}"#
                    ));
                }
            }
            _ => {
                // Leaves of busy clusters are PROTO007 errors; both
                // outcomes must reproduce bitwise.
                let name = format!("c{}", x % (joined.len() + 1));
                lines.push(format!(r#"{{"ClusterLeave":{{"name":"{name}"}}}}"#));
            }
        }
    }
    lines.push(r#"{"Metrics":{}}"#.to_string());
    lines.push(r#"{"Drain":{}}"#.to_string());
    lines.push(r#"{"Shutdown":{}}"#.to_string());
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The hard invariant of ISSUE 7: pipe-mode transcripts are
    /// byte-identical across repeated runs and across `--jobs`.
    #[test]
    fn transcripts_are_byte_identical_across_runs_and_jobs(
        tags in proptest::collection::vec((0u8..8, 0u16..1000), 1..40),
    ) {
        let script = script_from(&tags);
        let reference = run_script(&mut service(1), &script);
        // Repeat run: no hidden state survives in a fresh service.
        prop_assert_eq!(&run_script(&mut service(1), &script), &reference);
        for jobs in JOBS {
            let got = run_script(&mut service(jobs), &script);
            prop_assert_eq!(&got, &reference, "jobs = {} diverged", jobs);
        }
    }
}

/// The golden transcript CI replays byte-for-byte through
/// `oa serve --script tests/fixtures/service_transcript.jsonl
/// --capacity 32 --jobs 1`. Regenerate with exactly that command if a
/// deliberate protocol change lands (and bump `PROTOCOL_VERSION` when
/// the change is incompatible).
#[test]
fn golden_transcript_replays_byte_identically() {
    let script = include_str!("fixtures/service_transcript.jsonl");
    let golden = include_str!("golden/service_session.log");
    let cfg = ServiceConfig {
        capacity: 32,
        ..Default::default()
    };
    for jobs in JOBS {
        let got = run_script(&mut Service::new(cfg, jobs), script);
        assert_eq!(
            got, golden,
            "golden transcript diverged at jobs={jobs}; regenerate with \
             `oa serve --script tests/fixtures/service_transcript.jsonl --capacity 32 --jobs 1` \
             only for deliberate protocol changes"
        );
    }
}

/// The workflow golden: preset `SubmitWorkflow`s (fused, unfused, and
/// one without a granularity), an explicit general spec (`PROTO003`),
/// a malformed preset (`PROTO009`), a fault-free fused `Submit`, and
/// `Status` for every admitted session at many instants between its
/// admission and its completion, so `months_done` is pinned at every
/// stage of the fused sessions' progress. CI replays it through
/// `oa serve --script tests/fixtures/service_workflow.jsonl
/// --capacity 32 --jobs 1` (and `--jobs 2`).
#[test]
fn workflow_golden_replays_byte_identically() {
    let script = include_str!("fixtures/service_workflow.jsonl");
    let golden = include_str!("golden/service_workflow.log");
    let cfg = ServiceConfig {
        capacity: 32,
        ..Default::default()
    };
    for jobs in [1, 2] {
        let got = run_script(&mut Service::new(cfg, jobs), script);
        assert_eq!(
            got, golden,
            "workflow golden diverged at jobs={jobs}; regenerate with \
             `oa serve --script tests/fixtures/service_workflow.jsonl --capacity 32 --jobs 1` \
             only for deliberate protocol changes"
        );
    }
}
