//! Golden-file tests for the Chrome trace export: the exporter is
//! deterministic (same campaign ⇒ byte-identical JSON — maps are
//! ordered, floats render canonically, no timestamps or randomness),
//! so the seeded R = 53, NS = 10 example is pinned to a checked-in
//! artifact. A diff here means the export *format* changed and the
//! golden file must be regenerated consciously (see the test body).

use oa_platform::presets::reference_cluster;
use oa_sched::grouping::Grouping;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};
use oa_sim::engine::simulate_campaign;
use oa_trace::chrome::chrome_trace_string;
use oa_trace::VecTracer;

/// The paper's Section 4.2 example under Improvement 1, truncated to
/// two months so the golden artifact stays reviewable.
fn example_trace() -> String {
    let inst = Instance::new(10, 2, 53);
    let table = reference_cluster(53).timing;
    let grouping = Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1);
    let config = CampaignConfig::default();
    let mut sink = VecTracer::new();
    simulate_campaign(
        inst,
        &table,
        &grouping,
        &config,
        &FaultPlan::none(),
        &mut sink,
    )
    .expect("valid grouping");
    chrome_trace_string(&sink.into_events())
}

/// Rewrites the golden artifact from the current exporter. Run
/// explicitly after an intentional format change, then review the
/// diff: `cargo test -p oa-sim --test chrome_golden -- --ignored`.
#[test]
#[ignore = "regenerates the golden artifact in-tree"]
fn regenerate_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_r53_improvement1.json"
    );
    std::fs::write(path, example_trace() + "\n").expect("writable golden file");
}

#[test]
fn export_is_deterministic_run_to_run() {
    assert_eq!(example_trace(), example_trace());
}

#[test]
fn export_matches_the_golden_file() {
    let golden = include_str!("golden/chrome_r53_improvement1.json");
    let fresh = example_trace();
    assert_eq!(
        fresh,
        golden.trim_end(),
        "Chrome export drifted from tests/golden/chrome_r53_improvement1.json; \
         if the format change is intentional, regenerate the golden file \
         (print `example_trace()` to it) and review the diff"
    );
}

#[test]
fn golden_file_is_valid_chrome_json() {
    let golden = include_str!("golden/chrome_r53_improvement1.json");
    let doc: serde_json::Value = serde_json::from_str(golden.trim_end()).expect("valid JSON");
    let serde_json::Value::Array(events) = doc.get("traceEvents").expect("traceEvents") else {
        panic!("traceEvents is not an array")
    };
    // Every event carries the mandatory Chrome fields.
    for ev in events {
        assert!(ev.get("ph").is_some(), "{ev:?} lacks ph");
        assert!(ev.get("pid").is_some(), "{ev:?} lacks pid");
    }
    // One complete slice per task execution: 10 scenarios × 2 months,
    // mains and posts.
    let slices = events
        .iter()
        .filter(|e| matches!(e.get("ph"), Some(serde_json::Value::Str(s)) if s == "X"))
        .count();
    assert_eq!(slices, 40);
}
