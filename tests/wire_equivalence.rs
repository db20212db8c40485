//! The two serializers of the vendored serde stack write the same
//! bytes.
//!
//! `serde_json::to_string` streams compact text straight from the
//! derive (`Serialize::write_json`), while `to_value` builds the
//! `serde::Value` tree that `to_string_pretty`, `json!` and the
//! `results/*.json` writers use. For seeded draws of every wire type
//! (`Response`, `Request`, `CampaignReport` and free `Value` trees) and
//! for every `RuleCode`, the streamed text must equal the tree's text
//! byte for byte, hold no raw control character, and read back to an
//! equal value. The draws reach every variant, empty vectors and
//! `None`, strings holding `"`, `\`, every C0 control, DEL and
//! multi-byte UTF-8, the float edges (±0, subnormals, ±1e308, NaN and
//! ±∞, which both paths write as `null`) and the integer extremes.

use std::fmt::Debug;

use ocean_atmosphere::analyze::RuleCode;
use ocean_atmosphere::platform::cluster::ClusterId;
use ocean_atmosphere::service::protocol::{CampaignReport, ExecReport, ProtocolEvent};
use ocean_atmosphere::service::wire::{
    parse_request, render_response, ClusterLoad, PortionInfo, Request, Response, REQUEST_KINDS,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Every C0 control, the two characters JSON escapes by name, DEL and
/// multi-byte UTF-8 of two, three and four bytes.
fn edge_string() -> String {
    let mut s: String = (0u8..0x20).map(char::from).collect();
    s.push_str("\"\\\u{7f}/é€🌊 end");
    s
}

/// Float edges: signed zeros, the extreme subnormals, the normal
/// extremes and the three values JSON cannot spell.
const EDGE_FLOATS: [f64; 16] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308,
    f64::MIN_POSITIVE,
    1e308,
    -1e308,
    f64::MAX,
    f64::MIN,
    1260.0,
    0.1,
    -3.5e-7,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Seeded draws of every field type the wire carries.
struct Gen {
    rng: StdRng,
    /// A non-finite float was drawn since the last [`Gen::exact`].
    nonfinite: bool,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            nonfinite: false,
        }
    }

    /// Whether the draws since the last call were all finite, so
    /// their text reads back to an equal value. JSON writes a
    /// non-finite float as `null`, which reads back as NaN or `None`.
    fn exact(&mut self) -> bool {
        !std::mem::take(&mut self.nonfinite)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }

    fn len(&mut self) -> usize {
        self.below(4) as usize
    }

    fn u32(&mut self) -> u32 {
        match self.below(4) {
            0 => 0,
            1 => u32::MAX,
            _ => self.rng.next_u64() as u32,
        }
    }

    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => u64::MAX,
            _ => self.rng.next_u64() >> self.below(64),
        }
    }

    fn f64(&mut self) -> f64 {
        let x = match self.below(3) {
            0 => EDGE_FLOATS[self.below(EDGE_FLOATS.len() as u64) as usize],
            // Any bit pattern: every exponent, NaN payloads included.
            1 => f64::from_bits(self.rng.next_u64()),
            _ => (self.rng.next_u64() >> 11) as f64 / 1024.0,
        };
        self.nonfinite |= !x.is_finite();
        x
    }

    fn opt_f64(&mut self) -> Option<f64> {
        if self.below(3) == 0 {
            None
        } else {
            Some(self.f64())
        }
    }

    fn char(&mut self) -> char {
        const OTHERS: [char; 8] = ['"', '\\', '\u{7f}', 'é', '€', '🌊', '/', ' '];
        match self.below(4) {
            0 => char::from(self.below(0x20) as u8),
            1 => OTHERS[self.below(OTHERS.len() as u64) as usize],
            _ => char::from(b'a' + self.below(26) as u8),
        }
    }

    fn string(&mut self) -> String {
        if self.below(8) == 0 {
            return edge_string();
        }
        let n = self.below(9);
        (0..n).map(|_| self.char()).collect()
    }

    fn strings(&mut self) -> Vec<String> {
        (0..self.len()).map(|_| self.string()).collect()
    }

    fn u32s(&mut self) -> Vec<u32> {
        (0..self.len()).map(|_| self.u32()).collect()
    }

    /// A `Value` tree in the reader's canonical form: `I64` holds
    /// negative numbers only, as the reader reads a non-negative one
    /// as `U64`.
    fn value(&mut self, depth: u32) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 if self.coin() => Value::I64(i64::MIN),
            2 => Value::I64(-1 - (self.rng.next_u64() >> 1 >> self.below(63)) as i64),
            3 => Value::U64(self.u64()),
            4 => Value::F64(self.f64()),
            5 => Value::Str(self.string()),
            6 => Value::Array((0..self.len()).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.len())
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }

    fn plan(&mut self) -> Vec<ClusterLoad> {
        (0..self.len())
            .map(|_| ClusterLoad {
                name: self.string(),
                scenarios: self.u32(),
            })
            .collect()
    }

    fn portions(&mut self) -> Vec<PortionInfo> {
        (0..self.len())
            .map(|_| PortionInfo {
                cluster: self.u32(),
                name: self.string(),
                scenarios: self.u32s(),
                start: self.f64(),
                makespan: self.opt_f64(),
                finish: self.opt_f64(),
                grouping: self.string(),
            })
            .collect()
    }

    /// One event of each kind, or none.
    fn events(&mut self) -> Vec<ProtocolEvent> {
        if self.below(4) == 0 {
            return Vec::new();
        }
        vec![
            ProtocolEvent::RequestReceived {
                request: self.u64(),
                ns: self.u32(),
                nm: self.u32(),
            },
            ProtocolEvent::PerfQueried {
                cluster: ClusterId(self.u32()),
            },
            ProtocolEvent::PerfReceived {
                cluster: ClusterId(self.u32()),
            },
            ProtocolEvent::RepartitionComputed {
                nb_dags: self.u32s(),
            },
            ProtocolEvent::ExecSent {
                cluster: ClusterId(self.u32()),
                scenarios: self.u32(),
            },
            ProtocolEvent::ReportReceived {
                cluster: ClusterId(self.u32()),
                makespan: self.f64(),
            },
        ]
    }

    fn report(&mut self) -> CampaignReport {
        let reports = (0..self.len())
            .map(|_| ExecReport {
                request: self.u64(),
                cluster: ClusterId(self.u32()),
                scenarios: self.u32s(),
                makespan: self.f64(),
                grouping: self.string(),
            })
            .collect();
        CampaignReport {
            request: self.u64(),
            reports,
            makespan: self.f64(),
            trace: self.events(),
        }
    }

    /// A request of the kind at `kind` in [`request_kind`] order.
    fn request(&mut self, kind: usize) -> Request {
        match kind {
            0 => Request::Hello {
                version: self.u32(),
            },
            1 => Request::ClusterJoin {
                name: self.string(),
                preset: self.string(),
                resources: self.u32(),
            },
            2 => Request::ClusterLeave {
                name: self.string(),
            },
            3 => Request::ClusterFail {
                name: self.string(),
                at: self.f64(),
            },
            4 => Request::Submit {
                session: self.string(),
                ns: self.u32(),
                nm: self.u32(),
                heuristic: self.string(),
                policy: self.string(),
                granularity: self.string(),
                recovery: self.string(),
                kills: self.string(),
                deadline: self.f64(),
            },
            5 => Request::SubmitWorkflow {
                session: self.string(),
                workflow: self.value(3),
                heuristic: self.string(),
                policy: self.string(),
                recovery: self.string(),
                kills: self.string(),
                deadline: self.f64(),
            },
            6 => Request::VariantSweep {
                spec: self.value(3),
            },
            7 => Request::Status {
                session: self.string(),
            },
            8 => Request::Advance { to: self.f64() },
            9 => Request::Drain {},
            10 => Request::Metrics {},
            11 => Request::Shutdown {},
            _ => unreachable!("no kind {kind}"),
        }
    }

    /// A response of the kind at `kind` in [`response_kind`] order.
    fn response(&mut self, kind: usize) -> Response {
        match kind {
            0 => Response::Welcome {
                version: self.u32(),
                service: self.string(),
            },
            1 => Response::ClusterUp {
                name: self.string(),
                id: self.u32(),
                resources: self.u32(),
                plan: self.plan(),
            },
            2 => Response::ClusterGone {
                name: self.string(),
                plan: self.plan(),
            },
            3 => Response::ClusterFailed {
                name: self.string(),
                at: self.f64(),
                displaced: self.strings(),
                plan: self.plan(),
            },
            4 => Response::Admitted {
                session: self.string(),
                at: self.f64(),
                portions: self.portions(),
                predicted_finish: self.opt_f64(),
                bound_lo: self.f64(),
                bound_hi: self.opt_f64(),
                integer_kernel: self.coin(),
                plan: self.plan(),
            },
            5 => Response::Rejected {
                session: self.string(),
                code: self.string(),
                message: self.string(),
            },
            6 => Response::Replanned {
                session: self.string(),
                at: self.f64(),
                portions: self.portions(),
                months_lost: self.u32(),
            },
            7 => Response::SweepReport {
                variants: self.u64(),
                completed: self.u64(),
                stranded: self.u64(),
                shapes: self.u64(),
                heads: self.u64(),
                makespan_min: self.f64(),
                makespan_max: self.f64(),
                makespan_mean: self.f64(),
                months_lost_total: self.u64(),
                lost_proc_secs_total: self.f64(),
                checksum: self.string(),
                memo_hits: self.u64(),
                memo_misses: self.u64(),
                memo_dp_builds: self.u64(),
            },
            8 => Response::State {
                session: self.string(),
                at: self.f64(),
                lifecycle: self.string(),
                months_done: self.coin().then(|| self.u32()),
                finish: self.opt_f64(),
            },
            9 => Response::Completed {
                session: self.string(),
                finish: self.f64(),
                months_lost: self.u32(),
                report: self.report(),
                plan: self.plan(),
            },
            10 => Response::Stranded {
                session: self.string(),
                at: self.f64(),
                completed_months: self.u64(),
            },
            11 => Response::Advanced {
                to: self.f64(),
                completed: self.u32(),
            },
            12 => Response::Drained {
                at: self.f64(),
                completed: self.u32(),
            },
            13 => Response::MetricsReport {
                text: self.string(),
            },
            14 => Response::Bye {
                at: self.f64(),
                admitted: self.u64(),
                completed: self.u64(),
            },
            15 => Response::Error {
                code: self.string(),
                message: self.string(),
            },
            _ => unreachable!("no kind {kind}"),
        }
    }
}

/// The position of `r`'s kind in [`REQUEST_KINDS`], the order
/// [`Gen::request`] draws. The match is exhaustive, so a new request
/// kind does not compile until it is drawn.
fn request_kind(r: &Request) -> usize {
    match r {
        Request::Hello { .. } => 0,
        Request::ClusterJoin { .. } => 1,
        Request::ClusterLeave { .. } => 2,
        Request::ClusterFail { .. } => 3,
        Request::Submit { .. } => 4,
        Request::SubmitWorkflow { .. } => 5,
        Request::VariantSweep { .. } => 6,
        Request::Status { .. } => 7,
        Request::Advance { .. } => 8,
        Request::Drain {} => 9,
        Request::Metrics {} => 10,
        Request::Shutdown {} => 11,
    }
}

/// Response kinds, all drawn by [`Gen::response`].
const RESPONSE_KINDS: usize = 16;

/// The position of `r`'s kind in [`Gen::response`]'s order;
/// exhaustive, like [`request_kind`].
fn response_kind(r: &Response) -> usize {
    match r {
        Response::Welcome { .. } => 0,
        Response::ClusterUp { .. } => 1,
        Response::ClusterGone { .. } => 2,
        Response::ClusterFailed { .. } => 3,
        Response::Admitted { .. } => 4,
        Response::Rejected { .. } => 5,
        Response::Replanned { .. } => 6,
        Response::SweepReport { .. } => 7,
        Response::State { .. } => 8,
        Response::Completed { .. } => 9,
        Response::Stranded { .. } => 10,
        Response::Advanced { .. } => 11,
        Response::Drained { .. } => 12,
        Response::MetricsReport { .. } => 13,
        Response::Bye { .. } => 14,
        Response::Error { .. } => 15,
    }
}

/// `v` as the reader gives it back from `v`'s text: a non-finite float
/// is `null`.
fn canonical(v: &Value) -> Value {
    match v {
        Value::F64(x) if !x.is_finite() => Value::Null,
        Value::Array(items) => Value::Array(items.iter().map(canonical).collect()),
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .map(|(k, item)| (k.clone(), canonical(item)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Writes `x` on both paths and reads the text back: as a tree, it
/// must equal `x`'s tree with non-finite floats as `null`; as a `T`, it
/// must write the same text again, and equal `x` when `x` holds no
/// non-finite float (`exact`).
fn check<T>(x: &T, exact: bool) -> Result<String, TestCaseError>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let tree = serde_json::to_value(x);
    let streamed = serde_json::to_string(x).expect("serializes");
    prop_assert_eq!(
        &streamed,
        &serde_json::to_string(&tree).expect("serializes")
    );
    // Compact text holds no whitespace, so any byte under 0x20 is a
    // control character the escaper let through.
    prop_assert!(
        streamed.bytes().all(|b| b >= 0x20),
        "raw control character in {:?}",
        streamed
    );
    let read: Value = serde_json::from_str(&streamed)
        .map_err(|e| TestCaseError::fail(format!("{e}: {streamed}")))?;
    prop_assert_eq!(&read, &canonical(&tree));
    let back: T = serde_json::from_str(&streamed)
        .map_err(|e| TestCaseError::fail(format!("{e}: {streamed}")))?;
    prop_assert_eq!(
        &serde_json::to_string(&back).expect("serializes"),
        &streamed
    );
    if exact {
        prop_assert_eq!(&back, x);
    }
    Ok(streamed)
}

/// Checks every draw of one seed: a request and a response of each
/// kind (through the daemon's own `parse_request` and
/// `render_response` too), a campaign report and a free value tree.
fn check_seed(seed: u64) -> Result<(), TestCaseError> {
    let mut g = Gen::new(seed);
    for (kind, name) in REQUEST_KINDS.iter().enumerate() {
        let req = g.request(kind);
        let exact = g.exact();
        prop_assert_eq!(request_kind(&req), kind);
        let line = check(&req, exact)?;
        prop_assert!(line.starts_with(&format!("{{\"{name}\":")), "{}", line);
        let parsed = parse_request(&line)
            .map_err(|e| TestCaseError::fail(format!("{}: {line}", e.message)))?;
        prop_assert_eq!(serde_json::to_string(&parsed).expect("serializes"), line);
    }
    for kind in 0..RESPONSE_KINDS {
        let resp = g.response(kind);
        let exact = g.exact();
        prop_assert_eq!(response_kind(&resp), kind);
        let line = check(&resp, exact)?;
        prop_assert_eq!(render_response(&resp), line);
    }
    let report = g.report();
    check(&report, g.exact())?;
    let tree = g.value(4);
    // `canonical` maps a non-finite `F64` to `null`, which no longer
    // equals the tree.
    check(&tree, canonical(&tree) == tree)?;
    Ok(())
}

proptest! {
    #[test]
    fn streamed_text_is_the_value_trees_text(seed in 0u32..u32::MAX) {
        check_seed(u64::from(seed))?;
    }
}

/// The edges the seeded draws reach only by chance, all at once.
#[test]
fn edge_values_write_identically_on_both_paths() {
    let s = edge_string();
    for &x in &EDGE_FLOATS {
        check(&x, x.is_finite()).unwrap();
        check(&Some(x), x.is_finite()).unwrap();
    }
    check(&u64::MAX, true).unwrap();
    check(&i64::MIN, true).unwrap();
    check(&s, true).unwrap();
    check(&Value::I64(i64::MIN), true).unwrap();
    check(&Value::U64(u64::MAX), true).unwrap();
    check(&Value::Str(s.clone()), true).unwrap();
    check(&Value::Array(Vec::new()), true).unwrap();
    check(&Value::Object(Vec::new()), true).unwrap();
    check(&Vec::<u32>::new(), true).unwrap();
    check(&None::<f64>, true).unwrap();
    check(&Request::Drain {}, true).unwrap();
    check(&Request::Metrics {}, true).unwrap();
    let sweep = Response::SweepReport {
        variants: u64::MAX,
        completed: 0,
        stranded: u64::MAX,
        shapes: 1,
        heads: 0,
        makespan_min: -0.0,
        makespan_max: 1e308,
        makespan_mean: 5e-324,
        months_lost_total: u64::MAX,
        lost_proc_secs_total: -1e308,
        checksum: s.clone(),
        memo_hits: 0,
        memo_misses: u64::MAX,
        memo_dp_builds: 0,
    };
    check(&sweep, true).unwrap();
    let admitted = Response::Admitted {
        session: s.clone(),
        at: f64::NAN,
        portions: Vec::new(),
        predicted_finish: None,
        bound_lo: f64::INFINITY,
        bound_hi: Some(f64::NEG_INFINITY),
        integer_kernel: false,
        plan: Vec::new(),
    };
    let line = check(&admitted, false).unwrap();
    assert!(line.contains(r#""at":null"#) && line.contains(r#""bound_hi":null"#));
}

#[test]
fn every_rule_code_writes_identically_on_both_paths() {
    for code in RuleCode::ALL {
        let tree = serde_json::to_value(&code);
        let text = serde_json::to_string(&code).unwrap();
        assert_eq!(text, serde_json::to_string(&tree).unwrap());
        assert_eq!(text, format!("\"{}\"", code.code()));
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, tree);
    }
}
