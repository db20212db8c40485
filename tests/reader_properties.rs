//! The campaign reader on hostile input: arbitrary strings, every
//! `u32` including `0` and `u32::MAX`, and NaN, ±inf and negative
//! deadlines and kill times. Each call into `oa_sched::read`,
//! `parse_submission` or `BatchSpec::from_json` must return a value or
//! a coded refusal, never panic — and the two front ends must accept
//! exactly the campaign shapes `read::shape` accepts, refusing the
//! rest with the reader's own code.

use ocean_atmosphere::sched::read::{self, ReadError};
use ocean_atmosphere::service::admission::parse_submission;
use ocean_atmosphere::sim::batch::{BatchError, BatchSpec};
use proptest::prelude::*;

/// The codes the reader may answer.
const READER_CODES: [&str; 4] = [
    read::EMPTY_CAMPAIGN,
    read::CLUSTER_INSANE,
    read::BAD_FIELD,
    read::OVER_SIZE_CAP,
];

/// Fragments that arbitrary strings are built from: every label the
/// reader knows, number spellings `f64` and `usize` parse or refuse,
/// the kill grammar's punctuation, blanks and a non-ASCII letter.
const TOKENS: [&str; 28] = [
    "knapsack",
    "gain3",
    "basic",
    "least-advanced",
    "round-robin",
    "fused",
    "unfused",
    "checkpoint",
    "restart",
    "reference",
    "grelon",
    "0",
    "7",
    "18446744073709551616",
    "-1",
    "1.5",
    "1e308",
    "NaN",
    "inf",
    "-inf",
    "@",
    ",",
    " ",
    "\t",
    ".",
    "é",
    "x",
    "",
];

/// A `u32` that is `0`, `u32::MAX`, near the caps or anywhere.
fn any_u32() -> impl Strategy<Value = u32> {
    (0u8..6, 0u32..=u32::MAX).prop_map(|(pick, x)| match pick {
        0 => 0,
        1 => u32::MAX,
        2 => x % 16,
        3 => 1 << (x % 32),
        4 => (1 << 20) + x % 3 - 1,
        _ => x,
    })
}

/// An `f64` that is NaN, ±inf, negative, zero, huge or ordinary.
fn any_f64() -> impl Strategy<Value = f64> {
    (0u8..8, -1.0e4f64..1.0e6).prop_map(|(pick, x)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -x.abs() - 1.0,
        4 => 0.0,
        5 => f64::MAX,
        6 => x.round(),
        _ => x,
    })
}

/// A string of up to six [`TOKENS`].
fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TOKENS.len(), 0..=6)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// A kill plan: up to three `G@T` entries with arbitrary groups and
/// instants (NaN and infinities print as `NaN`, `inf`, `-inf`), or an
/// arbitrary string.
fn any_kills() -> impl Strategy<Value = String> {
    (
        0u8..4,
        proptest::collection::vec((any_u32(), any_f64()), 0..=3),
        any_string(),
    )
        .prop_map(|(pick, entries, junk)| match pick {
            0 => junk,
            _ => entries
                .iter()
                .map(|(g, t)| format!("{g}@{t}"))
                .collect::<Vec<_>>()
                .join(","),
        })
}

fn is_reader_refusal(e: &ReadError) -> bool {
    READER_CODES.contains(&e.code) && e.to_string() == format!("{}: {}", e.code, e.message)
}

/// A batch spec with the shape `(ns, nm)`, an `r` axis of 53 and `r`,
/// and `label` in one of the four label fields (picked by `key`).
fn spec_text(ns: u32, nm: u32, r: u32, label: &str, key: usize) -> String {
    let label = serde_json::to_string(&label).expect("strings serialize");
    let field = ["heuristic", "policies", "granularities", "recovery"][key % 4];
    format!(r#"{{"ns":[{ns}],"nm":{nm},"r":[53,{r}],"variants":1,"{field}":{label}}}"#)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_reader_answers_a_value_or_a_coded_refusal(
        (ns, nm, r) in (any_u32(), any_u32(), any_u32()),
        (name, kills) in (any_string(), any_kills()),
        jobs in 0u8..4,
    ) {
        let shape = read::shape(ns, nm);
        match &shape {
            Ok(got) => prop_assert_eq!(*got, (ns, nm)),
            Err(e) => prop_assert!(is_reader_refusal(e), "{e:?}"),
        }
        prop_assert_eq!(
            shape.is_ok(),
            ns > 0 && nm > 0 && u64::from(ns) * u64::from(nm) <= 1 << 20
        );
        let procs = read::procs(r);
        prop_assert_eq!(procs.is_ok(), (4..=1024).contains(&r));
        for outcome in [
            procs.err(),
            read::cluster(&name, &name, r).err(),
            read::heuristic(&name).err(),
            read::policy(&name).err(),
            read::granularity(&name).err(),
            read::recovery(&name).err(),
            read::kills(&kills).err(),
            read::jobs(Some([1, 256, 257, usize::MAX][usize::from(jobs)])).err(),
        ]
        .into_iter()
        .flatten()
        {
            prop_assert!(is_reader_refusal(&outcome), "{outcome:?}");
        }
    }

    #[test]
    fn parse_submission_accepts_exactly_the_readers_shapes(
        (ns, nm) in (any_u32(), any_u32()),
        (heuristic, policy, granularity, recovery) in
            (any_string(), any_string(), any_string(), any_string()),
        (kills, deadline, valid) in (any_kills(), any_f64(), 0u8..2),
    ) {
        // Arbitrary fields: a value or a refusal with a stable code.
        let parsed = parse_submission(
            "s", ns, nm, &heuristic, &policy, &granularity, &recovery, &kills, deadline,
        );
        if let Err(refusal) = &parsed {
            prop_assert!(READER_CODES.contains(&refusal.code.as_str()), "{refusal:?}");
        }
        // Valid fields: the shape alone decides, with the reader's code.
        if valid == 1 {
            let parsed = parse_submission(
                "s", ns, nm, "knapsack", "least-advanced", "fused", "checkpoint", "0@10", 0.0,
            );
            match (parsed, read::shape(ns, nm)) {
                (Ok(sub), Ok(shape)) => prop_assert_eq!((sub.ns, sub.nm), shape),
                (Err(refusal), Err(e)) => prop_assert_eq!(refusal.code, e.code),
                (parsed, shape) => prop_assert!(false, "{parsed:?} vs {shape:?}"),
            }
        }
    }

    #[test]
    fn batch_specs_accept_exactly_the_readers_shapes(
        (ns, nm, r) in (any_u32(), any_u32(), any_u32()),
        (label, key) in (any_string(), 0usize..4),
    ) {
        // Arbitrary fields: a spec or a refusal, never a panic.
        let text = spec_text(ns, nm, r, &label, key);
        let doc: serde_json::Value = serde_json::from_str(&text).expect("the spec is JSON");
        let _ = BatchSpec::from_json(&doc);
        // Valid fields: the shape alone decides (the axis entry 1 keeps
        // `ns` off the extremes), over-cap refusals are `OverSizeCap`
        // and zeros are malformed.
        let text = format!(r#"{{"ns":[{ns},1],"nm":{nm},"variants":1}}"#);
        let doc: serde_json::Value = serde_json::from_str(&text).expect("the spec is JSON");
        match (BatchSpec::from_json(&doc), read::shape(ns, nm)) {
            (Ok(spec), Ok((ns, nm))) => {
                prop_assert_eq!((spec.nss, spec.nms), (vec![ns, 1], vec![nm]));
            }
            (Err(BatchError::OverSizeCap(_)), Err(e)) => {
                prop_assert_eq!(e.code, read::OVER_SIZE_CAP);
            }
            (Err(BatchError::Parse(_)), Err(e)) => {
                prop_assert_eq!(e.code, read::EMPTY_CAMPAIGN);
            }
            (spec, shape) => prop_assert!(false, "{spec:?} vs {shape:?}"),
        }
    }
}
