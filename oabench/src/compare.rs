//! `oabench compare --base RUN... --new RUN...`: judges a change against
//! its parent from saved stdout of benchmark runs.
//!
//! Runs pair up in the order given, per workload (run them alternately,
//! parent and change, with the same seeds). For every end-to-end metric
//! in `BENCHMARK.json`:
//!
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **improved** — at least ten pairs, the change wins at least nine
//!   tenths of them (ties count for neither), and the medians differ by
//!   more than the parent's inter-quartile range;
//! * **unresolved** — the parent's own spread is wider than the bound and
//!   not every change run beats every parent run;
//! * **unchanged** — otherwise.
//!
//! A workload's row takes its worst metric verdict (worse, then
//! unresolved, then improved).

use std::collections::BTreeMap;

use serde::Value;

use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Unchanged,
    Improved,
    Unresolved,
    Worse,
}

/// The end-to-end bounds of a `BENCHMARK.json` document.
pub fn bounds(doc: &Value) -> Result<Vec<Bound>, String> {
    let Some(Value::Array(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("end_to_end entry without a name".to_string()),
            };
            let higher_is_better = match m.get("better") {
                Some(Value::Str(s)) if s == "higher" => true,
                Some(Value::Str(s)) if s == "lower" => false,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = match m.get("bound") {
                Some(Value::F64(b)) if (0.0..=0.25).contains(b) => *b,
                _ => return Err(format!("{name}: bound must be a share in [0, 0.25]")),
            };
            Ok(Bound {
                name,
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// Judges one metric from paired runs (`base[i]` pairs with `new[i]`).
pub fn judge(b: &Bound, base: &[f64], new: &[f64]) -> Verdict {
    let (Some(mb), Some(mn)) = (stats::median(base), stats::median(new)) else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| if b.higher_is_better { x > y } else { x < y };
    let worsening = if b.higher_is_better { mb - mn } else { mn - mb };
    if worsening > b.bound * mb.abs() {
        return Verdict::Worse;
    }
    let pairs = base.len().min(new.len());
    let wins = (0..pairs).filter(|&i| better(new[i], base[i])).count();
    let iqr = stats::quartiles(base).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(mn, mb) && (mn - mb).abs() > iqr {
        return Verdict::Improved;
    }
    let spread = stats::iqr_share(base).unwrap_or(f64::INFINITY);
    let dominates = new.iter().all(|&n| base.iter().all(|&p| better(n, p)));
    if spread > b.bound && !dominates {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// A saved run: the workload from its `# oabench` header line and the
/// metrics from its final JSON line.
pub fn parse_run(text: &str) -> Result<(String, BTreeMap<String, f64>), String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("# oabench "))
        .and_then(|h| {
            h.split_whitespace()
                .find_map(|kv| kv.strip_prefix("workload="))
        })
        .ok_or("no `# oabench workload=` header")?
        .to_string();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty run")?;
    let doc: Value = serde_json::from_str(last).map_err(|e| format!("last line: {e}"))?;
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("last line has no metrics object".into());
    };
    let mut out = BTreeMap::new();
    for (name, m) in metrics {
        let v = match m.get("value") {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(n)) => *n as f64,
            Some(Value::I64(n)) => *n as f64,
            _ => return Err(format!("{name}: no numeric value")),
        };
        out.insert(name.clone(), v);
    }
    Ok((workload, out))
}

type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

fn load_runs(paths: &[String]) -> Result<Runs, String> {
    let mut runs: Runs = BTreeMap::new();
    for p in paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let (workload, metrics) = parse_run(&text).map_err(|e| format!("{p}: {e}"))?;
        runs.entry(workload).or_default().push(metrics);
    }
    Ok(runs)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut bench = "BENCHMARK.json".to_string();
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut side = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench.clone_from(it.next().ok_or("--bench needs a path")?),
            "--base" => side = Some(&mut base),
            "--new" => side = Some(&mut new),
            path => side
                .as_mut()
                .ok_or("list runs after --base or --new")?
                .push(path.to_string()),
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err("usage: oabench compare [--bench FILE] --base RUN... --new RUN...".into());
    }
    let doc: Value = serde_json::from_str(
        &std::fs::read_to_string(&bench).map_err(|e| format!("{bench}: {e}"))?,
    )
    .map_err(|e| format!("{bench}: {e}"))?;
    let bounds = bounds(&doc)?;
    let (base, new) = (load_runs(&base)?, load_runs(&new)?);

    let mut all_ok = true;
    for (workload, base_runs) in &base {
        let Some(new_runs) = new.get(workload) else {
            println!("{workload:<12} unresolved  (no runs of the change)");
            all_ok = false;
            continue;
        };
        let mut row = Verdict::Unchanged;
        let mut details = Vec::new();
        for b in &bounds {
            let series = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&b.name).copied())
                    .collect()
            };
            let (sb, sn) = (series(base_runs), series(new_runs));
            let v = judge(b, &sb, &sn);
            row = row.max(v);
            details.push(format!(
                "{}={:?} ({:.4} -> {:.4})",
                b.name,
                v,
                stats::median(&sb).unwrap_or(f64::NAN),
                stats::median(&sn).unwrap_or(f64::NAN)
            ));
        }
        all_ok &= row != Verdict::Worse;
        println!(
            "{workload:<12} {:<10}  pairs={} {}",
            format!("{row:?}").to_lowercase(),
            base_runs.len().min(new_runs.len()),
            details.join(" ")
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn worse_beyond_the_bound_only() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0];
        assert_eq!(judge(&lower(0.10), &base, &[11.5; 5]), Verdict::Worse);
        assert_eq!(judge(&lower(0.10), &base, &[10.5; 5]), Verdict::Unchanged);
        let higher = Bound {
            higher_is_better: true,
            ..lower(0.10)
        };
        assert_eq!(judge(&higher, &base, &[8.0; 5]), Verdict::Worse);
        assert_eq!(
            judge(&higher, &base, &[11.5; 5]),
            Verdict::Unchanged,
            "fewer than ten pairs"
        );
    }

    #[test]
    fn improvement_needs_ten_pairs_nine_wins_and_a_gap_past_the_iqr() {
        let base: Vec<f64> = (0..10).map(|i| 10.0 + 0.1 * f64::from(i % 3)).collect();
        let clear: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        assert_eq!(judge(&lower(0.10), &base, &clear), Verdict::Improved);
        // Two lost pairs out of ten: not nine tenths.
        let mut mixed = clear.clone();
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert_eq!(judge(&lower(0.10), &base, &mixed), Verdict::Unchanged);
        // Wins every pair, but by less than the parent's own spread.
        let tiny: Vec<f64> = base.iter().map(|b| b - 0.01).collect();
        assert_eq!(judge(&lower(0.10), &base, &tiny), Verdict::Unchanged);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_dominated() {
        let base = [5.0, 10.0, 15.0, 8.0, 12.0];
        assert_eq!(
            judge(&lower(0.10), &base, &[9.0, 11.0, 10.0, 10.5, 9.5]),
            Verdict::Unresolved
        );
        assert_eq!(judge(&lower(0.10), &base, &[1.0; 5]), Verdict::Unchanged);
    }

    #[test]
    fn runs_parse_and_bounds_stay_in_range() {
        let text = "# oabench workload=serve seed=3\nsetup_s 1 s\n\
            {\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
            {\"setup_s\": {\"value\": 3.25, \"unit\": \"s\"}, \"n\": {\"value\": 4, \"unit\": \"count\"}}}\n";
        let (w, m) = parse_run(text).unwrap();
        assert_eq!(w, "serve");
        assert_eq!(m["setup_s"], 3.25);
        assert_eq!(m["n"], 4.0);

        let bad: Value = serde_json::from_str(
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "lower", "bound": 0.5}]}"#,
        )
        .unwrap();
        assert!(bounds(&bad).is_err(), "bounds above 0.25 are refused");
    }

    /// `BENCHMARK.json` declares exactly the metrics the program prints,
    /// with the same units, and every bound is within the allowed range.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e = bounds(&doc).unwrap();
        let names: Vec<&str> = e2e.iter().map(|b| b.name.as_str()).collect();
        let want: Vec<&str> = crate::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        assert!(e2e
            .iter()
            .any(|b| b.name == "setup_s" && !b.higher_is_better));

        let entries = |key: &str| -> Vec<(String, String, String)> {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            let s = |m: &Value, k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                _ => panic!("{key} entry without {k}"),
            };
            items
                .iter()
                .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
                .collect()
        };
        let units: Vec<(String, String)> = entries("end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let want: Vec<(String, String)> = crate::END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(units, want);
        let layers = entries("per_layer");
        let want: Vec<(String, String, String)> = crate::PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(layers, want);

        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| match w.get("name") {
                Some(Value::Str(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
