//! # oa-bench — experiment harness
//!
//! Shared plumbing for the figure-regeneration binaries (one per paper
//! figure/table, see `src/bin/`) and the Criterion micro-benchmarks
//! (`benches/`): summary statistics, tabular output, JSON result dumps,
//! the `--jobs` worker-count grammar shared by every binary, and a
//! wall-clock sweep recorder feeding `results/BENCH_sweeps.json`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};

/// Gates a benchmark on static analysis: every figure binary verifies
/// its groupings/schedules through `oa-analyze` before reporting
/// numbers, so a regression in the scheduler surfaces as a loud failure
/// here rather than as a silently wrong plot. Warnings are printed
/// (they land in the bench log); error diagnostics abort the run.
pub fn gate_on_analysis(context: &str, report: &oa_analyze::Report) {
    for d in report.of_severity(oa_analyze::Severity::Warn) {
        println!("   [{context}] {}", d.render());
    }
    assert!(
        !report.has_errors(),
        "{context}: static analysis rejected the result\n{}",
        report.render_text()
    );
}

/// Mean and population standard deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Computes [`Stats`]; panics on an empty sample.
pub fn stats(samples: &[f64]) -> Stats {
    assert!(!samples.is_empty(), "stats of an empty sample");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Stats {
        mean,
        stddev: var.sqrt(),
        min,
        max,
    }
}

/// Runs `f` over every item of `inputs` on `workers` deterministic
/// pool workers ([`oa_par::Pool`]), preserving input order in the
/// output. The figure sweeps are embarrassingly parallel over
/// resource counts; a sweep run on any worker count produces the
/// exact bytes of the serial run.
pub fn par_sweep<I, O, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(workers > 0, "need at least one worker");
    oa_par::Pool::new(workers).par_map(&inputs, f)
}

/// Number of sweep workers: the `--jobs N` flag when present, the
/// `OA_JOBS` environment variable otherwise, and the machine's
/// available parallelism as the default. Every figure binary sizes
/// its sweeps with this.
pub fn jobs() -> usize {
    oa_par::resolve_jobs(jobs_flag())
}

/// The worker pool every figure binary fans its sweep out on, sized
/// by [`jobs`].
pub fn pool() -> oa_par::Pool {
    oa_par::Pool::new(jobs())
}

/// Parses an explicit `--jobs N` from the binary's argv, if any.
fn jobs_flag() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--jobs" {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().ok();
        }
    }
    None
}

/// The scenario-selection policy under test: `--policy NAME`
/// (`least-advanced`, `round-robin`, `most-advanced`) from the
/// binary's argv, defaulting to the paper's least-advanced-first so
/// unflagged runs reproduce the tracked figures byte-for-byte. An
/// unknown name aborts loudly rather than silently benchmarking the
/// wrong policy.
pub fn policy_flag() -> oa_sched::policy::ScenarioPolicy {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        let value = if a == "--policy" {
            args.next()
        } else {
            a.strip_prefix("--policy=").map(str::to_string)
        };
        if let Some(v) = value {
            return oa_sched::policy::ScenarioPolicy::parse(&v)
                .unwrap_or_else(|| panic!("unknown --policy {v:?}; see `oa help`"));
        }
    }
    oa_sched::policy::ScenarioPolicy::LeastAdvanced
}

/// Number of sweep workers, honouring `--jobs` / `OA_JOBS`. Alias of
/// [`jobs`] kept for the original figure-binary spelling.
pub fn default_workers() -> usize {
    jobs()
}

/// Wall-clock recorder behind `results/BENCH_sweeps.json`: each figure
/// binary wraps its sweep phases in [`SweepRecorder::phase`] and calls
/// [`SweepRecorder::finish`], which merges one `{jobs, nproc, commit,
/// phases, total_secs}` entry into the per-binary history, replacing
/// any prior entry recorded at the same worker count on the same
/// commit. A `--jobs 1` and a `--jobs N` run coexist, and so do a
/// commit's run and its parent's, for before/after comparison. `nproc`
/// is the recording host's available parallelism and `commit` comes
/// from [`commit`].
pub struct SweepRecorder {
    binary: &'static str,
    jobs: usize,
    phases: Vec<(String, usize, f64)>,
    started: Instant,
}

impl SweepRecorder {
    /// Starts recording for the named binary at the current [`jobs`]
    /// count.
    #[must_use]
    pub fn start(binary: &'static str) -> Self {
        Self {
            binary,
            jobs: jobs(),
            phases: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Times `f` as one named sweep phase covering `points` points.
    pub fn phase<O>(&mut self, name: &str, points: usize, f: impl FnOnce() -> O) -> O {
        let t = Instant::now();
        let out = f();
        self.phases
            .push((name.to_string(), points, t.elapsed().as_secs_f64()));
        out
    }

    /// Writes the recorded entry into `results/BENCH_sweeps.json`.
    pub fn finish(self) {
        let commit = commit();
        let entry = Value::Object(vec![
            ("jobs".into(), Value::U64(self.jobs as u64)),
            ("nproc".into(), Value::U64(oa_par::available_jobs() as u64)),
            ("commit".into(), Value::Str(commit.clone())),
            (
                "phases".into(),
                Value::Array(
                    self.phases
                        .iter()
                        .map(|(name, points, secs)| {
                            Value::Object(vec![
                                ("name".into(), Value::Str(name.clone())),
                                ("points".into(), Value::U64(*points as u64)),
                                ("secs".into(), Value::F64(*secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "total_secs".into(),
                Value::F64(self.started.elapsed().as_secs_f64()),
            ),
        ]);

        let path = Path::new("results").join("BENCH_sweeps.json");
        let mut root = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| serde_json::from_str::<Value>(&s).ok())
            .filter(|v| matches!(v, Value::Object(_)))
            .unwrap_or(Value::Object(Vec::new()));
        merge_sweep_entry(&mut root, self.binary, self.jobs, &commit, entry);

        if let Err(e) = std::fs::create_dir_all("results") {
            eprintln!("warning: cannot create results/: {e}");
            return;
        }
        let json = serde_json::to_string_pretty(&root).expect("sweep records are serializable");
        match std::fs::write(&path, json) {
            Ok(()) => println!(
                "# recorded {} sweep ({} jobs) in {}",
                self.binary,
                self.jobs,
                path.display()
            ),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// Inserts one recorded run into the `BENCH_sweeps.json` tree,
/// replacing any prior entry for the same binary at the same worker
/// count on the same commit, so repeated runs stay one entry per
/// (jobs, commit).
fn merge_sweep_entry(root: &mut Value, binary: &str, jobs: usize, commit: &str, entry: Value) {
    let Value::Object(binaries) = root else {
        unreachable!("sweep root is always an object");
    };
    let runs = match binaries.iter_mut().find(|(k, _)| k == binary) {
        Some((_, v)) => v,
        None => {
            binaries.push((binary.to_string(), Value::Array(Vec::new())));
            &mut binaries.last_mut().expect("just pushed").1
        }
    };
    if !matches!(runs, Value::Array(_)) {
        *runs = Value::Array(Vec::new());
    }
    if let Value::Array(entries) = runs {
        let same = (Value::U64(jobs as u64), Value::Str(commit.to_string()));
        entries.retain(|e| (e.get("jobs"), e.get("commit")) != (Some(&same.0), Some(&same.1)));
        entries.push(entry);
    }
}

/// Writes `value` as pretty JSON under `results/<name>.json` (creating
/// the directory) and reports the path on stdout.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let json = serde_json::to_string_pretty(value).expect("results are serializable");
            if f.write_all(json.as_bytes()).is_ok() {
                println!("# wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (a loose ref or `packed-refs`), with `-dirty` appended when `git
/// status` lists a tracked file outside `results/` that differs from
/// it (the `git describe --dirty` convention); `"unknown"` outside a
/// git checkout. BENCH files record it next to `nproc`.
pub fn commit() -> String {
    let head = checked_out();
    if head != "unknown" && worktree_dirty() {
        format!("{head}-dirty")
    } else {
        head
    }
}

/// Whether the measured code differs from the checked-out commit;
/// `false` when git cannot run. Bench binaries rewrite `results/`, so
/// that directory does not count.
fn worktree_dirty() -> bool {
    std::process::Command::new("git")
        .args([
            "status",
            "--porcelain",
            "--untracked-files=no",
            "--",
            ".",
            ":!results",
        ])
        .output()
        .is_ok_and(|out| out.status.success() && !out.stdout.is_empty())
}

/// The commit `.git/HEAD` names, or `"unknown"`.
fn checked_out() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference)?.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// True when the binary got the `--fast` flag: shrink sweeps for smoke
/// runs (CI, `cargo run` without release).
pub fn fast_mode() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// Destination for a JSONL event-trace dump: the `--trace PATH`
/// argument, or the `OA_TRACE` environment variable when the flag is
/// absent. `None` (the default) keeps the figure binaries untraced.
pub fn trace_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next();
        }
    }
    std::env::var("OA_TRACE").ok().filter(|p| !p.is_empty())
}

/// Writes a recorded event stream as JSON Lines (the `oa trace`
/// interchange format) to `path` and reports the destination. Used by
/// the figure binaries when [`trace_path`] asks for a dump; the file
/// replays with `oa trace export --file PATH` / `oa trace summarize`.
pub fn write_trace(path: &str, events: &[oa_trace::TraceEvent]) {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("events are serializable"));
        out.push('\n');
    }
    match std::fs::write(path, out) {
        Ok(()) => println!("# wrote {} trace event(s) to {path}", events.len()),
        Err(e) => eprintln!("warning: cannot write trace {path}: {e}"),
    }
}

/// Formats a row of columns padded to `widths`.
pub fn row(cols: &[String], widths: &[usize]) -> String {
    let mut s = String::new();
    for (i, c) in cols.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        s.push_str(&format!("{c:>w$} "));
    }
    s.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = stats(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 2.0);
        assert_eq!((s.min, s.max), (2.0, 9.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn stats_empty_panics() {
        stats(&[]);
    }

    #[test]
    fn par_sweep_preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = par_sweep(inputs.clone(), 4, |&x| x * x);
        let expect: Vec<u64> = inputs.iter().map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_sweep_single_worker() {
        let out = par_sweep(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn par_sweep_empty() {
        let out: Vec<i32> = par_sweep(Vec::<i32>::new(), 3, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn row_formatting() {
        assert_eq!(row(&["a".into(), "bb".into()], &[3, 4]), "  a   bb");
    }

    fn entry(jobs: u64, commit: &str, secs: f64) -> Value {
        Value::Object(vec![
            ("jobs".into(), Value::U64(jobs)),
            ("commit".into(), Value::Str(commit.into())),
            ("total_secs".into(), Value::F64(secs)),
        ])
    }

    #[test]
    fn merge_replaces_same_jobs_and_commit_entry() {
        let mut root = Value::Object(Vec::new());
        let mut merge = |binary, jobs, commit, secs| {
            merge_sweep_entry(
                &mut root,
                binary,
                jobs,
                commit,
                entry(jobs as u64, commit, secs),
            );
        };
        merge("fig8_gains", 1, "a", 10.0);
        merge("fig8_gains", 4, "a", 3.0);
        merge("fig8_gains", 4, "a", 2.5);
        merge("fig8_gains", 4, "b", 2.0);
        merge("sensitivity", 4, "a", 7.0);

        let runs = root.get("fig8_gains").expect("binary recorded");
        let Value::Array(entries) = runs else {
            panic!("runs must be an array");
        };
        assert_eq!(
            entries,
            &[entry(1, "a", 10.0), entry(4, "a", 2.5), entry(4, "b", 2.0)],
            "a rerun at the same jobs and commit replaces, another commit appends"
        );
        assert!(root.get("sensitivity").is_some());
    }
}
