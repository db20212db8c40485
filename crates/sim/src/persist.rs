//! Schedule persistence and comparison.
//!
//! Campaign schedules are hours-long objects worth keeping: saved
//! traces feed post-mortem analysis, regression comparisons between
//! heuristic versions, and external plotting. Schedules serialize to
//! JSON (every type in [`crate::schedule`] derives serde) and
//! [`compare`] quantifies how two schedules of the *same instance*
//! differ.

use std::path::Path;

use serde::{Deserialize, Serialize};

use oa_workflow::task::TaskKind;

use crate::schedule::Schedule;

/// I/O + format errors for schedule persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(std::io::Error),
    /// JSON (de)serialization error.
    Json(serde_json::Error),
    /// The loaded schedule fails structural validation.
    Invalid(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io: {e}"),
            PersistError::Json(e) => write!(f, "json: {e}"),
            PersistError::Invalid(m) => write!(f, "invalid schedule: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

/// Saves a schedule as pretty JSON.
pub fn save(schedule: &Schedule, path: &Path) -> Result<(), PersistError> {
    let json = serde_json::to_string_pretty(schedule)?;
    std::fs::write(path, json)?;
    Ok(())
}

/// Loads and re-validates a schedule. Tampered or truncated files are
/// rejected rather than silently analyzed.
pub fn load(path: &Path) -> Result<Schedule, PersistError> {
    let text = std::fs::read_to_string(path)?;
    let schedule: Schedule = serde_json::from_str(&text)?;
    schedule
        .validate()
        .map_err(|e| PersistError::Invalid(e.to_string()))?;
    Ok(schedule)
}

/// Differences between two schedules of the same instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleDiff {
    /// `b.makespan − a.makespan`, seconds (negative = `b` faster).
    pub makespan_delta: f64,
    /// Relative gain of `b` over `a`, percent.
    pub gain_pct: f64,
    /// Per-scenario finish-time deltas (`b − a`), seconds.
    pub scenario_finish_delta: Vec<f64>,
    /// Tasks placed on a different processor set.
    pub moved_tasks: u64,
    /// Tasks with a different start time (beyond tolerance).
    pub retimed_tasks: u64,
}

/// Compares two schedules of the same instance. Panics if the
/// instances differ — diffing campaigns of different shapes is
/// meaningless.
pub fn compare(a: &Schedule, b: &Schedule) -> ScheduleDiff {
    assert_eq!(
        a.instance, b.instance,
        "schedules describe different instances"
    );
    let inst = a.instance;
    let mut finish_a = vec![0.0f64; inst.ns as usize];
    let mut finish_b = vec![0.0f64; inst.ns as usize];
    // Index records by task identity for movement detection.
    let key = |r: &crate::schedule::TaskRecord| {
        (
            r.task.scenario,
            r.task.month,
            r.task.kind == TaskKind::FusedPost,
        )
    };
    // BTreeMap, not HashMap: the key is an Ord tuple and an ordered map
    // keeps this path inside the workspace's determinism audit (ND001)
    // — lookups only today, but map iteration must never be one
    // refactor away from seed-dependent output.
    let mut map_a = std::collections::BTreeMap::new();
    for r in &a.records {
        map_a.insert(key(r), *r);
        let f = &mut finish_a[r.task.scenario as usize];
        *f = f.max(r.end);
    }
    let mut moved = 0u64;
    let mut retimed = 0u64;
    const TOL: f64 = 1e-6;
    for r in &b.records {
        let f = &mut finish_b[r.task.scenario as usize];
        *f = f.max(r.end);
        if let Some(old) = map_a.get(&key(r)) {
            if old.procs != r.procs {
                moved += 1;
            }
            if (old.start - r.start).abs() > TOL {
                retimed += 1;
            }
        }
    }
    let makespan_delta = b.makespan - a.makespan;
    ScheduleDiff {
        makespan_delta,
        gain_pct: if a.makespan > 0.0 {
            -makespan_delta / a.makespan * 100.0
        } else {
            0.0
        },
        scenario_finish_delta: finish_a.iter().zip(&finish_b).map(|(x, y)| y - x).collect(),
        moved_tasks: moved,
        retimed_tasks: retimed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_default;
    use oa_platform::presets::reference_cluster;
    use oa_sched::heuristics::Heuristic;
    use oa_sched::params::Instance;

    fn schedule(h: Heuristic, r: u32) -> Schedule {
        let inst = Instance::new(4, 6, r);
        let t = reference_cluster(r).timing;
        let g = h.grouping(inst, &t).unwrap();
        execute_default(inst, &t, &g).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("oa-sim-persist-{name}-{}.json", std::process::id()))
    }

    #[test]
    fn save_load_round_trip() {
        let s = schedule(Heuristic::Knapsack, 30);
        let path = tmp("roundtrip");
        save(&s, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_tampered_schedules() {
        let mut s = schedule(Heuristic::Basic, 30);
        // Corrupt a dependence: month 1 starts before month 0 ends.
        let idx = s
            .records
            .iter()
            .position(|r| {
                r.task.month == 1 && r.task.kind == oa_workflow::task::TaskKind::FusedMain
            })
            .unwrap();
        s.records[idx].start = 0.0;
        let path = tmp("tampered");
        std::fs::write(&path, serde_json::to_string(&s).unwrap()).unwrap();
        assert!(matches!(load(&path), Err(PersistError::Invalid(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(load(&path), Err(PersistError::Json(_))));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load(Path::new("/nonexistent/x.json")),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn identical_schedules_diff_to_zero() {
        let s = schedule(Heuristic::Knapsack, 30);
        let d = compare(&s, &s);
        assert_eq!(d.makespan_delta, 0.0);
        assert_eq!(d.moved_tasks, 0);
        assert_eq!(d.retimed_tasks, 0);
        assert!(d.scenario_finish_delta.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn diff_detects_the_improvement() {
        let basic = schedule(Heuristic::Basic, 30);
        let knap = schedule(Heuristic::Knapsack, 30);
        let d = compare(&basic, &knap);
        assert!(d.gain_pct >= 0.0, "knapsack should not lose here: {d:?}");
        if d.makespan_delta != 0.0 {
            assert!(d.retimed_tasks > 0);
        }
    }

    #[test]
    #[should_panic(expected = "different instances")]
    fn diff_refuses_mismatched_instances() {
        let a = schedule(Heuristic::Basic, 30);
        let b = schedule(Heuristic::Basic, 40);
        compare(&a, &b);
    }
}
