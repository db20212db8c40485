//! Figure 1 + Section 6 headline numbers: the monthly task chain with
//! its benchmarked durations, the fused model, and the timing tables of
//! the five benchmark clusters (fastest `pcr` on 11 processors: 1177 s;
//! slowest: 1622 s).
//!
//! Run: `cargo run --release -p oa-bench --bin fig1_tasks [--jobs N]`

use oa_bench::{row, write_json, SweepRecorder};
use oa_platform::prelude::*;
use oa_workflow::prelude::*;
use oa_workflow::task::month_reference_work;

fn main() {
    let mut rec = SweepRecorder::start("fig1_tasks");
    println!("== Figure 1: monthly simulation tasks (reference cluster) ==");
    let widths = [6usize, 10, 8, 12];
    println!(
        "{}",
        row(
            &[
                "task".into(),
                "phase".into(),
                "procs".into(),
                "duration(s)".into()
            ],
            &widths
        )
    );
    // One month of the unfused preset lowering: Figure 1's task chain.
    let month = lower_experiment(ExperimentShape::new(1, 1));
    for (_, task) in month.dag.iter() {
        let kind = task.origin.expect("preset tasks carry their origin").kind;
        let (lo, hi) = (task.kind.min_procs(), task.kind.max_procs());
        println!(
            "{}",
            row(
                &[
                    kind.mnemonic().into(),
                    format!("{:?}", kind.phase()),
                    if lo == hi {
                        format!("{lo}")
                    } else {
                        format!("{lo}-{hi}")
                    },
                    format!("{:.0}", task.best_secs(&ReferenceDurations)),
                ],
                &widths
            )
        );
    }
    println!(
        "total sequential work per month: {:.0} s",
        month_reference_work()
    );
    println!();

    println!("== Figure 2: fused model ==");
    println!("main = caif + mp + pcr  (moldable, 4..=11 processors)");
    println!(
        "post = cof + emf + cd  = {:.0} s on the reference cluster",
        fused_post_secs()
    );
    println!();

    println!("== Benchmark clusters (Section 6) ==");
    let grid = rec.phase("cluster_tables", 5, || benchmark_grid(DEFAULT_RESOURCES));
    let widths = [12usize, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &[
                "cluster".into(),
                "T[4](s)".into(),
                "T[7](s)".into(),
                "T[11](s)".into(),
                "TP(s)".into()
            ],
            &widths
        )
    );
    #[derive(serde::Serialize)]
    struct ClusterRow {
        name: String,
        main: Vec<f64>,
        post: f64,
    }
    let mut dump = Vec::new();
    for (_, c) in grid.iter() {
        println!(
            "{}",
            row(
                &[
                    c.name.clone(),
                    format!("{:.0}", c.timing.main_secs(4)),
                    format!("{:.0}", c.timing.main_secs(7)),
                    format!("{:.0}", c.timing.main_secs(11)),
                    format!("{:.0}", c.timing.post_secs()),
                ],
                &widths
            )
        );
        dump.push(ClusterRow {
            name: c.name.clone(),
            main: c.timing.main_array().to_vec(),
            post: c.timing.post_secs(),
        });
    }
    let fastest = grid.cluster(grid.fastest().expect("non-empty"));
    let slowest = grid.cluster(grid.slowest().expect("non-empty"));
    println!(
        "paper check: fastest pcr(11) ≈ 1177 s -> {:.0} s; slowest ≈ 1622 s -> {:.0} s",
        fastest.timing.main_secs(11) - 2.0,
        slowest.timing.main_secs(11) - 2.0,
    );
    write_json("fig1_tasks", &dump);
    rec.finish();
}
