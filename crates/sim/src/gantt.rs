//! ASCII Gantt rendering of schedules — the textual equivalent of the
//! paper's Figures 3–6 (hatched main-task rectangles, post-processing
//! fills, overpassing tails).
//!
//! Since the observability layer landed this is a thin adapter: the
//! schedule is converted to its trace-event stream and drawn by
//! [`oa_trace::gantt::render_events`], the same renderer that draws
//! charts from live or replayed traces.

pub use oa_trace::gantt::GanttOptions;

use crate::schedule::Schedule;
use crate::tracing::events_of;

/// Renders the schedule as an ASCII Gantt chart.
///
/// Main tasks are drawn as `#` (hatched, as in the paper's figures),
/// post tasks as `.`, idle time as spaces. One row per group plus one
/// row per pool processor that ever ran a post.
pub fn render(schedule: &Schedule, opts: GanttOptions) -> String {
    oa_trace::gantt::render_events(&events_of(schedule), opts)
}

/// Renders with default options.
pub fn render_default(schedule: &Schedule) -> String {
    render(schedule, GanttOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_default;
    use oa_platform::timing::TimingTable;
    use oa_sched::grouping::Grouping;
    use oa_sched::params::Instance;

    fn small_schedule() -> Schedule {
        let inst = Instance::new(2, 3, 9);
        let t = TimingTable::new([100.0; 8], 30.0).unwrap();
        execute_default(inst, &t, &Grouping::uniform(4, 2, 1)).unwrap()
    }

    #[test]
    fn renders_all_groups_and_post_procs() {
        let s = small_schedule();
        let g = render_default(&s);
        assert!(g.contains("grp0"));
        assert!(g.contains("grp1"));
        assert!(g.contains("cpu8")); // dedicated post proc
        assert!(g.contains('#'));
        assert!(g.contains('.'));
    }

    #[test]
    fn group_rows_are_mostly_full() {
        // Both groups run 3 mains back to back: rows nearly solid '#'.
        let s = small_schedule();
        let g = render(
            &s,
            GanttOptions {
                width: 60,
                by_group: true,
            },
        );
        let grp0 = g.lines().find(|l| l.starts_with("grp0")).unwrap();
        let hashes = grp0.chars().filter(|&c| c == '#').count();
        assert!(hashes > 40, "group row too sparse: {hashes}");
    }

    #[test]
    fn per_proc_mode_expands_groups() {
        let s = small_schedule();
        let g = render(
            &s,
            GanttOptions {
                width: 40,
                by_group: false,
            },
        );
        // 9 processors → at least 8 busy rows (the idle one may be absent).
        let rows = g.lines().filter(|l| l.starts_with("cpu")).count();
        assert!(rows >= 8, "{rows} rows");
        assert!(!g.contains("grp"));
    }

    #[test]
    fn empty_schedule_renders_placeholder() {
        let s = Schedule {
            instance: Instance::new(1, 1, 4),
            records: vec![],
            makespan: 0.0,
        };
        assert_eq!(render_default(&s), "(empty schedule)\n");
    }

    #[test]
    fn header_reports_makespan() {
        let s = small_schedule();
        let g = render_default(&s);
        let first = g.lines().next().unwrap();
        assert!(first.contains("makespan"));
        assert!(first.contains(&format!("{:.0} s", s.makespan)));
    }
}
