//! Campaign observability: structured event tracing, a metrics
//! registry, and exporters (Chrome `trace_event`, ASCII Gantt).
//!
//! The simulator in `oa-sim` answers *how long does the campaign
//! take*; this crate answers *what happened along the way*. Executors
//! emit [`TraceEvent`]s — task dispatches, starts and finishes,
//! wide-area transfers, failure injections and recoveries, heuristic
//! decision points — with deterministic simulation timestamps, into
//! any [`Tracer`] sink:
//!
//! * [`NullTracer`] — drops everything; the zero-cost default.
//! * [`VecTracer`] — buffers in memory, optionally as a bounded ring.
//! * [`JsonlTracer`] — streams JSON Lines to a writer.
//! * [`Metered`] — wraps any sink and grows a live
//!   [`MetricsRegistry`] (counters, gauges, histograms) alongside,
//!   snapshotable mid-run.
//!
//! Exporters consume the recorded stream: [`chrome::chrome_trace`]
//! writes Chrome/Perfetto timelines with one track per processor
//! group, and [`gantt::render_events`] draws the paper-style ASCII
//! Gantt chart.
//!
//! # Examples
//!
//! Record a hand-made stream, meter it, and export it:
//!
//! ```
//! use oa_trace::prelude::*;
//! use oa_workflow::fusion::FusedTask;
//!
//! let mut sink = Metered::new(VecTracer::new());
//! sink.record(TraceEvent::at(
//!     100.0,
//!     EventKind::TaskFinish {
//!         task: FusedTask::main(0, 0),
//!         first_proc: 0,
//!         procs: 7,
//!         group: Some(0),
//!         secs: 100.0,
//!     },
//! ));
//! sink.record(TraceEvent::at(130.0, EventKind::CampaignEnd { makespan: 130.0 }));
//!
//! // Metrics accumulated live, while recording:
//! let snap = sink.registry.snapshot();
//! assert_eq!(snap.counter(oa_trace::metrics::keys::TASKS_MAIN), Some(1));
//! assert_eq!(snap.gauge(oa_trace::metrics::keys::PROC_SECS_MAIN), Some(700.0));
//!
//! // The buffered events feed the exporters:
//! let events = sink.inner.into_events();
//! let chart = oa_trace::gantt::render_events_default(&events);
//! assert!(chart.starts_with("makespan: 130 s"));
//! let chrome = oa_trace::chrome::chrome_trace_string(&events);
//! assert!(chrome.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod event;
pub mod gantt;
pub mod metrics;
pub mod tracer;

pub use event::{EventKind, TraceEvent, TransferKind};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use tracer::{JsonlTracer, Metered, NullTracer, Tracer, VecTracer};

/// Everything a tracing call site needs.
pub mod prelude {
    pub use crate::chrome::{chrome_trace, chrome_trace_string};
    pub use crate::event::{EventKind, TraceEvent, TransferKind};
    pub use crate::gantt::{render_events, render_events_default, GanttOptions};
    pub use crate::metrics::{phase_totals, MetricsRegistry, MetricsSnapshot, PhaseTotals};
    pub use crate::tracer::{JsonlTracer, Metered, NullTracer, Tracer, VecTracer};
}
