//! # oa-service — campaign-as-a-service
//!
//! The paper's client submits one campaign, waits, and reads one
//! report. This crate turns that batch story into a *service*: a
//! long-running daemon that accepts campaign submissions over
//! line-delimited JSON, admits them through the `oa-analyze` rules,
//! simulates each admitted session on a shared virtual clock, and
//! re-runs the paper's Algorithm 1 *incrementally* as sessions arrive
//! and complete and clusters join, leave and fail.
//!
//! * [`wire`] — the request/response enums, the stable error codes,
//!   and the line parser (`docs/PROTOCOL.md` is the reference);
//! * [`admission`] — the static pipeline every submission must pass
//!   (shape, placement, grouping, campaign checks, certification);
//! * [`daemon`] — the [`daemon::Service`] state machine and the pipe
//!   runners;
//! * [`protocol`] — the paper's six-step grid submission protocol
//!   (Figure 9) as one daemon session, and its report types;
//! * [`socket`] — the Unix-socket transport (Unix only; pipe mode is
//!   the portable, test-facing transport).
//!
//! The daemon is deterministic by construction: it never reads a wall
//! clock, never spawns a thread, and never iterates an unordered map,
//! so replaying a scripted transcript yields a byte-identical session
//! log on every run and at every `--jobs` setting.
//!
//! # Examples
//!
//! A complete session over the scripted pipe (one request per line —
//! the protocol is strictly line-delimited):
//!
//! ```
//! use oa_service::prelude::*;
//!
//! let cfg = ServiceConfig { capacity: 32, ..Default::default() };
//! let mut service = Service::new(cfg, 1);
//! let log = run_script(
//!     &mut service,
//!     r#"
//! {"Hello": {"version": 1}}
//! {"ClusterJoin": {"name": "ref", "preset": "reference", "resources": 53}}
//! {"Submit": {"session": "s1", "ns": 5, "nm": 12, "heuristic": "knapsack", "policy": "least-advanced", "granularity": "fused", "recovery": "checkpoint", "kills": "", "deadline": 0.0}}
//! {"Drain": {}}
//! {"Shutdown": {}}
//! "#,
//! );
//! assert!(log.contains("\"Welcome\""));
//! assert!(log.contains("\"Admitted\""));
//! assert!(log.contains("\"Completed\""));
//! assert!(log.contains("\"Bye\""));
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod daemon;
pub mod protocol;
pub mod socket;
pub mod wire;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::admission::{parse_submission, Refusal, Submission};
    pub use crate::daemon::{run_pipe, run_script, Service, ServiceConfig};
    pub use crate::wire::{
        codes, parse_request, render_response, ClusterLoad, PortionInfo, Request, Response,
    };
}
