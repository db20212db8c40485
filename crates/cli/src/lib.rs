//! # oa-cli — shell front end for the Ocean-Atmosphere reproduction
//!
//! Exposes the library as a small command-line tool:
//!
//! ```text
//! oa plan --r 53 --all            # the paper's §4.2 example
//! oa gantt --ns 4 --nm 12 --r 26  # ASCII schedule
//! oa grid --clusters 5 --resources 30
//! oa campaign --nm 120            # the six-step grid protocol, as a daemon session
//! ```
//!
//! The command layer returns strings (tested without process spawns);
//! `main` only prints.

#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
pub use commands::{run, CliError};
