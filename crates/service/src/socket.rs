//! Unix-socket transport for the daemon.
//!
//! `oa serve --socket PATH` binds a Unix domain socket and serves
//! clients one at a time: the accept loop is sequential — no threads,
//! no wall clock — so the daemon stays deterministic and the single
//! virtual clock stays coherent across connections. A client connects,
//! plays any number of request lines, and disconnects; the next client
//! sees the state the previous one left. `Shutdown` ends the loop.
//!
//! Pipe mode ([`crate::daemon::run_pipe`]) is the mode every test and
//! CI job uses; each connection runs that same loop over its stream,
//! line cap included.

#![cfg(unix)]

use std::io::BufReader;
use std::os::unix::net::UnixListener;
use std::path::Path;

use crate::daemon::{run_pipe, Service};

/// Binds `path` and serves connections sequentially until a client
/// sends `Shutdown`. The socket file is removed on exit.
pub fn run_socket(service: &mut Service, path: &Path) -> std::io::Result<()> {
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    while !service.is_shut_down() {
        let (stream, _) = listener.accept()?;
        let mut writer = stream.try_clone()?;
        run_pipe(service, BufReader::new(stream), &mut writer)?;
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}
