//! The pluggable transport boundary between scheduler and workers.
//!
//! A [`Transport`] owns a fleet of worker endpoints and exposes exactly
//! four capabilities: launch them, poll for [`TransportEvent`]s, deliver
//! one [`Assign`](crate::protocol::Message::Assign) message, and shut
//! the fleet down. Everything else — liveness, deadlines, retries,
//! requeue, merge — lives in the [`Cluster`](crate::cluster::Cluster)
//! scheduler and is therefore identical across transports, which is what
//! makes the byte-identical-digests conformance contract provable per
//! transport rather than per scheduler.

use std::io;
use std::path::PathBuf;
use std::time::Duration;

use mns_core::runner::ShardId;

/// Worker identity on the wire (see
/// [`valid_worker_name`](crate::protocol::valid_worker_name)).
pub type WorkerId = String;

/// Environment variable naming the `dist_worker` binary (consulted when
/// [`LaunchOpts::worker_binary`] is `None`, before path discovery).
pub const DIST_WORKER_ENV: &str = "MNS_DIST_WORKER";

/// Environment variable a transport sets on a targeted child to inject
/// a fault (`crash`, `stall` or `corrupt`) for recovery testing.
pub const FAULT_ENV: &str = "MNS_DIST_FAULT";

/// What a transport observed since the last poll.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportEvent {
    /// A worker completed its registration handshake.
    Registered {
        /// The worker that registered.
        worker: WorkerId,
    },
    /// A worker heartbeat arrived.
    Heartbeat {
        /// The worker that beat.
        worker: WorkerId,
    },
    /// A worker reported a shard result (possibly corrupt — the
    /// scheduler validates the payload).
    Result {
        /// Reporting worker.
        worker: WorkerId,
        /// Shard the payload claims to answer.
        shard: ShardId,
        /// Attempt the payload claims to answer.
        attempt: u32,
        /// Outcome-file wire text (unvalidated).
        outcomes: String,
        /// Telemetry wire text, when the worker collected metrics.
        metrics: Option<String>,
    },
    /// A worker is gone for good: connection closed, process exited, or
    /// the transport otherwise lost it.
    Gone {
        /// The worker that disappeared.
        worker: WorkerId,
    },
}

/// A deliberate fault one worker will exhibit (testing only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Die on the first assignment — a mid-shard crash.
    Crash,
    /// Stop heartbeating (and never answer) on the first assignment;
    /// the scheduler's liveness window must catch it.
    StallHeartbeat,
    /// Answer the first assignment with a well-formed envelope whose
    /// outcome payload is garbage, then behave for later assignments.
    CorruptResult,
}

impl FaultMode {
    /// Wire token used in [`FAULT_ENV`].
    pub fn token(self) -> &'static str {
        match self {
            FaultMode::Crash => "crash",
            FaultMode::StallHeartbeat => "stall",
            FaultMode::CorruptResult => "corrupt",
        }
    }

    /// Parses a [`FAULT_ENV`] token.
    pub fn from_token(token: &str) -> Option<FaultMode> {
        match token {
            "crash" => Some(FaultMode::Crash),
            "stall" => Some(FaultMode::StallHeartbeat),
            "corrupt" => Some(FaultMode::CorruptResult),
            _ => None,
        }
    }
}

/// A fault pinned to one worker by launch index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistFault {
    /// Launch index of the faulty worker (0-based).
    pub worker: usize,
    /// What it does wrong.
    pub mode: FaultMode,
}

/// Parameters a transport needs to launch its fleet.
#[derive(Debug, Clone)]
pub struct LaunchOpts {
    /// Engine threads inside each worker (0 = hardware default).
    pub threads_per_worker: usize,
    /// How often workers should heartbeat.
    pub heartbeat_interval: Duration,
    /// Ask workers for per-shard telemetry snapshots.
    pub collect_metrics: bool,
    /// Explicit `dist_worker` binary path for process-backed transports.
    /// When `None`, [`DIST_WORKER_ENV`] then path discovery are tried.
    pub worker_binary: Option<PathBuf>,
    /// Deliberate fault injection for recovery tests.
    pub fault: Option<DistFault>,
}

impl LaunchOpts {
    /// The fault mode for the worker at `index`, if any.
    pub fn fault_for(&self, index: usize) -> Option<FaultMode> {
        self.fault.filter(|f| f.worker == index).map(|f| f.mode)
    }
}

/// Canonical name for the worker at launch `index` (`w0`, `w1`, …).
/// Transports name workers at launch so a dead child maps back to a
/// [`TransportEvent::Gone`] even if it never completed its handshake.
pub fn worker_name(index: usize) -> WorkerId {
    format!("w{index}")
}

/// Searches for a worker binary named `base` next to the current
/// executable: its own directory, parent directories up to the target
/// root, and their `deps`/`examples` subdirectories. Returns the first
/// existing candidate.
fn locate_named_worker(base: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("{base}{}", std::env::consts::EXE_SUFFIX);
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut cursor = exe.parent();
    for _ in 0..3 {
        let Some(dir) = cursor else { break };
        dirs.push(dir.to_path_buf());
        dirs.push(dir.join("deps"));
        dirs.push(dir.join("examples"));
        cursor = dir.parent();
    }
    dirs.into_iter()
        .map(|d| d.join(&name))
        .find(|p| p.is_file())
}

/// Resolves the `dist_worker` binary for process-backed transports:
/// explicit [`LaunchOpts::worker_binary`], then [`DIST_WORKER_ENV`],
/// then discovery next to the current executable.
pub fn resolve_worker_binary(opts: &LaunchOpts) -> io::Result<PathBuf> {
    if let Some(path) = &opts.worker_binary {
        return Ok(path.clone());
    }
    if let Some(path) = std::env::var_os(DIST_WORKER_ENV) {
        return Ok(PathBuf::from(path));
    }
    locate_named_worker("dist_worker").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "no dist_worker binary found (set MNS_DIST_WORKER or LaunchOpts::worker_binary)",
        )
    })
}

/// A cluster transport: launches workers, surfaces their events,
/// delivers assignments. See the module docs for the contract split
/// between transport and scheduler.
pub trait Transport {
    /// Short transport name for reports and logs (`in-process`, `tcp`,
    /// `spool`).
    fn kind(&self) -> &'static str;

    /// Launches `workers` endpoints named [`worker_name`]`(0..workers)`.
    ///
    /// # Errors
    ///
    /// Fails when no endpoint can be started at all (e.g. the worker
    /// binary is missing); the scheduler then degrades the whole sweep
    /// to in-process execution. Per-worker startup failures surface as
    /// [`TransportEvent::Gone`] instead.
    fn launch(&mut self, workers: usize, opts: &LaunchOpts) -> io::Result<()>;

    /// Drains every event observed since the previous poll. Never
    /// blocks.
    fn poll(&mut self) -> Vec<TransportEvent>;

    /// Delivers one shard assignment to `worker`.
    ///
    /// # Errors
    ///
    /// Fails when the worker is unreachable; the scheduler treats that
    /// worker as dead and requeues the shard elsewhere.
    fn assign(
        &mut self,
        worker: &str,
        shard: ShardId,
        attempt: u32,
        manifest: &str,
    ) -> io::Result<()>;

    /// Stops the fleet: best-effort graceful shutdown, then reap.
    fn shutdown(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_tokens_round_trip() {
        for mode in [
            FaultMode::Crash,
            FaultMode::StallHeartbeat,
            FaultMode::CorruptResult,
        ] {
            assert_eq!(FaultMode::from_token(mode.token()), Some(mode));
        }
        assert_eq!(FaultMode::from_token("martian"), None);
    }

    #[test]
    fn launch_names_are_valid_wire_names() {
        for i in [0usize, 7, 4096] {
            assert!(crate::protocol::valid_worker_name(&worker_name(i)));
        }
    }

    #[test]
    fn fault_for_targets_exactly_one_worker() {
        let opts = LaunchOpts {
            threads_per_worker: 1,
            heartbeat_interval: Duration::from_millis(50),
            collect_metrics: false,
            worker_binary: None,
            fault: Some(DistFault {
                worker: 1,
                mode: FaultMode::Crash,
            }),
        };
        assert_eq!(opts.fault_for(0), None);
        assert_eq!(opts.fault_for(1), Some(FaultMode::Crash));
        assert_eq!(opts.fault_for(2), None);
    }
}
