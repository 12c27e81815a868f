//! # mns-dist — transport-agnostic cluster scheduler
//!
//! Ships the deterministic experiment engine's shards to workers —
//! loopback threads or local `dist_worker` processes — behind a
//! pluggable [`Transport`]:
//!
//! | transport | medium | use |
//! |---|---|---|
//! | [`InProcess`] | threads + channels | loopback: conformance baseline, benchmark cluster pass |
//! | [`TcpTransport`] | framed loopback TCP | multi-process sweeps |
//!
//! Every worker runs the one loop of [`worker`], whichever transport
//! carries its messages: an [`InProcess`] thread runs exactly what a
//! `dist_worker` process runs.
//!
//! The [`Cluster`] scheduler keeps an
//! [`OutcomeCache`](mns_core::runner::OutcomeCache) across `run` calls
//! and ships only a batch's distinct misses. It assigns their
//! [`ShardPlan`](mns_core::runner::ShardPlan) shards, which keep
//! scenarios sharing a stage together, to registered workers; watches
//! heartbeats and per-shard deadlines; retries with deterministic capped
//! exponential backoff, up to four attempts a shard; and requeues work
//! from dead, hung or corrupt workers onto survivors. Its assignment,
//! requeue and heartbeat-miss counts are fields of the
//! [`ClusterReport`], not global telemetry counters. Because every
//! shard's evaluation is pure and the stats/metrics merge is
//! associative, the merged report is **byte-identical to a serial run**
//! — at any worker count, over any transport, under any injected
//! failure — and a cluster reused over a series of batches reports what
//! one reused `Runner` would.
//!
//! ```no_run
//! use mns_core::runner::{conformance_corpus, ClusterConfig};
//! use mns_dist::{Cluster, InProcess};
//!
//! let corpus = conformance_corpus(42);
//! let config = ClusterConfig::new().workers(4).shards(8);
//! let report = Cluster::new(InProcess::new(), config).run(&corpus);
//! assert_eq!(report.outcomes.len(), corpus.len());
//! ```

pub mod cluster;
mod fleet;
pub mod inprocess;
pub mod protocol;
pub mod tcp;
pub mod transport;
pub mod worker;

pub use cluster::{Cluster, ClusterReport, ShardPlacement};
pub use inprocess::InProcess;
pub use protocol::Message;
pub use tcp::TcpTransport;
pub use transport::{
    DistFault, FaultMode, LaunchOpts, Transport, TransportEvent, WorkerId, DIST_WORKER_ENV,
    FAULT_ENV,
};
