//! # mns-dist — transport-agnostic cluster scheduler
//!
//! Ships the deterministic experiment engine's shards to workers —
//! loopback threads, local `dist_worker` processes, or a cluster —
//! behind a pluggable [`Transport`]:
//!
//! | transport | medium | use |
//! |---|---|---|
//! | [`InProcess`] | threads + channels | loopback reference, conformance baseline |
//! | [`TcpTransport`] | framed loopback TCP | multi-process / multi-machine sweeps |
//! | [`SpoolTransport`] | shared directory, rename-commit | object-store-style batch clusters |
//!
//! The [`Cluster`] scheduler assigns [`ShardPlan`](mns_core::runner::ShardPlan)
//! shards to registered workers, watches heartbeats and per-shard
//! deadlines, retries with deterministic capped exponential backoff, and
//! requeues work from dead, hung or corrupt workers onto survivors.
//! Because every shard's evaluation is pure and the stats/metrics merge
//! is associative, the merged [`ClusterReport`] is **byte-identical to
//! a serial run** — at any worker count, over any transport, under any
//! injected failure.
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
pub mod inprocess;
pub mod protocol;
pub mod spool;
pub mod tcp;
pub mod transport;
pub mod worker;

pub use cluster::{backoff_delay, Cluster, ClusterReport, ShardPlacement};
pub use inprocess::InProcess;
pub use protocol::Message;
pub use spool::SpoolTransport;
pub use tcp::TcpTransport;
pub use transport::{
    DistFault, FaultMode, LaunchOpts, Transport, TransportEvent, WorkerId, DIST_WORKER_ENV,
    FAULT_ENV,
};
