//! # micronano — a system-level design kit for micro/nano systems
//!
//! Umbrella crate re-exporting the micronano workspace, a Rust reproduction
//! of the systems outlined in G. De Micheli's DATE 2008 keynote *"Designing
//! Micro/Nano Systems for a Safer and Healthier Tomorrow"*.
//!
//! The workspace implements the keynote's three illustrative application
//! domains and the chip-level substrates they depend on:
//!
//! * [`fluidics`] — digital microfluidic biochip design automation
//!   (scheduling, placement, concurrent droplet routing),
//! * [`biosensor`] — label-free sensing-array models producing expression
//!   matrices,
//! * [`bicluster`] — data interpretation by exact ZDD biclustering plus the
//!   Cheng–Church baseline,
//! * [`grn`] — Boolean gene-regulatory-network modeling, attractor analysis
//!   and in-silico knock-out experiments,
//! * [`noc`] — network-on-chip topology synthesis, deadlock-free routing and
//!   flit-level simulation in 2-D and 3-D,
//! * [`wsn`] — environmental wireless sensor networks with energy harvesting
//!   and run-time management policies,
//! * [`dd`] — the shared BDD/ZDD decision-diagram package,
//! * [`dist`] — the transport-agnostic cluster scheduler for
//!   multi-process sharded sweeps (in-process and loopback-TCP
//!   transports with deterministic failure recovery),
//! * [`sim`] — the deterministic discrete-event kernel,
//! * [`telemetry`] — deterministic tracing/metrics with Chrome-trace,
//!   folded-stack and metrics-snapshot exporters (off by default),
//! * [`core`] — the system-level co-design layer tying the domains together
//!   (most notably the end-to-end lab-on-chip compiler).
//!
//! ## Quickstart
//!
//! ```
//! use micronano::core::labchip::{LabChipPipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = LabChipPipeline::new(PipelineConfig::default()).run(42)?;
//! assert!(report.routing.makespan > 0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for complete domain walkthroughs and `EXPERIMENTS.md` for
//! the experiment catalogue.

#![forbid(unsafe_code)]

pub use mns_bicluster as bicluster;
pub use mns_biosensor as biosensor;
pub use mns_core as core;
pub use mns_crossbar as crossbar;
pub use mns_dd as dd;
pub use mns_dist as dist;
pub use mns_fluidics as fluidics;
pub use mns_grn as grn;
pub use mns_noc as noc;
pub use mns_policy as policy;
pub use mns_sim as sim;
pub use mns_telemetry as telemetry;
pub use mns_wsn as wsn;
