//! # mns-core — the system-level co-design layer
//!
//! The keynote's actual thesis is not any single artifact but the claim
//! that *system-level design technology* — modeling, analysis and
//! synthesis applied across heterogeneous domains — is the enabling
//! discipline (slides 15, 44). This crate is where the domain crates meet:
//!
//! * [`labchip`] — the flagship integration: a complete
//!   computer-aided-diagnosis pipeline (slide 19) that compiles a
//!   biochemical assay to an electrode program (`mns-fluidics`), reads the
//!   detectors through the noisy sensor model (`mns-biosensor`), and
//!   interprets the resulting expression matrix by exact ZDD biclustering
//!   (`mns-bicluster`), reporting quality end to end,
//! * [`explore`] — a small design-space exploration driver with Pareto
//!   filtering, applied to NoC topology synthesis (`mns-noc`),
//! * [`runner`] — the deterministic parallel experiment engine: batched
//!   [`Scenario`](runner::Scenario) evaluation across worker threads with
//!   work stealing, fingerprint caching, deterministic sharding (in
//!   process, or across worker processes through the shard
//!   [`manifest`](runner::manifest) wire format that `mns-dist` ships),
//!   and byte-identical serial / parallel / sharded outcomes (the
//!   golden-run conformance contract),
//! * [`report`] — the experiment table type shared by the examples and
//!   the `mns-bench` reproduction harness.
//!
//! ## Example
//!
//! ```
//! use mns_core::labchip::{LabChipPipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = LabChipPipeline::new(PipelineConfig::default()).run(42)?;
//! assert!(report.routing.makespan > 0);
//! assert!(report.interpretation.recovery > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod labchip;
pub mod report;
pub mod runner;
