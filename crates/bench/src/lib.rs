//! # mns-bench — the experiment reproduction harness
//!
//! One function per experiment of `EXPERIMENTS.md` (E1–E11 plus the A1,
//! A4 and A5 ablations), each returning [`mns_core::report::Table`]s; E1
//! also prints the A2 ablation and E7 the A3 rows. The `repro` binary
//! holds the list of experiments, runs them and prints markdown; the
//! Criterion benches under `benches/` time the hot kernels of the same
//! workloads.
//!
//! Because the reproduced paper is a keynote without numeric tables, each
//! experiment here operationalizes one slide-level claim; the tables
//! record the measured shape (who wins, how it scales) that
//! `EXPERIMENTS.md` compares against the claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
