//! # mns-biosensor — label-free sensing arrays and synthetic expression data
//!
//! The keynote's lab-on-chip (slides 21–23) senses DNA/protein binding
//! electronically: "non-labeled sensing techniques are based on an
//! electronic reading of hybridization" and "array detectors yield a matrix
//! of expression levels". This crate models that sensing chain and — in
//! place of the wet-lab data we cannot rerun — generates synthetic
//! expression matrices with *known, implanted* structure so the
//! interpretation algorithms in `mns-bicluster` can be scored exactly:
//!
//! * [`kinetics`] — Langmuir hybridization: occupancy versus analyte
//!   concentration and integration time,
//! * [`mod@array`] — the capacitive sensor array: transduction, shot and read
//!   noise, ADC quantization, calibration back to concentration,
//! * [`expression`] — the [`Matrix`] container plus a generator that
//!   implants ground-truth biclusters into a noisy background
//!   (experiment E3's workload).
//!
//! ## Example
//!
//! ```
//! use mns_biosensor::array::{SensorArray, SensorConfig};
//! use mns_biosensor::kinetics::BindingKinetics;
//!
//! let array = SensorArray::uniform(4, BindingKinetics::dna_probe(), SensorConfig::default());
//! let sample = [1e-9, 5e-9, 0.0, 2e-8]; // molar concentrations
//! let reading = array.measure(&sample, 7);
//! assert_eq!(reading.len(), 4);
//! // Higher concentration gives a larger signal on average.
//! assert!(reading[3] > reading[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod expression;
pub mod kinetics;
mod noise;

pub use array::{SensorArray, SensorConfig};
pub use expression::{GroundTruthBicluster, Matrix, SyntheticDataset, SyntheticDatasetConfig};
pub use kinetics::BindingKinetics;
