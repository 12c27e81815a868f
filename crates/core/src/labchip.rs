//! The end-to-end lab-on-chip pipeline (keynote slides 18–26).
//!
//! One call chains the keynote's "ultimate hybridization of technologies":
//!
//! 1. **Microfluidics** — a multiplexed immunoassay is scheduled, placed
//!    and routed onto the electrode array ([`mns_fluidics::compile`]).
//! 2. **Sensing** — each ground-truth expression level is converted to an
//!    analyte concentration and read through the noisy, quantized sensor
//!    array ([`mns_biosensor`]).
//! 3. **Interpretation** — the measured matrix is discretized and the
//!    maximal biclusters are enumerated exactly with ZDDs, then scored
//!    against the implanted truth ([`mns_bicluster`]).
//!
//! The pipeline's report shows whether the *system* works: a perfect
//! router is useless if sensing noise destroys the downstream clustering,
//! which is precisely the keynote's argument for co-design.

use mns_bicluster::discretize::{binarize_with_threshold, BinaryMatrix};
use mns_bicluster::score::{score, MatchScores};
use mns_bicluster::zdd_miner::{enumerate_maximal, MinedBiclusters, MinerConfig};
use mns_biosensor::array::{SensorArray, SensorConfig};
use mns_biosensor::expression::{generate, SyntheticDataset, SyntheticDatasetConfig};
use mns_biosensor::kinetics::BindingKinetics;
use mns_biosensor::Matrix;
use mns_fluidics::assay::AssayKind;
use mns_fluidics::compiler::{CompileError, CompileStats, CompilerConfig};
use mns_fluidics::faults::{FaultConfig, FaultModel};
use mns_fluidics::geometry::Grid;

use crate::memo::{self, CalibrationKey, CompileKey};

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Synthetic biology: matrix shape and implanted modules.
    pub dataset: SyntheticDatasetConfig,
    /// Chip compilation parameters.
    pub chip: CompilerConfig,
    /// Sensor electronics.
    pub sensor: SensorConfig,
    /// Probe chemistry.
    pub kinetics: BindingKinetics,
    /// Reference concentration (molar) corresponding to one expression
    /// unit.
    pub unit_concentration: f64,
    /// Miner thresholds.
    pub miner: MinerConfig,
    /// Assay family compiled onto the chip each run (the plex-retry loop
    /// re-instantiates it at each reduced scale).
    pub assay: AssayKind,
    /// Number of samples transported per chip run (sets the assay width
    /// used for the compile stats).
    pub samples_per_run: usize,
    /// Optional electrode fault injection. When set, the fault seed is
    /// mixed with the run seed so each run sees its own deterministic
    /// fault map, and the compiler works around the injected faults.
    pub fault: Option<FaultConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dataset: SyntheticDatasetConfig {
                genes: 60,
                samples: 30,
                bicluster_count: 3,
                bicluster_rows: 8,
                bicluster_cols: 6,
                ..SyntheticDatasetConfig::default()
            },
            chip: CompilerConfig::default(),
            sensor: SensorConfig::default(),
            kinetics: BindingKinetics::dna_probe(),
            unit_concentration: 2e-10,
            miner: MinerConfig {
                min_rows: 4,
                min_cols: 3,
                ..MinerConfig::default()
            },
            assay: AssayKind::Multiplex,
            samples_per_run: 4,
            fault: None,
        }
    }
}

/// Fault-injection and recovery counters for one pipeline run. All zeros
/// when no faults were injected. The compiler's recovery counts (reroutes,
/// forced stalls, abandoned transports) are in [`PipelineReport::routing`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Dead electrodes injected into the array.
    pub injected_dead: usize,
    /// Degraded-actuation electrodes injected.
    pub injected_degraded: usize,
    /// Transient outages injected.
    pub injected_transient: usize,
    /// Samples dropped from the multiplexed run because the full plex
    /// could not be compiled onto the faulty array.
    pub samples_dropped: usize,
}

/// End-to-end pipeline report.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Microfluidic compile statistics (schedule, routes, energy).
    pub routing: CompileStats,
    /// Fault-injection and recovery counters (zeros when no faults were
    /// configured).
    pub faults: FaultReport,
    /// Mean absolute sensing error in expression units.
    pub sensing_error: f64,
    /// Mining result summary.
    pub mining: MinedBiclusters,
    /// Recovery/relevance of the mined biclusters versus the implanted
    /// truth.
    pub interpretation: MatchScores,
}

/// Sense + interpret results for one `(biology, sensing, mining, seed)`
/// fingerprint, which the stage memo shares between runs.
#[derive(Debug, Clone)]
pub(crate) struct SenseInterpretation {
    sensing_error: f64,
    mining: MinedBiclusters,
    interpretation: MatchScores,
}

/// The computer-aided-diagnosis pipeline.
#[derive(Debug, Clone)]
pub struct LabChipPipeline {
    config: PipelineConfig,
}

impl LabChipPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        LabChipPipeline { config }
    }

    /// Runs the full pipeline with the given seed.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] if the assay cannot be compiled onto the
    /// configured chip.
    pub fn run(&self, seed: u64) -> Result<PipelineReport, CompileError> {
        let _run_span = mns_telemetry::span("labchip.run");
        let cfg = &self.config;

        // 1. Compile the transport program for one multiplexed run,
        //    working around injected electrode faults if any.
        let (routing, fault_report) = {
            let _compile_span = mns_telemetry::span("labchip.compile");
            self.compile_run(seed)?
        };

        // 2 + 3. Biology, sensing and interpretation depend only on the
        // fingerprint below — not on the chip, plex width or faults — so
        // a repeat under the same memo skips the sensing loop and all ZDD
        // work.
        let key = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{seed}",
            cfg.dataset, cfg.sensor, cfg.kinetics, cfg.unit_concentration, cfg.miner
        );
        let si = memo::sensed(key, || self.sense_and_interpret(seed));
        mns_telemetry::counter_add("labchip.zdd_cache_hits", si.mining.zdd_cache_stats.1);
        mns_telemetry::counter_add("labchip.zdd_peak_nodes", si.mining.zdd_peak_nodes as u64);

        Ok(PipelineReport {
            routing,
            faults: fault_report,
            sensing_error: si.sensing_error,
            mining: si.mining,
            interpretation: si.interpretation,
        })
    }

    /// The chip-independent pipeline stages: ground-truth generation,
    /// sensing and ZDD interpretation.
    fn sense_and_interpret(&self, seed: u64) -> SenseInterpretation {
        let cfg = &self.config;
        // Biology + sensing: implant ground truth, push every sample
        // through the sensor array.
        let _sense_span = mns_telemetry::span("labchip.sense");
        let dataset: SyntheticDataset = generate(&cfg.dataset, seed);
        let truth_matrix = &dataset.matrix;
        let array = SensorArray::uniform(cfg.dataset.genes, cfg.kinetics, cfg.sensor);
        let readings: Vec<f64> = (0..cfg.dataset.samples)
            .flat_map(|s| {
                let concentrations: Vec<f64> = (0..cfg.dataset.genes)
                    .map(|g| truth_matrix.get(g, s).max(0.0) * cfg.unit_concentration)
                    .collect();
                let measure_seed = seed ^ 0x5E45_0001_0000_0000 ^ (s as u64);
                array.measure(&concentrations, measure_seed)
            })
            .collect();
        // Every probe shares the array's one chemistry, so calibration
        // depends on the reading alone: each distinct reading is
        // calibrated once per memo.
        let key = CalibrationKey::new(cfg.kinetics, &cfg.sensor);
        let calibrated = memo::calibrated(key, &readings, |r| array.calibrate(r));
        let mut measured = Matrix::zeros(cfg.dataset.genes, cfg.dataset.samples);
        let mut err_acc = 0.0;
        for (k, &est_c) in calibrated.iter().enumerate() {
            let (s, g) = (k / cfg.dataset.genes, k % cfg.dataset.genes);
            // Calibrate back to expression units.
            let est_expr = if est_c.is_finite() {
                est_c / cfg.unit_concentration
            } else {
                // Saturated reading: clamp to the top of the scale.
                cfg.dataset.background + cfg.dataset.boost * 2.0
            };
            measured.set(g, s, est_expr);
            err_acc += (est_expr - truth_matrix.get(g, s)).abs();
        }
        let sensing_error = err_acc / (cfg.dataset.genes * cfg.dataset.samples) as f64;
        drop(_sense_span);

        // Interpretation: binarize measured data and mine exactly.
        let _interpret_span = mns_telemetry::span("labchip.interpret");
        let threshold = cfg.dataset.background + cfg.dataset.boost / 2.0;
        let binary: BinaryMatrix = binarize_with_threshold(&measured, threshold);
        let mining = enumerate_maximal(&binary, &cfg.miner);
        let interpretation = score(&dataset.truth, &mining.biclusters);
        SenseInterpretation {
            sensing_error,
            mining,
            interpretation,
        }
    }

    /// Compiles the multiplexed run, degrading gracefully under faults,
    /// and returns the compile's stats.
    ///
    /// Without a fault config this is a plain
    /// [`compile_with_faults`](mns_fluidics::compiler::compile_with_faults)
    /// with an empty model — identical to [`mns_fluidics::compile`]. With one,
    /// the fault map is drawn (fault seed mixed with the run seed) and, if
    /// the full plex no longer fits the damaged array, the plex count is
    /// reduced one sample at a time before giving up: a partial diagnosis
    /// beats none. Every attempt is looked up in the stage memo first.
    fn compile_run(&self, seed: u64) -> Result<(CompileStats, FaultReport), CompileError> {
        let cfg = &self.config;
        let model = match &cfg.fault {
            None => FaultModel::none(),
            Some(fc) => {
                let grid = Grid::new(cfg.chip.grid_width, cfg.chip.grid_height)
                    .map_err(CompileError::from)?;
                let mixed = FaultConfig {
                    seed: fc.seed ^ seed,
                    ..*fc
                };
                FaultModel::generate(&mixed, &grid)
            }
        };
        let mut report = FaultReport {
            injected_dead: model.dead_cells().len(),
            injected_degraded: model.degraded_cells().len(),
            injected_transient: model.transients().len(),
            ..FaultReport::default()
        };
        let floor = if model.is_empty() {
            cfg.samples_per_run
        } else {
            1
        };
        let mut plex = cfg.samples_per_run.max(1);
        loop {
            let key = CompileKey {
                assay: cfg.assay,
                scale: plex,
                chip: cfg.chip.clone(),
                faults: model.clone(),
            };
            match memo::compile_stats(key) {
                Ok(stats) => {
                    report.samples_dropped = cfg.samples_per_run.max(1) - plex;
                    mns_telemetry::counter_add(
                        "labchip.samples_dropped",
                        report.samples_dropped as u64,
                    );
                    return Ok((stats, report));
                }
                Err(e) if plex <= floor => return Err(e),
                Err(_) => {
                    mns_telemetry::counter_add("labchip.plex_retries", 1);
                    plex -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_end_to_end() {
        let report = LabChipPipeline::new(PipelineConfig::default())
            .run(42)
            .expect("pipeline runs");
        assert!(report.routing.makespan > 0);
        assert!(report.routing.energy > 0);
        assert!(report.sensing_error.is_finite());
        assert!(!report.mining.biclusters.is_empty());
        assert!(
            report.interpretation.recovery > 0.5,
            "recovery {}",
            report.interpretation.recovery
        );
    }

    #[test]
    fn pipeline_is_deterministic() {
        let p = LabChipPipeline::new(PipelineConfig::default());
        let a = p.run(9).unwrap();
        let b = p.run(9).unwrap();
        assert_eq!(a.mining.biclusters, b.mining.biclusters);
        assert_eq!(a.sensing_error, b.sensing_error);
    }

    #[test]
    fn noisier_sensor_degrades_interpretation() {
        let clean = PipelineConfig::default();
        let mut noisy = PipelineConfig::default();
        noisy.sensor.read_noise = 0.2;
        noisy.sensor.shot_coeff = 0.3;
        noisy.sensor.sites_per_probe = 1;
        let r_clean = LabChipPipeline::new(clean).run(5).unwrap();
        let r_noisy = LabChipPipeline::new(noisy).run(5).unwrap();
        assert!(r_noisy.sensing_error > r_clean.sensing_error);
        assert!(r_noisy.interpretation.f1 <= r_clean.interpretation.f1 + 0.05);
    }

    #[test]
    fn fault_free_run_reports_zero_fault_counters() {
        let report = LabChipPipeline::new(PipelineConfig::default())
            .run(42)
            .expect("pipeline runs");
        assert_eq!(report.faults.injected_dead, 0);
        assert_eq!(report.faults.injected_degraded, 0);
        assert_eq!(report.faults.injected_transient, 0);
        assert_eq!(report.faults.samples_dropped, 0);
        assert_eq!(report.routing.forced_stalls, 0);
        assert_eq!(report.routing.abandoned, 0);
    }

    #[test]
    fn faulty_run_survives_and_reports_injection() {
        let cfg = PipelineConfig {
            fault: Some(FaultConfig {
                seed: 3,
                dead_fraction: 0.05,
                degraded_fraction: 0.03,
                transient_count: 2,
                ..FaultConfig::default()
            }),
            ..PipelineConfig::default()
        };
        let report = LabChipPipeline::new(cfg)
            .run(42)
            .expect("pipeline degrades gracefully");
        assert!(report.faults.injected_dead > 0);
        assert!(report.faults.injected_degraded > 0);
        assert_eq!(report.faults.injected_transient, 2);
        assert!(report.routing.makespan > 0);
        assert!(report.interpretation.recovery > 0.0);
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let cfg = PipelineConfig {
            fault: Some(FaultConfig {
                seed: 11,
                dead_fraction: 0.05,
                ..FaultConfig::default()
            }),
            ..PipelineConfig::default()
        };
        let p = LabChipPipeline::new(cfg);
        let a = p.run(7).unwrap();
        let b = p.run(7).unwrap();
        assert_eq!(a.routing, b.routing);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn heavy_faults_drop_samples_rather_than_fail() {
        // A small array plus a dense fault map cannot host the full plex;
        // the pipeline sheds samples instead of erroring out.
        let mut cfg = PipelineConfig {
            samples_per_run: 8,
            fault: Some(FaultConfig {
                seed: 5,
                dead_fraction: 0.20,
                ..FaultConfig::default()
            }),
            ..PipelineConfig::default()
        };
        cfg.chip.grid_width = 12;
        cfg.chip.grid_height = 12;
        let r = LabChipPipeline::new(cfg)
            .run(1)
            .expect("pipeline should degrade to a smaller plex, not fail");
        assert!(
            r.faults.samples_dropped > 0,
            "expected degradation on a 12x12 array with 20% dead"
        );
        assert!(r.routing.makespan > 0);
    }

    #[test]
    fn impossible_chip_reports_error() {
        let mut cfg = PipelineConfig {
            samples_per_run: 10,
            ..PipelineConfig::default()
        };
        cfg.chip.grid_width = 6;
        cfg.chip.grid_height = 6;
        cfg.chip.max_latency_retries = 0;
        // A 6×6 array cannot host a 10-plex assay's modules concurrently —
        // either scheduling or routing fails, but cleanly.
        if let Ok(r) = LabChipPipeline::new(cfg).run(1) {
            assert!(r.routing.makespan > 0); // scheduler serialized it
        }
    }
}
