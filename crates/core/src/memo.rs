//! The stage memo: intermediate products that scenarios share, each
//! made once per memo and fetched by every scenario that needs it.
//!
//! A [`StageMemo`] holds four tables:
//!
//! * **senses** — the lab-chip sense+interpret result of one
//!   `(biology, sensing, mining, seed)` fingerprint, keyed by its `Debug`
//!   rendering. Those stages do not depend on the chip, the plex width or
//!   the faults, so lab-chip runs that differ only there share them;
//! * **compiles** — the outcome of one assay compile, keyed by a
//!   [`CompileKey`]: the assay kind and scale, the chip configuration and
//!   the fault model, everything `compile_with_faults` reads. It stores
//!   what callers read, the [`CompileStats`] or the [`CompileError`], and
//!   never the electrode program. A compile does not depend on the
//!   biology seed, so a fluidics scenario and lab-chip runs of any seed
//!   share it when they compile the same chip;
//! * **models** — one knockout engine per [`GrnModel`]: the model's
//!   wild-type network, parsed once, and one [`SymbolicDynamics`] that
//!   answers the wild type and every knockout from the same prefix
//!   products of the fixed-point terms. The engine's BDDs belong to its
//!   own manager, so it sits behind its own lock, and one model's
//!   knockouts serialize on it. The gene is resolved before the lock is
//!   taken and only BDD work runs under it, so a knockout of an unknown
//!   gene panics without poisoning the engine;
//! * **calibrations** — one table per sensor chemistry, keyed by a
//!   [`CalibrationKey`] of the bits of `k_on`, `k_off` and the integration
//!   time, everything `SensorArray::calibrate` reads. It maps a reading's
//!   bits to its calibrated concentration and fills lazily: a sense locks
//!   it once to look up its distinct readings and, after a miss, once more
//!   to insert what it calibrated; it never calibrates under the lock.
//!   Lab-chip runs of any biology seed with one chemistry share it.
//!
//! Keys are compared in full; a hash only picks a bucket. Everything
//! stored is a pure deterministic function of its key (a knockout query
//! is the mutant network's own conjunction, and one manager's BDDs are
//! canonical), so a hit returns what a recompute would, and no outcome
//! can depend on the hit pattern (and therefore not on worker count or
//! shard layout).
//!
//! A [`Runner`](crate::runner::Runner) owns one memo for its whole life
//! ([`Runner::clear_cache`](crate::runner::Runner::clear_cache) keeps it)
//! and installs it on every thread it evaluates on, so its workers share
//! its entries across batches. Outside a runner, each thread evaluates
//! under a memo of its own. Each table is wiped when it reaches
//! [`TABLE_CAP`] entries (a chemistry's readings when they reach
//! [`CALIBRATION_CAP`]), and a key is inserted once. A table is locked
//! only to look up and to insert: two threads that miss one key at once
//! both compute it.
//!
//! A sense hit records the same (empty) `labchip.sense` and
//! `labchip.interpret` spans as a miss and counts
//! `labchip.interpret_cache_hits`. A compile hit records an empty
//! `fluidics.compile` span and counts `fluidics.compile_hits`; the
//! schedule, route and program spans below it and the router's work
//! counters then count only the compiles actually made. A knockout
//! records one `grn.fixed_points` span whether its engine was built or
//! fetched, and adds its hit to `grn.model_hits`; a sense records the
//! same spans whatever its calibrations hit, and adds the distinct
//! readings it found calibrated to `labchip.calibration_hits`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use mns_biosensor::array::SensorConfig;
use mns_biosensor::kinetics::BindingKinetics;
use mns_fluidics::assay::AssayKind;
use mns_fluidics::compiler::{compile_with_faults, CompileError, CompileStats, CompilerConfig};
use mns_fluidics::faults::FaultModel;
use mns_grn::symbolic::SymbolicDynamics;
use mns_grn::{BooleanNetwork, Perturbation, State};

use crate::labchip::SenseInterpretation;
use crate::runner::GrnModel;

/// Each table is wiped when it reaches this many entries (sweeps rarely
/// hold more distinct biology configs, chips, models or chemistries live).
const TABLE_CAP: usize = 64;

/// A chemistry's calibration table is wiped when it reaches this many
/// readings: above the 4,097 that a default array can read (a 10-bit ADC
/// averaged over 4 sites), so a default chemistry's table is never wiped.
const CALIBRATION_CAP: usize = 8_192;

/// Everything one compile reads: `compile_with_faults` of
/// `assay.instantiate(scale)` onto `chip` under `faults`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompileKey {
    pub(crate) assay: AssayKind,
    pub(crate) scale: usize,
    pub(crate) chip: CompilerConfig,
    pub(crate) faults: FaultModel,
}

impl Hash for CompileKey {
    /// Hashes a few cheap fields to pick a bucket; `Eq` compares every
    /// field in full, so keys that hash alike never share an entry.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.assay.hash(state);
        self.scale.hash(state);
        self.chip.grid_width.hash(state);
        self.chip.grid_height.hash(state);
        self.faults.dead_cells().len().hash(state);
    }
}

/// Everything `SensorArray::calibrate` reads, as bits: the probe
/// chemistry's `k_on` and `k_off` and the sensor's integration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CalibrationKey {
    k_on: u64,
    k_off: u64,
    integration_time: u64,
}

impl CalibrationKey {
    /// The key of an array with `kinetics` and `sensor`.
    pub(crate) fn new(kinetics: BindingKinetics, sensor: &SensorConfig) -> Self {
        CalibrationKey {
            k_on: kinetics.k_on.to_bits(),
            k_off: kinetics.k_off.to_bits(),
            integration_time: sensor.integration_time.to_bits(),
        }
    }
}

/// One GRN model's knockout engine.
#[derive(Debug)]
pub(crate) struct ModelEngine {
    /// The wild-type network, which has every mutant's gene names.
    pub(crate) net: BooleanNetwork,
    engine: Mutex<SymbolicDynamics>,
}

/// One bounded table of the memo.
#[derive(Debug)]
struct Table<K, V>(Mutex<HashMap<K, V>>);

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table(Mutex::new(HashMap::new()))
    }
}

impl<K: Eq + Hash, V: Clone> Table<K, V> {
    fn lock(&self) -> MutexGuard<'_, HashMap<K, V>> {
        self.0.lock().expect("stage memo lock")
    }

    /// The value stored under `key`, and `true`; or else `make(&key)`,
    /// stored under `key` unless another thread stored it first, and
    /// `false`.
    fn get_or_make(&self, key: K, make: impl FnOnce(&K) -> V) -> (V, bool) {
        if let Some(hit) = self.lock().get(&key) {
            return (hit.clone(), true);
        }
        let value = make(&key);
        let mut entries = self.lock();
        if !entries.contains_key(&key) {
            if entries.len() >= TABLE_CAP {
                entries.clear();
            }
            entries.insert(key, value.clone());
        }
        (value, false)
    }
}

/// The sense, compile, model and calibration tables (see the module
/// docs).
#[derive(Debug, Default)]
pub(crate) struct StageMemo {
    senses: Table<String, SenseInterpretation>,
    compiles: Table<CompileKey, Result<CompileStats, CompileError>>,
    models: Table<GrnModel, Arc<ModelEngine>>,
    calibrations: Table<CalibrationKey, Arc<Table<u64, f64>>>,
}

thread_local! {
    /// The memo this thread's scenarios consult: the thread's own, unless
    /// a runner has installed its memo for a batch.
    static STAGE_MEMO: RefCell<Arc<StageMemo>> = RefCell::new(Arc::default());
}

impl StageMemo {
    /// Makes this memo the one the calling thread consults until the
    /// returned guard drops, also when the thread unwinds.
    pub(crate) fn install(self: &Arc<Self>) -> InstalledMemo {
        InstalledMemo {
            previous: STAGE_MEMO.with(|slot| slot.replace(Arc::clone(self))),
        }
    }
}

/// Restores the memo that [`StageMemo::install`] displaced.
pub(crate) struct InstalledMemo {
    previous: Arc<StageMemo>,
}

impl Drop for InstalledMemo {
    fn drop(&mut self) {
        let previous = Arc::clone(&self.previous);
        // `try_with`: never panic in drop, even as the thread exits.
        let _ = STAGE_MEMO.try_with(|slot| slot.replace(previous));
    }
}

/// The memo installed on the calling thread.
fn installed() -> Arc<StageMemo> {
    STAGE_MEMO.with(|slot| Arc::clone(&slot.borrow()))
}

/// The sense+interpret result under `key` in the installed memo, made by
/// `sense` on a miss.
pub(crate) fn sensed(
    key: String,
    sense: impl FnOnce() -> SenseInterpretation,
) -> SenseInterpretation {
    let (si, hit) = installed().senses.get_or_make(key, |_| sense());
    if hit {
        drop(mns_telemetry::span("labchip.sense"));
        drop(mns_telemetry::span("labchip.interpret"));
        mns_telemetry::counter_add("labchip.interpret_cache_hits", 1);
    }
    si
}

/// The stats or the error of compiling `key`, from the installed memo, or
/// compiled on a miss.
pub(crate) fn compile_stats(key: CompileKey) -> Result<CompileStats, CompileError> {
    let (result, hit) = installed().compiles.get_or_make(key, |k| {
        compile_with_faults(&k.assay.instantiate(k.scale), &k.chip, &k.faults).map(|c| c.stats)
    });
    if hit {
        drop(mns_telemetry::span("fluidics.compile"));
        mns_telemetry::counter_add("fluidics.compile_hits", 1);
    }
    result
}

/// The fixed points of `model` with `knockout` knocked out (the wild
/// type's for `None`), from the model's engine in the installed memo,
/// which is built on a miss; and the model's entry, whose wild-type
/// network classifies them.
///
/// # Panics
///
/// Panics if an Arabidopsis whorl is 4 or more, or if `knockout` is not a
/// gene of the model: both before the engine's lock is taken.
pub(crate) fn knockout_fixed_points(
    model: GrnModel,
    knockout: Option<&str>,
) -> (Arc<ModelEngine>, Vec<State>) {
    let (entry, hit) = installed().models.get_or_make(model, |&m| {
        let net = m.network();
        Arc::new(ModelEngine {
            engine: Mutex::new(SymbolicDynamics::new(&net)),
            net,
        })
    });
    mns_telemetry::counter_add("grn.model_hits", u64::from(hit));
    let knockout = knockout.map(|gene| {
        assert!(
            entry.net.gene_index(gene).is_some(),
            "grn knockout gene `{gene}` is not in the model"
        );
        Perturbation::knock_out(gene)
    });
    let states = {
        let mut engine = entry.engine.lock().expect("knockout engine lock");
        match &knockout {
            None => Ok(engine.fixed_point_states()),
            Some(p) => engine.perturbed_fixed_point_states(p),
        }
    };
    (entry, states.expect("the gene was resolved above"))
}

/// The concentration that each of `readings` calibrates to under `key`,
/// in order. Each distinct reading comes from the chemistry's table in the
/// installed memo, or else from `calibrate`, outside the lock, and is then
/// stored.
pub(crate) fn calibrated(
    key: CalibrationKey,
    readings: &[f64],
    calibrate: impl Fn(f64) -> f64,
) -> Vec<f64> {
    let mut distinct: Vec<u64> = readings.iter().map(|r| r.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let (table, _) = installed()
        .calibrations
        .get_or_make(key, |_| Arc::default());
    let stored: Vec<Option<f64>> = {
        let entries = table.lock();
        distinct
            .iter()
            .map(|bits| entries.get(bits).copied())
            .collect()
    };
    let values: Vec<f64> = distinct
        .iter()
        .zip(&stored)
        .map(|(&bits, hit)| hit.unwrap_or_else(|| calibrate(f64::from_bits(bits))))
        .collect();
    let hits = stored.iter().flatten().count();
    if hits < distinct.len() {
        let mut entries = table.lock();
        for ((&bits, hit), &value) in distinct.iter().zip(&stored).zip(&values) {
            if hit.is_none() {
                if entries.len() >= CALIBRATION_CAP {
                    entries.clear();
                }
                entries.insert(bits, value);
            }
        }
    }
    mns_telemetry::counter_add("labchip.calibration_hits", hits as u64);
    readings
        .iter()
        .map(|r| {
            values[distinct
                .binary_search(&r.to_bits())
                .expect("a distinct reading")]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;

    use super::*;
    use crate::runner::{
        conformance_corpus, AssayKind, KnockoutScenario, LabChipScenario, Scenario, ScenarioOutcome,
    };
    use mns_biosensor::array::SensorArray;
    use mns_fluidics::faults::FaultConfig;
    use mns_fluidics::geometry::Grid;
    use mns_grn::models::{t_helper, th_fates};

    fn fresh(key: &CompileKey) -> Result<CompileStats, CompileError> {
        compile_with_faults(&key.assay.instantiate(key.scale), &key.chip, &key.faults)
            .map(|c| c.stats)
    }

    #[test]
    fn every_golden_compile_hits_an_entry_equal_to_a_fresh_compile() {
        let memo = Arc::new(StageMemo::default());
        let _installed = memo.install();
        let corpus = conformance_corpus(42);
        let first: Vec<ScenarioOutcome> = corpus.iter().map(Scenario::run).collect();
        let entries = memo.compiles.lock().len();
        // The golden pass makes 24 compile requests of 20 distinct keys.
        assert_eq!(entries, 20);
        let second: Vec<ScenarioOutcome> = corpus.iter().map(Scenario::run).collect();
        assert_eq!(first, second);
        // A miss inserts a key the table lacks, and the table is below
        // its cap: an unchanged length means that every request of the
        // second pass hit.
        let table = memo.compiles.lock();
        assert_eq!(table.len(), entries, "a request of the second pass missed");
        for (key, stored) in table.iter() {
            assert_eq!(*stored, fresh(key), "stored compile of {key:?}");
        }
        assert!(table.values().any(Result::is_err), "errors are stored too");

        // `labchip/seed42-n4-dead50pm-f7` fails at plex 4 and retries at 3.
        let label = "labchip/seed42-n4-dead50pm-f7";
        assert!(corpus.iter().any(|s| s.label() == label));
        let grid = Grid::new(16, 16).expect("the default chip");
        let retry = |scale| CompileKey {
            assay: AssayKind::Multiplex,
            scale,
            chip: CompilerConfig::default(),
            faults: FaultModel::generate(&FaultConfig::dead(7 ^ 42, 0.05), &grid),
        };
        assert!(
            matches!(table.get(&retry(4)), Some(Err(_))),
            "{label} at plex 4"
        );
        assert!(
            matches!(table.get(&retry(3)), Some(Ok(_))),
            "{label} at plex 3"
        );
    }

    #[test]
    fn keys_that_differ_in_one_field_never_share_an_entry() {
        let grid = Grid::new(16, 16).expect("a 16x16 grid");
        let base = CompileKey {
            assay: AssayKind::Multiplex,
            scale: 4,
            chip: CompilerConfig::default(),
            faults: FaultModel::generate(&FaultConfig::dead(3, 0.05), &grid),
        };
        // One dead cell moved to a live one: same count, same bucket.
        let mut dead = base.faults.dead_cells().to_vec();
        dead[0] = grid
            .cells()
            .find(|c| !dead.contains(c))
            .expect("a live cell");
        let moved = FaultModel::from_parts(
            dead,
            base.faults.degraded_cells().to_vec(),
            base.faults.transients().to_vec(),
        );
        assert_eq!(moved.dead_cells().len(), base.faults.dead_cells().len());
        let edits: [&dyn Fn(&mut CompileKey); 11] = [
            &|_| {},
            &|k| k.assay = AssayKind::SerialDilution,
            &|k| k.scale = 3,
            &|k| k.chip.grid_width = 17,
            &|k| k.chip.grid_height = 17,
            &|k| k.chip.schedule.transport_latency += 1,
            &|k| k.chip.routing.max_time += 1,
            &|k| k.chip.routing.lookahead += 1,
            &|k| k.chip.routing.max_priority_rotations += 1,
            &|k| k.chip.max_latency_retries += 1,
            &|k| k.faults = moved.clone(),
        ];
        assert_own_entries(&edited(&base, &edits));

        let chemistry = CalibrationKey::new(BindingKinetics::dna_probe(), &SensorConfig::default());
        let one_ulp = |x: &mut u64| *x += 1;
        let edits: [&dyn Fn(&mut CalibrationKey); 4] = [
            &|_| {},
            &|k| one_ulp(&mut k.k_on),
            &|k| one_ulp(&mut k.k_off),
            &|k| one_ulp(&mut k.integration_time),
        ];
        assert_own_entries(&edited(&chemistry, &edits));

        let mut models = vec![GrnModel::THelper];
        models.extend((0..4).map(|whorl| GrnModel::Arabidopsis { whorl }));
        assert_own_entries(&models);
    }

    /// `base` with each of `edits` applied.
    fn edited<K: Clone>(base: &K, edits: &[&dyn Fn(&mut K)]) -> Vec<K> {
        edits
            .iter()
            .map(|edit| {
                let mut key = base.clone();
                edit(&mut key);
                key
            })
            .collect()
    }

    /// Each of `keys` makes its own entry in one table and then finds it.
    fn assert_own_entries<K: Clone + Debug + Eq + Hash>(keys: &[K]) {
        let table = Table::default();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(table.get_or_make(key.clone(), |_| i), (i, false), "{key:?}");
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                table.get_or_make(key.clone(), |_| usize::MAX),
                (i, true),
                "{key:?}"
            );
        }
    }

    fn knockout(gene: &str) -> Scenario {
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some(gene.to_owned()),
        })
    }

    #[test]
    fn a_knockout_of_an_unknown_gene_leaves_its_models_engine_usable() {
        let memo = Arc::new(StageMemo::default());
        let _installed = memo.install();
        let unknown = catch_unwind(AssertUnwindSafe(|| knockout("NOT-A-GENE").run()));
        assert!(unknown.is_err(), "an unknown gene panics");
        assert!(
            memo.models.lock().contains_key(&GrnModel::THelper),
            "the engine was built before the gene was resolved"
        );

        // The oracle: a fresh engine of the mutant network.
        let mutant = t_helper()
            .with_perturbation(&Perturbation::knock_out("GATA3"))
            .expect("GATA3 is a T-helper gene");
        let fates = th_fates(&mutant).expect("fate analysis");
        let oracle = ScenarioOutcome::Knockout {
            fixed_points: fates.iter().map(|(st, _)| st.bits()).collect(),
            annotation: fates
                .iter()
                .map(|(_, f)| format!("{f:?}"))
                .collect::<Vec<_>>()
                .join("/"),
        };
        assert_eq!(knockout("GATA3").run(), oracle);
    }

    fn labchip(seed: u64) -> Scenario {
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed,
            samples_per_run: 4,
            dead_fraction: 0.0,
            fault_seed: 0,
        })
    }

    #[test]
    fn every_stored_calibration_equals_a_fresh_one_and_a_warm_sense_a_cold_one() {
        let memo = Arc::new(StageMemo::default());
        let _installed = memo.install();
        for seed in 1..=3 {
            labchip(seed).run();
        }
        let config = SensorConfig::default();
        let array = SensorArray::uniform(1, BindingKinetics::dna_probe(), config);
        let key = CalibrationKey::new(BindingKinetics::dna_probe(), &config);
        let table = Arc::clone(&memo.calibrations.lock()[&key]);
        assert_eq!(memo.calibrations.lock().len(), 1, "one chemistry");
        let stored: Vec<(u64, f64)> = table.lock().iter().map(|(&b, &c)| (b, c)).collect();
        assert!(
            !stored.is_empty() && stored.len() <= 4_097,
            "{}",
            stored.len()
        );
        for &(bits, value) in &stored {
            let fresh = array.calibrate(f64::from_bits(bits));
            assert_eq!(
                value.to_bits(),
                fresh.to_bits(),
                "reading {}",
                f64::from_bits(bits)
            );
        }

        // A stored reading is served from the table, never recalibrated.
        let readings: Vec<f64> = stored.iter().map(|&(b, _)| f64::from_bits(b)).collect();
        let served = calibrated(key, &readings, |r| panic!("recalibrated {r}"));
        let want: Vec<f64> = stored.iter().map(|&(_, c)| c).collect();
        assert_eq!(served, want);

        // A new biology seed senses with the warm table as on a fresh memo.
        let warm = labchip(4).run();
        let cold = thread::scope(|s| s.spawn(|| labchip(4).run()).join()).expect("fresh memo");
        assert_eq!(warm, cold);
        assert!(table.lock().len() > stored.len(), "seed 4 added readings");
    }
}
