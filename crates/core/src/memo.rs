//! The stage memo: intermediate products that scenarios share, each
//! made once per memo and fetched by every scenario that needs it.
//!
//! A [`StageMemo`] holds two tables:
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
//!   share it when they compile the same chip.
//!
//! Keys are compared in full; a hash only picks a bucket. Everything
//! stored is a pure deterministic function of its key, so a hit returns
//! what a recompute would, and no outcome can depend on the hit pattern
//! (and therefore not on worker count or shard layout).
//!
//! A [`Runner`](crate::runner::Runner) owns one memo for its whole life
//! ([`Runner::clear_cache`](crate::runner::Runner::clear_cache) keeps it)
//! and installs it on every thread it evaluates on, so its workers share
//! senses and compiles across batches. Outside a runner, each thread
//! evaluates under a memo of its own. Each table is wiped when it reaches
//! [`TABLE_CAP`] entries, and a key is inserted once. A table is locked
//! only to look up and to insert: two threads that miss one key at once
//! both compute it.
//!
//! A sense hit records the same (empty) `labchip.sense` and
//! `labchip.interpret` spans as a miss and counts
//! `labchip.interpret_cache_hits`. A compile hit records an empty
//! `fluidics.compile` span and counts `fluidics.compile_hits`; the
//! schedule, route and program spans below it and the router's work
//! counters then count only the compiles actually made.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use mns_fluidics::assay::AssayKind;
use mns_fluidics::compiler::{compile_with_faults, CompileError, CompileStats, CompilerConfig};
use mns_fluidics::faults::FaultModel;

use crate::labchip::SenseInterpretation;

/// Each table is wiped when it reaches this many entries (sweeps rarely
/// hold more distinct biology configs or chips live).
const TABLE_CAP: usize = 64;

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

/// The sense and compile tables (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct StageMemo {
    senses: Table<String, SenseInterpretation>,
    compiles: Table<CompileKey, Result<CompileStats, CompileError>>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{conformance_corpus, Scenario, ScenarioOutcome};
    use mns_fluidics::faults::FaultConfig;
    use mns_fluidics::geometry::Grid;

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
        let keys: Vec<CompileKey> = edits
            .iter()
            .map(|edit| {
                let mut key = base.clone();
                edit(&mut key);
                key
            })
            .collect();
        let table = Table::default();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(table.get_or_make(key.clone(), |_| i), (i, false), "key {i}");
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                table.get_or_make(key.clone(), |_| usize::MAX),
                (i, true),
                "key {i}"
            );
        }
    }
}
