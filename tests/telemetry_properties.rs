//! Telemetry conformance: profiling must never change the physics.
//!
//! Three contracts over `mns-telemetry` as wired into the workspace:
//!
//! 1. **Inert when off**: with telemetry disabled (the default), the
//!    golden corpus digests match `tests/golden/corpus.txt` and random
//!    batches produce outcomes byte-identical to instrumented runs —
//!    enabling a profiler is not allowed to move a single bit.
//! 2. **Structurally deterministic when on**: under the virtual clock,
//!    the span *tree shape* of a batch is identical at 1, 2 and 8
//!    workers (timestamps may differ; structure may not). This holds for
//!    batches in which no two scenarios compile the same chip: a compile
//!    hit records an empty `fluidics.compile` span, and which of two
//!    such twins hits depends on the schedule. For twins, the runner's
//!    compile memo is pinned by its `fluidics.compile_hits` count.
//! 3. **Exports are well-formed**: the Chrome-trace JSON parses with
//!    correctly nested B/E pairs, folded stacks and the metrics snapshot
//!    pass their validators.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one lock and resets state on entry and exit.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread;

use micronano::core::runner::{
    conformance_corpus, AssayKind, FluidicsScenario, GrnModel, HarvestScenario, KnockoutScenario,
    LabChipScenario, NocScenario, Runner, Scenario, ScenarioOutcome, WsnScenario,
};
use micronano::grn::models::t_helper;
use micronano::noc::graph::CommGraph;
use micronano::policy::PolicyExpr;
use micronano::telemetry;
use micronano::wsn::protocol::Protocol;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seed of the committed corpus (must match `examples/regen_golden.rs`).
const CORPUS_SEED: u64 = 42;

static LOCK: Mutex<()> = Mutex::new(());

/// Uncached one-shot run at a given worker count (the old
/// `run_scenarios` shape, expressed through the consolidated API).
fn run_plain(batch: &[Scenario], workers: usize) -> Vec<ScenarioOutcome> {
    Runner::with_workers(workers).run(batch).outcomes
}

/// Runs `f` with exclusive ownership of the global telemetry state,
/// disabled and empty on entry and on exit.
fn isolated<T>(f: impl FnOnce() -> T) -> T {
    let _guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::disable();
    telemetry::reset();
    let out = f();
    telemetry::disable();
    telemetry::reset();
    out
}

fn golden_digests() -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus.txt");
    let text = std::fs::read_to_string(path).expect("tests/golden/corpus.txt is committed");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, digest) = l.rsplit_once(' ').expect("`label digest` lines");
            (label.to_owned(), digest.to_owned())
        })
        .collect()
}

/// A cheap mixed batch covering five scenario families, with a
/// deliberate duplicate so dedup interacts with the trace too.
fn cheap_batch(seed: u64, len: usize) -> Vec<Scenario> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batch: Vec<Scenario> = (0..len)
        .map(|_| match rng.gen_range(0..5u8) {
            0 => Scenario::Harvest(HarvestScenario {
                policy: PolicyExpr::Fixed(rng.gen_range(0.0..1.0)),
                days: rng.gen_range(1..4),
                cloudiness: rng.gen_range(0.0..1.0),
                seed: rng.gen_range(0..1_000),
            }),
            1 => Scenario::WsnLifetime(WsnScenario {
                nodes: rng.gen_range(10..25),
                side: rng.gen_range(60.0..120.0),
                protocol: if rng.gen() {
                    Protocol::Direct
                } else {
                    Protocol::tree(40.0, rng.gen())
                },
                failure_rate: 0.0,
                max_rounds: rng.gen_range(50..150),
                seed: rng.gen_range(0..1_000),
                policies: None,
            }),
            2 => Scenario::Knockout(KnockoutScenario {
                model: GrnModel::THelper,
                knockout: None,
            }),
            3 => Scenario::NocPoint(NocScenario {
                app: CommGraph::hotspot(rng.gen_range(4..10), 1.0),
                max_cluster: rng.gen_range(2..5),
                shortcuts: rng.gen_range(0..3),
            }),
            _ => Scenario::FluidicsCompile(FluidicsScenario {
                assay: AssayKind::Multiplex,
                plex: rng.gen_range(1..3),
                grid_side: 16,
                dead_fraction: 0.0,
                fault_seed: 0,
            }),
        })
        .collect();
    if len > 1 {
        let dup = batch[rng.gen_range(0..len / 2)].clone();
        batch.push(dup);
    }
    batch
}

#[test]
fn disabled_telemetry_leaves_golden_corpus_untouched() {
    isolated(|| {
        assert!(!telemetry::is_enabled(), "telemetry must default to off");
        let corpus = conformance_corpus(CORPUS_SEED);
        let outcomes = Runner::serial().run(&corpus).outcomes;
        // Nothing was recorded by the instrumented hot paths…
        assert!(telemetry::take_trace().is_empty());
        assert!(telemetry::snapshot().is_empty());
        // …and the digests still match the committed golden file.
        let golden = golden_digests();
        assert_eq!(golden.len(), corpus.len());
        for (scenario, outcome) in corpus.iter().zip(&outcomes) {
            let label = scenario.label();
            let expected = golden
                .get(&label)
                .unwrap_or_else(|| panic!("scenario `{label}` missing from golden file"));
            assert_eq!(
                *expected,
                outcome.digest().to_string(),
                "golden drift on `{label}` with telemetry linked in but disabled"
            );
        }
    });
}

#[test]
fn span_tree_structure_is_identical_across_worker_counts() {
    isolated(|| {
        let batch = cheap_batch(7, 8);
        let mut structures = Vec::new();
        let mut outcomes = Vec::new();
        for workers in [1usize, 2, 8] {
            telemetry::reset();
            telemetry::enable(Arc::new(telemetry::VirtualClock::default()));
            let out = run_plain(&batch, workers);
            telemetry::disable();
            let trace = telemetry::take_trace();
            assert!(!trace.is_empty(), "instrumented run must record spans");
            structures.push((workers, trace.structure()));
            outcomes.push(out);
        }
        let (_, reference) = &structures[0];
        for (workers, structure) in &structures[1..] {
            assert_eq!(
                reference, structure,
                "span tree shape diverged at {workers} workers"
            );
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        // Every non-duplicate scenario got its own task lane, plus the
        // untracked runner.run root.
        let reference = &structures[0].1;
        for line in ["[track 0] scenario.", "[untracked] runner.run"] {
            assert!(
                reference.contains(line),
                "expected `{line}` in:\n{reference}"
            );
        }
    });
}

#[test]
fn chrome_trace_and_folded_exports_validate() {
    isolated(|| {
        telemetry::enable(Arc::new(telemetry::VirtualClock::default()));
        let batch = cheap_batch(11, 6);
        let _ = run_plain(&batch, 4);
        telemetry::disable();
        let trace = telemetry::take_trace();
        let spans = trace.span_count();
        assert!(spans > 0);

        let chrome = telemetry::chrome_trace(&trace);
        let summary = telemetry::validate_chrome_trace(&chrome)
            .expect("chrome trace must parse with nested B/E pairs");
        assert_eq!(summary.spans, spans, "one B/E pair per span");
        assert_eq!(summary.events, 2 * spans);
        assert!(summary.tracks > 1, "task lanes plus the untracked lane");

        let folded = telemetry::folded_stacks(&trace);
        let stacks = telemetry::validate_folded(&folded).expect("folded stacks must validate");
        // Identical stacks from different tracks aggregate, so the line
        // count is the number of *distinct* stacks, never more than the
        // span count and at least the depth-1 variety of the batch.
        assert!(stacks > 0 && stacks <= spans, "{stacks} vs {spans}");
        assert!(folded.contains("runner.run "));
        assert!(folded.lines().any(|l| l.starts_with("scenario.")));

        let snap = telemetry::snapshot();
        assert!(!snap.counters.is_empty(), "the batch's layers count work");
        assert_eq!(
            telemetry::MetricsSnapshot::from_text(&snap.to_text()),
            Ok(snap),
            "the metrics snapshot text must read back exactly"
        );
    });
}

/// Two rounds of lab-on-chip runs over biology seeds 1 and 2: round 1
/// runs each seed once, round 2 runs both seeds in variants that round 1
/// did not (so no outcome is cached, but every sense is shared).
fn labchip_rounds() -> [Vec<Scenario>; 2] {
    let run = |seed, samples_per_run, dead_fraction| {
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed,
            samples_per_run,
            dead_fraction,
            fault_seed: 3,
        })
    };
    [
        vec![run(1, 2, 0.0), run(2, 2, 0.0)],
        vec![
            run(1, 1, 0.0),
            run(2, 1, 0.0),
            run(1, 2, 0.05),
            run(2, 2, 0.05),
        ],
    ]
}

/// Runs `f` with telemetry on; returns the `labchip.interpret_cache_hits`
/// it recorded next to its result.
fn sense_hits<T>(f: impl FnOnce() -> T) -> (u64, T) {
    counted("labchip.interpret_cache_hits", f)
}

/// Runs `f` with telemetry on; returns the value it left in `counter`
/// next to its result.
fn counted<T>(counter: &str, f: impl FnOnce() -> T) -> (u64, T) {
    telemetry::reset();
    telemetry::enable(Arc::new(telemetry::VirtualClock::default()));
    let out = f();
    telemetry::disable();
    let hits = telemetry::snapshot().counter(counter);
    telemetry::reset();
    (hits, out)
}

#[test]
fn the_runner_owns_the_sense_memo_and_its_workers_share_it() {
    isolated(|| {
        let rounds = labchip_rounds();
        let reference: Vec<Vec<ScenarioOutcome>> = rounds.iter().map(|r| run_plain(r, 1)).collect();

        // Round 1 puts each seed on its own worker. Round 2, and round 1
        // again after `clear_cache`, find every seed already sensed.
        let mut parallel = Runner::with_workers(2);
        for (round, want_hits) in [(0, 0), (1, rounds[1].len())] {
            let (hits, outcomes) = sense_hits(|| parallel.run(&rounds[round]).outcomes);
            assert_eq!(hits, want_hits as u64, "2 workers, round {}", round + 1);
            assert_eq!(outcomes, reference[round]);
        }
        parallel.clear_cache();
        let (hits, outcomes) = sense_hits(|| parallel.run(&rounds[0]).outcomes);
        assert_eq!(
            hits,
            rounds[0].len() as u64,
            "clear_cache keeps the stage memo"
        );
        assert_eq!(outcomes, reference[0]);

        // This thread's earlier serial runners sensed both seeds; a fresh
        // one still misses once per seed.
        for _ in 0..2 {
            let mut serial = Runner::serial();
            let (hits, outcomes) = sense_hits(|| {
                rounds
                    .iter()
                    .map(|r| serial.run(r).outcomes)
                    .collect::<Vec<_>>()
            });
            assert_eq!(hits, 6 - 2, "6 lab-on-chip runs over 2 seeds");
            assert_eq!(outcomes, reference);
        }

        // Outside a runner, calls on one thread share that thread's memo.
        let (hits, outcomes) = sense_hits(|| {
            thread::scope(|s| {
                s.spawn(|| [rounds[0][0].run(), rounds[1][0].run()])
                    .join()
                    .expect("bare runs")
            })
        });
        assert_eq!(hits, 1, "two bare runs of seed 1 on a fresh thread");
        assert_eq!(outcomes, [reference[0][0].clone(), reference[1][0].clone()]);
    });
}

/// The golden twins `fluidics/plex4-g16-dead0pm-s0` and
/// `labchip/seed42-n4-dead0pm-f0`, which compile the same chip: a 4-plex
/// multiplex assay on the fault-free default 16×16 array.
fn compile_twins() -> [Scenario; 2] {
    [
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 4,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed: 42,
            samples_per_run: 4,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
    ]
}

/// Runs `f` with telemetry on; returns the `fluidics.compile_hits` it
/// recorded and whether it recorded a `fluidics.route` span, next to its
/// result.
fn compile_hits<T>(f: impl FnOnce() -> T) -> (u64, bool, T) {
    telemetry::reset();
    telemetry::enable(Arc::new(telemetry::VirtualClock::default()));
    let out = f();
    telemetry::disable();
    let hits = telemetry::snapshot().counter("fluidics.compile_hits");
    let routed = telemetry::take_trace()
        .structure()
        .lines()
        .any(|l| l.trim_start().ends_with("fluidics.route"));
    telemetry::reset();
    (hits, routed, out)
}

#[test]
fn the_runner_owns_the_compile_memo_and_compile_twins_share_it() {
    isolated(|| {
        let twins = compile_twins();
        let golden = golden_digests();
        let digests = |outcomes: &[ScenarioOutcome]| -> Vec<String> {
            outcomes.iter().map(|o| o.digest().to_string()).collect()
        };
        let want: Vec<String> = twins.iter().map(|s| golden[&s.label()].clone()).collect();

        // A serial runner compiles the chip once for the pair. After
        // `clear_cache`, both twins find it compiled and nothing routes.
        let mut serial = Runner::serial();
        let (hits, routed, outcomes) = compile_hits(|| serial.run(&twins).outcomes);
        assert_eq!((hits, routed), (1, true), "a serial runner, first run");
        assert_eq!(digests(&outcomes), want);
        let reference = outcomes;
        serial.clear_cache();
        let (hits, routed, outcomes) = compile_hits(|| serial.run(&twins).outcomes);
        assert_eq!(
            (hits, routed),
            (2, false),
            "clear_cache keeps the compile memo"
        );
        assert_eq!(outcomes, reference);

        // Two workers that miss one key at once both compile it, so hits
        // are pinned only serially; outcomes are pinned at every count.
        for workers in [1usize, 2, 8] {
            let mut runner = Runner::with_workers(workers);
            for round in 0..2 {
                assert_eq!(
                    runner.run(&twins).outcomes,
                    reference,
                    "{workers} workers, round {}",
                    round + 1
                );
                runner.clear_cache();
            }
        }

        // Outside a runner, calls on one thread share that thread's memo.
        let (hits, _, outcomes) = compile_hits(|| {
            thread::scope(|s| {
                s.spawn(|| [twins[0].run(), twins[1].run()])
                    .join()
                    .expect("bare runs")
            })
        });
        assert_eq!(hits, 1, "two bare runs of the twins on a fresh thread");
        assert_eq!(outcomes.to_vec(), reference);
    });
}

#[test]
fn the_runner_owns_the_model_engines_and_knockouts_share_them() {
    isolated(|| {
        let screen: Vec<Scenario> = std::iter::once(None)
            .chain(t_helper().genes().iter().cloned().map(Some))
            .map(|knockout| {
                Scenario::Knockout(KnockoutScenario {
                    model: GrnModel::THelper,
                    knockout,
                })
            })
            .collect();
        assert_eq!(screen.len(), 24);

        // A serial runner builds the engine for the first point and
        // fetches it for the other 23; after `clear_cache`, for all 24.
        let mut serial = Runner::serial();
        let (hits, reference) = counted("grn.model_hits", || serial.run(&screen).outcomes);
        assert_eq!(hits, 23, "a serial runner, first run");
        serial.clear_cache();
        let (hits, outcomes) = counted("grn.model_hits", || serial.run(&screen).outcomes);
        assert_eq!(hits, 24, "clear_cache keeps the model engines");
        assert_eq!(outcomes, reference);

        // Two workers can both miss the model, so hits are pinned only
        // serially; outcomes are pinned at every count.
        for workers in [1usize, 2, 8] {
            let mut runner = Runner::with_workers(workers);
            for round in 0..2 {
                assert_eq!(
                    runner.run(&screen).outcomes,
                    reference,
                    "{workers} workers, round {}",
                    round + 1
                );
                runner.clear_cache();
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Differential: an instrumented run returns outcomes byte-identical
    // to a plain one, for random batches and worker counts.
    #[test]
    fn instrumented_outcomes_match_plain_outcomes(
        seed in 0u64..100_000,
        len in 2usize..6,
        workers in 1usize..9,
    ) {
        let batch = cheap_batch(seed, len);
        let (plain, instrumented) = isolated(|| {
            let plain = run_plain(&batch, workers);
            telemetry::enable(Arc::new(telemetry::VirtualClock::default()));
            let instrumented = run_plain(&batch, workers);
            telemetry::disable();
            (plain, instrumented)
        });
        prop_assert_eq!(plain.len(), instrumented.len());
        for (i, (p, t)) in plain.iter().zip(&instrumented).enumerate() {
            prop_assert_eq!(
                p, t,
                "batch seed {} scenario `{}` changed under telemetry at {} workers",
                seed, batch[i].label(), workers
            );
            prop_assert_eq!(p.digest(), t.digest());
        }
    }
}
