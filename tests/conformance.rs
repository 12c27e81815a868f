//! Golden-run conformance: the scenario engine's output is pinned.
//!
//! Five contracts, in increasing strength:
//!
//! 1. **Golden**: the serial digests of `conformance_corpus(42)` match
//!    the committed `tests/golden/corpus.txt` exactly. A mismatch means a
//!    behaviour change — regenerate with `cargo run --release --example
//!    regen_golden` and commit with a `[golden-update]` marker only if
//!    the change is intentional.
//! 2. **Parallel = serial**: 1-, 2- and 8-worker runs of the corpus are
//!    byte-identical to the serial reference (outcome equality is exact,
//!    floats by bit pattern).
//! 3. **Differential (property)**: the same holds for *random* scenario
//!    batches with duplicates, for random worker counts.
//! 4. **Merge algebra (property)**: [`BatchStats::merge`] is associative
//!    and order-insensitive on random stats, so a merged report cannot
//!    depend on the order in which shards finish.
//! 5. **Exact cache keys**: scenarios whose 64-bit fingerprints collide
//!    still get their own outcomes, through in-batch dedup, the
//!    cross-batch cache and a one-shard cluster.
//!
//! Sharded evaluation is pinned against the same golden file by
//! `tests/cluster_conformance.rs`: a cluster over every transport, at 1,
//! 2 and 4 shards.

use std::collections::BTreeMap;

use micronano::core::runner::{
    conformance_corpus, AssayKind, BatchStats, ClusterConfig, Digest, FluidicsScenario, GrnModel,
    HarvestScenario, KnockoutScenario, NocScenario, Runner, Scenario, ScenarioOutcome, ShardId,
    WorkerBatchStats, WsnScenario,
};
use micronano::dist::{Cluster, InProcess};
use micronano::noc::graph::CommGraph;
use micronano::policy::{PolicyAssignment, PolicyExpr};
use micronano::wsn::protocol::Protocol;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seed of the committed corpus (must match `examples/regen_golden.rs`).
const CORPUS_SEED: u64 = 42;

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

#[test]
fn serial_run_matches_golden_corpus() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let outcomes = Runner::serial().run(&corpus).outcomes;
    let golden = golden_digests();
    assert_eq!(
        golden.len(),
        corpus.len(),
        "golden file and corpus disagree on scenario count — \
         regenerate with `cargo run --release --example regen_golden`"
    );
    for (scenario, outcome) in corpus.iter().zip(&outcomes) {
        let label = scenario.label();
        let expected = golden
            .get(&label)
            .unwrap_or_else(|| panic!("scenario `{label}` missing from golden file"));
        let actual = outcome.digest().to_string();
        assert_eq!(
            *expected, actual,
            "golden drift on `{label}`: committed {expected}, got {actual}. \
             If intentional, regenerate the corpus and commit with [golden-update]."
        );
    }
}

/// Structural coverage of the committed golden file: every scenario
/// family the engine ships appears at least twice in `corpus.txt`, every
/// corpus label is actually pinned there, and every corpus scenario
/// passes `Scenario::validate`. Catches a corpus edit that silently drops
/// a family from conformance coverage.
#[test]
fn golden_corpus_covers_every_family_at_least_twice() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let golden = golden_digests();
    let mut per_family: BTreeMap<&'static str, usize> = BTreeMap::new();
    for scenario in &corpus {
        let label = scenario.label();
        assert_eq!(scenario.validate(), Ok(()), "corpus scenario `{label}`");
        assert!(
            golden.contains_key(&label),
            "corpus scenario `{label}` is not pinned in tests/golden/corpus.txt — \
             regenerate with `cargo run --release --example regen_golden`"
        );
        *per_family.entry(scenario.family()).or_insert(0) += 1;
    }
    for (family, count) in &per_family {
        assert!(
            *count >= 2,
            "family `{family}` appears only {count} time(s) in the golden corpus; \
             conformance needs at least two scenarios per family"
        );
    }
    // The corpus must keep covering all six engine families.
    assert_eq!(
        per_family.len(),
        6,
        "family set drift: {:?}",
        per_family.keys().collect::<Vec<_>>()
    );
    // And the assay axis itself: at least four distinct generators reach
    // the fluidics compiler through the corpus.
    let assay_kinds: std::collections::BTreeSet<&'static str> = corpus
        .iter()
        .filter_map(|s| match s {
            Scenario::FluidicsCompile(f) => Some(match f.assay {
                AssayKind::Multiplex => "multiplex",
                AssayKind::SerialDilution => "dilution",
                AssayKind::Washing { .. } => "wash",
                AssayKind::MixingTree { .. } => "mixtree",
                AssayKind::DilutionGradient => "gradient",
            }),
            _ => None,
        })
        .collect();
    assert!(
        assay_kinds.len() >= 4,
        "fluidics corpus exercises only {assay_kinds:?}"
    );
}

#[test]
fn parallel_runs_are_byte_identical_to_serial() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let reference = Runner::serial().run(&corpus).outcomes;
    for workers in [1usize, 2, 8] {
        let parallel = Runner::with_workers(workers).run(&corpus).outcomes;
        assert_eq!(
            reference.len(),
            parallel.len(),
            "outcome count drift at {workers} workers"
        );
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(
                r,
                p,
                "scenario `{}` diverged at {workers} workers",
                corpus[i].label()
            );
            assert_eq!(r.digest(), p.digest());
        }
    }
}

#[test]
fn cached_replay_is_byte_identical_to_fresh_run() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let mut runner = Runner::with_workers(4);
    let fresh = runner.run(&corpus).outcomes;
    let replay = runner.run(&corpus);
    assert_eq!(
        fresh, replay.outcomes,
        "cache replay must not change outcomes"
    );
    assert_eq!(
        replay.stats.executed, 0,
        "a full replay must be served entirely from the cache"
    );
    assert_eq!(replay.stats.cache_hits, corpus.len() as u64);
}

/// The harvest scenario of [`COLLIDING_SEEDS`] at `seed`.
fn harvest_at(seed: u64) -> Scenario {
    Scenario::Harvest(HarvestScenario {
        policy: PolicyExpr::Fixed(0.4),
        days: 2,
        cloudiness: 0.3,
        seed,
    })
}

/// Seed pairs whose [`harvest_at`] scenarios share a 64-bit hash: the
/// first under FNV-1a of a tagged field walk (tag, policy, days,
/// cloudiness, seed), the second under [`Scenario::fingerprint`].
const COLLIDING_SEEDS: [(u64, u64); 2] = [
    (18_090_154_252_756_592_668, 16_635_090_550_870_315_225),
    (3_088_675_031_352_765_424, 13_833_932_545_472_401_337),
];

#[test]
fn colliding_fingerprints_never_share_an_outcome() {
    for (a, b) in COLLIDING_SEEDS {
        let both = [harvest_at(a), harvest_at(b)];
        let expected: Vec<Digest> = both.iter().map(|s| s.run().digest()).collect();
        assert_ne!(expected[0], expected[1], "seeds {a} and {b}");

        let batch = Runner::serial().run(&both);
        assert_eq!(batch.digests(), expected, "one batch, seeds {a} and {b}");
        assert_eq!(batch.stats.executed, 2, "seeds {a} and {b}");

        let mut runner = Runner::serial();
        runner.run(&both[..1]);
        let warm = runner.run(&both[1..]);
        assert_eq!(warm.digests(), expected[1..], "warm cache, seed {b}");

        let config = ClusterConfig::new().workers(1).shards(1);
        let cluster = Cluster::new(InProcess::new(), config).run(&both);
        let digests: Vec<Digest> = cluster
            .outcomes
            .iter()
            .map(ScenarioOutcome::digest)
            .collect();
        assert_eq!(digests, expected, "one-shard cluster, seeds {a} and {b}");

        let mut cluster = Cluster::new(InProcess::new(), config);
        cluster.run(&both[..1]);
        let warm = cluster.run(&both[1..]);
        let digests: Vec<Digest> = warm.outcomes.iter().map(ScenarioOutcome::digest).collect();
        assert_eq!(digests, expected[1..], "warm cluster, seed {b}");
        assert_eq!(warm.stats.cache_hits, 0, "warm cluster, seed {b}");
    }
    // The second pair collides under `Scenario::fingerprint` itself, so
    // the test keeps proving that no cache decision reads the hash.
    let (a, b) = COLLIDING_SEEDS[1];
    assert_eq!(harvest_at(a).fingerprint(), 0xf277_a542_d257_fb83);
    assert_eq!(harvest_at(b).fingerprint(), 0xf277_a542_d257_fb83);
}

/// Draws a random (always-valid) policy expression: primitives at any
/// depth, combinators until the depth budget runs out.
fn random_policy(rng: &mut ChaCha8Rng, depth: usize) -> PolicyExpr {
    let variants = if depth >= 2 { 3 } else { 7u8 };
    match rng.gen_range(0..variants) {
        0 => PolicyExpr::Fixed(rng.gen_range(0.0..1.0)),
        1 => PolicyExpr::Greedy {
            threshold: rng.gen_range(0.1..0.5),
            duty_high: rng.gen_range(0.5..1.0),
            duty_low: rng.gen_range(0.0..0.1),
        },
        2 => PolicyExpr::EnergyNeutral {
            alpha: rng.gen_range(0.001..0.1),
        },
        3 => PolicyExpr::Forecast {
            alpha: rng.gen_range(0.01..0.5),
        },
        4 => PolicyExpr::Derate {
            inner: Box::new(random_policy(rng, depth + 1)),
            fade: rng.gen_range(0.0..0.5),
            floor: rng.gen_range(0.0..0.5),
        },
        5 => {
            let low = rng.gen_range(0.05..0.4);
            PolicyExpr::Hysteresis {
                low,
                high: rng.gen_range(low + 0.1..0.95),
                on: Box::new(random_policy(rng, depth + 1)),
                off: Box::new(random_policy(rng, depth + 1)),
            }
        }
        _ => PolicyExpr::Clamp {
            inner: Box::new(random_policy(rng, depth + 1)),
            lo: rng.gen_range(0.0..0.3),
            hi: rng.gen_range(0.5..1.0),
        },
    }
}

/// Builds a random batch of *cheap* scenarios — every family except the
/// full lab-on-chip pipeline (too slow for a proptest inner loop), with
/// deliberate duplicates so the differential test also exercises
/// within-batch dedup against the parallel path.
fn random_batch(seed: u64, len: usize) -> Vec<Scenario> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batch: Vec<Scenario> = (0..len)
        .map(|_| match rng.gen_range(0..5u8) {
            0 => Scenario::Harvest(HarvestScenario {
                policy: random_policy(&mut rng, 0),
                days: rng.gen_range(1..4),
                cloudiness: rng.gen_range(0.0..1.0),
                seed: rng.gen_range(0..1_000),
            }),
            1 => Scenario::WsnLifetime(WsnScenario {
                nodes: rng.gen_range(10..30),
                side: rng.gen_range(60.0..150.0),
                protocol: match rng.gen_range(0..3u8) {
                    0 => Protocol::Direct,
                    1 => Protocol::tree(40.0, rng.gen()),
                    _ => Protocol::cluster(0.1, rng.gen()),
                },
                failure_rate: rng.gen_range(0.0..0.01),
                max_rounds: rng.gen_range(50..200),
                seed: rng.gen_range(0..1_000),
                policies: match rng.gen_range(0..3u8) {
                    0 => None,
                    1 => Some(PolicyAssignment::Uniform(random_policy(&mut rng, 0))),
                    _ => Some(PolicyAssignment::RoundRobin(
                        (0..rng.gen_range(1..4usize))
                            .map(|_| random_policy(&mut rng, 0))
                            .collect(),
                    )),
                },
            }),
            2 => Scenario::Knockout(KnockoutScenario {
                model: if rng.gen() {
                    GrnModel::THelper
                } else {
                    GrnModel::Arabidopsis {
                        whorl: rng.gen_range(0..4),
                    }
                },
                knockout: None,
            }),
            3 => Scenario::NocPoint(NocScenario {
                app: CommGraph::hotspot(rng.gen_range(4..12), 1.0),
                max_cluster: rng.gen_range(2..6),
                shortcuts: rng.gen_range(0..4),
            }),
            _ => Scenario::FluidicsCompile(FluidicsScenario {
                assay: AssayKind::Multiplex,
                plex: rng.gen_range(1..3),
                grid_side: 16,
                dead_fraction: rng.gen_range(0.0..0.05),
                fault_seed: rng.gen_range(0..100),
            }),
        })
        .collect();
    // Duplicate a random prefix element to the tail.
    if len > 1 {
        let dup = batch[rng.gen_range(0..len / 2)].clone();
        batch.push(dup);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn differential_serial_vs_parallel(
        seed in 0u64..100_000,
        len in 2usize..7,
        workers in 2usize..9,
    ) {
        let batch = random_batch(seed, len);
        let serial = Runner::with_workers(1)
            .run(&batch)
            .outcomes;
        let parallel = Runner::with_workers(workers)
            .run(&batch)
            .outcomes;
        prop_assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            prop_assert_eq!(
                s, p,
                "batch seed {} scenario `{}` diverged at {} workers",
                seed, batch[i].label(), workers
            );
            prop_assert_eq!(s.digest(), p.digest());
        }
    }

    #[test]
    fn differential_cached_vs_uncached(
        seed in 0u64..100_000,
        len in 2usize..6,
    ) {
        let batch = random_batch(seed, len);
        let uncached = Runner::with_workers(4)
            .run(&batch)
            .outcomes;
        let mut runner = Runner::with_workers(4);
        let warm = runner.run(&batch).outcomes;
        let cached = runner.run(&batch).outcomes;
        prop_assert_eq!(&uncached, &warm);
        prop_assert_eq!(&warm, &cached);
    }
}

/// A random-but-plausible `BatchStats`, derived deterministically from
/// `seed` (the vendored proptest has no composite strategies, so the
/// properties draw seeds and expand them here).
fn random_stats(seed: u64) -> BatchStats {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shard = ShardId(rng.gen_range(0..4u32));
    let per_worker = (0..rng.gen_range(0..4usize))
        .map(|_| WorkerBatchStats {
            shard,
            worker: rng.gen_range(0..4u32),
            executed: rng.gen_range(0..40),
            steals: rng.gen_range(0..10),
        })
        .collect();
    BatchStats {
        shard,
        scenarios: rng.gen_range(0..100),
        executed: rng.gen_range(0..100),
        cache_hits: rng.gen_range(0..50),
        deduped: rng.gen_range(0..50),
        steals: rng.gen_range(0..20),
        per_worker,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): a scheduler may merge shard results in
    // any grouping as workers finish.
    #[test]
    fn merge_is_associative(
        sa in 0u64..1_000_000,
        sb in 0u64..1_000_000,
        sc in 0u64..1_000_000,
    ) {
        let (a, b, c) = (random_stats(sa), random_stats(sb), random_stats(sc));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    // Merging a permutation of the same parts yields the same report.
    #[test]
    fn merge_is_order_insensitive(
        seeds in collection::vec(0u64..1_000_000, 1..5),
        i in 0usize..4,
        j in 0usize..4,
    ) {
        let parts: Vec<BatchStats> = seeds.iter().map(|&s| random_stats(s)).collect();
        let forward = BatchStats::merged(&parts);
        let mut shuffled: Vec<BatchStats> = parts.iter().rev().cloned().collect();
        shuffled.swap(i % parts.len(), j % parts.len());
        prop_assert_eq!(forward, BatchStats::merged(&shuffled));
    }
}
