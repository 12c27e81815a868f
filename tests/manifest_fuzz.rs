//! Fuzz-style hardening of the manifest wire format.
//!
//! The cluster scheduler feeds worker-supplied bytes straight into
//! `parse_manifest` / `parse_outcomes`, so a corrupt or torn TCP frame
//! must never be able to panic the process — parsing is **total**: every
//! input either decodes or returns an error.
//!
//! Strategy (vendored proptest has no tuple strategies, so each case
//! draws one `u64` seed and expands it with ChaCha8): take a valid
//! manifest and a valid outcome file, apply random byte mutations —
//! overwrites, truncations, splices — and parse the lossy-UTF-8 result.
//! A separate case parses pure random bytes. The unmutated texts must
//! keep round-tripping, pinning that the hardening did not reject valid
//! input. Every scenario the decoder returns passes `Scenario::validate`,
//! and a scenario whose checked fields sit on the bounds that validator
//! enforces decodes from its record and runs without panicking.

use std::sync::OnceLock;

use micronano::core::runner::manifest::{
    decode_outcome, decode_scenario, encode_scenario, parse_manifest, parse_outcomes,
    write_manifest, write_outcomes,
};
use micronano::core::runner::{
    conformance_corpus, AssayKind, FluidicsScenario, GrnModel, HarvestScenario, KnockoutScenario,
    NocScenario, Runner, Scenario, ScenarioOutcome, ShardId, WsnScenario,
};
use micronano::grn::models::{arabidopsis, t_helper, FloralInputs};
use micronano::noc::graph::CommGraph;
use micronano::policy::{PolicyAssignment, PolicyExpr};
use micronano::wsn::protocol::Protocol;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A valid manifest over the full corpus (cheap: no evaluation).
fn base_manifest() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let corpus = conformance_corpus(42);
        let entries: Vec<(usize, &Scenario)> = corpus.iter().enumerate().collect();
        write_manifest(ShardId(3), &entries)
    })
}

/// A valid outcome file over a cheap corpus subset (evaluated once).
fn base_outcomes() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let corpus: Vec<Scenario> = conformance_corpus(42)
            .into_iter()
            .filter(|s| matches!(s, Scenario::Knockout(_) | Scenario::Harvest(_)))
            .take(6)
            .collect();
        let mut report = Runner::serial().run(&corpus);
        report.stats.shard = ShardId(3);
        let pairs: Vec<(usize, ScenarioOutcome)> = (0..corpus.len()).zip(report.outcomes).collect();
        write_outcomes(&report.stats, &pairs)
    })
}

/// Random (always-valid) policy expression — primitives at any depth,
/// combinators until the depth budget runs out. Mirrors the generator in
/// `tests/conformance.rs` so the fuzzed records cover every wire token.
fn random_policy(rng: &mut ChaCha8Rng, depth: usize) -> PolicyExpr {
    let variants = if depth >= 2 { 3 } else { 8u8 };
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
        6 => {
            let mut start = 0u64;
            let pieces = (0..rng.gen_range(1..4usize))
                .map(|k| {
                    if k > 0 {
                        start += rng.gen_range(1..10u64);
                    }
                    (start, random_policy(rng, depth + 1))
                })
                .collect();
            PolicyExpr::Scheduled { pieces }
        }
        _ => PolicyExpr::Clamp {
            inner: Box::new(random_policy(rng, depth + 1)),
            lo: rng.gen_range(0.0..0.3),
            hi: rng.gen_range(0.5..1.0),
        },
    }
}

/// A policy-heavy scenario record: either a harvest run under a deep
/// composite expression or a lifetime run with a per-node assignment.
fn random_policy_record(rng: &mut ChaCha8Rng) -> String {
    let scenario = if rng.gen() {
        Scenario::Harvest(HarvestScenario {
            policy: random_policy(rng, 0),
            days: rng.gen_range(1..5),
            cloudiness: rng.gen_range(0.0..1.0),
            seed: rng.gen_range(0..1_000),
        })
    } else {
        Scenario::WsnLifetime(WsnScenario {
            nodes: rng.gen_range(10..40),
            side: rng.gen_range(60.0..200.0),
            protocol: Protocol::cluster(0.1, true),
            failure_rate: rng.gen_range(0.0..0.01),
            max_rounds: rng.gen_range(50..300),
            seed: rng.gen_range(0..1_000),
            policies: match rng.gen_range(0..3u8) {
                0 => None,
                1 => Some(PolicyAssignment::Uniform(random_policy(rng, 0))),
                _ => Some(PolicyAssignment::RoundRobin(
                    (0..rng.gen_range(1..5usize))
                        .map(|_| random_policy(rng, 0))
                        .collect(),
                )),
            },
        })
    };
    encode_scenario(&scenario)
}

/// One of `options`, drawn uniformly.
fn pick<T: Clone>(rng: &mut ChaCha8Rng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())].clone()
}

/// A policy whose parameters sit on the bounds `PolicyExpr::validate`
/// enforces: duties, fades and floors of 0 or 1, smoothing factors of
/// `f64::MIN_POSITIVE` or 1, the widest and narrowest bands and ranges.
fn boundary_policy(rng: &mut ChaCha8Rng) -> PolicyExpr {
    let mut unit = || pick(rng, &[0.0, 1.0]);
    let (a, b, c) = (unit(), unit(), unit());
    let alpha = pick(rng, &[f64::MIN_POSITIVE, 1.0]);
    let full = Box::new(PolicyExpr::Fixed(1.0));
    match rng.gen_range(0..8u8) {
        0 => PolicyExpr::Fixed(a),
        1 => PolicyExpr::Greedy {
            threshold: a,
            duty_high: b,
            duty_low: c,
        },
        2 => PolicyExpr::EnergyNeutral { alpha },
        3 => PolicyExpr::Forecast { alpha },
        4 => PolicyExpr::Derate {
            inner: full,
            fade: a,
            floor: b,
        },
        5 => PolicyExpr::Hysteresis {
            low: 0.0,
            high: alpha,
            on: full,
            off: Box::new(PolicyExpr::Fixed(0.0)),
        },
        6 => PolicyExpr::Scheduled {
            pieces: vec![(0, PolicyExpr::Fixed(a)), (1, PolicyExpr::Fixed(b))],
        },
        _ => PolicyExpr::Clamp {
            inner: full,
            lo: a,
            hi: a.max(b),
        },
    }
}

/// A cheap scenario whose checked fields sit on or next to the bounds
/// `Scenario::validate` enforces: a 3×3 or 4×4 array, a scale of 1 or
/// 2, dead fractions of 0 and 1, one or two cores per router, one or two
/// nodes on the smallest or largest finite side, tree radio ranges and
/// head probabilities of `f64::MIN_POSITIVE` and the largest allowed
/// value, failure rates and cloudiness of 0 and 1, one harvest day, the
/// last Arabidopsis whorl and any gene of a model. Lab-chip runs are left
/// out: they are not cheap, and their checked fields, the scale and the
/// dead fraction, obey the rules the fluidics runs cover.
fn boundary_scenario(rng: &mut ChaCha8Rng) -> Scenario {
    match rng.gen_range(0..5u8) {
        0 => Scenario::FluidicsCompile(FluidicsScenario {
            assay: pick(
                rng,
                &[
                    AssayKind::Multiplex,
                    AssayKind::SerialDilution,
                    AssayKind::Washing { wash_steps: 1 },
                    AssayKind::MixingTree { fanin: 2 },
                    AssayKind::DilutionGradient,
                ],
            ),
            plex: rng.gen_range(1..3),
            grid_side: rng.gen_range(3..5),
            dead_fraction: pick(rng, &[0.0, 1.0]),
            fault_seed: rng.gen_range(0..100),
        }),
        1 => Scenario::NocPoint(NocScenario {
            app: CommGraph::random(rng.gen_range(2..6), 0.5, 1.0, rng),
            max_cluster: rng.gen_range(1..3),
            shortcuts: rng.gen_range(0..3),
        }),
        2 => Scenario::WsnLifetime(WsnScenario {
            nodes: rng.gen_range(1..3),
            side: pick(rng, &[f64::MIN_POSITIVE, 100.0, f64::MAX]),
            protocol: match rng.gen_range(0..3u8) {
                0 => Protocol::Direct,
                1 => Protocol::tree(pick(rng, &[f64::MIN_POSITIVE, f64::MAX]), rng.gen()),
                _ => Protocol::cluster(pick(rng, &[f64::MIN_POSITIVE, 1.0]), rng.gen()),
            },
            failure_rate: pick(rng, &[0.0, 1.0]),
            max_rounds: rng.gen_range(0..40),
            seed: rng.gen_range(0..1_000),
            policies: rng
                .gen::<bool>()
                .then(|| PolicyAssignment::Uniform(boundary_policy(rng))),
        }),
        3 => Scenario::Harvest(HarvestScenario {
            policy: boundary_policy(rng),
            days: 1,
            cloudiness: pick(rng, &[0.0, 1.0]),
            seed: rng.gen_range(0..1_000),
        }),
        _ => {
            let model = pick(
                rng,
                &[GrnModel::THelper, GrnModel::Arabidopsis { whorl: 3 }],
            );
            let net = match model {
                GrnModel::THelper => t_helper(),
                GrnModel::Arabidopsis { whorl } => arabidopsis(FloralInputs::whorls()[whorl]),
            };
            Scenario::Knockout(KnockoutScenario {
                model,
                knockout: rng.gen::<bool>().then(|| pick(rng, net.genes())),
            })
        }
    }
}

/// Applies `count` random mutations — overwrite, truncate or splice —
/// and returns the result as lossy UTF-8.
fn mutate(text: &str, rng: &mut ChaCha8Rng, count: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..count {
        if bytes.is_empty() {
            break;
        }
        match rng.gen_range(0..4u8) {
            0 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen::<u8>();
            }
            1 => {
                let at = rng.gen_range(0..bytes.len());
                bytes.truncate(at);
            }
            2 => {
                let at = rng.gen_range(0..=bytes.len());
                let extra: Vec<u8> = (0..rng.gen_range(1..16usize))
                    .map(|_| rng.gen::<u8>())
                    .collect();
                bytes.splice(at..at, extra);
            }
            _ => {
                let at = rng.gen_range(0..bytes.len());
                bytes.remove(at);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feeds one text to every parser in the wire format; only the return
/// values matter — nothing here may panic.
fn parse_everything(text: &str) {
    if let Ok((_, entries)) = parse_manifest(text) {
        for (_, scenario) in entries {
            assert_eq!(scenario.validate(), Ok(()), "{scenario:?}");
        }
    }
    let _ = parse_outcomes(text);
    for line in text.lines().take(64) {
        if let Ok(scenario) = decode_scenario(line) {
            assert_eq!(scenario.validate(), Ok(()), "decoded from `{line}`");
        }
        let _ = decode_outcome(line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_manifests_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let count = rng.gen_range(1..24usize);
        parse_everything(&mutate(base_manifest(), &mut rng, count));
    }

    #[test]
    fn mutated_outcome_files_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let count = rng.gen_range(1..24usize);
        parse_everything(&mutate(base_outcomes(), &mut rng, count));
    }

    #[test]
    fn random_bytes_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = rng.gen_range(0..512usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        parse_everything(&String::from_utf8_lossy(&bytes));
    }

    // Policy-expression tokens survive arbitrary byte mutations: the
    // decoder either returns an error or a *validated* scenario — it
    // must never panic and never accept a policy that fails validation.
    #[test]
    fn mutated_policy_records_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let record = random_policy_record(&mut rng);
        let count = rng.gen_range(1..16usize);
        let mutated = mutate(&record, &mut rng, count);
        if let Ok(scenario) = decode_scenario(&mutated) {
            match &scenario {
                Scenario::Harvest(h) => assert!(h.policy.validate().is_ok()),
                Scenario::WsnLifetime(w) => {
                    if let Some(a) = &w.policies {
                        assert!(a.validate().is_ok());
                    }
                }
                _ => {}
            }
        }
        parse_everything(&mutated);
    }

    // Garbage spliced specifically into the policy-token tail of a
    // record (the part after the scenario discriminant) never panics.
    #[test]
    fn garbage_policy_tails_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let record = random_policy_record(&mut rng);
        let mut cut = rng.gen_range(0..=record.len());
        while !record.is_char_boundary(cut) {
            cut -= 1;
        }
        let tail_len = rng.gen_range(0..24usize);
        let tokens = ["fixed", "greedy", "neutral", "forecast", "derate", "hyst",
                      "sched", "clamp", "policies", "uniform", "mix", "nan", "inf",
                      "-1", "0.5", "1e308", "99999999999999999999", ""];
        let mut garbled = record[..cut].to_owned();
        for _ in 0..tail_len {
            garbled.push(' ');
            garbled.push_str(tokens[rng.gen_range(0..tokens.len())]);
        }
        let _ = decode_scenario(&garbled);
        parse_everything(&garbled);
    }

    // Unmutated policy records round-trip byte-identically: decode then
    // re-encode reproduces the exact wire bytes.
    #[test]
    fn policy_records_round_trip_byte_identically(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let record = random_policy_record(&mut rng);
        let decoded = decode_scenario(&record).expect("valid record decodes");
        prop_assert_eq!(decoded.validate(), Ok(()));
        prop_assert_eq!(
            encode_scenario(&decoded),
            record,
            "re-encoding drifted from the original wire bytes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // A scenario on the bounds `Scenario::validate` enforces is accepted,
    // comes back from its wire record unchanged, and runs without
    // panicking.
    #[test]
    fn scenarios_on_the_validation_bounds_decode_and_run(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scenario = boundary_scenario(&mut rng);
        prop_assert_eq!(scenario.validate(), Ok(()));
        let record = encode_scenario(&scenario);
        prop_assert_eq!(decode_scenario(&record).as_ref(), Ok(&scenario));
        let _ = scenario.run();
    }
}

#[test]
fn unmutated_bases_still_round_trip() {
    let (shard, entries) = parse_manifest(base_manifest()).expect("valid manifest parses");
    assert_eq!(shard, ShardId(3));
    assert_eq!(entries.len(), conformance_corpus(42).len());
    let (stats, outcomes) = parse_outcomes(base_outcomes()).expect("valid outcomes parse");
    assert_eq!(stats.shard, ShardId(3));
    assert_eq!(outcomes.len(), 6);
}
