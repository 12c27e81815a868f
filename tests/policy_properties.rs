//! Property tests for the composable energy-policy engine (`mns-policy`).
//!
//! Four contracts:
//!
//! 1. **Differential**: for the three primitive policies, the composable
//!    engine (`simulate_policy`) is byte-identical to the retained
//!    reference loop (`simulate_harvesting` over `DutyPolicy`) on random
//!    harvesting configurations — floats compared by bit pattern.
//! 2. **Monotonicity**: greedy duty is non-decreasing in battery level,
//!    and a hysteresis composite never raises its duty on a falling
//!    battery trace (nor lowers it on a rising one).
//! 3. **Energy conservation**: with battery-health derating engaged,
//!    initial charge + harvest = final charge + overflow + discharge.
//! 4. **Engine determinism**: random mixed-policy batches produce
//!    byte-identical digests serially, at 2 and 8 workers, and through
//!    a 2-shard in-process cluster.

use micronano::core::runner::{ClusterConfig, HarvestScenario, Runner, Scenario, WsnScenario};
use micronano::dist::{Cluster, InProcess};
use micronano::policy::{Policy, PolicyAssignment, PolicyExpr, SlotCtx};
use micronano::wsn::harvest::{
    simulate_harvesting, simulate_policy, DutyPolicy, HarvestConfig, SolarModel,
};
use micronano::wsn::protocol::Protocol;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random-but-valid harvest configuration (kept small: at most three
/// simulated days so the proptest inner loop stays fast).
fn random_config(rng: &mut ChaCha8Rng) -> HarvestConfig {
    HarvestConfig {
        battery_capacity: rng.gen_range(50.0..2_000.0),
        initial_fraction: rng.gen_range(0.0..1.0),
        active_power: rng.gen_range(0.01..0.2),
        sleep_power: rng.gen_range(0.0001..0.005),
        slot: rng.gen_range(120.0..1_800.0),
        days: rng.gen_range(1..4),
        solar: SolarModel {
            peak_power: rng.gen_range(0.01..0.2),
            day_length: 86_400.0,
            cloudiness: rng.gen_range(0.0..1.0),
        },
        seed: rng.gen_range(0..10_000),
    }
}

fn random_primitive(rng: &mut ChaCha8Rng) -> DutyPolicy {
    match rng.gen_range(0..3u8) {
        0 => DutyPolicy::Fixed(rng.gen_range(0.0..1.0)),
        1 => DutyPolicy::Greedy {
            threshold: rng.gen_range(0.05..0.8),
            duty_high: rng.gen_range(0.3..1.0),
            duty_low: rng.gen_range(0.0..0.3),
        },
        _ => DutyPolicy::EnergyNeutral {
            alpha: rng.gen_range(0.001..0.2),
        },
    }
}

/// Random (always-valid) policy expression, combinators until the depth
/// budget runs out. Mirrors the generator in `tests/conformance.rs`.
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

/// Number of `Derate` nodes that tick every slot. Hysteresis evaluates
/// both branches each slot (to keep estimators warm), so both count.
fn derate_nodes(expr: &PolicyExpr) -> u64 {
    match expr {
        PolicyExpr::Fixed(_)
        | PolicyExpr::Greedy { .. }
        | PolicyExpr::EnergyNeutral { .. }
        | PolicyExpr::Forecast { .. } => 0,
        PolicyExpr::Derate { inner, .. } => 1 + derate_nodes(inner),
        PolicyExpr::Hysteresis { on, off, .. } => derate_nodes(on) + derate_nodes(off),
        PolicyExpr::Scheduled { pieces } => pieces.iter().map(|(_, p)| derate_nodes(p)).sum(),
        PolicyExpr::Clamp { inner, .. } => derate_nodes(inner),
    }
}

fn ctx_with_battery(battery: f64, capacity: f64) -> SlotCtx {
    SlotCtx {
        slot: 0,
        slot_of_day: 0,
        slots_per_day: 144,
        day: 0,
        slot_seconds: 600.0,
        battery,
        capacity,
        battery_fraction: battery / capacity,
        harvest_power: 0.02,
        active_power: 0.06,
        sleep_power: 0.001,
        discharged: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Contract 1: the composable engine replays the reference loop
    // byte-for-byte on every primitive policy.
    #[test]
    fn primitives_are_byte_identical_to_reference(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = random_config(&mut rng);
        let reference = random_primitive(&mut rng);
        let want = simulate_harvesting(reference, &config);
        let got = simulate_policy(&PolicyExpr::from(reference), &config);
        // Struct equality first (clear failure message), then the strict
        // bit-pattern check on every float field.
        prop_assert_eq!(want, got, "policy {}", reference.label());
        for (name, w, g) in [
            ("work", want.work, got.work),
            ("uptime", want.uptime, got.uptime),
            ("wasted", want.wasted, got.wasted),
            ("min_battery", want.min_battery, got.min_battery),
            ("harvested", want.harvested, got.harvested),
            ("final_battery", want.final_battery, got.final_battery),
            ("cycles", want.cycles, got.cycles),
        ] {
            prop_assert_eq!(
                w.to_bits(), g.to_bits(),
                "{} drifted: reference {} vs engine {}", name, w, g
            );
        }
    }

    // Contract 2a: greedy duty is monotone non-decreasing in battery.
    #[test]
    fn greedy_duty_is_monotone_in_battery(
        threshold in 0.05f64..0.9,
        duty_high in 0.5f64..1.0,
        duty_low in 0.0f64..0.5,
        b1 in 0.0f64..800.0,
        b2 in 0.0f64..800.0,
    ) {
        let expr = PolicyExpr::greedy(threshold, duty_high, duty_low).unwrap();
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let d_lo = expr.evaluator().duty(&ctx_with_battery(lo, 800.0));
        let d_hi = expr.evaluator().duty(&ctx_with_battery(hi, 800.0));
        prop_assert!(
            d_lo <= d_hi,
            "duty({lo}) = {d_lo} > duty({hi}) = {d_hi}"
        );
    }

    // Contract 2b: a hysteresis composite of fixed duties never raises
    // its duty while the battery falls, and never lowers it while the
    // battery rises — no flapping inside the band.
    #[test]
    fn hysteresis_is_monotone_on_monotone_traces(
        low in 0.05f64..0.4,
        band in 0.15f64..0.5,
        duty_on in 0.5f64..1.0,
        duty_off in 0.0f64..0.5,
    ) {
        let expr = PolicyExpr::hysteresis(
            low,
            (low + band).min(0.95),
            PolicyExpr::Fixed(duty_on),
            PolicyExpr::Fixed(duty_off),
        )
        .unwrap();

        let mut eval = expr.evaluator();
        let mut prev = f64::INFINITY;
        for step in 0..=40 {
            let battery = 800.0 * (1.0 - step as f64 / 40.0);
            let duty = eval.duty(&ctx_with_battery(battery, 800.0));
            prop_assert!(duty <= prev, "duty rose to {duty} on a falling trace");
            prev = duty;
        }

        let mut eval = expr.evaluator();
        // Start discharged so the off-branch engages first.
        let mut prev = -1.0f64;
        for step in 0..=40 {
            let battery = 800.0 * (step as f64 / 40.0);
            let duty = eval.duty(&ctx_with_battery(battery, 800.0));
            // First slot may trip the engaged→off transition; from then
            // on the duty can only climb.
            if step > 0 {
                prop_assert!(duty >= prev, "duty fell to {duty} on a rising trace");
            }
            prev = duty;
        }
    }

    // Contract 3: energy conservation holds with derating engaged —
    // every joule is income, stored charge, overflow, or discharge.
    #[test]
    fn energy_is_conserved_under_derating(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = random_config(&mut rng);
        let expr = PolicyExpr::Derate {
            inner: Box::new(random_policy(&mut rng, 1)),
            fade: rng.gen_range(0.0..0.6),
            floor: rng.gen_range(0.0..0.5),
        };
        let stats = simulate_policy(&expr, &config);

        let initial = config.battery_capacity * config.initial_fraction;
        let discharge = stats.cycles * config.battery_capacity;
        let lhs = initial + stats.harvested;
        let rhs = stats.final_battery + stats.wasted + discharge;
        let scale = lhs.abs().max(1.0);
        prop_assert!(
            (lhs - rhs).abs() <= 1e-6 * scale,
            "conservation violated: in {lhs} != out {rhs}"
        );
        prop_assert!(stats.derate_events <= stats.total_slots * derate_nodes(&expr));
        prop_assert_eq!(stats.policy_evals, stats.total_slots);
        prop_assert!(stats.min_battery >= 0.0);
    }

    // Contract 4: random mixed-policy batches digest identically
    // serially, at 2 and 8 workers, and through a 2-shard cluster.
    #[test]
    fn mixed_policy_batches_digest_identically(seed in 0u64..100_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let batch: Vec<Scenario> = (0..4)
            .map(|_| {
                if rng.gen() {
                    Scenario::Harvest(HarvestScenario {
                        policy: random_policy(&mut rng, 0),
                        days: rng.gen_range(1..3),
                        cloudiness: rng.gen_range(0.0..1.0),
                        seed: rng.gen_range(0..1_000),
                    })
                } else {
                    Scenario::WsnLifetime(WsnScenario {
                        nodes: rng.gen_range(10..25),
                        side: rng.gen_range(60.0..150.0),
                        protocol: if rng.gen() {
                            Protocol::cluster(0.1, true)
                        } else {
                            Protocol::Direct
                        },
                        failure_rate: rng.gen_range(0.0..0.01),
                        max_rounds: rng.gen_range(50..150),
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
                    })
                }
            })
            .collect();

        let serial = Runner::with_workers(1)
            .run(&batch)
            .outcomes;
        for workers in [2usize, 8] {
            let parallel = Runner::with_workers(workers)
                .run(&batch)
                .outcomes;
            prop_assert_eq!(&serial, &parallel, "diverged at {} workers", workers);
        }
        let config = ClusterConfig::new().threads_per_worker(4).shards(2);
        let sharded = Cluster::new(InProcess::new(), config).run(&batch).outcomes;
        prop_assert_eq!(serial.len(), sharded.len());
        for (s, p) in serial.iter().zip(&sharded) {
            prop_assert_eq!(s, p, "cluster run diverged");
            prop_assert_eq!(s.digest(), p.digest());
        }
    }
}

/// The ledger identity also holds for the reference loop and for
/// arbitrary composite policies (not just derated ones).
#[test]
fn conservation_holds_for_reference_and_composites() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..8 {
        let config = random_config(&mut rng);
        let initial = config.battery_capacity * config.initial_fraction;

        let reference = random_primitive(&mut rng);
        let s = simulate_harvesting(reference, &config);
        let rhs = s.final_battery + s.wasted + s.cycles * config.battery_capacity;
        assert!(
            (initial + s.harvested - rhs).abs() <= 1e-6 * (initial + s.harvested).max(1.0),
            "reference conservation violated for {}",
            reference.label()
        );

        let expr = random_policy(&mut rng, 0);
        let s = simulate_policy(&expr, &config);
        let rhs = s.final_battery + s.wasted + s.cycles * config.battery_capacity;
        assert!(
            (initial + s.harvested - rhs).abs() <= 1e-6 * (initial + s.harvested).max(1.0),
            "engine conservation violated for {}",
            expr.label()
        );
    }
}
