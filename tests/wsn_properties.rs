//! Property-based tests of the sensor-network simulators: conservation
//! and boundedness invariants must hold for every protocol, field and
//! failure regime.

use micronano::policy::PolicyExpr;
use micronano::wsn::field::Field;
use micronano::wsn::harvest::{simulate_policy, HarvestConfig, SolarModel};
use micronano::wsn::protocol::Protocol;
use micronano::wsn::sim::{simulate_lifetime, LifetimeConfig};
use proptest::prelude::*;

fn any_protocol(which: u8) -> Protocol {
    match which % 5 {
        0 => Protocol::Direct,
        1 => Protocol::tree(40.0, false),
        2 => Protocol::tree(40.0, true),
        3 => Protocol::cluster(0.1, false),
        _ => Protocol::cluster(0.1, true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lifetime_stats_invariants(
        seed in 0u64..50_000,
        nodes in 10usize..60,
        side in 60.0f64..200.0,
        which in 0u8..5,
        failure in 0.0f64..0.01,
    ) {
        let field = Field::random(nodes, side, seed);
        let cfg = LifetimeConfig {
            max_rounds: 400,
            failure_rate: failure,
            seed,
            ..LifetimeConfig::default()
        };
        let s = simulate_lifetime(&field, any_protocol(which), &cfg);
        prop_assert!(s.delivered <= s.sensed, "{} > {}", s.delivered, s.sensed);
        prop_assert!(s.rounds <= cfg.max_rounds);
        prop_assert!(s.first_death_round <= s.half_death_round);
        prop_assert!(s.half_death_round <= s.rounds);
        prop_assert!((0.0..=1.0).contains(&s.delivered_ratio));
        prop_assert!((0.0..=1.0).contains(&s.avg_coverage));
        prop_assert!(s.energy_spent >= 0.0);
        // Energy conservation: the network cannot spend more than it had
        // (battery-only run).
        prop_assert!(
            s.energy_spent <= nodes as f64 * cfg.initial_energy + 1e-9,
            "spent {} of {}",
            s.energy_spent,
            nodes as f64 * cfg.initial_energy
        );
    }

    #[test]
    fn harvesting_stats_invariants(
        seed in 0u64..50_000,
        duty in 0.0f64..1.0,
        cloudiness in 0.0f64..1.0,
        days in 1u32..10,
    ) {
        let cfg = HarvestConfig {
            days,
            seed,
            solar: SolarModel {
                cloudiness,
                ..SolarModel::default()
            },
            ..HarvestConfig::default()
        };
        for policy in [
            PolicyExpr::Fixed(duty),
            PolicyExpr::Greedy { threshold: 0.3, duty_high: duty, duty_low: 0.02 },
            PolicyExpr::EnergyNeutral { alpha: 0.05 },
        ] {
            let s = simulate_policy(&policy, &cfg);
            prop_assert!(s.dead_slots <= s.total_slots);
            prop_assert!((0.0..=1.0).contains(&s.uptime));
            prop_assert!(s.work <= s.total_slots as f64 * cfg.slot + 1e-9);
            prop_assert!(s.wasted >= 0.0);
            prop_assert!(s.min_battery >= 0.0);
            prop_assert!(s.min_battery <= cfg.battery_capacity);
            prop_assert!(s.harvested >= 0.0);
            prop_assert!((0.0..=cfg.battery_capacity).contains(&s.final_battery));
            prop_assert!(s.min_battery <= s.final_battery + 1e-9);
        }
    }

    // Energy is never created: what the node spent on work plus what it
    // still holds plus what overflowed can never exceed the initial
    // charge plus the solar income. (Equality does not hold — brown-out
    // slots pay sleep power without doing work.)
    #[test]
    fn harvest_energy_is_conserved(
        seed in 0u64..50_000,
        duty in 0.0f64..1.0,
        cloudiness in 0.0f64..1.0,
        days in 1u32..10,
    ) {
        let cfg = HarvestConfig {
            days,
            seed,
            solar: SolarModel { cloudiness, ..SolarModel::default() },
            ..HarvestConfig::default()
        };
        for policy in [
            PolicyExpr::Fixed(duty),
            PolicyExpr::Greedy { threshold: 0.3, duty_high: duty, duty_low: 0.02 },
            PolicyExpr::EnergyNeutral { alpha: 0.05 },
        ] {
            let s = simulate_policy(&policy, &cfg);
            let initial = cfg.battery_capacity * cfg.initial_fraction;
            // Spending: active work at active_power; every live slot also
            // pays at least nothing extra here — bound from below by the
            // work term alone.
            let spent_on_work = s.work * cfg.active_power;
            prop_assert!(
                spent_on_work + s.final_battery + s.wasted <= initial + s.harvested + 1e-6,
                "{policy:?}: work {} + final {} + wasted {} > initial {} + harvested {}",
                spent_on_work, s.final_battery, s.wasted, initial, s.harvested
            );
            prop_assert!(
                s.wasted <= s.harvested + 1e-9,
                "cannot overflow more than was harvested"
            );
        }
    }

    // Solar income is a property of the trace alone: scaling the panel
    // up (higher peak power) never decreases the harvest, under any
    // policy, and the policy itself cannot change the income.
    #[test]
    fn harvest_income_is_monotone_in_irradiance(
        seed in 0u64..50_000,
        cloudiness in 0.0f64..1.0,
        days in 1u32..8,
        peak_lo in 0.01f64..0.05,
        boost in 1.0f64..4.0,
    ) {
        let base = HarvestConfig {
            days,
            seed,
            solar: SolarModel {
                peak_power: peak_lo,
                cloudiness,
                ..SolarModel::default()
            },
            ..HarvestConfig::default()
        };
        let brighter = HarvestConfig {
            solar: SolarModel {
                peak_power: peak_lo * boost,
                ..base.solar
            },
            ..base
        };
        let policies = [
            PolicyExpr::Fixed(0.5),
            PolicyExpr::EnergyNeutral { alpha: 0.05 },
        ];
        for policy in &policies {
            let dim = simulate_policy(policy, &base);
            let bright = simulate_policy(policy, &brighter);
            prop_assert!(
                bright.harvested >= dim.harvested - 1e-9,
                "{policy:?}: brighter panel harvested {} < {}",
                bright.harvested, dim.harvested
            );
            // The trace scales linearly with peak power.
            prop_assert!(
                (bright.harvested - dim.harvested * boost).abs() <= 1e-6 * bright.harvested.max(1.0),
                "harvest must scale linearly with peak power"
            );
        }
        // Policy-independence of the income itself.
        let a = simulate_policy(&policies[0], &base);
        let b = simulate_policy(&policies[1], &base);
        prop_assert!((a.harvested - b.harvested).abs() <= 1e-9);
    }

    #[test]
    fn more_failures_never_help_coverage(
        seed in 0u64..10_000,
    ) {
        let field = Field::random(40, 120.0, seed);
        let base = LifetimeConfig {
            max_rounds: 300,
            seed,
            ..LifetimeConfig::default()
        };
        let healthy = simulate_lifetime(&field, Protocol::cluster(0.1, true), &base);
        let failing = simulate_lifetime(
            &field,
            Protocol::cluster(0.1, true),
            &LifetimeConfig { failure_rate: 0.01, ..base },
        );
        prop_assert!(failing.avg_coverage <= healthy.avg_coverage + 0.05);
    }
}
