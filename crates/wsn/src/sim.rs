//! Round-based network-lifetime simulation (experiment E9).
//!
//! Each round, every live node senses one packet and the configured
//! [`Protocol`] carries the data to the sink; radio energies are deducted
//! per the first-order model and nodes die when their battery empties.
//! Exogenous failures (slide 36: "providing redundancy to tolerate local
//! failures") can be injected on top.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mns_policy::{Evaluator, Policy, PolicyAssignment, SlotCtx};

use crate::field::{CoverageTally, Field};
use crate::harvest::{SolarModel, SolarTrace};
use crate::protocol::Protocol;
use crate::radio::RadioModel;

/// Lifetime-simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeConfig {
    /// Initial battery per node (J).
    pub initial_energy: f64,
    /// Radio energy model.
    pub radio: RadioModel,
    /// Hard round cap.
    pub max_rounds: u64,
    /// Per-node, per-round probability of exogenous failure.
    pub failure_rate: f64,
    /// Sensing radius for the coverage metric (m).
    pub sensing_radius: f64,
    /// RNG seed (failures, cluster-head election).
    pub seed: u64,
    /// Optional per-node energy harvesting: `(solar model, panel scale,
    /// seconds per round)`. Each round every live node gains
    /// `solar.power(t) · panel_scale · round_seconds` joules
    /// ("eliminate energy dependence", keynote slide 5).
    pub harvesting: Option<(SolarModel, f64, f64)>,
    /// Optional per-node run-time energy-management policies. When set,
    /// each live node evaluates its policy every round and the resulting
    /// duty cycle gates how often it *sources* a sample (via a
    /// deterministic duty accumulator); idle nodes still relay for their
    /// neighbours. `None` reproduces the historical always-active
    /// behaviour bit for bit.
    pub policies: Option<PolicyAssignment>,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        LifetimeConfig {
            initial_energy: 0.2,
            radio: RadioModel::default(),
            max_rounds: 20_000,
            failure_rate: 0.0,
            sensing_radius: 15.0,
            seed: 1,
            harvesting: None,
            policies: None,
        }
    }
}

/// Outcome of a lifetime simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeStats {
    /// Round at which the first node died (energy or failure).
    pub first_death_round: u64,
    /// Round at which half the nodes were dead.
    pub half_death_round: u64,
    /// Rounds simulated (all dead or cap reached).
    pub rounds: u64,
    /// Packets sensed by live nodes over the run.
    pub sensed: u64,
    /// Packets (or aggregates representing them) that reached the sink.
    pub delivered: u64,
    /// `delivered / sensed`.
    pub delivered_ratio: f64,
    /// Time-averaged field coverage.
    pub avg_coverage: f64,
    /// Total radio energy spent (J).
    pub energy_spent: f64,
}

/// Runs the round-based lifetime simulation.
pub fn simulate_lifetime(
    field: &Field,
    protocol: Protocol,
    config: &LifetimeConfig,
) -> LifetimeStats {
    let _sim_span = mns_telemetry::span("wsn.lifetime");
    let n = field.nodes();
    let mut battery = vec![config.initial_energy; n];
    let mut failed = vec![false; n];
    let mut last_head: Vec<i64> = vec![i64::MIN / 2; n];
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    // Per-node policy engine state (only when heterogeneous policies are
    // configured — `None` keeps the historical always-active code path).
    let mut evaluators: Option<Vec<Evaluator>> = config.policies.as_ref().map(|assignment| {
        (0..n)
            .map(|i| assignment.policy_for(i).evaluator())
            .collect()
    });
    // Deterministic duty gating: a node sources a sample whenever its
    // accumulated duty crosses 1.0. Seeded at 1.0 so every node is active
    // in round 0 regardless of policy.
    let mut duty_acc = vec![1.0f64; n];
    let mut discharged = vec![0.0f64; n];
    let mut policy_evals = 0u64;
    let round_seconds = config
        .harvesting
        .map(|(_, _, rs)| rs)
        .unwrap_or(60.0)
        .max(1e-9);
    let rounds_per_day = ((config
        .harvesting
        .map(|(solar, _, _)| solar.day_length)
        .unwrap_or(86_400.0)
        / round_seconds) as u64)
        .max(1);
    let mut solar = config
        .harvesting
        .map(|(model, _, _)| SolarTrace::new(model, config.seed));
    let mut coverage = CoverageTally::new(field, config.sensing_radius);

    // Cached BFS routing tree for the Tree protocol, rebuilt only when
    // the live set changes (tree construction is O(live²) distance
    // checks — the hot spot of long runs).
    type TreeCache = (Vec<usize>, Vec<Option<usize>>, Vec<u64>, Vec<usize>);
    let mut tree_cache: Option<TreeCache> = None;

    let mut first_death = None;
    let mut half_death = None;
    let mut sensed = 0u64;
    let mut delivered = 0u64;
    let mut coverage_acc = 0.0;
    let mut coverage_samples = 0u64;
    let mut energy_spent = 0.0;
    let mut round = 0u64;

    let alive = |battery: &[f64], failed: &[bool], i: usize| battery[i] > 0.0 && !failed[i];

    while round < config.max_rounds {
        // Exogenous failures.
        if config.failure_rate > 0.0 {
            for (i, f) in failed.iter_mut().enumerate() {
                if !*f && battery[i] > 0.0 && rng.gen_bool(config.failure_rate) {
                    *f = true;
                }
            }
        }
        let live: Vec<usize> = (0..n).filter(|&i| alive(&battery, &failed, i)).collect();
        if live.is_empty() {
            break;
        }
        // Coverage is sampled every 8 rounds, and `avg_coverage` is the
        // mean of exactly those samples; the tally makes a sample cheap,
        // but sampling more often would change the reported average.
        if round.is_multiple_of(8) {
            coverage.update(|i| alive(&battery, &failed, i));
            coverage_acc += coverage.fraction();
            coverage_samples += 1;
        }

        // Per-node duty decisions: each live node observes its own state
        // (pre-income, like the harvest reference loop) and its duty
        // accumulator decides whether it sources a sample this round.
        // Idle nodes still relay for their neighbours.
        let mut active = vec![true; n];
        if let Some(evals) = evaluators.as_mut() {
            let t = round as f64 * round_seconds;
            let capacity = config.initial_energy;
            let harvest_power = match (&mut solar, config.harvesting) {
                (Some(solar), Some((_, panel_scale, _))) => solar.power(t) * panel_scale,
                _ => 0.0,
            };
            for &i in &live {
                // Reference power scale for EWMA-family policies: the
                // cost rate of this node reporting directly every round.
                let active_power = config.radio.tx(field.to_sink(i)) / round_seconds;
                let ctx = SlotCtx {
                    slot: round,
                    slot_of_day: round % rounds_per_day,
                    slots_per_day: rounds_per_day,
                    day: round / rounds_per_day,
                    slot_seconds: round_seconds,
                    battery: battery[i],
                    capacity,
                    battery_fraction: if capacity > 0.0 {
                        battery[i] / capacity
                    } else {
                        0.0
                    },
                    harvest_power,
                    active_power,
                    sleep_power: 0.0,
                    discharged: discharged[i],
                };
                let duty = evals[i].duty(&ctx);
                policy_evals += 1;
                duty_acc[i] += duty;
                if duty_acc[i] >= 1.0 {
                    duty_acc[i] -= 1.0;
                } else {
                    active[i] = false;
                }
            }
        }
        sensed += live.iter().filter(|&&i| active[i]).count() as u64;

        // Energy bookkeeping for this round.
        let mut spend = vec![0.0f64; n];
        let mut reached = 0u64;
        match protocol {
            Protocol::Direct => {
                for &i in &live {
                    if active[i] {
                        spend[i] += config.radio.tx(field.to_sink(i));
                        reached += 1;
                    }
                }
            }
            Protocol::Tree {
                radio_range,
                aggregate,
            } => {
                // BFS tree rooted at the sink over ≤ radio_range links,
                // reused across rounds until a node dies or fails.
                let rebuild = match &tree_cache {
                    Some((cached_live, _, _, _)) => cached_live != &live,
                    None => true,
                };
                if rebuild {
                    mns_telemetry::counter_add("wsn.tree_rebuilds", 1);
                    let mut parent: Vec<Option<usize>> = vec![None; n]; // None = unattached
                    let mut depth: Vec<u64> = vec![u64::MAX; n];
                    let mut frontier: Vec<usize> = Vec::new();
                    for &i in &live {
                        if field.to_sink(i) <= radio_range {
                            depth[i] = 1;
                            frontier.push(i);
                        }
                    }
                    let mut order = frontier.clone();
                    let mut visited: Vec<bool> = depth.iter().map(|&d| d != u64::MAX).collect();
                    while !frontier.is_empty() {
                        let mut next = Vec::new();
                        for &p in &frontier {
                            for &c in &live {
                                if !visited[c]
                                    && field.position(c).distance(field.position(p)) <= radio_range
                                {
                                    visited[c] = true;
                                    depth[c] = depth[p] + 1;
                                    parent[c] = Some(p);
                                    next.push(c);
                                }
                            }
                        }
                        order.extend(&next);
                        frontier = next;
                    }
                    tree_cache = Some((live.clone(), parent, depth, order));
                }
                let (_, parent, depth, order) =
                    tree_cache.as_ref().expect("tree cache just (re)built");
                // Leaf-to-root accumulation: process deepest first.
                let mut carrying: Vec<u64> = vec![0; n];
                for &i in &live {
                    if depth[i] != u64::MAX && active[i] {
                        carrying[i] += 1; // own sample
                    }
                    // Unattached nodes sense but cannot deliver; idle
                    // nodes relay without sourcing a sample.
                }
                let mut by_depth = order.clone();
                by_depth.sort_by_key(|&i| std::cmp::Reverse(depth[i]));
                for &i in &by_depth {
                    let packets = if aggregate { 1 } else { carrying[i] };
                    if packets == 0 {
                        continue;
                    }
                    match parent[i] {
                        Some(p) => {
                            let d = field.position(i).distance(field.position(p));
                            spend[i] += config.radio.tx(d) * packets as f64;
                            spend[p] += config.radio.rx() * packets as f64;
                            if aggregate {
                                spend[p] += config.radio.aggregate() * packets as f64;
                            }
                            if !aggregate {
                                carrying[p] += carrying[i];
                            }
                        }
                        None => {
                            // Directly attached to the sink. (With
                            // aggregation, `reached` is recomputed below
                            // as the attached-node count.)
                            spend[i] += config.radio.tx(field.to_sink(i)) * packets as f64;
                            reached += carrying[i];
                        }
                    }
                }
                if aggregate {
                    // With aggregation each attached *active* node's
                    // sample is represented in some root aggregate
                    // (every attached node when no policies gate duty).
                    reached = order.iter().filter(|&&i| active[i]).count() as u64;
                }
            }
            Protocol::Cluster { p, aggregate } => {
                let period = (1.0 / p).ceil() as i64;
                let mut heads: Vec<usize> = Vec::new();
                for &i in &live {
                    let eligible = round as i64 - last_head[i] >= period;
                    if eligible && rng.gen_bool(p) {
                        heads.push(i);
                        last_head[i] = round as i64;
                    }
                }
                if heads.is_empty() {
                    // Fall back: nearest node to the sink becomes head.
                    let i = *live
                        .iter()
                        .min_by(|&&a, &&b| {
                            field
                                .to_sink(a)
                                .partial_cmp(&field.to_sink(b))
                                .expect("finite distances")
                        })
                        .expect("live nodes exist");
                    heads.push(i);
                    last_head[i] = round as i64;
                }
                // Members join the nearest head. Idle members have no
                // sample to report this round, so they stay silent.
                let mut members: Vec<u64> = vec![0; n];
                for &i in &live {
                    if heads.contains(&i) || !active[i] {
                        continue;
                    }
                    let h = *heads
                        .iter()
                        .min_by(|&&a, &&b| {
                            field
                                .position(i)
                                .distance(field.position(a))
                                .partial_cmp(&field.position(i).distance(field.position(b)))
                                .expect("finite distances")
                        })
                        .expect("at least one head");
                    let d = field.position(i).distance(field.position(h));
                    spend[i] += config.radio.tx(d);
                    spend[h] += config.radio.rx();
                    members[h] += 1;
                }
                for &h in &heads {
                    let cluster_packets = members[h] + u64::from(active[h]);
                    if cluster_packets == 0 {
                        continue;
                    }
                    if aggregate {
                        spend[h] += config.radio.aggregate() * members[h] as f64;
                        spend[h] += config.radio.tx(field.to_sink(h));
                        reached += cluster_packets;
                    } else {
                        spend[h] += config.radio.tx(field.to_sink(h)) * cluster_packets as f64;
                        reached += cluster_packets;
                    }
                }
            }
        }

        delivered += reached;
        // Harvest income before paying the radio bill.
        if let (Some(solar), Some((_, panel_scale, round_seconds))) =
            (&mut solar, config.harvesting)
        {
            let t = round as f64 * round_seconds;
            let income = solar.power(t) * panel_scale * round_seconds;
            for (i, b) in battery.iter_mut().enumerate() {
                if *b > 0.0 && !failed[i] {
                    *b = (*b + income).min(config.initial_energy);
                }
            }
        }
        for i in 0..n {
            if spend[i] > 0.0 {
                // A node can only draw the charge it actually holds: in its
                // death round the radio bill is truncated by the battery
                // running dry, so total spend never exceeds total capacity.
                let drawn = spend[i].min(battery[i].max(0.0));
                energy_spent += drawn;
                discharged[i] += drawn;
                battery[i] -= spend[i];
            }
        }

        round += 1;
        let dead = (0..n).filter(|&i| !alive(&battery, &failed, i)).count();
        if dead > 0 && first_death.is_none() {
            first_death = Some(round);
        }
        if dead * 2 >= n && half_death.is_none() {
            half_death = Some(round);
        }
        if dead == n {
            break;
        }
    }
    mns_telemetry::counter_add("wsn.rounds", round);
    if policy_evals > 0 {
        mns_telemetry::counter_add("wsn.policy_evals", policy_evals);
        let derated: u64 = evaluators
            .iter()
            .flatten()
            .map(Evaluator::derate_events)
            .sum();
        if derated > 0 {
            mns_telemetry::counter_add("wsn.derate_events", derated);
        }
    }

    LifetimeStats {
        first_death_round: first_death.unwrap_or(round),
        half_death_round: half_death.unwrap_or(round),
        rounds: round,
        sensed,
        delivered,
        delivered_ratio: if sensed == 0 {
            0.0
        } else {
            delivered as f64 / sensed as f64
        },
        avg_coverage: if coverage_samples == 0 {
            0.0
        } else {
            coverage_acc / coverage_samples as f64
        },
        energy_spent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_field() -> Field {
        Field::random(40, 120.0, 3)
    }

    #[test]
    fn direct_eventually_kills_far_nodes_first() {
        let f = small_field();
        let cfg = LifetimeConfig {
            max_rounds: 50_000,
            ..LifetimeConfig::default()
        };
        let stats = simulate_lifetime(&f, Protocol::Direct, &cfg);
        assert!(stats.first_death_round > 0);
        assert!(stats.first_death_round < cfg.max_rounds);
        assert!(stats.delivered_ratio > 0.99);
    }

    #[test]
    fn aggregation_extends_lifetime() {
        let f = small_field();
        let cfg = LifetimeConfig::default();
        let raw = simulate_lifetime(&f, Protocol::cluster(0.05, false), &cfg);
        let agg = simulate_lifetime(&f, Protocol::cluster(0.05, true), &cfg);
        assert!(
            agg.half_death_round > raw.half_death_round,
            "agg {} raw {}",
            agg.half_death_round,
            raw.half_death_round
        );
    }

    #[test]
    fn clustering_delays_first_death_versus_direct() {
        let f = small_field();
        let cfg = LifetimeConfig::default();
        let direct = simulate_lifetime(&f, Protocol::Direct, &cfg);
        let cluster = simulate_lifetime(&f, Protocol::cluster(0.15, true), &cfg);
        assert!(
            cluster.first_death_round > direct.first_death_round,
            "cluster {} direct {}",
            cluster.first_death_round,
            direct.first_death_round
        );
    }

    #[test]
    fn tree_delivers_attached_nodes() {
        let f = small_field();
        let cfg = LifetimeConfig {
            max_rounds: 50,
            ..LifetimeConfig::default()
        };
        let stats = simulate_lifetime(&f, Protocol::tree(45.0, true), &cfg);
        assert!(
            stats.delivered_ratio > 0.5,
            "ratio {}",
            stats.delivered_ratio
        );
    }

    #[test]
    fn failures_shorten_first_death_and_reduce_coverage() {
        let f = small_field();
        let base = LifetimeConfig {
            max_rounds: 2_000,
            ..LifetimeConfig::default()
        };
        let with_failures = LifetimeConfig {
            failure_rate: 0.002,
            ..base.clone()
        };
        let healthy = simulate_lifetime(&f, Protocol::cluster(0.05, true), &base);
        let failing = simulate_lifetime(&f, Protocol::cluster(0.05, true), &with_failures);
        assert!(failing.first_death_round <= healthy.first_death_round);
        assert!(failing.avg_coverage <= healthy.avg_coverage + 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let f = small_field();
        let cfg = LifetimeConfig {
            max_rounds: 500,
            ..LifetimeConfig::default()
        };
        let a = simulate_lifetime(&f, Protocol::cluster(0.1, true), &cfg);
        let b = simulate_lifetime(&f, Protocol::cluster(0.1, true), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn harvesting_extends_or_sustains_the_network() {
        let f = small_field();
        let base = LifetimeConfig {
            max_rounds: 3_000,
            ..LifetimeConfig::default()
        };
        let dead_end = simulate_lifetime(&f, Protocol::cluster(0.15, true), &base);
        let harvesting = LifetimeConfig {
            harvesting: Some((SolarModel::default(), 0.02, 60.0)),
            ..base
        };
        let sustained = simulate_lifetime(&f, Protocol::cluster(0.15, true), &harvesting);
        assert!(
            sustained.first_death_round > dead_end.first_death_round,
            "harvesting {} vs battery-only {}",
            sustained.first_death_round,
            dead_end.first_death_round
        );
    }

    #[test]
    fn strong_harvesting_makes_the_network_immortal() {
        let f = small_field();
        let cfg = LifetimeConfig {
            max_rounds: 2_000,
            harvesting: Some((
                SolarModel {
                    cloudiness: 0.0,
                    ..SolarModel::default()
                },
                1.0,
                600.0,
            )),
            ..LifetimeConfig::default()
        };
        let stats = simulate_lifetime(&f, Protocol::cluster(0.15, true), &cfg);
        assert_eq!(
            stats.first_death_round, cfg.max_rounds,
            "no node should die with abundant harvest"
        );
    }

    #[test]
    fn always_on_policy_is_bit_identical_to_no_policy() {
        use mns_policy::{PolicyAssignment, PolicyExpr};
        let f = small_field();
        let base = LifetimeConfig {
            max_rounds: 800,
            ..LifetimeConfig::default()
        };
        let gated = LifetimeConfig {
            policies: Some(PolicyAssignment::Uniform(PolicyExpr::Fixed(1.0))),
            ..base.clone()
        };
        for protocol in [
            Protocol::Direct,
            Protocol::tree(45.0, true),
            Protocol::cluster(0.1, true),
        ] {
            let a = simulate_lifetime(&f, protocol, &base);
            let b = simulate_lifetime(&f, protocol, &gated);
            assert_eq!(a, b, "duty 1.0 must reproduce the ungated run");
        }
    }

    #[test]
    fn half_duty_halves_sensing_and_stretches_lifetime() {
        use mns_policy::{PolicyAssignment, PolicyExpr};
        let f = small_field();
        let base = LifetimeConfig {
            max_rounds: 5_000,
            ..LifetimeConfig::default()
        };
        let throttled = LifetimeConfig {
            policies: Some(PolicyAssignment::Uniform(PolicyExpr::Fixed(0.5))),
            ..base.clone()
        };
        let full = simulate_lifetime(&f, Protocol::Direct, &base);
        let half = simulate_lifetime(&f, Protocol::Direct, &throttled);
        // Half the duty → roughly half the per-round sensing, but the
        // energy saved keeps nodes alive longer.
        assert!(half.first_death_round > full.first_death_round);
        let full_rate = full.sensed as f64 / full.rounds as f64;
        let half_rate = half.sensed as f64 / half.rounds as f64;
        assert!(
            half_rate < 0.6 * full_rate,
            "half-duty rate {half_rate} vs full rate {full_rate}"
        );
    }

    #[test]
    fn heterogeneous_assignment_is_deterministic() {
        use mns_policy::{PolicyAssignment, PolicyExpr};
        let f = small_field();
        let cfg = LifetimeConfig {
            max_rounds: 600,
            policies: Some(PolicyAssignment::RoundRobin(vec![
                PolicyExpr::Fixed(1.0),
                PolicyExpr::greedy(0.5, 1.0, 0.25).unwrap(),
                PolicyExpr::hysteresis(0.2, 0.6, PolicyExpr::Fixed(1.0), PolicyExpr::Fixed(0.2))
                    .unwrap(),
            ])),
            ..LifetimeConfig::default()
        };
        let a = simulate_lifetime(&f, Protocol::cluster(0.1, true), &cfg);
        let b = simulate_lifetime(&f, Protocol::cluster(0.1, true), &cfg);
        assert_eq!(a, b);
        assert!(a.sensed > 0 && a.delivered > 0);
    }

    #[test]
    fn coverage_declines_over_lifetime() {
        let f = small_field();
        let cfg = LifetimeConfig::default();
        let stats = simulate_lifetime(&f, Protocol::Direct, &cfg);
        // Average coverage across the run is below the initial coverage.
        let initial = f.coverage(&vec![true; f.nodes()], cfg.sensing_radius);
        assert!(stats.avg_coverage <= initial + 1e-9);
    }

    /// `LifetimeStats` on one line, the floats by their bits in hex.
    fn stat_bits(s: &LifetimeStats) -> String {
        format!(
            "{} {} {} {} {} {:x} {:x} {:x}",
            s.first_death_round,
            s.half_death_round,
            s.rounds,
            s.sensed,
            s.delivered,
            s.delivered_ratio.to_bits(),
            s.avg_coverage.to_bits(),
            s.energy_spent.to_bits(),
        )
    }

    #[test]
    fn harvesting_runs_with_policies_are_pinned_bit_for_bit() {
        use mns_policy::{PolicyAssignment, PolicyExpr};
        // No golden scenario harvests in a lifetime run, so this pins
        // the harvest income and the policies' `harvest_power` here: a
        // weak panel on a wide field, over 20 days of 600 s rounds, so
        // nodes die of energy and of failures and the weather changes
        // daily.
        let f = Field::random(24, 200.0, 11);
        let protocols = [
            Protocol::Direct,
            Protocol::tree(45.0, true),
            Protocol::cluster(0.1, true),
        ];
        let pins = [
            (
                0.0,
                [
                    "279 3000 3000 27025 27025 3ff0000000000000 3fd26f235cb4c4fc 4034405231fd03aa",
                    "653 3000 3000 31354 18645 3fe3077670617494 3fd05ba423ef81d0 4025f87512af2de6",
                    "148 3000 3000 18826 18826 3ff0000000000000 3fd233103f59f998 403a28dfb23b3f94",
                ],
            ),
            (
                0.0005,
                [
                    "160 1490 3000 13346 13346 3ff0000000000000 3fc5bed8a6ae0d84 4028c0a7e4495461",
                    "160 1013 3000 14849 8703 3fe2c154f14b49bd 3fc6227604f84591 401b2a333150ed65",
                    "108 1241 3000 8113 8113 3ff0000000000000 3fc5fc3b4f616728 402be47fd3d79d14",
                ],
            ),
        ];
        for (failure_rate, want) in pins {
            let cfg = LifetimeConfig {
                max_rounds: 3_000,
                failure_rate,
                harvesting: Some((SolarModel::default(), 0.00005, 600.0)),
                policies: Some(PolicyAssignment::RoundRobin(vec![
                    PolicyExpr::energy_neutral(0.05).unwrap(),
                    PolicyExpr::greedy(0.5, 1.0, 0.25).unwrap(),
                    PolicyExpr::forecast(0.1).unwrap(),
                ])),
                ..LifetimeConfig::default()
            };
            for (protocol, want) in protocols.into_iter().zip(want) {
                let s = simulate_lifetime(&f, protocol, &cfg);
                assert_eq!(
                    stat_bits(&s),
                    want,
                    "{} at {failure_rate}",
                    protocol.label()
                );
            }
        }
    }
}
