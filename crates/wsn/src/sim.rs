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

use crate::field::{CoverageTally, Field, Position};
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

    // Per-run node constants: each position, the cost of one packet
    // straight to the sink, and the cost of receiving one packet.
    let pos: Vec<Position> = (0..n).map(|i| field.position(i)).collect();
    let sink_tx: Vec<f64> = (0..n).map(|i| config.radio.tx(field.to_sink(i))).collect();
    let rx = config.radio.rx();

    // Cached BFS routing tree for the Tree protocol: the live count it
    // was built for, each node's parent and depth, and the attached
    // nodes deepest first. `live` only ever loses nodes, so an equal
    // count means an equal live set, and the tree is rebuilt only when a
    // node dies or fails (tree construction is O(live²) distance checks —
    // the hot spot of long runs).
    type TreeCache = (usize, Vec<Option<usize>>, Vec<u64>, Vec<usize>);
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

    // Round buffers, allocated once. `live` holds the live nodes in index
    // order: failed nodes leave it after the failure draws, emptied ones
    // after the bill, and none comes back, because income goes only to
    // live batteries. Only live entries of the others are read: each
    // duty decision rewrites `active` (all true without policies), the
    // tree rewrites `carrying`, the bill takes `spend` back to zero, and
    // the heads' pass clears `members` and `is_head`.
    let mut live: Vec<usize> = (0..n).filter(|&i| alive(&battery, &failed, i)).collect();
    let mut active = vec![true; n];
    let mut spend = vec![0.0f64; n];
    let mut carrying = vec![0u64; n];
    let mut members = vec![0u64; n];
    let mut heads: Vec<usize> = Vec::new();
    let mut is_head = vec![false; n];

    while round < config.max_rounds {
        // Exogenous failures: one draw per live node, in index order.
        if config.failure_rate > 0.0 {
            live.retain(|&i| {
                failed[i] = rng.gen_bool(config.failure_rate);
                !failed[i]
            });
        }
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
        if let Some(evals) = evaluators.as_mut() {
            let t = round as f64 * round_seconds;
            let capacity = config.initial_energy;
            let harvest_power = match (&mut solar, config.harvesting) {
                (Some(solar), Some((_, panel_scale, _))) => solar.power(t) * panel_scale,
                _ => 0.0,
            };
            for &i in &live {
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
                    // Reference power scale for EWMA-family policies: the
                    // cost rate of this node reporting directly every
                    // round.
                    active_power: sink_tx[i] / round_seconds,
                    sleep_power: 0.0,
                    discharged: discharged[i],
                };
                let duty = evals[i].duty(&ctx);
                policy_evals += 1;
                duty_acc[i] += duty;
                active[i] = duty_acc[i] >= 1.0;
                if active[i] {
                    duty_acc[i] -= 1.0;
                }
            }
        }
        sensed += live.iter().filter(|&&i| active[i]).count() as u64;

        // Energy bookkeeping for this round.
        let mut reached = 0u64;
        match protocol {
            Protocol::Direct => {
                for &i in &live {
                    if active[i] {
                        spend[i] += sink_tx[i];
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
                if tree_cache.as_ref().map(|cache| cache.0) != Some(live.len()) {
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
                                if !visited[c] && pos[c].distance(pos[p]) <= radio_range {
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
                    // Leaf-to-root accumulation processes deepest first.
                    order.sort_by_key(|&i| std::cmp::Reverse(depth[i]));
                    tree_cache = Some((live.len(), parent, depth, order));
                }
                let (_, parent, depth, by_depth) =
                    tree_cache.as_ref().expect("tree cache just (re)built");
                for &i in &live {
                    // Each attached active node carries its own sample.
                    // Unattached nodes sense but cannot deliver; idle
                    // nodes relay without sourcing a sample.
                    carrying[i] = u64::from(depth[i] != u64::MAX && active[i]);
                }
                for &i in by_depth {
                    let packets = if aggregate { 1 } else { carrying[i] };
                    if packets == 0 {
                        continue;
                    }
                    match parent[i] {
                        Some(p) => {
                            let d = pos[i].distance(pos[p]);
                            spend[i] += config.radio.tx(d) * packets as f64;
                            spend[p] += rx * packets as f64;
                            if aggregate {
                                spend[p] += config.radio.aggregate() * packets as f64;
                            } else {
                                carrying[p] += carrying[i];
                            }
                        }
                        None => {
                            // Directly attached to the sink. (With
                            // aggregation, `reached` is recomputed below
                            // as the attached-node count.)
                            spend[i] += sink_tx[i] * packets as f64;
                            reached += carrying[i];
                        }
                    }
                }
                if aggregate {
                    // With aggregation each attached *active* node's
                    // sample is represented in some root aggregate
                    // (every attached node when no policies gate duty).
                    reached = by_depth.iter().filter(|&&i| active[i]).count() as u64;
                }
            }
            Protocol::Cluster { p, aggregate } => {
                let period = (1.0 / p).ceil() as i64;
                heads.clear();
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
                for &h in &heads {
                    is_head[h] = true;
                }
                // Members join the nearest head: the first strict minimum
                // over the heads, so a tie goes to the earlier-elected
                // head, and its distance is the one billed. Idle members
                // have no sample to report this round, so they stay
                // silent.
                for &i in &live {
                    if is_head[i] || !active[i] {
                        continue;
                    }
                    let (mut h, mut d) = (heads[0], pos[i].distance(pos[heads[0]]));
                    for &c in &heads[1..] {
                        let dc = pos[i].distance(pos[c]);
                        if dc < d {
                            (h, d) = (c, dc);
                        }
                    }
                    spend[i] += config.radio.tx(d);
                    spend[h] += rx;
                    members[h] += 1;
                }
                for &h in &heads {
                    is_head[h] = false;
                    let joined = std::mem::take(&mut members[h]);
                    let cluster_packets = joined + u64::from(active[h]);
                    if cluster_packets == 0 {
                        continue;
                    }
                    if aggregate {
                        spend[h] += config.radio.aggregate() * joined as f64;
                        spend[h] += sink_tx[h];
                    } else {
                        spend[h] += sink_tx[h] * cluster_packets as f64;
                    }
                    reached += cluster_packets;
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
            for &i in &live {
                battery[i] = (battery[i] + income).min(config.initial_energy);
            }
        }
        // The bill, in index order; the nodes it empties leave `live`.
        live.retain(|&i| {
            let bill = std::mem::take(&mut spend[i]);
            if bill > 0.0 {
                // A node can only draw the charge it actually holds: in its
                // death round the radio bill is truncated by the battery
                // running dry, so total spend never exceeds total capacity.
                let drawn = bill.min(battery[i].max(0.0));
                energy_spent += drawn;
                discharged[i] += drawn;
                battery[i] -= bill;
            }
            battery[i] > 0.0
        });

        round += 1;
        let dead = n - live.len();
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
    fn lifetime_runs_are_pinned_bit_for_bit() {
        use mns_policy::{PolicyAssignment, PolicyExpr};
        // No golden scenario runs the tree protocol or a non-aggregating
        // cluster, and the harvesting pin below runs only aggregating
        // protocols. This pins all five without harvesting, with and
        // without failures and duty-gating policies: 0.05 J batteries
        // empty well inside the 2,000 rounds, so nodes die of energy as
        // well as of failures.
        let f = small_field();
        let protocols = [
            Protocol::Direct,
            Protocol::tree(45.0, true),
            Protocol::tree(45.0, false),
            Protocol::cluster(0.1, true),
            Protocol::cluster(0.1, false),
        ];
        let mix = PolicyAssignment::RoundRobin(vec![
            PolicyExpr::Fixed(1.0),
            PolicyExpr::greedy(0.5, 1.0, 0.25).unwrap(),
        ]);
        let pins = [
            (
                0.0,
                None,
                [
                    "48 114 434 5583 5583 3ff0000000000000 3fd2a2b91091f774 4000000000000038",
                    "45 141 2000 17054 5888 3fd618ada61d0064 3fc8784230fcf834 3fff36e43b82302b",
                    "13 148 2000 30764 3810 3fbfb45ffeef52ea 3fd29129888f8624 3ffa774481d69cef",
                    "46 76 118 3088 3088 3ff0000000000000 3fe0cb6f46508dfe 3fffffffffffffe0",
                    "10 47 117 2102 2102 3ff0000000000000 3fda2fc962fc9630 3fffffffffffffd3",
                ],
            ),
            (
                0.0,
                Some(&mix),
                [
                    "53 175 1081 5583 5583 3ff0000000000000 3fce9c9c9c9c9c8f 400000000000002c",
                    "45 141 2000 9165 4964 3fe154ff86703b71 3fc8784230fcf834 3fff36e43b82302b",
                    "13 180 2000 23472 3794 3fc4b09990aa5152 3fd40aa64c2f8373 3ffaa97171968917",
                    "47 101 262 3024 3024 3ff0000000000000 3fdbbcf97bcf97bf 3ffffffffffffff8",
                    "11 73 226 2052 2052 3ff0000000000000 3fd5b8ac5081f12c 3ffffffffffffff0",
                ],
            ),
            (
                0.002,
                None,
                [
                    "14 107 434 5453 5453 3ff0000000000000 3fd26b9cf3869c0a 3ffedc93eecacf94",
                    "14 130 1806 10578 5068 3fdea9b2d8bee61b 3fc3dc7a27b0fac1 3ffb0856abe8d980",
                    "13 114 1847 10578 3480 3fd50e15c7f338c7 3fc5d3efdd3efdcd 3ff94c07b173407e",
                    "46 69 153 3012 3012 3ff0000000000000 3fda0e5604189376 3fff11bdeff7e5f6",
                    "7 50 104 2127 2127 3ff0000000000000 3fdd7a17a17a17a1 3ffffffffffffff8",
                ],
            ),
            (
                0.002,
                Some(&mix),
                [
                    "14 145 516 4780 4780 3ff0000000000000 3fd6bf406ee8362e 3ffd1f43637feb98",
                    "14 130 1806 8058 4416 3fe1896f82f45f4f 3fc3dc7a27b0fac1 3ffb0856abe8d980",
                    "13 117 2000 8254 3486 3fdb07a137a431df 3fc244523f67f4cc 3ff9a8e21769db53",
                    "50 100 242 2890 2890 3ff0000000000000 3fdb3f1773f1773f 3ffebc45b5efcfcc",
                    "13 62 236 2029 2029 3ff0000000000000 3fd51d5acb6f464f 3fff536978ee1025",
                ],
            ),
        ];
        for (failure_rate, policies, want) in pins {
            let cfg = LifetimeConfig {
                initial_energy: 0.05,
                max_rounds: 2_000,
                failure_rate,
                policies: policies.cloned(),
                ..LifetimeConfig::default()
            };
            for (protocol, want) in protocols.into_iter().zip(want) {
                let s = simulate_lifetime(&f, protocol, &cfg);
                assert_eq!(
                    stat_bits(&s),
                    want,
                    "{} at {failure_rate}, policies {}",
                    protocol.label(),
                    policies.is_some()
                );
            }
        }
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
