//! Implicit (BDD) analysis — the keynote's "traversal" side of
//! simulation-versus-traversal (slide 32).
//!
//! States are encoded over one of two variable orders
//! ([`VariableOrder`]): the default *interleaved* order puts gene `i`'s
//! current value at BDD variable `2i` and its next-state value at
//! `2i + 1`, which keeps the transition relation small; the *sequential*
//! order (`i` and `n + i`) is kept as an ablation showing how much
//! variable ordering matters. Both make the primed↔unprimed renaming
//! monotone, so [`mns_dd::BddManager::rename`] applies.

use mns_dd::{BddManager, Ref, Var};

use crate::dynamics::Attractor;
use crate::expr::Expr;
use crate::network::{BooleanNetwork, NetworkError, Perturbation, PerturbationKind, State};

/// How current/next-state variables are laid out in the BDD order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariableOrder {
    /// Gene `i` at variable `2i`, its next-state copy at `2i + 1`
    /// (default; keeps the transition relation compact).
    #[default]
    Interleaved,
    /// Gene `i` at variable `i`, its next-state copy at `n + i`
    /// (ablation: typically much larger transition relations).
    Sequential,
}

/// Symbolic engine for one network: owns a BDD manager over `2n`
/// interleaved variables plus the per-gene update functions.
///
/// One engine answers the network's fixed points and those of each of its
/// single-gene perturbations
/// ([`perturbed_fixed_point_states`](Self::perturbed_fixed_point_states)):
/// all of them share the prefix products of the fixed-point terms.
///
/// ```
/// use mns_grn::{symbolic::SymbolicDynamics, BooleanNetwork};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = BooleanNetwork::builder()
///     .genes(&["a", "b"])
///     .rule("a", "!b")?
///     .rule("b", "!a")?
///     .build()?;
/// let mut sym = SymbolicDynamics::new(&net);
/// assert_eq!(sym.fixed_point_count(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SymbolicDynamics {
    net: BooleanNetwork,
    mgr: BddManager,
    updates: Vec<Ref>,
    transition: Option<Ref>,
    async_transition: Option<Ref>,
    order: VariableOrder,
    /// `prefixes[i]` is `P_i = t_0 ∧ … ∧ t_{i−1}` of the fixed-point terms
    /// `t_j = (x_j ↔ f_j)`, extended only as far as a query has needed.
    prefixes: Vec<Ref>,
}

impl SymbolicDynamics {
    /// Builds the symbolic engine with the default interleaved order
    /// (computes per-gene update BDDs; the monolithic transition relation
    /// is built lazily on first use).
    pub fn new(net: &BooleanNetwork) -> Self {
        Self::with_order(net, VariableOrder::Interleaved)
    }

    /// Builds the symbolic engine with an explicit variable order
    /// (ablation A4 compares the two).
    pub fn with_order(net: &BooleanNetwork, order: VariableOrder) -> Self {
        let n = net.len();
        let mut mgr = BddManager::new(2 * n as Var);
        let updates: Vec<Ref> = net
            .rules()
            .iter()
            .map(|rule| expr_to_bdd(&mut mgr, rule, order, n))
            .collect();
        SymbolicDynamics {
            net: net.clone(),
            prefixes: vec![mgr.one()],
            mgr,
            updates,
            transition: None,
            async_transition: None,
            order,
        }
    }

    /// BDD variable of gene `i`'s current value.
    fn cur(&self, i: usize) -> Var {
        cur_var(i, self.order)
    }

    /// BDD variable of gene `i`'s next-state value.
    fn nxt(&self, i: usize) -> Var {
        self.cur(i) + self.primed_offset()
    }

    /// Access to the underlying manager (e.g. for node-count metrics).
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Enables or disables the underlying computed cache (ablation A1).
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.mgr.set_cache_enabled(enabled);
    }

    fn current_vars(&self) -> Vec<Var> {
        (0..self.net.len()).map(|i| self.cur(i)).collect()
    }

    fn primed_vars(&self) -> Vec<Var> {
        (0..self.net.len()).map(|i| self.nxt(i)).collect()
    }

    /// The fixed-point term `t_i = (x_i ↔ f_i)` of gene `i`.
    fn fixed_point_term(&mut self, i: usize) -> Ref {
        let x = self.mgr.var(self.cur(i));
        self.mgr.iff(x, self.updates[i])
    }

    /// The prefix product `P_i` of the terms of genes `0..i`, extending
    /// the cached prefixes as far as `i`.
    fn prefix(&mut self, i: usize) -> Ref {
        while self.prefixes.len() <= i {
            let j = self.prefixes.len() - 1;
            let term = self.fixed_point_term(j);
            let product = self.mgr.and(self.prefixes[j], term);
            self.prefixes.push(product);
        }
        self.prefixes[i]
    }

    /// The characteristic function of all synchronous fixed points,
    /// `∧ᵢ (xᵢ ↔ fᵢ(x))`, over current-state variables: the prefix product
    /// `P_n`, kept after the first call.
    pub fn fixed_point_set(&mut self) -> Ref {
        self.prefix(self.net.len())
    }

    /// Number of synchronous fixed points.
    pub fn fixed_point_count(&mut self) -> f64 {
        let fps = self.fixed_point_set();
        self.state_count(fps)
    }

    /// Materializes the fixed points as packed states.
    pub fn fixed_point_states(&mut self) -> Vec<State> {
        let _span = mns_telemetry::span("grn.fixed_points");
        let fps = self.fixed_point_set();
        self.states_of(fps)
    }

    /// Materializes the fixed points of this network with `perturbation`
    /// applied: for gene `g`, the states of
    /// `P_g ∧ ¬x_g ∧ t_{g+1} ∧ … ∧ t_{n−1}` (`x_g` for an over-expression),
    /// conjoined in gene order. That is the conjunction
    /// [`fixed_point_set`](Self::fixed_point_set) builds for the network
    /// [`BooleanNetwork::with_perturbation`] returns. In one manager a BDD
    /// is canonical, so the states equal those of a fresh engine of the
    /// perturbed network, while every query shares the prefix products.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownGene`] if the target is not a gene of
    /// this network.
    pub fn perturbed_fixed_point_states(
        &mut self,
        perturbation: &Perturbation,
    ) -> Result<Vec<State>, NetworkError> {
        let g = self
            .net
            .gene_index(perturbation.gene())
            .ok_or_else(|| NetworkError::UnknownGene(perturbation.gene().to_owned()))?;
        let _span = mns_telemetry::span("grn.fixed_points");
        let stuck = match perturbation.kind() {
            PerturbationKind::KnockOut => self.mgr.nvar(self.cur(g)),
            PerturbationKind::OverExpress => self.mgr.var(self.cur(g)),
        };
        let prefix = self.prefix(g);
        let mut acc = self.mgr.and(prefix, stuck);
        for i in g + 1..self.net.len() {
            let term = self.fixed_point_term(i);
            acc = self.mgr.and(acc, term);
        }
        Ok(self.states_of(acc))
    }

    /// Number of states in a set over current-state variables (primed
    /// variables must be unconstrained, as produced by this engine).
    pub fn state_count(&self, set: Ref) -> f64 {
        // sat_count ranges over all 2n variables; the n primed ones are
        // free and contribute a factor of 2^n.
        self.mgr.sat_count(set) / 2f64.powi(self.net.len() as i32)
    }

    /// Extracts every state in a (current-variable) set. Intended for
    /// modest result sets such as attractor cycles.
    pub fn states_of(&self, set: Ref) -> Vec<State> {
        let current = self.current_vars();
        let mut out: Vec<State> = self
            .mgr
            .all_sat_over(set, &current)
            .into_iter()
            .map(|assignment| {
                let mut bits = 0u64;
                for (i, &v) in assignment.iter().enumerate() {
                    if v {
                        bits |= 1 << i;
                    }
                }
                State::from_bits(bits)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The BDD for a single concrete state (conjunction of current-state
    /// literals).
    pub fn state_to_bdd(&mut self, s: State) -> Ref {
        let mut acc = self.mgr.one();
        for i in 0..self.net.len() {
            let lit = if s.get(i) {
                self.mgr.var(self.cur(i))
            } else {
                self.mgr.nvar(self.cur(i))
            };
            acc = self.mgr.and(acc, lit);
        }
        acc
    }

    /// The monolithic synchronous transition relation
    /// `T(x, x') = ∧ᵢ (x'ᵢ ↔ fᵢ(x))`, cached after the first call.
    pub fn transition_relation(&mut self) -> Ref {
        if let Some(t) = self.transition {
            return t;
        }
        let mut acc = self.mgr.one();
        for i in 0..self.net.len() {
            let xp = self.mgr.var(self.nxt(i));
            let u = self.updates[i];
            let eq = self.mgr.iff(xp, u);
            acc = self.mgr.and(acc, eq);
        }
        self.transition = Some(acc);
        acc
    }

    /// The asynchronous transition relation: exactly one gene is updated
    /// per step, `T(x, x') = ∨ᵢ (x'ᵢ ↔ fᵢ(x)) ∧ ∧_{j≠i} (x'ⱼ ↔ xⱼ)`
    /// (self-loops included when the chosen gene does not change). Cached
    /// after the first call.
    pub fn async_transition_relation(&mut self) -> Ref {
        if let Some(t) = self.async_transition {
            return t;
        }
        let n = self.net.len();
        // Shared "frame" conjuncts x'_j ↔ x_j are built per clause.
        let mut acc = self.mgr.zero();
        for i in 0..n {
            let xp = self.mgr.var(self.nxt(i));
            let u = self.updates[i];
            let mut clause = self.mgr.iff(xp, u);
            for j in 0..n {
                if j == i {
                    continue;
                }
                let xj = self.mgr.var(self.cur(j));
                let xpj = self.mgr.var(self.nxt(j));
                let frame = self.mgr.iff(xpj, xj);
                clause = self.mgr.and(clause, frame);
            }
            acc = self.mgr.or(acc, clause);
        }
        self.async_transition = Some(acc);
        acc
    }

    /// The (monotone) offset between a gene's current and next-state
    /// variables under the active order — the single definition every
    /// primed↔unprimed rename uses.
    fn primed_offset(&self) -> Var {
        match self.order {
            VariableOrder::Interleaved => 1,
            VariableOrder::Sequential => self.net.len() as Var,
        }
    }

    /// Renames a primed-variable set down to current variables.
    fn shift_down(&mut self, f: Ref) -> Ref {
        let d = self.primed_offset();
        self.mgr.rename(f, move |v| v - d)
    }

    /// Renames a current-variable set up to primed variables.
    fn shift_up(&mut self, f: Ref) -> Ref {
        let d = self.primed_offset();
        self.mgr.rename(f, move |v| v + d)
    }

    fn image_with(&mut self, set: Ref, t: Ref) -> Ref {
        let current = self.current_vars();
        let primed = self.mgr.and_exists(set, t, &current);
        self.shift_down(primed)
    }

    /// Forward image under asynchronous (one-gene-at-a-time) update.
    pub fn async_image(&mut self, set: Ref) -> Ref {
        let t = self.async_transition_relation();
        self.image_with(set, t)
    }

    /// Backward image under asynchronous update.
    pub fn async_preimage(&mut self, set: Ref) -> Ref {
        let t = self.async_transition_relation();
        let shifted = self.shift_up(set);
        let primed = self.primed_vars();
        self.mgr.and_exists(shifted, t, &primed)
    }

    fn reach_fix(&mut self, from: Ref, step: fn(&mut Self, Ref) -> Ref, within: Ref) -> Ref {
        let mut current = self.mgr.and(from, within);
        loop {
            let img = step(self, current);
            let bounded = self.mgr.and(img, within);
            let next = self.mgr.or(current, bounded);
            if next == current {
                return current;
            }
            current = next;
        }
    }

    /// Complete asynchronous attractor extraction: terminal SCCs of the
    /// one-gene-at-a-time transition graph, by Xie–Beerel-style
    /// forward/backward trimming. States per attractor ascending; basins
    /// not computed.
    pub fn attractors_async(&mut self) -> Vec<Attractor> {
        let mut candidates = self.mgr.one();
        let mut out = Vec::new();
        while candidates != self.mgr.zero() {
            // Pick a witness state from the remaining candidates.
            let witness = self
                .mgr
                .one_sat(candidates)
                .expect("non-zero BDD has a witness");
            let mut bits = 0u64;
            for i in 0..self.net.len() {
                if witness[self.cur(i) as usize] {
                    bits |= 1 << i;
                }
            }
            let s = self.state_to_bdd(State::from_bits(bits));
            let forward = self.reach_fix(s, Self::async_image, candidates);
            let scc = self.reach_fix(s, Self::async_preimage, forward);
            // The SCC is an attractor iff no transition leaves it
            // (checked against the FULL state space, not just candidates).
            let img = self.async_image(scc);
            let not_scc = self.mgr.not(scc);
            let leaving = self.mgr.and(img, not_scc);
            if leaving == self.mgr.zero() {
                let states = self.states_of(scc);
                out.push(Attractor {
                    states,
                    basin: None,
                });
            }
            // Remove everything that can reach the witness: such states
            // either belong to this SCC or to no attractor at all.
            let back = self.reach_fix(s, Self::async_preimage, candidates);
            let not_back = self.mgr.not(back);
            candidates = self.mgr.and(candidates, not_back);
        }
        out.sort_by_key(Attractor::key);
        out
    }

    /// Forward image: the set of successors of `set` under synchronous
    /// update.
    pub fn image(&mut self, set: Ref) -> Ref {
        let t = self.transition_relation();
        self.image_with(set, t)
    }

    /// Least fixed point of `S ∪ Img(S)` starting from `from` — all states
    /// reachable from `from` (inclusive). Returns the set and the number
    /// of image iterations performed.
    pub fn reachable(&mut self, from: Ref) -> (Ref, usize) {
        let mut current = from;
        let mut steps = 0;
        loop {
            let img = self.image(current);
            let next = self.mgr.or(current, img);
            if next == current {
                return (current, steps);
            }
            current = next;
            steps += 1;
        }
    }

    /// The set of all states lying on a synchronous cycle, computed as the
    /// limit of `S₀ = ⊤, Sₖ₊₁ = Img(Sₖ)`. Because synchronous dynamics is
    /// deterministic, the iteration converges to exactly the union of all
    /// attractor cycles.
    pub fn cycle_states(&mut self) -> Ref {
        let mut current = self.mgr.one();
        loop {
            let next = self.image(current);
            if next == current {
                return current;
            }
            current = next;
        }
    }

    /// Complete synchronous attractor extraction: computes
    /// [`cycle_states`](Self::cycle_states) symbolically, then unrolls each
    /// cycle with explicit steps. Basins are not computed (use
    /// [`crate::dynamics::sync_attractors`] for exact basins on small
    /// networks).
    pub fn attractors(&mut self) -> Vec<Attractor> {
        let mut remaining = self.cycle_states();
        let mut out = Vec::new();
        while remaining != self.mgr.zero() {
            let witness = self
                .mgr
                .one_sat(remaining)
                .expect("non-zero BDD has a witness");
            let mut bits = 0u64;
            for i in 0..self.net.len() {
                if witness[self.cur(i) as usize] {
                    bits |= 1 << i;
                }
            }
            // Unroll the cycle through this state explicitly.
            let start = State::from_bits(bits);
            let mut cycle = vec![start];
            let mut cur = self.net.sync_step(start);
            while cur != start {
                cycle.push(cur);
                cur = self.net.sync_step(cur);
            }
            // Canonical rotation to the smallest member.
            let min_pos = cycle
                .iter()
                .enumerate()
                .min_by_key(|&(_, s)| s)
                .map(|(i, _)| i)
                .expect("cycle non-empty");
            cycle.rotate_left(min_pos);
            // Remove the cycle from the remaining set.
            for &s in &cycle {
                let sb = self.state_to_bdd(s);
                let ns = self.mgr.not(sb);
                remaining = self.mgr.and(remaining, ns);
            }
            out.push(Attractor {
                states: cycle,
                basin: None,
            });
        }
        out.sort_by_key(Attractor::key);
        out
    }
}

/// BDD variable of gene `i`'s current value under an order.
fn cur_var(i: usize, order: VariableOrder) -> Var {
    match order {
        VariableOrder::Interleaved => 2 * i as Var,
        VariableOrder::Sequential => i as Var,
    }
}

/// Converts a rule expression to a BDD over current-state variables.
fn expr_to_bdd(mgr: &mut BddManager, e: &Expr, order: VariableOrder, n: usize) -> Ref {
    let _ = n;
    match e {
        Expr::Const(true) => mgr.one(),
        Expr::Const(false) => mgr.zero(),
        Expr::Var(i) => mgr.var(cur_var(*i, order)),
        Expr::Not(inner) => {
            let x = expr_to_bdd(mgr, inner, order, n);
            mgr.not(x)
        }
        Expr::And(a, b) => {
            let x = expr_to_bdd(mgr, a, order, n);
            let y = expr_to_bdd(mgr, b, order, n);
            mgr.and(x, y)
        }
        Expr::Or(a, b) => {
            let x = expr_to_bdd(mgr, a, order, n);
            let y = expr_to_bdd(mgr, b, order, n);
            mgr.or(x, y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics;
    use crate::random::{random_network, RandomNetworkConfig};
    use rand::SeedableRng;

    fn toggle_pair() -> BooleanNetwork {
        BooleanNetwork::builder()
            .genes(&["a", "b"])
            .rule("a", "!b")
            .unwrap()
            .rule("b", "!a")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn fixed_points_match_explicit() {
        let net = toggle_pair();
        let mut sym = SymbolicDynamics::new(&net);
        let symbolic: Vec<State> = sym.fixed_point_states();
        let explicit = dynamics::fixed_points(&net, None).unwrap();
        assert_eq!(symbolic, explicit);
        assert_eq!(sym.fixed_point_count(), 2.0);
    }

    #[test]
    fn perturbing_an_unknown_gene_is_an_error() {
        let mut sym = SymbolicDynamics::new(&toggle_pair());
        assert_eq!(
            sym.perturbed_fixed_point_states(&Perturbation::knock_out("c")),
            Err(NetworkError::UnknownGene("c".to_owned()))
        );
        let a_off = sym.perturbed_fixed_point_states(&Perturbation::knock_out("a"));
        assert_eq!(a_off, Ok(vec![State::from_bits(0b10)]));
    }

    #[test]
    fn image_of_single_state_is_its_successor() {
        let net = toggle_pair();
        let mut sym = SymbolicDynamics::new(&net);
        let s = State::from_bits(0b00);
        let sb = sym.state_to_bdd(s);
        let img = sym.image(sb);
        let succ = sym.states_of(img);
        assert_eq!(succ, vec![net.sync_step(s)]);
    }

    #[test]
    fn reachable_from_state_matches_walk() {
        let net = toggle_pair();
        let mut sym = SymbolicDynamics::new(&net);
        let s0 = sym.state_to_bdd(State::from_bits(0b00));
        let (reach, steps) = sym.reachable(s0);
        let states = sym.states_of(reach);
        // 00 → 11 → 00: the reachable set is {00, 11}.
        assert_eq!(states, vec![State::from_bits(0b00), State::from_bits(0b11)]);
        assert!(steps <= 2);
    }

    #[test]
    fn cycle_states_and_attractors_match_explicit() {
        let net = toggle_pair();
        let mut sym = SymbolicDynamics::new(&net);
        let atts = sym.attractors();
        let explicit = dynamics::sync_attractors(&net, None).unwrap();
        assert_eq!(atts.len(), explicit.len());
        for (a, b) in atts.iter().zip(&explicit) {
            assert_eq!(a.states, b.states);
        }
    }

    #[test]
    fn async_attractors_match_explicit_tarjan() {
        for seed in 0..10u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let cfg = RandomNetworkConfig {
                genes: 6,
                regulators: 2,
                bias: 0.5,
            };
            let net = random_network(&cfg, &mut rng);
            let explicit = dynamics::async_attractors(&net, None).unwrap();
            let mut sym = SymbolicDynamics::new(&net);
            let symbolic = sym.attractors_async();
            assert_eq!(explicit.len(), symbolic.len(), "seed {seed}");
            for (a, b) in explicit.iter().zip(&symbolic) {
                assert_eq!(a.states, b.states, "seed {seed}");
            }
        }
    }

    #[test]
    fn async_attractors_of_toggle_are_the_fixed_points() {
        let net = toggle_pair();
        let mut sym = SymbolicDynamics::new(&net);
        let atts = sym.attractors_async();
        assert_eq!(atts.len(), 2);
        assert!(atts.iter().all(|a| a.states.len() == 1));
    }

    #[test]
    fn arabidopsis_async_attractors_are_fixed_points() {
        // 15 genes: beyond comfortable explicit Tarjan, fine symbolically.
        let net = crate::models::arabidopsis(crate::models::FloralInputs::whorls()[0]);
        let mut sym = SymbolicDynamics::new(&net);
        let atts = sym.attractors_async();
        assert!(!atts.is_empty());
        // The flowering circuit's asynchronous attractors are all steady
        // states (its only sync cycles are update-order artifacts).
        assert!(atts.iter().all(|a| a.states.len() == 1));
        // They coincide with the fixed points.
        let fps = sym.fixed_point_states();
        let keys: Vec<State> = atts.iter().map(|a| a.states[0]).collect();
        assert_eq!(keys, fps);
    }

    /// 23-gene T-helper async attractors — minutes in debug, seconds in
    /// release: `cargo test --release -p mns-grn -- --ignored`.
    #[test]
    #[ignore = "slow in debug builds; run with --release"]
    fn thelper_async_attractors_are_the_three_fates() {
        let net = crate::models::t_helper();
        let mut sym = SymbolicDynamics::new(&net);
        let atts = sym.attractors_async();
        assert_eq!(atts.len(), 3);
        assert!(atts.iter().all(|a| a.states.len() == 1));
    }

    #[test]
    fn sequential_order_gives_identical_results() {
        for seed in 0..6u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let cfg = RandomNetworkConfig {
                genes: 7,
                regulators: 2,
                bias: 0.5,
            };
            let net = random_network(&cfg, &mut rng);
            let mut inter = SymbolicDynamics::new(&net);
            let mut seq = SymbolicDynamics::with_order(&net, VariableOrder::Sequential);
            assert_eq!(inter.fixed_point_states(), seq.fixed_point_states());
            let a = inter.attractors();
            let b = seq.attractors();
            assert_eq!(a.len(), b.len(), "seed {seed}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.states, y.states);
            }
        }
    }

    #[test]
    fn interleaving_shrinks_the_transition_relation() {
        // The classic ordering lesson: on a chain-structured network the
        // sequential order blows the transition relation up.
        let mut b = BooleanNetwork::builder();
        let n = 12;
        for i in 0..n {
            b = b.gene(&format!("g{i}"));
        }
        for i in 0..n {
            b = b
                .rule(&format!("g{i}"), &format!("g{}", (i + 1) % n))
                .unwrap();
        }
        let net = b.build().unwrap();
        let mut inter = SymbolicDynamics::new(&net);
        let mut seq = SymbolicDynamics::with_order(&net, VariableOrder::Sequential);
        let ti = inter.transition_relation();
        let ts = seq.transition_relation();
        let size_i = inter.manager().dag_size(ti);
        let size_s = seq.manager().dag_size(ts);
        assert!(
            size_s > 4 * size_i,
            "sequential {size_s} should dwarf interleaved {size_i}"
        );
    }

    #[test]
    fn randomized_agreement_with_explicit_enumeration() {
        for seed in 0..10u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let cfg = RandomNetworkConfig {
                genes: 8,
                regulators: 2,
                bias: 0.5,
            };
            let net = random_network(&cfg, &mut rng);
            let mut sym = SymbolicDynamics::new(&net);
            let explicit = dynamics::sync_attractors(&net, None).unwrap();
            let symbolic = sym.attractors();
            assert_eq!(
                symbolic.len(),
                explicit.len(),
                "attractor count differs for seed {seed}"
            );
            for (a, b) in symbolic.iter().zip(&explicit) {
                assert_eq!(a.states, b.states, "cycle differs for seed {seed}");
            }
            // Fixed-point counts agree too.
            let fp_explicit = dynamics::fixed_points(&net, None).unwrap().len();
            assert_eq!(sym.fixed_point_count() as usize, fp_explicit);
        }
    }
}
