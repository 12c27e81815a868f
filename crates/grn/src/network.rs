//! Boolean network definition and perturbation.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::expr::{Expr, ParseExprError};

/// Maximum number of genes — states are packed into a `u64`.
pub const MAX_GENES: usize = 64;

/// A packed network state: bit `i` holds the value of gene `i`.
///
/// ```
/// use mns_grn::State;
/// let s = State::from_bits(0b101);
/// assert!(s.get(0) && !s.get(1) && s.get(2));
/// assert_eq!(s.set(1, true).bits(), 0b111);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct State(u64);

impl State {
    /// The all-zero state.
    pub const ZERO: State = State(0);

    /// Creates a state from a raw bitmask.
    pub const fn from_bits(bits: u64) -> State {
        State(bits)
    }

    /// The raw bitmask.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Value of gene `i`.
    pub const fn get(self, i: usize) -> bool {
        self.0 >> i & 1 == 1
    }

    /// Returns a copy with gene `i` set to `value`.
    pub const fn set(self, i: usize, value: bool) -> State {
        if value {
            State(self.0 | 1 << i)
        } else {
            State(self.0 & !(1 << i))
        }
    }

    /// Number of active genes.
    pub const fn active_count(self) -> u32 {
        self.0.count_ones()
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:b}", self.0)
    }
}

/// What a perturbation does to its target gene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerturbationKind {
    /// Knock-out: the gene's rule is replaced by constant 0 (the keynote's
    /// "stuck-at 0 — déjà vu").
    KnockOut,
    /// Over-expression: rule replaced by constant 1 (stuck-at-1).
    OverExpress,
}

/// A named in-silico genetic perturbation.
///
/// ```
/// use mns_grn::Perturbation;
/// let p = Perturbation::knock_out("AP3");
/// assert_eq!(p.gene(), "AP3");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Perturbation {
    gene: String,
    kind: PerturbationKind,
}

impl Perturbation {
    /// A stuck-at-0 knock-out of `gene`.
    pub fn knock_out(gene: &str) -> Perturbation {
        Perturbation {
            gene: gene.to_owned(),
            kind: PerturbationKind::KnockOut,
        }
    }

    /// A stuck-at-1 over-expression of `gene`.
    pub fn over_express(gene: &str) -> Perturbation {
        Perturbation {
            gene: gene.to_owned(),
            kind: PerturbationKind::OverExpress,
        }
    }

    /// Target gene name.
    pub fn gene(&self) -> &str {
        &self.gene
    }

    /// Perturbation kind.
    pub fn kind(&self) -> PerturbationKind {
        self.kind
    }
}

/// Errors building or perturbing a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A gene name was used twice.
    DuplicateGene(String),
    /// A referenced gene does not exist.
    UnknownGene(String),
    /// The network would exceed [`MAX_GENES`].
    TooManyGenes(usize),
    /// A gene was left without an update rule.
    MissingRule(String),
    /// A rule failed to parse.
    Rule(String, ParseExprError),
    /// The analysis requested is too large for explicit enumeration.
    TooLarge {
        /// Number of genes in the network.
        genes: usize,
        /// Maximum supported by the routine.
        max: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DuplicateGene(g) => write!(f, "duplicate gene '{g}'"),
            NetworkError::UnknownGene(g) => write!(f, "unknown gene '{g}'"),
            NetworkError::TooManyGenes(n) => {
                write!(f, "{n} genes exceed the supported maximum of {MAX_GENES}")
            }
            NetworkError::MissingRule(g) => write!(f, "gene '{g}' has no update rule"),
            NetworkError::Rule(g, e) => write!(f, "rule for '{g}': {e}"),
            NetworkError::TooLarge { genes, max } => write!(
                f,
                "explicit enumeration over {genes} genes exceeds the limit of {max}"
            ),
        }
    }
}

impl Error for NetworkError {}

/// A Boolean gene regulatory network: named genes with one update rule
/// each.
///
/// Build with [`BooleanNetwork::builder`]:
///
/// ```
/// use mns_grn::BooleanNetwork;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = BooleanNetwork::builder()
///     .gene("a")
///     .gene("b")
///     .rule("a", "!b")?
///     .rule("b", "!a")?
///     .build()?;
/// assert_eq!(net.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BooleanNetwork {
    genes: Vec<String>,
    rules: Vec<Expr>,
    index: HashMap<String, usize>,
}

impl BooleanNetwork {
    /// Starts building a network.
    pub fn builder() -> BooleanNetworkBuilder {
        BooleanNetworkBuilder::default()
    }

    /// Number of genes.
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Whether the network has no genes.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Gene names in index order.
    pub fn genes(&self) -> &[String] {
        &self.genes
    }

    /// Update rules in index order.
    pub fn rules(&self) -> &[Expr] {
        &self.rules
    }

    /// Index of the gene named `name`.
    pub fn gene_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Name of gene `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn gene_name(&self, i: usize) -> &str {
        &self.genes[i]
    }

    /// Synchronous successor: every gene updated simultaneously.
    pub fn sync_step(&self, s: State) -> State {
        let mut next = 0u64;
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.eval_bits(s.bits()) {
                next |= 1 << i;
            }
        }
        State::from_bits(next)
    }

    /// Asynchronous successors: all states reachable by updating exactly
    /// one gene whose value would change. A steady state returns an empty
    /// vector.
    pub fn async_successors(&self, s: State) -> Vec<State> {
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let v = rule.eval_bits(s.bits());
            if v != s.get(i) {
                out.push(s.set(i, v));
            }
        }
        out
    }

    /// Whether `s` is a fixed point under both semantics.
    pub fn is_fixed_point(&self, s: State) -> bool {
        self.sync_step(s) == s
    }

    /// Returns a copy with `perturbation` applied (the rule of the target
    /// gene replaced by a constant).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownGene`] if the target does not exist.
    pub fn with_perturbation(
        &self,
        perturbation: &Perturbation,
    ) -> Result<BooleanNetwork, NetworkError> {
        let i = self
            .gene_index(perturbation.gene())
            .ok_or_else(|| NetworkError::UnknownGene(perturbation.gene().to_owned()))?;
        let mut net = self.clone();
        net.rules[i] = match perturbation.kind() {
            PerturbationKind::KnockOut => Expr::Const(false),
            PerturbationKind::OverExpress => Expr::Const(true),
        };
        Ok(net)
    }

    /// Formats a state as the list of active gene names.
    pub fn describe_state(&self, s: State) -> String {
        let active: Vec<&str> = (0..self.len())
            .filter(|&i| s.get(i))
            .map(|i| self.genes[i].as_str())
            .collect();
        if active.is_empty() {
            "∅".to_owned()
        } else {
            active.join("+")
        }
    }
}

/// Incremental builder for [`BooleanNetwork`].
#[derive(Debug, Default)]
pub struct BooleanNetworkBuilder {
    genes: Vec<String>,
    rules: Vec<Option<Expr>>,
    index: HashMap<String, usize>,
    error: Option<NetworkError>,
}

impl BooleanNetworkBuilder {
    /// Declares a gene. Genes are indexed in declaration order.
    pub fn gene(mut self, name: &str) -> Self {
        if self.error.is_some() {
            return self;
        }
        if self.index.contains_key(name) {
            self.error = Some(NetworkError::DuplicateGene(name.to_owned()));
            return self;
        }
        if self.genes.len() >= MAX_GENES {
            self.error = Some(NetworkError::TooManyGenes(self.genes.len() + 1));
            return self;
        }
        self.index.insert(name.to_owned(), self.genes.len());
        self.genes.push(name.to_owned());
        self.rules.push(None);
        self
    }

    /// Declares several genes at once.
    pub fn genes(mut self, names: &[&str]) -> Self {
        for n in names {
            self = self.gene(n);
        }
        self
    }

    /// Sets the update rule of `gene` from rule text.
    ///
    /// # Errors
    ///
    /// Fails on unknown genes or syntax errors (reported at [`build`]).
    ///
    /// [`build`]: BooleanNetworkBuilder::build
    pub fn rule(mut self, gene: &str, text: &str) -> Result<Self, NetworkError> {
        if self.error.is_some() {
            return Ok(self);
        }
        let Some(&target) = self.index.get(gene) else {
            return Err(NetworkError::UnknownGene(gene.to_owned()));
        };
        let index = &self.index;
        let expr = Expr::parse(text, &|name| index.get(name).copied())
            .map_err(|e| NetworkError::Rule(gene.to_owned(), e))?;
        self.rules[target] = Some(expr);
        Ok(self)
    }

    /// Sets the update rule of `gene` from a pre-built expression.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownGene`] if the gene does not exist.
    pub fn rule_expr(mut self, gene: &str, expr: Expr) -> Result<Self, NetworkError> {
        if self.error.is_some() {
            return Ok(self);
        }
        let Some(&target) = self.index.get(gene) else {
            return Err(NetworkError::UnknownGene(gene.to_owned()));
        };
        self.rules[target] = Some(expr);
        Ok(self)
    }

    /// Marks `gene` as an input frozen at `value` (rule = constant).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownGene`] if the gene does not exist.
    pub fn input(self, gene: &str, value: bool) -> Result<Self, NetworkError> {
        self.rule_expr(gene, Expr::Const(value))
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Reports duplicate genes, missing rules, out-of-range variables or
    /// size overflow.
    pub fn build(self) -> Result<BooleanNetwork, NetworkError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut rules = Vec::with_capacity(self.genes.len());
        for (i, r) in self.rules.into_iter().enumerate() {
            match r {
                Some(e) => rules.push(e),
                None => return Err(NetworkError::MissingRule(self.genes[i].clone())),
            }
        }
        Ok(BooleanNetwork {
            genes: self.genes,
            rules,
            index: self.index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn state_accessors() {
        let s = State::from_bits(0b0110);
        assert!(!s.get(0) && s.get(1) && s.get(2) && !s.get(3));
        assert_eq!(s.active_count(), 2);
        assert_eq!(s.set(0, true).bits(), 0b0111);
        assert_eq!(s.set(1, false).bits(), 0b0100);
    }

    #[test]
    fn sync_step_mutual_repression() {
        let net = toggle_pair();
        // (1,0) and (0,1) are fixed points; (0,0) ↔ (1,1) is a 2-cycle.
        assert!(net.is_fixed_point(State::from_bits(0b01)));
        assert!(net.is_fixed_point(State::from_bits(0b10)));
        assert_eq!(net.sync_step(State::from_bits(0b00)).bits(), 0b11);
        assert_eq!(net.sync_step(State::from_bits(0b11)).bits(), 0b00);
    }

    #[test]
    fn async_successors_only_changing_genes() {
        let net = toggle_pair();
        let succ = net.async_successors(State::from_bits(0b00));
        assert_eq!(succ.len(), 2);
        assert!(succ.contains(&State::from_bits(0b01)));
        assert!(succ.contains(&State::from_bits(0b10)));
        assert!(net.async_successors(State::from_bits(0b01)).is_empty());
    }

    #[test]
    fn perturbation_replaces_rule() {
        let net = toggle_pair();
        let ko = net
            .with_perturbation(&Perturbation::knock_out("a"))
            .unwrap();
        // a stuck at 0: from (0,0) only b can rise.
        assert_eq!(ko.sync_step(State::from_bits(0b00)).bits(), 0b10);
        let oe = net
            .with_perturbation(&Perturbation::over_express("a"))
            .unwrap();
        assert_eq!(oe.sync_step(State::from_bits(0b10)).bits(), 0b11);
        assert!(net
            .with_perturbation(&Perturbation::knock_out("zzz"))
            .is_err());
    }

    #[test]
    fn builder_error_paths() {
        let err = BooleanNetwork::builder()
            .gene("a")
            .gene("a")
            .rule("a", "a")
            .unwrap()
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::DuplicateGene("a".into()));

        let err = BooleanNetwork::builder().gene("a").build().unwrap_err();
        assert_eq!(err, NetworkError::MissingRule("a".into()));

        assert!(BooleanNetwork::builder().gene("a").rule("b", "a").is_err());
        assert!(matches!(
            BooleanNetwork::builder().gene("a").rule("a", "a &"),
            Err(NetworkError::Rule(_, _))
        ));
    }

    #[test]
    fn describe_state_names_active_genes() {
        let net = toggle_pair();
        assert_eq!(net.describe_state(State::from_bits(0b01)), "a");
        assert_eq!(net.describe_state(State::from_bits(0b11)), "a+b");
        assert_eq!(net.describe_state(State::ZERO), "∅");
    }

    #[test]
    fn inputs_are_frozen_constants() {
        let net = BooleanNetwork::builder()
            .genes(&["sig", "out"])
            .input("sig", true)
            .unwrap()
            .rule("out", "sig")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(net.sync_step(State::ZERO).bits(), 0b01);
        assert_eq!(net.sync_step(State::from_bits(0b01)).bits(), 0b11);
    }
}
