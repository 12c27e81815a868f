//! Two-level (PLA-style) logic functions over the crossbar's input
//! columns.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One product term: the bitmask of input columns that must be high
/// (AND of positive literals, the connection pattern a crossbar row
/// realizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProductTerm(pub u64);

impl ProductTerm {
    /// Evaluates the term on an input vector (bit `i` = input `i`).
    pub fn eval(self, inputs: u64) -> bool {
        inputs & self.0 == self.0
    }
}

/// A sum-of-products function: OR of [`ProductTerm`]s over `inputs`
/// columns.
///
/// ```
/// use mns_crossbar::logic::{LogicFunction, ProductTerm};
/// let f = LogicFunction::new(3, vec![ProductTerm(0b011), ProductTerm(0b100)]);
/// assert!(f.eval(0b011)); // first term fires
/// assert!(f.eval(0b100)); // second term fires
/// assert!(!f.eval(0b010));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicFunction {
    inputs: usize,
    terms: Vec<ProductTerm>,
}

impl LogicFunction {
    /// Builds a function, validating that terms fit the input count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is 0 or exceeds 64, or a term references an
    /// input ≥ `inputs`.
    pub fn new(inputs: usize, terms: Vec<ProductTerm>) -> Self {
        assert!(inputs > 0 && inputs <= 64, "1..=64 inputs supported");
        let mask = if inputs == 64 {
            u64::MAX
        } else {
            (1u64 << inputs) - 1
        };
        for t in &terms {
            assert!(t.0 & !mask == 0, "term references an input out of range");
        }
        LogicFunction { inputs, terms }
    }

    /// A random function: `terms` distinct product terms of exactly
    /// `literals` literals each.
    ///
    /// # Panics
    ///
    /// Panics if `literals > inputs` or the requested number of distinct
    /// terms cannot exist.
    pub fn random(inputs: usize, terms: usize, literals: usize, seed: u64) -> Self {
        assert!(literals <= inputs, "more literals than inputs");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut set = std::collections::BTreeSet::new();
        let mut attempts = 0;
        while set.len() < terms {
            attempts += 1;
            assert!(
                attempts < 1_000_000,
                "cannot draw {terms} distinct {literals}-literal terms over {inputs} inputs"
            );
            let mut mask = 0u64;
            while mask.count_ones() < literals as u32 {
                mask |= 1 << rng.gen_range(0..inputs);
            }
            set.insert(mask);
        }
        LogicFunction::new(inputs, set.into_iter().map(ProductTerm).collect())
    }

    /// The product terms.
    pub fn terms(&self) -> &[ProductTerm] {
        &self.terms
    }

    /// Evaluates the OR of all terms.
    pub fn eval(&self, inputs: u64) -> bool {
        self.terms.iter().any(|t| t.eval(inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_definition() {
        let f = LogicFunction::new(4, vec![ProductTerm(0b0011), ProductTerm(0b1100)]);
        for inputs in 0..16u64 {
            let expect = (inputs & 0b0011 == 0b0011) || (inputs & 0b1100 == 0b1100);
            assert_eq!(f.eval(inputs), expect, "inputs {inputs:04b}");
        }
    }

    #[test]
    fn random_functions_have_requested_shape() {
        let f = LogicFunction::random(10, 6, 3, 4);
        assert_eq!(f.terms().len(), 6);
        for t in f.terms() {
            assert_eq!(t.0.count_ones(), 3);
        }
        // Distinct terms.
        let set: std::collections::BTreeSet<u64> = f.terms().iter().map(|t| t.0).collect();
        assert_eq!(set.len(), 6);
        // Deterministic.
        assert_eq!(f, LogicFunction::random(10, 6, 3, 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn term_bounds_checked() {
        let _ = LogicFunction::new(3, vec![ProductTerm(0b1000)]);
    }

    #[test]
    fn empty_term_is_constant_true() {
        let t = ProductTerm(0);
        assert!(t.eval(0));
    }
}
