//! The biochemical abstraction level (keynote slide 29): continuous
//! differential-equation dynamics interpolating the Boolean rules.
//!
//! Following the HillCube construction (Wittmann et al. 2009, as
//! popularized by the Odefy tool), each gene's Boolean rule is extended to
//! the unit hypercube with fuzzy-logic operators (`and = a·b`,
//! `or = a + b − a·b`, `not = 1 − a`) over Hill-transformed inputs, and the
//! state evolves as
//!
//! ```text
//! dxᵢ/dt = ( Bᵢ( h(x₁), …, h(xₙ) ) − xᵢ ) / τᵢ
//! ```
//!
//! With a steep Hill exponent the continuous steady states sit near the
//! Boolean fixed points, which is exactly the multi-abstraction consistency
//! the keynote calls for ("multiple abstractions are needed for analysis
//! and synthesis").

use crate::expr::Expr;
use crate::network::{BooleanNetwork, State};

/// Parameters of the continuous interpolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdeConfig {
    /// Hill exponent (steepness); larger values approach Boolean logic.
    pub hill_n: f64,
    /// Hill threshold in `(0, 1)`.
    pub hill_k: f64,
    /// Time constant τ applied to every gene.
    pub tau: f64,
}

impl Default for OdeConfig {
    fn default() -> Self {
        OdeConfig {
            hill_n: 4.0,
            hill_k: 0.5,
            tau: 1.0,
        }
    }
}

/// Continuous dynamical system derived from a Boolean network.
///
/// ```
/// use mns_grn::{ode::{OdeConfig, OdeSystem}, BooleanNetwork};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = BooleanNetwork::builder()
///     .genes(&["a", "b"]).rule("a", "!b")?.rule("b", "!a")?.build()?;
/// let sys = OdeSystem::new(&net, OdeConfig::default());
/// let end = sys.simulate(&[0.9, 0.1], 0.05, 2_000);
/// assert!(end[0] > 0.9 && end[1] < 0.1); // settles on the a-high state
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OdeSystem {
    net: BooleanNetwork,
    config: OdeConfig,
}

impl OdeSystem {
    /// Wraps a network with the given interpolation parameters.
    ///
    /// # Panics
    ///
    /// Panics if `hill_n ≤ 0`, `hill_k ∉ (0, 1)` or `tau ≤ 0`.
    pub fn new(net: &BooleanNetwork, config: OdeConfig) -> Self {
        assert!(config.hill_n > 0.0, "hill exponent must be positive");
        assert!(
            config.hill_k > 0.0 && config.hill_k < 1.0,
            "hill threshold must be in (0, 1)"
        );
        assert!(config.tau > 0.0, "time constant must be positive");
        OdeSystem {
            net: net.clone(),
            config,
        }
    }

    fn hill(&self, x: f64) -> f64 {
        let n = self.config.hill_n;
        let k = self.config.hill_k;
        let xn = x.max(0.0).powf(n);
        xn / (xn + k.powf(n))
    }

    fn fuzzy(&self, e: &Expr, h: &[f64]) -> f64 {
        match e {
            Expr::Const(true) => 1.0,
            Expr::Const(false) => 0.0,
            Expr::Var(i) => h[*i],
            Expr::Not(inner) => 1.0 - self.fuzzy(inner, h),
            Expr::And(a, b) => self.fuzzy(a, h) * self.fuzzy(b, h),
            Expr::Or(a, b) => {
                let (x, y) = (self.fuzzy(a, h), self.fuzzy(b, h));
                x + y - x * y
            }
        }
    }

    /// Right-hand side `dx/dt` at state `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the gene count.
    pub fn derivative(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.net.len(), "state dimension mismatch");
        let h: Vec<f64> = x.iter().map(|&v| self.hill(v)).collect();
        self.net
            .rules()
            .iter()
            .zip(x)
            .map(|(rule, &xi)| (self.fuzzy(rule, &h) - xi) / self.config.tau)
            .collect()
    }

    /// One classic RK4 step of size `dt`.
    fn rk4_step(&self, x: &[f64], dt: f64) -> Vec<f64> {
        let k1 = self.derivative(x);
        let mid1: Vec<f64> = x.iter().zip(&k1).map(|(&a, &k)| a + 0.5 * dt * k).collect();
        let k2 = self.derivative(&mid1);
        let mid2: Vec<f64> = x.iter().zip(&k2).map(|(&a, &k)| a + 0.5 * dt * k).collect();
        let k3 = self.derivative(&mid2);
        let end: Vec<f64> = x.iter().zip(&k3).map(|(&a, &k)| a + dt * k).collect();
        let k4 = self.derivative(&end);
        x.iter()
            .enumerate()
            .map(|(i, &a)| a + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
            .collect()
    }

    /// Integrates `steps` RK4 steps of size `dt` and returns the final
    /// state.
    pub fn simulate(&self, x0: &[f64], dt: f64, steps: usize) -> Vec<f64> {
        let mut x = x0.to_vec();
        for _ in 0..steps {
            x = self.rk4_step(&x, dt);
        }
        x
    }

    /// The continuous embedding of a Boolean state (0/1 coordinates).
    pub fn embed(&self, s: State) -> Vec<f64> {
        (0..self.net.len())
            .map(|i| if s.get(i) { 1.0 } else { 0.0 })
            .collect()
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
    fn boolean_fixed_points_are_near_equilibria() {
        let net = toggle_pair();
        let sys = OdeSystem::new(&net, OdeConfig::default());
        for bits in [0b01u64, 0b10] {
            let x = sys.embed(State::from_bits(bits));
            let d = sys.derivative(&x);
            for v in d {
                assert!(
                    v.abs() < 0.1,
                    "derivative {v} too large at Boolean fixed point"
                );
            }
        }
    }

    #[test]
    fn settles_to_biased_attractor() {
        let net = toggle_pair();
        let sys = OdeSystem::new(&net, OdeConfig::default());
        let above_half = |x: &[f64]| x.iter().map(|&v| v >= 0.5).collect::<Vec<_>>();
        let end = sys.simulate(&[0.8, 0.2], 0.05, 2_000);
        assert!(sys.derivative(&end).iter().all(|v| v.abs() < 1e-6));
        assert_eq!(above_half(&end), [true, false]);
        let end2 = sys.simulate(&[0.2, 0.8], 0.05, 2_000);
        assert_eq!(above_half(&end2), [false, true]);
    }

    #[test]
    fn trajectory_stays_in_unit_box() {
        let net = toggle_pair();
        let sys = OdeSystem::new(&net, OdeConfig::default());
        let mut x = vec![0.5, 0.5];
        for _ in 0..500 {
            x = sys.rk4_step(&x, 0.1);
            for &v in &x {
                assert!((-0.01..=1.01).contains(&v), "state {v} escaped the box");
            }
        }
    }

    #[test]
    fn steeper_hill_sharpens_equilibrium() {
        let net = toggle_pair();
        let soft = OdeSystem::new(
            &net,
            OdeConfig {
                hill_n: 2.0,
                ..OdeConfig::default()
            },
        );
        let sharp = OdeSystem::new(
            &net,
            OdeConfig {
                hill_n: 10.0,
                ..OdeConfig::default()
            },
        );
        let soft_end = soft.simulate(&[0.9, 0.1], 0.05, 2_000);
        let sharp_end = sharp.simulate(&[0.9, 0.1], 0.05, 2_000);
        assert!(sharp_end[0] >= soft_end[0] - 1e-9);
        assert!(sharp_end[0] > 0.95);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn dimension_mismatch_panics() {
        let sys = OdeSystem::new(&toggle_pair(), OdeConfig::default());
        let _ = sys.derivative(&[0.1]);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_config_panics() {
        let _ = OdeSystem::new(
            &toggle_pair(),
            OdeConfig {
                hill_k: 1.5,
                ..OdeConfig::default()
            },
        );
    }
}
