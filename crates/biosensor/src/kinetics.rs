//! Langmuir hybridization kinetics.
//!
//! Target molecules at concentration `c` bind surface probes with
//! association rate `k_on` and dissociate with rate `k_off`. The bound
//! fraction (occupancy) follows the classic Langmuir relaxation
//!
//! ```text
//! θ(c, t) = θ_eq(c) · (1 − e^{−(k_on·c + k_off)·t}),
//! θ_eq(c) = c / (c + K_d),   K_d = k_off / k_on.
//! ```
//!
//! Longer integration times push the sensor toward equilibrium — the
//! sensitivity/throughput trade-off of experiment E2.

/// Binding rate constants of one probe chemistry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BindingKinetics {
    /// Association rate constant (1/(M·s)).
    pub k_on: f64,
    /// Dissociation rate constant (1/s).
    pub k_off: f64,
}

impl BindingKinetics {
    /// Typical 20-mer DNA probe: `k_on = 10⁶ 1/(M·s)`, `k_off = 10⁻³ 1/s`
    /// (K_d = 1 nM).
    pub fn dna_probe() -> Self {
        BindingKinetics {
            k_on: 1e6,
            k_off: 1e-3,
        }
    }

    /// Equilibrium dissociation constant `K_d = k_off / k_on` (molar).
    pub fn dissociation_constant(&self) -> f64 {
        self.k_off / self.k_on
    }

    /// Equilibrium occupancy at concentration `c` (molar).
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative.
    pub fn equilibrium_occupancy(&self, c: f64) -> f64 {
        assert!(c >= 0.0, "concentration must be non-negative");
        c / (c + self.dissociation_constant())
    }

    /// Occupancy after integrating for `t` seconds at concentration `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` or `t` is negative.
    pub fn occupancy(&self, c: f64, t: f64) -> f64 {
        assert!(t >= 0.0, "time must be non-negative");
        let eq = self.equilibrium_occupancy(c);
        let rate = self.k_on * c + self.k_off;
        eq * (1.0 - (-rate * t).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equilibrium_is_half_at_kd() {
        let k = BindingKinetics::dna_probe();
        let kd = k.dissociation_constant();
        assert!((k.equilibrium_occupancy(kd) - 0.5).abs() < 1e-12);
        assert_eq!(k.equilibrium_occupancy(0.0), 0.0);
        assert!(k.equilibrium_occupancy(1e-3) > 0.999);
    }

    #[test]
    fn occupancy_monotone_in_time_and_concentration() {
        let k = BindingKinetics::dna_probe();
        let c = 1e-9;
        let mut last = 0.0;
        for t in [1.0, 10.0, 100.0, 1_000.0, 10_000.0] {
            let th = k.occupancy(c, t);
            assert!(th >= last);
            last = th;
        }
        assert!((last - k.equilibrium_occupancy(c)).abs() < 1e-3);
        assert!(k.occupancy(1e-8, 100.0) > k.occupancy(1e-9, 100.0));
    }

    #[test]
    fn occupancy_at_zero_time_is_zero() {
        let k = BindingKinetics {
            k_on: 1e5,
            k_off: 1e-4,
        };
        assert_eq!(k.occupancy(1e-9, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_concentration_panics() {
        let _ = BindingKinetics::dna_probe().equilibrium_occupancy(-1.0);
    }
}
