//! The capacitive sensor array: transduction, noise and quantization.
//!
//! Each probe site converts hybridization occupancy into a signal (a
//! capacitance change, normalized here to a full-scale of 1.0), corrupted
//! by shot noise (∝ √signal) and additive read noise, then quantized by an
//! on-chip ADC. Averaging over redundant sites trades area for SNR — the
//! "lower cost / fully integrated" argument of keynote slide 22 is about
//! exactly this chain.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::kinetics::BindingKinetics;
use crate::noise::gaussian;

/// Electrical configuration of the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// Integration (exposure) time in seconds.
    pub integration_time: f64,
    /// Standard deviation of additive read noise, in full-scale units.
    pub read_noise: f64,
    /// Shot-noise coefficient: noise σ = `shot_coeff · √signal`.
    pub shot_coeff: f64,
    /// ADC resolution in bits.
    pub adc_bits: u32,
    /// Redundant sites per probe whose readings are averaged.
    pub sites_per_probe: usize,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            integration_time: 600.0,
            read_noise: 0.01,
            shot_coeff: 0.02,
            adc_bits: 10,
            sites_per_probe: 4,
        }
    }
}

/// A label-free sensor array: one row of redundant sites per probe, every
/// probe with the same chemistry.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorArray {
    probes: usize,
    kinetics: BindingKinetics,
    config: SensorConfig,
}

impl SensorArray {
    /// An array of `probes` identical probe sites.
    pub fn uniform(probes: usize, kinetics: BindingKinetics, config: SensorConfig) -> Self {
        SensorArray {
            probes,
            kinetics,
            config,
        }
    }

    /// Number of probes (rows of the output).
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Noise-free transfer function of every probe: occupancy signal for
    /// a concentration, in full-scale units.
    ///
    /// # Panics
    ///
    /// Panics if `concentration` is negative.
    pub fn ideal_signal(&self, concentration: f64) -> f64 {
        self.kinetics
            .occupancy(concentration, self.config.integration_time)
    }

    /// One quantization step of the ADC in full-scale units.
    pub fn lsb(&self) -> f64 {
        1.0 / f64::from(1u32 << self.config.adc_bits.min(31))
    }

    /// Measures a sample: `concentrations[i]` is the molar concentration
    /// of probe `i`'s target. Returns the averaged, quantized reading per
    /// probe in full-scale units.
    ///
    /// # Panics
    ///
    /// Panics if `concentrations.len()` differs from the probe count.
    pub fn measure(&self, concentrations: &[f64], seed: u64) -> Vec<f64> {
        assert_eq!(
            concentrations.len(),
            self.probes(),
            "one concentration per probe required"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lsb = self.lsb();
        concentrations
            .iter()
            .map(|&c| {
                let ideal = self.ideal_signal(c);
                let mut acc = 0.0;
                for _ in 0..self.config.sites_per_probe.max(1) {
                    let shot = self.config.shot_coeff * ideal.max(0.0).sqrt();
                    let noisy = gaussian(&mut rng, ideal, shot.hypot(self.config.read_noise));
                    let clamped = noisy.clamp(0.0, 1.0);
                    // ADC quantization.
                    let code = (clamped / lsb).round() * lsb;
                    acc += code;
                }
                acc / self.config.sites_per_probe.max(1) as f64
            })
            .collect()
    }

    /// Estimates back the concentration that produced `reading` on any
    /// probe, inverting the finite-time transfer function θ(c, T) that
    /// [`SensorArray::ideal_signal`] evaluates. Saturated readings return
    /// `f64::INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `reading` is negative or NaN.
    pub fn calibrate(&self, reading: f64) -> f64 {
        assert!(reading >= 0.0, "reading must be non-negative");
        // Invert θ(c, T) = θ_eq(c)(1 − e^{−(k_on c + k_off)T}) by bisection
        // on c; the function is monotone increasing.
        if reading >= 1.0 - 1e-12 {
            return f64::INFINITY;
        }
        let k = &self.kinetics;
        let t = self.config.integration_time;
        let mut lo = 0.0f64;
        let mut hi = k.dissociation_constant();
        while k.occupancy(hi, t) < reading {
            hi *= 2.0;
            if hi > 1.0 {
                return f64::INFINITY; // beyond any physical concentration
            }
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            // Once the midpoint rounds onto an end of the bracket, the
            // remaining steps can only collapse the bracket onto `mid`, so
            // the full 100-step result is `mid`, bit for bit.
            if mid == lo || mid == hi {
                return mid;
            }
            if k.occupancy(mid, t) < reading {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Empirical signal-to-noise ratio at a given concentration: mean over
    /// standard deviation of `trials` repeated measurements of one probe.
    /// Returns `f64::INFINITY` when the noise floor quantizes to zero.
    pub fn snr(&self, concentration: f64, trials: usize, seed: u64) -> f64 {
        let single = SensorArray { probes: 1, ..*self };
        let readings: Vec<f64> = (0..trials)
            .map(|k| single.measure(&[concentration], seed.wrapping_add(k as u64))[0])
            .collect();
        let n = readings.len() as f64;
        let mean = readings.iter().sum::<f64>() / n;
        let var = readings.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        if var == 0.0 {
            return f64::INFINITY;
        }
        mean / var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn array(probes: usize) -> SensorArray {
        SensorArray::uniform(
            probes,
            BindingKinetics::dna_probe(),
            SensorConfig::default(),
        )
    }

    /// The fixed 100-step bisection, without an early exit: the oracle
    /// that `calibrate` must match bit for bit.
    fn calibrate_100_steps(a: &SensorArray, reading: f64) -> f64 {
        assert!(reading >= 0.0, "reading must be non-negative");
        if reading >= 1.0 - 1e-12 {
            return f64::INFINITY;
        }
        let k = &a.kinetics;
        let t = a.config.integration_time;
        let mut lo = 0.0f64;
        let mut hi = k.dissociation_constant();
        while k.occupancy(hi, t) < reading {
            hi *= 2.0;
            if hi > 1.0 {
                return f64::INFINITY; // beyond any physical concentration
            }
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if k.occupancy(mid, t) < reading {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn calibration_matches_the_oracle_on_every_default_reading() {
        // Four 10-bit codes averaged: every reading is a multiple of 1/4096.
        let a = array(1);
        for k in 0..=4096u32 {
            let reading = f64::from(k) / 4096.0;
            assert_eq!(
                a.calibrate(reading).to_bits(),
                calibrate_100_steps(&a, reading).to_bits(),
                "reading {k}/4096"
            );
        }
    }

    proptest! {
        #[test]
        fn calibration_matches_the_oracle(
            log_k_on in 3.0f64..8.0,
            log_k_off in -6.0f64..0.0,
            integration_time in 1.0f64..1e5,
            adc_bits in 1u32..24,
            sites_per_probe in 1usize..16,
            code in 0.0f64..1.0,
            raw in 0.0f64..1.0,
        ) {
            let kinetics = BindingKinetics {
                k_on: 10f64.powf(log_k_on),
                k_off: 10f64.powf(log_k_off),
            };
            let cfg = SensorConfig {
                integration_time,
                adc_bits,
                sites_per_probe,
                ..SensorConfig::default()
            };
            let a = SensorArray::uniform(1, kinetics, cfg);
            // A reading this array can produce (an average of ADC codes,
            // summed and divided as `measure` does) and one off its grid.
            let codes = (1u64 << adc_bits) * sites_per_probe as u64;
            let sum = (code * codes as f64).floor() * a.lsb();
            for reading in [sum / sites_per_probe as f64, raw] {
                prop_assert_eq!(
                    a.calibrate(reading).to_bits(),
                    calibrate_100_steps(&a, reading).to_bits(),
                    "reading {}", reading
                );
            }
        }
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let a = array(3);
        let c = [1e-9, 2e-9, 4e-9];
        assert_eq!(a.measure(&c, 42), a.measure(&c, 42));
        assert_ne!(a.measure(&c, 42), a.measure(&c, 43));
    }

    #[test]
    fn signal_monotone_in_concentration() {
        let a = array(1);
        let lo = a.ideal_signal(1e-10);
        let hi = a.ideal_signal(1e-8);
        assert!(hi > lo);
    }

    #[test]
    fn averaging_reduces_noise() {
        let cfg = SensorConfig {
            sites_per_probe: 1,
            ..SensorConfig::default()
        };
        let single = SensorArray::uniform(1, BindingKinetics::dna_probe(), cfg);
        let averaged = SensorArray::uniform(
            1,
            BindingKinetics::dna_probe(),
            SensorConfig {
                sites_per_probe: 16,
                ..cfg
            },
        );
        let spread = |a: &SensorArray| {
            let vals: Vec<f64> = (0..200).map(|s| a.measure(&[1e-9], s)[0]).collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        assert!(spread(&averaged) < spread(&single) * 0.6);
    }

    #[test]
    fn longer_integration_improves_signal() {
        let cfg = SensorConfig {
            integration_time: 10.0,
            ..SensorConfig::default()
        };
        let short = SensorArray::uniform(1, BindingKinetics::dna_probe(), cfg);
        let long = SensorArray::uniform(
            1,
            BindingKinetics::dna_probe(),
            SensorConfig {
                integration_time: 10_000.0,
                ..cfg
            },
        );
        assert!(long.ideal_signal(1e-9) > short.ideal_signal(1e-9) * 2.0);
    }

    #[test]
    fn calibration_recovers_concentration() {
        let cfg = SensorConfig {
            read_noise: 0.0,
            shot_coeff: 0.0,
            adc_bits: 24,          // effectively no quantization
            integration_time: 1e6, // effectively at equilibrium
            ..SensorConfig::default()
        };
        let a = SensorArray::uniform(1, BindingKinetics::dna_probe(), cfg);
        for c in [1e-10, 1e-9, 1e-8] {
            let reading = a.measure(&[c], 1)[0];
            let est = a.calibrate(reading);
            assert!((est - c).abs() / c < 0.01, "true {c}, estimated {est}");
        }
    }

    #[test]
    fn saturated_reading_reports_infinity() {
        let a = array(1);
        assert_eq!(a.calibrate(1.0), f64::INFINITY);
    }

    #[test]
    fn snr_increases_with_concentration() {
        let a = array(1);
        let low = a.snr(1e-10, 100, 5);
        let high = a.snr(1e-8, 100, 5);
        assert!(
            high > low,
            "SNR should rise with signal: low {low}, high {high}"
        );
    }

    #[test]
    fn adc_quantizes_to_lsb_grid() {
        let cfg = SensorConfig {
            sites_per_probe: 1,
            adc_bits: 4,
            ..SensorConfig::default()
        };
        let a = SensorArray::uniform(1, BindingKinetics::dna_probe(), cfg);
        let r = a.measure(&[1e-9], 3)[0];
        let lsb = a.lsb();
        let steps = r / lsb;
        assert!((steps - steps.round()).abs() < 1e-9);
    }
}
