//! Reproducible random-number streams.
//!
//! Every stochastic component in the workspace draws from a
//! [`SeedStream`]: a splittable source of independent, named substreams.
//! Substream seeds are derived with SplitMix64 from the parent seed and a
//! label hash, so adding a new consumer never perturbs the draws of
//! existing consumers — the property that keeps experiment sweeps
//! comparable across code revisions.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SplitMix64 step; the standard 64-bit finalizer used to decorrelate
/// derived seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a label into a 64-bit value (FNV-1a).
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic factory for independent random streams.
///
/// ```
/// use mns_sim::rng::SeedStream;
/// use rand::Rng;
///
/// let seeds = SeedStream::new(42);
/// let mut traffic = seeds.stream("traffic");
/// let mut noise = seeds.stream("noise");
/// // Streams are independent and reproducible:
/// let a: u64 = traffic.gen();
/// let b: u64 = SeedStream::new(42).stream("traffic").gen();
/// assert_eq!(a, b);
/// let c: u64 = noise.gen();
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    seed: u64,
}

impl SeedStream {
    /// Creates a seed stream rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedStream { seed }
    }

    /// Derives the substream named `label`.
    pub fn stream(&self, label: &str) -> ChaCha8Rng {
        let mut state = self.seed ^ hash_label(label);
        let s = splitmix64(&mut state);
        ChaCha8Rng::seed_from_u64(s)
    }

    /// Derives the `index`-th numbered substream under `label`; useful for
    /// per-node or per-trial generators.
    pub fn indexed_stream(&self, label: &str, index: u64) -> ChaCha8Rng {
        let mut state = self.seed ^ hash_label(label) ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = splitmix64(&mut state);
        ChaCha8Rng::seed_from_u64(s)
    }
}

/// Draws an exponential sample with the given rate parameter `lambda`.
///
/// # Panics
///
/// Panics if `lambda` is not strictly positive.
pub fn exponential<R: rand::Rng>(rng: &mut R, lambda: f64) -> f64 {
    assert!(lambda > 0.0, "exponential rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let a: Vec<u32> = SeedStream::new(7)
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = SeedStream::new(7)
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_decorrelate() {
        let a: u64 = SeedStream::new(7).stream("x").gen();
        let b: u64 = SeedStream::new(7).stream("y").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_differ() {
        let a: u64 = SeedStream::new(7).indexed_stream("node", 0).gen();
        let b: u64 = SeedStream::new(7).indexed_stream("node", 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SeedStream::new(3).stream("exp");
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }
}
