//! Online statistics collected by the simulators.
//!
//! All accumulators are single-pass and numerically stable (Welford update
//! for mean/variance), so simulators can stream millions of observations
//! without retaining them.

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// ```
/// use mns_sim::stats::Summary;
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 6.0] { s.record(x); }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 4.0).abs() < 1e-12);
/// assert!((s.variance() - 8.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
///
/// ```
/// use mns_sim::stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.record(1.0);
/// h.record(9.5);
/// h.record(42.0); // overflow
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(4), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }

    /// Approximate quantile `q` in `[0, 1]` using bin midpoints; `None` if
    /// the histogram holds no in-range observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let in_range: u64 = self.bins.iter().sum();
        if in_range == 0 {
            return None;
        }
        let target = (q * in_range as f64).ceil().max(1.0) as u64;
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut cum = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.lo + (i as f64 + 0.5) * w);
            }
        }
        Some(self.hi - 0.5 * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_empty_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s, Summary::default());
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &data {
            all.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for x in 0..100 {
            h.record(x as f64);
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 10);
        }
        h.record(-1.0);
        h.record(100.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.bin_count(0), 10);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 102);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in 0..10 {
            h.record(x as f64);
        }
        let median = h.quantile(0.5).expect("non-empty");
        assert!((median - 4.5).abs() <= 1.0, "median {median}");
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
