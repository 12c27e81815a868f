//! Expression matrices and the implanted-bicluster generator.
//!
//! "Array detectors yield a matrix of expression levels" (slide 22) whose
//! interpretation — bi-clustering — is the subject of slide 25. Real
//! microarray datasets carry no ground truth, so following standard
//! practice in the biclustering literature (Prelić et al. 2006) we
//! generate matrices with *implanted* constant-upregulation modules plus
//! noise, and score algorithms by how well they recover the implants.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::noise::gaussian;

/// A dense row-major matrix of expression levels (rows = genes,
/// columns = samples/conditions).
///
/// ```
/// use mns_biosensor::Matrix;
/// let mut m = Matrix::zeros(2, 3);
/// m.set(1, 2, 4.5);
/// assert_eq!(m.get(1, 2), 4.5);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows (genes).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (samples).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = value;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// One implanted module: the ground truth of a synthetic dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruthBicluster {
    /// Gene (row) indices, ascending.
    pub rows: Vec<usize>,
    /// Sample (column) indices, ascending.
    pub cols: Vec<usize>,
}

/// Configuration of the synthetic dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDatasetConfig {
    /// Number of genes (rows).
    pub genes: usize,
    /// Number of samples (columns).
    pub samples: usize,
    /// Number of implanted biclusters.
    pub bicluster_count: usize,
    /// Rows per implanted bicluster.
    pub bicluster_rows: usize,
    /// Columns per implanted bicluster.
    pub bicluster_cols: usize,
    /// Background expression level.
    pub background: f64,
    /// Expression boost inside an implanted module.
    pub boost: f64,
    /// Standard deviation of additive Gaussian noise.
    pub noise: f64,
    /// Whether implanted modules may overlap in rows/columns.
    pub allow_overlap: bool,
}

impl Default for SyntheticDatasetConfig {
    fn default() -> Self {
        SyntheticDatasetConfig {
            genes: 100,
            samples: 50,
            bicluster_count: 3,
            bicluster_rows: 10,
            bicluster_cols: 8,
            background: 1.0,
            boost: 4.0,
            noise: 0.25,
            allow_overlap: false,
        }
    }
}

/// A generated expression matrix together with its implanted ground
/// truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDataset {
    /// The noisy expression matrix.
    pub matrix: Matrix,
    /// The implanted modules (what a perfect algorithm should recover).
    pub truth: Vec<GroundTruthBicluster>,
}

/// Draws `k` distinct indices out of `0..n`, optionally excluding
/// already-used ones.
fn pick_indices<R: Rng>(
    rng: &mut R,
    n: usize,
    k: usize,
    used: &mut [bool],
    allow_overlap: bool,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    let mut attempts = 0;
    while out.len() < k {
        attempts += 1;
        assert!(
            attempts < 1_000_000,
            "cannot place bicluster: dimensions too tight for non-overlapping implants"
        );
        let i = rng.gen_range(0..n);
        if out.contains(&i) {
            continue;
        }
        if !allow_overlap && used[i] {
            continue;
        }
        out.push(i);
    }
    if !allow_overlap {
        for &i in &out {
            used[i] = true;
        }
    }
    out.sort_unstable();
    out
}

/// Generates a synthetic expression dataset with implanted biclusters.
///
/// # Panics
///
/// Panics if a bicluster does not fit the matrix, or non-overlapping
/// implants cannot all be placed.
pub fn generate(config: &SyntheticDatasetConfig, seed: u64) -> SyntheticDataset {
    assert!(
        config.bicluster_rows <= config.genes && config.bicluster_cols <= config.samples,
        "bicluster exceeds matrix dimensions"
    );
    if !config.allow_overlap {
        assert!(
            config.bicluster_count * config.bicluster_rows <= config.genes
                && config.bicluster_count * config.bicluster_cols <= config.samples,
            "non-overlapping implants do not fit"
        );
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut matrix = Matrix::zeros(config.genes, config.samples);
    for r in 0..config.genes {
        for c in 0..config.samples {
            matrix.set(r, c, gaussian(&mut rng, config.background, config.noise));
        }
    }
    let mut used_rows = vec![false; config.genes];
    let mut used_cols = vec![false; config.samples];
    let mut truth = Vec::with_capacity(config.bicluster_count);
    for _ in 0..config.bicluster_count {
        let rows = pick_indices(
            &mut rng,
            config.genes,
            config.bicluster_rows,
            &mut used_rows,
            config.allow_overlap,
        );
        let cols = pick_indices(
            &mut rng,
            config.samples,
            config.bicluster_cols,
            &mut used_cols,
            config.allow_overlap,
        );
        for &r in &rows {
            for &c in &cols {
                let v = matrix.get(r, c) + config.boost;
                matrix.set(r, c, v);
            }
        }
        truth.push(GroundTruthBicluster { rows, cols });
    }
    SyntheticDataset { matrix, truth }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_basics() {
        let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_rows_validates() {
        let _ = Matrix::from_rows(2, 2, vec![1.0]);
    }

    #[test]
    fn generated_shape_and_determinism() {
        let cfg = SyntheticDatasetConfig::default();
        let a = generate(&cfg, 9);
        let b = generate(&cfg, 9);
        assert_eq!(a, b);
        assert_eq!(a.matrix.rows(), 100);
        assert_eq!(a.matrix.cols(), 50);
        assert_eq!(a.truth.len(), 3);
        for t in &a.truth {
            assert_eq!(t.rows.len(), 10);
            assert_eq!(t.cols.len(), 8);
        }
    }

    #[test]
    fn implanted_cells_are_elevated() {
        let cfg = SyntheticDatasetConfig::default();
        let d = generate(&cfg, 4);
        for t in &d.truth {
            let cells = t.rows.len() * t.cols.len();
            let inside = t
                .rows
                .iter()
                .flat_map(|&r| t.cols.iter().map(move |&c| (r, c)))
                .map(|(r, c)| d.matrix.get(r, c))
                .sum::<f64>()
                / cells as f64;
            assert!(
                inside > cfg.background + cfg.boost * 0.5,
                "implant mean {inside} too low"
            );
        }
        // Background stays near its level.
        let all = d.matrix.data.iter().sum::<f64>() / d.matrix.data.len() as f64;
        assert!(all < cfg.background + cfg.boost * 0.5);
    }

    #[test]
    fn non_overlapping_implants_are_disjoint() {
        let d = generate(&SyntheticDatasetConfig::default(), 11);
        for i in 0..d.truth.len() {
            for j in i + 1..d.truth.len() {
                let ri: std::collections::HashSet<_> = d.truth[i].rows.iter().collect();
                assert!(d.truth[j].rows.iter().all(|r| !ri.contains(r)));
            }
        }
    }

    #[test]
    fn overlapping_mode_allows_shared_rows() {
        let cfg = SyntheticDatasetConfig {
            genes: 20,
            samples: 20,
            bicluster_count: 4,
            bicluster_rows: 10,
            bicluster_cols: 10,
            allow_overlap: true,
            ..SyntheticDatasetConfig::default()
        };
        // Must not panic even though 4×10 > 20.
        let d = generate(&cfg, 2);
        assert_eq!(d.truth.len(), 4);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn impossible_nonoverlap_rejected() {
        let cfg = SyntheticDatasetConfig {
            genes: 10,
            samples: 10,
            bicluster_count: 3,
            bicluster_rows: 5,
            bicluster_cols: 5,
            allow_overlap: false,
            ..SyntheticDatasetConfig::default()
        };
        let _ = generate(&cfg, 1);
    }
}
