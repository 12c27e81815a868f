//! The Cheng–Church δ-bicluster heuristic (ISMB 2000) — the classical
//! baseline the ZDD miner is compared against in experiment E3.
//!
//! A δ-bicluster is a submatrix whose *mean squared residue*
//!
//! ```text
//! H(I, J) = 1/(|I||J|) Σ_{i∈I, j∈J} (a_ij − a_iJ − a_Ij + a_IJ)²
//! ```
//!
//! is below δ. The algorithm greedily deletes the worst rows/columns until
//! the residue target is met, adds back any row/column that does not hurt,
//! reports the bicluster, masks it with random values and repeats. Fast,
//! but randomized and incomplete — it can miss implanted modules and never
//! certifies completeness.
//!
//! ## Incremental residue maintenance
//!
//! The textbook formulation recomputes row means, column means, the grand
//! mean and the full residue matrix from scratch on every deletion step —
//! roughly seven O(|I|·|J|) sweeps per iteration. `find_one` instead
//! maintains the row/column sums and the squared-entry accumulator of the
//! live submatrix, updating them in O(|J|) per deleted row and O(|I|) per
//! deleted column, which makes `H` an O(|I|+|J|) evaluation via the
//! closed form `H = Σa²/(IJ) − Σr̄²/I − Σc̄²/J + m̄²`. A single fused
//! sweep per deletion step derives the per-row/per-column residues
//! (multiple deletion rebuilds the sums once per sweep), counted by the
//! `bicluster.cc_recomputes` telemetry counter. The textbook
//! implementation survives in [`reference`](mod@reference) as the
//! differential-test oracle; both report the same biclusters per seed.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mns_biosensor::Matrix;

use crate::Bicluster;

/// Tuning of the Cheng–Church run.
///
/// Constructible as a struct literal, via [`Default`], or with the
/// chainable builder style shared by the workspace's other configs:
///
/// ```
/// use mns_bicluster::cheng_church::ChengChurchConfig;
/// let cfg = ChengChurchConfig::new().delta(0.05).count(3);
/// assert_eq!(cfg.delta, 0.05);
/// assert_eq!(cfg.alpha, ChengChurchConfig::default().alpha);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChengChurchConfig {
    /// Mean-squared-residue target δ.
    pub delta: f64,
    /// Multiple-deletion aggressiveness α (> 1).
    pub alpha: f64,
    /// Number of biclusters to extract.
    pub count: usize,
    /// Range of the random mask values (min, max), typically spanning the
    /// data range.
    pub mask_range: (f64, f64),
}

impl Default for ChengChurchConfig {
    fn default() -> Self {
        ChengChurchConfig {
            delta: 0.5,
            alpha: 1.2,
            count: 5,
            mask_range: (0.0, 6.0),
        }
    }
}

impl ChengChurchConfig {
    /// The default configuration (see [`Default`]).
    pub fn new() -> ChengChurchConfig {
        ChengChurchConfig::default()
    }

    /// Sets the mean-squared-residue target δ.
    #[must_use]
    pub fn delta(mut self, delta: f64) -> ChengChurchConfig {
        self.delta = delta;
        self
    }

    /// Sets the multiple-deletion aggressiveness α (> 1).
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> ChengChurchConfig {
        self.alpha = alpha;
        self
    }

    /// Sets the number of biclusters to extract.
    #[must_use]
    pub fn count(mut self, count: usize) -> ChengChurchConfig {
        self.count = count;
        self
    }

    /// Sets the random mask value range `(min, max)`.
    #[must_use]
    pub fn mask_range(mut self, min: f64, max: f64) -> ChengChurchConfig {
        self.mask_range = (min, max);
        self
    }
}

struct Residue {
    row_means: Vec<f64>,
    col_means: Vec<f64>,
    mean: f64,
}

fn residue_stats(m: &Matrix, rows: &[usize], cols: &[usize]) -> Residue {
    let row_means: Vec<f64> = rows
        .iter()
        .map(|&r| cols.iter().map(|&c| m.get(r, c)).sum::<f64>() / cols.len() as f64)
        .collect();
    let col_means: Vec<f64> = cols
        .iter()
        .map(|&c| rows.iter().map(|&r| m.get(r, c)).sum::<f64>() / rows.len() as f64)
        .collect();
    let mean = row_means.iter().sum::<f64>() / row_means.len() as f64;
    Residue {
        row_means,
        col_means,
        mean,
    }
}

/// Mean squared residue of the submatrix `rows × cols`.
///
/// # Panics
///
/// Panics if either selection is empty or out of range.
pub fn mean_squared_residue(m: &Matrix, rows: &[usize], cols: &[usize]) -> f64 {
    assert!(!rows.is_empty() && !cols.is_empty(), "empty selection");
    let st = residue_stats(m, rows, cols);
    let mut acc = 0.0;
    for (ri, &r) in rows.iter().enumerate() {
        for (ci, &c) in cols.iter().enumerate() {
            let d = m.get(r, c) - st.row_means[ri] - st.col_means[ci] + st.mean;
            acc += d * d;
        }
    }
    acc / (rows.len() * cols.len()) as f64
}

fn row_residue(m: &Matrix, st: &Residue, rows: &[usize], cols: &[usize]) -> Vec<f64> {
    rows.iter()
        .enumerate()
        .map(|(ri, &r)| {
            cols.iter()
                .enumerate()
                .map(|(ci, &c)| {
                    let d = m.get(r, c) - st.row_means[ri] - st.col_means[ci] + st.mean;
                    d * d
                })
                .sum::<f64>()
                / cols.len() as f64
        })
        .collect()
}

fn col_residue(m: &Matrix, st: &Residue, rows: &[usize], cols: &[usize]) -> Vec<f64> {
    cols.iter()
        .enumerate()
        .map(|(ci, &c)| {
            rows.iter()
                .enumerate()
                .map(|(ri, &r)| {
                    let d = m.get(r, c) - st.row_means[ri] - st.col_means[ci] + st.mean;
                    d * d
                })
                .sum::<f64>()
                / rows.len() as f64
        })
        .collect()
}

/// Incrementally-maintained first/second moments of the live submatrix:
/// per-row sums and per-column sums (aligned with the `rows`/`cols`
/// selections), the grand total and the sum of squared entries. Deleting
/// a row touches O(|J|) state, deleting a column O(|I|); the mean squared
/// residue follows from the closed form
/// `Σd² = Σa² − J·Σr̄² − I·Σc̄² + IJ·m̄²` in O(|I|+|J|).
struct ResidueAccumulator {
    row_sum: Vec<f64>,
    col_sum: Vec<f64>,
    total: f64,
    sq_total: f64,
    /// Full O(|I|·|J|) sweeps performed (telemetry: `bicluster.cc_recomputes`).
    recomputes: u64,
}

impl ResidueAccumulator {
    /// Builds the sums with one full sweep.
    fn build(m: &Matrix, rows: &[usize], cols: &[usize]) -> Self {
        let mut acc = ResidueAccumulator {
            row_sum: Vec::new(),
            col_sum: Vec::new(),
            total: 0.0,
            sq_total: 0.0,
            recomputes: 0,
        };
        acc.rebuild(m, rows, cols);
        acc
    }

    fn rebuild(&mut self, m: &Matrix, rows: &[usize], cols: &[usize]) {
        self.row_sum.clear();
        self.row_sum.resize(rows.len(), 0.0);
        self.col_sum.clear();
        self.col_sum.resize(cols.len(), 0.0);
        self.total = 0.0;
        self.sq_total = 0.0;
        for (ri, &r) in rows.iter().enumerate() {
            let row = m.row(r);
            for (ci, &c) in cols.iter().enumerate() {
                let a = row[c];
                self.row_sum[ri] += a;
                self.col_sum[ci] += a;
                self.total += a;
                self.sq_total += a * a;
            }
        }
        self.recomputes += 1;
    }

    /// Mean squared residue of the current submatrix, via the closed form.
    fn h(&self) -> f64 {
        let i = self.row_sum.len() as f64;
        let j = self.col_sum.len() as f64;
        let mean = self.total / (i * j);
        let row_sq: f64 = self.row_sum.iter().map(|&s| (s / j) * (s / j)).sum();
        let col_sq: f64 = self.col_sum.iter().map(|&s| (s / i) * (s / i)).sum();
        self.sq_total / (i * j) - row_sq / i - col_sq / j + mean * mean
    }

    /// Per-row and per-column mean squared residues of the current
    /// submatrix, in one fused sweep (the single O(|I|·|J|) pass of a
    /// deletion step).
    fn residues(&mut self, m: &Matrix, rows: &[usize], cols: &[usize]) -> (Vec<f64>, Vec<f64>) {
        let i = rows.len() as f64;
        let j = cols.len() as f64;
        let mean = self.total / (i * j);
        let row_means: Vec<f64> = self.row_sum.iter().map(|&s| s / j).collect();
        let col_means: Vec<f64> = self.col_sum.iter().map(|&s| s / i).collect();
        let mut rr = vec![0.0; rows.len()];
        let mut cr = vec![0.0; cols.len()];
        for (ri, &r) in rows.iter().enumerate() {
            let row = m.row(r);
            let rm = row_means[ri];
            for (ci, &c) in cols.iter().enumerate() {
                let d = row[c] - rm - col_means[ci] + mean;
                let d2 = d * d;
                rr[ri] += d2;
                cr[ci] += d2;
            }
        }
        for v in &mut rr {
            *v /= j;
        }
        for v in &mut cr {
            *v /= i;
        }
        self.recomputes += 1;
        (rr, cr)
    }

    /// Removes the row at selection index `ri` (O(|J|)).
    fn delete_row(&mut self, m: &Matrix, r: usize, ri: usize, cols: &[usize]) {
        let row = m.row(r);
        for (ci, &c) in cols.iter().enumerate() {
            let a = row[c];
            self.col_sum[ci] -= a;
            self.sq_total -= a * a;
        }
        self.total -= self.row_sum[ri];
        self.row_sum.remove(ri);
    }

    /// Removes the column at selection index `ci` (O(|I|)).
    fn delete_col(&mut self, m: &Matrix, c: usize, ci: usize, rows: &[usize]) {
        for (ri, &r) in rows.iter().enumerate() {
            let a = m.get(r, c);
            self.row_sum[ri] -= a;
            self.sq_total -= a * a;
        }
        self.total -= self.col_sum[ci];
        self.col_sum.remove(ci);
    }

    /// Appends a column to the selection (O(|I|)).
    fn add_col(&mut self, m: &Matrix, c: usize, rows: &[usize]) {
        let mut sum = 0.0;
        for (ri, &r) in rows.iter().enumerate() {
            let a = m.get(r, c);
            self.row_sum[ri] += a;
            self.sq_total += a * a;
            sum += a;
        }
        self.col_sum.push(sum);
        self.total += sum;
    }

    /// Appends a row to the selection (O(|J|)).
    fn add_row(&mut self, m: &Matrix, r: usize, cols: &[usize]) {
        let row = m.row(r);
        let mut sum = 0.0;
        for (ci, &c) in cols.iter().enumerate() {
            let a = row[c];
            self.col_sum[ci] += a;
            self.sq_total += a * a;
            sum += a;
        }
        self.row_sum.push(sum);
        self.total += sum;
    }
}

/// Extracts one δ-bicluster from the (possibly masked) matrix.
fn find_one(m: &Matrix, config: &ChengChurchConfig, recomputes: &mut u64) -> Bicluster {
    let mut rows: Vec<usize> = (0..m.rows()).collect();
    let mut cols: Vec<usize> = (0..m.cols()).collect();
    let mut acc = ResidueAccumulator::build(m, &rows, &cols);

    // Phase 1+2: deletion until H ≤ δ.
    loop {
        if rows.len() <= 2 || cols.len() <= 2 {
            break;
        }
        let h = acc.h();
        if h <= config.delta {
            break;
        }
        let (rr, cr) = acc.residues(m, &rows, &cols);
        // Multiple node deletion for large matrices; fall back to single
        // worst-node deletion when nothing exceeds α·H. Both filters use
        // the residue snapshot taken before either deletion, then the
        // sums are rebuilt once for the whole sweep.
        let mut deleted = false;
        if rows.len() > 100 {
            let keep: Vec<usize> = rows
                .iter()
                .zip(&rr)
                .filter(|&(_, &d)| d <= config.alpha * h)
                .map(|(&r, _)| r)
                .collect();
            if keep.len() >= 2 && keep.len() < rows.len() {
                rows = keep;
                deleted = true;
            }
        }
        if cols.len() > 100 {
            let keep: Vec<usize> = cols
                .iter()
                .zip(&cr)
                .filter(|&(_, &d)| d <= config.alpha * h)
                .map(|(&c, _)| c)
                .collect();
            if keep.len() >= 2 && keep.len() < cols.len() {
                cols = keep;
                deleted = true;
            }
        }
        if deleted {
            acc.rebuild(m, &rows, &cols);
        } else {
            // Single node deletion: drop whichever row/col has the worst
            // residue.
            let (wr_i, wr) = rr
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite residues"))
                .expect("non-empty rows");
            let (wc_i, wc) = cr
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite residues"))
                .expect("non-empty cols");
            if wr >= wc && rows.len() > 2 {
                acc.delete_row(m, rows[wr_i], wr_i, &cols);
                rows.remove(wr_i);
            } else if cols.len() > 2 {
                acc.delete_col(m, cols[wc_i], wc_i, &rows);
                cols.remove(wc_i);
            } else {
                acc.delete_row(m, rows[wr_i], wr_i, &cols);
                rows.remove(wr_i);
            }
        }
    }

    // Phase 3: node addition — add back rows/columns whose residue does
    // not exceed the current H. Candidate scans stay O(|I|)/O(|J|) per
    // candidate (as in the textbook); only the submatrix statistics are
    // reused from the accumulator instead of being recomputed.
    loop {
        let h = acc.h();
        let i = rows.len() as f64;
        let j = cols.len() as f64;
        let mean = acc.total / (i * j);
        let row_means: Vec<f64> = acc.row_sum.iter().map(|&s| s / j).collect();
        let col_means: Vec<f64> = acc.col_sum.iter().map(|&s| s / i).collect();
        let mut grew = false;
        for c in 0..m.cols() {
            if cols.contains(&c) {
                continue;
            }
            let col_mean = rows.iter().map(|&r2| m.get(r2, c)).sum::<f64>() / rows.len() as f64;
            let d: f64 = rows
                .iter()
                .enumerate()
                .map(|(ri, &r)| {
                    let e = m.get(r, c) - row_means[ri] - col_mean + mean;
                    e * e
                })
                .sum::<f64>()
                / rows.len() as f64;
            if d <= h {
                acc.add_col(m, c, &rows);
                cols.push(c);
                grew = true;
                break; // refresh statistics before further additions
            }
        }
        if grew {
            continue;
        }
        for r in 0..m.rows() {
            if rows.contains(&r) {
                continue;
            }
            let row_mean = cols.iter().map(|&c| m.get(r, c)).sum::<f64>() / cols.len() as f64;
            let d: f64 = cols
                .iter()
                .enumerate()
                .map(|(ci, &c)| {
                    let e = m.get(r, c) - row_mean - col_means[ci] + mean;
                    e * e
                })
                .sum::<f64>()
                / cols.len() as f64;
            if d <= h {
                acc.add_row(m, r, &cols);
                rows.push(r);
                grew = true;
                break;
            }
        }
        if !grew {
            break;
        }
    }

    *recomputes += acc.recomputes;
    Bicluster::new(rows, cols)
}

/// Runs Cheng–Church, extracting [`ChengChurchConfig::count`] biclusters.
/// Deterministic for a given `seed` (mask values are pseudo-random).
pub fn cheng_church(matrix: &Matrix, config: &ChengChurchConfig, seed: u64) -> Vec<Bicluster> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut work = matrix.clone();
    let mut out = Vec::with_capacity(config.count);
    let mut recomputes = 0u64;
    for _ in 0..config.count {
        let b = find_one(&work, config, &mut recomputes);
        if b.rows.is_empty() || b.cols.is_empty() {
            break;
        }
        // Mask the found bicluster so the next pass finds something else.
        for &r in &b.rows {
            for &c in &b.cols {
                let v = rng.gen_range(config.mask_range.0..config.mask_range.1);
                work.set(r, c, v);
            }
        }
        out.push(b);
    }
    if recomputes > 0 {
        mns_telemetry::counter_add("bicluster.cc_recomputes", recomputes);
    }
    out
}

/// The textbook (recompute-everything) Cheng–Church, frozen as the
/// differential-test oracle: every deletion iteration re-derives
/// `residue_stats` and the residue matrix from scratch. The incremental
/// engine in the parent module must report the same biclusters per seed;
/// `tests/bicluster_properties.rs` pins that equivalence on random
/// matrices.
pub mod reference {
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use mns_biosensor::Matrix;

    use super::{
        col_residue, mean_squared_residue, residue_stats, row_residue, Bicluster, ChengChurchConfig,
    };

    /// Extracts one δ-bicluster, recomputing all statistics per iteration.
    fn find_one(m: &Matrix, config: &ChengChurchConfig) -> Bicluster {
        let mut rows: Vec<usize> = (0..m.rows()).collect();
        let mut cols: Vec<usize> = (0..m.cols()).collect();

        // Phase 1+2: deletion until H ≤ δ.
        loop {
            if rows.len() <= 2 || cols.len() <= 2 {
                break;
            }
            let h = mean_squared_residue(m, &rows, &cols);
            if h <= config.delta {
                break;
            }
            let st = residue_stats(m, &rows, &cols);
            let rr = row_residue(m, &st, &rows, &cols);
            let cr = col_residue(m, &st, &rows, &cols);
            let mut deleted = false;
            if rows.len() > 100 {
                let keep: Vec<usize> = rows
                    .iter()
                    .zip(&rr)
                    .filter(|&(_, &d)| d <= config.alpha * h)
                    .map(|(&r, _)| r)
                    .collect();
                if keep.len() >= 2 && keep.len() < rows.len() {
                    rows = keep;
                    deleted = true;
                }
            }
            if cols.len() > 100 {
                let keep: Vec<usize> = cols
                    .iter()
                    .zip(&cr)
                    .filter(|&(_, &d)| d <= config.alpha * h)
                    .map(|(&c, _)| c)
                    .collect();
                if keep.len() >= 2 && keep.len() < cols.len() {
                    cols = keep;
                    deleted = true;
                }
            }
            if !deleted {
                let (wr_i, wr) = rr
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite residues"))
                    .expect("non-empty rows");
                let (wc_i, wc) = cr
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite residues"))
                    .expect("non-empty cols");
                if wr >= wc && rows.len() > 2 {
                    rows.remove(wr_i);
                } else if cols.len() > 2 {
                    cols.remove(wc_i);
                } else {
                    rows.remove(wr_i);
                }
            }
        }

        // Phase 3: node addition.
        loop {
            let h = mean_squared_residue(m, &rows, &cols);
            let st = residue_stats(m, &rows, &cols);
            let mut grew = false;
            for c in 0..m.cols() {
                if cols.contains(&c) {
                    continue;
                }
                let col_mean = rows.iter().map(|&r2| m.get(r2, c)).sum::<f64>() / rows.len() as f64;
                let d: f64 = rows
                    .iter()
                    .enumerate()
                    .map(|(ri, &r)| {
                        let e = m.get(r, c) - st.row_means[ri] - col_mean + st.mean;
                        e * e
                    })
                    .sum::<f64>()
                    / rows.len() as f64;
                if d <= h {
                    cols.push(c);
                    grew = true;
                    break; // recompute statistics before further additions
                }
            }
            if grew {
                continue;
            }
            for r in 0..m.rows() {
                if rows.contains(&r) {
                    continue;
                }
                let row_mean = cols.iter().map(|&c| m.get(r, c)).sum::<f64>() / cols.len() as f64;
                let d: f64 = cols
                    .iter()
                    .enumerate()
                    .map(|(ci, &c)| {
                        let e = m.get(r, c) - row_mean - st.col_means[ci] + st.mean;
                        e * e
                    })
                    .sum::<f64>()
                    / cols.len() as f64;
                if d <= h {
                    rows.push(r);
                    grew = true;
                    break;
                }
            }
            if !grew {
                break;
            }
        }

        Bicluster::new(rows, cols)
    }

    /// [`super::cheng_church`], computed by the oracle.
    pub fn cheng_church(matrix: &Matrix, config: &ChengChurchConfig, seed: u64) -> Vec<Bicluster> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut work = matrix.clone();
        let mut out = Vec::with_capacity(config.count);
        for _ in 0..config.count {
            let b = find_one(&work, config);
            if b.rows.is_empty() || b.cols.is_empty() {
                break;
            }
            for &r in &b.rows {
                for &c in &b.cols {
                    let v = rng.gen_range(config.mask_range.0..config.mask_range.1);
                    work.set(r, c, v);
                }
            }
            out.push(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mns_biosensor::expression::{generate, SyntheticDatasetConfig};

    #[test]
    fn msr_of_constant_block_is_zero() {
        let m = Matrix::from_rows(3, 3, vec![2.0; 9]);
        let rows = [0, 1, 2];
        let cols = [0, 1, 2];
        assert!(mean_squared_residue(&m, &rows, &cols) < 1e-12);
    }

    #[test]
    fn msr_of_additive_pattern_is_zero() {
        // a_ij = r_i + c_j has zero residue by construction.
        let mut m = Matrix::zeros(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                m.set(r, c, r as f64 * 2.0 + c as f64 * 0.5);
            }
        }
        assert!(mean_squared_residue(&m, &[0, 1, 2], &[0, 1, 2, 3]) < 1e-12);
    }

    #[test]
    fn msr_positive_for_noise() {
        let m = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        assert!(mean_squared_residue(&m, &[0, 1], &[0, 1]) > 0.1);
    }

    #[test]
    fn closed_form_h_matches_direct_msr() {
        let d = generate(&SyntheticDatasetConfig::default(), 9);
        let rows: Vec<usize> = (0..d.matrix.rows()).step_by(2).collect();
        let cols: Vec<usize> = (0..d.matrix.cols()).step_by(3).collect();
        let acc = ResidueAccumulator::build(&d.matrix, &rows, &cols);
        let direct = mean_squared_residue(&d.matrix, &rows, &cols);
        assert!(
            (acc.h() - direct).abs() <= 1e-9 * direct.abs().max(1.0),
            "closed form {} vs direct {}",
            acc.h(),
            direct
        );
    }

    #[test]
    fn reported_biclusters_meet_delta_or_size_floor() {
        // The defining δ-bicluster property: every reported submatrix has
        // mean squared residue ≤ δ (unless deletion bottomed out at the
        // 2×2 floor).
        let cfg = SyntheticDatasetConfig {
            bicluster_count: 1,
            noise: 0.1,
            ..SyntheticDatasetConfig::default()
        };
        let d = generate(&cfg, 3);
        let cc = ChengChurchConfig {
            delta: 0.05,
            count: 3,
            ..ChengChurchConfig::default()
        };
        let found = cheng_church(&d.matrix, &cc, 7);
        assert!(!found.is_empty());
        for f in &found {
            let h = mean_squared_residue(&d.matrix, &f.rows, &f.cols);
            assert!(
                h <= cc.delta + 1e-9 || f.rows.len() <= 2 || f.cols.len() <= 2,
                "reported bicluster has residue {h} > δ"
            );
        }
    }

    #[test]
    fn node_addition_grows_low_residue_regions() {
        // A perfectly additive matrix: after deletion bottoms out
        // immediately (residue 0), addition should grow back to the full
        // matrix.
        let mut m = Matrix::zeros(6, 6);
        for r in 0..6 {
            for c in 0..6 {
                m.set(r, c, r as f64 + 2.0 * c as f64);
            }
        }
        let found = cheng_church(
            &m,
            &ChengChurchConfig {
                delta: 0.01,
                count: 1,
                ..ChengChurchConfig::default()
            },
            1,
        );
        assert_eq!(found[0].rows.len(), 6);
        assert_eq!(found[0].cols.len(), 6);
    }

    #[test]
    fn masking_yields_distinct_biclusters() {
        let d = generate(&SyntheticDatasetConfig::default(), 2);
        let found = cheng_church(&d.matrix, &ChengChurchConfig::default(), 11);
        assert!(found.len() >= 2);
        assert_ne!(found[0], found[1]);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = generate(&SyntheticDatasetConfig::default(), 2);
        let a = cheng_church(&d.matrix, &ChengChurchConfig::default(), 5);
        let b = cheng_church(&d.matrix, &ChengChurchConfig::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn config_builder_chains() {
        let cfg = ChengChurchConfig::new()
            .delta(0.02)
            .alpha(1.5)
            .count(7)
            .mask_range(-1.0, 4.0);
        let literal = ChengChurchConfig {
            delta: 0.02,
            alpha: 1.5,
            count: 7,
            mask_range: (-1.0, 4.0),
        };
        assert_eq!(cfg, literal);
        assert_eq!(ChengChurchConfig::new(), ChengChurchConfig::default());
    }

    #[test]
    fn matches_reference_per_seed() {
        // The incremental engine must report the same biclusters as the
        // textbook oracle. The broad randomized differential (including
        // the multiple-deletion path at 300×100) lives in
        // tests/bicluster_properties.rs; this is the in-crate smoke.
        let d = generate(&SyntheticDatasetConfig::default(), 4);
        let cfg = ChengChurchConfig::new().delta(0.2).count(3);
        for seed in [0u64, 5, 42] {
            assert_eq!(
                cheng_church(&d.matrix, &cfg, seed),
                reference::cheng_church(&d.matrix, &cfg, seed),
                "seed {seed}"
            );
        }
    }
}
