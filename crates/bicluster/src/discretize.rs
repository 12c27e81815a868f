//! Matrix discretization for the exact miner.

use mns_biosensor::Matrix;

/// A binary gene × sample relation stored as per-row bitsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BinaryMatrix {
    /// An all-zero relation.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        let words_per_row = cols.div_ceil(64);
        BinaryMatrix {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.bits[r * self.words_per_row + c / 64] >> (c % 64) & 1 == 1
    }

    /// Sets bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        let w = &mut self.bits[r * self.words_per_row + c / 64];
        if value {
            *w |= 1 << (c % 64);
        } else {
            *w &= !(1 << (c % 64));
        }
    }

    /// The words of row `r` (little-endian bit order).
    pub fn row_words(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words_per_row..(r + 1) * self.words_per_row]
    }
}

/// Binarizes with a fixed threshold: bit set where `value ≥ threshold`.
pub fn binarize_with_threshold(matrix: &Matrix, threshold: f64) -> BinaryMatrix {
    let mut out = BinaryMatrix::zeros(matrix.rows(), matrix.cols());
    for r in 0..matrix.rows() {
        for c in 0..matrix.cols() {
            if matrix.get(r, c) >= threshold {
                out.set(r, c, true);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut b = BinaryMatrix::zeros(2, 130);
        b.set(0, 0, true);
        b.set(0, 63, true);
        b.set(0, 64, true);
        b.set(1, 129, true);
        assert!(b.get(0, 0) && b.get(0, 63) && b.get(0, 64) && b.get(1, 129));
        assert!(!b.get(1, 0));
        b.set(0, 64, false);
        assert!(!b.get(0, 64));
        let ones: u32 = b.row_words(0).iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones, 2);
    }

    #[test]
    fn binarize_threshold() {
        let m = Matrix::from_rows(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        let b = binarize_with_threshold(&m, 1.5);
        assert!(!b.get(0, 0) && !b.get(0, 1));
        assert!(b.get(1, 0) && b.get(1, 1));
    }
}
