//! The crossbar fabric and its defect model.

use std::collections::HashMap;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A faulty junction's failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JunctionDefect {
    /// The junction can never be programmed closed (no connection
    /// possible).
    StuckOpen,
    /// The junction is permanently closed (always connects).
    StuckClosed,
}

/// A `rows × cols` programmable crossbar with per-junction defects.
///
/// Rows are the product-term nanowires, columns the input lines. A
/// healthy junction can be programmed closed (input participates in the
/// row's AND term) or left open.
///
/// ```
/// use mns_crossbar::array::{CrossbarArray, JunctionDefect};
/// let mut a = CrossbarArray::perfect(4, 4);
/// a.inject(1, 2, JunctionDefect::StuckOpen);
/// assert_eq!(a.defect_at(1, 2), Some(JunctionDefect::StuckOpen));
/// assert_eq!(a.defect_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    defects: HashMap<(usize, usize), JunctionDefect>,
}

impl CrossbarArray {
    /// A defect-free fabric.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn perfect(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be positive");
        CrossbarArray {
            rows,
            cols,
            defects: HashMap::new(),
        }
    }

    /// A fabric with i.i.d. junction defects: each junction fails with
    /// probability `defect_rate`; a failing junction is stuck-open with
    /// probability `open_fraction`, else stuck-closed.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]` or a dimension is
    /// zero.
    pub fn with_defects(
        rows: usize,
        cols: usize,
        defect_rate: f64,
        open_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&defect_rate) && (0.0..=1.0).contains(&open_fraction),
            "rates must be probabilities"
        );
        let mut fabric = Self::perfect(rows, cols);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(defect_rate) {
                    let kind = if rng.gen_bool(open_fraction) {
                        JunctionDefect::StuckOpen
                    } else {
                        JunctionDefect::StuckClosed
                    };
                    fabric.defects.insert((r, c), kind);
                }
            }
        }
        fabric
    }

    /// Number of row (product-term) wires.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Injects a defect (testing/fault-injection hook).
    ///
    /// # Panics
    ///
    /// Panics if the junction is out of range.
    pub fn inject(&mut self, row: usize, col: usize, kind: JunctionDefect) {
        assert!(row < self.rows && col < self.cols, "junction out of range");
        self.defects.insert((row, col), kind);
    }

    /// The defect at a junction, if any.
    ///
    /// # Panics
    ///
    /// Panics if the junction is out of range.
    pub fn defect_at(&self, row: usize, col: usize) -> Option<JunctionDefect> {
        assert!(row < self.rows && col < self.cols, "junction out of range");
        self.defects.get(&(row, col)).copied()
    }

    /// Total defective junctions.
    pub fn defect_count(&self) -> usize {
        self.defects.len()
    }

    /// Observed defect rate.
    pub fn defect_rate(&self) -> f64 {
        self.defect_count() as f64 / (self.rows * self.cols) as f64
    }

    /// Whether row `r` can realize a term that closes exactly the
    /// junctions in `want_closed` (a column bitmask): every wanted
    /// junction must not be stuck-open, every unwanted one must not be
    /// stuck-closed.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_can_host(&self, r: usize, want_closed: u64) -> bool {
        assert!(r < self.rows, "row out of range");
        for c in 0..self.cols {
            let wanted = want_closed >> c & 1 == 1;
            match self.defects.get(&(r, c)) {
                Some(JunctionDefect::StuckOpen) if wanted => return false,
                Some(JunctionDefect::StuckClosed) if !wanted => return false,
                _ => {}
            }
        }
        true
    }

    /// Rows with no defective junction at all.
    pub fn pristine_rows(&self) -> usize {
        (0..self.rows)
            .filter(|&r| (0..self.cols).all(|c| !self.defects.contains_key(&(r, c))))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_injection_is_deterministic() {
        let a = CrossbarArray::with_defects(32, 32, 0.1, 0.5, 9);
        let b = CrossbarArray::with_defects(32, 32, 0.1, 0.5, 9);
        assert_eq!(a, b);
        // Rate roughly matches.
        assert!((a.defect_rate() - 0.1).abs() < 0.05, "{}", a.defect_rate());
    }

    #[test]
    fn row_can_host_semantics() {
        let mut a = CrossbarArray::perfect(2, 4);
        a.inject(0, 1, JunctionDefect::StuckOpen);
        a.inject(1, 2, JunctionDefect::StuckClosed);
        // Row 0 cannot close column 1.
        assert!(!a.row_can_host(0, 0b0010));
        assert!(a.row_can_host(0, 0b0101));
        // Row 1 must close column 2.
        assert!(!a.row_can_host(1, 0b0001));
        assert!(a.row_can_host(1, 0b0101));
    }

    #[test]
    fn perfect_fabric_hosts_everything() {
        let a = CrossbarArray::perfect(3, 8);
        for mask in [0u64, 0xFF, 0b1010_1010] {
            for r in 0..3 {
                assert!(a.row_can_host(r, mask));
            }
        }
        assert_eq!(a.pristine_rows(), 3);
    }

    #[test]
    fn extreme_rates() {
        let none = CrossbarArray::with_defects(8, 8, 0.0, 0.5, 1);
        assert_eq!(none.defect_count(), 0);
        let all = CrossbarArray::with_defects(8, 8, 1.0, 1.0, 1);
        assert_eq!(all.defect_count(), 64);
        assert_eq!(all.pristine_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_checked() {
        let a = CrossbarArray::perfect(2, 2);
        let _ = a.defect_at(2, 0);
    }
}
