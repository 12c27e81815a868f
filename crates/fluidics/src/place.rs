//! On-line module placement.
//!
//! The scheduler asks the placer for a free `w × h` region over a time
//! interval; the placer takes the first origin in its scan order where
//! the module clears the keepout and every reservation, and records the
//! reservation. Reservations are kept apart by a 1-cell guard band so
//! droplets inside adjacent modules respect the fluidic spacing rules.
//!
//! Modules are scanned interior-first. The origins where a `w × h`
//! module fits a `W × H` array form the rectangle `[0, W−w] × [0, H−h]`,
//! and the distance of the module's nearest edge to the array boundary is
//! the origin's distance to that rectangle's edge. So the scan walks the
//! rectangle's rings from the deepest, `⌊min(W−w, H−h)/2⌋`, out to the
//! rectangle's edge, each ring in row-major order: decreasing boundary
//! distance, ties broken row-major. Port operations (dispense/output)
//! are restricted to the array boundary, whose scan is the array's outer
//! ring in row-major order. Neither scan allocates.

use crate::geometry::{Cell, Grid};
use crate::modules::ModuleSpec;

/// A placed module reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Lower-left corner of the working region.
    pub origin: Cell,
    /// Module shape.
    pub spec: ModuleSpec,
    /// First occupied tick.
    pub from: u32,
    /// First tick after release (half-open).
    pub until: u32,
}

impl Reservation {
    /// Upper-right corner (inclusive).
    pub fn max(&self) -> Cell {
        Cell::new(
            self.origin.x + self.spec.width - 1,
            self.origin.y + self.spec.height - 1,
        )
    }

    /// Whether two reservations conflict: their time intervals overlap and
    /// their rectangles come within the 1-cell guard band.
    pub fn conflicts(&self, other: &Reservation) -> bool {
        let time_overlap = self.from < other.until && other.from < self.until;
        if !time_overlap {
            return false;
        }
        let a_max = self.max();
        let b_max = other.max();
        // Expand `self` by the guard band and test rectangle overlap.
        let sep_x = self.origin.x - 1 > b_max.x || a_max.x + 1 < other.origin.x;
        let sep_y = self.origin.y - 1 > b_max.y || a_max.y + 1 < other.origin.y;
        !(sep_x || sep_y)
    }
}

/// First-fit rectangle placer with time-windowed reservations.
///
/// ```
/// use mns_fluidics::geometry::Grid;
/// use mns_fluidics::modules::ModuleSpec;
/// use mns_fluidics::place::Placer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = Grid::new(10, 10)?;
/// let mut placer = Placer::with_keepout(grid, Vec::new());
/// let spec = ModuleSpec { width: 2, height: 3, duration: 6 };
/// let a = placer.place(spec, 0, 6).expect("fits");
/// let b = placer.place(spec, 0, 6).expect("fits elsewhere");
/// assert_ne!(a, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Placer {
    grid: Grid,
    reservations: Vec<Reservation>,
    keepout: Vec<Cell>,
}

impl Placer {
    /// Creates a placer for `grid` that never covers any of the `keepout`
    /// cells — a module cannot work on top of a faulty electrode.
    pub fn with_keepout(grid: Grid, keepout: Vec<Cell>) -> Self {
        Placer {
            grid,
            reservations: Vec::new(),
            keepout,
        }
    }

    /// All reservations made so far.
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    fn try_at(&self, origin: Cell, spec: ModuleSpec, from: u32, until: u32) -> bool {
        if !self.grid.fits(origin, spec.width, spec.height) {
            return false;
        }
        let max = Cell::new(origin.x + spec.width - 1, origin.y + spec.height - 1);
        if self
            .keepout
            .iter()
            .any(|c| c.x >= origin.x && c.x <= max.x && c.y >= origin.y && c.y <= max.y)
        {
            return false;
        }
        let candidate = Reservation {
            origin,
            spec,
            from,
            until,
        };
        self.reservations.iter().all(|r| !candidate.conflicts(r))
    }

    /// Reserves the first origin of `scan` where `spec` fits over
    /// `[from, until)`.
    fn first_fit(
        &mut self,
        mut scan: impl Iterator<Item = Cell>,
        spec: ModuleSpec,
        from: u32,
        until: u32,
    ) -> Option<Cell> {
        let origin = scan.find(|&origin| self.try_at(origin, spec, from, until))?;
        self.reservations.push(Reservation {
            origin,
            spec,
            from,
            until,
        });
        Some(origin)
    }

    /// Reserves a free `spec`-shaped region over `[from, until)`,
    /// returning its origin, or `None` if the array is too congested.
    pub fn place(&mut self, spec: ModuleSpec, from: u32, until: u32) -> Option<Cell> {
        // Interior-first scan: modules prefer the middle of the array so
        // the cells and rings near the boundary — where dispense/output
        // ports live — stay free as routing corridors. Ties break
        // row-major for determinism; `interior_first` walks that order
        // ring by ring.
        self.first_fit(interior_first(self.grid, spec), spec, from, until)
    }

    /// Reserves a boundary cell (for dispense/output ports) over
    /// `[from, until)`.
    pub fn place_on_edge(&mut self, spec: ModuleSpec, from: u32, until: u32) -> Option<Cell> {
        self.first_fit(boundary(self.grid), spec, from, until)
    }
}

/// The cells of the ring of the rectangle `[x0, x1] × [y0, y1]` in
/// row-major order: rows `y0` and `y1` in full, and only columns `x0`
/// and `x1` on the rows between. A rectangle one cell wide or tall is
/// its own ring, each cell once.
fn ring(x0: i32, y0: i32, x1: i32, y1: i32) -> impl Iterator<Item = Cell> {
    (y0..=y1).flat_map(move |y| {
        let step = if y == y0 || y == y1 { 1 } else { x1 - x0 };
        (x0..=x1)
            .step_by(step.max(1) as usize)
            .map(move |x| Cell::new(x, y))
    })
}

/// The origins where `spec` fits on `grid`, by decreasing distance of the
/// module's nearest edge to the array boundary, ties row-major: the rings
/// of the fitting-origin rectangle, deepest first (see the module docs).
fn interior_first(grid: Grid, spec: ModuleSpec) -> impl Iterator<Item = Cell> {
    let (max_x, max_y) = (grid.width() - spec.width, grid.height() - spec.height);
    let deepest = if max_x < 0 || max_y < 0 {
        -1
    } else {
        max_x.min(max_y) / 2
    };
    (0..=deepest)
        .rev()
        .flat_map(move |d| ring(d, d, max_x - d, max_y - d))
}

/// The boundary cells of `grid` in row-major order.
fn boundary(grid: Grid) -> impl Iterator<Item = Cell> {
    ring(0, 0, grid.width() - 1, grid.height() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placer(w: i32, h: i32) -> Placer {
        Placer::with_keepout(Grid::new(w, h).unwrap(), Vec::new())
    }

    fn spec(w: i32, h: i32) -> ModuleSpec {
        ModuleSpec {
            width: w,
            height: h,
            duration: 5,
        }
    }

    #[test]
    fn placements_do_not_touch() {
        let mut p = placer(10, 10);
        let a = p.place(spec(2, 2), 0, 10).unwrap();
        let b = p.place(spec(2, 2), 0, 10).unwrap();
        // Guard band: rectangles separated by at least one empty cell.
        let ra = p.reservations()[0];
        let rb = p.reservations()[1];
        assert!(!ra.conflicts(&Reservation {
            from: 0,
            until: 10,
            ..rb
        }));
        let dx = (a.x - b.x).abs();
        let dy = (a.y - b.y).abs();
        assert!(dx >= 3 || dy >= 3, "a={a}, b={b}");
    }

    #[test]
    fn time_disjoint_reservations_share_space() {
        let mut p = placer(6, 6);
        let a = p.place(spec(4, 4), 0, 10).unwrap();
        // Same region free again after tick 10.
        let b = p.place(spec(4, 4), 10, 20).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn congestion_returns_none() {
        let mut p = placer(6, 6);
        assert!(p.place(spec(4, 4), 0, 10).is_some());
        // No second 4×4 region (plus guard) fits a 6×6 array.
        assert!(p.place(spec(4, 4), 5, 15).is_none());
    }

    #[test]
    fn edge_placement_sticks_to_boundary() {
        let mut p = placer(8, 8);
        for _ in 0..4 {
            let c = p.place_on_edge(spec(1, 1), 0, 100).unwrap();
            assert!(c.x == 0 || c.y == 0 || c.x == 7 || c.y == 7);
        }
    }

    #[test]
    fn keepout_cells_are_never_covered() {
        let keepout = vec![Cell::new(4, 4), Cell::new(5, 5), Cell::new(0, 0)];
        let mut p = Placer::with_keepout(Grid::new(10, 10).unwrap(), keepout.clone());
        for _ in 0..6 {
            if p.place(spec(3, 3), 0, 10).is_none() {
                break;
            }
        }
        let _ = p.place_on_edge(spec(1, 1), 0, 10);
        for r in p.reservations() {
            let max = r.max();
            for k in &keepout {
                let covered =
                    k.x >= r.origin.x && k.x <= max.x && k.y >= r.origin.y && k.y <= max.y;
                assert!(!covered, "reservation at {} covers keepout {k}", r.origin);
            }
        }
    }

    /// The interior-first order as a comparison sort, the oracle of the
    /// ring walk: every cell by decreasing boundary distance, ties
    /// row-major, less the origins where `spec` does not fit (negative
    /// distance, last in the sort), which `try_at` rejects.
    fn sorted_scan(grid: Grid, spec: ModuleSpec) -> Vec<Cell> {
        let (w, h) = (grid.width(), grid.height());
        let boundary_distance = |c: Cell| {
            let max = Cell::new(c.x + spec.width - 1, c.y + spec.height - 1);
            c.x.min(c.y).min(w - 1 - max.x).min(h - 1 - max.y)
        };
        let mut scan = grid.cells().collect::<Vec<_>>();
        scan.sort_by_key(|&c| (std::cmp::Reverse(boundary_distance(c)), c.y, c.x));
        scan.retain(|&c| grid.fits(c, spec.width, spec.height));
        scan
    }

    #[test]
    fn ring_walks_match_the_sorted_and_filtered_scans() {
        use crate::assay::OpKind;
        use crate::modules::ModuleLibrary;
        let kinds = [
            OpKind::Mix,
            OpKind::Split,
            OpKind::Detect,
            OpKind::Dispense { fluid: "s".into() },
            OpKind::Output,
        ];
        let mut shapes: Vec<ModuleSpec> = [ModuleLibrary::standard(), ModuleLibrary::compact()]
            .iter()
            .flat_map(|lib| kinds.iter().flat_map(|k| lib.options(k)))
            .collect();
        shapes.extend((1..=5).flat_map(|w| (1..=5).map(move |h| spec(w, h))));
        shapes.sort_by_key(|s| (s.width, s.height));
        shapes.dedup_by_key(|s| (s.width, s.height));
        for w in 3..=24 {
            for h in 3..=24 {
                let grid = Grid::new(w, h).unwrap();
                for &s in &shapes {
                    assert_eq!(
                        interior_first(grid, s).collect::<Vec<_>>(),
                        sorted_scan(grid, s),
                        "{w}×{h} array, {}×{} module",
                        s.width,
                        s.height
                    );
                }
                let edge: Vec<Cell> = grid
                    .cells()
                    .filter(|c| c.x == 0 || c.y == 0 || c.x == w - 1 || c.y == h - 1)
                    .collect();
                assert_eq!(boundary(grid).collect::<Vec<_>>(), edge, "{w}×{h} array");
            }
        }
    }

    #[test]
    fn max_corner_of_reservation() {
        let r = Reservation {
            origin: Cell::new(2, 3),
            spec: spec(2, 4),
            from: 0,
            until: 1,
        };
        assert_eq!(r.max(), Cell::new(3, 6));
    }
}
