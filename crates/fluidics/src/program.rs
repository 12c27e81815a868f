//! The electrode actuation program — the "binary" a compiled assay
//! produces.
//!
//! Each tick lists the electrodes that must be energized: the cells under
//! every in-flight droplet plus the working regions of every active
//! module. Total activations double as a first-order energy proxy for the
//! chip driver.

use std::collections::BTreeSet;

use crate::geometry::Cell;

/// A per-tick electrode activation table.
///
/// ```
/// use mns_fluidics::program::ElectrodeProgram;
/// use mns_fluidics::geometry::Cell;
///
/// let mut p = ElectrodeProgram::new(3);
/// p.activate(0, Cell::new(1, 1));
/// p.activate(2, Cell::new(2, 1));
/// assert_eq!(p.energy(), 2);
/// assert!(p.active_at(0).contains(&Cell::new(1, 1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ElectrodeProgram {
    ticks: Vec<BTreeSet<Cell>>,
}

impl ElectrodeProgram {
    /// An empty program spanning `ticks` ticks.
    pub fn new(ticks: usize) -> Self {
        ElectrodeProgram {
            ticks: vec![BTreeSet::new(); ticks],
        }
    }

    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether the program has no ticks.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Energizes `cell` at tick `t`, growing the program if needed.
    pub fn activate(&mut self, t: u32, cell: Cell) {
        let t = t as usize;
        if t >= self.ticks.len() {
            self.ticks.resize(t + 1, BTreeSet::new());
        }
        self.ticks[t].insert(cell);
    }

    /// Energizes a full rectangle at tick `t`.
    pub fn activate_rect(&mut self, t: u32, min: Cell, max: Cell) {
        for y in min.y..=max.y {
            for x in min.x..=max.x {
                self.activate(t, Cell::new(x, y));
            }
        }
    }

    /// Electrodes active at tick `t` (empty set past the end).
    pub fn active_at(&self, t: u32) -> &BTreeSet<Cell> {
        static EMPTY: BTreeSet<Cell> = BTreeSet::new();
        self.ticks.get(t as usize).unwrap_or(&EMPTY)
    }

    /// Total electrode activations — a first-order actuation-energy proxy.
    pub fn energy(&self) -> u64 {
        self.ticks.iter().map(|s| s.len() as u64).sum()
    }

    /// Renders tick `t` as an ASCII picture of a `width × height` array:
    /// `#` = energized electrode, `.` = idle. Rows are printed north-up
    /// (y = height−1 first).
    pub fn render_tick(&self, t: u32, width: i32, height: i32) -> String {
        let active = self.active_at(t);
        let mut out = String::with_capacity(((width + 1) * height) as usize);
        for y in (0..height).rev() {
            for x in 0..width {
                if active.contains(&Cell::new(x, y)) {
                    out.push('#');
                } else {
                    out.push('.');
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_on_demand() {
        let mut p = ElectrodeProgram::new(1);
        p.activate(5, Cell::new(0, 0));
        assert_eq!(p.len(), 6);
        assert_eq!(p.active_at(4).len(), 0);
        assert_eq!(p.active_at(9).len(), 0, "past the end is empty");
    }

    #[test]
    fn rect_activation_and_energy() {
        let mut p = ElectrodeProgram::new(2);
        p.activate_rect(1, Cell::new(1, 1), Cell::new(2, 3));
        assert_eq!(p.active_at(1).len(), 6);
        assert_eq!(p.energy(), 6);
    }

    #[test]
    fn render_tick_draws_the_array() {
        let mut p = ElectrodeProgram::new(1);
        p.activate(0, Cell::new(0, 0));
        p.activate(0, Cell::new(2, 1));
        let pic = p.render_tick(0, 3, 2);
        assert_eq!(pic, "..#\n#..\n");
        // Past the end: all idle.
        assert_eq!(p.render_tick(9, 2, 1), "..\n");
    }

    #[test]
    fn duplicate_activation_counted_once() {
        let mut p = ElectrodeProgram::new(1);
        p.activate(0, Cell::new(1, 1));
        p.activate(0, Cell::new(1, 1));
        assert_eq!(p.energy(), 1);
    }
}
