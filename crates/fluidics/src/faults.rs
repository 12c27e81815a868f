//! Electrode fault injection.
//!
//! Real DMFB arrays degrade: electrodes die outright (dielectric
//! breakdown, stuck drivers), lose actuation force with age, or drop out
//! transiently under thermal stress. This module draws a deterministic,
//! seed-driven [`FaultModel`] over a [`Grid`] and lowers it into the
//! machinery the router already understands — ring-less
//! [`Obstacle`]s for cells a droplet must never occupy, and a
//! degraded-cell set for electrodes a droplet can cross only with a
//! forced dwell (see
//! [`route_with_environment`](crate::route::route_with_environment)).
//! The [`compiler`](crate::compiler) uses the same model to keep module
//! placements off faulty regions and to recompile around what cannot be
//! saved.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::geometry::{Cell, Grid};
use crate::route::Obstacle;

/// Parameters of the fault injector. All draws come from a ChaCha8 stream
/// seeded with [`seed`](Self::seed), so the same config on the same grid
/// always yields the identical [`FaultModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// RNG seed for fault placement.
    pub seed: u64,
    /// Fraction of electrodes that are dead (never usable).
    pub dead_fraction: f64,
    /// Fraction of electrodes with degraded actuation (usable, but a
    /// droplet moving onto one dwells an extra tick).
    pub degraded_fraction: f64,
    /// Number of transient faults (cells that drop out for a time
    /// window and then recover).
    pub transient_count: usize,
    /// Duration of each transient outage, in ticks.
    pub transient_duration: u32,
    /// Time horizon within which transient outages start.
    pub transient_horizon: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            dead_fraction: 0.0,
            degraded_fraction: 0.0,
            transient_count: 0,
            transient_duration: 32,
            transient_horizon: 512,
        }
    }
}

impl FaultConfig {
    /// A config with only dead electrodes, at the given fraction.
    pub fn dead(seed: u64, fraction: f64) -> Self {
        FaultConfig {
            seed,
            dead_fraction: fraction,
            ..FaultConfig::default()
        }
    }

    /// Checks that both fractions are finite and in `[0, 1]`;
    /// [`FaultModel::generate`] would clamp any other value silently.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        for (field, fraction) in [
            ("dead_fraction", self.dead_fraction),
            ("degraded_fraction", self.degraded_fraction),
        ] {
            if !(0.0..=1.0).contains(&fraction) {
                return Err(format!("{field} {fraction} is not in [0, 1]"));
            }
        }
        Ok(())
    }
}

/// One transient electrode outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientFault {
    /// The affected electrode.
    pub cell: Cell,
    /// First tick of the outage.
    pub from: u32,
    /// First tick after recovery (half-open).
    pub until: u32,
}

/// A concrete fault assignment over one grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultModel {
    dead: Vec<Cell>,
    degraded: Vec<Cell>,
    transients: Vec<TransientFault>,
}

impl FaultModel {
    /// A model with no faults at all.
    pub fn none() -> Self {
        FaultModel {
            dead: Vec::new(),
            degraded: Vec::new(),
            transients: Vec::new(),
        }
    }

    /// A model from an explicitly measured fault map (e.g. a production
    /// test of the physical array) instead of random injection. Cell
    /// lists are sorted and deduplicated; a cell listed as dead wins over
    /// any other classification of the same cell.
    pub fn from_parts(
        dead: Vec<Cell>,
        degraded: Vec<Cell>,
        transients: Vec<TransientFault>,
    ) -> Self {
        let mut dead = dead;
        dead.sort_unstable();
        dead.dedup();
        let mut degraded: Vec<Cell> = degraded
            .into_iter()
            .filter(|c| dead.binary_search(c).is_err())
            .collect();
        degraded.sort_unstable();
        degraded.dedup();
        let mut transients: Vec<TransientFault> = transients
            .into_iter()
            .filter(|t| dead.binary_search(&t.cell).is_err() && t.until > t.from)
            .collect();
        transients.sort_unstable_by_key(|t| (t.cell, t.from));
        FaultModel {
            dead,
            degraded,
            transients,
        }
    }

    /// Draws a fault model for `grid` from `config`. Dead, degraded and
    /// transient cells are mutually disjoint; cell lists come out sorted
    /// so equal configs compare equal structurally.
    pub fn generate(config: &FaultConfig, grid: &Grid) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let cells: Vec<Cell> = grid.cells().collect();
        let total = cells.len();
        let dead_n = fraction_count(config.dead_fraction, total);
        let degraded_n = fraction_count(config.degraded_fraction, total);
        // One draw covers dead + degraded + transient sites, so the
        // classes never overlap.
        let picked: Vec<Cell> = cells
            .choose_multiple(
                &mut rng,
                (dead_n + degraded_n + config.transient_count).min(total),
            )
            .copied()
            .collect();
        let mut dead: Vec<Cell> = picked.iter().take(dead_n).copied().collect();
        let mut degraded: Vec<Cell> = picked
            .iter()
            .skip(dead_n)
            .take(degraded_n)
            .copied()
            .collect();
        let mut transients: Vec<TransientFault> = picked
            .iter()
            .skip(dead_n + degraded_n)
            .map(|&cell| {
                let from = rng.gen_range(0..config.transient_horizon.max(1));
                TransientFault {
                    cell,
                    from,
                    until: from.saturating_add(config.transient_duration.max(1)),
                }
            })
            .collect();
        dead.sort_unstable();
        degraded.sort_unstable();
        transients.sort_unstable_by_key(|t| (t.cell, t.from));
        FaultModel {
            dead,
            degraded,
            transients,
        }
    }

    /// Dead electrodes, sorted.
    pub fn dead_cells(&self) -> &[Cell] {
        &self.dead
    }

    /// Degraded electrodes, sorted.
    pub fn degraded_cells(&self) -> &[Cell] {
        &self.degraded
    }

    /// Transient outages.
    pub fn transients(&self) -> &[TransientFault] {
        &self.transients
    }

    /// Whether `cell` is permanently dead.
    pub fn is_dead(&self, cell: Cell) -> bool {
        self.dead.binary_search(&cell).is_ok()
    }

    /// Total number of injected faults of any kind.
    pub fn fault_count(&self) -> usize {
        self.dead.len() + self.degraded.len() + self.transients.len()
    }

    /// Whether the model injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fault_count() == 0
    }

    /// Cells that module placement must avoid: a module cannot actuate a
    /// dead electrode, and a transiently faulty one may fail mid-op.
    pub fn placement_keepout(&self) -> Vec<Cell> {
        let mut keepout = self.dead.clone();
        keepout.extend(self.transients.iter().map(|t| t.cell));
        keepout.sort_unstable();
        keepout.dedup();
        keepout
    }

    /// Lowers the hard faults into router obstacles: dead electrodes
    /// block their own cell forever, transient ones for their window.
    /// Degraded electrodes are *not* obstacles — pass
    /// [`degraded_cells`](Self::degraded_cells) to
    /// [`route_with_environment`](crate::route::route_with_environment)
    /// instead.
    pub fn obstacles(&self) -> Vec<Obstacle> {
        self.dead
            .iter()
            .map(|&c| Obstacle::cell(c, 0, u32::MAX))
            .chain(
                self.transients
                    .iter()
                    .map(|t| Obstacle::cell(t.cell, t.from, t.until)),
            )
            .collect()
    }
}

/// Number of cells a fraction selects, clamped to the population.
fn fraction_count(fraction: f64, total: usize) -> usize {
    ((fraction.clamp(0.0, 1.0) * total as f64).round() as usize).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(16, 16).expect("valid grid")
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultConfig {
            seed: 7,
            dead_fraction: 0.05,
            degraded_fraction: 0.05,
            transient_count: 3,
            ..FaultConfig::default()
        };
        let a = FaultModel::generate(&cfg, &grid());
        let b = FaultModel::generate(&cfg, &grid());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn fault_classes_are_disjoint() {
        let cfg = FaultConfig {
            seed: 3,
            dead_fraction: 0.1,
            degraded_fraction: 0.1,
            transient_count: 8,
            ..FaultConfig::default()
        };
        let m = FaultModel::generate(&cfg, &grid());
        for c in m.degraded_cells() {
            assert!(!m.is_dead(*c));
        }
        for t in m.transients() {
            assert!(!m.is_dead(t.cell));
            assert!(!m.degraded_cells().contains(&t.cell));
            assert!(t.until > t.from);
        }
    }

    #[test]
    fn fractions_outside_the_unit_interval_are_rejected() {
        for bad in [f64::NAN, -1.0, 1.5, f64::INFINITY] {
            let error = FaultConfig::dead(0, bad).validate().unwrap_err();
            assert!(error.starts_with("dead_fraction"), "{error}");
            let degraded = FaultConfig {
                degraded_fraction: bad,
                ..FaultConfig::default()
            };
            let error = degraded.validate().unwrap_err();
            assert!(error.starts_with("degraded_fraction"), "{error}");
        }
        for good in [0.0, 0.5, 1.0] {
            assert_eq!(FaultConfig::dead(0, good).validate(), Ok(()));
        }
    }

    #[test]
    fn counts_match_fractions() {
        let cfg = FaultConfig::dead(1, 0.05);
        let m = FaultModel::generate(&cfg, &grid());
        assert_eq!(m.dead_cells().len(), (0.05f64 * 256.0).round() as usize);
        assert_eq!(m.fault_count(), m.dead_cells().len());
    }

    #[test]
    fn obstacles_are_ring_less_and_cover_windows() {
        let cfg = FaultConfig {
            seed: 9,
            dead_fraction: 0.02,
            transient_count: 2,
            transient_duration: 10,
            ..FaultConfig::default()
        };
        let m = FaultModel::generate(&cfg, &grid());
        let obs = m.obstacles();
        assert_eq!(obs.len(), m.dead_cells().len() + m.transients().len());
        for o in &obs {
            assert!(!o.ring);
            assert_eq!(o.min, o.max);
            // Ring-less: the neighbour cell is not blocked.
            let neighbour = Cell::new(o.min.x + 1, o.min.y);
            assert!(!o.blocks(neighbour, o.from));
            assert!(o.blocks(o.min, o.from));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultModel::generate(&FaultConfig::dead(1, 0.1), &grid());
        let b = FaultModel::generate(&FaultConfig::dead(2, 0.1), &grid());
        assert_ne!(a, b);
    }

    #[test]
    fn empty_model_lowers_to_nothing() {
        let m = FaultModel::generate(&FaultConfig::default(), &grid());
        assert!(m.is_empty());
        assert!(m.obstacles().is_empty());
        assert!(m.placement_keepout().is_empty());
    }
}
