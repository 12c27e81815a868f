//! The virtual-module library.
//!
//! On a DMFB, operations execute inside *virtual modules*: rectangular
//! electrode regions temporarily reserved for a mix, split or detection.
//! Each module shape trades area for speed (bigger mixers finish faster —
//! the classic Su/Chakrabarty characterization), which gives the scheduler
//! a real resource-allocation problem.

use crate::assay::OpKind;

/// A module shape usable for some operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleSpec {
    /// Footprint width in electrodes (excluding the guard band).
    pub width: i32,
    /// Footprint height in electrodes.
    pub height: i32,
    /// Execution latency in routing ticks.
    pub duration: u32,
}

/// The module library: which shapes can run which operation kinds.
///
/// The default library follows the standard DMFB characterization:
/// larger mixers are faster, detection needs a single sensing cell but a
/// long integration time.
///
/// ```
/// use mns_fluidics::modules::ModuleLibrary;
/// use mns_fluidics::assay::OpKind;
/// let lib = ModuleLibrary::standard();
/// assert!(!lib.options(&OpKind::Mix).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleLibrary {
    mixers: Vec<ModuleSpec>,
    splitters: Vec<ModuleSpec>,
    detectors: Vec<ModuleSpec>,
    dispense_latency: u32,
    output_latency: u32,
}

impl ModuleLibrary {
    /// The standard library (durations in ticks):
    ///
    /// | module | shape | duration |
    /// |---|---|---|
    /// | mixer | 2×2 | 10 |
    /// | mixer | 2×3 | 6 |
    /// | mixer | 2×4 | 3 |
    /// | splitter | 1×3 | 2 |
    /// | detector | 1×1 | 30 |
    pub fn standard() -> Self {
        ModuleLibrary {
            mixers: vec![
                ModuleSpec {
                    width: 2,
                    height: 4,
                    duration: 3,
                },
                ModuleSpec {
                    width: 2,
                    height: 3,
                    duration: 6,
                },
                ModuleSpec {
                    width: 2,
                    height: 2,
                    duration: 10,
                },
            ],
            splitters: vec![ModuleSpec {
                width: 1,
                height: 3,
                duration: 2,
            }],
            detectors: vec![ModuleSpec {
                width: 1,
                height: 1,
                duration: 30,
            }],
            dispense_latency: 2,
            output_latency: 2,
        }
    }

    /// Module shapes able to execute `kind`, fastest first. Dispense and
    /// output are port operations with a nominal 1×1 footprint.
    pub fn options(&self, kind: &OpKind) -> Vec<ModuleSpec> {
        match kind {
            OpKind::Mix | OpKind::Dilute => self.mixers.clone(),
            OpKind::Split => self.splitters.clone(),
            OpKind::Detect => self.detectors.clone(),
            OpKind::Dispense { .. } => vec![ModuleSpec {
                width: 1,
                height: 1,
                duration: self.dispense_latency,
            }],
            OpKind::Output => vec![ModuleSpec {
                width: 1,
                height: 1,
                duration: self.output_latency,
            }],
        }
    }
}

impl Default for ModuleLibrary {
    fn default() -> Self {
        Self::standard()
    }
}

/// Test fixtures: libraries the unit tests of this crate build.
#[cfg(test)]
impl ModuleLibrary {
    /// A compact library for small grids: only the slowest (smallest)
    /// variant of each module.
    pub(crate) fn compact() -> Self {
        let std = Self::standard();
        ModuleLibrary {
            mixers: vec![*std.mixers.last().expect("standard library has mixers")],
            ..std
        }
    }

    /// A fully custom library. Each module list must be non-empty and is
    /// used fastest-first by the scheduler, so sort accordingly.
    ///
    /// # Panics
    ///
    /// Panics if any module list is empty.
    pub(crate) fn custom(
        mixers: Vec<ModuleSpec>,
        splitters: Vec<ModuleSpec>,
        detectors: Vec<ModuleSpec>,
        dispense_latency: u32,
        output_latency: u32,
    ) -> Self {
        assert!(
            !mixers.is_empty() && !splitters.is_empty() && !detectors.is_empty(),
            "module lists must be non-empty"
        );
        ModuleLibrary {
            mixers,
            splitters,
            detectors,
            dispense_latency,
            output_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_is_area_time_tradeoff() {
        let lib = ModuleLibrary::standard();
        let mixers = lib.options(&OpKind::Mix);
        let area = |m: &ModuleSpec| m.width * m.height;
        for pair in mixers.windows(2) {
            assert!(
                area(&pair[0]) >= area(&pair[1]),
                "fastest mixers come first and are larger"
            );
            assert!(pair[0].duration <= pair[1].duration);
        }
    }

    #[test]
    fn every_kind_has_an_option() {
        let lib = ModuleLibrary::standard();
        for kind in [
            OpKind::Mix,
            OpKind::Split,
            OpKind::Dilute,
            OpKind::Detect,
            OpKind::Dispense { fluid: "x".into() },
            OpKind::Output,
        ] {
            assert!(!lib.options(&kind).is_empty(), "{kind} has no module");
        }
    }

    #[test]
    fn compact_library_has_single_mixer() {
        let lib = ModuleLibrary::compact();
        let mixers = lib.options(&OpKind::Mix);
        assert_eq!(mixers.len(), 1);
        assert_eq!(mixers[0].width * mixers[0].height, 4);
    }
}
