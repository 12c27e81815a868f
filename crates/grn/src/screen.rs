//! Systematic in-silico perturbation screens.
//!
//! The keynote frames knock-out experiments as stuck-at fault injection
//! ("déjà vu", slide 32). A *screen* runs that experiment for every gene —
//! exactly what a fault-coverage pass does for a netlist — and reports how
//! each perturbation reshapes the steady-state landscape.

use crate::network::{BooleanNetwork, NetworkError, Perturbation, State};
use crate::symbolic::SymbolicDynamics;

/// Result of perturbing one gene.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenEntry {
    /// The perturbation applied.
    pub perturbation: Perturbation,
    /// Fixed points of the perturbed network.
    pub fixed_points: Vec<State>,
    /// Fixed points of the wild type that survived (bit-identical states
    /// that are still fixed under the perturbed rules).
    pub preserved: usize,
    /// Fixed points that exist only in the mutant.
    pub novel: usize,
}

/// Outcome of a whole-network screen.
#[derive(Debug, Clone, PartialEq)]
pub struct Screen {
    /// Wild-type fixed points.
    pub wild_type: Vec<State>,
    /// One entry per perturbation, in gene order (knock-outs first if both
    /// kinds were requested).
    pub entries: Vec<ScreenEntry>,
}

impl Screen {
    /// Entries whose perturbation changed the steady-state landscape
    /// (lost or gained at least one fixed point).
    pub fn phenotypic(&self) -> impl Iterator<Item = &ScreenEntry> {
        let wt = self.wild_type.len();
        self.entries
            .iter()
            .filter(move |e| e.novel > 0 || e.preserved != wt)
    }
}

/// Which perturbation kinds a screen applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenKind {
    /// Stuck-at-0 for every gene.
    KnockOuts,
    /// Stuck-at-1 for every gene.
    OverExpressions,
    /// Both, knock-outs first.
    Both,
}

/// Runs a single-gene perturbation screen using symbolic fixed-point
/// analysis (fast enough for every model in this workspace). One engine
/// answers the wild type and every entry
/// ([`SymbolicDynamics::perturbed_fixed_point_states`]).
///
/// # Errors
///
/// Propagates [`NetworkError`] from the perturbation query (cannot occur
/// for genes taken from the network itself; kept for API stability).
pub fn single_gene_screen(net: &BooleanNetwork, kind: ScreenKind) -> Result<Screen, NetworkError> {
    let _screen_span = mns_telemetry::span("grn.screen");
    let mut sym = SymbolicDynamics::new(net);
    let wild_type = sym.fixed_point_states();

    let mut perturbations = Vec::new();
    if matches!(kind, ScreenKind::KnockOuts | ScreenKind::Both) {
        perturbations.extend(net.genes().iter().map(|g| Perturbation::knock_out(g)));
    }
    if matches!(kind, ScreenKind::OverExpressions | ScreenKind::Both) {
        perturbations.extend(net.genes().iter().map(|g| Perturbation::over_express(g)));
    }

    let mut entries = Vec::with_capacity(perturbations.len());
    for p in perturbations {
        let _perturbation_span = mns_telemetry::span("grn.perturbation");
        mns_telemetry::counter_add("grn.perturbations", 1);
        let fixed_points = sym.perturbed_fixed_point_states(&p)?;
        let preserved = fixed_points
            .iter()
            .filter(|s| wild_type.contains(s))
            .count();
        let novel = fixed_points.len() - preserved;
        entries.push(ScreenEntry {
            perturbation: p,
            fixed_points,
            preserved,
            novel,
        });
    }
    Ok(Screen { wild_type, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::t_helper;

    fn toggle() -> BooleanNetwork {
        BooleanNetwork::builder()
            .genes(&["a", "b"])
            .rule("a", "!b")
            .unwrap()
            .rule("b", "!a")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn toggle_knockout_screen() {
        let screen = single_gene_screen(&toggle(), ScreenKind::KnockOuts).unwrap();
        assert_eq!(screen.wild_type.len(), 2);
        assert_eq!(screen.entries.len(), 2);
        for e in &screen.entries {
            // Knocking out either side leaves exactly one fixed point:
            // the opposite gene on.
            assert_eq!(e.fixed_points.len(), 1);
            assert_eq!(e.preserved, 1);
            assert_eq!(e.novel, 0);
        }
    }

    #[test]
    fn both_kinds_ordering() {
        let screen = single_gene_screen(&toggle(), ScreenKind::Both).unwrap();
        assert_eq!(screen.entries.len(), 4);
        assert_eq!(screen.entries[0].perturbation, Perturbation::knock_out("a"));
        assert_eq!(
            screen.entries[2].perturbation,
            Perturbation::over_express("a")
        );
    }

    #[test]
    fn thelper_screen_finds_master_regulators() {
        let net = t_helper();
        let screen = single_gene_screen(&net, ScreenKind::KnockOuts).unwrap();
        assert_eq!(screen.wild_type.len(), 3);
        let lost_of = |gene: &str| {
            screen
                .entries
                .iter()
                .find(|e| e.perturbation.gene() == gene)
                .map(|e| 3 - e.preserved)
                .expect("gene screened")
        };
        // Master regulators destroy a lineage; housekeeping signalling
        // genes without active inputs do not.
        assert_eq!(lost_of("GATA3"), 1);
        assert_eq!(lost_of("Tbet"), 1);
        assert_eq!(lost_of("NFAT"), 0);
        // The screen separates phenotypic from silent knock-outs.
        let phenotypic: Vec<&str> = screen.phenotypic().map(|e| e.perturbation.gene()).collect();
        assert!(phenotypic.contains(&"GATA3"));
        assert!(phenotypic.contains(&"Tbet"));
        assert!(screen
            .entries
            .iter()
            .any(|e| e.fixed_points == screen.wild_type));
    }
}
