//! Cross-contamination analysis of compiled assays.
//!
//! On a real chip a droplet leaves residue on every electrode it touches;
//! a later droplet crossing the same cell is contaminated if the residue
//! contains a species the droplet does not already carry, unless the two
//! droplets are about to merge anyway. This module derives each transport
//! route's fluid *set* from the assay DAG and reports every such
//! cell-sharing incident — the post-route sign-off check of a DMFB design
//! flow.

use std::collections::HashMap;

use crate::assay::{Assay, OpId, OpKind};
use crate::compiler::CompiledAssay;
use crate::geometry::Cell;

/// One cell shared by transports of different fluids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContaminationIncident {
    /// The shared electrode.
    pub cell: Cell,
    /// Route index (into [`CompiledAssay::routes`]) that used the cell
    /// first.
    pub first_route: usize,
    /// Tick of the first visit.
    pub first_time: u32,
    /// Route index that crossed later with a different fluid.
    pub second_route: usize,
    /// Tick of the contaminating visit.
    pub second_time: u32,
    /// Fluid lineage of the earlier droplet.
    pub first_fluid: String,
    /// Fluid lineage of the later droplet.
    pub second_fluid: String,
}

/// Report of the contamination check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContaminationReport {
    /// Every incident, ordered by the contaminating visit's time.
    pub incidents: Vec<ContaminationIncident>,
    /// Minimum number of wash operations that would clear the incidents
    /// (one per distinct contaminated cell).
    pub washes_needed: usize,
    /// Fluid lineage per route, for diagnostics.
    pub route_fluids: Vec<String>,
}

impl ContaminationReport {
    /// Whether the compiled assay is contamination-free as routed.
    pub fn is_clean(&self) -> bool {
        self.incidents.is_empty()
    }
}

/// Derives the fluid *set* of every operation's output: dispenses
/// contribute their fluid; mixes/dilutions take the union;
/// splits/detects/outputs pass sets through.
fn fluid_sets(assay: &Assay) -> Vec<std::collections::BTreeSet<String>> {
    let mut sets: Vec<std::collections::BTreeSet<String>> =
        vec![std::collections::BTreeSet::new(); assay.len()];
    for &id in &assay.topo_order() {
        let op = assay.op(id);
        sets[id.0 as usize] = match &op.kind {
            OpKind::Dispense { fluid } => std::iter::once(fluid.clone()).collect(),
            OpKind::Mix | OpKind::Dilute => op
                .inputs
                .iter()
                .flat_map(|p| sets[p.0 as usize].iter().cloned())
                .collect(),
            OpKind::Split | OpKind::Detect | OpKind::Output => {
                sets[op.inputs[0].0 as usize].clone()
            }
        };
    }
    sets
}

fn set_label(set: &std::collections::BTreeSet<String>) -> String {
    set.iter().cloned().collect::<Vec<_>>().join("+")
}

/// Checks a compiled assay for cross-contamination.
///
/// # Panics
///
/// Panics if `compiled` was produced from a different assay (route count
/// mismatch).
pub fn check_contamination(assay: &Assay, compiled: &CompiledAssay) -> ContaminationReport {
    // The compiler records the authoritative route→edge pairing.
    let endpoints = &compiled.edges;
    assert_eq!(
        endpoints.len(),
        compiled.routes.len(),
        "compiled routes do not match the assay's transport edges"
    );
    let sets = fluid_sets(assay);
    let route_sets: Vec<&std::collections::BTreeSet<String>> = endpoints
        .iter()
        .map(|&(p, _)| &sets[p.0 as usize])
        .collect();
    let route_fluids: Vec<String> = route_sets.iter().map(|s| set_label(s)).collect();
    let route_consumers: Vec<OpId> = endpoints.iter().map(|&(_, c)| c).collect();

    // Cell → (route, last visit time).
    let mut visits: HashMap<Cell, (usize, u32)> = HashMap::new();
    let mut incidents = Vec::new();
    // Visit order must be temporal: iterate ticks ascending across routes.
    let mut events: Vec<(u32, usize, Cell)> = Vec::new();
    for (ri, route) in compiled.routes.iter().enumerate() {
        for (k, &cell) in route.path.iter().enumerate() {
            events.push((route.depart + k as u32, ri, cell));
        }
    }
    events.sort_unstable_by_key(|&(t, ri, _)| (t, ri));
    for (t, ri, cell) in events {
        match visits.get(&cell) {
            None => {
                visits.insert(cell, (ri, t));
            }
            Some(&(prev_route, prev_time)) => {
                // A residue contaminates only if it carries a species the
                // crossing droplet does not already contain, and the two
                // droplets are not merge partners (same consumer op).
                let merging = route_consumers[prev_route] == route_consumers[ri];
                let foreign = !route_sets[prev_route].is_subset(route_sets[ri]);
                if foreign && !merging && prev_route != ri {
                    incidents.push(ContaminationIncident {
                        cell,
                        first_route: prev_route,
                        first_time: prev_time,
                        second_route: ri,
                        second_time: t,
                        first_fluid: route_fluids[prev_route].clone(),
                        second_fluid: route_fluids[ri].clone(),
                    });
                }
                // The later droplet's residue now dominates the cell.
                visits.insert(cell, (ri, t));
            }
        }
    }
    let mut cells: Vec<Cell> = incidents.iter().map(|i| i.cell).collect();
    cells.sort_unstable();
    cells.dedup();
    ContaminationReport {
        washes_needed: cells.len(),
        incidents,
        route_fluids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assay::multiplex_immunoassay;
    use crate::compiler::{compile, CompilerConfig};

    #[test]
    fn lineages_follow_the_dag() {
        let mut b = Assay::builder();
        let s = b.dispense("serum");
        let r = b.dispense("reagent");
        let m = b.mix(s, r);
        let sp = b.split(m);
        b.detect(sp);
        let assay = b.build().unwrap();
        let l = fluid_sets(&assay);
        assert_eq!(set_label(&l[s.0 as usize]), "serum");
        assert_eq!(set_label(&l[m.0 as usize]), "reagent+serum");
        assert_eq!(set_label(&l[sp.0 as usize]), "reagent+serum");
    }

    #[test]
    fn single_sample_assay_is_clean() {
        // The only fluid crossings in a 1-plex assay are the two mixer
        // inputs, which merge — so the assay must sign off clean.
        let assay = multiplex_immunoassay(1);
        let compiled = compile(&assay, &CompilerConfig::default()).unwrap();
        let report = check_contamination(&assay, &compiled);
        assert!(report.is_clean(), "incidents: {:?}", report.incidents);
        assert_eq!(report.route_fluids.len(), compiled.routes.len());
    }

    #[test]
    fn multiplex_assay_contamination_is_quantified() {
        let assay = multiplex_immunoassay(4);
        let compiled = compile(&assay, &CompilerConfig::default()).unwrap();
        let report = check_contamination(&assay, &compiled);
        // Whatever the router chose, the report must be internally
        // consistent: wash count equals distinct contaminated cells.
        let mut cells: Vec<Cell> = report.incidents.iter().map(|i| i.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(report.washes_needed, cells.len());
        // Incidents are temporally ordered pairs.
        for i in &report.incidents {
            assert!(i.first_time <= i.second_time);
        }
    }

    #[test]
    fn same_fluid_reuse_is_not_contamination() {
        // Two dispenses of the *same* reagent crossing paths is fine.
        let mut b = Assay::builder();
        let a1 = b.dispense("buffer");
        let a2 = b.dispense("buffer");
        let m = b.mix(a1, a2);
        b.detect(m);
        let assay = b.build().unwrap();
        let compiled = compile(&assay, &CompilerConfig::default()).unwrap();
        let report = check_contamination(&assay, &compiled);
        // Routes to the mixer share the landing cell; both carry "buffer".
        assert!(
            report
                .incidents
                .iter()
                .all(|i| i.first_fluid != i.second_fluid),
            "same-fluid sharing must never be reported"
        );
        // All three transports (two inputs and the mix product) carry
        // only "buffer".
        let buffer_only = report
            .route_fluids
            .iter()
            .filter(|f| f.as_str() == "buffer")
            .count();
        assert_eq!(buffer_only, 3);
        assert!(report.is_clean());
    }
}
