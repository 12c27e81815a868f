//! The case-study networks: the two named on the keynote slides plus a
//! third published model exercising cyclic attractors.
//!
//! * [`t_helper`] — the Boolean T-helper-cell differentiation network of
//!   Mendoza & Xenarios (2006), reproduced rule-for-rule: 23 nodes, three
//!   stable fates Th0 / Th1 / Th2 (slides 30–31).
//! * [`arabidopsis`] — a 15-gene Boolean encoding of the *Arabidopsis
//!   thaliana* flower-organ (ABC) network in the spirit of
//!   Espinosa-Soto et al. (2004) (slide 33). The exact published
//!   truth tables are multi-valued; this encoding keeps the published
//!   regulatory structure (EMF1/TFL1/LFY meristem switch, A–C mutual
//!   exclusion, UFO-gated B function with AP3/PI self-maintenance,
//!   WUS-gated C function) and is validated by reproducing the wild-type
//!   organ repertoire and the published knock-out phenotypes, including
//!   the slide's AP3 knock-out (petals→sepals, stamens→carpels).
//! * [`mammalian_cell_cycle`] — the Boolean mammalian cell-cycle model of
//!   Fauré et al. (2006): quiescent fixed point without growth signal,
//!   the published period-7 synchronous oscillation with it.

use crate::network::{BooleanNetwork, NetworkError, State};
use crate::symbolic::SymbolicDynamics;

/// External cytokine/antigen inputs of the T-helper network. All default
/// to absent (the unstimulated scenario of slide 31).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThInputs {
    /// Interferon-β presence.
    pub ifn_beta: bool,
    /// Interleukin-12 presence.
    pub il12: bool,
    /// Interleukin-18 presence.
    pub il18: bool,
    /// T-cell-receptor engagement.
    pub tcr: bool,
}

/// Builds the Mendoza–Xenarios Boolean T-helper network with all external
/// inputs absent. See [`t_helper_with_inputs`] to stimulate.
pub fn t_helper() -> BooleanNetwork {
    t_helper_with_inputs(ThInputs::default())
}

/// Builds the T-helper network with the given frozen input signals.
///
/// # Panics
///
/// Never panics — the embedded model is statically correct; errors in it
/// would be caught by this crate's tests.
pub fn t_helper_with_inputs(inputs: ThInputs) -> BooleanNetwork {
    // Rule set after Mendoza & Xenarios, "A method for the generation of
    // standardized qualitative dynamical systems of regulatory networks"
    // (2006), Boolean reduction.
    let build = || -> Result<BooleanNetwork, NetworkError> {
        BooleanNetwork::builder()
            .genes(&[
                "IFNb", "IL12", "IL18", "TCR", // inputs
                "IFNbR", "IL12R", "IL18R", "IFNgR", "IL4R", "IL10R", // receptors
                "JAK1", "STAT1", "STAT3", "STAT4", "STAT6", "IRAK", "NFAT",
                "SOCS1", // signalling
                "IFNg", "IL4", "IL10", // cytokines
                "Tbet", "GATA3", // master regulators
            ])
            .input("IFNb", inputs.ifn_beta)?
            .input("IL12", inputs.il12)?
            .input("IL18", inputs.il18)?
            .input("TCR", inputs.tcr)?
            .rule("IFNbR", "IFNb")?
            .rule("IL12R", "IL12 & !STAT6")?
            .rule("IL18R", "IL18 & !STAT6")?
            .rule("IFNgR", "IFNg")?
            .rule("IL4R", "IL4 & !SOCS1")?
            .rule("IL10R", "IL10")?
            .rule("JAK1", "IFNgR & !SOCS1")?
            .rule("STAT1", "JAK1 | IFNbR")?
            .rule("STAT3", "IL10R")?
            .rule("STAT4", "IL12R & !GATA3")?
            .rule("STAT6", "IL4R")?
            .rule("IRAK", "IL18R")?
            .rule("NFAT", "TCR")?
            .rule("SOCS1", "STAT1 | Tbet")?
            .rule("IFNg", "(NFAT | STAT4 | Tbet | IRAK) & !STAT3")?
            .rule("IL4", "GATA3 & !STAT1")?
            .rule("IL10", "GATA3")?
            .rule("Tbet", "(Tbet | STAT1) & !GATA3")?
            .rule("GATA3", "(GATA3 | STAT6) & !Tbet")?
            .build()
    };
    build().expect("embedded T-helper model is well-formed")
}

/// The three canonical T-helper fates plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThFate {
    /// Naive precursor: neither master regulator active.
    Th0,
    /// Tbet-driven effector (IFN-γ producer).
    Th1,
    /// GATA3-driven effector (IL-4 producer).
    Th2,
    /// Any state not matching the three canonical signatures.
    Other,
}

impl std::fmt::Display for ThFate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ThFate::Th0 => "Th0",
            ThFate::Th1 => "Th1",
            ThFate::Th2 => "Th2",
            ThFate::Other => "other",
        };
        f.write_str(s)
    }
}

/// Classifies a state of the T-helper network by its master regulators.
///
/// # Panics
///
/// Panics if `net` lacks the `Tbet`/`GATA3`/`IFNg`/`IL4` genes (i.e. it is
/// not a T-helper network or perturbation thereof).
pub fn classify_th(net: &BooleanNetwork, s: State) -> ThFate {
    let g = |name: &str| {
        net.gene_index(name)
            .unwrap_or_else(|| panic!("not a T-helper network: missing '{name}'"))
    };
    let tbet = s.get(g("Tbet"));
    let gata3 = s.get(g("GATA3"));
    match (tbet, gata3) {
        (false, false) => {
            if s.bits() == 0 || s.active_count() <= 4 {
                ThFate::Th0
            } else {
                ThFate::Other
            }
        }
        (true, false) => ThFate::Th1,
        (false, true) => ThFate::Th2,
        (true, true) => ThFate::Other,
    }
}

/// Fixed points of a T-helper (or perturbed T-helper) network, classified.
/// Uses symbolic (BDD) fixed-point computation, so it stays fast at 23
/// genes.
///
/// # Errors
///
/// Currently infallible; the `Result` keeps the signature stable if larger
/// model variants are added.
pub fn th_fates(net: &BooleanNetwork) -> Result<Vec<(State, ThFate)>, NetworkError> {
    let mut sym = SymbolicDynamics::new(net);
    let fps = sym.fixed_point_states();
    Ok(fps.into_iter().map(|s| (s, classify_th(net, s))).collect())
}

/// Whorl-specific floral induction signals for [`arabidopsis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloralInputs {
    /// Photoperiod flowering signal (FT); false models the vegetative
    /// state.
    pub ft: bool,
    /// B-function trigger (UFO), present in whorls 2–3.
    pub ufo: bool,
    /// Inner-whorl stem-cell signal (WUS), present in whorls 3–4.
    pub wus: bool,
}

impl FloralInputs {
    /// The canonical four wild-type whorl signal combinations
    /// (sepal, petal, stamen, carpel).
    pub fn whorls() -> [FloralInputs; 4] {
        [
            FloralInputs {
                ft: true,
                ufo: false,
                wus: false,
            }, // whorl 1
            FloralInputs {
                ft: true,
                ufo: true,
                wus: false,
            }, // whorl 2
            FloralInputs {
                ft: true,
                ufo: true,
                wus: true,
            }, // whorl 3
            FloralInputs {
                ft: true,
                ufo: false,
                wus: true,
            }, // whorl 4
        ]
    }

    /// The vegetative (non-flowering) scenario.
    pub fn vegetative() -> FloralInputs {
        FloralInputs {
            ft: false,
            ufo: false,
            wus: false,
        }
    }
}

/// Builds the 15-gene Arabidopsis flower-organ network for one whorl
/// scenario.
pub fn arabidopsis(inputs: FloralInputs) -> BooleanNetwork {
    let build = || -> Result<BooleanNetwork, NetworkError> {
        BooleanNetwork::builder()
            .genes(&[
                "FT", "EMF1", "TFL1", "LFY", "FUL", "AP1", "AP2", "AG", "AP3", "PI",
                "SEP", "UFO", "WUS", "LUG", "CLF",
            ])
            .input("FT", inputs.ft)?
            .input("UFO", inputs.ufo)?
            .input("WUS", inputs.wus)?
            // Meristem-identity switch.
            .rule("EMF1", "!LFY & !FT")?
            .rule("TFL1", "EMF1 & !AP1 & !LFY")?
            .rule("LFY", "(FT | FUL | AP1) & !TFL1 & !EMF1")?
            .rule("FUL", "(FT | LFY) & !AP1 & !TFL1")?
            // A function; AG and AP1 mutually exclusive (with the LUG/CLF
            // corepressors required for AP1's repression of AG).
            .rule("AP1", "LFY & !AG & !TFL1")?
            .rule("AP2", "LFY & !TFL1")?
            // C function, gated by WUS, repressed by A (via LUG/CLF).
            .rule("AG", "LFY & WUS & !(AP1 & LUG & CLF)")?
            // B function: UFO-triggered, AP3/PI/SEP self-maintaining loop.
            .rule("AP3", "(LFY & UFO) | (AP3 & PI & SEP)")?
            .rule("PI", "(LFY & UFO) | (AP3 & PI & SEP)")?
            .rule("SEP", "LFY")?
            // Constitutive corepressors.
            .rule("LUG", "true")?
            .rule("CLF", "true")?
            .build()
    };
    build().expect("embedded Arabidopsis model is well-formed")
}

/// Floral organ identities readable from a fixed point (classic ABC
/// model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organ {
    /// No floral program running (LFY off).
    Vegetative,
    /// A function alone.
    Sepal,
    /// A + B functions.
    Petal,
    /// B + C functions.
    Stamen,
    /// C function alone.
    Carpel,
    /// Anything else (mutant tissues).
    Other,
}

impl std::fmt::Display for Organ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Organ::Vegetative => "vegetative",
            Organ::Sepal => "sepal",
            Organ::Petal => "petal",
            Organ::Stamen => "stamen",
            Organ::Carpel => "carpel",
            Organ::Other => "other",
        };
        f.write_str(s)
    }
}

/// Classifies a fixed point of the Arabidopsis network into an organ
/// identity via ABC logic.
///
/// # Panics
///
/// Panics if `net` lacks the ABC genes.
pub fn classify_organ(net: &BooleanNetwork, s: State) -> Organ {
    let g = |name: &str| {
        net.gene_index(name)
            .unwrap_or_else(|| panic!("not an Arabidopsis network: missing '{name}'"))
    };
    let lfy = s.get(g("LFY"));
    let a = s.get(g("AP1"));
    let b = s.get(g("AP3")) && s.get(g("PI"));
    let c = s.get(g("AG"));
    if !lfy {
        return Organ::Vegetative;
    }
    match (a, b, c) {
        (true, false, false) => Organ::Sepal,
        (true, true, false) => Organ::Petal,
        (false, true, true) => Organ::Stamen,
        (false, false, true) => Organ::Carpel,
        _ => Organ::Other,
    }
}

/// Fixed points of an Arabidopsis (or perturbed Arabidopsis) network,
/// each with its organ identity, in ascending state order. Uses symbolic
/// (BDD) fixed-point computation.
///
/// # Errors
///
/// Currently infallible; the `Result` keeps the signature stable if larger
/// model variants are added.
pub fn organ_fates(net: &BooleanNetwork) -> Result<Vec<(State, Organ)>, NetworkError> {
    let mut sym = SymbolicDynamics::new(net);
    let fps = sym.fixed_point_states();
    Ok(fps
        .into_iter()
        .map(|s| (s, classify_organ(net, s)))
        .collect())
}

/// The distinct organ identities among `fates`, sorted by name.
pub fn repertoire(fates: &[(State, Organ)]) -> Vec<Organ> {
    let mut organs: Vec<Organ> = fates.iter().map(|&(_, o)| o).collect();
    organs.sort_by_key(|o| format!("{o}"));
    organs.dedup();
    organs
}

/// The set of organ identities appearing among the fixed points of `net`
/// ([`repertoire`] of [`organ_fates`]).
///
/// # Errors
///
/// Currently infallible; the `Result` keeps the signature stable if larger
/// model variants are added.
pub fn organ_repertoire(net: &BooleanNetwork) -> Result<Vec<Organ>, NetworkError> {
    Ok(repertoire(&organ_fates(net)?))
}

/// Builds the Boolean mammalian cell-cycle network of Fauré, Naldi,
/// Chaouiya & Thieffry (Bioinformatics 2006), 10 nodes, with the growth
/// signal CycD frozen to `growth`.
///
/// Published behaviour under synchronous update: without growth signal
/// the system has a single quiescent fixed point (Rb, p27 and Cdh1
/// active); with the signal the quiescent state vanishes and the unique
/// attractor is the cyclic progression through the cell-cycle phases.
pub fn mammalian_cell_cycle(growth: bool) -> BooleanNetwork {
    let build = || -> Result<BooleanNetwork, NetworkError> {
        BooleanNetwork::builder()
            .genes(&[
                "CycD", "Rb", "E2F", "CycE", "CycA", "p27", "Cdc20", "Cdh1", "UbcH10",
                "CycB",
            ])
            .input("CycD", growth)?
            .rule(
                "Rb",
                "(!CycD & !CycE & !CycA & !CycB) | (p27 & !CycD & !CycB)",
            )?
            .rule("E2F", "(!Rb & !CycA & !CycB) | (p27 & !Rb & !CycB)")?
            .rule("CycE", "E2F & !Rb")?
            .rule(
                "CycA",
                "(E2F & !Rb & !Cdc20 & !(Cdh1 & UbcH10))                  | (CycA & !Rb & !Cdc20 & !(Cdh1 & UbcH10))",
            )?
            .rule(
                "p27",
                "(!CycD & !CycE & !CycA & !CycB)                  | (p27 & !(CycE & CycA) & !CycB & !CycD)",
            )?
            .rule("Cdc20", "CycB")?
            .rule("Cdh1", "(!CycA & !CycB) | Cdc20 | (p27 & !CycB)")?
            .rule(
                "UbcH10",
                "!Cdh1 | (Cdh1 & UbcH10 & (Cdc20 | CycA | CycB))",
            )?
            .rule("CycB", "!Cdc20 & !Cdh1")?
            .build()
    };
    build().expect("embedded cell-cycle model is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::sync_attractors;
    use crate::Perturbation;

    #[test]
    fn t_helper_has_th0_th1_th2_fixed_points() {
        let net = t_helper();
        let fates = th_fates(&net).unwrap();
        let kinds: Vec<ThFate> = fates.iter().map(|&(_, f)| f).collect();
        assert!(kinds.contains(&ThFate::Th0), "fates: {kinds:?}");
        assert!(kinds.contains(&ThFate::Th1));
        assert!(kinds.contains(&ThFate::Th2));
        assert_eq!(fates.len(), 3, "exactly three stable fates, got {fates:?}");
    }

    #[test]
    fn th1_signature_genes() {
        let net = t_helper();
        let fates = th_fates(&net).unwrap();
        let (th1, _) = fates
            .iter()
            .find(|&&(_, f)| f == ThFate::Th1)
            .expect("Th1 exists");
        // Th1: Tbet, SOCS1, IFNg and IFNgR active; GATA3 silent.
        for gene in ["Tbet", "SOCS1", "IFNg", "IFNgR"] {
            assert!(
                th1.get(net.gene_index(gene).unwrap()),
                "{gene} should be on"
            );
        }
        assert!(!th1.get(net.gene_index("GATA3").unwrap()));
    }

    #[test]
    fn th2_signature_genes() {
        let net = t_helper();
        let fates = th_fates(&net).unwrap();
        let (th2, _) = fates
            .iter()
            .find(|&&(_, f)| f == ThFate::Th2)
            .expect("Th2 exists");
        for gene in ["GATA3", "IL4", "IL4R", "STAT6", "IL10", "IL10R", "STAT3"] {
            assert!(
                th2.get(net.gene_index(gene).unwrap()),
                "{gene} should be on"
            );
        }
        assert!(!th2.get(net.gene_index("Tbet").unwrap()));
    }

    #[test]
    fn gata3_knockout_removes_th2() {
        let net = t_helper()
            .with_perturbation(&Perturbation::knock_out("GATA3"))
            .unwrap();
        let fates = th_fates(&net).unwrap();
        assert!(fates.iter().all(|&(_, f)| f != ThFate::Th2));
        assert!(fates.iter().any(|&(_, f)| f == ThFate::Th1));
    }

    #[test]
    fn tbet_knockout_removes_th1() {
        let net = t_helper()
            .with_perturbation(&Perturbation::knock_out("Tbet"))
            .unwrap();
        let fates = th_fates(&net).unwrap();
        assert!(fates.iter().all(|&(_, f)| f != ThFate::Th1));
        assert!(fates.iter().any(|&(_, f)| f == ThFate::Th2));
    }

    #[test]
    fn il12_stimulation_preserves_th1_fate() {
        let net = t_helper_with_inputs(ThInputs {
            il12: true,
            ..ThInputs::default()
        });
        let fates = th_fates(&net).unwrap();
        assert!(fates.iter().any(|&(_, f)| f == ThFate::Th1));
    }

    #[test]
    fn arabidopsis_vegetative_scenario() {
        let net = arabidopsis(FloralInputs::vegetative());
        let organs = organ_repertoire(&net).unwrap();
        assert!(organs.contains(&Organ::Vegetative), "organs: {organs:?}");
        assert!(!organs.contains(&Organ::Carpel));
        assert!(!organs.contains(&Organ::Stamen));
    }

    #[test]
    fn wild_type_whorls_produce_canonical_organs() {
        let expected = [Organ::Sepal, Organ::Petal, Organ::Stamen, Organ::Carpel];
        for (w, want) in FloralInputs::whorls().iter().zip(expected) {
            let net = arabidopsis(*w);
            let organs = organ_repertoire(&net).unwrap();
            assert!(
                organs.contains(&want),
                "whorl {w:?} missing {want}, got {organs:?}"
            );
        }
    }

    #[test]
    fn ap3_knockout_petals_to_sepals_stamens_to_carpels() {
        // Slide 33: the AP3 knock-out flower has sepals and carpels only.
        let whorls = FloralInputs::whorls();
        // Whorl 2 (petal) collapses to sepal.
        let w2 = arabidopsis(whorls[1])
            .with_perturbation(&Perturbation::knock_out("AP3"))
            .unwrap();
        let o2 = organ_repertoire(&w2).unwrap();
        assert!(o2.contains(&Organ::Sepal), "whorl2 ap3-ko: {o2:?}");
        assert!(!o2.contains(&Organ::Petal));
        // Whorl 3 (stamen) collapses to carpel.
        let w3 = arabidopsis(whorls[2])
            .with_perturbation(&Perturbation::knock_out("AP3"))
            .unwrap();
        let o3 = organ_repertoire(&w3).unwrap();
        assert!(o3.contains(&Organ::Carpel), "whorl3 ap3-ko: {o3:?}");
        assert!(!o3.contains(&Organ::Stamen));
    }

    #[test]
    fn ag_knockout_removes_c_function_everywhere() {
        for w in FloralInputs::whorls() {
            let net = arabidopsis(w)
                .with_perturbation(&Perturbation::knock_out("AG"))
                .unwrap();
            let organs = organ_repertoire(&net).unwrap();
            assert!(!organs.contains(&Organ::Carpel), "{w:?}: {organs:?}");
            assert!(!organs.contains(&Organ::Stamen), "{w:?}: {organs:?}");
        }
    }

    #[test]
    fn lfy_knockout_is_vegetative() {
        let net = arabidopsis(FloralInputs::whorls()[0])
            .with_perturbation(&Perturbation::knock_out("LFY"))
            .unwrap();
        let organs = organ_repertoire(&net).unwrap();
        assert_eq!(organs, vec![Organ::Vegetative]);
    }

    #[test]
    fn cell_cycle_quiescent_without_growth() {
        let net = mammalian_cell_cycle(false);
        let atts = sync_attractors(&net, Some(10)).unwrap();
        // A single fixed point: the quiescent G0 state with Rb, p27 and
        // Cdh1 active.
        let fixed: Vec<_> = atts.iter().filter(|a| a.period() == 1).collect();
        assert_eq!(fixed.len(), 1, "attractors: {atts:?}");
        let g0 = fixed[0].states[0];
        for gene in ["Rb", "p27", "Cdh1"] {
            assert!(g0.get(net.gene_index(gene).unwrap()), "{gene} should be on");
        }
        for gene in ["CycD", "CycE", "CycA", "CycB", "E2F", "Cdc20"] {
            assert!(
                !g0.get(net.gene_index(gene).unwrap()),
                "{gene} should be off"
            );
        }
    }

    #[test]
    fn cell_cycle_oscillates_with_growth() {
        let net = mammalian_cell_cycle(true);
        let atts = sync_attractors(&net, Some(10)).unwrap();
        // With the growth signal the quiescent state disappears: the only
        // attractor is the cell-cycle oscillation (period 7 in the
        // published synchronous model).
        assert_eq!(atts.len(), 1, "attractors: {atts:?}");
        assert_ne!(atts[0].period(), 1);
        assert_eq!(atts[0].period(), 7, "published synchronous period");
        // Every phase gene toggles along the cycle.
        for gene in ["CycE", "CycA", "CycB", "Cdc20"] {
            let idx = net.gene_index(gene).unwrap();
            let on = atts[0].states.iter().filter(|s| s.get(idx)).count();
            assert!(on > 0 && on < atts[0].period(), "{gene} should oscillate");
        }
    }
}
