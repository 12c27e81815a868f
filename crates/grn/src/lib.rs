//! # mns-grn — gene regulatory networks as finite-state systems
//!
//! The keynote (slides 27–34) argues that EDA-style abstractions apply
//! directly to molecular biology: a gene regulatory network is a logic
//! circuit, a knock-out experiment is a stuck-at-0 fault, steady states are
//! reachable fixed points, and implicit (BDD) traversal scales where
//! explicit simulation cannot. This crate implements that whole stack:
//!
//! * [`Expr`] — a Boolean rule AST with a small text parser
//!   (`"Tbet | STAT1 & !GATA3"`),
//! * [`BooleanNetwork`] — named genes plus one update rule per gene, with
//!   perturbations ([`Perturbation`]) implementing knock-out (stuck-at-0)
//!   and over-expression (stuck-at-1),
//! * [`dynamics`] — *explicit* state-space analysis: synchronous attractors
//!   with basin sizes, asynchronous attractors via terminal SCCs,
//! * [`symbolic`] — *implicit* analysis on BDDs (`mns_dd`): fixed points,
//!   image computation, reachability and complete synchronous attractor
//!   extraction,
//! * [`ode`] — the "biochemical abstraction": a HillCube-style continuous
//!   interpolation of the Boolean rules integrated with RK4,
//! * [`models`] — the two case studies named on the slides: the T-helper
//!   cell differentiation network (Th0/Th1/Th2) and an ABC-logic
//!   Arabidopsis flower-organ network with the AP3 knock-out,
//! * [`random`] — random network generation for scaling experiments,
//! * [`screen`] — systematic single-gene perturbation screens.
//!
//! ## Example: knock-out as stuck-at-0
//!
//! ```
//! use mns_grn::{models, Perturbation};
//! use mns_grn::models::ThFate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let th = models::t_helper();
//! let wild = models::th_fates(&th)?;
//! assert!(wild.iter().any(|&(_, f)| f == ThFate::Th2));
//! // Knocking out GATA3 (stuck-at-0) removes the Th2 fate.
//! let ko = th.with_perturbation(&Perturbation::knock_out("GATA3"))?;
//! let mutant = models::th_fates(&ko)?;
//! assert!(mutant.iter().all(|&(_, f)| f != ThFate::Th2));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
mod expr;
pub mod models;
mod network;
pub mod ode;
pub mod random;
pub mod screen;
pub mod symbolic;

pub use expr::{Expr, ParseExprError};
pub use network::{BooleanNetwork, NetworkError, Perturbation, PerturbationKind, State, MAX_GENES};
