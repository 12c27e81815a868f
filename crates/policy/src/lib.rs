//! # mns-policy — composable run-time energy-management policies
//!
//! The keynote's sensor-network vision (slides 35–40) hinges on
//! "policies for run-time energy/information management": a node that
//! harvests its own power must decide, slot by slot, how hard to work
//! from nothing but its local resource state. The original `DutyPolicy`
//! enum hard-wired three answers (fixed, greedy, energy-neutral) into
//! the harvesting loop; this crate grows that into an engine:
//!
//! * [`SlotCtx`] — everything a policy may observe about one decision
//!   slot: battery state, harvest power, time-of-day, cumulative
//!   discharge. Policies are pure over this context plus their own
//!   state, so evaluation order can never leak in.
//! * [`PolicyExpr`] — a *data* representation of a policy: three
//!   primitives byte-identical to the historical enum, plus combinators
//!   (forecast-aware EWMA, battery-health derating, hysteresis,
//!   scheduled switching, clamped composition). Being data, expressions
//!   fingerprint, travel the manifest wire format, and pin into the
//!   golden corpus like any other scenario parameter.
//! * [`Policy`] / [`Evaluator`] — the run-time side: an expression
//!   compiles into a stateful evaluator whose [`Policy::duty`] is called
//!   once per slot by the simulators in `mns-wsn`.
//! * [`PolicyAssignment`] — per-node heterogeneous policies for
//!   multi-node fleets (uniform, or a round-robin mix).
//! * [`reference`](mod@reference) — the retained historical
//!   [`reference::DutyPolicy`] enum.
//!   `mns_wsn::harvest::simulate_harvesting` still evaluates it with the
//!   original inline match; differential proptests pin the new engine's
//!   primitives byte-identical to it.
//!
//! Construction is validated ([`PolicyError`]): NaN parameters, duties
//! outside `[0, 1]` and non-positive EWMA smoothing factors are typed
//! errors at build time instead of silent clamps scattered through the
//! simulation loop. (Evaluators still clamp defensively — wire-decoded
//! expressions are re-validated at the parse boundary, but a clamp is
//! the right failure mode for a value that slips through.)
//!
//! ## Example
//!
//! ```
//! use mns_policy::{Policy, PolicyExpr, SlotCtx};
//!
//! // Energy-neutral tracking, derated as the battery ages, never below
//! // a 5 % duty floor.
//! let expr = PolicyExpr::derate(PolicyExpr::energy_neutral(0.05).unwrap(), 0.2, 0.5)
//!     .and_then(|p| PolicyExpr::clamp(p, 0.05, 1.0))
//!     .unwrap();
//! let mut eval = expr.evaluator();
//! let duty = eval.duty(&SlotCtx::example());
//! assert!((0.05..=1.0).contains(&duty));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod eval;
mod expr;
pub mod reference;

pub use ctx::SlotCtx;
pub use eval::{Evaluator, Policy};
pub use expr::{PolicyAssignment, PolicyError, PolicyExpr, MAX_POLICY_DEPTH};
