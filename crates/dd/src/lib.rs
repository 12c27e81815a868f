//! # mns-dd — binary and zero-suppressed decision diagrams
//!
//! A self-contained decision-diagram package providing the two flavours the
//! micronano workspace needs:
//!
//! * [`BddManager`] — reduced ordered binary decision diagrams for Boolean
//!   function manipulation: used by `mns-grn` for implicit steady-state and
//!   reachability computation over gene regulatory networks ("simulation
//!   versus traversal", keynote slide 32).
//! * [`ZddManager`] — zero-suppressed decision diagrams for sparse set
//!   families: used by `mns-bicluster` to store and manipulate the family of
//!   maximal biclusters ("bi-clustering … solved with ZDD technology",
//!   keynote slide 25).
//!
//! Both managers are thin flavour layers over one shared arena: an
//! index-based node arena with `u32` handles, an open-addressed unique
//! table guaranteeing canonicity (hash consing), a direct-mapped lossy
//! computed cache for operation memoization (can be disabled for the A1
//! ablation), and a per-thread arena recycling pool
//! ([`ZddManager::recycled`] / [`ZddManager::recycle`]) so repeated
//! mining sessions reuse warmed capacity. All structures iterate in
//! creation order, so identical operation sequences are byte-identical
//! across processes. [`naive::NaiveFamily`] is the brute-force reference
//! model the differential suites pin the memoized engine against.
//!
//! ## Handle validity
//!
//! A [`Ref`] stays valid for its manager's life: nodes are never freed,
//! so a manager's node count is also its peak
//! ([`ZddManager::peak_nodes`]).
//!
//! ## Example
//!
//! ```
//! use mns_dd::BddManager;
//!
//! let mut m = BddManager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let f = m.and(a, b);
//! let g = m.or(f, c);
//! assert_eq!(m.sat_count(g), 5.0); // |ab ∨ c| over 3 variables
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bdd;
pub mod naive;
mod node;
mod zdd;

pub use bdd::BddManager;
pub use naive::NaiveFamily;
pub use node::{Ref, Var};
pub use zdd::ZddManager;
