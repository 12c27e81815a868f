//! Node handle and storage types shared by both diagram flavours.
//!
//! The arena itself (unique table, computed cache, recycling pool) lives
//! in [`crate::arena`]; this module only defines the plain data types.

use std::fmt;

/// A variable index in the (fixed) global ordering. Smaller indices sit
/// closer to the root.
pub type Var = u32;

/// Sentinel variable level assigned to terminal nodes; compares greater
/// than every real variable so terminals sort below all internal nodes.
pub(crate) const TERMINAL_VAR: Var = Var::MAX;

/// Handle to a diagram node.
///
/// A `Ref` is only meaningful together with the manager that produced it.
/// The two terminal handles are [`Ref::ZERO`] and [`Ref::ONE`]; for BDDs
/// they denote the constant functions ⊥/⊤, for ZDDs the empty family ∅ and
/// the unit family {∅}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ref(pub(crate) u32);

impl Ref {
    /// Terminal 0: constant false (BDD) or the empty family (ZDD).
    pub const ZERO: Ref = Ref(0);
    /// Terminal 1: constant true (BDD) or the family {∅} (ZDD).
    pub const ONE: Ref = Ref(1);

    /// Whether this handle is one of the two terminals.
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Ref::ZERO => write!(f, "⊥"),
            Ref::ONE => write!(f, "⊤"),
            Ref(i) => write!(f, "n{i}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub var: Var,
    pub lo: Ref,
    pub hi: Ref,
}
