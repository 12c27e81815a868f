//! Fluidic spacing rules.
//!
//! Two independent droplets accidentally merge if their menisci touch. The
//! standard DMFB abstraction (Su & Chakrabarty) forbids:
//!
//! * **static rule** — at any time `t`, two droplets must be at Chebyshev
//!   distance ≥ 2 (no adjacency, including diagonal);
//! * **dynamic rule** — a droplet's position at `t + 1` must also be at
//!   Chebyshev distance ≥ 2 from every *other* droplet's position at `t`,
//!   so a droplet never moves into the cell an adjacent droplet is
//!   vacating.

use crate::geometry::Cell;
use crate::route::Route;

/// Minimum Chebyshev separation between independent droplets.
pub const MIN_SEPARATION: i32 = 2;

/// Static rule: may two droplets occupy `a` and `b` at the same instant?
pub const fn static_ok(a: Cell, b: Cell) -> bool {
    a.chebyshev(b) >= MIN_SEPARATION
}

/// Dynamic rule: may a droplet move to `next` at `t + 1` while another
/// droplet sat at `other_prev` at `t`?
pub const fn dynamic_ok(next: Cell, other_prev: Cell) -> bool {
    next.chebyshev(other_prev) >= MIN_SEPARATION
}

/// A constraint violation between two routed droplets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Index of the first route in the checked slice.
    pub first: usize,
    /// Index of the second route.
    pub second: usize,
    /// Time step at which the rule is broken.
    pub time: u32,
    /// Whether the static (same-instant) rule was broken; otherwise the
    /// dynamic rule.
    pub static_rule: bool,
}

/// Position of a routed droplet at `t`, if it is on the array: droplets
/// exist from their departure tick until they reach their goal
/// (inclusive), after which they are absorbed by the target module.
fn position_at(route: &Route, t: u32) -> Option<Cell> {
    route.position_at(t)
}

/// Like [`verify_routes`], but exempts *merge partners*: droplets
/// destined to coalesce inside the same module, for which mutual contact
/// at any time is an early (intended) merge rather than contamination.
/// `partners(i, j)` decides whether routes `i` and `j` merge — the assay
/// compiler passes "same consumer operation", the authoritative
/// definition (matching the router's `merge_group`).
pub fn verify_routes_exempting_merges(
    routes: &[Route],
    partners: &dyn Fn(usize, usize) -> bool,
) -> Vec<Violation> {
    verify_routes(routes)
        .into_iter()
        .filter(|v| !partners(v.first, v.second))
        .collect()
}

/// Exhaustively checks a set of concurrent routes against both rules.
/// Returns every violation found (empty = fluidically safe).
pub fn verify_routes(routes: &[Route]) -> Vec<Violation> {
    let mut out = Vec::new();
    let horizon = routes
        .iter()
        .map(|r| r.depart + r.path.len() as u32)
        .max()
        .unwrap_or(0);
    for i in 0..routes.len() {
        for j in i + 1..routes.len() {
            for t in 0..horizon {
                if let (Some(a), Some(b)) = (position_at(&routes[i], t), position_at(&routes[j], t))
                {
                    if !static_ok(a, b) {
                        out.push(Violation {
                            first: i,
                            second: j,
                            time: t,
                            static_rule: true,
                        });
                    }
                }
                // Dynamic: i at t+1 versus j at t, and symmetrically.
                if let (Some(a_next), Some(b_prev)) =
                    (position_at(&routes[i], t + 1), position_at(&routes[j], t))
                {
                    if !dynamic_ok(a_next, b_prev) {
                        out.push(Violation {
                            first: i,
                            second: j,
                            time: t,
                            static_rule: false,
                        });
                    }
                }
                if let (Some(b_next), Some(a_prev)) =
                    (position_at(&routes[j], t + 1), position_at(&routes[i], t))
                {
                    if !dynamic_ok(b_next, a_prev) {
                        out.push(Violation {
                            first: i,
                            second: j,
                            time: t,
                            static_rule: false,
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Route;

    fn route(id: u32, cells: &[(i32, i32)]) -> Route {
        Route {
            id,
            depart: 0,
            path: cells.iter().map(|&(x, y)| Cell::new(x, y)).collect(),
        }
    }

    #[test]
    fn static_rule_examples() {
        assert!(!static_ok(Cell::new(0, 0), Cell::new(1, 1)));
        assert!(!static_ok(Cell::new(0, 0), Cell::new(0, 1)));
        assert!(static_ok(Cell::new(0, 0), Cell::new(2, 0)));
        assert!(static_ok(Cell::new(0, 0), Cell::new(2, 2)));
    }

    #[test]
    fn verify_detects_static_violation() {
        let a = route(0, &[(0, 0), (1, 0)]);
        let b = route(1, &[(3, 0), (2, 0)]);
        // At t=1 they sit at (1,0) and (2,0): adjacent.
        let v = verify_routes(&[a, b]);
        assert!(v.iter().any(|v| v.static_rule && v.time == 1));
    }

    #[test]
    fn verify_detects_dynamic_violation() {
        // b moves into the cell adjacent to a's previous position even
        // though the static rule holds at every instant.
        let a = route(0, &[(0, 0), (3, 5)]); // teleport-style synthetic path
        let b = route(1, &[(2, 1), (1, 1)]);
        // static at t=0: (0,0) vs (2,1): cheb 2 OK; t=1: (3,5) vs (1,1) OK.
        // dynamic: b at t=1 is (1,1) vs a at t=0 (0,0): cheb 1 → violation.
        let v = verify_routes(&[a, b]);
        assert!(v.iter().any(|v| !v.static_rule));
    }

    #[test]
    fn verify_clean_routes() {
        let a = route(0, &[(0, 0), (1, 0), (2, 0)]);
        let b = route(1, &[(0, 4), (1, 4), (2, 4)]);
        assert!(verify_routes(&[a, b]).is_empty());
    }

    #[test]
    fn absorbed_droplets_stop_constraining() {
        // a's path ends at t=1; b may then approach its final cell.
        let a = route(0, &[(0, 0), (0, 0)]);
        let b = route(1, &[(4, 0), (3, 0), (2, 0), (1, 0)]);
        // At t=3 b reaches (1,0); a was absorbed after t=1.
        let v = verify_routes(&[a, b]);
        assert!(v.is_empty(), "violations: {v:?}");
    }
}
