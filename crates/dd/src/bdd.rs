//! Reduced ordered binary decision diagrams.
//!
//! Like the ZDD flavour, the manager is a thin layer over [`DdArena`]:
//! canonicity and the operation memo cache are the arena's job. Operation
//! tags start at 16 to stay disjoint from the ZDD range in the shared
//! computed cache.

use std::collections::HashMap;

use crate::arena::DdArena;
use crate::node::{Ref, Var, TERMINAL_VAR};

// Computed-cache operation tags (BDD range; ZDD uses 1..=7).
const OP_AND: u32 = 16;
const OP_OR: u32 = 17;
const OP_XOR: u32 = 18;
const OP_NOT: u32 = 19;

/// A manager for reduced ordered BDDs over a fixed set of variables
/// `0..num_vars` in natural order.
///
/// All functions produced by one manager share nodes; handles from
/// different managers must not be mixed (doing so yields unspecified
/// results, not memory unsafety).
///
/// ```
/// use mns_dd::BddManager;
/// let mut m = BddManager::new(2);
/// let a = m.var(0);
/// let na = m.not(a);
/// let t = m.or(a, na);
/// assert_eq!(t, mns_dd::Ref::ONE);
/// ```
#[derive(Debug)]
pub struct BddManager {
    arena: DdArena,
    num_vars: Var,
}

impl BddManager {
    /// Creates a manager for variables `0..num_vars`.
    pub fn new(num_vars: Var) -> Self {
        BddManager {
            arena: DdArena::new(),
            num_vars,
        }
    }

    /// Enables or disables the computed cache (ablation A1). Disabling also
    /// clears it, and disabled probes are not counted.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.arena.set_cache_enabled(enabled);
    }

    /// `(lookups, hits)` counters for the computed cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.arena.cache_stats()
    }

    /// Peak node count, terminals included: nodes are never freed, so
    /// this is the number the manager holds now.
    pub fn peak_nodes(&self) -> usize {
        self.arena.node_count()
    }

    /// The constant-true function.
    pub fn one(&self) -> Ref {
        Ref::ONE
    }

    /// The constant-false function.
    pub fn zero(&self) -> Ref {
        Ref::ZERO
    }

    /// The projection function for variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    pub fn var(&mut self, v: Var) -> Ref {
        assert!(v < self.num_vars, "variable {v} out of range");
        self.make(v, Ref::ZERO, Ref::ONE)
    }

    /// The negated projection ¬v.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    pub fn nvar(&mut self, v: Var) -> Ref {
        assert!(v < self.num_vars, "variable {v} out of range");
        self.make(v, Ref::ONE, Ref::ZERO)
    }

    fn make(&mut self, var: Var, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo; // BDD reduction rule
        }
        self.arena.intern(var, lo, hi)
    }

    fn level(&self, r: Ref) -> Var {
        if r.is_terminal() {
            TERMINAL_VAR
        } else {
            self.arena.var(r)
        }
    }

    fn cofactors(&self, r: Ref, at: Var) -> (Ref, Ref) {
        if self.level(r) == at {
            let n = self.arena.node(r);
            (n.lo, n.hi)
        } else {
            (r, r)
        }
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.apply(OP_AND, f, g)
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.apply(OP_OR, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.apply(OP_XOR, f, g)
    }

    /// Shared binary-apply skeleton for the commutative operators:
    /// per-operator terminal short-circuits, then canonicalized caching,
    /// Shannon cofactoring and hash-consing.
    fn apply(&mut self, op: u32, f: Ref, g: Ref) -> Ref {
        match op {
            OP_AND => match (f, g) {
                (Ref::ZERO, _) | (_, Ref::ZERO) => return Ref::ZERO,
                (Ref::ONE, x) | (x, Ref::ONE) => return x,
                _ if f == g => return f,
                _ => {}
            },
            OP_OR => match (f, g) {
                (Ref::ONE, _) | (_, Ref::ONE) => return Ref::ONE,
                (Ref::ZERO, x) | (x, Ref::ZERO) => return x,
                _ if f == g => return f,
                _ => {}
            },
            OP_XOR => match (f, g) {
                (Ref::ZERO, x) | (x, Ref::ZERO) => return x,
                (Ref::ONE, x) | (x, Ref::ONE) => return self.not(x),
                _ if f == g => return Ref::ZERO,
                _ => {}
            },
            _ => unreachable!("apply is for binary commutative ops"),
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.arena.cache_get(op, a, b, Ref::ZERO) {
            return r;
        }
        let v = self.level(a).min(self.level(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.apply(op, a0, b0);
        let hi = self.apply(op, a1, b1);
        let r = self.make(v, lo, hi);
        self.arena.cache_put(op, a, b, Ref::ZERO, r);
        r
    }

    /// Negation `¬f`.
    pub fn not(&mut self, f: Ref) -> Ref {
        match f {
            Ref::ZERO => return Ref::ONE,
            Ref::ONE => return Ref::ZERO,
            _ => {}
        }
        if let Some(r) = self.arena.cache_get(OP_NOT, f, Ref::ZERO, Ref::ZERO) {
            return r;
        }
        let n = self.arena.node(f);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.make(n.var, lo, hi);
        self.arena.cache_put(OP_NOT, f, Ref::ZERO, Ref::ZERO, r);
        r
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Existential quantification `∃ vars. f`. `vars` must be sorted
    /// ascending.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not strictly ascending.
    pub fn exists(&mut self, f: Ref, vars: &[Var]) -> Ref {
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "quantified variable list must be strictly ascending"
        );
        let mut memo = HashMap::new();
        self.exists_rec(f, vars, &mut memo)
    }

    fn exists_rec(&mut self, f: Ref, vars: &[Var], memo: &mut HashMap<Ref, Ref>) -> Ref {
        if f.is_terminal() || vars.is_empty() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let n = self.arena.node(f);
        // Skip quantified variables above this node's level.
        let rest = match vars.iter().position(|&v| v >= n.var) {
            Some(i) => &vars[i..],
            None => return f,
        };
        let r = if !rest.is_empty() && rest[0] == n.var {
            let lo = self.exists_rec(n.lo, &rest[1..], memo);
            let hi = self.exists_rec(n.hi, &rest[1..], memo);
            self.or(lo, hi)
        } else {
            let lo = self.exists_rec(n.lo, rest, memo);
            let hi = self.exists_rec(n.hi, rest, memo);
            self.make(n.var, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Relational product `∃ vars. (f ∧ g)` computed without building the
    /// full conjunction — the workhorse of image computation.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not strictly ascending.
    pub fn and_exists(&mut self, f: Ref, g: Ref, vars: &[Var]) -> Ref {
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "quantified variable list must be strictly ascending"
        );
        let mut memo = HashMap::new();
        self.and_exists_rec(f, g, vars, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: Ref,
        g: Ref,
        vars: &[Var],
        memo: &mut HashMap<(Ref, Ref), Ref>,
    ) -> Ref {
        if f == Ref::ZERO || g == Ref::ZERO {
            return Ref::ZERO;
        }
        if f == Ref::ONE && g == Ref::ONE {
            return Ref::ONE;
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = memo.get(&(a, b)) {
            return r;
        }
        let v = self.level(a).min(self.level(b));
        if v == TERMINAL_VAR {
            // Both terminal and neither zero: conjunction is ONE.
            return Ref::ONE;
        }
        let rest = match vars.iter().position(|&q| q >= v) {
            Some(i) => &vars[i..],
            None => &[],
        };
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let r = if !rest.is_empty() && rest[0] == v {
            let lo = self.and_exists_rec(a0, b0, &rest[1..], memo);
            if lo == Ref::ONE {
                Ref::ONE // early termination: ∨ with ONE
            } else {
                let hi = self.and_exists_rec(a1, b1, &rest[1..], memo);
                self.or(lo, hi)
            }
        } else if rest.is_empty() {
            self.and(a, b)
        } else {
            let lo = self.and_exists_rec(a0, b0, rest, memo);
            let hi = self.and_exists_rec(a1, b1, rest, memo);
            self.make(v, lo, hi)
        };
        memo.insert((a, b), r);
        r
    }

    /// Renames every variable `v` in the support of `f` to `map(v)`.
    ///
    /// The mapping must be strictly monotone on the support of `f`
    /// (preserve relative order); this is checked with a debug assertion
    /// during the recursion.
    pub fn rename<M: Fn(Var) -> Var>(&mut self, f: Ref, map: M) -> Ref {
        let mut memo = HashMap::new();
        self.rename_rec(f, &map, &mut memo)
    }

    fn rename_rec<M: Fn(Var) -> Var>(
        &mut self,
        f: Ref,
        map: &M,
        memo: &mut HashMap<Ref, Ref>,
    ) -> Ref {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let n = self.arena.node(f);
        let nv = map(n.var);
        debug_assert!(
            nv < self.num_vars,
            "rename maps variable {} outside the manager",
            n.var
        );
        let lo = self.rename_rec(n.lo, map, memo);
        let hi = self.rename_rec(n.hi, map, memo);
        debug_assert!(
            self.level(lo) > nv && self.level(hi) > nv,
            "rename mapping is not monotone on the support"
        );
        let r = self.make(nv, lo, hi);
        memo.insert(f, r);
        r
    }

    /// Evaluates `f` under a complete assignment (`assignment[v]` is the
    /// value of variable `v`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than a variable encountered on
    /// the evaluation path.
    pub fn eval(&self, f: Ref, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let n = self.arena.node(cur);
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
        cur == Ref::ONE
    }

    /// Number of satisfying assignments over all `num_vars` variables,
    /// as `f64` (exact for counts below 2^53).
    pub fn sat_count(&self, f: Ref) -> f64 {
        // Slot-indexed scratch memo (NaN = unvisited): the memoized value
        // for a node is the count below its own level, so it is
        // independent of the level it is reached from.
        let mut memo = vec![f64::NAN; self.arena.node_count()];
        self.sat_count_rec(f, 0, &mut memo)
    }

    fn sat_count_rec(&self, f: Ref, from_level: Var, memo: &mut [f64]) -> f64 {
        // Count assignments over variables from `from_level` to num_vars.
        let level = if f.is_terminal() {
            self.num_vars
        } else {
            self.arena.var(f)
        };
        let skipped = (level - from_level) as i32;
        let below = match f {
            Ref::ZERO => 0.0,
            Ref::ONE => 1.0,
            _ => {
                let i = f.0 as usize;
                if !memo[i].is_nan() {
                    memo[i]
                } else {
                    let n = self.arena.node(f);
                    let lo = self.sat_count_rec(n.lo, n.var + 1, memo);
                    let hi = self.sat_count_rec(n.hi, n.var + 1, memo);
                    let c = lo + hi;
                    memo[i] = c;
                    c
                }
            }
        };
        below * 2f64.powi(skipped)
    }

    /// One satisfying assignment as a full vector (unconstrained variables
    /// are reported as `false`), or `None` if `f` is unsatisfiable.
    pub fn one_sat(&self, f: Ref) -> Option<Vec<bool>> {
        if f == Ref::ZERO {
            return None;
        }
        let mut assignment = vec![false; self.num_vars as usize];
        let mut cur = f;
        while !cur.is_terminal() {
            let n = self.arena.node(cur);
            if n.hi != Ref::ZERO {
                assignment[n.var as usize] = true;
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        debug_assert_eq!(cur, Ref::ONE);
        Some(assignment)
    }

    /// All satisfying assignments projected onto `vars` (strictly
    /// ascending): variables outside `vars` must not occur in the support
    /// of `f`. Each returned vector has `vars.len()` entries, aligned with
    /// `vars`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not strictly ascending or `f` depends on a
    /// variable outside `vars`.
    pub fn all_sat_over(&self, f: Ref, vars: &[Var]) -> Vec<Vec<bool>> {
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "variable list must be strictly ascending"
        );
        let mut out = Vec::new();
        let mut prefix = vec![false; vars.len()];
        self.all_sat_over_rec(f, vars, 0, &mut prefix, &mut out);
        out
    }

    fn all_sat_over_rec(
        &self,
        f: Ref,
        vars: &[Var],
        idx: usize,
        prefix: &mut Vec<bool>,
        out: &mut Vec<Vec<bool>>,
    ) {
        if f == Ref::ZERO {
            return;
        }
        if idx == vars.len() {
            assert!(
                f == Ref::ONE,
                "function depends on a variable outside the projection list"
            );
            out.push(prefix.clone());
            return;
        }
        let node_level = self.level(f);
        assert!(
            node_level >= vars[idx],
            "function depends on variable {} outside the projection list",
            node_level
        );
        if node_level > vars[idx] {
            prefix[idx] = false;
            self.all_sat_over_rec(f, vars, idx + 1, prefix, out);
            prefix[idx] = true;
            self.all_sat_over_rec(f, vars, idx + 1, prefix, out);
            prefix[idx] = false;
        } else {
            let n = self.arena.node(f);
            prefix[idx] = false;
            self.all_sat_over_rec(n.lo, vars, idx + 1, prefix, out);
            prefix[idx] = true;
            self.all_sat_over_rec(n.hi, vars, idx + 1, prefix, out);
            prefix[idx] = false;
        }
    }

    /// Number of distinct DAG nodes reachable from `f` (including
    /// terminals).
    pub fn dag_size(&self, f: Ref) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if !seen.insert(r) {
                continue;
            }
            if !r.is_terminal() {
                let n = self.arena.node(r);
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(n: Var) -> BddManager {
        BddManager::new(n)
    }

    #[test]
    fn constants_and_vars() {
        let mut m = mgr(2);
        assert_eq!(m.one(), Ref::ONE);
        assert_eq!(m.zero(), Ref::ZERO);
        let a = m.var(0);
        assert!(m.eval(a, &[true, false]));
        assert!(!m.eval(a, &[false, true]));
        let na = m.nvar(0);
        let also_na = m.not(a);
        assert_eq!(na, also_na);
    }

    #[test]
    fn boolean_identities() {
        let mut m = mgr(3);
        let a = m.var(0);
        let b = m.var(1);
        let na = m.not(a);
        assert_eq!(m.and(a, na), Ref::ZERO);
        assert_eq!(m.or(a, na), Ref::ONE);
        assert_eq!(m.xor(a, a), Ref::ZERO);
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab, ba, "canonical form is order independent");
        let de_morgan_l = {
            let o = m.or(a, b);
            m.not(o)
        };
        let de_morgan_r = {
            let nb = m.not(b);
            m.and(na, nb)
        };
        assert_eq!(de_morgan_l, de_morgan_r);
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = mgr(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        assert_eq!(m.sat_count(f), 5.0);
        assert_eq!(m.sat_count(Ref::ONE), 8.0);
        assert_eq!(m.sat_count(Ref::ZERO), 0.0);
    }

    #[test]
    fn exists_quantifies_out_variables() {
        let mut m = mgr(2);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        // ∃b. a∧b = a
        assert_eq!(m.exists(ab, &[1]), a);
        let aorb = m.or(a, b);
        // ∃a,b. a∨b = 1
        assert_eq!(m.exists(aorb, &[0, 1]), Ref::ONE);
    }

    #[test]
    fn and_exists_equals_composed() {
        let mut m = mgr(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let d = m.var(3);
        let f = {
            let x = m.or(a, b);
            m.and(x, c)
        };
        let g = {
            let y = m.xor(c, d);
            m.or(y, a)
        };
        let composed = {
            let fg = m.and(f, g);
            m.exists(fg, &[1, 2])
        };
        let fused = m.and_exists(f, g, &[1, 2]);
        assert_eq!(composed, fused);
    }

    #[test]
    fn rename_monotone_shift() {
        let mut m = mgr(6);
        // f over odd variables 1,3,5 → shift down to 0,2,4.
        let x1 = m.var(1);
        let x3 = m.var(3);
        let x5 = m.var(5);
        let t = m.and(x1, x3);
        let f = m.or(t, x5);
        let g = m.rename(f, |v| v - 1);
        let x0 = m.var(0);
        let x2 = m.var(2);
        let x4 = m.var(4);
        let t2 = m.and(x0, x2);
        let expect = m.or(t2, x4);
        assert_eq!(g, expect);
    }

    #[test]
    fn one_sat_satisfies() {
        let mut m = mgr(3);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.and(a, c);
        let s = m.one_sat(f).expect("satisfiable");
        assert!(m.eval(f, &s));
        assert_eq!(m.one_sat(Ref::ZERO), None);
    }

    #[test]
    fn all_sat_over_projects_correctly() {
        let mut m = mgr(6);
        // f over even variables only.
        let a = m.var(0);
        let c = m.var(2);
        let e = m.var(4);
        let t = m.and(a, c);
        let f = m.or(t, e);
        let sols = m.all_sat_over(f, &[0, 2, 4]);
        assert_eq!(sols.len(), 5);
        for s in &sols {
            assert!((s[0] && s[1]) || s[2]);
        }
        // Extra variables in the list are treated as free.
        let wide = m.all_sat_over(f, &[0, 1, 2, 4]);
        assert_eq!(wide.len(), 10);
    }

    #[test]
    #[should_panic(expected = "outside the projection list")]
    fn all_sat_over_rejects_missing_support() {
        let mut m = mgr(4);
        let f = m.var(3);
        let _ = m.all_sat_over(f, &[0, 1]);
    }

    #[test]
    fn dag_size_counts_reachable_nodes() {
        let mut m = mgr(4);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.xor(a, c);
        // The root, the two cofactors c and ¬c, and both terminals.
        assert_eq!(m.dag_size(f), 5);
        assert_eq!(m.dag_size(Ref::ONE), 1);
    }

    #[test]
    fn cache_toggle_preserves_results() {
        let mut m1 = mgr(8);
        let mut m2 = mgr(8);
        m2.set_cache_enabled(false);
        let build = |m: &mut BddManager| {
            let mut f = m.one();
            for v in 0..8 {
                let x = m.var(v);
                let g = if v % 2 == 0 { x } else { m.not(x) };
                f = m.and(f, g);
            }
            m.sat_count(f)
        };
        assert_eq!(build(&mut m1), build(&mut m2));
        assert_eq!(m2.cache_stats().0, 0, "disabled cache records no lookups");
        assert!(m1.cache_stats().0 > 0);
    }

    #[test]
    fn eval_matches_truth_table_exhaustively() {
        let mut m = mgr(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let d = m.var(3);
        // f = (a ⊕ b) ∧ (c ∨ ¬d)
        let f = {
            let x = m.xor(a, b);
            let nd = m.not(d);
            let y = m.or(c, nd);
            m.and(x, y)
        };
        let mut count = 0;
        for bits in 0..16u32 {
            let assignment: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let expect = (assignment[0] ^ assignment[1]) && (assignment[2] || !assignment[3]);
            assert_eq!(m.eval(f, &assignment), expect);
            if expect {
                count += 1;
            }
        }
        assert_eq!(m.sat_count(f), f64::from(count));
    }
}
