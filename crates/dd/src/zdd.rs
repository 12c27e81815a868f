//! Zero-suppressed decision diagrams for sparse set families.
//!
//! A ZDD node `(v, lo, hi)` denotes the family `lo ∪ {S ∪ {v} | S ∈ hi}`.
//! Minato's zero-suppression rule (a node whose `hi` edge is the empty
//! family collapses to its `lo` child) makes ZDDs canonical and compact for
//! families of *sparse* sets — exactly the shape of bicluster column sets.
//!
//! The manager is a thin flavour layer over [`DdArena`]: hash consing and
//! the operation memo cache live in the arena and are shared with
//! [`crate::BddManager`]. Operation tags below keep the two flavours'
//! memo entries disjoint in the shared cache.

use crate::arena::DdArena;
use crate::node::{Ref, Var, TERMINAL_VAR};

// Computed-cache operation tags (ZDD range; BDD uses 16+).
const OP_UNION: u32 = 1;
const OP_INTERSECT: u32 = 2;
const OP_DIFF: u32 = 3;
const OP_JOIN: u32 = 4;
const OP_NONSUBSETS: u32 = 5;
const OP_NONSUPERSETS: u32 = 6;
const OP_MAXIMAL: u32 = 7;

/// A manager for ZDDs over element universe `0..num_vars`.
///
/// ```
/// use mns_dd::ZddManager;
/// let mut m = ZddManager::new(4);
/// let f = m.from_sets(&[&[0, 2], &[1], &[0, 1, 3]]);
/// assert_eq!(m.count(f), 3.0);
/// assert!(m.contains(f, &[0, 2]));
/// assert!(!m.contains(f, &[2]));
/// ```
#[derive(Debug)]
pub struct ZddManager {
    arena: DdArena,
    num_vars: Var,
}

impl ZddManager {
    /// Creates a manager for elements `0..num_vars`.
    pub fn new(num_vars: Var) -> Self {
        ZddManager {
            arena: DdArena::new(),
            num_vars,
        }
    }

    /// Creates a manager backed by a recycled arena from the per-thread
    /// pool: identical semantics to [`new`](ZddManager::new), but the
    /// unique table and node storage start with warmed capacity. Pair
    /// with [`recycle`](ZddManager::recycle) when the session ends.
    pub fn recycled(num_vars: Var) -> Self {
        ZddManager {
            arena: DdArena::recycled(),
            num_vars,
        }
    }

    /// Returns the backing arena to the per-thread recycling pool.
    pub fn recycle(self) {
        self.arena.recycle();
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

    /// Checks the unique-table invariants (canonicity, no stale buckets).
    /// Intended for tests and differential suites.
    pub fn check_unique_table(&self) -> Result<(), String> {
        self.arena.check_unique_table()
    }

    /// The empty family ∅ (no sets at all).
    pub fn empty(&self) -> Ref {
        Ref::ZERO
    }

    fn make(&mut self, var: Var, lo: Ref, hi: Ref) -> Ref {
        if hi == Ref::ZERO {
            return lo; // zero-suppression rule
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

    /// Clears the computed cache (handles stay valid).
    pub fn clear_cache(&mut self) {
        self.arena.clear_cache();
    }

    /// Builds the family containing exactly one set, given ascending
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if `set` is not strictly ascending or contains an element
    /// outside the universe.
    pub fn from_set(&mut self, set: &[Var]) -> Ref {
        assert!(
            set.windows(2).all(|w| w[0] < w[1]),
            "set elements must be strictly ascending"
        );
        if let Some(&max) = set.last() {
            assert!(max < self.num_vars, "element {max} out of range");
        }
        let mut r = Ref::ONE;
        for &v in set.iter().rev() {
            r = self.make(v, Ref::ZERO, r);
        }
        r
    }

    /// Builds a family from several sets (each strictly ascending).
    ///
    /// Accumulates through a binary counter of partial unions, so `n`
    /// sets cost `O(n log n)` union work instead of the `O(n²)` of a
    /// linear fold — the canonical result is identical either way.
    pub fn from_sets(&mut self, sets: &[&[Var]]) -> Ref {
        let mut levels: Vec<Ref> = Vec::new();
        for set in sets {
            let mut carry = self.from_set(set);
            let mut idx = 0;
            loop {
                if idx == levels.len() {
                    levels.push(Ref::ZERO);
                }
                if levels[idx] == Ref::ZERO {
                    levels[idx] = carry;
                    break;
                }
                carry = self.union(levels[idx], carry);
                levels[idx] = Ref::ZERO;
                idx += 1;
            }
        }
        let mut acc = Ref::ZERO;
        for &level in &levels {
            acc = self.union(acc, level);
        }
        acc
    }

    /// Family union `f ∪ g`.
    pub fn union(&mut self, f: Ref, g: Ref) -> Ref {
        if f == Ref::ZERO {
            return g;
        }
        if g == Ref::ZERO || f == g {
            return f;
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.arena.cache_get(OP_UNION, a, b, Ref::ZERO) {
            return r;
        }
        let (va, vb) = (self.level(a), self.level(b));
        let r = if va == vb {
            let (na, nb) = (self.arena.node(a), self.arena.node(b));
            let lo = self.union(na.lo, nb.lo);
            let hi = self.union(na.hi, nb.hi);
            self.make(va, lo, hi)
        } else {
            // The node with the smaller (higher) variable keeps its hi
            // branch; the other family merges into its lo branch.
            let (top, other, v) = if va < vb { (a, b, va) } else { (b, a, vb) };
            let n = self.arena.node(top);
            let lo = self.union(n.lo, other);
            self.make(v, lo, n.hi)
        };
        self.arena.cache_put(OP_UNION, a, b, Ref::ZERO, r);
        r
    }

    /// Family intersection `f ∩ g`.
    pub fn intersect(&mut self, f: Ref, g: Ref) -> Ref {
        if f == Ref::ZERO || g == Ref::ZERO {
            return Ref::ZERO;
        }
        if f == g {
            return f;
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.arena.cache_get(OP_INTERSECT, a, b, Ref::ZERO) {
            return r;
        }
        let (va, vb) = (self.level(a), self.level(b));
        let r = if va == vb {
            let (na, nb) = (self.arena.node(a), self.arena.node(b));
            let lo = self.intersect(na.lo, nb.lo);
            let hi = self.intersect(na.hi, nb.hi);
            self.make(va, lo, hi)
        } else {
            // Sets containing the smaller variable cannot be shared.
            let (top, other) = if va < vb { (a, b) } else { (b, a) };
            let n = self.arena.node(top);
            self.intersect(n.lo, other)
        };
        self.arena.cache_put(OP_INTERSECT, a, b, Ref::ZERO, r);
        r
    }

    /// Family difference `f \ g`.
    pub fn diff(&mut self, f: Ref, g: Ref) -> Ref {
        if f == Ref::ZERO || f == g {
            return Ref::ZERO;
        }
        if g == Ref::ZERO {
            return f;
        }
        if let Some(r) = self.arena.cache_get(OP_DIFF, f, g, Ref::ZERO) {
            return r;
        }
        let (vf, vg) = (self.level(f), self.level(g));
        let r = if vf == vg {
            let (nf, ng) = (self.arena.node(f), self.arena.node(g));
            let lo = self.diff(nf.lo, ng.lo);
            let hi = self.diff(nf.hi, ng.hi);
            self.make(vf, lo, hi)
        } else if vf < vg {
            let n = self.arena.node(f);
            let lo = self.diff(n.lo, g);
            self.make(vf, lo, n.hi)
        } else {
            let n = self.arena.node(g);
            self.diff(f, n.lo)
        };
        self.arena.cache_put(OP_DIFF, f, g, Ref::ZERO, r);
        r
    }

    /// Join (cross union) `f ⊔ g = {A ∪ B | A ∈ f, B ∈ g}`.
    pub fn join(&mut self, f: Ref, g: Ref) -> Ref {
        if f == Ref::ZERO || g == Ref::ZERO {
            return Ref::ZERO;
        }
        if f == Ref::ONE {
            return g;
        }
        if g == Ref::ONE {
            return f;
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.arena.cache_get(OP_JOIN, a, b, Ref::ZERO) {
            return r;
        }
        let (va, vb) = (self.level(a), self.level(b));
        let r = if va == vb {
            let (na, nb) = (self.arena.node(a), self.arena.node(b));
            // Sets with v: (a.hi ⊔ b.hi) ∪ (a.hi ⊔ b.lo) ∪ (a.lo ⊔ b.hi).
            let hh = self.join(na.hi, nb.hi);
            let hl = self.join(na.hi, nb.lo);
            let lh = self.join(na.lo, nb.hi);
            let u1 = self.union(hh, hl);
            let hi = self.union(u1, lh);
            let lo = self.join(na.lo, nb.lo);
            self.make(va, lo, hi)
        } else {
            let (top, other, v) = if va < vb { (a, b, va) } else { (b, a, vb) };
            let n = self.arena.node(top);
            let lo = self.join(n.lo, other);
            let hi = self.join(n.hi, other);
            self.make(v, lo, hi)
        };
        self.arena.cache_put(OP_JOIN, a, b, Ref::ZERO, r);
        r
    }

    /// `{S ∈ f | ¬∃T ∈ g: S ⊆ T}` — members of `f` that are *not* subsets
    /// of any member of `g`.
    pub fn nonsubsets(&mut self, f: Ref, g: Ref) -> Ref {
        if f == Ref::ZERO || f == g {
            return Ref::ZERO;
        }
        if g == Ref::ZERO {
            return f;
        }
        if g == Ref::ONE {
            // Only the empty set is a subset of ∅.
            return self.diff(f, Ref::ONE);
        }
        if f == Ref::ONE {
            // ∅ ⊆ T for any T; g is non-empty here.
            return Ref::ZERO;
        }
        if let Some(r) = self.arena.cache_get(OP_NONSUBSETS, f, g, Ref::ZERO) {
            return r;
        }
        let (vf, vg) = (self.level(f), self.level(g));
        let r = if vf == vg {
            let (nf, ng) = (self.arena.node(f), self.arena.node(g));
            let g_any = self.union(ng.lo, ng.hi);
            let lo = self.nonsubsets(nf.lo, g_any);
            let hi = self.nonsubsets(nf.hi, ng.hi);
            self.make(vf, lo, hi)
        } else if vf < vg {
            // Sets in f.hi contain vf, which no set in g has → all survive
            // unless a subset relation holds after dropping vf… it cannot:
            // vf ∉ T for every T in g, so S ∋ vf is never ⊆ T.
            let nf = self.arena.node(f);
            let lo = self.nonsubsets(nf.lo, g);
            self.make(vf, lo, nf.hi)
        } else {
            let ng = self.arena.node(g);
            let g_any = self.union(ng.lo, ng.hi);
            self.nonsubsets(f, g_any)
        };
        self.arena.cache_put(OP_NONSUBSETS, f, g, Ref::ZERO, r);
        r
    }

    /// `{S ∈ f | ¬∃T ∈ g: T ⊆ S}` — members of `f` that are *not*
    /// supersets of any member of `g`.
    pub fn nonsupersets(&mut self, f: Ref, g: Ref) -> Ref {
        if f == Ref::ZERO || f == g {
            return Ref::ZERO;
        }
        if g == Ref::ZERO {
            return f;
        }
        if self.contains_empty(g) {
            // ∅ ⊆ S for every S.
            return Ref::ZERO;
        }
        if f == Ref::ONE {
            // Only T = ∅ is a subset of ∅, and ∅ ∉ g here.
            return f;
        }
        if let Some(r) = self.arena.cache_get(OP_NONSUPERSETS, f, g, Ref::ZERO) {
            return r;
        }
        let (vf, vg) = (self.level(f), self.level(g));
        let r = if vf == vg {
            let (nf, ng) = (self.arena.node(f), self.arena.node(g));
            let g_any = self.union(ng.lo, ng.hi);
            let lo = self.nonsupersets(nf.lo, ng.lo);
            let hi = self.nonsupersets(nf.hi, g_any);
            self.make(vf, lo, hi)
        } else if vf < vg {
            let nf = self.arena.node(f);
            let lo = self.nonsupersets(nf.lo, g);
            let hi = self.nonsupersets(nf.hi, g);
            self.make(vf, lo, hi)
        } else {
            // Every T containing vg (g.hi side) cannot be ⊆ S (vg ∉ S for
            // all S in f at this level); only g.lo constrains f.
            let ng = self.arena.node(g);
            self.nonsupersets(f, ng.lo)
        };
        self.arena.cache_put(OP_NONSUPERSETS, f, g, Ref::ZERO, r);
        r
    }

    /// The maximal members of `f` (no member is a proper subset of
    /// another member).
    pub fn maximal(&mut self, f: Ref) -> Ref {
        if f.is_terminal() {
            return f;
        }
        if let Some(r) = self.arena.cache_get(OP_MAXIMAL, f, Ref::ZERO, Ref::ZERO) {
            return r;
        }
        let n = self.arena.node(f);
        let hi = self.maximal(n.hi);
        let lo_max = self.maximal(n.lo);
        // A set without v is dominated if it is a subset of some set that
        // has v added (S ⊆ T∪{v} ∧ v ∉ S ⟺ S ⊆ T).
        let lo = self.nonsubsets(lo_max, hi);
        let r = self.make(n.var, lo, hi);
        self.arena.cache_put(OP_MAXIMAL, f, Ref::ZERO, Ref::ZERO, r);
        r
    }

    /// Whether the family contains the empty set.
    pub fn contains_empty(&self, f: Ref) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            cur = self.arena.node(cur).lo;
        }
        cur == Ref::ONE
    }

    /// Whether `set` (strictly ascending) is a member of the family.
    pub fn contains(&self, f: Ref, set: &[Var]) -> bool {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]));
        let mut cur = f;
        let mut idx = 0;
        loop {
            if cur == Ref::ZERO {
                return false;
            }
            if cur == Ref::ONE {
                return idx == set.len();
            }
            let n = self.arena.node(cur);
            if idx < set.len() && set[idx] == n.var {
                idx += 1;
                cur = n.hi;
            } else if idx < set.len() && set[idx] < n.var {
                return false; // required element cannot appear below
            } else {
                cur = n.lo;
            }
        }
    }

    /// Number of sets in the family (exact below 2^53).
    pub fn count(&self, f: Ref) -> f64 {
        // Slot-indexed scratch memo (NaN = unvisited): indexing beats
        // hashing on the count-heavy mining path.
        let mut memo = vec![f64::NAN; self.arena.node_count()];
        self.count_rec(f, &mut memo)
    }

    fn count_rec(&self, f: Ref, memo: &mut [f64]) -> f64 {
        match f {
            Ref::ZERO => 0.0,
            Ref::ONE => 1.0,
            _ => {
                let i = f.0 as usize;
                if !memo[i].is_nan() {
                    return memo[i];
                }
                let n = self.arena.node(f);
                let c = self.count_rec(n.lo, memo) + self.count_rec(n.hi, memo);
                memo[i] = c;
                c
            }
        }
    }

    /// Materializes every set in the family, each ascending. Intended for
    /// result extraction of modest families.
    pub fn sets(&self, f: Ref) -> Vec<Vec<Var>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.sets_rec(f, &mut prefix, &mut out);
        out
    }

    fn sets_rec(&self, f: Ref, prefix: &mut Vec<Var>, out: &mut Vec<Vec<Var>>) {
        match f {
            Ref::ZERO => {}
            Ref::ONE => out.push(prefix.clone()),
            _ => {
                let n = self.arena.node(f);
                self.sets_rec(n.lo, prefix, out);
                prefix.push(n.var);
                self.sets_rec(n.hi, prefix, out);
                prefix.pop();
            }
        }
    }

    /// Number of distinct DAG nodes reachable from `f`.
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
    use std::collections::BTreeSet;

    type Family = BTreeSet<Vec<Var>>;

    fn to_family(m: &ZddManager, f: Ref) -> Family {
        m.sets(f).into_iter().collect()
    }

    fn fam(sets: &[&[Var]]) -> Family {
        sets.iter().map(|s| s.to_vec()).collect()
    }

    #[test]
    fn terminals() {
        let m = ZddManager::new(3);
        assert_eq!(m.count(m.empty()), 0.0);
        assert_eq!(m.count(Ref::ONE), 1.0);
        assert!(m.contains_empty(Ref::ONE));
        assert!(!m.contains_empty(m.empty()));
    }

    #[test]
    fn from_set_roundtrip() {
        let mut m = ZddManager::new(5);
        let f = m.from_set(&[1, 3, 4]);
        assert_eq!(m.count(f), 1.0);
        assert!(m.contains(f, &[1, 3, 4]));
        assert!(!m.contains(f, &[1, 3]));
        assert_eq!(m.sets(f), vec![vec![1, 3, 4]]);
    }

    #[test]
    fn union_intersect_diff_model_check() {
        let mut m = ZddManager::new(4);
        let f = m.from_sets(&[&[0], &[0, 1], &[2, 3]]);
        let g = m.from_sets(&[&[0, 1], &[1, 2], &[2, 3]]);
        let u = m.union(f, g);
        let i = m.intersect(f, g);
        let d = m.diff(f, g);
        assert_eq!(to_family(&m, u), fam(&[&[0], &[0, 1], &[1, 2], &[2, 3]]));
        assert_eq!(to_family(&m, i), fam(&[&[0, 1], &[2, 3]]));
        assert_eq!(to_family(&m, d), fam(&[&[0]]));
    }

    #[test]
    fn join_cross_union() {
        let mut m = ZddManager::new(4);
        let f = m.from_sets(&[&[0], &[1]]);
        let g = m.from_sets(&[&[2], &[3]]);
        let j = m.join(f, g);
        assert_eq!(to_family(&m, j), fam(&[&[0, 2], &[0, 3], &[1, 2], &[1, 3]]));
        // Join with unit is identity; with empty annihilates.
        assert_eq!(m.join(f, Ref::ONE), f);
        assert_eq!(m.join(f, Ref::ZERO), Ref::ZERO);
    }

    #[test]
    fn nonsubsets_semantics() {
        let mut m = ZddManager::new(4);
        let f = m.from_sets(&[&[0], &[0, 1], &[2], &[1, 2, 3]]);
        let g = m.from_sets(&[&[0, 1, 2]]);
        // Subsets of {0,1,2}: {0}, {0,1}, {2} → removed.
        let r = m.nonsubsets(f, g);
        assert_eq!(to_family(&m, r), fam(&[&[1, 2, 3]]));
    }

    #[test]
    fn nonsupersets_semantics() {
        let mut m = ZddManager::new(4);
        let f = m.from_sets(&[&[0], &[0, 1], &[2], &[1, 2, 3]]);
        let g = m.from_sets(&[&[1]]);
        // Supersets of {1}: {0,1}, {1,2,3} → removed.
        let r = m.nonsupersets(f, g);
        assert_eq!(to_family(&m, r), fam(&[&[0], &[2]]));
    }

    #[test]
    fn nonsubsets_nonsupersets_with_empty_set_member() {
        let mut m = ZddManager::new(3);
        let f = m.from_sets(&[&[], &[0], &[1, 2]]);
        // Only ∅ ⊆ ∅.
        let r = m.nonsubsets(f, Ref::ONE);
        assert_eq!(to_family(&m, r), fam(&[&[0], &[1, 2]]));
        // ∅ ⊆ everything → nothing survives.
        let r2 = m.nonsupersets(f, Ref::ONE);
        assert_eq!(m.count(r2), 0.0);
    }

    #[test]
    fn maximal_keeps_only_maximal_sets() {
        let mut m = ZddManager::new(5);
        let f = m.from_sets(&[&[0], &[0, 1], &[0, 1, 2], &[3], &[3, 4], &[2]]);
        let r = m.maximal(f);
        assert_eq!(to_family(&m, r), fam(&[&[0, 1, 2], &[3, 4]]));
    }

    #[test]
    fn maximal_of_antichain_is_identity() {
        let mut m = ZddManager::new(4);
        let f = m.from_sets(&[&[0, 1], &[2, 3], &[1, 2]]);
        assert_eq!(m.maximal(f), f);
    }

    /// Brute-force cross-check of all binary family ops on a pseudo-random
    /// family universe.
    #[test]
    fn randomized_model_check_against_btreeset() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let nv = 6u32;
        for _trial in 0..40 {
            let mut m = ZddManager::new(nv);
            let rand_family = |rng: &mut rand_chacha::ChaCha8Rng| -> Vec<Vec<Var>> {
                let k = rng.gen_range(0..6);
                (0..k)
                    .map(|_| {
                        let mut s: Vec<Var> = (0..nv).filter(|_| rng.gen_bool(0.4)).collect();
                        s.dedup();
                        s
                    })
                    .collect()
            };
            let fa = rand_family(&mut rng);
            let ga = rand_family(&mut rng);
            let fa_refs: Vec<&[Var]> = fa.iter().map(|v| v.as_slice()).collect();
            let ga_refs: Vec<&[Var]> = ga.iter().map(|v| v.as_slice()).collect();
            let f = m.from_sets(&fa_refs);
            let g = m.from_sets(&ga_refs);
            let fs: Family = fa.iter().cloned().collect();
            let gs: Family = ga.iter().cloned().collect();

            let union_expect: Family = fs.union(&gs).cloned().collect();
            let inter_expect: Family = fs.intersection(&gs).cloned().collect();
            let diff_expect: Family = fs.difference(&gs).cloned().collect();
            let nsub_expect: Family = fs
                .iter()
                .filter(|s| !gs.iter().any(|t| s.iter().all(|e| t.contains(e))))
                .cloned()
                .collect();
            let nsup_expect: Family = fs
                .iter()
                .filter(|s| !gs.iter().any(|t| t.iter().all(|e| s.contains(e))))
                .cloned()
                .collect();
            let max_expect: Family = fs
                .iter()
                .filter(|s| {
                    !fs.iter()
                        .any(|t| t.len() > s.len() && s.iter().all(|e| t.contains(e)))
                })
                .cloned()
                .collect();

            let u = m.union(f, g);
            let i = m.intersect(f, g);
            let d = m.diff(f, g);
            let ns = m.nonsubsets(f, g);
            let np = m.nonsupersets(f, g);
            let mx = m.maximal(f);
            assert_eq!(to_family(&m, u), union_expect, "union");
            assert_eq!(to_family(&m, i), inter_expect, "intersect");
            assert_eq!(to_family(&m, d), diff_expect, "diff");
            assert_eq!(to_family(&m, ns), nsub_expect, "nonsubsets");
            assert_eq!(to_family(&m, np), nsup_expect, "nonsupersets");
            assert_eq!(to_family(&m, mx), max_expect, "maximal");
            m.check_unique_table().expect("canonical after random ops");
        }
    }

    #[test]
    fn count_matches_sets_len() {
        let mut m = ZddManager::new(8);
        let sets: Vec<Vec<Var>> = (0..8u32)
            .map(|i| vec![i % 8, (i * 3 + 1) % 8])
            .map(|mut v| {
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let refs: Vec<&[Var]> = sets.iter().map(|v| v.as_slice()).collect();
        let f = m.from_sets(&refs);
        assert_eq!(m.count(f) as usize, m.sets(f).len());
    }

    #[test]
    fn from_sets_binary_counter_matches_linear_fold() {
        let mut m = ZddManager::new(8);
        let sets: Vec<Vec<Var>> = (0..23u32)
            .map(|i| {
                let mut v = vec![i % 8, (i * 5 + 2) % 8, (i * 3 + 1) % 8];
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let refs: Vec<&[Var]> = sets.iter().map(|v| v.as_slice()).collect();
        let fast = m.from_sets(&refs);
        let mut slow = m.empty();
        for set in &refs {
            let s = m.from_set(set);
            slow = m.union(slow, s);
        }
        assert_eq!(fast, slow, "canonical result independent of fold shape");
    }

    #[test]
    fn cache_disabled_records_no_lookups() {
        let mut m = ZddManager::new(6);
        m.set_cache_enabled(false);
        let f = m.from_sets(&[&[0, 1], &[2, 3], &[1, 4]]);
        let _ = m.maximal(f);
        assert_eq!(m.cache_stats(), (0, 0));
    }

    #[test]
    fn recycled_manager_behaves_like_fresh() {
        let mut a = ZddManager::recycled(4);
        let fa = a.from_sets(&[&[0, 1], &[2]]);
        let sets_a = a.sets(fa);
        a.recycle();
        let mut b = ZddManager::recycled(4);
        assert_eq!(b.peak_nodes(), 2, "recycled manager starts clean");
        assert_eq!(b.cache_stats(), (0, 0));
        let fb = b.from_sets(&[&[0, 1], &[2]]);
        assert_eq!(b.sets(fb), sets_a);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_set_rejects_unsorted() {
        let mut m = ZddManager::new(4);
        let _ = m.from_set(&[2, 1]);
    }
}
