//! The shared hash-consing arena behind both diagram managers.
//!
//! [`DdArena`] packs the three pillars a decision-diagram package needs:
//!
//! * an **arena-backed unique table** — nodes live in a flat `Vec<Node>`
//!   and an open-addressed index maps `(var, lo, hi)` triples to node
//!   slots, so structurally equal nodes are one index (hash consing);
//! * an **operation memo cache** — a direct-mapped, lossy memo for
//!   operation results keyed by canonical node ids, overwritten on
//!   collision (the classical CUDD design: bounded memory, O(1) probes,
//!   and results never depend on whether a probe hits);
//! * **deterministic iteration order** — slots are assigned in creation
//!   order and both tables are plain arrays probed by a fixed hash, so an
//!   identical operation sequence produces identical indices, stats and
//!   digests in every process. This is what keeps serial, in-process
//!   sharded and child-process sweeps byte-identical.
//!
//! Arenas are expensive to warm up (table capacity, node storage), so the
//! module also keeps a small per-thread recycling pool:
//! [`DdArena::recycled`] hands back a reset arena with its capacity
//! intact, and [`DdArena::recycle`] returns one to the pool. A reset
//! arena is indistinguishable from a fresh one apart from allocation
//! capacity, so recycling can never leak state between sessions.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::node::{Node, Ref, Var};

/// Empty bucket sentinel in the unique table.
const EMPTY: u32 = u32::MAX;
/// Empty slot sentinel in the computed cache (`op` field).
const NO_OP: u32 = u32::MAX;
/// Initial unique-table capacity (power of two). Kept small so tiny
/// sessions pay almost nothing to construct or reset; growth doubles.
const INITIAL_TABLE: usize = 1 << 8;
/// Initial computed-cache capacity (power of two).
const INITIAL_CACHE: usize = 1 << 8;
/// The computed cache never grows beyond this many slots.
const MAX_CACHE: usize = 1 << 21;
/// Per-thread recycling pool cap.
const POOL_CAP: usize = 8;

/// One direct-mapped computed-cache slot.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    op: u32,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

const EMPTY_SLOT: CacheSlot = CacheSlot {
    op: NO_OP,
    a: 0,
    b: 0,
    c: 0,
    result: 0,
};

/// Counter snapshot of an arena (see [`DdArena::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdStats {
    /// Live nodes, terminals included.
    pub live_nodes: usize,
    /// Peak live nodes observed so far.
    pub peak_nodes: usize,
    /// Unique-table (hash-consing) probes.
    pub unique_lookups: u64,
    /// Unique-table probes answered by an existing canonical node.
    pub unique_hits: u64,
    /// Computed-cache probes.
    pub cache_lookups: u64,
    /// Computed-cache probes answered from the memo.
    pub cache_hits: u64,
}

/// Word-at-a-time FNV-1a with a final avalanche; cheap and well mixed for
/// the small integer triples both tables hash.
#[inline]
fn mix(words: [u64; 2]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer: avalanche the low bits used for masking.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[inline]
fn node_hash(var: Var, lo: Ref, hi: Ref) -> u64 {
    mix([(u64::from(var) << 32) | u64::from(lo.0), u64::from(hi.0)])
}

#[inline]
fn cache_hash(op: u32, a: Ref, b: Ref, c: Ref) -> u64 {
    mix([
        (u64::from(op) << 32) | u64::from(a.0),
        (u64::from(b.0) << 32) | u64::from(c.0),
    ])
}

/// The arena: node storage, free list, unique table, computed cache and
/// protection registry. Shared by the BDD and ZDD managers — only the
/// reduction rule (applied before `DdArena::intern` by the
/// caller) differs between the flavours.
#[derive(Debug)]
pub struct DdArena {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Open-addressed unique table: buckets hold node slots, [`EMPTY`]
    /// marks a free bucket. Capacity is a power of two; grown at 3/4 load.
    table: Vec<u32>,
    /// Direct-mapped lossy computed cache.
    cache: Vec<CacheSlot>,
    cache_enabled: bool,
    protected: HashMap<Ref, usize>,
    peak_nodes: usize,
    unique_lookups: u64,
    unique_hits: u64,
    cache_lookups: u64,
    cache_hits: u64,
}

impl Default for DdArena {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static POOL: RefCell<Vec<DdArena>> = const { RefCell::new(Vec::new()) };
}

impl DdArena {
    /// A fresh arena holding only the two terminals.
    pub fn new() -> Self {
        // Slots 0 and 1 are reserved for the terminals; their contents are
        // never read (var = TERMINAL_VAR guards every recursion).
        let terminal = Node {
            var: crate::node::TERMINAL_VAR,
            lo: Ref::ZERO,
            hi: Ref::ZERO,
        };
        DdArena {
            nodes: vec![terminal, terminal],
            free: Vec::new(),
            table: vec![EMPTY; INITIAL_TABLE],
            cache: vec![EMPTY_SLOT; INITIAL_CACHE],
            cache_enabled: true,
            protected: HashMap::new(),
            peak_nodes: 2,
            unique_lookups: 0,
            unique_hits: 0,
            cache_lookups: 0,
            cache_hits: 0,
        }
    }

    /// Pops an arena from the per-thread recycling pool (reset, capacity
    /// retained) or creates a fresh one when the pool is empty.
    pub fn recycled() -> Self {
        match POOL.with(|p| p.borrow_mut().pop()) {
            Some(mut a) => {
                a.reset();
                a
            }
            None => Self::new(),
        }
    }

    /// Returns this arena to the per-thread recycling pool so the next
    /// [`recycled`](DdArena::recycled) session starts with warmed
    /// capacity. Silently drops the arena when the pool is full.
    pub fn recycle(self) {
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(self);
            }
        });
    }

    /// Restores the pristine post-`new` state while keeping every
    /// allocation: nodes truncate to the terminals, tables clear in
    /// place, stats zero.
    pub fn reset(&mut self) {
        self.nodes.truncate(2);
        self.free.clear();
        self.table.fill(EMPTY);
        self.cache.fill(EMPTY_SLOT);
        self.cache_enabled = true;
        self.protected.clear();
        self.peak_nodes = 2;
        self.unique_lookups = 0;
        self.unique_hits = 0;
        self.cache_lookups = 0;
        self.cache_hits = 0;
    }

    pub(crate) fn node(&self, r: Ref) -> Node {
        self.nodes[r.0 as usize]
    }

    pub(crate) fn var(&self, r: Ref) -> Var {
        self.nodes[r.0 as usize].var
    }

    /// Hash-conses a `(var, lo, hi)` triple: structurally equal nodes are
    /// one slot. The caller must have applied the flavour-specific
    /// reduction rule already.
    pub(crate) fn intern(&mut self, var: Var, lo: Ref, hi: Ref) -> Ref {
        self.unique_lookups += 1;
        let mask = self.table.len() - 1;
        let mut i = (node_hash(var, lo, hi) as usize) & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                break;
            }
            let n = self.nodes[slot as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                self.unique_hits += 1;
                return Ref(slot);
            }
            i = (i + 1) & mask;
        }
        let node = Node { var, lo, hi };
        let r = if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            Ref(slot)
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("node arena exceeds u32 indices");
            assert!(idx != EMPTY, "node arena exhausted the u32 index space");
            self.nodes.push(node);
            Ref(idx)
        };
        self.table[i] = r.0;
        self.peak_nodes = self.peak_nodes.max(self.live_count());
        if self.live_count() * 4 >= self.table.len() * 3 {
            self.grow_table();
        }
        r
    }

    /// Doubles the unique table and rehashes every live node. Also grows
    /// the computed cache in lock-step (clearing it — the cache is lossy
    /// by contract) so cache capacity tracks the working set.
    fn grow_table(&mut self) {
        let new_cap = self.table.len() * 2;
        let mask = new_cap - 1;
        let mut table = vec![EMPTY; new_cap];
        let free: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        for slot in 2..self.nodes.len() {
            let idx = slot as u32;
            if free.contains(&idx) {
                continue;
            }
            let n = self.nodes[slot];
            let mut i = (node_hash(n.var, n.lo, n.hi) as usize) & mask;
            while table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            table[i] = idx;
        }
        self.table = table;
        if self.cache.len() < new_cap && self.cache.len() < MAX_CACHE {
            self.cache = vec![EMPTY_SLOT; (self.cache.len() * 2).min(MAX_CACHE)];
        }
    }

    /// Probes the computed cache for `op(a, b, c)`.
    pub(crate) fn cache_get(&mut self, op: u32, a: Ref, b: Ref, c: Ref) -> Option<Ref> {
        if !self.cache_enabled {
            return None;
        }
        self.cache_lookups += 1;
        let slot = self.cache[(cache_hash(op, a, b, c) as usize) & (self.cache.len() - 1)];
        if slot.op == op && slot.a == a.0 && slot.b == b.0 && slot.c == c.0 {
            self.cache_hits += 1;
            Some(Ref(slot.result))
        } else {
            None
        }
    }

    /// Memoizes `op(a, b, c) = result`, overwriting whatever shared the
    /// slot (lossy direct-mapped cache).
    pub(crate) fn cache_put(&mut self, op: u32, a: Ref, b: Ref, c: Ref, result: Ref) {
        if !self.cache_enabled {
            return;
        }
        let i = (cache_hash(op, a, b, c) as usize) & (self.cache.len() - 1);
        self.cache[i] = CacheSlot {
            op,
            a: a.0,
            b: b.0,
            c: c.0,
            result: result.0,
        };
    }

    /// Enables or disables the computed cache. Disabling also clears it.
    pub(crate) fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.cache.fill(EMPTY_SLOT);
        }
    }

    /// Drops every memoized operation result (handles stay valid).
    pub(crate) fn clear_cache(&mut self) {
        self.cache.fill(EMPTY_SLOT);
    }

    /// `(lookups, hits)` counters for the computed cache.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.cache_lookups, self.cache_hits)
    }

    /// Total allocated slots (live + freed); upper bound on any `Ref`
    /// index, used to size slot-indexed scratch tables.
    pub(crate) fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// Live node count (terminals included).
    pub fn live_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Peak live node count observed so far.
    pub fn peak_count(&self) -> usize {
        self.peak_nodes
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> DdStats {
        DdStats {
            live_nodes: self.live_count(),
            peak_nodes: self.peak_nodes,
            unique_lookups: self.unique_lookups,
            unique_hits: self.unique_hits,
            cache_lookups: self.cache_lookups,
            cache_hits: self.cache_hits,
        }
    }

    pub(crate) fn protect(&mut self, r: Ref) {
        *self.protected.entry(r).or_insert(0) += 1;
    }

    pub(crate) fn unprotect(&mut self, r: Ref) {
        match self.protected.get_mut(&r) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.protected.remove(&r);
            }
            None => panic!("unprotect of a handle that was not protected: {r}"),
        }
    }

    /// Mark-and-sweep over the protection registry plus `extra_roots`.
    /// Clears the computed cache (reclaimed slots may be reused). Returns
    /// the number of nodes reclaimed.
    pub(crate) fn gc(&mut self, extra_roots: &[Ref]) -> usize {
        self.clear_cache();
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        marked[1] = true;
        let mut stack: Vec<Ref> = self.protected.keys().copied().collect();
        stack.extend_from_slice(extra_roots);
        while let Some(r) = stack.pop() {
            let i = r.0 as usize;
            if marked[i] {
                continue;
            }
            marked[i] = true;
            let n = self.nodes[i];
            if n.var != crate::node::TERMINAL_VAR {
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        let already_free: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        let mut reclaimed = 0;
        for (i, live) in marked.iter().enumerate().skip(2) {
            let idx = i as u32;
            if !live && !already_free.contains(&idx) {
                self.free.push(idx);
                reclaimed += 1;
            }
        }
        // Rebuild the unique table over live nodes only.
        let mask = self.table.len() - 1;
        self.table.fill(EMPTY);
        for (i, live) in marked.iter().enumerate().skip(2) {
            if *live {
                let n = self.nodes[i];
                let mut b = (node_hash(n.var, n.lo, n.hi) as usize) & mask;
                while self.table[b] != EMPTY {
                    b = (b + 1) & mask;
                }
                self.table[b] = i as u32;
            }
        }
        reclaimed
    }

    /// Structural invariant check for tests and differential suites:
    /// every live node is reachable through the unique table exactly once
    /// (canonicity — no duplicate `(var, lo, hi)` triples) and every
    /// table bucket points at a live slot.
    pub fn check_unique_table(&self) -> Result<(), String> {
        let free: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        let mut seen_triples = std::collections::HashSet::new();
        let mut in_table = std::collections::HashSet::new();
        for &slot in &self.table {
            if slot == EMPTY {
                continue;
            }
            if slot < 2 || slot as usize >= self.nodes.len() {
                return Err(format!("unique table points at invalid slot {slot}"));
            }
            if free.contains(&slot) {
                return Err(format!("unique table points at freed slot {slot}"));
            }
            if !in_table.insert(slot) {
                return Err(format!("slot {slot} appears twice in the unique table"));
            }
            let n = self.nodes[slot as usize];
            if !seen_triples.insert((n.var, n.lo, n.hi)) {
                return Err(format!(
                    "duplicate canonical node ({}, {}, {}) at slot {slot}",
                    n.var, n.lo, n.hi
                ));
            }
        }
        for i in 2..self.nodes.len() {
            let idx = i as u32;
            if !free.contains(&idx) && !in_table.contains(&idx) {
                return Err(format!("live slot {idx} missing from the unique table"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_canonical() {
        let mut a = DdArena::new();
        let x = a.intern(0, Ref::ZERO, Ref::ONE);
        let y = a.intern(0, Ref::ZERO, Ref::ONE);
        assert_eq!(x, y);
        assert_eq!(a.live_count(), 3);
        assert_eq!(a.stats().unique_hits, 1);
        a.check_unique_table().expect("canonical");
    }

    #[test]
    fn table_grows_and_stays_canonical() {
        let mut a = DdArena::new();
        let mut refs = Vec::new();
        for v in 0..5_000u32 {
            refs.push(a.intern(v, Ref::ZERO, Ref::ONE));
        }
        a.check_unique_table().expect("canonical after growth");
        for (v, &r) in refs.iter().enumerate() {
            assert_eq!(a.intern(v as Var, Ref::ZERO, Ref::ONE), r);
        }
    }

    #[test]
    fn cache_round_trip_and_disable() {
        let mut a = DdArena::new();
        let x = a.intern(0, Ref::ZERO, Ref::ONE);
        a.cache_put(1, x, Ref::ONE, Ref::ZERO, x);
        assert_eq!(a.cache_get(1, x, Ref::ONE, Ref::ZERO), Some(x));
        assert_eq!(a.cache_get(2, x, Ref::ONE, Ref::ZERO), None);
        a.set_cache_enabled(false);
        assert_eq!(a.cache_get(1, x, Ref::ONE, Ref::ZERO), None);
        let (lookups, hits) = a.cache_stats();
        assert_eq!((lookups, hits), (2, 1), "disabled probes are not counted");
    }

    #[test]
    fn gc_reclaims_unprotected_and_reuses_slots() {
        let mut a = DdArena::new();
        let x = a.intern(0, Ref::ZERO, Ref::ONE);
        let y = a.intern(1, Ref::ZERO, Ref::ONE);
        a.protect(x);
        let freed = a.gc(&[]);
        assert_eq!(freed, 1);
        assert_eq!(a.intern(0, Ref::ZERO, Ref::ONE), x);
        let z = a.intern(2, Ref::ZERO, Ref::ONE);
        assert_eq!(z, y, "freed slot should be reused");
        a.check_unique_table().expect("canonical after gc");
    }

    #[test]
    fn protect_is_counted() {
        let mut a = DdArena::new();
        let x = a.intern(0, Ref::ZERO, Ref::ONE);
        a.protect(x);
        a.protect(x);
        a.unprotect(x);
        assert_eq!(a.gc(&[]), 0, "still protected once");
        a.unprotect(x);
        assert_eq!(a.gc(&[]), 1);
    }

    #[test]
    #[should_panic(expected = "not protected")]
    fn unprotect_unknown_panics() {
        let mut a = DdArena::new();
        a.unprotect(Ref(5));
    }

    #[test]
    fn gc_keeps_descendants_of_roots() {
        let mut a = DdArena::new();
        let x = a.intern(1, Ref::ZERO, Ref::ONE);
        let f = a.intern(0, x, Ref::ONE);
        let freed = a.gc(&[f]);
        assert_eq!(freed, 0, "x is reachable from f");
        let _ = x;
    }

    #[test]
    fn reset_is_indistinguishable_from_new() {
        let mut a = DdArena::new();
        for v in 0..100u32 {
            let _ = a.intern(v, Ref::ZERO, Ref::ONE);
        }
        a.reset();
        let fresh = DdArena::new();
        assert_eq!(a.live_count(), fresh.live_count());
        assert_eq!(a.stats().unique_lookups, 0);
        // Same operation sequence produces the same indices as on a
        // fresh arena — capacity is the only difference.
        let mut b = DdArena::new();
        for v in 0..10u32 {
            assert_eq!(
                a.intern(v, Ref::ZERO, Ref::ONE),
                b.intern(v, Ref::ZERO, Ref::ONE)
            );
        }
    }

    #[test]
    fn recycling_round_trip() {
        let mut a = DdArena::recycled();
        let _ = a.intern(3, Ref::ZERO, Ref::ONE);
        a.recycle();
        let b = DdArena::recycled();
        assert_eq!(b.live_count(), 2, "recycled arena starts clean");
        assert_eq!(b.stats(), DdArena::new().stats());
    }
}
