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
//! Nodes are never freed: an arena only grows during a session, so its
//! node count is also its peak and every [`Ref`] stays valid. Arenas are
//! expensive to warm up (table capacity, node storage), so the module
//! also keeps a small per-thread recycling pool between sessions:
//! [`DdArena::recycled`] hands back a reset arena with its capacity
//! intact, and [`DdArena::recycle`] returns one to the pool. A reset
//! arena is indistinguishable from a fresh one apart from allocation
//! capacity, so recycling can never leak state between sessions.

use std::cell::RefCell;
use std::collections::HashSet;

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

/// The arena: node storage, unique table and computed cache. Shared by
/// the BDD and ZDD managers — only the reduction rule (applied before
/// `DdArena::intern` by the caller) differs between the flavours.
#[derive(Debug)]
pub(crate) struct DdArena {
    nodes: Vec<Node>,
    /// Open-addressed unique table: buckets hold node slots, [`EMPTY`]
    /// marks a free bucket. Capacity is a power of two; grown at 3/4 load.
    table: Vec<u32>,
    /// Direct-mapped lossy computed cache.
    cache: Vec<CacheSlot>,
    cache_enabled: bool,
    cache_lookups: u64,
    cache_hits: u64,
}

thread_local! {
    static POOL: RefCell<Vec<DdArena>> = const { RefCell::new(Vec::new()) };
}

impl DdArena {
    /// A fresh arena holding only the two terminals.
    pub(crate) fn new() -> Self {
        // Slots 0 and 1 are reserved for the terminals; their contents are
        // never read (var = TERMINAL_VAR guards every recursion).
        let terminal = Node {
            var: crate::node::TERMINAL_VAR,
            lo: Ref::ZERO,
            hi: Ref::ZERO,
        };
        DdArena {
            nodes: vec![terminal, terminal],
            table: vec![EMPTY; INITIAL_TABLE],
            cache: vec![EMPTY_SLOT; INITIAL_CACHE],
            cache_enabled: true,
            cache_lookups: 0,
            cache_hits: 0,
        }
    }

    /// Pops an arena from the per-thread recycling pool (reset, capacity
    /// retained) or creates a fresh one when the pool is empty.
    pub(crate) fn recycled() -> Self {
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
    pub(crate) fn recycle(self) {
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
    fn reset(&mut self) {
        self.nodes.truncate(2);
        self.table.fill(EMPTY);
        self.cache.fill(EMPTY_SLOT);
        self.cache_enabled = true;
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
        let mask = self.table.len() - 1;
        let mut i = (node_hash(var, lo, hi) as usize) & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                break;
            }
            let n = self.nodes[slot as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ref(slot);
            }
            i = (i + 1) & mask;
        }
        let idx = u32::try_from(self.nodes.len()).expect("node arena exceeds u32 indices");
        assert!(idx != EMPTY, "node arena exhausted the u32 index space");
        self.nodes.push(Node { var, lo, hi });
        self.table[i] = idx;
        if self.nodes.len() * 4 >= self.table.len() * 3 {
            self.grow_table();
        }
        Ref(idx)
    }

    /// Doubles the unique table and rehashes every node. Also grows
    /// the computed cache in lock-step (clearing it — the cache is lossy
    /// by contract) so cache capacity tracks the working set.
    fn grow_table(&mut self) {
        let new_cap = self.table.len() * 2;
        let mask = new_cap - 1;
        let mut table = vec![EMPTY; new_cap];
        for (slot, n) in self.nodes.iter().enumerate().skip(2) {
            let mut i = (node_hash(n.var, n.lo, n.hi) as usize) & mask;
            while table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            table[i] = slot as u32;
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

    /// Number of nodes, terminals included. Nodes are never freed, so this
    /// is also the peak, and an upper bound on any `Ref` index that sizes
    /// slot-indexed scratch tables.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Structural invariant check for tests and differential suites:
    /// every node is reachable through the unique table exactly once
    /// (canonicity — no duplicate `(var, lo, hi)` triples) and every
    /// table bucket points at a node.
    pub(crate) fn check_unique_table(&self) -> Result<(), String> {
        let mut seen_triples = HashSet::new();
        let mut in_table = HashSet::new();
        for &slot in &self.table {
            if slot == EMPTY {
                continue;
            }
            if slot < 2 || slot as usize >= self.nodes.len() {
                return Err(format!("unique table points at invalid slot {slot}"));
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
        for i in 2..self.nodes.len() as u32 {
            if !in_table.contains(&i) {
                return Err(format!("slot {i} missing from the unique table"));
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
        assert_eq!(a.node_count(), 3);
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
    fn reset_is_indistinguishable_from_new() {
        let mut a = DdArena::new();
        for v in 0..100u32 {
            let r = a.intern(v, Ref::ZERO, Ref::ONE);
            a.cache_put(1, r, Ref::ZERO, Ref::ZERO, r);
            assert_eq!(a.cache_get(1, r, Ref::ZERO, Ref::ZERO), Some(r));
        }
        a.reset();
        assert_eq!(a.node_count(), 2);
        assert_eq!(a.cache_stats(), (0, 0));
        // Same operation sequence produces the same indices as on a
        // fresh arena — capacity is the only difference.
        let mut b = DdArena::new();
        for v in 0..10u32 {
            assert_eq!(
                a.intern(v, Ref::ZERO, Ref::ONE),
                b.intern(v, Ref::ZERO, Ref::ONE)
            );
        }
        a.check_unique_table().expect("canonical after reset");
    }

    #[test]
    fn recycling_round_trip() {
        let mut a = DdArena::recycled();
        let x = a.intern(3, Ref::ZERO, Ref::ONE);
        a.cache_put(1, x, Ref::ZERO, Ref::ZERO, x);
        assert_eq!(a.cache_get(1, x, Ref::ZERO, Ref::ZERO), Some(x));
        a.recycle();
        let mut b = DdArena::recycled();
        assert_eq!(b.node_count(), 2, "recycled arena starts clean");
        assert_eq!(b.cache_stats(), (0, 0));
        assert_eq!(b.cache_get(1, x, Ref::ZERO, Ref::ZERO), None);
    }
}
