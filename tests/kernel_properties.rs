//! Property-based tests of the shared kernels: the event engine's
//! ordering guarantees, the statistics accumulators, and the decision
//! diagram managers' algebraic laws.

use micronano::dd::{BddManager, Ref, ZddManager};
use micronano::sim::stats::Summary;
use micronano::sim::{Engine, Model, Scheduler, SimTime};
use proptest::prelude::*;

struct Recorder {
    seen: Vec<(u64, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
        self.seen.push((now.ticks(), ev));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_dispatches_in_time_then_fifo_order(
        times in proptest::collection::vec(0u64..50, 1..40),
    ) {
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule(SimTime::from_ticks(t), i as u32);
        }
        let mut model = Recorder { seen: Vec::new() };
        engine.run(&mut model);
        prop_assert_eq!(model.seen.len(), times.len());
        for w in model.seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among simultaneous events");
            }
        }
    }

    #[test]
    fn summary_merge_is_order_independent(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..50),
        split in 0usize..50,
    ) {
        let split = split.min(xs.len());
        let mut whole = Summary::new();
        for &x in &xs { whole.record(x); }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..split] { a.record(x); }
        for &x in &xs[split..] { b.record(x); }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.count(), whole.count());
        prop_assert!((ab.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - whole.variance()).abs() < 1e-3);
    }

    #[test]
    fn bdd_boolean_laws(
        truth_a in 0u64..256,
        truth_b in 0u64..256,
    ) {
        // Build two arbitrary 3-variable functions from truth tables and
        // check algebraic laws structurally (canonicity ⇒ equal refs).
        let mut m = BddManager::new(3);
        let build = |m: &mut BddManager, tt: u64| -> Ref {
            let mut f = m.zero();
            for row in 0..8u64 {
                if tt >> row & 1 == 1 {
                    let mut term = m.one();
                    for v in 0..3u32 {
                        let lit = if row >> v & 1 == 1 { m.var(v) } else { m.nvar(v) };
                        term = m.and(term, lit);
                    }
                    f = m.or(f, term);
                }
            }
            f
        };
        let a = build(&mut m, truth_a);
        let b = build(&mut m, truth_b);
        // De Morgan.
        let and_ab = m.and(a, b);
        let l = m.not(and_ab);
        let na = m.not(a);
        let nb = m.not(b);
        let r = m.or(na, nb);
        prop_assert_eq!(l, r);
        // Absorption: a ∨ (a ∧ b) = a.
        let ab = m.and(a, b);
        prop_assert_eq!(m.or(a, ab), a);
        // Double negation.
        let nna = { let n = m.not(a); m.not(n) };
        prop_assert_eq!(nna, a);
        // Sat count agrees with the truth table.
        prop_assert_eq!(m.sat_count(a), truth_a.count_ones() as f64);
    }

    #[test]
    fn zdd_family_laws(
        fam_a in proptest::collection::btree_set(0u32..32, 0..8),
        fam_b in proptest::collection::btree_set(0u32..32, 0..8),
    ) {
        // Interpret each u32 as a subset of a 5-element universe.
        let mut m = ZddManager::new(5);
        let build = |m: &mut ZddManager, fam: &std::collections::BTreeSet<u32>| -> Ref {
            let sets: Vec<Vec<u32>> = fam
                .iter()
                .map(|&mask| (0..5).filter(|&e| mask >> e & 1 == 1).collect())
                .collect();
            let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            m.from_sets(&refs)
        };
        let a = build(&mut m, &fam_a);
        let b = build(&mut m, &fam_b);
        // |A| + |B| = |A ∪ B| + |A ∩ B|.
        let u = m.union(a, b);
        let i = m.intersect(a, b);
        prop_assert_eq!(m.count(a) + m.count(b), m.count(u) + m.count(i));
        // A \ B = A \ (A ∩ B).
        let d1 = m.diff(a, b);
        let d2 = m.diff(a, i);
        prop_assert_eq!(d1, d2);
        // Union is commutative and idempotent (canonical refs).
        prop_assert_eq!(m.union(a, b), m.union(b, a));
        prop_assert_eq!(m.union(a, a), a);
        // maximal(maximal(F)) = maximal(F).
        let mx = m.maximal(a);
        prop_assert_eq!(m.maximal(mx), mx);
    }
}
