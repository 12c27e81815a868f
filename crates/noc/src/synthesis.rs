//! Application-specific topology synthesis (keynote slide 10).
//!
//! The primary strategy recursively bipartitions the communication graph
//! with balanced min-cut (Kernighan–Lin refinement), producing a router
//! tree whose leaves aggregate tightly-communicating cores, then inserts
//! shortcut links for the heaviest long-distance flows. The greedy
//! cluster-merge strategy is the ablation-A3 baseline.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::graph::CommGraph;
use crate::topology::{Link, LinkClass, Topology};

/// Partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Recursive balanced min-cut with KL refinement (default).
    MinCut,
    /// Greedy heaviest-edge cluster merging (ablation baseline).
    GreedyMerge,
}

/// Synthesis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisConfig {
    /// Maximum cores attached to one leaf router.
    pub max_cluster: usize,
    /// Maximum shortcut links added on top of the tree.
    pub shortcuts: usize,
    /// Router port budget (maximum degree including core ports).
    pub max_degree: usize,
    /// Partitioning strategy.
    pub strategy: Strategy,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            max_cluster: 4,
            shortcuts: 4,
            max_degree: 8,
            strategy: Strategy::MinCut,
        }
    }
}

/// Splits of one rate matrix, keyed by the exact core list they split.
type SplitTable = BTreeMap<Vec<usize>, (Vec<usize>, Vec<usize>)>;

thread_local! {
    /// Memo over [`bipartition`] results. Sweeps re-synthesize the same
    /// communication graph under many router/buffer configurations, and
    /// the partition tree depends only on the rate matrix — so every sweep
    /// point after the first resolves its whole tree from the memo. Each
    /// graph's [`SplitTable`] is found by its whole rate matrix (every
    /// IEEE-754 bit pattern), and both levels are ordered maps, so every
    /// lookup compares full keys and no hash value can hand one graph
    /// another graph's split. Ordered lookups also skip hashing the
    /// n²-word matrix on every synthesis.
    static PARTITION_CACHE: RefCell<BTreeMap<Vec<u64>, SplitTable>> = RefCell::default();
}

/// Entry cap, counted in splits; the memo is cleared wholesale when it
/// fills. A graph enters the memo only when its root needs a split, so
/// the cap also bounds the number of graphs held.
const PARTITION_CACHE_CAP: usize = 1024;

/// Dense symmetric pair-rate matrix over the whole core set, computed
/// once per synthesis so the partitioner never rescans the flow list.
fn rate_matrix(app: &CommGraph) -> Vec<Vec<f64>> {
    let n = app.cores();
    let mut m = vec![vec![0.0; n]; n];
    for f in app.flows() {
        m[f.src][f.dst] += f.rate;
        m[f.dst][f.src] += f.rate;
    }
    m
}

/// Kernighan–Lin-style balanced bipartition of `cores` minimizing the cut
/// bandwidth. Returns (left, right) with sizes differing by at most one.
fn bipartition(rates: &[Vec<f64>], cores: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = cores.len();
    let half = n / 2;
    // Initial split: alternate (deterministic).
    let mut side: Vec<bool> = (0..n).map(|i| i < half).collect();

    let w = |i: usize, j: usize| rates[cores[i]][cores[j]];

    // KL passes: compute gains, greedily swap best unlocked pair, keep the
    // best prefix; repeat while improving.
    for _pass in 0..4 {
        let mut locked = vec![false; n];
        let mut seq: Vec<(usize, usize, f64)> = Vec::new();
        let mut work = side.clone();
        loop {
            // D-value: external − internal cost per vertex.
            let d: Vec<f64> = (0..n)
                .map(|i| {
                    let mut ext = 0.0;
                    let mut int = 0.0;
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        if work[i] == work[j] {
                            int += w(i, j);
                        } else {
                            ext += w(i, j);
                        }
                    }
                    ext - int
                })
                .collect();
            let mut best: Option<(usize, usize, f64)> = None;
            for a in 0..n {
                if locked[a] || !work[a] {
                    continue;
                }
                for b in 0..n {
                    if locked[b] || work[b] {
                        continue;
                    }
                    let gain = d[a] + d[b] - 2.0 * w(a, b);
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((a, b, gain));
                    }
                }
            }
            let Some((a, b, gain)) = best else { break };
            work[a] = false;
            work[b] = true;
            locked[a] = true;
            locked[b] = true;
            seq.push((a, b, gain));
        }
        // Best prefix of cumulative gain.
        let mut cum = 0.0;
        let mut best_k = 0;
        let mut best_gain = 0.0;
        for (k, &(_, _, g)) in seq.iter().enumerate() {
            cum += g;
            if cum > best_gain {
                best_gain = cum;
                best_k = k + 1;
            }
        }
        if best_k == 0 {
            break; // no improving swap sequence
        }
        for &(a, b, _) in &seq[..best_k] {
            side[a] = false;
            side[b] = true;
        }
    }

    let left = cores
        .iter()
        .enumerate()
        .filter(|&(i, _)| side[i])
        .map(|(_, &c)| c)
        .collect();
    let right = cores
        .iter()
        .enumerate()
        .filter(|&(i, _)| !side[i])
        .map(|(_, &c)| c)
        .collect();
    (left, right)
}

struct TreeBuilder<'a> {
    rates: &'a [Vec<f64>],
    config: &'a SynthesisConfig,
    links: Vec<Link>,
    attachment: Vec<usize>,
    next_router: usize,
}

impl TreeBuilder<'_> {
    /// Builds the subtree for `cores`, returning its root router. A split
    /// found in `splits` is byte-identical to a fresh one, so the memo
    /// cannot perturb synthesized topologies.
    fn build(&mut self, splits: &mut SplitTable, cores: &[usize]) -> usize {
        let router = self.next_router;
        self.next_router += 1;
        if cores.len() <= self.config.max_cluster {
            for &c in cores {
                self.attachment[c] = router;
            }
            return router;
        }
        mns_telemetry::counter_add("noc.partition_lookups", 1);
        let (left, right) = match splits.get(cores) {
            Some(split) => {
                mns_telemetry::counter_add("noc.partition_hits", 1);
                split.clone()
            }
            None => {
                let split = bipartition(self.rates, cores);
                splits.insert(cores.to_vec(), split.clone());
                split
            }
        };
        let l = self.build(splits, &left);
        let r = self.build(splits, &right);
        self.links.push(Link {
            a: router,
            b: l,
            class: LinkClass::Planar,
        });
        self.links.push(Link {
            a: router,
            b: r,
            class: LinkClass::Planar,
        });
        router
    }
}

/// Greedy-merge clustering (ablation A3): repeatedly merge the cluster
/// pair with the heaviest inter-cluster bandwidth, then chain the cluster
/// routers.
fn greedy_merge(app: &CommGraph, config: &SynthesisConfig) -> Topology {
    let n = app.cores();
    let rates = rate_matrix(app);
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|c| vec![c]).collect();
    let target = n.div_ceil(config.max_cluster).max(1);
    while clusters.len() > target {
        let mut best = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                if clusters[i].len() + clusters[j].len() > config.max_cluster {
                    continue;
                }
                let mut rate = 0.0;
                for &a in &clusters[i] {
                    for &b in &clusters[j] {
                        rate += rates[a][b];
                    }
                }
                if rate > best.2 {
                    best = (i, j, rate);
                }
            }
        }
        if best.2 == f64::NEG_INFINITY {
            break; // size limits prevent further merging
        }
        let (i, j, _) = best;
        let merged = clusters.remove(j);
        clusters[i].extend(merged);
    }
    let routers = clusters.len();
    let mut attachment = vec![0usize; n];
    for (r, cluster) in clusters.iter().enumerate() {
        for &c in cluster {
            attachment[c] = r;
        }
    }
    // Chain the cluster routers (cheap, low-degree baseline fabric).
    let links = (0..routers.saturating_sub(1))
        .map(|r| Link {
            a: r,
            b: r + 1,
            class: LinkClass::Planar,
        })
        .collect();
    Topology::irregular(routers.max(1), links, attachment)
}

/// Synthesizes an application-specific topology from a communication
/// graph.
///
/// # Panics
///
/// Panics if `max_cluster` is zero.
pub fn synthesize(app: &CommGraph, config: &SynthesisConfig) -> Topology {
    assert!(config.max_cluster > 0, "cluster size must be positive");
    let _synthesis_span = mns_telemetry::span("noc.synthesize");
    if config.strategy == Strategy::GreedyMerge {
        return greedy_merge(app, config);
    }
    let rates = rate_matrix(app);
    let mut builder = TreeBuilder {
        rates: &rates,
        config,
        links: Vec::new(),
        attachment: vec![0; app.cores()],
        next_router: 0,
    };
    let all: Vec<usize> = (0..app.cores()).collect();
    {
        let _partition_span = mns_telemetry::span("noc.partition");
        if all.len() <= config.max_cluster {
            // One leaf router: nothing to split, so nothing to memoize.
            builder.build(&mut SplitTable::new(), &all);
        } else {
            let key: Vec<u64> = rates.iter().flatten().map(|r| r.to_bits()).collect();
            PARTITION_CACHE.with(|memo| {
                let mut memo = memo.borrow_mut();
                if memo.values().map(BTreeMap::len).sum::<usize>() >= PARTITION_CACHE_CAP {
                    memo.clear();
                }
                builder.build(memo.entry(key).or_default(), &all);
            });
        }
    }
    let mut topo = Topology::irregular(
        builder.next_router,
        builder.links.clone(),
        builder.attachment.clone(),
    );

    // Shortcut insertion: heaviest flows whose attachment routers are far
    // apart in the tree get a direct link, within the degree budget.
    let _shortcut_span = mns_telemetry::span("noc.shortcuts");
    let mut candidates: Vec<(f64, usize, usize)> = app
        .flows()
        .iter()
        .filter_map(|f| {
            let a = topo.router_of(f.src);
            let b = topo.router_of(f.dst);
            if a == b {
                return None;
            }
            let d = topo.hop_distance(a, b)?;
            if d <= 1 {
                return None;
            }
            Some((f.rate * d as f64, a.min(b), a.max(b)))
        })
        .collect();
    candidates.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite weights"));
    candidates.dedup_by_key(|&mut (_, a, b)| (a, b));

    let mut links = builder.links;
    let mut degree = vec![0usize; builder.next_router];
    for l in &links {
        degree[l.a] += 1;
        degree[l.b] += 1;
    }
    // Core ports count against the budget.
    for &r in &builder.attachment {
        degree[r] += 1;
    }
    let mut added = 0;
    for (_, a, b) in candidates {
        if added >= config.shortcuts {
            break;
        }
        if degree[a] + 1 > config.max_degree || degree[b] + 1 > config.max_degree {
            continue;
        }
        if links.iter().any(|l| (l.a.min(l.b), l.a.max(l.b)) == (a, b)) {
            continue;
        }
        links.push(Link {
            a,
            b,
            class: LinkClass::Planar,
        });
        degree[a] += 1;
        degree[b] += 1;
        added += 1;
    }
    topo = Topology::irregular(builder.next_router, links, builder.attachment);
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn synthesized_topology_is_connected_and_complete() {
        for cores in [6, 9, 16, 24] {
            let app = CommGraph::hotspot(cores, 1.0);
            let topo = synthesize(&app, &SynthesisConfig::default());
            assert!(topo.is_connected(), "{cores} cores");
            assert_eq!(topo.attachment().len(), cores);
        }
    }

    #[test]
    fn bipartition_separates_communities() {
        // Two 4-core cliques with a weak bridge.
        let mut flows = Vec::new();
        for a in 0..4usize {
            for b in 0..4 {
                if a < b {
                    flows.push(crate::graph::Flow {
                        src: a,
                        dst: b,
                        rate: 10.0,
                    });
                    flows.push(crate::graph::Flow {
                        src: a + 4,
                        dst: b + 4,
                        rate: 10.0,
                    });
                }
            }
        }
        flows.push(crate::graph::Flow {
            src: 0,
            dst: 4,
            rate: 0.1,
        });
        let app = CommGraph::new(8, flows);
        let all: Vec<usize> = (0..8).collect();
        let (left, right) = bipartition(&rate_matrix(&app), &all);
        assert_eq!(left.len(), 4);
        assert_eq!(right.len(), 4);
        // One side should hold {0..4}, the other {4..8}.
        let mut l = left.clone();
        l.sort_unstable();
        assert!(
            l == vec![0, 1, 2, 3] || l == vec![4, 5, 6, 7],
            "left {l:?} right {right:?}"
        );
    }

    #[test]
    fn tight_clusters_share_a_router() {
        // Pipeline: neighbours communicate; clusters of 4 should group
        // consecutive cores.
        let app = CommGraph::pipeline(8, 1.0);
        let topo = synthesize(&app, &SynthesisConfig::default());
        // Core 0 and core 1 should be closer (in routers) than core 0 and
        // core 7.
        let d01 = topo
            .hop_distance(topo.router_of(0), topo.router_of(1))
            .unwrap();
        let d07 = topo
            .hop_distance(topo.router_of(0), topo.router_of(7))
            .unwrap();
        assert!(d01 <= d07);
    }

    #[test]
    fn shortcuts_reduce_weighted_distance() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let app = CommGraph::random(16, 0.15, 1.0, &mut rng);
        let without = synthesize(
            &app,
            &SynthesisConfig {
                shortcuts: 0,
                ..SynthesisConfig::default()
            },
        );
        let with = synthesize(&app, &SynthesisConfig::default());
        let weighted = |t: &Topology| -> f64 {
            app.flows()
                .iter()
                .map(|f| {
                    let d = t
                        .hop_distance(t.router_of(f.src), t.router_of(f.dst))
                        .expect("connected") as f64;
                    f.rate * d
                })
                .sum()
        };
        assert!(weighted(&with) <= weighted(&without));
    }

    #[test]
    fn degree_budget_respected() {
        let app = CommGraph::uniform(16, 1.0);
        let cfg = SynthesisConfig {
            shortcuts: 100,
            max_degree: 6,
            ..SynthesisConfig::default()
        };
        let topo = synthesize(&app, &cfg);
        let mut degree = vec![0usize; topo.routers()];
        for l in topo.links() {
            degree[l.a] += 1;
            degree[l.b] += 1;
        }
        for &r in topo.attachment() {
            degree[r] += 1;
        }
        assert!(degree.iter().all(|&d| d <= cfg.max_degree));
    }

    #[test]
    fn partition_memo_is_transparent() {
        // Repeated synthesis of the same graph must go through the memo
        // without perturbing the topology.
        let app = CommGraph::hotspot(24, 1.0);
        let cfg = SynthesisConfig::default();
        let first = synthesize(&app, &cfg);
        for _ in 0..3 {
            let again = synthesize(&app, &cfg);
            assert_eq!(again.links(), first.links());
            assert_eq!(again.attachment(), first.attachment());
        }
        // A different graph keys differently and must not collide.
        let other = synthesize(&CommGraph::pipeline(24, 1.0), &cfg);
        assert!(
            other.links() != first.links() || other.attachment() != first.attachment(),
            "distinct graphs should synthesize distinct topologies"
        );
    }

    #[test]
    fn partition_memo_survives_a_large_graph() {
        let cfg = SynthesisConfig::default();
        let small = synthesize(&CommGraph::hotspot(8, 1.0), &cfg);
        // A much larger graph fills the memo with splits of its own.
        let large = synthesize(&CommGraph::hotspot(200, 1.0), &cfg);
        assert!(large.is_connected());
        // The small graph still resolves correctly afterwards.
        let small_again = synthesize(&CommGraph::hotspot(8, 1.0), &cfg);
        assert_eq!(small_again.links(), small.links());
        assert_eq!(small_again.attachment(), small.attachment());
    }

    #[test]
    fn partition_memo_stays_bounded() {
        // Graphs and splits held in this thread's memo.
        fn memo_size() -> (usize, usize) {
            PARTITION_CACHE.with(|memo| {
                let memo = memo.borrow();
                (memo.len(), memo.values().map(BTreeMap::len).sum())
            })
        }
        // A fresh thread starts with an empty memo.
        std::thread::spawn(|| {
            let cfg = SynthesisConfig::default();
            let rates = (0..PARTITION_CACHE_CAP + 100).map(|i| 1.0 + i as f64);
            // Distinct graphs that fit one leaf router leave nothing behind.
            for rate in rates.clone() {
                synthesize(&CommGraph::hotspot(cfg.max_cluster, rate), &cfg);
            }
            assert_eq!(memo_size(), (0, 0));
            // Distinct graphs that need a split stay within the cap.
            for rate in rates {
                synthesize(&CommGraph::hotspot(cfg.max_cluster + 1, rate), &cfg);
                let (graphs, splits) = memo_size();
                assert!(graphs <= splits && splits <= PARTITION_CACHE_CAP);
            }
        })
        .join()
        .expect("synthesis thread");
    }

    #[test]
    fn partition_memo_tells_colliding_rate_matrices_apart() {
        // Two graphs that differ only in the 1–2 rate. Their rate matrices
        // collide when whole 64-bit words are XOR-folded into one FNV
        // state, so a memo keyed by that hash hands the second graph the
        // first graph's splits.
        let graph = |rate_bits: u64| {
            let flow = |src, dst, rate| crate::graph::Flow { src, dst, rate };
            let rate = f64::from_bits(rate_bits);
            CommGraph::new(3, vec![flow(0, 1, 1.0), flow(0, 2, 0.5), flow(1, 2, rate)])
        };
        let (a, b) = (graph(0x372c_13b2_f40d_852d), graph(0x48d3_ec4d_0bf2_7ad1));
        let cfg = SynthesisConfig {
            max_cluster: 1,
            shortcuts: 0,
            ..SynthesisConfig::default()
        };
        // A fresh thread starts with an empty memo.
        let on_fresh_thread = |graphs: Vec<CommGraph>| {
            std::thread::spawn(move || {
                graphs
                    .iter()
                    .map(|g| synthesize(g, &cfg))
                    .collect::<Vec<_>>()
            })
            .join()
            .expect("synthesis thread")
        };
        let fresh_a = on_fresh_thread(vec![a.clone()]).remove(0);
        let fresh_b = on_fresh_thread(vec![b.clone()]).remove(0);
        assert_ne!(fresh_a.attachment(), fresh_b.attachment());
        assert_eq!(
            on_fresh_thread(vec![a.clone(), b.clone()]),
            vec![fresh_a.clone(), fresh_b.clone()]
        );
        assert_eq!(on_fresh_thread(vec![b, a]), vec![fresh_b, fresh_a]);
    }

    #[test]
    fn greedy_merge_baseline_works() {
        let app = CommGraph::hotspot(12, 1.0);
        let topo = synthesize(
            &app,
            &SynthesisConfig {
                strategy: Strategy::GreedyMerge,
                ..SynthesisConfig::default()
            },
        );
        assert!(topo.is_connected());
        assert_eq!(topo.attachment().len(), 12);
        // Clusters respect the size cap.
        let mut sizes = std::collections::HashMap::new();
        for &r in topo.attachment() {
            *sizes.entry(r).or_insert(0usize) += 1;
        }
        assert!(sizes.values().all(|&s| s <= 4));
    }
}
