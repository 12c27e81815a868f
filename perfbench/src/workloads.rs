//! Seed-generated scenario batches, and the digests they must produce.
//!
//! A workload is a list of *rounds*; one pass submits the rounds in order
//! to one engine, so a later round can reuse what an earlier one cached.
//! The engine receives only the generated scenarios, never the seed.

use std::collections::BTreeMap;

use mns_core::runner::{
    conformance_corpus, AssayKind, Digest, FluidicsScenario, GrnModel, HarvestScenario,
    KnockoutScenario, LabChipScenario, NocScenario, Scenario, WsnScenario,
};
use mns_grn::models::t_helper;
use mns_noc::graph::{CommGraph, Flow};
use mns_policy::PolicyExpr;
use mns_wsn::protocol::Protocol;

/// The seed whose expected digests are committed for every workload.
pub const DEFAULT_SEED: u64 = 42;

/// The largest share of an `assay_compile` pass one scenario may take,
/// so that one straggler does not set the parallel and cluster times.
pub const STRAGGLER_SHARE: f64 = 0.05;

/// Committed serial digests of `conformance_corpus(42)`.
const GOLDEN_CORPUS: &str = include_str!("../../tests/golden/corpus.txt");
/// Committed digests of the generated workloads at [`DEFAULT_SEED`].
const ASSAY_COMPILE_EXPECTED: &str = include_str!("../expected/assay_compile.txt");
const STAGE_REUSE_EXPECTED: &str = include_str!("../expected/stage_reuse.txt");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 43-scenario conformance corpus, all six families.
    GoldenCorpus,
    /// Fluidics compiles of every assay family at larger scales, clean
    /// and on damaged arrays.
    AssayCompile,
    /// A two-round exploration loop whose points share upstream work.
    StageReuse,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists `golden_corpus` and
    /// `stage_reuse`; `assay_compile` is run by hand (see `NOTES.md`).
    pub const ALL: [Workload; 3] = [
        Workload::GoldenCorpus,
        Workload::AssayCompile,
        Workload::StageReuse,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GoldenCorpus => "golden_corpus",
            Workload::AssayCompile => "assay_compile",
            Workload::StageReuse => "stage_reuse",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The rounds of one pass, generated from `seed`.
    pub fn rounds(self, seed: u64) -> Vec<Vec<Scenario>> {
        match self {
            Workload::GoldenCorpus => vec![golden_corpus(seed)],
            Workload::AssayCompile => vec![assay_compile(seed)],
            Workload::StageReuse => stage_reuse(seed),
        }
    }

    /// Committed digests for every submitted scenario (rounds flattened),
    /// or `None` when `seed` has none; then every mode is checked against
    /// the first serial-cold pass instead. The golden corpus is the same
    /// at every seed; the generated workloads have digests at
    /// [`DEFAULT_SEED`] only.
    ///
    /// # Errors
    ///
    /// Returns a message when the committed file is malformed or misses
    /// a scenario of the batch.
    pub fn expected(self, seed: u64, batch: &[&Scenario]) -> Result<Option<Vec<Digest>>, String> {
        let (text, every_seed) = match self {
            Workload::GoldenCorpus => (GOLDEN_CORPUS, true),
            Workload::AssayCompile => (ASSAY_COMPILE_EXPECTED, false),
            Workload::StageReuse => (STAGE_REUSE_EXPECTED, false),
        };
        let committed = parse_digests(text)?;
        if !every_seed && seed != DEFAULT_SEED {
            return Ok(None);
        }
        batch
            .iter()
            .map(|s| {
                let label = s.label();
                committed
                    .get(&label)
                    .copied()
                    .ok_or_else(|| format!("`{label}` has no committed digest"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some)
    }
}

/// Parses `label digest` lines (`#` starts a comment line). A label may
/// repeat (a revisited scenario) but only with the same digest.
fn parse_digests(text: &str) -> Result<BTreeMap<String, Digest>, String> {
    let mut digests = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (label, hex) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("want `label digest`, got `{line}`"))?;
        let digest = Digest(u64::from_str_radix(hex, 16).map_err(|e| format!("`{hex}`: {e}"))?);
        if *digests.entry(label.to_owned()).or_insert(digest) != digest {
            return Err(format!("`{label}` has two different digests"));
        }
    }
    Ok(digests)
}

/// SplitMix64: a small, fixed, seedable stream for generator choices.
struct Mix(u64);

impl Mix {
    fn new(seed: u64, stream: u64) -> Mix {
        Mix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct entries of `pool`, in drawn order.
    fn pick(&mut self, pool: &[u64], k: usize) -> Vec<u64> {
        let mut pool = pool.to_vec();
        for i in 0..k.min(pool.len()) {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// A value in `[lo, hi)`.
    fn unit(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One `assay_compile` shape: an assay at a scale on a square array, and
/// the fault seeds whose 4% and 8% dead-electrode maps it may draw.
///
/// Fault maps make compile cost heavy-tailed: on most maps a shape costs
/// about the same, on a few it exhausts latency retries and transport
/// sacrifices for seconds. Each pool holds the seeds among 1..=40 whose
/// compile succeeds with `fluidics.route.expansions` within 4% of the
/// shape's commonest value (a deterministic work count), so a pass costs
/// the same at every workload seed while its inputs still differ.
struct Shape {
    assay: AssayKind,
    plex: usize,
    grid_side: i32,
    dead4: &'static [u64],
    dead8: &'static [u64],
}

const SHAPES: [Shape; 6] = [
    Shape {
        assay: AssayKind::SerialDilution,
        plex: 3,
        grid_side: 16,
        dead4: &[
            2, 3, 4, 5, 7, 8, 10, 12, 13, 15, 18, 19, 23, 24, 25, 26, 27, 30, 33, 36, 37, 38, 40,
        ],
        dead8: &[2, 3, 4, 5, 8, 13, 14, 18, 19, 25, 33, 37],
    },
    Shape {
        assay: AssayKind::DilutionGradient,
        plex: 3,
        grid_side: 24,
        dead4: &[
            6, 13, 15, 18, 20, 21, 23, 24, 26, 27, 28, 29, 31, 32, 33, 34, 35, 38, 40,
        ],
        dead8: &[2, 16, 20, 21, 24, 25, 28, 29, 31, 34, 35],
    },
    Shape {
        assay: AssayKind::DilutionGradient,
        plex: 3,
        grid_side: 20,
        dead4: &[1, 3, 4, 5, 7, 8, 13, 19, 22, 23, 24, 29, 30],
        dead8: &[5, 8, 9, 14, 25, 28, 30, 35, 36],
    },
    Shape {
        assay: AssayKind::MixingTree { fanin: 2 },
        plex: 4,
        grid_side: 24,
        dead4: &[5, 9, 22, 26, 27],
        dead8: &[2, 16, 21, 22, 26],
    },
    Shape {
        assay: AssayKind::Multiplex,
        plex: 8,
        grid_side: 24,
        dead4: &[2, 7, 13, 39],
        dead8: &[10, 14, 20, 25, 39],
    },
    Shape {
        assay: AssayKind::Washing { wash_steps: 1 },
        plex: 2,
        grid_side: 20,
        dead4: &[3, 4, 5, 6, 8, 12, 14, 15, 25, 33, 35, 38],
        dead8: &[3, 5, 15, 17, 25, 38, 39],
    },
];

/// Damaged arrays per shape and dead fraction.
const FAULT_MAPS_PER_LEVEL: usize = 3;

/// Fluidics-only sweep: each shape clean and on three 4%- and three
/// 8%-dead arrays drawn from its pools. Every compile misses every stage
/// memo, so schedule and route carry the pass.
pub fn assay_compile(seed: u64) -> Vec<Scenario> {
    let mut rng = Mix::new(seed, 1);
    let mut batch = Vec::new();
    for shape in &SHAPES {
        let scenario = |dead_fraction, fault_seed| {
            Scenario::FluidicsCompile(FluidicsScenario {
                assay: shape.assay,
                plex: shape.plex,
                grid_side: shape.grid_side,
                dead_fraction,
                fault_seed,
            })
        };
        batch.push(scenario(0.0, 0));
        for (dead_fraction, pool) in [(0.04, shape.dead4), (0.08, shape.dead8)] {
            for fault_seed in rng.pick(pool, FAULT_MAPS_PER_LEVEL) {
                batch.push(scenario(dead_fraction, fault_seed));
            }
        }
    }
    batch
}

/// The conformance corpus at the committed seed, in a seed-drawn order.
/// The order changes how work is dealt to workers but not the work, and
/// every seed can be checked against the committed digests.
/// (`conformance_corpus(seed)` itself draws fault maps and biology from
/// the seed, and its serial pass then ranges over 200–300 ms.)
pub fn golden_corpus(seed: u64) -> Vec<Scenario> {
    let mut corpus = conformance_corpus(DEFAULT_SEED);
    let mut rng = Mix::new(seed, 3);
    for i in (1..corpus.len()).rev() {
        corpus.swap(i, rng.below(i + 1));
    }
    corpus
}

/// Biology seeds of the lab-on-chip slice.
const BIOLOGY_SEEDS: usize = 3;

/// Fault maps of the damaged lab-on-chip variants. The pipeline draws
/// its map from `fault_seed ^ run seed`, so `fault_seed = biology ^ map`
/// gives every biology seed the same map, and the same compile cost.
const LABCHIP_FAULT_MAPS: [u64; 3] = [7, 9, 11];

/// A NoC application: a hotspot core plus a seeded neighbour ring and a
/// few seeded long flows, so the partitioner sees a different graph per
/// seed of the same size.
fn noc_app(cores: usize, rng: &mut Mix) -> CommGraph {
    let mut flows = Vec::new();
    for c in 1..cores {
        flows.push(Flow {
            src: c,
            dst: 0,
            rate: rng.unit(0.5, 1.5),
        });
        flows.push(Flow {
            src: c,
            dst: if c + 1 < cores { c + 1 } else { 1 },
            rate: rng.unit(0.1, 0.4),
        });
    }
    for k in 0..cores / 4 {
        let src = 1 + k * 4;
        let dst = 1 + (src + cores / 2) % (cores - 1);
        if dst != src {
            flows.push(Flow {
                src,
                dst,
                rate: rng.unit(0.2, 0.6),
            });
        }
    }
    CommGraph::new(cores, flows)
}

/// Two exploration rounds on one engine. Round 1: lab-on-chip runs over
/// a few biology seeds × plex/fault variants (shared sense/interpret),
/// NoC points over a few apps × a `(max_cluster, shortcuts)` grid
/// (shared partitions), every T-helper knockout and the Arabidopsis
/// whorls, plus clean fluidics compiles, WSN and harvest points that
/// share nothing (the control). The seed draws the biology, the NoC
/// rates and the WSN and harvest fields; shapes stay fixed, so a pass
/// costs about the same at every seed.
/// Round 2 revisits every other round-1 point, repeats a few inside the
/// batch, and adds new points on the same biology seeds and apps.
pub fn stage_reuse(seed: u64) -> Vec<Vec<Scenario>> {
    let mut rng = Mix::new(seed, 2);
    let bio: Vec<u64> = (0..BIOLOGY_SEEDS).map(|_| rng.next() % 1_000_000).collect();
    let labchip = |assay, seed, samples_per_run, dead_fraction, fault_seed| {
        Scenario::LabChip(LabChipScenario {
            assay,
            seed,
            samples_per_run,
            dead_fraction,
            fault_seed,
        })
    };
    let apps: Vec<CommGraph> = [12usize, 16]
        .into_iter()
        .map(|cores| noc_app(cores, &mut rng))
        .collect();
    let noc = |app: &CommGraph, max_cluster, shortcuts| {
        Scenario::NocPoint(NocScenario {
            app: app.clone(),
            max_cluster,
            shortcuts,
        })
    };

    let mut round1 = Vec::new();
    for &b in &bio {
        for samples in 1..=4 {
            round1.push(labchip(AssayKind::Multiplex, b, samples, 0.0, 0));
        }
        round1.push(labchip(
            AssayKind::Multiplex,
            b,
            4,
            0.05,
            b ^ LABCHIP_FAULT_MAPS[0],
        ));
        round1.push(labchip(
            AssayKind::Multiplex,
            b,
            3,
            0.05,
            b ^ LABCHIP_FAULT_MAPS[1],
        ));
        round1.push(labchip(AssayKind::MixingTree { fanin: 2 }, b, 2, 0.0, 0));
        round1.push(labchip(AssayKind::DilutionGradient, b, 2, 0.0, 0));
    }
    for app in &apps {
        for max_cluster in [2, 4, 8] {
            for shortcuts in [0, 2, 4] {
                round1.push(noc(app, max_cluster, shortcuts));
            }
        }
    }
    round1.push(Scenario::Knockout(KnockoutScenario {
        model: GrnModel::THelper,
        knockout: None,
    }));
    for gene in t_helper().genes() {
        round1.push(Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some(gene.clone()),
        }));
    }
    for whorl in 0..4 {
        round1.push(Scenario::Knockout(KnockoutScenario {
            model: GrnModel::Arabidopsis { whorl },
            knockout: None,
        }));
    }
    for protocol in [Protocol::Direct, Protocol::cluster(0.1, true)] {
        round1.push(Scenario::WsnLifetime(WsnScenario {
            nodes: 50,
            side: 110.0,
            protocol,
            failure_rate: 0.0,
            max_rounds: 300,
            seed: rng.next() % 1_000_000,
            policies: None,
        }));
    }
    for policy in [
        PolicyExpr::EnergyNeutral { alpha: 0.02 },
        PolicyExpr::Greedy {
            threshold: 0.5,
            duty_high: 0.9,
            duty_low: 0.1,
        },
    ] {
        round1.push(Scenario::Harvest(HarvestScenario {
            policy,
            days: 8,
            cloudiness: 0.4,
            seed: rng.next() % 1_000_000,
        }));
    }
    for (assay, plex) in [(AssayKind::Multiplex, 3), (AssayKind::SerialDilution, 2)] {
        round1.push(Scenario::FluidicsCompile(FluidicsScenario {
            assay,
            plex,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }));
    }

    let mut round2: Vec<Scenario> = round1.iter().step_by(2).cloned().collect();
    let repeats: Vec<Scenario> = round2.iter().step_by(5).cloned().collect();
    round2.extend(repeats);
    for &b in &bio {
        round2.push(labchip(AssayKind::Multiplex, b, 5, 0.0, 0));
        round2.push(labchip(
            AssayKind::Multiplex,
            b,
            2,
            0.05,
            b ^ LABCHIP_FAULT_MAPS[2],
        ));
    }
    for app in &apps {
        for max_cluster in [2, 4, 8] {
            round2.push(noc(app, max_cluster, 1));
        }
    }
    for (whorl, gene) in [(1, "AP3"), (2, "AG"), (3, "AP3")] {
        round2.push(Scenario::Knockout(KnockoutScenario {
            model: GrnModel::Arabidopsis { whorl },
            knockout: Some(gene.to_owned()),
        }));
    }
    vec![round1, round2]
}

/// Positions (rounds flattened) of the scenarios a runner with a cold
/// outcome cache evaluates: each distinct fingerprint once (its first
/// submission), in label order. The order then does not depend on the
/// order of submission, and on a fresh thread the same kind of scenario
/// pays each memo miss at every seed.
pub fn distinct(rounds: &[Vec<Scenario>]) -> Vec<usize> {
    let batch: Vec<&Scenario> = rounds.iter().flatten().collect();
    let mut first: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in batch.iter().enumerate() {
        first.entry(s.fingerprint()).or_insert(i);
    }
    let mut positions: Vec<usize> = first.into_values().collect();
    positions.sort_by_cached_key(|&i| batch[i].label());
    positions
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn fingerprints(w: Workload, seed: u64) -> Vec<u64> {
        w.rounds(seed)
            .iter()
            .flatten()
            .map(Scenario::fingerprint)
            .collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for w in Workload::ALL {
            assert_eq!(fingerprints(w, 7), fingerprints(w, 7), "{}", w.name());
            assert_ne!(fingerprints(w, 7), fingerprints(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn committed_digests_cover_every_workload() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, DEFAULT_SEED + 1] {
                let rounds = w.rounds(seed);
                let batch: Vec<&Scenario> = rounds.iter().flatten().collect();
                let expected = w.expected(seed, &batch).unwrap();
                // The golden corpus is the committed corpus at every seed.
                let committed = seed == DEFAULT_SEED || w == Workload::GoldenCorpus;
                assert_eq!(
                    expected.map(|e| e.len()),
                    committed.then_some(batch.len()),
                    "{} at seed {seed}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn stage_reuse_shares_upstream_work() {
        let rounds = stage_reuse(DEFAULT_SEED);
        let labchip_seeds: HashSet<u64> = rounds
            .iter()
            .flatten()
            .filter_map(|s| match s {
                Scenario::LabChip(l) => Some(l.seed),
                _ => None,
            })
            .collect();
        assert_eq!(labchip_seeds.len(), BIOLOGY_SEEDS);
        // Round 2 holds revisits and in-batch duplicates.
        let round1: HashSet<u64> = rounds[0].iter().map(Scenario::fingerprint).collect();
        assert!(rounds[1].iter().any(|s| round1.contains(&s.fingerprint())));
        assert!(distinct(&rounds[1..]).len() < rounds[1].len());
    }
}
