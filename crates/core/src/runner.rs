//! Deterministic parallel experiment engine.
//!
//! The keynote's design methodology is *sweep and evaluate*: enumerate a
//! multivariate design space, evaluate every point, keep the interesting
//! ones (slide 15). This module turns that loop into infrastructure. A
//! [`Scenario`] is one self-contained evaluation — a lab-on-chip compile,
//! a NoC synthesis point, a WSN lifetime simulation, a gene knockout —
//! that carries every parameter (including its RNG seed) by value, so
//! running it is a pure function of its description. The [`Runner`]
//! executes a batch of scenarios across N worker threads with
//! work-stealing load balancing and returns outcomes in submission order.
//!
//! ## Determinism rules
//!
//! 1. A scenario owns its whole input, seed included; `Scenario::run`
//!    never reads ambient state (clock, thread id, global RNG).
//! 2. Scenario RNG streams are derived from the scenario's own seed
//!    fields, so evaluation order cannot perturb the draws.
//! 3. The engine assigns results by submission index; worker count and
//!    steal order therefore cannot change the output. Parallel runs are
//!    **byte-identical** to serial runs — `tests/conformance.rs` enforces
//!    this against a committed golden corpus.
//!
//! ## Caching
//!
//! An [`OutcomeCache`] memoizes outcomes under each scenario's wire
//! record ([`manifest::encode_scenario`]), which carries every parameter
//! and every float bit, so two scenarios share a key only if they are
//! equal. A repeated sweep — common when an exploration loop re-visits
//! design points — skips already-evaluated scenarios, and duplicates
//! inside one batch are evaluated once. Keys are compared in full; a hash
//! value never decides a hit. Each [`Runner`] owns one, and so does each
//! `mns-dist` cluster, through the same type: both serve hits and
//! collapse duplicates the same way, and keep outcomes across batches.
//!
//! Each runner also owns a stage memo, which lives as long as the runner:
//! every thread it evaluates on (the caller's thread inline, and each
//! worker) consults the same memo. Lab-on-chip scenarios that share a
//! biology seed sense it once per runner, and scenarios that compile the
//! same chip (a fluidics compile and lab-chip runs of any seed) compile
//! it once per runner, across batches and workers. Each GRN model's
//! knockouts share one engine per runner, and each sensor chemistry's
//! readings are calibrated once per runner, whatever the biology seed.
//! [`Runner::clear_cache`] drops outcomes only. Outside a runner,
//! `Scenario::run` consults a memo private to its thread.
//!
//! ## Sharding
//!
//! A [`Runner`] never splits a batch: [`Runner::run`] has one code path,
//! the worker pool over the whole batch. Splitting a batch into shards is
//! the `mns-dist` cluster scheduler's job. It looks the batch up in its
//! outcome cache, deals the distinct misses with a deterministic
//! [`ShardPlan`] that keeps scenarios sharing a stage on one shard, ships
//! each shard in the [`manifest`] wire format, and evaluates every shard
//! — on a worker, or recovered in this process — through one function: a
//! fresh `Runner` over the shard's scenarios, with its [`BatchStats`]
//! tagged by [`ShardId`]. The cluster's deadlines, crash detection and
//! requeue-on-failure are configured by [`ClusterConfig`]. Because every
//! scenario is a pure function of its fields, a serial run and a cluster
//! sweep at any shard count, in process or across worker processes,
//! produce byte-identical per-scenario digests, and one cluster reused
//! over a series of batches reports the same [`BatchStats::totals`] as
//! one runner reused over them.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use mns_fluidics::compiler::CompilerConfig;
use mns_fluidics::faults::{FaultConfig, FaultModel};
use mns_fluidics::geometry::Grid;
use mns_grn::models::{
    arabidopsis, classify_organ, classify_th, repertoire, t_helper, FloralInputs, Organ,
};
use mns_grn::{BooleanNetwork, State};
use mns_noc::graph::CommGraph;
use mns_noc::power::{area_proxy, PowerModel};
use mns_noc::routing::compute_routes;
use mns_noc::synthesis::{synthesize, SynthesisConfig};
use mns_policy::{PolicyAssignment, PolicyExpr};
use mns_wsn::field::Field;
use mns_wsn::harvest::{simulate_policy, HarvestConfig, SolarModel};
use mns_wsn::protocol::Protocol;
use mns_wsn::sim::{simulate_lifetime, LifetimeConfig};

use crate::labchip::{LabChipPipeline, PipelineConfig};
use crate::memo::{compile_stats, knockout_fixed_points, CompileKey, StageMemo};

pub use mns_fluidics::assay::AssayKind;

pub mod manifest;

/// A 64-bit digest of a scenario outcome, stable across runs, worker
/// counts and processes (the golden corpus commits these values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64);

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a-64 accumulator. [`ScenarioOutcome::digest`] feeds it a
/// canonical field encoding in which every value is framed (tag or length
/// first), so distinct field sequences cannot collide by concatenation;
/// [`Scenario::fingerprint`] feeds it the raw bytes of a wire record.
#[derive(Debug, Clone)]
struct Canon(u64);

impl Canon {
    fn new() -> Self {
        Canon(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Floats hash by IEEE-754 bit pattern: byte-identical is the
    /// conformance contract, not approximate equality.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.byte(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A microfluidic compile scenario: one synthetic assay family
/// ([`AssayKind`]) compiled onto a square array, optionally around a
/// deterministic dead-electrode fault map.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidicsScenario {
    /// Assay family to compile (defaults to the multiplex immunoassay).
    pub assay: AssayKind,
    /// Assay scale: samples/steps/depth/rows, per [`AssayKind`] docs.
    pub plex: usize,
    /// Square array side (electrodes).
    pub grid_side: i32,
    /// Dead-electrode fraction (0 disables fault injection).
    pub dead_fraction: f64,
    /// Fault-map seed (ignored when `dead_fraction` is 0).
    pub fault_seed: u64,
}

/// A full lab-on-chip pipeline run (compile → sense → interpret).
#[derive(Debug, Clone, PartialEq)]
pub struct LabChipScenario {
    /// Assay family the pipeline compiles at each plex level.
    pub assay: AssayKind,
    /// Run seed (biology, sensing noise, fault-map mixing).
    pub seed: u64,
    /// Samples transported per chip run.
    pub samples_per_run: usize,
    /// Dead-electrode fraction (0 disables fault injection).
    pub dead_fraction: f64,
    /// Fault seed, mixed with the run seed by the pipeline.
    pub fault_seed: u64,
}

/// One NoC topology-synthesis design point.
#[derive(Debug, Clone, PartialEq)]
pub struct NocScenario {
    /// The application communication graph.
    pub app: CommGraph,
    /// Cores per leaf router.
    pub max_cluster: usize,
    /// Shortcut-link budget.
    pub shortcuts: usize,
}

/// A WSN lifetime simulation over a random field.
#[derive(Debug, Clone, PartialEq)]
pub struct WsnScenario {
    /// Node count.
    pub nodes: usize,
    /// Field side (m).
    pub side: f64,
    /// Collection protocol.
    pub protocol: Protocol,
    /// Per-node, per-round exogenous failure probability.
    pub failure_rate: f64,
    /// Round cap.
    pub max_rounds: u64,
    /// Field and simulation seed.
    pub seed: u64,
    /// Optional per-node run-time energy-management policies. `None`
    /// reproduces the historical always-active behaviour (and the
    /// historical fingerprint/wire/label bytes) exactly.
    pub policies: Option<PolicyAssignment>,
}

/// A solar-harvesting policy simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestScenario {
    /// Energy-management policy under test — any composable
    /// [`PolicyExpr`]; the primitive expressions evaluate byte-identical
    /// to the historical `DutyPolicy` enum.
    pub policy: PolicyExpr,
    /// Simulated days.
    pub days: u32,
    /// Weather severity in `[0, 1]`.
    pub cloudiness: f64,
    /// Weather seed.
    pub seed: u64,
}

impl HarvestScenario {
    /// The default solar model under this scenario's cloudiness.
    fn solar(&self) -> SolarModel {
        SolarModel {
            cloudiness: self.cloudiness,
            ..SolarModel::default()
        }
    }
}

/// Which published gene-regulatory model a knockout scenario perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrnModel {
    /// The T-helper differentiation network (Mendoza 2006).
    THelper,
    /// The Arabidopsis floral-organ network at the given whorl (0–3).
    Arabidopsis {
        /// Whorl index into [`FloralInputs::whorls`].
        whorl: usize,
    },
}

impl GrnModel {
    /// The model's wild-type network.
    ///
    /// # Panics
    ///
    /// Panics if an Arabidopsis whorl is 4 or more.
    pub(crate) fn network(self) -> BooleanNetwork {
        match self {
            GrnModel::THelper => t_helper(),
            GrnModel::Arabidopsis { whorl } => arabidopsis(FloralInputs::whorls()[whorl]),
        }
    }
}

/// An in-silico knockout screen point: one model, zero or one knockout.
#[derive(Debug, Clone, PartialEq)]
pub struct KnockoutScenario {
    /// The model to perturb.
    pub model: GrnModel,
    /// Gene to knock out (`None` = wild type).
    pub knockout: Option<String>,
}

/// One self-contained, deterministic experiment evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Microfluidic assay compile (optionally fault-injected).
    FluidicsCompile(FluidicsScenario),
    /// End-to-end lab-on-chip pipeline run.
    LabChip(LabChipScenario),
    /// NoC synthesis + routing design point.
    NocPoint(NocScenario),
    /// WSN lifetime simulation.
    WsnLifetime(WsnScenario),
    /// Harvesting-policy simulation.
    Harvest(HarvestScenario),
    /// GRN knockout screen point.
    Knockout(KnockoutScenario),
}

impl Scenario {
    /// Telemetry span name for this scenario family (stable across
    /// parameter changes, so traces aggregate by kind).
    pub fn family(&self) -> &'static str {
        match self {
            Scenario::FluidicsCompile(_) => "scenario.fluidics",
            Scenario::LabChip(_) => "scenario.labchip",
            Scenario::NocPoint(_) => "scenario.noc",
            Scenario::WsnLifetime(_) => "scenario.wsn",
            Scenario::Harvest(_) => "scenario.harvest",
            Scenario::Knockout(_) => "scenario.knockout",
        }
    }

    /// FNV-1a-64 over the scenario's wire record
    /// ([`manifest::encode_scenario`]), stable across runs and processes.
    /// Distinct scenarios can share a 64-bit value, so no cache hit or
    /// dedup decision rests on it: an [`OutcomeCache`] keys both on the
    /// full record. It orders [`ShardPlan`] deals.
    pub fn fingerprint(&self) -> u64 {
        let mut c = Canon::new();
        for b in manifest::encode_scenario(self).bytes() {
            c.byte(b);
        }
        c.finish()
    }

    /// The stage memo entry this scenario shares with others, which a
    /// [`ShardPlan`] keeps on one shard; `fingerprint` is this scenario's.
    ///
    /// This is the sense or NoC-partition entry only. Compile sharing
    /// crosses biology seeds (a fluidics compile and lab-chip runs of any
    /// seed can compile one chip), and a `ShardPlan` does not group by
    /// it: scenarios that share only a compile may land on different
    /// shards and each compile it there. The same holds for a GRN
    /// model's knockout engine and a chemistry's calibration table: each
    /// shard that runs a model's knockouts, or senses with a chemistry,
    /// builds its own.
    fn stage_key(&self, fingerprint: u64) -> StageKey {
        match self {
            Scenario::LabChip(s) => StageKey::BiologySeed(s.seed),
            Scenario::NocPoint(s) => {
                let mut c = Canon::new();
                c.usize(s.app.cores());
                for f in s.app.flows() {
                    c.usize(f.src);
                    c.usize(f.dst);
                    c.f64(f.rate);
                }
                StageKey::App(c.finish())
            }
            _ => StageKey::Own(fingerprint),
        }
    }

    /// Human-readable corpus label (unique per distinct scenario in the
    /// golden corpus; golden files key on it).
    pub fn label(&self) -> String {
        match self {
            Scenario::FluidicsCompile(s) => format!(
                "fluidics/{}-g{}-dead{}pm-s{}",
                s.assay.describe(s.plex),
                s.grid_side,
                (s.dead_fraction * 1000.0).round() as u64,
                s.fault_seed
            ),
            Scenario::LabChip(s) => {
                // The original multiplex corpus labels predate the assay
                // axis and must stay byte-identical; other kinds prefix.
                let kind = match s.assay {
                    AssayKind::Multiplex => String::new(),
                    AssayKind::SerialDilution => "dilution-".to_owned(),
                    AssayKind::Washing { wash_steps } => format!("wash{wash_steps}-"),
                    AssayKind::MixingTree { fanin } => format!("mixtree{fanin}-"),
                    AssayKind::DilutionGradient => "gradient-".to_owned(),
                };
                format!(
                    "labchip/{}seed{}-n{}-dead{}pm-f{}",
                    kind,
                    s.seed,
                    s.samples_per_run,
                    (s.dead_fraction * 1000.0).round() as u64,
                    s.fault_seed
                )
            }
            Scenario::NocPoint(s) => format!(
                "noc/c{}-e{}-k{}-x{}",
                s.app.cores(),
                s.app.flows().len(),
                s.max_cluster,
                s.shortcuts
            ),
            Scenario::WsnLifetime(s) => {
                // Heterogeneous-policy runs get a suffix; `None` keeps
                // the exact historical label bytes.
                let policy_suffix = match &s.policies {
                    None => String::new(),
                    Some(a) => format!("-p{}", a.label()),
                };
                format!(
                    "wsn/{}-n{}-r{}-f{}pm-s{}{}",
                    s.protocol.label(),
                    s.nodes,
                    s.max_rounds,
                    (s.failure_rate * 1000.0).round() as u64,
                    s.seed,
                    policy_suffix
                )
            }
            Scenario::Harvest(s) => format!(
                "harvest/{}-d{}-c{}pm-s{}",
                s.policy.label(),
                s.days,
                (s.cloudiness * 1000.0).round() as u64,
                s.seed
            ),
            Scenario::Knockout(s) => {
                let model = match s.model {
                    GrnModel::THelper => "thelper".to_owned(),
                    GrnModel::Arabidopsis { whorl } => format!("arabidopsis-w{whorl}"),
                };
                match &s.knockout {
                    None => format!("grn/{model}/wild"),
                    Some(g) => format!("grn/{model}/ko-{g}"),
                }
            }
        }
    }

    /// Checks that the scenario is one [`Scenario::run`] can take. This
    /// is the one list of what a runnable scenario is, and
    /// [`manifest::decode_scenario`] rejects every record whose scenario
    /// it rejects. Each rule that a domain type owns is asked of that
    /// type, such as [`Grid::new`] or [`PolicyExpr::validate`].
    ///
    /// # Errors
    ///
    /// Returns a message that names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Scenario::FluidicsCompile(s) => {
                Grid::new(s.grid_side, s.grid_side)
                    .map_err(|e| format!("fluidics grid_side {}: {e}", s.grid_side))?;
                s.assay
                    .validate_scale(s.plex)
                    .map_err(|e| format!("fluidics plex {}: {e}", s.plex))?;
                FaultConfig::dead(s.fault_seed, s.dead_fraction)
                    .validate()
                    .map_err(|e| format!("fluidics {e}"))
            }
            Scenario::LabChip(s) => {
                s.assay
                    .validate_scale(s.samples_per_run)
                    .map_err(|e| format!("labchip samples_per_run {}: {e}", s.samples_per_run))?;
                FaultConfig::dead(s.fault_seed, s.dead_fraction)
                    .validate()
                    .map_err(|e| format!("labchip {e}"))
            }
            Scenario::NocPoint(s) if s.max_cluster == 0 => Err("noc max_cluster is 0".to_owned()),
            Scenario::NocPoint(_) => Ok(()),
            Scenario::WsnLifetime(s) => {
                Field::validate_random(s.nodes, s.side).map_err(|e| format!("wsn {e}"))?;
                s.protocol.validate().map_err(|e| format!("wsn {e}"))?;
                if !(0.0..=1.0).contains(&s.failure_rate) {
                    return Err(format!(
                        "wsn failure_rate {} is not in [0, 1]",
                        s.failure_rate
                    ));
                }
                match &s.policies {
                    Some(a) => a
                        .validate()
                        .map_err(|e| format!("invalid policy assignment: {e}")),
                    None => Ok(()),
                }
            }
            Scenario::Harvest(s) => {
                s.policy
                    .validate()
                    .map_err(|e| format!("invalid harvest policy: {e}"))?;
                if s.days == 0 {
                    return Err("harvest days is 0".to_owned());
                }
                s.solar().validate().map_err(|e| format!("harvest {e}"))
            }
            Scenario::Knockout(s) => {
                let whorls = FloralInputs::whorls().len();
                match (s.model, &s.knockout) {
                    (GrnModel::Arabidopsis { whorl }, _) if whorl >= whorls => {
                        Err(format!("grn whorl {whorl} is not below {whorls}"))
                    }
                    (model, Some(gene)) if model.network().gene_index(gene).is_none() => {
                        Err(format!("grn knockout gene `{gene}` is not in the model"))
                    }
                    _ => Ok(()),
                }
            }
        }
    }

    /// Evaluates the scenario. Pure: the result depends only on the
    /// scenario fields, never on execution order or thread.
    ///
    /// # Panics
    ///
    /// May panic on a scenario that [`Scenario::validate`] rejects.
    pub fn run(&self) -> ScenarioOutcome {
        match self {
            Scenario::FluidicsCompile(s) => {
                let chip = CompilerConfig {
                    grid_width: s.grid_side,
                    grid_height: s.grid_side,
                    ..CompilerConfig::default()
                };
                let grid = Grid::new(s.grid_side, s.grid_side).expect("a grid_side of 3 or more");
                let faults = if s.dead_fraction > 0.0 {
                    FaultModel::generate(&FaultConfig::dead(s.fault_seed, s.dead_fraction), &grid)
                } else {
                    FaultModel::none()
                };
                let key = CompileKey {
                    assay: s.assay,
                    scale: s.plex,
                    chip,
                    faults,
                };
                match compile_stats(key) {
                    Ok(stats) => ScenarioOutcome::Fluidics {
                        compiled: true,
                        makespan: stats.makespan,
                        moves: stats.route_moves,
                        stalls: stats.route_stalls,
                        energy: stats.energy,
                        reroutes: stats.reroutes,
                        abandoned: stats.abandoned,
                    },
                    Err(_) => ScenarioOutcome::Fluidics {
                        compiled: false,
                        makespan: 0,
                        moves: 0,
                        stalls: 0,
                        energy: 0,
                        reroutes: 0,
                        abandoned: 0,
                    },
                }
            }
            Scenario::LabChip(s) => {
                let cfg = PipelineConfig {
                    assay: s.assay,
                    samples_per_run: s.samples_per_run,
                    fault: (s.dead_fraction > 0.0)
                        .then(|| FaultConfig::dead(s.fault_seed, s.dead_fraction)),
                    ..PipelineConfig::default()
                };
                match LabChipPipeline::new(cfg).run(s.seed) {
                    Ok(r) => ScenarioOutcome::LabChip {
                        ok: true,
                        makespan: r.routing.makespan,
                        energy: r.routing.energy,
                        sensing_error: r.sensing_error,
                        biclusters: r.mining.biclusters.len(),
                        recovery: r.interpretation.recovery,
                        relevance: r.interpretation.relevance,
                        samples_dropped: r.faults.samples_dropped,
                    },
                    Err(_) => ScenarioOutcome::LabChip {
                        ok: false,
                        makespan: 0,
                        energy: 0,
                        sensing_error: 0.0,
                        biclusters: 0,
                        recovery: 0.0,
                        relevance: 0.0,
                        samples_dropped: 0,
                    },
                }
            }
            Scenario::NocPoint(s) => {
                let topo = synthesize(
                    &s.app,
                    &SynthesisConfig {
                        max_cluster: s.max_cluster,
                        shortcuts: s.shortcuts,
                        ..SynthesisConfig::default()
                    },
                );
                match compute_routes(&topo, &s.app) {
                    Ok(routes) => ScenarioOutcome::Noc {
                        feasible: true,
                        weighted_hops: routes.weighted_hops,
                        energy: PowerModel::default().traffic_energy(&topo, &s.app, &routes.paths),
                        area: area_proxy(&topo),
                        deadlock_free: routes.deadlock_free,
                    },
                    Err(_) => ScenarioOutcome::Noc {
                        feasible: false,
                        weighted_hops: 0.0,
                        energy: 0.0,
                        area: 0.0,
                        deadlock_free: false,
                    },
                }
            }
            Scenario::WsnLifetime(s) => {
                let field = Field::random(s.nodes, s.side, s.seed);
                let stats = simulate_lifetime(
                    &field,
                    s.protocol,
                    &LifetimeConfig {
                        max_rounds: s.max_rounds,
                        failure_rate: s.failure_rate,
                        seed: s.seed,
                        policies: s.policies.clone(),
                        ..LifetimeConfig::default()
                    },
                );
                ScenarioOutcome::Wsn {
                    first_death: stats.first_death_round,
                    half_death: stats.half_death_round,
                    rounds: stats.rounds,
                    sensed: stats.sensed,
                    delivered: stats.delivered,
                    avg_coverage: stats.avg_coverage,
                    energy_spent: stats.energy_spent,
                }
            }
            Scenario::Harvest(s) => {
                let stats = simulate_policy(
                    &s.policy,
                    &HarvestConfig {
                        days: s.days,
                        seed: s.seed,
                        solar: s.solar(),
                        ..HarvestConfig::default()
                    },
                );
                ScenarioOutcome::Harvest {
                    work: stats.work,
                    dead_slots: stats.dead_slots,
                    total_slots: stats.total_slots,
                    wasted: stats.wasted,
                    harvested: stats.harvested,
                    final_battery: stats.final_battery,
                }
            }
            Scenario::Knockout(s) => {
                let (model, states) = knockout_fixed_points(s.model, s.knockout.as_deref());
                // The states come sorted. The wild-type network classifies
                // them: it has the mutant's gene names.
                let bits: Vec<u64> = states.iter().map(|st| st.bits()).collect();
                let labels: Vec<String> = match s.model {
                    GrnModel::THelper => states
                        .iter()
                        .map(|&st| format!("{:?}", classify_th(&model.net, st)))
                        .collect(),
                    GrnModel::Arabidopsis { .. } => {
                        let fates: Vec<(State, Organ)> = states
                            .iter()
                            .map(|&st| (st, classify_organ(&model.net, st)))
                            .collect();
                        repertoire(&fates).iter().map(ToString::to_string).collect()
                    }
                };
                ScenarioOutcome::Knockout {
                    fixed_points: bits,
                    annotation: labels.join("/"),
                }
            }
        }
    }
}

/// The structured result of one scenario evaluation. Equality is exact
/// (floats included): two outcomes are equal iff they are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// Microfluidic compile result (all zeros when `compiled` is false).
    Fluidics {
        /// Whether the assay compiled onto the (possibly faulty) array.
        compiled: bool,
        /// Schedule makespan in ticks.
        makespan: u32,
        /// Total droplet moves.
        moves: u32,
        /// Total droplet stalls.
        stalls: u32,
        /// Electrode activations.
        energy: u64,
        /// Failed routing attempts that forced a recompile.
        reroutes: u32,
        /// Waste transports sacrificed for routability.
        abandoned: u32,
    },
    /// Lab-on-chip pipeline result (all zeros when `ok` is false).
    LabChip {
        /// Whether the pipeline completed.
        ok: bool,
        /// Compile makespan.
        makespan: u32,
        /// Electrode activations.
        energy: u64,
        /// Mean absolute sensing error (expression units).
        sensing_error: f64,
        /// Maximal biclusters mined.
        biclusters: usize,
        /// Recovery versus the implanted truth.
        recovery: f64,
        /// Relevance versus the implanted truth.
        relevance: f64,
        /// Samples shed to fit a faulty array.
        samples_dropped: usize,
    },
    /// NoC design-point result (zeros when `feasible` is false).
    Noc {
        /// Whether a route set exists.
        feasible: bool,
        /// Rate-weighted mean hops.
        weighted_hops: f64,
        /// Rate-weighted energy per flit.
        energy: f64,
        /// Router area proxy.
        area: f64,
        /// Whether the route set is certified deadlock-free.
        deadlock_free: bool,
    },
    /// WSN lifetime result.
    Wsn {
        /// Round of the first node death.
        first_death: u64,
        /// Round at which half the nodes were dead.
        half_death: u64,
        /// Rounds simulated.
        rounds: u64,
        /// Packets sensed.
        sensed: u64,
        /// Packets delivered to the sink.
        delivered: u64,
        /// Time-averaged coverage.
        avg_coverage: f64,
        /// Total radio energy spent (J).
        energy_spent: f64,
    },
    /// Harvesting-policy result.
    Harvest {
        /// Seconds of active service delivered.
        work: f64,
        /// Slots spent browned out.
        dead_slots: u64,
        /// Slots simulated.
        total_slots: u64,
        /// Energy lost to battery overflow (J).
        wasted: f64,
        /// Total solar income (J).
        harvested: f64,
        /// Battery level at the end of the run (J).
        final_battery: f64,
    },
    /// Knockout screen result.
    Knockout {
        /// Fixed-point state bitmasks, ascending.
        fixed_points: Vec<u64>,
        /// Domain annotation joined with `/`: the T-helper fates in
        /// fixed-point order, or the distinct floral organs by name.
        annotation: String,
    },
}

impl ScenarioOutcome {
    /// Canonical digest of the outcome; the unit of golden-corpus
    /// comparison. Floats enter by IEEE bit pattern, so equal digests
    /// mean byte-identical results.
    pub fn digest(&self) -> Digest {
        let mut c = Canon::new();
        match self {
            ScenarioOutcome::Fluidics {
                compiled,
                makespan,
                moves,
                stalls,
                energy,
                reroutes,
                abandoned,
            } => {
                c.byte(1);
                c.bool(*compiled);
                c.u64(u64::from(*makespan));
                c.u64(u64::from(*moves));
                c.u64(u64::from(*stalls));
                c.u64(*energy);
                c.u64(u64::from(*reroutes));
                c.u64(u64::from(*abandoned));
            }
            ScenarioOutcome::LabChip {
                ok,
                makespan,
                energy,
                sensing_error,
                biclusters,
                recovery,
                relevance,
                samples_dropped,
            } => {
                c.byte(2);
                c.bool(*ok);
                c.u64(u64::from(*makespan));
                c.u64(*energy);
                c.f64(*sensing_error);
                c.usize(*biclusters);
                c.f64(*recovery);
                c.f64(*relevance);
                c.usize(*samples_dropped);
            }
            ScenarioOutcome::Noc {
                feasible,
                weighted_hops,
                energy,
                area,
                deadlock_free,
            } => {
                c.byte(3);
                c.bool(*feasible);
                c.f64(*weighted_hops);
                c.f64(*energy);
                c.f64(*area);
                c.bool(*deadlock_free);
            }
            ScenarioOutcome::Wsn {
                first_death,
                half_death,
                rounds,
                sensed,
                delivered,
                avg_coverage,
                energy_spent,
            } => {
                c.byte(4);
                c.u64(*first_death);
                c.u64(*half_death);
                c.u64(*rounds);
                c.u64(*sensed);
                c.u64(*delivered);
                c.f64(*avg_coverage);
                c.f64(*energy_spent);
            }
            ScenarioOutcome::Harvest {
                work,
                dead_slots,
                total_slots,
                wasted,
                harvested,
                final_battery,
            } => {
                c.byte(5);
                c.f64(*work);
                c.u64(*dead_slots);
                c.u64(*total_slots);
                c.f64(*wasted);
                c.f64(*harvested);
                c.f64(*final_battery);
            }
            ScenarioOutcome::Knockout {
                fixed_points,
                annotation,
            } => {
                c.byte(6);
                c.usize(fixed_points.len());
                for &b in fixed_points {
                    c.u64(b);
                }
                c.str(annotation);
            }
        }
        Digest(c.finish())
    }
}

/// Identifies one shard of a cluster sweep. [`Runner::run`] reports
/// everything under `ShardId(0)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// What a scenario shares with other scenarios in a stage memo. Scenarios
/// with one key are kept on one shard, so the shard computes that stage
/// once. Two scenarios that share a key by a hash collision only share a
/// shard: the key never decides an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StageKey {
    /// A lab-chip run's biology seed: the only field of the sense memo's
    /// key that a scenario sets.
    BiologySeed(u64),
    /// A hash of a NoC point's application graph, which keys the NoC
    /// partition memo.
    App(u64),
    /// Any other scenario's own fingerprint.
    Own(u64),
}

/// A deterministic partition of a batch into shards.
///
/// Each shard holds the *global submission indices* of its scenarios,
/// sorted ascending, so each scenario's outcome slot keeps its batch-wide
/// meaning no matter which shard (or process) evaluates it. Telemetry
/// task spans do not: a shard runs on its own [`Runner`], which keys them
/// by position within the shard. Every index appears in exactly one
/// shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    assignments: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Splits `scenarios` into `shards` shards (at least 1), keeping
    /// scenarios that share a stage on one shard: lab-chip runs of one
    /// biology seed, NoC points of one application graph, and copies of
    /// one scenario.
    ///
    /// Each such group is taken in `(fingerprint, submission index)` order
    /// and cut into chunks of at most ⌈n/shards⌉ scenarios, so no group
    /// can hold more than its share of the batch. Chunks are dealt largest
    /// first, each to the shard holding the fewest scenarios (ties to the
    /// lower id); so shard sizes differ by at most the largest chunk. The
    /// scenario→shard assignment depends only on the batch *contents*:
    /// reordering the batch cannot move a scenario to a different shard.
    pub fn split(scenarios: &[Scenario], shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let mut groups: BTreeMap<StageKey, Vec<(u64, usize)>> = BTreeMap::new();
        for (i, s) in scenarios.iter().enumerate() {
            let fingerprint = s.fingerprint();
            groups
                .entry(s.stage_key(fingerprint))
                .or_default()
                .push((fingerprint, i));
        }
        let cap = scenarios.len().div_ceil(shards).max(1);
        let mut chunks: Vec<&[(u64, usize)]> = Vec::new();
        for group in groups.values_mut() {
            group.sort_unstable();
            chunks.extend(group.chunks(cap));
        }
        // Stable: equal sizes keep stage-key order, a content order.
        chunks.sort_by_key(|chunk| std::cmp::Reverse(chunk.len()));
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for chunk in chunks {
            let lightest = (0..shards)
                .min_by_key(|&k| assignments[k].len())
                .expect("at least one shard");
            assignments[lightest].extend(chunk.iter().map(|&(_, i)| i));
        }
        // Submission order within a shard, whatever the deal order was.
        for shard in &mut assignments {
            shard.sort_unstable();
        }
        ShardPlan { assignments }
    }

    /// Number of shards in the plan (some may be empty).
    pub fn shards(&self) -> usize {
        self.assignments.len()
    }

    /// Global submission indices assigned to `shard`, sorted ascending.
    pub fn indices(&self, shard: ShardId) -> &[usize] {
        &self.assignments[shard.0 as usize]
    }

    /// Iterates `(shard id, indices)` pairs in shard order.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &[usize])> {
        self.assignments.iter().enumerate().map(|(k, v)| {
            let id = u32::try_from(k).expect("shard count fits in u32");
            (ShardId(id), v.as_slice())
        })
    }
}

/// The per-worker half of a [`ClusterConfig`]: the thread count inside
/// each cluster worker, and the number of shards the cluster plans. A
/// [`Runner`] itself takes only a thread count
/// ([`Runner::with_workers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Threads inside each cluster worker's [`Runner`]; 0 means one per
    /// available hardware thread.
    pub workers: usize,
    /// Shards the cluster's [`ShardPlan`] splits a batch into (at least
    /// 1).
    pub shards: usize,
}

/// Cluster-level parameters for the `mns-dist` scheduler. The thread
/// count inside each worker and the shard count live in
/// [`ClusterConfig::runner`]; this struct adds only what a *fleet* of
/// workers needs: how many endpoints, how long a shard may take, how
/// liveness is judged, and whether workers report telemetry. How
/// retries back off, how many attempts a shard gets and how long the
/// fleet may take to register are fixed in the scheduler.
///
/// ```
/// use std::time::Duration;
/// use mns_core::runner::ClusterConfig;
///
/// let cfg = ClusterConfig::new()
///     .workers(4)
///     .shards(8)
///     .liveness_window(Duration::from_secs(1));
/// assert_eq!(cfg.workers, 4);
/// assert_eq!(cfg.runner.shards, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Per-worker engine parameters: `runner.workers` is the thread
    /// count *inside each* cluster worker, and `runner.shards` sizes the
    /// [`ShardPlan`].
    pub runner: RunnerConfig,
    /// Cluster worker endpoints to launch (clamped to at least 1).
    pub workers: usize,
    /// Per-shard wall-clock deadline: a worker still holding a shard past
    /// it is declared dead and the shard requeued.
    pub shard_deadline: Duration,
    /// How often workers emit heartbeats.
    pub heartbeat_interval: Duration,
    /// A busy worker silent for longer than this is declared dead and
    /// its shard requeued.
    pub liveness_window: Duration,
    /// Ask dedicated worker processes for per-shard telemetry snapshots
    /// and merge them into the cluster report.
    pub collect_metrics: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            runner: RunnerConfig {
                workers: 1,
                shards: 4,
            },
            workers: 2,
            shard_deadline: Duration::from_secs(120),
            heartbeat_interval: Duration::from_millis(50),
            liveness_window: Duration::from_secs(2),
            collect_metrics: false,
        }
    }
}

impl ClusterConfig {
    /// The default configuration: 2 workers × 1 thread, 4 shards.
    pub fn new() -> ClusterConfig {
        ClusterConfig::default()
    }

    /// Sets the cluster worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ClusterConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the thread count inside each worker (0 = hardware default).
    #[must_use]
    pub fn threads_per_worker(mut self, threads: usize) -> ClusterConfig {
        self.runner.workers = threads;
        self
    }

    /// Sets the shard count (clamped to at least 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> ClusterConfig {
        self.runner.shards = shards.max(1);
        self
    }

    /// Sets the per-shard deadline (default 120 s).
    #[must_use]
    pub fn shard_deadline(mut self, deadline: Duration) -> ClusterConfig {
        self.shard_deadline = deadline;
        self
    }

    /// Sets the worker heartbeat interval.
    #[must_use]
    pub fn heartbeat_interval(mut self, interval: Duration) -> ClusterConfig {
        self.heartbeat_interval = interval;
        self
    }

    /// Sets the silence window after which a busy worker is declared
    /// dead.
    #[must_use]
    pub fn liveness_window(mut self, window: Duration) -> ClusterConfig {
        self.liveness_window = window;
        self
    }

    /// Asks workers for per-shard telemetry snapshots.
    #[must_use]
    pub fn collect_metrics(mut self, collect: bool) -> ClusterConfig {
        self.collect_metrics = collect;
        self
    }
}

/// Counters for one worker thread within a single batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerBatchStats {
    /// Shard this worker served (`ShardId(0)` from [`Runner::run`]).
    pub shard: ShardId,
    /// Worker index within its shard's pool.
    pub worker: u32,
    /// Scenarios this worker evaluated.
    pub executed: u64,
    /// Jobs this worker took from a sibling's queue.
    pub steals: u64,
}

/// Shard- and worker-layout-independent batch counters: the unit of
/// cross-mode stats comparison. Serial, parallel and cluster runs of
/// the same batch must agree on these even though their `per_worker`
/// layouts reflect different topologies. Steals are not among them:
/// they are 0 in a serial run and depend on thread scheduling above one
/// thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTotals {
    /// Scenarios submitted.
    pub scenarios: u64,
    /// Scenarios actually evaluated.
    pub executed: u64,
    /// Outcomes served from the outcome cache.
    pub cache_hits: u64,
    /// Duplicate submissions collapsed in-batch.
    pub deduped: u64,
}

/// Per-batch execution breakdown carried by [`BatchReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Shard these stats describe: `ShardId(0)` from [`Runner::run`], the
    /// shard's own id from a cluster worker. A merged report keeps the
    /// *smallest* contributing shard id (`min` is associative and
    /// commutative, so merge order cannot change it); per-shard identity
    /// survives in `per_worker[..].shard` and in the cluster report's
    /// per-shard rows.
    pub shard: ShardId,
    /// Scenarios submitted in the batch.
    pub scenarios: u64,
    /// Scenarios actually evaluated (after cache and in-batch dedup).
    pub executed: u64,
    /// Outcomes served from the cross-batch outcome cache.
    pub cache_hits: u64,
    /// Duplicate submissions collapsed inside this batch.
    pub deduped: u64,
    /// Jobs taken from a sibling's queue, summed over workers.
    pub steals: u64,
    /// Per-worker breakdown. For a single shard this is indexed by worker
    /// id; a merged report holds the union of all shards' rows, sorted by
    /// `(shard, worker)`.
    pub per_worker: Vec<WorkerBatchStats>,
}

impl BatchStats {
    /// Evaluations done by the busiest worker (0 for an all-cached batch).
    pub fn max_worker_executed(&self) -> u64 {
        self.per_worker
            .iter()
            .map(|w| w.executed)
            .max()
            .unwrap_or(0)
    }

    /// Load balance: ideal per-worker share of evaluations relative to
    /// the busiest worker's actual load (1.0 = perfectly balanced).
    ///
    /// Edge cases are *defined* as vacuously balanced: a batch where
    /// nothing executed (all cached/empty) and a single-worker batch both
    /// return exactly `1.0` — no worker can be over- or under-loaded.
    pub fn balance(&self) -> f64 {
        let max = self.max_worker_executed();
        if max == 0 || self.per_worker.len() <= 1 {
            return 1.0;
        }
        let ideal = self.executed as f64 / self.per_worker.len() as f64;
        (ideal / max as f64).min(1.0)
    }

    /// The layout-independent counters (see [`BatchTotals`]).
    pub fn totals(&self) -> BatchTotals {
        BatchTotals {
            scenarios: self.scenarios,
            executed: self.executed,
            cache_hits: self.cache_hits,
            deduped: self.deduped,
        }
    }

    /// Folds `other` into `self`.
    ///
    /// Associative and order-insensitive: scalar counters are summed,
    /// `shard` keeps the minimum contributing id, and the `per_worker`
    /// rows are unioned on the `(shard, worker)` key (duplicate keys sum
    /// field-wise) and stored sorted by that key — so any merge tree over
    /// the same set of shard stats yields the same value.
    /// `tests/conformance.rs` proptests this.
    pub fn merge(&mut self, other: &BatchStats) {
        self.shard = self.shard.min(other.shard);
        self.scenarios += other.scenarios;
        self.executed += other.executed;
        self.cache_hits += other.cache_hits;
        self.deduped += other.deduped;
        self.steals += other.steals;
        let mut rows: BTreeMap<(ShardId, u32), WorkerBatchStats> = BTreeMap::new();
        for w in self
            .per_worker
            .drain(..)
            .chain(other.per_worker.iter().copied())
        {
            rows.entry((w.shard, w.worker))
                .and_modify(|r| {
                    r.executed += w.executed;
                    r.steals += w.steals;
                })
                .or_insert(w);
        }
        self.per_worker = rows.into_values().collect();
    }

    /// Merges a sequence of per-shard stats into one batch-wide report
    /// (the default/empty stats when `parts` is empty).
    pub fn merged(parts: &[BatchStats]) -> BatchStats {
        let mut iter = parts.iter();
        let Some(first) = iter.next() else {
            return BatchStats::default();
        };
        let mut acc = first.clone();
        for part in iter {
            acc.merge(part);
        }
        acc
    }
}

/// Everything [`Runner::run`] knows about one evaluated batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Outcomes in submission order, one per submitted scenario.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Execution stats for the whole batch.
    pub stats: BatchStats,
}

impl BatchReport {
    /// Per-scenario outcome digests, in submission order.
    pub fn digests(&self) -> Vec<Digest> {
        self.outcomes.iter().map(ScenarioOutcome::digest).collect()
    }
}

/// Scenario outcomes that last across batches, keyed by each scenario's
/// full wire record ([`manifest::encode_scenario`]). The record carries
/// every parameter and every float bit, so two scenarios share an entry
/// only if they are equal; keys are compared in full, and a hash value
/// never decides a hit. A [`Runner`] owns one, and so does the `mns-dist`
/// cluster.
///
/// A batch goes through it in two steps: [`OutcomeCache::lookup`] serves
/// the hits and names one representative per distinct miss; the owner
/// evaluates those, and [`OutcomeCache::fill`] stores them and returns
/// every outcome in submission order.
#[derive(Debug, Default)]
pub struct OutcomeCache {
    outcomes: HashMap<String, ScenarioOutcome>,
}

/// One batch looked up in an [`OutcomeCache`]: the hits it served, and
/// the distinct misses still to evaluate.
#[derive(Debug)]
#[must_use = "a lookup's misses must be evaluated and filled"]
pub struct Lookup {
    outcomes: Vec<Option<ScenarioOutcome>>,
    /// One representative submission index per distinct miss, ascending.
    misses: Vec<usize>,
    /// Each distinct miss's record, mapped to its representative.
    pending: HashMap<String, usize>,
    /// `(duplicate, representative)` index pairs.
    duplicates: Vec<(usize, usize)>,
    cache_hits: u64,
}

impl OutcomeCache {
    /// Looks `scenarios` up: serves each cached one, and collapses
    /// uncached copies of one scenario onto the first copy. Each scenario
    /// is encoded once.
    pub fn lookup(&self, scenarios: &[Scenario]) -> Lookup {
        let mut lookup = Lookup {
            outcomes: vec![None; scenarios.len()],
            misses: Vec::new(),
            pending: HashMap::new(),
            duplicates: Vec::new(),
            cache_hits: 0,
        };
        for (i, scenario) in scenarios.iter().enumerate() {
            let record = manifest::encode_scenario(scenario);
            if let Some(hit) = self.outcomes.get(&record) {
                lookup.outcomes[i] = Some(hit.clone());
                lookup.cache_hits += 1;
                continue;
            }
            match lookup.pending.entry(record) {
                Entry::Occupied(e) => lookup.duplicates.push((i, *e.get())),
                Entry::Vacant(e) => {
                    lookup.misses.push(i);
                    e.insert(i);
                }
            }
        }
        lookup
    }

    /// Completes a lookup of this cache with `fresh`, one
    /// `(submission index, outcome)` pair per miss in any order: stores
    /// each fresh outcome and returns every outcome of the batch in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Panics if `fresh` leaves a miss without an outcome.
    pub fn fill(
        &mut self,
        lookup: Lookup,
        fresh: impl IntoIterator<Item = (usize, ScenarioOutcome)>,
    ) -> Vec<ScenarioOutcome> {
        let mut outcomes = lookup.outcomes;
        for (i, outcome) in fresh {
            outcomes[i] = Some(outcome);
        }
        for (i, job) in lookup.duplicates {
            outcomes[i] = outcomes[job].clone();
        }
        for (record, job) in lookup.pending {
            let outcome = outcomes[job].clone().expect("every miss was evaluated");
            self.outcomes.insert(record, outcome);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every scenario is resolved"))
            .collect()
    }

    /// Forgets every outcome.
    pub fn clear(&mut self) {
        self.outcomes.clear();
    }
}

impl Lookup {
    /// One representative submission index per distinct miss, ascending:
    /// the scenarios left to evaluate.
    pub fn misses(&self) -> &[usize] {
        &self.misses
    }

    /// Scenarios served from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Uncached copies collapsed onto an earlier copy in the batch.
    pub fn deduped(&self) -> u64 {
        self.duplicates.len() as u64
    }
}

/// One worker thread per available hardware thread (what
/// [`Runner::with_workers`]`(0)` resolves to).
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The deterministic work-stealing scenario engine: worker threads, an
/// [`OutcomeCache`] and a stage memo.
///
/// ```
/// use mns_core::runner::{Runner, Scenario, HarvestScenario};
/// use mns_policy::PolicyExpr;
///
/// let batch = vec![Scenario::Harvest(HarvestScenario {
///     policy: PolicyExpr::Fixed(0.3),
///     days: 2,
///     cloudiness: 0.4,
///     seed: 1,
/// })];
/// let serial = Runner::serial().run(&batch);
/// let parallel = Runner::with_workers(4).run(&batch);
/// // Byte-identical at any worker count.
/// assert_eq!(serial.outcomes, parallel.outcomes);
/// ```
#[derive(Debug)]
pub struct Runner {
    workers: usize,
    cache: OutcomeCache,
    /// The stage memo (lab-chip senses, chip compiles, GRN knockout
    /// engines and sensor calibrations) every thread of this runner
    /// evaluates under, for the runner's whole life.
    memo: Arc<StageMemo>,
}

impl Runner {
    /// A single-threaded engine (the conformance reference).
    pub fn serial() -> Self {
        Runner::with_workers(1)
    }

    /// An engine with `workers` threads; 0 means one per available
    /// hardware thread ([`default_workers`]).
    pub fn with_workers(workers: usize) -> Self {
        Runner {
            workers: if workers == 0 {
                default_workers()
            } else {
                workers
            },
            cache: OutcomeCache::default(),
            memo: Arc::default(),
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drops every memoized outcome. Stage results (the lab-chip senses,
    /// chip compiles, GRN knockout engines and sensor calibrations of the
    /// stage memo) live as long as the runner, so the next batch
    /// re-evaluates every scenario but skips sensing a biology seed,
    /// compiling a chip, building a model's engine or calibrating a
    /// reading that this runner has already done.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Evaluates a batch, returning a [`BatchReport`] with outcomes in
    /// submission order and the batch's stats.
    ///
    /// Scenarios whose wire record is cached are served without
    /// re-evaluation; duplicate scenarios inside the batch are evaluated
    /// once. Remaining jobs are
    /// dealt round-robin to per-worker queues; an idle worker steals from
    /// the tail of a sibling's queue. Because every scenario is a pure
    /// function of its own fields, the schedule cannot affect the result
    /// — only the wall clock.
    ///
    /// # Panics
    ///
    /// May panic on a batch holding a scenario that [`Scenario::validate`]
    /// rejects.
    pub fn run(&mut self, scenarios: &[Scenario]) -> BatchReport {
        let _batch_span = mns_telemetry::span("runner.run");
        let lookup = self.cache.lookup(scenarios);
        let (fresh, per_worker) = self.execute(scenarios, lookup.misses());
        let stats = BatchStats {
            scenarios: scenarios.len() as u64,
            executed: fresh.len() as u64,
            cache_hits: lookup.cache_hits(),
            deduped: lookup.deduped(),
            steals: per_worker.iter().map(|w| w.steals).sum(),
            per_worker: per_worker
                .into_iter()
                .enumerate()
                .map(|(w, ws)| WorkerBatchStats {
                    worker: u32::try_from(w).expect("worker count fits in u32"),
                    ..ws
                })
                .collect(),
            ..BatchStats::default()
        };
        BatchReport {
            outcomes: self.cache.fill(lookup, fresh),
            stats,
        }
    }

    /// Evaluates one job on whatever thread is running it, under a
    /// detached task span keyed by submission index. Detached spans flush
    /// straight to the collector, so serial (inline) and parallel (worker
    /// thread) execution produce the same trace shape.
    fn evaluate(scenarios: &[Scenario], i: usize) -> (usize, ScenarioOutcome) {
        if !mns_telemetry::is_enabled() {
            return (i, scenarios[i].run());
        }
        let _task_span = mns_telemetry::task_span(scenarios[i].family(), i as u64);
        let t0 = std::time::Instant::now();
        let outcome = scenarios[i].run();
        mns_telemetry::observe("runner.evaluate_ns", t0.elapsed().as_nanos() as u64);
        (i, outcome)
    }

    /// Runs the job list (indices into `scenarios`) across the worker
    /// pool, every thread under this runner's stage memo; returns
    /// `(index, outcome)` pairs in arbitrary order plus one
    /// [`WorkerBatchStats`] per worker actually used.
    fn execute(
        &self,
        scenarios: &[Scenario],
        jobs: &[usize],
    ) -> (Vec<(usize, ScenarioOutcome)>, Vec<WorkerBatchStats>) {
        let workers = self.workers.min(jobs.len());
        if workers <= 1 {
            let _memo = self.memo.install();
            let results = jobs.iter().map(|&i| Self::evaluate(scenarios, i)).collect();
            let solo = WorkerBatchStats {
                executed: jobs.len() as u64,
                ..WorkerBatchStats::default()
            };
            return (results, vec![solo]);
        }

        // Deal jobs round-robin so each worker starts with a spread of
        // the batch (adjacent scenarios are often similar in cost).
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (k, &job) in jobs.iter().enumerate() {
            queues[k % workers]
                .lock()
                .expect("queue lock")
                .push_back(job);
        }

        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let queues = &queues;
                    let memo = &self.memo;
                    scope.spawn(move || {
                        let _memo = memo.install();
                        let telemetry = mns_telemetry::is_enabled();
                        let mut local: Vec<(usize, ScenarioOutcome)> = Vec::new();
                        let mut mine = WorkerBatchStats::default();
                        loop {
                            let wait_t0 = telemetry.then(std::time::Instant::now);
                            // Own queue first (front: submission order)…
                            let mut job = queues[me].lock().expect("queue lock").pop_front();
                            if job.is_none() {
                                // …then steal from a sibling's tail. All
                                // jobs are dealt before the scope starts,
                                // so an empty sweep means we are done.
                                for off in 1..queues.len() {
                                    let victim = (me + off) % queues.len();
                                    job = queues[victim].lock().expect("queue lock").pop_back();
                                    if job.is_some() {
                                        mine.steals += 1;
                                        break;
                                    }
                                }
                            }
                            if let Some(t0) = wait_t0 {
                                mns_telemetry::observe(
                                    "runner.queue_wait_ns",
                                    t0.elapsed().as_nanos() as u64,
                                );
                            }
                            match job {
                                Some(i) => {
                                    mine.executed += 1;
                                    local.push(Self::evaluate(scenarios, i));
                                }
                                None => break,
                            }
                        }
                        (local, mine)
                    })
                })
                .collect();
            let mut all: Vec<(usize, ScenarioOutcome)> = Vec::new();
            let mut stats: Vec<WorkerBatchStats> = Vec::with_capacity(workers);
            for h in handles {
                let (local, mine) = h.join().expect("scenario worker panicked");
                all.extend(local);
                stats.push(mine);
            }
            (all, stats)
        })
    }
}

/// The cross-domain golden corpus: every scenario family the workspace
/// ships, sized to finish in seconds. `tests/conformance.rs` pins the
/// serial digests of this corpus (at seed 42) in `tests/golden/` and
/// proves 1/2/8-worker runs byte-identical to serial.
pub fn conformance_corpus(seed: u64) -> Vec<Scenario> {
    let mut corpus = vec![
        // Fluidics: clean compiles at two plex counts, then fault recovery.
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 4,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 4,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: seed,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.08,
            fault_seed: seed ^ 1,
        }),
        // Fluidics: serial-dilution ladders, clean and damaged. Ladder
        // depth is the compiler's worst cost axis (routing work grows
        // steeply with the serialized makespan), so the corpus stays at
        // plex <= 3 — deeper ladders belong in examples/assay_families.
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::SerialDilution,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::SerialDilution,
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::SerialDilution,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: seed,
        }),
        // Fluidics: washing protocols (electrode reuse under re-reads),
        // one wide/shallow, one narrow/deep, one damaged.
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Washing { wash_steps: 1 },
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Washing { wash_steps: 2 },
            plex: 1,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Washing { wash_steps: 1 },
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: seed ^ 2,
        }),
        // Fluidics: multi-reagent mixing trees (wide reductions).
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::MixingTree { fanin: 2 },
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::MixingTree { fanin: 4 },
            plex: 1,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::MixingTree { fanin: 2 },
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::MixingTree { fanin: 2 },
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.06,
            fault_seed: seed ^ 3,
        }),
        // Fluidics: dilution gradients (unequal parallel ladders).
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::DilutionGradient,
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::DilutionGradient,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::DilutionGradient,
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: seed ^ 4,
        }),
        // Lab-on-chip: one pristine and one damaged end-to-end run.
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed,
            samples_per_run: 4,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed,
            samples_per_run: 4,
            dead_fraction: 0.05,
            fault_seed: 7,
        }),
        // Lab-on-chip: the full pipeline over each non-multiplex family
        // (same run seed so sensing/interpretation stay cache-friendly).
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::SerialDilution,
            seed,
            samples_per_run: 2,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Washing { wash_steps: 1 },
            seed,
            samples_per_run: 2,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::MixingTree { fanin: 2 },
            seed,
            samples_per_run: 2,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::DilutionGradient,
            seed,
            samples_per_run: 3,
            dead_fraction: 0.05,
            fault_seed: 9,
        }),
        // GRN: T-helper wild type plus master-regulator knockouts.
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: None,
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some("GATA3".to_owned()),
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some("Tbet".to_owned()),
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some("STAT1".to_owned()),
        }),
        // GRN: Arabidopsis whorls, wild and knocked out.
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::Arabidopsis { whorl: 0 },
            knockout: None,
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::Arabidopsis { whorl: 1 },
            knockout: Some("AP3".to_owned()),
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::Arabidopsis { whorl: 2 },
            knockout: Some("AG".to_owned()),
        }),
        // WSN: two protocols, one failure regime.
        Scenario::WsnLifetime(WsnScenario {
            nodes: 60,
            side: 120.0,
            protocol: Protocol::Direct,
            failure_rate: 0.0,
            max_rounds: 600,
            seed,
            policies: None,
        }),
        Scenario::WsnLifetime(WsnScenario {
            nodes: 60,
            side: 120.0,
            protocol: Protocol::cluster(0.1, true),
            failure_rate: 0.002,
            max_rounds: 600,
            seed,
            policies: None,
        }),
        // WSN: a heterogeneous round-robin policy mix sourcing through
        // rotating aggregation heads (policy-engine coverage).
        Scenario::WsnLifetime(WsnScenario {
            nodes: 60,
            side: 120.0,
            protocol: Protocol::cluster(0.1, true),
            failure_rate: 0.0,
            max_rounds: 600,
            seed,
            policies: Some(PolicyAssignment::RoundRobin(vec![
                PolicyExpr::Fixed(1.0),
                PolicyExpr::Greedy {
                    threshold: 0.5,
                    duty_high: 1.0,
                    duty_low: 0.25,
                },
            ])),
        }),
        // Harvesting: the two extreme policies.
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Fixed(0.3),
            days: 10,
            cloudiness: 0.4,
            seed,
        }),
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::EnergyNeutral { alpha: 0.01 },
            days: 10,
            cloudiness: 0.4,
            seed,
        }),
        // Harvesting: composed policy expressions (forecast-aware EWMA
        // with health derating and a duty floor; hysteresis switch).
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Clamp {
                inner: Box::new(PolicyExpr::Derate {
                    inner: Box::new(PolicyExpr::Forecast { alpha: 0.2 }),
                    fade: 0.05,
                    floor: 0.5,
                }),
                lo: 0.05,
                hi: 0.9,
            },
            days: 10,
            cloudiness: 0.4,
            seed,
        }),
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Hysteresis {
                low: 0.25,
                high: 0.6,
                on: Box::new(PolicyExpr::EnergyNeutral { alpha: 0.01 }),
                off: Box::new(PolicyExpr::Fixed(0.05)),
            },
            days: 10,
            cloudiness: 0.4,
            seed,
        }),
    ];
    // NoC: the Pareto-sweep grid over the 16-core hotspot application.
    let app = CommGraph::hotspot(16, 1.0);
    for &max_cluster in &[2usize, 4, 8] {
        for &shortcuts in &[0usize, 4] {
            corpus.push(Scenario::NocPoint(NocScenario {
                app: app.clone(),
                max_cluster,
                shortcuts,
            }));
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn small_batch() -> Vec<Scenario> {
        vec![
            Scenario::Harvest(HarvestScenario {
                policy: PolicyExpr::Fixed(0.4),
                days: 2,
                cloudiness: 0.3,
                seed: 5,
            }),
            Scenario::WsnLifetime(WsnScenario {
                nodes: 20,
                side: 90.0,
                protocol: Protocol::tree(40.0, true),
                failure_rate: 0.0,
                max_rounds: 150,
                seed: 5,
                policies: None,
            }),
            Scenario::Knockout(KnockoutScenario {
                model: GrnModel::THelper,
                knockout: None,
            }),
            Scenario::NocPoint(NocScenario {
                app: CommGraph::hotspot(9, 1.0),
                max_cluster: 3,
                shortcuts: 2,
            }),
        ]
    }

    #[test]
    fn cluster_config_builder_delegates_into_runner() {
        let cfg = ClusterConfig::new()
            .workers(0) // clamped
            .threads_per_worker(3)
            .shards(5)
            .shard_deadline(Duration::from_secs(9))
            .heartbeat_interval(Duration::from_millis(10))
            .liveness_window(Duration::from_millis(500))
            .collect_metrics(true);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.runner.workers, 3);
        assert_eq!(cfg.runner.shards, 5);
        // shards(0) clamps to 1 rather than planning an empty split.
        assert_eq!(ClusterConfig::new().shards(0).runner.shards, 1);
        assert_eq!(cfg.shard_deadline, Duration::from_secs(9));
        assert_eq!(
            ClusterConfig::default().shard_deadline,
            Duration::from_secs(120)
        );
        assert!(cfg.collect_metrics);
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let batch = small_batch();
        for s in &batch {
            assert_eq!(s.fingerprint(), s.clone().fingerprint());
        }
        let mut fps: Vec<u64> = batch.iter().map(Scenario::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(
            fps.len(),
            batch.len(),
            "distinct scenarios must not collide"
        );
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let a = Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Fixed(0.4),
            days: 2,
            cloudiness: 0.3,
            seed: 5,
        });
        let b = Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Fixed(0.4),
            days: 2,
            cloudiness: 0.3,
            seed: 6,
        });
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn parallel_is_byte_identical_to_serial() {
        let batch = small_batch();
        let serial = Runner::serial().run(&batch).outcomes;
        for workers in [2, 4, 8] {
            let par = Runner::with_workers(workers).run(&batch).outcomes;
            assert_eq!(serial, par, "divergence at {workers} workers");
        }
    }

    #[test]
    fn cache_serves_repeat_sweeps() {
        let batch = small_batch();
        let mut runner = Runner::with_workers(2);
        let first = runner.run(&batch);
        assert_eq!(first.stats.executed, batch.len() as u64);
        let second = runner.run(&batch);
        assert_eq!(first.outcomes, second.outcomes);
        assert_eq!(second.stats.executed, 0, "no re-runs");
        assert_eq!(second.stats.cache_hits, batch.len() as u64);
        // A cleared cache evaluates everything again.
        runner.clear_cache();
        assert_eq!(runner.run(&batch).stats.executed, batch.len() as u64);
    }

    #[test]
    fn duplicates_inside_a_batch_run_once() {
        let one = small_batch().remove(0);
        let batch = vec![one.clone(), one.clone(), one];
        let report = Runner::serial().run(&batch);
        let out = report.outcomes;
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        assert_eq!(report.stats.executed, 1);
    }

    #[test]
    fn outcome_digests_discriminate() {
        let outs = Runner::serial().run(&small_batch()).outcomes;
        let mut digests: Vec<Digest> = outs.iter().map(ScenarioOutcome::digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), outs.len());
    }

    #[test]
    fn batch_stats_account_for_every_scenario() {
        let batch = small_batch();
        let mut runner = Runner::with_workers(2);
        let report = runner.run(&batch);
        let (out, stats) = (report.outcomes, report.stats);
        assert_eq!(out.len(), batch.len());
        assert_eq!(stats.scenarios, batch.len() as u64);
        assert_eq!(stats.executed, batch.len() as u64);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.deduped, 0);
        // Workers partition the evaluations exactly.
        let per_worker_sum: u64 = stats.per_worker.iter().map(|w| w.executed).sum();
        assert_eq!(per_worker_sum, stats.executed);
        assert!(!stats.per_worker.is_empty());
        assert!(stats.per_worker.len() <= 2);
        for (w, ws) in stats.per_worker.iter().enumerate() {
            assert_eq!(ws.shard, ShardId(0));
            assert_eq!(ws.worker, w as u32);
        }
        assert!((0.0..=1.0).contains(&stats.balance()));

        // A repeat sweep is all cache hits and vacuously balanced
        // (nothing executed).
        let again = runner.run(&batch);
        assert_eq!(again.outcomes, out);
        let cached = again.stats;
        assert_eq!(cached.executed, 0);
        assert_eq!(cached.cache_hits, batch.len() as u64);
        assert_eq!(cached.max_worker_executed(), 0);
        assert_eq!(cached.balance(), 1.0);
    }

    #[test]
    fn batch_stats_count_in_batch_duplicates() {
        let one = small_batch().remove(0);
        let batch = vec![one.clone(), one.clone(), one];
        let report = Runner::serial().run(&batch);
        let stats = report.stats;
        assert_eq!(stats.scenarios, 3);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.deduped, 2);
        assert_eq!(stats.per_worker.len(), 1);
        assert_eq!(stats.per_worker[0].executed, 1);
    }

    #[test]
    fn balance_edge_cases_are_defined() {
        // Empty stats: nothing executed, no workers — vacuously balanced.
        assert_eq!(BatchStats::default().balance(), 1.0);
        // Single worker: cannot be imbalanced against itself.
        let solo = BatchStats {
            executed: 5,
            per_worker: vec![WorkerBatchStats {
                executed: 5,
                ..WorkerBatchStats::default()
            }],
            ..BatchStats::default()
        };
        assert_eq!(solo.balance(), 1.0);
        // Two workers, all load on one: balance is 1/2.
        let skewed = BatchStats {
            executed: 4,
            per_worker: vec![
                WorkerBatchStats {
                    executed: 4,
                    ..WorkerBatchStats::default()
                },
                WorkerBatchStats {
                    worker: 1,
                    ..WorkerBatchStats::default()
                },
            ],
            ..BatchStats::default()
        };
        assert!((skewed.balance() - 0.5).abs() < 1e-12);
    }

    /// Lab-chip runs of biology seeds 1–3 (four each), NoC points over two
    /// application graphs, and `small_batch`.
    fn stage_batch() -> Vec<Scenario> {
        let mut batch = small_batch();
        for seed in 1..=3 {
            for fault_seed in 0..4 {
                batch.push(labchip(seed, fault_seed));
            }
        }
        for app in [CommGraph::hotspot(9, 1.0), CommGraph::pipeline(6, 2.0)] {
            for max_cluster in 2..5 {
                batch.push(Scenario::NocPoint(NocScenario {
                    app: app.clone(),
                    max_cluster,
                    shortcuts: 0,
                }));
            }
        }
        batch
    }

    fn labchip(seed: u64, fault_seed: u64) -> Scenario {
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed,
            samples_per_run: 4,
            dead_fraction: 0.05,
            fault_seed,
        })
    }

    /// The shard of each submission index.
    fn shard_of(plan: &ShardPlan, len: usize) -> Vec<ShardId> {
        let mut owner = vec![None; len];
        for (shard, indices) in plan.iter() {
            for &i in indices {
                assert!(owner[i].is_none(), "index {i} dealt twice");
                owner[i] = Some(shard);
            }
        }
        owner
            .into_iter()
            .map(|o| o.expect("every index dealt"))
            .collect()
    }

    #[test]
    fn shard_plan_keeps_shared_stages_together() {
        let batch = stage_batch();
        let plan = ShardPlan::split(&batch, 4);
        let owner = shard_of(&plan, batch.len());
        let mut by_stage: BTreeMap<String, BTreeSet<ShardId>> = BTreeMap::new();
        for (s, shard) in batch.iter().zip(&owner) {
            let stage = match s {
                Scenario::LabChip(l) => format!("biology seed {}", l.seed),
                Scenario::NocPoint(n) => format!("app of {} cores", n.app.cores()),
                _ => continue,
            };
            by_stage.entry(stage).or_default().insert(*shard);
        }
        assert_eq!(by_stage.len(), 3 + 2, "three seeds, two apps");
        for (stage, shards) in &by_stage {
            assert_eq!(shards.len(), 1, "{stage} spread over {shards:?}");
        }
        for (_, indices) in plan.iter() {
            assert!(!indices.is_empty(), "every shard takes work");
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "sorted indices");
        }
    }

    #[test]
    fn shard_plan_cuts_a_group_larger_than_its_share() {
        // One seed's 40 runs would fill one shard; the chunk cap of
        // ⌈40/4⌉ spreads them over all four.
        let batch: Vec<Scenario> = (0..40).map(|k| labchip(7, k)).collect();
        let plan = ShardPlan::split(&batch, 4);
        for (shard, indices) in plan.iter() {
            assert_eq!(indices.len(), 10, "{shard}");
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_the_largest_chunk() {
        let mut batch = stage_batch();
        batch.extend((0..9).map(|k| labchip(4, k)));
        let largest_group = 9;
        for shards in 1..=7 {
            let plan = ShardPlan::split(&batch, shards);
            assert_eq!(shard_of(&plan, batch.len()).len(), batch.len());
            let largest_chunk = largest_group.min(batch.len().div_ceil(shards));
            let sizes: Vec<usize> = plan.iter().map(|(_, v)| v.len()).collect();
            let spread = sizes.iter().max().unwrap() - sizes.iter().min().unwrap();
            assert!(spread <= largest_chunk, "{shards} shards: {sizes:?}");
        }
    }

    #[test]
    fn shard_plan_is_content_stable() {
        let batch = stage_batch();
        for shards in [2, 4] {
            let plan = ShardPlan::split(&batch, shards);
            assert_eq!(plan.shards(), shards);
            let covered: usize = plan.iter().map(|(_, v)| v.len()).sum();
            assert_eq!(covered, batch.len());
            // Reversing the batch must not move any scenario to a
            // different shard: compare fingerprint sets per shard.
            let mut reversed = batch.clone();
            reversed.reverse();
            let rplan = ShardPlan::split(&reversed, shards);
            for (shard, indices) in plan.iter() {
                let mut fwd: Vec<u64> = indices.iter().map(|&i| batch[i].fingerprint()).collect();
                let mut rev: Vec<u64> = rplan
                    .indices(shard)
                    .iter()
                    .map(|&i| reversed[i].fingerprint())
                    .collect();
                fwd.sort_unstable();
                rev.sort_unstable();
                assert_eq!(fwd, rev, "shard {shard} moved under batch reordering");
            }
        }
    }

    #[test]
    fn merge_sums_counters_and_unions_workers() {
        let a = BatchStats {
            shard: ShardId(2),
            scenarios: 3,
            executed: 3,
            per_worker: vec![WorkerBatchStats {
                shard: ShardId(2),
                worker: 0,
                executed: 3,
                ..WorkerBatchStats::default()
            }],
            ..BatchStats::default()
        };
        let b = BatchStats {
            shard: ShardId(0),
            scenarios: 2,
            executed: 1,
            cache_hits: 1,
            per_worker: vec![WorkerBatchStats {
                shard: ShardId(0),
                worker: 0,
                executed: 1,
                ..WorkerBatchStats::default()
            }],
            ..BatchStats::default()
        };
        let ab = BatchStats::merged(&[a.clone(), b.clone()]);
        let ba = BatchStats::merged(&[b, a]);
        assert_eq!(ab, ba, "merge must be order-insensitive");
        assert_eq!(ab.shard, ShardId(0));
        assert_eq!(ab.scenarios, 5);
        assert_eq!(ab.executed, 4);
        assert_eq!(ab.cache_hits, 1);
        assert_eq!(ab.per_worker.len(), 2);
        assert_eq!(ab.per_worker[0].shard, ShardId(0));
        assert_eq!(ab.per_worker[1].shard, ShardId(2));
    }

    #[test]
    fn scenario_families_are_stable_labels() {
        let corpus = conformance_corpus(42);
        for s in &corpus {
            assert!(s.family().starts_with("scenario."), "{}", s.family());
        }
        let batch = small_batch();
        assert_eq!(batch[0].family(), "scenario.harvest");
        assert_eq!(batch[1].family(), "scenario.wsn");
        assert_eq!(batch[2].family(), "scenario.knockout");
        assert_eq!(batch[3].family(), "scenario.noc");
    }

    #[test]
    fn corpus_covers_every_scenario_family() {
        let corpus = conformance_corpus(42);
        assert!(corpus
            .iter()
            .any(|s| matches!(s, Scenario::FluidicsCompile(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::LabChip(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::NocPoint(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::WsnLifetime(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::Harvest(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::Knockout(_))));
        // Labels are the golden-file keys: they must be unique.
        let mut labels: Vec<String> = corpus.iter().map(Scenario::label).collect();
        labels.sort();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "corpus labels must be unique");
    }
}
