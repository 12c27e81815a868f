//! The end-to-end assay compiler: schedule → place → route → actuate.
//!
//! This is the "computer-aided diagnosis" design flow of keynote slides
//! 19–20 in executable form: a biochemical protocol goes in, a verified
//! electrode actuation program comes out. If droplet routes do not fit the
//! transport windows the schedule assumed, the compiler widens the
//! transport latency and retries — the fast design-closure loop the
//! keynote asks of system-level design tools.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use crate::assay::{Assay, OpId, OpKind};
use crate::constraints::verify_routes_exempting_merges;
use crate::faults::FaultModel;
use crate::geometry::{Cell, Grid, GridError};
use crate::modules::ModuleLibrary;
use crate::program::ElectrodeProgram;
use crate::route::{
    route_with_environment, Obstacle, Route, RouteError, RoutingConfig, RoutingRequest,
};
use crate::schedule::{schedule_with_keepout, Schedule, ScheduleConfig, ScheduleError};

/// Compiler parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilerConfig {
    /// Array width.
    pub grid_width: i32,
    /// Array height.
    pub grid_height: i32,
    /// Module library.
    pub library: ModuleLibrary,
    /// Initial scheduling parameters; the transport latency doubles on
    /// every routing retry.
    pub schedule: ScheduleConfig,
    /// Router parameters.
    pub routing: RoutingConfig,
    /// How many times to widen the transport latency before giving up.
    pub max_latency_retries: u32,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            grid_width: 16,
            grid_height: 16,
            library: ModuleLibrary::standard(),
            schedule: ScheduleConfig::default(),
            routing: RoutingConfig::default(),
            max_latency_retries: 3,
        }
    }
}

/// Statistics of a successful compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Schedule makespan in ticks.
    pub makespan: u32,
    /// Total droplet moves.
    pub route_moves: u32,
    /// Total droplet stalls.
    pub route_stalls: u32,
    /// Electrode activations (energy proxy).
    pub energy: u64,
    /// Latency-widening retries within the successful compile phase.
    pub retries: u32,
    /// Total routing attempts that failed and forced a recompile, across
    /// every latency-widening and abandonment phase. Equals
    /// [`retries`](Self::retries) for fault-free compiles.
    pub reroutes: u32,
    /// Stalls spent dwelling on degraded electrodes (the slow-actuation
    /// penalty), a subset of [`route_stalls`](Self::route_stalls).
    pub forced_stalls: u32,
    /// Transport requests sacrificed to make the assay routable on the
    /// degraded array (always waste-port transports, never results).
    pub abandoned: u32,
}

/// A fully compiled assay.
#[derive(Debug, Clone)]
pub struct CompiledAssay {
    /// The operation schedule with placements.
    pub schedule: Schedule,
    /// One route per droplet transport (assay DAG edge).
    pub routes: Vec<Route>,
    /// The `(producer, consumer)` DAG edge of each route, aligned with
    /// [`routes`](Self::routes) — the authoritative pairing used by
    /// post-route analyses such as
    /// [`contamination`](crate::contamination).
    pub edges: Vec<(OpId, OpId)>,
    /// DAG edges whose transports were abandoned during fault recovery
    /// (empty for fault-free compiles).
    pub abandoned_edges: Vec<(OpId, OpId)>,
    /// The electrode actuation program.
    pub program: ElectrodeProgram,
    /// Aggregate statistics.
    pub stats: CompileStats,
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Invalid grid dimensions.
    Grid(GridError),
    /// Scheduling failed.
    Schedule(ScheduleError),
    /// Routing failed even after all latency retries.
    Route(RouteError),
    /// The routes produced violate the fluidic constraints — a compiler
    /// bug guard that should never fire with `lookahead ≥ 1`.
    UnsafeRoutes(usize),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Grid(e) => write!(f, "grid: {e}"),
            CompileError::Schedule(e) => write!(f, "schedule: {e}"),
            CompileError::Route(e) => write!(f, "route: {e}"),
            CompileError::UnsafeRoutes(n) => {
                write!(f, "compiled routes contain {n} fluidic violations")
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Grid(e) => Some(e),
            CompileError::Schedule(e) => Some(e),
            CompileError::Route(e) => Some(e),
            CompileError::UnsafeRoutes(_) => None,
        }
    }
}

impl From<GridError> for CompileError {
    fn from(e: GridError) -> Self {
        CompileError::Grid(e)
    }
}

impl From<ScheduleError> for CompileError {
    fn from(e: ScheduleError) -> Self {
        CompileError::Schedule(e)
    }
}

/// Obstacle tag for the module executing operation `op` (0 is reserved
/// for untagged walls).
fn tag_of(op: OpId) -> u32 {
    op.0 + 1
}

/// Compiles `assay` down to an electrode program.
///
/// # Errors
///
/// Returns [`CompileError`] if the grid is invalid, the schedule cannot be
/// constructed, or droplet routing keeps failing after widening the
/// transport windows [`CompilerConfig::max_latency_retries`] times.
pub fn compile(assay: &Assay, config: &CompilerConfig) -> Result<CompiledAssay, CompileError> {
    compile_with_faults(assay, config, &FaultModel::none())
}

/// Compiles `assay` onto an array degraded by `faults`, recovering where
/// it can (degrade-and-retry):
///
/// 1. modules are **re-placed off faulty regions** — dead and transient
///    cells become a placement keepout,
/// 2. droplets are **re-routed around** dead/transient electrodes (hard,
///    ring-less obstacles) and **through** degraded ones (a forced dwell
///    per crossing), with the usual escalating latency budgets,
/// 3. if routing still fails, **waste transports are sacrificed** one at
///    a time (droplets headed to [`OpKind::Output`] ports stay parked in
///    their producer module instead) and compilation restarts.
///
/// The sacrifices are reported in [`CompileStats`]: `reroutes` (failed
/// routing attempts that forced a recompile), `forced_stalls` (dwell
/// penalty paid on degraded cells) and `abandoned` (dropped waste
/// transports, also listed in [`CompiledAssay::abandoned_edges`]).
///
/// With [`FaultModel::none`] this is exactly [`compile`].
///
/// # Errors
///
/// Returns [`CompileError`] if the degraded array cannot host the assay
/// even after every recovery step.
pub fn compile_with_faults(
    assay: &Assay,
    config: &CompilerConfig,
    faults: &FaultModel,
) -> Result<CompiledAssay, CompileError> {
    let _compile_span = mns_telemetry::span("fluidics.compile");
    let grid = Grid::new(config.grid_width, config.grid_height)?;
    let keepout = faults.placement_keepout();
    let fault_obstacles = faults.obstacles();
    let degraded = faults.degraded_cells();

    // Waste transports, in DAG-edge order: the sacrificable set.
    let sacrificable: Vec<usize> = edge_list(assay)
        .iter()
        .enumerate()
        .filter(|(_, (_, consumer))| matches!(assay.op(*consumer).kind, OpKind::Output))
        .map(|(i, _)| i)
        .collect();

    let mut abandoned: BTreeSet<usize> = BTreeSet::new();
    let mut reroutes = 0u32;

    loop {
        let mut sched_cfg = config.schedule;
        let mut last_err = None;
        for retry in 0..=config.max_latency_retries {
            let sched = {
                let _schedule_span = mns_telemetry::span("fluidics.schedule");
                schedule_with_keepout(assay, &grid, &config.library, &sched_cfg, &keepout)?
            };
            let routed = {
                let _route_span = mns_telemetry::span("fluidics.route");
                route_schedule(
                    assay,
                    &grid,
                    &sched,
                    &config.routing,
                    &fault_obstacles,
                    degraded,
                    &abandoned,
                )
            };
            match routed {
                Ok((routes, edges)) => {
                    // Merge partners are routes feeding the same consumer
                    // op — the precise definition, from the edge list.
                    let partners = |i: usize, j: usize| edges[i].1 == edges[j].1;
                    let violations = verify_routes_exempting_merges(&routes, &partners);
                    if !violations.is_empty() {
                        return Err(CompileError::UnsafeRoutes(violations.len()));
                    }
                    let _program_span = mns_telemetry::span("fluidics.program");
                    let program = build_program(assay, &sched, &routes);
                    let abandoned_edges: Vec<(OpId, OpId)> = {
                        let all = edge_list(assay);
                        abandoned.iter().map(|&i| all[i]).collect()
                    };
                    let stats = CompileStats {
                        makespan: sched.makespan(),
                        route_moves: routes.iter().map(Route::moves).sum(),
                        route_stalls: routes.iter().map(Route::stalls).sum(),
                        energy: program.energy(),
                        retries: retry,
                        reroutes,
                        forced_stalls: forced_stall_count(&routes, degraded),
                        abandoned: abandoned.len() as u32,
                    };
                    return Ok(CompiledAssay {
                        schedule: sched,
                        routes,
                        edges,
                        abandoned_edges,
                        program,
                        stats,
                    });
                }
                Err(e) => {
                    reroutes += 1;
                    mns_telemetry::counter_add("fluidics.reroutes", 1);
                    last_err = Some(e);
                    sched_cfg.transport_latency *= 2;
                }
            }
        }
        // Latency escalation exhausted. Under fault injection, sacrifice
        // the next waste transport and recompile from the initial budget;
        // fault-free compiles keep their original failure semantics.
        let next_sacrifice = sacrificable.iter().find(|i| !abandoned.contains(i));
        match next_sacrifice {
            Some(&i) if !faults.is_empty() => {
                abandoned.insert(i);
                mns_telemetry::counter_add("fluidics.abandoned_transports", 1);
            }
            _ => {
                return Err(CompileError::Route(
                    last_err.expect("at least one routing attempt was made"),
                ));
            }
        }
    }
}

/// The assay's droplet-transport edges `(producer, consumer)` in the
/// deterministic enumeration order `route_schedule` uses.
fn edge_list(assay: &Assay) -> Vec<(OpId, OpId)> {
    let mut edges = Vec::new();
    for op in assay.operations() {
        for &producer in op.inputs.iter() {
            edges.push((producer, op.id));
        }
    }
    edges
}

/// Stalls spent dwelling on degraded electrodes across all routes.
fn forced_stall_count(routes: &[Route], degraded: &[Cell]) -> u32 {
    routes
        .iter()
        .map(|r| {
            r.path
                .windows(2)
                .filter(|w| w[0] == w[1] && degraded.contains(&w[0]))
                .count() as u32
        })
        .sum()
}

/// Hand-off cell where a droplet leaves the module of `op`: the centre
/// for single-output modules; for multi-output modules (splitters) the
/// two products sit on *opposite ends* of the module, which the 1×3
/// splitter shape guarantees are a full fluidic separation apart — both
/// products can therefore emerge simultaneously.
fn source_cell(sched: &Schedule, op: OpId, slot: usize, multi_output: bool) -> Cell {
    let e = sched.entry(op);
    let min = e.origin;
    let max = Cell::new(
        e.origin.x + e.spec.width - 1,
        e.origin.y + e.spec.height - 1,
    );
    match (multi_output, slot) {
        (false, _) => Cell::new(
            min.x + (e.spec.width - 1) / 2,
            min.y + (e.spec.height - 1) / 2,
        ),
        (true, 0) => min,
        (true, _) => max,
    }
}

/// Landing cell inside the module of the consuming op.
fn sink_cell(sched: &Schedule, op: OpId) -> Cell {
    let e = sched.entry(op);
    Cell::new(
        e.origin.x + (e.spec.width - 1) / 2,
        e.origin.y + (e.spec.height - 1) / 2,
    )
}

/// Routes plus the DAG edge behind each one, index-aligned.
type RoutedEdges = (Vec<Route>, Vec<(OpId, OpId)>);

/// Routes every droplet transport implied by the assay DAG, concurrently,
/// avoiding active modules, `extra_obstacles` (faulty electrodes) and
/// dwelling on `degraded` cells. Edges whose index (in DAG-edge order)
/// appears in `abandoned` get no route; the returned edge list stays
/// aligned with the returned routes.
fn route_schedule(
    assay: &Assay,
    grid: &Grid,
    sched: &Schedule,
    routing: &RoutingConfig,
    extra_obstacles: &[Obstacle],
    degraded: &[Cell],
    abandoned: &BTreeSet<usize>,
) -> Result<RoutedEdges, RouteError> {
    let mut obstacles = module_obstacles(sched);
    obstacles.extend_from_slice(extra_obstacles);
    let (requests, edges) = transport_requests(assay, sched, abandoned);
    let outcome = route_with_environment(grid, &requests, &obstacles, degraded, routing)?;
    Ok((outcome.routes, edges))
}

/// The droplet-transport workload a schedule implies — one routing
/// request per DAG edge (departure/deadline windows, module tags, merge
/// groups) plus the time-windowed obstacle of every reserved module.
/// This is exactly the batch [`compile`] hands the router; it is public
/// so differential and property suites can drive the router with
/// realistic protocol traffic (e.g. `workload::random_protocol`).
pub fn transport_plan(assay: &Assay, sched: &Schedule) -> (Vec<RoutingRequest>, Vec<Obstacle>) {
    let (requests, _edges) = transport_requests(assay, sched, &BTreeSet::new());
    (requests, module_obstacles(sched))
}

/// Modules block the array while reserved; landing windows are covered
/// by the reservation interval produced by the scheduler.
fn module_obstacles(sched: &Schedule) -> Vec<Obstacle> {
    sched
        .entries()
        .iter()
        .map(|e| {
            // Landing window included (`reserve_from`, computed once by
            // the scheduler): parked droplets inside the region are
            // invisible to the router, so other droplets must be kept
            // out. The departure window after `end` is NOT blocked for
            // droplets — out-bound droplets are ordinary droplets and the
            // router's pairwise constraints protect them (the scheduler
            // already keeps new *modules* away via its extended
            // reservation).
            Obstacle::region(
                e.origin,
                Cell::new(
                    e.origin.x + e.spec.width - 1,
                    e.origin.y + e.spec.height - 1,
                ),
                e.reserve_from,
                e.end,
                tag_of(e.op),
            )
        })
        .collect()
}

fn transport_requests(
    assay: &Assay,
    sched: &Schedule,
    abandoned: &BTreeSet<usize>,
) -> (Vec<RoutingRequest>, Vec<(OpId, OpId)>) {
    // One routing request per DAG edge. Output-slot indices make split
    // products leave from opposite splitter ends; the counter covers both
    // earlier consumers and earlier input slots of the same consumer
    // (e.g. `mix(sp, sp)` re-merging a split). Abandoned edges still
    // advance the counters (so surviving split products keep their
    // designated ends) but produce no request.
    let mut requests = Vec::new();
    let mut edges = Vec::new();
    let mut next_id = 0u32;
    let mut used_slots: std::collections::HashMap<OpId, usize> = std::collections::HashMap::new();
    for op in assay.operations() {
        for &producer in op.inputs.iter() {
            let edge_index = next_id as usize;
            let slot_ref = used_slots.entry(producer).or_insert(0);
            let slot = *slot_ref;
            *slot_ref += 1;
            if abandoned.contains(&edge_index) {
                next_id += 1;
                continue;
            }
            edges.push((producer, op.id));
            let pe = sched.entry(producer);
            let ce = sched.entry(op.id);
            let multi_output = assay.op(producer).kind.arity_out() > 1;
            let mut req = RoutingRequest::new(
                next_id,
                source_cell(sched, producer, slot, multi_output),
                sink_cell(sched, op.id),
            )
            .departing(pe.end)
            .with_deadline(ce.start)
            .arriving_no_earlier_than(ce.start.saturating_sub(sched.transport_latency()))
            .ignoring_tag(tag_of(producer))
            .ignoring_tag(tag_of(op.id));
            if op.kind.arity_in() > 1 {
                // Multi-input consumers: their in-bound droplets are merge
                // partners — exempt from mutual spacing in both the router
                // and the verifier.
                req = req.in_merge_group(op.id.0);
            }
            requests.push(req);
            next_id += 1;
        }
        // Keep OpKind linter-honest: dispense/output need no extra edges.
        debug_assert!(op.inputs.len() == op.kind.arity_in());
    }
    (requests, edges)
}

/// Assembles the per-tick actuation table from module reservations and
/// droplet routes.
fn build_program(assay: &Assay, sched: &Schedule, routes: &[Route]) -> ElectrodeProgram {
    let mut program = ElectrodeProgram::new(sched.makespan() as usize);
    for e in sched.entries() {
        // Port operations only energize their single cell; working modules
        // energize their full region for the operation's duration.
        let max = Cell::new(
            e.origin.x + e.spec.width - 1,
            e.origin.y + e.spec.height - 1,
        );
        let is_port = matches!(
            assay.op(e.op).kind,
            OpKind::Dispense { .. } | OpKind::Output
        );
        for t in e.start..e.end {
            if is_port {
                program.activate(t, e.origin);
            } else {
                program.activate_rect(t, e.origin, max);
            }
        }
    }
    for r in routes {
        for (k, &c) in r.path.iter().enumerate() {
            program.activate(r.depart + k as u32, c);
        }
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assay::{multiplex_immunoassay, serial_dilution, Assay};

    fn simple_assay() -> Assay {
        let mut b = Assay::builder();
        let s = b.dispense("s");
        let r = b.dispense("r");
        let m = b.mix(s, r);
        b.detect(m);
        b.build().unwrap()
    }

    #[test]
    fn compile_simple_assay() {
        let compiled = compile(&simple_assay(), &CompilerConfig::default()).unwrap();
        assert_eq!(compiled.routes.len(), 3); // s→mix, r→mix, mix→detect
        assert!(compiled.stats.makespan > 0);
        assert!(compiled.stats.energy > 0);
        assert!(!compiled.program.is_empty());
    }

    #[test]
    fn routes_meet_their_deadlines() {
        let compiled = compile(&simple_assay(), &CompilerConfig::default()).unwrap();
        let assay = simple_assay();
        let mut idx = 0;
        for op in assay.operations() {
            for _ in &op.inputs {
                let r = &compiled.routes[idx];
                let ce = compiled.schedule.entry(op.id);
                assert!(
                    r.arrival() <= ce.start,
                    "route {idx} arrives {} after op start {}",
                    r.arrival(),
                    ce.start
                );
                idx += 1;
            }
        }
    }

    #[test]
    fn compile_serial_dilution() {
        let compiled = compile(&serial_dilution(3), &CompilerConfig::default()).unwrap();
        // Droplet flow: each dilute has 2 inputs, each split 1, detect 1…
        assert!(compiled.routes.len() >= 9);
        assert!(compiled.stats.route_moves > 0);
    }

    #[test]
    fn compile_multiplex_assay_in_parallel() {
        let compiled = compile(&multiplex_immunoassay(3), &CompilerConfig::default()).unwrap();
        assert_eq!(compiled.routes.len(), 9);
        // Droplet parallelism shows up as overlapping routes.
        let overlapping = compiled.routes.iter().enumerate().any(|(i, a)| {
            compiled
                .routes
                .iter()
                .skip(i + 1)
                .any(|b| a.depart < b.arrival() && b.depart < a.arrival())
        });
        assert!(overlapping, "expected temporally overlapping transports");
    }

    #[test]
    fn too_small_grid_fails_cleanly() {
        use crate::modules::{ModuleLibrary, ModuleSpec};
        // A module larger than the array can never be placed.
        let cfg = CompilerConfig {
            grid_width: 8,
            grid_height: 8,
            library: ModuleLibrary::custom(
                vec![ModuleSpec {
                    width: 12,
                    height: 12,
                    duration: 4,
                }],
                vec![ModuleSpec {
                    width: 1,
                    height: 3,
                    duration: 2,
                }],
                vec![ModuleSpec {
                    width: 1,
                    height: 1,
                    duration: 30,
                }],
                2,
                2,
            ),
            ..CompilerConfig::default()
        };
        let err = compile(&multiplex_immunoassay(2), &cfg).unwrap_err();
        assert!(matches!(err, CompileError::Schedule(_)), "{err}");
    }

    #[test]
    fn tight_grid_still_compiles() {
        // Departure-delay routing lets even a 4×4 array execute a 4-plex
        // assay, just slowly.
        let cfg = CompilerConfig {
            grid_width: 4,
            grid_height: 4,
            ..CompilerConfig::default()
        };
        if let Ok(c) = compile(&multiplex_immunoassay(4), &cfg) {
            assert!(c.stats.makespan > 0);
        }
    }

    #[test]
    fn remerged_split_uses_both_splitter_ends() {
        // `mix(sp, sp)` re-merges a split: the two transports must leave
        // from *different* splitter cells (regression: the slot counter
        // once ignored same-op duplicate producers).
        let mut b = Assay::builder();
        let d = b.dispense("sample");
        let sp = b.split(d);
        let m = b.mix(sp, sp);
        b.detect(m);
        let assay = b.build().unwrap();
        let compiled = compile(&assay, &CompilerConfig::default()).unwrap();
        // Edges: d→sp, sp→m (slot 0), sp→m (slot 1), m→detect.
        let from_split: Vec<&Route> = compiled.routes[1..3].iter().collect();
        assert_ne!(
            from_split[0].path.first(),
            from_split[1].path.first(),
            "both split products left from the same cell"
        );
        let partners = |i: usize, j: usize| compiled.edges[i].1 == compiled.edges[j].1;
        assert!(verify_routes_exempting_merges(&compiled.routes, &partners).is_empty());
    }

    #[test]
    fn late_departures_route_within_relative_horizon() {
        // max_time is relative to departure: a droplet departing after
        // tick 3000 must still route on an empty grid (regression: the cap
        // was once absolute).
        use crate::geometry::{Cell, Grid};
        use crate::route::{route_concurrent, RoutingConfig, RoutingRequest};
        let grid = Grid::new(8, 8).unwrap();
        let req = RoutingRequest::new(0, Cell::new(0, 0), Cell::new(7, 7)).departing(3_000);
        let out = route_concurrent(&grid, &[req], &RoutingConfig::default()).unwrap();
        assert_eq!(out.routes[0].arrival(), 3_014);
    }

    #[test]
    fn stats_are_consistent() {
        let compiled = compile(&simple_assay(), &CompilerConfig::default()).unwrap();
        let moves: u32 = compiled.routes.iter().map(Route::moves).sum();
        assert_eq!(compiled.stats.route_moves, moves);
        assert_eq!(compiled.stats.energy, compiled.program.energy());
        assert_eq!(compiled.stats.abandoned, 0);
        assert_eq!(compiled.stats.forced_stalls, 0);
        assert!(compiled.abandoned_edges.is_empty());
    }

    #[test]
    fn empty_fault_model_matches_plain_compile() {
        let cfg = CompilerConfig::default();
        let assay = multiplex_immunoassay(3);
        let plain = compile(&assay, &cfg).unwrap();
        let faulty = compile_with_faults(&assay, &cfg, &crate::faults::FaultModel::none()).unwrap();
        assert_eq!(plain.stats, faulty.stats);
        assert_eq!(plain.routes, faulty.routes);
    }

    #[test]
    fn dead_electrodes_are_never_touched() {
        use crate::faults::{FaultConfig, FaultModel};
        let cfg = CompilerConfig::default();
        let grid = Grid::new(cfg.grid_width, cfg.grid_height).unwrap();
        let assay = multiplex_immunoassay(4);
        for seed in 0..5u64 {
            let model = FaultModel::generate(&FaultConfig::dead(seed, 0.05), &grid);
            let compiled = compile_with_faults(&assay, &cfg, &model).expect("recoverable");
            // No route ever occupies a dead electrode…
            for r in &compiled.routes {
                for c in &r.path {
                    assert!(!model.is_dead(*c), "route {} crosses dead cell {c}", r.id);
                }
            }
            // …and no module covers one.
            for e in compiled.schedule.entries() {
                for d in model.dead_cells() {
                    let covered = d.x >= e.origin.x
                        && d.x < e.origin.x + e.spec.width
                        && d.y >= e.origin.y
                        && d.y < e.origin.y + e.spec.height;
                    assert!(!covered, "{} placed over dead cell {d}", e.op);
                }
            }
        }
    }

    #[test]
    fn same_fault_seed_reproduces_identical_stats() {
        use crate::faults::{FaultConfig, FaultModel};
        let cfg = CompilerConfig::default();
        let grid = Grid::new(cfg.grid_width, cfg.grid_height).unwrap();
        let fc = FaultConfig {
            seed: 11,
            dead_fraction: 0.05,
            degraded_fraction: 0.05,
            transient_count: 2,
            ..FaultConfig::default()
        };
        let assay = multiplex_immunoassay(3);
        let a = compile_with_faults(&assay, &cfg, &FaultModel::generate(&fc, &grid)).unwrap();
        let b = compile_with_faults(&assay, &cfg, &FaultModel::generate(&fc, &grid)).unwrap();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn degraded_crossings_are_counted_as_forced_stalls() {
        use crate::faults::{FaultModel, TransientFault};
        // A degraded wall splitting the array: transports crossing it pay
        // dwells, which the stats attribute to the faults.
        let cfg = CompilerConfig::default();
        let degraded: Vec<Cell> = (0..16).map(|y| Cell::new(8, y)).collect();
        let model = FaultModel::from_parts(Vec::new(), degraded, Vec::<TransientFault>::new());
        let compiled = compile_with_faults(&multiplex_immunoassay(4), &cfg, &model)
            .expect("degraded cells never make an array unroutable");
        assert!(compiled.stats.forced_stalls <= compiled.stats.route_stalls);
        let recount: u32 = compiled
            .routes
            .iter()
            .map(|r| {
                r.path
                    .windows(2)
                    .filter(|w| w[0] == w[1] && model.degraded_cells().contains(&w[0]))
                    .count() as u32
            })
            .sum();
        assert_eq!(compiled.stats.forced_stalls, recount);
    }

    #[test]
    fn unroutable_waste_transport_is_abandoned() {
        use crate::faults::{FaultModel, TransientFault};
        // An impossible routing budget (max_time 1) makes the single
        // waste transport unroutable; under fault injection the compiler
        // sacrifices it instead of failing.
        let mut b = Assay::builder();
        let d = b.dispense("sample");
        b.output(d);
        let assay = b.build().unwrap();
        let cfg = CompilerConfig {
            routing: crate::route::RoutingConfig::new().max_time(1),
            ..CompilerConfig::default()
        };
        let model = FaultModel::from_parts(
            vec![Cell::new(7, 7)],
            Vec::new(),
            Vec::<TransientFault>::new(),
        );
        let compiled = compile_with_faults(&assay, &cfg, &model).expect("degrades gracefully");
        assert_eq!(compiled.stats.abandoned, 1);
        assert!(compiled.routes.is_empty());
        assert_eq!(compiled.abandoned_edges.len(), 1);
        assert!(matches!(
            assay.op(compiled.abandoned_edges[0].1).kind,
            OpKind::Output
        ));
        // Every failed attempt was counted.
        assert_eq!(compiled.stats.reroutes, cfg.max_latency_retries + 1);
        // Without faults the same configuration fails outright — result
        // transports are never sacrificed silently.
        let plain = compile(&assay, &cfg);
        assert!(matches!(plain, Err(CompileError::Route(_))));
    }
}
