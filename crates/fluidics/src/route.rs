//! Concurrent droplet routing.
//!
//! Routing moves droplets between modules on the shared electrode array
//! while honouring the fluidic [`constraints`](crate::constraints). The
//! planner is a prioritized space-time A\*: droplets are planned one at a
//! time (longest trip first) against the reservations of already-planned
//! droplets, with stall moves allowed and priority rotation on failure —
//! the classic approach for DMFB routing, and the subject of experiment E1
//! (concurrent versus serial transport of multiple samples).
//!
//! ## The reservation index
//!
//! The hot inner loop is the A\* successor check: *may this droplet occupy
//! cell `c` at tick `t`?* Instead of scanning every already-planned route
//! (O(planned) per successor), the planner keeps a flat space-time
//! **reservation index**: one slot per `cell × tick`, into which each
//! planned route writes its *dilated* conflict footprint — every cell
//! within Chebyshev `MIN_SEPARATION − 1` of an occupied position, at every
//! arrival tick the pairwise rules forbid under the configured lookahead.
//! A successor check is then a single slot load. Merge-group exemptions
//! survive the precomputation: a slot claimed only by droplets of one
//! merge group is *soft* (passable for partners of that group), anything
//! else is *hard*. The `best`/`parent` maps of the search itself are dense
//! epoch-tagged slabs indexed by `(cell, tick)`, so the priority-rotation
//! retries of [`route_with_environment`] reuse one allocation without
//! clearing. The pre-index planner survives unchanged in
//! [`reference`](mod@reference) as the differential-test oracle; both
//! produce byte-identical routes.
//!
//! ## The cost of one search step
//!
//! Three choices keep each A\* step cheap without changing a route:
//!
//! - **Check order.** A successor is rejected first by the horizon, then
//!   by the `best` slab (a known arrival with no more moves), and only
//!   then by obstacles, reservations and pending emergence seeds. All
//!   these checks are pure, so the order changes only which one rejects.
//! - **Packed heap key.** An open-list node is one `u128` whose integer
//!   order is the node order `(f, moves, t, cell)`. Its cell part is the
//!   column-major `x·height + y`, matching [`Cell`]'s derived `(x, y)`
//!   order; the slabs' row-major index would break ties differently.
//! - **Sorted pending seeds.** The not-yet-planned droplets' emergence
//!   seeds are sorted by departure, so a successor check reads only the
//!   seeds departing within a tick of its arrival.
//!
//! The rotation loop also stops at once when a request fails at position
//! 0 of the planning order: the rotation would leave the order unchanged,
//! and an attempt depends on nothing else, so every remaining rotation
//! would repeat the same failure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use crate::constraints::MIN_SEPARATION;
use crate::geometry::{Cell, Grid};

/// A droplet transport request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingRequest {
    /// Caller-chosen identifier (reported back in [`Route`]).
    pub id: u32,
    /// Cell where the droplet appears.
    pub start: Cell,
    /// Cell where the droplet must arrive (it is absorbed there).
    pub goal: Cell,
    /// Absolute tick at which the droplet appears on the array.
    pub depart: u32,
    /// Latest acceptable arrival tick (inclusive), if any.
    pub deadline: Option<u32>,
    /// Earliest acceptable arrival tick: the droplet keeps circulating
    /// (protected by the pairwise droplet constraints) until then. Used by
    /// the assay compiler so droplets only park inside a consumer module
    /// once its landing window has opened.
    pub earliest_arrival: Option<u32>,
    /// Obstacle tags this droplet may pass through (its own source and
    /// destination modules in the assay compiler).
    pub ignore_tags: Vec<u32>,
    /// Merge group: requests sharing a group are droplets destined to
    /// coalesce in the same consumer module, so the pairwise spacing
    /// rules do not apply between them (touching early simply merges them
    /// early). `None` = no partners.
    pub merge_group: Option<u32>,
}

impl RoutingRequest {
    /// A request departing at tick 0 with no deadline.
    pub fn new(id: u32, start: Cell, goal: Cell) -> Self {
        RoutingRequest {
            id,
            start,
            goal,
            depart: 0,
            deadline: None,
            earliest_arrival: None,
            ignore_tags: Vec::new(),
            merge_group: None,
        }
    }

    /// Sets the departure tick.
    pub fn departing(mut self, depart: u32) -> Self {
        self.depart = depart;
        self
    }

    /// Sets the arrival deadline (inclusive).
    pub fn with_deadline(mut self, deadline: u32) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the earliest acceptable arrival tick.
    pub fn arriving_no_earlier_than(mut self, tick: u32) -> Self {
        self.earliest_arrival = Some(tick);
        self
    }

    /// Lets the droplet ignore obstacles carrying the given tag.
    pub fn ignoring_tag(mut self, tag: u32) -> Self {
        self.ignore_tags.push(tag);
        self
    }

    /// Marks this droplet as a merge partner of every other request in
    /// `group`.
    pub fn in_merge_group(mut self, group: u32) -> Self {
        self.merge_group = Some(group);
        self
    }
}

/// A rectangular region blocked for routing during a time interval
/// (an active module plus its segregation ring, or a faulty electrode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obstacle {
    /// Lower-left corner (inclusive).
    pub min: Cell,
    /// Upper-right corner (inclusive).
    pub max: Cell,
    /// First blocked tick.
    pub from: u32,
    /// First tick after the blockage ends (half-open interval).
    pub until: u32,
    /// Caller-chosen tag matched against [`RoutingRequest::ignore_tags`];
    /// use `0` for untagged walls.
    pub tag: u32,
    /// Whether [`blocks`](Self::blocks) expands the region by the 1-cell
    /// segregation ring. Active modules need the ring (a droplet adjacent
    /// to a module would merge with the droplets inside); a dead electrode
    /// blocks only itself — droplets may pass right next to it.
    pub ring: bool,
}

impl Obstacle {
    /// A module-style obstacle: `blocks` includes the segregation ring.
    pub fn region(min: Cell, max: Cell, from: u32, until: u32, tag: u32) -> Self {
        Obstacle {
            min,
            max,
            from,
            until,
            tag,
            ring: true,
        }
    }

    /// A single-cell, ring-less obstacle (a dead or transiently faulty
    /// electrode): only the cell itself is unusable.
    pub fn cell(cell: Cell, from: u32, until: u32) -> Self {
        Obstacle {
            min: cell,
            max: cell,
            from,
            until,
            tag: 0,
            ring: false,
        }
    }

    /// Whether `cell` at tick `t` is inside the obstacle (expanded by the
    /// 1-cell segregation ring when [`ring`](Self::ring) is set).
    pub fn blocks(&self, cell: Cell, t: u32) -> bool {
        let r = i32::from(self.ring);
        t >= self.from
            && t < self.until
            && cell.x >= self.min.x - r
            && cell.x <= self.max.x + r
            && cell.y >= self.min.y - r
            && cell.y <= self.max.y + r
    }
}

/// Router tuning knobs.
///
/// Constructible as a struct literal, via [`Default`], or with the
/// chainable builder style shared by the workspace's other configs:
///
/// ```
/// use mns_fluidics::route::RoutingConfig;
/// let cfg = RoutingConfig::new().lookahead(2).max_priority_rotations(8);
/// assert_eq!(cfg.lookahead, 2);
/// assert_eq!(cfg.max_time, RoutingConfig::default().max_time);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingConfig {
    /// Maximum ticks a droplet may spend from its departure; a droplet
    /// failing to arrive within `depart + max_time` is unroutable.
    pub max_time: u32,
    /// Constraint lookahead window against already-planned droplets
    /// (ablation A2):
    /// `0` = same-instant (static) rule only — *unsafe*, kept for the
    /// ablation; `1` = static + dynamic rules (correct); `2` = additionally
    /// avoid cells adjacent to a planned droplet's `t + 2` position
    /// (anticipatory).
    pub lookahead: u32,
    /// How many priority rotations to attempt before giving up.
    pub max_priority_rotations: u32,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            max_time: 2_048,
            lookahead: 1,
            max_priority_rotations: 32,
        }
    }
}

impl RoutingConfig {
    /// The default configuration (see [`Default`]).
    pub fn new() -> RoutingConfig {
        RoutingConfig::default()
    }

    /// Sets the per-droplet routing horizon in ticks.
    #[must_use]
    pub fn max_time(mut self, max_time: u32) -> RoutingConfig {
        self.max_time = max_time;
        self
    }

    /// Sets the constraint lookahead window (0 = static only, 1 =
    /// dynamic, 2 = anticipatory).
    #[must_use]
    pub fn lookahead(mut self, lookahead: u32) -> RoutingConfig {
        self.lookahead = lookahead;
        self
    }

    /// Sets how many priority rotations to attempt before giving up.
    #[must_use]
    pub fn max_priority_rotations(mut self, rotations: u32) -> RoutingConfig {
        self.max_priority_rotations = rotations;
        self
    }
}

/// A planned droplet route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Identifier copied from the request.
    pub id: u32,
    /// Tick at which the droplet appears at `path[0]`.
    pub depart: u32,
    /// Position per tick starting at `depart`; the droplet is absorbed
    /// after the last entry.
    pub path: Vec<Cell>,
}

impl Route {
    /// Position at absolute tick `t`, or `None` before departure / after
    /// absorption.
    pub fn position_at(&self, t: u32) -> Option<Cell> {
        if t < self.depart {
            return None;
        }
        self.path.get((t - self.depart) as usize).copied()
    }

    /// Arrival tick (absolute).
    pub fn arrival(&self) -> u32 {
        self.depart + self.path.len().saturating_sub(1) as u32
    }

    /// Number of actual moves (non-stall steps).
    pub fn moves(&self) -> u32 {
        self.path.windows(2).filter(|w| w[0] != w[1]).count() as u32
    }

    /// Number of stall steps.
    pub fn stalls(&self) -> u32 {
        self.path.windows(2).filter(|w| w[0] == w[1]).count() as u32
    }
}

/// Result of routing a set of requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// One route per request, in request order.
    pub routes: Vec<Route>,
    /// Latest arrival tick.
    pub makespan: u32,
    /// Total moves across droplets.
    pub total_moves: u32,
    /// Total stalls across droplets.
    pub total_stalls: u32,
    /// Priority rotations that were needed.
    pub rotations: u32,
}

/// Routing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A request's endpoints are off-grid or inside a permanent obstacle.
    BadEndpoint(u32),
    /// Two requests share conflicting endpoints (goals/starts too close
    /// with overlapping lifetimes cannot be satisfied).
    EndpointConflict(u32, u32),
    /// No fluidically-safe path was found within the horizon, after all
    /// priority rotations.
    Unroutable(u32),
    /// A route exists but misses the request's deadline.
    DeadlineMissed(u32),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BadEndpoint(id) => write!(f, "droplet {id} has an off-grid endpoint"),
            RouteError::EndpointConflict(a, b) => {
                write!(f, "droplets {a} and {b} have conflicting endpoints")
            }
            RouteError::Unroutable(id) => write!(f, "no safe route for droplet {id}"),
            RouteError::DeadlineMissed(id) => write!(f, "droplet {id} misses its deadline"),
        }
    }
}

impl Error for RouteError {}

/// Routes all requests **concurrently** (droplets share the array in
/// time). Requests are planned longest-trip-first; on failure the planning
/// order is rotated.
///
/// # Errors
///
/// See [`RouteError`].
pub fn route_concurrent(
    grid: &Grid,
    requests: &[RoutingRequest],
    config: &RoutingConfig,
) -> Result<RoutingOutcome, RouteError> {
    route_with_obstacles(grid, requests, &[], config)
}

/// Routes all requests concurrently while avoiding time-windowed
/// [`Obstacle`] regions (used by the assay compiler, where active modules
/// block the array).
///
/// # Errors
///
/// See [`RouteError`].
pub fn route_with_obstacles(
    grid: &Grid,
    requests: &[RoutingRequest],
    obstacles: &[Obstacle],
    config: &RoutingConfig,
) -> Result<RoutingOutcome, RouteError> {
    route_with_environment(grid, requests, obstacles, &[], config)
}

/// Routes all requests concurrently in a *degraded environment*: besides
/// time-windowed [`Obstacle`] regions, `degraded` lists electrodes with
/// weakened actuation — a droplet can still cross one, but moving onto it
/// takes two ticks instead of one (the droplet dwells on the slow cell),
/// which shows up as a forced stall in the resulting [`Route`].
///
/// # Errors
///
/// See [`RouteError`].
pub fn route_with_environment(
    grid: &Grid,
    requests: &[RoutingRequest],
    obstacles: &[Obstacle],
    degraded: &[Cell],
    config: &RoutingConfig,
) -> Result<RoutingOutcome, RouteError> {
    let mut expansions = 0u64;
    let result =
        route_environment_inner(grid, requests, obstacles, degraded, config, &mut expansions);
    if expansions > 0 {
        mns_telemetry::counter_add("fluidics.route.expansions", expansions);
    }
    result
}

fn route_environment_inner(
    grid: &Grid,
    requests: &[RoutingRequest],
    obstacles: &[Obstacle],
    degraded: &[Cell],
    config: &RoutingConfig,
    expansions: &mut u64,
) -> Result<RoutingOutcome, RouteError> {
    for r in requests {
        if !grid.contains(r.start) || !grid.contains(r.goal) {
            return Err(RouteError::BadEndpoint(r.id));
        }
        if let Some(d) = r.deadline {
            if r.depart + r.start.manhattan(r.goal) as u32 > d {
                return Err(RouteError::DeadlineMissed(r.id));
            }
        }
    }

    // Initial priority: longest Manhattan trip first (hardest to fit).
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| Reverse(requests[i].start.manhattan(requests[i].goal)));

    let walls = ObstacleGrid::build(grid, obstacles);
    let slow = DegradedGrid::build(grid, degraded);
    let mut reservations = ReservationIndex::new(grid, config.lookahead);
    let mut slab = SearchSlab::new(grid);

    let mut rotations = 0;
    loop {
        match try_order(
            grid,
            requests,
            &walls,
            &slow,
            &order,
            config,
            &mut reservations,
            &mut slab,
            expansions,
        ) {
            Ok(mut routes_by_index) => {
                let routes: Vec<Route> = routes_by_index
                    .iter_mut()
                    .map(|r| r.take().expect("route planned"))
                    .collect();
                // Deadlines.
                for (r, req) in routes.iter().zip(requests) {
                    if let Some(d) = req.deadline {
                        if r.arrival() > d {
                            return Err(RouteError::DeadlineMissed(req.id));
                        }
                    }
                }
                let makespan = routes.iter().map(Route::arrival).max().unwrap_or(0);
                let total_moves = routes.iter().map(Route::moves).sum();
                let total_stalls = routes.iter().map(Route::stalls).sum();
                return Ok(RoutingOutcome {
                    routes,
                    makespan,
                    total_moves,
                    total_stalls,
                    rotations,
                });
            }
            Err(failed_pos) => {
                rotations += 1;
                // A request failing at position 0 is already in front, so
                // the rotation would leave `order` unchanged, and
                // `try_order` is a pure function of `order`: every
                // remaining rotation would repeat this exact failure.
                if failed_pos == 0 || rotations > config.max_priority_rotations {
                    return Err(RouteError::Unroutable(requests[order[failed_pos]].id));
                }
                // Move the failed request to the front and retry.
                let failed = order.remove(failed_pos);
                order.insert(0, failed);
            }
        }
    }
}

/// Routes the requests **serially**: droplet `i` only departs after
/// droplet `i − 1` has arrived, so droplets never interact. This is the
/// baseline of experiment E1.
///
/// # Errors
///
/// See [`RouteError`].
pub fn route_serial(
    grid: &Grid,
    requests: &[RoutingRequest],
    config: &RoutingConfig,
) -> Result<RoutingOutcome, RouteError> {
    let mut routes = Vec::with_capacity(requests.len());
    let mut clock = 0u32;
    for req in requests {
        let depart = clock.max(req.depart);
        let solo = RoutingRequest {
            depart,
            ..req.clone()
        };
        let outcome = route_with_obstacles(grid, &[solo], &[], config)?;
        let route = outcome
            .routes
            .into_iter()
            .next()
            .expect("single request yields a route");
        if let Some(d) = req.deadline {
            if route.arrival() > d {
                return Err(RouteError::DeadlineMissed(req.id));
            }
        }
        // Two settling ticks keep the dynamic fluidic rule satisfied even
        // when one droplet's goal coincides with the next one's start.
        clock = route.arrival() + 2;
        routes.push(route);
    }
    let makespan = routes.iter().map(Route::arrival).max().unwrap_or(0);
    let total_moves = routes.iter().map(Route::moves).sum();
    let total_stalls = routes.iter().map(Route::stalls).sum();
    Ok(RoutingOutcome {
        routes,
        makespan,
        total_moves,
        total_stalls,
        rotations: 0,
    })
}

/// The guaranteed emergence footprint of a droplet that has not been
/// planned yet: whatever route it eventually gets, it occupies `cell`
/// at tick `depart`. Earlier-planned droplets must keep clear of that
/// instant or they doom the rest of the priority order.
#[derive(Debug, Clone, Copy)]
struct PendingSeed {
    cell: Cell,
    depart: u32,
    merge_group: Option<u32>,
}

/// The dilation radius of the pairwise rules: a conflict exists at
/// Chebyshev distance `< MIN_SEPARATION`, so each occupied cell poisons
/// the `(2·R+1)²` block around it.
const DILATE: i32 = MIN_SEPARATION - 1;

/// Reservation-slot ownership. Epoch-stale slots read as free.
const KIND_SOFT: u32 = 1;
const KIND_HARD: u32 = 2;

#[derive(Clone, Copy)]
struct ResSlot {
    epoch: u32,
    kind: u32,
    group: u32,
}

const FREE_SLOT: ResSlot = ResSlot {
    epoch: 0,
    kind: 0,
    group: 0,
};

/// Flat space-time occupancy table over `cell_index × tick`, holding the
/// dilated conflict footprint of every planned route under the configured
/// lookahead. One slot load answers "may a droplet arrive at this cell at
/// this tick?" — the check the pre-index planner answered by scanning all
/// planned routes. Epoch-tagged so the priority-rotation retries reuse the
/// allocation without clearing.
struct ReservationIndex {
    cells: usize,
    width: i32,
    lookahead: u32,
    ticks: u32,
    epoch: u32,
    slots: Vec<ResSlot>,
}

impl ReservationIndex {
    fn new(grid: &Grid, lookahead: u32) -> Self {
        ReservationIndex {
            cells: grid.cell_count() as usize,
            width: grid.width(),
            lookahead,
            ticks: 0,
            epoch: 0,
            slots: Vec::new(),
        }
    }

    /// Invalidates every reservation (O(1): bumps the epoch).
    fn reset(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn index(&self, cell: Cell, t: u32) -> usize {
        t as usize * self.cells + (cell.y * self.width + cell.x) as usize
    }

    fn ensure_ticks(&mut self, t: u32) {
        if t < self.ticks {
            return;
        }
        let ticks = (t + 1).next_power_of_two().max(64);
        self.slots.resize(ticks as usize * self.cells, FREE_SLOT);
        self.ticks = ticks;
    }

    /// Would occupying `cell` at tick `t` violate a planned reservation?
    /// Soft slots belong to a single merge group and only block outsiders.
    #[inline]
    fn blocked(&self, cell: Cell, t: u32, my_group: Option<u32>) -> bool {
        if t >= self.ticks {
            return false;
        }
        let s = self.slots[self.index(cell, t)];
        if s.epoch != self.epoch {
            return false;
        }
        s.kind == KIND_HARD || my_group != Some(s.group)
    }

    #[inline]
    fn mark(&mut self, cell: Cell, t: u32, group: Option<u32>) {
        self.ensure_ticks(t);
        let epoch = self.epoch;
        let idx = self.index(cell, t);
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            *slot = match group {
                // Ungrouped droplets block everyone.
                None => ResSlot {
                    epoch,
                    kind: KIND_HARD,
                    group: 0,
                },
                Some(g) => ResSlot {
                    epoch,
                    kind: KIND_SOFT,
                    group: g,
                },
            };
        } else if slot.kind != KIND_HARD {
            // Two distinct claimants (different groups, or a group plus an
            // ungrouped droplet) block everyone: no searcher is exempt
            // from both.
            match group {
                Some(g) if slot.kind == KIND_SOFT && slot.group == g => {}
                _ => {
                    slot.kind = KIND_HARD;
                    slot.group = 0;
                }
            }
        }
    }

    /// Writes the dilated conflict footprint of a freshly-planned route.
    /// A droplet occupying `p` at tick `τ` forbids arrivals within
    /// Chebyshev `< MIN_SEPARATION` of `p` at `τ` (static rule), at
    /// `τ ± 1` (dynamic rule, lookahead ≥ 1) and at `τ − 2`
    /// (anticipatory, lookahead ≥ 2) — exactly the conditions the
    /// pre-index planner re-derived per successor.
    fn reserve(&mut self, grid: &Grid, route: &Route, group: Option<u32>) {
        let lookahead = self.lookahead;
        for (k, &p) in route.path.iter().enumerate() {
            let occupied = route.depart + k as u32;
            for dy in -DILATE..=DILATE {
                for dx in -DILATE..=DILATE {
                    let c = Cell::new(p.x + dx, p.y + dy);
                    if !grid.contains(c) {
                        continue;
                    }
                    self.mark(c, occupied, group);
                    if lookahead >= 1 {
                        self.mark(c, occupied + 1, group);
                        if let Some(t) = occupied.checked_sub(1) {
                            self.mark(c, t, group);
                        }
                    }
                    if lookahead >= 2 {
                        if let Some(t) = occupied.checked_sub(2) {
                            self.mark(c, t, group);
                        }
                    }
                }
            }
        }
    }
}

/// Per-cell time-windowed obstacle spans, rasterized once per routing
/// call so the per-successor check walks a (usually empty) short list
/// instead of every obstacle.
struct ObstacleGrid {
    width: i32,
    spans: Vec<Vec<(u32, u32, u32)>>,
}

impl ObstacleGrid {
    fn build(grid: &Grid, obstacles: &[Obstacle]) -> Self {
        let mut spans = vec![Vec::new(); grid.cell_count() as usize];
        for o in obstacles {
            let r = i32::from(o.ring);
            let x0 = (o.min.x - r).max(0);
            let x1 = (o.max.x + r).min(grid.width() - 1);
            let y0 = (o.min.y - r).max(0);
            let y1 = (o.max.y + r).min(grid.height() - 1);
            for y in y0..=y1 {
                for x in x0..=x1 {
                    spans[(y * grid.width() + x) as usize].push((o.from, o.until, o.tag));
                }
            }
        }
        ObstacleGrid {
            width: grid.width(),
            spans,
        }
    }

    #[inline]
    fn blocked(&self, cell: Cell, t: u32, ignore_tags: &[u32]) -> bool {
        let spans = &self.spans[(cell.y * self.width + cell.x) as usize];
        spans
            .iter()
            .any(|&(from, until, tag)| t >= from && t < until && !ignore_tags.contains(&tag))
    }
}

/// Dense membership grid for degraded (slow-actuation) electrodes.
struct DegradedGrid {
    width: i32,
    slow: Vec<bool>,
}

impl DegradedGrid {
    fn build(grid: &Grid, degraded: &[Cell]) -> Self {
        let mut slow = vec![false; grid.cell_count() as usize];
        for &c in degraded {
            if grid.contains(c) {
                slow[(c.y * grid.width() + c.x) as usize] = true;
            }
        }
        DegradedGrid {
            width: grid.width(),
            slow,
        }
    }

    #[inline]
    fn contains(&self, cell: Cell) -> bool {
        self.slow[(cell.y * self.width + cell.x) as usize]
    }
}

/// One search state in the dense `best`/`parent` slab.
#[derive(Clone, Copy)]
struct SearchSlot {
    epoch: u32,
    moves: u32,
    parent_cell: u32,
    parent_t: u32,
}

const UNVISITED: SearchSlot = SearchSlot {
    epoch: 0,
    moves: 0,
    parent_cell: 0,
    parent_t: 0,
};

/// Sentinel `parent_cell` marking the emergence seed.
const NO_PARENT: u32 = u32::MAX;

/// Dense `best`-cost + `parent` storage for one A\* run, indexed by
/// `(cell, tick − depart)` and epoch-tagged so every droplet (and every
/// priority-rotation retry) reuses the same allocation with no clearing.
struct SearchSlab {
    cells: usize,
    width: i32,
    ticks: u32,
    epoch: u32,
    slots: Vec<SearchSlot>,
}

impl SearchSlab {
    fn new(grid: &Grid) -> Self {
        SearchSlab {
            cells: grid.cell_count() as usize,
            width: grid.width(),
            ticks: 0,
            epoch: 0,
            slots: Vec::new(),
        }
    }

    /// Starts a fresh search (O(1): bumps the epoch).
    fn reset(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn index(&self, cell: Cell, t_rel: u32) -> usize {
        t_rel as usize * self.cells + (cell.y * self.width + cell.x) as usize
    }

    fn ensure_ticks(&mut self, t_rel: u32) {
        if t_rel < self.ticks {
            return;
        }
        let ticks = (t_rel + 1).next_power_of_two().max(64);
        self.slots.resize(ticks as usize * self.cells, UNVISITED);
        self.ticks = ticks;
    }

    #[inline]
    fn best(&self, cell: Cell, t_rel: u32) -> u32 {
        if t_rel >= self.ticks {
            return u32::MAX;
        }
        let s = self.slots[self.index(cell, t_rel)];
        if s.epoch == self.epoch {
            s.moves
        } else {
            u32::MAX
        }
    }

    #[inline]
    fn visit(&mut self, cell: Cell, t_rel: u32, moves: u32, parent_cell: u32, parent_t: u32) {
        self.ensure_ticks(t_rel);
        let epoch = self.epoch;
        let idx = self.index(cell, t_rel);
        self.slots[idx] = SearchSlot {
            epoch,
            moves,
            parent_cell,
            parent_t,
        };
    }

    #[inline]
    fn parent(&self, cell: Cell, t_rel: u32) -> (u32, u32) {
        let s = self.slots[self.index(cell, t_rel)];
        (s.parent_cell, s.parent_t)
    }
}

/// Packs an A\* node into one open-list key whose integer order is the
/// lexicographic order of `(f, moves, t, cell)`, with cells in
/// [`Cell`]'s derived `(x, y)` order. The cell part is therefore the
/// column-major index `x·height + y`; the slabs' row-major `y·width + x`
/// would reorder ties and change routes. Like
/// [`SearchSlot::parent_cell`], the index must fit a `u32`.
#[inline]
fn node_key(f: u32, moves: u32, t: u32, cell: Cell, height: i32) -> u128 {
    let column_major = (cell.x * height + cell.y) as u32;
    u128::from(f) << 96 | u128::from(moves) << 64 | u128::from(t) << 32 | u128::from(column_major)
}

/// Unpacks a [`node_key`] into `(moves, t, cell)`.
#[inline]
fn node_of(key: u128, height: i32) -> (u32, u32, Cell) {
    let column_major = key as u32 as i32;
    let cell = Cell::new(column_major / height, column_major % height);
    ((key >> 64) as u32, (key >> 32) as u32, cell)
}

/// Attempts to plan every request in the given order. On failure returns
/// the *position in `order`* of the request that could not be planned.
#[allow(clippy::too_many_arguments)]
fn try_order(
    grid: &Grid,
    requests: &[RoutingRequest],
    walls: &ObstacleGrid,
    slow: &DegradedGrid,
    order: &[usize],
    config: &RoutingConfig,
    reservations: &mut ReservationIndex,
    slab: &mut SearchSlab,
    expansions: &mut u64,
) -> Result<Vec<Option<Route>>, usize> {
    reservations.reset();
    let mut planned: Vec<(Route, Option<u32>)> = Vec::new();
    let mut by_index: Vec<Option<Route>> = vec![None; requests.len()];
    for (pos, &idx) in order.iter().enumerate() {
        let req = &requests[idx];
        let mut pending: Vec<PendingSeed> = order[pos + 1..]
            .iter()
            .map(|&j| PendingSeed {
                cell: requests[j].start,
                depart: requests[j].depart,
                merge_group: requests[j].merge_group,
            })
            .collect();
        pending.sort_by_key(|p| p.depart);
        match astar(
            grid,
            req,
            walls,
            slow,
            &planned,
            &pending,
            config,
            reservations,
            slab,
            expansions,
        ) {
            Some(route) => {
                // Reservations are only ever read by the searches that
                // follow in this pass; the last-planned route has none,
                // so skip the (possibly slab-growing) footprint write.
                if pos + 1 < order.len() {
                    reservations.reserve(grid, &route, req.merge_group);
                    planned.push((route.clone(), req.merge_group));
                }
                by_index[idx] = Some(route);
            }
            None => return Err(pos),
        }
    }
    Ok(by_index)
}

/// Is arriving at `next` at tick `tau` compatible with the guaranteed
/// emergence instants of the not-yet-planned droplets? They are a
/// certainty at exactly one instant — their start cell at their depart
/// tick — and violating it (or, under the dynamic rule, the ticks
/// adjacent to it) makes the rest of the priority order unroutable no
/// matter how it is planned.
///
/// `pending` is sorted by `depart`, so only the seeds departing within a
/// tick of `tau` (exactly at `tau` under lookahead 0) are read.
#[inline]
fn pending_ok(
    next: Cell,
    tau: u32,
    pending: &[PendingSeed],
    my_group: Option<u32>,
    lookahead: u32,
) -> bool {
    let (lo, hi) = if lookahead == 0 {
        (tau, tau)
    } else {
        (tau.saturating_sub(1), tau + 1)
    };
    let first = pending.partition_point(|p| p.depart < lo);
    pending[first..]
        .iter()
        .take_while(|p| p.depart <= hi)
        .all(|p| {
            (my_group.is_some() && p.merge_group == my_group)
                || next.chebyshev(p.cell) >= MIN_SEPARATION
        })
}

/// Space-time A\* for one droplet against the reservation index.
///
/// The node ordering, successor enumeration and accept/reject conditions
/// are identical to [`reference`]'s planner — only the bookkeeping
/// changed — so the two produce byte-identical routes.
#[allow(clippy::too_many_arguments)]
fn astar(
    grid: &Grid,
    req: &RoutingRequest,
    walls: &ObstacleGrid,
    slow: &DegradedGrid,
    planned: &[(Route, Option<u32>)],
    pending: &[PendingSeed],
    config: &RoutingConfig,
    reservations: &ReservationIndex,
    slab: &mut SearchSlab,
    expansions: &mut u64,
) -> Option<Route> {
    let height = grid.height();
    let relative_cap = req.depart.saturating_add(config.max_time);
    let horizon = req.deadline.unwrap_or(relative_cap).min(relative_cap);
    let h0 = req.start.manhattan(req.goal) as u32;
    if req.depart + h0 > horizon {
        return None;
    }

    slab.reset();
    let mut open = BinaryHeap::new();

    // The droplet is physically on the array from `depart` on: there is
    // exactly one search seed, and any waiting happens as explicit stall
    // moves that the pairwise constraints check and the verifier sees.
    // Appearance at tick τ must clear every planned droplet at τ−1
    // (their vacated cell), τ (static) and τ+1 (their next move) — plus
    // τ+2 under anticipatory lookahead. This window is wider than the
    // lookahead-0 reservation footprint, so it checks the planned routes
    // directly (once per search, not per successor).
    let emergence_legal = {
        let t0 = req.depart;
        let lo = t0.saturating_sub(1);
        let hi = t0 + if config.lookahead >= 2 { 2 } else { 1 };
        !walls.blocked(req.start, t0, &req.ignore_tags)
            && planned.iter().all(|(r, group)| {
                if req.merge_group.is_some() && *group == req.merge_group {
                    return true;
                }
                (lo..=hi).all(|tt| match r.position_at(tt) {
                    Some(p) => req.start.chebyshev(p) >= MIN_SEPARATION,
                    None => true,
                })
            })
            && pending.iter().all(|p| {
                if req.merge_group.is_some() && p.merge_group == req.merge_group {
                    return true;
                }
                // Two guaranteed emergences within a tick of each other
                // must already satisfy the spacing rule.
                t0 + 1 < p.depart
                    || p.depart + 1 < t0
                    || req.start.chebyshev(p.cell) >= MIN_SEPARATION
            })
    };
    if emergence_legal {
        let seed = node_key(req.depart + h0, 0, req.depart, req.start, height);
        open.push(Reverse(seed));
        slab.visit(req.start, 0, 0, NO_PARENT, 0);
    }

    while let Some(Reverse(key)) = open.pop() {
        let (moves, t, cell) = node_of(key, height);
        if moves > slab.best(cell, t - req.depart) {
            continue; // stale heap entry
        }
        *expansions += 1;
        if cell == req.goal && t >= req.earliest_arrival.unwrap_or(0) {
            // Reconstruct back to the emergence seed; the route starts on
            // the array at that instant (`Route::depart`), any earlier
            // time having been spent inside the producer module. A link
            // may span two ticks (a dwell on a degraded electrode), in
            // which case the droplet occupies the destination cell for
            // every intermediate tick.
            let mut path = vec![cell];
            let mut cur = (cell, t);
            loop {
                let (pc, pt) = slab.parent(cur.0, cur.1 - req.depart);
                if pc == NO_PARENT {
                    break;
                }
                let prev = (
                    Cell::new(pc as i32 % grid.width(), pc as i32 / grid.width()),
                    pt,
                );
                for _ in 1..(cur.1 - prev.1) {
                    path.push(cur.0);
                }
                path.push(prev.0);
                cur = prev;
            }
            path.reverse();
            let depart = t - (path.len() as u32 - 1);
            return Some(Route {
                id: req.id,
                depart,
                path,
            });
        }
        if t >= horizon {
            continue;
        }
        let candidates = std::iter::once(cell).chain(grid.neighbors(cell));
        for next in candidates {
            let h = next.manhattan(req.goal) as u32;
            // Actuating a droplet onto a degraded electrode takes two
            // ticks: it occupies the cell at both t+1 and t+2 (a forced
            // dwell). Stalling in place costs one tick regardless.
            let dt = if next != cell && slow.contains(next) {
                2
            } else {
                1
            };
            if t + dt + h > horizon {
                continue; // cannot make the deadline from there
            }
            // The checks below are pure, so testing the one-load `best`
            // first changes only which check rejects a successor.
            let new_moves = moves + u32::from(next != cell);
            let t_next = t + dt;
            if new_moves >= slab.best(next, t_next - req.depart) {
                continue;
            }
            if (1..=dt).any(|d| walls.blocked(next, t + d, &req.ignore_tags)) {
                continue;
            }
            // Each occupied tick must clear the planned droplets (one
            // reservation-slot load per tick) and the pending emergence
            // seeds: the move-in arrival at t+1, plus (for a dwell) the
            // stay at t+2.
            if (1..=dt).any(|d| {
                reservations.blocked(next, t + d, req.merge_group)
                    || !pending_ok(next, t + d, pending, req.merge_group, config.lookahead)
            }) {
                continue;
            }
            let parent_cell = (cell.y * grid.width() + cell.x) as u32;
            slab.visit(next, t_next - req.depart, new_moves, parent_cell, t);
            let successor = node_key(t_next + h, new_moves, t_next, next, height);
            open.push(Reverse(successor));
        }
    }
    None
}

/// The pre-reservation-index planner, frozen as the differential-test
/// oracle (the routing analogue of `mns-dd`'s `NaiveFamily`): every
/// successor check scans all planned routes via [`Route::position_at`]
/// and the open/closed sets are hash maps keyed by `(Cell, tick)`. The
/// production planner in the parent module must return byte-identical
/// results; `tests/route_differential.rs` pins that equivalence on
/// random workloads.
pub mod reference {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    use super::{
        Obstacle, PendingSeed, Route, RouteError, RoutingConfig, RoutingOutcome, RoutingRequest,
        MIN_SEPARATION,
    };
    use crate::geometry::{Cell, Grid};

    /// [`super::route_concurrent`], planned by the oracle.
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route_concurrent(
        grid: &Grid,
        requests: &[RoutingRequest],
        config: &RoutingConfig,
    ) -> Result<RoutingOutcome, RouteError> {
        route_with_environment(grid, requests, &[], &[], config)
    }

    /// [`super::route_with_environment`], planned by the oracle.
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route_with_environment(
        grid: &Grid,
        requests: &[RoutingRequest],
        obstacles: &[Obstacle],
        degraded: &[Cell],
        config: &RoutingConfig,
    ) -> Result<RoutingOutcome, RouteError> {
        for r in requests {
            if !grid.contains(r.start) || !grid.contains(r.goal) {
                return Err(RouteError::BadEndpoint(r.id));
            }
            if let Some(d) = r.deadline {
                if r.depart + r.start.manhattan(r.goal) as u32 > d {
                    return Err(RouteError::DeadlineMissed(r.id));
                }
            }
        }

        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| Reverse(requests[i].start.manhattan(requests[i].goal)));

        let degraded: std::collections::HashSet<Cell> = degraded.iter().copied().collect();

        let mut rotations = 0;
        loop {
            match try_order(grid, requests, obstacles, &degraded, &order, config) {
                Ok(mut routes_by_index) => {
                    let routes: Vec<Route> = (0..requests.len())
                        .map(|i| routes_by_index.remove(&i).expect("route planned"))
                        .collect();
                    for (r, req) in routes.iter().zip(requests) {
                        if let Some(d) = req.deadline {
                            if r.arrival() > d {
                                return Err(RouteError::DeadlineMissed(req.id));
                            }
                        }
                    }
                    let makespan = routes.iter().map(Route::arrival).max().unwrap_or(0);
                    let total_moves = routes.iter().map(Route::moves).sum();
                    let total_stalls = routes.iter().map(Route::stalls).sum();
                    return Ok(RoutingOutcome {
                        routes,
                        makespan,
                        total_moves,
                        total_stalls,
                        rotations,
                    });
                }
                Err(failed_pos) => {
                    rotations += 1;
                    if rotations > config.max_priority_rotations {
                        return Err(RouteError::Unroutable(requests[order[failed_pos]].id));
                    }
                    let failed = order.remove(failed_pos);
                    order.insert(0, failed);
                }
            }
        }
    }

    fn try_order(
        grid: &Grid,
        requests: &[RoutingRequest],
        obstacles: &[Obstacle],
        degraded: &std::collections::HashSet<Cell>,
        order: &[usize],
        config: &RoutingConfig,
    ) -> Result<HashMap<usize, Route>, usize> {
        let mut planned: Vec<(Route, Option<u32>)> = Vec::new();
        let mut by_index = HashMap::new();
        for (pos, &idx) in order.iter().enumerate() {
            let req = &requests[idx];
            let pending: Vec<PendingSeed> = order[pos + 1..]
                .iter()
                .map(|&j| PendingSeed {
                    cell: requests[j].start,
                    depart: requests[j].depart,
                    merge_group: requests[j].merge_group,
                })
                .collect();
            match astar(grid, req, obstacles, degraded, &planned, &pending, config) {
                Some(route) => {
                    planned.push((route.clone(), req.merge_group));
                    by_index.insert(idx, route);
                }
                None => return Err(pos),
            }
        }
        Ok(by_index)
    }

    /// Is occupying `next` at `t + 1` compatible with every already-planned
    /// route, under the configured lookahead?
    ///
    /// All rules reduce to conditions on the *destination* cell: being at
    /// `next` at time `τ = t + 1` requires staying ≥ 2 (Chebyshev) from a
    /// planned droplet's position at `τ` (static rule), at `τ − 1` (our move
    /// into a cell it is vacating) and at `τ + 1` (its move into a cell next
    /// to us). Checking the last condition here — at the transition that
    /// *enters* the cell — is essential: checking it one step later would
    /// reject every successor of an already-doomed state instead of pruning
    /// the doomed state itself.
    fn move_ok(
        next: Cell,
        t: u32,
        planned: &[(Route, Option<u32>)],
        pending: &[PendingSeed],
        my_group: Option<u32>,
        lookahead: u32,
    ) -> bool {
        for p in pending {
            if my_group.is_some() && p.merge_group == my_group {
                continue;
            }
            let tau = t + 1;
            let near = if lookahead == 0 {
                tau == p.depart
            } else {
                tau + 1 >= p.depart && tau <= p.depart + 1
            };
            if near && next.chebyshev(p.cell) < MIN_SEPARATION {
                return false;
            }
        }
        for (r, group) in planned {
            // Merge partners are exempt from mutual spacing: early contact
            // is an early (intended) merge.
            if my_group.is_some() && *group == my_group {
                continue;
            }
            // Static rule at the arrival instant.
            if let Some(p) = r.position_at(t + 1) {
                if next.chebyshev(p) < MIN_SEPARATION {
                    return false;
                }
            }
            if lookahead >= 1 {
                // Dynamic rule: our new cell versus their old cell…
                if let Some(p) = r.position_at(t) {
                    if next.chebyshev(p) < MIN_SEPARATION {
                        return false;
                    }
                }
                // …and their next move versus our new cell.
                if let Some(p) = r.position_at(t + 2) {
                    if next.chebyshev(p) < MIN_SEPARATION {
                        return false;
                    }
                }
            }
            if lookahead >= 2 {
                // Anticipatory: stay clear of where they will be after
                // that.
                if let Some(p) = r.position_at(t + 3) {
                    if next.chebyshev(p) < MIN_SEPARATION {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Space-time A\* for one droplet against planned reservations.
    fn astar(
        grid: &Grid,
        req: &RoutingRequest,
        obstacles: &[Obstacle],
        degraded: &std::collections::HashSet<Cell>,
        planned: &[(Route, Option<u32>)],
        pending: &[PendingSeed],
        config: &RoutingConfig,
    ) -> Option<Route> {
        #[derive(PartialEq, Eq)]
        struct Node {
            f: u32,
            moves: u32,
            cell: Cell,
            t: u32,
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .f
                    .cmp(&self.f)
                    .then_with(|| other.moves.cmp(&self.moves))
                    .then_with(|| other.t.cmp(&self.t))
                    .then_with(|| other.cell.cmp(&self.cell))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let blocked = |cell: Cell, t: u32| {
            obstacles
                .iter()
                .any(|o| !req.ignore_tags.contains(&o.tag) && o.blocks(cell, t))
        };

        let relative_cap = req.depart.saturating_add(config.max_time);
        let horizon = req.deadline.unwrap_or(relative_cap).min(relative_cap);
        let h0 = req.start.manhattan(req.goal) as u32;
        if req.depart + h0 > horizon {
            return None;
        }

        let mut open = BinaryHeap::new();
        let mut best: HashMap<(Cell, u32), u32> = HashMap::new();
        let mut parent: HashMap<(Cell, u32), (Cell, u32)> = HashMap::new();

        let emergence_legal = {
            let t0 = req.depart;
            let lo = t0.saturating_sub(1);
            let hi = t0 + if config.lookahead >= 2 { 2 } else { 1 };
            !blocked(req.start, t0)
                && planned.iter().all(|(r, group)| {
                    if req.merge_group.is_some() && *group == req.merge_group {
                        return true;
                    }
                    (lo..=hi).all(|tt| match r.position_at(tt) {
                        Some(p) => req.start.chebyshev(p) >= MIN_SEPARATION,
                        None => true,
                    })
                })
                && pending.iter().all(|p| {
                    if req.merge_group.is_some() && p.merge_group == req.merge_group {
                        return true;
                    }
                    t0 + 1 < p.depart
                        || p.depart + 1 < t0
                        || req.start.chebyshev(p.cell) >= MIN_SEPARATION
                })
        };
        if emergence_legal {
            open.push(Node {
                f: req.depart + h0,
                moves: 0,
                cell: req.start,
                t: req.depart,
            });
            best.insert((req.start, req.depart), 0);
        }

        while let Some(Node { cell, t, moves, .. }) = open.pop() {
            if moves > *best.get(&(cell, t)).unwrap_or(&u32::MAX) {
                continue; // stale heap entry
            }
            if cell == req.goal && t >= req.earliest_arrival.unwrap_or(0) {
                let mut path = vec![cell];
                let mut cur = (cell, t);
                while let Some(&prev) = parent.get(&cur) {
                    for _ in 1..(cur.1 - prev.1) {
                        path.push(cur.0);
                    }
                    path.push(prev.0);
                    cur = prev;
                }
                path.reverse();
                let depart = t - (path.len() as u32 - 1);
                return Some(Route {
                    id: req.id,
                    depart,
                    path,
                });
            }
            if t >= horizon {
                continue;
            }
            let candidates = std::iter::once(cell).chain(grid.neighbors(cell));
            for next in candidates {
                let h = next.manhattan(req.goal) as u32;
                let dt = if next != cell && degraded.contains(&next) {
                    2
                } else {
                    1
                };
                if t + dt + h > horizon {
                    continue;
                }
                if (1..=dt).any(|d| blocked(next, t + d)) {
                    continue;
                }
                if !(0..dt).all(|d| {
                    move_ok(
                        next,
                        t + d,
                        planned,
                        pending,
                        req.merge_group,
                        config.lookahead,
                    )
                }) {
                    continue;
                }
                let new_moves = moves + u32::from(next != cell);
                let key = (next, t + dt);
                let known = best.get(&key).copied().unwrap_or(u32::MAX);
                if new_moves < known {
                    best.insert(key, new_moves);
                    parent.insert(key, (cell, t));
                    open.push(Node {
                        f: t + dt + h,
                        moves: new_moves,
                        cell: next,
                        t: t + dt,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::verify_routes;

    fn grid(w: i32, h: i32) -> Grid {
        Grid::new(w, h).expect("valid grid")
    }

    #[test]
    fn single_droplet_takes_shortest_path() {
        let g = grid(8, 8);
        let req = RoutingRequest::new(0, Cell::new(0, 0), Cell::new(5, 3));
        let out = route_concurrent(&g, &[req], &RoutingConfig::default()).unwrap();
        assert_eq!(out.makespan, 8);
        assert_eq!(out.total_moves, 8);
        assert_eq!(out.total_stalls, 0);
    }

    #[test]
    fn crossing_droplets_stay_safe() {
        let g = grid(10, 10);
        let reqs = vec![
            RoutingRequest::new(0, Cell::new(0, 5), Cell::new(9, 5)),
            RoutingRequest::new(1, Cell::new(5, 0), Cell::new(5, 9)),
        ];
        let out = route_concurrent(&g, &reqs, &RoutingConfig::default()).unwrap();
        assert!(verify_routes(&out.routes).is_empty());
        // Concurrent must beat the serial baseline.
        let serial = route_serial(&g, &reqs, &RoutingConfig::default()).unwrap();
        assert!(out.makespan < serial.makespan);
    }

    #[test]
    fn many_droplets_verify_clean() {
        let g = grid(16, 16);
        let reqs: Vec<RoutingRequest> = (0..6)
            .map(|i| {
                RoutingRequest::new(
                    i,
                    Cell::new(0, (i as i32) * 3),
                    Cell::new(15, 15 - (i as i32) * 3),
                )
            })
            .collect();
        let out = route_concurrent(&g, &reqs, &RoutingConfig::default()).unwrap();
        assert_eq!(out.routes.len(), 6);
        assert!(verify_routes(&out.routes).is_empty());
    }

    #[test]
    fn head_on_conflict_resolved_with_stalls_or_detours() {
        // Two droplets swapping ends of a corridor just wide enough for a
        // safe detour (Chebyshev separation 2 needs 5 rows).
        let g = grid(9, 5);
        let reqs = vec![
            RoutingRequest::new(0, Cell::new(0, 2), Cell::new(8, 2)),
            RoutingRequest::new(1, Cell::new(8, 2), Cell::new(0, 2)),
        ];
        let out = route_concurrent(&g, &reqs, &RoutingConfig::default()).unwrap();
        assert!(verify_routes(&out.routes).is_empty());
        // Somebody detoured or stalled: combined cost exceeds the two
        // Manhattan distances.
        assert!(out.total_moves + out.total_stalls > 16);
    }

    #[test]
    fn obstacle_blocks_region() {
        let g = grid(8, 8);
        // Permanent wall across columns 2–4 except a gap at the top row.
        let wall = Obstacle::region(Cell::new(3, 0), Cell::new(3, 5), 0, u32::MAX, 0);
        let req = RoutingRequest::new(0, Cell::new(0, 0), Cell::new(7, 0));
        let out = route_with_obstacles(&g, &[req], &[wall], &RoutingConfig::default()).unwrap();
        // Must detour through the y = 7 gap: longer than Manhattan.
        assert!(out.total_moves > 7, "moves = {}", out.total_moves);
        // Every visited cell avoids the expanded obstacle.
        for (k, c) in out.routes[0].path.iter().enumerate() {
            assert!(!wall.blocks(*c, k as u32));
        }
    }

    #[test]
    fn deadline_enforced() {
        let g = grid(8, 8);
        let req = RoutingRequest::new(0, Cell::new(0, 0), Cell::new(7, 7)).with_deadline(5);
        let err = route_concurrent(&g, &[req], &RoutingConfig::default()).unwrap_err();
        assert_eq!(err, RouteError::DeadlineMissed(0));
    }

    #[test]
    fn departure_offsets_respected() {
        let g = grid(8, 8);
        let req = RoutingRequest::new(7, Cell::new(0, 0), Cell::new(3, 0)).departing(10);
        let out = route_concurrent(&g, &[req], &RoutingConfig::default()).unwrap();
        let route = &out.routes[0];
        assert_eq!(route.depart, 10);
        assert_eq!(route.position_at(9), None);
        assert_eq!(route.position_at(10), Some(Cell::new(0, 0)));
        assert_eq!(route.arrival(), 13);
    }

    #[test]
    fn off_grid_endpoint_rejected() {
        let g = grid(8, 8);
        let req = RoutingRequest::new(3, Cell::new(-1, 0), Cell::new(3, 0));
        assert_eq!(
            route_concurrent(&g, &[req], &RoutingConfig::default()).unwrap_err(),
            RouteError::BadEndpoint(3)
        );
    }

    #[test]
    fn lookahead_zero_can_violate_dynamic_rule() {
        // The A2 ablation: with lookahead 0 the router only enforces the
        // static rule, so the verifier may find dynamic violations on
        // congested instances. We merely check the router still produces
        // routes and the verifier is the safety net.
        let g = grid(8, 8);
        let reqs = vec![
            RoutingRequest::new(0, Cell::new(0, 3), Cell::new(7, 3)),
            RoutingRequest::new(1, Cell::new(7, 4), Cell::new(0, 4)),
        ];
        let cfg = RoutingConfig {
            lookahead: 0,
            ..RoutingConfig::default()
        };
        let out = route_concurrent(&g, &reqs, &cfg).unwrap();
        let violations = verify_routes(&out.routes);
        // Static violations must never appear even at lookahead 0.
        assert!(violations.iter().all(|v| !v.static_rule));
    }

    #[test]
    fn ringless_obstacle_allows_adjacent_passage() {
        // A single dead electrode at (2,1): the droplet squeezes past it
        // through the adjacent row, which a ringed obstacle would forbid.
        let g = grid(5, 3);
        let req = RoutingRequest::new(0, Cell::new(0, 1), Cell::new(4, 1));
        let dead = Obstacle::cell(Cell::new(2, 1), 0, u32::MAX);
        let out = route_with_obstacles(
            &g,
            std::slice::from_ref(&req),
            &[dead],
            &RoutingConfig::default(),
        )
        .expect("passable next to a ring-less obstacle");
        assert_eq!(out.total_moves, 6, "2-step detour around the dead cell");
        assert!(out.routes[0].path.iter().all(|&c| c != Cell::new(2, 1)));
        // The same geometry with a module-style (ringed) obstacle walls
        // off the whole corridor.
        let walled = Obstacle::region(Cell::new(2, 1), Cell::new(2, 1), 0, u32::MAX, 0);
        assert!(route_with_obstacles(&g, &[req], &[walled], &RoutingConfig::default()).is_err());
    }

    #[test]
    fn degraded_cells_cost_a_dwell() {
        // A full column of degraded electrodes: every path crosses one,
        // paying a forced dwell (the droplet occupies the slow cell for
        // two consecutive ticks).
        let g = grid(5, 3);
        let degraded = vec![Cell::new(2, 0), Cell::new(2, 1), Cell::new(2, 2)];
        let req = RoutingRequest::new(0, Cell::new(0, 1), Cell::new(4, 1));
        let out = route_with_environment(&g, &[req], &[], &degraded, &RoutingConfig::default())
            .expect("degraded cells are passable");
        let r = &out.routes[0];
        assert_eq!(r.moves(), 4, "straight line is still the best path");
        assert_eq!(r.stalls(), 1, "one forced dwell on the degraded column");
        assert_eq!(out.makespan, 5);
        // The dwell shows up as a duplicated degraded cell in the path.
        let dwell = r
            .path
            .windows(2)
            .any(|w| w[0] == w[1] && degraded.contains(&w[0]));
        assert!(dwell, "path {:?} has no degraded dwell", r.path);
        assert!(verify_routes(&out.routes).is_empty());
    }

    #[test]
    fn degraded_dwell_respects_other_droplets() {
        // Two droplets crossing a degraded column stay mutually safe even
        // with the 2-tick occupancies.
        let g = grid(9, 9);
        let degraded: Vec<Cell> = (0..9).map(|y| Cell::new(4, y)).collect();
        let reqs = vec![
            RoutingRequest::new(0, Cell::new(0, 2), Cell::new(8, 2)),
            RoutingRequest::new(1, Cell::new(8, 6), Cell::new(0, 6)),
        ];
        let out = route_with_environment(&g, &reqs, &[], &degraded, &RoutingConfig::default())
            .expect("routable");
        assert!(verify_routes(&out.routes).is_empty());
        assert_eq!(out.total_stalls, 2, "one dwell per droplet");
    }

    #[test]
    fn rotation_counter_reported() {
        let g = grid(6, 6);
        let reqs = vec![
            RoutingRequest::new(0, Cell::new(0, 0), Cell::new(5, 0)),
            RoutingRequest::new(1, Cell::new(5, 5), Cell::new(0, 5)),
        ];
        let out = route_concurrent(&g, &reqs, &RoutingConfig::default()).unwrap();
        assert_eq!(out.rotations, 0, "disjoint rows need no rotation");
    }

    #[test]
    fn config_builder_chains() {
        let cfg = RoutingConfig::new()
            .max_time(128)
            .lookahead(2)
            .max_priority_rotations(4);
        let literal = RoutingConfig {
            max_time: 128,
            lookahead: 2,
            max_priority_rotations: 4,
        };
        assert_eq!(cfg, literal);
        assert_eq!(RoutingConfig::new(), RoutingConfig::default());
    }

    #[test]
    fn node_key_orders_like_the_node_tuple() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x6e0d_e4e7);
        for (w, h) in [(7, 19), (19, 7), (16, 16), (1, 9), (9, 1)] {
            let corners = [
                Cell::new(0, 0),
                Cell::new(w - 1, 0),
                Cell::new(0, h - 1),
                Cell::new(w - 1, h - 1),
            ];
            let draw = |rng: &mut ChaCha8Rng| {
                let mut field = || match rng.gen_range(0..8) {
                    0 => u32::MAX,
                    1 => u32::MAX - 1,
                    _ => rng.gen_range(0..4),
                };
                let (f, moves, t) = (field(), field(), field());
                let cell = if rng.gen_bool(0.3) {
                    corners[rng.gen_range(0..4)]
                } else {
                    Cell::new(rng.gen_range(0..w), rng.gen_range(0..h))
                };
                (f, moves, t, cell)
            };
            let key = |(f, moves, t, c): (u32, u32, u32, Cell)| node_key(f, moves, t, c, h);
            let tuple = |(f, moves, t, c): (u32, u32, u32, Cell)| (f, moves, t, c.x, c.y);
            let row_major = |(f, moves, t, c): (u32, u32, u32, Cell)| {
                node_key(f, moves, t, Cell::new(0, 0), h) | u128::from((c.y * w + c.x) as u32)
            };
            let mut row_major_misorders = 0;
            for _ in 0..5_000 {
                let a = draw(&mut rng);
                let mut b = draw(&mut rng);
                // Share a prefix of 0–3 fields so the later fields decide.
                let shared = rng.gen_range(0..4);
                if shared >= 1 {
                    b.0 = a.0;
                }
                if shared >= 2 {
                    b.1 = a.1;
                }
                if shared >= 3 {
                    b.2 = a.2;
                }
                let order = tuple(a).cmp(&tuple(b));
                assert_eq!(key(a).cmp(&key(b)), order, "{w}×{h}: {a:?} vs {b:?}");
                assert_eq!(node_of(key(a), h), (a.1, a.2, a.3));
                if row_major(a).cmp(&row_major(b)) != order {
                    row_major_misorders += 1;
                }
            }
            // The sample can tell the encodings apart wherever they differ.
            assert_eq!(row_major_misorders > 0, w > 1 && h > 1, "{w}×{h}");
        }
    }

    #[test]
    fn position_zero_failure_skips_the_repeated_rotations() {
        // A ring-less wall across the array until tick 20 holds the
        // droplet back. The deadline fits the Manhattan bound, so the
        // up-front check passes, but no route arrives in time. A lone
        // request fails at position 0, so 32 allowed rotations must cost
        // no more search than none.
        let g = grid(8, 8);
        let wall = Obstacle {
            min: Cell::new(3, 0),
            max: Cell::new(3, 7),
            from: 0,
            until: 20,
            tag: 0,
            ring: false,
        };
        let req = RoutingRequest::new(5, Cell::new(0, 0), Cell::new(7, 0)).with_deadline(9);
        let run = |cfg: &RoutingConfig| {
            let mut expansions = 0;
            let reqs = std::slice::from_ref(&req);
            let out = route_environment_inner(&g, reqs, &[wall], &[], cfg, &mut expansions);
            (out, expansions)
        };
        let (out, expansions) = run(&RoutingConfig::default());
        let (out_none, expansions_none) = run(&RoutingConfig::new().max_priority_rotations(0));
        assert_eq!(out, Err(RouteError::Unroutable(5)));
        assert_eq!(out_none, out);
        assert!(expansions_none > 0);
        assert_eq!(expansions, expansions_none);
        let oracle =
            reference::route_with_environment(&g, &[req], &[wall], &[], &RoutingConfig::default());
        assert_eq!(out, oracle);
    }

    #[test]
    fn corpus_wash_batch_fails_at_position_zero_on_its_second_attempt() {
        // The transport plan of the golden corpus's wash2x1 assay at its
        // base latency. The first attempt fails further down the order;
        // the rotation moves that request to the front, where it fails
        // again, and the search stops there: any budget of one rotation
        // or more does exactly the same work.
        use crate::assay::AssayKind;
        use crate::compiler::{transport_plan, CompilerConfig};
        use crate::schedule::schedule_with_keepout;

        let cfg = CompilerConfig::default();
        let g = grid(16, 16);
        let assay = AssayKind::Washing { wash_steps: 1 }.instantiate(2);
        let sched = schedule_with_keepout(&assay, &g, &cfg.library, &cfg.schedule, &[]).unwrap();
        let (reqs, walls) = transport_plan(&assay, &sched);
        let run = |rotations: u32| {
            let mut expansions = 0;
            let routing = cfg.routing.max_priority_rotations(rotations);
            let out = route_environment_inner(&g, &reqs, &walls, &[], &routing, &mut expansions);
            (out, expansions)
        };
        let (out, expansions) = run(cfg.routing.max_priority_rotations);
        assert!(matches!(out, Err(RouteError::Unroutable(_))), "{out:?}");
        assert_eq!(run(1), (out.clone(), expansions));
        let (out_none, expansions_none) = run(0);
        assert_eq!(out_none, out);
        assert!(expansions_none < expansions);
    }

    #[test]
    fn matches_reference_on_contended_instances() {
        // The reservation index must reproduce the oracle exactly —
        // routes, makespan, stalls and rotation count — including on
        // instances that force detours, merge-group traffic and degraded
        // dwells. The broad randomized differential lives in
        // tests/route_differential.rs; this is the in-crate smoke.
        let g = grid(12, 12);
        let reqs = vec![
            RoutingRequest::new(0, Cell::new(0, 5), Cell::new(11, 5)),
            RoutingRequest::new(1, Cell::new(11, 6), Cell::new(0, 6)),
            RoutingRequest::new(2, Cell::new(5, 0), Cell::new(5, 11)).departing(2),
            RoutingRequest::new(3, Cell::new(0, 0), Cell::new(6, 6)).in_merge_group(9),
            RoutingRequest::new(4, Cell::new(11, 0), Cell::new(6, 6))
                .in_merge_group(9)
                .arriving_no_earlier_than(14),
        ];
        let walls = [Obstacle::region(Cell::new(8, 8), Cell::new(9, 9), 0, 40, 3)];
        let degraded = [Cell::new(3, 5), Cell::new(3, 6)];
        for lookahead in [0u32, 1, 2] {
            let cfg = RoutingConfig::new().lookahead(lookahead);
            let fast = route_with_environment(&g, &reqs, &walls, &degraded, &cfg);
            let oracle = reference::route_with_environment(&g, &reqs, &walls, &degraded, &cfg);
            assert_eq!(fast, oracle, "lookahead {lookahead}");
        }
    }
}
