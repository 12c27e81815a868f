//! Differential pin of the reservation-indexed droplet router against the
//! frozen pre-index planner (`route::reference`): for any workload the
//! generators produce — spread random instances decorated with departures,
//! deadlines, merge groups, obstacles and degraded electrodes, spread
//! instances whose droplets wait for an earliest arrival under short
//! horizons, spread instances whose goals are walled for part of a long
//! wait, and the transport batches real `random_protocol` compilations
//! hand the router —
//! both planners must return byte-identical results: the same `Route`
//! sequences, the same `RoutingOutcome` stats, or the same error. Every
//! batch a fault-free compile of the golden corpus routes is pinned too,
//! failures included.
//!
//! All randomness is seed-derived through the vendored deterministic
//! proptest, so the exact same cases replay in CI.

use micronano::core::runner::{conformance_corpus, Scenario};
use micronano::fluidics::compiler::{transport_plan, CompilerConfig};
use micronano::fluidics::geometry::{Cell, Grid};
use micronano::fluidics::modules::ModuleLibrary;
use micronano::fluidics::route::{self, Obstacle, RouteError, RoutingConfig};
use micronano::fluidics::schedule::{schedule_with_keepout, ScheduleConfig};
use micronano::fluidics::workload::{random_protocol, random_routing_instance, RoutingWorkload};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Decorates a spread instance with the request features the compiler
/// uses — staggered departures, deadlines, a merge-group pair — plus a
/// random time-windowed obstacle and a couple of degraded electrodes,
/// all derived deterministically from `seed`.
fn decorate(
    seed: u64,
    grid: &Grid,
    requests: &mut [micronano::fluidics::route::RoutingRequest],
) -> (Vec<Obstacle>, Vec<Cell>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for req in requests.iter_mut() {
        if rng.gen_bool(0.5) {
            req.depart = rng.gen_range(0..6);
        }
        if rng.gen_bool(0.2) {
            // Generous: the trip plus slack for detours, so most decorated
            // instances stay routable while some genuinely fail.
            let trip = req.start.manhattan(req.goal) as u32;
            req.deadline = Some(req.depart + trip + rng.gen_range(0..20));
        }
    }
    if requests.len() >= 2 && rng.gen_bool(0.4) {
        // Two droplets heading for a shared merge point.
        let g = rng.gen_range(100..110);
        let goal = requests[0].goal;
        requests[0].merge_group = Some(g);
        requests[1].goal = goal;
        requests[1].merge_group = Some(g);
    }
    let mut obstacles = Vec::new();
    if rng.gen_bool(0.5) {
        let x = rng.gen_range(0..grid.width() - 2);
        let y = rng.gen_range(0..grid.height() - 2);
        let from = rng.gen_range(0..10);
        obstacles.push(Obstacle::region(
            Cell::new(x, y),
            Cell::new(x + rng.gen_range(0..3), y + rng.gen_range(0..3)),
            from,
            from + rng.gen_range(5..40),
            0,
        ));
    }
    let degraded: Vec<Cell> = (0..rng.gen_range(0..4))
        .map(|_| {
            Cell::new(
                rng.gen_range(0..grid.width()),
                rng.gen_range(0..grid.height()),
            )
        })
        .collect();
    (obstacles, degraded)
}

/// Makes a spread instance wait, derived deterministically from `seed`:
/// most requests get an earliest arrival at or after their Manhattan
/// arrival, some goals are degraded electrodes, some deadlines fall
/// before the earliest arrival and some after it, and a time-windowed
/// fault may cover a goal for part of the wait. Separate from
/// [`decorate`], so the cases of the other proptests replay unchanged.
fn make_wait(
    seed: u64,
    requests: &mut [micronano::fluidics::route::RoutingRequest],
) -> (Vec<Obstacle>, Vec<Cell>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut obstacles = Vec::new();
    let mut degraded = Vec::new();
    for req in requests.iter_mut() {
        req.depart = rng.gen_range(0..4);
        let arrival = req.depart + req.start.manhattan(req.goal) as u32;
        if rng.gen_bool(0.8) {
            let earliest = arrival + rng.gen_range(0..30);
            req.earliest_arrival = Some(earliest);
            if rng.gen_bool(0.3) {
                req.deadline = Some(rng.gen_range(arrival..=earliest + 5));
            }
        }
        if rng.gen_bool(0.3) {
            degraded.push(req.goal);
        }
        if rng.gen_bool(0.2) {
            let from = rng.gen_range(arrival..arrival + 20);
            obstacles.push(Obstacle::cell(req.goal, from, from + rng.gen_range(1..6)));
        }
    }
    (obstacles, degraded)
}

/// Closes the goals of a spread instance while its droplets wait, derived
/// deterministically from `seed`. Each request waits up to 60 ticks past
/// its Manhattan arrival, sometimes under a deadline. Its goal, or the
/// goal with its eight neighbours, may be walled for a window inside the
/// wait, and ring-less walls and degraded electrodes fall inside its
/// start–goal box. Some goals are degraded, and the first two droplets
/// may be merge partners heading for one goal. Separate from
/// [`decorate`] and [`make_wait`], so the cases of the other proptests
/// replay unchanged.
fn close_goals(
    seed: u64,
    requests: &mut [micronano::fluidics::route::RoutingRequest],
) -> (Vec<Obstacle>, Vec<Cell>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    if requests.len() >= 2 && rng.gen_bool(0.3) {
        let goal = requests[0].goal;
        requests[0].merge_group = Some(7);
        requests[1].goal = goal;
        requests[1].merge_group = Some(7);
    }
    let mut obstacles = Vec::new();
    let mut degraded = Vec::new();
    for req in requests.iter_mut() {
        req.depart = rng.gen_range(0..4);
        let arrival = req.depart + req.start.manhattan(req.goal) as u32;
        let earliest = arrival + rng.gen_range(0..=60);
        req.earliest_arrival = Some(earliest);
        if rng.gen_bool(0.2) {
            req.deadline = Some(rng.gen_range(arrival..=earliest + 5));
        }
        if rng.gen_bool(0.7) {
            let from = rng.gen_range(req.depart..=earliest);
            let until = rng.gen_range(from..=earliest + 1);
            obstacles.push(if rng.gen_bool(0.5) {
                Obstacle::cell(req.goal, from, until)
            } else {
                Obstacle::region(req.goal, req.goal, from, until, 0)
            });
        }
        let (lo, hi) = (
            Cell::new(req.start.x.min(req.goal.x), req.start.y.min(req.goal.y)),
            Cell::new(req.start.x.max(req.goal.x), req.start.y.max(req.goal.y)),
        );
        let in_box = |rng: &mut ChaCha8Rng| {
            Cell::new(rng.gen_range(lo.x..=hi.x), rng.gen_range(lo.y..=hi.y))
        };
        for _ in 0..3 {
            let cell = in_box(&mut rng);
            let from = rng.gen_range(req.depart..=earliest);
            obstacles.push(Obstacle::cell(cell, from, from + rng.gen_range(1..20)));
        }
        for _ in 0..3 {
            degraded.push(in_box(&mut rng));
        }
        if rng.gen_bool(0.3) {
            degraded.push(req.goal);
        }
    }
    (obstacles, degraded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random spread instances, decorated, across all three lookahead
    // tiers: the reservation-indexed planner and the frozen oracle must
    // agree exactly — routes, makespan, stall/move totals, rotation
    // count, or the identical error.
    #[test]
    fn matches_oracle_on_random_instances(
        seed in 0u64..100_000,
        droplets in 2usize..7,
        lookahead in 0u32..3,
    ) {
        let w = RoutingWorkload { grid_side: 14, droplets };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (grid, mut requests) = random_routing_instance(&w, &mut rng);
        let (obstacles, degraded) = decorate(seed ^ 0x5eed, &grid, &mut requests);
        let cfg = RoutingConfig::new().lookahead(lookahead);
        let fast = route::route_with_environment(&grid, &requests, &obstacles, &degraded, &cfg);
        let oracle =
            route::reference::route_with_environment(&grid, &requests, &obstacles, &degraded, &cfg);
        prop_assert_eq!(fast, oracle);
    }

    // The batches real protocol compilations hand the router: a random
    // full-opset protocol is scheduled, its transport plan (module
    // obstacles, merge groups, landing windows, deadlines) extracted, and
    // both planners must agree on it exactly.
    #[test]
    fn matches_oracle_on_protocol_batches(
        seed in 0u64..100_000,
        ops in 1usize..6,
        lookahead in 0u32..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let assay = random_protocol(ops, &mut rng);
        let grid = Grid::new(16, 16).expect("valid grid");
        let sched = schedule_with_keepout(
            &assay,
            &grid,
            &ModuleLibrary::default(),
            &ScheduleConfig::default(),
            &[],
        )
        .expect("random protocols schedule on a clean 16×16 array");
        let (requests, obstacles) = transport_plan(&assay, &sched);
        let cfg = RoutingConfig::new().lookahead(lookahead);
        let fast = route::route_with_environment(&grid, &requests, &obstacles, &[], &cfg);
        let oracle =
            route::reference::route_with_environment(&grid, &requests, &obstacles, &[], &cfg);
        prop_assert_eq!(fast, oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Droplets that arrive early and wait, under short horizons: the
    // corridor pass and its fall-backs (detours, degraded goals, walled,
    // reserved or pending-seed stall ticks, earliest arrivals past the
    // horizon) must return exactly what the oracle's full search returns.
    #[test]
    fn matches_oracle_on_waiting_instances(
        seed in 0u64..100_000,
        droplets in 1usize..5,
        lookahead in 0u32..3,
        max_time in 5u32..60,
    ) {
        let w = RoutingWorkload { grid_side: 10, droplets };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (grid, mut requests) = random_routing_instance(&w, &mut rng);
        let (obstacles, degraded) = make_wait(seed ^ 0x3a17, &mut requests);
        let cfg = RoutingConfig::new().lookahead(lookahead).max_time(max_time);
        let fast = route::route_with_environment(&grid, &requests, &obstacles, &degraded, &cfg);
        let oracle =
            route::reference::route_with_environment(&grid, &requests, &obstacles, &degraded, &cfg);
        prop_assert_eq!(fast, oracle);
    }
}

proptest! {
    // Waits of up to 60 ticks make the oracle slow in a debug build: 300
    // cases take about 30 s.
    #![proptest_config(ProptestConfig::with_cases(300))]

    // Droplets whose goals close for part of a long wait, with walls and
    // degraded electrodes inside their start–goal boxes: the corridor
    // pass (its dwells and their two checked ticks, its parent rule) and
    // the search it falls back to must return exactly what the oracle's
    // full search returns.
    #[test]
    fn matches_oracle_on_closed_goal_instances(
        seed in 0u64..100_000,
        side in 6i32..13,
        droplets in 1usize..6,
        lookahead in 0u32..3,
        max_time in 20u32..140,
        rotations in 0u32..4,
    ) {
        let droplets = droplets.min((side * side / 9) as usize);
        let w = RoutingWorkload { grid_side: side, droplets };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (grid, mut requests) = random_routing_instance(&w, &mut rng);
        let (obstacles, degraded) = close_goals(seed ^ 0xc105e, &mut requests);
        let cfg = RoutingConfig::new()
            .lookahead(lookahead)
            .max_time(max_time)
            .max_priority_rotations(rotations);
        let fast = route::route_with_environment(&grid, &requests, &obstacles, &degraded, &cfg);
        let oracle =
            route::reference::route_with_environment(&grid, &requests, &obstacles, &degraded, &cfg);
        prop_assert_eq!(fast, oracle);
    }
}

/// Every batch a fault-free compile of the golden corpus can hand the
/// router: each fluidics scenario's transport plan at each transport
/// latency the compiler tries (×1, ×2, ×4, ×8). Both planners must agree
/// exactly, errors included. `wash2x1` at its base latency ends in
/// `Unroutable` after its failing request has moved to the front of the
/// order, the case the rotation loop cuts short (see the unit tests in
/// `route.rs`).
#[test]
fn matches_oracle_on_corpus_compile_batches() {
    let cfg = CompilerConfig::default();
    let mut unroutable = Vec::new();
    for scenario in conformance_corpus(42) {
        let Scenario::FluidicsCompile(s) = &scenario else {
            continue;
        };
        if s.dead_fraction > 0.0 {
            continue;
        }
        let assay = s.assay.instantiate(s.plex);
        let grid = Grid::new(s.grid_side, s.grid_side).expect("valid grid");
        let mut sched_cfg = cfg.schedule;
        for retry in 0..=cfg.max_latency_retries {
            let sched = schedule_with_keepout(&assay, &grid, &cfg.library, &sched_cfg, &[])
                .expect("corpus assays schedule on a clean array");
            let (requests, obstacles) = transport_plan(&assay, &sched);
            let fast =
                route::route_with_environment(&grid, &requests, &obstacles, &[], &cfg.routing);
            let oracle = route::reference::route_with_environment(
                &grid,
                &requests,
                &obstacles,
                &[],
                &cfg.routing,
            );
            let batch = format!("{} at latency ×{}", scenario.label(), 1 << retry);
            assert_eq!(fast, oracle, "{batch}");
            if matches!(fast, Err(RouteError::Unroutable(_))) {
                unroutable.push(batch);
            }
            sched_cfg.transport_latency *= 2;
        }
    }
    let wash = "fluidics/wash2x1-g16-dead0pm-s0 at latency ×1".to_owned();
    assert!(unroutable.contains(&wash), "{unroutable:?}");
}
