//! Differential pin of the reservation-indexed droplet router against the
//! frozen pre-index planner (`route::reference`): for any workload the
//! generators produce — spread random instances decorated with departures,
//! deadlines, merge groups, obstacles and degraded electrodes, and the
//! transport batches real `random_protocol` compilations hand the router —
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
