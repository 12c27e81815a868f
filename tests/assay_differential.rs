//! Differential properties of the assay library: whatever protocol the
//! random generators produce, the compiler must behave like a function
//! (same input → same output), its schedules must respect the physical
//! invariants, added faults must never un-break a broken instance, and
//! the scenario engine must produce identical digests at every
//! parallelism level and through an in-process cluster at 2 and 4
//! shards.
//!
//! All randomness is seed-derived through the vendored deterministic
//! proptest, so the exact same cases replay in CI.

use micronano::core::runner::{AssayKind, ClusterConfig, FluidicsScenario, Runner, Scenario};
use micronano::dist::{Cluster, InProcess};
use micronano::fluidics::assay::Assay;
use micronano::fluidics::compiler::{compile_with_faults, CompilerConfig};
use micronano::fluidics::geometry::{Cell, Grid};
use micronano::fluidics::modules::ModuleLibrary;
use micronano::fluidics::place::Reservation;
use micronano::fluidics::schedule::{schedule_with_keepout, Schedule, ScheduleConfig};
use micronano::fluidics::workload::random_protocol;
use micronano::fluidics::{FaultConfig, FaultModel};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Derives an [`AssayKind`] plus a scale from one drawn seed (the
/// vendored proptest has no tuple/enum strategies, so composite values
/// come from u64s).
fn kind_from_seed(seed: u64) -> (AssayKind, usize) {
    let kind = match seed % 5 {
        0 => AssayKind::Multiplex,
        1 => AssayKind::SerialDilution,
        2 => AssayKind::Washing {
            wash_steps: (seed / 5 % 3) as usize,
        },
        3 => AssayKind::MixingTree {
            fanin: 2 + (seed / 5 % 2) as usize,
        },
        _ => AssayKind::DilutionGradient,
    };
    let n = match kind {
        // fanin^n reagents — keep the tree shallow.
        AssayKind::MixingTree { .. } => 1 + (seed / 15 % 2) as usize,
        // Washing chains grow fast (n·(6 + 4w) ops) — cap the width.
        AssayKind::Washing { .. } => 1 + (seed / 15 % 3) as usize,
        _ => 1 + (seed / 15 % 4) as usize,
    };
    (kind, n)
}

/// Rebuilds the placer reservations a schedule implies: each module is
/// held from its landing window (`reserve_from`) until release, which is
/// `end` plus the transport latency when the operation feeds a consumer
/// (the hand-off droplet still occupies the region).
fn implied_reservations(assay: &Assay, sched: &Schedule) -> Vec<Reservation> {
    let consumers = assay.consumers();
    sched
        .entries()
        .iter()
        .map(|e| Reservation {
            origin: e.origin,
            spec: e.spec,
            from: e.reserve_from,
            until: if consumers[e.op.0 as usize].is_empty() {
                e.end
            } else {
                e.end + sched.transport_latency()
            },
        })
        .collect()
}

fn random_keepout(seed: u64, grid: &Grid, count: usize) -> Vec<Cell> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            Cell::new(
                rng.gen_range(0..grid.width()),
                rng.gen_range(0..grid.height()),
            )
        })
        .collect()
}

/// A deterministic shuffle of every grid cell; prefixes of this list form
/// the nested dead-cell chains of the monotone-degradation property.
fn shuffled_cells(seed: u64, grid: &Grid) -> Vec<Cell> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cells: Vec<Cell> = grid.cells().collect();
    // Fisher–Yates with the deterministic stream.
    for i in (1..cells.len()).rev() {
        let j = rng.gen_range(0..=i);
        cells.swap(i, j);
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The compiler is a function: the same random protocol and the same
    // fault map give byte-identical stats and routes, or the same error.
    #[test]
    fn compile_or_error_is_deterministic(
        seed in 0u64..100_000,
        ops in 1usize..6,
        dead_pct in 0u32..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let assay = random_protocol(ops, &mut rng);
        let cfg = CompilerConfig::default();
        let grid = Grid::new(cfg.grid_width, cfg.grid_height).expect("valid grid");
        let model = if dead_pct > 0 {
            FaultModel::generate(
                &FaultConfig::dead(seed, f64::from(dead_pct) / 100.0),
                &grid,
            )
        } else {
            FaultModel::none()
        };
        let a = compile_with_faults(&assay, &cfg, &model);
        let b = compile_with_faults(&assay, &cfg, &model);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
                prop_assert_eq!(a.routes, b.routes);
                prop_assert_eq!(a.program, b.program);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "same input diverged between Ok and Err"),
        }
    }

    // Full-opset random protocols schedule under the same invariants the
    // immunoassay does: no double-booked modules, keepouts honoured,
    // dependencies separated by the transport latency, makespan exact.
    #[test]
    fn random_protocol_schedules_respect_invariants(
        seed in 0u64..100_000,
        ops in 1usize..8,
        latency in 4u32..32,
        dead in 0usize..10,
    ) {
        let grid = Grid::new(16, 16).expect("valid grid");
        let keepout = random_keepout(seed ^ 0x9e37, &grid, dead);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let assay = random_protocol(ops, &mut rng);
        let cfg = ScheduleConfig { transport_latency: latency };
        // Heavy keepouts may make the instance unschedulable; the
        // property binds whatever schedule does come out.
        let Ok(sched) =
            schedule_with_keepout(&assay, &grid, &ModuleLibrary::default(), &cfg, &keepout)
        else {
            return Ok(());
        };
        let reservations = implied_reservations(&assay, &sched);
        for (i, a) in reservations.iter().enumerate() {
            for b in &reservations[i + 1..] {
                prop_assert!(!a.conflicts(b), "double-booking: {a:?} vs {b:?}");
            }
        }
        let mut last_end = 0;
        for e in sched.entries() {
            prop_assert!(e.start < e.end);
            prop_assert!(e.reserve_from <= e.start);
            last_end = last_end.max(e.end);
            let max = Cell::new(
                e.origin.x + e.spec.width - 1,
                e.origin.y + e.spec.height - 1,
            );
            prop_assert!(grid.contains(e.origin) && grid.contains(max));
            for c in &keepout {
                let inside =
                    c.x >= e.origin.x && c.x <= max.x && c.y >= e.origin.y && c.y <= max.y;
                prop_assert!(!inside, "module covers keepout cell {c}");
            }
            for input in &assay.op(e.op).inputs {
                let producer = sched.entry(*input);
                prop_assert!(
                    e.start >= producer.end + latency,
                    "{:?} starts before {:?} ends + latency",
                    e.op,
                    input
                );
            }
        }
        prop_assert_eq!(sched.makespan(), last_end);
    }

}

/// More dead electrodes must mean fewer successful compiles. Per-case
/// success is *not* strictly monotone — the list scheduler is a
/// heuristic, and a shifted keepout can accidentally revive one instance
/// — so the property binds the aggregate over nested fault chains: for a
/// fixed pool of (assay, shuffle) cases, the number of instances that
/// still compile never increases as every chain grows by the same
/// prefix. Deterministic end to end, so the exact counts replay in CI.
#[test]
fn nested_faults_degrade_compile_success_monotonically() {
    let cfg = CompilerConfig::default();
    let grid = Grid::new(cfg.grid_width, cfg.grid_height).expect("valid grid");
    const LEVELS: [usize; 4] = [2, 8, 16, 28];
    let mut successes = [0u32; LEVELS.len()];
    for seed in 0..8u64 {
        // Small instances keep the (expensive) failing compiles quick;
        // the shapes still span every family.
        let (kind, _) = kind_from_seed(seed.wrapping_mul(7) ^ 3);
        let n = 2;
        let assay = kind.instantiate(n);
        let cells = shuffled_cells(seed, &grid);
        for (i, &level) in LEVELS.iter().enumerate() {
            let model = FaultModel::from_parts(cells[..level].to_vec(), vec![], vec![]);
            if compile_with_faults(&assay, &cfg, &model).is_ok() {
                successes[i] += 1;
            }
        }
    }
    assert!(
        successes[0] > 0,
        "a couple of dead cells must leave most assays compilable"
    );
    for (i, w) in successes.windows(2).enumerate() {
        assert!(
            w[1] <= w[0],
            "success count rose from {} to {} between {} and {} dead cells \
             ({successes:?})",
            w[0],
            w[1],
            LEVELS[i],
            LEVELS[i + 1]
        );
    }
}

/// A random batch of fluidics scenarios spanning every assay family,
/// with a duplicated tail element so dedup is exercised too.
fn random_assay_batch(seed: u64, len: usize) -> Vec<Scenario> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batch: Vec<Scenario> = (0..len)
        .map(|_| {
            let (kind, n) = kind_from_seed(rng.gen());
            Scenario::FluidicsCompile(FluidicsScenario {
                assay: kind,
                plex: n,
                grid_side: 16,
                dead_fraction: if rng.gen_bool(0.3) {
                    rng.gen_range(0.01..0.05)
                } else {
                    0.0
                },
                fault_seed: rng.gen_range(0..100),
            })
        })
        .collect();
    if len > 1 {
        let dup = batch[rng.gen_range(0..len / 2)].clone();
        batch.push(dup);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The headline differential: serial == 2-worker == 8-worker ==
    // in-process cluster digests over random mixed-assay batches.
    #[test]
    fn assay_batches_share_digests_across_parallelism(
        seed in 0u64..100_000,
        len in 3usize..7,
    ) {
        let batch = random_assay_batch(seed, len);
        let reference = Runner::serial().run(&batch).outcomes;
        for workers in [2usize, 8] {
            let outcomes = Runner::with_workers(workers)
                .run(&batch)
                .outcomes;
            prop_assert_eq!(reference.len(), outcomes.len());
            for (i, (r, o)) in reference.iter().zip(&outcomes).enumerate() {
                prop_assert_eq!(
                    r.digest(),
                    o.digest(),
                    "scenario `{}` diverged at {} workers",
                    batch[i].label(),
                    workers
                );
            }
        }
        for shards in [2usize, 4] {
            let config = ClusterConfig::new().threads_per_worker(0).shards(shards);
            let outcomes = Cluster::new(InProcess::new(), config).run(&batch).outcomes;
            prop_assert_eq!(reference.len(), outcomes.len());
            for (i, (r, o)) in reference.iter().zip(&outcomes).enumerate() {
                prop_assert_eq!(
                    r.digest(),
                    o.digest(),
                    "scenario `{}` diverged at {} shards",
                    batch[i].label(),
                    shards
                );
            }
        }
    }
}
