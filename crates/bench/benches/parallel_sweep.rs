//! Scenario-engine kernel: the NoC exploration sweep at 1/2/4/8 workers.
//!
//! The acceptance bar for the engine is a ≥2× wall-clock win at 4 workers
//! on this sweep; run with `cargo bench -p mns-bench --bench
//! parallel_sweep` and compare the `workers/1` and `workers/4` medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mns_core::runner::{NocScenario, Runner, Scenario};
use mns_noc::graph::CommGraph;

fn sweep_scenarios() -> Vec<Scenario> {
    let app = CommGraph::hotspot(25, 1.0);
    let mut scenarios = Vec::new();
    for &max_cluster in &[2usize, 3, 4, 5, 6, 8] {
        for &shortcuts in &[0usize, 2, 4, 6, 8] {
            scenarios.push(Scenario::NocPoint(NocScenario {
                app: app.clone(),
                max_cluster,
                shortcuts,
            }));
        }
    }
    scenarios
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let scenarios = sweep_scenarios();
    let mut group = c.benchmark_group("parallel_sweep");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    for &workers in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| Runner::with_workers(workers).run(&scenarios).outcomes);
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_sweep);
criterion_main!(benches);
