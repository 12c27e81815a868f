//! Telemetry overhead on the scenario engine (experiment A6).
//!
//! Three modes over the same mixed batch: telemetry off (the default —
//! instrumentation sites cost one relaxed atomic load), on with the wall
//! clock (real profiling) and on with the virtual clock (deterministic
//! test mode). The enabled modes drain the collected trace every
//! iteration, as any real profiling loop must, so the numbers include
//! collection *and* drain. Run with
//! `cargo bench -p mns-bench --bench telemetry_overhead`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use mns_core::runner::{
    AssayKind, FluidicsScenario, GrnModel, HarvestScenario, KnockoutScenario, NocScenario, Runner,
    Scenario, ScenarioOutcome, WsnScenario,
};
use mns_noc::graph::CommGraph;
use mns_policy::PolicyExpr;
use mns_wsn::protocol::Protocol;

fn mixed_batch() -> Vec<Scenario> {
    let app = CommGraph::hotspot(12, 1.0);
    vec![
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::NocPoint(NocScenario {
            app: app.clone(),
            max_cluster: 4,
            shortcuts: 2,
        }),
        Scenario::NocPoint(NocScenario {
            app,
            max_cluster: 2,
            shortcuts: 0,
        }),
        Scenario::WsnLifetime(WsnScenario {
            nodes: 20,
            side: 100.0,
            protocol: Protocol::tree(40.0, true),
            failure_rate: 0.0,
            max_rounds: 100,
            seed: 3,
            policies: None,
        }),
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::EnergyNeutral { alpha: 0.01 },
            days: 3,
            cloudiness: 0.4,
            seed: 5,
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: None,
        }),
    ]
}

fn run_plain(batch: &[Scenario]) -> Vec<ScenarioOutcome> {
    Runner::with_workers(2).run(batch).outcomes
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let batch = mixed_batch();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);

    group.bench_function("disabled", |b| {
        mns_telemetry::disable();
        mns_telemetry::reset();
        b.iter(|| run_plain(&batch));
    });

    group.bench_function("wall_clock", |b| {
        mns_telemetry::enable(Arc::new(mns_telemetry::WallClock::default()));
        b.iter(|| {
            let out = run_plain(&batch);
            let trace = mns_telemetry::take_trace();
            assert!(!trace.is_empty());
            out
        });
        mns_telemetry::disable();
        mns_telemetry::reset();
    });

    group.bench_function("virtual_clock", |b| {
        mns_telemetry::enable(Arc::new(mns_telemetry::VirtualClock::default()));
        b.iter(|| {
            let out = run_plain(&batch);
            let trace = mns_telemetry::take_trace();
            assert!(!trace.is_empty());
            out
        });
        mns_telemetry::disable();
        mns_telemetry::reset();
    });

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
