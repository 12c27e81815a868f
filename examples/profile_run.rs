//! Profile an instrumented scenario batch end to end.
//!
//! Enables telemetry with the wall clock, runs a mixed batch (fluidics
//! compiles, a lab-on-chip pipeline, NoC design points, WSN lifetimes,
//! a harvesting policy and a GRN knockout) across every hardware thread,
//! then exports all three profile formats and validates each one (the
//! metrics snapshot by reading it back):
//!
//! * `target/profile/trace.json` — Chrome Trace Event JSON; load in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! * `target/profile/folded.txt` — flamegraph folded stacks for
//!   `flamegraph.pl` / inferno.
//! * `target/profile/metrics.txt` — plain-text counters + histograms.
//!
//! ```sh
//! cargo run --release --example profile_run
//! ```

use std::sync::Arc;

use micronano::core::runner::{
    AssayKind, FluidicsScenario, GrnModel, HarvestScenario, KnockoutScenario, LabChipScenario,
    NocScenario, Runner, Scenario, WsnScenario,
};
use micronano::noc::graph::CommGraph;
use micronano::policy::PolicyExpr;
use micronano::telemetry;
use micronano::wsn::protocol::Protocol;

fn mixed_batch() -> Vec<Scenario> {
    let mut batch = vec![
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 4,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: 7,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed: 42,
            samples_per_run: 4,
            dead_fraction: 0.02,
            fault_seed: 9,
        }),
        Scenario::WsnLifetime(WsnScenario {
            nodes: 40,
            side: 120.0,
            protocol: Protocol::tree(45.0, true),
            failure_rate: 0.0,
            max_rounds: 400,
            seed: 3,
            policies: None,
        }),
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::EnergyNeutral { alpha: 0.01 },
            days: 10,
            cloudiness: 0.4,
            seed: 5,
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some("GATA3".to_owned()),
        }),
    ];
    let app = CommGraph::hotspot(16, 1.0);
    for &(max_cluster, shortcuts) in &[(2usize, 0usize), (4, 2), (4, 4), (8, 4)] {
        batch.push(Scenario::NocPoint(NocScenario {
            app: app.clone(),
            max_cluster,
            shortcuts,
        }));
    }
    batch
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("micronano profile_run — instrumented batch, all exporters\n");

    telemetry::enable(Arc::new(telemetry::WallClock::default()));
    let batch = mixed_batch();
    let mut runner = Runner::with_workers(0);
    let report = runner.run(&batch);
    let (outcomes, stats) = (report.outcomes, report.stats);
    telemetry::disable();

    println!(
        "ran {} scenarios on {} workers: {} evaluated, {} cached, {} deduped, {} steals",
        outcomes.len(),
        runner.workers(),
        stats.executed,
        stats.cache_hits,
        stats.deduped,
        stats.steals,
    );
    for ws in &stats.per_worker {
        println!(
            "  worker {}: executed {:>2}  steals {:>2}",
            ws.worker, ws.executed, ws.steals
        );
    }
    println!("  load balance: {:.2}\n", stats.balance());

    let trace = telemetry::take_trace();
    let snap = telemetry::snapshot();

    let dir = std::path::Path::new("target/profile");
    std::fs::create_dir_all(dir)?;

    let chrome = telemetry::chrome_trace(&trace);
    let summary = telemetry::validate_chrome_trace(&chrome).map_err(|e| format!("trace: {e}"))?;
    std::fs::write(dir.join("trace.json"), &chrome)?;
    println!(
        "trace.json    {} events, {} spans, {} lanes — valid",
        summary.events, summary.spans, summary.tracks
    );

    let folded = telemetry::folded_stacks(&trace);
    let stacks = telemetry::validate_folded(&folded).map_err(|e| format!("folded: {e}"))?;
    std::fs::write(dir.join("folded.txt"), &folded)?;
    println!("folded.txt    {stacks} distinct stacks — valid");

    let text = snap.to_text();
    std::fs::write(dir.join("metrics.txt"), &text)?;
    let back =
        telemetry::MetricsSnapshot::from_text(&std::fs::read_to_string(dir.join("metrics.txt"))?)
            .map_err(|e| format!("metrics: {e}"))?;
    assert_eq!(back, snap, "metrics.txt must read back exactly");
    println!(
        "metrics.txt   {} series — reads back exactly\n",
        back.counters.len() + back.histograms.len()
    );

    println!("deepest span chain: {} levels", deepest(&trace));
    println!("metrics snapshot:\n{text}");
    println!("wrote target/profile/{{trace.json, folded.txt, metrics.txt}}");
    Ok(())
}

fn deepest(trace: &telemetry::Trace) -> usize {
    trace.roots.iter().map(|r| r.depth()).max().unwrap_or(0)
}
