//! Fault recovery sweep: how much of the array can die before the assay
//! compiler gives up?
//!
//! Sweeps the dead-electrode fraction from 0% to 10% on the standard
//! 16×16 array, recompiling the 4-plex immunoassay around each fault map
//! and reporting what the recovery cost: makespan inflation, extra
//! stalls, reroute attempts and sacrificed waste transports. The 110
//! recompiles run as one batch on the deterministic scenario engine,
//! spread over every hardware thread. Finishes with one end-to-end
//! pipeline run on a damaged chip.
//!
//! ```sh
//! cargo run --example fault_recovery
//! ```

use micronano::core::labchip::{LabChipPipeline, PipelineConfig};
use micronano::core::report::{fmt_f64, Table};
use micronano::core::runner::{AssayKind, FluidicsScenario, Runner, Scenario, ScenarioOutcome};
use micronano::fluidics::assay::multiplex_immunoassay;
use micronano::fluidics::compiler::{compile, CompilerConfig};
use micronano::fluidics::FaultConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("micronano fault recovery — dead-electrode sweep, 16×16 array\n");

    let cfg = CompilerConfig::default();
    let baseline = compile(&multiplex_immunoassay(4), &cfg)?.stats;
    const SEEDS: u64 = 10;

    // One scenario per (fraction, fault map); the engine fans the batch
    // out across workers and returns outcomes in submission order.
    let mut scenarios = Vec::new();
    for pct in 0..=10u32 {
        for seed in 0..SEEDS {
            scenarios.push(Scenario::FluidicsCompile(FluidicsScenario {
                assay: AssayKind::Multiplex,
                plex: 4,
                grid_side: cfg.grid_width,
                dead_fraction: f64::from(pct) / 100.0,
                fault_seed: seed,
            }));
        }
    }
    let outcomes = Runner::with_workers(0).run(&scenarios).outcomes;

    let mut sweep = Table::new(
        "sweep",
        "4-plex immunoassay vs dead-electrode fraction (10 seeds each)",
        &[
            "dead %",
            "recovered",
            "makespan x",
            "stalls",
            "reroutes",
            "abandoned",
        ],
    );
    for pct in 0..=10u32 {
        let mut recovered = 0u64;
        let mut ratio_acc = 0.0;
        let mut stall_acc = 0u64;
        let mut reroute_acc = 0u64;
        let mut abandoned_acc = 0u64;
        for seed in 0..SEEDS {
            let i = (u64::from(pct) * SEEDS + seed) as usize;
            let ScenarioOutcome::Fluidics {
                compiled,
                makespan,
                stalls,
                reroutes,
                abandoned,
                ..
            } = outcomes[i]
            else {
                unreachable!("fluidics scenarios yield fluidics outcomes");
            };
            if !compiled {
                continue;
            }
            recovered += 1;
            ratio_acc += f64::from(makespan) / f64::from(baseline.makespan);
            stall_acc += u64::from(stalls);
            reroute_acc += u64::from(reroutes);
            abandoned_acc += u64::from(abandoned);
        }
        let mean = |acc: f64| {
            if recovered > 0 {
                acc / recovered as f64
            } else {
                f64::NAN
            }
        };
        sweep.row(&[
            &pct.to_string(),
            &format!("{recovered}/{SEEDS}"),
            &fmt_f64(mean(ratio_acc)),
            &fmt_f64(mean(stall_acc as f64)),
            &fmt_f64(mean(reroute_acc as f64)),
            &fmt_f64(mean(abandoned_acc as f64)),
        ]);
    }
    println!("{sweep}");

    // End to end: the diagnosis pipeline on a chip that has seen better
    // days — 5% dead, 5% degraded, a couple of transient outages.
    let pipeline = LabChipPipeline::new(PipelineConfig {
        fault: Some(FaultConfig {
            seed: 7,
            dead_fraction: 0.05,
            degraded_fraction: 0.05,
            transient_count: 2,
            ..FaultConfig::default()
        }),
        ..PipelineConfig::default()
    });
    let report = pipeline.run(42)?;
    let mut e2e = Table::new(
        "e2e",
        "pipeline on a damaged chip (5% dead, 5% degraded, 2 transients)",
        &["metric", "value"],
    );
    e2e.row(&["dead injected", &report.faults.injected_dead.to_string()]);
    e2e.row(&[
        "degraded injected",
        &report.faults.injected_degraded.to_string(),
    ]);
    e2e.row(&[
        "transients injected",
        &report.faults.injected_transient.to_string(),
    ]);
    e2e.row(&["makespan (ticks)", &report.routing.makespan.to_string()]);
    e2e.row(&["forced stalls", &report.routing.forced_stalls.to_string()]);
    e2e.row(&["reroute attempts", &report.routing.reroutes.to_string()]);
    e2e.row(&[
        "abandoned transports",
        &report.routing.abandoned.to_string(),
    ]);
    e2e.row(&[
        "samples dropped",
        &report.faults.samples_dropped.to_string(),
    ]);
    e2e.row(&["recovery", &fmt_f64(report.interpretation.recovery)]);
    println!("{e2e}");

    println!(
        "verdict: the damaged chip still {} the implanted biology.",
        if report.interpretation.recovery > 0.7 {
            "fully recovers"
        } else {
            "partially recovers"
        }
    );
    Ok(())
}
