//! Assay-family sweep (experiment A8): compile every synthetic protocol
//! family onto the standard 16×16 array and compare their schedule cost.
//!
//! Each [`AssayKind`] stresses the compiler differently — the multiplex
//! immunoassay is wide and shallow, serial dilution is a single deep
//! ladder, washing protocols force electrode reuse, mixing trees are
//! wide reductions, and dilution gradients are unequal parallel ladders.
//! The sweep reports DAG shape (ops, width proxy, critical path) next to
//! the compiled makespan/moves/energy, clean and with 4% dead electrodes.
//!
//! ```sh
//! cargo run --release --example assay_families
//! ```

use micronano::core::report::Table;
use micronano::core::runner::{AssayKind, FluidicsScenario, Runner, Scenario, ScenarioOutcome};

/// The sweep grid: every family at a small and a larger scale.
fn grid() -> Vec<(AssayKind, usize)> {
    let mut out = Vec::new();
    for kind in AssayKind::catalog() {
        let scales: &[usize] = match kind {
            // fanin^n reagents — keep the tree shallow.
            AssayKind::MixingTree { .. } => &[2, 3],
            _ => &[2, 4],
        };
        for &n in scales {
            out.push((kind, n));
        }
    }
    out
}

fn main() {
    println!("micronano assay families — one compiler, five DAG shapes\n");

    let grid_entries = grid();
    let mut scenarios = Vec::new();
    for &(kind, n) in &grid_entries {
        for &(dead, fault_seed) in &[(0.0, 0u64), (0.04, 42u64)] {
            scenarios.push(Scenario::FluidicsCompile(FluidicsScenario {
                assay: kind,
                plex: n,
                grid_side: 16,
                dead_fraction: dead,
                fault_seed,
            }));
        }
    }
    let outcomes = Runner::with_workers(0).run(&scenarios).outcomes;

    let mut table = Table::new(
        "assay-families",
        "per-family schedule cost, 16×16 array (clean / 4% dead electrodes)",
        &[
            "assay", "ops", "cpath", "makespan", "moves", "energy", "mk 4%", "mv 4%", "en 4%",
        ],
    );
    for (i, &(kind, n)) in grid_entries.iter().enumerate() {
        let dag = kind.instantiate(n);
        let clean = &outcomes[2 * i];
        let faulty = &outcomes[2 * i + 1];
        let cell = |o: &ScenarioOutcome| -> [String; 3] {
            let ScenarioOutcome::Fluidics {
                compiled,
                makespan,
                moves,
                energy,
                ..
            } = *o
            else {
                unreachable!("fluidics scenarios yield fluidics outcomes");
            };
            if compiled {
                [makespan.to_string(), moves.to_string(), energy.to_string()]
            } else {
                ["-".into(), "-".into(), "-".into()]
            }
        };
        let c = cell(clean);
        let f = cell(faulty);
        table.row(&[
            &kind.describe(n),
            &dag.len().to_string(),
            &dag.critical_path_len().to_string(),
            &c[0],
            &c[1],
            &c[2],
            &f[0],
            &f[1],
            &f[2],
        ]);
    }
    println!("{table}");

    let clean_fails = outcomes
        .iter()
        .step_by(2)
        .filter(|o| {
            matches!(
                o,
                ScenarioOutcome::Fluidics {
                    compiled: false,
                    ..
                }
            )
        })
        .count();
    println!(
        "verdict: {}/{} families compile cleanly on the pristine array.",
        grid_entries.len() - clean_fails,
        grid_entries.len()
    );
}
