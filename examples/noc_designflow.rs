//! The slide-10 NoC synthesis flow, executable: communication graph in;
//! synthesized topology, certified routes and simulated latency out.
//! Also demonstrates the slide-11 3-D (TSV) comparison.
//!
//! ```sh
//! cargo run --release --example noc_designflow
//! ```

use micronano::core::explore::explore_noc_with;
use micronano::core::report::{fmt_f64, Table};
use micronano::noc::graph::CommGraph;
use micronano::noc::power::{area_proxy, PowerModel};
use micronano::noc::routing::compute_routes;
use micronano::noc::sim::{simulate, SimConfig};
use micronano::noc::synthesis::{synthesize, SynthesisConfig};
use micronano::noc::topology::Topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = CommGraph::hotspot(16, 1.0);
    let pm = PowerModel::default();
    let sim_cfg = SimConfig::default();

    println!("NoC design flow: 16-core hotspot application\n");

    // Candidate fabrics: a regular mesh versus a synthesized topology.
    let mesh = Topology::mesh2d(4, 4);
    let custom = synthesize(&app, &SynthesisConfig::default());

    let mut t = Table::new(
        "fabrics",
        "mesh versus synthesized topology",
        &[
            "fabric",
            "routers",
            "links",
            "deadlock-free",
            "weighted hops",
            "energy/flit",
            "area proxy",
            "sim latency (cycles)",
        ],
    );
    for (name, topo) in [("4×4 mesh", &mesh), ("synthesized", &custom)] {
        let routes = compute_routes(topo, &app)?;
        let stats = simulate(topo, &app, &routes, 0.0008, &sim_cfg);
        t.row_owned(vec![
            name.to_owned(),
            topo.routers().to_string(),
            topo.links().len().to_string(),
            routes.deadlock_free.to_string(),
            fmt_f64(routes.weighted_hops),
            fmt_f64(pm.traffic_energy(topo, &app, &routes.paths)),
            fmt_f64(area_proxy(topo)),
            fmt_f64(stats.latency.mean()),
        ]);
    }
    println!("{t}");

    // Design-space exploration over synthesis parameters, fanned out
    // across every hardware thread by the scenario engine (workers = 0);
    // the conformance corpus pins this to the serial result.
    let (points, front) = explore_noc_with(&app, &[2, 3, 4, 8], &[0, 2, 4, 8], 0);
    let mut e = Table::new(
        "dse",
        "synthesis design space (Pareto-optimal rows marked *)",
        &[
            "cluster",
            "shortcuts",
            "weighted hops",
            "energy/flit",
            "area",
        ],
    );
    for (i, p) in points.iter().enumerate() {
        let mark = if front.contains(&i) { "*" } else { "" };
        e.row_owned(vec![
            format!("{}{mark}", p.max_cluster),
            p.shortcuts.to_string(),
            fmt_f64(p.weighted_hops),
            fmt_f64(p.energy),
            fmt_f64(p.area),
        ]);
    }
    println!("{e}");

    // 3-D: same router count, shorter diameter, cheaper traffic.
    let app64 = CommGraph::uniform(64, 1.0);
    let flat = Topology::mesh2d(8, 8);
    let cube = Topology::mesh3d(4, 4, 4);
    let mut d3 = Table::new(
        "3d",
        "2-D versus 3-D integration (64 cores, uniform traffic)",
        &["fabric", "avg hops", "energy/flit", "sim latency (cycles)"],
    );
    for (name, topo) in [("8×8 mesh", &flat), ("4×4×4 3-D mesh", &cube)] {
        let routes = compute_routes(topo, &app64)?;
        let stats = simulate(topo, &app64, &routes, 0.00005, &sim_cfg);
        d3.row_owned(vec![
            name.to_owned(),
            fmt_f64(routes.avg_hops),
            fmt_f64(pm.traffic_energy(topo, &app64, &routes.paths)),
            fmt_f64(stats.latency.mean()),
        ]);
    }
    println!("{d3}");
    println!(
        "reading: the synthesized fabric needs fewer hops on the traffic\n\
         that matters, and stacking the same cores in 3-D cuts both hop\n\
         count and energy per flit — slides 10 and 11 as numbers."
    );
    Ok(())
}
