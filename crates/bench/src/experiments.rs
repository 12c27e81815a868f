//! The experiment implementations (see `DESIGN.md` §3 for the index).

use std::time::Instant;

use mns_bicluster::cheng_church::{cheng_church, ChengChurchConfig};
use mns_bicluster::discretize::binarize_with_threshold;
use mns_bicluster::score::score;
use mns_bicluster::zdd_miner::{enumerate_maximal, MinerConfig};
use mns_biosensor::array::{SensorArray, SensorConfig};
use mns_biosensor::expression::{generate, SyntheticDatasetConfig};
use mns_biosensor::kinetics::BindingKinetics;
use mns_core::explore::explore_noc_with;
use mns_core::report::{fmt_f64, Table};
use mns_core::runner::{default_workers, NocScenario, Runner, Scenario};
use mns_crossbar::mapping::mapping_yield;
use mns_fluidics::assay::multiplex_immunoassay;
use mns_fluidics::compiler::{compile, CompilerConfig};
use mns_fluidics::constraints::verify_routes;
use mns_fluidics::contamination::check_contamination;
use mns_fluidics::workload::{random_routing_instance, RoutingWorkload};
use mns_fluidics::{route_concurrent, route_serial, RoutingConfig};
use mns_grn::dynamics::sync_attractors;
use mns_grn::models::{
    arabidopsis, mammalian_cell_cycle, organ_repertoire, t_helper, th_fates, FloralInputs, ThFate,
};
use mns_grn::random::{random_network, RandomNetworkConfig};
use mns_grn::symbolic::{SymbolicDynamics, VariableOrder};
use mns_grn::Perturbation;
use mns_noc::graph::CommGraph;
use mns_noc::power::{area_proxy, PowerModel};
use mns_noc::routing::compute_routes;
use mns_noc::sim::{simulate, SimConfig};
use mns_noc::synthesis::{synthesize, Strategy, SynthesisConfig};
use mns_noc::topology::Topology;
use mns_policy::PolicyExpr;
use mns_wsn::field::Field;
use mns_wsn::harvest::{simulate_policy, HarvestConfig, SolarModel};
use mns_wsn::protocol::Protocol;
use mns_wsn::sim::{simulate_lifetime, LifetimeConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn ms(instant: Instant) -> f64 {
    instant.elapsed().as_secs_f64() * 1e3
}

/// E1 (slide 20): parallel scheduling and routing of multiple samples —
/// concurrent prioritized routing versus the serial baseline, plus the
/// A2 constraint-lookahead ablation.
pub fn e1_droplet_routing(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "E1",
        "concurrent vs serial droplet routing (makespan in ticks)",
        &[
            "grid",
            "droplets",
            "serial",
            "concurrent",
            "speedup",
            "stalls",
            "rotations",
        ],
    );
    for &side in &[16i32, 24, 32] {
        for &droplets in &[2usize, 4, 8, 16] {
            if (side as usize).pow(2) < 9 * droplets {
                continue;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (side as u64) << 8 ^ droplets as u64);
            let (grid, requests) = random_routing_instance(
                &RoutingWorkload {
                    grid_side: side,
                    droplets,
                },
                &mut rng,
            );
            let cfg = RoutingConfig::default();
            let serial = route_serial(&grid, &requests, &cfg).expect("routable");
            let conc = route_concurrent(&grid, &requests, &cfg).expect("routable");
            assert!(verify_routes(&conc.routes).is_empty());
            t.row_owned(vec![
                format!("{side}×{side}"),
                droplets.to_string(),
                serial.makespan.to_string(),
                conc.makespan.to_string(),
                fmt_f64(serial.makespan as f64 / conc.makespan.max(1) as f64),
                conc.total_stalls.to_string(),
                conc.rotations.to_string(),
            ]);
        }
    }

    let mut a2 = Table::new(
        "A2",
        "router constraint-lookahead ablation (24×24, 12 droplets)",
        &["lookahead", "makespan", "stalls", "dynamic violations"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA2);
    let (grid, requests) = random_routing_instance(
        &RoutingWorkload {
            grid_side: 24,
            droplets: 12,
        },
        &mut rng,
    );
    for lookahead in [0u32, 1, 2] {
        let cfg = RoutingConfig::new().lookahead(lookahead);
        match route_concurrent(&grid, &requests, &cfg) {
            Ok(out) => {
                let violations = verify_routes(&out.routes);
                a2.row_owned(vec![
                    lookahead.to_string(),
                    out.makespan.to_string(),
                    out.total_stalls.to_string(),
                    violations.len().to_string(),
                ]);
            }
            Err(e) => a2.row_owned(vec![
                lookahead.to_string(),
                format!("failed: {e}"),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    vec![t, a2]
}

/// E2 (slides 19–23): full assay compilation scaling plus sensing SNR
/// versus integration time and per-probe redundancy.
pub fn e2_assay_and_sensing(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "E2a",
        "assay compilation (multiplexed immunoassay)",
        &[
            "samples", "grid", "makespan", "moves", "stalls", "energy", "retries",
        ],
    );
    for &(n, side) in &[(2usize, 16i32), (4, 16), (6, 16), (6, 24), (8, 24)] {
        let cfg = CompilerConfig {
            grid_width: side,
            grid_height: side,
            ..CompilerConfig::default()
        };
        match compile(&multiplex_immunoassay(n), &cfg) {
            Ok(c) => t.row_owned(vec![
                n.to_string(),
                format!("{side}×{side}"),
                c.stats.makespan.to_string(),
                c.stats.route_moves.to_string(),
                c.stats.route_stalls.to_string(),
                c.stats.energy.to_string(),
                c.stats.retries.to_string(),
            ]),
            Err(e) => t.row_owned(vec![
                n.to_string(),
                format!("{side}×{side}"),
                format!("failed: {e}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }

    let mut s = Table::new(
        "E2b",
        "sensor SNR at 1 nM target vs integration time and redundancy",
        &["integration (s)", "sites/probe", "SNR"],
    );
    for &time in &[60.0, 600.0, 6_000.0] {
        for &sites in &[1usize, 4, 16] {
            let array = SensorArray::uniform(
                1,
                BindingKinetics::dna_probe(),
                SensorConfig {
                    integration_time: time,
                    sites_per_probe: sites,
                    ..SensorConfig::default()
                },
            );
            let snr = array.snr(1e-9, 200, seed);
            s.row_owned(vec![fmt_f64(time), sites.to_string(), fmt_f64(snr)]);
        }
    }
    let mut c = Table::new(
        "E2c",
        "cross-contamination sign-off (post-route check)",
        &["samples", "routes", "incidents", "washes needed", "clean"],
    );
    for &n in &[1usize, 2, 4, 6] {
        let assay = multiplex_immunoassay(n);
        if let Ok(compiled) = compile(&assay, &CompilerConfig::default()) {
            let report = check_contamination(&assay, &compiled);
            c.row_owned(vec![
                n.to_string(),
                compiled.routes.len().to_string(),
                report.incidents.len().to_string(),
                report.washes_needed.to_string(),
                report.is_clean().to_string(),
            ]);
        }
    }
    vec![t, s, c]
}

/// E3 (slide 25): ZDD exact biclustering versus Cheng–Church on implanted
/// modules — "fast and complete data interpretation".
pub fn e3_biclustering(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "E3",
        "ZDD exact enumeration vs Cheng–Church (recovery/relevance vs implanted truth)",
        &[
            "matrix",
            "noise",
            "zdd ms",
            "zdd found",
            "zdd recovery",
            "zdd relevance",
            "cc ms",
            "cc recovery",
            "cc relevance",
        ],
    );
    for &(genes, samples) in &[(100usize, 50usize), (300, 100), (600, 150)] {
        for &noise in &[0.1f64, 0.25, 0.5] {
            let cfg = SyntheticDatasetConfig {
                genes,
                samples,
                bicluster_count: 3,
                bicluster_rows: genes / 10,
                bicluster_cols: samples / 8,
                noise,
                ..SyntheticDatasetConfig::default()
            };
            let data = generate(&cfg, seed);
            let threshold = cfg.background + cfg.boost / 2.0;

            let start = Instant::now();
            let binary = binarize_with_threshold(&data.matrix, threshold);
            let mined = enumerate_maximal(
                &binary,
                &MinerConfig {
                    min_rows: cfg.bicluster_rows / 2,
                    min_cols: cfg.bicluster_cols / 2,
                    ..MinerConfig::default()
                },
            );
            let zdd_ms = ms(start);
            let zdd_scores = score(&data.truth, &mined.biclusters);

            let start = Instant::now();
            let cc = cheng_church(
                &data.matrix,
                &ChengChurchConfig::new()
                    .delta(noise * noise * 2.0)
                    .count(3)
                    .mask_range(0.0, cfg.background + cfg.boost),
                seed,
            );
            let cc_ms = ms(start);
            let cc_scores = score(&data.truth, &cc);

            t.row_owned(vec![
                format!("{genes}×{samples}"),
                fmt_f64(noise),
                fmt_f64(zdd_ms),
                mined.biclusters.len().to_string(),
                fmt_f64(zdd_scores.recovery),
                fmt_f64(zdd_scores.relevance),
                fmt_f64(cc_ms),
                fmt_f64(cc_scores.recovery),
                fmt_f64(cc_scores.relevance),
            ]);
        }
    }
    vec![t]
}

/// E4 (slides 30–31): the T-helper network's stable fates, wild type and
/// perturbed.
pub fn e4_thelper(_seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "E4",
        "T-helper stable fates (symbolic fixed points, unstimulated)",
        &["condition", "fixed points", "Th0", "Th1", "Th2"],
    );
    let mut row = |label: &str, net: &mns_grn::BooleanNetwork| {
        let fates = th_fates(net).expect("fate analysis");
        let has = |want: ThFate| {
            if fates.iter().any(|&(_, f)| f == want) {
                "yes"
            } else {
                "no"
            }
        };
        t.row_owned(vec![
            label.to_owned(),
            fates.len().to_string(),
            has(ThFate::Th0).into(),
            has(ThFate::Th1).into(),
            has(ThFate::Th2).into(),
        ]);
    };
    let wild = t_helper();
    row("wild type", &wild);
    for gene in ["GATA3", "Tbet", "STAT1", "STAT6"] {
        let ko = wild
            .with_perturbation(&Perturbation::knock_out(gene))
            .expect("gene exists");
        row(&format!("{gene} knock-out"), &ko);
    }

    // E4b: both update semantics agree on the terminal repertoire
    // (slide 29 lists "synchronous, asynchronous" as the logic-level
    // abstractions; the async state graph has 2^23 nodes — symbolic
    // terminal-SCC extraction handles it).
    let mut sem = Table::new(
        "E4b",
        "update-semantics comparison (wild-type T-helper)",
        &["semantics", "attractors", "all steady states"],
    );
    let mut sym = SymbolicDynamics::new(&wild);
    let sync_atts = sym.attractors();
    sem.row_owned(vec![
        "synchronous".into(),
        sync_atts.len().to_string(),
        sync_atts.iter().all(|a| a.states.len() == 1).to_string(),
    ]);
    let async_atts = sym.attractors_async();
    sem.row_owned(vec![
        "asynchronous".into(),
        async_atts.len().to_string(),
        async_atts.iter().all(|a| a.states.len() == 1).to_string(),
    ]);

    // E4c: a third published model with a *cyclic* attractor — the
    // mammalian cell cycle (Fauré et al. 2006).
    let mut cc = Table::new(
        "E4c",
        "mammalian cell cycle (Fauré 2006), synchronous attractors",
        &["growth signal", "attractors", "periods"],
    );
    for growth in [false, true] {
        let net = mammalian_cell_cycle(growth);
        let atts = sync_attractors(&net, Some(10)).expect("10 genes");
        let periods: Vec<String> = atts.iter().map(|a| a.period().to_string()).collect();
        cc.row_owned(vec![
            growth.to_string(),
            atts.len().to_string(),
            periods.join(","),
        ]);
    }
    vec![t, sem, cc]
}

/// E5 (slide 32): simulation versus traversal — explicit enumeration
/// versus implicit BDD analysis on random Boolean networks.
pub fn e5_traversal(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "E5",
        "explicit enumeration vs implicit (BDD) steady-state analysis",
        &[
            "genes",
            "states",
            "explicit ms",
            "symbolic ms",
            "fixed points",
            "peak BDD nodes",
        ],
    );
    for &genes in &[8usize, 12, 14, 16, 18, 20, 24, 32] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ genes as u64);
        let net = random_network(
            &RandomNetworkConfig {
                genes,
                regulators: 2,
                bias: 0.5,
            },
            &mut rng,
        );
        let explicit_ms = if genes <= 20 {
            let start = Instant::now();
            let atts = sync_attractors(&net, Some(20)).expect("within cap");
            let _ = atts;
            fmt_f64(ms(start))
        } else {
            "(intractable)".to_owned()
        };
        let start = Instant::now();
        let mut sym = SymbolicDynamics::new(&net);
        let fp = sym.fixed_point_count();
        let symbolic_ms = ms(start);
        t.row_owned(vec![
            genes.to_string(),
            format!("2^{genes}"),
            explicit_ms,
            fmt_f64(symbolic_ms),
            fmt_f64(fp),
            sym.manager().peak_nodes().to_string(),
        ]);
    }
    vec![t]
}

/// E6 (slide 33): Arabidopsis knock-out phenotypes.
pub fn e6_arabidopsis(_seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "E6",
        "Arabidopsis organ repertoire per whorl (fixed points)",
        &["whorl", "wild type", "ap3-ko", "ag-ko", "ap1-ko", "lfy-ko"],
    );
    let whorls = FloralInputs::whorls();
    for (i, w) in whorls.iter().enumerate() {
        let mut cells = vec![format!("whorl {}", i + 1)];
        for ko in [None, Some("AP3"), Some("AG"), Some("AP1"), Some("LFY")] {
            let mut net = arabidopsis(*w);
            if let Some(g) = ko {
                net = net
                    .with_perturbation(&Perturbation::knock_out(g))
                    .expect("gene exists");
            }
            let organs = organ_repertoire(&net).expect("analysis");
            cells.push(
                organs
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
            );
        }
        t.row_owned(cells);
    }
    vec![t]
}

/// E7 (slide 10) + A3: topology synthesis versus mesh and versus the
/// greedy-merge baseline.
pub fn e7_noc_synthesis(seed: u64) -> Vec<Table> {
    let pm = PowerModel::default();
    let sim_cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut t = Table::new(
        "E7",
        "NoC topology synthesis vs mesh (injection 0.0008 pkt/cycle/flow-unit)",
        &[
            "workload",
            "cores",
            "fabric",
            "weighted hops",
            "energy/flit",
            "area",
            "latency",
            "deadlock-free",
        ],
    );
    type WorkloadGen = Box<dyn Fn(usize) -> CommGraph>;
    let workloads: Vec<(&str, WorkloadGen)> = vec![
        ("hotspot", Box::new(|n| CommGraph::hotspot(n, 1.0))),
        ("pipeline", Box::new(|n| CommGraph::pipeline(n, 1.0))),
        (
            "random",
            Box::new(move |n| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ n as u64);
                CommGraph::random(n, 0.15, 1.0, &mut rng)
            }),
        ),
    ];
    for (name, make) in &workloads {
        for &cores in &[16usize, 25] {
            let app = make(cores);
            let side = (cores as f64).sqrt() as usize;
            let mesh = Topology::mesh2d(side, side);
            let custom = synthesize(&app, &SynthesisConfig::default());
            let greedy = synthesize(
                &app,
                &SynthesisConfig {
                    strategy: Strategy::GreedyMerge,
                    ..SynthesisConfig::default()
                },
            );
            for (fabric, topo) in [
                ("mesh", &mesh),
                ("min-cut", &custom),
                ("greedy(A3)", &greedy),
            ] {
                let routes = compute_routes(topo, &app).expect("routable");
                let stats = simulate(topo, &app, &routes, 0.0008, &sim_cfg);
                t.row_owned(vec![
                    (*name).to_owned(),
                    cores.to_string(),
                    (*fabric).to_owned(),
                    fmt_f64(routes.weighted_hops),
                    fmt_f64(pm.traffic_energy(topo, &app, &routes.paths)),
                    fmt_f64(area_proxy(topo)),
                    fmt_f64(stats.latency.mean()),
                    routes.deadlock_free.to_string(),
                ]);
            }
        }
    }

    // E7c: fault tolerance — reroute around failed links.
    let mut ft = Table::new(
        "E7c",
        "rerouting around link failures (4×4 mesh, uniform traffic)",
        &["failed links", "connected", "avg hops", "deadlock-free"],
    );
    {
        use rand::seq::SliceRandom;
        let mesh = Topology::mesh2d(4, 4);
        let app16 = CommGraph::uniform(16, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA11);
        for &k in &[0usize, 2, 4, 6] {
            let picks: Vec<(usize, usize)> = mesh
                .links()
                .choose_multiple(&mut rng, k)
                .map(|l| (l.a, l.b))
                .collect();
            let degraded = if k == 0 {
                mesh.clone()
            } else {
                mesh.without_links(&picks)
            };
            if !degraded.is_connected() {
                ft.row_owned(vec![k.to_string(), "no".into(), "-".into(), "-".into()]);
                continue;
            }
            let routes = compute_routes(&degraded, &app16).expect("connected");
            ft.row_owned(vec![
                k.to_string(),
                "yes".into(),
                fmt_f64(routes.avg_hops),
                routes.deadlock_free.to_string(),
            ]);
        }
    }

    // Pareto exploration summary, on the parallel scenario engine (the
    // conformance suite pins this to the serial result).
    let app = CommGraph::hotspot(16, 1.0);
    let (points, front) = explore_noc_with(&app, &[2, 3, 4, 8], &[0, 2, 4, 8], 0);
    let mut p = Table::new(
        "E7b",
        "design-space exploration (16-core hotspot): Pareto front size",
        &["evaluated points", "Pareto-optimal"],
    );
    p.row_owned(vec![points.len().to_string(), front.len().to_string()]);
    vec![t, ft, p]
}

/// E8 (slide 11): 2-D versus 3-D integration under increasing load.
pub fn e8_noc3d(seed: u64) -> Vec<Table> {
    let pm = PowerModel::default();
    let app = CommGraph::uniform(64, 1.0);
    let flat = Topology::mesh2d(8, 8);
    let cube = Topology::mesh3d(4, 4, 4);
    let mut t = Table::new(
        "E8",
        "8×8 mesh vs 4×4×4 3-D mesh, 64 cores, uniform traffic",
        &[
            "injection",
            "2-D latency",
            "2-D saturated",
            "3-D latency",
            "3-D saturated",
        ],
    );
    let flat_routes = compute_routes(&flat, &app).expect("routable");
    let cube_routes = compute_routes(&cube, &app).expect("routable");
    for &inj in &[0.00002f64, 0.0001, 0.0004, 0.0008, 0.0016] {
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let f = simulate(&flat, &app, &flat_routes, inj, &cfg);
        let c = simulate(&cube, &app, &cube_routes, inj, &cfg);
        t.row_owned(vec![
            fmt_f64(inj * 1e4) + "e-4",
            fmt_f64(f.latency.mean()),
            f.saturated.to_string(),
            fmt_f64(c.latency.mean()),
            c.saturated.to_string(),
        ]);
    }
    let mut e = Table::new(
        "E8b",
        "static comparison",
        &["fabric", "avg hops", "energy/flit", "TSV links"],
    );
    for (name, topo, routes) in [
        ("8×8 mesh", &flat, &flat_routes),
        ("4×4×4 3-D", &cube, &cube_routes),
    ] {
        let tsvs = topo
            .links()
            .iter()
            .filter(|l| l.class == mns_noc::topology::LinkClass::Vertical)
            .count();
        e.row_owned(vec![
            name.to_owned(),
            fmt_f64(routes.avg_hops),
            fmt_f64(pm.traffic_energy(topo, &app, &routes.paths)),
            tsvs.to_string(),
        ]);
    }
    vec![t, e]
}

/// E9 (slides 36–37): protocols, aggregation and failure tolerance.
pub fn e9_wsn_lifetime(seed: u64) -> Vec<Table> {
    let field = Field::random(200, 200.0, seed ^ 0xF1E1D);
    let base = LifetimeConfig {
        max_rounds: 4_000,
        seed,
        ..LifetimeConfig::default()
    };
    let mut t = Table::new(
        "E9a",
        "collection protocols (200 nodes, 200 m field)",
        &[
            "protocol",
            "first death",
            "half dead",
            "delivered %",
            "avg coverage %",
        ],
    );
    for p in [
        Protocol::Direct,
        Protocol::tree(50.0, false),
        Protocol::tree(50.0, true),
        Protocol::cluster(0.1, false),
        Protocol::cluster(0.1, true),
    ] {
        let s = simulate_lifetime(&field, p, &base);
        t.row_owned(vec![
            p.label(),
            s.first_death_round.to_string(),
            s.half_death_round.to_string(),
            fmt_f64(s.delivered_ratio * 100.0),
            fmt_f64(s.avg_coverage * 100.0),
        ]);
    }

    let mut f = Table::new(
        "E9b",
        "failure injection (cluster+agg)",
        &["failure rate", "first death", "half dead", "avg coverage %"],
    );
    for rate in [0.0, 0.0005, 0.002, 0.01] {
        let s = simulate_lifetime(
            &field,
            Protocol::cluster(0.1, true),
            &LifetimeConfig {
                failure_rate: rate,
                ..base.clone()
            },
        );
        f.row_owned(vec![
            format!("{rate}"),
            s.first_death_round.to_string(),
            s.half_death_round.to_string(),
            fmt_f64(s.avg_coverage * 100.0),
        ]);
    }
    let mut h = Table::new(
        "E9c",
        "battery-only vs harvesting network (cluster+agg, panel scale sweep)",
        &["panel scale", "first death", "half dead", "rounds survived"],
    );
    for &scale in &[0.0f64, 0.005, 0.02, 0.1] {
        let cfg = LifetimeConfig {
            harvesting: if scale > 0.0 {
                Some((SolarModel::default(), scale, 60.0))
            } else {
                None
            },
            ..base.clone()
        };
        let s = simulate_lifetime(&field, Protocol::cluster(0.1, true), &cfg);
        h.row_owned(vec![
            fmt_f64(scale),
            s.first_death_round.to_string(),
            s.half_death_round.to_string(),
            s.rounds.to_string(),
        ]);
    }
    vec![t, f, h]
}

/// E10 (slide 38): harvesting-aware energy management policies.
pub fn e10_harvesting(seed: u64) -> Vec<Table> {
    let cfg = HarvestConfig {
        seed,
        ..HarvestConfig::default()
    };
    let mut t = Table::new(
        "E10",
        "30 days on solar harvesting",
        &["policy", "uptime %", "work (h)", "dead slots", "wasted (J)"],
    );
    for p in [
        PolicyExpr::Fixed(0.9),
        PolicyExpr::Fixed(0.3),
        PolicyExpr::Fixed(0.05),
        PolicyExpr::Greedy {
            threshold: 0.3,
            duty_high: 0.9,
            duty_low: 0.05,
        },
        PolicyExpr::EnergyNeutral { alpha: 0.01 },
    ] {
        let s = simulate_policy(&p, &cfg);
        let label = match p {
            PolicyExpr::Fixed(d) => format!("fixed({d})"),
            _ => p.label(),
        };
        t.row_owned(vec![
            label,
            fmt_f64(s.uptime * 100.0),
            fmt_f64(s.work / 3_600.0),
            s.dead_slots.to_string(),
            fmt_f64(s.wasted),
        ]);
    }
    vec![t]
}

/// A1: decision-diagram computed-cache ablation on the E3 and E5 kernels.
pub fn a1_dd_cache(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "A1",
        "computed-cache ablation",
        &["kernel", "cache", "time ms", "cache hit rate %"],
    );
    // ZDD kernel: family algebra over thousands of random sparse sets —
    // union accumulation, then maximal-set filtering.
    use mns_dd::ZddManager;
    use rand::Rng;
    for cache in [true, false] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x2dd);
        let mut m = ZddManager::new(64);
        m.set_cache_enabled(cache);
        let start = Instant::now();
        let mut family = m.empty();
        for _ in 0..3_000 {
            let set: Vec<u32> = (0..64).filter(|_| rng.gen_bool(0.12)).collect();
            let s = m.from_set(&set);
            family = m.union(family, s);
        }
        let maximal = m.maximal(family);
        let _ = m.count(maximal);
        let (lookups, hits) = m.cache_stats();
        t.row_owned(vec![
            "ZDD union+maximal, 3000 sets / 64 elems".into(),
            cache.to_string(),
            fmt_f64(ms(start)),
            if !cache || lookups == 0 {
                "-".into()
            } else {
                fmt_f64(hits as f64 / lookups as f64 * 100.0)
            },
        ]);
    }
    // BDD kernel: symbolic attractors of a 20-gene network.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let net = random_network(
        &RandomNetworkConfig {
            genes: 20,
            regulators: 2,
            bias: 0.5,
        },
        &mut rng,
    );
    for cache in [true, false] {
        let start = Instant::now();
        let mut sym = SymbolicDynamics::new(&net);
        sym.set_cache_enabled(cache);
        let _ = sym.fixed_point_count();
        let atts = sym.attractors();
        let _ = atts;
        let (lookups, hits) = sym.manager().cache_stats();
        t.row_owned(vec![
            "BDD attractors n=20".into(),
            cache.to_string(),
            fmt_f64(ms(start)),
            if !cache || lookups == 0 {
                "-".into()
            } else {
                fmt_f64(hits as f64 / lookups as f64 * 100.0)
            },
        ]);
    }
    vec![t]
}

/// E11 (slides 8–9): defect-tolerant logic mapping on nano-crossbars —
/// mapping yield versus junction defect rate and row redundancy.
pub fn e11_crossbar(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "E11",
        "crossbar mapping yield (16 inputs, 12 terms of 4 literals, 400 fabric instances)",
        &[
            "defect rate",
            "rows ×1.0",
            "rows ×1.5",
            "rows ×2.0",
            "rows ×3.0",
        ],
    );
    for &rate in &[0.0f64, 0.02, 0.05, 0.1, 0.2, 0.3] {
        let mut cells = vec![fmt_f64(rate)];
        for &redundancy in &[1.0f64, 1.5, 2.0, 3.0] {
            let y = mapping_yield(16, 12, 4, redundancy, rate, 400, seed);
            cells.push(fmt_f64(y * 100.0));
        }
        t.row_owned(cells);
    }
    vec![t]
}

/// A4: BDD variable-order ablation — interleaved versus sequential
/// current/next layout for the transition relation.
pub fn a4_variable_order(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "A4",
        "BDD variable order: transition-relation size and image time",
        &["genes", "order", "T nodes", "peak nodes", "attractor ms"],
    );
    for &genes in &[12usize, 16, 20] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ genes as u64);
        let net = random_network(
            &RandomNetworkConfig {
                genes,
                regulators: 2,
                bias: 0.5,
            },
            &mut rng,
        );
        for order in [VariableOrder::Interleaved, VariableOrder::Sequential] {
            let start = Instant::now();
            let mut sym = SymbolicDynamics::with_order(&net, order);
            let trans = sym.transition_relation();
            let t_nodes = sym.manager().dag_size(trans);
            let _ = sym.attractors();
            t.row_owned(vec![
                genes.to_string(),
                format!("{order:?}"),
                t_nodes.to_string(),
                sym.manager().peak_nodes().to_string(),
                fmt_f64(ms(start)),
            ]);
        }
    }
    vec![t]
}

/// A5: the deterministic parallel experiment engine — wall-clock scaling
/// of the NoC exploration sweep over worker counts, the byte-identical
/// check against the serial reference, and fingerprint-cache reuse.
pub fn a5_parallel_runner(seed: u64) -> Vec<Table> {
    let _ = seed; // NoC synthesis is deterministic; nothing to seed.

    // A larger sweep than E7b so the parallel win is measurable.
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

    // Speedup is bounded by the host: on a single-core container every
    // worker count collapses to ~1×, so the table records how many cores
    // were actually available next to each measurement.
    let cores = default_workers();
    let mut t = Table::new(
        "A5",
        &format!(
            "scenario engine scaling on the NoC sweep \
             (25-core hotspot, 30 points, {cores} host core(s))"
        ),
        &["workers", "time ms", "speedup", "identical to serial"],
    );
    let sweep = |workers: usize| Runner::with_workers(workers).run(&scenarios).outcomes;
    let start = Instant::now();
    let reference = sweep(1);
    let serial_ms = ms(start);
    t.row_owned(vec![
        "1".into(),
        fmt_f64(serial_ms),
        fmt_f64(1.0),
        "yes (reference)".into(),
    ]);
    for workers in [2, 4, cores] {
        let start = Instant::now();
        let out = sweep(workers);
        let par_ms = ms(start);
        t.row_owned(vec![
            workers.to_string(),
            fmt_f64(par_ms),
            fmt_f64(serial_ms / par_ms.max(1e-9)),
            if out == reference { "yes" } else { "NO" }.into(),
        ]);
    }

    let mut c = Table::new(
        "A5b",
        "outcome cache across repeated sweeps",
        &["pass", "time ms", "executed", "cache hits"],
    );
    let mut runner = Runner::with_workers(cores);
    for pass in 1..=2 {
        let start = Instant::now();
        let report = runner.run(&scenarios);
        let elapsed = ms(start);
        assert_eq!(
            report.outcomes, reference,
            "cached pass must match the reference"
        );
        c.row_owned(vec![
            pass.to_string(),
            fmt_f64(elapsed),
            report.stats.executed.to_string(),
            report.stats.cache_hits.to_string(),
        ]);
    }
    vec![t, c]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_produce_rows() {
        for table in e4_thelper(1) {
            assert!(!table.is_empty());
        }
        for table in e6_arabidopsis(1) {
            assert!(!table.is_empty());
        }
    }

    #[test]
    fn e10_tables_have_all_policies() {
        let t = &e10_harvesting(1)[0];
        assert_eq!(t.len(), 5);
    }
}
