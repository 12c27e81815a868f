//! Cluster sweep: one mixed-assay batch scheduled over real worker
//! processes on framed loopback TCP, with a crash injected to show the
//! scheduler requeueing onto survivors.
//!
//! Runs `conformance_corpus(42)` three ways — serial, in-process
//! loopback cluster, TCP cluster — and proves the per-scenario digests
//! identical across all three. Prints per-worker shard placement and
//! requeue counts for the TCP cluster, then runs the corpus again
//! through the same TCP cluster, which serves every outcome from its
//! cache and assigns nothing, and finally kills a TCP worker mid-shard
//! and shows the survivors absorbing its work without a single digest
//! moving.
//!
//! The worker binary ships with the package; build it first:
//!
//! ```sh
//! cargo build --release --bin dist_worker
//! cargo run   --release --example cluster_sweep
//! ```
//!
//! (Without the binary the scheduler still completes — every shard
//! degrades to in-process recovery and is listed as such.)

use micronano::core::report::Table;
use micronano::core::runner::{conformance_corpus, ClusterConfig, Runner};
use micronano::dist::{Cluster, ClusterReport, DistFault, FaultMode, InProcess, TcpTransport};

fn placements(report: &ClusterReport) -> String {
    report
        .placements
        .iter()
        .map(|p| {
            let worker = p.worker.as_deref().unwrap_or("local");
            format!("s{}→{worker}({}×)", p.shard.0, p.attempts)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("micronano cluster_sweep — one corpus across a cluster\n");
    let corpus = conformance_corpus(42);
    let serial = Runner::serial().run(&corpus);
    let digests = serial.digests();
    let config = ClusterConfig::new().workers(3).shards(6);

    let in_process = Cluster::new(InProcess::new(), config).run(&corpus);
    let mut tcp_cluster = Cluster::new(TcpTransport::bind()?, config);
    let tcp = tcp_cluster.run(&corpus);

    let mut t = Table::new(
        "transports",
        "one corpus, three execution modes",
        &[
            "mode",
            "scenarios",
            "workers seen",
            "requeues",
            "recovered",
            "digests == serial",
        ],
    );
    t.row_owned(vec![
        "serial".to_owned(),
        serial.stats.totals().scenarios.to_string(),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        "yes".to_owned(),
    ]);
    for (mode, report) in [("cluster: in-process", &in_process), ("cluster: tcp", &tcp)] {
        let mut workers: Vec<&str> = report
            .placements
            .iter()
            .filter_map(|p| p.worker.as_deref())
            .collect();
        workers.sort_unstable();
        workers.dedup();
        let same = report
            .outcomes
            .iter()
            .map(|o| o.digest())
            .collect::<Vec<_>>()
            == digests;
        t.row_owned(vec![
            mode.to_owned(),
            report.stats.totals().scenarios.to_string(),
            workers.len().to_string(),
            report.requeues.to_string(),
            report.recovered.len().to_string(),
            if same { "yes" } else { "NO" }.to_owned(),
        ]);
        assert!(same, "{mode} must not move a digest");
    }
    println!("{t}");
    println!("tcp placement: {}", placements(&tcp));

    // The same TCP cluster again: every outcome is cached, so nothing
    // ships and no worker is launched.
    let repeat = tcp_cluster.run(&corpus);
    let same = repeat
        .outcomes
        .iter()
        .map(|o| o.digest())
        .collect::<Vec<_>>()
        == digests;
    println!(
        "\ntcp repeat: {} of {} outcomes from the cluster's cache, {} assigned; digests {} serial",
        repeat.stats.cache_hits,
        repeat.stats.scenarios,
        repeat.assigned,
        if same { "match" } else { "DIVERGED from" },
    );
    assert_eq!(repeat.assigned, 0, "a cached repeat must ship nothing");
    assert!(same, "a cached repeat must not move a digest");

    // Now kill one TCP worker mid-shard and watch the survivors absorb
    // its work.
    println!("\ninjecting a crash into one tcp worker...");
    let crashed = Cluster::new(TcpTransport::bind()?, config)
        .with_fault(DistFault {
            worker: 0,
            mode: FaultMode::Crash,
        })
        .run(&corpus);
    let ok = crashed
        .outcomes
        .iter()
        .map(|o| o.digest())
        .collect::<Vec<_>>()
        == digests;
    println!(
        "crash injection: worker w0 died mid-shard; {} requeue(s), placement {}; digests {} serial",
        crashed.requeues,
        placements(&crashed),
        if ok { "still match" } else { "DIVERGED from" },
    );
    assert!(ok, "recovery must not move a digest");
    Ok(())
}
