//! Cluster conformance: distribution across machines must never move a
//! bit.
//!
//! Contracts, all against the golden corpus of `tests/golden/corpus.txt`
//! (seed 42):
//!
//! 1. **Transport matrix**: serial == in-process sharded == in-process
//!    cluster == TCP cluster == spool cluster, for N ∈ {1, 2, 4}
//!    workers and both shard strategies, and over the full corpus at one
//!    TCP worker process per shard for 1, 2 and 4 shards. Beyond the
//!    totals, every cluster report carries the in-process sharded run's
//!    exact stats layout: the same per-shard and per-worker rows.
//! 2. **Failure recovery**: a TCP worker killed mid-shard, a TCP worker
//!    whose heartbeats stall past the liveness window, and a spool
//!    worker that commits a corrupt result file all requeue onto
//!    survivors — merged digests unchanged, `dist.requeue` nonzero.
//! 3. **Telemetry**: merged worker metric *counters* are identical
//!    across the process-backed transports and agree with the merged
//!    stats (histograms carry wall-clock timings and are excluded by
//!    design).
//! 4. **Degradation**: a cluster whose fleet cannot launch still
//!    completes every shard in-process with golden digests.
//!
//! The full corpus runs once per process transport; the wider matrix
//! uses a cheap-family subset (dilution-ladder scenarios dominate debug
//! wall time) that is still asserted digest-by-digest against the
//! golden file.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Once;
use std::time::Duration;

use micronano::core::runner::{
    conformance_corpus, ClusterConfig, Runner, RunnerConfig, Scenario, ScenarioOutcome,
    ShardStrategy,
};
use micronano::dist::{
    Cluster, ClusterReport, DistFault, FaultMode, InProcess, SpoolTransport, TcpTransport,
    Transport,
};
use micronano::telemetry;

/// Seed of the committed corpus (must match `examples/regen_golden.rs`).
const CORPUS_SEED: u64 = 42;

/// The cluster worker binary Cargo built for this test run.
fn worker_path() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dist_worker"))
}

fn golden_digests() -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus.txt");
    let text = std::fs::read_to_string(path).expect("tests/golden/corpus.txt is committed");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, digest) = l.rsplit_once(' ').expect("`label digest` lines");
            (label.to_owned(), digest.to_owned())
        })
        .collect()
}

/// Asserts every outcome digest matches the committed golden file for
/// its scenario — works on any corpus subset, not just the full corpus.
fn assert_golden(corpus: &[Scenario], outcomes: &[ScenarioOutcome]) {
    let golden = golden_digests();
    assert_eq!(outcomes.len(), corpus.len());
    for (scenario, outcome) in corpus.iter().zip(outcomes) {
        let label = scenario.label();
        let expected = golden
            .get(&label)
            .unwrap_or_else(|| panic!("scenario `{label}` missing from golden file"));
        assert_eq!(
            *expected,
            outcome.digest().to_string(),
            "golden drift on `{label}`"
        );
    }
}

/// Cheap corpus subset for the wide matrix and the failure tests:
/// knockout / harvest / NoC scenarios evaluate in milliseconds even in
/// debug builds, dilution ladders do not.
fn cheap_corpus() -> Vec<Scenario> {
    let corpus: Vec<Scenario> = conformance_corpus(CORPUS_SEED)
        .into_iter()
        .filter(|s| {
            matches!(
                s,
                Scenario::Knockout(_) | Scenario::Harvest(_) | Scenario::NocPoint(_)
            )
        })
        .collect();
    assert!(corpus.len() >= 8, "cheap subset unexpectedly small");
    corpus
}

/// The failure tests assert on the process-global `dist.*` counters, so
/// telemetry is switched on exactly once for the whole test binary and
/// never reset (tests run in parallel threads and share the registry —
/// deltas, not absolute values, are asserted).
fn enable_telemetry_once() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        telemetry::enable(std::sync::Arc::new(telemetry::WallClock::default()));
    });
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn run_cluster(
    transport: impl Transport + 'static,
    config: ClusterConfig,
    corpus: &[Scenario],
    fault: Option<DistFault>,
) -> ClusterReport {
    let mut cluster = Cluster::new(transport, config).with_worker_binary(worker_path());
    if let Some(fault) = fault {
        cluster = cluster.with_fault(fault);
    }
    cluster.run(corpus)
}

/// Asserts one report matches the serial reference bit for bit.
fn assert_matches_serial(corpus: &[Scenario], report: &ClusterReport, context: &str) {
    let reference = Runner::serial().run(corpus);
    assert_eq!(
        reference.outcomes, report.outcomes,
        "outcome drift: {context}"
    );
    assert_eq!(
        reference.stats.totals(),
        report.stats.totals(),
        "stats drift: {context}"
    );
    assert_golden(corpus, &report.outcomes);
}

/// Asserts a cluster report carries the same stats as the in-process
/// sharded run at one thread per shard: not just the same totals, but
/// the same merged stats, per-shard rows and per-worker rows.
fn assert_in_process_stats_layout(
    corpus: &[Scenario],
    report: &ClusterReport,
    shards: usize,
    strategy: ShardStrategy,
    context: &str,
) {
    let in_process = RunnerConfig::new()
        .workers(1)
        .shards(shards)
        .strategy(strategy)
        .build()
        .run(corpus);
    assert_eq!(in_process.stats, report.stats, "stats drift: {context}");
    // The unsharded (shards = 1) in-process path reports no per-shard
    // rows; a cluster always reports one per planned shard.
    assert_eq!(report.shards.len(), shards, "{context}");
    if shards > 1 {
        assert_eq!(
            in_process.shards, report.shards,
            "per-shard stats drift: {context}"
        );
    }
}

/// Serial == cluster over a fresh `transport()` for N ∈ {1, 2, 4}
/// workers and both strategies on the cheap subset, with the in-process
/// sharded stats layout and no requeues.
fn assert_matrix_matches_serial<T: Transport + 'static>(name: &str, transport: impl Fn() -> T) {
    let corpus = cheap_corpus();
    for workers in [1usize, 2, 4] {
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::ByFamily] {
            let config = ClusterConfig::new()
                .workers(workers)
                .shards(4)
                .strategy(strategy);
            let report = run_cluster(transport(), config, &corpus, None);
            let context = format!("{name}, {workers} workers, {strategy:?}");
            assert_matches_serial(&corpus, &report, &context);
            assert_in_process_stats_layout(&corpus, &report, 4, strategy, &context);
            assert_eq!(report.requeues, 0, "{context}");
        }
    }
}

#[test]
fn in_process_cluster_matches_serial_on_full_corpus() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let config = ClusterConfig::new().workers(2).shards(4);
    let report = Cluster::new(InProcess::new(), config).run(&corpus);
    assert_matches_serial(&corpus, &report, "in-process cluster, full corpus");
    assert_eq!(report.requeues, 0, "healthy loopback workers never requeue");
    assert!(report.recovered.is_empty());
    assert_eq!(report.shards.len(), 4);
    assert!(
        report
            .placements
            .iter()
            .all(|p| p.worker.is_some() && p.attempts == 1),
        "every shard lands on a worker in one attempt: {:?}",
        report.placements
    );
}

#[test]
fn tcp_cluster_matches_serial_on_full_corpus() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = TcpTransport::bind().expect("loopback listener");
    let report = run_cluster(transport, config, &corpus, None);
    assert_matches_serial(&corpus, &report, "tcp cluster, full corpus");
    assert_eq!(report.requeues, 0);
    assert!(report.recovered.is_empty());
}

#[test]
fn spool_cluster_matches_serial_on_full_corpus() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = SpoolTransport::ephemeral().expect("spool dir");
    let report = run_cluster(transport, config, &corpus, None);
    assert_matches_serial(&corpus, &report, "spool cluster, full corpus");
    assert_eq!(report.requeues, 0);
    assert!(report.recovered.is_empty());
}

#[test]
fn in_process_matrix_matches_serial() {
    assert_matrix_matches_serial("in-process", InProcess::new);
}

#[test]
fn tcp_matrix_matches_serial() {
    assert_matrix_matches_serial("tcp", || TcpTransport::bind().expect("loopback listener"));
}

#[test]
fn spool_matrix_matches_serial() {
    assert_matrix_matches_serial("spool", || SpoolTransport::ephemeral().expect("spool dir"));
}

#[test]
fn child_process_shards_match_serial_and_golden() {
    // One worker process per shard over the full corpus: the stats
    // layout holds at every shard count, not only the matrix's four.
    let corpus = conformance_corpus(CORPUS_SEED);
    for shards in [1usize, 2, 4] {
        let config = ClusterConfig::new().workers(shards).shards(shards);
        let transport = TcpTransport::bind().expect("loopback listener");
        let report = run_cluster(transport, config, &corpus, None);
        let context = format!("{shards} worker processes, full corpus");
        assert!(report.recovered.is_empty(), "{context}");
        assert_matches_serial(&corpus, &report, &context);
        let strategy = ShardStrategy::RoundRobin;
        assert_in_process_stats_layout(&corpus, &report, shards, strategy, &context);
    }
}

#[test]
fn empty_shards_resolve_without_workers() {
    // More shards than scenarios: the overflow shards are empty and must
    // resolve locally while keeping one stats row per planned shard.
    let corpus: Vec<Scenario> = cheap_corpus().into_iter().take(4).collect();
    let config = ClusterConfig::new().workers(2).shards(8);
    let report = Cluster::new(InProcess::new(), config).run(&corpus);
    assert_matches_serial(&corpus, &report, "8 shards over 4 scenarios");
    assert_eq!(report.shards.len(), 8, "one stats row per planned shard");
}

#[test]
fn metrics_counters_identical_across_process_transports() {
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .collect_metrics(true);

    let tcp = run_cluster(
        TcpTransport::bind().expect("loopback listener"),
        config,
        &corpus,
        None,
    );
    let spool = run_cluster(
        SpoolTransport::ephemeral().expect("spool dir"),
        config,
        &corpus,
        None,
    );
    assert_matches_serial(&corpus, &tcp, "tcp with metrics");
    assert_matches_serial(&corpus, &spool, "spool with metrics");

    let tcp_metrics = tcp.metrics.as_ref().expect("tcp metrics collected");
    let spool_metrics = spool.metrics.as_ref().expect("spool metrics collected");
    for (metrics, report) in [(tcp_metrics, &tcp), (spool_metrics, &spool)] {
        assert_eq!(
            metrics.counter("runner.executed"),
            report.stats.executed,
            "merged worker telemetry must agree with the merged stats"
        );
    }
    let tcp_counters = &tcp_metrics.counters;
    let spool_counters = &spool_metrics.counters;
    assert!(
        !tcp_counters.is_empty(),
        "worker runners emit at least one counter"
    );
    assert_eq!(
        tcp_counters, spool_counters,
        "merged worker counters must not depend on the transport"
    );
}

#[test]
fn child_metrics_are_collected_and_merged() {
    // Every family but lab-chip pipelines, so the merged counters span
    // more families than the cheap subset.
    let batch: Vec<Scenario> = conformance_corpus(CORPUS_SEED)
        .into_iter()
        .filter(|s| !matches!(s, Scenario::LabChip(_)))
        .take(8)
        .collect();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(2)
        .collect_metrics(true);
    let transport = TcpTransport::bind().expect("loopback listener");
    let report = run_cluster(transport, config, &batch, None);
    assert!(report.recovered.is_empty());
    let metrics = report.metrics.expect("collect_metrics fills the snapshot");
    assert_eq!(
        metrics.counter("runner.executed"),
        report.stats.executed,
        "merged child telemetry must agree with the merged stats"
    );
}

#[test]
fn tcp_worker_killed_mid_shard_recovers_on_survivor() {
    enable_telemetry_once();
    let requeues_before = counter("dist.requeue");
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = TcpTransport::bind().expect("loopback listener");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::Crash,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "tcp crash recovery");
    assert!(
        report.requeues >= 1,
        "the killed worker's shard must requeue"
    );
    assert!(report.recovered.is_empty(), "the survivor absorbs the work");
    assert!(
        counter("dist.requeue") > requeues_before,
        "dist.requeue must advance"
    );
}

#[test]
fn tcp_worker_heartbeat_stall_trips_the_liveness_window() {
    enable_telemetry_once();
    let misses_before = counter("dist.heartbeat_miss");
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .heartbeat_interval(Duration::from_millis(25))
        .liveness_window(Duration::from_millis(400));
    let transport = TcpTransport::bind().expect("loopback listener");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::StallHeartbeat,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "tcp heartbeat-stall recovery");
    assert!(report.heartbeat_misses >= 1, "the stall must be detected");
    assert!(report.requeues >= 1, "the stalled shard must requeue");
    assert!(
        counter("dist.heartbeat_miss") > misses_before,
        "dist.heartbeat_miss must advance"
    );
}

#[test]
fn stalled_worker_trips_the_shard_deadline_when_liveness_is_lenient() {
    // ClusterConfig::shard_deadline is the cluster's per-shard deadline.
    // With a liveness window too lenient to notice the stall, the
    // deadline alone must requeue.
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .heartbeat_interval(Duration::from_millis(25))
        .liveness_window(Duration::from_secs(30))
        .shard_deadline(Duration::from_millis(600));
    let transport = TcpTransport::bind().expect("loopback listener");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::StallHeartbeat,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "deadline-based recovery");
    assert!(report.requeues >= 1, "the deadline must requeue the shard");
    assert_eq!(
        report.heartbeat_misses, 0,
        "a 30 s liveness window must not fire first"
    );
}

#[test]
fn spool_corrupt_result_is_requeued() {
    enable_telemetry_once();
    let requeues_before = counter("dist.requeue");
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = SpoolTransport::ephemeral().expect("spool dir");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::CorruptResult,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "spool corrupt-result recovery");
    assert!(report.requeues >= 1, "the corrupt result must requeue");
    assert!(report.recovered.is_empty());
    assert!(
        counter("dist.requeue") > requeues_before,
        "dist.requeue must advance"
    );
}

#[test]
fn in_process_crash_recovers_on_survivor() {
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::Crash,
    };
    let report = Cluster::new(InProcess::new(), config)
        .with_fault(fault)
        .run(&corpus);
    assert_matches_serial(&corpus, &report, "in-process crash recovery");
    assert!(report.requeues >= 1);
}

#[test]
fn unlaunchable_fleet_degrades_to_local_evaluation() {
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = TcpTransport::bind().expect("loopback listener");
    let report = Cluster::new(transport, config)
        .with_worker_binary("/nonexistent/dist_worker")
        .run(&corpus);
    assert_matches_serial(&corpus, &report, "local degradation");
    assert_eq!(
        report.recovered.len(),
        4,
        "every shard is recovered in-process"
    );
    assert!(report.placements.iter().all(|p| p.worker.is_none()));
}
