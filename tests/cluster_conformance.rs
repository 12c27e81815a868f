//! Cluster conformance: distribution across processes must never move a
//! bit.
//!
//! Contracts, all against the golden corpus of `tests/golden/corpus.txt`
//! (seed 42):
//!
//! 1. **Transport matrix**: serial == in-process cluster == TCP cluster,
//!    for N ∈ {1, 2, 4} workers, and over the full corpus at one TCP
//!    worker process per shard for 1, 2 and 4 shards.
//!    Beyond the totals, every cluster report carries the exact stats
//!    of an independent per-shard reference: a fresh serial `Runner`
//!    over each planned shard's scenarios, tagged with the shard id.
//! 2. **Failure recovery**: every fault mode on every transport — a
//!    worker killed mid-shard, a worker whose heartbeats stall past the
//!    liveness window, and a worker that answers with a corrupt result —
//!    requeues onto survivors: merged digests unchanged, the report's
//!    `requeues` nonzero, and a stall counted in its `heartbeat_misses`.
//!    A stall that a lenient liveness window misses trips the shard
//!    deadline. Every count is read from the `ClusterReport`; the suite
//!    never touches the process-global telemetry registry.
//! 3. **Telemetry**: merged worker metric *counters* are identical for
//!    one and two worker processes over the same shard plan and agree
//!    with the outcomes (histograms carry wall-clock timings and are
//!    excluded by design).
//! 4. **Degradation**: a cluster whose fleet cannot launch, a shard
//!    whose every attempt comes back garbled, and a fleet whose only
//!    worker crashes each still complete in-process with golden digests;
//!    a fleet whose second worker registers only after the first has
//!    crashed is not given up on.
//! 5. **Reuse**: one cluster reused over two batches, the second
//!    revisiting the first and repeating scenarios within itself,
//!    returns the outcomes and totals of one reused serial `Runner` and
//!    relaunches a healthy fleet on every transport; a batch that ships
//!    nothing launches no fleet.
//! 6. **Settings mean what their docs say**: `threads_per_worker(0)`
//!    is the hardware default inside every worker on both transports,
//!    with the serial run's totals, and a zero heartbeat interval is
//!    raised to the workers' 1 ms floor. `dist_worker` exits with code 2
//!    on a usage or connect error.
//!
//! The full corpus runs once per transport; the wider matrix
//! uses a cheap-family subset (dilution-ladder scenarios dominate debug
//! wall time) that is still asserted digest-by-digest against the
//! golden file.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use micronano::core::runner::{
    conformance_corpus, BatchStats, ClusterConfig, Runner, Scenario, ScenarioOutcome, ShardId,
    ShardPlan,
};
use micronano::dist::{
    Cluster, ClusterReport, DistFault, FaultMode, InProcess, LaunchOpts, TcpTransport, Transport,
    TransportEvent,
};

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

/// Runs `corpus` through the cluster `make` builds on a helper thread,
/// and fails unless the report arrives within `bound`: a regression that
/// hangs or waits too long fails instead of stalling the suite.
fn run_within(
    bound: Duration,
    corpus: &[Scenario],
    make: impl FnOnce() -> Cluster + Send + 'static,
) -> ClusterReport {
    let (done_tx, done) = mpsc::channel();
    let batch = corpus.to_vec();
    let helper = thread::spawn(move || {
        let _ = done_tx.send(make().run(&batch));
    });
    let report = done
        .recv_timeout(bound)
        .unwrap_or_else(|_| panic!("no cluster report within {bound:?}"));
    helper.join().expect("the cluster thread finishes");
    report
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

/// Asserts a cluster report carries the stats of an independent
/// reference at one thread per worker: for each shard of the plan, a
/// fresh serial `Runner` over that shard's scenarios, tagged with the
/// shard id. Not just the same totals: the same per-shard rows,
/// per-worker rows and merged stats.
fn assert_shard_stats_layout(
    corpus: &[Scenario],
    report: &ClusterReport,
    shards: usize,
    context: &str,
) {
    let expected: Vec<BatchStats> = ShardPlan::split(corpus, shards)
        .iter()
        .map(|(shard, indices)| {
            let scenarios: Vec<Scenario> = indices.iter().map(|&i| corpus[i].clone()).collect();
            let mut stats = Runner::serial().run(&scenarios).stats;
            stats.shard = shard;
            for row in &mut stats.per_worker {
                row.shard = shard;
            }
            stats
        })
        .collect();
    assert_eq!(expected, report.shards, "per-shard stats drift: {context}");
    assert_eq!(
        BatchStats::merged(&expected),
        report.stats,
        "stats drift: {context}"
    );
}

/// Serial == cluster over a fresh `transport()` for N ∈ {1, 2, 4}
/// workers on the cheap subset, with the per-shard reference stats and
/// no requeues.
fn assert_matrix_matches_serial<T: Transport + 'static>(name: &str, transport: impl Fn() -> T) {
    let corpus = cheap_corpus();
    for workers in [1usize, 2, 4] {
        let config = ClusterConfig::new().workers(workers).shards(4);
        let report = run_cluster(transport(), config, &corpus, None);
        let context = format!("{name}, {workers} workers");
        assert_matches_serial(&corpus, &report, &context);
        assert_shard_stats_layout(&corpus, &report, 4, &context);
        assert_eq!(report.requeues, 0, "{context}");
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
fn in_process_matrix_matches_serial() {
    assert_matrix_matches_serial("in-process", InProcess::new);
}

#[test]
fn tcp_matrix_matches_serial() {
    assert_matrix_matches_serial("tcp", || TcpTransport::bind().expect("loopback listener"));
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
        assert_shard_stats_layout(&corpus, &report, shards, &context);
    }
}

/// One cluster over `transport`, reused over two batches: the
/// second revisits part of the first and repeats scenarios within itself.
/// It must return the outcomes and totals of one serial `Runner` reused
/// over the same batches, ship only what neither has cached, and
/// relaunch a healthy fleet for the second batch.
fn assert_reuse_matches_a_reused_runner<T: Transport + 'static>(name: &str, transport: T) {
    let corpus = cheap_corpus();
    let first: Vec<Scenario> = corpus[..6].to_vec();
    let mut second: Vec<Scenario> = corpus[3..].to_vec();
    second.extend_from_slice(&corpus[7..9]);
    let mut runner = Runner::serial();
    let mut cluster = Cluster::new(transport, ClusterConfig::new().workers(2).shards(4))
        .with_worker_binary(worker_path());
    for (round, batch) in [&first, &second].into_iter().enumerate() {
        let context = format!("{name}, batch {round}");
        let reference = runner.run(batch);
        let report = cluster.run(batch);
        assert_eq!(reference.outcomes, report.outcomes, "{context}");
        assert_eq!(reference.stats.totals(), report.stats.totals(), "{context}");
        assert_golden(batch, &report.outcomes);
        let shipped: u64 = report.shards.iter().map(|s| s.scenarios).sum();
        assert_eq!(shipped, reference.stats.executed, "{context}");
        assert!(
            report.recovered.is_empty(),
            "{context}: {:?}",
            report.recovered
        );
        assert_eq!(report.requeues, 0, "{context}");
    }
}

#[test]
fn a_reused_in_process_cluster_matches_a_reused_runner() {
    assert_reuse_matches_a_reused_runner("in-process", InProcess::new());
}

#[test]
fn a_reused_tcp_cluster_matches_a_reused_runner() {
    let transport = TcpTransport::bind().expect("loopback listener");
    assert_reuse_matches_a_reused_runner("tcp", transport);
}

/// An `InProcess` fleet with two test hooks: `on_launch` runs before
/// every `launch`, and `filter` rewrites every batch of polled events. A
/// filter may keep state, so it can hold an event back for a later poll.
struct Hooked<L, F> {
    inner: InProcess,
    on_launch: L,
    filter: F,
}

impl<L, F> Hooked<L, F>
where
    L: FnMut(),
    F: FnMut(Vec<TransportEvent>) -> Vec<TransportEvent>,
{
    fn new(on_launch: L, filter: F) -> Self {
        Hooked {
            inner: InProcess::new(),
            on_launch,
            filter,
        }
    }
}

impl<L, F> Transport for Hooked<L, F>
where
    L: FnMut(),
    F: FnMut(Vec<TransportEvent>) -> Vec<TransportEvent>,
{
    fn launch(&mut self, workers: usize, opts: &LaunchOpts) -> io::Result<()> {
        (self.on_launch)();
        self.inner.launch(workers, opts)
    }

    fn poll(&mut self, wait: Duration) -> Vec<TransportEvent> {
        (self.filter)(self.inner.poll(wait))
    }

    fn assign(
        &mut self,
        worker: &str,
        shard: ShardId,
        attempt: u32,
        manifest: &str,
    ) -> io::Result<()> {
        self.inner.assign(worker, shard, attempt, manifest)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[test]
fn a_batch_that_ships_nothing_launches_no_fleet() {
    let launches = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&launches);
    let transport = Hooked::new(
        move || {
            counter.fetch_add(1, Ordering::SeqCst);
        },
        |events| events,
    );
    let mut cluster = Cluster::new(transport, ClusterConfig::new().workers(2).shards(4));
    let empty = cluster.run(&[]);
    assert!(empty.outcomes.is_empty());
    assert_eq!(empty.assigned, 0);
    assert_eq!(launches.load(Ordering::SeqCst), 0, "empty batch");

    let corpus = cheap_corpus();
    let first = cluster.run(&corpus);
    assert_matches_serial(&corpus, &first, "first pass");
    assert_eq!(launches.load(Ordering::SeqCst), 1);
    let repeat = cluster.run(&corpus);
    assert_eq!(repeat.outcomes, first.outcomes);
    assert_eq!(repeat.assigned, 0);
    assert_eq!(repeat.stats.cache_hits, corpus.len() as u64);
    assert_eq!(launches.load(Ordering::SeqCst), 1, "fully cached repeat");
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
fn metrics_counters_identical_across_fleet_sizes() {
    // One worker process runs all four shards, two split them: the
    // merged counters depend on the shard plan, not on the fleet.
    let corpus = cheap_corpus();
    let counters = |workers: usize| {
        let config = ClusterConfig::new()
            .workers(workers)
            .shards(4)
            .collect_metrics(true);
        let transport = TcpTransport::bind().expect("loopback listener");
        let report = run_cluster(transport, config, &corpus, None);
        let context = format!("{workers} worker(s) with metrics");
        assert_matches_serial(&corpus, &report, &context);
        assert!(report.recovered.is_empty(), "{context}");
        let metrics = report.metrics.as_ref().expect("metrics collected");
        assert_eq!(
            metrics.counter("wsn.harvest_slots"),
            harvest_slots(&report),
            "{context}: merged worker telemetry must agree with the outcomes"
        );
        metrics.counters.clone()
    };
    let one = counters(1);
    assert!(!one.is_empty(), "worker runners emit at least one counter");
    assert_eq!(
        one,
        counters(2),
        "merged worker counters must not depend on the fleet size"
    );
}

/// The `wsn.harvest_slots` a report's harvest runs add up to. The
/// batches here hold no repeated scenario, so every outcome was
/// evaluated once.
fn harvest_slots(report: &ClusterReport) -> u64 {
    let slots: u64 = report
        .outcomes
        .iter()
        .map(|o| match o {
            ScenarioOutcome::Harvest { total_slots, .. } => *total_slots,
            _ => 0,
        })
        .sum();
    assert!(slots > 0, "the batch holds harvest runs");
    slots
}

#[test]
fn child_metrics_are_collected_and_merged() {
    // Two scenarios of every family but lab-chip pipelines, so the
    // merged counters span more families than the cheap subset.
    let mut taken: BTreeMap<&str, usize> = BTreeMap::new();
    let batch: Vec<Scenario> = conformance_corpus(CORPUS_SEED)
        .into_iter()
        .filter(|s| !matches!(s, Scenario::LabChip(_)))
        .filter(|s| {
            let n = taken.entry(s.family()).or_default();
            *n += 1;
            *n <= 2
        })
        .collect();
    assert_eq!(taken.len(), 5, "five families");
    let config = ClusterConfig::new()
        .workers(2)
        .shards(2)
        .collect_metrics(true);
    let transport = TcpTransport::bind().expect("loopback listener");
    let report = run_cluster(transport, config, &batch, None);
    assert!(report.recovered.is_empty());
    let metrics = report
        .metrics
        .as_ref()
        .expect("collect_metrics fills the snapshot");
    assert_eq!(
        metrics.counter("wsn.harvest_slots"),
        harvest_slots(&report),
        "merged child telemetry must agree with the outcomes"
    );
}

/// Runs the cheap corpus over `transport` with worker 0 faulty in `mode`
/// and asserts the recovery: serial and golden digests, no shard
/// recovered in-process, at least one requeue and, for a stall, at least
/// one heartbeat miss.
fn assert_fault_recovers(name: &str, transport: impl Transport + 'static, mode: FaultMode) {
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .heartbeat_interval(Duration::from_millis(25))
        .liveness_window(Duration::from_millis(400));
    let fault = DistFault { worker: 0, mode };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    let context = format!("{name} worker, fault `{}`", mode.token());
    assert_matches_serial(&corpus, &report, &context);
    assert!(
        report.requeues >= 1,
        "{context}: the faulty worker's shard must requeue"
    );
    assert!(
        report.recovered.is_empty(),
        "{context}: the survivor absorbs the work, recovered {:?}",
        report.recovered
    );
    if mode == FaultMode::StallHeartbeat {
        assert!(
            report.heartbeat_misses >= 1,
            "{context}: the stall must be detected"
        );
    }
}

#[test]
fn in_process_crash_recovers_on_survivor() {
    assert_fault_recovers("in-process", InProcess::new(), FaultMode::Crash);
}

#[test]
fn tcp_worker_killed_mid_shard_recovers_on_survivor() {
    let transport = TcpTransport::bind().expect("loopback listener");
    assert_fault_recovers("tcp", transport, FaultMode::Crash);
}

#[test]
fn in_process_heartbeat_stall_trips_the_liveness_window() {
    assert_fault_recovers("in-process", InProcess::new(), FaultMode::StallHeartbeat);
}

#[test]
fn tcp_worker_heartbeat_stall_trips_the_liveness_window() {
    let transport = TcpTransport::bind().expect("loopback listener");
    assert_fault_recovers("tcp", transport, FaultMode::StallHeartbeat);
}

#[test]
fn in_process_corrupt_result_is_requeued() {
    assert_fault_recovers("in-process", InProcess::new(), FaultMode::CorruptResult);
}

#[test]
fn tcp_corrupt_result_is_requeued() {
    let transport = TcpTransport::bind().expect("loopback listener");
    assert_fault_recovers("tcp", transport, FaultMode::CorruptResult);
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
fn a_worker_registering_after_a_crash_still_takes_the_work() {
    // `w0` registers, takes a shard and crashes before `w1` registers.
    // No worker is live at that moment, but `w1` is still to come: the
    // cluster must wait for it instead of recovering every shard.
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::Crash,
    };
    // `w1`'s `Registered` event is held back until a poll after the one
    // that delivered `w0`'s `Gone`.
    let (mut held, mut w0_gone) = (Vec::new(), false);
    let late_second_worker = Hooked::new(
        || {},
        move |polled: Vec<TransportEvent>| {
            let release = w0_gone;
            let mut events = if release {
                std::mem::take(&mut held)
            } else {
                Vec::new()
            };
            for event in polled {
                match &event {
                    TransportEvent::Registered { worker } if worker == "w1" && !release => {
                        held.push(event);
                    }
                    TransportEvent::Gone { worker } if worker == "w0" => {
                        w0_gone = true;
                        events.push(event);
                    }
                    _ => events.push(event),
                }
            }
            events
        },
    );
    let report = Cluster::new(late_second_worker, config)
        .with_fault(fault)
        .run(&corpus);
    assert_matches_serial(&corpus, &report, "late registration");
    assert!(
        report.recovered.is_empty(),
        "recovered in-process: {:?}",
        report.recovered
    );
    assert!(
        report
            .placements
            .iter()
            .all(|p| p.worker.as_deref() == Some("w1")),
        "every shard lands on the late worker: {:?}",
        report.placements
    );
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

#[test]
fn hardware_default_threads_give_the_same_worker_rows_on_every_transport() {
    // `threads_per_worker(0)` is the hardware default inside every
    // worker, so the (shard, worker) rows of a report cannot depend on
    // the transport. The rows' keys only: each row's counts vary with
    // scheduling above one thread, though their totals do not.
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(2)
        .threads_per_worker(0);
    let rows = |name: &str, report: ClusterReport| -> Vec<(ShardId, u32)> {
        assert_matches_serial(&corpus, &report, name);
        assert!(
            report.recovered.is_empty(),
            "{name}: {:?}",
            report.recovered
        );
        report
            .shards
            .iter()
            .flat_map(|shard| &shard.per_worker)
            .map(|row| (row.shard, row.worker))
            .collect()
    };
    let in_process = rows(
        "in-process",
        run_cluster(InProcess::new(), config, &corpus, None),
    );
    let tcp = TcpTransport::bind().expect("loopback listener");
    let tcp = rows("tcp", run_cluster(tcp, config, &corpus, None));
    assert_eq!(in_process, tcp, "tcp worker rows");
}

#[test]
fn dist_worker_exits_with_code_2_on_usage_and_connect_errors() {
    // A listener bound and dropped leaves a loopback port that nothing
    // listens on.
    let closed = TcpListener::bind(("127.0.0.1", 0))
        .and_then(|listener| listener.local_addr())
        .expect("loopback port")
        .to_string();
    for (args, reason) in [
        (&["--name", "w0"][..], "--connect is required"),
        (
            &["--transport", "tcp", "--connect", &closed, "--name", "w0"],
            "unknown flag `--transport`",
        ),
        (&["--connect", &closed, "--name", "w0"], "cannot connect"),
    ] {
        let run = Command::new(worker_path())
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("dist_worker runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
    }
}

#[test]
fn a_zero_heartbeat_interval_completes() {
    // Unfloored, an in-process worker heartbeats without pause and the
    // scheduler never finds its event queue empty.
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .heartbeat_interval(Duration::ZERO);
    let report = run_within(Duration::from_secs(60), &corpus, move || {
        Cluster::new(InProcess::new(), config)
    });
    assert_matches_serial(&corpus, &report, "zero heartbeat interval");
    assert!(report.recovered.is_empty(), "{:?}", report.recovered);
}

#[test]
fn a_shard_that_exhausts_its_attempts_is_recovered_in_process() {
    // Every result arrives with a garbage payload, as if the wire had
    // mangled it. Every answer is rejected, so each of the four shards is
    // assigned and requeued four times, then evaluated in this process.
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let garbled_results = Hooked::new(
        || {},
        |mut events: Vec<TransportEvent>| {
            for event in &mut events {
                if let TransportEvent::Result { outcomes, .. } = event {
                    *outcomes = "garbage".to_owned();
                }
            }
            events
        },
    );
    let report = Cluster::new(garbled_results, config).run(&corpus);
    assert_matches_serial(&corpus, &report, "attempts exhausted");
    assert_eq!(report.recovered, (0..4).map(ShardId).collect::<Vec<_>>());
    assert!(
        report
            .placements
            .iter()
            .all(|p| p.worker.is_none() && p.attempts == 4),
        "every shard spends four attempts: {:?}",
        report.placements
    );
    assert_eq!((report.assigned, report.requeues), (16, 16));
}

#[test]
fn a_fleet_whose_only_worker_crashes_is_recovered_in_process() {
    // Once the one launched worker has gone, no worker is still to come:
    // the cluster must recover every shard at once rather than wait out
    // its 10 s registration window.
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(1).shards(4);
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::Crash,
    };
    let report = run_within(Duration::from_secs(5), &corpus, move || {
        Cluster::new(InProcess::new(), config).with_fault(fault)
    });
    assert_matches_serial(&corpus, &report, "only worker crashed");
    assert_eq!(report.recovered, (0..4).map(ShardId).collect::<Vec<_>>());
}
