//! The transport-agnostic cluster scheduler.
//!
//! [`Cluster::run`] turns one scenario batch into a fault-tolerant
//! distributed sweep: split with the engine's own [`ShardPlan`], assign
//! shards to registered workers, watch per-shard deadlines and heartbeat
//! liveness, retry with capped exponential backoff (deterministic,
//! seed-derived jitter), and requeue work from dead, hung or corrupt
//! workers onto survivors. Results merge through the associative
//! [`BatchStats`] / [`MetricsSnapshot`] merge, so the final report is
//! **byte-identical to a serial run** at any worker count, over any
//! transport, under any injected failure — the same
//! detect-requeue-converge discipline the fault-tolerant biochip
//! literature applies to electrode failures, applied to the experiment
//! engine itself.
//!
//! Completion is unconditional: a shard that exhausts its attempts (or
//! outlives every worker) is recovered in-process through the public
//! [`Runner::run_shard`](mns_core::runner::Runner::run_shard) primitive
//! and listed in [`ClusterReport::recovered`]. A fleet that cannot be
//! launched at all (no worker binary) degrades the whole sweep this way.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mns_core::runner::manifest::{parse_outcomes, write_manifest};
use mns_core::runner::{
    BatchStats, ClusterConfig, Runner, RunnerConfig, Scenario, ScenarioOutcome, ShardId, ShardPlan,
};
use mns_telemetry::MetricsSnapshot;

use crate::transport::{DistFault, LaunchOpts, Transport, TransportEvent, WorkerId};

/// Where one shard ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlacement {
    /// The shard.
    pub shard: ShardId,
    /// Worker whose result was accepted; `None` for empty shards and
    /// shards recovered in-process.
    pub worker: Option<WorkerId>,
    /// Delivery attempts consumed (0 for empty or never-assigned
    /// shards).
    pub attempts: u32,
}

/// The merged result of a cluster sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Outcomes in global submission order — byte-identical to a serial
    /// run of the same batch.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Merged batch stats (see [`BatchStats::merge`]).
    pub stats: BatchStats,
    /// Per-shard stats in shard order.
    pub shards: Vec<BatchStats>,
    /// Per-shard placement (worker, attempts), in shard order.
    pub placements: Vec<ShardPlacement>,
    /// Assignments delivered (mirrors the `dist.assign` counter).
    pub assigned: u64,
    /// Shards requeued after a failure (mirrors `dist.requeue`).
    pub requeues: u64,
    /// Busy workers declared dead for silence past the liveness window
    /// (mirrors `dist.heartbeat_miss`).
    pub heartbeat_misses: u64,
    /// Shards recovered in-process after exhausting their attempts or
    /// outliving every worker, in shard order.
    pub recovered: Vec<ShardId>,
    /// Merged per-shard worker telemetry when
    /// [`ClusterConfig::collect_metrics`] was set. Counters are
    /// deterministic across transports; histogram values are
    /// wall-clock-dependent.
    pub metrics: Option<MetricsSnapshot>,
}

/// Deterministic capped exponential backoff with seed-derived jitter:
/// `min(cap, base·2^(attempt-1)) + jitter`, where the jitter is an
/// FNV-1a hash of `(seed, shard, attempt)` folded into `[0, base/2]`.
/// Pure — the same `(seed, shard, attempt)` always waits the same time,
/// so a failure schedule is reproducible run to run.
pub fn backoff_delay(
    base: Duration,
    cap: Duration,
    seed: u64,
    shard: ShardId,
    attempt: u32,
) -> Duration {
    let exponent = attempt.saturating_sub(1).min(16);
    let scaled = base.saturating_mul(1u32 << exponent).min(cap);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for chunk in [seed, u64::from(shard.0), u64::from(attempt)] {
        for byte in chunk.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let span_ns = (base.as_nanos() as u64 / 2).max(1);
    scaled + Duration::from_nanos(hash % span_ns)
}

/// One shard's evaluated payload: `(global index, outcome)` pairs plus
/// the shard's stats row — exactly what [`Runner::run_shard`] returns.
type ShardResult = (Vec<(usize, ScenarioOutcome)>, BatchStats);

/// Why a shard went back on the queue (for the `dist.requeue` counter's
/// sibling logs in telemetry spans; the scheduler treats all the same).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardState {
    /// Waiting for a worker; not eligible before the backoff instant.
    Ready,
    /// In flight on a worker.
    Assigned,
    /// Result accepted (or recovered in-process).
    Done,
}

struct ShardTrack {
    state: ShardState,
    not_before: Instant,
    deadline: Instant,
    worker: Option<WorkerId>,
    attempts: u32,
    last_failed_on: Option<WorkerId>,
}

struct WorkerTrack {
    live: bool,
    last_heartbeat: Instant,
    busy: Option<ShardId>,
}

/// A cluster scheduler bound to one transport.
pub struct Cluster {
    transport: Box<dyn Transport>,
    config: ClusterConfig,
    worker_binary: Option<PathBuf>,
    fault: Option<DistFault>,
}

impl Cluster {
    /// Binds a scheduler to a transport and a configuration.
    pub fn new(transport: impl Transport + 'static, config: ClusterConfig) -> Cluster {
        Cluster {
            transport: Box::new(transport),
            config,
            worker_binary: None,
            fault: None,
        }
    }

    /// Pins the worker binary for process-backed transports (tests use
    /// `env!("CARGO_BIN_EXE_dist_worker")`).
    #[must_use]
    pub fn with_worker_binary(mut self, path: impl Into<PathBuf>) -> Cluster {
        self.worker_binary = Some(path.into());
        self
    }

    /// Injects a deliberate worker fault (recovery tests).
    #[must_use]
    pub fn with_fault(mut self, fault: DistFault) -> Cluster {
        self.fault = Some(fault);
        self
    }

    /// The transport's name (`in-process`, `tcp`, `spool`).
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Runs the batch to completion. Worker failures never surface as
    /// errors — shards degrade to in-process recovery; see the module
    /// docs for the failure model.
    pub fn run(&mut self, scenarios: &[Scenario]) -> ClusterReport {
        let _span = mns_telemetry::span("dist.run");
        let config = self.config;
        let plan = ShardPlan::split_with(scenarios, config.runner.shards, config.runner.strategy);
        let shard_count = plan.shards();
        let now = Instant::now();

        let mut tracks: Vec<ShardTrack> = (0..shard_count)
            .map(|_| ShardTrack {
                state: ShardState::Ready,
                not_before: now,
                deadline: now,
                worker: None,
                attempts: 0,
                last_failed_on: None,
            })
            .collect();
        let mut results: Vec<Option<ShardResult>> = (0..shard_count).map(|_| None).collect();
        let mut manifests: Vec<String> = Vec::with_capacity(shard_count);
        let mut recovered: Vec<ShardId> = Vec::new();
        let mut assigned = 0u64;
        let mut requeues = 0u64;
        let mut heartbeat_misses = 0u64;
        let mut metrics = config.collect_metrics.then(MetricsSnapshot::default);

        // Empty shards resolve immediately (a stats row per planned
        // shard); manifests are rendered once up front — identical
        // across attempts.
        for (shard, indices) in plan.iter() {
            let entries: Vec<(usize, &Scenario)> =
                indices.iter().map(|&i| (i, &scenarios[i])).collect();
            manifests.push(write_manifest(shard, &entries));
            if indices.is_empty() {
                let sid = shard.0 as usize;
                results[sid] = Some(local_eval(scenarios, &plan, shard, &config));
                tracks[sid].state = ShardState::Done;
            }
        }

        let opts = LaunchOpts {
            threads_per_worker: config.runner.workers,
            heartbeat_interval: config.heartbeat_interval,
            collect_metrics: config.collect_metrics,
            worker_binary: self.worker_binary.clone(),
            fault: self.fault,
        };
        let launched = self.transport.launch(config.workers.max(1), &opts).is_ok();
        let started = Instant::now();
        let mut workers: BTreeMap<WorkerId, WorkerTrack> = BTreeMap::new();
        let mut ever_registered = false;

        loop {
            if tracks.iter().all(|t| t.state == ShardState::Done) {
                break;
            }
            let now = Instant::now();

            if launched {
                for event in self.transport.poll() {
                    match event {
                        TransportEvent::Registered { worker } => {
                            ever_registered = true;
                            workers.entry(worker).or_insert(WorkerTrack {
                                live: true,
                                last_heartbeat: now,
                                busy: None,
                            });
                        }
                        TransportEvent::Heartbeat { worker } => {
                            if let Some(track) = workers.get_mut(&worker) {
                                track.last_heartbeat = now;
                            }
                        }
                        TransportEvent::Gone { worker } => {
                            if let Some(track) = workers.get_mut(&worker) {
                                if track.live {
                                    track.live = false;
                                    if let Some(shard) = track.busy.take() {
                                        requeue(
                                            &mut tracks[shard.0 as usize],
                                            shard,
                                            Some(worker.clone()),
                                            &config,
                                            now,
                                            &mut requeues,
                                        );
                                    }
                                }
                            }
                        }
                        TransportEvent::Result {
                            worker,
                            shard,
                            attempt,
                            outcomes,
                            metrics: shard_metrics,
                        } => {
                            let sid = shard.0 as usize;
                            if let Some(track) = workers.get_mut(&worker) {
                                track.last_heartbeat = now;
                            }
                            if sid >= shard_count {
                                continue; // hostile or corrupt shard id
                            }
                            let track = &mut tracks[sid];
                            // Accept only the current attempt; a result
                            // from a superseded attempt would still be
                            // byte-identical (evaluation is pure) but
                            // matching on attempt keeps corrupt retries
                            // from racing their replacements.
                            if track.state == ShardState::Done || attempt != track.attempts {
                                continue;
                            }
                            // Free whichever worker carried this attempt —
                            // a corrupt spool result arrives without a
                            // trustworthy worker name, and a beached busy
                            // flag would starve a one-worker fleet.
                            for carrier in workers.values_mut() {
                                if carrier.busy == Some(shard) {
                                    carrier.busy = None;
                                }
                            }
                            match validate_outcomes(&outcomes, shard, &plan, scenarios.len()) {
                                Some(parsed) => {
                                    if let (Some(aggregate), Some(wire)) =
                                        (metrics.as_mut(), shard_metrics)
                                    {
                                        // Telemetry is best-effort: a
                                        // bad snapshot degrades silently,
                                        // outcomes are the contract.
                                        if let Ok(snap) = MetricsSnapshot::from_wire(&wire) {
                                            aggregate.merge(&snap);
                                        }
                                    }
                                    results[sid] = Some(parsed);
                                    track.state = ShardState::Done;
                                    track.worker = Some(worker);
                                }
                                None => {
                                    mns_telemetry::counter_add("dist.corrupt_result", 1);
                                    requeue(
                                        track,
                                        shard,
                                        Some(worker),
                                        &config,
                                        now,
                                        &mut requeues,
                                    );
                                }
                            }
                        }
                    }
                }

                // Liveness and deadline sweep.
                for (name, track) in workers.iter_mut() {
                    if !track.live {
                        continue;
                    }
                    let silent_for = now.duration_since(track.last_heartbeat);
                    if let Some(shard) = track.busy {
                        let sid = shard.0 as usize;
                        if silent_for > config.liveness_window {
                            heartbeat_misses += 1;
                            mns_telemetry::counter_add("dist.heartbeat_miss", 1);
                            track.live = false;
                            track.busy = None;
                            requeue(
                                &mut tracks[sid],
                                shard,
                                Some(name.clone()),
                                &config,
                                now,
                                &mut requeues,
                            );
                        } else if tracks[sid].state == ShardState::Assigned
                            && now >= tracks[sid].deadline
                        {
                            track.live = false;
                            track.busy = None;
                            requeue(
                                &mut tracks[sid],
                                shard,
                                Some(name.clone()),
                                &config,
                                now,
                                &mut requeues,
                            );
                        }
                    } else if silent_for > config.liveness_window {
                        track.live = false; // idle death; no shard to save
                    }
                }

                // Assign ready shards to idle live workers, preferring a
                // survivor over the worker that just failed the shard.
                let idle: Vec<WorkerId> = workers
                    .iter()
                    .filter(|(_, t)| t.live && t.busy.is_none())
                    .map(|(name, _)| name.clone())
                    .collect();
                let live_count = workers.values().filter(|t| t.live).count();
                for worker in idle {
                    let candidate = tracks
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.state == ShardState::Ready && now >= t.not_before)
                        .find(|(_, t)| {
                            live_count <= 1 || t.last_failed_on.as_deref() != Some(worker.as_str())
                        })
                        .map(|(sid, _)| sid);
                    let Some(sid) = candidate else { continue };
                    let shard = ShardId(sid as u32);
                    let attempt = tracks[sid].attempts + 1;
                    match self
                        .transport
                        .assign(&worker, shard, attempt, &manifests[sid])
                    {
                        Ok(()) => {
                            assigned += 1;
                            mns_telemetry::counter_add("dist.assign", 1);
                            let track = &mut tracks[sid];
                            track.attempts = attempt;
                            track.state = ShardState::Assigned;
                            track.deadline = now + config.shard_deadline;
                            if let Some(w) = workers.get_mut(&worker) {
                                w.busy = Some(shard);
                                w.last_heartbeat = now;
                            }
                        }
                        Err(_) => {
                            if let Some(w) = workers.get_mut(&worker) {
                                w.live = false;
                            }
                        }
                    }
                }
            }

            // Degradation: recover shards in-process when distribution
            // cannot finish them — attempts exhausted, launch failed, or
            // the fleet is gone (after the registration window when it
            // never appeared at all).
            let live_count = workers.values().filter(|t| t.live).count();
            let fleet_hopeless = !launched
                || (live_count == 0
                    && (ever_registered || started.elapsed() >= config.registration_window));
            for sid in 0..shard_count {
                let give_up = tracks[sid].state == ShardState::Ready
                    && (tracks[sid].attempts >= config.max_attempts || fleet_hopeless);
                if give_up {
                    let shard = ShardId(sid as u32);
                    results[sid] = Some(local_eval(scenarios, &plan, shard, &config));
                    tracks[sid].state = ShardState::Done;
                    tracks[sid].worker = None;
                    recovered.push(shard);
                }
            }

            if tracks.iter().all(|t| t.state == ShardState::Done) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        self.transport.shutdown();
        recovered.sort_unstable();

        let mut pairs: Vec<(usize, ScenarioOutcome)> = Vec::with_capacity(scenarios.len());
        let mut shards: Vec<BatchStats> = Vec::with_capacity(shard_count);
        for slot in results {
            let (shard_pairs, stats) = slot.expect("every shard is Done");
            pairs.extend(shard_pairs);
            shards.push(stats);
        }
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let outcomes = pairs.into_iter().map(|(_, outcome)| outcome).collect();
        let placements = tracks
            .iter()
            .enumerate()
            .map(|(sid, track)| ShardPlacement {
                shard: ShardId(sid as u32),
                worker: track.worker.clone(),
                attempts: track.attempts,
            })
            .collect();
        ClusterReport {
            outcomes,
            stats: BatchStats::merged(&shards),
            shards,
            placements,
            assigned,
            requeues,
            heartbeat_misses,
            recovered,
            metrics,
        }
    }
}

/// Puts a shard back on the queue after a failure, with its backoff.
fn requeue(
    track: &mut ShardTrack,
    shard: ShardId,
    failed_on: Option<WorkerId>,
    config: &ClusterConfig,
    now: Instant,
    requeues: &mut u64,
) {
    *requeues += 1;
    mns_telemetry::counter_add("dist.requeue", 1);
    track.state = ShardState::Ready;
    track.worker = None;
    track.last_failed_on = failed_on;
    track.not_before = now
        + backoff_delay(
            config.backoff_base,
            config.backoff_cap,
            config.seed,
            shard,
            track.attempts.max(1),
        );
}

/// Evaluates one shard in-process through the public
/// [`Runner::run_shard`] primitive — the same evaluation a healthy
/// worker would have done (fresh engine, cache scoped to the shard).
fn local_eval(
    scenarios: &[Scenario],
    plan: &ShardPlan,
    shard: ShardId,
    config: &ClusterConfig,
) -> ShardResult {
    let mut sub = Runner::new(RunnerConfig {
        workers: config.runner.workers,
        cache: true,
        shards: 1,
        strategy: config.runner.strategy,
    });
    sub.run_shard(scenarios, plan.indices(shard), shard)
}

/// Validates a worker's outcome payload: parse, shard-id match, full
/// record coverage, indices in range. `None` sends the shard to requeue.
fn validate_outcomes(
    text: &str,
    shard: ShardId,
    plan: &ShardPlan,
    scenario_count: usize,
) -> Option<ShardResult> {
    let (stats, entries) = parse_outcomes(text).ok()?;
    if stats.shard != shard {
        return None;
    }
    let expected = plan.indices(shard);
    if entries.len() != expected.len() {
        return None;
    }
    let mut seen: Vec<usize> = entries.iter().map(|(i, _)| *i).collect();
    seen.sort_unstable();
    if seen != expected || seen.iter().any(|&i| i >= scenario_count) {
        return None;
    }
    Some((entries, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_millis(400);
        let first = backoff_delay(base, cap, 7, ShardId(2), 1);
        assert_eq!(first, backoff_delay(base, cap, 7, ShardId(2), 1));
        // Exponential growth until the cap (modulo bounded jitter).
        for attempt in 1..10u32 {
            let delay = backoff_delay(base, cap, 7, ShardId(2), attempt);
            let exponential = base.saturating_mul(1u32 << (attempt - 1).min(16)).min(cap);
            assert!(delay >= exponential, "attempt {attempt} under its floor");
            assert!(
                delay <= cap + base / 2,
                "attempt {attempt} over cap + max jitter"
            );
        }
        // Jitter decorrelates shards and seeds.
        assert_ne!(
            backoff_delay(base, cap, 7, ShardId(0), 1),
            backoff_delay(base, cap, 7, ShardId(1), 1)
        );
        assert_ne!(
            backoff_delay(base, cap, 7, ShardId(0), 1),
            backoff_delay(base, cap, 8, ShardId(0), 1)
        );
    }

    #[test]
    fn validate_outcomes_rejects_wrong_shapes() {
        use mns_core::runner::conformance_corpus;
        let corpus: Vec<Scenario> = conformance_corpus(42)
            .into_iter()
            .filter(|s| matches!(s, Scenario::Knockout(_)))
            .take(4)
            .collect();
        let plan = ShardPlan::split_with(&corpus, 2, mns_core::runner::ShardStrategy::RoundRobin);
        let shard = ShardId(0);
        let entries: Vec<(usize, &Scenario)> = plan
            .indices(shard)
            .iter()
            .map(|&i| (i, &corpus[i]))
            .collect();
        let manifest = write_manifest(shard, &entries);
        let (outcomes, _) = crate::worker::evaluate_manifest(&manifest, 1, false).expect("evals");
        assert!(validate_outcomes(&outcomes, shard, &plan, corpus.len()).is_some());
        // Wrong shard id, garbage text, truncated records all fail.
        assert!(validate_outcomes(&outcomes, ShardId(1), &plan, corpus.len()).is_none());
        assert!(validate_outcomes("garbage", shard, &plan, corpus.len()).is_none());
        let truncated: String = outcomes
            .lines()
            .take(outcomes.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_outcomes(&truncated, shard, &plan, corpus.len()).is_none());
    }
}
