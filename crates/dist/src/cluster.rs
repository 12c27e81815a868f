//! The transport-agnostic cluster scheduler.
//!
//! [`Cluster::run`] turns one scenario batch into a fault-tolerant
//! distributed sweep. It first looks the batch up in the cluster's
//! [`OutcomeCache`], which lasts across `run` calls, exactly as a
//! [`Runner`](mns_core::runner::Runner) does: hits are served, copies of
//! one scenario collapse onto one, and only the distinct misses go on.
//! Those are split with the engine's own stage-sharing [`ShardPlan`];
//! shards are assigned to registered workers; per-shard deadlines and
//! heartbeat liveness are watched; failed deliveries retry with capped
//! exponential backoff (deterministic jitter hashed from the shard and
//! attempt); and work from dead, hung or corrupt workers is requeued
//! onto survivors. A batch with no miss launches no fleet. The scheduler
//! waits on [`Transport::poll`], which returns as soon as an event
//! arrives, for at most 2 ms between liveness and deadline sweeps.
//! Results merge through the associative [`BatchStats`] /
//! [`MetricsSnapshot`] merge, so the final report is **byte-identical to
//! a serial run** at any worker count, over any transport, under any
//! injected failure — the same detect-requeue-converge discipline the
//! fault-tolerant biochip literature applies to electrode failures,
//! applied to the experiment engine itself.
//!
//! Completion does not depend on the fleet: a shard that exhausts its
//! four attempts (or outlives every worker) is recovered in-process
//! through [`evaluate_shard`], the function every worker evaluates its
//! shards with, and listed in [`ClusterReport::recovered`]. A fleet that
//! cannot be launched at all (no worker binary) degrades the whole sweep
//! this way. The retry budget, the backoff and the 10 s registration
//! window are fixed; the settings a caller may change are those of
//! [`ClusterConfig`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mns_core::runner::manifest::{parse_outcomes, write_manifest};
use mns_core::runner::{
    BatchStats, ClusterConfig, OutcomeCache, Scenario, ScenarioOutcome, ShardId, ShardPlan,
};
use mns_telemetry::MetricsSnapshot;

use crate::transport::{DistFault, LaunchOpts, Transport, TransportEvent, WorkerId};
use crate::worker::evaluate_shard;

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
    /// The batch's stats: the shard stats merged (see
    /// [`BatchStats::merge`]), plus the cache hits and collapsed
    /// duplicates the cluster resolved before shipping, with `scenarios`
    /// counting the whole submitted batch. Its
    /// [`totals`](BatchStats::totals) equal those of one `Runner` reused
    /// over the same batches.
    pub stats: BatchStats,
    /// Per-shard stats in shard order. Shards hold only the distinct
    /// misses the cluster shipped, so a fully cached batch has only empty
    /// shards.
    pub shards: Vec<BatchStats>,
    /// Per-shard placement (worker, attempts) of the shipped misses, in
    /// shard order.
    pub placements: Vec<ShardPlacement>,
    /// Assignments delivered.
    pub assigned: u64,
    /// Shards requeued after a failure.
    pub requeues: u64,
    /// Busy workers declared dead for silence past the liveness window.
    pub heartbeat_misses: u64,
    /// Shards recovered in-process after exhausting their attempts or
    /// outliving every worker, in shard order.
    pub recovered: Vec<ShardId>,
    /// Merged per-shard worker telemetry when
    /// [`ClusterConfig::collect_metrics`] was set. Counters depend on
    /// the shard plan, not on how many workers ran it; histogram values
    /// are wall-clock-dependent.
    pub metrics: Option<MetricsSnapshot>,
}

/// How long the scheduler waits for launched workers to register. Once
/// every launched worker has registered or gone, or this window has
/// passed, a fleet with no live worker is given up and its remaining
/// shards are evaluated in-process.
const REGISTRATION_WINDOW: Duration = Duration::from_secs(10);

/// Delivery attempts per shard before it is recovered in-process.
const MAX_ATTEMPTS: u32 = 4;

/// Base delay of the capped exponential backoff between attempts.
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Ceiling of the exponential backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Longest the scheduler waits for a transport event before it sweeps
/// liveness, deadlines and backoffs again.
const POLL_WAIT: Duration = Duration::from_millis(2);

/// Deterministic capped exponential backoff:
/// `min(BACKOFF_CAP, BACKOFF_BASE·2^(attempt-1)) + jitter`, where the
/// jitter is an FNV-1a hash of `(shard, attempt)` folded into
/// `[0, BACKOFF_BASE/2)`. Pure, so a failure schedule is reproducible run
/// to run, and shards failing together retry apart.
fn backoff_delay(shard: ShardId, attempt: u32) -> Duration {
    let exponent = attempt.saturating_sub(1).min(16);
    let scaled = BACKOFF_BASE
        .saturating_mul(1u32 << exponent)
        .min(BACKOFF_CAP);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for chunk in [u64::from(shard.0), u64::from(attempt)] {
        for byte in chunk.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let span_ns = (BACKOFF_BASE.as_nanos() as u64 / 2).max(1);
    scaled + Duration::from_nanos(hash % span_ns)
}

/// One shard's evaluated payload: `(global index, outcome)` pairs plus
/// the shard's stats row — exactly what [`evaluate_shard`] returns.
type ShardResult = (Vec<(usize, ScenarioOutcome)>, BatchStats);

/// Where a shard is in its life. The worker carrying a shard, and the
/// shard's result, are recorded here and nowhere else: a worker is busy
/// exactly while some shard is `Assigned` to it, so settling or
/// requeueing a shard frees its carrier.
enum ShardState {
    /// Waiting for a worker; not eligible before `not_before` (the
    /// backoff after a failure).
    Ready { not_before: Instant },
    /// In flight on `worker`, which is declared dead if it still holds
    /// the shard at `deadline`.
    Assigned { worker: WorkerId, deadline: Instant },
    /// `result` accepted from `worker`, or evaluated in-process (`None`).
    Done {
        worker: Option<WorkerId>,
        result: ShardResult,
    },
}

struct ShardTrack {
    state: ShardState,
    attempts: u32,
    last_failed_on: Option<WorkerId>,
}

impl ShardTrack {
    fn is_done(&self) -> bool {
        matches!(self.state, ShardState::Done { .. })
    }

    fn carried_by(&self, name: &str) -> bool {
        matches!(&self.state, ShardState::Assigned { worker, .. } if worker == name)
    }
}

struct WorkerTrack {
    live: bool,
    last_heartbeat: Instant,
}

/// A cluster scheduler bound to one transport.
pub struct Cluster {
    transport: Box<dyn Transport>,
    config: ClusterConfig,
    worker_binary: Option<PathBuf>,
    fault: Option<DistFault>,
    /// Outcomes of every batch this cluster has run.
    cache: OutcomeCache,
}

impl Cluster {
    /// Binds a scheduler to a transport and a configuration.
    pub fn new(transport: impl Transport + 'static, config: ClusterConfig) -> Cluster {
        Cluster {
            transport: Box::new(transport),
            config,
            worker_binary: None,
            fault: None,
            cache: OutcomeCache::default(),
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

    /// Runs the batch to completion. Worker failures never surface as
    /// errors — shards degrade to in-process recovery; see the module
    /// docs for the failure model.
    ///
    /// Outcomes this cluster computed for an earlier batch are served
    /// from its outcome cache, and copies of one scenario within the batch
    /// are evaluated once, exactly as [`Runner::run`] does. Only the
    /// distinct misses are planned and shipped; a batch without any
    /// launches no fleet.
    ///
    /// # Panics
    ///
    /// May panic on a batch holding a scenario that [`Scenario::validate`]
    /// rejects. Such a shard is shipped first: every worker answers it
    /// with an empty result, so it spends all four attempts and their
    /// backoff before its in-process recovery runs it on the caller's
    /// thread.
    ///
    /// [`Runner::run`]: mns_core::runner::Runner::run
    pub fn run(&mut self, scenarios: &[Scenario]) -> ClusterReport {
        let _span = mns_telemetry::span("dist.run");
        let lookup = self.cache.lookup(scenarios);
        let misses: Vec<Scenario> = lookup
            .misses()
            .iter()
            .map(|&i| scenarios[i].clone())
            .collect();
        let mut report = self.sweep(&misses);
        report.stats.scenarios = scenarios.len() as u64;
        report.stats.cache_hits += lookup.cache_hits();
        report.stats.deduped += lookup.deduped();
        let fresh: Vec<(usize, ScenarioOutcome)> = lookup
            .misses()
            .iter()
            .copied()
            .zip(report.outcomes.drain(..))
            .collect();
        report.outcomes = self.cache.fill(lookup, fresh);
        report
    }

    /// Plans, ships and recovers one batch of distinct scenarios; the
    /// report's outcomes are in `scenarios` order.
    fn sweep(&mut self, scenarios: &[Scenario]) -> ClusterReport {
        let config = self.config;
        let plan = ShardPlan::split(scenarios, config.runner.shards);
        let shard_count = plan.shards();
        let now = Instant::now();

        let mut tracks: Vec<ShardTrack> = Vec::with_capacity(shard_count);
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
            let state = if indices.is_empty() {
                ShardState::Done {
                    worker: None,
                    result: local_eval(scenarios, &plan, shard, &config),
                }
            } else {
                ShardState::Ready { not_before: now }
            };
            tracks.push(ShardTrack {
                state,
                attempts: 0,
                last_failed_on: None,
            });
        }
        let fleet = config.workers.max(1);

        let opts = LaunchOpts {
            threads_per_worker: config.runner.workers,
            heartbeat_interval: config.heartbeat_interval,
            collect_metrics: config.collect_metrics,
            worker_binary: self.worker_binary.clone(),
            fault: self.fault,
        };
        // A batch whose every shard is already done ships nothing, so it
        // launches no fleet.
        let shipping = !tracks.iter().all(ShardTrack::is_done);
        let launched = shipping && self.transport.launch(fleet, &opts).is_ok();
        let started = Instant::now();
        // Every worker that registered or went, live or not.
        let mut workers: BTreeMap<WorkerId, WorkerTrack> = BTreeMap::new();

        while !tracks.iter().all(ShardTrack::is_done) {
            let now = Instant::now();

            if launched {
                for event in self.transport.poll(POLL_WAIT) {
                    match event {
                        TransportEvent::Registered { worker } => {
                            workers.entry(worker).or_insert(WorkerTrack {
                                live: true,
                                last_heartbeat: now,
                            });
                        }
                        TransportEvent::Heartbeat { worker } => {
                            if let Some(track) = workers.get_mut(&worker) {
                                track.last_heartbeat = now;
                            }
                        }
                        TransportEvent::Gone { worker } => {
                            // A worker that goes before its registration
                            // is seen still counts toward the fleet, and
                            // a late `Registered` cannot revive it.
                            workers
                                .entry(worker.clone())
                                .or_insert(WorkerTrack {
                                    live: false,
                                    last_heartbeat: now,
                                })
                                .live = false;
                            if let Some(sid) = tracks.iter().position(|t| t.carried_by(&worker)) {
                                requeue(&mut tracks[sid], sid, worker, now, &mut requeues);
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
                            // Accept only the current attempt, whether it
                            // is still in flight or was requeued and not
                            // yet reassigned. A result from a superseded
                            // attempt would still be byte-identical
                            // (evaluation is pure), but matching on
                            // attempt keeps corrupt retries from racing
                            // their replacements. Settling the shard
                            // either way frees its carrier, even when the
                            // result names a worker the scheduler does not
                            // know.
                            if track.is_done() || attempt != track.attempts {
                                continue;
                            }
                            match validate_outcomes(&outcomes, shard, &plan, scenarios.len()) {
                                Some(parsed) => {
                                    if let (Some(aggregate), Some(text)) =
                                        (metrics.as_mut(), shard_metrics)
                                    {
                                        // Telemetry is best-effort: a
                                        // bad snapshot degrades silently,
                                        // outcomes are the contract.
                                        if let Ok(snap) = MetricsSnapshot::from_text(&text) {
                                            aggregate.merge(&snap);
                                        }
                                    }
                                    track.state = ShardState::Done {
                                        worker: Some(worker),
                                        result: parsed,
                                    };
                                }
                                None => {
                                    mns_telemetry::counter_add("dist.corrupt_result", 1);
                                    requeue(track, sid, worker, now, &mut requeues);
                                }
                            }
                        }
                    }
                }

                // Deadline and liveness sweep: a busy worker silent past
                // the liveness window counts a heartbeat miss; one past
                // its shard's deadline dies without one. Either way its
                // shard is requeued.
                for (sid, track) in tracks.iter_mut().enumerate() {
                    let ShardState::Assigned { worker, deadline } = &track.state else {
                        continue;
                    };
                    let carrier = workers.get_mut(worker).expect("a carrier is registered");
                    let silent =
                        now.duration_since(carrier.last_heartbeat) > config.liveness_window;
                    if silent || now >= *deadline {
                        heartbeat_misses += u64::from(silent);
                        carrier.live = false;
                        let worker = worker.clone();
                        requeue(track, sid, worker, now, &mut requeues);
                    }
                }
                // A silent idle worker dies without a miss: it has no
                // shard to save.
                for track in workers.values_mut() {
                    if now.duration_since(track.last_heartbeat) > config.liveness_window {
                        track.live = false;
                    }
                }

                // Assign ready shards to idle live workers, preferring a
                // survivor over the worker that just failed the shard.
                let idle: Vec<WorkerId> = workers
                    .iter()
                    .filter(|(name, t)| t.live && !tracks.iter().any(|s| s.carried_by(name)))
                    .map(|(name, _)| name.clone())
                    .collect();
                let live_count = workers.values().filter(|t| t.live).count();
                for worker in idle {
                    let candidate = tracks.iter().position(|t| {
                        matches!(t.state, ShardState::Ready { not_before } if now >= not_before)
                            && (live_count <= 1
                                || t.last_failed_on.as_deref() != Some(worker.as_str()))
                    });
                    let Some(sid) = candidate else { continue };
                    let shard = ShardId(sid as u32);
                    let attempt = tracks[sid].attempts + 1;
                    let carrier = workers
                        .get_mut(&worker)
                        .expect("idle workers are registered");
                    match self
                        .transport
                        .assign(&worker, shard, attempt, &manifests[sid])
                    {
                        Ok(()) => {
                            assigned += 1;
                            carrier.last_heartbeat = now;
                            tracks[sid].attempts = attempt;
                            tracks[sid].state = ShardState::Assigned {
                                worker,
                                deadline: now + config.shard_deadline,
                            };
                        }
                        Err(_) => carrier.live = false,
                    }
                }
            }

            // Degradation: recover shards in-process when distribution
            // cannot finish them — attempts exhausted, launch failed, or
            // no worker is live and none is still to come: every launched
            // worker has registered or gone, or the registration window
            // has passed.
            let live_count = workers.values().filter(|t| t.live).count();
            let fleet_hopeless = !launched
                || (live_count == 0
                    && (workers.len() >= fleet || started.elapsed() >= REGISTRATION_WINDOW));
            for (sid, track) in tracks.iter_mut().enumerate() {
                let ready = matches!(track.state, ShardState::Ready { .. });
                if ready && (track.attempts >= MAX_ATTEMPTS || fleet_hopeless) {
                    let shard = ShardId(sid as u32);
                    track.state = ShardState::Done {
                        worker: None,
                        result: local_eval(scenarios, &plan, shard, &config),
                    };
                    recovered.push(shard);
                }
            }
        }

        if shipping {
            self.transport.shutdown();
        }
        recovered.sort_unstable();

        let mut pairs: Vec<(usize, ScenarioOutcome)> = Vec::with_capacity(scenarios.len());
        let mut shards: Vec<BatchStats> = Vec::with_capacity(shard_count);
        let mut placements: Vec<ShardPlacement> = Vec::with_capacity(shard_count);
        for (sid, track) in tracks.into_iter().enumerate() {
            let ShardState::Done {
                worker,
                result: (shard_pairs, stats),
            } = track.state
            else {
                unreachable!("the loop ends once every shard is Done");
            };
            pairs.extend(shard_pairs);
            shards.push(stats);
            placements.push(ShardPlacement {
                shard: ShardId(sid as u32),
                worker,
                attempts: track.attempts,
            });
        }
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let outcomes = pairs.into_iter().map(|(_, outcome)| outcome).collect();
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
    sid: usize,
    failed_on: WorkerId,
    now: Instant,
    requeues: &mut u64,
) {
    *requeues += 1;
    let not_before = now + backoff_delay(ShardId(sid as u32), track.attempts.max(1));
    track.state = ShardState::Ready { not_before };
    track.last_failed_on = Some(failed_on);
}

/// Evaluates one shard in this process through [`evaluate_shard`] on the
/// in-memory scenarios: the evaluation a healthy worker would have done,
/// with no wire round trip.
fn local_eval(
    scenarios: &[Scenario],
    plan: &ShardPlan,
    shard: ShardId,
    config: &ClusterConfig,
) -> ShardResult {
    let entries = plan
        .indices(shard)
        .iter()
        .map(|&i| (i, scenarios[i].clone()))
        .collect();
    evaluate_shard(shard, entries, config.runner.workers)
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
        let first = backoff_delay(ShardId(2), 1);
        assert_eq!(first, backoff_delay(ShardId(2), 1));
        // Exponential growth until the cap (modulo bounded jitter).
        for attempt in 1..10u32 {
            let delay = backoff_delay(ShardId(2), attempt);
            let exponential = BACKOFF_BASE
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(BACKOFF_CAP);
            assert!(delay >= exponential, "attempt {attempt} under its floor");
            assert!(
                delay <= BACKOFF_CAP + BACKOFF_BASE / 2,
                "attempt {attempt} over cap + max jitter"
            );
        }
        // Jitter decorrelates shards.
        assert_ne!(backoff_delay(ShardId(0), 1), backoff_delay(ShardId(1), 1));
    }

    #[test]
    fn validate_outcomes_rejects_wrong_shapes() {
        use mns_core::runner::conformance_corpus;
        let corpus: Vec<Scenario> = conformance_corpus(42)
            .into_iter()
            .filter(|s| matches!(s, Scenario::Knockout(_)))
            .take(4)
            .collect();
        let plan = ShardPlan::split(&corpus, 2);
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

    #[test]
    fn in_process_recovery_matches_a_worker_shard_for_shard() {
        use mns_core::runner::{conformance_corpus, Runner};
        let mut batch: Vec<Scenario> = conformance_corpus(42)
            .into_iter()
            .filter(|s| matches!(s, Scenario::Knockout(_) | Scenario::Harvest(_)))
            .take(5)
            .collect();
        // Three copies over two shards: the plan keeps all three on one.
        batch.extend([batch[0].clone(), batch[0].clone()]);
        let serial = Runner::serial().run(&batch).outcomes;
        let plan = ShardPlan::split(&batch, 2);
        let config = ClusterConfig::new().threads_per_worker(1);
        let mut deduped = 0;
        for (shard, indices) in plan.iter() {
            let (local_pairs, local_stats) = local_eval(&batch, &plan, shard, &config);
            deduped += local_stats.deduped;
            let entries: Vec<(usize, &Scenario)> =
                indices.iter().map(|&i| (i, &batch[i])).collect();
            let (text, _) =
                crate::worker::evaluate_manifest(&write_manifest(shard, &entries), 1, false)
                    .expect("manifest evaluates");
            let (worker_stats, worker_pairs) = parse_outcomes(&text).expect("outcome file parses");
            assert_eq!(local_stats, worker_stats, "{shard}");
            assert!(local_stats.per_worker.iter().all(|w| w.shard == shard));
            let digests = |pairs: &[(usize, ScenarioOutcome)]| -> Vec<(usize, u64)> {
                pairs.iter().map(|(i, o)| (*i, o.digest().0)).collect()
            };
            assert_eq!(digests(&local_pairs), digests(&worker_pairs), "{shard}");
            let expected: Vec<(usize, u64)> =
                indices.iter().map(|&i| (i, serial[i].digest().0)).collect();
            assert_eq!(digests(&local_pairs), expected, "{shard}");
        }
        assert_eq!(deduped, 2, "the copies must meet in one shard");
    }
}
