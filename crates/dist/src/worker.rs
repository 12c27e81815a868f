//! The worker side of `mns-dist`: the shard evaluator, and the one loop
//! every worker runs, whatever carries its messages.
//!
//! A worker's job is identical on every transport: register, heartbeat
//! on an interval, answer each
//! [`Assign`](crate::protocol::Message::Assign) with a
//! [`Result`](crate::protocol::Message::Result) whose outcome payload is
//! the shard's outcome file in the
//! [`manifest`](mns_core::runner::manifest) wire format, and exit on a
//! [`Shutdown`](crate::protocol::Message::Shutdown) or a closed link.
//! `run` is that loop. A medium supplies only a `Link`, which moves
//! one message each way: an [`InProcess`](crate::InProcess) thread runs
//! the loop over a channel pair, and a `dist_worker` process
//! ([`run_process`]) over a TCP stream. An injected [`FaultMode`]
//! therefore behaves the same on every transport.
//!
//! The evaluation itself is [`evaluate_shard`], which the scheduler also
//! calls for the shards it finishes in its own process. Evaluation
//! happens on a helper thread so heartbeats keep flowing during long
//! shards.

use std::io;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mns_core::runner::manifest::{parse_manifest, write_outcomes};
use mns_core::runner::{BatchStats, Runner, Scenario, ScenarioOutcome, ShardId};

use crate::protocol::Message;
use crate::tcp::TcpLink;
use crate::transport::{FaultMode, FAULT_ENV};

/// The shortest heartbeat interval a worker keeps. At zero a worker
/// would heartbeat without pause, and its scheduler would never find its
/// event queue empty.
const MIN_HEARTBEAT: Duration = Duration::from_millis(1);

/// Outcome payload a fault-injected worker sends for
/// [`FaultMode::CorruptResult`]: a valid message envelope around bytes
/// the scheduler's outcome parser must reject.
const CORRUPT_PAYLOAD: &str = "# not an outcome file\ngarbage\n";

/// Evaluates one shard: its `(global index, scenario)` entries run on a
/// fresh [`Runner`] with `threads` workers (0 = one per hardware thread),
/// so the cache and dedup scope is the shard itself. The stats, and
/// every per-worker row, are tagged with `shard`. Returns one
/// `(global index, outcome)` pair per entry, in entry order, and the
/// stats: what the cluster scheduler merges.
///
/// Every shard a [`Cluster`](crate::Cluster) finishes is evaluated here:
/// by a worker through [`evaluate_manifest`], or by the scheduler itself
/// for an empty shard or one it recovers in-process.
pub fn evaluate_shard(
    shard: ShardId,
    entries: Vec<(usize, Scenario)>,
    threads: usize,
) -> (Vec<(usize, ScenarioOutcome)>, BatchStats) {
    let (indices, scenarios): (Vec<usize>, Vec<Scenario>) = entries.into_iter().unzip();
    let report = Runner::with_workers(threads).run(&scenarios);
    let mut stats = report.stats;
    stats.shard = shard;
    for row in &mut stats.per_worker {
        row.shard = shard;
    }
    (indices.into_iter().zip(report.outcomes).collect(), stats)
}

/// Evaluates one shard manifest: parse it, run [`evaluate_shard`], and
/// render the outcome file.
/// When `collect_metrics` is set, global telemetry is reset + enabled
/// around the run and the drained snapshot's wire text is returned —
/// only meaningful in a dedicated worker process, where this worker is
/// the sole telemetry writer.
///
/// # Errors
///
/// Returns a description of the parse failure for an undecodable
/// manifest; the caller reports an empty result and lets the scheduler
/// requeue.
pub fn evaluate_manifest(
    text: &str,
    threads: usize,
    collect_metrics: bool,
) -> Result<(String, Option<String>), String> {
    let (shard, entries) = parse_manifest(text).map_err(|e| e.to_string())?;
    if collect_metrics {
        mns_telemetry::reset();
        mns_telemetry::enable(Arc::new(mns_telemetry::WallClock::default()));
    }
    let (pairs, stats) = evaluate_shard(shard, entries, threads);
    let outcomes = write_outcomes(&stats, &pairs);
    let metrics = collect_metrics.then(|| {
        mns_telemetry::disable();
        let snap = mns_telemetry::snapshot();
        mns_telemetry::reset();
        snap.to_text()
    });
    Ok((outcomes, metrics))
}

/// Runs [`evaluate_manifest`] on a helper thread, invoking `beat` every
/// `interval` while it runs, so heartbeats keep flowing through a slow
/// shard. Returns as soon as the evaluation finishes, not on the next
/// heartbeat tick.
fn evaluate_with_heartbeats(
    manifest: String,
    threads: usize,
    collect_metrics: bool,
    interval: Duration,
    beat: &mut dyn FnMut(),
) -> Result<(String, Option<String>), String> {
    let (done_tx, done) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = done_tx.send(evaluate_manifest(&manifest, threads, collect_metrics));
    });
    let result = loop {
        match done.recv_timeout(interval) {
            Ok(result) => break Some(result),
            Err(RecvTimeoutError::Timeout) => beat(),
            Err(RecvTimeoutError::Disconnected) => break None,
        }
    };
    match (handle.join(), result) {
        (Ok(()), Some(result)) => result,
        // The helper panicked before it could send its result.
        _ => Err("evaluation panicked".to_owned()),
    }
}

/// How one medium carries a worker's messages.
pub(crate) trait Link {
    /// Sends one message to the scheduler.
    fn send(&mut self, message: Message) -> io::Result<()>;

    /// Waits up to `wait` for the scheduler's next message, an `Assign`
    /// or a `Shutdown`. `Timeout` when none came; `Disconnected` once the
    /// link has closed.
    fn recv(&mut self, wait: Duration) -> Result<Message, RecvTimeoutError>;
}

/// The worker loop: registers as `name`, heartbeats every `interval`
/// (at least [`MIN_HEARTBEAT`]), and answers each assignment from
/// [`evaluate_with_heartbeats`] on `threads` engine threads (0 = one per
/// hardware thread) until a shutdown or a closed link.
///
/// `fault` fires on the first assignment only, so a corrupt-once worker
/// behaves for every later shard, which is exactly what the
/// requeue-onto-survivors path needs to converge. A stalled worker stops
/// heartbeating and answering until it is shut down.
///
/// Returns the exit code listed at [`run_process`].
pub(crate) fn run(
    link: &mut dyn Link,
    name: &str,
    threads: usize,
    interval: Duration,
    collect_metrics: bool,
    mut fault: Option<FaultMode>,
) -> i32 {
    let interval = interval.max(MIN_HEARTBEAT);
    let hello = Message::Hello {
        worker: name.to_owned(),
    };
    if link.send(hello).is_err() {
        return 2;
    }
    let heartbeat = || Message::Heartbeat {
        worker: name.to_owned(),
    };
    loop {
        let (shard, attempt, manifest) = match link.recv(interval) {
            Ok(Message::Assign {
                shard,
                attempt,
                manifest,
            }) => (shard, attempt, manifest),
            Ok(Message::Shutdown) | Err(RecvTimeoutError::Disconnected) => return 0,
            Ok(_) => continue, // not addressed to a worker
            Err(RecvTimeoutError::Timeout) => {
                if link.send(heartbeat()).is_err() {
                    return 0; // the scheduler hung up
                }
                continue;
            }
        };
        let (outcomes, metrics) = match fault.take() {
            Some(FaultMode::Crash) => return 3,
            Some(FaultMode::StallHeartbeat) => loop {
                if let Ok(Message::Shutdown) | Err(RecvTimeoutError::Disconnected) =
                    link.recv(interval)
                {
                    return 4;
                }
            },
            Some(FaultMode::CorruptResult) => (CORRUPT_PAYLOAD.to_owned(), None),
            // An undecodable manifest becomes an empty-payload result:
            // the scheduler's validation rejects it and requeues, and
            // this worker stays available for healthy assignments.
            None => {
                let mut beat = || {
                    let _ = link.send(heartbeat());
                };
                evaluate_with_heartbeats(manifest, threads, collect_metrics, interval, &mut beat)
                    .unwrap_or((String::new(), None))
            }
        };
        let result = Message::Result {
            worker: name.to_owned(),
            shard,
            attempt,
            outcomes,
            metrics,
        };
        if link.send(result).is_err() {
            return 1;
        }
    }
}

/// Runs a worker process: connects to the [`TcpTransport`](crate::TcpTransport)
/// listener at `addr` (`host:port`) and runs the worker loop over the
/// stream, with the fault named by [`FAULT_ENV`], if any.
///
/// Returns the process exit code: 0 after a shutdown or a closed link, 1
/// when a result cannot be delivered, 2 when the connection cannot be
/// opened or the hello sent, 3 for an injected crash, and 4 for an
/// injected stall, once it is shut down.
pub fn run_process(
    addr: &str,
    name: &str,
    threads: usize,
    heartbeat_interval: Duration,
    collect_metrics: bool,
) -> i32 {
    let fault = std::env::var(FAULT_ENV)
        .ok()
        .and_then(|t| FaultMode::from_token(&t));
    let mut link = match TcpLink::connect(addr) {
        Ok(link) => link,
        Err(e) => {
            eprintln!("dist_worker: cannot connect to {addr}: {e}");
            return 2;
        }
    };
    run(
        &mut link,
        name,
        threads,
        heartbeat_interval,
        collect_metrics,
        fault,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mns_core::runner::conformance_corpus;
    use mns_core::runner::manifest::{parse_outcomes, write_manifest};

    #[test]
    fn evaluate_manifest_rejects_garbage() {
        assert!(evaluate_manifest("not a manifest", 1, false).is_err());
    }

    #[test]
    fn finished_shard_returns_without_waiting_for_a_heartbeat_tick() {
        let corpus: Vec<Scenario> = conformance_corpus(42)
            .into_iter()
            .filter(|s| matches!(s, Scenario::Knockout(_)))
            .take(2)
            .collect();
        assert_eq!(corpus.len(), 2);
        let entries: Vec<(usize, &Scenario)> = corpus.iter().enumerate().collect();
        let manifest = write_manifest(ShardId(0), &entries);
        let mut beats = 0u32;
        let started = std::time::Instant::now();
        let (outcomes, _) =
            evaluate_with_heartbeats(manifest, 1, false, Duration::from_secs(10), &mut || {
                beats += 1
            })
            .expect("manifest evaluates");
        let elapsed = started.elapsed();
        assert!(parse_outcomes(&outcomes).is_ok());
        assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
        assert_eq!(beats, 0, "a quick shard must not wait out a heartbeat");
    }

    /// A link that plays `inbound` back, one entry per wait (`None`: the
    /// wait ends idle), then reports itself closed; it records every
    /// message the worker sends and every wait it asks for.
    struct Scripted {
        inbound: std::collections::VecDeque<Option<Message>>,
        sent: Vec<Message>,
        waits: Vec<Duration>,
    }

    impl Scripted {
        fn new(inbound: impl IntoIterator<Item = Option<Message>>) -> Scripted {
            Scripted {
                inbound: inbound.into_iter().collect(),
                sent: Vec::new(),
                waits: Vec::new(),
            }
        }
    }

    impl Link for Scripted {
        fn send(&mut self, message: Message) -> io::Result<()> {
            self.sent.push(message);
            Ok(())
        }

        fn recv(&mut self, wait: Duration) -> Result<Message, RecvTimeoutError> {
            self.waits.push(wait);
            match self.inbound.pop_front() {
                Some(Some(message)) => Ok(message),
                Some(None) => Err(RecvTimeoutError::Timeout),
                None => Err(RecvTimeoutError::Disconnected),
            }
        }
    }

    #[test]
    fn faults_keep_their_contract_and_exit_code() {
        let assign = |attempt| {
            Some(Message::Assign {
                shard: ShardId(0),
                attempt,
                manifest: "not a manifest".to_owned(),
            })
        };
        let hello = Message::Hello {
            worker: "w0".to_owned(),
        };
        let result = |attempt, outcomes: &str| Message::Result {
            worker: "w0".to_owned(),
            shard: ShardId(0),
            attempt,
            outcomes: outcomes.to_owned(),
            metrics: None,
        };

        // A stall: silent after the hello, idle waits and later
        // assignments included, until shut down; a zero interval is
        // raised to the floor.
        let script = [assign(1), None, assign(2), Some(Message::Shutdown)];
        let mut link = Scripted::new(script);
        let stall = Some(FaultMode::StallHeartbeat);
        assert_eq!(run(&mut link, "w0", 1, Duration::ZERO, false, stall), 4);
        assert_eq!(link.sent, std::slice::from_ref(&hello));
        assert!(
            link.waits.iter().all(|&w| w == MIN_HEARTBEAT),
            "{:?}",
            link.waits
        );

        // The scripted link never waits; a long interval keeps the
        // evaluation helper from beating while it fails the manifest.
        let interval = Duration::from_secs(10);
        let mut link = Scripted::new([None, assign(1)]);
        let crash = Some(FaultMode::Crash);
        assert_eq!(run(&mut link, "w0", 1, interval, false, crash), 3);
        let beat = Message::Heartbeat {
            worker: "w0".to_owned(),
        };
        assert_eq!(link.sent, [hello.clone(), beat]);

        // Corrupt once, then an honest (empty) answer to a manifest that
        // does not decode; a closed link ends the loop cleanly.
        let mut link = Scripted::new([assign(1), assign(2)]);
        let corrupt = Some(FaultMode::CorruptResult);
        assert_eq!(run(&mut link, "w0", 1, interval, false, corrupt), 0);
        assert_eq!(
            link.sent,
            [hello, result(1, CORRUPT_PAYLOAD), result(2, "")]
        );
    }
}
