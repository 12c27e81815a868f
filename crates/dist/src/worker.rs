//! Worker-side runtimes: the evaluation core shared by every transport,
//! plus the TCP and spool event loops the `dist_worker` binary runs.
//!
//! A worker's job is identical on every transport: register, heartbeat
//! on an interval, and answer each
//! [`Assign`](crate::protocol::Message::Assign) with a
//! [`Result`](crate::protocol::Message::Result) whose outcome payload is
//! the shard's outcome file in the
//! [`manifest`](mns_core::runner::manifest) wire format — a fresh
//! [`Runner`](mns_core::runner::Runner) per shard so the cache/dedup
//! scope is the shard, stats restamped with the global shard id.
//! Evaluation happens on a helper thread so heartbeats keep flowing
//! during long shards.

use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mns_core::runner::manifest::{parse_manifest, read_frame, write_frame, write_outcomes};
use mns_core::runner::{RunnerConfig, Scenario, ScenarioOutcome, ShardId};

use crate::protocol::Message;
use crate::spool::layout;
use crate::transport::{FaultMode, FAULT_ENV};

/// How long a stalled (fault-injected) worker sleeps before giving up;
/// caps how long an orphan can outlive a forgotten test run.
const STALL_CAP: Duration = Duration::from_secs(600);

/// Outcome payload a fault-injected worker sends for
/// [`FaultMode::CorruptResult`]: a valid message envelope around bytes
/// the scheduler's outcome parser must reject.
pub(crate) const CORRUPT_PAYLOAD: &str = "# not an outcome file\ngarbage\n";

/// Evaluates one shard manifest: parse, run on a fresh engine with
/// `threads` workers, restamp the stats with the manifest's shard id,
/// and render the outcome file.
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
    let scenarios: Vec<Scenario> = entries.iter().map(|(_, s)| s.clone()).collect();
    let mut runner = RunnerConfig::new().workers(threads).build();
    let mut report = runner.run(&scenarios);
    report.stats.shard = shard;
    for row in &mut report.stats.per_worker {
        row.shard = shard;
    }
    let pairs: Vec<(usize, ScenarioOutcome)> = entries
        .iter()
        .map(|(i, _)| *i)
        .zip(report.outcomes)
        .collect();
    let outcomes = write_outcomes(&report.stats, &pairs);
    let metrics = collect_metrics.then(|| {
        mns_telemetry::disable();
        let snap = mns_telemetry::snapshot();
        mns_telemetry::reset();
        snap.to_wire()
    });
    Ok((outcomes, metrics))
}

/// Reads the injected [`FaultMode`] from [`FAULT_ENV`], if any.
pub(crate) fn fault_from_env() -> Option<FaultMode> {
    std::env::var(FAULT_ENV)
        .ok()
        .and_then(|t| FaultMode::from_token(&t))
}

/// Runs [`evaluate_manifest`] on a helper thread, invoking `beat` every
/// `interval` while it runs, so heartbeats keep flowing through a slow
/// shard. Returns as soon as the evaluation finishes, not on the next
/// heartbeat tick.
pub(crate) fn evaluate_with_heartbeats(
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
            Err(mpsc::RecvTimeoutError::Timeout) => beat(),
            Err(mpsc::RecvTimeoutError::Disconnected) => break None,
        }
    };
    match (handle.join(), result) {
        (Ok(()), Some(result)) => result,
        // The helper panicked before it could send its result.
        _ => Err("evaluation panicked".to_owned()),
    }
}

/// What one assignment turned into.
pub(crate) enum Answer {
    /// Send this result back.
    Reply(Message),
    /// The injected fault consumed the worker; exit with this code.
    Die(i32),
}

/// Handles one assignment, fault injection included. The fault is
/// `take`n so only the *first* assignment triggers it — a corrupt-once
/// worker behaves for every later shard, which is exactly what the
/// requeue-onto-survivors path needs to converge.
#[allow(clippy::too_many_arguments)]
pub(crate) fn answer_assign(
    name: &str,
    shard: ShardId,
    attempt: u32,
    manifest: String,
    threads: usize,
    collect_metrics: bool,
    interval: Duration,
    fault: &mut Option<FaultMode>,
    beat: &mut dyn FnMut(),
) -> Answer {
    match fault.take() {
        Some(FaultMode::Crash) => return Answer::Die(3),
        Some(FaultMode::StallHeartbeat) => {
            thread::sleep(STALL_CAP);
            return Answer::Die(4);
        }
        Some(FaultMode::CorruptResult) => {
            return Answer::Reply(Message::Result {
                worker: name.to_owned(),
                shard,
                attempt,
                outcomes: CORRUPT_PAYLOAD.to_owned(),
                metrics: None,
            });
        }
        None => {}
    }
    // An undecodable manifest becomes an empty-payload result: the
    // scheduler's validation rejects it and requeues, and this worker
    // stays available for healthy assignments.
    let (outcomes, metrics) =
        evaluate_with_heartbeats(manifest, threads, collect_metrics, interval, beat)
            .unwrap_or((String::new(), None));
    Answer::Reply(Message::Result {
        worker: name.to_owned(),
        shard,
        attempt,
        outcomes,
        metrics,
    })
}

fn send_frame(stream: &mut std::net::TcpStream, message: &Message) -> std::io::Result<()> {
    write_frame(stream, message.encode().as_bytes())
}

/// TCP worker loop: connect, handshake, heartbeat, answer assignments.
/// Returns the process exit code. Faults are read from [`FAULT_ENV`].
pub fn run_tcp_worker(
    addr: &str,
    name: &str,
    threads: usize,
    heartbeat_interval: Duration,
    collect_metrics: bool,
) -> i32 {
    let mut fault = fault_from_env();
    let Ok(stream) = std::net::TcpStream::connect(addr) else {
        eprintln!("dist_worker: cannot connect to {addr}");
        return 2;
    };
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("dist_worker: clone stream: {e}");
            return 2;
        }
    };
    let hello = Message::Hello {
        worker: name.to_owned(),
    };
    if send_frame(&mut writer, &hello).is_err() {
        return 2;
    }

    // Reader thread: frames in, `None` on EOF/error.
    let (frames_tx, frames) = mpsc::channel::<Option<Vec<u8>>>();
    let mut read_half = stream;
    thread::spawn(move || loop {
        match read_frame(&mut read_half) {
            Ok(bytes) => {
                if frames_tx.send(Some(bytes)).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = frames_tx.send(None);
                return;
            }
        }
    });

    let mut seq = 0u64;
    loop {
        match frames.recv_timeout(heartbeat_interval) {
            Ok(Some(bytes)) => {
                let Ok(text) = String::from_utf8(bytes) else {
                    continue;
                };
                match Message::decode(&text) {
                    Ok(Message::Assign {
                        shard,
                        attempt,
                        manifest,
                    }) => {
                        let answer = {
                            let seq = &mut seq;
                            let writer = &mut writer;
                            let mut beat = || {
                                *seq += 1;
                                let beat = Message::Heartbeat {
                                    worker: name.to_owned(),
                                    seq: *seq,
                                };
                                let _ = send_frame(writer, &beat);
                            };
                            answer_assign(
                                name,
                                shard,
                                attempt,
                                manifest,
                                threads,
                                collect_metrics,
                                heartbeat_interval,
                                &mut fault,
                                &mut beat,
                            )
                        };
                        match answer {
                            Answer::Reply(reply) => {
                                if send_frame(&mut writer, &reply).is_err() {
                                    return 1;
                                }
                            }
                            Answer::Die(code) => return code,
                        }
                    }
                    Ok(Message::Shutdown) => return 0,
                    Ok(_) | Err(_) => {} // not addressed to a worker; ignore
                }
            }
            Ok(None) => return 0, // scheduler hung up
            Err(mpsc::RecvTimeoutError::Timeout) => {
                seq += 1;
                let beat = Message::Heartbeat {
                    worker: name.to_owned(),
                    seq,
                };
                if send_frame(&mut writer, &beat).is_err() {
                    return 0;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return 0,
        }
    }
}

/// Spool worker loop: announce a hello file, poll the inbox for
/// addressed assignment files, claim each shard attempt atomically,
/// commit results by rename, and bump a heartbeat file on the interval.
/// Returns the process exit code. Faults are read from [`FAULT_ENV`].
pub fn run_spool_worker(
    dir: &Path,
    name: &str,
    threads: usize,
    heartbeat_interval: Duration,
    collect_metrics: bool,
) -> i32 {
    let mut fault = fault_from_env();
    let hello = Message::Hello {
        worker: name.to_owned(),
    };
    if layout::commit_write(dir, &layout::hello_path(dir, name), &hello.encode()).is_err() {
        eprintln!("dist_worker: cannot write hello in {}", dir.display());
        return 2;
    }

    let mut seq = 0u64;
    let write_beat = |dir: &Path, name: &str, seq: u64| {
        let beat = Message::Heartbeat {
            worker: name.to_owned(),
            seq,
        };
        let _ = layout::commit_write(dir, &layout::hb_path(dir, name), &beat.encode());
    };
    loop {
        if layout::stop_path(dir).exists() {
            return 0;
        }
        // Scan the inbox for files addressed to this worker.
        let mut inbox: Vec<std::path::PathBuf> = std::fs::read_dir(layout::inbox_dir(dir))
            .map(|rd| {
                rd.filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        p.file_name()
                            .and_then(|f| f.to_str())
                            .is_some_and(|f| f.starts_with(&format!("{name}.")))
                    })
                    .collect()
            })
            .unwrap_or_default();
        inbox.sort();
        for path in inbox {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Ok(Message::Assign {
                shard,
                attempt,
                manifest,
            }) = Message::decode(&text)
            else {
                let _ = std::fs::remove_file(&path);
                continue;
            };
            let _ = std::fs::remove_file(&path);
            // Claim the (shard, attempt) before evaluating; another
            // worker holding the claim means this delivery is stale.
            if !layout::claim(dir, shard, attempt) {
                continue;
            }
            let answer = {
                let seq = &mut seq;
                let mut beat = || {
                    *seq += 1;
                    write_beat(dir, name, *seq);
                };
                answer_assign(
                    name,
                    shard,
                    attempt,
                    manifest,
                    threads,
                    collect_metrics,
                    heartbeat_interval,
                    &mut fault,
                    &mut beat,
                )
            };
            match answer {
                Answer::Reply(reply) => {
                    let result_path = layout::result_path(dir, shard, attempt);
                    if layout::commit_write(dir, &result_path, &reply.encode()).is_err() {
                        return 1;
                    }
                }
                Answer::Die(code) => return code,
            }
        }
        seq += 1;
        write_beat(dir, name, seq);
        thread::sleep(heartbeat_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mns_core::runner::manifest::{parse_outcomes, write_manifest};
    use mns_core::runner::{conformance_corpus, Runner};

    #[test]
    fn evaluate_manifest_matches_a_serial_run_with_restamped_stats() {
        let corpus: Vec<Scenario> = conformance_corpus(42)
            .into_iter()
            .filter(|s| matches!(s, Scenario::Knockout(_) | Scenario::Harvest(_)))
            .take(4)
            .collect();
        let entries: Vec<(usize, &Scenario)> =
            corpus.iter().enumerate().map(|(i, s)| (i * 2, s)).collect();
        let text = write_manifest(ShardId(3), &entries);
        let (outcomes, metrics) = evaluate_manifest(&text, 1, false).expect("manifest evaluates");
        assert!(metrics.is_none());
        let (stats, pairs) = parse_outcomes(&outcomes).expect("outcome text parses");
        assert_eq!(stats.shard, ShardId(3));
        assert!(stats.per_worker.iter().all(|w| w.shard == ShardId(3)));
        let reference = Runner::serial().run(&corpus);
        assert_eq!(pairs.len(), corpus.len());
        for ((i, outcome), (expect_i, reference)) in pairs
            .iter()
            .zip(entries.iter().map(|(i, _)| *i).zip(&reference.outcomes))
        {
            assert_eq!(*i, expect_i);
            assert_eq!(outcome.digest(), reference.digest());
        }
    }

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
}
