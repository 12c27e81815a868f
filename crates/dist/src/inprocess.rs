//! Loopback reference transport: workers are threads in this process.
//!
//! The cheapest conformance point of the transport matrix — no sockets,
//! no files, no child processes — and the executable specification of
//! the worker contract: register, heartbeat on the interval, answer
//! assignments with the exact outcome text a real worker process would
//! send. Telemetry snapshots are never collected here (`metrics` is
//! always `None` in results): the global telemetry registry cannot be
//! partitioned per shard while the scheduler — or the enclosing test —
//! shares it.

use std::io;
use std::sync::mpsc;
use std::sync::mpsc::{Receiver, Sender};
use std::thread;
use std::time::Duration;

use mns_core::runner::ShardId;

use crate::protocol::Message;
use crate::transport::{
    drain_or_wait, worker_name, FaultMode, LaunchOpts, Transport, TransportEvent, WorkerId,
};
use crate::worker::{answer_assign, Answer};

enum Command {
    Assign {
        shard: ShardId,
        attempt: u32,
        manifest: String,
    },
    Shutdown,
}

/// The in-process transport.
#[derive(Default)]
pub struct InProcess {
    workers: Vec<(WorkerId, Sender<Command>)>,
    events: Option<(Sender<TransportEvent>, Receiver<TransportEvent>)>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl InProcess {
    /// An empty transport; workers spawn at [`Transport::launch`].
    pub fn new() -> InProcess {
        InProcess::default()
    }
}

fn worker_thread(
    name: WorkerId,
    threads: usize,
    interval: Duration,
    mut fault: Option<FaultMode>,
    commands: Receiver<Command>,
    events: Sender<TransportEvent>,
) {
    let _ = events.send(TransportEvent::Registered {
        worker: name.clone(),
    });
    let mut seq = 0u64;
    loop {
        match commands.recv_timeout(interval) {
            Ok(Command::Assign {
                shard,
                attempt,
                manifest,
            }) => {
                // The stall fault must not leave a sleeping thread in
                // the test process: model it as silence-until-shutdown
                // instead of a long sleep.
                if fault == Some(FaultMode::StallHeartbeat) {
                    loop {
                        match commands.recv() {
                            Ok(Command::Shutdown) | Err(_) => return,
                            Ok(Command::Assign { .. }) => {}
                        }
                    }
                }
                let answer = {
                    let seq = &mut seq;
                    let events = &events;
                    let name_ref = &name;
                    let mut beat = || {
                        *seq += 1;
                        let _ = events.send(TransportEvent::Heartbeat {
                            worker: name_ref.clone(),
                        });
                    };
                    answer_assign(
                        &name, shard, attempt, manifest, threads,
                        false, // never collect metrics in-process (module docs)
                        interval, &mut fault, &mut beat,
                    )
                };
                match answer {
                    Answer::Reply(Message::Result {
                        worker,
                        shard,
                        attempt,
                        outcomes,
                        metrics,
                    }) => {
                        if events
                            .send(TransportEvent::Result {
                                worker,
                                shard,
                                attempt,
                                outcomes,
                                metrics,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    Answer::Reply(_) => {}
                    Answer::Die(_) => {
                        let _ = events.send(TransportEvent::Gone { worker: name });
                        return;
                    }
                }
            }
            Ok(Command::Shutdown) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                seq += 1;
                if events
                    .send(TransportEvent::Heartbeat {
                        worker: name.clone(),
                    })
                    .is_err()
                {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

impl Transport for InProcess {
    fn launch(&mut self, workers: usize, opts: &LaunchOpts) -> io::Result<()> {
        let (events_tx, events_rx) = mpsc::channel();
        for index in 0..workers {
            let name = worker_name(index);
            let (commands_tx, commands_rx) = mpsc::channel();
            let events = events_tx.clone();
            let thread_name = name.clone();
            let threads = opts.threads_per_worker;
            let interval = opts.heartbeat_interval;
            let fault = opts.fault_for(index);
            self.handles.push(thread::spawn(move || {
                worker_thread(thread_name, threads, interval, fault, commands_rx, events);
            }));
            self.workers.push((name, commands_tx));
        }
        self.events = Some((events_tx, events_rx));
        Ok(())
    }

    fn poll(&mut self, wait: Duration) -> Vec<TransportEvent> {
        let Some((_, events_rx)) = &self.events else {
            return Vec::new();
        };
        drain_or_wait(events_rx, wait)
    }

    fn assign(
        &mut self,
        worker: &str,
        shard: ShardId,
        attempt: u32,
        manifest: &str,
    ) -> io::Result<()> {
        let sender = self
            .workers
            .iter()
            .find(|(name, _)| name == worker)
            .map(|(_, sender)| sender)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotConnected, format!("no worker {worker}"))
            })?;
        sender
            .send(Command::Assign {
                shard,
                attempt,
                manifest: manifest.to_owned(),
            })
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, format!("{worker} exited")))
    }

    fn shutdown(&mut self) {
        for (_, sender) in &self.workers {
            let _ = sender.send(Command::Shutdown);
        }
        self.workers.clear();
        self.events = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn poll_returns_once_an_event_is_queued_and_waits_while_none_is() {
        let mut transport = InProcess::new();
        let opts = LaunchOpts {
            threads_per_worker: 1,
            heartbeat_interval: Duration::from_secs(60),
            collect_metrics: false,
            worker_binary: None,
            fault: None,
        };
        transport.launch(1, &opts).expect("threads launch");
        let started = Instant::now();
        let events = transport.poll(Duration::from_secs(10));
        let woke_after = started.elapsed();
        let started = Instant::now();
        let idle = transport.poll(Duration::from_millis(30));
        let idled_for = started.elapsed();
        transport.shutdown();
        let registered = TransportEvent::Registered {
            worker: "w0".to_owned(),
        };
        assert_eq!(events, vec![registered]);
        assert!(woke_after < Duration::from_secs(2), "took {woke_after:?}");
        assert!(idle.is_empty());
        assert!(idled_for >= Duration::from_millis(30), "{idled_for:?}");
    }
}
