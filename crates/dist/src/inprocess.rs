//! Loopback transport: workers are threads in this process.
//!
//! The cheapest conformance point of the transport matrix — no sockets,
//! no files, no child processes. Each thread runs the loop a
//! `dist_worker` process runs, [`worker::run`](crate::worker), over a
//! channel pair that moves [`Message`] values in and
//! [`TransportEvent`]s out, so nothing is encoded or decoded. Telemetry
//! snapshots are never collected here (`metrics` is always `None` in
//! results): the global telemetry registry cannot be partitioned per
//! shard while the scheduler — or the enclosing test — shares it.

use std::io;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::Duration;

use mns_core::runner::ShardId;

use crate::protocol::Message;
use crate::transport::{
    drain_or_wait, worker_name, LaunchOpts, Transport, TransportEvent, WorkerId,
};
use crate::worker::{self, Link};

/// The in-process transport.
#[derive(Default)]
pub struct InProcess {
    workers: Vec<(WorkerId, Sender<Message>)>,
    events: Option<(Sender<TransportEvent>, Receiver<TransportEvent>)>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl InProcess {
    /// An empty transport; workers spawn at [`Transport::launch`].
    pub fn new() -> InProcess {
        InProcess::default()
    }
}

/// A worker thread's end of the transport.
struct ChannelLink {
    inbound: Receiver<Message>,
    events: Sender<TransportEvent>,
}

impl Link for ChannelLink {
    fn send(&mut self, message: Message) -> io::Result<()> {
        let event = TransportEvent::from_worker(message).ok_or(io::ErrorKind::InvalidInput)?;
        self.events
            .send(event)
            .map_err(|_| io::ErrorKind::BrokenPipe.into())
    }

    fn recv(&mut self, wait: Duration) -> Result<Message, RecvTimeoutError> {
        self.inbound.recv_timeout(wait)
    }
}

impl Transport for InProcess {
    fn launch(&mut self, workers: usize, opts: &LaunchOpts) -> io::Result<()> {
        let (events_tx, events_rx) = mpsc::channel();
        for index in 0..workers {
            let name = worker_name(index);
            let (assign_tx, inbound) = mpsc::channel();
            let mut link = ChannelLink {
                inbound,
                events: events_tx.clone(),
            };
            let worker = name.clone();
            let threads = opts.threads_per_worker;
            let interval = opts.heartbeat_interval;
            let fault = opts.fault_for(index);
            self.handles.push(thread::spawn(move || {
                // Never collect metrics in-process (module docs).
                worker::run(&mut link, &worker, threads, interval, false, fault);
                // A thread whose loop has ended is gone, as an exited
                // child is.
                let _ = link.events.send(TransportEvent::Gone { worker });
            }));
            self.workers.push((name, assign_tx));
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
            .send(Message::Assign {
                shard,
                attempt,
                manifest: manifest.to_owned(),
            })
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, format!("{worker} exited")))
    }

    fn shutdown(&mut self) {
        for (_, sender) in &self.workers {
            let _ = sender.send(Message::Shutdown);
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
