//! Streaming transport over `std::net` loopback TCP.
//!
//! The scheduler binds an ephemeral 127.0.0.1 listener and spawns one
//! `dist_worker` process per endpoint, each of which connects back and
//! opens with a [`Hello`](crate::protocol::Message::Hello) handshake.
//! Every message travels as one length-prefixed frame
//! ([`manifest::write_frame`](mns_core::runner::manifest::write_frame)),
//! so the byte stream can never tear a manifest in half. One blocking
//! reader thread per connection decodes frames into a shared event
//! queue; a closed connection or a dead child surfaces as
//! [`TransportEvent::Gone`].

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mns_core::runner::manifest::{read_frame, write_frame};
use mns_core::runner::ShardId;

use crate::protocol::{valid_worker_name, Message};
use crate::transport::{
    drain_or_wait, resolve_worker_binary, worker_name, LaunchOpts, Transport, TransportEvent,
    WorkerId, FAULT_ENV,
};

type Writers = Arc<Mutex<HashMap<WorkerId, TcpStream>>>;

/// The TCP transport's scheduler side.
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
    events_tx: Sender<TransportEvent>,
    events_rx: Receiver<TransportEvent>,
    writers: Writers,
    children: Vec<(WorkerId, Child)>,
    gone: HashSet<WorkerId>,
}

impl TcpTransport {
    /// Binds an ephemeral loopback listener.
    ///
    /// # Errors
    ///
    /// Fails when no loopback socket can be bound.
    pub fn bind() -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (events_tx, events_rx) = mpsc::channel();
        Ok(TcpTransport {
            listener,
            addr,
            events_tx,
            events_rx,
            writers: Arc::new(Mutex::new(HashMap::new())),
            children: Vec::new(),
            gone: HashSet::new(),
        })
    }

    /// The address workers connect back to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drops what an earlier fleet, reaped by [`Transport::shutdown`],
    /// left behind: its connections still queued on the listener, and
    /// the events and writers of its reader threads. A new fleet reuses
    /// the names `w0`, `w1`, …, so none of it may reach the new one.
    fn forget_earlier_fleet(&mut self) {
        while self.listener.accept().is_ok() {}
        (self.events_tx, self.events_rx) = mpsc::channel();
        self.writers = Arc::new(Mutex::new(HashMap::new()));
        self.gone.clear();
    }

    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let events = self.events_tx.clone();
                    let writers = Arc::clone(&self.writers);
                    std::thread::spawn(move || connection_loop(stream, &events, &writers));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
}

/// Per-connection reader: enforce the Hello handshake, then stream
/// frames into events until the peer hangs up.
fn connection_loop(mut stream: TcpStream, events: &Sender<TransportEvent>, writers: &Writers) {
    let _ = stream.set_nodelay(true);
    let name = match read_frame(&mut stream)
        .ok()
        .and_then(|b| String::from_utf8(b).ok())
        .and_then(|t| Message::decode(&t).ok())
    {
        Some(Message::Hello { worker }) if valid_worker_name(&worker) => worker,
        _ => return, // not a worker; drop the connection
    };
    match stream.try_clone() {
        Ok(write_half) => {
            writers
                .lock()
                .expect("writers lock")
                .insert(name.clone(), write_half);
        }
        Err(_) => return,
    }
    let _ = events.send(TransportEvent::Registered {
        worker: name.clone(),
    });
    loop {
        match read_frame(&mut stream) {
            Ok(bytes) => {
                let Some(message) = String::from_utf8(bytes)
                    .ok()
                    .and_then(|t| Message::decode(&t).ok())
                else {
                    continue; // garbage frame; the envelope protects us
                };
                let event = match message {
                    Message::Heartbeat { worker, .. } => TransportEvent::Heartbeat { worker },
                    Message::Result {
                        worker,
                        shard,
                        attempt,
                        outcomes,
                        metrics,
                    } => TransportEvent::Result {
                        worker,
                        shard,
                        attempt,
                        outcomes,
                        metrics,
                    },
                    _ => continue,
                };
                if events.send(event).is_err() {
                    return;
                }
            }
            Err(_) => {
                writers.lock().expect("writers lock").remove(&name);
                let _ = events.send(TransportEvent::Gone { worker: name });
                return;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn launch(&mut self, workers: usize, opts: &LaunchOpts) -> io::Result<()> {
        let binary = resolve_worker_binary(opts)?;
        self.forget_earlier_fleet();
        for index in 0..workers {
            let name = worker_name(index);
            let mut cmd = Command::new(&binary);
            cmd.arg("--transport")
                .arg("tcp")
                .arg("--connect")
                .arg(self.addr.to_string())
                .arg("--name")
                .arg(&name)
                .arg("--threads")
                .arg(opts.threads_per_worker.to_string())
                .arg("--heartbeat-ms")
                .arg(opts.heartbeat_interval.as_millis().to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            if opts.collect_metrics {
                cmd.arg("--metrics");
            }
            if let Some(mode) = opts.fault_for(index) {
                cmd.env(FAULT_ENV, mode.token());
            }
            let child = cmd.spawn()?;
            self.children.push((name, child));
        }
        Ok(())
    }

    fn poll(&mut self, wait: Duration) -> Vec<TransportEvent> {
        self.accept_pending();
        let mut events = Vec::new();
        // A dead child is Gone even if its connection never opened (a
        // crash before the handshake) — the reader thread can only
        // report sockets it saw.
        for (name, child) in &mut self.children {
            if self.gone.contains(name) {
                continue;
            }
            if matches!(child.try_wait(), Ok(Some(_)) | Err(_)) {
                self.gone.insert(name.clone());
                events.push(TransportEvent::Gone {
                    worker: name.clone(),
                });
            }
        }
        // A child exit is news enough: wait only when there is none.
        let wait = if events.is_empty() {
            wait
        } else {
            Duration::ZERO
        };
        for event in drain_or_wait(&self.events_rx, wait) {
            // The connection-closed Gone may duplicate the child-exit
            // Gone; dedupe so the scheduler sees each worker die once.
            if let TransportEvent::Gone { worker } = &event {
                if !self.gone.insert(worker.clone()) {
                    continue;
                }
            }
            events.push(event);
        }
        events
    }

    fn assign(
        &mut self,
        worker: &str,
        shard: ShardId,
        attempt: u32,
        manifest: &str,
    ) -> io::Result<()> {
        let message = Message::Assign {
            shard,
            attempt,
            manifest: manifest.to_owned(),
        };
        let mut writers = self.writers.lock().expect("writers lock");
        let stream = writers.get_mut(worker).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                format!("no writer for {worker}"),
            )
        })?;
        write_frame(stream, message.encode().as_bytes())
    }

    fn shutdown(&mut self) {
        {
            let mut writers = self.writers.lock().expect("writers lock");
            for stream in writers.values_mut() {
                let _ = write_frame(stream, Message::Shutdown.encode().as_bytes());
                let _ = stream.flush();
            }
            writers.clear();
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            let all_done = self
                .children
                .iter_mut()
                .all(|(_, c)| matches!(c.try_wait(), Ok(Some(_))));
            if all_done || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for (_, child) in &mut self.children {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_returns_once_an_event_is_queued_and_waits_while_none_is() {
        let mut transport = TcpTransport::bind().expect("loopback listener");
        // A worker that connects and says hello, and then stays silent.
        let mut worker = TcpStream::connect(transport.local_addr()).expect("connect");
        let hello = Message::Hello {
            worker: "w0".to_owned(),
        };
        write_frame(&mut worker, hello.encode().as_bytes()).expect("hello frame");
        let started = Instant::now();
        let events = transport.poll(Duration::from_secs(10));
        let woke_after = started.elapsed();
        let started = Instant::now();
        let idle = transport.poll(Duration::from_millis(30));
        let idled_for = started.elapsed();
        let registered = TransportEvent::Registered {
            worker: "w0".to_owned(),
        };
        assert_eq!(events, vec![registered]);
        assert!(woke_after < Duration::from_secs(2), "took {woke_after:?}");
        assert!(idle.is_empty());
        assert!(idled_for >= Duration::from_millis(30), "{idled_for:?}");
    }
}
