//! Streaming transport over `std::net` loopback TCP.
//!
//! The scheduler binds an ephemeral 127.0.0.1 listener and launches a
//! fleet of local `dist_worker` children, each of which connects
//! back (`TcpLink`) and opens with a
//! [`Hello`](crate::protocol::Message::Hello) handshake. Every message
//! travels as one length-prefixed frame
//! ([`manifest::write_frame`](mns_core::runner::manifest::write_frame)),
//! so the byte stream can never tear a manifest in half. On each side one
//! blocking reader thread per connection decodes frames; the
//! scheduler's readers turn them into a shared event queue. A closed
//! connection and a dead child each surface as
//! [`TransportEvent::Gone`], counted once per worker.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use mns_core::runner::manifest::{read_frame, write_frame};
use mns_core::runner::ShardId;

use crate::fleet::Fleet;
use crate::protocol::Message;
use crate::transport::{drain_or_wait, LaunchOpts, Transport, TransportEvent, WorkerId};
use crate::worker::Link;

type Writers = Arc<Mutex<HashMap<WorkerId, TcpStream>>>;

/// The TCP transport's scheduler side.
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
    events_tx: Sender<TransportEvent>,
    events_rx: Receiver<TransportEvent>,
    writers: Writers,
    fleet: Fleet,
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
            fleet: Fleet::default(),
        })
    }

    /// Drops what an earlier fleet, reaped by [`Transport::shutdown`],
    /// left behind: its connections still queued on the listener, and
    /// the events and writers of its reader threads. A new fleet reuses
    /// the names `w0`, `w1`, …, so none of it may reach the new one.
    fn forget_earlier_fleet(&mut self) {
        while self.listener.accept().is_ok() {}
        (self.events_tx, self.events_rx) = mpsc::channel();
        self.writers = Arc::new(Mutex::new(HashMap::new()));
    }

    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let events = self.events_tx.clone();
                    let writers = Arc::clone(&self.writers);
                    thread::spawn(move || connection_loop(stream, &events, &writers));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
}

/// Reads one frame: `Ok(None)` for a frame that holds no message (the
/// length prefix keeps the stream in step past it), `Err` once the peer
/// has hung up.
fn read_message(stream: &mut TcpStream) -> io::Result<Option<Message>> {
    let bytes = read_frame(stream)?;
    Ok(String::from_utf8(bytes)
        .ok()
        .and_then(|text| Message::decode(&text).ok()))
}

/// Per-connection reader: enforce the Hello handshake, then stream
/// messages into events until the peer hangs up.
fn connection_loop(mut stream: TcpStream, events: &Sender<TransportEvent>, writers: &Writers) {
    let _ = stream.set_nodelay(true);
    // The first frame must be a hello, which is also the first event.
    let mut message = read_message(&mut stream).ok().flatten();
    let Some(Message::Hello { worker }) = &message else {
        return; // not a worker; drop the connection
    };
    let name = worker.clone();
    match stream.try_clone() {
        Ok(write_half) => {
            writers
                .lock()
                .expect("writers lock")
                .insert(name.clone(), write_half);
        }
        Err(_) => return,
    }
    loop {
        if let Some(event) = message.and_then(TransportEvent::from_worker) {
            if events.send(event).is_err() {
                return;
            }
        }
        message = match read_message(&mut stream) {
            Ok(message) => message,
            Err(_) => {
                writers.lock().expect("writers lock").remove(&name);
                let _ = events.send(TransportEvent::Gone { worker: name });
                return;
            }
        };
    }
}

/// A worker's end of the TCP transport: frames out on the stream, and a
/// reader thread that decodes the frames coming in.
pub(crate) struct TcpLink {
    stream: TcpStream,
    inbound: Receiver<Message>,
}

impl TcpLink {
    /// Connects to the scheduler's listener at `addr`.
    pub(crate) fn connect(addr: &str) -> io::Result<TcpLink> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut read_half = stream.try_clone()?;
        let (inbound_tx, inbound) = mpsc::channel();
        // The reader ends when the scheduler hangs up, and its dropped
        // sender closes the link.
        thread::spawn(move || {
            while let Ok(message) = read_message(&mut read_half) {
                if let Some(message) = message {
                    if inbound_tx.send(message).is_err() {
                        return;
                    }
                }
            }
        });
        Ok(TcpLink { stream, inbound })
    }
}

impl Link for TcpLink {
    fn send(&mut self, message: Message) -> io::Result<()> {
        write_frame(&mut self.stream, message.encode().as_bytes())
    }

    fn recv(&mut self, wait: Duration) -> Result<Message, RecvTimeoutError> {
        self.inbound.recv_timeout(wait)
    }
}

impl Transport for TcpTransport {
    fn launch(&mut self, workers: usize, opts: &LaunchOpts) -> io::Result<()> {
        self.forget_earlier_fleet();
        self.fleet.launch(workers, opts, &self.addr.to_string())
    }

    fn poll(&mut self, wait: Duration) -> Vec<TransportEvent> {
        self.accept_pending();
        // A child that died before its connection opened is reported
        // here: the reader threads can only report sockets they saw.
        let mut events = self.fleet.exits();
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
                if !self.fleet.mark_gone(worker) {
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
        self.fleet.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn poll_returns_once_an_event_is_queued_and_waits_while_none_is() {
        let mut transport = TcpTransport::bind().expect("loopback listener");
        // A worker that connects and says hello, and then stays silent.
        let mut worker = TcpStream::connect(transport.addr).expect("connect");
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

    #[test]
    fn a_connection_that_does_not_open_with_hello_yields_no_event() {
        let mut transport = TcpTransport::bind().expect("loopback listener");
        let frame = |stream: &mut TcpStream, message: Message| {
            write_frame(stream, message.encode().as_bytes()).expect("frame");
        };
        // A heartbeat, then garbage, then a hello: the connection is
        // dropped at its first frame, so even the hello never registers.
        let mut impostor = TcpStream::connect(transport.addr).expect("connect");
        let w0 = "w0".to_owned();
        frame(&mut impostor, Message::Heartbeat { worker: w0.clone() });
        write_frame(&mut impostor, b"\xff garbage").expect("garbage frame");
        frame(&mut impostor, Message::Hello { worker: w0 });
        // A real worker connecting behind it still registers.
        let mut worker = TcpStream::connect(transport.addr).expect("connect");
        let w1 = "w1".to_owned();
        frame(&mut worker, Message::Hello { worker: w1.clone() });
        let events = transport.poll(Duration::from_secs(10));
        let later = transport.poll(Duration::from_millis(200));
        assert_eq!(events, vec![TransportEvent::Registered { worker: w1 }]);
        assert!(later.is_empty(), "{later:?}");
    }
}
