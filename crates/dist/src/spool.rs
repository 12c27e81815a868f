//! Shared-directory "object store" transport.
//!
//! Emulates the store-and-forward half of the transport-vs-store design
//! space: scheduler and workers never hold a connection, they exchange
//! files through one shared directory, as they would through an object
//! store or network filesystem. Every write is **rename-committed** —
//! content goes to a staging file under `tmp/` and is atomically renamed
//! into place — so a reader can never observe a half-written message.
//!
//! ```text
//! <dir>/
//!   workers/<name>.hello      worker registration (Hello message)
//!   workers/<name>.hb         liveness beacon (Heartbeat message; the
//!                             scheduler diffs the seq number, never mtime)
//!   inbox/<worker>.s<S>.a<A>.msg   addressed assignment (Assign message)
//!   claims/s<S>.a<A>          created with `create_new`: the atomic
//!                             claim that makes duplicate pickup impossible
//!   results/s<S>.a<A>.res     committed result (Result message)
//!   stop                      shutdown marker workers poll for
//!   tmp/                      rename-commit staging
//! ```
//!
//! The scheduler side, [`SpoolTransport`], launches the shared fleet of
//! `dist_worker` children and turns directory churn into
//! [`TransportEvent`]s. A worker's side, `SpoolLink`, writes its hello,
//! heartbeat and result files, reads its inbox, and reads the `stop`
//! marker as a shutdown.

use std::collections::{HashMap, HashSet};
use std::ffi::OsStr;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::thread;
use std::time::Duration;

use mns_core::runner::ShardId;

use crate::fleet::Fleet;
use crate::protocol::Message;
use crate::transport::{LaunchOpts, Transport, TransportEvent, WorkerId};
use crate::worker::Link;

/// Directory layout and atomic-write helpers shared by the scheduler
/// side ([`SpoolTransport`]) and the worker side ([`SpoolLink`]).
mod layout {
    use super::*;

    static STAGE_COUNTER: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn workers_dir(dir: &Path) -> PathBuf {
        dir.join("workers")
    }

    pub(crate) fn inbox_dir(dir: &Path) -> PathBuf {
        dir.join("inbox")
    }

    pub(crate) fn claims_dir(dir: &Path) -> PathBuf {
        dir.join("claims")
    }

    pub(crate) fn results_dir(dir: &Path) -> PathBuf {
        dir.join("results")
    }

    pub(crate) fn tmp_dir(dir: &Path) -> PathBuf {
        dir.join("tmp")
    }

    pub(crate) fn stop_path(dir: &Path) -> PathBuf {
        dir.join("stop")
    }

    pub(crate) fn hello_path(dir: &Path, name: &str) -> PathBuf {
        workers_dir(dir).join(format!("{name}.hello"))
    }

    pub(crate) fn hb_path(dir: &Path, name: &str) -> PathBuf {
        workers_dir(dir).join(format!("{name}.hb"))
    }

    pub(crate) fn inbox_msg_path(
        dir: &Path,
        worker: &str,
        shard: ShardId,
        attempt: u32,
    ) -> PathBuf {
        inbox_dir(dir).join(format!("{worker}.s{}.a{attempt}.msg", shard.0))
    }

    pub(crate) fn claim_path(dir: &Path, shard: ShardId, attempt: u32) -> PathBuf {
        claims_dir(dir).join(format!("s{}.a{attempt}", shard.0))
    }

    pub(crate) fn result_path(dir: &Path, shard: ShardId, attempt: u32) -> PathBuf {
        results_dir(dir).join(format!("s{}.a{attempt}.res", shard.0))
    }

    /// Creates every subdirectory of the layout.
    pub(crate) fn create_dirs(dir: &Path) -> io::Result<()> {
        for sub in [
            workers_dir(dir),
            inbox_dir(dir),
            claims_dir(dir),
            results_dir(dir),
            tmp_dir(dir),
        ] {
            std::fs::create_dir_all(sub)?;
        }
        Ok(())
    }

    /// Rename-commit: writes `content` to a unique staging file under
    /// `tmp/`, then atomically renames it onto `target`. A reader either
    /// sees the whole message or no file at all.
    pub(crate) fn commit_write(dir: &Path, target: &Path, content: &str) -> io::Result<()> {
        let stage = tmp_dir(dir).join(format!(
            "{}-{}.stage",
            std::process::id(),
            STAGE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&stage, content)?;
        std::fs::rename(&stage, target)
    }

    /// Atomically claims `(shard, attempt)` via `create_new`. Returns
    /// `false` when another worker already holds the claim.
    pub(crate) fn claim(dir: &Path, shard: ShardId, attempt: u32) -> bool {
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(claim_path(dir, shard, attempt))
            .is_ok()
    }
}

/// The spool transport's scheduler side: launches `dist_worker`
/// processes pointed at the shared directory and turns directory churn
/// into [`TransportEvent`]s.
pub struct SpoolTransport {
    dir: PathBuf,
    ephemeral: bool,
    fleet: Fleet,
    registered: HashSet<WorkerId>,
    hb_seen: HashMap<WorkerId, u64>,
    results_seen: HashSet<PathBuf>,
}

impl SpoolTransport {
    /// A transport over a unique directory under the system temp dir,
    /// removed on drop.
    pub fn ephemeral() -> io::Result<SpoolTransport> {
        static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mns-dist-spool-{}-{}",
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let mut transport = SpoolTransport::at(&dir);
        transport.ephemeral = true;
        Ok(transport)
    }

    /// A transport over an existing shared directory (kept on drop).
    /// Each launch clears the spool layout that an earlier fleet left
    /// there.
    pub fn at(dir: impl Into<PathBuf>) -> SpoolTransport {
        SpoolTransport {
            dir: dir.into(),
            ephemeral: false,
            fleet: Fleet::default(),
            registered: HashSet::new(),
            hb_seen: HashMap::new(),
            results_seen: HashSet::new(),
        }
    }

    /// The shared spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Clears what an earlier fleet left in the spool — its stop
    /// marker, hellos, heartbeats, claims and results — and what this
    /// side remembers of it. A new fleet reuses the worker names and the
    /// `(shard, attempt)` file names, so none of it may reach the new
    /// one.
    fn forget_earlier_fleet(&mut self) {
        let _ = std::fs::remove_file(layout::stop_path(&self.dir));
        for sub in [
            layout::workers_dir(&self.dir),
            layout::inbox_dir(&self.dir),
            layout::claims_dir(&self.dir),
            layout::results_dir(&self.dir),
        ] {
            let _ = std::fs::remove_dir_all(sub);
        }
        self.registered.clear();
        self.hb_seen.clear();
        self.results_seen.clear();
    }
}

/// The files in `dir`, sorted.
fn list(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    Ok(paths)
}

impl Transport for SpoolTransport {
    fn launch(&mut self, workers: usize, opts: &LaunchOpts) -> io::Result<()> {
        self.forget_earlier_fleet();
        layout::create_dirs(&self.dir)?;
        let medium = [
            OsStr::new("--transport"),
            OsStr::new("spool"),
            OsStr::new("--dir"),
            self.dir.as_os_str(),
        ];
        self.fleet.launch(workers, opts, &medium)
    }

    /// Scans the spool directory; when the scan finds nothing, sleeps
    /// `wait` (files announce nothing, so there is no event to wake on).
    fn poll(&mut self, wait: Duration) -> Vec<TransportEvent> {
        let mut events = Vec::new();

        // A hello not seen yet, and a heartbeat whose seq number
        // advanced. Sequence numbers, not mtimes — mtime granularity is
        // filesystem luck. Each file must be the one its sender writes.
        for path in list(&layout::workers_dir(&self.dir)).unwrap_or_default() {
            let hello_of = path
                .file_name()
                .and_then(|f| f.to_str()?.strip_suffix(".hello"));
            if hello_of.is_some_and(|name| self.registered.contains(name)) {
                continue; // a registered worker's hello has nothing new to say
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Ok(message) = Message::decode(&text) else {
                continue;
            };
            let fresh = match &message {
                Message::Hello { worker } => {
                    path == layout::hello_path(&self.dir, worker)
                        && self.registered.insert(worker.clone())
                }
                Message::Heartbeat { worker, seq } => {
                    path == layout::hb_path(&self.dir, worker)
                        && self.hb_seen.insert(worker.clone(), *seq) != Some(*seq)
                }
                _ => false,
            };
            if fresh {
                events.extend(TransportEvent::from_worker(message));
            }
        }

        // Committed results we have not consumed yet.
        for path in list(&layout::results_dir(&self.dir)).unwrap_or_default() {
            if self.results_seen.contains(&path) {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            self.results_seen.insert(path.clone());
            match Message::decode(&text) {
                Ok(result @ Message::Result { .. }) => {
                    events.extend(TransportEvent::from_worker(result));
                }
                // A result file whose envelope does not decode: recover
                // the shard/attempt from the file name so the scheduler
                // can requeue.
                _ => {
                    if let Some((shard, attempt)) = parse_result_name(&path) {
                        events.push(TransportEvent::Result {
                            worker: String::new(),
                            shard,
                            attempt,
                            outcomes: String::new(),
                            metrics: None,
                        });
                    }
                }
            }
        }

        events.extend(self.fleet.exits());
        if events.is_empty() {
            thread::sleep(wait);
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
        layout::commit_write(
            &self.dir,
            &layout::inbox_msg_path(&self.dir, worker, shard, attempt),
            &message.encode(),
        )
    }

    fn shutdown(&mut self) {
        let _ = layout::commit_write(&self.dir, &layout::stop_path(&self.dir), "stop");
        self.fleet.reap();
    }
}

impl Drop for SpoolTransport {
    fn drop(&mut self) {
        if self.ephemeral {
            // Children first: a live one could write into the directory
            // while it is being removed.
            self.fleet.kill();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// A worker's end of the spool.
pub(crate) struct SpoolLink {
    dir: PathBuf,
    /// The inbox file-name prefix of this worker's assignments.
    prefix: String,
}

impl SpoolLink {
    /// The link of worker `name` over the spool at `dir`.
    pub(crate) fn new(dir: PathBuf, name: &str) -> SpoolLink {
        SpoolLink {
            dir,
            prefix: format!("{name}."),
        }
    }
}

impl Link for SpoolLink {
    /// Rename-commits a hello, heartbeat or result file.
    fn send(&mut self, message: Message) -> io::Result<()> {
        let target = match &message {
            Message::Hello { worker } => layout::hello_path(&self.dir, worker),
            Message::Heartbeat { worker, .. } => layout::hb_path(&self.dir, worker),
            Message::Result { shard, attempt, .. } => {
                layout::result_path(&self.dir, *shard, *attempt)
            }
            Message::Assign { .. } | Message::Shutdown => {
                return Err(io::ErrorKind::InvalidInput.into())
            }
        };
        layout::commit_write(&self.dir, &target, &message.encode())
    }

    /// Reads the `stop` marker as a shutdown, then takes the first
    /// assignment in the inbox that this worker can claim. A scan that
    /// finds none sleeps `wait`: files announce nothing. A spool whose
    /// inbox is gone is a closed link.
    fn recv(&mut self, wait: Duration) -> Result<Message, RecvTimeoutError> {
        if layout::stop_path(&self.dir).exists() {
            return Ok(Message::Shutdown);
        }
        let inbox =
            list(&layout::inbox_dir(&self.dir)).map_err(|_| RecvTimeoutError::Disconnected)?;
        for path in inbox {
            let addressed = path
                .file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with(&self.prefix));
            if !addressed {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let _ = std::fs::remove_file(&path);
            // Claim the (shard, attempt) before evaluating; another
            // worker holding the claim means this delivery is stale.
            if let Ok(assign @ Message::Assign { shard, attempt, .. }) = Message::decode(&text) {
                if layout::claim(&self.dir, shard, attempt) {
                    return Ok(assign);
                }
            }
        }
        thread::sleep(wait);
        Err(RecvTimeoutError::Timeout)
    }
}

/// Recovers `(shard, attempt)` from a `s<S>.a<A>.res` file name.
fn parse_result_name(path: &Path) -> Option<(ShardId, u32)> {
    let name = path.file_name()?.to_str()?.strip_suffix(".res")?;
    let (shard, attempt) = name.split_once(".a")?;
    let shard = shard.strip_prefix('s')?.parse().ok()?;
    Some((ShardId(shard), attempt.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_names_parse_back() {
        let dir = PathBuf::from("/tmp/x");
        let path = layout::result_path(&dir, ShardId(7), 3);
        assert_eq!(parse_result_name(&path), Some((ShardId(7), 3)));
        assert_eq!(parse_result_name(Path::new("/tmp/x/results/junk")), None);
    }

    #[test]
    fn commit_write_is_visible_and_claims_are_exclusive() {
        let transport = SpoolTransport::ephemeral().expect("temp dir");
        let dir = transport.dir().to_path_buf();
        layout::create_dirs(&dir).expect("layout dirs");
        let target = layout::hello_path(&dir, "w0");
        layout::commit_write(&dir, &target, "hello w0").expect("commit");
        assert_eq!(
            std::fs::read_to_string(&target).expect("read back"),
            "hello w0"
        );
        assert!(layout::claim(&dir, ShardId(0), 1), "first claim wins");
        assert!(!layout::claim(&dir, ShardId(0), 1), "second claim loses");
        assert!(layout::claim(&dir, ShardId(0), 2), "attempts are distinct");
    }
}
