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

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mns_core::runner::ShardId;

use crate::protocol::Message;
use crate::transport::{
    resolve_worker_binary, worker_name, LaunchOpts, Transport, TransportEvent, WorkerId, FAULT_ENV,
};

/// Directory layout and atomic-write helpers shared by the scheduler
/// side (this module) and the worker side ([`crate::worker`]).
pub(crate) mod layout {
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
    children: Vec<(WorkerId, Child)>,
    registered: HashSet<WorkerId>,
    hb_seen: HashMap<WorkerId, u64>,
    results_seen: HashSet<PathBuf>,
    gone: HashSet<WorkerId>,
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
            children: Vec::new(),
            registered: HashSet::new(),
            hb_seen: HashMap::new(),
            results_seen: HashSet::new(),
            gone: HashSet::new(),
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
        self.gone.clear();
    }

    fn reap_grace(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
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

impl Transport for SpoolTransport {
    fn launch(&mut self, workers: usize, opts: &LaunchOpts) -> io::Result<()> {
        let binary = resolve_worker_binary(opts)?;
        self.forget_earlier_fleet();
        layout::create_dirs(&self.dir)?;
        for index in 0..workers {
            let name = worker_name(index);
            let mut cmd = Command::new(&binary);
            cmd.arg("--transport")
                .arg("spool")
                .arg("--dir")
                .arg(&self.dir)
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

    /// Scans the spool directory; when the scan finds nothing, sleeps
    /// `wait` (files announce nothing, so there is no event to wake on).
    fn poll(&mut self, wait: Duration) -> Vec<TransportEvent> {
        let mut events = Vec::new();

        // New registrations: *.hello files we have not seen yet.
        if let Ok(entries) = std::fs::read_dir(layout::workers_dir(&self.dir)) {
            for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
                let Some(name) = path
                    .file_name()
                    .and_then(|f| f.to_str())
                    .and_then(|f| f.strip_suffix(".hello"))
                else {
                    continue;
                };
                if self.registered.contains(name) {
                    continue;
                }
                let Ok(text) = std::fs::read_to_string(&path) else {
                    continue;
                };
                if matches!(Message::decode(&text), Ok(Message::Hello { worker }) if worker == name)
                {
                    self.registered.insert(name.to_owned());
                    events.push(TransportEvent::Registered {
                        worker: name.to_owned(),
                    });
                }
            }
        }

        // Heartbeats: a *.hb file whose seq number advanced. Sequence
        // numbers, not mtimes — mtime granularity is filesystem luck.
        for name in self.registered.clone() {
            let Ok(text) = std::fs::read_to_string(layout::hb_path(&self.dir, &name)) else {
                continue;
            };
            if let Ok(Message::Heartbeat { worker, seq }) = Message::decode(&text) {
                if worker == name && self.hb_seen.get(&name) != Some(&seq) {
                    self.hb_seen.insert(name.clone(), seq);
                    events.push(TransportEvent::Heartbeat { worker: name });
                }
            }
        }

        // Committed results we have not consumed yet.
        if let Ok(entries) = std::fs::read_dir(layout::results_dir(&self.dir)) {
            let mut fresh: Vec<PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| !self.results_seen.contains(p))
                .collect();
            fresh.sort();
            for path in fresh {
                let Ok(text) = std::fs::read_to_string(&path) else {
                    continue;
                };
                self.results_seen.insert(path.clone());
                match Message::decode(&text) {
                    Ok(Message::Result {
                        worker,
                        shard,
                        attempt,
                        outcomes,
                        metrics,
                    }) => events.push(TransportEvent::Result {
                        worker,
                        shard,
                        attempt,
                        outcomes,
                        metrics,
                    }),
                    // A corrupted result file (the failure injected by
                    // the conformance suite): recover the shard/attempt
                    // from the file name so the scheduler can requeue.
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
        }

        // Child exits are authoritative Gone signals.
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
        if events.is_empty() {
            std::thread::sleep(wait);
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
        self.reap_grace(Duration::from_millis(500));
    }
}

impl Drop for SpoolTransport {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
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
