//! The `dist_worker` children behind [`TcpTransport`](crate::TcpTransport).
//!
//! A [`Fleet`] owns the children's lifecycle: it spawns one child per
//! worker, reports each child's exit once as [`TransportEvent::Gone`],
//! gives a shut-down fleet a grace period to exit before killing it, and
//! kills whatever is left when dropped. How messages reach the children
//! is the transport's business.

use std::collections::HashSet;
use std::io;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use crate::transport::{
    resolve_worker_binary, worker_name, LaunchOpts, TransportEvent, WorkerId, FAULT_ENV,
};

/// How long a shut-down fleet may take to exit before it is killed.
const REAP_GRACE: Duration = Duration::from_millis(500);

/// The TCP transport's `dist_worker` children.
#[derive(Default)]
pub(crate) struct Fleet {
    children: Vec<(WorkerId, Child)>,
    /// Workers already reported gone, by the exit watch or by the
    /// transport itself.
    gone: HashSet<WorkerId>,
}

impl Fleet {
    /// Spawns `workers` children named [`worker_name`]`(0..workers)`, each
    /// with `--connect addr --name --threads --heartbeat-ms [--metrics]`,
    /// and [`FAULT_ENV`] on the faulty index.
    pub(crate) fn launch(
        &mut self,
        workers: usize,
        opts: &LaunchOpts,
        addr: &str,
    ) -> io::Result<()> {
        let binary = resolve_worker_binary(opts)?;
        self.gone.clear();
        let threads = opts.threads_per_worker.to_string();
        let heartbeat_ms = opts.heartbeat_interval.as_millis().to_string();
        for index in 0..workers {
            let name = worker_name(index);
            let mut cmd = Command::new(&binary);
            cmd.args(["--connect", addr, "--name", &name, "--threads", &threads])
                .args(["--heartbeat-ms", &heartbeat_ms])
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

    /// Records `worker` as gone. `false` when it already was: the
    /// scheduler must see each worker go once.
    pub(crate) fn mark_gone(&mut self, worker: &str) -> bool {
        self.gone.insert(worker.to_owned())
    }

    /// A `Gone` for each child that has exited and was not reported gone
    /// yet. A dead child is gone even if it never registered.
    pub(crate) fn exits(&mut self) -> Vec<TransportEvent> {
        let mut events = Vec::new();
        for (name, child) in &mut self.children {
            if !self.gone.contains(name) && matches!(child.try_wait(), Ok(Some(_)) | Err(_)) {
                self.gone.insert(name.clone());
                events.push(TransportEvent::Gone {
                    worker: name.clone(),
                });
            }
        }
        events
    }

    /// Waits up to [`REAP_GRACE`] for every child to exit, then kills
    /// the rest.
    pub(crate) fn reap(&mut self) {
        let deadline = Instant::now() + REAP_GRACE;
        while Instant::now() < deadline
            && !self
                .children
                .iter_mut()
                .all(|(_, c)| matches!(c.try_wait(), Ok(Some(_))))
        {
            thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    /// Kills and waits for every child. Killing a child that has already
    /// exited does nothing.
    pub(crate) fn kill(&mut self) {
        for (_, mut child) in self.children.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill();
    }
}
