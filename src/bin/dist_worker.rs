//! Cluster worker: the long-lived endpoint half of `mns-dist`.
//!
//! A `dist_worker` registers with a [`Cluster`](micronano::dist::Cluster)
//! scheduler, heartbeats on an interval, and evaluates every shard it is
//! assigned until told to shut down. Usage (normally spawned by a
//! transport, not by hand):
//!
//! ```sh
//! dist_worker --transport tcp   --connect 127.0.0.1:PORT \
//!             --name w0 [--threads 1] [--heartbeat-ms 50] [--metrics]
//! dist_worker --transport spool --dir /shared/spool \
//!             --name w0 [--threads 1] [--heartbeat-ms 50] [--metrics]
//! ```
//!
//! Exit codes: 0 clean shutdown, 1 result-delivery failure, 2 usage or
//! connect/register error, 3 injected crash, 4 stall cap elapsed.
//!
//! The `MNS_DIST_FAULT` environment variable (set by recovery tests)
//! injects faults on the *next* assignment: `crash` exits mid-shard,
//! `stall` keeps the process alive but silent past the scheduler's
//! liveness window, `corrupt` delivers an unparseable outcome payload.

use std::path::PathBuf;
use std::time::Duration;

use micronano::dist::worker::{run_spool_worker, run_tcp_worker};

enum Endpoint {
    Tcp { connect: String },
    Spool { dir: PathBuf },
}

struct Args {
    endpoint: Endpoint,
    name: String,
    threads: usize,
    heartbeat: Duration,
    metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut transport = None;
    let mut connect = None;
    let mut dir = None;
    let mut name = None;
    let mut threads = 1usize;
    let mut heartbeat = Duration::from_millis(50);
    let mut metrics = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--transport" => transport = Some(value("--transport")?),
            "--connect" => connect = Some(value("--connect")?),
            "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
            "--name" => name = Some(value("--name")?),
            "--threads" => {
                let v = value("--threads")?;
                threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--heartbeat-ms" => {
                let v = value("--heartbeat-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad interval `{v}`"))?;
                heartbeat = Duration::from_millis(ms.max(1));
            }
            "--metrics" => metrics = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let endpoint = match transport.as_deref() {
        Some("tcp") => Endpoint::Tcp {
            connect: connect.ok_or("--connect is required for tcp")?,
        },
        Some("spool") => Endpoint::Spool {
            dir: dir.ok_or("--dir is required for spool")?,
        },
        Some(other) => return Err(format!("unknown transport `{other}`")),
        None => return Err("--transport is required".to_owned()),
    };
    Ok(Args {
        endpoint,
        name: name.ok_or("--name is required")?,
        threads: threads.max(1),
        heartbeat,
        metrics,
    })
}

fn main() {
    let code = match parse_args() {
        Ok(args) => match &args.endpoint {
            Endpoint::Tcp { connect } => run_tcp_worker(
                connect,
                &args.name,
                args.threads,
                args.heartbeat,
                args.metrics,
            ),
            Endpoint::Spool { dir } => {
                run_spool_worker(dir, &args.name, args.threads, args.heartbeat, args.metrics)
            }
        },
        Err(message) => {
            eprintln!("dist_worker: {message}");
            2
        }
    };
    std::process::exit(code);
}
