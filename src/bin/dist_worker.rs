//! Cluster worker: the long-lived endpoint half of `mns-dist`.
//!
//! A `dist_worker` registers with a [`Cluster`](micronano::dist::Cluster)
//! scheduler, heartbeats on an interval, and evaluates every shard it is
//! assigned until told to shut down. Usage (normally spawned by a
//! transport, not by hand):
//!
//! ```sh
//! dist_worker --connect 127.0.0.1:PORT --name w0 \
//!             [--threads 1] [--heartbeat-ms 50] [--metrics]
//! ```
//!
//! `--connect` is the address of a
//! [`TcpTransport`](micronano::dist::TcpTransport) listener.
//! `--threads 0` runs one engine thread per hardware thread, and
//! `--heartbeat-ms 0` heartbeats every millisecond, exactly as an
//! in-process worker does: both transports run the one worker loop of
//! [`micronano::dist::worker`].
//!
//! Exit codes: 0 clean shutdown (or the scheduler hung up), 1
//! result-delivery failure, 2 usage or connect/register error, 3 injected
//! crash, 4 injected stall: the worker fell silent at its first
//! assignment and was then shut down (or the scheduler hung up).
//!
//! The `MNS_DIST_FAULT` environment variable (set by recovery tests)
//! injects faults on the *next* assignment: `crash` exits mid-shard,
//! `stall` stops heartbeating and answering until the scheduler shuts the
//! worker down or hangs up, `corrupt` delivers an unparseable outcome
//! payload.

use std::time::Duration;

use micronano::dist::worker::run_process;

struct Args {
    connect: String,
    name: String,
    threads: usize,
    heartbeat: Duration,
    metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut connect = None;
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
            "--connect" => connect = Some(value("--connect")?),
            "--name" => name = Some(value("--name")?),
            "--threads" => {
                let v = value("--threads")?;
                threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--heartbeat-ms" => {
                let v = value("--heartbeat-ms")?;
                let ms = v.parse().map_err(|_| format!("bad interval `{v}`"))?;
                heartbeat = Duration::from_millis(ms);
            }
            "--metrics" => metrics = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        connect: connect.ok_or("--connect is required")?,
        name: name.ok_or("--name is required")?,
        threads,
        heartbeat,
        metrics,
    })
}

fn main() {
    let code = match parse_args() {
        Ok(args) => run_process(
            &args.connect,
            &args.name,
            args.threads,
            args.heartbeat,
            args.metrics,
        ),
        Err(message) => {
            eprintln!("dist_worker: {message}");
            2
        }
    };
    std::process::exit(code);
}
