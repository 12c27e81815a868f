//! Sweep ledger: end-to-end sweep times of the scenario engines on one
//! seed-generated workload, cold and warm, with a per-layer breakdown.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload golden_corpus --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The load is a closed loop from one process: one pass at a time, each
//! on at most `nproc` engine threads. One iteration runs every mode once:
//!
//! * `serial_cold` / `serial_warm`: a fresh 1-worker `Runner` on a freshly
//!   spawned thread, then a second pass on the same runner and thread
//!   after `clear_cache()` (the thread-local stage memos stay warm);
//! * `parallel_cold` / `parallel_warm`: the same with `nproc` workers;
//! * `cluster`: a fresh `Cluster` over the `InProcess` transport, `nproc`
//!   workers × 1 thread, default shard count, 2 ms heartbeats;
//! * `direct`: every distinct scenario's `Scenario::run`, timed one by one
//!   on a fresh thread (per-scenario latency, family shares, stragglers).
//!
//! Every outcome digest is checked against committed digests (the golden
//! corpus at every seed, the generated workloads at seed 42), or else
//! against the first serial-cold pass. Timings report the fast end of
//! their samples, scaled to a reference host speed by a calibration task
//! timed between iterations: see `NOTES.md` for why. With
//! `--trace 1` the serial and parallel passes also run under the
//! wall-clock telemetry collector and the per-layer ledger is printed.
//! The last stdout line is one JSON object with the result.

mod calibrate;
mod ledger;
mod workloads;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mns_core::runner::manifest::{parse_outcomes, write_manifest, write_outcomes};
use mns_core::runner::{
    BatchStats, ClusterConfig, Digest, Runner, Scenario, ScenarioOutcome, ShardPlan,
};
use mns_dist::{Cluster, InProcess};
use mns_telemetry::WallClock;

use crate::ledger::Ledger;
use crate::workloads::{distinct, Workload};

/// Set-ups timed at the start of every iteration; `setup_s` is the
/// fastest of all of them.
const SETUP_REPS: usize = 11;
/// Calibration tasks timed at the start of every untraced iteration; the
/// fastest of all of them sets the host-speed scale of every timing.
const CALIBRATION_REPS: usize = 10;
/// Repetitions whose median is one iteration's fingerprint or manifest
/// time.
const MICRO_REPS: usize = 21;
/// The quantile of a run's pass times that `sweep_s.*` reports: host
/// interference only adds time, so the lower decile is steadier than the
/// median, and less exposed to one lucky pass than the fastest.
const PASS_QUANTILE: f64 = 0.1;
/// Stragglers listed per workload.
const STRAGGLERS: usize = 5;
/// Heartbeat interval of the benchmark's clusters. A worker polls its
/// shard's completion on this interval, so with the default 50 ms every
/// shard ends on a 50 ms step and the pass time jumps a whole step with
/// the host's speed. At 2 ms, the scheduler's own poll period, the pass
/// time follows the work.
const CLUSTER_HEARTBEAT: Duration = Duration::from_millis(2);

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--print-expected]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.print_expected {
        print_expected(&args);
        return ExitCode::SUCCESS;
    }
    let mut bench = Bench::new(&args);
    let result = if args.trace {
        bench.traced()
    } else {
        bench.untraced()
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_expected: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut print_expected = false;
        while let Some(flag) = argv.next() {
            if flag == "--print-expected" {
                print_expected = true;
                continue;
            }
            let value = argv
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |what: &str| format!("`{flag} {value}`: want {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(bad("a duration in (0, 120]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.unwrap_or(workloads::DEFAULT_SEED),
            seconds: if print_expected {
                seconds.unwrap_or(1.0)
            } else {
                seconds.ok_or("missing --seconds")?
            },
            trace: if print_expected {
                trace.unwrap_or(false)
            } else {
                trace.ok_or("missing --trace")?
            },
            print_expected,
        })
    }
}

/// Prints `label digest` lines for the workload at the seed: the format
/// of the committed files under `perfbench/expected/`.
fn print_expected(args: &Args) {
    let rounds = args.workload.rounds(args.seed);
    println!(
        "# {} at seed {}: serial digests, rounds flattened. Regenerate with\n\
         #   cargo run --release --manifest-path perfbench/Cargo.toml -- \\\n\
         #       --workload {} --seed {} --print-expected",
        args.workload.name(),
        args.seed,
        args.workload.name(),
        args.seed
    );
    let mut runner = Runner::serial();
    for round in &rounds {
        for (s, o) in round.iter().zip(runner.run(round).outcomes) {
            println!("{} {}", s.label(), o.digest());
        }
    }
}

/// One benchmark run: the workload, its expected digests, and tallies.
struct Bench {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    rounds: Vec<Vec<Scenario>>,
    /// Flattened positions of each distinct scenario, in label order.
    distinct: Vec<usize>,
    /// Whether `expected` holds committed digests.
    committed: bool,
    /// Expected digest per submitted scenario; `None` until the first
    /// serial-cold pass when no digests are committed for the seed.
    expected: Option<Vec<Digest>>,
    /// Every timed set-up, in seconds.
    setup_times: Vec<f64>,
    /// Every timed calibration task, in seconds.
    calibration_times: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Reasons the run is not correct beyond digest mismatches.
    problems: Vec<String>,
    /// The last traced iteration's cold-start check.
    cold_start: Option<String>,
    /// The last traced iteration's per-layer shares of the pass.
    shares: Option<String>,
}

impl Bench {
    fn new(args: &Args) -> Bench {
        let nproc = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let (rounds, expected) = setup(args.workload, args.seed, nproc).0;
        let mut problems = Vec::new();
        let expected = expected.unwrap_or_else(|msg| {
            problems.push(format!("committed digests: {msg}"));
            None
        });
        Bench {
            committed: expected.is_some(),
            workload: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            nproc,
            distinct: distinct(&rounds),
            rounds,
            expected,
            setup_times: Vec::new(),
            calibration_times: Vec::new(),
            attempted: 0,
            failed: 0,
            problems,
            cold_start: None,
            shares: None,
        }
    }

    fn batch(&self) -> Vec<&Scenario> {
        self.rounds.iter().flatten().collect()
    }

    /// Tallies one engine pass against the expected digests. The first
    /// serial-cold pass sets the reference when none is committed.
    fn check_pass(&mut self, pass: Option<&Pass>) {
        let n = self.rounds.iter().map(Vec::len).sum::<usize>() as u64;
        self.attempted += n;
        let Some(pass) = pass else {
            self.failed += n;
            return;
        };
        let digests: Vec<Digest> = pass.outcomes.iter().map(ScenarioOutcome::digest).collect();
        let expected = self.expected.get_or_insert_with(|| digests.clone());
        self.failed += digests
            .iter()
            .zip(expected.iter())
            .filter(|(a, b)| a != b)
            .count() as u64;
    }

    /// Tallies a direct pass (distinct scenarios only).
    fn check_direct(&mut self, direct: &[(f64, Option<Digest>)]) {
        self.attempted += direct.len() as u64;
        let expected = self.expected.as_ref();
        self.failed += self
            .distinct
            .iter()
            .zip(direct)
            .filter(|(&i, (_, d))| d.is_none() || expected.map(|e| e[i]) != *d)
            .count() as u64;
    }

    /// Iterations run until the next one would overrun `--seconds`.
    /// Each starts with [`SETUP_REPS`] timed set-ups, so set-up time is
    /// sampled across the whole run.
    fn iterate(&mut self, mut body: impl FnMut(&mut Bench)) -> usize {
        let budget = Duration::from_secs_f64(self.seconds);
        let start = Instant::now();
        let mut iterations = 0;
        loop {
            for _ in 0..if self.trace { 0 } else { CALIBRATION_REPS } {
                self.calibration_times.push(calibrate::time_task());
            }
            for _ in 0..SETUP_REPS {
                let t0 = Instant::now();
                let built = setup(self.workload, self.seed, self.nproc);
                self.setup_times.push(t0.elapsed().as_secs_f64());
                drop(black_box(built));
            }
            body(self);
            iterations += 1;
            let elapsed = start.elapsed();
            if elapsed + elapsed / iterations as u32 > budget {
                return iterations;
            }
        }
    }

    /// Prints the run context shared by every metric line.
    fn print_context(&self, modes: &str) {
        println!(
            "context workload={} seed={} nproc={} profile={} commit={} traced={} modes={}",
            self.workload.name(),
            self.seed,
            self.nproc,
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit(),
            u8::from(self.trace),
            modes
        );
        println!(
            "batch rounds={} submitted={} distinct={} digests={}",
            self.rounds.len(),
            self.rounds.iter().map(Vec::len).sum::<usize>(),
            self.distinct.len(),
            if self.committed {
                "committed"
            } else {
                "serial-cold reference"
            }
        );
    }

    /// The untraced run: end-to-end sweep times.
    fn untraced(&mut self) -> Result<String, String> {
        let batch_len = self.distinct.len();
        let mut modes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut per_scenario: Vec<Vec<f64>> = vec![Vec::new(); batch_len];
        let nproc = self.nproc;
        let iterations = self.iterate(|b| {
            let (cold, warm) = on_fresh_thread(|| runner_passes(1, &b.rounds, false, true));
            for (mode, pass) in [("serial_cold", &cold), ("serial_warm", &warm)] {
                b.check_pass(pass.as_ref());
                record(&mut modes, mode, pass.as_ref());
            }
            let (cold, warm) = on_fresh_thread(|| runner_passes(nproc, &b.rounds, false, true));
            for (mode, pass) in [("parallel_cold", &cold), ("parallel_warm", &warm)] {
                b.check_pass(pass.as_ref());
                record(&mut modes, mode, pass.as_ref());
            }
            let cluster = on_fresh_thread(|| cluster_pass(nproc, &b.rounds));
            b.check_pass(cluster.as_ref());
            record(&mut modes, "cluster", cluster.as_ref());
            let direct = direct_pass(&b.batch(), &b.distinct);
            b.check_direct(&direct);
            for (k, &(secs, _)) in direct.iter().enumerate() {
                per_scenario[k].push(secs);
            }
        });

        self.print_context("serial_cold,serial_warm,parallel_cold,parallel_warm,cluster,direct");
        println!("iterations {iterations}");
        let calibration = quantile(&mut self.calibration_times, 0.0);
        let scale = calibrate::REFERENCE_S / calibration;
        println!(
            "calibration best {calibration} decile {} median {} of {} tasks, reference {} s, \
             host-speed scale {scale:.4}",
            quantile(&mut self.calibration_times, 0.1),
            median(&mut self.calibration_times),
            self.calibration_times.len(),
            calibrate::REFERENCE_S,
        );
        let mut metrics = Metrics::default();
        let setups = self.setup_times.len();
        let best_setup = quantile(&mut self.setup_times, 0.0);
        metrics.push(
            "setup_s",
            best_setup * scale,
            "s",
            &format!(
                "best of {setups} set-ups, scaled; raw best {best_setup:.3e}, raw median {:.3e}",
                median(&mut self.setup_times)
            ),
        );
        for mode in [
            "serial_cold",
            "serial_warm",
            "parallel_cold",
            "parallel_warm",
            "cluster",
        ] {
            let times = modes
                .get_mut(mode)
                .map(Vec::as_mut_slice)
                .unwrap_or_default();
            let n = times.len();
            let decile = quantile(times, PASS_QUANTILE);
            metrics.push(
                &format!("sweep_s.{mode}"),
                decile * scale,
                "s",
                &format!(
                    "mode={mode}, lower decile of {n} passes, scaled; raw decile {decile:.4}, \
                     raw best {:.4}, raw median {:.4}",
                    quantile(times, 0.0),
                    median(times)
                ),
            );
        }
        let mut best_ms: Vec<f64> = per_scenario
            .iter_mut()
            .map(|t| quantile(t, 0.0) * 1e3)
            .collect();
        for (name, q) in [("scenario_ms.p50", 0.5), ("scenario_ms.p90", 0.9)] {
            let raw = quantile(&mut best_ms, q);
            let note = format!(
                "mode=direct, best of {iterations} cold calls per scenario, {} scenarios, \
                 scaled; raw {raw:.4}",
                best_ms.len()
            );
            metrics.push(name, raw * scale, "ms", &note);
        }
        metrics.push(
            "peak_rss_mb",
            peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
            "MB",
            "whole process",
        );
        self.print_gaps(&metrics);
        self.print_stragglers(&mut per_scenario);
        Ok(self.finish(metrics))
    }

    /// Prints the warm/cold gaps, serial next to parallel.
    fn print_gaps(&self, metrics: &Metrics) {
        let gap = |warm: &str, cold: &str| ratio(metrics.get(warm), metrics.get(cold));
        println!(
            "gap warm/cold serial={:.3} parallel={:.3}",
            gap("sweep_s.serial_warm", "sweep_s.serial_cold"),
            gap("sweep_s.parallel_warm", "sweep_s.parallel_cold"),
        );
    }

    /// Prints the slowest distinct scenarios by best direct time,
    /// with their share of a direct pass.
    fn print_stragglers(&self, per_scenario: &mut [Vec<f64>]) {
        let batch = self.batch();
        let best: Vec<f64> = per_scenario.iter_mut().map(|t| quantile(t, 0.0)).collect();
        let total: f64 = best.iter().sum();
        let mut order: Vec<usize> = (0..best.len()).collect();
        order.sort_by(|&a, &b| best[b].total_cmp(&best[a]));
        for (rank, &k) in order.iter().take(STRAGGLERS).enumerate() {
            let share = ratio(best[k], total);
            println!(
                "straggler {} {} {:.3} ms {:.1}% of pass{}",
                rank + 1,
                batch[self.distinct[k]].label(),
                best[k] * 1e3,
                100.0 * share,
                if self.workload == Workload::AssayCompile && share > workloads::STRAGGLER_SHARE {
                    " (over the straggler share)"
                } else {
                    ""
                }
            );
        }
    }

    /// The traced run: the per-layer ledger.
    fn traced(&mut self) -> Result<String, String> {
        let nproc = self.nproc;
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut per_scenario: Vec<Vec<f64>> = vec![Vec::new(); self.distinct.len()];
        let (mut plain_secs, mut traced_secs) = (Vec::new(), Vec::new());
        let iterations = self.iterate(|b| {
            let (plain, _) = on_fresh_thread(|| runner_passes(1, &b.rounds, false, false));
            b.check_pass(plain.as_ref());
            let (cold, warm) = on_fresh_thread(|| runner_passes(1, &b.rounds, true, true));
            b.check_pass(cold.as_ref());
            b.check_pass(warm.as_ref());
            let (parallel, _) = on_fresh_thread(|| runner_passes(nproc, &b.rounds, true, false));
            b.check_pass(parallel.as_ref());
            let cluster = on_fresh_thread(|| cluster_pass(nproc, &b.rounds));
            b.check_pass(cluster.as_ref());
            let direct = direct_pass(&b.batch(), &b.distinct);
            b.check_direct(&direct);
            for (k, &(secs, _)) in direct.iter().enumerate() {
                per_scenario[k].push(secs);
            }
            if let (Some(p), Some(c)) = (&plain, &cold) {
                plain_secs.push(p.secs);
                traced_secs.push(c.secs);
            }
            let passes = Passes {
                plain: plain.as_ref(),
                cold: cold.as_ref(),
                warm: warm.as_ref(),
                parallel: parallel.as_ref(),
                cluster: cluster.as_ref(),
            };
            match b.layers(&passes, &direct) {
                Some(layers) => {
                    for (name, value) in layers {
                        values.entry(name).or_default().push(value);
                    }
                }
                None => b.problems.push("a traced iteration lost a pass".to_owned()),
            }
        });

        values.insert(
            "failed_frac",
            vec![ratio(self.failed as f64, self.attempted as f64)],
        );
        // Best traced over best untraced serial-cold pass.
        values.insert(
            "telemetry.overhead_frac",
            vec![
                ratio(
                    quantile(&mut traced_secs, 0.0),
                    quantile(&mut plain_secs, 0.0),
                ) - 1.0,
            ],
        );
        self.print_context(
            "serial_cold(traced+untraced),serial_warm(traced),parallel_cold(traced),cluster,direct",
        );
        println!("iterations {iterations}");
        for line in self.cold_start.iter().chain(&self.shares) {
            println!("{line}");
        }
        let mut metrics = Metrics::default();
        for &(name, unit, kind) in PER_LAYER {
            let samples = values
                .get_mut(name)
                .map(Vec::as_mut_slice)
                .unwrap_or_default();
            let note = match kind {
                Kind::Count => {
                    if samples.windows(2).any(|w| w[0] != w[1]) {
                        self.problems
                            .push(format!("deterministic count {name} varied: {samples:?}"));
                    }
                    "deterministic"
                }
                Kind::Measured => "median over iterations",
            };
            metrics.push(name, median(samples), unit, note);
        }
        self.print_stragglers(&mut per_scenario);
        Ok(self.finish(metrics))
    }

    /// Per-layer values from one traced iteration; `None` when a pass
    /// panicked.
    fn layers(
        &mut self,
        p: &Passes<'_>,
        direct: &[(f64, Option<Digest>)],
    ) -> Option<Vec<(&'static str, f64)>> {
        let (plain, cold, warm, parallel, cluster) =
            (p.plain?, p.cold?, p.warm?, p.parallel?, p.cluster?);
        let (lc, lw, lp) = (
            cold.ledger.as_ref()?,
            warm.ledger.as_ref()?,
            parallel.ledger.as_ref()?,
        );
        let batch = self.batch();
        let distinct: Vec<&Scenario> = self.distinct.iter().map(|&i| batch[i]).collect();
        let mut out: Vec<(&'static str, f64)> = Vec::new();

        // runner
        out.push((
            "runner.fingerprint_us",
            micro_median(|| {
                black_box(
                    batch
                        .iter()
                        .map(|s| s.fingerprint())
                        .fold(0, u64::wrapping_add),
                );
            }) * 1e6,
        ));
        out.push(("runner.executed", plain.stats.executed as f64));
        out.push(("runner.cache_hits", plain.stats.cache_hits as f64));
        out.push(("runner.deduped", plain.stats.deduped as f64));
        out.push(("runner.steals", parallel.stats.steals as f64));
        out.push(("runner.balance", parallel.stats.balance()));
        out.push((
            "runner.queue_wait_ms",
            lp.histogram_ms("runner.queue_wait_ns"),
        ));
        out.push(("runner.evaluate_ms", lp.histogram_ms("runner.evaluate_ns")));

        // dist
        let shards = ClusterConfig::new().runner.shards;
        out.push(("dist.assigned", cluster.dist.assigned as f64));
        out.push(("dist.requeues", cluster.dist.requeues as f64));
        out.push(("dist.recovered", cluster.dist.recovered as f64));
        out.push(("dist.shard_skew", skew(&cluster.dist.shard_executed)));
        let fp_time: BTreeMap<u64, f64> = distinct
            .iter()
            .zip(direct)
            .map(|(s, &(secs, _))| (s.fingerprint(), secs))
            .collect();
        let mut shard_cost = vec![0.0; shards];
        for round in &self.rounds {
            let plan = ShardPlan::split(round, shards);
            for (shard, indices) in plan.iter() {
                let fps: HashSet<u64> = indices.iter().map(|&i| round[i].fingerprint()).collect();
                shard_cost[shard.0 as usize] += fps.iter().map(|fp| fp_time[fp]).sum::<f64>();
            }
        }
        out.push(("dist.shard_cost_skew", skew(&shard_cost)));
        out.push(("dist.manifest_ms", self.manifest_secs(plain, shards) * 1e3));

        // fluidics, traced serial-cold pass
        for (metric, span) in [
            ("fluidics.compile_ms", "fluidics.compile"),
            ("fluidics.schedule_ms", "fluidics.schedule"),
            ("fluidics.route_ms", "fluidics.route"),
            ("fluidics.program_ms", "fluidics.program"),
            ("labchip.compile_ms", "labchip.compile"),
            ("labchip.sense_ms", "labchip.sense"),
            ("labchip.interpret_ms", "labchip.interpret"),
            ("noc.synthesize_ms", "noc.synthesize"),
            ("noc.partition_ms", "noc.partition"),
            ("noc.shortcuts_ms", "noc.shortcuts"),
            ("noc.route_ms", "noc.route"),
            ("grn.fixed_points_ms", "grn.fixed_points"),
            ("wsn.lifetime_ms", "wsn.lifetime"),
            ("wsn.harvest_ms", "wsn.harvest"),
        ] {
            out.push((metric, lc.self_ms(span)));
        }
        for (metric, counter) in [
            ("fluidics.route.expansions", "fluidics.route.expansions"),
            ("fluidics.reroutes", "fluidics.reroutes"),
            (
                "fluidics.abandoned_transports",
                "fluidics.abandoned_transports",
            ),
            ("fluidics.place_failures", "fluidics.place_failures"),
            (
                "labchip.interpret_cache_hits",
                "labchip.interpret_cache_hits",
            ),
            ("labchip.plex_retries", "labchip.plex_retries"),
            ("labchip.zdd_peak_nodes", "labchip.zdd_peak_nodes"),
            ("wsn.policy_evals", "wsn.policy_evals"),
        ] {
            out.push((metric, lc.counter(counter) as f64));
        }
        let routes = lc.count("fluidics.route");
        out.push((
            "fluidics.route_success_ratio",
            ratio(
                routes.saturating_sub(lc.counter("fluidics.reroutes")) as f64,
                routes as f64,
            ),
        ));

        // Simulated fluidics figures from the outcomes themselves.
        let (mut compiles, mut compiled, mut makespan, mut moves) = (0u64, 0u64, 0u64, 0u64);
        let (mut wsn_rounds, mut slots) = (0u64, 0u64);
        for &i in &self.distinct {
            match &plain.outcomes[i] {
                ScenarioOutcome::Fluidics {
                    compiled: ok,
                    makespan: m,
                    moves: mv,
                    ..
                } => {
                    compiles += 1;
                    compiled += u64::from(*ok);
                    makespan += u64::from(*m);
                    moves += u64::from(*mv);
                }
                ScenarioOutcome::Wsn { rounds, .. } => wsn_rounds += rounds,
                ScenarioOutcome::Harvest { total_slots, .. } => slots += total_slots,
                _ => {}
            }
        }
        out.push((
            "fluidics.compiled_frac",
            ratio(compiled as f64, compiles as f64),
        ));
        out.push(("fluidics.makespan_ticks", makespan as f64));
        out.push(("fluidics.route_moves", moves as f64));

        // labchip: hit ratio, and the cold-start check.
        let labchip_runs = lc.count("labchip.run");
        let hits = lc.counter("labchip.interpret_cache_hits");
        out.push((
            "labchip.sense_hit_ratio",
            ratio(hits as f64, labchip_runs as f64),
        ));
        let (cold_start, passed) = cold_start_check(&distinct, labchip_runs, hits, lw);

        // noc
        out.push((
            "noc.partition_hit_ratio",
            ratio(
                lc.counter("noc.partition_hits") as f64,
                lc.counter("noc.partition_lookups") as f64,
            ),
        ));

        // Families, from the benchmark's own Scenario::run timings.
        let mut family: BTreeMap<&str, f64> = BTreeMap::new();
        for (s, &(secs, _)) in distinct.iter().zip(direct) {
            *family.entry(s.family()).or_default() += secs;
        }
        for (metric, fam) in [
            ("family.fluidics_ms", "scenario.fluidics"),
            ("family.labchip_ms", "scenario.labchip"),
            ("family.noc_ms", "scenario.noc"),
            ("family.wsn_ms", "scenario.wsn"),
            ("family.harvest_ms", "scenario.harvest"),
            ("family.knockout_ms", "scenario.knockout"),
        ] {
            out.push((metric, family.get(fam).copied().unwrap_or(0.0) * 1e3));
        }
        out.push((
            "wsn.ns_per_round",
            ratio(
                family.get("scenario.wsn").copied().unwrap_or(0.0) * 1e9,
                wsn_rounds as f64,
            ),
        ));
        out.push((
            "wsn.ns_per_slot",
            ratio(
                family.get("scenario.harvest").copied().unwrap_or(0.0) * 1e9,
                slots as f64,
            ),
        ));

        let share = |spans: &[&str]| {
            let ms: f64 = spans.iter().map(|name| lc.self_ms(name)).sum();
            100.0 * ratio(ms, cold.secs * 1e3)
        };
        // Scenario task spans are detached roots, so the runner's own
        // time is its span minus the scenarios it ran inline.
        let scenarios_ms: f64 = distinct
            .iter()
            .map(|s| s.family())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|family| lc.total_ms(family))
            .sum();
        let runner_ms = lc.total_ms("runner.run") - scenarios_ms;
        self.shares = Some(format!(
            "share of the traced serial-cold pass: labchip={:.1}% noc={:.1}% fluidics={:.1}% \
             grn={:.1}% wsn={:.1}% runner={:.1}%",
            share(&[
                "labchip.run",
                "labchip.compile",
                "labchip.sense",
                "labchip.interpret"
            ]),
            share(&[
                "noc.synthesize",
                "noc.partition",
                "noc.shortcuts",
                "noc.route"
            ]),
            share(&[
                "fluidics.compile",
                "fluidics.schedule",
                "fluidics.route",
                "fluidics.program"
            ]),
            share(&["grn.fixed_points"]),
            share(&["wsn.lifetime", "wsn.harvest"]),
            100.0 * ratio(runner_ms, cold.secs * 1e3),
        ));
        if !passed {
            self.problems.push(cold_start.clone());
        }
        self.cold_start = Some(cold_start);
        Some(out)
    }

    /// Median time to render every shard manifest of the cluster plan and
    /// parse every shard's outcome file back.
    fn manifest_secs(&self, plain: &Pass, shards: usize) -> f64 {
        let mut offset = 0;
        let mut outcome_files: Vec<String> = Vec::new();
        for round in &self.rounds {
            let plan = ShardPlan::split(round, shards);
            for (shard, indices) in plan.iter() {
                let entries: Vec<(usize, ScenarioOutcome)> = indices
                    .iter()
                    .map(|&i| (i, plain.outcomes[offset + i].clone()))
                    .collect();
                let stats = BatchStats {
                    shard,
                    scenarios: indices.len() as u64,
                    ..BatchStats::default()
                };
                outcome_files.push(write_outcomes(&stats, &entries));
            }
            offset += round.len();
        }
        micro_median(|| {
            let mut k = 0;
            for round in &self.rounds {
                let plan = ShardPlan::split(round, shards);
                for (shard, indices) in plan.iter() {
                    let entries: Vec<(usize, &Scenario)> =
                        indices.iter().map(|&i| (i, &round[i])).collect();
                    black_box(write_manifest(shard, &entries));
                    let _ = black_box(parse_outcomes(&outcome_files[k]));
                    k += 1;
                }
            }
        })
    }

    /// The final JSON line.
    fn finish(&self, metrics: Metrics) -> String {
        for problem in &self.problems {
            println!("problem {problem}");
        }
        let correct = self.failed == 0 && self.problems.is_empty();
        println!(
            "correct={} attempted={} failed={}",
            correct, self.attempted, self.failed
        );
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (k, (name, value, unit)) in metrics.0.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        json
    }
}

/// Generates the workload and builds every engine, as one set-up does.
#[allow(clippy::type_complexity)]
fn setup(
    workload: Workload,
    seed: u64,
    nproc: usize,
) -> (
    (Vec<Vec<Scenario>>, Result<Option<Vec<Digest>>, String>),
    (Runner, Runner, Cluster),
) {
    let rounds = workload.rounds(seed);
    let expected = {
        let batch: Vec<&Scenario> = rounds.iter().flatten().collect();
        workload.expected(seed, &batch)
    };
    let engines = (
        Runner::with_workers(1),
        Runner::with_workers(nproc),
        Cluster::new(InProcess::new(), cluster_config(nproc)),
    );
    ((rounds, expected), engines)
}

/// The cold-start check: a cold serial pass must start with empty stage memos (it
/// hits once per lab-on-chip run beyond the first per biology seed), and
/// the warm pass on the same thread must hit on every lab-on-chip run.
/// Returns the report line and whether the check passed.
fn cold_start_check(distinct: &[&Scenario], runs: u64, hits: u64, warm: &Ledger) -> (String, bool) {
    let mut seeds = HashSet::new();
    let mut labchips = 0u64;
    for s in distinct {
        if let Scenario::LabChip(l) = s {
            labchips += 1;
            seeds.insert(l.seed);
        }
    }
    let want_cold = labchips - seeds.len() as u64;
    let warm_hits = warm.counter("labchip.interpret_cache_hits");
    let passed = runs == labchips && hits == want_cold && warm_hits == labchips;
    let line = format!(
        "cold-start {}: {runs} lab-on-chip runs (want {labchips}), {hits} cold hits \
         (want {want_cold}), {warm_hits} warm hits (want {labchips})",
        if passed { "ok" } else { "FAILED" }
    );
    (line, passed)
}

/// `nproc` cluster workers of one thread each, default shard count,
/// heartbeat every [`CLUSTER_HEARTBEAT`].
fn cluster_config(nproc: usize) -> ClusterConfig {
    ClusterConfig::new()
        .workers(nproc)
        .threads_per_worker(1)
        .heartbeat_interval(CLUSTER_HEARTBEAT)
}

/// Which per-layer values must repeat exactly.
#[derive(Clone, Copy)]
enum Kind {
    /// A count or ratio of counts from a deterministic pass.
    Count,
    /// A time, or a count that depends on thread scheduling.
    Measured,
}

/// Every per-layer metric, in output order.
const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("runner.fingerprint_us", "us", Kind::Measured),
    ("runner.executed", "count", Kind::Count),
    ("runner.cache_hits", "count", Kind::Count),
    ("runner.deduped", "count", Kind::Count),
    ("runner.steals", "count", Kind::Measured),
    ("runner.balance", "ratio", Kind::Measured),
    ("runner.queue_wait_ms", "ms", Kind::Measured),
    ("runner.evaluate_ms", "ms", Kind::Measured),
    ("dist.assigned", "count", Kind::Count),
    ("dist.requeues", "count", Kind::Count),
    ("dist.recovered", "count", Kind::Count),
    ("dist.shard_skew", "ratio", Kind::Count),
    ("dist.shard_cost_skew", "ratio", Kind::Measured),
    ("dist.manifest_ms", "ms", Kind::Measured),
    ("fluidics.compile_ms", "ms", Kind::Measured),
    ("fluidics.schedule_ms", "ms", Kind::Measured),
    ("fluidics.route_ms", "ms", Kind::Measured),
    ("fluidics.program_ms", "ms", Kind::Measured),
    ("fluidics.route.expansions", "count", Kind::Count),
    ("fluidics.reroutes", "count", Kind::Count),
    ("fluidics.abandoned_transports", "count", Kind::Count),
    ("fluidics.place_failures", "count", Kind::Count),
    ("fluidics.route_success_ratio", "ratio", Kind::Count),
    ("fluidics.compiled_frac", "frac", Kind::Count),
    ("fluidics.makespan_ticks", "ticks", Kind::Count),
    ("fluidics.route_moves", "count", Kind::Count),
    ("labchip.compile_ms", "ms", Kind::Measured),
    ("labchip.sense_ms", "ms", Kind::Measured),
    ("labchip.interpret_ms", "ms", Kind::Measured),
    ("labchip.interpret_cache_hits", "count", Kind::Count),
    ("labchip.sense_hit_ratio", "ratio", Kind::Count),
    ("labchip.plex_retries", "count", Kind::Count),
    ("labchip.zdd_peak_nodes", "count", Kind::Count),
    ("noc.synthesize_ms", "ms", Kind::Measured),
    ("noc.partition_ms", "ms", Kind::Measured),
    ("noc.shortcuts_ms", "ms", Kind::Measured),
    ("noc.route_ms", "ms", Kind::Measured),
    ("noc.partition_hit_ratio", "ratio", Kind::Count),
    ("grn.fixed_points_ms", "ms", Kind::Measured),
    ("wsn.lifetime_ms", "ms", Kind::Measured),
    ("wsn.harvest_ms", "ms", Kind::Measured),
    ("wsn.ns_per_round", "ns", Kind::Measured),
    ("wsn.ns_per_slot", "ns", Kind::Measured),
    ("wsn.policy_evals", "count", Kind::Count),
    ("family.fluidics_ms", "ms", Kind::Measured),
    ("family.labchip_ms", "ms", Kind::Measured),
    ("family.noc_ms", "ms", Kind::Measured),
    ("family.wsn_ms", "ms", Kind::Measured),
    ("family.harvest_ms", "ms", Kind::Measured),
    ("family.knockout_ms", "ms", Kind::Measured),
    ("telemetry.overhead_frac", "frac", Kind::Measured),
    ("failed_frac", "frac", Kind::Count),
];

/// Metric lines in output order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Records a metric and prints its human-readable line.
    fn push(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        println!("metric {name} {value} {unit} [{note}]");
        self.0.push((name.to_owned(), value, unit.to_owned()));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |&(_, v, _)| v)
    }
}

/// What one pass over every round returned.
struct Pass {
    /// Wall time of the engine calls.
    secs: f64,
    /// Outcomes per submitted scenario, rounds flattened.
    outcomes: Vec<ScenarioOutcome>,
    /// Batch stats merged over rounds.
    stats: BatchStats,
    /// Scheduler counters (cluster passes only).
    dist: DistStats,
    /// The stage ledger, for traced passes.
    ledger: Option<Ledger>,
}

/// The traced iteration's passes.
struct Passes<'a> {
    plain: Option<&'a Pass>,
    cold: Option<&'a Pass>,
    warm: Option<&'a Pass>,
    parallel: Option<&'a Pass>,
    cluster: Option<&'a Pass>,
}

/// Scheduler counters summed over rounds.
#[derive(Default)]
struct DistStats {
    assigned: u64,
    requeues: u64,
    recovered: u64,
    /// Scenarios evaluated per shard, summed over rounds.
    shard_executed: Vec<f64>,
}

/// A sweep engine the benchmark drives one round at a time.
trait Engine {
    fn round(
        &mut self,
        batch: &[Scenario],
        dist: &mut DistStats,
    ) -> (Vec<ScenarioOutcome>, BatchStats);
}

impl Engine for Runner {
    fn round(
        &mut self,
        batch: &[Scenario],
        _: &mut DistStats,
    ) -> (Vec<ScenarioOutcome>, BatchStats) {
        let report = self.run(batch);
        (report.outcomes, report.stats)
    }
}

impl Engine for Cluster {
    fn round(
        &mut self,
        batch: &[Scenario],
        dist: &mut DistStats,
    ) -> (Vec<ScenarioOutcome>, BatchStats) {
        let report = self.run(batch);
        dist.assigned += report.assigned;
        dist.requeues += report.requeues;
        dist.recovered += report.recovered.len() as u64;
        dist.shard_executed
            .resize(dist.shard_executed.len().max(report.shards.len()), 0.0);
        for (k, shard) in report.shards.iter().enumerate() {
            dist.shard_executed[k] += shard.executed as f64;
        }
        (report.outcomes, report.stats)
    }
}

/// One timed pass over every round; `None` if the engine panicked.
fn pass(engine: &mut impl Engine, rounds: &[Vec<Scenario>], traced: bool) -> Option<Pass> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            mns_telemetry::reset();
            mns_telemetry::enable(Arc::new(WallClock::new()));
        }
        let mut dist = DistStats::default();
        let t0 = Instant::now();
        let results: Vec<_> = rounds.iter().map(|r| engine.round(r, &mut dist)).collect();
        let secs = t0.elapsed().as_secs_f64();
        (secs, results, dist)
    }));
    let ledger = traced.then(|| {
        mns_telemetry::disable();
        let ledger = Ledger::new(&mns_telemetry::take_trace(), mns_telemetry::snapshot());
        mns_telemetry::reset();
        ledger
    });
    let (secs, results, dist) = result.ok()?;
    let mut outcomes = Vec::new();
    let mut stats = Vec::new();
    for (o, s) in results {
        outcomes.extend(o);
        stats.push(s);
    }
    Some(Pass {
        secs,
        outcomes,
        stats: BatchStats::merged(&stats),
        dist,
        ledger,
    })
}

/// A cold pass on a fresh `workers`-thread runner, then (if `warm`) a
/// second pass on the same runner after `clear_cache()`.
fn runner_passes(
    workers: usize,
    rounds: &[Vec<Scenario>],
    traced: bool,
    warm: bool,
) -> (Option<Pass>, Option<Pass>) {
    let mut runner = Runner::with_workers(workers);
    let cold = pass(&mut runner, rounds, traced);
    let warm = (warm && cold.is_some()).then(|| {
        runner.clear_cache();
        pass(&mut runner, rounds, traced)
    });
    (cold, warm.flatten())
}

/// One pass through a fresh in-process cluster.
fn cluster_pass(nproc: usize, rounds: &[Vec<Scenario>]) -> Option<Pass> {
    let mut cluster = Cluster::new(InProcess::new(), cluster_config(nproc));
    pass(&mut cluster, rounds, false)
}

/// Times `Scenario::run` for each distinct scenario on a fresh thread.
fn direct_pass(batch: &[&Scenario], distinct: &[usize]) -> Vec<(f64, Option<Digest>)> {
    on_fresh_thread(|| {
        distinct
            .iter()
            .map(|&i| {
                let t0 = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| batch[i].run()));
                let secs = t0.elapsed().as_secs_f64();
                (secs, outcome.ok().map(|o| o.digest()))
            })
            .collect()
    })
}

/// Runs `f` on a newly spawned thread, so its thread-local memos start
/// empty. `f` catches its own panics.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    thread::scope(|s| {
        s.spawn(f)
            .join()
            .expect("benchmark thread catches its panics")
    })
}

fn record(modes: &mut BTreeMap<&'static str, Vec<f64>>, mode: &'static str, pass: Option<&Pass>) {
    if let Some(p) = pass {
        modes.entry(mode).or_default().push(p.secs);
    }
}

/// Median seconds of [`MICRO_REPS`] calls of `f`.
fn micro_median(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (0 for no samples).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Largest share over the mean share (1 = balanced, 0 for no work).
fn skew(loads: &[f64]) -> f64 {
    let total: f64 = loads.iter().sum();
    let max = loads.iter().copied().fold(0.0, f64::max);
    ratio(max * loads.len() as f64, total)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|h| h.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Serializes tests that enable process-wide telemetry or run scenarios.
#[cfg(test)]
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names and units must match `BENCHMARK.json` exactly.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find("\"end_to_end\"").expect("end_to_end list");
        let split = json.find("\"per_layer\"").expect("per_layer list");
        let end_to_end = &json[start..split];
        let modes = [
            "serial_cold",
            "serial_warm",
            "parallel_cold",
            "parallel_warm",
            "cluster",
        ];
        let mut names = Vec::from(modes.map(|mode| (format!("sweep_s.{mode}"), "s")));
        for (name, unit) in [
            ("setup_s", "s"),
            ("scenario_ms.p50", "ms"),
            ("scenario_ms.p90", "ms"),
            ("peak_rss_mb", "MB"),
        ] {
            names.push((name.to_owned(), unit));
        }
        for (name, unit) in &names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(end_to_end.contains(&entry), "{entry}");
        }
        assert_eq!(end_to_end.matches("\"name\"").count(), names.len());
        let per_layer = &json[split..];
        for (name, unit, _) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "{entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn no_assay_compile_scenario_is_a_straggler() {
        let _guard = TELEMETRY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let batch = workloads::assay_compile(workloads::DEFAULT_SEED);
        let times: Vec<f64> = batch
            .iter()
            .map(|s| {
                let t0 = Instant::now();
                black_box(s.run());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let total: f64 = times.iter().sum();
        for (s, t) in batch.iter().zip(&times) {
            assert!(
                *t <= workloads::STRAGGLER_SHARE * total,
                "{} takes {:.1}% of the pass",
                s.label(),
                100.0 * t / total
            );
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(skew(&[1.0, 1.0, 2.0]), 1.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
