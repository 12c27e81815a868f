//! Line-oriented wire format for sharded sweeps.
//!
//! A parent process hands each shard worker a **manifest** — one line per
//! scenario, carrying the scenario's *global submission index* and a full
//! self-describing encoding of its parameters — and reads back an
//! **outcome file** with the shard's [`BatchStats`] header and one
//! outcome line per manifest entry. Both formats are plain UTF-8 text,
//! one record per line, space-separated tokens:
//!
//! * floats travel as the 16-hex-digit IEEE-754 bit pattern
//!   (`f64::to_bits`), so round-trips are exact — including NaN payloads
//!   — and digests are preserved bit for bit;
//! * strings travel hex-encoded with an `x` prefix (`x` alone is the
//!   empty string), so embedded whitespace cannot break tokenization;
//! * every record starts with a family tag (`fluidics`, `labchip`,
//!   `noc`, `wsn`, `harvest`, `grn`), making the format self-describing
//!   and versioned by its header line.
//!
//! The conformance contract is exact round-tripping: for any scenario,
//! `decode(encode(s))` carries every field and float bit of `s` and
//! re-encodes to the same bytes, and for any outcome,
//! `decode(encode(o)).digest() == o.digest()`. Because the scenario record
//! is exact, the runner also uses it as its outcome-cache key.
//!
//! Parsing is **total**: truncated, mutated or adversarial input returns
//! an error, never panics — `tests/manifest_fuzz.rs` mutates valid wire
//! bytes at random to enforce this. For stream transports, manifests can
//! additionally travel inside length-prefixed [`write_frame`] /
//! [`read_frame`] frames.

use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};

use mns_noc::graph::{CommGraph, Flow};
use mns_policy::{PolicyAssignment, PolicyExpr, MAX_POLICY_DEPTH};
use mns_wsn::protocol::Protocol;

use super::{
    AssayKind, BatchStats, FluidicsScenario, GrnModel, HarvestScenario, KnockoutScenario,
    LabChipScenario, NocScenario, Scenario, ScenarioOutcome, ShardId, WorkerBatchStats,
    WsnScenario,
};

/// First line of every shard manifest.
pub const MANIFEST_HEADER: &str = "# mns shard manifest v1";
/// First line of every shard outcome file.
pub const OUTCOMES_HEADER: &str = "# mns shard outcomes v2";

/// A parse failure, with the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line number of the offending record (0 = whole file).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

fn err(line: usize, message: impl Into<String>) -> ManifestError {
    ManifestError {
        line,
        message: message.into(),
    }
}

/// Tokenizer over one record line.
struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens {
            iter: line.split_whitespace(),
        }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.iter
            .next()
            .ok_or_else(|| "unexpected end of record".to_owned())
    }

    fn u64(&mut self) -> Result<u64, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad u64 `{t}`"))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad u32 `{t}`"))
    }

    fn usize(&mut self) -> Result<usize, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad usize `{t}`"))
    }

    fn i32(&mut self) -> Result<i32, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad i32 `{t}`"))
    }

    /// Floats travel as 16 hex digits of their IEEE-754 bit pattern.
    fn f64(&mut self) -> Result<f64, String> {
        let t = self.next()?;
        let bits = u64::from_str_radix(t, 16).map_err(|_| format!("bad f64 bits `{t}`"))?;
        Ok(f64::from_bits(bits))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.next()? {
            "0" => Ok(false),
            "1" => Ok(true),
            t => Err(format!("bad bool `{t}` (want 0 or 1)")),
        }
    }

    /// Strings travel hex-encoded with an `x` prefix. Decoding walks
    /// raw bytes — never string slices — so a multibyte character in a
    /// corrupted token cannot split a char boundary and panic.
    fn string(&mut self) -> Result<String, String> {
        let t = self.next()?;
        let hex = t
            .strip_prefix('x')
            .ok_or_else(|| format!("bad string token `{t}` (want x<hex>)"))?
            .as_bytes();
        if hex.len() % 2 != 0 {
            return Err(format!("odd-length string hex `{t}`"));
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for pair in hex.chunks_exact(2) {
            let (hi, lo) = (hex_digit(pair[0]), hex_digit(pair[1]));
            match (hi, lo) {
                (Some(hi), Some(lo)) => bytes.push(hi << 4 | lo),
                _ => return Err(format!("bad string hex `{t}`")),
            }
        }
        String::from_utf8(bytes).map_err(|_| format!("string token `{t}` is not UTF-8"))
    }

    fn done(&mut self) -> Result<(), String> {
        match self.iter.next() {
            None => Ok(()),
            Some(t) => Err(format!("trailing token `{t}`")),
        }
    }

    /// Like [`Tokens::next`], but end-of-record is `None` instead of an
    /// error — for optional record suffixes.
    fn opt_next(&mut self) -> Option<&'a str> {
        self.iter.next()
    }
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Pre-allocation ceiling for untrusted record-declared counts: a
/// corrupted count cannot force a huge (or overflowing) allocation —
/// the element loop runs out of tokens and errors long before the
/// vector ever needs to grow past its real size.
const DECODE_CAPACITY_CAP: usize = 4096;

/// A float token: the 16 hex digits of its IEEE-754 bit pattern.
#[derive(Clone, Copy)]
struct Bits(f64);

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0.to_bits())
    }
}

fn hex_str(s: &str) -> String {
    let mut out = String::with_capacity(1 + 2 * s.len());
    encode_str(s, &mut out).expect("writing to a String cannot fail");
    out
}

/// Writes a string token: `x`, then two hex digits per byte.
fn encode_str(s: &str, out: &mut String) -> fmt::Result {
    out.push('x');
    for b in s.bytes() {
        write!(out, "{b:02x}")?;
    }
    Ok(())
}

fn flag(v: bool) -> &'static str {
    if v {
        "1"
    } else {
        "0"
    }
}

/// Encodes an [`AssayKind`]: a kind token, then any shape knobs.
fn encode_assay_kind(kind: AssayKind, out: &mut String) -> fmt::Result {
    match kind {
        AssayKind::Multiplex => out.write_str("multiplex"),
        AssayKind::SerialDilution => out.write_str("dilution"),
        AssayKind::Washing { wash_steps } => write!(out, "wash {wash_steps}"),
        AssayKind::MixingTree { fanin } => write!(out, "mixtree {fanin}"),
        AssayKind::DilutionGradient => out.write_str("gradient"),
    }
}

/// Decodes the [`AssayKind`] token(s) written by [`encode_assay_kind`].
fn decode_assay_kind(t: &mut Tokens) -> Result<AssayKind, String> {
    match t.next()? {
        "multiplex" => Ok(AssayKind::Multiplex),
        "dilution" => Ok(AssayKind::SerialDilution),
        "wash" => Ok(AssayKind::Washing {
            wash_steps: t.usize()?,
        }),
        "mixtree" => Ok(AssayKind::MixingTree { fanin: t.usize()? }),
        "gradient" => Ok(AssayKind::DilutionGradient),
        k => Err(format!("unknown assay kind `{k}`")),
    }
}

/// Encodes a [`PolicyExpr`] as prefix-notation tokens. The primitive
/// tokens (`fixed`, `greedy`, `neutral`) and their payload layout are
/// byte-identical to the historical `DutyPolicy` encoding, so every
/// pre-engine harvest record is reproduced exactly; combinators nest
/// recursively after their scalar parameters.
fn encode_policy(p: &PolicyExpr, out: &mut String) -> fmt::Result {
    match p {
        PolicyExpr::Fixed(d) => write!(out, "fixed {}", Bits(*d)),
        PolicyExpr::Greedy {
            threshold,
            duty_high,
            duty_low,
        } => write!(
            out,
            "greedy {} {} {}",
            Bits(*threshold),
            Bits(*duty_high),
            Bits(*duty_low)
        ),
        PolicyExpr::EnergyNeutral { alpha } => write!(out, "neutral {}", Bits(*alpha)),
        PolicyExpr::Forecast { alpha } => write!(out, "forecast {}", Bits(*alpha)),
        PolicyExpr::Derate { inner, fade, floor } => {
            write!(out, "derate {} {} ", Bits(*fade), Bits(*floor))?;
            encode_policy(inner, out)
        }
        PolicyExpr::Hysteresis { low, high, on, off } => {
            write!(out, "hyst {} {} ", Bits(*low), Bits(*high))?;
            encode_policy(on, out)?;
            out.push(' ');
            encode_policy(off, out)
        }
        PolicyExpr::Scheduled { pieces } => {
            write!(out, "sched {}", pieces.len())?;
            for (start, piece) in pieces {
                write!(out, " {start} ")?;
                encode_policy(piece, out)?;
            }
            Ok(())
        }
        PolicyExpr::Clamp { inner, lo, hi } => {
            write!(out, "clamp {} {} ", Bits(*lo), Bits(*hi))?;
            encode_policy(inner, out)
        }
    }
}

/// Decodes the policy tokens written by [`encode_policy`]. Recursion
/// depth is bounded *during* parsing — before any validation pass —
/// so an adversarial record cannot overflow the stack; the decoded
/// expression is validated with its record by [`Scenario::validate`].
fn decode_policy(t: &mut Tokens, depth: usize) -> Result<PolicyExpr, String> {
    if depth >= MAX_POLICY_DEPTH {
        return Err(format!("policy nests deeper than {MAX_POLICY_DEPTH}"));
    }
    match t.next()? {
        "fixed" => Ok(PolicyExpr::Fixed(t.f64()?)),
        "greedy" => Ok(PolicyExpr::Greedy {
            threshold: t.f64()?,
            duty_high: t.f64()?,
            duty_low: t.f64()?,
        }),
        "neutral" => Ok(PolicyExpr::EnergyNeutral { alpha: t.f64()? }),
        "forecast" => Ok(PolicyExpr::Forecast { alpha: t.f64()? }),
        "derate" => {
            let fade = t.f64()?;
            let floor = t.f64()?;
            Ok(PolicyExpr::Derate {
                inner: Box::new(decode_policy(t, depth + 1)?),
                fade,
                floor,
            })
        }
        "hyst" => {
            let low = t.f64()?;
            let high = t.f64()?;
            let on = Box::new(decode_policy(t, depth + 1)?);
            let off = Box::new(decode_policy(t, depth + 1)?);
            Ok(PolicyExpr::Hysteresis { low, high, on, off })
        }
        "sched" => {
            let n = t.usize()?;
            let mut pieces = Vec::with_capacity(n.min(DECODE_CAPACITY_CAP));
            for _ in 0..n {
                let start = t.u64()?;
                pieces.push((start, decode_policy(t, depth + 1)?));
            }
            Ok(PolicyExpr::Scheduled { pieces })
        }
        "clamp" => {
            let lo = t.f64()?;
            let hi = t.f64()?;
            Ok(PolicyExpr::Clamp {
                inner: Box::new(decode_policy(t, depth + 1)?),
                lo,
                hi,
            })
        }
        p => Err(format!("unknown harvest policy `{p}`")),
    }
}

/// Encodes a [`PolicyAssignment`] suffix: `uniform <policy>` or
/// `mix <n> <policy>*`.
fn encode_assignment(a: &PolicyAssignment, out: &mut String) -> fmt::Result {
    match a {
        PolicyAssignment::Uniform(p) => {
            out.push_str("uniform ");
            encode_policy(p, out)
        }
        PolicyAssignment::RoundRobin(ps) => {
            write!(out, "mix {}", ps.len())?;
            for p in ps {
                out.push(' ');
                encode_policy(p, out)?;
            }
            Ok(())
        }
    }
}

/// Decodes the assignment tokens written by [`encode_assignment`].
fn decode_assignment(t: &mut Tokens) -> Result<PolicyAssignment, String> {
    match t.next()? {
        "uniform" => Ok(PolicyAssignment::Uniform(decode_policy(t, 0)?)),
        "mix" => {
            let n = t.usize()?;
            let mut ps = Vec::with_capacity(n.min(DECODE_CAPACITY_CAP));
            for _ in 0..n {
                ps.push(decode_policy(t, 0)?);
            }
            Ok(PolicyAssignment::RoundRobin(ps))
        }
        a => Err(format!("unknown policy assignment `{a}`")),
    }
}

/// Encodes one scenario as a single self-describing record (no newline).
///
/// The record is exact to the float bit, which makes it the runner's
/// outcome-cache key as well as the wire form, so it is written into one
/// buffer with no allocation per token.
pub fn encode_scenario(scenario: &Scenario) -> String {
    let mut out = String::new();
    write_scenario(scenario, &mut out).expect("writing to a String cannot fail");
    out
}

fn write_scenario(scenario: &Scenario, out: &mut String) -> fmt::Result {
    match scenario {
        Scenario::FluidicsCompile(s) => {
            out.push_str("fluidics ");
            encode_assay_kind(s.assay, out)?;
            write!(
                out,
                " {} {} {} {}",
                s.plex,
                s.grid_side,
                Bits(s.dead_fraction),
                s.fault_seed
            )
        }
        Scenario::LabChip(s) => {
            out.push_str("labchip ");
            encode_assay_kind(s.assay, out)?;
            write!(
                out,
                " {} {} {} {}",
                s.seed,
                s.samples_per_run,
                Bits(s.dead_fraction),
                s.fault_seed
            )
        }
        Scenario::NocPoint(s) => {
            write!(
                out,
                "noc {} {} {} {}",
                s.max_cluster,
                s.shortcuts,
                s.app.cores(),
                s.app.flows().len()
            )?;
            for f in s.app.flows() {
                write!(out, " {} {} {}", f.src, f.dst, Bits(f.rate))?;
            }
            Ok(())
        }
        Scenario::WsnLifetime(s) => {
            write!(out, "wsn {} {} ", s.nodes, Bits(s.side))?;
            match s.protocol {
                Protocol::Direct => out.push_str("direct"),
                Protocol::Tree {
                    radio_range,
                    aggregate,
                } => write!(out, "tree {} {}", Bits(radio_range), flag(aggregate))?,
                Protocol::Cluster { p, aggregate } => {
                    write!(out, "cluster {} {}", Bits(p), flag(aggregate))?;
                }
            }
            write!(out, " {} {} {}", Bits(s.failure_rate), s.max_rounds, s.seed)?;
            // Optional suffix: `None` reproduces the historical record
            // bytes exactly, keeping committed manifests valid.
            if let Some(assignment) = &s.policies {
                out.push_str(" policies ");
                encode_assignment(assignment, out)?;
            }
            Ok(())
        }
        Scenario::Harvest(s) => {
            out.push_str("harvest ");
            encode_policy(&s.policy, out)?;
            write!(out, " {} {} {}", s.days, Bits(s.cloudiness), s.seed)
        }
        Scenario::Knockout(s) => {
            match s.model {
                GrnModel::THelper => out.push_str("grn thelper"),
                GrnModel::Arabidopsis { whorl } => write!(out, "grn arabidopsis {whorl}")?,
            }
            match &s.knockout {
                None => out.push_str(" wild"),
                Some(gene) => {
                    out.push_str(" ko ");
                    encode_str(gene, out)?;
                }
            }
            Ok(())
        }
    }
}

/// Decodes one scenario record produced by [`encode_scenario`].
///
/// The decoder rejects what [`Scenario::validate`] rejects, with an error
/// that names the field: it tokenizes the record, builds a NoC graph with
/// [`CommGraph::try_new`], and then calls the validator once.
pub fn decode_scenario(record: &str) -> Result<Scenario, String> {
    let mut t = Tokens::new(record);
    let scenario = match t.next()? {
        "fluidics" => Scenario::FluidicsCompile(FluidicsScenario {
            assay: decode_assay_kind(&mut t)?,
            plex: t.usize()?,
            grid_side: t.i32()?,
            dead_fraction: t.f64()?,
            fault_seed: t.u64()?,
        }),
        "labchip" => Scenario::LabChip(LabChipScenario {
            assay: decode_assay_kind(&mut t)?,
            seed: t.u64()?,
            samples_per_run: t.usize()?,
            dead_fraction: t.f64()?,
            fault_seed: t.u64()?,
        }),
        "noc" => {
            let max_cluster = t.usize()?;
            let shortcuts = t.usize()?;
            let cores = t.usize()?;
            let nflows = t.usize()?;
            let mut flows = Vec::with_capacity(nflows.min(DECODE_CAPACITY_CAP));
            for _ in 0..nflows {
                flows.push(Flow {
                    src: t.usize()?,
                    dst: t.usize()?,
                    rate: t.f64()?,
                });
            }
            Scenario::NocPoint(NocScenario {
                app: CommGraph::try_new(cores, flows).map_err(|e| format!("noc {e}"))?,
                max_cluster,
                shortcuts,
            })
        }
        "wsn" => Scenario::WsnLifetime(WsnScenario {
            nodes: t.usize()?,
            side: t.f64()?,
            protocol: match t.next()? {
                "direct" => Protocol::Direct,
                "tree" => Protocol::Tree {
                    radio_range: t.f64()?,
                    aggregate: t.bool()?,
                },
                "cluster" => Protocol::Cluster {
                    p: t.f64()?,
                    aggregate: t.bool()?,
                },
                p => return Err(format!("unknown wsn protocol `{p}`")),
            },
            failure_rate: t.f64()?,
            max_rounds: t.u64()?,
            seed: t.u64()?,
            policies: match t.opt_next() {
                None => None,
                Some("policies") => Some(decode_assignment(&mut t)?),
                Some(tok) => return Err(format!("trailing token `{tok}`")),
            },
        }),
        "harvest" => Scenario::Harvest(HarvestScenario {
            policy: decode_policy(&mut t, 0)?,
            days: t.u32()?,
            cloudiness: t.f64()?,
            seed: t.u64()?,
        }),
        "grn" => Scenario::Knockout(KnockoutScenario {
            model: match t.next()? {
                "thelper" => GrnModel::THelper,
                "arabidopsis" => GrnModel::Arabidopsis { whorl: t.usize()? },
                m => return Err(format!("unknown grn model `{m}`")),
            },
            knockout: match t.next()? {
                "wild" => None,
                "ko" => Some(t.string()?),
                k => return Err(format!("unknown knockout tag `{k}`")),
            },
        }),
        tag => return Err(format!("unknown scenario tag `{tag}`")),
    };
    t.done()?;
    scenario.validate()?;
    Ok(scenario)
}

/// Encodes one outcome as a single self-describing record (no newline).
pub fn encode_outcome(outcome: &ScenarioOutcome) -> String {
    match outcome {
        ScenarioOutcome::Fluidics {
            compiled,
            makespan,
            moves,
            stalls,
            energy,
            reroutes,
            abandoned,
        } => format!(
            "fluidics {} {makespan} {moves} {stalls} {energy} {reroutes} {abandoned}",
            flag(*compiled)
        ),
        ScenarioOutcome::LabChip {
            ok,
            makespan,
            energy,
            sensing_error,
            biclusters,
            recovery,
            relevance,
            samples_dropped,
        } => format!(
            "labchip {} {makespan} {energy} {} {biclusters} {} {} {samples_dropped}",
            flag(*ok),
            Bits(*sensing_error),
            Bits(*recovery),
            Bits(*relevance)
        ),
        ScenarioOutcome::Noc {
            feasible,
            weighted_hops,
            energy,
            area,
            deadlock_free,
        } => format!(
            "noc {} {} {} {} {}",
            flag(*feasible),
            Bits(*weighted_hops),
            Bits(*energy),
            Bits(*area),
            flag(*deadlock_free)
        ),
        ScenarioOutcome::Wsn {
            first_death,
            half_death,
            rounds,
            sensed,
            delivered,
            avg_coverage,
            energy_spent,
        } => format!(
            "wsn {first_death} {half_death} {rounds} {sensed} {delivered} {} {}",
            Bits(*avg_coverage),
            Bits(*energy_spent)
        ),
        ScenarioOutcome::Harvest {
            work,
            dead_slots,
            total_slots,
            wasted,
            harvested,
            final_battery,
        } => format!(
            "harvest {} {dead_slots} {total_slots} {} {} {}",
            Bits(*work),
            Bits(*wasted),
            Bits(*harvested),
            Bits(*final_battery)
        ),
        ScenarioOutcome::Knockout {
            fixed_points,
            annotation,
        } => {
            let mut out = format!("grn {}", fixed_points.len());
            for fp in fixed_points {
                out.push_str(&format!(" {fp}"));
            }
            out.push(' ');
            out.push_str(&hex_str(annotation));
            out
        }
    }
}

/// Decodes one outcome record produced by [`encode_outcome`].
pub fn decode_outcome(record: &str) -> Result<ScenarioOutcome, String> {
    let mut t = Tokens::new(record);
    let outcome = match t.next()? {
        "fluidics" => ScenarioOutcome::Fluidics {
            compiled: t.bool()?,
            makespan: t.u32()?,
            moves: t.u32()?,
            stalls: t.u32()?,
            energy: t.u64()?,
            reroutes: t.u32()?,
            abandoned: t.u32()?,
        },
        "labchip" => ScenarioOutcome::LabChip {
            ok: t.bool()?,
            makespan: t.u32()?,
            energy: t.u64()?,
            sensing_error: t.f64()?,
            biclusters: t.usize()?,
            recovery: t.f64()?,
            relevance: t.f64()?,
            samples_dropped: t.usize()?,
        },
        "noc" => ScenarioOutcome::Noc {
            feasible: t.bool()?,
            weighted_hops: t.f64()?,
            energy: t.f64()?,
            area: t.f64()?,
            deadlock_free: t.bool()?,
        },
        "wsn" => ScenarioOutcome::Wsn {
            first_death: t.u64()?,
            half_death: t.u64()?,
            rounds: t.u64()?,
            sensed: t.u64()?,
            delivered: t.u64()?,
            avg_coverage: t.f64()?,
            energy_spent: t.f64()?,
        },
        "harvest" => ScenarioOutcome::Harvest {
            work: t.f64()?,
            dead_slots: t.u64()?,
            total_slots: t.u64()?,
            wasted: t.f64()?,
            harvested: t.f64()?,
            final_battery: t.f64()?,
        },
        "grn" => {
            let n = t.usize()?;
            let mut fixed_points = Vec::with_capacity(n.min(DECODE_CAPACITY_CAP));
            for _ in 0..n {
                fixed_points.push(t.u64()?);
            }
            ScenarioOutcome::Knockout {
                fixed_points,
                annotation: t.string()?,
            }
        }
        tag => return Err(format!("unknown outcome tag `{tag}`")),
    };
    t.done()?;
    Ok(outcome)
}

/// Renders a shard manifest: header, `#shard` line, then one
/// `<global index> <scenario record>` line per entry.
pub fn write_manifest(shard: ShardId, entries: &[(usize, &Scenario)]) -> String {
    let mut out = format!("{MANIFEST_HEADER}\n#shard {}\n", shard.0);
    for (index, scenario) in entries {
        out.push_str(&format!("{index} {}\n", encode_scenario(scenario)));
    }
    out
}

/// Parses a shard manifest back into `(shard, [(global index, scenario)])`.
pub fn parse_manifest(text: &str) -> Result<(ShardId, Vec<(usize, Scenario)>), ManifestError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(0, "empty manifest"))?;
    if header != MANIFEST_HEADER {
        return Err(err(1, format!("bad header `{header}`")));
    }
    let mut shard = None;
    let mut entries = Vec::new();
    for (i, line) in lines {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("#shard ") {
            let id = rest
                .trim()
                .parse()
                .map_err(|_| err(lineno, format!("bad shard id `{rest}`")))?;
            shard = Some(ShardId(id));
            continue;
        }
        if line.starts_with('#') {
            continue; // future extension lines
        }
        let (index, record) = line
            .split_once(' ')
            .ok_or_else(|| err(lineno, "want `<index> <record>`"))?;
        let index = index
            .parse()
            .map_err(|_| err(lineno, format!("bad index `{index}`")))?;
        let scenario = decode_scenario(record).map_err(|m| err(lineno, m))?;
        entries.push((index, scenario));
    }
    let shard = shard.ok_or_else(|| err(0, "missing #shard line"))?;
    Ok((shard, entries))
}

/// Renders a shard outcome file: header, `#shard`, a `#stats` line with
/// the layout-independent counters, one `#worker` line per worker row,
/// then one `<global index> <outcome record>` line per outcome.
pub fn write_outcomes(stats: &BatchStats, entries: &[(usize, ScenarioOutcome)]) -> String {
    let mut out = format!("{OUTCOMES_HEADER}\n#shard {}\n", stats.shard.0);
    out.push_str(&format!(
        "#stats {} {} {} {} {}\n",
        stats.scenarios, stats.executed, stats.cache_hits, stats.deduped, stats.steals
    ));
    for w in &stats.per_worker {
        out.push_str(&format!(
            "#worker {} {} {} {}\n",
            w.shard.0, w.worker, w.executed, w.steals
        ));
    }
    for (index, outcome) in entries {
        out.push_str(&format!("{index} {}\n", encode_outcome(outcome)));
    }
    out
}

/// Parses a shard outcome file back into its stats and
/// `(global index, outcome)` pairs.
pub fn parse_outcomes(
    text: &str,
) -> Result<(BatchStats, Vec<(usize, ScenarioOutcome)>), ManifestError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(0, "empty outcome file"))?;
    if header != OUTCOMES_HEADER {
        return Err(err(1, format!("bad header `{header}`")));
    }
    let mut stats = BatchStats::default();
    let mut saw_stats = false;
    let mut entries = Vec::new();
    for (i, line) in lines {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("#shard ") {
            let id = rest
                .trim()
                .parse()
                .map_err(|_| err(lineno, format!("bad shard id `{rest}`")))?;
            stats.shard = ShardId(id);
            continue;
        }
        if let Some(rest) = line.strip_prefix("#stats ") {
            let mut t = Tokens::new(rest);
            let parsed: Result<_, String> = (|| {
                let scenarios = t.u64()?;
                let executed = t.u64()?;
                let cache_hits = t.u64()?;
                let deduped = t.u64()?;
                let steals = t.u64()?;
                t.done()?;
                Ok((scenarios, executed, cache_hits, deduped, steals))
            })();
            let (scenarios, executed, cache_hits, deduped, steals) =
                parsed.map_err(|m| err(lineno, m))?;
            stats.scenarios = scenarios;
            stats.executed = executed;
            stats.cache_hits = cache_hits;
            stats.deduped = deduped;
            stats.steals = steals;
            saw_stats = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("#worker ") {
            let mut t = Tokens::new(rest);
            let parsed: Result<WorkerBatchStats, String> = (|| {
                let row = WorkerBatchStats {
                    shard: ShardId(t.u32()?),
                    worker: t.u32()?,
                    executed: t.u64()?,
                    steals: t.u64()?,
                };
                t.done()?;
                Ok(row)
            })();
            stats.per_worker.push(parsed.map_err(|m| err(lineno, m))?);
            continue;
        }
        if line.starts_with('#') {
            continue; // future extension lines
        }
        let (index, record) = line
            .split_once(' ')
            .ok_or_else(|| err(lineno, "want `<index> <record>`"))?;
        let index = index
            .parse()
            .map_err(|_| err(lineno, format!("bad index `{index}`")))?;
        let outcome = decode_outcome(record).map_err(|m| err(lineno, m))?;
        entries.push((index, outcome));
    }
    if !saw_stats {
        return Err(err(0, "missing #stats line"));
    }
    Ok((stats, entries))
}

/// Largest payload [`read_frame`] accepts (64 MiB): a corrupted or
/// hostile length prefix cannot force an arbitrary allocation.
pub const FRAME_MAX: usize = 64 << 20;

/// Writes `payload` as one length-prefixed frame: a 4-byte big-endian
/// length followed by the raw bytes. The framing is transport plumbing
/// only — the payload stays the exact line-oriented wire text, so the
/// manifest format itself is unchanged and version-gated by its header
/// line as before.
///
/// # Errors
///
/// Fails if `payload` exceeds [`FRAME_MAX`] or on writer I/O errors.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds FRAME_MAX", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).expect("FRAME_MAX fits in u32");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame written by [`write_frame`].
///
/// # Errors
///
/// Fails with [`io::ErrorKind::UnexpectedEof`] on a truncated prefix or
/// payload, [`io::ErrorKind::InvalidData`] on a length above
/// [`FRAME_MAX`], and passes reader I/O errors through.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds FRAME_MAX"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::conformance_corpus;

    #[test]
    fn corpus_scenarios_round_trip_by_fingerprint() {
        for scenario in conformance_corpus(42) {
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(
                scenario.fingerprint(),
                decoded.fingerprint(),
                "fingerprint drift through `{encoded}`"
            );
            assert_eq!(scenario, decoded);
        }
    }

    #[test]
    fn corpus_outcomes_round_trip_by_digest() {
        let corpus = conformance_corpus(42);
        let outcomes = crate::runner::Runner::serial().run(&corpus).outcomes;
        for outcome in outcomes {
            let encoded = encode_outcome(&outcome);
            let decoded = decode_outcome(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(
                outcome.digest(),
                decoded.digest(),
                "digest drift through `{encoded}`"
            );
        }
    }

    /// Every [`AssayKind`] variant with representative shape knobs.
    fn assay_kinds() -> Vec<AssayKind> {
        vec![
            AssayKind::Multiplex,
            AssayKind::SerialDilution,
            AssayKind::Washing { wash_steps: 0 },
            AssayKind::Washing { wash_steps: 3 },
            AssayKind::MixingTree { fanin: 2 },
            AssayKind::MixingTree { fanin: 4 },
            AssayKind::DilutionGradient,
        ]
    }

    #[test]
    fn every_assay_kind_round_trips_in_fluidics_records() {
        for kind in assay_kinds() {
            let scenario = Scenario::FluidicsCompile(FluidicsScenario {
                assay: kind,
                plex: 3,
                grid_side: 16,
                dead_fraction: 0.04,
                fault_seed: 11,
            });
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(scenario, decoded, "value drift through `{encoded}`");
            assert_eq!(scenario.fingerprint(), decoded.fingerprint());
            // Byte-identity: re-encoding the decoded scenario reproduces
            // the exact wire bytes, 16-hex float pattern included.
            assert_eq!(encoded, encode_scenario(&decoded));
        }
    }

    #[test]
    fn every_assay_kind_round_trips_in_labchip_records() {
        for kind in assay_kinds() {
            let scenario = Scenario::LabChip(LabChipScenario {
                assay: kind,
                seed: 42,
                samples_per_run: 2,
                dead_fraction: 0.05,
                fault_seed: 7,
            });
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(scenario, decoded, "value drift through `{encoded}`");
            assert_eq!(scenario.fingerprint(), decoded.fingerprint());
            assert_eq!(encoded, encode_scenario(&decoded));
        }
    }

    #[test]
    fn assay_kind_tokens_are_stable_and_rejections_clean() {
        // The kind token is part of the wire contract — a rename would
        // silently orphan committed manifests.
        let enc = |k| {
            let mut out = String::new();
            encode_assay_kind(k, &mut out).expect("String write");
            out
        };
        assert_eq!(enc(AssayKind::Multiplex), "multiplex");
        assert_eq!(enc(AssayKind::SerialDilution), "dilution");
        assert_eq!(enc(AssayKind::Washing { wash_steps: 2 }), "wash 2");
        assert_eq!(enc(AssayKind::MixingTree { fanin: 3 }), "mixtree 3");
        assert_eq!(enc(AssayKind::DilutionGradient), "gradient");
        assert!(decode_scenario("fluidics martian 1 16 0000000000000000 0").is_err());
        assert!(
            decode_scenario("fluidics wash 1 16 0000000000000000 0").is_err(),
            "wash eats its steps token, leaving the record truncated"
        );
    }

    #[test]
    fn floats_round_trip_exactly_including_nan() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let encoded = Bits(v).to_string();
            let mut t = Tokens::new(&encoded);
            let back = t.f64().expect("bits parse");
            assert_eq!(v.to_bits(), back.to_bits(), "bits drift for {v}");
        }
    }

    #[test]
    fn strings_round_trip_including_empty_and_spaces() {
        for s in ["", "GATA3", "two words", "β-catenin"] {
            let encoded = hex_str(s);
            let mut t = Tokens::new(&encoded);
            assert_eq!(t.string().expect("string parse"), s);
        }
    }

    #[test]
    fn manifest_round_trips() {
        let corpus = conformance_corpus(42);
        let entries: Vec<(usize, &Scenario)> =
            corpus.iter().enumerate().map(|(i, s)| (i * 3, s)).collect();
        let text = write_manifest(ShardId(5), &entries);
        let (shard, parsed) = parse_manifest(&text).expect("manifest parses");
        assert_eq!(shard, ShardId(5));
        assert_eq!(parsed.len(), entries.len());
        for ((i0, s0), (i1, s1)) in entries.iter().zip(&parsed) {
            assert_eq!(i0, i1);
            assert_eq!(*s0, s1);
        }
    }

    #[test]
    fn outcome_file_round_trips() {
        let corpus = conformance_corpus(42);
        let report = crate::runner::Runner::serial().run(&corpus);
        let mut stats = report.stats.clone();
        stats.shard = ShardId(3);
        for w in &mut stats.per_worker {
            w.shard = ShardId(3);
        }
        let entries: Vec<(usize, ScenarioOutcome)> =
            report.outcomes.into_iter().enumerate().collect();
        let text = write_outcomes(&stats, &entries);
        let (back_stats, back) = parse_outcomes(&text).expect("outcome file parses");
        assert_eq!(back_stats, stats);
        assert_eq!(back.len(), entries.len());
        for ((i0, o0), (i1, o1)) in entries.iter().zip(&back) {
            assert_eq!(i0, i1);
            assert_eq!(o0.digest(), o1.digest());
        }
    }

    #[test]
    fn truncated_or_corrupt_records_are_rejected() {
        assert!(parse_manifest("").is_err());
        assert!(parse_manifest("# wrong header\n#shard 0\n").is_err());
        assert!(parse_manifest(&format!("{MANIFEST_HEADER}\n0 fluidics 1\n")).is_err());
        assert!(decode_scenario("fluidics 1 16 0000000000000000 0 extra").is_err());
        assert!(decode_scenario("martian 1 2 3").is_err());
        assert!(decode_outcome("grn 2 5").is_err(), "truncated fixed points");
        assert!(parse_outcomes(&format!("{OUTCOMES_HEADER}\n#shard 0\n")).is_err());
    }

    // Each case below used to reach a panic (string-slice char split,
    // capacity overflow, `CommGraph::new` assertion); parsing must now
    // return an error for all of them. `tests/manifest_fuzz.rs` sweeps
    // the same surface with random mutations.
    #[test]
    fn adversarial_records_error_instead_of_panicking() {
        // Multibyte characters inside a string token: byte-slicing by
        // hex-pair index would split the char and panic.
        assert!(decode_scenario("grn thelper ko x€€").is_err());
        assert!(decode_scenario("grn thelper ko xβ4").is_err());
        // Untrusted element counts must not drive pre-allocation.
        assert!(decode_outcome("grn 18446744073709551615 x").is_err());
        assert!(decode_scenario("noc 1 1 4 18446744073709551615").is_err());
        // Flow invariants `CommGraph::new` would assert on.
        let rate = Bits(1.0);
        assert!(decode_scenario(&format!("noc 1 1 2 1 0 5 {rate}")).is_err());
        assert!(decode_scenario(&format!("noc 1 1 2 1 0 0 {rate}")).is_err());
        let zero = Bits(0.0);
        assert!(decode_scenario(&format!("noc 1 1 2 1 0 1 {zero}")).is_err());
        let nan = Bits(f64::NAN);
        assert!(decode_scenario(&format!("noc 1 1 2 1 0 1 {nan}")).is_err());
        // A healthy noc record still decodes.
        let ok = format!("noc 1 1 2 1 0 1 {rate}");
        assert!(decode_scenario(&ok).is_ok());
        // Records that parse token by token but carry a value
        // `Scenario::run` cannot take; each error names the field. All
        // of them panicked there except the NaN and negative failure
        // rates, which ran as rate 0, the head probability of 0, which
        // ran with no heads, the infinite side, on which `Field::random`
        // never returned, and the tree radio ranges, cloudiness values,
        // dead fractions and scales of 0, which ran silently (a NaN or
        // negative dead fraction as no fault under the fault-free label,
        // 1.5 as every electrode dead, a scale of 0 as 1).
        let knockout = |model, gene: Option<&str>| {
            Scenario::Knockout(KnockoutScenario {
                model,
                knockout: gene.map(str::to_owned),
            })
        };
        let fluidics = |plex, grid_side, dead_fraction| {
            Scenario::FluidicsCompile(FluidicsScenario {
                assay: AssayKind::Multiplex,
                plex,
                grid_side,
                dead_fraction,
                fault_seed: 0,
            })
        };
        let grid = |grid_side| fluidics(2, grid_side, 0.0);
        let dead = |dead_fraction| fluidics(2, 16, dead_fraction);
        let labchip = |samples_per_run, dead_fraction| {
            Scenario::LabChip(LabChipScenario {
                assay: AssayKind::Multiplex,
                seed: 1,
                samples_per_run,
                dead_fraction,
                fault_seed: 0,
            })
        };
        let wsn = |nodes, side, failure_rate| {
            Scenario::WsnLifetime(WsnScenario {
                nodes,
                side,
                protocol: Protocol::Direct,
                failure_rate,
                max_rounds: 20,
                seed: 1,
                policies: None,
            })
        };
        let protocol = |protocol| {
            Scenario::WsnLifetime(WsnScenario {
                nodes: 20,
                side: 90.0,
                protocol,
                failure_rate: 0.0,
                max_rounds: 20,
                seed: 1,
                policies: None,
            })
        };
        let cluster = |p| protocol(Protocol::Cluster { p, aggregate: true });
        let tree = |radio_range| {
            protocol(Protocol::Tree {
                radio_range,
                aggregate: true,
            })
        };
        let harvest = |days, cloudiness| {
            Scenario::Harvest(HarvestScenario {
                policy: PolicyExpr::Fixed(0.3),
                days,
                cloudiness,
                seed: 1,
            })
        };
        let invalid = [
            (knockout(GrnModel::Arabidopsis { whorl: 4 }, None), "whorl"),
            (knockout(GrnModel::THelper, Some("NOPE")), "gene"),
            (
                knockout(GrnModel::Arabidopsis { whorl: 1 }, Some("GATA3")),
                "gene",
            ),
            (grid(0), "grid_side"),
            (grid(-3), "grid_side"),
            (grid(1), "grid_side"),
            (grid(2), "grid_side"),
            (dead(f64::NAN), "dead_fraction"),
            (dead(-1.0), "dead_fraction"),
            (dead(1.5), "dead_fraction"),
            (labchip(2, f64::NAN), "dead_fraction"),
            (labchip(2, -1.0), "dead_fraction"),
            (labchip(2, 1.5), "dead_fraction"),
            (labchip(0, 0.0), "samples_per_run"),
            (fluidics(0, 16, 0.0), "plex"),
            (
                Scenario::NocPoint(NocScenario {
                    app: CommGraph::hotspot(9, 1.0),
                    max_cluster: 0,
                    shortcuts: 1,
                }),
                "max_cluster",
            ),
            (wsn(0, 90.0, 0.0), "nodes"),
            (wsn(20, f64::NAN, 0.0), "side"),
            (wsn(20, 0.0, 0.0), "side"),
            (wsn(20, -5.0, 0.0), "side"),
            (wsn(20, f64::INFINITY, 0.0), "side"),
            (cluster(f64::NAN), "head probability"),
            (cluster(0.0), "head probability"),
            (cluster(-0.1), "head probability"),
            (cluster(2.0), "head probability"),
            (wsn(20, 90.0, f64::NAN), "failure_rate"),
            (wsn(20, 90.0, -0.1), "failure_rate"),
            (wsn(20, 90.0, 2.0), "failure_rate"),
            (tree(f64::NAN), "radio_range"),
            (tree(-1.0), "radio_range"),
            (tree(0.0), "radio_range"),
            (tree(f64::INFINITY), "radio_range"),
            (harvest(0, 0.4), "days"),
            (harvest(1, f64::NAN), "cloudiness"),
            (harvest(1, -0.1), "cloudiness"),
            (harvest(1, 2.0), "cloudiness"),
        ];
        for (scenario, field) in invalid {
            let record = encode_scenario(&scenario);
            let error = decode_scenario(&record).expect_err(&record);
            assert!(error.contains(field), "`{record}`: {error}");
        }
        // A NoC graph with no cores cannot be built in memory, so its
        // record is written by hand.
        let error = decode_scenario("noc 1 1 0 0").unwrap_err();
        assert!(error.contains("cores"), "{error}");
        // The bounds themselves decode: every electrode dead, scale 1.
        assert!(decode_scenario(&encode_scenario(&dead(1.0))).is_ok());
        assert!(decode_scenario(&encode_scenario(&labchip(1, 1.0))).is_ok());
        assert!(decode_scenario(&encode_scenario(&fluidics(1, 16, 0.0))).is_ok());
        // A knockout of a gene the model has still decodes.
        let ko = encode_scenario(&knockout(GrnModel::THelper, Some("GATA3")));
        assert!(decode_scenario(&ko).is_ok());
    }

    /// Representative policy expressions, primitives through deep
    /// compositions.
    fn policy_exprs() -> Vec<PolicyExpr> {
        vec![
            PolicyExpr::Fixed(0.3),
            PolicyExpr::Greedy {
                threshold: 0.3,
                duty_high: 0.9,
                duty_low: 0.05,
            },
            PolicyExpr::EnergyNeutral { alpha: 0.01 },
            PolicyExpr::Forecast { alpha: 0.2 },
            PolicyExpr::Derate {
                inner: Box::new(PolicyExpr::Forecast { alpha: 0.2 }),
                fade: 0.05,
                floor: 0.5,
            },
            PolicyExpr::Hysteresis {
                low: 0.25,
                high: 0.6,
                on: Box::new(PolicyExpr::EnergyNeutral { alpha: 0.01 }),
                off: Box::new(PolicyExpr::Fixed(0.05)),
            },
            PolicyExpr::Scheduled {
                pieces: vec![
                    (0, PolicyExpr::Fixed(0.8)),
                    (
                        4,
                        PolicyExpr::Clamp {
                            inner: Box::new(PolicyExpr::EnergyNeutral { alpha: 0.05 }),
                            lo: 0.05,
                            hi: 0.9,
                        },
                    ),
                ],
            },
        ]
    }

    #[test]
    fn every_policy_expr_round_trips_byte_identically() {
        for policy in policy_exprs() {
            let scenario = Scenario::Harvest(HarvestScenario {
                policy,
                days: 10,
                cloudiness: 0.4,
                seed: 42,
            });
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(scenario, decoded, "value drift through `{encoded}`");
            assert_eq!(scenario.fingerprint(), decoded.fingerprint());
            assert_eq!(encoded, encode_scenario(&decoded));
        }
    }

    #[test]
    fn wsn_policy_assignments_round_trip_byte_identically() {
        for policies in [
            None,
            Some(PolicyAssignment::Uniform(PolicyExpr::Fixed(0.5))),
            Some(PolicyAssignment::RoundRobin(policy_exprs())),
        ] {
            let scenario = Scenario::WsnLifetime(WsnScenario {
                nodes: 40,
                side: 100.0,
                protocol: Protocol::cluster(0.1, true),
                failure_rate: 0.0,
                max_rounds: 300,
                seed: 7,
                policies,
            });
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(scenario, decoded, "value drift through `{encoded}`");
            assert_eq!(scenario.fingerprint(), decoded.fingerprint());
            assert_eq!(encoded, encode_scenario(&decoded));
        }
    }

    #[test]
    fn historical_harvest_tokens_are_unchanged() {
        // The primitive wire tokens predate the policy engine; committed
        // manifests depend on these exact bytes.
        let enc = |p: &PolicyExpr| {
            let mut out = String::new();
            encode_policy(p, &mut out).expect("String write");
            out
        };
        assert_eq!(enc(&PolicyExpr::Fixed(0.3)), format!("fixed {}", Bits(0.3)));
        assert_eq!(
            enc(&PolicyExpr::Greedy {
                threshold: 0.3,
                duty_high: 0.9,
                duty_low: 0.05
            }),
            format!("greedy {} {} {}", Bits(0.3), Bits(0.9), Bits(0.05))
        );
        assert_eq!(
            enc(&PolicyExpr::EnergyNeutral { alpha: 0.01 }),
            format!("neutral {}", Bits(0.01))
        );
    }

    #[test]
    fn adversarial_policy_records_error_instead_of_panicking() {
        let b = Bits(0.5);
        // Unknown combinator.
        assert!(decode_scenario(&format!("harvest warp {b} 10 {b} 1")).is_err());
        // Out-of-range / non-finite parameters are rejected at the
        // parse boundary, not silently clamped mid-simulation.
        let nan = Bits(f64::NAN);
        assert!(decode_scenario(&format!("harvest fixed {nan} 10 {b} 1")).is_err());
        let two = Bits(2.0);
        assert!(decode_scenario(&format!("harvest fixed {two} 10 {b} 1")).is_err());
        let zero = Bits(0.0);
        assert!(decode_scenario(&format!("harvest neutral {zero} 10 {b} 1")).is_err());
        // Malformed schedules.
        assert!(
            decode_scenario(&format!("harvest sched 0 10 {b} 1")).is_err(),
            "empty schedule"
        );
        assert!(
            decode_scenario(&format!("harvest sched 2 0 fixed {b} 0 fixed {b} 10 {b} 1")).is_err(),
            "non-increasing starts"
        );
        // Untrusted piece counts must not drive pre-allocation.
        assert!(decode_scenario("harvest sched 18446744073709551615 x").is_err());
        // Nesting beyond MAX_POLICY_DEPTH fails during parsing — before
        // recursion can threaten the stack.
        let mut deep = String::new();
        for _ in 0..64 {
            deep.push_str(&format!("clamp {zero} {b} "));
        }
        deep.push_str(&format!("fixed {b}"));
        assert!(decode_scenario(&format!("harvest {deep} 10 {b} 1")).is_err());
        // Truncated inner policy.
        assert!(decode_scenario(&format!("harvest derate {b} {b} 10 {b} 1")).is_err());
        // Bad wsn assignment suffixes.
        let side = Bits(100.0);
        assert!(decode_scenario(&format!(
            "wsn 10 {side} direct {zero} 100 1 policies solo fixed {b}"
        ))
        .is_err());
        assert!(
            decode_scenario(&format!("wsn 10 {side} direct {zero} 100 1 policies mix 0")).is_err()
        );
        assert!(decode_scenario(&format!("wsn 10 {side} direct {zero} 100 1 junk")).is_err());
        // Healthy composed records still decode.
        assert!(decode_scenario(&format!(
            "harvest hyst {} {} neutral {} fixed {} 10 {b} 1",
            Bits(0.25),
            Bits(0.6),
            Bits(0.01),
            Bits(0.05)
        ))
        .is_ok());
        assert!(decode_scenario(&format!(
            "wsn 10 {side} direct {zero} 100 1 policies uniform fixed {b}"
        ))
        .is_ok());
    }

    #[test]
    fn frames_round_trip_and_reject_truncation() {
        let payload = write_manifest(ShardId(1), &[]);
        let mut buf = Vec::new();
        write_frame(&mut buf, payload.as_bytes()).expect("frame writes");
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor).expect("frame reads"),
            payload.as_bytes()
        );
        // Truncated payload and truncated prefix both fail cleanly.
        let mut short = &buf[..buf.len() - 1];
        assert_eq!(
            read_frame(&mut short).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        let mut tiny = &buf[..2];
        assert_eq!(
            read_frame(&mut tiny).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // A hostile length prefix is bounded by FRAME_MAX.
        let huge = u32::MAX.to_be_bytes();
        let mut hostile = &huge[..];
        assert_eq!(
            read_frame(&mut hostile).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Oversize writes are refused before touching the writer.
        let big = vec![0u8; FRAME_MAX + 1];
        assert!(write_frame(&mut Vec::new(), &big).is_err());
    }
}
