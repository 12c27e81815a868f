//! Profile exporters: Chrome trace JSON, flamegraph folded stacks, and
//! the plain-text metrics snapshot (see
//! [`MetricsSnapshot::to_text`](crate::MetricsSnapshot::to_text)).
//!
//! * [`chrome_trace`] emits the Trace Event Format (`B`/`E` duration
//!   events) loadable by `chrome://tracing` / Perfetto. Each telemetry
//!   track becomes one Chrome `tid`, so scenarios line up as lanes.
//! * [`folded_stacks`] emits `stack;frames value` lines consumable by
//!   `flamegraph.pl` / inferno, valued by span *self time*.
//! * [`validate_chrome_trace`] re-parses an exported trace with the
//!   built-in JSON reader and checks begin/end pairing — the CI smoke
//!   gate for exporter drift.

use std::collections::BTreeMap;

use crate::json;
use crate::span::{SpanNode, Trace, UNTRACKED};

/// Chrome `tid` for a telemetry track (tid 0 is the untracked lane).
fn tid_of(track: u64) -> u64 {
    if track == UNTRACKED {
        0
    } else {
        track.saturating_add(1)
    }
}

fn push_event(out: &mut String, name: &str, phase: char, ts_ns: u64, tid: u64) {
    out.push_str("  {\"name\":\"");
    json::escape_into(name, out);
    // Trace-event timestamps are microseconds; keep nanosecond
    // resolution with a fractional part.
    out.push_str(&format!(
        "\",\"cat\":\"mns\",\"ph\":\"{phase}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{tid}}}",
        ts_ns / 1_000,
        ts_ns % 1_000
    ));
}

fn chrome_events(node: &SpanNode, tid: u64, first: &mut bool, out: &mut String) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    push_event(out, node.name, 'B', node.start_ns, tid);
    for c in &node.children {
        chrome_events(c, tid, first, out);
    }
    out.push_str(",\n");
    push_event(out, node.name, 'E', node.end_ns, tid);
}

/// Renders the trace in Chrome Trace Event Format (a JSON array of
/// `B`/`E` duration events). Load the output in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for root in &trace.roots {
        chrome_events(root, tid_of(root.track), &mut first, &mut out);
    }
    out.push_str("\n]\n");
    out
}

fn fold_into(node: &SpanNode, prefix: &str, acc: &mut BTreeMap<String, u64>) {
    let path = if prefix.is_empty() {
        node.name.to_owned()
    } else {
        format!("{prefix};{}", node.name)
    };
    *acc.entry(path.clone()).or_insert(0) += node.self_ns();
    for c in &node.children {
        fold_into(c, &path, acc);
    }
}

/// Renders the trace as flamegraph folded stacks: one
/// `frame;frame;frame value` line per distinct stack, valued by summed
/// self time in clock nanoseconds, sorted by stack. Identical stacks
/// from different tracks aggregate, which is what a flamegraph wants.
pub fn folded_stacks(trace: &Trace) -> String {
    let mut acc: BTreeMap<String, u64> = BTreeMap::new();
    for root in &trace.roots {
        fold_into(root, "", &mut acc);
    }
    let mut out = String::new();
    for (stack, value) in acc {
        out.push_str(&format!("{stack} {value}\n"));
    }
    out
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events in the file.
    pub events: usize,
    /// Matched begin/end pairs (spans).
    pub spans: usize,
    /// Distinct `tid` lanes seen.
    pub tracks: usize,
}

/// Parses an exported Chrome trace and verifies it: the document is a
/// JSON array; every event has `name`/`cat`/`ph`/`ts`/`pid`/`tid`; and
/// per `tid` the `B`/`E` events pair up LIFO with matching names and
/// non-decreasing timestamps — i.e. spans nest properly.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc.as_array().ok_or("trace is not a JSON array")?;
    let mut stacks: BTreeMap<u64, Vec<(String, f64)>> = BTreeMap::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| format!("event {i}: missing `{key}`"))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: `name` is not a string"))?;
        field("cat")?;
        field("pid")?;
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: `ph` is not a string"))?;
        let ts = field("ts")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: `ts` is not a number"))?;
        let tid = field("tid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: `tid` is not a number"))? as u64;
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push((name.to_owned(), ts)),
            "E" => {
                let (open_name, open_ts) = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: `E` for `{name}` with no open span"))?;
                if open_name != name {
                    return Err(format!(
                        "event {i}: `E` for `{name}` but `{open_name}` is open (bad nesting)"
                    ));
                }
                if ts < open_ts {
                    return Err(format!("event {i}: span `{name}` ends before it starts"));
                }
                spans += 1;
            }
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("tid {tid}: span `{name}` never ends"));
        }
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        spans,
        tracks: stacks.len(),
    })
}

/// Convenience: checks that every folded line is `stack value` with a
/// parseable value, returning the line count.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate_folded(text: &str) -> Result<usize, String> {
    for (i, line) in text.lines().enumerate() {
        let Some((stack, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no value field in `{line}`", i + 1));
        };
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty frame in `{line}`", i + 1));
        }
        if value.parse::<u64>().is_err() {
            return Err(format!("line {}: bad value in `{line}`", i + 1));
        }
    }
    Ok(text.lines().count())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            roots: vec![
                SpanNode {
                    name: "scenario.noc",
                    track: 0,
                    start_ns: 0,
                    end_ns: 5_000,
                    children: vec![
                        SpanNode {
                            name: "noc.synthesize",
                            track: 0,
                            start_ns: 500,
                            end_ns: 2_500,
                            children: Vec::new(),
                        },
                        SpanNode {
                            name: "noc.route",
                            track: 0,
                            start_ns: 2_500,
                            end_ns: 4_000,
                            children: Vec::new(),
                        },
                    ],
                },
                SpanNode {
                    name: "runner.run_batch",
                    track: UNTRACKED,
                    start_ns: 0,
                    end_ns: 9_000,
                    children: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn chrome_trace_round_trips() {
        let text = chrome_trace(&sample_trace());
        let summary = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(summary.events, 8);
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.tracks, 2);
    }

    #[test]
    fn chrome_trace_escapes_and_timestamps() {
        let trace = Trace {
            roots: vec![SpanNode {
                name: "we\"ird",
                track: 3,
                start_ns: 1_234_567,
                end_ns: 2_000_001,
                children: Vec::new(),
            }],
        };
        let text = chrome_trace(&trace);
        assert!(text.contains("we\\\"ird"));
        assert!(text.contains("\"ts\":1234.567"));
        assert!(text.contains("\"ts\":2000.001"));
        assert!(text.contains("\"tid\":4"));
        validate_chrome_trace(&text).expect("valid");
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let text = folded_stacks(&sample_trace());
        assert_eq!(validate_folded(&text).expect("valid folded"), 4);
        // Root self time: 5000 − (2000 + 1500) = 1500.
        assert!(text.contains("scenario.noc 1500\n"));
        assert!(text.contains("scenario.noc;noc.synthesize 2000\n"));
        assert!(text.contains("scenario.noc;noc.route 1500\n"));
        assert!(text.contains("runner.run_batch 9000\n"));
    }

    #[test]
    fn validator_rejects_unbalanced_traces() {
        let unbalanced = r#"[
  {"name":"a","cat":"mns","ph":"B","ts":0,"pid":1,"tid":1}
]"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("never ends"));
        let crossed = r#"[
  {"name":"a","cat":"mns","ph":"B","ts":0,"pid":1,"tid":1},
  {"name":"b","cat":"mns","ph":"B","ts":1,"pid":1,"tid":1},
  {"name":"a","cat":"mns","ph":"E","ts":2,"pid":1,"tid":1},
  {"name":"b","cat":"mns","ph":"E","ts":3,"pid":1,"tid":1}
]"#;
        assert!(validate_chrome_trace(crossed)
            .unwrap_err()
            .contains("bad nesting"));
    }

    #[test]
    fn folded_validator_rejects_malformed_lines() {
        assert!(validate_folded("a;b 12\n").is_ok());
        assert!(validate_folded("a;;b 12\n").is_err());
        assert!(validate_folded("a twelve\n").is_err());
        assert!(validate_folded("loner\n").is_err());
    }
}
