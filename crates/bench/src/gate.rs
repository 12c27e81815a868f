//! Benchmark-regression gate logic.
//!
//! The CI `bench` job runs the Criterion benches in quick mode with
//! `MNS_BENCH_JSON` pointing at a JSONL file (one
//! `{"name":...,"median_ns":...}` record per benchmark, appended by the
//! vendored criterion harness), then invokes the `bench_gate` binary to
//! compare those medians against the committed `BENCH_6.json` baseline
//! at the repository root. Any tracked bench whose median regresses more
//! than the threshold fails the gate; `--update` (or a missing baseline)
//! rewrites the baseline instead, mirroring the golden-corpus drift gate
//! and its `[golden-update]` commit marker.
//!
//! Both files are read with the workspace's JSON reader
//! ([`mns_telemetry::json`]; no serde in the vendored set), and the
//! gate is kept as pure functions so it is unit- and
//! differential-testable.

use std::collections::BTreeMap;

use mns_telemetry::json::{self, Json};

/// Median nanoseconds per benchmark label, ordered by label.
pub type BenchTable = BTreeMap<String, u64>;

/// Outcome of comparing a current run against the baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateReport {
    /// Benches whose median regressed beyond the threshold:
    /// `(name, baseline_ns, current_ns)`.
    pub regressions: Vec<(String, u64, u64)>,
    /// Benches present in the baseline but absent from the run.
    pub missing: Vec<String>,
    /// Benches present in the run but not yet tracked in the baseline.
    pub untracked: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes. Only regressions fail it: missing benches
    /// mean the bench suite shrank (reported, and the refreshed baseline
    /// is what `--update` commits), untracked ones that it grew.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// A median read from JSON: a whole, non-negative number of nanoseconds
/// small enough (at most 2^53) to be exact in the reader's `f64`.
fn median_ns(value: &Json) -> Option<u64> {
    let ns = value.as_f64()?;
    (ns >= 0.0 && ns.fract() == 0.0 && ns <= 9_007_199_254_740_992.0).then_some(ns as u64)
}

/// Parses the JSONL emitted via `MNS_BENCH_JSON` (one
/// `{"name":…,"median_ns":…}` object per line; blank lines ignored).
/// Duplicate labels keep the **last** record, so a re-run appending to
/// an existing file self-corrects.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<BenchTable, String> {
    let mut table = BenchTable::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = json::parse(line).ok();
        let name = record.as_ref().and_then(|r| r.get("name")?.as_str());
        let median = record.as_ref().and_then(|r| median_ns(r.get("median_ns")?));
        match (name, median) {
            (Some(n), Some(m)) => {
                table.insert(n.to_owned(), m);
            }
            _ => {
                return Err(format!(
                    "malformed bench record on line {}: {line}",
                    idx + 1
                ))
            }
        }
    }
    Ok(table)
}

/// Parses the committed baseline: a flat JSON object mapping bench label
/// to median nanoseconds.
///
/// # Errors
///
/// Returns a message describing the first malformed entry.
pub fn parse_baseline(text: &str) -> Result<BenchTable, String> {
    let doc = json::parse(text).map_err(|e| format!("baseline: {e}"))?;
    let Json::Obj(entries) = doc else {
        return Err("baseline is not a JSON object".to_owned());
    };
    entries
        .into_iter()
        .map(|(name, value)| match median_ns(&value) {
            Some(ns) => Ok((name, ns)),
            None => Err(format!("malformed baseline entry: {name:?}: {value:?}")),
        })
        .collect()
}

/// Renders a baseline table as the committed `BENCH_6.json` format:
/// a flat JSON object, one sorted entry per line.
pub fn render_baseline(table: &BenchTable) -> String {
    let mut out = String::from("{\n");
    for (i, (name, ns)) in table.iter().enumerate() {
        let sep = if i + 1 == table.len() { "" } else { "," };
        out.push_str("  \"");
        json::escape_into(name, &mut out);
        out.push_str(&format!("\": {ns}{sep}\n"));
    }
    out.push_str("}\n");
    out
}

/// Compares `current` medians against `baseline`. A bench regresses when
/// `current > baseline * (1 + threshold_pct/100)`; quick-mode medians are
/// noisy, which the default 25 % threshold absorbs.
pub fn compare(baseline: &BenchTable, current: &BenchTable, threshold_pct: u32) -> GateReport {
    let mut report = GateReport::default();
    for (name, &base_ns) in baseline {
        match current.get(name) {
            None => report.missing.push(name.clone()),
            Some(&cur_ns) => {
                // Integer math: cur * 100 > base * (100 + pct).
                let limit = u128::from(base_ns) * (100 + u128::from(threshold_pct));
                if u128::from(cur_ns) * 100 > limit {
                    report.regressions.push((name.clone(), base_ns, cur_ns));
                }
            }
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            report.untracked.push(name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: &[(&str, u64)]) -> BenchTable {
        entries.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
    }

    #[test]
    fn jsonl_round_trip() {
        let text = "{\"name\":\"a/b/1\",\"median_ns\":123}\n\n{\"name\":\"c\",\"median_ns\":9}\n";
        let parsed = parse_jsonl(text).unwrap();
        assert_eq!(parsed, table(&[("a/b/1", 123), ("c", 9)]));
    }

    #[test]
    fn jsonl_last_record_wins() {
        let text = "{\"name\":\"a\",\"median_ns\":1}\n{\"name\":\"a\",\"median_ns\":2}\n";
        assert_eq!(parse_jsonl(text).unwrap(), table(&[("a", 2)]));
    }

    #[test]
    fn jsonl_rejects_malformed() {
        assert!(parse_jsonl("{\"name\":\"a\"}\n").is_err());
        assert!(parse_jsonl("not json\n").is_err());
    }

    #[test]
    fn baseline_round_trip() {
        let t = table(&[("dd_ablation/zdd_union_maximal/true", 26_314_000), ("x", 1)]);
        let rendered = render_baseline(&t);
        assert_eq!(parse_baseline(&rendered).unwrap(), t);
        // Stable formatting: sorted, one entry per line.
        assert!(rendered.starts_with("{\n  \"dd_ablation"));
        assert!(rendered.ends_with("\"x\": 1\n}\n"));
    }

    #[test]
    fn baseline_rejects_malformed() {
        assert!(parse_baseline("[]").is_err());
        assert!(parse_baseline("{\"a\": }").is_err());
        assert!(parse_baseline("{\"a\": -1}").is_err());
        assert!(parse_baseline("{\"a\": 1.5}").is_err());
    }

    #[test]
    fn baseline_round_trips_labels_with_json_metacharacters() {
        // Each label holds a character that a line- or comma-based
        // reader, or `escape_default` (which writes `\'`, not JSON), gets
        // wrong.
        let t = table(&[
            ("group/a,b", 1),
            ("say \"hi\"", 2),
            ("back\\slash", 3),
            ("tab\there\n", 4),
            ("it's", 5),
        ]);
        assert_eq!(parse_baseline(&render_baseline(&t)), Ok(t));
    }

    #[test]
    fn jsonl_rejects_medians_that_are_not_whole_nanoseconds() {
        for median in ["12abc", "-5", "1.5", "\"7\""] {
            let line = format!("{{\"name\":\"a\",\"median_ns\":{median}}}\n");
            assert!(parse_jsonl(&line).is_err(), "{median}");
        }
    }

    #[test]
    fn jsonl_reads_a_string_value_that_names_the_median_key() {
        let text = "{\"name\":\"median_ns\",\"median_ns\":5}\n";
        assert_eq!(parse_jsonl(text), Ok(table(&[("median_ns", 5)])));
    }

    #[test]
    fn empty_baseline_parses() {
        assert_eq!(parse_baseline("{}").unwrap(), BenchTable::new());
        assert_eq!(
            parse_baseline(&render_baseline(&BenchTable::new())).unwrap(),
            BenchTable::new()
        );
    }

    #[test]
    fn compare_flags_only_threshold_breaches() {
        let base = table(&[("a", 1000), ("b", 1000), ("gone", 5)]);
        let cur = table(&[("a", 1250), ("b", 1251), ("new", 7)]);
        let report = compare(&base, &cur, 25);
        // a sits exactly at the limit — allowed; b is one past — flagged.
        assert_eq!(report.regressions, vec![("b".to_owned(), 1000, 1251)]);
        assert_eq!(report.missing, vec!["gone".to_owned()]);
        assert_eq!(report.untracked, vec!["new".to_owned()]);
        assert!(!report.passed());
        assert!(compare(&base, &base, 0).passed());
    }

    #[test]
    fn compare_handles_extreme_magnitudes_without_overflow() {
        let base = table(&[("big", u64::MAX / 2)]);
        let cur = table(&[("big", u64::MAX)]);
        let report = compare(&base, &cur, 25);
        assert_eq!(report.regressions.len(), 1);
    }
}
