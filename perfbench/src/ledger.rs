//! The stage ledger: self time, inclusive time and span count per span
//! name, folded from a telemetry trace, plus the counters and histograms
//! of the same pass.

use std::collections::BTreeMap;

use mns_telemetry::{MetricsSnapshot, SpanNode, Trace};

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Duration minus the time children cover.
    pub self_ns: u64,
    /// Duration, children included.
    pub total_ns: u64,
    /// Spans folded in.
    pub count: u64,
}

/// Per-name totals over one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Span name → its totals.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Counters and histograms recorded during the pass.
    pub metrics: MetricsSnapshot,
}

impl Ledger {
    /// Folds `trace` and keeps `metrics` beside it.
    pub fn new(trace: &Trace, metrics: MetricsSnapshot) -> Ledger {
        let mut spans = BTreeMap::new();
        for root in &trace.roots {
            fold(root, &mut spans);
        }
        Ledger { spans, metrics }
    }

    fn totals(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.totals(name).self_ns as f64 / 1e6
    }

    /// Inclusive time of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals(name).total_ns as f64 / 1e6
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals(name).count
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// Sum of a histogram's observations (nanoseconds), in milliseconds.
    pub fn histogram_ms(&self, name: &str) -> f64 {
        self.metrics.histograms.get(name).map_or(0, |h| h.sum) as f64 / 1e6
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
pub fn self_ns(node: &SpanNode) -> u64 {
    let mut intervals: Vec<(u64, u64)> = node
        .children
        .iter()
        .map(|c| (c.start_ns.max(node.start_ns), c.end_ns.min(node.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = node.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    node.duration_ns().saturating_sub(covered)
}

fn fold(node: &SpanNode, into: &mut BTreeMap<&'static str, SpanTotals>) {
    let entry = into.entry(node.name).or_default();
    entry.self_ns += self_ns(node);
    entry.total_ns += node.duration_ns();
    entry.count += 1;
    for child in &node.children {
        fold(child, into);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mns_telemetry::VirtualClock;

    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let _guard = crate::TELEMETRY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        mns_telemetry::enable(Arc::new(VirtualClock::new(10)));
        mns_telemetry::reset();
        {
            let _root = mns_telemetry::span("root");
            {
                let _a = mns_telemetry::span("a");
                let _leaf = mns_telemetry::span("leaf");
            }
            {
                let _b = mns_telemetry::span("b");
                drop(mns_telemetry::span("leaf"));
                drop(mns_telemetry::span("leaf"));
            }
        }
        let trace = mns_telemetry::take_trace();
        mns_telemetry::disable();
        let ledger = Ledger::new(&trace, MetricsSnapshot::default());

        let root = &trace.roots[0];
        let children: u64 = root.children.iter().map(SpanNode::duration_ns).sum();
        assert_eq!(self_ns(root), root.duration_ns() - children);
        let expected_ms = |name: &str| {
            let mut ns = 0;
            let mut stack = vec![root];
            while let Some(n) = stack.pop() {
                if n.name == name {
                    let nested: u64 = n.children.iter().map(SpanNode::duration_ns).sum();
                    ns += n.duration_ns() - nested;
                }
                stack.extend(&n.children);
            }
            ns as f64 / 1e6
        };
        for name in ["root", "a", "b", "leaf"] {
            assert_eq!(ledger.self_ms(name), expected_ms(name), "{name}");
            assert!(ledger.self_ms(name) > 0.0, "{name}");
        }
        assert_eq!(ledger.count("leaf"), 3);
        // The virtual clock steps once per read: the ledger sums to the
        // root's whole duration.
        let total: f64 = ["root", "a", "b", "leaf"]
            .map(|n| ledger.self_ms(n))
            .iter()
            .sum();
        assert!((total - root.duration_ns() as f64 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        let leaf = |start_ns, end_ns| SpanNode {
            name: "child",
            track: 0,
            start_ns,
            end_ns,
            children: Vec::new(),
        };
        let node = SpanNode {
            name: "parent",
            track: 0,
            start_ns: 0,
            end_ns: 100,
            children: vec![leaf(10, 40), leaf(30, 60), leaf(90, 120)],
        };
        assert_eq!(self_ns(&node), 100 - 50 - 10);
    }
}
