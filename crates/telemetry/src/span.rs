//! Hierarchical spans over a thread-local span stack.
//!
//! A [`Span`] guard marks the extent of one pipeline stage. Guards nest
//! lexically: a span opened while another is live on the same thread
//! becomes its child. Completed *root* spans (no parent, or detached
//! task spans) are flushed to a process-wide collector that
//! [`take_trace`](crate::take_trace) drains into a [`Trace`].
//!
//! ## Tracks
//!
//! A root span may carry a *track* — a caller-chosen logical lane (the
//! scenario submission index, in the runner). Tracks make traces
//! *structurally deterministic* under parallel execution: the collector
//! orders roots by track, not by completion time, so the same batch
//! yields the same tree shape at any worker count.

use std::cell::RefCell;
use std::sync::Mutex;

/// Track value for spans not assigned to any logical lane.
pub const UNTRACKED: u64 = u64::MAX;

/// One completed span: a named interval with nested children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name (static so disabled telemetry allocates nothing).
    pub name: &'static str,
    /// Logical lane of the owning root span ([`UNTRACKED`] if none).
    pub track: u64,
    /// Start timestamp (clock nanoseconds).
    pub start_ns: u64,
    /// End timestamp (clock nanoseconds).
    pub end_ns: u64,
    /// Child spans, in completion order (deterministic: children on one
    /// thread complete in lexical order).
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Inclusive duration in clock nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus the time covered by children (folded-stack value).
    pub fn self_ns(&self) -> u64 {
        let nested: u64 = self.children.iter().map(SpanNode::duration_ns).sum();
        self.duration_ns().saturating_sub(nested)
    }

    /// This span plus all descendants.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }

    /// Depth of the subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanNode::depth).max().unwrap_or(0)
    }

    fn structure_into(&self, indent: usize, out: &mut String) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(self.name);
        out.push('\n');
        for c in &self.children {
            c.structure_into(indent + 1, out);
        }
    }
}

/// A completed trace: every root span recorded since the last drain,
/// ordered deterministically (by track, then name, then shape).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Root spans in canonical order.
    pub roots: Vec<SpanNode>,
}

impl Trace {
    /// Whether the trace holds no spans at all.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total spans across every root.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(SpanNode::span_count).sum()
    }

    /// Canonical *structure* rendering: names and nesting only, no
    /// timestamps. Two runs of the same deterministic workload produce
    /// the same structure at any worker count under the virtual clock —
    /// this string is the golden-test unit.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            if r.track == UNTRACKED {
                out.push_str("[untracked] ");
            } else {
                out.push_str(&format!("[track {}] ", r.track));
            }
            let mut block = String::new();
            r.structure_into(0, &mut block);
            out.push_str(block.trim_start());
        }
        out
    }
}

/// A span in flight on some thread's stack.
struct Pending {
    name: &'static str,
    track: u64,
    start_ns: u64,
    /// Detached spans flush to the collector even when a parent is live
    /// (used for per-scenario task spans so serial and parallel
    /// execution produce identical tree shapes).
    detached: bool,
    children: Vec<SpanNode>,
}

thread_local! {
    static STACK: RefCell<Vec<Pending>> = const { RefCell::new(Vec::new()) };
}

/// Completed root spans awaiting [`take_trace`](crate::take_trace).
static FINISHED: Mutex<Vec<SpanNode>> = Mutex::new(Vec::new());

/// RAII guard for one span. Created by [`span`](fn@crate::span) /
/// [`task_span`](crate::task_span); closing happens on drop. Guards
/// must drop in LIFO order (guaranteed by lexical scoping).
#[must_use = "a span measures the scope it lives in"]
#[derive(Debug)]
pub struct Span {
    active: bool,
}

impl Span {
    /// Whether this guard is actually recording (telemetry was enabled
    /// when it was created).
    pub fn is_recording(&self) -> bool {
        self.active
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = crate::clock_now().unwrap_or(0);
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let pending = stack.pop().expect("span guards drop in LIFO order");
            let node = SpanNode {
                name: pending.name,
                track: pending.track,
                start_ns: pending.start_ns,
                end_ns: end_ns.max(pending.start_ns),
                children: pending.children,
            };
            match stack.last_mut() {
                Some(parent) if !pending.detached => parent.children.push(node),
                _ => FINISHED.lock().expect("span collector lock").push(node),
            }
        });
    }
}

/// Inert guard used when telemetry is off.
pub(crate) fn noop_span() -> Span {
    Span { active: false }
}

/// Opens a span, inheriting the enclosing span's track (if any).
pub(crate) fn open_span(name: &'static str, start_ns: u64) -> Span {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let track = stack.last().map_or(UNTRACKED, |p| p.track);
        stack.push(Pending {
            name,
            track,
            start_ns,
            detached: false,
            children: Vec::new(),
        });
    });
    Span { active: true }
}

/// Opens a detached root span on `track`. Children opened underneath
/// nest normally; on close the whole subtree flushes to the collector
/// regardless of any enclosing span on this thread.
pub(crate) fn open_task_span(name: &'static str, track: u64, start_ns: u64) -> Span {
    STACK.with(|stack| {
        stack.borrow_mut().push(Pending {
            name,
            track,
            start_ns,
            detached: true,
            children: Vec::new(),
        });
    });
    Span { active: true }
}

/// Drains the collector into a canonically ordered [`Trace`]. Roots are
/// sorted by `(track, name, structure)` so completion order (and hence
/// worker scheduling) cannot influence the result.
pub(crate) fn drain_trace() -> Trace {
    let mut roots = std::mem::take(&mut *FINISHED.lock().expect("span collector lock"));
    roots.sort_by_cached_key(|r| {
        let mut shape = String::new();
        r.structure_into(0, &mut shape);
        (r.track, r.name, shape)
    });
    Trace { roots }
}

/// Drops any collected-but-untaken spans (part of a global reset).
pub(crate) fn clear_finished() {
    FINISHED.lock().expect("span collector lock").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_arithmetic() {
        let node = SpanNode {
            name: "parent",
            track: 3,
            start_ns: 10,
            end_ns: 110,
            children: vec![SpanNode {
                name: "child",
                track: 3,
                start_ns: 20,
                end_ns: 50,
                children: Vec::new(),
            }],
        };
        assert_eq!(node.duration_ns(), 100);
        assert_eq!(node.self_ns(), 70);
        assert_eq!(node.span_count(), 2);
        assert_eq!(node.depth(), 2);
    }

    #[test]
    fn structure_renders_nesting() {
        let trace = Trace {
            roots: vec![SpanNode {
                name: "a",
                track: 0,
                start_ns: 0,
                end_ns: 2,
                children: vec![SpanNode {
                    name: "b",
                    track: 0,
                    start_ns: 0,
                    end_ns: 1,
                    children: Vec::new(),
                }],
            }],
        };
        assert_eq!(trace.structure(), "[track 0] a\n  b\n");
        assert_eq!(trace.span_count(), 2);
    }
}
