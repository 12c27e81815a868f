//! # mns-telemetry — deterministic tracing and metrics for the design kit
//!
//! Every pipeline in this workspace — lab-on-chip compiles, NoC sweeps,
//! WSN simulations, GRN screens, the parallel scenario runner — is
//! instrumented against this crate. It answers "where did the time go"
//! without ever being allowed to answer "differently than last run":
//!
//! * **Off by default, near-nop when off.** Instrumentation sites cost
//!   one relaxed atomic load when telemetry is disabled; no locks, no
//!   allocation, no clock reads. The golden conformance corpus is
//!   byte-identical with the crate linked in.
//! * **Pluggable [`Clock`]**: [`WallClock`] for real profiling,
//!   [`VirtualClock`] for tests — under the virtual clock the *structure*
//!   of a span tree is reproducible at any worker count, so traces can
//!   be golden-tested (see [`Trace::structure`]).
//! * **Three exporters**: Chrome-trace JSON ([`chrome_trace`]) for
//!   `chrome://tracing`/Perfetto, flamegraph folded stacks
//!   ([`folded_stacks`]), and a lossless plain-text metrics snapshot
//!   ([`MetricsSnapshot::to_text`]) for regression diffs and for worker
//!   processes to ship — each with a matching reader or validator used
//!   by CI ([`validate_chrome_trace`], [`validate_folded`],
//!   [`MetricsSnapshot::from_text`]).
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//!
//! mns_telemetry::enable(Arc::new(mns_telemetry::VirtualClock::default()));
//! {
//!     let _run = mns_telemetry::span("demo.run");
//!     let _stage = mns_telemetry::span("demo.stage");
//!     mns_telemetry::counter_add("demo.items", 3);
//! }
//! let trace = mns_telemetry::take_trace();
//! assert_eq!(trace.structure(), "[untracked] demo.run\n  demo.stage\n");
//! assert_eq!(mns_telemetry::snapshot().counter("demo.items"), 3);
//! mns_telemetry::disable();
//! mns_telemetry::reset();
//! ```
//!
//! State is process-wide (instrumented library code cannot thread a
//! handle through every call), so tests that enable telemetry must
//! serialize against each other and `reset()` between runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

pub use clock::{Clock, VirtualClock, WallClock};
pub use export::{
    chrome_trace, folded_stacks, validate_chrome_trace, validate_folded, ChromeTraceSummary,
};
pub use metrics::{Histogram, MetricsSnapshot};
pub use span::{Span, SpanNode, Trace, UNTRACKED};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CLOCK: RwLock<Option<Arc<dyn Clock>>> = RwLock::new(None);

/// Turns telemetry on with the given time source. Spans/counters
/// recorded from this point are collected until [`disable`].
pub fn enable(clock: Arc<dyn Clock>) {
    *CLOCK.write().expect("telemetry clock lock") = Some(clock);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns telemetry off. Spans already open keep recording until their
/// guards drop (the clock stays installed); new sites become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether instrumentation sites are currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Current clock reading, if a clock is installed.
pub(crate) fn clock_now() -> Option<u64> {
    CLOCK
        .read()
        .expect("telemetry clock lock")
        .as_ref()
        .map(|c| c.now_ns())
}

/// Opens a span named `name`, nested under the thread's current span
/// (if any). Returns an inert guard when telemetry is off.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return span::noop_span();
    }
    match clock_now() {
        Some(now) => span::open_span(name, now),
        None => span::noop_span(),
    }
}

/// Opens a *detached root* span on logical lane `track` (e.g. a
/// scenario's submission index). Children nest normally; the finished
/// subtree flushes to the collector independent of any enclosing span,
/// so serial and parallel executions yield the same tree shape.
#[inline]
pub fn task_span(name: &'static str, track: u64) -> Span {
    if !is_enabled() {
        return span::noop_span();
    }
    match clock_now() {
        Some(now) => span::open_task_span(name, track, now),
        None => span::noop_span(),
    }
}

/// Adds `delta` to the named counter (no-op while disabled).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if is_enabled() {
        metrics::counter_add(name, delta);
    }
}

/// Records one histogram observation (no-op while disabled).
#[inline]
pub fn observe(name: &str, value: u64) {
    if is_enabled() {
        metrics::observe(name, value);
    }
}

/// Drains every completed root span into a canonically ordered
/// [`Trace`]. Spans still open stay pending and appear in a later take.
pub fn take_trace() -> Trace {
    span::drain_trace()
}

/// Copies the current counters and histograms.
pub fn snapshot() -> MetricsSnapshot {
    metrics::snapshot()
}

/// Clears collected spans, counters and histograms. Call between runs,
/// with no spans open, to start a fresh profile.
pub fn reset() {
    span::clear_finished();
    metrics::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The crate-level tests share global state with doctests and each
    // other; serialize them.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn isolated<T>(f: impl FnOnce() -> T) -> T {
        let _guard = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        disable();
        reset();
        let out = f();
        disable();
        reset();
        out
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        isolated(|| {
            drop(span("off.span"));
            counter_add("off.counter", 1);
            observe("off.hist", 1);
            assert!(take_trace().is_empty());
            assert!(snapshot().is_empty());
        });
    }

    #[test]
    fn spans_nest_and_flush() {
        isolated(|| {
            enable(Arc::new(VirtualClock::default()));
            {
                let _a = span("a");
                {
                    let _b = span("b");
                }
                let _c = span("c");
            }
            let trace = take_trace();
            assert_eq!(trace.structure(), "[untracked] a\n  b\n  c\n");
            let a = &trace.roots[0];
            assert!(a.duration_ns() > 0);
            assert!(a.children[0].start_ns >= a.start_ns);
            assert!(a.children[1].end_ns <= a.end_ns);
        });
    }

    #[test]
    fn task_spans_detach_from_enclosing_spans() {
        isolated(|| {
            enable(Arc::new(VirtualClock::default()));
            {
                let _batch = span("batch");
                {
                    let _t = task_span("task", 7);
                    let _inner = span("inner");
                }
            }
            let trace = take_trace();
            // Two roots: the task (track 7) and the batch — the task is
            // *not* a child of the batch.
            assert_eq!(trace.roots.len(), 2);
            assert_eq!(
                trace.structure(),
                "[track 7] task\n  inner\n[untracked] batch\n"
            );
        });
    }

    #[test]
    fn trace_order_is_track_order_not_completion_order() {
        isolated(|| {
            enable(Arc::new(VirtualClock::default()));
            drop(task_span("late", 9));
            drop(task_span("early", 2));
            let trace = take_trace();
            assert_eq!(trace.roots[0].track, 2);
            assert_eq!(trace.roots[1].track, 9);
        });
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        isolated(|| {
            enable(Arc::new(VirtualClock::default()));
            counter_add("x.count", 2);
            counter_add("x.count", 3);
            observe("x.ns", 8);
            observe("x.ns", 24);
            let snap = snapshot();
            assert_eq!(snap.counter("x.count"), 5);
            let h = &snap.histograms["x.ns"];
            assert_eq!(h.count, 2);
            assert_eq!(h.sum, 32);
            assert_eq!(MetricsSnapshot::from_text(&snap.to_text()), Ok(snap));
        });
    }

    #[test]
    fn cross_thread_spans_collect() {
        isolated(|| {
            enable(Arc::new(VirtualClock::default()));
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    scope.spawn(move || {
                        let _s = task_span("worker.task", t);
                        let _inner = span("worker.inner");
                    });
                }
            });
            let trace = take_trace();
            assert_eq!(trace.roots.len(), 4);
            let tracks: Vec<u64> = trace.roots.iter().map(|r| r.track).collect();
            assert_eq!(tracks, vec![0, 1, 2, 3]);
            for r in &trace.roots {
                assert_eq!(r.children.len(), 1);
            }
        });
    }

    #[test]
    fn exporters_round_trip_a_real_trace() {
        isolated(|| {
            enable(Arc::new(VirtualClock::default()));
            {
                let _t = task_span("scenario", 0);
                let _a = span("stage.a");
            }
            let trace = take_trace();
            let chrome = chrome_trace(&trace);
            let summary = validate_chrome_trace(&chrome).expect("valid chrome trace");
            assert_eq!(summary.spans, trace.span_count());
            let folded = folded_stacks(&trace);
            assert_eq!(
                validate_folded(&folded).expect("valid folded"),
                trace.span_count()
            );
        });
    }
}
