//! Pluggable time sources.
//!
//! Telemetry never reads ambient time directly: every timestamp comes
//! from the [`Clock`] installed at enable time. Two implementations
//! ship — [`WallClock`] for real profiling and [`VirtualClock`] for
//! deterministic tests, where "time" is a global tick counter advanced
//! by each read. Under the virtual clock the *structure* of a span tree
//! is reproducible at any worker count (tick values still depend on
//! thread interleaving, structure does not).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source. Implementations must be cheap and
/// thread-safe: `now_ns` is called twice per span.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Current time in nanoseconds since an arbitrary origin.
    fn now_ns(&self) -> u64;
}

/// Real time, measured from the clock's creation instant.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Deterministic virtual time: a shared counter that advances by a
/// fixed step on every read. Wall-clock noise cannot enter a trace
/// taken under this clock, which makes span *structure* golden-testable.
#[derive(Debug)]
pub struct VirtualClock {
    step: u64,
    ticks: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock advancing `step` "nanoseconds" per read.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero (timestamps must strictly increase).
    pub fn new(step: u64) -> Self {
        assert!(step > 0, "virtual clock step must be positive");
        VirtualClock {
            step,
            ticks: AtomicU64::new(0),
        }
    }
}

impl Default for VirtualClock {
    /// One microsecond per read.
    fn default() -> Self {
        VirtualClock::new(1_000)
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.ticks.fetch_add(self.step, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_advances_per_read() {
        let c = VirtualClock::new(7);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 7);
        assert_eq!(c.now_ns(), 14);
        assert_eq!(c.now_ns(), 21);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_is_rejected() {
        let _ = VirtualClock::new(0);
    }
}
