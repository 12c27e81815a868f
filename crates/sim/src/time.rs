//! Virtual time for discrete-event simulation.
//!
//! [`SimTime`] is a monotone tick counter with no fixed physical unit: the
//! NoC simulator interprets one tick as one router cycle. Keeping time
//! integral makes event ordering exact and the simulation deterministic —
//! no floating-point comparison hazards.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in ticks since simulation start.
///
/// The physical meaning of one tick is chosen by the model using the engine.
///
/// ```
/// use mns_sim::SimTime;
/// let t = SimTime::ZERO + 25;
/// assert_eq!(t.ticks(), 25);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Elapsed ticks since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({}) is after self ({})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

/// A span of virtual time in ticks.
///
/// ```
/// use mns_sim::{SimDuration, SimTime};
/// let d = SimDuration::from_ticks(10);
/// assert_eq!((SimTime::ZERO + d).ticks(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Returns the raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

impl From<u64> for SimDuration {
    fn from(ticks: u64) -> Self {
        SimDuration(ticks)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ticks(5);
        let b = a + 7;
        assert!(b > a);
        assert_eq!(b.since(a).ticks(), 7);
        assert_eq!((b - a).ticks(), 7);
    }

    #[test]
    fn add_assign_variants() {
        let mut t = SimTime::ZERO;
        t += 3;
        t += SimDuration::from_ticks(4);
        assert_eq!(t.ticks(), 7);
        let mut d = SimDuration::ZERO;
        d += SimDuration::from_ticks(2);
        assert_eq!((d + SimDuration::from_ticks(1)).ticks(), 3);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_reversed_order() {
        let _ = SimTime::ZERO.since(SimTime::from_ticks(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimTime::from_ticks(3).to_string(), "t=3");
        assert_eq!(SimDuration::from_ticks(3).to_string(), "3 ticks");
    }
}
