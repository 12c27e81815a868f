//! # mns-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the event-driven substrate of the `mns-noc` packet-level
//! network simulation. It provides:
//!
//! * a virtual-time type ([`SimTime`]) and duration arithmetic,
//! * a deterministic event engine ([`Engine`]) with FIFO tie-breaking for
//!   simultaneous events,
//! * reproducible random-number streams ([`rng::SeedStream`]) built on
//!   ChaCha8, so a simulation is bit-for-bit repeatable from a single
//!   `u64` seed, with exponential draws for Poisson arrivals, and
//! * online statistics ([`stats`]) — Welford mean/variance summaries and
//!   fixed-bin histograms — to report results.
//!
//! The engine is intentionally single-threaded: determinism and
//! reproducibility matter more than wall-clock speed for design-space
//! exploration, and the workloads in this workspace are small enough that a
//! tight sequential event loop wins anyway.
//!
//! ## Example
//!
//! A two-event "ping/pong" model:
//!
//! ```
//! use mns_sim::{Engine, Model, SimTime};
//!
//! struct PingPong { pings: u32 }
//!
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! enum Ev { Ping, Pong }
//!
//! impl Model for PingPong {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut mns_sim::Scheduler<Ev>) {
//!         match ev {
//!             Ev::Ping => {
//!                 self.pings += 1;
//!                 if self.pings < 3 {
//!                     sched.schedule(now + 10, Ev::Pong);
//!                 }
//!             }
//!             Ev::Pong => sched.schedule(now + 5, Ev::Ping),
//!         }
//!     }
//! }
//!
//! let mut model = PingPong { pings: 0 };
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::ZERO, Ev::Ping);
//! engine.run(&mut model);
//! assert_eq!(model.pings, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod rng;
pub mod stats;
mod time;

pub use engine::{Engine, Model, Scheduler};
pub use time::{SimDuration, SimTime};
