//! The discrete-event engine.
//!
//! Events are stored in a binary heap keyed by `(time, sequence)`. The
//! sequence number is a monotonically increasing counter assigned at
//! scheduling time, which gives *FIFO ordering among simultaneous events* —
//! the property that makes model execution deterministic regardless of heap
//! internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A model driven by the [`Engine`].
///
/// The engine owns the event queue; the model owns all domain state. Each
/// dispatched event may schedule any number of future events through the
/// [`Scheduler`] handle.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handles one event occurring at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, scheduler: &mut Scheduler<Self::Event>);
}

#[derive(Debug)]
struct QueuedEvent<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for QueuedEvent<E> {}

impl<E> PartialOrd for QueuedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for QueuedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Handle through which a [`Model`] schedules future events.
///
/// A `Scheduler` is only obtainable inside [`Model::handle`]; initial events
/// are seeded through [`Engine::schedule`].
#[derive(Debug)]
pub struct Scheduler<E> {
    pending: Vec<(SimTime, E)>,
    now: SimTime,
}

impl<E> Scheduler<E> {
    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time (causality
    /// violation).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {} while now is {}",
            at,
            self.now
        );
        self.pending.push((at, event));
    }
}

/// Deterministic discrete-event engine.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Engine<E> {
    queue: BinaryHeap<QueuedEvent<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Seeds an event before or between runs.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {} while now is {}",
            at,
            self.now
        );
        self.push(at, event);
    }

    fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueuedEvent {
            time: at,
            seq,
            event,
        });
    }

    /// Runs until the event queue is empty. Returns the number of events
    /// dispatched by this call.
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M) -> u64 {
        self.run_until(model, SimTime::MAX)
    }

    /// Runs until the queue is empty or the next event would occur after
    /// `horizon`. Events *at* the horizon are still dispatched. Returns the
    /// number of events dispatched by this call.
    pub fn run_until<M: Model<Event = E>>(&mut self, model: &mut M, horizon: SimTime) -> u64 {
        let mut count = 0;
        while let Some(head) = self.queue.peek() {
            if head.time > horizon {
                break;
            }
            let QueuedEvent { time, event, .. } =
                self.queue.pop().expect("peeked event must exist");
            debug_assert!(time >= self.now, "event queue produced out-of-order time");
            self.now = time;
            let mut scheduler = Scheduler {
                pending: Vec::new(),
                now: time,
            };
            model.handle(time, event, &mut scheduler);
            for (at, ev) in scheduler.pending {
                self.push(at, ev);
            }
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Ev {
        Tag(u32),
    }

    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, _s: &mut Scheduler<Ev>) {
            let Ev::Tag(t) = ev;
            self.seen.push((now.ticks(), t));
        }
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut m = Recorder { seen: Vec::new() };
        let mut e = Engine::new();
        e.schedule(SimTime::from_ticks(30), Ev::Tag(3));
        e.schedule(SimTime::from_ticks(10), Ev::Tag(1));
        e.schedule(SimTime::from_ticks(20), Ev::Tag(2));
        let n = e.run(&mut m);
        assert_eq!(n, 3);
        assert_eq!(m.seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut m = Recorder { seen: Vec::new() };
        let mut e = Engine::new();
        for i in 0..100 {
            e.schedule(SimTime::from_ticks(5), Ev::Tag(i));
        }
        e.run(&mut m);
        let tags: Vec<u32> = m.seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_respects_horizon_inclusive() {
        let mut m = Recorder { seen: Vec::new() };
        let mut e = Engine::new();
        e.schedule(SimTime::from_ticks(10), Ev::Tag(1));
        e.schedule(SimTime::from_ticks(20), Ev::Tag(2));
        e.schedule(SimTime::from_ticks(21), Ev::Tag(3));
        e.run_until(&mut m, SimTime::from_ticks(20));
        assert_eq!(m.seen, vec![(10, 1), (20, 2)]);
        assert_eq!(e.queue.len(), 1);
        // Resume to completion.
        e.run(&mut m);
        assert_eq!(m.seen.last(), Some(&(21, 3)));
    }

    struct Chain {
        hops: u32,
    }
    impl Model for Chain {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, s: &mut Scheduler<Ev>) {
            let Ev::Tag(t) = ev;
            if t > 0 {
                self.hops += 1;
                s.schedule(now + 7, Ev::Tag(t - 1));
            }
        }
    }

    #[test]
    fn models_can_schedule_followups() {
        let mut m = Chain { hops: 0 };
        let mut e = Engine::new();
        e.schedule(SimTime::ZERO, Ev::Tag(5));
        let dispatched = e.run(&mut m);
        assert_eq!(m.hops, 5);
        assert_eq!(e.now.ticks(), 35);
        assert_eq!(dispatched, 6);
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_in_the_past_panics() {
        let mut m = Recorder { seen: Vec::new() };
        let mut e = Engine::new();
        e.schedule(SimTime::from_ticks(10), Ev::Tag(1));
        e.run(&mut m);
        e.schedule(SimTime::from_ticks(5), Ev::Tag(2));
    }
}
