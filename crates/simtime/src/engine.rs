//! The event-queue engine.
//!
//! Events are closures scheduled at virtual instants. Ties are broken by
//! insertion order (FIFO), which keeps models deterministic and makes
//! same-instant causality intuitive: an event scheduled from within another
//! event at zero delay runs after every event already queued for that
//! instant.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

type Action = Box<dyn FnOnce(&mut Sim)>;

struct Event {
    at: SimTime,
    seq: u64,
    action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed: BinaryHeap is a max-heap and we need earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event simulation: a virtual clock plus an event queue.
///
/// Models are built out of closures that receive `&mut Sim` and schedule
/// further events. Shared model state lives in `Rc<RefCell<_>>` captured by
/// those closures (see [`Server`](crate::Server) and
/// [`BoundedBuffer`](crate::BoundedBuffer) for canonical examples).
pub struct Sim {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Event>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// A fresh simulation at t = 0 with an empty event queue.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `action` to run after `delay`.
    pub fn schedule<F: FnOnce(&mut Sim) + 'static>(&mut self, delay: SimDuration, action: F) {
        self.schedule_at(self.now + delay, action);
    }

    /// Schedule `action` at absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the virtual past — that is always a model bug.
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, action: F) {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event {
            at,
            seq,
            action: Box::new(action),
        });
    }

    /// Run until the event queue drains; returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Execute the single earliest pending event. Returns false if none.
    pub fn step(&mut self) -> bool {
        match self.heap.pop() {
            Some(ev) => {
                debug_assert!(ev.at >= self.now);
                self.now = ev.at;
                (ev.action)(self);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for &(delay, tag) in &[(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let order = Rc::clone(&order);
            sim.schedule(SimDuration::from_nanos(delay), move |_| {
                order.borrow_mut().push(tag)
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for tag in 0..5 {
            let order = Rc::clone(&order);
            sim.schedule(SimDuration::from_nanos(7), move |_| {
                order.borrow_mut().push(tag)
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_scheduling_advances_clock() {
        let mut sim = Sim::new();
        sim.schedule(SimDuration::from_nanos(5), |sim| {
            assert_eq!(sim.now().as_nanos(), 5);
            sim.schedule(SimDuration::from_nanos(5), |sim| {
                assert_eq!(sim.now().as_nanos(), 10);
            });
        });
        let end = sim.run();
        assert_eq!(end.as_nanos(), 10);
    }

    #[test]
    fn zero_delay_event_runs_after_already_queued_same_instant() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        {
            let order = Rc::clone(&order);
            sim.schedule(SimDuration::from_nanos(1), move |sim| {
                let order2 = Rc::clone(&order);
                order.borrow_mut().push("first");
                sim.schedule(SimDuration::ZERO, move |_| {
                    order2.borrow_mut().push("spawned");
                });
            });
        }
        {
            let order = Rc::clone(&order);
            sim.schedule(SimDuration::from_nanos(1), move |_| {
                order.borrow_mut().push("second");
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "spawned"]);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new();
        sim.schedule(SimDuration::from_nanos(10), |sim| {
            sim.schedule_at(SimTime::from_nanos(3), |_| {});
        });
        sim.run();
    }
}
