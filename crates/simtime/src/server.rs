//! A FIFO multi-server resource.
//!
//! Models anything that serves jobs one-at-a-time per unit of capacity: a
//! pool of CPU worker threads, a GPU compute engine (capacity 1), a PCIe copy
//! engine, a disk. Jobs submitted while all units are busy wait in FIFO
//! order.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::Sim;
use crate::time::{SimDuration, SimTime};

type Callback = Box<dyn FnOnce(&mut Sim)>;

struct Pending {
    service: SimDuration,
    done: Callback,
}

struct State {
    capacity: usize,
    busy: usize,
    queue: VecDeque<Pending>,
    busy_time: SimDuration, // summed across units
    last_busy_change: SimTime,
}

impl State {
    fn note_busy_change(&mut self, now: SimTime, delta: isize) {
        self.busy_time += now.since(self.last_busy_change) * self.busy as u64;
        self.last_busy_change = now;
        self.busy = (self.busy as isize + delta) as usize;
    }
}

/// A shared handle to a FIFO multi-server resource. Cheap to clone.
#[derive(Clone)]
pub struct Server {
    state: Rc<RefCell<State>>,
}

impl Server {
    /// A server with `capacity` identical units; `name` only labels the
    /// capacity check's panic.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "server {name:?} needs capacity >= 1");
        Server {
            state: Rc::new(RefCell::new(State {
                capacity,
                busy: 0,
                queue: VecDeque::new(),
                busy_time: SimDuration::ZERO,
                last_busy_change: SimTime::ZERO,
            })),
        }
    }

    /// Submit a job needing `service` time; `done` fires at completion.
    ///
    /// If a unit is free the job starts immediately, otherwise it queues.
    pub fn submit<F: FnOnce(&mut Sim) + 'static>(
        &self,
        sim: &mut Sim,
        service: SimDuration,
        done: F,
    ) {
        let now = sim.now();
        let done: Callback = Box::new(done);
        let start = {
            let mut st = self.state.borrow_mut();
            if st.busy < st.capacity {
                st.note_busy_change(now, 1);
                Some(done)
            } else {
                st.queue.push_back(Pending { service, done });
                None
            }
        };
        if let Some(done) = start {
            self.start(sim, service, done);
        }
    }

    fn start(&self, sim: &mut Sim, service: SimDuration, done: Callback) {
        let this = self.clone();
        sim.schedule(service, move |sim| {
            done(sim);
            this.complete_one(sim);
        });
    }

    fn complete_one(&self, sim: &mut Sim) {
        let now = sim.now();
        let next = {
            let mut st = self.state.borrow_mut();
            // The unit stays busy, handed straight to the next job, if any.
            let next = st.queue.pop_front();
            if next.is_none() {
                st.note_busy_change(now, -1);
            }
            next
        };
        if let Some(p) = next {
            self.start(sim, p.service, p.done);
        }
    }

    /// Mean utilization over `[0, now]`, in `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let st = self.state.borrow();
        let total = now.as_secs_f64() * st.capacity as f64;
        if total == 0.0 {
            return 0.0;
        }
        let busy = st.busy_time.as_secs_f64()
            + now.since(st.last_busy_change).as_secs_f64() * st.busy as f64;
        busy / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn nanos(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn single_server_serializes_jobs() {
        let mut sim = Sim::new();
        let srv = Server::new("s", 1);
        let ends = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let ends = Rc::clone(&ends);
            srv.submit(&mut sim, nanos(10), move |sim| {
                ends.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*ends.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn capacity_allows_parallel_service() {
        let mut sim = Sim::new();
        let srv = Server::new("s", 2);
        let ends = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let ends = Rc::clone(&ends);
            srv.submit(&mut sim, nanos(10), move |sim| {
                ends.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        // Two waves of two.
        assert_eq!(*ends.borrow(), vec![10, 10, 20, 20]);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut sim = Sim::new();
        let srv = Server::new("s", 1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..5 {
            let order = Rc::clone(&order);
            srv.submit(&mut sim, nanos(1), move |_| order.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn utilization_counts_busy_time() {
        let mut sim = Sim::new();
        let srv = Server::new("s", 1);
        // Two 10ns jobs back to back: busy 20ns. Run 40ns of idle tail via a
        // dummy event so utilization = 0.5.
        srv.submit(&mut sim, nanos(10), |_| {});
        srv.submit(&mut sim, nanos(10), |_| {});
        sim.schedule(nanos(40), |_| {});
        sim.run();
        let u = srv.utilization(sim.now());
        assert!((u - 0.5).abs() < 1e-9, "utilization={u}");
    }

    #[test]
    fn submissions_from_callbacks_work() {
        let mut sim = Sim::new();
        let srv = Server::new("s", 1);
        let done = Rc::new(RefCell::new(0u64));
        let d2 = Rc::clone(&done);
        let srv2 = srv.clone();
        srv.submit(&mut sim, nanos(5), move |sim| {
            let d3 = Rc::clone(&d2);
            srv2.submit(sim, nanos(5), move |sim| {
                *d3.borrow_mut() = sim.now().as_nanos();
            });
        });
        sim.run();
        assert_eq!(*done.borrow(), 10);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_panics() {
        let _ = Server::new("bad", 0);
    }
}
