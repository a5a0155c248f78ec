//! A bounded blocking buffer — the model analogue of the FastFlow/TBB
//! inter-stage queues.
//!
//! Producers "block" by having their continuation deferred until space is
//! available; consumers likewise until an item (or end-of-stream) is
//! available. Both sides are FIFO, which mirrors the SPSC/ordered queues of
//! the real runtimes.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::Sim;

type PutCb = Box<dyn FnOnce(&mut Sim)>;
type GetCb<T> = Box<dyn FnOnce(&mut Sim, Option<T>)>;

struct State<T> {
    capacity: usize,
    items: VecDeque<T>,
    waiting_puts: VecDeque<(T, PutCb)>,
    waiting_gets: VecDeque<GetCb<T>>,
    closed: bool,
}

/// A shared handle to a bounded buffer. Cheap to clone.
pub struct BoundedBuffer<T> {
    name: &'static str,
    state: Rc<RefCell<State<T>>>,
}

impl<T> Clone for BoundedBuffer<T> {
    fn clone(&self) -> Self {
        BoundedBuffer {
            name: self.name,
            state: Rc::clone(&self.state),
        }
    }
}

impl<T: 'static> BoundedBuffer<T> {
    /// A buffer holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer {name:?} needs capacity >= 1");
        BoundedBuffer {
            name,
            state: Rc::new(RefCell::new(State {
                capacity,
                items: VecDeque::with_capacity(capacity),
                waiting_puts: VecDeque::new(),
                waiting_gets: VecDeque::new(),
                closed: false,
            })),
        }
    }

    /// Offer `item`; `accepted` runs once the item has entered the buffer
    /// (immediately if there is space, otherwise when a consumer frees some).
    ///
    /// # Panics
    /// Panics if the buffer has been closed — producing after close is a
    /// model bug.
    pub fn put<F: FnOnce(&mut Sim) + 'static>(&self, sim: &mut Sim, item: T, accepted: F) {
        enum Outcome<T> {
            DeliveredTo(GetCb<T>, T),
            Stored,
        }
        let outcome = {
            let mut st = self.state.borrow_mut();
            assert!(!st.closed, "put on closed buffer {:?}", self.name);
            if let Some(getter) = st.waiting_gets.pop_front() {
                Outcome::DeliveredTo(getter, item)
            } else if st.items.len() < st.capacity {
                st.items.push_back(item);
                Outcome::Stored
            } else {
                st.waiting_puts.push_back((item, Box::new(accepted)));
                return; // callback deferred until space frees
            }
        };
        match outcome {
            Outcome::DeliveredTo(getter, item) => {
                accepted(sim);
                getter(sim, Some(item));
            }
            Outcome::Stored => accepted(sim),
        }
    }

    /// Request an item; `on_item` runs with `Some(item)` when one is
    /// available, or `None` if the buffer is closed and drained.
    pub fn get<F: FnOnce(&mut Sim, Option<T>) + 'static>(&self, sim: &mut Sim, on_item: F) {
        let on_item: GetCb<T> = Box::new(on_item);
        enum Outcome<T> {
            Item(T, Option<PutCb>),
            Eos,
        }
        let outcome = {
            let mut st = self.state.borrow_mut();
            if let Some(item) = st.items.pop_front() {
                // Space freed: admit one waiting producer, if any.
                let admitted = st.waiting_puts.pop_front().map(|(p_item, cb)| {
                    st.items.push_back(p_item);
                    cb
                });
                Outcome::Item(item, admitted)
            } else if st.closed && st.waiting_puts.is_empty() {
                Outcome::Eos
            } else if let Some((p_item, cb)) = st.waiting_puts.pop_front() {
                // A producer may be waiting while `items` is empty only if a
                // burst of getters drained everything at this instant; hand
                // its item straight through.
                Outcome::Item(p_item, Some(cb))
            } else {
                st.waiting_gets.push_back(on_item);
                return;
            }
        };
        match outcome {
            Outcome::Item(item, admitted) => {
                if let Some(cb) = admitted {
                    cb(sim);
                }
                on_item(sim, Some(item));
            }
            Outcome::Eos => on_item(sim, None),
        }
    }

    /// Close the buffer: no further puts are allowed; once drained, waiting
    /// and future getters receive `None`.
    pub fn close(&self, sim: &mut Sim) {
        let getters = {
            let mut st = self.state.borrow_mut();
            st.closed = true;
            assert!(
                st.waiting_puts.is_empty(),
                "close with blocked producers on {:?}",
                self.name
            );
            if st.items.is_empty() {
                std::mem::take(&mut st.waiting_gets)
            } else {
                VecDeque::new()
            }
        };
        for g in getters {
            g(sim, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn put_then_get_delivers_fifo() {
        let mut sim = Sim::new();
        let buf: BoundedBuffer<u32> = BoundedBuffer::new("b", 4);
        for v in [1, 2, 3] {
            buf.put(&mut sim, v, |_| {});
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let seen = Rc::clone(&seen);
            buf.get(&mut sim, move |_, item| {
                seen.borrow_mut().push(item.unwrap())
            });
        }
        sim.run();
        assert_eq!(*seen.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn get_blocks_until_put() {
        let mut sim = Sim::new();
        let buf: BoundedBuffer<u32> = BoundedBuffer::new("b", 1);
        let seen = Rc::new(RefCell::new(None));
        {
            let seen = Rc::clone(&seen);
            buf.get(&mut sim, move |sim, item| {
                *seen.borrow_mut() = Some((sim.now().as_nanos(), item.unwrap()));
            });
        }
        let buf2 = buf.clone();
        sim.schedule(SimDuration::from_nanos(7), move |sim| {
            buf2.put(sim, 9, |_| {});
        });
        sim.run();
        assert_eq!(*seen.borrow(), Some((7, 9)));
    }

    #[test]
    fn put_blocks_when_full_until_space() {
        let mut sim = Sim::new();
        let buf: BoundedBuffer<u32> = BoundedBuffer::new("b", 1);
        buf.put(&mut sim, 1, |_| {});
        let accepted_at = Rc::new(RefCell::new(None));
        {
            let accepted_at = Rc::clone(&accepted_at);
            buf.put(&mut sim, 2, move |sim| {
                *accepted_at.borrow_mut() = Some(sim.now().as_nanos());
            });
        }
        assert!(accepted_at.borrow().is_none(), "producer must block");
        let buf2 = buf.clone();
        sim.schedule(SimDuration::from_nanos(5), move |sim| {
            buf2.get(sim, |_, item| assert_eq!(item, Some(1)));
        });
        sim.run();
        assert_eq!(*accepted_at.borrow(), Some(5));
        // Item 2 was admitted: the next getter takes it at once.
        let next = Rc::new(RefCell::new(None));
        let slot = Rc::clone(&next);
        buf.get(&mut sim, move |_, item| *slot.borrow_mut() = item);
        assert_eq!(*next.borrow(), Some(2));
    }

    #[test]
    fn close_sends_eos_to_waiting_and_future_getters() {
        let mut sim = Sim::new();
        let buf: BoundedBuffer<u32> = BoundedBuffer::new("b", 2);
        let eos = Rc::new(RefCell::new(0));
        {
            let eos = Rc::clone(&eos);
            buf.get(&mut sim, move |_, item| {
                assert!(item.is_none());
                *eos.borrow_mut() += 1;
            });
        }
        buf.close(&mut sim);
        {
            let eos = Rc::clone(&eos);
            buf.get(&mut sim, move |_, item| {
                assert!(item.is_none());
                *eos.borrow_mut() += 1;
            });
        }
        sim.run();
        assert_eq!(*eos.borrow(), 2);
    }

    #[test]
    fn close_with_remaining_items_drains_before_eos() {
        let mut sim = Sim::new();
        let buf: BoundedBuffer<u32> = BoundedBuffer::new("b", 2);
        buf.put(&mut sim, 42, |_| {});
        buf.close(&mut sim);
        let log = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let log = Rc::clone(&log);
            buf.get(&mut sim, move |_, item| log.borrow_mut().push(item));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![Some(42), None]);
    }

    #[test]
    #[should_panic(expected = "put on closed buffer")]
    fn put_after_close_panics() {
        let mut sim = Sim::new();
        let buf: BoundedBuffer<u32> = BoundedBuffer::new("b", 1);
        buf.close(&mut sim);
        buf.put(&mut sim, 1, |_| {});
    }

    #[test]
    fn every_put_is_got_once() {
        let mut sim = Sim::new();
        let buf: BoundedBuffer<u32> = BoundedBuffer::new("b", 8);
        for v in 0..5 {
            buf.put(&mut sim, v, |_| {});
        }
        let got = Rc::new(RefCell::new(0));
        for _ in 0..5 {
            let got = Rc::clone(&got);
            buf.get(&mut sim, move |_, item| {
                assert!(item.is_some());
                *got.borrow_mut() += 1;
            });
        }
        sim.run();
        assert_eq!(*got.borrow(), 5);
    }
}
