//! Bounded lock-free single-producer/single-consumer ring buffer.
//!
//! This is the communication primitive underneath every `fastflow` channel,
//! mirroring the fine-grained lock-free SPSC queues FastFlow is built on.
//! The implementation is a classic Lamport ring with cached indices:
//!
//! * `head` is written only by the consumer, `tail` only by the producer;
//! * each side keeps a *cached* copy of the other side's index and only
//!   re-reads the shared atomic when the cache says the queue looks
//!   full/empty, which removes most cross-core cache-line traffic;
//! * indices are monotonically increasing `usize` values taken modulo the
//!   capacity, so full/empty are distinguished without wasting a slot;
//! * `head`/`tail` live on separate cache lines to avoid false sharing.
//!
//! Safety argument: a slot is written by the producer strictly before the
//! `tail` release-store that publishes it, and read by the consumer strictly
//! after the acquire-load of `tail` that observes it (and vice versa for
//! reuse after `head` advances). Each slot therefore has exactly one owner at
//! any time.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns a value to a cache line to prevent false sharing.
#[repr(align(128))]
struct CachePadded<T>(T);

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    head: CachePadded<AtomicUsize>, // next index to pop (consumer-owned)
    tail: CachePadded<AtomicUsize>, // next index to push (producer-owned)
}

unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    #[inline]
    fn slot(&self, idx: usize) -> *mut MaybeUninit<T> {
        self.buf[idx % self.cap].get()
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Only one side still holds indices; drop the unconsumed range.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for idx in head..tail {
            unsafe { (*self.slot(idx)).assume_init_drop() };
        }
    }
}

/// Producer half of an SPSC ring. Not cloneable; exactly one producer.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    cached_head: Cell<usize>,
    tail: Cell<usize>, // local mirror of ring.tail
}

/// Consumer half of an SPSC ring. Not cloneable; exactly one consumer.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    cached_tail: Cell<usize>,
    head: Cell<usize>, // local mirror of ring.head
}

// The halves move between threads but are used from one thread at a time.
unsafe impl<T: Send> Send for Producer<T> {}
unsafe impl<T: Send> Send for Consumer<T> {}

/// Create a bounded SPSC ring with room for `capacity` items.
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "spsc ring needs capacity >= 1");
    let buf = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        buf,
        cap: capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            cached_head: Cell::new(0),
            tail: Cell::new(0),
        },
        Consumer {
            ring,
            cached_tail: Cell::new(0),
            head: Cell::new(0),
        },
    )
}

impl<T> Producer<T> {
    /// Attempt to enqueue; returns `Err(item)` if the ring is full.
    #[inline]
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let tail = self.tail.get();
        if tail - self.cached_head.get() == self.ring.cap {
            // Looks full through the cache; refresh from the shared index.
            self.cached_head
                .set(self.ring.head.0.load(Ordering::Acquire));
            if tail - self.cached_head.get() == self.ring.cap {
                return Err(item);
            }
        }
        unsafe { (*self.ring.slot(tail)).write(item) };
        self.tail.set(tail + 1);
        self.ring.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Enqueue up to `max` items taken from `iter`, publishing `tail` once
    /// for the whole run. Returns the number of items enqueued (0 when the
    /// ring is full or the iterator is exhausted); items not enqueued stay
    /// in the iterator.
    ///
    /// This is the batched fast path: `k` items cost one release store and
    /// (at most) one acquire load instead of `k` of each, which is what
    /// makes fine-grained streaming scale on multi-cores (the FastFlow
    /// multi-push optimization).
    pub fn try_push_n<I: Iterator<Item = T>>(&self, iter: &mut I, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let tail = self.tail.get();
        let mut free = self.ring.cap - (tail - self.cached_head.get());
        if free < max.min(self.ring.cap) {
            // The cache can't satisfy the whole run; refresh once so the
            // burst is as long as the consumer actually allows.
            self.cached_head
                .set(self.ring.head.0.load(Ordering::Acquire));
            free = self.ring.cap - (tail - self.cached_head.get());
        }
        let n = free.min(max);
        let mut written = 0;
        while written < n {
            // A panicking iterator leaks the items already written to the
            // unpublished slots (they are overwritten later) — never UB.
            match iter.next() {
                Some(item) => {
                    unsafe { (*self.ring.slot(tail + written)).write(item) };
                    written += 1;
                }
                None => break,
            }
        }
        if written > 0 {
            self.tail.set(tail + written);
            self.ring.tail.0.store(tail + written, Ordering::Release);
        }
        written
    }

    /// Room of the ring: the most items it ever holds.
    pub fn capacity(&self) -> usize {
        self.ring.cap
    }

    /// Number of free slots as last observed (may race; advisory only).
    pub fn free_slots(&self) -> usize {
        let head = self.ring.head.0.load(Ordering::Acquire);
        self.ring.cap - (self.tail.get() - head)
    }
}

impl<T> Consumer<T> {
    /// Attempt to dequeue; returns `None` if the ring is empty.
    #[inline]
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.get();
        if head == self.cached_tail.get() {
            self.cached_tail
                .set(self.ring.tail.0.load(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return None;
            }
        }
        let item = unsafe { (*self.ring.slot(head)).assume_init_read() };
        self.head.set(head + 1);
        self.ring.head.0.store(head + 1, Ordering::Release);
        Some(item)
    }

    /// Dequeue up to `max` items into `out`, publishing `head` once for the
    /// whole run. Returns the number of items appended (0 when the ring is
    /// empty). The consumer-side counterpart of
    /// [`Producer::try_push_n`]: `k` queued items cost one acquire load and
    /// one release store instead of `k` of each.
    pub fn try_pop_n(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let head = self.head.get();
        let mut avail = self.cached_tail.get() - head;
        if avail < max {
            // Refresh once so the drain run covers everything published.
            self.cached_tail
                .set(self.ring.tail.0.load(Ordering::Acquire));
            avail = self.cached_tail.get() - head;
        }
        let n = avail.min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for i in 0..n {
            out.push(unsafe { (*self.ring.slot(head + i)).assume_init_read() });
        }
        self.head.set(head + n);
        self.ring.head.0.store(head + n, Ordering::Release);
        n
    }

    /// Items currently queued as last observed (advisory only).
    pub fn len(&self) -> usize {
        let tail = self.ring.tail.0.load(Ordering::Acquire);
        tail - self.head.get()
    }

    /// True if no items are observed queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn push_pop_roundtrip() {
        let (p, c) = ring::<u32>(4);
        assert!(c.try_pop().is_none());
        p.try_push(1).unwrap();
        p.try_push(2).unwrap();
        assert_eq!(c.try_pop(), Some(1));
        assert_eq!(c.try_pop(), Some(2));
        assert!(c.try_pop().is_none());
    }

    #[test]
    fn full_ring_rejects() {
        let (p, c) = ring::<u32>(2);
        p.try_push(1).unwrap();
        p.try_push(2).unwrap();
        assert_eq!(p.try_push(3), Err(3));
        assert_eq!(c.try_pop(), Some(1));
        p.try_push(3).unwrap();
        assert_eq!(c.try_pop(), Some(2));
        assert_eq!(c.try_pop(), Some(3));
    }

    #[test]
    fn capacity_one_alternates() {
        let (p, c) = ring::<u8>(1);
        for i in 0..10 {
            p.try_push(i).unwrap();
            assert_eq!(p.try_push(99), Err(99));
            assert_eq!(c.try_pop(), Some(i));
        }
    }

    #[test]
    fn wraparound_preserves_order() {
        let (p, c) = ring::<usize>(3);
        let mut next_out = 0;
        for i in 0..100 {
            // Make room if full, checking FIFO order as we drain.
            while let Err(v) = p.try_push(i) {
                assert_eq!(v, i);
                assert_eq!(c.try_pop(), Some(next_out));
                next_out += 1;
            }
        }
        while let Some(v) = c.try_pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, 100);
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (p, c) = ring::<D>(8);
        for _ in 0..5 {
            p.try_push(D).unwrap();
        }
        drop(c.try_pop()); // one dropped by hand
        drop(p);
        drop(c); // four remaining dropped by the ring
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn cross_thread_transfers_everything_in_order() {
        const N: usize = 100_000;
        let (p, c) = ring::<usize>(64);
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.try_push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expected = 0;
        while expected < N {
            match c.try_pop() {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert!(c.try_pop().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_panics() {
        let _ = ring::<u8>(0);
    }

    #[test]
    fn push_n_pop_n_roundtrip() {
        let (p, c) = ring::<u32>(8);
        let mut src = 0..5u32;
        assert_eq!(p.try_push_n(&mut src, 16), 5);
        let mut out = Vec::new();
        assert_eq!(c.try_pop_n(&mut out, 16), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.try_pop_n(&mut out, 16), 0);
    }

    #[test]
    fn push_n_partial_on_nearly_full_ring() {
        let (p, c) = ring::<u32>(4);
        p.try_push(100).unwrap();
        p.try_push(101).unwrap();
        let mut src = 0..10u32;
        // Only two slots free: the run must stop there, leaving the rest
        // in the iterator.
        assert_eq!(p.try_push_n(&mut src, 10), 2);
        assert_eq!(src.next(), Some(2));
        let mut out = Vec::new();
        assert_eq!(c.try_pop_n(&mut out, 10), 4);
        assert_eq!(out, vec![100, 101, 0, 1]);
    }

    #[test]
    fn pop_n_respects_max() {
        let (p, c) = ring::<u32>(8);
        let mut src = 0..8u32;
        assert_eq!(p.try_push_n(&mut src, 8), 8);
        let mut out = Vec::new();
        assert_eq!(c.try_pop_n(&mut out, 3), 3);
        assert_eq!(c.try_pop_n(&mut out, 3), 3);
        assert_eq!(c.try_pop_n(&mut out, 3), 2);
        assert_eq!(out, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn batched_ops_wrap_around_the_ring_boundary() {
        let (p, c) = ring::<usize>(5);
        let mut next_in = 0usize;
        let mut next_out = 0usize;
        let mut out = Vec::new();
        // Mixed-size bursts cycle the indices far past several wraps.
        for round in 0..200 {
            let want = 1 + (round % 5);
            let mut src = next_in..usize::MAX;
            let pushed = p.try_push_n(&mut src, want);
            next_in += pushed;
            let popped = c.try_pop_n(&mut out, 1 + (round % 4));
            for v in out.drain(..) {
                assert_eq!(v, next_out);
                next_out += 1;
            }
            assert!(popped <= 4);
        }
        while c.try_pop_n(&mut out, 3) > 0 {
            for v in out.drain(..) {
                assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        assert_eq!(next_out, next_in);
    }

    #[test]
    fn batched_and_single_ops_interleave() {
        let (p, c) = ring::<u32>(4);
        p.try_push(7).unwrap();
        let mut src = 8..10u32;
        assert_eq!(p.try_push_n(&mut src, 2), 2);
        assert_eq!(c.try_pop(), Some(7));
        let mut out = Vec::new();
        assert_eq!(c.try_pop_n(&mut out, 1), 1);
        assert_eq!(out, vec![8]);
        assert_eq!(c.try_pop(), Some(9));
    }

    #[test]
    fn drop_releases_unconsumed_batched_items() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let (p, c) = ring::<D>(8);
        let mut src = std::iter::repeat_with(|| D);
        assert_eq!(p.try_push_n(&mut src, 6), 6);
        let mut out = Vec::new();
        assert_eq!(c.try_pop_n(&mut out, 2), 2);
        drop(out); // 2 dropped by the caller
        drop(p);
        drop(c); // 4 unconsumed dropped by the ring
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn cross_thread_batched_transfer_is_lossless_and_ordered() {
        const N: usize = 200_000;
        let (p, c) = ring::<usize>(64);
        let producer = thread::spawn(move || {
            let mut src = 0..N;
            let mut sent = 0;
            while sent < N {
                let pushed = p.try_push_n(&mut src, 17);
                if pushed == 0 {
                    thread::yield_now();
                }
                sent += pushed;
            }
        });
        let mut expected = 0;
        let mut out = Vec::new();
        while expected < N {
            if c.try_pop_n(&mut out, 23) == 0 {
                thread::yield_now();
            }
            for v in out.drain(..) {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert!(c.try_pop().is_none());
    }
}
