//! Blocking SPSC channel: the [`crate::spsc`] ring plus wait-strategy
//! driven send/recv and end-of-stream propagation.
//!
//! A channel is created with an explicit capacity and [`WaitStrategy`];
//! `send` blocks (per the strategy) while the ring is full, `recv` while it
//! is empty. Dropping the [`Sender`] closes the channel: once drained,
//! `recv` returns `None`, which is how EOS flows through every pipeline in
//! this crate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::spsc::{self, Consumer, Producer};
use crate::wait::{Signal, WaitStrategy};

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// Ring is full; the item is handed back.
    Full(T),
    /// Receiver dropped; the item is handed back.
    Disconnected(T),
}

struct Shared {
    /// The sender is gone: end-of-stream once the ring drains.
    closed: AtomicBool,
    /// The receiver is gone. Stored before the drop's wakeup, so a sender
    /// woken by it cannot re-check and still see a consumer.
    receiver_gone: AtomicBool,
    /// Receiver waits here; sender notifies after each push (Block mode).
    items: Arc<Signal>,
    /// Sender waits here; receiver notifies after each pop (Block mode).
    space: Arc<Signal>,
}

/// Sending half of a channel. Single producer: not cloneable.
pub struct Sender<T> {
    prod: Producer<T>,
    shared: Arc<Shared>,
    wait: WaitStrategy,
}

/// Receiving half of a channel. Single consumer: not cloneable.
pub struct Receiver<T> {
    cons: Consumer<T>,
    shared: Arc<Shared>,
    wait: WaitStrategy,
}

/// Create a bounded channel with the given capacity and wait strategy.
pub fn channel<T: Send>(capacity: usize, wait: WaitStrategy) -> (Sender<T>, Receiver<T>) {
    with_signals(capacity, wait, Arc::default(), Arc::default())
}

/// Like [`channel`], but the receive-side signal is supplied by the caller so
/// that one consumer can block on several channels at once (a farm's
/// fan-in does this: every worker's sender notifies the same signal).
pub fn channel_with_recv_signal<T: Send>(
    capacity: usize,
    wait: WaitStrategy,
    items_signal: Arc<Signal>,
) -> (Sender<T>, Receiver<T>) {
    with_signals(capacity, wait, items_signal, Arc::default())
}

/// The mirror of [`channel_with_recv_signal`]: the send-side signal is
/// supplied by the caller so that one producer can block on "any of these
/// channels has room" (a farm's fan-out does this: every worker's
/// receiver notifies the same signal after a pop).
pub(crate) fn channel_with_send_signal<T: Send>(
    capacity: usize,
    wait: WaitStrategy,
    space_signal: Arc<Signal>,
) -> (Sender<T>, Receiver<T>) {
    with_signals(capacity, wait, Arc::default(), space_signal)
}

fn with_signals<T: Send>(
    capacity: usize,
    wait: WaitStrategy,
    items: Arc<Signal>,
    space: Arc<Signal>,
) -> (Sender<T>, Receiver<T>) {
    let (prod, cons) = spsc::ring(capacity);
    let shared = Arc::new(Shared {
        closed: AtomicBool::new(false),
        receiver_gone: AtomicBool::new(false),
        items,
        space,
    });
    (
        Sender {
            prod,
            shared: Arc::clone(&shared),
            wait,
        },
        Receiver { cons, shared, wait },
    )
}

impl<T: Send> Sender<T> {
    /// Enqueue `item`, blocking per the wait strategy while the ring is full.
    /// Fails only if the receiver has been dropped.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut item = Some(item);
        loop {
            match self.try_send(item.take().expect("item present")) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    item = Some(v);
                    self.wait_for_space();
                }
            }
        }
    }

    /// Non-blocking enqueue.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        if self.is_disconnected() {
            return Err(TrySendError::Disconnected(item));
        }
        match self.prod.try_push(item) {
            Ok(()) => {
                if self.wait.needs_notify() {
                    self.shared.items.notify();
                }
                Ok(())
            }
            Err(v) => Err(TrySendError::Full(v)),
        }
    }

    /// Enqueue every item yielded by `items`, blocking per the wait strategy
    /// whenever the ring fills. Each contiguous run of items is published
    /// with a single index store and (in `Block` mode) a single wakeup, so
    /// `k` queued items cost one acquire/release pair instead of `k`.
    ///
    /// Returns the number of items delivered. If the receiver disappears
    /// mid-batch, `Err(SendError(sent))` reports how many made it; the
    /// undelivered remainder of the iterator is dropped (exactly what
    /// happens to in-flight items when a stream is torn down early).
    pub fn send_batch<I>(&self, items: I) -> Result<usize, SendError<usize>>
    where
        I: IntoIterator<Item = T>,
    {
        let mut iter = items.into_iter().peekable();
        let mut sent = 0usize;
        while iter.peek().is_some() {
            if self.is_disconnected() {
                return Err(SendError(sent));
            }
            let n = self.prod.try_push_n(&mut iter, usize::MAX);
            if n > 0 {
                sent += n;
                if self.wait.needs_notify() {
                    self.shared.items.notify();
                }
            } else {
                self.wait_for_space();
            }
        }
        Ok(sent)
    }

    /// Non-blocking batched enqueue: push as many items as currently fit,
    /// publishing once. Returns how many were taken from the iterator; the
    /// remainder stays in `items` (pass `&mut`, so nothing is lost).
    pub fn try_send_batch<I>(&self, items: &mut I) -> Result<usize, TrySendError<()>>
    where
        I: Iterator<Item = T>,
    {
        if self.is_disconnected() {
            return Err(TrySendError::Disconnected(()));
        }
        let n = self.prod.try_push_n(items, usize::MAX);
        if n > 0 && self.wait.needs_notify() {
            self.shared.items.notify();
        }
        Ok(n)
    }

    /// The capacity the channel was created with: the most items it holds.
    pub fn capacity(&self) -> usize {
        self.prod.capacity()
    }

    /// Advisory free-slot count.
    pub fn free_slots(&self) -> usize {
        self.prod.free_slots()
    }

    /// True when the receiver has been dropped.
    pub(crate) fn is_disconnected(&self) -> bool {
        self.shared.receiver_gone.load(Ordering::SeqCst)
    }

    /// Block per the wait strategy until the ring has room or the
    /// receiver is gone.
    fn wait_for_space(&self) {
        self.wait.wait_until(&self.shared.space, || {
            self.prod.free_slots() > 0 || self.is_disconnected()
        });
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        // Wake a receiver parked on an empty ring so it can observe EOS.
        self.shared.items.notify();
    }
}

impl<T: Send> Receiver<T> {
    /// Dequeue the next item, blocking per the wait strategy while empty.
    /// Returns `None` once the sender is dropped and the ring drained.
    pub fn recv(&self) -> Option<T> {
        loop {
            if let Some(v) = self.cons.try_pop() {
                if self.wait.needs_notify() {
                    self.shared.space.notify();
                }
                return Some(v);
            }
            if self.shared.closed.load(Ordering::Acquire) {
                // Re-check: the sender may have pushed right before closing.
                return match self.cons.try_pop() {
                    Some(v) => {
                        if self.wait.needs_notify() {
                            self.shared.space.notify();
                        }
                        Some(v)
                    }
                    None => None,
                };
            }
            let cons = &self.cons;
            let closed = &self.shared.closed;
            self.wait.wait_until(&self.shared.items, || {
                !cons.is_empty() || closed.load(Ordering::Acquire)
            });
        }
    }

    /// Blocking batched dequeue: wait (per the strategy) until at least one
    /// item is available or the stream ends, then drain up to `max` items
    /// into `out` with a single index publication. Returns the number of
    /// items appended; `0` means end-of-stream.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        loop {
            let n = self.cons.try_pop_n(out, max);
            if n > 0 {
                if self.wait.needs_notify() {
                    self.shared.space.notify();
                }
                return n;
            }
            if self.shared.closed.load(Ordering::Acquire) {
                // Re-check: the sender may have pushed right before closing.
                let n = self.cons.try_pop_n(out, max);
                if n > 0 && self.wait.needs_notify() {
                    self.shared.space.notify();
                }
                return n;
            }
            let cons = &self.cons;
            let closed = &self.shared.closed;
            self.wait.wait_until(&self.shared.items, || {
                !cons.is_empty() || closed.load(Ordering::Acquire)
            });
        }
    }

    /// Non-blocking batched dequeue: drain up to `max` currently queued
    /// items into `out` with one index publication. Returns how many were
    /// appended; `0` means "currently empty", not EOS.
    pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.cons.try_pop_n(out, max);
        if n > 0 && self.wait.needs_notify() {
            self.shared.space.notify();
        }
        n
    }

    /// True when the sender is dropped and the ring is drained.
    pub fn is_eos(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire) && self.cons.is_empty()
    }

    /// True when the sender has been dropped (items may remain).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Advisory queued-item count.
    pub fn len(&self) -> usize {
        self.cons.len()
    }

    /// Advisory emptiness.
    pub fn is_empty(&self) -> bool {
        self.cons.is_empty()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Publish the disconnect, then wake a sender parked on a full ring:
        // whatever it re-checks after this wakeup already sees the flag.
        self.shared.receiver_gone.store(true, Ordering::SeqCst);
        self.shared.space.notify();
    }
}

/// Iterate over received items until EOS.
impl<T: Send> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = RecvIter<T>;
    fn into_iter(self) -> RecvIter<T> {
        RecvIter { rx: self }
    }
}

/// Blocking iterator over a [`Receiver`].
pub struct RecvIter<T> {
    rx: Receiver<T>,
}

impl<T: Send> Iterator for RecvIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn all_strategies() -> [WaitStrategy; 3] {
        [WaitStrategy::Spin, WaitStrategy::Yield, WaitStrategy::Block]
    }

    #[test]
    fn send_recv_in_order_across_threads() {
        for ws in all_strategies() {
            const N: u64 = 20_000;
            let (tx, rx) = channel::<u64>(16, ws);
            let producer = thread::spawn(move || {
                for i in 0..N {
                    tx.send(i).unwrap();
                }
            });
            let mut expected = 0;
            while let Some(v) = rx.recv() {
                assert_eq!(v, expected);
                expected += 1;
            }
            assert_eq!(expected, N, "strategy {ws:?}");
            producer.join().unwrap();
        }
    }

    #[test]
    fn recv_returns_none_after_sender_drop() {
        let (tx, rx) = channel::<u32>(4, WaitStrategy::Block);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
        assert!(rx.is_eos());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u32>(2, WaitStrategy::Yield);
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = channel::<u32>(1, WaitStrategy::Spin);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
    }

    #[test]
    fn blocked_sender_wakes_when_receiver_drains() {
        let (tx, rx) = channel::<u32>(1, WaitStrategy::Block);
        tx.send(1).unwrap();
        let sender = thread::spawn(move || tx.send(2).unwrap());
        // Give the sender a chance to park.
        thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        sender.join().unwrap();
    }

    #[test]
    fn blocked_sender_wakes_on_receiver_drop() {
        let (tx, rx) = channel::<u32>(1, WaitStrategy::Block);
        tx.send(1).unwrap();
        let sender = thread::spawn(move || {
            assert_eq!(tx.send(2), Err(SendError(2)));
        });
        thread::sleep(std::time::Duration::from_millis(10));
        drop(rx);
        sender.join().unwrap();
    }

    #[test]
    fn iterator_drains_until_eos() {
        let (tx, rx) = channel::<u32>(8, WaitStrategy::Block);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let collected: Vec<u32> = rx.into_iter().collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn send_batch_recv_batch_roundtrip_across_threads() {
        for ws in all_strategies() {
            const N: u64 = 50_000;
            let (tx, rx) = channel::<u64>(32, ws);
            let producer = thread::spawn(move || {
                let mut next = 0u64;
                while next < N {
                    let hi = (next + 13).min(N);
                    assert_eq!(tx.send_batch(next..hi), Ok((hi - next) as usize));
                    next = hi;
                }
            });
            let mut expected = 0u64;
            let mut buf = Vec::new();
            loop {
                let n = rx.recv_batch(&mut buf, 29);
                if n == 0 {
                    break;
                }
                for v in buf.drain(..) {
                    assert_eq!(v, expected);
                    expected += 1;
                }
            }
            assert_eq!(expected, N, "strategy {ws:?}");
            producer.join().unwrap();
        }
    }

    #[test]
    fn send_batch_reports_disconnect_with_delivered_count() {
        let (tx, rx) = channel::<u32>(4, WaitStrategy::Yield);
        drop(rx);
        assert_eq!(tx.send_batch(0..10), Err(SendError(0)));
    }

    #[test]
    fn recv_batch_returns_zero_at_eos_after_draining() {
        let (tx, rx) = channel::<u32>(8, WaitStrategy::Block);
        assert_eq!(tx.send_batch(0..5u32), Ok(5));
        drop(tx);
        let mut buf = Vec::new();
        assert_eq!(rx.recv_batch(&mut buf, 3), 3);
        assert_eq!(rx.recv_batch(&mut buf, 3), 2);
        assert_eq!(rx.recv_batch(&mut buf, 3), 0);
        assert!(rx.is_eos());
        assert_eq!(buf, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn try_send_batch_keeps_remainder_in_iterator() {
        let (tx, rx) = channel::<u32>(3, WaitStrategy::Spin);
        let mut iter = 0..10u32;
        assert_eq!(tx.try_send_batch(&mut iter), Ok(3));
        assert_eq!(iter.next(), Some(3));
        let mut buf = Vec::new();
        assert_eq!(rx.try_recv_batch(&mut buf, 8), 3);
        assert_eq!(buf, vec![0, 1, 2]);
        assert_eq!(rx.try_recv_batch(&mut buf, 8), 0);
    }

    #[test]
    fn batched_sender_wakes_blocked_receiver() {
        let (tx, rx) = channel::<u32>(16, WaitStrategy::Block);
        let consumer = thread::spawn(move || {
            let mut buf = Vec::new();
            let mut got = 0;
            loop {
                let n = rx.recv_batch(&mut buf, 16);
                if n == 0 {
                    break;
                }
                got += n;
                buf.clear();
            }
            got
        });
        thread::sleep(std::time::Duration::from_millis(10));
        tx.send_batch(0..40u32).unwrap();
        drop(tx);
        assert_eq!(consumer.join().unwrap(), 40);
    }

    #[test]
    fn shared_recv_signal_wakes_collector() {
        // Two channels sharing one item signal; a consumer parks on both.
        let sig = Arc::new(Signal::new());
        let (tx_a, rx_a) =
            channel_with_recv_signal::<u32>(4, WaitStrategy::Block, Arc::clone(&sig));
        let (tx_b, rx_b) =
            channel_with_recv_signal::<u32>(4, WaitStrategy::Block, Arc::clone(&sig));
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            let mut open = 2;
            while open > 0 {
                let mut progressed = false;
                for rx in [&rx_a, &rx_b] {
                    progressed |= rx.try_recv_batch(&mut got, usize::MAX) > 0;
                }
                if rx_a.is_eos() && rx_b.is_eos() {
                    open = 0;
                } else if !progressed {
                    let e = sig.epoch();
                    if rx_a.is_empty() && rx_b.is_empty() && !rx_a.is_eos() && !rx_b.is_eos() {
                        sig.wait_if(e);
                    }
                }
            }
            got.sort_unstable();
            got
        });
        thread::sleep(std::time::Duration::from_millis(5));
        tx_a.send(1).unwrap();
        tx_b.send(2).unwrap();
        drop(tx_a);
        drop(tx_b);
        assert_eq!(consumer.join().unwrap(), vec![1, 2]);
    }
}
