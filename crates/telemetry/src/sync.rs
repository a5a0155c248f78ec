//! The lock-free primitives both CPU runtimes are built on: one
//! cache-line pad, one bounded MPMC ring and one parker.
//!
//! * [`CachePadded`] keeps a producer's and a consumer's cursor off one
//!   cache line (`fastflow`'s SPSC ring, `tbbx`'s Chase–Lev deque, the
//!   ring below).
//! * [`MpmcRing`] is Vyukov's bounded multi-producer/multi-consumer queue.
//!   `fastflow` keeps its pooled buffers and recycled payloads in it;
//!   `tbbx` uses it as the task injector that outside spawns land in.
//! * [`Signal`] is the epoch-counting wakeup every blocking wait parks on:
//!   `fastflow`'s channel and farm ends, `tbbx`'s idle workers, its
//!   `Latch` and its pipeline's completion.
//!
//! They live here because this is the one crate every runtime and the
//! flight recorder already depend on, so sharing them adds no crate edge.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Pads and aligns a value to 128 bytes, so two of them never share a
/// cache line (x86 prefetches lines in pairs).
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

/// One slot of the ring: a sequence ticket plus uninitialised value
/// storage. A slot whose sequence equals the push ticket is writable; one
/// past the pop ticket is readable.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free multi-producer/multi-consumer ring (Vyukov): each
/// slot carries a sequence number that says whether it is ready to write
/// (`seq == pos`) or to read (`seq == pos + 1`); producers and consumers
/// claim positions with a CAS on their own cursor and publish through the
/// slot's sequence.
pub struct MpmcRing<T> {
    mask: usize,
    slots: Box<[Slot<T>]>,
    /// Push ticket counter.
    tail: CachePadded<AtomicUsize>,
    /// Pop ticket counter.
    head: CachePadded<AtomicUsize>,
}

// SAFETY: the ring owns the values queued in it; sending the ring (in
// practice, the last `Arc` to it) to another thread sends those values,
// which `T: Send` allows.
unsafe impl<T: Send> Send for MpmcRing<T> {}
// SAFETY: `mask` and `slots` never change and the cursors and sequences
// are atomics. A slot's value is touched only by the one thread whose
// cursor CAS claimed that slot's ticket, between its Acquire load of the
// slot's sequence and its Release store of the next one, so no two
// threads access a value at once. Values move between threads but are
// never shared, so `T: Send` suffices.
unsafe impl<T: Send> Sync for MpmcRing<T> {}

impl<T> MpmcRing<T> {
    /// Ring holding at least `capacity` values (rounded up to a power of
    /// two, at least 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcRing {
            mask: cap - 1,
            slots,
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Push `value`, or hand it back if the ring is full.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.tail.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the ticket CAS gives us exclusive
                        // write access until we publish seq below.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                return Err(value); // full
            } else {
                pos = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop one value, or `None` when empty.
    pub fn try_pop(&self) -> Option<T> {
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the ticket CAS gives us exclusive
                        // read access; the slot was published by a push.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.head.0.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for MpmcRing<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

const SPIN_LIMIT: u32 = 64;
const YIELD_LIMIT: u32 = 128;

/// An epoch-counting wakeup signal.
///
/// The epoch counter makes the classic "missed wakeup" race benign: a waiter
/// snapshots the epoch, re-checks its condition, and only parks if the epoch
/// is unchanged — any notification between snapshot and park bumps the epoch
/// and the park is skipped.
///
/// `notify` is on every channel operation's path, parked peer or not, so
/// it takes the mutex and issues the futex wake only when `parked` says
/// somebody may be asleep. That is Dekker's protocol over two `SeqCst`
/// locations: the waiter *writes `parked`, then reads `epoch`*; the
/// notifier *writes `epoch`, then reads `parked`*. In the single total
/// order of those four operations one of the reads comes after the other
/// side's write:
///
/// * the notifier's read of `parked` follows the waiter's increment — it
///   sees a waiter and takes the slow path, where the mutex orders it
///   against the waiter's epoch check: either the check comes after the
///   notifier's lock/unlock and sees the new epoch, or the waiter is
///   already inside `Condvar::wait` and `notify_all` reaches it;
/// * or the notifier read `parked == 0` before the increment — then its
///   epoch bump, earlier still, precedes the waiter's epoch read, which
///   sees it and does not park.
///
/// With anything weaker than `SeqCst` both reads may see the old values
/// (store buffering) and the wakeup is lost.
#[derive(Default)]
pub struct Signal {
    epoch: AtomicUsize,
    /// Threads inside [`Signal::wait_if`].
    parked: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl Signal {
    /// New signal with epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the current epoch (pair with [`Signal::wait_if`]).
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Wake all current waiters. Two atomic operations when nobody is
    /// parked.
    #[inline]
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) != 0 {
            self.wake();
        }
    }

    #[cold]
    fn wake(&self) {
        // Lock/unlock orders the epoch bump before any waiter's re-check
        // under the same mutex, then wake everyone.
        drop(self.lock.lock().expect("signal mutex guards no data"));
        self.cond.notify_all();
    }

    /// Park until the epoch moves past `observed` (returns immediately if it
    /// already has).
    pub fn wait_if(&self, observed: usize) {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().expect("signal mutex guards no data");
        while self.epoch.load(Ordering::SeqCst) == observed {
            guard = self.cond.wait(guard).expect("signal mutex guards no data");
        }
        drop(guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wait until `ready()` returns true: spin briefly — a busy peer
    /// usually makes progress within a few hundred cycles — then yield,
    /// then park on this signal. Every peer that can make `ready()` true
    /// must [`notify`](Signal::notify) after doing so.
    pub fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        let mut spins: u32 = 0;
        loop {
            if ready() {
                return;
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else if spins < YIELD_LIMIT {
                std::thread::yield_now();
            } else {
                let epoch = self.epoch();
                if ready() {
                    return;
                }
                self.wait_if(epoch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::within_deadline;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mpmc_ring_transfers_everything_once() {
        within_deadline(|| {
            let ring = Arc::new(MpmcRing::<usize>::new(64));
            let n_threads = 4;
            let per_thread = 10_000;
            let popped = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for t in 0..n_threads {
                let ring = Arc::clone(&ring);
                handles.push(thread::spawn(move || {
                    for i in 0..per_thread {
                        let mut v = t * per_thread + i;
                        loop {
                            match ring.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    thread::yield_now();
                                }
                            }
                        }
                    }
                }));
            }
            let total = n_threads * per_thread;
            let pop_count = Arc::new(AtomicUsize::new(0));
            for _ in 0..n_threads {
                let ring = Arc::clone(&ring);
                let popped = Arc::clone(&popped);
                let pop_count = Arc::clone(&pop_count);
                handles.push(thread::spawn(move || {
                    let mut got = Vec::new();
                    while pop_count.load(Ordering::Relaxed) < total {
                        match ring.try_pop() {
                            Some(v) => {
                                got.push(v);
                                pop_count.fetch_add(1, Ordering::Relaxed);
                            }
                            None => thread::yield_now(),
                        }
                    }
                    popped.lock().unwrap().push(got);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let mut all: Vec<usize> = popped.lock().unwrap().concat();
            all.sort_unstable();
            // Every pushed value must come out exactly once.
            assert_eq!(all, (0..total).collect::<Vec<_>>());
        });
    }

    #[test]
    fn ready_immediately_returns() {
        Signal::new().wait_until(|| true);
    }

    #[test]
    fn notify_bumps_epoch() {
        let sig = Signal::new();
        let e = sig.epoch();
        sig.notify();
        assert!(sig.epoch() > e);
    }

    #[test]
    fn wait_if_returns_when_epoch_already_moved() {
        within_deadline(|| {
            let sig = Signal::new();
            let e = sig.epoch();
            sig.notify();
            sig.wait_if(e); // must not hang
        });
    }

    #[test]
    fn block_strategy_wakes_on_notify() {
        within_deadline(|| {
            let sig = Arc::new(Signal::new());
            let flag = Arc::new(AtomicBool::new(false));
            let (sig2, flag2) = (Arc::clone(&sig), Arc::clone(&flag));
            let waiter = thread::spawn(move || {
                sig2.wait_until(|| flag2.load(Ordering::Acquire));
            });
            thread::sleep(Duration::from_millis(20));
            flag.store(true, Ordering::Release);
            sig.notify();
            waiter.join().unwrap();
        });
    }
}
