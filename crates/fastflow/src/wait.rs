//! The wait behind every blocking channel operation, and the notification
//! primitive it parks on.
//!
//! FastFlow can run its queues in non-blocking (spinning) or blocking mode.
//! This crate runs them blocking only: a waiter spins briefly — in a busy
//! pipeline the peer usually makes progress within a few hundred cycles —
//! then yields, then parks on a [`Signal`] until a peer notifies it. A
//! spinning mode wastes the CPU an oversubscribed host needs for the peer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How a channel endpoint waits for its peer: spin briefly, then park on
/// a condition variable until notified (FastFlow's blocking mode). It is
/// the only strategy; [`channel`](crate::channel()) still takes it as an
/// argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaitStrategy {
    /// Spin, yield, then park until notified.
    #[default]
    Block,
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

    /// Wait until `ready()` returns true: spin, then yield, then park on
    /// this signal. Every peer that can make `ready()` true must
    /// [`notify`](Signal::notify) after doing so.
    pub(crate) fn wait_until(&self, mut ready: impl FnMut() -> bool) {
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
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

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
        let sig = Signal::new();
        let e = sig.epoch();
        sig.notify();
        sig.wait_if(e); // must not hang
    }

    #[test]
    fn block_strategy_wakes_on_notify() {
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
    }
}
