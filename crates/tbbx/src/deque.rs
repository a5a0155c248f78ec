//! A Chase–Lev work-stealing deque — the queue discipline TBB's scheduler
//! is defined by: the owning worker pushes and pops at the *bottom* (LIFO,
//! cache-warm work), thieves steal from the *top* (FIFO, oldest work, the
//! coarsest-grained tasks under divide-and-conquer splitting).
//!
//! The implementation follows Chase & Lev ("Dynamic Circular Work-Stealing
//! Deque", SPAA '05) with the C11 orderings of Lê et al. ("Correct and
//! Efficient Work-Stealing for Weak Memory Models", PPoPP '13):
//!
//! - `push` writes the slot, then publishes `bottom` with a **Release**
//!   store so a thief that Acquire-loads `bottom` sees the slot contents.
//! - `pop` decrements `bottom`, then issues a **SeqCst fence** before
//!   loading `top`: the fence globally orders the decrement against every
//!   thief's `top` read, so owner and thief cannot both conclude the last
//!   item is theirs without going through the `top` CAS.
//! - `steal` Acquire-loads `top`, issues the matching **SeqCst fence**,
//!   then Acquire-loads `bottom`; it reads the slot *before* the
//!   `compare_exchange` on `top` — the CAS is the linearization point, a
//!   failed claim never drops or duplicates an item. Because a stalled
//!   thief can read a slot the owner is concurrently rewriting one lap
//!   later, the slot is read **volatile as uninitialized bytes**
//!   (`ptr::read_volatile` of `MaybeUninit<T>`, the crossbeam-deque
//!   mitigation): the possibly-torn bytes are never treated as a live `T`
//!   unless the `top` CAS proves the read raced with nobody.
//!
//! Buffer growth never blocks thieves: the owner copies the live window
//! into a doubled buffer, publishes the new pointer with a Release store,
//! and *retires* the old buffer to a side list that is only freed when the
//! deque itself drops. A thief still holding the stale pointer reads from
//! memory that is guaranteed alive, and its subsequent `top` CAS decides
//! whether the (possibly stale) value it read is actually claimed.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

use telemetry::sync::CachePadded;

/// One fixed-capacity circular buffer generation.
struct Buffer<T> {
    /// Power-of-two capacity.
    cap: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn new(cap: usize) -> Self {
        assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Buffer { cap, slots }
    }

    #[inline]
    fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        self.slots[index as usize & (self.cap - 1)].get()
    }

    /// # Safety
    /// The caller must hold the owner side and `index` must be a free slot.
    #[inline]
    unsafe fn write(&self, index: isize, value: T) {
        // SAFETY: the slot is in `self.slots`, alive for `&self`; no other
        // thread touches a free slot before `bottom` publishes it.
        (*self.slot(index)).write(value);
    }

    /// Read the slot's bytes without asserting they form a valid `T`.
    ///
    /// Volatile, because a stalled thief may read a slot the owner is
    /// concurrently rewriting one lap later; the compiler must neither
    /// tear-split nor invent the load. The caller may `assume_init` the
    /// result only once a successful `top` CAS (or the owner's exclusive
    /// bottom range) proves the slot was not being rewritten; otherwise the
    /// `MaybeUninit` is simply discarded without dropping a `T`.
    ///
    /// # Safety
    /// `index` must be in the window some snapshot of `[top, bottom)`
    /// covered, so the slot memory is allocated and owner-written.
    #[inline]
    unsafe fn read(&self, index: isize) -> MaybeUninit<T> {
        // SAFETY: the slot is in `self.slots`, alive for `&self`; the copy
        // stays a `MaybeUninit<T>`, so torn bytes are never a live `T`.
        ptr::read_volatile(self.slot(index))
    }
}

struct Inner<T> {
    bottom: CachePadded<AtomicIsize>,
    top: CachePadded<AtomicIsize>,
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by growth, kept alive (not freed) until the deque
    /// drops so thieves holding a stale pointer never read freed memory.
    /// Only the owner pushes here, and only during the (rare) grow path —
    /// the Mutex is never taken on the task hot path.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: `retired`'s raw pointers are buffers the deque owns and frees
// only in `Drop`; sending it sends its `T`s, which `T: Send` allows.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: shared state is atomics, the `retired` mutex, and slots the
// Chase–Lev protocol gives one side at a time: the owner writes only
// outside `[top, bottom)`, a thief keeps a read only if its `top` CAS
// wins. Values move between threads, never shared: `T: Send` suffices.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole remaining reference: drop any unclaimed items, then every
        // buffer generation.
        let b = self.bottom.0.load(Ordering::Relaxed);
        let t = self.top.0.load(Ordering::Relaxed);
        let buf = self.buffer.load(Ordering::Relaxed);
        // SAFETY: `&mut self` is the sole reference; `[t, b)` holds the
        // unclaimed items, each dropped once, and every buffer pointer came
        // from `Box::into_raw` and is freed once.
        unsafe {
            for i in t..b {
                // Sole reference: the unclaimed window is fully initialized.
                drop((*buf).read(i).assume_init());
            }
            drop(Box::from_raw(buf));
            for old in crate::lock_unpoisoned(&self.retired).drain(..) {
                drop(Box::from_raw(old));
            }
        }
    }
}

/// Owner handle: single-threaded LIFO push/pop at the bottom. `!Sync` —
/// exactly one thread may operate it (moving it to another thread is fine).
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Strip `Sync` (and `Clone`): the owner-side protocol is single-writer.
    _not_sync: PhantomData<*mut ()>,
}

// SAFETY: the `*mut ()` marker only strips `Sync`; a moved owner handle
// still leaves one thread on the owner side, and `Inner<T>` is `Send`.
unsafe impl<T: Send> Send for Worker<T> {}

/// Thief handle: FIFO steal from the top. Freely cloned and shared.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of one steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Claimed the oldest item.
    Success(T),
}

/// Create a deque with `min_cap` initial capacity (rounded up to a power
/// of two, at least 2).
pub fn deque_with_capacity<T: Send>(min_cap: usize) -> (Worker<T>, Stealer<T>) {
    let cap = min_cap.next_power_of_two().max(2);
    let buf = Box::into_raw(Box::new(Buffer::<T>::new(cap)));
    let inner = Arc::new(Inner {
        bottom: CachePadded(AtomicIsize::new(0)),
        top: CachePadded(AtomicIsize::new(0)),
        buffer: AtomicPtr::new(buf),
        retired: Mutex::new(Vec::new()),
    });
    (
        Worker {
            inner: Arc::clone(&inner),
            _not_sync: PhantomData,
        },
        Stealer { inner },
    )
}

/// Create a deque with the default initial capacity (64 slots).
pub fn deque<T: Send>() -> (Worker<T>, Stealer<T>) {
    deque_with_capacity(64)
}

impl<T: Send> Worker<T> {
    /// Push at the bottom (LIFO end). Grows the buffer when full; never
    /// blocks thieves.
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.0.load(Ordering::Relaxed);
        let t = inner.top.0.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: only the owner replaces `buffer`, and a replaced buffer
        // is retired, not freed, while the deque lives.
        if b - t >= unsafe { (*buf).cap } as isize {
            buf = self.grow(b, t, buf);
        }
        // SAFETY: we are the owner, and slot `b` lies past `[t, b)`, where
        // thieves claim, inside the capacity checked above: it is free.
        unsafe { (*buf).write(b, value) };
        // Release: a thief that Acquire-loads the new `bottom` must see the
        // slot write above.
        inner.bottom.0.store(b + 1, Ordering::Release);
    }

    /// Pop from the bottom (LIFO end). `None` means empty.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.0.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.0.store(b, Ordering::Relaxed);
        // The classic take/steal fence: globally order the `bottom`
        // decrement against every thief's `top` read so at most one side
        // can claim the final item without winning the CAS below.
        fence(Ordering::SeqCst);
        let t = inner.top.0.load(Ordering::Relaxed);
        if t <= b {
            // SAFETY: `t <= b`: slot `b` is published, in the current
            // buffer, which only the owner replaces.
            let value = unsafe { (*buf).read(b) };
            if t == b {
                // Single item left: race thieves for it via the `top` CAS.
                if inner
                    .top
                    .0
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // A thief claimed it first; the bits we read are theirs
                    // (dropping the `MaybeUninit` drops no `T`).
                    inner.bottom.0.store(b + 1, Ordering::Relaxed);
                    return None;
                }
                inner.bottom.0.store(b + 1, Ordering::Relaxed);
            }
            // SAFETY: owner-exclusive (`t < b`, past the fence) or CAS-won
            // claim: nobody rewrote the slot; it holds the `T` push wrote.
            Some(unsafe { value.assume_init() })
        } else {
            // Already empty; undo the decrement.
            inner.bottom.0.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Number of items currently visible to the owner.
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.0.load(Ordering::Relaxed);
        let t = self.inner.top.0.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque is observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Double the buffer: copy the live window `[t, b)`, publish the new
    /// buffer, retire the old one (freed only at deque drop — see module
    /// docs).
    #[cold]
    fn grow(&self, b: isize, t: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        let inner = &*self.inner;
        // SAFETY: we own `old`'s initialized window `[t, b)`. The copy is
        // bitwise: a thief still on `old` that claims an item moves `top`
        // past its index, so the twin in `new` is never read as a `T`.
        let new = unsafe {
            let new = Box::into_raw(Box::new(Buffer::<T>::new((*old).cap * 2)));
            for i in t..b {
                // Owner-exclusive copy: the live window is initialized.
                (*new).write(i, (*old).read(i).assume_init());
            }
            new
        };
        // Release: thieves loading the new pointer (Acquire) see the copies.
        inner.buffer.store(new, Ordering::Release);
        crate::lock_unpoisoned(&inner.retired).push(old);
        new
    }
}

impl<T: Send> Stealer<T> {
    /// Attempt to steal the oldest item (FIFO end).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.0.load(Ordering::Acquire);
        // Pair with the owner's take fence: if our `top` load happened
        // before an owner's `bottom` decrement became visible, this fence
        // forces our `bottom` load below to see it (or the CAS to fail).
        fence(Ordering::SeqCst);
        let b = inner.bottom.0.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Read *before* claiming: the CAS below is the linearization
        // point. Acquire on the buffer pointer pairs with the grow
        // publication. The read is volatile and stays `MaybeUninit` — if we
        // stalled, the owner may be rewriting this slot one lap later, so
        // the bytes may be torn and must not be treated as a `T` yet.
        let buf = inner.buffer.load(Ordering::Acquire);
        // SAFETY: `t < b`, so slot `t` was published; `buf` is alive, as
        // buffers are retired, not freed, while our `Arc`'s deque lives.
        let value = unsafe { (*buf).read(t) };
        if inner
            .top
            .0
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // Lost to the owner's pop or another thief: the (possibly torn)
            // bytes we read belong to whoever won; discard without dropping.
            return Steal::Retry;
        }
        // SAFETY: the CAS won, so nobody rewrote the slot between our
        // reads: the bytes are the `T` push wrote, now ours alone.
        Steal::Success(unsafe { value.assume_init() })
    }

    /// Number of items currently visible to this thief (advisory).
    pub fn len(&self) -> usize {
        let t = self.inner.top.0.load(Ordering::Relaxed);
        let b = self.inner.bottom.0.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque is observed empty (advisory).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let (w, s) = deque::<u32>();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1)); // oldest
        assert_eq!(w.pop(), Some(3)); // newest
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let (w, _s) = deque_with_capacity::<usize>(2);
        for i in 0..1000 {
            w.push(i);
        }
        assert_eq!(w.len(), 1000);
        for i in (0..1000).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn unclaimed_items_drop_with_the_deque() {
        use std::sync::atomic::{AtomicUsize, Ordering as AO};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counter;
        impl Drop for Counter {
            fn drop(&mut self) {
                DROPS.fetch_add(1, AO::Relaxed);
            }
        }
        DROPS.store(0, AO::Relaxed);
        let (w, s) = deque_with_capacity::<Counter>(2);
        for _ in 0..10 {
            w.push(Counter); // forces growth, exercising retired buffers
        }
        drop(w.pop());
        if let Steal::Success(v) = s.steal() {
            drop(v);
        }
        drop(w);
        drop(s);
        assert_eq!(DROPS.load(AO::Relaxed), 10);
    }
}
