//! Buffer recycling: the allocation-side half of FastFlow's zero-copy
//! discipline.
//!
//! The FastFlow runtime gets its throughput from never heap-allocating on
//! the item path — stream items are pointers into buffers that circulate
//! between producers and consumers. The paper's GPU ladder leans on the
//! same idea: Fig. 1/Fig. 4 allocate a fixed set of memory spaces (2× for
//! the synchronous rungs, 4× with copy/compute overlap) once per run and
//! cycle them round-robin. This module supplies the two primitives that
//! make our pipelines do the same:
//!
//! * [`BufPool`] — a size-classed slab pool handing out [`PooledBuf`] RAII
//!   handles. Buffers live in per-class lock-free MPMC rings (the classes
//!   are powers of two of the element count), so any stage replica can
//!   acquire and any replica — typically the sink — can release. A hit
//!   recycles cached storage with `clear()` + `resize()`, which touches no
//!   allocator because every pooled vector carries its full class
//!   capacity.
//! * [`Recycler`] — a return channel running against the stream: sinks
//!   `give` spent item payloads back and upstream workers `take` them.
//!
//! Both report hit/miss/outstanding gauges through
//! [`telemetry::Counters<Pool>`](telemetry::Counters) so a run's report shows whether the steady
//! state actually recycles (hit rate ≈ 1 after warmup).
//!
//! The rings are bounded Vyukov-style MPMC queues (sequence number per
//! slot, CAS on the head/tail tickets — the same design as `tbbx`'s task
//! injector). Bounded is a feature: a full class sheds the returned buffer
//! to the allocator instead of growing, so the pool's footprint is capped
//! at `classes × per_class × class_size`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use telemetry::{Counters, Pool, PoolStats};

/// One slot of the MPMC ring: a sequence ticket plus uninitialised value
/// storage. See Vyukov's bounded MPMC queue: a slot whose sequence equals
/// the push ticket is writable; one past the pop ticket is readable.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free multi-producer/multi-consumer ring.
struct MpmcRing<T> {
    mask: usize,
    slots: Box<[Slot<T>]>,
    /// Push ticket counter.
    tail: AtomicUsize,
    /// Pop ticket counter.
    head: AtomicUsize,
}

// SAFETY: slots hand values across threads by value; the sequence protocol
// ensures exactly one thread reads or writes a slot at a time.
unsafe impl<T: Send> Send for MpmcRing<T> {}
unsafe impl<T: Send> Sync for MpmcRing<T> {}

impl<T> MpmcRing<T> {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MpmcRing {
            mask: cap - 1,
            slots,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    /// Push `value`, or hand it back if the ring is full.
    fn try_push(&self, value: T) -> Result<(), T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.tail.compare_exchange_weak(
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
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop one value, or `None` when empty.
    fn try_pop(&self) -> Option<T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.head.compare_exchange_weak(
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
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for MpmcRing<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

/// Number of size classes: class `c` holds vectors of capacity `2^c`
/// elements, so 33 classes cover every length a `usize` index can reach.
const N_CLASSES: usize = 33;

/// Default cached buffers per size class.
const DEFAULT_PER_CLASS: usize = 32;

/// Size class that can satisfy a request for `len` elements.
#[inline]
fn class_for_len(len: usize) -> usize {
    len.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Largest size class a buffer of `capacity` elements can serve.
#[inline]
fn class_for_capacity(capacity: usize) -> usize {
    debug_assert!(capacity > 0);
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

/// Hook letting an external allocator observe pool slab lifetimes.
///
/// The motivating implementor lives in the `workload` crate: it registers
/// every slab the pool allocates with the GPU simulator's pinned-memory
/// registry, so pooled buffers are page-locked for their whole cached
/// lifetime and `Offload::h2d`/`d2h` transfers touching them never
/// bounce through staging memory. `register` fires once per allocator
/// miss; `unregister` fires when a slab permanently leaves the pool
/// (shed or pool drop) — never on the recycle
/// path, so the steady state stays free of registry churn.
pub trait SlabRegistrar: Send + Sync {
    /// A slab of `bytes` bytes at address `ptr` now belongs to the pool.
    fn register(&self, ptr: usize, bytes: usize);
    /// The slab previously registered at `(ptr, bytes)` is leaving the
    /// pool and is about to be freed (or handed to an outside owner).
    fn unregister(&self, ptr: usize, bytes: usize);
}

struct PoolCore<T> {
    classes: Box<[MpmcRing<Vec<T>>]>,
    counters: Arc<Counters<Pool>>,
    registrar: Option<Arc<dyn SlabRegistrar>>,
}

/// Address and byte extent of a vector's full backing allocation.
#[inline]
fn slab_extent<T>(vec: &Vec<T>) -> (usize, usize) {
    (
        vec.as_ptr() as usize,
        vec.capacity() * std::mem::size_of::<T>(),
    )
}

impl<T> PoolCore<T> {
    fn unregister_slab(&self, vec: &Vec<T>) {
        if let Some(reg) = &self.registrar {
            let (ptr, bytes) = slab_extent(vec);
            if bytes > 0 {
                reg.unregister(ptr, bytes);
            }
        }
    }

    /// Return `vec` to the class its capacity can serve; shed when full.
    fn give_back(&self, vec: Vec<T>) {
        if vec.capacity() == 0 {
            return; // nothing worth caching
        }
        let class = class_for_capacity(vec.capacity());
        if let Err(vec) = self.classes[class].try_push(vec) {
            self.unregister_slab(&vec);
            self.counters.shed_one();
        }
    }
}

impl<T> Drop for PoolCore<T> {
    fn drop(&mut self) {
        // Unpin every cached slab before the rings free them.
        if self.registrar.is_some() {
            for class in self.classes.iter() {
                while let Some(vec) = class.try_pop() {
                    self.unregister_slab(&vec);
                }
            }
        }
    }
}

/// Size-classed MPMC buffer pool. Cloning shares the pool.
pub struct BufPool<T> {
    core: Arc<PoolCore<T>>,
}

impl<T> Clone for BufPool<T> {
    fn clone(&self) -> Self {
        BufPool {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: Default + Clone + Send + 'static> Default for BufPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default + Clone + Send + 'static> BufPool<T> {
    /// Pool with the default per-class capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_PER_CLASS)
    }

    /// Pool caching up to `per_class` buffers in each size class.
    pub fn with_capacity(per_class: usize) -> Self {
        Self::build(per_class, None)
    }

    /// Pool whose slabs are announced to `registrar` for their whole
    /// pooled lifetime (see [`SlabRegistrar`]). Uses the default
    /// per-class capacity.
    pub fn with_registrar(registrar: Arc<dyn SlabRegistrar>) -> Self {
        Self::build(DEFAULT_PER_CLASS, Some(registrar))
    }

    fn build(per_class: usize, registrar: Option<Arc<dyn SlabRegistrar>>) -> Self {
        let classes = (0..N_CLASSES)
            .map(|_| MpmcRing::new(per_class))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BufPool {
            core: Arc::new(PoolCore {
                classes,
                counters: Arc::default(),
                registrar,
            }),
        }
    }

    /// Acquire a zeroed (`T::default()`-filled) buffer of exactly `len`
    /// elements. Served from the pool when the size class has a cached
    /// buffer — in that case no allocator call happens, because cached
    /// buffers always carry their full class capacity.
    pub fn acquire(&self, len: usize) -> PooledBuf<T> {
        let class = class_for_len(len);
        let mut vec = match self.core.classes[class].try_pop() {
            Some(v) => {
                self.core.counters.hit();
                v
            }
            None => {
                self.core.counters.miss();
                let vec = Vec::with_capacity(1usize << class);
                if let Some(reg) = &self.core.registrar {
                    let (ptr, bytes) = slab_extent(&vec);
                    if bytes > 0 {
                        reg.register(ptr, bytes);
                    }
                }
                vec
            }
        };
        debug_assert!(vec.capacity() >= len);
        vec.clear();
        vec.resize(len, T::default());
        self.core.counters.lease();
        PooledBuf {
            vec: Some(vec),
            core: Arc::clone(&self.core),
        }
    }

    /// Shared gauges, for [`telemetry::Recorder::register`].
    pub fn counters(&self) -> &Arc<Counters<Pool>> {
        &self.core.counters
    }

    /// Current gauge snapshot.
    pub fn stats(&self) -> PoolStats {
        self.core.counters.snapshot()
    }
}

/// RAII handle to a pooled buffer; returns to the pool on drop.
pub struct PooledBuf<T> {
    vec: Option<Vec<T>>,
    core: Arc<PoolCore<T>>,
}

impl<T> Deref for PooledBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.vec.as_deref().expect("pooled buffer present")
    }
}

impl<T> DerefMut for PooledBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.vec.as_deref_mut().expect("pooled buffer present")
    }
}

impl<T> Drop for PooledBuf<T> {
    fn drop(&mut self) {
        if let Some(vec) = self.vec.take() {
            self.core.counters.release();
            self.core.give_back(vec);
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PooledBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Feedback-style recycle channel: sinks [`give`](Recycler::give) spent
/// payloads back, upstream workers [`take`](Recycler::take) them instead
/// of allocating. Cloning shares the channel. Bounded: `give` onto a full
/// ring drops the payload (sheds to the allocator) rather than blocking —
/// the sink must never stall behind its own recycling.
pub struct Recycler<T> {
    ring: Arc<MpmcRing<T>>,
    counters: Arc<Counters<Pool>>,
}

impl<T> Clone for Recycler<T> {
    fn clone(&self) -> Self {
        Recycler {
            ring: Arc::clone(&self.ring),
            counters: Arc::clone(&self.counters),
        }
    }
}

/// A recycle channel holding at most `capacity` spent payloads.
pub fn recycler<T: Send + 'static>(capacity: usize) -> Recycler<T> {
    Recycler {
        ring: Arc::new(MpmcRing::new(capacity)),
        counters: Arc::default(),
    }
}

impl<T: Send + 'static> Recycler<T> {
    /// Return a spent payload upstream. Never blocks; sheds when full.
    pub fn give(&self, item: T) {
        if self.ring.try_push(item).is_err() {
            self.counters.shed_one();
        }
    }

    /// Take a recycled payload, if one is waiting.
    pub fn take(&self) -> Option<T> {
        match self.ring.try_pop() {
            Some(item) => {
                self.counters.hit();
                Some(item)
            }
            None => {
                self.counters.miss();
                None
            }
        }
    }

    /// Shared gauges, for [`telemetry::Recorder::register`].
    pub fn counters(&self) -> &Arc<Counters<Pool>> {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_zeroes_and_sizes_exactly() {
        let pool: BufPool<u32> = BufPool::new();
        let mut b = pool.acquire(10);
        assert_eq!(&*b, &[0u32; 10]);
        b.iter_mut().for_each(|x| *x = 7);
        drop(b);
        // Recycled buffer must come back zeroed even though we dirtied it.
        let b2 = pool.acquire(10);
        assert_eq!(&*b2, &[0u32; 10]);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn same_class_reuse_is_a_hit_without_realloc() {
        let pool: BufPool<u8> = BufPool::new();
        drop(pool.acquire(100)); // class 7 (128)
        let b = pool.acquire(128); // same class, larger len
        assert_eq!(b.len(), 128);
        assert!(b.vec.as_ref().unwrap().capacity() >= 128);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn distinct_classes_do_not_alias() {
        let pool: BufPool<u8> = BufPool::new();
        drop(pool.acquire(8));
        // 1024 is a different class; the cached 8-capacity vec can't serve it.
        let b = pool.acquire(1024);
        assert_eq!(b.len(), 1024);
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn outstanding_tracks_leases() {
        let pool: BufPool<u8> = BufPool::new();
        let a = pool.acquire(4);
        let b = pool.acquire(4);
        assert_eq!(pool.stats().outstanding, 2);
        drop(a);
        drop(b);
        assert_eq!(pool.stats().outstanding, 0);
    }

    #[test]
    fn full_class_sheds_instead_of_growing() {
        let pool: BufPool<u8> = BufPool::with_capacity(2);
        let bufs: Vec<_> = (0..5).map(|_| pool.acquire(16)).collect();
        drop(bufs);
        assert!(pool.stats().shed >= 1, "{:?}", pool.stats());
    }

    /// Registrar that mirrors the pool's announcements into a set, so
    /// tests can assert the register/unregister pairing is exact.
    #[derive(Default)]
    struct LedgerRegistrar {
        live: std::sync::Mutex<Vec<(usize, usize)>>,
        registers: AtomicUsize,
        unregisters: AtomicUsize,
    }

    impl SlabRegistrar for LedgerRegistrar {
        fn register(&self, ptr: usize, bytes: usize) {
            self.registers.fetch_add(1, Ordering::Relaxed);
            self.live.lock().unwrap().push((ptr, bytes));
        }
        fn unregister(&self, ptr: usize, bytes: usize) {
            self.unregisters.fetch_add(1, Ordering::Relaxed);
            let mut live = self.live.lock().unwrap();
            let i = live
                .iter()
                .position(|&e| e == (ptr, bytes))
                .expect("unregister matches a live registration");
            live.swap_remove(i);
        }
    }

    #[test]
    fn registrar_sees_slabs_for_their_whole_pooled_lifetime() {
        let ledger = Arc::new(LedgerRegistrar::default());
        let pool: BufPool<u32> = BufPool::with_registrar(ledger.clone());

        // Miss: allocation announced once, with full-class byte extent.
        let b = pool.acquire(100);
        assert_eq!(ledger.registers.load(Ordering::Relaxed), 1);
        assert_eq!(
            ledger.live.lock().unwrap()[0].1,
            128 * std::mem::size_of::<u32>()
        );

        // Recycle + hit: no registry churn on the steady-state path.
        drop(b);
        let b = pool.acquire(128);
        assert_eq!(ledger.registers.load(Ordering::Relaxed), 1);
        assert_eq!(ledger.unregisters.load(Ordering::Relaxed), 0);
        drop(b);

        // Pool drop unpins everything still cached.
        let c = pool.acquire(8);
        drop(c);
        assert_eq!(ledger.registers.load(Ordering::Relaxed), 2);
        drop(pool);
        assert_eq!(ledger.unregisters.load(Ordering::Relaxed), 2);
        assert!(ledger.live.lock().unwrap().is_empty());
    }

    #[test]
    fn shed_slabs_are_unregistered() {
        let ledger = Arc::new(LedgerRegistrar::default());
        let pool: BufPool<u8> = BufPool::with_registrar(ledger.clone());
        // Default per-class capacity is 32; hold 40 live so at least 8
        // returns find a full ring and shed to the allocator.
        let bufs: Vec<_> = (0..40).map(|_| pool.acquire(16)).collect();
        assert_eq!(ledger.registers.load(Ordering::Relaxed), 40);
        drop(bufs);
        let shed = pool.stats().shed as usize;
        assert!(shed >= 8, "expected sheds, got {shed}");
        assert_eq!(ledger.unregisters.load(Ordering::Relaxed), shed);
        drop(pool);
        // Cached + shed together must unpin everything exactly once.
        assert_eq!(ledger.unregisters.load(Ordering::Relaxed), 40);
        assert!(ledger.live.lock().unwrap().is_empty());
    }

    #[test]
    fn recycler_roundtrip() {
        let r = recycler::<Vec<u8>>(4);
        assert!(r.take().is_none());
        r.give(vec![1, 2, 3]);
        assert_eq!(r.take().unwrap(), vec![1, 2, 3]);
        let s = r.counters.snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn recycler_sheds_when_full() {
        let r = recycler::<u64>(2);
        for i in 0..10 {
            r.give(i);
        }
        assert!(r.counters.snapshot().shed >= 1);
    }

    #[test]
    fn mpmc_ring_transfers_everything_once() {
        let ring = Arc::new(MpmcRing::<usize>::new(64));
        let n_threads = 4;
        let per_thread = 10_000;
        let popped = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let mut v = t * per_thread + i;
                    loop {
                        match ring.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
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
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while pop_count.load(Ordering::Relaxed) < total {
                    match ring.try_pop() {
                        Some(v) => {
                            got.push(v);
                            pop_count.fetch_add(1, Ordering::Relaxed);
                        }
                        None => std::thread::yield_now(),
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
    }
}
