//! Simulated device global memory.
//!
//! Buffers live in a per-device table keyed by opaque ids; [`DevicePtr`] is
//! the typed, `Copy` handle kernels embed (the analogue of a raw device
//! pointer in a CUDA kernel signature). Dynamic `RefCell` borrows stand in
//! for the GPU's lack of aliasing rules: a kernel may read several buffers
//! while writing another, and misuse (writing a buffer it is also reading)
//! is caught at run time instead of being undefined behaviour.

use std::any::{Any, TypeId};
use std::cell::{Ref, RefCell, RefMut};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, PoisonError};

use telemetry::{Counters, Pool};

/// Error raised when an allocation exceeds device memory — the failure the
/// paper hit with 10 MB OpenCL batches ("out of memory error", §V-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes free at the time of the request.
    pub available: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Typed handle to a device buffer. `Copy`, cheap, embeddable in kernels.
pub struct DevicePtr<T> {
    pub(crate) id: u64,
    pub(crate) len: usize,
    pub(crate) device: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DevicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DevicePtr<T> {}

impl<T> fmt::Debug for DevicePtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DevicePtr(dev{}, #{}, len {})",
            self.device, self.id, self.len
        )
    }
}

impl<T> DevicePtr<T> {
    /// Number of `T` elements in the buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Retired storage blocks kept per (type, size class) for recycling, in a
/// device's free list and in the process-wide [`SPARE`] store alike.
const CACHE_PER_CLASS: usize = 8;

/// Free-list storage keyed by element type and power-of-two capacity class.
type FreeList = Vec<Box<dyn Any + Send>>;

/// Storage the free lists of dropped [`DeviceMemory`]s left behind, for
/// any later device's misses: a program that builds a new `GpuSystem` per
/// run reuses the previous run's storage instead of allocating it again.
static SPARE: Mutex<BTreeMap<(TypeId, u32), FreeList>> = Mutex::new(BTreeMap::new());

/// The spare store, locked. Its contents are plain storage, so a panic
/// elsewhere while it was held leaves nothing half-updated.
fn spare() -> std::sync::MutexGuard<'static, BTreeMap<(TypeId, u32), FreeList>> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One device's global-memory arena.
///
/// Freed buffer *storage* is parked in a size-classed free-list (keyed by
/// element type and power-of-two capacity class) and recycled by the next
/// [`alloc`](Self::alloc) of a fitting size, so steady-state allocate/free
/// cycles never touch the host allocator. Two invariants keep the cache
/// invisible to the memory *model*:
///
/// * **Accounting is unchanged.** `free` still decrements `used` and
///   `alloc` still re-increments it before consulting the cache, so
///   capacity-based [`OutOfMemory`] fires exactly as without the cache.
/// * **Fault injection precedes the cache.** Injected OOM is checked in
///   `Device::alloc` before `DeviceMemory::alloc` runs, so a fault-spec'd
///   device still refuses allocations even when the free-list could have
///   served them — recovery ladders stay testable with pooling on.
///
/// The free list outlives the arena: on drop it moves to a process-wide
/// spare store, bounded per (type, size class) like the list itself, and
/// a miss in any later arena takes storage from that store before it
/// calls the host allocator. The cache counters describe this device
/// alone: a hit is a hit in its own free list, a miss is any other
/// allocation, whether the store or the host allocator served it.
pub struct DeviceMemory {
    device: u32,
    capacity: u64,
    used: u64,
    next_id: u64,
    buffers: HashMap<u64, RefCell<Box<dyn Any + Send>>>,
    cache: HashMap<(TypeId, u32), FreeList>,
    counters: Arc<Counters<Pool>>,
}

impl DeviceMemory {
    /// Arena for device `device` with `capacity` bytes.
    pub fn new(device: u32, capacity: u64) -> Self {
        DeviceMemory {
            device,
            capacity,
            used: 0,
            next_id: 1,
            buffers: HashMap::new(),
            cache: HashMap::new(),
            counters: Arc::default(),
        }
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc<T: Default + Clone + Send + 'static>(
        &mut self,
        len: usize,
    ) -> Result<DevicePtr<T>, OutOfMemory> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        if self.used + bytes > self.capacity {
            return Err(OutOfMemory {
                requested: bytes,
                available: self.capacity - self.used,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let key = (
            TypeId::of::<T>(),
            len.max(1).next_power_of_two().trailing_zeros(),
        );
        let recycled = match self.cache.get_mut(&key).and_then(Vec::pop) {
            Some(boxed) => {
                self.counters.hit();
                Some(boxed)
            }
            None => {
                self.counters.miss();
                spare().get_mut(&key).and_then(Vec::pop)
            }
        };
        let storage: Box<dyn Any + Send> = match recycled {
            Some(mut boxed) => {
                let v = boxed
                    .downcast_mut::<Vec<T>>()
                    .expect("free-list entry type matches its key");
                v.clear();
                v.resize(len, T::default()); // same zero-init a fresh alloc gets
                boxed
            }
            None => {
                // Full class capacity up front, so recycling this block
                // later never reallocates for any length in the class.
                let mut v: Vec<T> = Vec::with_capacity(len.max(1).next_power_of_two());
                v.resize(len, T::default());
                Box::new(v)
            }
        };
        self.buffers.insert(id, RefCell::new(storage));
        self.used += bytes;
        self.counters.lease();
        Ok(DevicePtr {
            id,
            len,
            device: self.device,
            _marker: PhantomData,
        })
    }

    /// Free a buffer; double frees panic (they are driver bugs).
    pub fn free<T: 'static>(&mut self, ptr: DevicePtr<T>) {
        self.check_owner(&ptr);
        let removed = self
            .buffers
            .remove(&ptr.id)
            .unwrap_or_else(|| panic!("double free of {ptr:?}"));
        self.used -= (ptr.len * std::mem::size_of::<T>()) as u64;
        self.counters.release();
        let boxed = removed.into_inner();
        let capacity = match boxed.downcast_ref::<Vec<T>>() {
            Some(v) => v.capacity(),
            None => 0, // mistyped free: drop the storage, accounting already done
        };
        if capacity > 0 {
            // Class from *capacity* (floor log2): any future request the
            // class covers fits in this block.
            let class = usize::BITS - 1 - capacity.leading_zeros();
            let slot = self
                .cache
                .entry((TypeId::of::<T>(), class))
                .or_insert_with(|| Vec::with_capacity(CACHE_PER_CLASS));
            if slot.len() < CACHE_PER_CLASS {
                slot.push(boxed);
            } else {
                self.counters.shed_one();
            }
        }
    }

    /// Gauges of the allocation cache (hits/misses/outstanding), shareable
    /// with a `telemetry::Recorder`. They count this arena's own free
    /// list: storage taken from the spare store is a miss.
    pub fn cache_counters(&self) -> Arc<Counters<Pool>> {
        Arc::clone(&self.counters)
    }

    /// Shared borrow of a buffer's contents.
    ///
    /// # Panics
    /// Panics on wrong device, freed pointer, type mismatch, or if the
    /// buffer is mutably borrowed (a simultaneous-read-write kernel bug).
    pub fn borrow<T: 'static>(&self, ptr: DevicePtr<T>) -> Ref<'_, Vec<T>> {
        self.check_owner(&ptr);
        let cell = self
            .buffers
            .get(&ptr.id)
            .unwrap_or_else(|| panic!("use after free of {ptr:?}"));
        Ref::map(cell.borrow(), |b| {
            b.downcast_ref::<Vec<T>>()
                .expect("device buffer type mismatch")
        })
    }

    /// Exclusive borrow of a buffer's contents.
    pub fn borrow_mut<T: 'static>(&self, ptr: DevicePtr<T>) -> RefMut<'_, Vec<T>> {
        self.check_owner(&ptr);
        let cell = self
            .buffers
            .get(&ptr.id)
            .unwrap_or_else(|| panic!("use after free of {ptr:?}"));
        RefMut::map(cell.borrow_mut(), |b| {
            b.downcast_mut::<Vec<T>>()
                .expect("device buffer type mismatch")
        })
    }

    /// Host→device copy into `[offset, offset + src.len())`.
    pub fn write<T: Clone + 'static>(&self, ptr: DevicePtr<T>, offset: usize, src: &[T]) {
        let mut buf = self.borrow_mut(ptr);
        buf[offset..offset + src.len()].clone_from_slice(src);
    }

    /// Device→host copy from `[offset, offset + dst.len())`.
    pub fn read<T: Clone + 'static>(&self, ptr: DevicePtr<T>, offset: usize, dst: &mut [T]) {
        let buf = self.borrow(ptr);
        dst.clone_from_slice(&buf[offset..offset + dst.len()]);
    }

    /// Bytes free.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    fn check_owner<T>(&self, ptr: &DevicePtr<T>) {
        assert_eq!(
            ptr.device, self.device,
            "buffer {ptr:?} used on device {} — cross-device access without a copy",
            self.device
        );
    }
}

impl Drop for DeviceMemory {
    /// Hand the free list to the spare store, up to its bound per class.
    fn drop(&mut self) {
        if self.cache.values().all(Vec::is_empty) {
            return;
        }
        let mut spare = spare();
        for (key, list) in self.cache.drain() {
            let slot = spare.entry(key).or_default();
            let room = CACHE_PER_CLASS.saturating_sub(slot.len());
            slot.extend(list.into_iter().take(room));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut mem = DeviceMemory::new(0, 1024);
        let ptr = mem.alloc::<u32>(8).unwrap();
        mem.write(ptr, 2, &[10, 20, 30]);
        let mut out = [0u32; 3];
        mem.read(ptr, 2, &mut out);
        assert_eq!(out, [10, 20, 30]);
        assert_eq!(mem.available(), 1024 - 32);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let mut mem = DeviceMemory::new(0, 64);
        let _a = mem.alloc::<u8>(48).unwrap();
        let err = mem.alloc::<u8>(32).unwrap_err();
        assert_eq!(err.requested, 32);
        assert_eq!(err.available, 16);
    }

    #[test]
    fn free_releases_space() {
        let mut mem = DeviceMemory::new(0, 64);
        let a = mem.alloc::<u8>(64).unwrap();
        mem.free(a);
        assert_eq!(mem.available(), 64);
        let _b = mem.alloc::<u8>(64).unwrap();
    }

    #[test]
    fn concurrent_shared_borrows_allowed() {
        let mut mem = DeviceMemory::new(0, 1024);
        let ptr = mem.alloc::<u8>(16).unwrap();
        let r1 = mem.borrow(ptr);
        let r2 = mem.borrow(ptr);
        assert_eq!(r1.len(), r2.len());
    }

    #[test]
    #[should_panic]
    fn read_write_alias_is_caught() {
        let mut mem = DeviceMemory::new(0, 1024);
        let ptr = mem.alloc::<u8>(16).unwrap();
        let _r = mem.borrow(ptr);
        let _w = mem.borrow_mut(ptr); // panics: aliasing kernel bug
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn use_after_free_is_caught() {
        let mut mem = DeviceMemory::new(0, 1024);
        let ptr = mem.alloc::<u8>(16).unwrap();
        mem.free(ptr);
        let _ = mem.borrow(ptr);
    }

    #[test]
    #[should_panic(expected = "cross-device access")]
    fn cross_device_access_is_caught() {
        let mut mem0 = DeviceMemory::new(0, 1024);
        let mem1 = DeviceMemory::new(1, 1024);
        let ptr = mem0.alloc::<u8>(16).unwrap();
        let _ = mem1.borrow(ptr);
    }

    #[test]
    fn alloc_free_alloc_recycles_storage() {
        let mut mem = DeviceMemory::new(0, 4096);
        let a = mem.alloc::<u32>(100).unwrap();
        mem.write(a, 0, &[0xDEAD_BEEF; 100]);
        mem.free(a);
        let b = mem.alloc::<u32>(100).unwrap();
        // Recycled storage must look freshly zero-initialized.
        assert!(mem.borrow(b).iter().all(|&x| x == 0));
        let s = mem.cache_counters().snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
        // The one parked block was taken: the next alloc misses.
        let _c = mem.alloc::<u32>(100).unwrap();
        assert_eq!(mem.cache_counters().snapshot().misses, 2);
    }

    #[test]
    fn cache_keeps_accounting_exact() {
        let mut mem = DeviceMemory::new(0, 64);
        let a = mem.alloc::<u8>(64).unwrap();
        mem.free(a);
        assert_eq!(mem.available(), 64);
        // The parked block does not count against capacity; a same-size
        // alloc succeeds and is a hit.
        let b = mem.alloc::<u8>(64).unwrap();
        assert_eq!(mem.available(), 0);
        mem.free(b);
        assert_eq!(mem.cache_counters().snapshot().hits, 1);
    }

    #[test]
    fn cache_is_bounded_per_class() {
        let mut mem = DeviceMemory::new(0, 1 << 20);
        let ptrs: Vec<_> = (0..12).map(|_| mem.alloc::<u8>(256).unwrap()).collect();
        for p in ptrs {
            mem.free(p);
        }
        assert_eq!(mem.cache_counters().snapshot().shed, 4);
        // Only the 8 parked blocks come back as hits.
        let _again: Vec<_> = (0..12).map(|_| mem.alloc::<u8>(256).unwrap()).collect();
        assert_eq!(mem.cache_counters().snapshot().hits, 8);
    }

    #[test]
    fn cache_respects_type_and_class() {
        let mut mem = DeviceMemory::new(0, 1 << 20);
        let a = mem.alloc::<u32>(64).unwrap();
        mem.free(a);
        // Different element type must not hit the u32 block.
        let _b = mem.alloc::<u8>(64).unwrap();
        // Different size class must not hit it either.
        let _c = mem.alloc::<u32>(4096).unwrap();
        assert_eq!(mem.cache_counters().snapshot().hits, 0);
    }

    #[test]
    fn zero_len_buffer_is_fine() {
        let mut mem = DeviceMemory::new(0, 1024);
        let ptr = mem.alloc::<u64>(0).unwrap();
        assert!(ptr.is_empty());
        assert_eq!(mem.available(), 1024);
    }
}
