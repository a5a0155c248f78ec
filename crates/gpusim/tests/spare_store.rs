//! Device storage outlives its `GpuSystem`: the free lists of a dropped
//! system go to the process-wide spare store, and a later system's cache
//! misses are served from it without calling the host allocator. The
//! per-device counters read as they would without the store: the later
//! system's allocations are all misses, because its own free list was
//! empty.
//!
//! Its own test binary, with one test, so no other test's devices put
//! storage into the store or take it out. A counting global allocator
//! counts the allocations of 64 KiB or more: storage of that size is what
//! the store saves, while the small bookkeeping of a fresh device (its
//! buffer table) is not its business.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gpusim::{DeviceProps, GpuSystem, StreamId};
use simtime::SimTime;

struct CountingAlloc;

static LARGE: AtomicUsize = AtomicUsize::new(0);

/// What counts as a storage-sized allocation.
const LARGE_BYTES: usize = 64 * 1024;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE_BYTES {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE_BYTES {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocate, check, dirty and free the buffers one Dedup batch takes: its
/// bytes and its two match arrays, which share a size class. Returns the
/// device's `(hits, misses)` and the storage-sized host allocations the
/// three device allocations made.
fn one_run(system: &GpuSystem) -> ((u64, u64), usize) {
    let dev = system.device(0);
    let before = LARGE.load(Ordering::SeqCst);
    let data = dev.alloc::<u8>(256 * 1024).expect("fits");
    let lens = dev.alloc::<u32>(200_000).expect("fits");
    let offs = dev.alloc::<u32>(200_000).expect("fits");
    let after = LARGE.load(Ordering::SeqCst);
    // Recycled storage must read as fresh, zero-filled; dirty it for the
    // next run.
    let mut host = vec![0u32; 200_000];
    for ptr in [lens, offs] {
        dev.copy_d2h(StreamId::DEFAULT, ptr, 0, &mut host, false, SimTime::ZERO);
        assert!(
            host.iter().all(|&x| x == 0),
            "recycled storage is not zeroed"
        );
        host.fill(0xDEAD_BEEF);
        dev.copy_h2d(StreamId::DEFAULT, &host, ptr, 0, false, SimTime::ZERO);
        host.fill(0);
    }
    dev.free(data);
    dev.free(lens);
    dev.free(offs);
    let s = dev.cache_counters().snapshot();
    ((s.hits, s.misses), after - before)
}

#[test]
fn a_later_system_reuses_the_storage_an_earlier_one_returned() {
    let first = GpuSystem::new(1, DeviceProps::titan_xp());
    let (counts, large) = one_run(&first);
    assert_eq!(counts, (0, 3), "a fresh device misses every time");
    assert_eq!(large, 3, "the store starts empty: three host allocations");
    // Within one system the free list serves: hits, no allocation.
    let (counts, large) = one_run(&first);
    assert_eq!(counts, (3, 3));
    assert_eq!(large, 0);
    drop(first);

    let second = GpuSystem::new(1, DeviceProps::titan_xp());
    let (counts, large) = one_run(&second);
    assert_eq!(counts, (0, 3), "the store serves misses; they stay misses");
    assert_eq!(large, 0, "a miss the store served calls no allocator");
}
