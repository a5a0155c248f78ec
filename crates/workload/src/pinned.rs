//! Pinned buffer pools: `fastflow` slabs registered with the GPU
//! simulator's page-lock registry.
//!
//! The zero-copy handoff (DESIGN.md §"Zero-copy handoff") needs pooled
//! batch buffers to be DMA-able for their whole cached lifetime, so a
//! `PooledBuf` can be handed to [`gpusim::Offload::h2d`] /
//! [`gpusim::Offload::d2h`] with no staging copy in between. This
//! module is the glue: [`GpuPinnedRegistrar`] implements
//! [`fastflow::SlabRegistrar`] on top of [`gpusim::PinnedSlab`] guards,
//! and [`pinned_pool`] builds a [`fastflow::BufPool`] wired to it.
//!
//! Pinning happens once per allocator miss and lasts until the slab
//! permanently leaves the pool (shed or pool drop) — the
//! recycle path touches neither the allocator nor the registry, which
//! is what keeps the steady state at zero staging copies *and* zero
//! registry churn.

use std::sync::{Arc, Mutex};

use gpusim::PinnedSlab;

/// [`fastflow::SlabRegistrar`] that page-locks pool slabs via the GPU
/// simulator's pinned-memory registry.
///
/// Holds one [`PinnedSlab`] guard per registered slab; `unregister`
/// drops the matching guard, which removes the range from the registry.
#[derive(Default)]
pub struct GpuPinnedRegistrar {
    guards: Mutex<Vec<PinnedSlab>>,
}

impl fastflow::SlabRegistrar for GpuPinnedRegistrar {
    fn register(&self, ptr: usize, bytes: usize) {
        let guard = PinnedSlab::register_raw(ptr, bytes);
        self.guards.lock().expect("pinned guard table").push(guard);
    }

    fn unregister(&self, ptr: usize, bytes: usize) {
        let mut guards = self.guards.lock().expect("pinned guard table");
        if let Some(i) = guards.iter().position(|g| g.range() == (ptr, bytes)) {
            guards.swap_remove(i); // dropping the guard unpins the range
        }
    }
}

/// A [`fastflow::BufPool`] whose slabs are page-locked for their whole
/// pooled lifetime, so batches acquired from it travel
/// pool → device → pool with zero staging copies.
pub fn pinned_pool<T: Default + Clone + Send + 'static>() -> fastflow::BufPool<T> {
    fastflow::BufPool::with_registrar(Arc::new(GpuPinnedRegistrar::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_buffers_are_pinned_while_cached() {
        let pool = pinned_pool::<u8>();
        let buf = pool.acquire(4096);
        assert!(
            gpusim::pinned::is_pinned(&buf[..]),
            "fresh pooled slab is page-locked"
        );
        let (ptr, len) = (buf.as_ptr() as usize, buf.len());
        drop(buf);
        // Recycled, not freed: the slab stays pinned while cached.
        assert!(gpusim::pinned::is_pinned_raw(ptr, len));
        let again = pool.acquire(4096);
        assert!(gpusim::pinned::is_pinned(&again[..]));
        drop(again);
        drop(pool);
        // Pool drop releases the page-locks.
        assert!(!gpusim::pinned::is_pinned_raw(ptr, len));
    }
}
