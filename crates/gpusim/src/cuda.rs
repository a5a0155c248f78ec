//! CUDA-style front end over the simulated device.
//!
//! Mirrors the driver/runtime semantics the paper wrestles with:
//!
//! * [`Cuda::set_device`] is **thread-local** ("the `cudaSetDevice` function
//!   also has thread-side effects, thus, it must be called after
//!   initializing each thread", §IV-A) — streams and buffers are bound to
//!   the device that was current when they were created, and using them
//!   while another device is current panics, making the paper's bug class
//!   loud instead of silent.
//! * Async copies are only truly asynchronous from **page-locked** host
//!   memory ([`PinnedBuf`]); from pageable memory (any plain slice) the copy
//!   degrades to synchronous — the exact reason the paper's 2×-memory-space
//!   optimization did not help Dedup under CUDA (`realloc`'d buffers are
//!   pageable, §V-B).
//! * Streams ([`CudaStream`]) order commands FIFO per stream and overlap
//!   across streams; [`CudaEvent`]s order across streams.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use simtime::{SimDuration, SimTime};

use crate::device::{EventStamp, GpuSystem, StreamId};
use crate::kernel::{Dim3, KernelFn, LaunchDims};
use crate::mem::{DevicePtr, OutOfMemory};

thread_local! {
    static CURRENT_DEVICE: Cell<usize> = const { Cell::new(0) };
}

/// Handle to the CUDA-like runtime; cheap to clone, one per host thread is
/// idiomatic.
#[derive(Clone)]
pub struct Cuda {
    system: Arc<GpuSystem>,
}

/// Page-locked host memory (`cudaHostAlloc`). Transfers from/to it run at
/// full PCIe bandwidth and may be truly asynchronous. The backing range is
/// registered in the [`crate::pinned`] registry for its lifetime, so the
/// pinned-aware slice verbs recognize it too.
pub struct PinnedBuf<T> {
    data: Vec<T>,
    // Declared after `data`: the registration is dropped while the Vec is
    // still alive (fields drop in declaration order).
    _slab: crate::pinned::PinnedSlab,
}

impl<T> Deref for PinnedBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> DerefMut for PinnedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> PinnedBuf<T> {
    /// Mutable access as a slice (explicit form of `DerefMut`).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

/// A device buffer allocated with [`Cuda::malloc`]. Freed on drop.
pub struct CudaBuffer<T: Send + 'static> {
    ptr: DevicePtr<T>,
    device: usize,
    system: Arc<GpuSystem>,
}

impl<T: Send + 'static> CudaBuffer<T> {
    /// Raw device pointer for embedding into kernels.
    pub fn ptr(&self) -> DevicePtr<T> {
        self.ptr
    }
}

impl<T: Send + 'static> Drop for CudaBuffer<T> {
    fn drop(&mut self) {
        self.system.device(self.device).free(self.ptr);
    }
}

/// A CUDA stream, bound to the device current at creation.
pub struct CudaStream {
    device: usize,
    id: StreamId,
}

/// A recorded CUDA event.
#[derive(Clone, Copy, Debug)]
pub struct CudaEvent {
    stamp: EventStamp,
}

impl CudaEvent {
    /// Modeled completion instant the event captured.
    pub fn time(&self) -> SimTime {
        self.stamp.time()
    }
}

impl Cuda {
    /// Bind the runtime to a [`GpuSystem`].
    pub fn new(system: Arc<GpuSystem>) -> Self {
        Cuda { system }
    }

    /// The underlying system (virtual clock, stats).
    pub fn system(&self) -> &Arc<GpuSystem> {
        &self.system
    }

    /// Select the current device **for this thread** (`cudaSetDevice`).
    ///
    /// # Panics
    /// Panics on an out-of-range index (CUDA would return
    /// `cudaErrorInvalidDevice`).
    pub fn set_device(&self, device: usize) {
        assert!(
            device < self.system.device_count(),
            "cudaSetDevice({device}): only {} devices",
            self.system.device_count()
        );
        CURRENT_DEVICE.with(|d| d.set(device));
    }

    /// The current device for this thread.
    pub fn current_device(&self) -> usize {
        CURRENT_DEVICE.with(|d| d.get())
    }

    /// Allocate device memory on the current device (`cudaMalloc`).
    pub fn malloc<T: Default + Clone + Send + 'static>(
        &self,
        len: usize,
    ) -> Result<CudaBuffer<T>, OutOfMemory> {
        let device = self.current_device();
        self.api_cost(device);
        let ptr = self.system.device(device).alloc::<T>(len)?;
        Ok(CudaBuffer {
            ptr,
            device,
            system: Arc::clone(&self.system),
        })
    }

    /// Allocate page-locked host memory (`cudaHostAlloc`).
    pub fn host_alloc<T: Default + Clone>(&self, len: usize) -> PinnedBuf<T> {
        self.api_cost(self.current_device());
        let data = vec![T::default(); len];
        let _slab = crate::pinned::PinnedSlab::register(&data);
        PinnedBuf { data, _slab }
    }

    /// Create a stream on the current device (`cudaStreamCreate`).
    pub fn stream_create(&self) -> CudaStream {
        let device = self.current_device();
        self.api_cost(device);
        CudaStream {
            device,
            id: self.system.device(device).create_stream(),
        }
    }

    /// Asynchronous host→device copy from **pinned** memory
    /// (`cudaMemcpyAsync` with a page-locked source): returns immediately.
    pub fn memcpy_h2d_async<T: Clone + Send + 'static>(
        &self,
        dst: &CudaBuffer<T>,
        dst_offset: usize,
        src: &PinnedBuf<T>,
        stream: &CudaStream,
    ) {
        self.check_binding(dst.device, stream);
        let now = self.api_cost(stream.device);
        self.system
            .device(stream.device)
            .copy_h2d(stream.id, src, dst.ptr, dst_offset, true, now);
    }

    /// `cudaMemcpyAsync` from **pageable** memory: per CUDA semantics this
    /// degrades to a synchronous copy — the host blocks until the transfer
    /// completes, at pageable bandwidth — and the driver bounces the data
    /// through its own staging area (charged to `telemetry::copy`).
    pub fn memcpy_h2d_pageable<T: Clone + Send + 'static>(
        &self,
        dst: &CudaBuffer<T>,
        dst_offset: usize,
        src: &[T],
        stream: &CudaStream,
    ) {
        self.check_binding(dst.device, stream);
        telemetry::copy::count_bounce(std::mem::size_of_val(src));
        let now = self.api_cost(stream.device);
        let end = self
            .system
            .device(stream.device)
            .copy_h2d(stream.id, src, dst.ptr, dst_offset, false, now);
        self.system.host_wait_until(end);
    }

    /// Pinned-aware host→device copy from an arbitrary slice: if the
    /// source range is registered in the [`crate::pinned`] registry the
    /// transfer is a true async DMA; otherwise it degrades to
    /// [`memcpy_h2d_pageable`](Self::memcpy_h2d_pageable) (synchronous +
    /// driver bounce). This is `cudaMemcpyAsync`'s actual contract — the
    /// *memory*, not the call site, decides.
    pub fn memcpy_h2d_auto<T: Clone + Send + 'static>(
        &self,
        dst: &CudaBuffer<T>,
        dst_offset: usize,
        src: &[T],
        stream: &CudaStream,
    ) {
        if crate::pinned::is_pinned(src) {
            self.check_binding(dst.device, stream);
            let now = self.api_cost(stream.device);
            self.system
                .device(stream.device)
                .copy_h2d(stream.id, src, dst.ptr, dst_offset, true, now);
        } else {
            self.memcpy_h2d_pageable(dst, dst_offset, src, stream);
        }
    }

    /// Asynchronous device→host copy into pinned memory.
    pub fn memcpy_d2h_async<T: Clone + Send + 'static>(
        &self,
        dst: &mut PinnedBuf<T>,
        src: &CudaBuffer<T>,
        src_offset: usize,
        stream: &CudaStream,
    ) {
        self.check_binding(src.device, stream);
        let now = self.api_cost(stream.device);
        self.system.device(stream.device).copy_d2h(
            stream.id,
            src.ptr,
            src_offset,
            &mut dst.data,
            true,
            now,
        );
    }

    /// Device→host copy into pageable memory: synchronous, like CUDA, and
    /// bounced through the driver's staging area (`telemetry::copy`).
    pub fn memcpy_d2h_pageable<T: Clone + Send + 'static>(
        &self,
        dst: &mut [T],
        src: &CudaBuffer<T>,
        src_offset: usize,
        stream: &CudaStream,
    ) {
        self.check_binding(src.device, stream);
        telemetry::copy::count_bounce(std::mem::size_of_val(dst));
        let now = self.api_cost(stream.device);
        let end = self
            .system
            .device(stream.device)
            .copy_d2h(stream.id, src.ptr, src_offset, dst, false, now);
        self.system.host_wait_until(end);
    }

    /// Pinned-aware device→host copy into an arbitrary slice — the read
    /// counterpart of [`memcpy_h2d_auto`](Self::memcpy_h2d_auto):
    /// registered destination → async DMA, anything else → synchronous
    /// pageable bounce.
    pub fn memcpy_d2h_auto<T: Clone + Send + 'static>(
        &self,
        dst: &mut [T],
        src: &CudaBuffer<T>,
        src_offset: usize,
        stream: &CudaStream,
    ) {
        if crate::pinned::is_pinned(dst) {
            self.check_binding(src.device, stream);
            let now = self.api_cost(stream.device);
            self.system
                .device(stream.device)
                .copy_d2h(stream.id, src.ptr, src_offset, dst, true, now);
        } else {
            self.memcpy_d2h_pageable(dst, src, src_offset, stream);
        }
    }

    /// Launch `kernel` with `<<<grid, block>>>` on `stream` (asynchronous).
    ///
    /// # Panics
    /// Panics if the stream's device is not the thread's current device —
    /// the misuse the paper warns multi-threaded integrations about.
    pub fn launch(
        &self,
        kernel: &dyn KernelFn,
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
        stream: &CudaStream,
    ) {
        let cur = self.current_device();
        assert_eq!(
            stream.device,
            cur,
            "kernel {} launched on stream of device {} while device {} is current \
             (missing cudaSetDevice after thread start?)",
            kernel.name(),
            stream.device,
            cur
        );
        let now = self.api_cost(stream.device);
        let dims = LaunchDims {
            grid: grid.into(),
            block: block.into(),
        };
        self.system
            .device(stream.device)
            .launch(stream.id, dims, kernel, now);
    }

    /// Fallible [`launch`](Self::launch): reports an injected kernel fault
    /// (the simulated `cudaErrorLaunchFailure`) instead of panicking. The
    /// device-binding assertion still applies — that one is programmer
    /// error, not runtime state.
    pub fn try_launch(
        &self,
        kernel: &dyn KernelFn,
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
        stream: &CudaStream,
    ) -> Result<(), crate::fault::DeviceFault> {
        let cur = self.current_device();
        assert_eq!(
            stream.device,
            cur,
            "kernel {} launched on stream of device {} while device {} is current \
             (missing cudaSetDevice after thread start?)",
            kernel.name(),
            stream.device,
            cur
        );
        let now = self.api_cost(stream.device);
        let dims = LaunchDims {
            grid: grid.into(),
            block: block.into(),
        };
        self.system
            .device(stream.device)
            .try_launch(stream.id, dims, kernel, now)
            .map(|_| ())
    }

    /// Block until everything on `stream` completes
    /// (`cudaStreamSynchronize`).
    pub fn stream_synchronize(&self, stream: &CudaStream) {
        let end = self.system.device(stream.device).stream_last_end(stream.id);
        self.system.host_wait_until(end);
    }

    /// Block until everything on the current device completes
    /// (`cudaDeviceSynchronize`).
    pub fn device_synchronize(&self) {
        let end = self.system.device(self.current_device()).device_last_end();
        self.system.host_wait_until(end);
    }

    /// Record an event on `stream` (`cudaEventRecord`).
    pub fn event_record(&self, stream: &CudaStream) -> CudaEvent {
        CudaEvent {
            stamp: self.system.device(stream.device).record_event(stream.id),
        }
    }

    /// Block the host until `event` completes (`cudaEventSynchronize`).
    pub fn event_synchronize(&self, event: &CudaEvent) {
        self.system.host_wait_until(event.time());
    }

    fn check_binding(&self, buffer_device: usize, stream: &CudaStream) {
        assert_eq!(
            buffer_device, stream.device,
            "buffer on device {buffer_device} used with a stream of device {}",
            stream.device
        );
    }

    fn api_cost(&self, device: usize) -> SimTime {
        let api = self.system.device(device).props().api_call_s;
        self.system.host_compute(SimDuration::from_secs_f64(api))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DeviceMemory;
    use crate::meter::WorkMeter;
    use crate::props::DeviceProps;

    /// img[i] = base + i, one lane per element.
    struct Iota {
        base: u32,
        img: DevicePtr<u32>,
    }
    impl KernelFn for Iota {
        fn name(&self) -> &'static str {
            "iota"
        }
        fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
            let mut img = mem.borrow_mut(self.img);
            for lane in dims.lanes() {
                let i = lane as usize;
                if i < img.len() {
                    img[i] = self.base + i as u32;
                }
                meter.record(lane, 1);
            }
        }
    }

    fn cuda(n: usize) -> Cuda {
        Cuda::new(GpuSystem::new(n, DeviceProps::test_tiny()))
    }

    #[test]
    fn kernel_writes_are_visible_after_sync() {
        let cuda = cuda(1);
        let buf = cuda.malloc::<u32>(100).unwrap();
        let stream = cuda.stream_create();
        let k = Iota {
            base: 5,
            img: buf.ptr(),
        };
        cuda.launch(&k, 1u32, 128u32, &stream);
        let mut out = vec![0u32; 100];
        cuda.memcpy_d2h_pageable(&mut out, &buf, 0, &stream);
        cuda.stream_synchronize(&stream);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 5 + i as u32));
    }

    #[test]
    fn pinned_roundtrip() {
        let cuda = cuda(1);
        let buf = cuda.malloc::<u8>(64).unwrap();
        let stream = cuda.stream_create();
        let mut src = cuda.host_alloc::<u8>(64);
        src.as_mut_slice().copy_from_slice(&[7u8; 64]);
        cuda.memcpy_h2d_async(&buf, 0, &src, &stream);
        let mut dst = cuda.host_alloc::<u8>(64);
        cuda.memcpy_d2h_async(&mut dst, &buf, 0, &stream);
        cuda.stream_synchronize(&stream);
        assert_eq!(&dst[..], &[7u8; 64][..]);
    }

    #[test]
    fn pageable_copy_blocks_host_but_pinned_does_not() {
        let cuda = cuda(1);
        let buf = cuda.malloc::<u8>(1 << 20).unwrap();
        let stream = cuda.stream_create();
        let pinned = cuda.host_alloc::<u8>(1 << 20);
        let t0 = cuda.system().host_now();
        cuda.memcpy_h2d_async(&buf, 0, &pinned, &stream);
        let t_async = cuda.system().host_now().since(t0);
        cuda.system().reset_clock();
        let pageable = vec![0u8; 1 << 20];
        let t1 = cuda.system().host_now();
        cuda.memcpy_h2d_pageable(&buf, 0, &pageable, &stream);
        let t_sync = cuda.system().host_now().since(t1);
        assert!(
            t_sync.as_nanos() > 10 * t_async.as_nanos(),
            "pageable copy must block the host: async={t_async:?} sync={t_sync:?}"
        );
    }

    #[test]
    fn multi_device_round_robin() {
        let cuda = cuda(2);
        let mut bufs = Vec::new();
        for d in 0..2 {
            cuda.set_device(d);
            bufs.push((cuda.malloc::<u32>(16).unwrap(), cuda.stream_create()));
        }
        for (d, (buf, stream)) in bufs.iter().enumerate() {
            cuda.set_device(d);
            let k = Iota {
                base: (d * 100) as u32,
                img: buf.ptr(),
            };
            cuda.launch(&k, 1u32, 32u32, stream);
        }
        for (d, (buf, stream)) in bufs.iter().enumerate() {
            cuda.set_device(d);
            let mut out = vec![0u32; 16];
            cuda.memcpy_d2h_pageable(&mut out, buf, 0, stream);
            assert_eq!(out[3], (d * 100) as u32 + 3);
        }
    }

    #[test]
    #[should_panic(expected = "missing cudaSetDevice")]
    fn launching_on_wrong_device_panics() {
        let cuda = cuda(2);
        cuda.set_device(1);
        let buf = cuda.malloc::<u32>(4).unwrap();
        let stream = cuda.stream_create();
        cuda.set_device(0); // forgot to switch back — the paper's bug
        let k = Iota {
            base: 0,
            img: buf.ptr(),
        };
        cuda.launch(&k, 1u32, 32u32, &stream);
    }

    #[test]
    fn events_serialize_across_streams() {
        let cuda = cuda(1);
        let buf = cuda.malloc::<u32>(8).unwrap();
        let s1 = cuda.stream_create();
        let s2 = cuda.stream_create();
        let k = Iota {
            base: 1,
            img: buf.ptr(),
        };
        cuda.launch(&k, 1u32, 32u32, &s1);
        let ev = cuda.event_record(&s1);
        cuda.system().device(0).stream_wait_event(s2.id, ev.stamp);
        let k2 = Iota {
            base: 2,
            img: buf.ptr(),
        };
        cuda.launch(&k2, 1u32, 32u32, &s2);
        let end2 = cuda.system().device(0).stream_last_end(s2.id);
        assert!(end2 > ev.time());
    }

    #[test]
    fn oom_propagates() {
        let cuda = cuda(1);
        let total = cuda.system().device(0).props().global_mem as usize;
        assert!(cuda.malloc::<u8>(total + 1).is_err());
    }
}
