//! OpenCL-style front end over the simulated device.
//!
//! Follows the workflow §III-E describes: discover platform/devices, create
//! a context, create kernels and command queues, manage buffers, enqueue
//! work and collect events.
//!
//! The one semantic the paper leans on hardest — *"the `cl_kernel` objects
//! of OpenCL library are not thread-safe and must be allocated for each
//! thread"* (§IV-A) — is encoded in the type system: [`ClKernel`] is `Send`
//! but **not `Sync`**, so sharing one kernel object across pipeline workers
//! is a compile error in Rust rather than a data race; each worker allocates
//! its own, exactly as the paper's implementations do by putting a
//! `cl_kernel` on each stream item.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::Arc;

use simtime::{SimDuration, SimTime};

use crate::device::{EventStamp, GpuSystem, StreamId};
use crate::kernel::{KernelFn, LaunchDims};
use crate::mem::{DevicePtr, OutOfMemory};

/// The (single) simulated platform.
pub struct Platform {
    system: Arc<GpuSystem>,
}

/// Opaque device id returned by discovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClDeviceId(pub(crate) usize);

impl ClDeviceId {
    /// Position of this device in the platform's device list.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl Platform {
    /// Bind the platform to a [`GpuSystem`] (`clGetPlatformIDs`).
    pub fn new(system: Arc<GpuSystem>) -> Self {
        Platform { system }
    }

    /// Discover GPU devices (`clGetDeviceIDs`).
    pub fn device_ids(&self) -> Vec<ClDeviceId> {
        (0..self.system.device_count()).map(ClDeviceId).collect()
    }
}

/// An OpenCL context over a set of devices (`clCreateContext`).
pub struct Context {
    system: Arc<GpuSystem>,
    devices: Vec<usize>,
}

impl Context {
    /// Create a context over the given devices.
    ///
    /// # Panics
    /// Panics on an empty device list.
    pub fn create(platform: &Platform, devices: &[ClDeviceId]) -> Self {
        assert!(!devices.is_empty(), "context needs at least one device");
        Context {
            system: Arc::clone(&platform.system),
            devices: devices.iter().map(|d| d.0).collect(),
        }
    }

    /// Create an in-order command queue on `device`
    /// (`clCreateCommandQueue`).
    pub fn create_queue(&self, device: ClDeviceId) -> CommandQueue {
        assert!(
            self.devices.contains(&device.0),
            "device {:?} is not part of this context",
            device
        );
        CommandQueue {
            system: Arc::clone(&self.system),
            device: device.0,
            stream: self.system.device(device.0).create_stream(),
        }
    }

    /// Create a device buffer (`clCreateBuffer`). Unlike real OpenCL, the
    /// buffer is pinned to one device instead of migrating lazily across
    /// the context — a deliberate simplification that keeps data movement
    /// explicit (see DESIGN.md).
    pub fn create_buffer<T: Default + Clone + Send + 'static>(
        &self,
        device: ClDeviceId,
        len: usize,
    ) -> Result<ClBuffer<T>, OutOfMemory> {
        assert!(self.devices.contains(&device.0));
        let ptr = self.system.device(device.0).alloc::<T>(len)?;
        Ok(ClBuffer {
            ptr,
            device: device.0,
            system: Arc::clone(&self.system),
        })
    }

    /// Block the host until all `events` have completed
    /// (`clWaitForEvents`).
    pub fn wait_for_events(&self, events: &[ClEvent]) {
        let latest = events
            .iter()
            .map(|e| e.stamp.time())
            .fold(SimTime::ZERO, SimTime::max);
        self.system.host_wait_until(latest);
    }
}

/// A device buffer created from a [`Context`]. Freed on drop.
pub struct ClBuffer<T: Send + 'static> {
    ptr: DevicePtr<T>,
    device: usize,
    system: Arc<GpuSystem>,
}

impl<T: Send + 'static> ClBuffer<T> {
    /// Raw device pointer for embedding into kernels.
    pub fn ptr(&self) -> DevicePtr<T> {
        self.ptr
    }
}

impl<T: Send + 'static> Drop for ClBuffer<T> {
    fn drop(&mut self) {
        self.system.device(self.device).free(self.ptr);
    }
}

/// A kernel object: the simulated `cl_kernel`.
///
/// `Send` but **not** `Sync` — one thread at a time may hold and use it,
/// mirroring the OpenCL 1.2 thread-safety rules for `clSetKernelArg`.
/// Sharing a kernel object between threads is a compile error:
///
/// ```compile_fail
/// use gpusim::opencl::ClKernel;
/// use gpusim::{DeviceMemory, KernelFn, LaunchDims, WorkMeter};
///
/// struct Noop;
/// impl KernelFn for Noop {
///     fn name(&self) -> &'static str { "noop" }
///     fn run(&self, _: &LaunchDims, _: &DeviceMemory, _: &mut WorkMeter) {}
/// }
///
/// fn share_across_threads<T: Sync>(_: T) {}
/// share_across_threads(ClKernel::create(Noop)); // ERROR: not Sync
/// ```
pub struct ClKernel<K: KernelFn> {
    inner: K,
    _not_sync: PhantomData<Cell<()>>,
}

impl<K: KernelFn> ClKernel<K> {
    /// Wrap a kernel implementation (`clCreateKernel`).
    pub fn create(inner: K) -> Self {
        ClKernel {
            inner,
            _not_sync: PhantomData,
        }
    }

    /// Mutate the kernel's bound arguments (`clSetKernelArg`). Requires
    /// `&mut self`: concurrent argument setting cannot compile.
    pub fn set_args(&mut self, f: impl FnOnce(&mut K)) {
        f(&mut self.inner);
    }
}

/// A completion event returned by every enqueue.
#[derive(Clone, Copy, Debug)]
pub struct ClEvent {
    stamp: EventStamp,
}

impl ClEvent {
    /// Modeled completion instant.
    pub fn time(&self) -> SimTime {
        self.stamp.time()
    }
}

/// An in-order command queue bound to one device (`cl_command_queue`).
pub struct CommandQueue {
    system: Arc<GpuSystem>,
    device: usize,
    stream: StreamId,
}

impl CommandQueue {
    /// Enqueue a host→device write (`clEnqueueWriteBuffer`).
    pub fn enqueue_write_buffer<T: Clone + Send + 'static>(
        &self,
        buf: &ClBuffer<T>,
        blocking: bool,
        offset: usize,
        src: &[T],
        wait_list: &[ClEvent],
    ) -> ClEvent {
        assert_eq!(buf.device, self.device, "buffer/queue device mismatch");
        // Real OpenCL runtimes bounce writes from unregistered host memory
        // through a driver staging area; the simulator keeps the timing
        // optimistic but charges the copy so the data path stays honest.
        if !crate::pinned::is_pinned(src) {
            telemetry::copy::count_bounce(std::mem::size_of_val(src));
        }
        self.apply_waits(wait_list);
        let now = self.api_cost();
        let end =
            self.system
                .device(self.device)
                .copy_h2d(self.stream, src, buf.ptr, offset, true, now);
        if blocking {
            self.system.host_wait_until(end);
        }
        ClEvent {
            stamp: self.system.device(self.device).record_event(self.stream),
        }
    }

    /// Enqueue a device→host read (`clEnqueueReadBuffer`).
    pub fn enqueue_read_buffer<T: Clone + Send + 'static>(
        &self,
        buf: &ClBuffer<T>,
        blocking: bool,
        offset: usize,
        dst: &mut [T],
        wait_list: &[ClEvent],
    ) -> ClEvent {
        assert_eq!(buf.device, self.device, "buffer/queue device mismatch");
        if !crate::pinned::is_pinned(dst) {
            telemetry::copy::count_bounce(std::mem::size_of_val(dst));
        }
        self.apply_waits(wait_list);
        let now = self.api_cost();
        let end =
            self.system
                .device(self.device)
                .copy_d2h(self.stream, buf.ptr, offset, dst, true, now);
        if blocking {
            self.system.host_wait_until(end);
        }
        ClEvent {
            stamp: self.system.device(self.device).record_event(self.stream),
        }
    }

    /// Enqueue a kernel over `global_work_size` work-items in groups of
    /// `local_work_size` (`clEnqueueNDRangeKernel`, 1-D).
    pub fn enqueue_nd_range<K: KernelFn>(
        &self,
        kernel: &ClKernel<K>,
        global_work_size: u64,
        local_work_size: u32,
        wait_list: &[ClEvent],
    ) -> ClEvent {
        self.apply_waits(wait_list);
        let now = self.api_cost();
        let dims = LaunchDims::cover(global_work_size, local_work_size);
        self.system
            .device(self.device)
            .launch(self.stream, dims, &kernel.inner, now);
        ClEvent {
            stamp: self.system.device(self.device).record_event(self.stream),
        }
    }

    /// Fallible [`enqueue_nd_range`](Self::enqueue_nd_range): reports an
    /// injected kernel fault (the simulated `CL_OUT_OF_RESOURCES` launch
    /// failure) instead of panicking.
    pub fn try_enqueue_nd_range<K: KernelFn>(
        &self,
        kernel: &ClKernel<K>,
        global_work_size: u64,
        local_work_size: u32,
        wait_list: &[ClEvent],
    ) -> Result<ClEvent, crate::fault::DeviceFault> {
        self.apply_waits(wait_list);
        let now = self.api_cost();
        let dims = LaunchDims::cover(global_work_size, local_work_size);
        self.system
            .device(self.device)
            .try_launch(self.stream, dims, &kernel.inner, now)?;
        Ok(ClEvent {
            stamp: self.system.device(self.device).record_event(self.stream),
        })
    }

    /// Block until everything in the queue completes (`clFinish`).
    pub fn finish(&self) {
        let end = self.system.device(self.device).stream_last_end(self.stream);
        self.system.host_wait_until(end);
    }

    fn apply_waits(&self, wait_list: &[ClEvent]) {
        for ev in wait_list {
            self.system
                .device(self.device)
                .stream_wait_event(self.stream, ev.stamp);
        }
    }

    fn api_cost(&self) -> SimTime {
        let api = self.system.device(self.device).props().api_call_s;
        self.system.host_compute(SimDuration::from_secs_f64(api))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DeviceMemory;
    use crate::meter::WorkMeter;
    use crate::props::DeviceProps;

    struct Scale {
        factor: u32,
        buf: DevicePtr<u32>,
    }
    impl KernelFn for Scale {
        fn name(&self) -> &'static str {
            "scale"
        }
        fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
            let mut buf = mem.borrow_mut(self.buf);
            for lane in dims.lanes() {
                let gid = lane as usize; // get_global_id(0)
                if gid < buf.len() {
                    buf[gid] *= self.factor;
                }
                meter.record(lane, 1);
            }
        }
    }

    fn context(n: usize) -> Context {
        let platform = Platform::new(GpuSystem::new(n, DeviceProps::test_tiny()));
        let ids = platform.device_ids();
        Context::create(&platform, &ids)
    }

    #[test]
    fn discovery_finds_all_devices() {
        let platform = Platform::new(GpuSystem::new(2, DeviceProps::test_tiny()));
        assert_eq!(platform.device_ids().len(), 2);
    }

    #[test]
    fn write_ndrange_read_roundtrip() {
        let ctx = context(1);
        let dev = ClDeviceId(0);
        let queue = ctx.create_queue(dev);
        let buf = ctx.create_buffer::<u32>(dev, 50).unwrap();
        let data: Vec<u32> = (0..50).collect();
        let w = queue.enqueue_write_buffer(&buf, false, 0, &data, &[]);
        let mut kernel = ClKernel::create(Scale {
            factor: 3,
            buf: buf.ptr(),
        });
        kernel.set_args(|k| k.factor = 4);
        let k_ev = queue.enqueue_nd_range(&kernel, 64, 32, &[w]);
        let mut out = vec![0u32; 50];
        let r = queue.enqueue_read_buffer(&buf, false, 0, &mut out, &[k_ev]);
        ctx.wait_for_events(&[r]);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 4));
    }

    #[test]
    fn blocking_read_advances_host_clock() {
        let ctx = context(1);
        let dev = ClDeviceId(0);
        let queue = ctx.create_queue(dev);
        let buf = ctx.create_buffer::<u8>(dev, 1 << 20).unwrap();
        let t0 = ctx.system.host_now();
        let mut out = vec![0u8; 1 << 20];
        queue.enqueue_read_buffer(&buf, true, 0, &mut out, &[]);
        let elapsed = ctx.system.host_now().since(t0);
        // 1MB at 1GB/s on the tiny device ≈ 1ms ≫ the api cost.
        assert!(
            elapsed > SimDuration::from_micros(500),
            "elapsed={elapsed:?}"
        );
    }

    #[test]
    fn events_chain_across_queues() {
        let ctx = context(1);
        let dev = ClDeviceId(0);
        let q1 = ctx.create_queue(dev);
        let q2 = ctx.create_queue(dev);
        let buf = ctx.create_buffer::<u32>(dev, 8).unwrap();
        let w = q1.enqueue_write_buffer(&buf, false, 0, &[1u32; 8], &[]);
        let kernel = ClKernel::create(Scale {
            factor: 10,
            buf: buf.ptr(),
        });
        let k_ev = q2.enqueue_nd_range(&kernel, 8, 8, &[w]);
        assert!(k_ev.time() > w.time());
    }

    #[test]
    fn multi_device_queues_are_independent() {
        let ctx = context(2);
        let ids = [ClDeviceId(0), ClDeviceId(1)];
        let q0 = ctx.create_queue(ids[0]);
        let q1 = ctx.create_queue(ids[1]);
        let b0 = ctx.create_buffer::<u32>(ids[0], 4).unwrap();
        let b1 = ctx.create_buffer::<u32>(ids[1], 4).unwrap();
        q0.enqueue_write_buffer(&b0, true, 0, &[1, 2, 3, 4], &[]);
        q1.enqueue_write_buffer(&b1, true, 0, &[5, 6, 7, 8], &[]);
        let mut o0 = [0u32; 4];
        let mut o1 = [0u32; 4];
        q0.enqueue_read_buffer(&b0, true, 0, &mut o0, &[]);
        q1.enqueue_read_buffer(&b1, true, 0, &mut o1, &[]);
        assert_eq!(o0, [1, 2, 3, 4]);
        assert_eq!(o1, [5, 6, 7, 8]);
    }

    #[test]
    fn kernel_objects_are_send() {
        // `ClKernel` must move between pipeline workers (each worker owns
        // its own). The complementary property — that it is NOT `Sync`, so
        // sharing one across workers cannot compile — is checked by the
        // `compile_fail` doc-test on [`ClKernel`].
        fn assert_send<T: Send>() {}
        assert_send::<ClKernel<Scale>>();
    }

    #[test]
    #[should_panic(expected = "buffer/queue device mismatch")]
    fn cross_device_buffer_use_is_caught() {
        let ctx = context(2);
        let ids = [ClDeviceId(0), ClDeviceId(1)];
        let q0 = ctx.create_queue(ids[0]);
        let b1 = ctx.create_buffer::<u32>(ids[1], 4).unwrap();
        q0.enqueue_write_buffer(&b1, true, 0, &[0u32; 4], &[]);
    }

    #[test]
    fn oom_reproduces_the_papers_opencl_failure() {
        // §V-B: "we had to reduce the batch size for OpenCL because the
        // number of items being processed resulted in an out of memory
        // error".
        let ctx = context(1);
        let dev = ClDeviceId(0);
        let cap = ctx.system.device(0).props().global_mem as usize;
        assert!(ctx.create_buffer::<u8>(dev, cap + 1).is_err());
    }
}
