//! Backend-neutral offload façade: one trait over the [`cuda`](crate::cuda)
//! and [`opencl`](crate::opencl) front ends.
//!
//! The paper ports each application twice — once against the CUDA runtime
//! and once against OpenCL — and §IV-A shows the two integrations differ
//! only in boilerplate: select a device, allocate buffers, move data,
//! launch, synchronize. [`Offload`] captures exactly that five-verb
//! surface so stage code can be written once and instantiated per backend
//! (`run_spar_gpu::<CudaOffload>` vs `run_spar_gpu::<OclOffload>`), while
//! [`OffloadApi`] lets a harness pick the backend by value at runtime.
//!
//! The raw façades stay public and are still the right tool when an
//! application needs backend-specific machinery the common surface hides:
//! multi-stream overlap, events, pinned-vs-pageable copy semantics — the
//! whole Fig. 1 optimization ladder lives there.
//!
//! Thread discipline is inherited, not hidden: [`Offload::attach`] must run
//! on the thread that will drive the offloader. For CUDA that is where the
//! mandatory per-thread `cudaSetDevice` happens (building on one thread and
//! launching from another still panics, reproducing the paper's
//! hardest-to-find bug class); for OpenCL the per-launch `ClKernel` objects
//! stay thread-local because they are deliberately `!Sync`.

use std::sync::Arc;

use crate::cuda::{Cuda, CudaBuffer, CudaStream};
use crate::mem::{DevicePtr, OutOfMemory};
use crate::opencl::ClKernel;
use crate::opencl::{ClBuffer, ClDeviceId, CommandQueue, Context, Platform};
use crate::{GpuSystem, KernelFn};

/// Which front end an [`Offload`] implementation drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OffloadApi {
    /// The CUDA-like front end ([`crate::cuda`]).
    Cuda,
    /// The OpenCL-like front end ([`crate::opencl`]).
    OpenCl,
}

impl OffloadApi {
    /// Short lowercase name for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            OffloadApi::Cuda => "cuda",
            OffloadApi::OpenCl => "opencl",
        }
    }

    /// Parse a CLI-style backend name (`"cuda"` / `"opencl"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cuda" => Some(OffloadApi::Cuda),
            "opencl" | "ocl" => Some(OffloadApi::OpenCl),
            _ => None,
        }
    }
}

impl std::fmt::Display for OffloadApi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The unified offload surface: device select, buffer alloc, async
/// host↔device copies, kernel launch, synchronize.
///
/// Ordering model: all operations issued through one offloader execute in
/// FIFO order on its private queue (a CUDA stream / an in-order OpenCL
/// command queue). `h2d`, `try_launch` and `d2h` are asynchronous
/// enqueues; host-side slices passed to `d2h` hold defined contents only
/// after [`sync`](Offload::sync) returns.
///
/// Copies take plain slices: the slice's length is the element count
/// (pass `&buf[..n]` for a prefix of a larger host buffer; it must not
/// exceed the device buffer), and the slice's *memory* decides how the
/// copy runs. A range registered in the [`crate::pinned`] registry — a
/// [`PinnedBuf`](crate::cuda::PinnedBuf), a pooled buffer from a pinned
/// pool, a per-batch [`PinnedSlab`](crate::PinnedSlab) guard — moves by
/// true async DMA with no staging memcpy; anything else is allowed to
/// degrade to a synchronous driver bounce (charged to `telemetry::copy`),
/// which is what CUDA does with pageable memory.
pub trait Offload: Send + 'static {
    /// Device-resident buffer handle (`'static` so callers may attach it
    /// to stream items for cross-stage buffer reuse).
    type Buffer<T: Default + Clone + Send + 'static>: Send + 'static;

    /// Which front end this implementation drives.
    const API: OffloadApi;

    /// Bind an offloader to `device`. Must be called on the thread that
    /// will use it (per-thread `cudaSetDevice` / `cl_kernel` locality).
    fn attach(system: &Arc<GpuSystem>, device: usize) -> Self;

    /// The bound device index.
    fn device(&self) -> usize;

    /// Allocate a device buffer of `len` elements.
    fn try_alloc<T: Default + Clone + Send + 'static>(
        &mut self,
        len: usize,
    ) -> Result<Self::Buffer<T>, OutOfMemory>;

    /// Raw device pointer for embedding into kernel structs.
    fn buffer_ptr<T: Default + Clone + Send + 'static>(buf: &Self::Buffer<T>) -> DevicePtr<T>;

    /// Element count of a device buffer.
    fn buffer_len<T: Default + Clone + Send + 'static>(buf: &Self::Buffer<T>) -> usize {
        Self::buffer_ptr(buf).len()
    }

    /// Enqueue a host→device copy of `src` to the start of `dst`.
    fn h2d<T: Default + Clone + Send + 'static>(&mut self, dst: &Self::Buffer<T>, src: &[T]);

    /// Enqueue a kernel over at least `global_threads` lanes in blocks /
    /// work-groups of `block` threads. A failed launch is reported,
    /// enqueues nothing and leaves device memory untouched, so the caller
    /// may retry or degrade to a CPU path (see `workload::WorkloadDriver`).
    fn try_launch<K: KernelFn>(
        &mut self,
        kernel: K,
        global_threads: u64,
        block: u32,
    ) -> Result<(), crate::fault::DeviceFault>;

    /// Enqueue a device→host copy of the first `dst.len()` elements of
    /// `src` into `dst`.
    fn d2h<T: Default + Clone + Send + 'static>(&mut self, src: &Self::Buffer<T>, dst: &mut [T]);

    /// Block the host until every operation issued through this offloader
    /// has completed.
    fn sync(&mut self);
}

/// [`Offload`] over the CUDA front end: one private stream, built where
/// `cudaSetDevice` ran.
pub struct CudaOffload {
    cuda: Cuda,
    device: usize,
    stream: CudaStream,
}

impl Offload for CudaOffload {
    type Buffer<T: Default + Clone + Send + 'static> = CudaBuffer<T>;

    const API: OffloadApi = OffloadApi::Cuda;

    fn attach(system: &Arc<GpuSystem>, device: usize) -> Self {
        let cuda = Cuda::new(Arc::clone(system));
        // The per-thread initialization §IV-A insists on.
        cuda.set_device(device);
        let stream = cuda.stream_create();
        CudaOffload {
            cuda,
            device,
            stream,
        }
    }

    fn device(&self) -> usize {
        self.device
    }

    fn try_alloc<T: Default + Clone + Send + 'static>(
        &mut self,
        len: usize,
    ) -> Result<CudaBuffer<T>, OutOfMemory> {
        self.cuda.set_device(self.device);
        self.cuda.malloc(len)
    }

    fn buffer_ptr<T: Default + Clone + Send + 'static>(buf: &CudaBuffer<T>) -> DevicePtr<T> {
        buf.ptr()
    }

    fn h2d<T: Default + Clone + Send + 'static>(&mut self, dst: &CudaBuffer<T>, src: &[T]) {
        // Re-bind before every operation: the raw integrations must remember
        // this themselves (the paper's bug class); the façade encapsulates it
        // so several offloaders can share one thread.
        self.cuda.set_device(self.device);
        self.cuda.memcpy_h2d_auto(dst, 0, src, &self.stream);
    }

    fn try_launch<K: KernelFn>(
        &mut self,
        kernel: K,
        global_threads: u64,
        block: u32,
    ) -> Result<(), crate::fault::DeviceFault> {
        self.cuda.set_device(self.device);
        let blocks = global_threads.div_ceil(block as u64).max(1) as u32;
        self.cuda.try_launch(&kernel, blocks, block, &self.stream)
    }

    fn d2h<T: Default + Clone + Send + 'static>(&mut self, src: &CudaBuffer<T>, dst: &mut [T]) {
        self.cuda.set_device(self.device);
        self.cuda.memcpy_d2h_auto(dst, src, 0, &self.stream);
    }

    fn sync(&mut self) {
        self.cuda.stream_synchronize(&self.stream);
    }
}

/// [`Offload`] over the OpenCL front end: one in-order command queue; a
/// fresh thread-local [`ClKernel`] object per launch (the `!Sync` rule).
pub struct OclOffload {
    ctx: Context,
    queue: CommandQueue,
    device: ClDeviceId,
}

impl Offload for OclOffload {
    type Buffer<T: Default + Clone + Send + 'static> = ClBuffer<T>;

    const API: OffloadApi = OffloadApi::OpenCl;

    fn attach(system: &Arc<GpuSystem>, device: usize) -> Self {
        let platform = Platform::new(Arc::clone(system));
        let ids = platform.device_ids();
        let ctx = Context::create(&platform, &ids);
        let queue = ctx.create_queue(ids[device]);
        OclOffload {
            ctx,
            queue,
            device: ids[device],
        }
    }

    fn device(&self) -> usize {
        self.device.index()
    }

    fn try_alloc<T: Default + Clone + Send + 'static>(
        &mut self,
        len: usize,
    ) -> Result<ClBuffer<T>, OutOfMemory> {
        self.ctx.create_buffer(self.device, len)
    }

    fn buffer_ptr<T: Default + Clone + Send + 'static>(buf: &ClBuffer<T>) -> DevicePtr<T> {
        buf.ptr()
    }

    fn h2d<T: Default + Clone + Send + 'static>(&mut self, dst: &ClBuffer<T>, src: &[T]) {
        self.queue.enqueue_write_buffer(dst, false, 0, src, &[]);
    }

    fn try_launch<K: KernelFn>(
        &mut self,
        kernel: K,
        global_threads: u64,
        block: u32,
    ) -> Result<(), crate::fault::DeviceFault> {
        // A fresh (thread-local) kernel object per launch: cl_kernel is not
        // thread-safe and must not be shared.
        let kernel = ClKernel::create(kernel);
        let global = global_threads
            .next_multiple_of(block as u64)
            .max(block as u64);
        self.queue
            .try_enqueue_nd_range(&kernel, global, block, &[])
            .map(|_| ())
    }

    fn d2h<T: Default + Clone + Send + 'static>(&mut self, src: &ClBuffer<T>, dst: &mut [T]) {
        self.queue.enqueue_read_buffer(src, false, 0, dst, &[]);
    }

    fn sync(&mut self) {
        self.queue.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DeviceMemory;
    use crate::meter::WorkMeter;
    use crate::props::DeviceProps;
    use crate::LaunchDims;

    /// `out[i] = in[i] + 1` — enough to exercise every trait verb.
    struct IncKernel {
        src: DevicePtr<u32>,
        dst: DevicePtr<u32>,
        n: usize,
    }

    impl KernelFn for IncKernel {
        fn name(&self) -> &'static str {
            "inc"
        }
        fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
            let src = mem.borrow(self.src);
            let mut dst = mem.borrow_mut(self.dst);
            for lane in dims.lanes() {
                let i = lane as usize;
                if i < self.n {
                    dst[i] = src[i] + 1;
                    meter.record(lane, 1);
                }
            }
        }
    }

    /// Every verb, over the three kinds of host memory a caller can pass:
    /// a registered slice (async DMA), an unregistered one (allowed to
    /// bounce), and a prefix — `n` elements into a larger device buffer
    /// and back out into the first `n` of a larger host slice.
    fn roundtrip<O: Offload>() {
        let system = GpuSystem::new(2, DeviceProps::titan_xp());
        let mut off = O::attach(&system, 1);
        assert_eq!(off.device(), 1);
        let (cap, n) = (1024, 1000);
        let src: O::Buffer<u32> = off.try_alloc(cap).expect("healthy device");
        let dst: O::Buffer<u32> = off.try_alloc(cap).expect("healthy device");
        assert_eq!(O::buffer_len(&src), cap);
        let host: Vec<u32> = (0..cap as u32).collect();
        let mut out = vec![u32::MAX; cap];
        for registered in [true, false] {
            let _pins = registered.then(|| {
                (
                    crate::pinned::PinnedSlab::register(&host),
                    crate::pinned::PinnedSlab::register(&out),
                )
            });
            out.fill(u32::MAX);
            off.h2d(&src, &host[..n]);
            off.try_launch(
                IncKernel {
                    src: O::buffer_ptr(&src),
                    dst: O::buffer_ptr(&dst),
                    n,
                },
                n as u64,
                256,
            )
            .expect("healthy device");
            off.d2h(&dst, &mut out[..n]);
            off.sync();
            for (i, &v) in out[..n].iter().enumerate() {
                assert_eq!(v, i as u32 + 1, "registered={registered}");
            }
            assert!(
                out[n..].iter().all(|&v| v == u32::MAX),
                "a prefix read must leave the host tail untouched"
            );
        }
    }

    #[test]
    fn cuda_offload_roundtrips() {
        roundtrip::<CudaOffload>();
    }

    #[test]
    fn opencl_offload_roundtrips() {
        roundtrip::<OclOffload>();
    }

    #[test]
    fn api_names_parse_back() {
        for api in [OffloadApi::Cuda, OffloadApi::OpenCl] {
            assert_eq!(OffloadApi::parse(api.name()), Some(api));
        }
        assert_eq!(OffloadApi::parse("ocl"), Some(OffloadApi::OpenCl));
        assert_eq!(OffloadApi::parse("vulkan"), None);
    }

    #[test]
    fn unregistered_slices_bounce_and_block_under_cuda() {
        let system = GpuSystem::new(1, DeviceProps::titan_xp());
        let mut off = CudaOffload::attach(&system, 0);
        let n = 1 << 20;
        let dev: crate::cuda::CudaBuffer<u8> = off.try_alloc(n).expect("healthy device");
        let src = vec![1u8; n];
        let t0 = system.host_now();
        {
            let _pin = crate::pinned::PinnedSlab::register(&src);
            off.h2d(&dev, &src);
        }
        let t_pinned = system.host_now().since(t0);
        system.reset_clock();
        let before = telemetry::copy::snapshot();
        let t1 = system.host_now();
        off.h2d(&dev, &src); // guard dropped: pageable now
        let t_bounce = system.host_now().since(t1);
        let delta = telemetry::copy::snapshot().since(&before);
        assert!(
            delta.bounce_bytes >= n as u64,
            "unregistered transfer must be charged as a driver bounce"
        );
        assert!(
            t_bounce.as_nanos() > 10 * t_pinned.as_nanos(),
            "unregistered copy must block the host: pinned={t_pinned:?} bounce={t_bounce:?}"
        );
    }

    #[test]
    fn try_alloc_reports_oom() {
        let mut props = DeviceProps::titan_xp();
        props.global_mem = 4096;
        let system = GpuSystem::new(1, props);
        let mut off = CudaOffload::attach(&system, 0);
        assert!(off.try_alloc::<u8>(1 << 20).is_err());
    }

    #[test]
    fn offload_timeline_is_traced() {
        let system = GpuSystem::new(1, DeviceProps::titan_xp());
        system.device(0).enable_trace();
        let mut off = OclOffload::attach(&system, 0);
        let buf: ClBuffer<u32> = off.try_alloc(256).expect("healthy device");
        let mut host = vec![0u32; 256];
        off.h2d(&buf, &host);
        off.d2h(&buf, &mut host);
        off.sync();
        let trace = system.device(0).take_trace();
        assert!(trace.iter().any(|r| r.engine == crate::TraceEngine::H2D));
        assert!(trace.iter().any(|r| r.engine == crate::TraceEngine::D2H));
    }
}
