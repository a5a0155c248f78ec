//! `spar-gpu` — the paper's stated future work, implemented:
//!
//! > *"As future work, we intend to automatically generate parallel OpenCL
//! > and CUDA code through the SPar compilation toolchain. This should
//! > further increase the parallel programming productivity when targeting
//! > heterogeneous multi-core systems."* (§VI)
//!
//! With this crate, a SPar stream region gains a
//! [`stage_gpu_map`](SparGpuExt::stage_gpu_map) stage: the programmer writes **one lane
//! function** (the per-element computation) and everything §IV-A calls
//! "significant parallel programming effort" is generated:
//!
//! * per-replica device selection (`cudaSetDevice` on the worker thread) —
//!   batches round-robin across GPUs;
//! * device buffer allocation and reuse (grow-only, so a stream of
//!   varying-length items settles on its longest);
//! * host↔device transfers and kernel launch under **either** API
//!   ([`OffloadApi::Cuda`] or [`OffloadApi::OpenCl`]) — the same lane
//!   function drives both, which is exactly the "generate both back ends
//!   from one source" promise;
//! * work metering for the performance model (an optional cost function);
//! * surviving the device: a [`GpuMap`] bound to its back end is a
//!   [`Workload`] whose host rung is the lane function itself, so the
//!   generated stage walks the [`WorkloadDriver`] ladder — retry, halve
//!   the element range on OOM, recompute on the host, bit-identically.
//!
//! Generated stages run on the instrumented [`fastflow`] runtime, so a
//! `telemetry::Recorder` attached to the region (via
//! `ToStream::recorder`) observes them like any hand-written stage:
//! per-stage service-latency percentiles, item-level end-to-end latency
//! from the source stamp to the sink, and watchdog stall detection all
//! work unchanged on offloaded stages.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use gpusim::{DeviceProps, GpuSystem, OffloadApi};
//! use spar_gpu::{GpuMap, SparGpuExt};
//!
//! let system = GpuSystem::new(2, DeviceProps::titan_xp());
//! let stage = GpuMap::new(system, OffloadApi::Cuda, 2, |i, input: &[f32]| input[i] * 2.0);
//! let out = spar::ToStream::new()
//!     .source_iter((0..4).map(|k| vec![k as f32; 256]))
//!     .stage_gpu_map(3, stage)
//!     .collect();
//! assert_eq!(out[3][0], 6.0);
//! ```

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::sync::Arc;

use fastflow::Recycler;
use gpusim::{
    CudaOffload, DeviceMemory, DevicePtr, GpuSystem, KernelFn, LaunchDims, OclOffload, Offload,
    OffloadApi, WorkMeter,
};
use spar::StreamStage;
use workload::{DeviceOut, Workload, WorkloadDriver, WorkloadFault};

/// Threads per block for generated launches.
const BLOCK: u32 = 256;

/// Description of an element-wise GPU map stage: one lane computes
/// `f(i, input)` for element `i` of each stream item (a `Vec<T>`).
pub struct GpuMap<T, U, F> {
    system: Arc<GpuSystem>,
    api: OffloadApi,
    n_gpus: usize,
    lane: F,
    /// Work units one lane reports to the cost model (default 1).
    units_per_lane: u64,
    recycle: Recycler<Vec<U>>,
    _marker: PhantomData<fn(T) -> U>,
}

impl<T, U, F> GpuMap<T, U, F>
where
    T: Default + Clone + Send + Sync + 'static,
    U: Default + Clone + Send + Sync + 'static,
    F: Fn(usize, &[T]) -> U + Send + Sync + 'static,
{
    /// Describe a GPU map stage over `n_gpus` devices of `system`.
    ///
    /// # Panics
    /// Panics if `n_gpus` is zero or exceeds the system's device count.
    pub fn new(system: Arc<GpuSystem>, api: OffloadApi, n_gpus: usize, lane: F) -> Self {
        assert!(n_gpus >= 1 && n_gpus <= system.device_count());
        GpuMap {
            system,
            api,
            n_gpus,
            lane,
            units_per_lane: 1,
            // One output in flight per device and one at the consumer,
            // twice over so a burst of returns never sheds.
            recycle: fastflow::recycler(n_gpus * 2 + 2),
            _marker: PhantomData,
        }
    }

    /// Set the cost-model work units each lane reports.
    pub fn units_per_lane(mut self, units: u64) -> Self {
        self.units_per_lane = units.max(1);
        self
    }

    /// The output-vector recycle channel: a consumer that is done with a
    /// `Vec<U>` may push it back so the stage reuses it instead of
    /// allocating (dropping it is fine too).
    pub fn recycler(&self) -> &Recycler<Vec<U>> {
        &self.recycle
    }

    /// This stage as a [`Workload`] on back end `O`, for callers that
    /// drive the [`WorkloadDriver`] themselves (their own recorder, a
    /// placement policy, the conformance suite).
    ///
    /// # Panics
    /// Panics if `O` is not the back end the description names.
    pub fn on<O: Offload>(self) -> GpuMapOn<O, T, U, F> {
        assert_eq!(O::API, self.api, "GpuMap::on: back end mismatch");
        GpuMapOn {
            map: Arc::new(self),
            _off: PhantomData,
        }
    }
}

/// The generated kernel: `out[j] = lane(first + j, input)`.
struct MapKernel<T, U, F> {
    map: Arc<GpuMap<T, U, F>>,
    input: DevicePtr<T>,
    /// Elements of the stream item (the input buffer may be longer).
    len: usize,
    output: DevicePtr<U>,
    /// First element of the span this launch computes.
    first: usize,
    /// Elements in the span.
    count: usize,
}

impl<T, U, F> KernelFn for MapKernel<T, U, F>
where
    T: Send + Sync + 'static,
    U: Send + Sync + 'static,
    F: Fn(usize, &[T]) -> U + Send + Sync + 'static,
{
    fn name(&self) -> &'static str {
        "spar_gpu_map"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let input = mem.borrow(self.input);
        let mut output = mem.borrow_mut(self.output);
        let input = &input[..self.len];
        for (j, slot) in output[..self.count].iter_mut().enumerate() {
            *slot = (self.map.lane)(self.first + j, input);
        }
        // Every working lane costs the same; the tail of the last block
        // only bounds-checks and exits.
        let worked = self.count as u64;
        meter.record_fill(0..worked, self.map.units_per_lane);
        meter.record_fill(worked..dims.total_threads(), 1);
    }
}

/// A [`GpuMap`] bound to back end `O` — the [`Workload`] the generated
/// stage runs: items are the `Vec<T>` stream items, units are elements,
/// the host rung is the lane function applied in place.
pub struct GpuMapOn<O, T, U, F> {
    map: Arc<GpuMap<T, U, F>>,
    _off: PhantomData<fn() -> O>,
}

impl<O, T, U, F> Clone for GpuMapOn<O, T, U, F> {
    fn clone(&self) -> Self {
        GpuMapOn {
            map: Arc::clone(&self.map),
            _off: PhantomData,
        }
    }
}

/// Per-replica device state of a generated stage: the output side is the
/// SDK's [`DeviceOut`]; the grow-only input buffer rides beside it.
pub struct MapGpu<
    O: Offload,
    T: Default + Clone + Send + 'static,
    U: Default + Clone + Send + 'static,
> {
    out: DeviceOut<O, U>,
    input: Option<O::Buffer<T>>,
}

impl<O, T, U, F> Workload for GpuMapOn<O, T, U, F>
where
    O: Offload,
    T: Default + Clone + Send + Sync + 'static,
    U: Default + Clone + Send + Sync + 'static,
    F: Fn(usize, &[T]) -> U + Send + Sync + 'static,
{
    type Item = Vec<T>;
    type Batch = Vec<U>;
    type Gpu = MapGpu<O, T, U>;

    fn stage_label(&self) -> &'static str {
        "stage (gpu map)"
    }

    fn attach(&self, replica: usize) -> MapGpu<O, T, U> {
        MapGpu {
            out: DeviceOut::attach(&self.map.system, replica % self.map.n_gpus),
            input: None,
        }
    }

    fn make_batch(&self, item: &Vec<T>) -> Vec<U> {
        // Every rung overwrites all of it, so stale elements may stay.
        let mut out = self.map.recycle.take().unwrap_or_default();
        out.resize(item.len(), U::default());
        out
    }

    fn try_gpu_batch(
        &self,
        gpu: &mut MapGpu<O, T, U>,
        item: &Vec<T>,
        out: &mut Vec<U>,
    ) -> Result<(), WorkloadFault> {
        out.resize(item.len(), U::default());
        self.try_gpu_split(gpu, item, 0, item.len(), out)
    }

    fn split_units(&self, item: &Vec<T>) -> usize {
        item.len()
    }

    /// Elements `lo..hi`: the whole item goes up (a lane may read any
    /// element of it), the output buffer is sized to the span.
    fn try_gpu_split(
        &self,
        gpu: &mut MapGpu<O, T, U>,
        item: &Vec<T>,
        lo: usize,
        hi: usize,
        out: &mut Vec<U>,
    ) -> Result<(), WorkloadFault> {
        if lo == hi {
            return Ok(());
        }
        let off = gpu.out.offloader();
        if gpu.input.as_ref().map_or(0, |b| O::buffer_len(b)) < item.len() {
            gpu.input = None;
            gpu.input = Some(off.try_alloc(item.len())?);
        }
        let d_in = gpu.input.as_ref().expect("sized above");
        // Page-locked for the transfer, so the upload is a DMA out of the
        // stream item itself rather than a driver bounce.
        let _pin = gpusim::PinnedSlab::register(item);
        off.h2d(d_in, item);
        let input = O::buffer_ptr(d_in);
        gpu.out
            .launch_into(&mut out[lo..hi], (hi - lo) as u64, BLOCK, |output| {
                MapKernel {
                    map: Arc::clone(&self.map),
                    input,
                    len: item.len(),
                    output,
                    first: lo,
                    count: hi - lo,
                }
            })
    }

    fn cpu_batch(&self, item: &Vec<T>, out: &mut Vec<U>) {
        out.clear();
        out.extend((0..item.len()).map(|i| (self.map.lane)(i, item)));
    }
}

/// Extension trait adding generated GPU stages to SPar stream regions.
pub trait SparGpuExt<T: Send + 'static> {
    /// Append a replicated stage that offloads each `Vec<T>` stream item
    /// to the GPUs element-wise, with all host code generated from the
    /// [`GpuMap`] description. A device that refuses memory or a launch
    /// costs time, never the item: the stage retries, halves the element
    /// range, and as a last resort applies the lane function on the host.
    fn stage_gpu_map<U, F>(self, replicate: usize, desc: GpuMap<T, U, F>) -> StreamStage<Vec<U>>
    where
        T: Default + Clone + Sync,
        U: Default + Clone + Send + Sync + 'static,
        F: Fn(usize, &[T]) -> U + Send + Sync + 'static;
}

impl<T> SparGpuExt<T> for StreamStage<Vec<T>>
where
    T: Send + 'static,
{
    fn stage_gpu_map<U, F>(self, replicate: usize, desc: GpuMap<T, U, F>) -> StreamStage<Vec<U>>
    where
        T: Default + Clone + Sync,
        U: Default + Clone + Send + Sync + 'static,
        F: Fn(usize, &[T]) -> U + Send + Sync + 'static,
    {
        fn farm<W: Workload>(
            region: StreamStage<W::Item>,
            replicate: usize,
            work: W,
        ) -> StreamStage<W::Batch> {
            let driver = WorkloadDriver::new(work);
            region.stage_factory(replicate, |replica| {
                let driver = driver.clone();
                // Built on first use, so on the worker's own thread: where
                // the per-thread `cudaSetDevice` has to happen.
                let mut gpu = None;
                move |item| {
                    let gpu = gpu.get_or_insert_with(|| driver.attach(replica));
                    driver.process(gpu, &item)
                }
            })
        }
        match desc.api {
            OffloadApi::Cuda => farm(self, replicate, desc.on::<CudaOffload>()),
            OffloadApi::OpenCl => farm(self, replicate, desc.on::<OclOffload>()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceProps;

    fn system(n: usize) -> Arc<GpuSystem> {
        GpuSystem::new(n, DeviceProps::titan_xp())
    }

    fn items(n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|k| (0..len).map(|i| (k * 1000 + i) as f64).collect())
            .collect()
    }

    fn cpu_reference(input: &[Vec<f64>]) -> Vec<Vec<f64>> {
        input
            .iter()
            .map(|v| v.iter().map(|x| x * x + 1.0).collect())
            .collect()
    }

    #[test]
    fn cuda_stage_matches_cpu_map() {
        let sys = system(2);
        let input = items(8, 300);
        let expected = cpu_reference(&input);
        let stage = GpuMap::new(sys, OffloadApi::Cuda, 2, |i, xs: &[f64]| {
            xs[i] * xs[i] + 1.0
        });
        let out = spar::ToStream::new()
            .source_iter(input)
            .stage_gpu_map(3, stage)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn opencl_stage_matches_cpu_map() {
        let sys = system(2);
        let input = items(8, 300);
        let expected = cpu_reference(&input);
        let stage = GpuMap::new(sys, OffloadApi::OpenCl, 2, |i, xs: &[f64]| {
            xs[i] * xs[i] + 1.0
        });
        let out = spar::ToStream::new()
            .source_iter(input)
            .stage_gpu_map(3, stage)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn both_apis_generate_identical_results() {
        let input = items(5, 127); // non-multiple of the block size
        let mk = |api| {
            let sys = system(1);
            let stage = GpuMap::new(sys, api, 1, |i, xs: &[f64]| (xs[i] * 3.0).sqrt());
            let out: Vec<Vec<f64>> = spar::ToStream::new()
                .source_iter(input.clone())
                .stage_gpu_map(2, stage)
                .collect();
            out
        };
        assert_eq!(mk(OffloadApi::Cuda), mk(OffloadApi::OpenCl));
    }

    #[test]
    fn empty_and_varying_length_items() {
        let sys = system(1);
        let input = vec![vec![], vec![1.0f64], vec![2.0; 1000], vec![3.0; 7]];
        let stage = GpuMap::new(sys, OffloadApi::Cuda, 1, |i, xs: &[f64]| xs[i] + 0.5);
        let out = spar::ToStream::new()
            .source_iter(input.clone())
            .stage_gpu_map(2, stage)
            .collect();
        for (o, inp) in out.iter().zip(&input) {
            assert_eq!(o.len(), inp.len());
            for (a, b) in o.iter().zip(inp) {
                assert_eq!(*a, b + 0.5);
            }
        }
    }

    #[test]
    fn faulty_devices_still_return_the_host_map() {
        // Refused allocations and launches on every device: the region
        // must absorb them (retry, halve, host fallback), not panic.
        let input = items(8, 300);
        let expected = cpu_reference(&input);
        for api in [OffloadApi::Cuda, OffloadApi::OpenCl] {
            let sys = system(2);
            sys.inject_faults(&gpusim::FaultSpec::demo(7));
            let stage = GpuMap::new(sys, api, 2, |i, xs: &[f64]| xs[i] * xs[i] + 1.0);
            let out = spar::ToStream::new()
                .source_iter(input.clone())
                .stage_gpu_map(3, stage)
                .collect();
            assert_eq!(out, expected, "{api}");
        }
    }

    #[test]
    fn recorded_region_times_offloaded_items_end_to_end() {
        let sys = system(2);
        let rec = telemetry::Recorder::enabled();
        let stage = GpuMap::new(sys, OffloadApi::Cuda, 2, |i, xs: &[f64]| xs[i] * 2.0);
        let out: Vec<Vec<f64>> = spar::ToStream::new()
            .recorder(rec.clone())
            .source_iter(items(8, 300))
            .stage_gpu_map(2, stage)
            .collect();
        assert_eq!(out.len(), 8);
        // Every offloaded item is timed from the source stamp to the sink.
        let e2e = rec.report().e2e;
        assert_eq!(e2e.count, 8);
        assert!(e2e.p50_ns > 0 && e2e.p50_ns <= e2e.max_ns);
        // The generated stage reports service-latency percentiles too.
        let report = rec.report();
        let (_, lat) = report
            .stage_latency
            .iter()
            .find(|(name, _)| name == "stage1")
            .expect("generated stage registers like a hand-written one");
        assert_eq!(lat.count, 8);
    }

    #[test]
    fn device_stats_show_real_offloading() {
        let sys = system(1);
        let stage = GpuMap::new(Arc::clone(&sys), OffloadApi::Cuda, 1, |i, xs: &[u32]| {
            xs[i] ^ 0xFF
        });
        let _out: Vec<Vec<u32>> = spar::ToStream::new()
            .source_iter((0..4).map(|_| vec![1u32; 512]))
            .stage_gpu_map(1, stage)
            .collect();
        let stats = sys.device(0).stats();
        assert_eq!(stats.kernels, 4, "one launch per stream item");
        assert!(stats.h2d_bytes >= 4 * 512 * 4);
    }
}
