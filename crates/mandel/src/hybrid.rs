//! Multi-core + GPU versions: SPar, FastFlow and TBB pipelines whose
//! replicated middle stage offloads batches of lines to the simulated GPUs.
//!
//! This module declares *what* Mandelbrot offload means — [`MandelWork`],
//! a [`Workload`] impl pairing the batch and row-span kernels (launched
//! through the SDK's [`DeviceOut`]) with the row-by-row host
//! implementation — and the generic [`WorkloadDriver`] owns *how* it
//! survives: retries, OOM batch-halving (via [`RowSpanKernel`] on
//! half-spans), and the bit-identical CPU fallback. No recovery logic and
//! no device plumbing lives here.
//!
//! The integration still follows §IV-A's recipe for each model:
//!
//! * **SPar / FastFlow** — every stage replica owns its own GPU state
//!   (queue + buffers) built in the worker's `on_init`, where the mandatory
//!   per-thread `cudaSetDevice` happens under CUDA. Forgetting that call is
//!   a panic in `gpusim`, reproducing the paper's hardest-to-find bug class.
//!   Under OpenCL the per-launch `ClKernel` objects being `!Sync` means the
//!   borrow checker rejects the incorrect sharing the paper debugged by hand.
//! * **TBB** — tasks are not threads, so per-replica state has no home;
//!   per-item GPU resources are created instead (the paper attaches them to
//!   stream items), which is why TBB needs more live tokens (50) to keep
//!   the GPU fed.
//!
//! Batches are distributed across devices round-robin by batch index.
//! Every `run_*` threads a [`telemetry::Recorder`] through the pipeline
//! and merges the simulated devices' command traces into the same report;
//! pass `Recorder::default()` to run unobserved.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use fastflow::{FaultPolicy, Recycler};
use gpusim::GpuSystem;
pub use gpusim::{CudaOffload, OclOffload, Offload, OffloadApi};
use telemetry::Recorder;
use workload::{
    arm_gpu_traces, drain_gpu_traces, DeviceOut, Done, Workload, WorkloadDriver, WorkloadFault,
};

use crate::core::{shade_span, FractalParams, Image};
use crate::kernels::{BatchKernel, RowSpanKernel};

const BLOCK_1D: u32 = 256;

/// Telemetry stage label for fault events from the replicated GPU stage
/// (prefix-matches the pipeline's `stage1` row in trace exports).
const GPU_STAGE: &str = "stage1 (gpu)";

/// Host implementation of one batch, row by row through the routine the
/// device kernels execute with (`shade_span`) — so a fallen-back batch
/// is byte-identical by construction and leaves no trace in the image.
/// Padding rows past the image edge stay zero (the sink ignores them).
/// Writes into a caller-supplied (typically recycled) vector and
/// allocates nothing beyond growing it.
fn cpu_batch(params: &FractalParams, batch: usize, batch_size: usize, out: &mut Vec<u8>) {
    out.clear();
    out.resize(batch_size * params.dim, 0);
    let first = batch * batch_size;
    let rows = batch_size.min(params.dim.saturating_sub(first));
    for (r, line) in out.chunks_mut(params.dim).take(rows).enumerate() {
        shade_span(params, first + r, 0, line, |_, _| {});
    }
}

/// The Mandelbrot offload stage as a [`Workload`]: items are batch
/// indices, batches are `batch_size * dim` pixel vectors cycling through
/// a recycle channel, GPU state is a per-replica [`DeviceOut`].
pub struct MandelWork<O: Offload> {
    system: Arc<GpuSystem>,
    params: FractalParams,
    batch_size: usize,
    n_gpus: usize,
    recycle: Recycler<Vec<u8>>,
    policy: FaultPolicy,
    _off: PhantomData<fn() -> O>,
}

impl<O: Offload> Clone for MandelWork<O> {
    fn clone(&self) -> Self {
        MandelWork {
            system: Arc::clone(&self.system),
            params: self.params,
            batch_size: self.batch_size,
            n_gpus: self.n_gpus,
            recycle: self.recycle.clone(),
            policy: self.policy,
            _off: PhantomData,
        }
    }
}

impl<O: Offload> MandelWork<O> {
    /// Declare the workload. `pipeline_width` sizes the pixel-buffer
    /// recycle channel: one buffer in flight per worker/token plus the
    /// sink's just-finished one, so a full pipeline never sheds.
    pub fn new(
        system: &Arc<GpuSystem>,
        params: &FractalParams,
        batch_size: usize,
        n_gpus: usize,
        pipeline_width: usize,
    ) -> Self {
        assert!(n_gpus >= 1 && n_gpus <= system.device_count());
        MandelWork {
            system: Arc::clone(system),
            params: *params,
            batch_size,
            n_gpus,
            recycle: fastflow::recycler(pipeline_width * 2 + 2),
            policy: FaultPolicy::default(),
            _off: PhantomData,
        }
    }

    /// The pixel-buffer recycle channel (sinks push spent buffers back).
    pub fn recycler(&self) -> &Recycler<Vec<u8>> {
        &self.recycle
    }
}

impl<O: Offload> Workload for MandelWork<O> {
    type Item = usize;
    type Batch = Vec<u8>;
    type Gpu = DeviceOut<O>;

    fn stage_label(&self) -> &'static str {
        GPU_STAGE
    }

    fn policy(&self) -> FaultPolicy {
        self.policy
    }

    fn describe(&self, batch: &usize) -> String {
        format!("batch {batch}")
    }

    fn attach(&self, replica: usize) -> DeviceOut<O> {
        DeviceOut::attach(&self.system, replica % self.n_gpus)
    }

    fn make_batch(&self, _batch: &usize) -> Vec<u8> {
        let mut pixels = self.recycle.take().unwrap_or_default();
        pixels.clear();
        pixels.resize(self.batch_size * self.params.dim, 0);
        pixels
    }

    /// Lines `[batch * batch_size, ..)` as `batch_size * dim` pixels, tail
    /// batches padded with zero rows. Recycled vectors carry capacity, so
    /// the resize is allocation-free in the steady state.
    fn try_gpu_batch(
        &self,
        gpu: &mut DeviceOut<O>,
        batch: &usize,
        out: &mut Vec<u8>,
    ) -> Result<(), WorkloadFault> {
        let len = self.batch_size * self.params.dim;
        out.clear();
        out.resize(len, 0);
        gpu.launch_into(out, len as u64, BLOCK_1D, |img| BatchKernel {
            batch: *batch,
            batch_size: self.batch_size,
            params: self.params,
            img,
        })
    }

    fn split_units(&self, _batch: &usize) -> usize {
        self.batch_size
    }

    /// The OOM-halving rung: the device buffer is sized to the row span,
    /// not the whole batch, so halves can succeed where the full batch
    /// allocation was refused. Rows past the image edge come back zero
    /// (the cache hands out zero-filled buffers).
    fn try_gpu_split(
        &self,
        gpu: &mut DeviceOut<O>,
        batch: &usize,
        lo: usize,
        hi: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), WorkloadFault> {
        let dim = self.params.dim;
        let span = &mut out[lo * dim..hi * dim];
        gpu.launch_into(span, ((hi - lo) * dim) as u64, BLOCK_1D, |img| {
            RowSpanKernel {
                first_row: batch * self.batch_size + lo,
                rows: hi - lo,
                params: self.params,
                img,
            }
        })
    }

    fn cpu_batch(&self, batch: &usize, out: &mut Vec<u8>) {
        cpu_batch(&self.params, *batch, self.batch_size, out)
    }

    fn register_telemetry(&self, rec: &Recorder) {
        rec.register(&["mandel.pixels"], self.recycle.counters());
    }
}

/// Install a finished batch into the image, then push its spent pixel
/// buffer back upstream through the recycle channel (FastFlow's feedback
/// idiom) so the workers reuse it instead of allocating a fresh one.
fn install_and_recycle<O: Offload>(
    img: &mut Image,
    params: &FractalParams,
    batch_size: usize,
    done: Done<MandelWork<O>>,
    recycle: &Recycler<Vec<u8>>,
) {
    let first = done.item * batch_size;
    for r in 0..batch_size.min(params.dim - first) {
        img.set_row(first + r, &done.batch[r * params.dim..(r + 1) * params.dim]);
    }
    recycle.give(done.batch);
}

/// SPar + GPU: the annotated pipeline with a replicated GPU stage. `rec`
/// receives stage metrics plus the devices' merged command traces.
pub fn run_spar_gpu<O: Offload>(
    system: &Arc<GpuSystem>,
    params: &FractalParams,
    workers: usize,
    batch_size: usize,
    n_gpus: usize,
    rec: Recorder,
) -> Image {
    let p = *params;
    let n_batches = p.dim.div_ceil(batch_size);
    let mut img = Image::new(p.dim);
    arm_gpu_traces(system, &rec);
    let driver = WorkloadDriver::new(MandelWork::<O>::new(
        system, &p, batch_size, n_gpus, workers,
    ))
    .with_recorder(rec.clone());
    let sink_recycle = driver.workload().recycler().clone();
    spar::ToStream::new()
        .recorder(rec.clone())
        .ordered(true)
        .source(move |em| {
            for b in 0..n_batches {
                if !em.send(b) {
                    break;
                }
            }
        })
        .stage_node(workers, |replica| driver.node(replica))
        .last_stage(|done: Done<MandelWork<O>>| {
            install_and_recycle(&mut img, &p, batch_size, done, &sink_recycle)
        });
    drain_gpu_traces(system, &rec);
    img
}

/// FastFlow + GPU: explicit pipeline(source, farm(worker), sink) — all of
/// it owned by the generic driver's ordered-farm plumbing.
pub fn run_fastflow_gpu<O: Offload>(
    system: &Arc<GpuSystem>,
    params: &FractalParams,
    workers: usize,
    batch_size: usize,
    n_gpus: usize,
    rec: Recorder,
) -> Image {
    let p = *params;
    let n_batches = p.dim.div_ceil(batch_size);
    let mut img = Image::new(p.dim);
    arm_gpu_traces(system, &rec);
    let driver = WorkloadDriver::new(MandelWork::<O>::new(
        system, &p, batch_size, n_gpus, workers,
    ))
    .with_recorder(rec.clone());
    let sink_recycle = driver.workload().recycler().clone();
    driver.run_ordered(workers, 0..n_batches, |done| {
        install_and_recycle(&mut img, &p, batch_size, done, &sink_recycle)
    });
    drain_gpu_traces(system, &rec);
    img
}

/// TBB + GPU: `parallel_pipeline` whose parallel filter builds per-item GPU
/// resources (tasks have no thread identity to hang per-replica state on).
pub fn run_tbb_gpu<O: Offload>(
    system: &Arc<GpuSystem>,
    params: &FractalParams,
    pool: &Arc<tbbx::TaskPool>,
    max_live_tokens: usize,
    batch_size: usize,
    n_gpus: usize,
    rec: Recorder,
) -> Image {
    let p = *params;
    let n_batches = p.dim.div_ceil(batch_size);
    let img = Arc::new(Mutex::new(Image::new(p.dim)));
    let sink_img = Arc::clone(&img);
    arm_gpu_traces(system, &rec);
    let driver = WorkloadDriver::new(MandelWork::<O>::new(
        system,
        &p,
        batch_size,
        n_gpus,
        max_live_tokens,
    ))
    .with_recorder(rec.clone());
    let sink_recycle = driver.workload().recycler().clone();
    let mut next = 0usize;
    tbbx::Pipeline::source(move || {
        if next < n_batches {
            next += 1;
            Some(next - 1)
        } else {
            None
        }
    })
    .parallel({
        let driver = driver.clone();
        move |batch: usize| {
            // Per-item GPU state (tasks have no thread identity); passing
            // the batch index as the replica keeps the round-robin device
            // assignment. Output buffers still cycle through the recycler.
            let mut gpu = driver.attach(batch);
            let pixels = driver.process(&mut gpu, &batch);
            Done {
                item: batch,
                batch: pixels,
            }
        }
    })
    .serial_in_order(move |done: Done<MandelWork<O>>| {
        let mut img = sink_img
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        install_and_recycle(&mut img, &p, batch_size, done, &sink_recycle);
    })
    .recorder(rec.clone())
    .build()
    .run(pool, max_live_tokens);
    drain_gpu_traces(system, &rec);
    Arc::try_unwrap(img)
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .unwrap_or_else(|arc| {
            arc.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone()
        })
}

/// [`run_spar_gpu`] with the backend chosen by value.
pub fn run_spar_gpu_api(
    api: OffloadApi,
    system: &Arc<GpuSystem>,
    params: &FractalParams,
    workers: usize,
    batch_size: usize,
    n_gpus: usize,
    rec: Recorder,
) -> Image {
    match api {
        OffloadApi::Cuda => {
            run_spar_gpu::<CudaOffload>(system, params, workers, batch_size, n_gpus, rec)
        }
        OffloadApi::OpenCl => {
            run_spar_gpu::<OclOffload>(system, params, workers, batch_size, n_gpus, rec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::run_sequential;
    use gpusim::DeviceProps;

    fn small() -> FractalParams {
        FractalParams::view(48, 200)
    }

    fn sys(n: usize) -> Arc<GpuSystem> {
        GpuSystem::new(n, DeviceProps::titan_xp())
    }

    #[test]
    fn spar_cuda_matches_sequential() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(2);
        let img = run_spar_gpu::<CudaOffload>(&system, &p, 3, 8, 2, Recorder::default());
        assert_eq!(img.digest(), seq.digest());
    }

    #[test]
    fn spar_opencl_matches_sequential() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(2);
        let img = run_spar_gpu::<OclOffload>(&system, &p, 3, 8, 2, Recorder::default());
        assert_eq!(img.digest(), seq.digest());
    }

    #[test]
    fn fastflow_cuda_matches_sequential() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(1);
        let img = run_fastflow_gpu::<CudaOffload>(&system, &p, 2, 8, 1, Recorder::default());
        assert_eq!(img.digest(), seq.digest());
    }

    #[test]
    fn fastflow_opencl_matches_sequential() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(1);
        let img = run_fastflow_gpu::<OclOffload>(&system, &p, 2, 8, 1, Recorder::default());
        assert_eq!(img.digest(), seq.digest());
    }

    #[test]
    fn tbb_cuda_matches_sequential() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(2);
        let pool = Arc::new(tbbx::TaskPool::new(3));
        let img = run_tbb_gpu::<CudaOffload>(&system, &p, &pool, 6, 8, 2, Recorder::default());
        assert_eq!(img.digest(), seq.digest());
    }

    #[test]
    fn tbb_opencl_matches_sequential() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(1);
        let pool = Arc::new(tbbx::TaskPool::new(2));
        let img = run_tbb_gpu::<OclOffload>(&system, &p, &pool, 4, 8, 1, Recorder::default());
        assert_eq!(img.digest(), seq.digest());
    }

    #[test]
    fn odd_batch_sizes_cover_the_whole_image() {
        let p = FractalParams::view(50, 150); // 50 rows, batch 7 -> tail of 1
        let (seq, _) = run_sequential(&p);
        let system = sys(1);
        let img = run_spar_gpu::<CudaOffload>(&system, &p, 2, 7, 1, Recorder::default());
        assert_eq!(img.digest(), seq.digest());
    }

    #[test]
    fn api_dispatch_matches_generic_versions() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        for api in [OffloadApi::Cuda, OffloadApi::OpenCl] {
            let system = sys(2);
            let img = run_spar_gpu_api(api, &system, &p, 3, 8, 2, Recorder::default());
            assert_eq!(img.digest(), seq.digest(), "{api}");
        }
    }

    #[test]
    fn injected_faults_degrade_to_cpu_and_preserve_the_image() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        type Run = fn(&Arc<GpuSystem>, &FractalParams, Recorder) -> Image;
        let runs: [(&str, Run); 2] = [
            ("spar+cuda, 3 workers, 2 gpus", |s, p, rec| {
                run_spar_gpu::<CudaOffload>(s, p, 3, 8, 2, rec)
            }),
            // Serial on one device: the fault budget lands on consecutive
            // attempts of one batch, so the ladder walks to the fallback.
            ("fastflow+opencl, 1 worker, 1 gpu", |s, p, rec| {
                run_fastflow_gpu::<OclOffload>(s, p, 1, 8, 1, rec)
            }),
        ];
        for (name, run) in runs {
            let system = sys(2);
            // Transient device OOMs and kernel faults on every device.
            system.inject_faults(&gpusim::FaultSpec::demo(42));
            let rec = Recorder::enabled();
            let img = run(&system, &p, rec.clone());
            assert_eq!(
                img.digest(),
                seq.digest(),
                "{name}: image must be bit-identical"
            );
            let report = rec.report();
            assert!(
                report.retry_count() >= 1,
                "{name}: expected retries, got {} fault events",
                report.faults.len()
            );
            assert!(
                report.fallback_count() >= 1,
                "{name}: expected a CPU fallback, got {} fault events",
                report.faults.len()
            );
        }
    }

    #[test]
    fn tbb_survives_injected_faults() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(1);
        system.inject_faults(&gpusim::FaultSpec::demo(9));
        let pool = Arc::new(tbbx::TaskPool::new(3));
        let rec = Recorder::enabled();
        let img = run_tbb_gpu::<OclOffload>(&system, &p, &pool, 6, 8, 1, rec.clone());
        assert_eq!(img.digest(), seq.digest());
        assert!(rec.report().fallback_count() + rec.report().retry_count() >= 1);
    }

    #[test]
    fn recorder_merges_cpu_stages_and_gpu_engines() {
        let p = small();
        let system = sys(2);
        let rec = Recorder::enabled();
        let img = run_spar_gpu::<CudaOffload>(&system, &p, 3, 8, 2, rec.clone());
        assert_eq!(img.digest(), run_sequential(&p).0.digest());
        let report = rec.report();
        // CPU side: source, the replicated GPU stage, sink.
        assert!(report.items_in("sink") > 0);
        assert_eq!(report.items_out("source"), p.dim.div_ceil(8) as u64);
        // GPU side: compute + d2h engine spans from both devices.
        assert!(report.gpu.iter().any(|s| s.device == 0));
        assert!(report.gpu.iter().any(|s| s.device == 1));
        assert!(report.gpu.iter().any(|s| s.engine == "compute"));
        assert!(report.gpu.iter().any(|s| s.engine == "d2h"));
    }

    #[test]
    fn oom_halving_stays_on_the_device_when_memory_is_tight() {
        // A device whose memory holds a half-batch but not a full batch:
        // the halving rung must finish on the GPU without CPU fallback.
        let p = FractalParams::view(64, 100);
        let (seq, _) = run_sequential(&p);
        let batch_size = 32; // full batch = 2048 B; halves = 1024 B
        let mut props = DeviceProps::titan_xp();
        props.global_mem = 1536; // fits 32*64/2 pixels, not 32*64
        let system = GpuSystem::new(1, props);
        let rec = Recorder::enabled();
        let img = run_spar_gpu::<CudaOffload>(&system, &p, 1, batch_size, 1, rec.clone());
        assert_eq!(img.digest(), seq.digest());
        let report = rec.report();
        assert!(
            report.faults_of(telemetry::FaultKind::DeviceOom).count() >= 1,
            "the full-batch allocation must have been refused"
        );
        assert_eq!(
            report.fallback_count(),
            0,
            "halved batches fit: no CPU fallback expected"
        );
    }
}
