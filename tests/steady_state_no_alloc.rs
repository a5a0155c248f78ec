//! Acceptance gate for the pooled data path: after a short warmup, the
//! per-batch hot loops of the two case studies — Mandelbrot batches on the
//! CUDA and OpenCL front ends (the Fig. 1 / Fig. 4 shapes, tiny config)
//! and the Dedup hash stage through its driver — must run without
//! touching the heap. Staging comes from the host rings, digests from the
//! shared pool, device buffers from the device-side allocation cache, and
//! kernel launches reuse the device's work meter. The same holds for the
//! Mandelbrot CPU-fallback rung, which shares the kernels' row routine.
//! Dedup's whole pipeline is held to a per-batch count instead: each run
//! spawns its stage threads, but from the second batch on a batch costs
//! at most [`PIPELINE_ALLOCS_PER_BATCH`] allocations.
//!
//! Same harness as `hotpath_no_alloc.rs`: a counting global allocator,
//! one test per binary (so no concurrent test thread allocates), baseline
//! then sweep, retrying a few times because the test-harness monitor
//! thread occasionally allocates mid-run. A *deterministic* per-batch
//! allocation can never produce a clean attempt; background noise
//! vanishes on retry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use hetstream::dedup::backend::{BackendCtx, HashWork};
use hetstream::dedup::{
    datasets, make_batches, run_pipeline, run_sequential, Batch, DedupConfig, LzssConfig,
    RabinParams,
};
use hetstream::gpusim::{CudaOffload, DeviceProps, GpuSystem, OclOffload, Offload};
use hetstream::mandel::hybrid::MandelWork;
use hetstream::mandel::FractalParams;
use hetstream::workload::{Workload, WorkloadDriver};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What one more batch may cost a Dedup pipeline run: its block starts,
/// its block classes, its record list and the one buffer its records
/// share, the match kernel's two finder tables, and the amortized growth
/// of the duplicate cache and of the archive's record list.
const PIPELINE_ALLOCS_PER_BATCH: usize = 8;

const WARMUP: usize = 3;
const ATTEMPTS: usize = 5;
const BATCHES_PER_SWEEP: usize = 4;

/// Run `sweep` once to warm caches, then up to [`ATTEMPTS`] measured
/// sweeps, requiring the last to allocate nothing.
fn assert_steady_state(label: &str, mut sweep: impl FnMut()) {
    for _ in 0..WARMUP {
        sweep();
    }
    let mut deltas = Vec::new();
    for _ in 0..ATTEMPTS {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        sweep();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        deltas.push(after - before);
        if after == before {
            break;
        }
    }
    assert_eq!(
        *deltas.last().unwrap(),
        0,
        "{label}: steady-state sweep allocated on every attempt: {deltas:?}"
    );
}

fn mandel_sweep<O: Offload>(label: &str) {
    let system = GpuSystem::new(1, DeviceProps::titan_xp());
    let params = FractalParams::view(32, 100);
    let batch_size = 8;
    let n_batches = params.dim.div_ceil(batch_size);
    let work = MandelWork::<O>::new(&system, &params, batch_size, 1, 1);
    let mut gpu = work.attach(0);
    let mut out = Vec::new();
    assert_steady_state(label, || {
        for b in 0..n_batches {
            work.try_gpu_batch(&mut gpu, &b, &mut out)
                .expect("no faults injected");
        }
    });
    assert!(!out.is_empty(), "{label}: the sweep must produce pixels");
}

/// The CPU-fallback rung with the device forced out of the picture: the
/// same batches down the driver's host-only path, pixel buffers cycling
/// through the workload's recycler as the sink would cycle them.
fn mandel_fallback_sweep(label: &str) {
    let system = GpuSystem::new(1, DeviceProps::titan_xp());
    let params = FractalParams::view(32, 100);
    let batch_size = 8;
    let n_batches = params.dim.div_ceil(batch_size);
    let work = MandelWork::<CudaOffload>::new(&system, &params, batch_size, 1, 1);
    let recycle = work.recycler().clone();
    let driver = WorkloadDriver::new(work);
    let mut pixels = 0;
    assert_steady_state(label, || {
        for b in 0..n_batches {
            let batch = driver.process_host(&b);
            pixels += batch.len();
            recycle.give(batch);
        }
    });
    assert!(pixels > 0, "{label}: the sweep must produce pixels");
}

/// Allocations one `run_pipeline` call makes over `input`, the system
/// built and the input copied before counting starts.
fn pipeline_allocs(input: &[u8], cfg: &DedupConfig) -> usize {
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    let ctx = BackendCtx::gpu(system, 2, true, cfg.lzss);
    let input = input.to_vec();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let archive = run_pipeline::<CudaOffload>(ctx, input, cfg, 2);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(!archive.entries.is_empty());
    after - before
}

/// The per-batch cost of a Dedup pipeline run: the runs over `n` and
/// `2 n` batches differ only in the second `n` batches, so everything a
/// run sets up (threads, rings, device lanes) cancels out. How many
/// batches are in flight at once varies from run to run, and with it how
/// many pooled buffers a run needs, so each size takes the fewest
/// allocations of [`ATTEMPTS`] runs.
fn pipeline_per_batch_sweep() {
    let n = 4;
    let cfg = DedupConfig {
        batch_size: 16 * 1024,
        rabin: RabinParams {
            window: 16,
            mask: (1 << 9) - 1,
            magic: 0x5c,
            min_chunk: 256,
            max_chunk: 4096,
        },
        lzss: LzssConfig {
            window: 256,
            min_coded: 3,
        },
    };
    let long = datasets::parsec_like(2 * n * cfg.batch_size, 5).data;
    let short = &long[..n * cfg.batch_size];
    let reference = run_sequential(&long, &cfg);
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    let ctx = BackendCtx::gpu(system, 2, true, cfg.lzss);
    assert_eq!(
        run_pipeline::<CudaOffload>(ctx, long.clone(), &cfg, 2),
        reference
    );
    let (mut fewest_short, mut fewest_long) = (usize::MAX, usize::MAX);
    for _ in 0..ATTEMPTS {
        fewest_short = fewest_short.min(pipeline_allocs(short, &cfg));
        fewest_long = fewest_long.min(pipeline_allocs(&long, &cfg));
    }
    let extra = fewest_long.saturating_sub(fewest_short);
    assert!(
        extra <= n * PIPELINE_ALLOCS_PER_BATCH,
        "dedup/pipeline: {n} more batches cost {extra} allocations, more than \
         {PIPELINE_ALLOCS_PER_BATCH} a batch ({fewest_short} for {n} batches, \
         {fewest_long} for {})",
        2 * n
    );
}

#[test]
fn steady_state_batches_do_not_allocate() {
    // Fig. 1 shape: Mandelbrot batches through the CUDA front end.
    mandel_sweep::<CudaOffload>("mandel/cuda");
    // Fig. 4 shape: the same batches through the OpenCL front end.
    mandel_sweep::<OclOffload>("mandel/opencl");
    // The rung a faulted batch degrades to: same batches on the host.
    mandel_fallback_sweep("mandel/cpu-fallback");

    // Dedup hash stage (the stage-2 data path: stage, upload, launch,
    // read back, pooled digests) through the stage-2 driver. Every batch
    // is used once, so clone the full supply *before* the baseline.
    let system = GpuSystem::new(1, DeviceProps::titan_xp());
    let ctx = BackendCtx::gpu(system, 1, true, LzssConfig::default());
    let driver = WorkloadDriver::new(HashWork::<CudaOffload>::new(&ctx));
    let mut gpu = driver.attach(0);
    let input: Vec<u8> = (0..48 * 1024u32).map(|i| (i % 251) as u8).collect();
    let template = make_batches(&input, 16 * 1024, &RabinParams::default())
        .into_iter()
        .next()
        .expect("one batch");
    let mut supply: VecDeque<Batch> = std::iter::repeat_with(|| template.clone())
        .take((WARMUP + ATTEMPTS) * BATCHES_PER_SWEEP)
        .collect();
    assert_steady_state("dedup/hash", || {
        for _ in 0..BATCHES_PER_SWEEP {
            let batch = supply.pop_front().expect("pre-cloned supply");
            let (digests, resident) = driver.process(&mut gpu, &batch);
            assert!(resident.is_some(), "no faults injected: must stay on GPU");
            assert_eq!(digests.len(), batch.block_count());
            // Dropping the digests returns the buffer to the pool and
            // dropping the residency returns it to the device allocation
            // cache.
        }
    });

    // Dedup's five stages end to end, on a device system of their own.
    pipeline_per_batch_sweep();
}
