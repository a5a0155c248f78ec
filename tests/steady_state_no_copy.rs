//! Acceptance gate for the zero-copy pinned-slab handoff: after warmup,
//! the pooled offload paths of the case studies must perform **zero**
//! host-side staging memcpys and **zero** driver bounces per batch. The
//! batch buffers are either pool slabs pinned for their whole pooled
//! lifetime (dedup digests/matches) or recycled vectors pinned per use
//! (mandel pixels, dedup batch data), so every `h2d_pinned`/`d2h_pinned`
//! verb finds registered memory and moves bytes by DMA, not memcpy.
//!
//! Each measured sweep runs under its own delta-scoped
//! [`copy::CopyLedger`], so only traffic charged by *this* thread inside
//! the sweep counts — concurrent tests elsewhere in the process can no
//! longer contaminate the per-batch figures. Warmup absorbs the
//! cold-path copies (first-touch allocations are allowed to stage); the
//! steady-state ledger must read exactly zero, not merely small.

use std::collections::VecDeque;

use hetstream::dedup::backend::{BackendCtx, HashWork};
use hetstream::dedup::{make_batches, Batch, LzssConfig, RabinParams};
use hetstream::gpusim::{CudaOffload, DeviceProps, GpuSystem, OclOffload, Offload};
use hetstream::hashsearch::{NonceRange, SearchConfig, SearchWork, DIGEST_BYTES};
use hetstream::mandel::hybrid::MandelWork;
use hetstream::mandel::FractalParams;
use hetstream::telemetry::copy;
use hetstream::workload::{Workload, WorkloadDriver};

const WARMUP: usize = 3;
const SWEEPS: usize = 3;
const BATCHES_PER_SWEEP: usize = 4;

/// Warm the pools, then require every measured sweep to move zero bytes
/// through host-side copies (both the staging and bounce paths).
fn assert_no_copies(label: &str, mut sweep: impl FnMut()) {
    for _ in 0..WARMUP {
        sweep();
    }
    for attempt in 0..SWEEPS {
        let ledger = copy::CopyLedger::new();
        {
            let _scope = ledger.enter();
            sweep();
        }
        let delta = ledger.stats();
        assert_eq!(
            delta.bytes_copied(),
            0,
            "{label} sweep {attempt}: steady state copied bytes: {delta:?}"
        );
        assert_eq!(
            delta.copy_ops(),
            0,
            "{label} sweep {attempt}: steady state performed copies: {delta:?}"
        );
    }
}

fn mandel_sweep<O: Offload>(label: &str) {
    let system = GpuSystem::new(1, DeviceProps::titan_xp());
    let params = FractalParams::view(32, 100);
    let batch_size = 8;
    let n_batches = params.dim.div_ceil(batch_size);
    let work = MandelWork::<O>::new(&system, &params, batch_size, 1, 1);
    let mut gpu = work.attach(0);
    let mut out = Vec::new();
    assert_no_copies(label, || {
        for b in 0..n_batches {
            work.try_gpu_batch(&mut gpu, &b, &mut out)
                .expect("no faults injected");
        }
    });
    assert!(!out.is_empty(), "{label}: the sweep must produce pixels");
}

fn hashsearch_sweep<O: Offload>(label: &str) {
    let system = GpuSystem::new(1, DeviceProps::titan_xp());
    let count = 256usize;
    let cfg = SearchConfig::new(vec![0xA5u8; 64], 0);
    let work = SearchWork::<O>::new(&system, &cfg, 1, 1);
    let mut gpu = work.attach(0);
    let mut out = vec![0u8; count * DIGEST_BYTES];
    let mut next = 0u64;
    assert_no_copies(label, || {
        for index in 0..BATCHES_PER_SWEEP {
            let range = NonceRange {
                index,
                start: next,
                count,
            };
            work.try_gpu_batch(&mut gpu, &range, &mut out)
                .expect("no faults injected");
            next += count as u64;
        }
    });
    assert!(
        out.iter().any(|&b| b != 0),
        "{label}: digests must land in the output buffer"
    );
}

#[test]
fn steady_state_nonce_search_copies_nothing() {
    // Hash search: the device digest buffer is grow-only and the
    // read-back lands in the stable (re-registered) host vector, so a
    // fixed range size keeps the steady state allocator- and memcpy-free
    // on both front ends.
    hashsearch_sweep::<CudaOffload>("hashsearch/cuda");
    hashsearch_sweep::<OclOffload>("hashsearch/opencl");
}

#[test]
fn steady_state_batches_copy_nothing() {
    // Mandelbrot batches: the recycled pixel buffer is pinned per use,
    // so the device readback lands in it directly on both front ends.
    mandel_sweep::<CudaOffload>("mandel/cuda");
    mandel_sweep::<OclOffload>("mandel/opencl");

    // Dedup hash stage: batch data and the starts scratch are pinned per
    // use, digests live in a pinned pool — upload, launch, readback all
    // run without touching a staging buffer.
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
        .take((WARMUP + SWEEPS) * BATCHES_PER_SWEEP)
        .collect();
    assert_no_copies("dedup/hash", || {
        for _ in 0..BATCHES_PER_SWEEP {
            let batch = supply.pop_front().expect("pre-cloned supply");
            let (digests, resident) = driver.process(&mut gpu, &batch);
            assert!(resident.is_some(), "no faults injected: must stay on GPU");
            assert_eq!(digests.len(), batch.block_count());
        }
    });
}
