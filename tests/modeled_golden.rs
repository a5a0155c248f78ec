//! Modeled-clock golden: integer-nanosecond constants of the gpusim DES,
//! so a host-side change that leaks into the modeled clock fails
//! `cargo test -q` instead of only showing in a traced benchmark run.
//!
//! The system keeps two clocks apart (ROADMAP needle 1): wall-clock host
//! cost, which kernel bodies are free to cut, and modeled device time,
//! which depends only on bytes moved, launch geometry and the per-lane
//! work units the kernels meter. Every value below was captured on the
//! commit before the simulated kernels went span-wise; none may move
//! unless a change deliberately re-calibrates the timing model, in which
//! case it re-captures them and says so.

use std::sync::Arc;

use hetstream::dedup::{self, BackendCtx, DedupConfig, LzssConfig, OffloadBackend, RabinParams};
use hetstream::gpusim::{CudaOffload, DeviceProps, GpuSystem};
use hetstream::hashsearch::{SearchConfig, SearchWork};
use hetstream::mandel::core::FractalParams;
use hetstream::mandel::gpu;
use hetstream::simtime::XorShift64;
use hetstream::workload::WorkloadDriver;

fn titans(n: usize) -> Arc<GpuSystem> {
    GpuSystem::new(n, DeviceProps::titan_xp())
}

/// The paper's Fig. 1 ladder at test scale: Listing 2's batch kernel with
/// synchronous copies, with two pinned memory spaces, and across two GPUs
/// with two spaces each. Odd width on purpose — the last block of every
/// launch carries `cover()` slack lanes.
#[test]
fn fig1_ladder_rungs_are_pinned_to_the_nanosecond() {
    let p = FractalParams::view(125, 500);
    let sys = titans(2);
    let (_, batch32) = gpu::cuda_batch(&sys, &p, 32);
    let (_, overlap2x) = gpu::cuda_overlap(&sys, &p, 32, 2, 1);
    let (_, two_gpu2x) = gpu::cuda_overlap(&sys, &p, 32, 4, 2);
    assert_eq!(
        (
            batch32.as_nanos(),
            overlap2x.as_nanos(),
            two_gpu2x.as_nanos()
        ),
        (662_490, 635_723, 340_432)
    );
}

/// One dedup batch end to end on the offload backend: `Sha1Kernel`, the
/// dup check, `FindMatchKernel`, and every copy between them.
#[test]
fn one_dedup_batch_total_busy_is_pinned() {
    // Half repeating text, half xorshift noise: blocks that compress,
    // blocks that do not, and duplicate blocks the compress stage skips.
    let mut input: Vec<u8> = b"stream processing on multi-cores with GPUs. "
        .iter()
        .cycle()
        .take(12 * 1024)
        .copied()
        .collect();
    let mut noise = vec![0u8; 12 * 1024];
    XorShift64::new(0x9E37_79B9_7F4A_7C15).fill_bytes(&mut noise);
    input.extend(noise);
    let cfg = DedupConfig {
        batch_size: 32 * 1024,
        rabin: RabinParams::default(),
        lzss: LzssConfig::default(),
    };
    assert_eq!(
        dedup::make_batches(&input, cfg.batch_size, &cfg.rabin).len(),
        1
    );
    let sys = titans(1);
    let ctx = BackendCtx::gpu(Arc::clone(&sys), 1, true, cfg.lzss);
    let archive = dedup::run_pipeline::<OffloadBackend<CudaOffload>>(ctx, input.clone(), &cfg, 1);
    assert_eq!(archive, dedup::run_sequential(&input, &cfg));
    assert_eq!(sys.device(0).stats().total_busy().as_nanos(), 1_214_524);
}

/// One hashsearch range whose nonce count is neither a multiple of the
/// 8-lane SIMD group nor of the block size.
#[test]
fn one_hashsearch_batch_total_busy_is_pinned() {
    let mut cfg = SearchConfig::new(vec![0x5Au8; 64], 1000);
    cfg.range = 1000;
    let sys = titans(1);
    let items = cfg.ranges();
    assert_eq!(items.len(), 1);
    let driver = WorkloadDriver::new(SearchWork::<CudaOffload>::new(&sys, &cfg, 1, 2));
    let mut gpu = driver.attach(0);
    let digests = driver.process(&mut gpu, &items[0]);
    assert_eq!(digests, driver.process_host(&items[0]));
    assert_eq!(sys.device(0).stats().total_busy().as_nanos(), 21_598);
}
