//! Workload SDK conformance suite: every in-repo [`Workload`]
//! implementation — Mandelbrot ([`MandelWork`]), the Dedup hash stage
//! ([`HashWork`]), the hash-search nonce sweep ([`SearchWork`]) and
//! `spar-gpu`'s generated map stage ([`GpuMap::on`]) — is held to the same
//! contract through the generic [`WorkloadDriver`]:
//!
//! 1. the GPU path is bit-identical to the host path;
//! 2. OOM halving re-splits correctly: device-memory faults resolve via
//!    sub-ranges that recombine into the exact reference output, with no
//!    CPU fallback;
//! 3. under broad fault injection the ladder records at least one retry
//!    and at least one CPU fallback — and the output is still exact;
//! 4. the steady-state hot path allocates nothing per batch after warmup.
//!
//! Same counting-allocator harness as `steady_state_no_alloc.rs`; all
//! tests in this binary serialize on one lock so no concurrent test
//! thread pollutes the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use hetstream::dedup::backend::{BackendCtx, HashWork};
use hetstream::dedup::{make_batches, Batch, LzssConfig, RabinParams};
use hetstream::gpusim::{CudaOffload, DeviceProps, FaultClass, FaultSpec, GpuSystem, OffloadApi};
use hetstream::hashsearch::{NonceRange, SearchConfig, SearchWork};
use hetstream::mandel::hybrid::MandelWork;
use hetstream::mandel::FractalParams;
use hetstream::prelude::{Recorder, Workload, WorkloadDriver};
use hetstream::spar_gpu::GpuMap;
use hetstream::telemetry::{FaultKind, TelemetryReport};

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

/// Serializes the tests of this binary (the allocation counter is global).
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Fixtures: one (workload, items) pair per in-repo Workload impl, all on
// the CUDA front end (the front ends share the data path; `dedup` and
// `hashsearch` cross-check OpenCL in their own suites).
// ---------------------------------------------------------------------

fn mandel_fixture(sys: &Arc<GpuSystem>) -> (MandelWork<CudaOffload>, Vec<usize>) {
    let params = FractalParams::view(32, 100);
    let batch_size = 8;
    let n_batches = params.dim.div_ceil(batch_size);
    let work = MandelWork::new(sys, &params, batch_size, 1, 2);
    (work, (0..n_batches).collect())
}

fn hash_fixture(sys: &Arc<GpuSystem>) -> (HashWork<CudaOffload>, Vec<Batch>) {
    let ctx = BackendCtx::gpu(Arc::clone(sys), 1, true, LzssConfig::default());
    let input: Vec<u8> = (0..48 * 1024u32).map(|i| (i % 251) as u8).collect();
    let items = make_batches(&input, 16 * 1024, &RabinParams::default());
    assert!(items.len() >= 2, "fixture must span several batches");
    (HashWork::new(&ctx), items)
}

fn search_cfg() -> SearchConfig {
    let mut cfg = SearchConfig::new(vec![0x5Au8; 64], 1024);
    cfg.range = 128;
    cfg
}

fn search_fixture(sys: &Arc<GpuSystem>) -> (SearchWork<CudaOffload>, Vec<NonceRange>) {
    let cfg = search_cfg();
    let items = cfg.ranges();
    (SearchWork::new(sys, &cfg, 1, 2), items)
}

/// The generated map stage's lane function. It reads a neighbour, so a
/// halved element range is only right if the whole item went up with it.
type Lane = fn(usize, &[f64]) -> f64;

fn map_fixture(sys: &Arc<GpuSystem>) -> (GpuMap<f64, f64, Lane>, Vec<Vec<f64>>) {
    let lane: Lane = |i, xs| xs[i] * 1.5 + xs[(i + 1) % xs.len()];
    let items = (0..6)
        .map(|k| (0..512).map(|i| (k * 1000 + i) as f64).collect())
        .collect();
    let map = GpuMap::new(Arc::clone(sys), OffloadApi::Cuda, 1, lane).units_per_lane(4);
    (map, items)
}

// ---------------------------------------------------------------------
// Generic contract drivers.
// ---------------------------------------------------------------------

/// Process every item down the device path and the host path; compare
/// through `digest` (a projection to an owned, comparable form).
fn assert_paths_agree<W, T>(work: W, items: &[W::Item], digest: impl Fn(&W::Batch) -> T)
where
    W: Workload,
    T: PartialEq + std::fmt::Debug,
{
    let driver = WorkloadDriver::new(work);
    let mut gpu = driver.attach(0);
    for item in items {
        let got = digest(&driver.process(&mut gpu, item));
        let want = digest(&driver.process_host(item));
        assert_eq!(got, want, "{}", driver.workload().describe(item));
    }
}

/// Run every item through a recording driver on a system carrying
/// `spec`, require the outputs (compared through `digest`) to equal the
/// host path's, and return the report for the caller's fault-count checks.
fn assert_exact_under<W, T>(
    label: &str,
    work: W,
    items: &[W::Item],
    sys: &GpuSystem,
    spec: &FaultSpec,
    digest: impl Fn(&W::Batch) -> T,
) -> TelemetryReport
where
    W: Workload,
    T: PartialEq + std::fmt::Debug,
{
    let probe = WorkloadDriver::new(work.clone());
    let reference: Vec<T> = items
        .iter()
        .map(|i| digest(&probe.process_host(i)))
        .collect();
    sys.inject_faults(spec);
    let rec = Recorder::enabled();
    let driver = WorkloadDriver::new(work).with_recorder(rec.clone());
    let mut gpu = driver.attach(0);
    let got: Vec<T> = items
        .iter()
        .map(|item| digest(&driver.process(&mut gpu, item)))
        .collect();
    assert_eq!(got, reference, "{label}: faulty run must stay exact");
    rec.report()
}

/// A spec that only starves device memory: the first `n` device
/// allocations fail, everything else is healthy. Exercises the halving
/// rung of the ladder in isolation.
fn oom_only(seed: u64, n: u64) -> FaultSpec {
    FaultSpec {
        seed,
        oom: FaultClass::first(n),
        kernel: FaultClass::OFF,
        slow: FaultClass::OFF,
        slow_factor: 1.0,
    }
}

const WARMUP: usize = 3;
const ATTEMPTS: usize = 5;

/// Warm up, then require one fully allocation-free sweep (retrying a few
/// times: the test-harness monitor thread occasionally allocates mid-run,
/// but a *deterministic* per-batch allocation can never produce a clean
/// attempt).
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

// ---------------------------------------------------------------------
// 1. Bit-identical CPU vs GPU.
// ---------------------------------------------------------------------

#[test]
fn gpu_path_is_bit_identical_to_host_path() {
    let _guard = serial();

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = mandel_fixture(&sys);
    assert_paths_agree(work, &items, |pixels| pixels.clone());

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = hash_fixture(&sys);
    assert_paths_agree(work, &items, |(digests, _)| digests.to_vec());

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = search_fixture(&sys);
    assert_paths_agree(work, &items, |digests| digests.clone());

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (map, items) = map_fixture(&sys);
    assert_paths_agree(map.on::<CudaOffload>(), &items, |scores| scores.clone());
}

// ---------------------------------------------------------------------
// 2. OOM halving re-splits correctly (exact output, no CPU fallback).
// ---------------------------------------------------------------------

#[test]
fn oom_halving_resplits_into_the_exact_reference() {
    let _guard = serial();
    let spec = oom_only(11, 2);
    let halved = |label: &str, rep: TelemetryReport| {
        assert!(
            rep.faults_of(FaultKind::DeviceOom).count() >= 1,
            "{label}: the scripted OOM must have fired"
        );
        assert_eq!(
            rep.fallback_count(),
            0,
            "{label}: OOM alone must not fall back"
        );
    };

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = mandel_fixture(&sys);
    let rep = assert_exact_under("mandel", work, &items, &sys, &spec, |p| p.clone());
    halved("mandel", rep);

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = hash_fixture(&sys);
    let rep = assert_exact_under("dedup hash", work, &items, &sys, &spec, |(d, _)| d.to_vec());
    halved("dedup hash", rep);

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = search_fixture(&sys);
    let rep = assert_exact_under("hashsearch", work, &items, &sys, &spec, |d| d.clone());
    halved("hashsearch", rep);

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (map, items) = map_fixture(&sys);
    let work = map.on::<CudaOffload>();
    let rep = assert_exact_under("gpu map", work, &items, &sys, &spec, |s| s.clone());
    halved("gpu map", rep);
}

// ---------------------------------------------------------------------
// 3. Retry and CPU fallback both fire under fault injection — and the
//    output is still exact.
// ---------------------------------------------------------------------

#[test]
fn faulty_devices_retry_then_fall_back_bit_identically() {
    let _guard = serial();
    // The demo spec (first 2 allocations + first 3 launches fail) walks
    // a serial single-device run down the whole ladder: OOM → halving →
    // launch-retry exhaustion → CPU fallback.
    let spec = FaultSpec::demo(7);
    let walked = |label: &str, rep: TelemetryReport| {
        assert!(
            rep.retry_count() >= 1,
            "{label}: expected at least one retry"
        );
        assert!(
            rep.fallback_count() >= 1,
            "{label}: expected at least one CPU fallback"
        );
    };

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = mandel_fixture(&sys);
    let rep = assert_exact_under("mandel", work, &items, &sys, &spec, |p| p.clone());
    walked("mandel", rep);

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = hash_fixture(&sys);
    let rep = assert_exact_under("dedup hash", work, &items, &sys, &spec, |(d, _)| d.to_vec());
    walked("dedup hash", rep);

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = search_fixture(&sys);
    let rep = assert_exact_under("hashsearch", work, &items, &sys, &spec, |d| d.clone());
    walked("hashsearch", rep);

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (map, items) = map_fixture(&sys);
    let work = map.on::<CudaOffload>();
    let rep = assert_exact_under("gpu map", work, &items, &sys, &spec, |s| s.clone());
    walked("gpu map", rep);
}

// ---------------------------------------------------------------------
// 4. Zero allocations per batch once warm.
// ---------------------------------------------------------------------

#[test]
fn steady_state_processing_does_not_allocate() {
    let _guard = serial();

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = mandel_fixture(&sys);
    let recycle = work.recycler().clone();
    let driver = WorkloadDriver::new(work);
    let mut gpu = driver.attach(0);
    assert_steady_state("mandel", || {
        for item in &items {
            recycle.give(driver.process(&mut gpu, item));
        }
    });

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = hash_fixture(&sys);
    let driver = WorkloadDriver::new(work);
    let mut gpu = driver.attach(0);
    assert_steady_state("dedup hash", || {
        for item in &items {
            let (digests, resident) = driver.process(&mut gpu, item);
            assert_eq!(digests.len(), item.block_count());
            assert!(resident.is_some(), "no faults injected: must stay on GPU");
            // Dropping returns the digest buffer to the pool and the
            // residency to the device allocation cache.
        }
    });

    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (work, items) = search_fixture(&sys);
    let recycle = work.recycler().clone();
    let driver = WorkloadDriver::new(work);
    let mut gpu = driver.attach(0);
    assert_steady_state("hashsearch", || {
        for item in &items {
            recycle.give(driver.process(&mut gpu, item));
        }
    });

    // Every item has the same length, so both device buffers settle.
    let sys = GpuSystem::new(1, DeviceProps::titan_xp());
    let (map, items) = map_fixture(&sys);
    let recycle = map.recycler().clone();
    let driver = WorkloadDriver::new(map.on::<CudaOffload>());
    let mut gpu = driver.attach(0);
    assert_steady_state("gpu map", || {
        for item in &items {
            recycle.give(driver.process(&mut gpu, item));
        }
    });
}
