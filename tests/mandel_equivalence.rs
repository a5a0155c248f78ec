//! Cross-crate integration: every Mandelbrot version — all programming
//! models, all GPU APIs, all optimization rungs — must render the exact
//! same image.

use std::sync::Arc;

use hetstream::gpusim::{DeviceProps, GpuSystem};
use hetstream::mandel::core::FractalParams;
use hetstream::mandel::hybrid::{CudaOffload, OclOffload};
use hetstream::mandel::{cpu, gpu, hybrid};
use hetstream::telemetry::Recorder;

fn params() -> FractalParams {
    FractalParams::view(40, 150)
}

#[test]
fn every_version_renders_the_same_image() {
    let p = params();
    let (reference, _) = cpu::run_sequential(&p);
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    let pool = Arc::new(hetstream::tbbx::TaskPool::new(3));

    let versions: Vec<(&str, hetstream::mandel::Image)> = vec![
        ("spar", cpu::run_spar(&p, 3)),
        ("fastflow", cpu::run_fastflow(&p, 3)),
        ("tbb", cpu::run_tbb(&p, &pool, 6)),
        ("cuda per-line", gpu::cuda_per_line(&system, &p).0),
        ("cuda 2d", gpu::cuda_2d(&system, &p).0),
        ("cuda batch", gpu::cuda_batch(&system, &p, 8).0),
        ("cuda overlap", gpu::cuda_overlap(&system, &p, 8, 4, 2).0),
        ("ocl batch", gpu::ocl_batch(&system, &p, 8).0),
        ("ocl overlap", gpu::ocl_overlap(&system, &p, 8, 4, 2).0),
        (
            "spar+cuda",
            hybrid::run_spar_gpu::<CudaOffload>(&system, &p, 2, 8, 2, Recorder::default()),
        ),
        (
            "spar+opencl",
            hybrid::run_spar_gpu::<OclOffload>(&system, &p, 2, 8, 2, Recorder::default()),
        ),
        (
            "fastflow+cuda",
            hybrid::run_fastflow_gpu::<CudaOffload>(&system, &p, 2, 8, 1, Recorder::default()),
        ),
        (
            "fastflow+opencl",
            hybrid::run_fastflow_gpu::<OclOffload>(&system, &p, 2, 8, 1, Recorder::default()),
        ),
        (
            "tbb+cuda",
            hybrid::run_tbb_gpu::<CudaOffload>(&system, &p, &pool, 4, 8, 2, Recorder::default()),
        ),
        (
            "tbb+opencl",
            hybrid::run_tbb_gpu::<OclOffload>(&system, &p, &pool, 4, 8, 1, Recorder::default()),
        ),
    ];
    for (name, img) in versions {
        assert_eq!(
            img.digest(),
            reference.digest(),
            "version '{name}' diverged"
        );
    }
}

#[test]
fn worker_and_batch_counts_do_not_change_the_image() {
    let p = params();
    let (reference, _) = cpu::run_sequential(&p);
    let system = GpuSystem::new(1, DeviceProps::titan_xp());
    for workers in [1, 2, 5] {
        assert_eq!(cpu::run_spar(&p, workers).digest(), reference.digest());
    }
    for batch in [1, 3, 8, 40 /* > dim */] {
        let img = gpu::cuda_batch(&system, &p, batch).0;
        assert_eq!(img.digest(), reference.digest(), "batch={batch}");
    }
}

#[test]
fn pgm_output_is_wellformed_for_all_models() {
    let p = params();
    let img = cpu::run_spar(&p, 2);
    let pgm = img.to_pgm();
    let header = format!("P5\n{} {}\n255\n", p.dim, p.dim);
    assert!(pgm.starts_with(header.as_bytes()));
    assert_eq!(pgm.len(), header.len() + p.dim * p.dim);
}
