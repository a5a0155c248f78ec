//! Fig. 1 — "Optimizing Mandelbrot Streaming application": the full
//! optimization ladder, sequential → CPU 20 threads → naive GPU → 2-D grid
//! → batched → copy/compute overlap (2×, 4× memory) → multi-GPU.
//!
//! Every GPU configuration *functionally renders* the image on the
//! simulated devices (bit-checked against the sequential render) and its
//! time is the modeled makespan on the Titan XP timeline; sequential and
//! CPU-pipeline times come from the calibrated testbed model. The paper's
//! measured numbers are printed alongside for comparison.
//!
//! Usage: `cargo run --release -p bench --bin fig1 [--dim 600] [--niter 2000]
//!         [--batch 32]`
//!
//! Pass `--paper-model 1` to additionally print the model's *paper-scale*
//! prediction (absolute seconds at 2000² × 200 000 iterations, from a
//! `--paper-sample`² (default 200²) full-depth sample — takes a couple of
//! minutes).

#![forbid(unsafe_code)]

use std::sync::Arc;

use bench::{arg, instrumented_run, secs, Report};
use gpusim::{CudaOffload, DeviceProps, GpuSystem};
use mandel::core::FractalParams;
use mandel::cpu::run_sequential;
use mandel::gpu;
use perfmodel::machine::{CpuModel, CpuRuntime};
use perfmodel::mandelmodel::{self, characterize};
use simtime::SimDuration;

/// A GPU driver entry point from `mandel::gpu`.
type GpuDriver<'a> = &'a dyn Fn(&Arc<GpuSystem>, &FractalParams) -> (mandel::Image, SimDuration);

/// The paper's measured results for each ladder rung (time s, speedup ×).
const PAPER: &[(&str, f64, f64)] = &[
    ("sequential", 400.0, 1.0),
    ("CPU 20 threads", 23.5, 17.0),
    ("GPU naive 1D", 129.0, 3.1),
    ("GPU 2D grid", 250.0, 1.6),
    ("GPU batch 32", 8.9, 45.0),
    ("GPU batch + 2x mem", 5.98, 67.0),
    ("GPU batch + 4x mem", 5.4, 74.0),
    ("2 GPUs, 1x mem each", 4.48, 89.0),
    ("2 GPUs, 2x mem each", 3.02, 132.0),
];

fn main() {
    let dim: usize = arg("--dim", 600);
    let niter: u32 = arg("--niter", 2_000);
    let batch: usize = arg("--batch", 32);
    let paper_model: u32 = arg("--paper-model", 0);
    let sample: usize = arg("--paper-sample", 200);
    let params = FractalParams::view(dim, niter);
    println!(
        "Fig. 1 reproduction — Mandelbrot Streaming {dim}x{dim}, niter={niter} \
         (paper scale: 2000x2000, niter=200000; reduced per DESIGN.md §2)"
    );

    // Reference render + workload characterization.
    let (seq_img, _) = run_sequential(&params);
    let workload = characterize(&params);
    let cpu = CpuModel::default();
    let t_seq = mandelmodel::seq_time(&workload, &cpu);
    let t_cpu20 = mandelmodel::cpu_pipeline_time(&workload, &cpu, CpuRuntime::Spar, 19);

    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    let mut results: Vec<(&str, SimDuration)> =
        vec![("sequential", t_seq), ("CPU 20 threads", t_cpu20)];

    let mut run_gpu = |name: &'static str, f: GpuDriver<'_>| {
        let (img, t) = f(&system, &params);
        assert_eq!(
            img.digest(),
            seq_img.digest(),
            "{name}: GPU image differs from sequential render"
        );
        results.push((name, t));
    };

    run_gpu("GPU naive 1D", &gpu::cuda_per_line);
    run_gpu("GPU 2D grid", &gpu::cuda_2d);
    run_gpu("GPU batch 32", &|s, p| gpu::cuda_batch(s, p, batch));
    run_gpu("GPU batch + 2x mem", &|s, p| {
        gpu::cuda_overlap(s, p, batch, 2, 1)
    });
    run_gpu("GPU batch + 4x mem", &|s, p| {
        gpu::cuda_overlap(s, p, batch, 4, 1)
    });
    run_gpu("2 GPUs, 1x mem each", &|s, p| {
        gpu::cuda_overlap(s, p, batch, 2, 2)
    });
    run_gpu("2 GPUs, 2x mem each", &|s, p| {
        gpu::cuda_overlap(s, p, batch, 4, 2)
    });

    // OpenCL spot checks (the paper reports CUDA ≈ OpenCL on every rung).
    let (ocl_img, t_ocl_batch) = gpu::ocl_batch(&system, &params, batch);
    assert_eq!(ocl_img.digest(), seq_img.digest());

    let mut report = Report::new(
        format!("Fig. 1 — Mandelbrot optimization ladder ({dim}x{dim}, niter={niter})"),
        vec![
            "configuration",
            "modeled time",
            "speedup",
            "paper time",
            "paper speedup",
        ],
    );
    for (i, (name, t)) in results.iter().enumerate() {
        let speedup = t_seq.as_secs_f64() / t.as_secs_f64();
        let (pname, pt, ps) = PAPER[i];
        assert_eq!(*name, pname);
        report.row(vec![
            name.to_string(),
            secs(*t),
            format!("{speedup:.1}x"),
            format!("{pt}s"),
            format!("{ps}x"),
        ]);
    }
    report.row(vec![
        "OpenCL batch 32 (vs CUDA)".into(),
        secs(t_ocl_batch),
        format!("{:.1}x", t_seq.as_secs_f64() / t_ocl_batch.as_secs_f64()),
        "9.1s".into(),
        "44x".into(),
    ]);
    report.emit("fig1");

    // A real instrumented run of the fastest rung's pipeline shape — SPar
    // whose replicated stage drives both GPUs through the unified Offload
    // surface — recorded stage-by-stage and merged with the device traces.
    instrumented_run("fig1", |tsys, rec| {
        let timg =
            mandel::hybrid::run_spar_gpu::<CudaOffload>(tsys, &params, 4, batch, 2, rec.clone());
        assert_eq!(
            timg.digest(),
            seq_img.digest(),
            "instrumented run: image differs from sequential render"
        );
    });

    if paper_model == 1 {
        println!("\ncharacterizing at paper depth (sample {sample}x{sample} @ 200k iters)...");
        let rungs = perfmodel::paper::predict_fig1(sample, &cpu, &DeviceProps::titan_xp());
        let mut pr = Report::new(
            "Fig. 1 at PAPER scale — model prediction vs measurement",
            vec!["configuration", "predicted", "paper measured"],
        );
        for ((name, t), (pname, pt, _)) in rungs.iter().zip(PAPER) {
            assert_eq!(name, pname);
            pr.row(vec![name.to_string(), secs(*t), format!("{pt}s")]);
        }
        pr.emit("fig1_paper_scale");
    }
}
