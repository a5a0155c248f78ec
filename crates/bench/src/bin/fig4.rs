//! Fig. 4 — "Mandelbrot results": every programming model and combination
//! (sequential; SPar/TBB/FastFlow CPU-only; CUDA/OpenCL GPU-only; each CPU
//! model combined with each GPU API) on 1 and 2 GPUs.
//!
//! CPU-only and combined versions are timed on the testbed queueing model
//! (worker capacity, runtime overheads, per-device engine contention);
//! GPU-only versions are measured on the simulated devices. Configurations
//! follow §V-A: 19 workers for CPU-only, 10 workers for combined versions,
//! TBB tokens 38 (CPU) / 50 (GPU), GPU-only with 4× memory spaces.
//!
//! Usage: `cargo run --release -p bench --bin fig4 [--dim 600] [--niter 2000]
//!         [--batch 32]`

#![forbid(unsafe_code)]

use std::sync::Arc;

use bench::{arg, emit_telemetry, instrumented_run, secs, Report};
use gpusim::{DeviceProps, GpuSystem, OclOffload};
use mandel::core::FractalParams;
use mandel::gpu;
use perfmodel::machine::{CpuModel, CpuRuntime, OPENCL_ENQUEUE_EXTRA};
use perfmodel::mandelmodel::{self, characterize};
use simtime::SimDuration;
use telemetry::Recorder;

fn main() {
    let dim: usize = arg("--dim", 600);
    let niter: u32 = arg("--niter", 2_000);
    let batch: usize = arg("--batch", 32);
    let params = FractalParams::view(dim, niter);
    println!(
        "Fig. 4 reproduction — Mandelbrot across programming models \
         ({dim}x{dim}, niter={niter}; CPU workers 19, GPU-version workers 10)"
    );

    let workload = characterize(&params);
    let cpu = CpuModel::default();
    let props = DeviceProps::titan_xp();
    let t_seq = mandelmodel::seq_time(&workload, &cpu);

    let mut report = Report::new(
        "Fig. 4 — execution time and speedup per version",
        vec!["version", "gpus", "modeled time", "speedup"],
    );
    let mut results: Vec<(String, usize, SimDuration)> = vec![("sequential".into(), 0, t_seq)];
    for (name, rt) in [
        ("spar", CpuRuntime::Spar),
        ("tbb", CpuRuntime::Tbb),
        ("fastflow", CpuRuntime::FastFlow),
    ] {
        let t = mandelmodel::cpu_pipeline_time(&workload, &cpu, rt, 19);
        results.push((name.into(), 0, t));
    }

    // GPU-only (single host thread, 4x memory spaces), measured on the
    // simulated devices.
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    for gpus in [1usize, 2] {
        let spaces = 4.max(2 * gpus);
        let (_, t_cuda) = gpu::cuda_overlap(&system, &params, batch, spaces, gpus);
        let (_, t_ocl) = gpu::ocl_overlap(&system, &params, batch, spaces, gpus);
        results.push(("cuda".into(), gpus, t_cuda));
        results.push(("opencl".into(), gpus, t_ocl));
    }

    // Combined versions: 10 workers offloading batches.
    for (name, rt) in [
        ("spar", CpuRuntime::Spar),
        ("tbb", CpuRuntime::Tbb),
        ("fastflow", CpuRuntime::FastFlow),
    ] {
        for api in ["cuda", "opencl"] {
            for gpus in [1usize, 2] {
                let t =
                    mandelmodel::hybrid_pipeline_time(&workload, &cpu, &props, rt, 10, batch, gpus);
                // The OpenCL API costs a little more per enqueue; fold its
                // per-batch penalty into the modeled time.
                let t = if api == "opencl" {
                    let batches = dim.div_ceil(batch) as u64;
                    t + OPENCL_ENQUEUE_EXTRA * batches
                } else {
                    t
                };
                results.push((format!("{name}+{api}"), gpus, t));
            }
        }
    }

    for (name, gpus, t) in &results {
        report.row(vec![
            name.clone(),
            if *gpus == 0 {
                "-".into()
            } else {
                gpus.to_string()
            },
            secs(*t),
            format!("{:.1}x", t_seq.as_secs_f64() / t.as_secs_f64()),
        ]);
    }
    report.emit("fig4");

    // A real instrumented combined run — FastFlow + OpenCL here, the
    // models fig1's telemetry (SPar + CUDA) does not cover — with stage
    // metrics and device traces on one merged timeline; then TBB + OpenCL
    // on the same devices under a recorder of its own.
    let tparams = FractalParams::view(dim.min(256), niter.min(500));
    instrumented_run("fig4", |tsys, rec| {
        let timg = mandel::hybrid::run_fastflow_gpu::<OclOffload>(
            tsys,
            &tparams,
            4,
            batch,
            2,
            rec.clone(),
        );
        assert_eq!(
            timg.digest(),
            mandel::cpu::run_sequential(&tparams).0.digest(),
            "instrumented run: image differs from sequential render"
        );
        let pool = Arc::new(tbbx::TaskPool::new(4));
        let trec = Recorder::enabled();
        let _ = mandel::hybrid::run_tbb_gpu::<OclOffload>(
            tsys,
            &tparams,
            &pool,
            8,
            batch,
            2,
            trec.clone(),
        );
        emit_telemetry("fig4_tbb", &trec.report());
    });
}
