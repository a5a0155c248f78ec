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
//! Usage: `cargo run --release -p bench --bin fig4 [--dim 600] [--niter 2000]`
//!
//! Pass `--tiny` for a fast smoke run (reduced scale; shape checks that
//! only hold at figure scale are skipped, telemetry is still emitted).
//! Pass `--inject-faults <seed>` to arm deterministic GPU fault injection
//! on the instrumented runs: output must stay bit-exact via retry + CPU
//! fallback, and the recorded fault events are printed and asserted.
//!
//! Pass `--source file` (with `--shards N`) to feed the FastFlow+OpenCL
//! combination from a segmented file log instead of the in-process
//! generator, exactly-once like fig1's — but sharded **per key**
//! ([`bench::shard_of`] over the row-span key) rather than round-robin,
//! so all records of one key ride one shard's FIFO. Row spans land in
//! pinned pooled buffers (copy ledger asserted at 0), walk the full
//! recovery-ladder driver, and leave through a durable egress log that a
//! restart resumes without re-emitting.

#![forbid(unsafe_code)]

use std::sync::Arc;

use bench::{
    arg, emit_telemetry, flag, instrumented_run, mandel_ingress_demo, observed_run, secs, shard_of,
    Report, ShapeChecks,
};
use gpusim::{DeviceProps, GpuSystem, OclOffload};
use mandel::core::FractalParams;
use mandel::gpu;
use perfmodel::machine::{CpuModel, CpuRuntime};
use perfmodel::mandelmodel::{self, characterize};
use simtime::SimDuration;
use telemetry::Recorder;

fn main() {
    let tiny = flag("--tiny");
    let dim: usize = arg("--dim", if tiny { 128 } else { 600 });
    let niter: u32 = arg("--niter", if tiny { 300 } else { 2_000 });
    let batch: usize = arg("--batch", 32);
    let params = FractalParams::view(dim, niter);
    println!(
        "Fig. 4 reproduction — Mandelbrot across programming models \
         ({dim}x{dim}, niter={niter}; CPU workers 19, GPU-version workers 10)"
    );

    // `--source file` turns the run into the sharded-ingress demo; the
    // model sweep is not the subject there.
    let source_mode: String = arg("--source", String::new());
    if !source_mode.is_empty() {
        assert_eq!(source_mode, "file", "fig4 supports --source file");
        file_source_demo(&params, batch);
        return;
    }

    let workload = characterize(&params);
    let cpu = CpuModel::default();
    let props = DeviceProps::titan_xp();
    let t_seq = mandelmodel::seq_time(&workload, &cpu);

    let mut report = Report::new(
        "Fig. 4 — execution time and speedup per version",
        vec!["version", "gpus", "modeled time", "speedup"],
    );
    let mut results: Vec<(String, usize, SimDuration)> = Vec::new();
    let add = |results: &mut Vec<(String, usize, SimDuration)>,
               name: String,
               gpus: usize,
               t: SimDuration| {
        results.push((name, gpus, t));
    };

    add(&mut results, "sequential".into(), 0, t_seq);
    for (name, rt) in [
        ("spar", CpuRuntime::Spar),
        ("tbb", CpuRuntime::Tbb),
        ("fastflow", CpuRuntime::FastFlow),
    ] {
        let t = mandelmodel::cpu_pipeline_time(&workload, &cpu, rt, 19);
        add(&mut results, name.into(), 0, t);
    }

    // GPU-only (single host thread, 4x memory spaces), measured on the
    // simulated devices.
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    for gpus in [1usize, 2] {
        let spaces = 4.max(2 * gpus);
        let (_, t_cuda) = gpu::cuda_overlap(&system, &params, batch, spaces, gpus);
        let (_, t_ocl) = gpu::ocl_overlap(&system, &params, batch, spaces, gpus);
        add(&mut results, "cuda".into(), gpus, t_cuda);
        add(&mut results, "opencl".into(), gpus, t_ocl);
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
                // The OpenCL API costs a little more per enqueue; fold a
                // small per-batch penalty into the modeled time.
                let t = if api == "opencl" {
                    let batches = dim.div_ceil(batch) as u64;
                    t + SimDuration::from_micros(12) * batches
                } else {
                    t
                };
                add(&mut results, format!("{name}+{api}"), gpus, t);
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
    instrumented_run(
        "fig4",
        "image bit-identical to the fault-free render",
        |tsys, rec, armed| {
            let (workers, gpus) = if armed { (1, 1) } else { (4, 2) };
            let timg = mandel::hybrid::run_fastflow_gpu::<OclOffload>(
                tsys,
                &tparams,
                workers,
                batch,
                gpus,
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
        },
    );

    if tiny {
        println!("\n(tiny smoke run: figure-scale shape checks skipped)");
        return;
    }

    let get = |name: &str, gpus: usize| -> SimDuration {
        results
            .iter()
            .find(|(n, g, _)| n == name && *g == gpus)
            .unwrap_or_else(|| panic!("missing {name}/{gpus}"))
            .2
    };

    println!("\nShape checks (the paper's qualitative claims):");
    let mut checks = ShapeChecks::new();
    // CPU models land close together.
    let spar = get("spar", 0).as_secs_f64();
    let tbb = get("tbb", 0).as_secs_f64();
    let ff = get("fastflow", 0).as_secs_f64();
    checks.check(
        "SPar / TBB / FastFlow CPU versions within 10% of each other",
        (tbb / spar) < 1.10 && (ff / spar) < 1.05 && (spar / ff) < 1.05,
    );
    // Single GPU: spar+cuda ≈ cuda-only.
    let spar_cuda_1 = get("spar+cuda", 1).as_secs_f64();
    let cuda_1 = get("cuda", 1).as_secs_f64();
    checks.check(
        "on 1 GPU, SPar+CUDA is within 35% of GPU-only CUDA",
        (spar_cuda_1 / cuda_1) < 1.35 && (cuda_1 / spar_cuda_1) < 1.35,
    );
    // Two GPUs: combined versions beat the single-threaded GPU-only ones.
    let spar_cuda_2 = get("spar+cuda", 2).as_secs_f64();
    let cuda_2 = get("cuda", 2).as_secs_f64();
    checks.check(
        "on 2 GPUs, SPar+CUDA beats single-threaded CUDA (host thread saturates)",
        spar_cuda_2 < cuda_2,
    );
    // All GPU versions beat all CPU versions.
    checks.check("every GPU version beats every CPU-only version", {
        let worst_gpu = results
            .iter()
            .filter(|(_, g, _)| *g > 0)
            .map(|(_, _, t)| t.as_secs_f64())
            .fold(0.0f64, f64::max);
        let best_cpu = [spar, tbb, ff].into_iter().fold(f64::MAX, f64::min);
        worst_gpu < best_cpu
    });
    // 2 GPUs scale.
    checks.check(
        "2 GPUs beat 1 GPU for the combined versions",
        spar_cuda_2 < spar_cuda_1,
    );
    checks.finish();
}

// ---------------------------------------------------------------------
// Sharded ingress demo (`--source file`)
// ---------------------------------------------------------------------

/// The durable path for fig4's combination (FastFlow + OpenCL): same
/// exactly-once contract as fig1's, but records are sharded **per key**
/// — `shard_of(y0)` — so one row span's key always rides one shard.
fn file_source_demo(params: &FractalParams, batch: usize) {
    let (seq_img, _) = mandel::cpu::run_sequential(params);
    observed_run("fig4", |rec| {
        mandel_ingress_demo::<OclOffload>("fig4", rec, params, &seq_img, batch, |y0, shards| {
            shard_of(u64::from(y0), shards)
        });
    });
}
