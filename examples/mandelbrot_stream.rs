//! Mandelbrot Streaming (paper §IV-A): render the fractal with a chosen
//! programming model and write a PGM image.
//!
//! ```text
//! cargo run --release --example mandelbrot_stream -- [model] [dim] [niter] [--telemetry]
//! # model ∈ seq | spar | fastflow | tbb | cuda | opencl | spar+cuda | spar+opencl
//! cargo run --release --example mandelbrot_stream -- spar+cuda 400 1500 --telemetry
//! ```
//!
//! Every model produces the identical image (checked against the
//! sequential render); GPU models additionally report the modeled device
//! time on the simulated Titan XPs. With `--telemetry`, the `spar+*`
//! models print the merged CPU-stage / GPU-engine activity report.

use std::sync::Arc;

use hetstream::gpusim::DeviceProps;
use hetstream::prelude::*;
use hetstream::{mandel, tbbx};
use mandel::core::FractalParams;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_on = args.iter().any(|a| a == "--telemetry");
    args.retain(|a| a != "--telemetry");
    let model = args
        .first()
        .map(String::as_str)
        .unwrap_or("spar")
        .to_string();
    let dim: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(300);
    let niter: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let params = FractalParams::view(dim, niter);
    let workers = 4;
    let batch = 16;

    println!("rendering {dim}x{dim} (niter {niter}) with model '{model}'...");
    let (reference, total_iters) = mandel::cpu::run_sequential(&params);
    println!("sequential reference: {total_iters} iterations total");

    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    let image = match model.as_str() {
        "seq" => reference.clone(),
        "spar" => mandel::cpu::run_spar(&params, workers),
        "fastflow" => mandel::cpu::run_fastflow(&params, workers),
        "tbb" => {
            let pool = Arc::new(tbbx::TaskPool::new(workers));
            mandel::cpu::run_tbb(&params, &pool, 2 * workers)
        }
        "cuda" => {
            let (img, t) = mandel::gpu::cuda_overlap(&system, &params, batch, 4, 2);
            println!("modeled GPU time on 2x Titan XP (4x mem spaces): {t}");
            img
        }
        "opencl" => {
            let (img, t) = mandel::gpu::ocl_overlap(&system, &params, batch, 4, 2);
            println!("modeled GPU time on 2x Titan XP (4x mem spaces): {t}");
            img
        }
        "spar+cuda" | "spar+opencl" => {
            // Backend picked by value through the unified Offload surface.
            let api = OffloadApi::parse(&model["spar+".len()..]).expect("known api");
            let rec = if telemetry_on {
                Recorder::enabled()
            } else {
                Recorder::default()
            };
            let img = mandel::hybrid::run_spar_gpu_api(
                api,
                &system,
                &params,
                workers,
                batch,
                2,
                rec.clone(),
            );
            if telemetry_on {
                let report = rec.report();
                print!("{}", report.gantt(72));
                print!("{}", report.latency_table());
            }
            img
        }
        other => {
            eprintln!("unknown model '{other}'");
            std::process::exit(2);
        }
    };

    assert_eq!(
        image.digest(),
        reference.digest(),
        "{model} produced a different image than the sequential version"
    );

    let path = format!("mandelbrot_{}.pgm", model.replace('+', "_"));
    std::fs::write(&path, image.to_pgm()).expect("write image");
    println!("image verified against the sequential render; written to {path}");
}
