//! Streaming analytics — the kind of workload the paper's introduction
//! motivates: an infinite-ish stream of log records, windowed into
//! micro-batches, scored on the GPU, and aggregated in stream order.
//!
//! Demonstrates the `spar-gpu` extension (the paper's §VI future work):
//! the GPU stage is *generated* from one lane function; the same code runs
//! under the CUDA-like or OpenCL-like back end.
//!
//! ```text
//! cargo run --release --example log_analytics -- [cuda|opencl] [windows]
//! ```

use std::sync::Arc;

use hetstream::gpusim::DeviceProps;
use hetstream::prelude::*;
use hetstream::spar_gpu::{GpuMap, SparGpuExt};

/// One parsed log record: (response-time ms, status class).
type Record = (f32, u32);

/// Deterministic synthetic log source: mostly fast 2xx responses with
/// occasional slow 5xx bursts.
fn synth_window(window: usize, len: usize) -> Vec<Record> {
    (0..len)
        .map(|i| {
            let x = (window * 7919 + i * 2654435761) % 1000;
            if x < 25 {
                (250.0 + (x as f32) * 20.0, 500) // slow burst / errors
            } else {
                (5.0 + (x % 40) as f32, 200)
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let api = match args.get(1).map(String::as_str).unwrap_or("cuda") {
        "opencl" => OffloadApi::OpenCl,
        _ => OffloadApi::Cuda,
    };
    let windows: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);
    let window_len = 4096;

    let system = GpuSystem::new(2, DeviceProps::titan_xp());

    // The generated GPU stage: an anomaly score per record. One lane
    // function; host code for both APIs comes from `spar-gpu`.
    let scorer = GpuMap::new(Arc::clone(&system), api, 2, |i, records: &[Record]| {
        let (latency, status) = records[i];
        let latency_score = (latency / 50.0).min(10.0);
        let status_score = if status >= 500 { 5.0 } else { 0.0 };
        latency_score + status_score
    })
    .units_per_lane(8);
    // Spent score vectors go back to the stage instead of the allocator.
    let spent = scorer.recycler().clone();

    let mut alerts = 0usize;
    let mut processed = 0usize;
    ToStream::new()
        .ordered(true)
        .source_iter((0..windows).map(move |w| synth_window(w, window_len)))
        .stage_gpu_map(3, scorer)
        .stage(2, move |scores: Vec<f32>| {
            // CPU stage: window aggregate.
            let n_anom = scores.iter().filter(|&&s| s > 5.0).count();
            let mean = scores.iter().sum::<f32>() / scores.len() as f32;
            let len = scores.len();
            spent.give(scores);
            (n_anom, mean, len)
        })
        .last_stage(|(n_anom, mean, len): (usize, f32, usize)| {
            processed += len;
            if n_anom > len / 100 {
                alerts += 1;
            }
            let _ = mean;
        });

    let stats0 = system.device(0).stats();
    println!(
        "processed {processed} records in {windows} windows under the {} back end",
        match api {
            OffloadApi::Cuda => "CUDA",
            OffloadApi::OpenCl => "OpenCL",
        }
    );
    println!(
        "alerts on {alerts} windows; device 0 ran {} generated kernels ({} B H2D)",
        stats0.kernels, stats0.h2d_bytes
    );
    assert!(processed == windows * window_len);
    assert!(alerts > 0, "the synthetic bursts must trip the alert");
}
