//! Hash search — the third GPU application, driven end-to-end through
//! the Workload SDK: a SHA-1 nonce sweep whose header is hashed once on
//! the CPU (midstate), fanned over the simulated devices one thread per
//! nonce, scored by leading-zero bits, and reduced to a deterministic
//! top-k by the ordered sink.
//!
//! Every CUDA/OpenCL × 1/2-GPU combination must produce bit-identical
//! rankings to the sequential host reference — the SDK's recovery ladder
//! makes that hold even under injected device faults.
//!
//! Usage: `cargo run --release -p bench --bin hashsearch
//!         [--nonces 262144] [--range 4096] [--top 8] [--workers 4]`

#![forbid(unsafe_code)]

use bench::{arg, instrumented_run, Report};
use gpusim::{CudaOffload, DeviceProps, GpuSystem, OclOffload};
use hashsearch::{search, search_cpu, SearchConfig};
use telemetry::Recorder;

fn main() {
    let total: u64 = arg("--nonces", 262_144);
    let range: usize = arg("--range", 4_096);
    let k: usize = arg("--top", 8);
    let workers: usize = arg("--workers", 4);

    let mut cfg = SearchConfig::new(vec![0xA5u8; 64], total);
    cfg.range = range;
    cfg.k = k;
    println!(
        "Hash search — SHA-1 nonce sweep through the Workload SDK \
         ({total} nonces, ranges of {range}, top-{k}, {workers} workers)"
    );

    let reference = search_cpu(&cfg);

    let mut report = Report::new(
        "hash search — device compute time and agreement per version",
        vec!["version", "gpus", "compute busy", "matches cpu"],
    );
    for gpus in [1usize, 2] {
        for api in ["cuda", "opencl"] {
            let sys = GpuSystem::new(2, DeviceProps::titan_xp());
            let rec = Recorder::enabled();
            let got = match api {
                "cuda" => search::<CudaOffload>(&sys, &cfg, workers, gpus, rec.clone()),
                _ => search::<OclOffload>(&sys, &cfg, workers, gpus, rec.clone()),
            };
            let busy: u64 = rec
                .report()
                .gpu
                .iter()
                .filter(|s| s.engine == "compute")
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            report.row(vec![
                api.into(),
                gpus.to_string(),
                format!("{:.3} ms", busy as f64 / 1e6),
                if got == reference { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    report.emit("hashsearch");

    let mut topk = Report::new(
        "top candidates (identical across every version)",
        vec!["rank", "nonce", "score (leading zero bits)", "digest"],
    );
    for (i, c) in reference.iter().enumerate() {
        topk.row(vec![
            (i + 1).to_string(),
            c.nonce.to_string(),
            c.score.to_string(),
            c.digest.to_hex(),
        ]);
    }
    topk.emit("hashsearch_topk");

    // An instrumented run for the merged stage/engine timeline.
    instrumented_run("hashsearch", |tsys, trec| {
        let tgot = search::<CudaOffload>(tsys, &cfg, workers, 2, trec.clone());
        assert_eq!(
            tgot, reference,
            "instrumented run: ranking differs from the host reference"
        );
    });
}
