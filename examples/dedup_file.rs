//! Dedup (paper §IV-B): deduplicate + compress a file — or a synthetic
//! dataset — through the 5-stage pipeline, verify the archive decompresses
//! to the original, and print compression statistics.
//!
//! ```text
//! cargo run --release --example dedup_file -- [backend] [path|dataset]
//! # backend ∈ cpu | cuda | opencl ; dataset ∈ parsec | linux | silesia
//! cargo run --release --example dedup_file -- cuda linux
//! cargo run --release --example dedup_file -- cpu /etc/hostname
//! ```
//!
//! The backend is the pipeline's context: `BackendCtx::cpu` runs stages 2
//! and 4 on their host rungs, `BackendCtx::gpu` offloads them through the
//! unified `Offload` surface (`run_pipeline::<CudaOffload>` /
//! `run_pipeline::<OclOffload>`), here with the batched kernels;
//! `BackendCtx::gpu(.., batched = false, ..)` selects the paper's first,
//! per-block integration on the same front ends.

use hetstream::dedup::{self, BackendCtx, DedupConfig, LzssConfig, RabinParams};
use hetstream::gpusim::DeviceProps;
use hetstream::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let backend = args.get(1).map(String::as_str).unwrap_or("cpu");
    let source = args.get(2).map(String::as_str).unwrap_or("silesia");

    let data = match source {
        "parsec" => dedup::datasets::parsec_like(512 * 1024, 1).data,
        "linux" => dedup::datasets::linux_like(512 * 1024, 1).data,
        "silesia" => dedup::datasets::silesia_like(512 * 1024, 1).data,
        path => std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }),
    };
    println!("input: {source} ({} bytes), backend: {backend}", data.len());

    let cfg = DedupConfig {
        batch_size: 128 * 1024,
        rabin: RabinParams {
            window: 32,
            mask: (1 << 11) - 1,
            magic: 0x78,
            min_chunk: 512,
            max_chunk: 8 * 1024,
        },
        lzss: LzssConfig {
            window: 512,
            min_coded: 3,
        },
    };
    let workers = 3;

    let archive = match backend {
        "cpu" => dedup::run_pipeline::<CudaOffload>(
            BackendCtx::cpu(cfg.lzss),
            data.clone(),
            &cfg,
            workers,
        ),
        "cuda" => {
            let system = GpuSystem::new(2, DeviceProps::titan_xp());
            let ctx = BackendCtx::gpu(system, 2, true, cfg.lzss);
            dedup::run_pipeline::<CudaOffload>(ctx, data.clone(), &cfg, workers)
        }
        "opencl" => {
            let system = GpuSystem::new(2, DeviceProps::titan_xp());
            let ctx = BackendCtx::gpu(system, 2, true, cfg.lzss);
            dedup::run_pipeline::<OclOffload>(ctx, data.clone(), &cfg, workers)
        }
        other => {
            eprintln!("unknown backend '{other}' (use cpu | cuda | opencl)");
            std::process::exit(2);
        }
    };

    // End-to-end verification: the archive must reproduce the input.
    let restored = archive.decompress().expect("archive must decode");
    assert_eq!(restored, data, "decompressed output differs from the input");

    let stats = dedup::ArchiveStats::of(&archive);
    println!(
        "blocks: {} unique ({} lzss / {} raw) + {} duplicate",
        stats.unique_lzss + stats.unique_raw,
        stats.unique_lzss,
        stats.unique_raw,
        stats.dup_blocks
    );
    println!(
        "compressed: {} -> {} bytes ({:.1}% of original; dedup saved {} B, compression saved {} B) — verified by full decompression",
        data.len(),
        stats.output_bytes,
        stats.ratio_percent(),
        stats.dedup_saved,
        stats.compress_saved
    );
}
