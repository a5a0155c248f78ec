//! Cross-crate integration: the Dedup pipeline end-to-end, every backend,
//! every dataset — archives must be byte-identical across backends and
//! must decompress to the original input.

use hetstream::dedup::single::{run_single_cuda, run_single_ocl};
use hetstream::dedup::{
    datasets, run_pipeline, run_sequential, Archive, ArchiveStats, BackendCtx, DedupConfig,
    LzssConfig, RabinParams,
};
use hetstream::gpusim::{CudaOffload, DeviceProps, GpuSystem, OclOffload, Offload};

/// `(unique blocks, duplicate blocks)` of an archive.
fn block_counts(archive: &Archive) -> (usize, usize) {
    let s = ArchiveStats::of(archive);
    (s.unique_raw + s.unique_lzss, s.dup_blocks)
}

fn cfg() -> DedupConfig {
    DedupConfig {
        batch_size: 16 * 1024,
        rabin: RabinParams {
            window: 16,
            mask: (1 << 9) - 1,
            magic: 0x5c,
            min_chunk: 256,
            max_chunk: 4096,
        },
        lzss: LzssConfig {
            window: 256,
            min_coded: 3,
        },
    }
}

#[test]
fn all_backends_produce_identical_archives_on_all_datasets() {
    let cfg = cfg();
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    for ds in datasets::all(50_000, 77) {
        let reference = run_sequential(&ds.data, &cfg);
        assert_eq!(
            reference.decompress().unwrap(),
            ds.data,
            "{}: roundtrip broken",
            ds.name
        );

        let cpu = run_pipeline::<CudaOffload>(BackendCtx::cpu(cfg.lzss), ds.data.clone(), &cfg, 3);
        assert_eq!(cpu, reference, "{}: cpu pipeline", ds.name);

        let cuda_ctx = BackendCtx::gpu(system.clone(), 2, true, cfg.lzss);
        let cuda = run_pipeline::<CudaOffload>(cuda_ctx, ds.data.clone(), &cfg, 2);
        assert_eq!(cuda, reference, "{}: cuda pipeline", ds.name);

        let ocl_ctx = BackendCtx::gpu(system.clone(), 2, true, cfg.lzss);
        let ocl = run_pipeline::<OclOffload>(ocl_ctx, ds.data.clone(), &cfg, 2);
        assert_eq!(ocl, reference, "{}: opencl pipeline", ds.name);

        let (single_c, _) = run_single_cuda(&system, &ds.data, &cfg, 2);
        assert_eq!(single_c, reference, "{}: single cuda", ds.name);
        let (single_o, _) = run_single_ocl(&system, &ds.data, &cfg, 2);
        assert_eq!(single_o, reference, "{}: single opencl", ds.name);
    }
}

#[test]
fn archive_serialization_survives_a_disk_roundtrip() {
    let cfg = cfg();
    let data = datasets::linux_like(40_000, 3).data;
    let archive = run_sequential(&data, &cfg);
    let bytes = archive.to_bytes();
    let parsed = hetstream::dedup::Archive::from_bytes(&bytes).expect("parse");
    assert_eq!(parsed, archive);
    assert_eq!(parsed.decompress().unwrap(), data);
}

#[test]
fn duplicated_input_dedups_across_batch_boundaries() {
    let cfg = cfg();
    // Two identical 30 KB halves: the second half spans different batches
    // than the first but must still be found duplicate (global cache).
    let half = datasets::silesia_like(30_000, 5).data;
    let mut data = half.clone();
    data.extend_from_slice(&half);
    let archive = run_sequential(&data, &cfg);
    let (unique, dups) = block_counts(&archive);
    assert!(
        dups as f64 >= unique as f64 * 0.5,
        "expected heavy duplication: {unique} unique vs {dups} dups"
    );
    assert_eq!(archive.decompress().unwrap(), data);
}

/// `batched = false` is the paper's first integration: the same archive,
/// from one kernel launch per block instead of one per batch.
fn unbatched_and_batched_kernels_agree<O: Offload>() {
    let cfg = cfg();
    let data = datasets::parsec_like(40_000, 6).data;
    let reference = run_sequential(&data, &cfg);
    let run = |batched: bool| {
        let system = GpuSystem::new(1, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(system.clone(), 1, batched, cfg.lzss);
        let archive = run_pipeline::<O>(ctx, data.clone(), &cfg, 2);
        (archive, system.device(0).stats().kernels)
    };
    let (batched, batched_kernels) = run(true);
    let (unbatched, unbatched_kernels) = run(false);
    assert_eq!(batched, unbatched, "{}", O::API);
    assert_eq!(unbatched, reference, "{}", O::API);
    assert_eq!(batched.decompress().unwrap(), data);
    // Stage 2 hashes every block, stage 4 compresses the unique ones.
    let (unique, dups) = block_counts(&reference);
    let batches = data.len().div_ceil(cfg.batch_size);
    assert_eq!(batched_kernels, 2 * batches as u64, "{}", O::API);
    assert_eq!(
        unbatched_kernels,
        (2 * unique + dups) as u64,
        "{}: one launch per block",
        O::API
    );
}

#[test]
fn unbatched_and_batched_kernels_agree_under_cuda() {
    unbatched_and_batched_kernels_agree::<CudaOffload>();
}

#[test]
fn unbatched_and_batched_kernels_agree_under_opencl() {
    unbatched_and_batched_kernels_agree::<OclOffload>();
}

#[test]
fn worker_count_does_not_change_the_archive() {
    let cfg = cfg();
    let data = datasets::parsec_like(40_000, 8).data;
    let reference = run_sequential(&data, &cfg);
    for workers in [1, 2, 5] {
        let out =
            run_pipeline::<CudaOffload>(BackendCtx::cpu(cfg.lzss), data.clone(), &cfg, workers);
        assert_eq!(out, reference, "workers={workers}");
    }
}

/// The archive bytes of one fixed input, pinned across commits. Every
/// other test here compares a pipeline with `run_sequential`, and both
/// search with the same `MatchFinder`, so a search-policy change both
/// sides share would pass them; this one fails on any byte that moves.
#[test]
fn archive_bytes_are_pinned_across_commits() {
    let data: Vec<u8> = datasets::all(40_000, 32)
        .into_iter()
        .flat_map(|ds| ds.data)
        .collect();
    for (window, len, crc) in [(256, 72_405, 0xe957_5a40), (4096, 67_488, 0xaf42_6f17)] {
        let lzss = LzssConfig {
            window,
            min_coded: 3,
        };
        let bytes = run_sequential(&data, &DedupConfig { lzss, ..cfg() }).to_bytes();
        assert_eq!(
            (bytes.len(), hetstream::ingress::crc32(&bytes)),
            (len, crc),
            "window {window}"
        );
    }
}
