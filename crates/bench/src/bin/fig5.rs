//! Fig. 5 — "Dedup results": throughput (MB/s) on the three datasets for
//! every version, with and without the batch-kernel optimization and with
//! 1×/2× memory spaces.
//!
//! Versions:
//!
//! * `spar` — CPU-only pipeline (testbed queueing model over a functional
//!   profile of the dataset);
//! * `cuda` / `opencl` — single-threaded GPU drivers **measured** on the
//!   simulated devices (including the pageable-memory asymmetry that makes
//!   2× spaces useless under CUDA);
//! * `spar+cuda` / `spar+opencl` — the 5-stage GPU pipeline, modeled with
//!   per-device engine contention; `no-batch` variants use per-block
//!   kernel launches.
//!
//! Usage: `cargo run --release -p bench --bin fig5 [--mb 1] [--batch-kb 256]`
//!
//! Pass `--inject-faults <seed>` to arm deterministic GPU fault injection
//! on the instrumented run: the archive must still decompress bit-exactly
//! via OOM halving / retry / CPU fallback, and the recorded fault events
//! are printed and asserted.
//!
//! Pass `--source file` (with `--shards N`) to feed the dedup pipeline
//! from a segmented file log: the dataset enters as batch-sized segment
//! records sharded **per key** ([`bench::shard_of`] over the segment
//! index), lands in pinned pooled buffers (copy ledger asserted at 0),
//! is consumed with resumable group offsets, and the reassembled stream
//! must round-trip bit-exactly through the GPU dedup pipeline.

#![forbid(unsafe_code)]

use std::sync::Arc;

use bench::{arg, ingress_demo, instrumented_run, observed_run, shard_of, Report, ShapeChecks};
use dedup::datasets;
use dedup::single::{run_single_cuda, run_single_ocl};
use dedup::{BackendCtx, DedupConfig, HostCosts, LzssConfig, OffloadBackend, RabinParams};
use gpusim::{CudaOffload, DeviceProps, GpuSystem};
use perfmodel::dedupmodel::{self, GpuApi};
use perfmodel::machine::CpuModel;

fn config(batch_kb: usize) -> DedupConfig {
    DedupConfig {
        batch_size: batch_kb * 1024,
        rabin: RabinParams {
            window: 32,
            mask: (1 << 11) - 1, // ~2 KiB expected chunks at this scale
            magic: 0x78,
            min_chunk: 512,
            max_chunk: 8 * 1024,
        },
        lzss: LzssConfig {
            window: 512,
            min_coded: 3,
        },
    }
}

fn main() {
    let mb: f64 = arg("--mb", 1.0);
    let batch_kb: usize = arg("--batch-kb", 256);
    let workers: usize = arg("--workers", 19);
    let size = (mb * 1e6) as usize;
    let cfg = config(batch_kb);
    println!(
        "Fig. 5 reproduction — Dedup throughput; synthetic datasets of {mb} MB \
         (paper: 185/816/202 MB), batches of {batch_kb} KB (paper: 1 MB), \
         LZSS window {} (paper: 4096). Scale reductions per DESIGN.md §2.",
        cfg.lzss.window
    );

    // `--source file` turns the run into the sharded-ingress demo; the
    // model sweep is not the subject there.
    let source_mode: String = arg("--source", String::new());
    if !source_mode.is_empty() {
        assert_eq!(source_mode, "file", "fig5 supports --source file");
        file_source_demo(size, &cfg);
        return;
    }

    let cpu = CpuModel::default();
    let costs = HostCosts::default();
    let props = DeviceProps::titan_xp();
    let system = GpuSystem::new(2, DeviceProps::titan_xp());

    let mut report = Report::new(
        "Fig. 5 — Dedup throughput (MB/s)",
        vec!["dataset", "version", "batch-opt", "mem", "MB/s"],
    );
    let mut checks = ShapeChecks::new();

    for ds in datasets::all(size, 42) {
        println!("\n[{}] profiling ({} bytes)...", ds.name, ds.len());
        let profile = dedupmodel::profile(&ds.data, &cfg, &props);
        let seq_ref = dedup::run_sequential(&ds.data, &cfg);
        assert_eq!(
            seq_ref.decompress().expect("roundtrip"),
            ds.data,
            "{}: archive must decompress to the input",
            ds.name
        );
        let st = dedup::ArchiveStats::of(&seq_ref);
        println!(
            "[{}] {} unique blocks ({} lzss / {} raw) + {} duplicates;              archive {:.1}% of input ({:.0}% duplicate content)",
            ds.name,
            st.unique_lzss + st.unique_raw,
            st.unique_lzss,
            st.unique_raw,
            st.dup_blocks,
            st.ratio_percent(),
            st.dup_fraction() * 100.0
        );

        // SPar CPU-only.
        let spar = dedupmodel::spar_cpu(&profile, &cpu, &costs, workers);
        report.row(vec![
            ds.name.into(),
            "spar (CPU)".into(),
            "-".into(),
            "-".into(),
            format!("{:.1}", spar.throughput_mbps),
        ]);

        // Single-threaded GPU drivers, measured (verify outputs too).
        let (a_c1, t_c1) = run_single_cuda(&system, &ds.data, &cfg, 1);
        assert_eq!(a_c1, seq_ref, "{}: CUDA 1x output mismatch", ds.name);
        let (_, t_c2) = run_single_cuda(&system, &ds.data, &cfg, 2);
        let (a_o1, t_o1) = run_single_ocl(&system, &ds.data, &cfg, 1);
        assert_eq!(a_o1, seq_ref, "{}: OpenCL 1x output mismatch", ds.name);
        let (_, t_o2) = run_single_ocl(&system, &ds.data, &cfg, 2);
        let thr = |t: simtime::SimDuration| ds.len() as f64 / 1e6 / t.as_secs_f64();
        for (version, mem, t) in [
            ("cuda", "1x", t_c1),
            ("cuda", "2x", t_c2),
            ("opencl", "1x", t_o1),
            ("opencl", "2x", t_o2),
        ] {
            report.row(vec![
                ds.name.into(),
                version.into(),
                "yes".into(),
                mem.into(),
                format!("{:.1}", thr(t)),
            ]);
        }

        // Pipeline + GPU versions, modeled, batched and not.
        let mut best_named: Vec<(String, f64)> = vec![("spar (CPU)".into(), spar.throughput_mbps)];
        let mut nobatch_worst = f64::MAX;
        let mut batch_best_gpu = 0.0f64;
        for (api, api_name) in [(GpuApi::Cuda, "spar+cuda"), (GpuApi::OpenCl, "spar+opencl")] {
            for batched in [true, false] {
                let run = dedupmodel::spar_gpu(&profile, &cpu, &props, &costs, 10, 2, api, batched);
                report.row(vec![
                    ds.name.into(),
                    api_name.into(),
                    if batched { "yes" } else { "no" }.into(),
                    "2 gpus".into(),
                    format!("{:.1}", run.throughput_mbps),
                ]);
                if batched {
                    let (stage, util) = run.bottleneck();
                    println!(
                        "[{}] {} bottleneck: stage '{}' at {:.0}% utilization",
                        ds.name,
                        api_name,
                        stage,
                        util * 100.0
                    );
                    best_named.push((api_name.into(), run.throughput_mbps));
                    batch_best_gpu = batch_best_gpu.max(run.throughput_mbps);
                } else {
                    nobatch_worst = nobatch_worst.min(run.throughput_mbps);
                }
            }
        }

        // Shape checks per dataset.
        let spar_cuda = best_named
            .iter()
            .find(|(n, _)| n == "spar+cuda")
            .expect("spar+cuda present")
            .1;
        let max_all = best_named
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max)
            .max(thr(t_c2))
            .max(thr(t_o2));
        checks.check(
            &format!("[{}] batch optimization is a large win (>5x)", ds.name),
            batch_best_gpu / nobatch_worst > 5.0,
        );
        checks.check(
            &format!("[{}] SPar+CUDA is the best version", ds.name),
            spar_cuda >= max_all * 0.999,
        );
        checks.check(
            &format!("[{}] SPar+CUDA beats SPar CPU-only", ds.name),
            spar_cuda > spar.throughput_mbps,
        );
        let ocl_gain = t_o1.as_secs_f64() / t_o2.as_secs_f64();
        let cuda_gain = t_c1.as_secs_f64() / t_c2.as_secs_f64();
        checks.check(
            &format!("[{}] 2x memory spaces help OpenCL more than CUDA", ds.name),
            ocl_gain > cuda_gain && ocl_gain > 1.01,
        );
    }

    report.emit("fig5");

    // Regenerate Fig. 3's activity graph from a *real* instrumented run of
    // the 5-stage pipeline: stage metrics from the SPar region merged with
    // the two simulated devices' command traces.
    instrumented_run(
        "fig5",
        "archive bit-identical to the fault-free run",
        |tsys, rec, _armed| {
            let ctx = BackendCtx::gpu(Arc::clone(tsys), 2, true, cfg.lzss);
            let ds = datasets::parsec_like(size.min(400_000), 42);
            let archive = dedup::run_pipeline_rec::<OffloadBackend<CudaOffload>>(
                ctx,
                ds.data.clone(),
                &cfg,
                3,
                rec.clone(),
            );
            assert_eq!(
                archive.decompress().expect("roundtrip"),
                ds.data,
                "instrumented run: archive must decompress to the input"
            );
        },
    );

    println!("\nShape checks (the paper's qualitative claims):");
    checks.finish();
}

// ---------------------------------------------------------------------
// Sharded ingress demo (`--source file`)
// ---------------------------------------------------------------------

/// The durable path for fig5: the dataset enters as per-key-sharded
/// `[u32 segment-idx][segment bytes]` records and leaves, echoed, through
/// the exactly-once egress log; the stream reassembled from that log
/// feeds the real GPU dedup pipeline.
fn file_source_demo(size: usize, cfg: &DedupConfig) {
    let shards: u32 = arg("--shards", 2u32);
    assert!(shards >= 1, "--shards must be at least 1");
    let ds = datasets::parsec_like(size.min(400_000), 42);
    let records: Vec<(u32, Vec<u8>)> = ds
        .data
        .chunks(cfg.batch_size.max(1))
        .enumerate()
        .map(|(i, chunk)| {
            let mut p = Vec::with_capacity(4 + chunk.len());
            p.extend_from_slice(&(i as u32).to_le_bytes());
            p.extend_from_slice(chunk);
            (shard_of(i as u64, shards), p)
        })
        .collect();
    let n_segments = records.len();

    observed_run("fig5", |rec| {
        let outcome = ingress_demo("fig5", rec, shards, &records, |segment| segment.to_vec());

        // Covers both the fresh run and the fully-committed restart: every
        // segment exactly once, on its key's shard, bit-exact round-trip
        // through the pipeline required.
        let mut segments: Vec<Option<&[u8]>> = vec![None; n_segments];
        for (shard, records) in &outcome.egress {
            for bytes in records {
                let idx = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
                assert_eq!(
                    *shard,
                    shard_of(idx as u64, shards),
                    "segment {idx} on the wrong shard for its key"
                );
                assert!(segments[idx].is_none(), "segment {idx} emitted twice");
                segments[idx] = Some(&bytes[4..]);
            }
        }
        let mut data = Vec::with_capacity(ds.data.len());
        for (i, segment) in segments.into_iter().enumerate() {
            data.extend_from_slice(segment.unwrap_or_else(|| panic!("segment {i} missing")));
        }
        assert_eq!(data, ds.data, "reassembled stream differs from the dataset");

        let tsys = GpuSystem::new(2, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(tsys, 2, true, cfg.lzss);
        let archive =
            dedup::run_pipeline_rec::<OffloadBackend<CudaOffload>>(ctx, data, cfg, 3, rec.clone());
        assert_eq!(
            archive.decompress().expect("roundtrip"),
            ds.data,
            "ingress-fed archive must decompress to the input"
        );
        println!(
            "ingress archive bit-exact ({n_segments} segments, per-key sharded, \
             exactly-once consumption)"
        );
    });
}
