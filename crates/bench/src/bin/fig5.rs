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
//! Usage: `cargo run --release -p bench --bin fig5 [--mb 1] [--batch-kb 256]
//!         [--workers 19]`

#![forbid(unsafe_code)]

use std::sync::Arc;

use bench::{arg, instrumented_run, Report};
use dedup::datasets;
use dedup::single::{run_single_cuda, run_single_ocl};
use dedup::{BackendCtx, DedupConfig, HostCosts, LzssConfig, RabinParams};
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

    let cpu = CpuModel::default();
    let costs = HostCosts::default();
    let props = DeviceProps::titan_xp();
    let system = GpuSystem::new(2, DeviceProps::titan_xp());

    let mut report = Report::new(
        "Fig. 5 — Dedup throughput (MB/s)",
        vec!["dataset", "version", "batch-opt", "mem", "MB/s"],
    );

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
                }
            }
        }
    }

    report.emit("fig5");

    // Regenerate Fig. 3's activity graph from a *real* instrumented run of
    // the 5-stage pipeline: stage metrics from the SPar region merged with
    // the two simulated devices' command traces.
    instrumented_run("fig5", |tsys, rec| {
        let ctx = BackendCtx::gpu(Arc::clone(tsys), 2, true, cfg.lzss);
        let ds = datasets::parsec_like(size.min(400_000), 42);
        let archive =
            dedup::run_pipeline_rec::<CudaOffload>(ctx, ds.data.clone(), &cfg, 3, rec.clone());
        assert_eq!(
            archive.decompress().expect("roundtrip"),
            ds.data,
            "instrumented run: archive must decompress to the input"
        );
    });
}
