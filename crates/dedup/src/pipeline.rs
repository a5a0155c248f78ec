//! The 5-stage Dedup pipeline of Fig. 3, expressed with SPar.
//!
//! ```text
//! S1 read + rabin ──> S2 SHA-1 (replicated, GPU) ──> S3 dup check (serial)
//!        ──> S4 LZSS compress (replicated, GPU) ──> S5 reorder + write
//! ```
//!
//! S1 fingerprints one batch at a time and sends it on before making the
//! next ([`batches`]), so a run holds only the batches in flight.
//! Stage order is restored by the ordered farms the SPar region generates
//! (the paper's stage 5 "reorders the batches and writes"); stage 3 is
//! `Replicate(1)` so the global dedup cache needs no lock.
//!
//! Stages 2 and 4 are the [`HashWork`] and [`CompressWork`] workloads,
//! each under one [`WorkloadDriver`] whose clones serve the stage's
//! replicas; the driver owns the recovery ladder. The context picks the
//! version: a GPU context offloads through the front end the pipeline is
//! instantiated with, a host-only one runs the drivers' host rungs.

use std::sync::Arc;

use gpusim::Offload;
use workload::WorkloadDriver;

use crate::archive::{Archive, BlockEntry};
use crate::backend::{BackendCtx, ClassifiedBatch, CompressWork, HashWork, HashedBatch};
use crate::batch::{batches, make_batches, Batch};
use crate::dedupe::DedupCache;
use crate::lzss::LzssConfig;
use crate::rabin::RabinParams;
use crate::sha1::sha1;

/// Whole-run parameters.
#[derive(Clone, Debug)]
pub struct DedupConfig {
    /// Fixed batch size (the paper's 1 MB; reduced for OpenCL per §V-B).
    pub batch_size: usize,
    /// Chunker parameters.
    pub rabin: RabinParams,
    /// Codec parameters.
    pub lzss: LzssConfig,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            batch_size: crate::batch::DEFAULT_BATCH_SIZE,
            rabin: RabinParams::default(),
            lzss: LzssConfig::default(),
        }
    }
}

/// Sequential reference implementation (PARSEC's original structure):
/// the gold standard every parallel version is compared against.
pub fn run_sequential(input: &[u8], cfg: &DedupConfig) -> Archive {
    let mut cache = DedupCache::new();
    let mut archive = Archive::new(cfg.lzss);
    for batch in make_batches(input, cfg.batch_size, &cfg.rabin) {
        for b in 0..batch.block_count() {
            let block = batch.block(b);
            match cache.classify(sha1(block)) {
                crate::dedupe::BlockClass::Unique { .. } => {
                    archive
                        .entries
                        .push(crate::archive::BlockEntry::compress_unique(
                            block, &cfg.lzss,
                        ))
                }
                crate::dedupe::BlockClass::Dup { of } => {
                    archive.entries.push(crate::archive::BlockEntry::Dup(of))
                }
            }
        }
    }
    archive
}

/// Run the Fig. 3 pipeline over `input` with `workers` replicas for the
/// hashing and compression stages, offloading through the front end `O`
/// (Fig. 5's SPar+CUDA and SPar+OpenCL versions). A host-only context
/// ([`BackendCtx::cpu`], Fig. 5's SPar version) runs every batch on the
/// stages' host rungs and never attaches `O`, so any front end names it.
pub fn run_pipeline<O: Offload>(
    backend_ctx: BackendCtx,
    input: Vec<u8>,
    cfg: &DedupConfig,
    workers: usize,
) -> Archive {
    run_pipeline_rec::<O>(
        backend_ctx,
        input,
        cfg,
        workers,
        telemetry::Recorder::default(),
    )
}

/// [`run_pipeline`] with a telemetry recorder: every stage and replica of
/// the SPar region registers stage metrics, and — when the context drives
/// GPUs — the simulated device command traces are merged into the same
/// recorder as engine spans (one `gpu{d}/{engine}` row per device engine).
pub fn run_pipeline_rec<O: Offload>(
    ctx: BackendCtx,
    input: Vec<u8>,
    cfg: &DedupConfig,
    workers: usize,
    rec: telemetry::Recorder,
) -> Archive {
    assert!(workers >= 1);
    let cfg = cfg.clone();
    // One driver per stage, cloned into its replicas: they share the
    // stage's description and its causal batch-id counter. Their fault /
    // retry / fallback events and pool gauges land in the same recorder
    // as the stage metrics.
    let hash = WorkloadDriver::new(HashWork::<O>::new(&ctx)).with_recorder(rec.clone());
    let compress = WorkloadDriver::new(CompressWork::<O>::new(&ctx)).with_recorder(rec.clone());
    let system = ctx.system;
    if let Some(sys) = &system {
        workload::arm_gpu_traces(sys, &rec);
    }
    let on_device = system.is_some();
    let mut archive = Archive::new(cfg.lzss);

    spar::ToStream::new()
        .recorder(rec.clone())
        .ordered(true)
        // S1: cut the input into batches of `cfg.batch_size` bytes (views
        // of it, no copies), rabin-fingerprint each and send it on before
        // making the next.
        .source(move |em| {
            for batch in batches(Arc::new(input), cfg.batch_size, &cfg.rabin) {
                if !em.send(batch) {
                    break;
                }
            }
        })
        // S2: SHA-1 every block (replicated; offloads to GPUs). Device
        // state attaches on the replica's own thread, at its first batch.
        .stage_factory(workers, |replica| {
            let hash = hash.clone();
            let mut dev = None;
            move |batch: Batch| {
                let (digests, gpu) = if on_device {
                    hash.process(dev.get_or_insert_with(|| hash.attach(replica)), &batch)
                } else {
                    hash.process_host(&batch)
                };
                HashedBatch {
                    batch,
                    digests,
                    gpu,
                }
            }
        })
        // S3: duplicate check against the global cache (serial, stateful).
        .stage_factory(1, |_| {
            let mut cache = DedupCache::new();
            move |h: HashedBatch<O>| -> ClassifiedBatch<O> {
                let classes = h.digests.iter().map(|&d| cache.classify(d)).collect();
                ClassifiedBatch {
                    batch: h.batch,
                    classes,
                    gpu: h.gpu,
                }
            }
        })
        // S4: LZSS-compress unique blocks (replicated; reuses device data).
        // A batch that is not device-resident by design (a host-only run,
        // or stage 2 fell back or re-split) goes straight to the host
        // rung, with no fault events.
        .stage_factory(workers, |replica| {
            let compress = compress.clone();
            let mut dev = None;
            move |item: ClassifiedBatch<O>| {
                if item.gpu.is_some() {
                    compress.process(dev.get_or_insert_with(|| compress.attach(replica)), &item)
                } else {
                    compress.process_host(&item)
                }
            }
        })
        // S5: reorder (guaranteed by the ordered region) and write.
        .last_stage(|entries: Vec<BlockEntry>| archive.entries.extend(entries));
    if let Some(sys) = &system {
        workload::drain_gpu_traces(sys, &rec);
    }
    archive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use gpusim::{CudaOffload, DeviceProps, GpuSystem, OclOffload};
    use telemetry::FlightKind;

    fn small_cfg() -> DedupConfig {
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

    fn input() -> Vec<u8> {
        datasets::parsec_like(80_000, 11).data
    }

    #[test]
    fn sequential_roundtrips() {
        let cfg = small_cfg();
        let data = input();
        let archive = run_sequential(&data, &cfg);
        assert_eq!(archive.decompress().unwrap(), data);
        let stats = crate::ArchiveStats::of(&archive);
        assert!(stats.unique_raw + stats.unique_lzss > 0);
        assert!(
            stats.dup_blocks > 0,
            "parsec-like data must contain duplicates"
        );
    }

    /// The host-only version runs through the same drivers as the GPU
    /// ones, on their host rungs: the archive is the sequential one, and
    /// since a host batch is the context's policy, not a fallback, no
    /// ladder walk starts and no fault is recorded. Attaching a device
    /// would panic (the context has no `GpuSystem`), and no device ever
    /// reports an engine span.
    #[test]
    fn spar_cpu_pipeline_matches_sequential() {
        let cfg = small_cfg();
        for data in [input(), Vec::new()] {
            let seq = run_sequential(&data, &cfg);
            for workers in [1, 3] {
                let rec = telemetry::Recorder::enabled();
                let ctx = BackendCtx::cpu(cfg.lzss);
                let par =
                    run_pipeline_rec::<CudaOffload>(ctx, data.clone(), &cfg, workers, rec.clone());
                assert_eq!(par, seq, "pipeline output must be byte-identical");
                assert_eq!(par.decompress().unwrap(), data);
                let report = rec.report();
                assert!(report.faults.is_empty(), "{:?}", report.faults);
                assert!(report.gpu.is_empty());
                assert!(rec
                    .flight_snapshot()
                    .iter()
                    .all(|e| e.kind != FlightKind::BatchFormed));
            }
        }
    }

    /// Every replica of a stage draws its causal batch ids from the
    /// stage's one driver, so no two batches of a stage share an id.
    #[test]
    fn each_stage_numbers_its_batches_once() {
        let cfg = small_cfg();
        let data = datasets::parsec_like(160_000, 11).data;
        let sys = GpuSystem::new(2, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(sys, 2, true, cfg.lzss);
        let rec = telemetry::Recorder::enabled();
        run_pipeline_rec::<CudaOffload>(ctx, data, &cfg, 3, rec.clone());
        let mut ids: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
        for e in rec.flight_snapshot() {
            if e.kind == FlightKind::BatchFormed {
                ids.entry(e.src).or_default().push(e.batch_id);
            }
        }
        assert_eq!(ids.len(), 2, "one flight source per driver");
        for ids in ids.values() {
            let distinct: std::collections::BTreeSet<_> = ids.iter().collect();
            assert!(ids.len() > 3, "{ids:?}");
            assert_eq!(distinct.len(), ids.len(), "colliding batch ids {ids:?}");
        }
    }

    #[test]
    fn offload_backends_match_sequential() {
        let cfg = small_cfg();
        let data = input();
        let seq = run_sequential(&data, &cfg);
        let sys = GpuSystem::new(2, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(sys.clone(), 2, true, cfg.lzss);
        let cuda = run_pipeline::<CudaOffload>(ctx.clone(), data.clone(), &cfg, 3);
        assert_eq!(cuda, seq);
        let ocl = run_pipeline::<OclOffload>(ctx, data.clone(), &cfg, 3);
        assert_eq!(ocl, seq);
    }

    #[test]
    fn recorder_captures_stages_and_gpu_engines() {
        let cfg = small_cfg();
        let data = input();
        let sys = GpuSystem::new(2, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(sys, 2, true, cfg.lzss);
        let rec = telemetry::Recorder::enabled();
        let archive = run_pipeline_rec::<CudaOffload>(ctx, data.clone(), &cfg, 3, rec.clone());
        assert_eq!(archive.decompress().unwrap(), data);
        let report = rec.report();
        // All five stages of Fig. 3's pipeline are present...
        for stage in ["source", "stage1", "stage2", "stage3", "sink"] {
            assert!(
                report.stages.iter().any(|s| s.name == stage),
                "missing stage {stage}"
            );
        }
        // ...items are conserved stage to stage...
        assert_eq!(report.items_out("source"), report.items_in("stage1"));
        assert_eq!(report.items_out("stage1"), report.items_in("stage2"));
        // ...and the simulated devices contributed engine spans.
        assert!(report.gpu.iter().any(|s| s.engine == "compute"));
        assert!(report.gpu.iter().any(|s| s.engine == "h2d"));
    }

    /// A pipeline run over `n_gpus` devices armed with the deterministic
    /// fault storm `FaultSpec::demo(seed)`: the first allocations OOM and
    /// the first kernel launches fail on every device, then the devices
    /// heal. The archive must still be the sequential one.
    fn faulty_run<O: Offload>(
        n_gpus: usize,
        seed: u64,
        workers: usize,
    ) -> telemetry::TelemetryReport {
        let cfg = small_cfg();
        let data = input();
        let seq = run_sequential(&data, &cfg);
        let sys = GpuSystem::new(n_gpus, DeviceProps::titan_xp());
        sys.inject_faults(&gpusim::FaultSpec::demo(seed));
        let ctx = BackendCtx::gpu(sys, n_gpus, true, cfg.lzss);
        let rec = telemetry::Recorder::enabled();
        let par = run_pipeline_rec::<O>(ctx, data, &cfg, workers, rec.clone());
        assert_eq!(
            par,
            seq,
            "{}: faulty run must still be byte-identical",
            O::API
        );
        rec.report()
    }

    fn injected_faults_degrade_to_cpu_and_preserve_output<O: Offload>() {
        let report = faulty_run::<O>(2, 42, 3);
        assert!(
            report.retry_count() >= 1,
            "expected at least one retry event, got {} fault events",
            report.faults.len()
        );
        assert!(
            report.fallback_count() >= 1,
            "expected at least one CPU fallback event, got {} fault events",
            report.faults.len()
        );
        faulty_run::<O>(1, 7, 2);
    }

    #[test]
    fn cuda_survives_injected_faults() {
        injected_faults_degrade_to_cpu_and_preserve_output::<CudaOffload>();
    }

    #[test]
    fn opencl_survives_injected_faults() {
        injected_faults_degrade_to_cpu_and_preserve_output::<OclOffload>();
    }

    #[test]
    fn unbatched_kernels_still_produce_identical_output() {
        let cfg = small_cfg();
        let data = input();
        let seq = run_sequential(&data, &cfg);
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(sys, 1, false, cfg.lzss);
        let cuda = run_pipeline::<CudaOffload>(ctx.clone(), data.clone(), &cfg, 2);
        assert_eq!(cuda, seq);
        let ocl = run_pipeline::<OclOffload>(ctx, data, &cfg, 2);
        assert_eq!(ocl, seq);
    }

    #[test]
    fn all_datasets_roundtrip_through_the_cpu_pipeline() {
        let cfg = small_cfg();
        for ds in datasets::all(60_000, 2) {
            let par =
                run_pipeline::<CudaOffload>(BackendCtx::cpu(cfg.lzss), ds.data.clone(), &cfg, 3);
            assert_eq!(par.decompress().unwrap(), ds.data, "{}", ds.name);
        }
    }

    #[test]
    fn deduplication_actually_shrinks_duplicated_input() {
        let cfg = small_cfg();
        let region = datasets::silesia_like(20_000, 9).data;
        let mut data = region.clone();
        data.extend_from_slice(&region); // 100% duplicate second half
        let archive = run_sequential(&data, &cfg);
        assert!(
            archive.serialized_len() < data.len() * 7 / 10,
            "dedup + compression must shrink: {} vs {}",
            archive.serialized_len(),
            data.len()
        );
    }

    #[test]
    fn empty_input_produces_empty_archive() {
        let cfg = small_cfg();
        let archive = run_pipeline::<CudaOffload>(BackendCtx::cpu(cfg.lzss), Vec::new(), &cfg, 2);
        assert!(archive.entries.is_empty());
        assert_eq!(archive.decompress().unwrap(), Vec::<u8>::new());
    }
}
