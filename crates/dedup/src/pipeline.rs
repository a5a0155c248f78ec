//! The 5-stage Dedup pipeline of Fig. 3, expressed with SPar.
//!
//! ```text
//! S1 read + rabin ──> S2 SHA-1 (replicated, GPU) ──> S3 dup check (serial)
//!        ──> S4 LZSS compress (replicated, GPU) ──> S5 reorder + write
//! ```
//!
//! Stage order is restored by the ordered farms the SPar region generates
//! (the paper's stage 5 "reorders the batches and writes"); stage 3 is
//! `Replicate(1)` so the global dedup cache needs no lock.

use crate::archive::Archive;
use crate::backend::{BackendCtx, ClassifiedBatch, CompressedBatch, DedupBackend, HashedBatch};
use crate::batch::make_batches;
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

/// Stage-2 node: one backend instance per replica, built in `on_init` on
/// the replica's thread.
struct HashNode<B: DedupBackend> {
    ctx: BackendCtx,
    replica: usize,
    backend: Option<B>,
}

impl<B: DedupBackend> fastflow::Node for HashNode<B> {
    type In = crate::batch::Batch;
    type Out = HashedBatch<B::Gpu>;
    fn on_init(&mut self) {
        self.backend = Some(B::new(&self.ctx, self.replica));
    }
    fn svc(
        &mut self,
        batch: crate::batch::Batch,
        out: &mut fastflow::Emitter<'_, HashedBatch<B::Gpu>>,
    ) {
        let backend = self
            .backend
            .get_or_insert_with(|| B::new(&self.ctx, self.replica));
        out.send(backend.hash_stage(batch));
    }
}

/// Stage-4 node.
struct CompressNode<B: DedupBackend> {
    ctx: BackendCtx,
    replica: usize,
    backend: Option<B>,
}

impl<B: DedupBackend> fastflow::Node for CompressNode<B> {
    type In = ClassifiedBatch<B::Gpu>;
    type Out = CompressedBatch;
    fn on_init(&mut self) {
        self.backend = Some(B::new(&self.ctx, self.replica));
    }
    fn svc(
        &mut self,
        item: ClassifiedBatch<B::Gpu>,
        out: &mut fastflow::Emitter<'_, CompressedBatch>,
    ) {
        let backend = self
            .backend
            .get_or_insert_with(|| B::new(&self.ctx, self.replica));
        out.send(backend.compress_stage(item));
    }
}

/// Run the Fig. 3 pipeline over `input` with `workers` replicas for the
/// hashing and compression stages. The backend type selects CPU / CUDA /
/// OpenCL (Fig. 5's SPar, SPar+CUDA and SPar+OpenCL versions).
pub fn run_pipeline<B: DedupBackend>(
    backend_ctx: BackendCtx,
    input: Vec<u8>,
    cfg: &DedupConfig,
    workers: usize,
) -> Archive {
    run_pipeline_rec::<B>(
        backend_ctx,
        input,
        cfg,
        workers,
        telemetry::Recorder::default(),
    )
}

/// [`run_pipeline`] with a telemetry recorder: every stage and replica of
/// the SPar region registers stage metrics, and — when the backend drives
/// GPUs — the simulated device command traces are merged into the same
/// recorder as engine spans (one `gpu{d}/{engine}` row per device engine).
pub fn run_pipeline_rec<B: DedupBackend>(
    backend_ctx: BackendCtx,
    input: Vec<u8>,
    cfg: &DedupConfig,
    workers: usize,
    rec: telemetry::Recorder,
) -> Archive {
    assert!(workers >= 1);
    let cfg = cfg.clone();
    let lzss = cfg.lzss;
    // Fault / retry / fallback events from the backends land in the same
    // recorder as the stage metrics.
    let backend_ctx = backend_ctx.with_recorder(rec.clone());
    let system = backend_ctx.system.clone();
    if let Some(sys) = &system {
        workload::arm_gpu_traces(sys, &rec);
    }
    let hash_ctx = backend_ctx.clone();
    let compress_ctx = backend_ctx;
    let mut archive = Archive::new(lzss);

    let source_cfg = cfg.clone();
    spar::ToStream::new()
        .recorder(rec.clone())
        .ordered(true)
        // S1: read input, build 1 MB batches, rabin-fingerprint each.
        .source(move |em| {
            for batch in make_batches(&input, source_cfg.batch_size, &source_cfg.rabin) {
                if !em.send(batch) {
                    break;
                }
            }
        })
        // S2: SHA-1 every block (replicated; offloads to GPUs).
        .stage_node(workers, |replica| HashNode::<B> {
            ctx: hash_ctx.clone(),
            replica,
            backend: None,
        })
        // S3: duplicate check against the global cache (serial, stateful).
        .stage_factory(1, |_| {
            let mut cache = DedupCache::new();
            move |h: HashedBatch<B::Gpu>| -> ClassifiedBatch<B::Gpu> {
                let classes = h.digests.iter().map(|&d| cache.classify(d)).collect();
                ClassifiedBatch {
                    batch: h.batch,
                    classes,
                    gpu: h.gpu,
                }
            }
        })
        // S4: LZSS-compress unique blocks (replicated; reuses device data).
        .stage_node(workers, |replica| CompressNode::<B> {
            ctx: compress_ctx.clone(),
            replica,
            backend: None,
        })
        // S5: reorder (guaranteed by the ordered region) and write.
        .last_stage(|done: CompressedBatch| {
            archive.entries.extend(done.entries);
        });
    if let Some(sys) = &system {
        workload::drain_gpu_traces(sys, &rec);
    }
    archive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, OffloadBackend};
    use crate::datasets;
    use gpusim::{CudaOffload, DeviceProps, GpuSystem, OclOffload, Offload};

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

    #[test]
    fn spar_cpu_pipeline_matches_sequential() {
        let cfg = small_cfg();
        let data = input();
        let seq = run_sequential(&data, &cfg);
        let par = run_pipeline::<CpuBackend>(BackendCtx::cpu(cfg.lzss), data.clone(), &cfg, 4);
        assert_eq!(par, seq, "pipeline output must be byte-identical");
        assert_eq!(par.decompress().unwrap(), data);
    }

    #[test]
    fn offload_backends_match_sequential() {
        let cfg = small_cfg();
        let data = input();
        let seq = run_sequential(&data, &cfg);
        let sys = GpuSystem::new(2, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(sys.clone(), 2, true, cfg.lzss);
        let cuda = run_pipeline::<OffloadBackend<CudaOffload>>(ctx.clone(), data.clone(), &cfg, 3);
        assert_eq!(cuda, seq);
        let ocl = run_pipeline::<OffloadBackend<OclOffload>>(ctx, data.clone(), &cfg, 3);
        assert_eq!(ocl, seq);
    }

    #[test]
    fn recorder_captures_stages_and_gpu_engines() {
        let cfg = small_cfg();
        let data = input();
        let sys = GpuSystem::new(2, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(sys, 2, true, cfg.lzss);
        let rec = telemetry::Recorder::enabled();
        let archive = run_pipeline_rec::<OffloadBackend<CudaOffload>>(
            ctx,
            data.clone(),
            &cfg,
            3,
            rec.clone(),
        );
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
        let par = run_pipeline_rec::<OffloadBackend<O>>(ctx, data, &cfg, workers, rec.clone());
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
        let cuda = run_pipeline::<OffloadBackend<CudaOffload>>(ctx.clone(), data.clone(), &cfg, 2);
        assert_eq!(cuda, seq);
        let ocl = run_pipeline::<OffloadBackend<OclOffload>>(ctx, data, &cfg, 2);
        assert_eq!(ocl, seq);
    }

    #[test]
    fn all_datasets_roundtrip_through_the_cpu_pipeline() {
        let cfg = small_cfg();
        for ds in datasets::all(60_000, 2) {
            let par =
                run_pipeline::<CpuBackend>(BackendCtx::cpu(cfg.lzss), ds.data.clone(), &cfg, 3);
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
        let archive = run_pipeline::<CpuBackend>(BackendCtx::cpu(cfg.lzss), Vec::new(), &cfg, 2);
        assert!(archive.entries.is_empty());
        assert_eq!(archive.decompress().unwrap(), Vec::<u8>::new());
    }
}
