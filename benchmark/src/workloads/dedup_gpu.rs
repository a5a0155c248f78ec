//! `dedup-gpu` — Fig. 5's best version: `run_pipeline::<OffloadBackend<
//! CudaOffload>>` on a PARSEC-like dataset with fig5's configuration
//! (256 KiB batches, LZSS window 512), two GPUs, batched kernels. A
//! copy-heavy use of the same offload layer as `mandel-gpu`, with a
//! stateful serial dup-check stage, pinned pools and the SPar `ToStream`
//! front-end. One item is one batch.
//!
//! `run_pipeline` owns its source and sink, so the benchmark sees the job
//! only from outside: no paced phase, and the traced repetition has a
//! single span. The `dedup.*` layer rows come from a sequential replay.

use std::sync::Arc;
use std::time::Instant;

use dedup::{BackendCtx, DedupConfig, LzssConfig, OffloadBackend, RabinParams};
use gpusim::{CudaOffload, DeviceProps, GpuSystem};
use simtime::XorShift64;

use super::{with_command_trace, with_copy_delta, Modeled, Rep, Scenario, Size, WORKERS};
use crate::pace::now_ns;
use crate::trace::{Kind, Tracer};

/// fig5's configuration at `--batch-kb 256`.
pub fn fig5_config() -> DedupConfig {
    DedupConfig {
        batch_size: 256 * 1024,
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
    }
}

/// Seed of the one `parsec_like` dataset every run compresses.
const DATASET_SEED: u64 = 0x5EED_DA7A;
/// Granularity of the rotation `--seed` picks: the generator's extent.
const EXTENT: usize = 4096;

/// The run's input: the fixed dataset, rotated left by a seed-picked
/// number of 4 KiB extents.
///
/// The seed must pick the bytes, not how much work they are. Fresh
/// `parsec_like` data per seed does not do that: the pipeline's speed-up
/// over `run_sequential` depends on what the bytes are (how long LZSS
/// matches run, how much is duplicate), and over ten seeds it spread 7 %
/// where ten runs of one seed spread 2 % — even with the stream thinned to
/// a fixed duplicate/text/binary mix, which was tried first. A rotation
/// keeps every extent, so the chunks, the duplicates and the compressible
/// bytes are the same for every seed except at the one seam.
pub fn rotated_dataset(size: usize, seed: u64) -> Vec<u8> {
    let mut data = dedup::datasets::parsec_like(size, DATASET_SEED).data;
    let extents = (data.len() / EXTENT) as u64;
    data.rotate_left(XorShift64::new(seed).below(extents) as usize * EXTENT);
    data
}

/// Inputs and reference of one `dedup-gpu` run.
pub struct DedupGpu {
    cfg: DedupConfig,
    data: Vec<u8>,
    /// The sequential archive every pipeline run must equal.
    pub reference: dedup::Archive,
    serial_items_per_s: f64,
}

impl DedupGpu {
    fn batches(&self) -> u64 {
        self.data.len().div_ceil(self.cfg.batch_size) as u64
    }

    fn pipeline(&self, input: Vec<u8>, sys: &Arc<GpuSystem>) -> dedup::Archive {
        let ctx = BackendCtx::gpu(Arc::clone(sys), 2, true, self.cfg.lzss);
        dedup::run_pipeline::<OffloadBackend<CudaOffload>>(ctx, input, &self.cfg, WORKERS)
    }
}

impl Scenario for DedupGpu {
    const BETWEEN_SPANS: &'static str =
        "the pipeline's inside (run_pipeline owns its source and sink)";

    fn setup(seed: u64, size: Size, _scratch: &std::path::Path) -> Self {
        let size = match size {
            Size::Smoke => 512 * 1024,
            Size::EndToEnd | Size::Traced => 2 * 1024 * 1024,
        };
        let cfg = fig5_config();
        let data = rotated_dataset(size, seed);
        let t = Instant::now();
        let reference = dedup::run_sequential(&data, &cfg);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(
            reference.decompress().expect("reference archive decodes"),
            data,
            "the sequential reference must round-trip before it judges anything"
        );
        let serial_items_per_s = data.len().div_ceil(cfg.batch_size) as f64 / secs;
        let me = DedupGpu {
            cfg,
            data,
            reference,
            serial_items_per_s,
        };
        // The first pipeline run in a process is ~40 % slower (pinned
        // pools and device allocation caches are cold): warm it here, on
        // a quarter of the input — same batch size, same pool classes.
        let quarter = me.data[..me.data.len() / 4].to_vec();
        me.pipeline(quarter, &GpuSystem::new(2, DeviceProps::titan_xp()));
        me
    }

    fn serial_items_per_s(&self) -> f64 {
        self.serial_items_per_s
    }

    fn serial(&self) -> (u64, f64) {
        let t = Instant::now();
        std::hint::black_box(dedup::run_sequential(&self.data, &self.cfg));
        (self.batches(), t.elapsed().as_secs_f64())
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Rep {
        let sys = with_command_trace(GpuSystem::new(2, DeviceProps::titan_xp()), tracer);
        let input = self.data.clone();
        let t = Instant::now();
        let start_ns = now_ns();
        let (archive, copied) = with_copy_delta(|| self.pipeline(input, &sys));
        let secs = t.elapsed().as_secs_f64();
        if let Some(tracer) = tracer {
            tracer.log(Kind::Job, 0, start_ns, now_ns());
        }
        // Equal to the sequential archive, which set-up showed decodes to
        // the input: one comparison covers both.
        let items = self.batches();
        let failed = if archive == self.reference { 0 } else { items };
        Rep {
            items,
            failed,
            secs,
            modeled: Modeled::read(&sys, copied),
        }
    }
}
