//! Dedup's two offloaded stages as [`Workload`]s: stage 2 hashes a batch
//! ([`HashWork`]) and stage 4 runs the LZSS match search over it
//! ([`CompressWork`]), both written once against the unified [`Offload`]
//! trait and instantiated per front end (`CudaOffload` / `OclOffload`).
//!
//! Stage 4 reuses the batch stage 2 left on the device by attaching the
//! device buffers to the stream item ("this stage reuses data already on
//! GPU to prevent unnecessary data transfers", §IV-B) — it targets
//! whatever device stage 2 uploaded to. Buffer ownership is encoded in the
//! stream item *type* ([`OffloadResident<O>`]): a CUDA stage 4 can only
//! ever receive CUDA buffers, so a "wrong buffer flavour" handoff is
//! unrepresentable.
//!
//! Every GPU path fails soft, and the recovery ladder (retry per the
//! default [`fastflow::FaultPolicy`], OOM halving, CPU fallback) is *not
//! implemented here*: the generic [`workload::WorkloadDriver`] owns every
//! rung. The host rungs are byte-identical, so a faulty run still produces
//! the exact sequential archive, and a context without a [`GpuSystem`]
//! ([`BackendCtx::cpu`], the paper's SPar CPU-only version) runs every
//! batch on them. `gpu: None` on a stream item means "this batch is not
//! device-resident; compress it on the host".
//!
//! `batched = false` reproduces the paper's first, slow integration: one
//! kernel launch per block instead of per batch — "the GPU kernel function
//! has been invoked too many times without using efficiently the GPU
//! resources" (§IV-B). Only the launches differ: uploads, the bulk
//! read-back after the launch loop (n tiny D2H transfers would cost n
//! fixed latencies for the same bytes) and the recovery ladder are shared
//! with the batched path.

use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

use fastflow::{recycler, BufPool, PooledBuf, Recycler};
use gpusim::{GpuSystem, Offload, OutOfMemory, PinnedSlab};
use telemetry::Recorder;
use workload::{Workload, WorkloadFault};

use crate::archive::{BatchRecords, BlockEntry};
use crate::batch::Batch;
use crate::dedupe::BlockClass;
use crate::kernels::{FindMatchBlockKernel, FindMatchKernel, Sha1BlockKernel, Sha1Kernel};
use crate::lzss::{encode_shorter, encode_shorter_from_matches, LzssConfig, MatchFinder};
use crate::sha1::Digest;
use crate::sha1mb::sha1_each;

const BLOCK_1D: u32 = 256;

/// Stage labels used for fault events (matching the Fig. 3 pipeline's
/// telemetry stage names, so trace viewers pin them to the right row).
const HASH_STAGE: &str = "stage1 (hash)";
const COMPRESS_STAGE: &str = "stage3 (compress)";

/// Configuration shared by both stages of one pipeline run — the
/// description [`HashWork`] and [`CompressWork`] are built from.
#[derive(Clone)]
pub struct BackendCtx {
    /// The simulated GPU system (absent for a host-only run).
    pub system: Option<Arc<GpuSystem>>,
    /// Devices to spread batches over.
    pub n_gpus: usize,
    /// Use the batched kernels (the optimization) or per-block launches.
    pub batched: bool,
    /// Codec parameters.
    pub lzss: LzssConfig,
    /// Shared digest buffer pool: every stage-2 replica acquires its
    /// per-batch digest array here and the sink's drop returns it, so the
    /// steady state recycles a handful of arrays instead of allocating
    /// one per batch. Slabs are page-locked for their pooled lifetime
    /// ([`workload::pinned_pool`]), so digests DMA straight into them.
    /// One pool serves the whole process, so a run starts on the arrays
    /// the previous one returned.
    pub digests: BufPool<Digest>,
    /// Shared pool for stage-4 per-position match arrays (lens/offs),
    /// likewise pinned so the match kernel's read-backs are zero-copy,
    /// and likewise one per process.
    pub matches: BufPool<u32>,
    /// Stage 4's arenas: each batch's stored bytes are built in one taken
    /// from here and given back once the batch's records hold their
    /// exact-size copy. One per process, like the pools.
    pub arenas: Recycler<Vec<u8>>,
}

/// The process-wide pool behind every context's [`BackendCtx::digests`].
fn digest_pool() -> BufPool<Digest> {
    static POOL: OnceLock<BufPool<Digest>> = OnceLock::new();
    POOL.get_or_init(workload::pinned_pool).clone()
}

/// The process-wide pool behind every context's [`BackendCtx::matches`].
fn match_pool() -> BufPool<u32> {
    static POOL: OnceLock<BufPool<u32>> = OnceLock::new();
    POOL.get_or_init(workload::pinned_pool).clone()
}

/// Stage-4 arenas a process keeps: one per replica busy encoding.
const ARENAS: usize = 16;

/// The process-wide recycler behind every context's
/// [`BackendCtx::arenas`].
fn arena_pool() -> Recycler<Vec<u8>> {
    static ARENA_POOL: OnceLock<Recycler<Vec<u8>>> = OnceLock::new();
    ARENA_POOL.get_or_init(|| recycler(ARENAS)).clone()
}

impl BackendCtx {
    /// Host-only context: every batch runs on the stages' host rungs.
    pub fn cpu(lzss: LzssConfig) -> Self {
        BackendCtx {
            system: None,
            n_gpus: 0,
            batched: true,
            lzss,
            digests: digest_pool(),
            matches: match_pool(),
            arenas: arena_pool(),
        }
    }

    /// GPU context over `n_gpus` devices of `system`.
    pub fn gpu(system: Arc<GpuSystem>, n_gpus: usize, batched: bool, lzss: LzssConfig) -> Self {
        assert!(n_gpus >= 1 && n_gpus <= system.device_count());
        BackendCtx {
            system: Some(system),
            n_gpus,
            batched,
            lzss,
            digests: digest_pool(),
            matches: match_pool(),
            arenas: arena_pool(),
        }
    }
}

/// `OffloadBackend<CudaOffload>` is `CudaOffload`: the old name of
/// [`run_pipeline`](crate::run_pipeline)'s type argument, kept only for
/// the call at `benchmark/src/workloads/dedup_gpu.rs:80`.
pub type OffloadBackend<O> = O;

/// Item emitted by stage 2. `gpu: None` means the batch is host-only (a
/// host-only run, or a batch whose stage 2 fell back or re-split).
pub struct HashedBatch<O: Offload> {
    /// The batch (a view of the run's input).
    pub batch: Batch,
    /// SHA-1 per block, in a pooled buffer that returns to
    /// [`BackendCtx::digests`] when the consumer drops it.
    pub digests: PooledBuf<Digest>,
    /// Device-resident data, if this batch made it onto a device.
    pub gpu: Option<OffloadResident<O>>,
}

/// Item emitted by stage 3: stage 4's [`Workload::Item`].
pub struct ClassifiedBatch<O: Offload> {
    /// The batch (a view of the run's input).
    pub batch: Batch,
    /// Unique/dup class per block.
    pub classes: Vec<BlockClass>,
    /// Device-resident data, forwarded from stage 2.
    pub gpu: Option<OffloadResident<O>>,
}

/// Host implementation of stage 2: `out[b]` is the digest of block `b`,
/// eight blocks per pass through the routine `Sha1Kernel` runs.
fn cpu_digests(batch: &Batch, out: &mut [Digest]) {
    sha1_each(out.len(), |b| batch.block(b), |b, digest| out[b] = digest);
}

/// One batch's records, in one arena from `arenas`: a duplicate block by
/// reference, a unique block `b` as what `encode(b, arena)` appends when
/// it returns `true` (an LZSS form shorter than the block), raw otherwise.
pub(crate) fn batch_entries(
    batch: &Batch,
    classes: &[BlockClass],
    arenas: &Recycler<Vec<u8>>,
    mut encode: impl FnMut(usize, &mut Vec<u8>) -> bool,
) -> Vec<BlockEntry> {
    let arena = arenas.take().unwrap_or_default();
    let mut records = BatchRecords::new(arena, classes.len(), batch.data().len());
    for (b, class) in classes.iter().enumerate() {
        match class {
            BlockClass::Unique { .. } => records.unique(batch.block(b), |out| encode(b, out)),
            BlockClass::Dup { of } => records.dup(*of),
        }
    }
    let (entries, arena) = records.finish();
    arenas.give(arena);
    entries
}

/// Host implementation of stage 4: one match finder searches every
/// unique block. Byte-identical to the GPU match-kernel encoding, so a
/// host batch still reproduces the sequential archive exactly.
fn cpu_entries(batch: &Batch, classes: &[BlockClass], ctx: &BackendCtx) -> Vec<BlockEntry> {
    let mut finder = MatchFinder::default();
    batch_entries(batch, classes, &ctx.arenas, |b, out| {
        encode_shorter(batch.block(b), &ctx.lzss, &mut finder, out)
    })
}

/// Encode a batch's unique blocks from its per-position matches.
pub(crate) fn entries_from_matches(
    batch: &Batch,
    classes: &[BlockClass],
    (lens, offs): (&[u32], &[u32]),
    lzss: &LzssConfig,
    arenas: &Recycler<Vec<u8>>,
) -> Vec<BlockEntry> {
    batch_entries(batch, classes, arenas, |b, out| {
        let r = batch.block_range(b);
        let block = &batch.data()[r.clone()];
        encode_shorter_from_matches(block, &lens[r.clone()], &offs[r], lzss, out)
    })
}

/// Device-resident batch data produced by stage 2 ([`HashWork`]). Owning
/// the concrete `O::Buffer` types means stage 4 cannot receive buffers
/// from a different offload implementation.
pub struct OffloadResident<O: Offload> {
    device: usize,
    d_data: O::Buffer<u8>,
    d_starts: O::Buffer<u32>,
}

/// One stage replica's device state, the [`Workload::Gpu`] of both
/// [`HashWork`] and [`CompressWork`]: the replica's preferred device, the
/// lazily-attached per-device lanes (stage 4 must target whatever device
/// stage 2 uploaded to) and the reused `usize → u32` starts-conversion
/// scratch.
pub struct DedupGpu<O: Offload> {
    system: Arc<GpuSystem>,
    device: usize,
    lanes: Vec<Option<Lane<O>>>,
    starts_scratch: Vec<u32>,
}

impl<O: Offload> DedupGpu<O> {
    /// Replica `replica`'s state under `ctx`, preferring device
    /// `replica % n_gpus`. No device is touched until a lane is used.
    fn attach(ctx: &BackendCtx, replica: usize) -> Self {
        let system = ctx.system.as_ref().expect("attaching needs a GpuSystem");
        DedupGpu {
            system: Arc::clone(system),
            device: replica % ctx.n_gpus,
            lanes: (0..ctx.n_gpus).map(|_| None).collect(),
            starts_scratch: Vec::new(),
        }
    }
}

/// Per-device state a [`DedupGpu`] keeps across batches: the offloader
/// plus the recycled device scratch. There is no host-side staging: the
/// source/destination memory itself (the batch's range of the run's
/// input, the starts scratch, the pooled digest/match arrays) is pinned
/// and transferred from/into.
struct Lane<O: Offload> {
    off: O,
    /// Recycled device scratch for stage outputs. Unlike `d_data` /
    /// `d_starts` (which travel downstream inside [`OffloadResident`]
    /// and are churned through the device-side allocation cache), these
    /// never leave the lane, so they are kept and grown in place.
    d_out: Option<O::Buffer<u8>>,
    d_len: Option<O::Buffer<u32>>,
    d_off: Option<O::Buffer<u32>>,
}

impl<O: Offload> Lane<O> {
    fn new(system: &Arc<GpuSystem>, device: usize) -> Self {
        Lane {
            off: O::attach(system, device),
            d_out: None,
            d_len: None,
            d_off: None,
        }
    }
}

/// A pooled digest array viewed as its raw bytes, so the device's
/// 20-byte-per-block digest stream can DMA directly into it.
fn digest_bytes_mut(digests: &mut [Digest]) -> &mut [u8] {
    // SAFETY: `Digest` is `repr(transparent)` over `[u8; 20]` — same
    // layout, no padding, every bit pattern valid.
    unsafe { std::slice::from_raw_parts_mut(digests.as_mut_ptr().cast::<u8>(), digests.len() * 20) }
}

/// The lazily-attached lane for `device`. A free function over the split
/// fields (not a method) so callers keep disjoint borrows of the other
/// [`DedupGpu`] fields while the lane is held.
fn lane_mut<'a, O: Offload>(
    lanes: &'a mut [Option<Lane<O>>],
    system: &Arc<GpuSystem>,
    device: usize,
) -> &'a mut Lane<O> {
    lanes[device].get_or_insert_with(|| Lane::new(system, device))
}

/// Grow-only device scratch: reallocate `slot` only when it cannot hold
/// `len` elements, freeing the old buffer first (its storage returns to
/// the device allocation cache). Sizes round up to powers of two so a
/// lane's scratch stabilizes after warmup.
fn ensure_dev<O: Offload, T: Default + Clone + Send + 'static>(
    off: &mut O,
    slot: &mut Option<O::Buffer<T>>,
    len: usize,
) -> Result<(), OutOfMemory> {
    let have = slot.as_ref().map_or(0, |b| O::buffer_len(b));
    if have < len.max(1) {
        *slot = None;
        *slot = Some(off.try_alloc(len.max(1).next_power_of_two())?);
    }
    Ok(())
}

/// Stage 2 (hashing) declared as a [`Workload`]. The device path keeps
/// the batch resident for stage 4; the OOM rung re-hashes recursively
/// halved block ranges as standalone sub-batches (residency is lost, so
/// stage 4 goes host-side for that batch); the host rung runs the
/// kernel's own eight-lane [`sha1_each`].
pub struct HashWork<O: Offload> {
    ctx: BackendCtx,
    _off: PhantomData<fn() -> O>,
}

impl<O: Offload> Clone for HashWork<O> {
    fn clone(&self) -> Self {
        Self::new(&self.ctx)
    }
}

impl<O: Offload> HashWork<O> {
    /// Build the stage-2 workload from a pipeline context.
    pub fn new(ctx: &BackendCtx) -> Self {
        HashWork {
            ctx: ctx.clone(),
            _off: PhantomData,
        }
    }

    /// Upload blocks `lo..hi` as a standalone device batch and hash them
    /// into `out`. Zero-copy in both directions: the source bytes and the
    /// starts scratch are page-locked in place and uploaded as-is, and the
    /// digest stream DMAs straight into `out` — a window of the pooled
    /// (already-pinned) digest array, so the whole halving recursion fills
    /// one buffer. Only `d_data` / `d_starts` are per-batch device
    /// allocations, device-cache hits after warmup; they are returned so a
    /// full-batch caller can keep the batch resident for stage 4.
    fn hash_range(
        &self,
        gpu: &mut DedupGpu<O>,
        batch: &Batch,
        lo: usize,
        hi: usize,
        out: &mut [Digest],
    ) -> Result<OffloadResident<O>, WorkloadFault> {
        let device = gpu.device;
        let base = batch.block_range(lo).start;
        let end = batch.block_range(hi - 1).end;
        let data = &batch.data()[base..end];
        let n = hi - lo;
        gpu.starts_scratch.clear();
        gpu.starts_scratch
            .extend(batch.starts[lo..hi].iter().map(|&s| (s - base) as u32));
        // Per-batch pins for the two host sources.
        let _pin_data = PinnedSlab::register(data);
        let _pin_starts = PinnedSlab::register(&gpu.starts_scratch[..]);
        let lane = lane_mut(&mut gpu.lanes, &gpu.system, device);
        let d_data: O::Buffer<u8> = lane.off.try_alloc(data.len())?;
        let d_starts: O::Buffer<u32> = lane.off.try_alloc(n)?;
        ensure_dev(&mut lane.off, &mut lane.d_out, n * 20)?;
        let d_out = lane.d_out.as_ref().expect("ensured above");
        lane.off.h2d(&d_data, data);
        lane.off.h2d(&d_starts, &gpu.starts_scratch);
        if self.ctx.batched {
            lane.off.try_launch(
                Sha1Kernel {
                    data: O::buffer_ptr(&d_data),
                    starts: O::buffer_ptr(&d_starts),
                    data_len: data.len(),
                    n_blocks: n,
                    out: O::buffer_ptr(d_out),
                },
                n as u64,
                64,
            )?;
        } else {
            for b in lo..hi {
                let r = batch.block_range(b);
                lane.off.try_launch(
                    Sha1BlockKernel {
                        data: O::buffer_ptr(&d_data),
                        start: r.start - base,
                        end: r.end - base,
                        out: O::buffer_ptr(d_out),
                        slot: b - lo,
                    },
                    32,
                    32,
                )?;
            }
        }
        lane.off.d2h(d_out, digest_bytes_mut(out));
        lane.off.sync();
        Ok(OffloadResident {
            device,
            d_data,
            d_starts,
        })
    }
}

impl<O: Offload> Workload for HashWork<O> {
    type Item = Batch;
    /// A pooled digest array plus the device residency (`None` when the
    /// batch never made it — or stopped being — device-resident).
    type Batch = (PooledBuf<Digest>, Option<OffloadResident<O>>);
    type Gpu = DedupGpu<O>;

    fn stage_label(&self) -> &'static str {
        HASH_STAGE
    }

    fn describe(&self, item: &Batch) -> String {
        format!("batch {}", item.index)
    }

    fn attach(&self, replica: usize) -> DedupGpu<O> {
        DedupGpu::attach(&self.ctx, replica)
    }

    fn make_batch(&self, item: &Batch) -> Self::Batch {
        (self.ctx.digests.acquire(item.block_count()), None)
    }

    fn try_gpu_batch(
        &self,
        gpu: &mut DedupGpu<O>,
        item: &Batch,
        out: &mut Self::Batch,
    ) -> Result<(), WorkloadFault> {
        out.1 = Some(self.hash_range(gpu, item, 0, item.block_count(), &mut out.0)?);
        Ok(())
    }

    fn split_units(&self, item: &Batch) -> usize {
        item.block_count()
    }

    fn try_gpu_split(
        &self,
        gpu: &mut DedupGpu<O>,
        item: &Batch,
        lo: usize,
        hi: usize,
        out: &mut Self::Batch,
    ) -> Result<(), WorkloadFault> {
        // Residency is lost on the split path: stage 4 goes host-side.
        out.1 = None;
        self.hash_range(gpu, item, lo, hi, &mut out.0[lo..hi])?;
        Ok(())
    }

    fn cpu_batch(&self, item: &Batch, out: &mut Self::Batch) {
        out.1 = None;
        cpu_digests(item, &mut out.0);
    }

    fn register_telemetry(&self, rec: &Recorder) {
        rec.register(&["dedup.digests"], self.ctx.digests.counters());
    }
}

/// Stage 4 (compression) declared as a [`Workload`]. The device path runs
/// the match kernel over the still-resident batch; the host rung encodes
/// from byte-identical match semantics, so a fallen-back batch still
/// reproduces the sequential archive exactly. Not splittable: the match
/// kernel reads the whole resident buffer, so an OOM (device scratch) is
/// retried like a transient and then degraded. Only device-resident items
/// may take the device path; the rest go to the host rung directly.
pub struct CompressWork<O: Offload> {
    ctx: BackendCtx,
    _off: PhantomData<fn() -> O>,
}

impl<O: Offload> Clone for CompressWork<O> {
    fn clone(&self) -> Self {
        Self::new(&self.ctx)
    }
}

impl<O: Offload> CompressWork<O> {
    /// Build the stage-4 workload from a pipeline context.
    pub fn new(ctx: &BackendCtx) -> Self {
        CompressWork {
            ctx: ctx.clone(),
            _off: PhantomData,
        }
    }

    /// Stage-4 match kernel over a device-resident batch. The
    /// per-position match arrays come from the shared pinned pool and
    /// the kernel's results DMA straight into them; the device scratch is
    /// recycled via [`ensure_dev`]. Neither is zeroed, and neither needs
    /// to be: the batched kernel writes every position below `data_len`,
    /// and the per-block launches skip only duplicate blocks, whose
    /// positions [`entries_from_matches`] never reads.
    fn compress_on_device(
        &self,
        gpu: &mut DedupGpu<O>,
        batch: &Batch,
        classes: &[BlockClass],
        res: &OffloadResident<O>,
    ) -> Result<(PooledBuf<u32>, PooledBuf<u32>), WorkloadFault> {
        let len = batch.data().len();
        let mut lens = self.ctx.matches.acquire(len);
        let mut offs = self.ctx.matches.acquire(len);
        // The data lives on whatever device stage 2 used.
        let lane = lane_mut(&mut gpu.lanes, &gpu.system, res.device);
        ensure_dev(&mut lane.off, &mut lane.d_len, len)?;
        ensure_dev(&mut lane.off, &mut lane.d_off, len)?;
        let d_len = lane.d_len.as_ref().expect("ensured above");
        let d_off = lane.d_off.as_ref().expect("ensured above");
        if self.ctx.batched {
            lane.off.try_launch(
                FindMatchKernel {
                    data: O::buffer_ptr(&res.d_data),
                    data_len: len,
                    starts: O::buffer_ptr(&res.d_starts),
                    n_blocks: batch.block_count(),
                    matches_len: O::buffer_ptr(d_len),
                    matches_off: O::buffer_ptr(d_off),
                    cfg: self.ctx.lzss,
                },
                len as u64,
                BLOCK_1D,
            )?;
        } else {
            for (b, class) in classes.iter().enumerate() {
                if matches!(class, BlockClass::Dup { .. }) {
                    continue;
                }
                let r = batch.block_range(b);
                lane.off.try_launch(
                    FindMatchBlockKernel {
                        data: O::buffer_ptr(&res.d_data),
                        start: r.start,
                        end: r.end,
                        matches_len: O::buffer_ptr(d_len),
                        matches_off: O::buffer_ptr(d_off),
                        cfg: self.ctx.lzss,
                    },
                    (r.end - r.start) as u64,
                    BLOCK_1D,
                )?;
            }
        }
        lane.off.d2h(d_len, &mut lens);
        lane.off.d2h(d_off, &mut offs);
        lane.off.sync();
        Ok((lens, offs))
    }
}

impl<O: Offload> Workload for CompressWork<O> {
    type Item = ClassifiedBatch<O>;
    type Batch = Vec<BlockEntry>;
    type Gpu = DedupGpu<O>;

    fn stage_label(&self) -> &'static str {
        COMPRESS_STAGE
    }

    fn describe(&self, item: &Self::Item) -> String {
        format!("batch {}", item.batch.index)
    }

    fn attach(&self, replica: usize) -> DedupGpu<O> {
        DedupGpu::attach(&self.ctx, replica)
    }

    fn make_batch(&self, _item: &Self::Item) -> Vec<BlockEntry> {
        Vec::new()
    }

    fn try_gpu_batch(
        &self,
        gpu: &mut DedupGpu<O>,
        item: &Self::Item,
        out: &mut Vec<BlockEntry>,
    ) -> Result<(), WorkloadFault> {
        let res = item
            .gpu
            .as_ref()
            .expect("only device-resident batches take the device path");
        let (lens, offs) = self.compress_on_device(gpu, &item.batch, &item.classes, res)?;
        *out = entries_from_matches(
            &item.batch,
            &item.classes,
            (&lens, &offs),
            &self.ctx.lzss,
            &self.ctx.arenas,
        );
        Ok(())
    }

    fn cpu_batch(&self, item: &Self::Item, out: &mut Vec<BlockEntry>) {
        *out = cpu_entries(&item.batch, &item.classes, &self.ctx);
    }

    fn register_telemetry(&self, rec: &Recorder) {
        rec.register(&["dedup.matches"], self.ctx.matches.counters());
    }
}
