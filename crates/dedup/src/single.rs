//! Single-host-thread GPU drivers for Dedup (Fig. 5's plain "CUDA" and
//! "OpenCL" bars), with the 1×/2× memory-space variants.
//!
//! The flow per batch: upload data+starts → SHA-1 kernel → read digests →
//! classify (serial, global cache) → FindMatch kernel(s) → read matches →
//! encode on CPU → append records. With `mem_spaces ≥ 2`, consecutive
//! batches use alternating buffer/queue sets, so adjacent batches' device
//! work can overlap — *if* the copies are asynchronous:
//!
//! * the **CUDA** version inherits Dedup's `realloc`-managed (pageable)
//!   host buffers, so every `cudaMemcpyAsync` degrades to a synchronous
//!   copy and 2× memory spaces buy nothing (§V-B);
//! * the **OpenCL** version enqueues non-blocking reads/writes with
//!   events, so 2× memory spaces do help — exactly the asymmetry Fig. 5
//!   shows.
//!
//! CPU-side work (rabin, classify, encode, write) advances the virtual
//! host clock via the [`HostCosts`] model.

use std::sync::Arc;

use gpusim::cuda::{Cuda, CudaBuffer, CudaStream};
use gpusim::opencl::{ClBuffer, ClEvent, ClKernel, CommandQueue, Context, Platform};
use gpusim::GpuSystem;
use simtime::{SimDuration, SimTime};

use fastflow::{recycler, Recycler};

use crate::archive::Archive;
use crate::backend::entries_from_matches;
use crate::batch::{make_batches, Batch};
use crate::costs::HostCosts;
use crate::dedupe::{BlockClass, DedupCache};
use crate::kernels::{FindMatchKernel, Sha1Kernel};
use crate::pipeline::DedupConfig;
use crate::sha1::Digest;

const BLOCK_1D: u32 = 256;

fn starts_u32(batch: &Batch) -> Vec<u32> {
    batch.starts.iter().map(|&s| s as u32).collect()
}

fn classify_all(
    cache: &mut DedupCache,
    digests: &[Digest],
    system: &GpuSystem,
    costs: &HostCosts,
) -> Vec<BlockClass> {
    system.host_compute(costs.classify(digests.len() as u64));
    digests.iter().map(|&d| cache.classify(d)).collect()
}

fn encode_entries(
    batch: &Batch,
    classes: &[BlockClass],
    (lens, offs): (&[u32], &[u32]),
    cfg: &DedupConfig,
    arenas: &Recycler<Vec<u8>>,
    system: &GpuSystem,
    costs: &HostCosts,
) -> Vec<crate::archive::BlockEntry> {
    system.host_compute(costs.encode(batch.data().len() as u64));
    entries_from_matches(batch, classes, (lens, offs), &cfg.lzss, arenas)
}

struct CudaSpace {
    stream: CudaStream,
    d_data: CudaBuffer<u8>,
    d_starts: CudaBuffer<u32>,
    d_digests: CudaBuffer<u8>,
    d_len: CudaBuffer<u32>,
    d_off: CudaBuffer<u32>,
}

/// Single-threaded CUDA Dedup. Returns the archive and the modeled run
/// time.
pub fn run_single_cuda(
    system: &Arc<GpuSystem>,
    input: &[u8],
    cfg: &DedupConfig,
    mem_spaces: usize,
) -> (Archive, SimDuration) {
    assert!(mem_spaces >= 1);
    system.reset_clock();
    let costs = HostCosts::default();
    let cuda = Cuda::new(Arc::clone(system));
    cuda.set_device(0);
    let max_blocks = cfg.batch_size; // upper bound on starts per batch
    let spaces: Vec<CudaSpace> = (0..mem_spaces)
        .map(|_| CudaSpace {
            stream: cuda.stream_create(),
            d_data: cuda.malloc(cfg.batch_size).expect("mem"),
            d_starts: cuda.malloc(max_blocks / 64 + 2).expect("mem"),
            d_digests: cuda.malloc(cfg.batch_size / 16 + 32).expect("mem"),
            d_len: cuda.malloc(cfg.batch_size).expect("mem"),
            d_off: cuda.malloc(cfg.batch_size).expect("mem"),
        })
        .collect();

    // S1: batching + rabin on the CPU.
    system.host_compute(costs.rabin(input.len() as u64));
    let batches = make_batches(input, cfg.batch_size, &cfg.rabin);
    let arenas = recycler(1);

    let mut cache = DedupCache::new();
    let mut archive = Archive::new(cfg.lzss);
    for batch in &batches {
        let space = &spaces[batch.index % mem_spaces];
        let n = batch.block_count();
        // Pageable copies: synchronous under CUDA semantics.
        cuda.memcpy_h2d_pageable(&space.d_data, 0, batch.data(), &space.stream);
        cuda.memcpy_h2d_pageable(&space.d_starts, 0, &starts_u32(batch), &space.stream);
        let k = Sha1Kernel {
            data: space.d_data.ptr(),
            starts: space.d_starts.ptr(),
            data_len: batch.data().len(),
            n_blocks: n,
            out: space.d_digests.ptr(),
        };
        cuda.launch(
            &k,
            (n as u64).div_ceil(64).max(1) as u32,
            64u32,
            &space.stream,
        );
        let mut raw = vec![0u8; n * 20];
        cuda.memcpy_d2h_pageable(&mut raw, &space.d_digests, 0, &space.stream);
        let digests: Vec<Digest> = raw
            .chunks_exact(20)
            .map(|c| Digest(c.try_into().expect("20")))
            .collect();
        let classes = classify_all(&mut cache, &digests, system, &costs);

        let fm = FindMatchKernel {
            data: space.d_data.ptr(),
            data_len: batch.data().len(),
            starts: space.d_starts.ptr(),
            n_blocks: n,
            matches_len: space.d_len.ptr(),
            matches_off: space.d_off.ptr(),
            cfg: cfg.lzss,
        };
        let blocks = (batch.data().len() as u64).div_ceil(BLOCK_1D as u64).max(1) as u32;
        cuda.launch(&fm, blocks, BLOCK_1D, &space.stream);
        let mut lens = vec![0u32; batch.data().len()];
        let mut offs = vec![0u32; batch.data().len()];
        cuda.memcpy_d2h_pageable(&mut lens, &space.d_len, 0, &space.stream);
        cuda.memcpy_d2h_pageable(&mut offs, &space.d_off, 0, &space.stream);
        cuda.stream_synchronize(&space.stream);
        let entries = encode_entries(
            batch,
            &classes,
            (&lens, &offs),
            cfg,
            &arenas,
            system,
            &costs,
        );
        archive.entries.extend(entries);
    }
    system.host_compute(costs.write(archive.serialized_len() as u64));
    cuda.device_synchronize();
    (archive, system.host_now().since(SimTime::ZERO))
}

struct OclSpace {
    queue: CommandQueue,
    d_data: ClBuffer<u8>,
    d_starts: ClBuffer<u32>,
    d_digests: ClBuffer<u8>,
    d_len: ClBuffer<u32>,
    d_off: ClBuffer<u32>,
    // Deferred compression state (overlapped across batches).
    pending: Option<PendingBatch>,
}

struct PendingBatch {
    batch: Batch,
    classes: Vec<BlockClass>,
    lens: Vec<u32>,
    offs: Vec<u32>,
    read_evs: [ClEvent; 2],
}

/// Single-threaded OpenCL Dedup. Non-blocking enqueues + events let the
/// `mem_spaces = 2` variant overlap adjacent batches, as in Fig. 5.
pub fn run_single_ocl(
    system: &Arc<GpuSystem>,
    input: &[u8],
    cfg: &DedupConfig,
    mem_spaces: usize,
) -> (Archive, SimDuration) {
    assert!(mem_spaces >= 1);
    system.reset_clock();
    let costs = HostCosts::default();
    let platform = Platform::new(Arc::clone(system));
    let ids = platform.device_ids();
    let ctx = Context::create(&platform, &ids[..1]);
    let dev = ids[0];
    let mut spaces: Vec<OclSpace> = (0..mem_spaces)
        .map(|_| OclSpace {
            queue: ctx.create_queue(dev),
            d_data: ctx.create_buffer(dev, cfg.batch_size).expect("mem"),
            d_starts: ctx
                .create_buffer(dev, cfg.batch_size / 64 + 2)
                .expect("mem"),
            d_digests: ctx
                .create_buffer(dev, cfg.batch_size / 16 + 32)
                .expect("mem"),
            d_len: ctx.create_buffer(dev, cfg.batch_size).expect("mem"),
            d_off: ctx.create_buffer(dev, cfg.batch_size).expect("mem"),
            pending: None,
        })
        .collect();

    system.host_compute(costs.rabin(input.len() as u64));
    let batches = make_batches(input, cfg.batch_size, &cfg.rabin);
    let arenas = recycler(1);

    let mut cache = DedupCache::new();
    let mut archive = Archive::new(cfg.lzss);
    let finish_pending = |space: &mut OclSpace, archive: &mut Archive| {
        if let Some(p) = space.pending.take() {
            ctx.wait_for_events(&p.read_evs);
            let entries = encode_entries(
                &p.batch,
                &p.classes,
                (&p.lens, &p.offs),
                cfg,
                &arenas,
                system,
                &costs,
            );
            archive.entries.extend(entries);
        }
    };

    for batch in batches {
        let slot = batch.index % mem_spaces;
        // Retire the batch previously using this space (keeps order: slots
        // are visited round-robin).
        {
            let space = &mut spaces[slot];
            finish_pending(space, &mut archive);
        }
        let space = &mut spaces[slot];
        let n = batch.block_count();
        let w1 = space
            .queue
            .enqueue_write_buffer(&space.d_data, false, 0, batch.data(), &[]);
        let w2 =
            space
                .queue
                .enqueue_write_buffer(&space.d_starts, false, 0, &starts_u32(&batch), &[]);
        let sha = ClKernel::create(Sha1Kernel {
            data: space.d_data.ptr(),
            starts: space.d_starts.ptr(),
            data_len: batch.data().len(),
            n_blocks: n,
            out: space.d_digests.ptr(),
        });
        let k1 = space.queue.enqueue_nd_range(
            &sha,
            (n as u64).next_multiple_of(64).max(64),
            64,
            &[w1, w2],
        );
        let mut raw = vec![0u8; n * 20];
        let r1 = space
            .queue
            .enqueue_read_buffer(&space.d_digests, false, 0, &mut raw, &[k1]);
        // Classification is globally serial: must wait for this batch's
        // digests before the cache can advance.
        ctx.wait_for_events(&[r1]);
        let digests: Vec<Digest> = raw
            .chunks_exact(20)
            .map(|c| Digest(c.try_into().expect("20")))
            .collect();
        let classes = classify_all(&mut cache, &digests, system, &costs);

        let fm = ClKernel::create(FindMatchKernel {
            data: space.d_data.ptr(),
            data_len: batch.data().len(),
            starts: space.d_starts.ptr(),
            n_blocks: n,
            matches_len: space.d_len.ptr(),
            matches_off: space.d_off.ptr(),
            cfg: cfg.lzss,
        });
        let global = (batch.data().len() as u64)
            .next_multiple_of(BLOCK_1D as u64)
            .max(BLOCK_1D as u64);
        let k2 = space.queue.enqueue_nd_range(&fm, global, BLOCK_1D, &[]);
        let mut lens = vec![0u32; batch.data().len()];
        let mut offs = vec![0u32; batch.data().len()];
        let r2 = space
            .queue
            .enqueue_read_buffer(&space.d_len, false, 0, &mut lens, &[k2]);
        let r3 = space
            .queue
            .enqueue_read_buffer(&space.d_off, false, 0, &mut offs, &[k2]);
        // Defer the encode until this space is needed again: the reads stay
        // in flight while the next batch is uploaded on the other space.
        space.pending = Some(PendingBatch {
            batch,
            classes,
            lens,
            offs,
            read_evs: [r2, r3],
        });
    }
    // Drain remaining spaces in batch order.
    let mut order: Vec<usize> = (0..spaces.len()).collect();
    order.sort_by_key(|&s| {
        spaces[s]
            .pending
            .as_ref()
            .map_or(usize::MAX, |p| p.batch.index)
    });
    for s in order {
        finish_pending(&mut spaces[s], &mut archive);
    }
    system.host_compute(costs.write(archive.serialized_len() as u64));
    (archive, system.host_now().since(SimTime::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::pipeline::run_sequential;
    use crate::rabin::RabinParams;
    use gpusim::DeviceProps;

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
            lzss: crate::lzss::LzssConfig {
                window: 256,
                min_coded: 3,
            },
        }
    }

    fn sys() -> Arc<GpuSystem> {
        GpuSystem::new(1, DeviceProps::titan_xp())
    }

    #[test]
    fn single_cuda_matches_sequential() {
        let cfg = small_cfg();
        let data = datasets::parsec_like(60_000, 21).data;
        let seq = run_sequential(&data, &cfg);
        let system = sys();
        for spaces in [1, 2] {
            let (archive, t) = run_single_cuda(&system, &data, &cfg, spaces);
            assert_eq!(archive, seq, "spaces={spaces}");
            assert!(t > SimDuration::ZERO);
        }
    }

    #[test]
    fn single_ocl_matches_sequential() {
        let cfg = small_cfg();
        let data = datasets::parsec_like(60_000, 22).data;
        let seq = run_sequential(&data, &cfg);
        let system = sys();
        for spaces in [1, 2, 3] {
            let (archive, t) = run_single_ocl(&system, &data, &cfg, spaces);
            assert_eq!(archive, seq, "spaces={spaces}");
            assert!(t > SimDuration::ZERO);
        }
    }

    #[test]
    fn two_mem_spaces_help_opencl_but_not_cuda() {
        // The paper's §V-B asymmetry: async copies need pinned memory under
        // CUDA, and Dedup's realloc'd buffers are pageable.
        let cfg = small_cfg();
        let data = datasets::silesia_like(120_000, 23).data;
        let system = sys();
        let (_, cuda_1x) = run_single_cuda(&system, &data, &cfg, 1);
        let (_, cuda_2x) = run_single_cuda(&system, &data, &cfg, 2);
        let (_, ocl_1x) = run_single_ocl(&system, &data, &cfg, 1);
        let (_, ocl_2x) = run_single_ocl(&system, &data, &cfg, 2);
        let cuda_gain = cuda_1x.as_secs_f64() / cuda_2x.as_secs_f64();
        let ocl_gain = ocl_1x.as_secs_f64() / ocl_2x.as_secs_f64();
        assert!(
            ocl_gain > 1.01,
            "OpenCL must gain from 2x spaces: {ocl_gain:.3}"
        );
        assert!(
            cuda_gain < ocl_gain,
            "CUDA must gain less than OpenCL: cuda={cuda_gain:.3} ocl={ocl_gain:.3}"
        );
    }

    #[test]
    fn roundtrip_through_decompressor() {
        let cfg = small_cfg();
        let data = datasets::linux_like(50_000, 24).data;
        let system = sys();
        let (archive, _) = run_single_cuda(&system, &data, &cfg, 2);
        assert_eq!(archive.decompress().unwrap(), data);
    }
}
