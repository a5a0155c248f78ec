//! Single-host-thread GPU drivers: the Fig. 1 optimization ladder.
//!
//! Every driver returns the finished image plus the *modeled* wall time of
//! the run (virtual host clock from start to final synchronization). The
//! ladder, in the paper's order:
//!
//! 1. per-line kernels, 1-D grid ([`cuda_per_line`]);
//! 2. per-line kernels, 2-D grid ([`cuda_2d`]) — worse;
//! 3. batched lines, synchronous copies ([`cuda_batch`] / [`ocl_batch`]);
//! 4. batched + copy/compute overlap with `mem_spaces` pinned buffers in
//!    round-robin, optionally across multiple GPUs
//!    ([`cuda_overlap`] / [`ocl_overlap`]).

use std::sync::Arc;

use gpusim::cuda::{Cuda, CudaBuffer, CudaStream, PinnedBuf};
use gpusim::opencl::{ClBuffer, ClEvent, ClKernel, CommandQueue, Context, Platform};
use gpusim::{Dim3, GpuSystem};
use simtime::SimDuration;

use crate::core::{FractalParams, Image};
use crate::kernels::{BatchKernel, Line2DKernel, LineKernel, BLOCK_EDGE_2D};

/// Threads per block for the 1-D launches (the usual 256).
const BLOCK_1D: u32 = 256;

/// Host-side cost of staging results into the image (single-thread memcpy
/// plus driver bookkeeping, ~4 GB/s): the reason a single host thread
/// cannot keep two GPUs busy in Fig. 4 — pipeline versions overlap this
/// across workers, the GPU-only drivers serialize it.
const STAGING_NS_PER_BYTE: f64 = 0.25;

fn charge_staging(system: &Arc<GpuSystem>, bytes: usize) {
    system.host_compute(SimDuration::from_secs_f64(
        bytes as f64 * STAGING_NS_PER_BYTE * 1e-9,
    ));
}

fn finish(system: &Arc<GpuSystem>) -> SimDuration {
    system.host_now().since(simtime::SimTime::ZERO)
}

/// CUDA, one kernel + one synchronous copy per line (the naive port).
pub fn cuda_per_line(system: &Arc<GpuSystem>, params: &FractalParams) -> (Image, SimDuration) {
    system.reset_clock();
    let cuda = Cuda::new(Arc::clone(system));
    cuda.set_device(0);
    let stream = cuda.stream_create();
    let dev_line: CudaBuffer<u8> = cuda.malloc(params.dim).unwrap();
    let mut img = Image::new(params.dim);
    let mut host_line = vec![0u8; params.dim];
    let blocks = (params.dim as u32).div_ceil(BLOCK_1D);
    for row in 0..params.dim {
        let k = LineKernel {
            row,
            params: *params,
            img: dev_line.ptr(),
        };
        cuda.launch(&k, blocks, BLOCK_1D, &stream);
        cuda.memcpy_d2h_pageable(&mut host_line, &dev_line, 0, &stream);
        img.set_row(row, &host_line);
        charge_staging(system, params.dim);
    }
    cuda.stream_synchronize(&stream);
    (img, finish(system))
}

/// CUDA, per-line kernels with the 2-D grid/block organization — the
/// configuration the paper found *slower* than 1-D.
pub fn cuda_2d(system: &Arc<GpuSystem>, params: &FractalParams) -> (Image, SimDuration) {
    system.reset_clock();
    let cuda = Cuda::new(Arc::clone(system));
    cuda.set_device(0);
    let stream = cuda.stream_create();
    let dev_line: CudaBuffer<u8> = cuda.malloc(params.dim).unwrap();
    let mut img = Image::new(params.dim);
    let mut host_line = vec![0u8; params.dim];
    let blocks = (params.dim as u32).div_ceil(BLOCK_EDGE_2D);
    for row in 0..params.dim {
        let k = Line2DKernel {
            row,
            params: *params,
            img: dev_line.ptr(),
        };
        cuda.launch(
            &k,
            Dim3::x(blocks),
            Dim3::xy(BLOCK_EDGE_2D, BLOCK_EDGE_2D),
            &stream,
        );
        cuda.memcpy_d2h_pageable(&mut host_line, &dev_line, 0, &stream);
        img.set_row(row, &host_line);
        charge_staging(system, params.dim);
    }
    cuda.stream_synchronize(&stream);
    (img, finish(system))
}

/// CUDA, batched kernels (Listing 2) with synchronous pageable copies —
/// the "+ batch" bar of Fig. 1.
pub fn cuda_batch(
    system: &Arc<GpuSystem>,
    params: &FractalParams,
    batch_size: usize,
) -> (Image, SimDuration) {
    assert!(batch_size >= 1);
    system.reset_clock();
    let cuda = Cuda::new(Arc::clone(system));
    cuda.set_device(0);
    let stream = cuda.stream_create();
    let dev_batch: CudaBuffer<u8> = cuda.malloc(batch_size * params.dim).unwrap();
    let mut img = Image::new(params.dim);
    let mut host_batch = vec![0u8; batch_size * params.dim];
    let n_batches = params.dim.div_ceil(batch_size);
    for batch in 0..n_batches {
        let k = BatchKernel {
            first_row: batch * batch_size,
            rows: batch_size,
            params: *params,
            img: dev_batch.ptr(),
        };
        let lanes = (batch_size * params.dim) as u64;
        let blocks = lanes.div_ceil(BLOCK_1D as u64) as u32;
        cuda.launch(&k, blocks, BLOCK_1D, &stream);
        cuda.memcpy_d2h_pageable(&mut host_batch, &dev_batch, 0, &stream);
        let first = batch * batch_size;
        for r in 0..batch_size.min(params.dim - first) {
            img.set_row(first + r, &host_batch[r * params.dim..(r + 1) * params.dim]);
        }
        charge_staging(system, batch_size * params.dim);
    }
    cuda.stream_synchronize(&stream);
    (img, finish(system))
}

struct CudaSpace {
    device: usize,
    stream: CudaStream,
    dev_buf: CudaBuffer<u8>,
    pinned: PinnedBuf<u8>,
    in_flight: Option<usize>, // batch index awaiting collection
}

/// CUDA, batched kernels with asynchronous copies into `mem_spaces`
/// page-locked buffers, round-robin across `n_gpus` devices — the
/// "+ overlap / + 4× memory / multi-GPU" bars of Fig. 1.
///
/// `mem_spaces` is the *total* number of host memory spaces; they are dealt
/// to devices round-robin, so `mem_spaces = 2, n_gpus = 2` gives one space
/// per GPU (the paper's "2 GPUs 1× mem" point) and `4, 2` gives two each.
pub fn cuda_overlap(
    system: &Arc<GpuSystem>,
    params: &FractalParams,
    batch_size: usize,
    mem_spaces: usize,
    n_gpus: usize,
) -> (Image, SimDuration) {
    assert!(batch_size >= 1 && mem_spaces >= 1 && n_gpus >= 1);
    assert!(n_gpus <= system.device_count());
    system.reset_clock();
    let cuda = Cuda::new(Arc::clone(system));
    let mut spaces: Vec<CudaSpace> = (0..mem_spaces)
        .map(|s| {
            let device = s % n_gpus;
            cuda.set_device(device);
            CudaSpace {
                device,
                stream: cuda.stream_create(),
                dev_buf: cuda.malloc(batch_size * params.dim).unwrap(),
                pinned: cuda.host_alloc(batch_size * params.dim),
                in_flight: None,
            }
        })
        .collect();

    let mut img = Image::new(params.dim);
    let n_batches = params.dim.div_ceil(batch_size);
    let collect = |cuda: &Cuda, space: &mut CudaSpace, img: &mut Image| {
        if let Some(batch) = space.in_flight.take() {
            cuda.set_device(space.device);
            cuda.stream_synchronize(&space.stream);
            let first = batch * batch_size;
            for r in 0..batch_size.min(params.dim - first) {
                img.set_row(
                    first + r,
                    &space.pinned[r * params.dim..(r + 1) * params.dim],
                );
            }
            charge_staging(cuda.system(), batch_size * params.dim);
        }
    };

    for batch in 0..n_batches {
        let slot = batch % spaces.len();
        // Split borrow: collect needs &mut space and &mut img.
        {
            let space = &mut spaces[slot];
            collect(&cuda, space, &mut img);
            cuda.set_device(space.device);
            let k = BatchKernel {
                first_row: batch * batch_size,
                rows: batch_size,
                params: *params,
                img: space.dev_buf.ptr(),
            };
            let lanes = (batch_size * params.dim) as u64;
            let blocks = lanes.div_ceil(BLOCK_1D as u64) as u32;
            cuda.launch(&k, blocks, BLOCK_1D, &space.stream);
            cuda.memcpy_d2h_async(&mut space.pinned, &space.dev_buf, 0, &space.stream);
            space.in_flight = Some(batch);
        }
    }
    for space in &mut spaces {
        collect(&cuda, space, &mut img);
    }
    (img, finish(system))
}

/// OpenCL, batched kernels with blocking reads.
pub fn ocl_batch(
    system: &Arc<GpuSystem>,
    params: &FractalParams,
    batch_size: usize,
) -> (Image, SimDuration) {
    assert!(batch_size >= 1);
    system.reset_clock();
    let platform = Platform::new(Arc::clone(system));
    let ids = platform.device_ids();
    let ctx = Context::create(&platform, &ids[..1]);
    let queue = ctx.create_queue(ids[0]);
    let buf: ClBuffer<u8> = ctx.create_buffer(ids[0], batch_size * params.dim).unwrap();
    let mut img = Image::new(params.dim);
    let mut host_batch = vec![0u8; batch_size * params.dim];
    let n_batches = params.dim.div_ceil(batch_size);
    for batch in 0..n_batches {
        let kernel = ClKernel::create(BatchKernel {
            first_row: batch * batch_size,
            rows: batch_size,
            params: *params,
            img: buf.ptr(),
        });
        let lanes = ((batch_size * params.dim) as u64).next_multiple_of(BLOCK_1D as u64);
        let k_ev = queue.enqueue_nd_range(&kernel, lanes, BLOCK_1D, &[]);
        queue.enqueue_read_buffer(&buf, true, 0, &mut host_batch, &[k_ev]);
        let first = batch * batch_size;
        for r in 0..batch_size.min(params.dim - first) {
            img.set_row(first + r, &host_batch[r * params.dim..(r + 1) * params.dim]);
        }
        charge_staging(system, batch_size * params.dim);
    }
    queue.finish();
    (img, finish(system))
}

struct OclSpace {
    queue: CommandQueue,
    buf: ClBuffer<u8>,
    host: Vec<u8>,
    read_ev: Option<ClEvent>,
    in_flight: Option<usize>,
}

/// OpenCL, batched kernels with non-blocking reads and `mem_spaces` host
/// buffers across `n_gpus` devices (multiple `cl_command_queue`s +
/// `cl_event`s, as §IV-A describes).
pub fn ocl_overlap(
    system: &Arc<GpuSystem>,
    params: &FractalParams,
    batch_size: usize,
    mem_spaces: usize,
    n_gpus: usize,
) -> (Image, SimDuration) {
    assert!(batch_size >= 1 && mem_spaces >= 1 && n_gpus >= 1);
    assert!(n_gpus <= system.device_count());
    system.reset_clock();
    let platform = Platform::new(Arc::clone(system));
    let ids = platform.device_ids();
    let ctx = Context::create(&platform, &ids[..n_gpus]);
    let mut spaces: Vec<OclSpace> = (0..mem_spaces)
        .map(|s| {
            let dev = ids[s % n_gpus];
            OclSpace {
                queue: ctx.create_queue(dev),
                buf: ctx.create_buffer(dev, batch_size * params.dim).unwrap(),
                host: vec![0u8; batch_size * params.dim],
                read_ev: None,
                in_flight: None,
            }
        })
        .collect();

    let mut img = Image::new(params.dim);
    let n_batches = params.dim.div_ceil(batch_size);
    for batch in 0..n_batches {
        let slot = batch % spaces.len();
        let space = &mut spaces[slot];
        if let Some(prev) = space.in_flight.take() {
            ctx.wait_for_events(&[space.read_ev.take().expect("read event")]);
            let first = prev * batch_size;
            for r in 0..batch_size.min(params.dim - first) {
                img.set_row(first + r, &space.host[r * params.dim..(r + 1) * params.dim]);
            }
            charge_staging(system, batch_size * params.dim);
        }
        let kernel = ClKernel::create(BatchKernel {
            first_row: batch * batch_size,
            rows: batch_size,
            params: *params,
            img: space.buf.ptr(),
        });
        let lanes = ((batch_size * params.dim) as u64).next_multiple_of(BLOCK_1D as u64);
        let k_ev = space.queue.enqueue_nd_range(&kernel, lanes, BLOCK_1D, &[]);
        let r_ev = space
            .queue
            .enqueue_read_buffer(&space.buf, false, 0, &mut space.host, &[k_ev]);
        space.read_ev = Some(r_ev);
        space.in_flight = Some(batch);
    }
    for space in &mut spaces {
        if let Some(prev) = space.in_flight.take() {
            ctx.wait_for_events(&[space.read_ev.take().expect("read event")]);
            let first = prev * batch_size;
            for r in 0..batch_size.min(params.dim - first) {
                img.set_row(first + r, &space.host[r * params.dim..(r + 1) * params.dim]);
            }
            charge_staging(system, batch_size * params.dim);
        }
    }
    (img, finish(system))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::run_sequential;
    use gpusim::DeviceProps;

    fn small() -> FractalParams {
        FractalParams::view(48, 200)
    }

    fn sys(n: usize) -> Arc<GpuSystem> {
        GpuSystem::new(n, DeviceProps::titan_xp())
    }

    #[test]
    fn all_cuda_drivers_produce_the_sequential_image() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(2);
        for (name, img) in [
            ("per_line", cuda_per_line(&system, &p).0),
            ("2d", cuda_2d(&system, &p).0),
            ("batch", cuda_batch(&system, &p, 8).0),
            ("overlap-2", cuda_overlap(&system, &p, 8, 2, 1).0),
            ("overlap-4x2gpu", cuda_overlap(&system, &p, 8, 4, 2).0),
        ] {
            assert_eq!(img.digest(), seq.digest(), "cuda {name}");
        }
    }

    #[test]
    fn all_ocl_drivers_produce_the_sequential_image() {
        let p = small();
        let (seq, _) = run_sequential(&p);
        let system = sys(2);
        for (name, img) in [
            ("batch", ocl_batch(&system, &p, 8).0),
            ("overlap-2", ocl_overlap(&system, &p, 8, 2, 1).0),
            ("overlap-4x2gpu", ocl_overlap(&system, &p, 8, 4, 2).0),
        ] {
            assert_eq!(img.digest(), seq.digest(), "ocl {name}");
        }
    }

    #[test]
    fn batch_beats_per_line_in_modeled_time() {
        let p = FractalParams::view(128, 500);
        let system = sys(1);
        let (_, t_line) = cuda_per_line(&system, &p);
        let (_, t_batch) = cuda_batch(&system, &p, 32);
        assert!(
            t_batch.as_secs_f64() < t_line.as_secs_f64() / 2.0,
            "batching must amortize launch overhead: line={t_line} batch={t_batch}"
        );
    }

    #[test]
    fn two_d_grid_is_slower_than_one_d() {
        let p = FractalParams::view(128, 500);
        let system = sys(1);
        let (_, t_1d) = cuda_per_line(&system, &p);
        let (_, t_2d) = cuda_2d(&system, &p);
        assert!(t_2d > t_1d, "2D must be slower: 1d={t_1d} 2d={t_2d}");
    }

    #[test]
    fn overlap_beats_plain_batch() {
        let p = FractalParams::view(256, 2000);
        let system = sys(1);
        let (_, t_batch) = cuda_batch(&system, &p, 32);
        let (_, t_overlap) = cuda_overlap(&system, &p, 32, 2, 1);
        assert!(
            t_overlap < t_batch,
            "overlap: batch={t_batch} overlap={t_overlap}"
        );
    }

    #[test]
    fn second_gpu_helps() {
        let p = FractalParams::view(256, 2000);
        let system = sys(2);
        let (_, t1) = cuda_overlap(&system, &p, 32, 2, 1);
        let (_, t2) = cuda_overlap(&system, &p, 32, 4, 2);
        assert!(t2 < t1, "2 GPUs must beat 1: t1={t1} t2={t2}");
    }

    #[test]
    fn cuda_and_opencl_times_are_close() {
        let p = FractalParams::view(128, 500);
        let system = sys(1);
        let (_, tc) = cuda_batch(&system, &p, 16);
        let (_, to) = ocl_batch(&system, &p, 16);
        let ratio = tc.as_secs_f64() / to.as_secs_f64();
        assert!((0.5..2.0).contains(&ratio), "ratio={ratio}");
    }
}
