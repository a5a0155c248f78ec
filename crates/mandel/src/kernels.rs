//! GPU kernels for Mandelbrot Streaming, as [`gpusim`] kernel
//! implementations.
//!
//! Three variants reproduce the paper's optimization story:
//!
//! * [`LineKernel`] — the "logical way": one kernel per fractal line, one
//!   thread per column. Launch overhead dominates (3.1× speedup).
//! * [`Line2DKernel`] — the 2-D grid/block organization the paper tried
//!   next. We model it as 16×16 blocks per line where only `threadIdx.y==0`
//!   computes a pixel: many more, smaller blocks and mostly idle warps —
//!   *slower* than 1-D (1.6×), as the paper reports.
//! * [`BatchKernel`] — Listing 2: one kernel per batch of lines, one thread
//!   per pixel of the batch; this is the version all optimized drivers use,
//!   and the one the OOM-halving rung launches over half a batch.
//!
//! Per-lane work units are Mandelbrot iterations; warp time is the max over
//! lanes, so the set-interior/exterior divergence §IV-A worries about falls
//! straight out of the meter.
//!
//! The kernels differ only in which lanes hold which pixels. Every one of
//! them executes on the host through `core::shade_span` — a run of
//! contiguous lanes is a run of contiguous columns of one row, pushed
//! through [`crate::simd`] a tile at a time — and so does the CPU-fallback
//! rung in [`crate::hybrid`], which makes the two byte-identical by
//! construction.

use gpusim::{DeviceMemory, DevicePtr, KernelFn, LaunchDims, WorkMeter};

use crate::core::{shade_span, FractalParams};

/// Device cycles one Mandelbrot iteration costs a warp.
///
/// The paper's kernel computes in **double precision** (`double a, b, cr`
/// in Listings 1–2), and GP102 executes FP64 at 1/32 of FP32 rate (4 DP
/// units per SM). One iteration is ~5 dependent DP operations × 32 lanes
/// = 160 DP ops per warp-iteration, i.e. ~40 SM-cycles at 4 DP ops/cycle;
/// spread over the model's 4 warp execution slots that is 160 cycles per
/// slot. This single constant is what calibrates the whole Fig. 1 ladder:
/// with it, the modeled batch-32 / overlap / multi-GPU times land within
/// ~15% of the paper's measurements at paper scale.
pub const CYCLES_PER_ITER: f64 = 160.0;

/// Registers `nvcc` reports for the paper's kernel (§IV-A: "uses only 18
/// registers").
pub const MANDEL_REGS: u32 = 18;

/// The body of every one-thread-per-pixel launch: lane `r * dim + j`
/// computes pixel `(first_row + r, j)` into `img[r * dim + j]` for the
/// rows of `first_row..first_row + rows` inside the image (Listing 2's
/// `i < dim` guard); every other lane — tail-batch padding, `cover()`
/// slack — only pays its bounds check.
fn shade_rows(
    p: &FractalParams,
    first_row: usize,
    rows: usize,
    img: DevicePtr<u8>,
    dims: &LaunchDims,
    mem: &DeviceMemory,
    meter: &mut WorkMeter,
) {
    let mut img = mem.borrow_mut(img);
    let rows = rows.min(p.dim.saturating_sub(first_row));
    // A launch narrower than its rows computes only the lanes it has.
    let lanes = (rows * p.dim).min(dims.total_threads() as usize);
    for (r, line) in img[..lanes].chunks_mut(p.dim).enumerate() {
        let first_lane = (r * p.dim) as u64;
        shade_span(p, first_row + r, 0, line, |at, units| {
            meter.record_span(first_lane + at as u64, units)
        });
    }
    meter.record_fill(lanes as u64..dims.total_threads(), 1);
}

/// One kernel invocation per fractal line; thread `j` computes column `j`.
pub struct LineKernel {
    /// Row this launch computes.
    pub row: usize,
    /// Fractal geometry.
    pub params: FractalParams,
    /// Output: `dim` pixels.
    pub img: DevicePtr<u8>,
}

impl KernelFn for LineKernel {
    fn name(&self) -> &'static str {
        "mandel_line"
    }
    fn regs_per_thread(&self) -> u32 {
        MANDEL_REGS
    }
    fn cycles_per_unit(&self) -> f64 {
        CYCLES_PER_ITER
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        shade_rows(&self.params, self.row, 1, self.img, dims, mem, meter);
    }
}

/// The 2-D organization: same per-line output, but launched with 16×16
/// blocks where only the first block row computes pixels.
pub struct Line2DKernel {
    /// Row this launch computes.
    pub row: usize,
    /// Fractal geometry.
    pub params: FractalParams,
    /// Output: `dim` pixels.
    pub img: DevicePtr<u8>,
}

/// Block edge used by the 2-D variant.
pub const BLOCK_EDGE_2D: u32 = 16;

impl KernelFn for Line2DKernel {
    fn name(&self) -> &'static str {
        "mandel_line_2d"
    }
    fn regs_per_thread(&self) -> u32 {
        MANDEL_REGS
    }
    fn cycles_per_unit(&self) -> f64 {
        CYCLES_PER_ITER
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let p = &self.params;
        let mut img = mem.borrow_mut(self.img);
        let bx = dims.block.x as usize;
        let block_threads = dims.block_threads() as u64;
        // j = blockIdx.x * blockDim.x + threadIdx.x, and threads with
        // threadIdx.y != 0 have no pixel to compute: the first `bx` lanes
        // of each block are `bx` consecutive columns, the rest idle.
        for block in 0..dims.total_blocks() {
            let first_lane = block * block_threads;
            let first_col = (block as usize * bx).min(p.dim);
            let cols = bx.min(p.dim - first_col);
            let pixels = &mut img[first_col..first_col + cols];
            shade_span(p, self.row, first_col, pixels, |at, units| {
                meter.record_span(first_lane + at as u64, units)
            });
            meter.record_fill(first_lane + cols as u64..first_lane + block_threads, 1);
        }
    }
}

/// Listing 2: batch processing — one kernel per batch of lines, one
/// thread per pixel of the batch. The batch is any contiguous span of
/// rows: a whole batch on the happy path (`first_row = batch *
/// batch_size`, `rows = batch_size`), or one half of it on the OOM-halving
/// rung, launched into a buffer sized to its own rows.
pub struct BatchKernel {
    /// First image row of the span.
    pub first_row: usize,
    /// Rows in the span (32 saturates the Titan XP per §IV-A).
    pub rows: usize,
    /// Fractal geometry.
    pub params: FractalParams,
    /// Output: `rows * dim` pixels.
    pub img: DevicePtr<u8>,
}

impl KernelFn for BatchKernel {
    fn name(&self) -> &'static str {
        "mandel_kernel" // the paper's name
    }
    fn regs_per_thread(&self) -> u32 {
        MANDEL_REGS
    }
    fn cycles_per_unit(&self) -> f64 {
        CYCLES_PER_ITER
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        // Listing 2 lines 2-5: i = batch * batch_size + tid / dim (here
        // first_row + tid / dim), j = tid % dim, guarded by i < dim.
        shade_rows(
            &self.params,
            self.first_row,
            self.rows,
            self.img,
            dims,
            mem,
            meter,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::compute_line;
    use gpusim::{DeviceProps, GpuSystem, StreamId};
    use simtime::SimTime;

    fn params() -> FractalParams {
        FractalParams::view(64, 200)
    }

    #[test]
    fn line_kernel_matches_cpu_line() {
        let p = params();
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let dev = sys.device(0);
        let buf = dev.alloc::<u8>(p.dim).unwrap();
        let k = LineKernel {
            row: 20,
            params: p,
            img: buf,
        };
        dev.launch(
            StreamId::DEFAULT,
            LaunchDims::cover(p.dim as u64, 256),
            &k,
            SimTime::ZERO,
        );
        let mut out = vec![0u8; p.dim];
        dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut out, false, SimTime::ZERO);
        assert_eq!(out, compute_line(&p, 20).pixels);
    }

    #[test]
    fn line_2d_kernel_matches_cpu_line() {
        let p = params();
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let dev = sys.device(0);
        let buf = dev.alloc::<u8>(p.dim).unwrap();
        let k = Line2DKernel {
            row: 33,
            params: p,
            img: buf,
        };
        let blocks = (p.dim as u32).div_ceil(BLOCK_EDGE_2D);
        let dims = LaunchDims {
            grid: gpusim::Dim3::x(blocks),
            block: gpusim::Dim3::xy(BLOCK_EDGE_2D, BLOCK_EDGE_2D),
        };
        dev.launch(StreamId::DEFAULT, dims, &k, SimTime::ZERO);
        let mut out = vec![0u8; p.dim];
        dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut out, false, SimTime::ZERO);
        assert_eq!(out, compute_line(&p, 33).pixels);
    }

    #[test]
    fn batch_kernel_matches_cpu_lines() {
        let p = params();
        let batch_size = 8;
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let dev = sys.device(0);
        let buf = dev.alloc::<u8>(batch_size * p.dim).unwrap();
        let k = BatchKernel {
            first_row: 2 * batch_size,
            rows: batch_size,
            params: p,
            img: buf,
        };
        let lanes = (batch_size * p.dim) as u64;
        dev.launch(
            StreamId::DEFAULT,
            LaunchDims::cover(lanes, 256),
            &k,
            SimTime::ZERO,
        );
        let mut out = vec![0u8; batch_size * p.dim];
        dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut out, false, SimTime::ZERO);
        for r in 0..batch_size {
            let row = 2 * batch_size + r;
            let expected = compute_line(&p, row).pixels;
            assert_eq!(&out[r * p.dim..(r + 1) * p.dim], &expected[..], "row {row}");
        }
    }

    #[test]
    fn row_span_kernel_matches_cpu_lines_at_any_offset() {
        let p = params();
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let dev = sys.device(0);
        // A 3-row span starting mid-batch (row 21): the halving rung's shape.
        let rows = 3;
        let buf = dev.alloc::<u8>(rows * p.dim).unwrap();
        let k = BatchKernel {
            first_row: 21,
            rows,
            params: p,
            img: buf,
        };
        dev.launch(
            StreamId::DEFAULT,
            LaunchDims::cover((rows * p.dim) as u64, 256),
            &k,
            SimTime::ZERO,
        );
        let mut out = vec![0u8; rows * p.dim];
        dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut out, false, SimTime::ZERO);
        for r in 0..rows {
            let expected = compute_line(&p, 21 + r).pixels;
            assert_eq!(&out[r * p.dim..(r + 1) * p.dim], &expected[..], "row {r}");
        }
    }

    #[test]
    fn last_partial_batch_stays_in_bounds() {
        let p = FractalParams::view(50, 100);
        let batch_size = 32; // batch 1 covers rows 32..50 only
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let dev = sys.device(0);
        let buf = dev.alloc::<u8>(batch_size * p.dim).unwrap();
        let k = BatchKernel {
            first_row: batch_size,
            rows: batch_size,
            params: p,
            img: buf,
        };
        let lanes = (batch_size * p.dim) as u64;
        dev.launch(
            StreamId::DEFAULT,
            LaunchDims::cover(lanes, 256),
            &k,
            SimTime::ZERO,
        );
        let mut out = vec![0u8; batch_size * p.dim];
        dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut out, false, SimTime::ZERO);
        for r in 0..(50 - 32) {
            let expected = compute_line(&p, 32 + r).pixels;
            assert_eq!(&out[r * p.dim..r * p.dim + p.dim], &expected[..]);
        }
    }
}
