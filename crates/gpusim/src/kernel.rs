//! Kernel abstraction and launch geometry.

use crate::mem::DeviceMemory;
use crate::meter::WorkMeter;

/// A three-component extent, as in CUDA's `dim3` / OpenCL's NDRange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dim3 {
    /// Fastest-varying extent.
    pub x: u32,
    /// Middle extent.
    pub y: u32,
    /// Slowest extent.
    pub z: u32,
}

impl Dim3 {
    /// `(x, 1, 1)`.
    pub const fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// `(x, y, 1)`.
    pub const fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Product of extents.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

/// Grid/block geometry of one kernel launch (`<<<grid, block>>>`).
#[derive(Clone, Copy, Debug)]
pub struct LaunchDims {
    /// Blocks in the grid.
    pub grid: Dim3,
    /// Threads per block.
    pub block: Dim3,
}

impl LaunchDims {
    /// 1-D helper: `blocks` × `threads`.
    pub fn linear(blocks: u32, threads: u32) -> Self {
        LaunchDims {
            grid: Dim3::x(blocks),
            block: Dim3::x(threads),
        }
    }

    /// 1-D helper sized to cover at least `total` threads with the given
    /// block size.
    pub fn cover(total: u64, block_threads: u32) -> Self {
        let blocks = total.div_ceil(block_threads as u64) as u32;
        LaunchDims::linear(blocks.max(1), block_threads)
    }

    /// Threads per block.
    pub fn block_threads(&self) -> u32 {
        self.block.count() as u32
    }

    /// Blocks in the grid.
    pub fn total_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> u64 {
        self.total_blocks() * self.block_threads() as u64
    }

    /// Iterate over global linear lane ids, warp-ordered exactly as CUDA
    /// forms warps: threads linearized within a block (x fastest), blocks
    /// linearized in grid order.
    pub fn lanes(&self) -> std::ops::Range<u64> {
        0..self.total_threads()
    }
}

/// A device kernel: functional body plus its cost-model metadata.
///
/// The body receives the whole launch. *How* it walks the lanes on the
/// host is its own business — one at a time, in spans of contiguous
/// lanes through host SIMD, block by block — because none of that is
/// observable: the functional-execution contract is that, for the same
/// launch, every strategy leaves **identical device memory** and reports
/// **identical per-lane work units** to the meter (in any grain, see
/// [`WorkMeter`]). Host wall time is the only thing a body may change;
/// the modeled clock is computed from the metered units, the launch
/// geometry and the metadata below, so it cannot move.
///
/// Results must also be identical to any parallel schedule of the lanes,
/// which the memory system's borrow discipline enforces.
pub trait KernelFn: Send + Sync {
    /// Kernel name for reports (the `__global__` function name).
    fn name(&self) -> &'static str;

    /// Registers per thread, as `nvcc --ptxas-options=-v` would report.
    /// Feeds the occupancy model. The paper's Mandelbrot kernel uses 18.
    fn regs_per_thread(&self) -> u32 {
        32
    }

    /// Static shared memory per block, bytes.
    fn smem_per_block(&self) -> u32 {
        0
    }

    /// Device cycles one work unit costs a warp (kernel-specific: a
    /// Mandelbrot iteration, a SHA-1 byte, an LZSS probe...).
    fn cycles_per_unit(&self) -> f64 {
        1.0
    }

    /// Execute the kernel functionally over device memory, recording work.
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_counts() {
        assert_eq!(Dim3::x(5).count(), 5);
        assert_eq!(Dim3::xy(4, 3).count(), 12);
        assert_eq!(Dim3 { x: 2, y: 3, z: 4 }.count(), 24);
    }

    #[test]
    fn launch_cover_rounds_up() {
        let d = LaunchDims::cover(1000, 256);
        assert_eq!(d.total_blocks(), 4);
        assert_eq!(d.total_threads(), 1024);
        assert!(d.total_threads() >= 1000);
    }

    #[test]
    fn cover_zero_still_launches_one_block() {
        let d = LaunchDims::cover(0, 128);
        assert_eq!(d.total_blocks(), 1);
    }

    #[test]
    fn lanes_iterate_all_threads() {
        let d = LaunchDims::linear(3, 64);
        assert_eq!(d.lanes().count(), 192);
    }
}
