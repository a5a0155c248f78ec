//! Device property sheets: the hardware parameters of the simulated GPU.
//!
//! The default profile is the NVIDIA Titan XP the paper's testbed used
//! (compute capability 6.1): 30 SMs × 2048 resident threads, 64 K registers
//! and 96 KB shared memory per SM — the numbers §IV-A quotes when deriving
//! the 32-line batch size.

/// Static properties of one simulated device.
#[derive(Clone, Debug)]
pub struct DeviceProps {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Warps an SM can *execute* concurrently (CUDA cores / warp size).
    pub warp_exec_units: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Shared memory per SM, bytes.
    pub smem_per_sm: u32,
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Device global memory, bytes.
    pub global_mem: u64,
    /// Host↔device bandwidth for page-locked (pinned) host memory, bytes/s.
    pub pcie_pinned_bw: f64,
    /// Host↔device bandwidth for pageable host memory, bytes/s.
    pub pcie_pageable_bw: f64,
    /// Fixed latency per host↔device transfer, seconds.
    pub xfer_latency_s: f64,
    /// Fixed cost of a kernel launch (driver + hardware dispatch), seconds.
    pub kernel_launch_s: f64,
    /// Per-thread-block hardware scheduling cost, seconds.
    pub block_sched_s: f64,
    /// Host-side cost of any asynchronous API call (enqueue), seconds.
    pub api_call_s: f64,
}

impl DeviceProps {
    /// The paper's GPU: NVIDIA Titan XP, compute capability 6.1.
    pub fn titan_xp() -> Self {
        DeviceProps {
            name: "Titan XP (simulated)",
            sm_count: 30,
            max_threads_per_sm: 2048,
            warp_size: 32,
            // 128 CUDA cores per Pascal SM / 32-wide warps.
            warp_exec_units: 4,
            regs_per_sm: 65_536,
            smem_per_sm: 96 * 1024,
            clock_hz: 1.582e9,
            global_mem: 12 * 1024 * 1024 * 1024,
            pcie_pinned_bw: 12.0e9,
            // Pageable copies stage through a driver bounce buffer: a bit
            // slower than pinned, but the dominant penalty is the loss of
            // asynchrony (the copy blocks the host), not raw bandwidth.
            pcie_pageable_bw: 10.0e9,
            xfer_latency_s: 8e-6,
            kernel_launch_s: 8e-6,
            block_sched_s: 0.3e-6,
            api_call_s: 1.5e-6,
        }
    }

    /// A deliberately tiny device for tests (2 SMs, fast constants) so unit
    /// tests exercise occupancy limits with small grids.
    pub fn test_tiny() -> Self {
        DeviceProps {
            name: "TestTiny",
            sm_count: 2,
            max_threads_per_sm: 128,
            warp_size: 32,
            warp_exec_units: 1,
            regs_per_sm: 4096,
            smem_per_sm: 16 * 1024,
            clock_hz: 1.0e9,
            global_mem: 16 * 1024 * 1024,
            pcie_pinned_bw: 1.0e9,
            pcie_pageable_bw: 0.5e9,
            xfer_latency_s: 1e-6,
            kernel_launch_s: 10e-6,
            block_sched_s: 1e-6,
            api_call_s: 1e-6,
        }
    }

    /// A derated copy of this sheet: core clock and host↔device
    /// bandwidths scaled by `factor` (in `(0, 1]`). Building an
    /// N-device [`GpuSystem::new_mixed`](crate::GpuSystem::new_mixed)
    /// fleet from full-rate and derated sheets gives a heterogeneous
    /// system where per-device cost genuinely differs — the setting a
    /// cost-model scheduler must beat round-robin in.
    ///
    /// # Panics
    /// Panics unless `0.0 < factor <= 1.0`.
    pub fn derated(mut self, name: &'static str, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "derate factor must be in (0, 1], got {factor}"
        );
        self.name = name;
        self.clock_hz *= factor;
        self.pcie_pinned_bw *= factor;
        self.pcie_pageable_bw *= factor;
        self
    }

    /// Resident warps per SM allowed by the thread limit.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Occupancy: resident warps per SM given a kernel's per-thread register
    /// count and per-block shared memory / block size.
    ///
    /// Returns at least 1 so pathological kernels still make progress.
    pub fn resident_warps(
        &self,
        regs_per_thread: u32,
        smem_per_block: u32,
        block_threads: u32,
    ) -> u32 {
        let by_threads = self.max_warps_per_sm();
        let by_regs = if regs_per_thread == 0 {
            by_threads
        } else {
            self.regs_per_sm / (regs_per_thread * self.warp_size)
        };
        let block_warps = block_threads.div_ceil(self.warp_size).max(1);
        let by_smem = match self.smem_per_sm.checked_div(smem_per_block) {
            Some(blocks) => blocks.max(1) * block_warps,
            None => by_threads, // no shared memory used
        };
        by_threads.min(by_regs).min(by_smem).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_xp_headline_numbers_match_the_paper() {
        let p = DeviceProps::titan_xp();
        assert_eq!(p.sm_count, 30);
        assert_eq!(p.max_threads_per_sm, 2048);
        // "up to 61,440 resident threads across the entire board"
        assert_eq!(p.sm_count * p.max_threads_per_sm, 61_440);
        assert_eq!(p.regs_per_sm, 65_536);
        assert_eq!(p.smem_per_sm, 96 * 1024);
        assert_eq!(p.max_warps_per_sm(), 64);
    }

    #[test]
    fn mandel_kernel_occupancy_is_not_register_limited() {
        // §IV-A: "the kernel function uses only 18 registers, thus it is not
        // a limiting factor".
        let p = DeviceProps::titan_xp();
        let warps = p.resident_warps(18, 0, 256);
        assert_eq!(warps, p.max_warps_per_sm());
    }

    #[test]
    fn register_pressure_limits_occupancy() {
        let p = DeviceProps::titan_xp();
        // 64 regs/thread: 65536 / (64*32) = 32 warps < 64.
        assert_eq!(p.resident_warps(64, 0, 256), 32);
    }

    #[test]
    fn smem_pressure_limits_occupancy() {
        let p = DeviceProps::titan_xp();
        // 48KB/block with 256-thread (8-warp) blocks: 2 blocks resident -> 16 warps.
        assert_eq!(p.resident_warps(0, 48 * 1024, 256), 16);
    }

    #[test]
    fn occupancy_never_zero() {
        let p = DeviceProps::test_tiny();
        assert!(p.resident_warps(u32::MAX / 64, u32::MAX / 2, 32) >= 1);
    }
}
