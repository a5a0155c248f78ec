//! The device timing model: kernel and transfer durations.
//!
//! Captures the performance mechanisms the paper's optimization ladder
//! exercises, and nothing more:
//!
//! * **Launch overhead** — a fixed driver/dispatch cost per kernel; with
//!   per-line Mandelbrot kernels this dominates and caps speedup at ~3×.
//! * **Block scheduling** — a small per-block dispatch cost.
//! * **Occupancy** — resident warps per SM limited by threads, registers
//!   and shared memory ([`DeviceProps::resident_warps`]).
//! * **Divergence** — warp time is the *max* lane work
//!   ([`WorkMeter::warp_units`]).
//! * **Throughput vs latency bound** — a kernel cannot finish faster than
//!   its slowest warp, nor faster than total warp work divided by the
//!   device's warp execution slots.
//! * **PCIe transfers** — fixed latency + bytes/bandwidth; pinned
//!   (page-locked) memory is somewhat faster, and — modeled at the API
//!   layer — pageable async copies block the host.

use simtime::SimDuration;

use crate::kernel::{KernelFn, LaunchDims};
use crate::meter::WorkMeter;
use crate::props::DeviceProps;

/// Transfer direction (engines are modeled per direction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XferDir {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
}

/// Modeled duration of one kernel execution (excludes queueing).
pub fn kernel_duration(
    props: &DeviceProps,
    dims: &LaunchDims,
    kernel: &dyn KernelFn,
    meter: &WorkMeter,
) -> SimDuration {
    kernel_duration_from_units(
        props,
        dims,
        kernel.regs_per_thread(),
        kernel.smem_per_block(),
        kernel.cycles_per_unit(),
        meter.warp_units(),
        meter.max_warp_units(),
    )
}

/// [`kernel_duration`] from pre-summarized meter data (sum and max of
/// per-warp work). Lets performance models time kernels without holding
/// the full [`WorkMeter`] or the kernel object.
#[allow(clippy::too_many_arguments)]
pub fn kernel_duration_from_units(
    props: &DeviceProps,
    dims: &LaunchDims,
    regs_per_thread: u32,
    smem_per_block: u32,
    cycles_per_unit: f64,
    warp_units: u64,
    max_warp_units: u64,
) -> SimDuration {
    let resident = props.resident_warps(regs_per_thread, smem_per_block, dims.block_threads());
    // Warps the whole device can *execute* at once: per-SM execution units,
    // further limited by occupancy (too few resident warps = no latency
    // hiding, modeled as proportionally fewer effective slots).
    let slots_per_sm = (props.warp_exec_units.min(resident)) as f64;
    let device_slots = props.sm_count as f64 * slots_per_sm;

    let total_warp_cycles = warp_units as f64 * cycles_per_unit;

    // Latency starvation: `cycles_per_unit` is a *throughput* cost that
    // assumes enough co-resident busy warps to hide operation latency.
    // When the launch provides too few (the per-line Mandelbrot kernels:
    // ~2 busy warps per SM), dependent chains run at latency, not
    // throughput — modeled as up to `warp_exec_units`× inflation of the
    // critical warp. "Busy" warps are counted work-weighted
    // (`warp_units / max_warp_units`) so near-idle bounds-check lanes (the
    // 2-D grid variant) don't pose as latency hiders.
    let eff_warps = if max_warp_units > 0 {
        (warp_units as f64 / max_warp_units as f64).max(1.0)
    } else {
        1.0
    };
    let busy_per_sm = eff_warps / props.sm_count as f64;
    let starvation =
        (props.warp_exec_units as f64 / busy_per_sm).clamp(1.0, props.warp_exec_units as f64);
    let critical_warp_cycles = max_warp_units as f64 * cycles_per_unit * starvation;

    let throughput_bound = total_warp_cycles / device_slots;
    let compute_cycles = throughput_bound.max(critical_warp_cycles);
    let compute_s = compute_cycles / props.clock_hz;

    let overhead_s = props.kernel_launch_s + props.block_sched_s * dims.total_blocks() as f64;

    SimDuration::from_secs_f64(compute_s + overhead_s)
}

/// Modeled duration of one host↔device transfer.
pub fn transfer_duration(props: &DeviceProps, bytes: u64, pinned: bool) -> SimDuration {
    let bw = if pinned {
        props.pcie_pinned_bw
    } else {
        props.pcie_pageable_bw
    };
    SimDuration::from_secs_f64(props.xfer_latency_s + bytes as f64 / bw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DeviceMemory;

    struct Uniform {
        units: u64,
        regs: u32,
        cycles: f64,
    }
    impl KernelFn for Uniform {
        fn name(&self) -> &'static str {
            "uniform"
        }
        fn regs_per_thread(&self) -> u32 {
            self.regs
        }
        fn cycles_per_unit(&self) -> f64 {
            self.cycles
        }
        fn run(&self, dims: &LaunchDims, _mem: &DeviceMemory, meter: &mut WorkMeter) {
            meter.record_fill(dims.lanes(), self.units);
        }
    }

    fn meter_for(kernel: &dyn KernelFn, dims: &LaunchDims) -> WorkMeter {
        let mem = DeviceMemory::new(0, 1024);
        let mut meter = WorkMeter::new(dims.total_threads(), 32);
        kernel.run(dims, &mem, &mut meter);
        meter
    }

    #[test]
    fn tiny_kernels_are_launch_bound() {
        let props = DeviceProps::titan_xp();
        let k = Uniform {
            units: 1,
            regs: 18,
            cycles: 1.0,
        };
        let dims = LaunchDims::cover(2_000, 256);
        let meter = meter_for(&k, &dims);
        let d = kernel_duration(&props, &dims, &k, &meter);
        // Launch overhead (8us) must dominate the compute (~a few ns).
        assert!(d.as_secs_f64() > props.kernel_launch_s);
        assert!(d.as_secs_f64() < 3.0 * props.kernel_launch_s);
    }

    #[test]
    fn big_kernels_are_compute_bound_and_scale_with_work() {
        let props = DeviceProps::titan_xp();
        let k = Uniform {
            units: 100_000,
            regs: 18,
            cycles: 4.0,
        };
        let dims = LaunchDims::cover(64_000, 256);
        let meter = meter_for(&k, &dims);
        let d1 = kernel_duration(&props, &dims, &k, &meter);
        let k2 = Uniform {
            units: 200_000,
            regs: 18,
            cycles: 4.0,
        };
        let meter2 = meter_for(&k2, &dims);
        let d2 = kernel_duration(&props, &dims, &k2, &meter2);
        let ratio = d2.as_secs_f64() / d1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.1, "ratio={ratio}");
    }

    #[test]
    fn divergent_warps_cost_more_than_convergent() {
        let props = DeviceProps::titan_xp();
        let dims = LaunchDims::cover(2_048, 32);
        let k = Uniform {
            units: 0,
            regs: 18,
            cycles: 2.0,
        };
        // Convergent: every lane 100k units (big enough that compute, not
        // launch overhead, dominates).
        let mut conv = WorkMeter::new(dims.total_threads(), 32);
        conv.record_fill(dims.lanes(), 100_000);
        // Divergent: same *total* work concentrated in one lane per warp.
        let mut div = WorkMeter::new(dims.total_threads(), 32);
        for lane in dims.lanes() {
            div.record(lane, if lane % 32 == 0 { 3_200_000 } else { 0 });
        }
        assert_eq!(conv.total_units(), div.total_units());
        let d_conv = kernel_duration(&props, &dims, &k, &conv);
        let d_div = kernel_duration(&props, &dims, &k, &div);
        assert!(
            d_div.as_secs_f64() > 10.0 * d_conv.as_secs_f64(),
            "divergence must hurt: conv={d_conv:?} div={d_div:?}"
        );
    }

    #[test]
    fn single_warp_kernel_is_latency_bound() {
        let props = DeviceProps::titan_xp();
        let dims = LaunchDims::linear(1, 32);
        let k = Uniform {
            units: 1_000_000,
            regs: 18,
            cycles: 1.0,
        };
        let meter = meter_for(&k, &dims);
        let d = kernel_duration(&props, &dims, &k, &meter);
        // One warp cannot be split: time >= warp cycles / clock.
        let floor = 1_000_000.0 / props.clock_hz;
        assert!(d.as_secs_f64() >= floor);
    }

    #[test]
    fn low_occupancy_slows_kernels() {
        let props = DeviceProps::titan_xp();
        let dims = LaunchDims::cover(100_000, 256);
        let light = Uniform {
            units: 1000,
            regs: 18,
            cycles: 1.0,
        };
        // 512 regs/thread -> 65536/(512*32) = 4 warps resident... still 4
        // exec units; push to 1024 regs -> 2 warps resident < 4 units.
        let heavy = Uniform {
            units: 1000,
            regs: 1024,
            cycles: 1.0,
        };
        let m1 = meter_for(&light, &dims);
        let m2 = meter_for(&heavy, &dims);
        let d_light = kernel_duration(&props, &dims, &light, &m1);
        let d_heavy = kernel_duration(&props, &dims, &heavy, &m2);
        assert!(d_heavy > d_light);
    }

    #[test]
    fn pinned_transfers_beat_pageable() {
        let props = DeviceProps::titan_xp();
        let pinned = transfer_duration(&props, 10 << 20, true);
        let pageable = transfer_duration(&props, 10 << 20, false);
        assert!(pageable.as_secs_f64() > 1.1 * pinned.as_secs_f64());
    }

    #[test]
    fn transfer_latency_floors_small_copies() {
        let props = DeviceProps::titan_xp();
        let d = transfer_duration(&props, 1, true);
        assert!(d.as_secs_f64() >= props.xfer_latency_s);
    }
}
