//! Paper-scale predictions for Fig. 1 — absolute seconds, comparable to
//! the paper's measurements.
//!
//! Rendering 2000 × 2000 at 200 000 iterations functionally costs ~10¹¹
//! iterations — infeasible here — but the *model* only needs warp-level
//! statistics, and those scale: the escape-iteration field is resolution-
//! independent, so a `sample_dim × sample_dim` rendering at the full
//! 200 000 iterations characterizes the workload, and counts scale by
//! `(2000 / sample_dim)²` (warps per row scale linearly; per-warp work is
//! locally constant).
//!
//! The ladder is then evaluated analytically with the same cost model the
//! simulated devices use. `cargo run --release -p bench --bin fig1 --
//! --paper-model 1` prints the prediction next to the paper's numbers.

use gpusim::kernel::LaunchDims;
use gpusim::model::{kernel_duration_from_units, transfer_duration};
use gpusim::DeviceProps;
use mandel::core::FractalParams;
use mandel::kernels::{CYCLES_PER_ITER, MANDEL_REGS};
use simtime::SimDuration;

use crate::machine::CpuModel;
use crate::mandelmodel::{characterize, MandelWorkload};

/// The paper's experiment geometry.
pub const PAPER_DIM: usize = 2000;
/// The paper's iteration budget.
pub const PAPER_NITER: u32 = 200_000;

/// One ladder rung: name, predicted paper-scale time.
pub type Rung = (&'static str, SimDuration);

/// Characterize the paper-scale workload via a reduced-resolution sample
/// at the full iteration budget.
pub fn sample_workload(sample_dim: usize) -> MandelWorkload {
    characterize(&FractalParams::view(sample_dim, PAPER_NITER))
}

struct Scaled {
    /// Total iterations at 2000².
    total_iters: u64,
    /// Per-full-image-row (2000 rows): (warp_units, max_warp) scaled to
    /// 2000 columns.
    row_warps: Vec<(u64, u64)>,
}

fn scale(w: &MandelWorkload) -> Scaled {
    let s = PAPER_DIM / w.params.dim; // row and column scale factor
    assert!(
        s >= 1 && PAPER_DIM.is_multiple_of(w.params.dim),
        "sample_dim must divide 2000"
    );
    let mut row_warps = Vec::with_capacity(PAPER_DIM);
    for full_row in 0..PAPER_DIM {
        let sample_row = full_row / s;
        let (sum, max) = w.batch_warp_units(sample_row, 1);
        // A full row has s× the warps of a sample row with locally similar
        // per-warp work.
        row_warps.push((sum * s as u64, max));
    }
    Scaled {
        total_iters: w.total_iters * (s * s) as u64,
        row_warps,
    }
}

/// Predict every rung of Fig. 1 at paper scale.
pub fn predict_fig1(sample_dim: usize, cpu: &CpuModel, props: &DeviceProps) -> Vec<Rung> {
    let w = sample_workload(sample_dim);
    let sc = scale(&w);
    let mut out: Vec<Rung> = Vec::new();

    // Sequential and CPU-20 (analytic: capacity model).
    let seq = cpu.mandel_time(sc.total_iters);
    out.push(("sequential", seq));
    let cpu20 = SimDuration::from_secs_f64(seq.as_secs_f64() / cpu.effective_capacity(19));
    out.push(("CPU 20 threads", cpu20));

    let api = SimDuration::from_secs_f64(props.api_call_s);
    let staging_line = SimDuration::from_secs_f64(PAPER_DIM as f64 * 0.25e-9);

    // Naive per-line (1-D): 2000 kernels + synchronous pageable line reads.
    let mut naive = SimDuration::ZERO;
    for &(sum, max) in &sc.row_warps {
        let dims = LaunchDims::cover(PAPER_DIM as u64, 256);
        let kernel =
            kernel_duration_from_units(props, &dims, MANDEL_REGS, 0, CYCLES_PER_ITER, sum, max);
        let d2h = transfer_duration(props, PAPER_DIM as u64, false);
        naive = naive + kernel + d2h + staging_line + api * 2;
    }
    out.push(("GPU naive 1D", naive));

    // 2-D grid: same work in 16×16 blocks — 16× the lanes (idle rows),
    // 16× the warps, and many more scheduled blocks.
    let mut grid2d = SimDuration::ZERO;
    for &(sum, max) in &sc.row_warps {
        let blocks = (PAPER_DIM as u32).div_ceil(16);
        let dims = LaunchDims {
            grid: gpusim::Dim3::x(blocks),
            block: gpusim::Dim3::xy(16, 16),
        };
        // Idle-row warps add ~1-unit work each: negligible sum change; the
        // cost is the extra block dispatch, exactly as in the simulator.
        let kernel =
            kernel_duration_from_units(props, &dims, MANDEL_REGS, 0, CYCLES_PER_ITER, sum, max);
        let d2h = transfer_duration(props, PAPER_DIM as u64, false);
        grid2d = grid2d + kernel + d2h + staging_line + api * 2;
    }
    out.push(("GPU 2D grid", grid2d));

    // Batched rungs share per-batch kernel/transfer services.
    let batch_size = 32usize;
    let n_batches = PAPER_DIM.div_ceil(batch_size);
    let mut kernels = Vec::with_capacity(n_batches);
    let bytes = (batch_size * PAPER_DIM) as u64;
    for b in 0..n_batches {
        let end = ((b + 1) * batch_size).min(PAPER_DIM);
        let rows = &sc.row_warps[b * batch_size..end];
        let sum: u64 = rows.iter().map(|r| r.0).sum();
        let max: u64 = rows.iter().map(|r| r.1).max().unwrap_or(1);
        let dims = LaunchDims::cover(bytes, 256);
        kernels.push(kernel_duration_from_units(
            props,
            &dims,
            MANDEL_REGS,
            0,
            CYCLES_PER_ITER,
            sum,
            max,
        ));
    }
    let staging_batch = SimDuration::from_secs_f64(bytes as f64 * 0.25e-9);
    let d2h_sync = transfer_duration(props, bytes, false);
    let d2h_pinned = transfer_duration(props, bytes, true);

    // Plain batch: kernel → synchronous read → staging, serialized.
    let batch: SimDuration = kernels
        .iter()
        .map(|&k| k + d2h_sync + staging_batch + api * 2)
        .sum();
    out.push(("GPU batch 32", batch));

    // Overlapped (k memory spaces): compute engine saturated; copies and
    // staging hide behind kernels except pipeline fill/drain. More spaces
    // hide more of the per-batch host work.
    let total_kernel: SimDuration = kernels.iter().copied().sum();
    let host_per_batch = staging_batch + api * 2;
    let overlap = |spaces: usize, gpus: usize| -> SimDuration {
        let per_gpu_kernel = total_kernel / gpus as u64;
        let exposed_host = if spaces / gpus >= 2 {
            // double buffering per device: host work fully hidden except
            // the drain of one batch per space
            host_per_batch * (spaces as u64) + d2h_pinned * (gpus as u64)
        } else {
            // single space per device: host staging is on the critical path
            (host_per_batch + d2h_pinned) * (n_batches as u64) / gpus as u64
        };
        per_gpu_kernel + exposed_host + d2h_pinned
    };
    out.push(("GPU batch + 2x mem", overlap(2, 1)));
    out.push(("GPU batch + 4x mem", overlap(4, 1)));
    out.push(("2 GPUs, 1x mem each", overlap(2, 2)));
    out.push(("2 GPUs, 2x mem each", overlap(4, 2)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predict() -> Vec<Rung> {
        // dim 100 at full 200k iterations: ~2e8 executed iterations — fast
        // enough for a unit test in release, acceptable in debug.
        predict_fig1(100, &CpuModel::default(), &DeviceProps::titan_xp())
    }

    #[test]
    fn paper_scale_prediction_matches_the_measured_ladder() {
        let rungs = predict();
        let get = |name: &str| -> f64 {
            rungs
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .1
                .as_secs_f64()
        };
        // Paper numbers: 400 / 23.5 / 129 / 250 / 8.9 / 5.98 / 5.4 / 4.48 / 3.02 s.
        let seq = get("sequential");
        assert!((200.0..800.0).contains(&seq), "seq {seq}");
        let cpu = get("CPU 20 threads");
        assert!((10.0..50.0).contains(&cpu), "cpu {cpu}");
        let naive = get("GPU naive 1D");
        assert!(naive > cpu, "naive must lose to CPU-20: {naive} vs {cpu}");
        let batch = get("GPU batch 32");
        assert!((3.0..20.0).contains(&batch), "batch {batch}");
        let two_gpu_2x = get("2 GPUs, 2x mem each");
        assert!(
            two_gpu_2x < get("GPU batch + 2x mem"),
            "multi-GPU must be fastest"
        );
        // Factor-level agreement with the paper's batched result (8.9 s).
        assert!(
            (0.3..3.0).contains(&(batch / 8.9)),
            "batch prediction {batch}s vs paper 8.9s"
        );
    }

    #[test]
    fn ladder_ordering_is_preserved_at_paper_scale() {
        let rungs = predict();
        let t: Vec<f64> = rungs.iter().map(|(_, d)| d.as_secs_f64()).collect();
        // seq > naive ordering relations of Fig. 1.
        assert!(t[2] < t[3], "1D beats 2D");
        assert!(t[4] < t[1], "batch beats CPU");
        assert!(t[5] <= t[4], "2x mem helps");
        assert!(t[7] < t[5], "2 GPUs help");
        assert!(t[8] <= t[7], "2 GPUs 2x is fastest");
    }
}
