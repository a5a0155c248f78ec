//! The paper's testbed, as model parameters (§V): Intel i9-7900X
//! (10 cores / 20 threads @ 3.3 GHz), 32 GB RAM, 2× NVIDIA Titan XP.

use simtime::SimDuration;

/// CPU-side parameters of the testbed.
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads (the paper runs 19-20 workers).
    pub threads: u32,
    /// Nanoseconds per Mandelbrot iteration on one thread.
    ///
    /// Calibrated against the paper's 400 s sequential baseline using the
    /// *sampled* iteration count of the paper's view
    /// (`perfmodel::paper::sample_workload`: ≈ 1.35 × 10¹¹ executed
    /// iterations at 2000² × 200 000) ⇒ ≈ 2.96 ns, i.e. ~12 cycles per
    /// 5-op dependent DP chain at the i9-7900X's ~4 GHz all-core turbo.
    pub mandel_ns_per_iter: f64,
    /// SMT efficiency: the marginal throughput of a hyperthread relative
    /// to a full core (the paper's 17× on 20 threads ⇒ ≈ 0.7).
    pub smt_factor: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            cores: 10,
            threads: 20,
            mandel_ns_per_iter: 2.96,
            smt_factor: 0.7,
        }
    }
}

impl CpuModel {
    /// Effective parallel capacity of `workers` pipeline workers: full
    /// cores first, hyperthreads at [`CpuModel::smt_factor`].
    pub fn effective_capacity(&self, workers: usize) -> f64 {
        let w = workers as f64;
        let cores = self.cores as f64;
        if w <= cores {
            w
        } else {
            cores + (w.min(self.threads as f64) - cores) * self.smt_factor
        }
    }

    /// Per-worker slowdown factor when `workers` share the socket: with
    /// SMT oversubscription each worker runs slower than a dedicated core.
    pub fn worker_slowdown(&self, workers: usize) -> f64 {
        workers as f64 / self.effective_capacity(workers)
    }

    /// CPU time of `iters` Mandelbrot iterations on one dedicated thread.
    pub fn mandel_time(&self, iters: u64) -> SimDuration {
        SimDuration::from_secs_f64(iters as f64 * self.mandel_ns_per_iter * 1e-9)
    }
}

/// Per-item runtime overheads of the three programming models: constants
/// set for the testbed, not measured. `benchmark/run.sh --traced` reports
/// the measured per-item costs on the host at hand
/// (`fastflow.farm.ns_per_item_g0`, `core.tostream.ns_per_item_g0`,
/// `tbbx.pipeline.ns_per_item_g0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuRuntime {
    /// SPar (compiles to FastFlow; same runtime costs).
    Spar,
    /// FastFlow.
    FastFlow,
    /// TBB: task spawning and token accounting cost a little more per item
    /// than FastFlow's SPSC queues.
    Tbb,
}

impl CpuRuntime {
    /// Per-item scheduling/communication overhead on the testbed.
    pub fn per_item_overhead(&self) -> SimDuration {
        match self {
            CpuRuntime::Spar | CpuRuntime::FastFlow => SimDuration::from_nanos(300),
            CpuRuntime::Tbb => SimDuration::from_nanos(900),
        }
    }

    /// In-flight item cap (queue capacity / live tokens). The paper uses
    /// 2× workers tokens for TBB CPU runs and 5× for GPU runs.
    pub fn in_flight_cap(&self, workers: usize, gpu: bool) -> usize {
        match self {
            CpuRuntime::Spar | CpuRuntime::FastFlow => 64,
            CpuRuntime::Tbb => {
                if gpu {
                    5 * workers
                } else {
                    2 * workers
                }
            }
        }
    }
}

/// Extra host-side cost per OpenCL enqueue relative to CUDA (driver
/// dispatch + event bookkeeping), charged once per offloaded batch — the
/// main reason the paper's SPar+CUDA edges out SPar+OpenCL.
pub const OPENCL_ENQUEUE_EXTRA: SimDuration = SimDuration::from_micros(12);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_threads_give_about_seventeen_x() {
        // The paper's CPU version reaches 17× with 20 threads.
        let cpu = CpuModel::default();
        let cap = cpu.effective_capacity(20);
        assert!((16.0..18.5).contains(&cap), "capacity {cap}");
    }

    #[test]
    fn capacity_is_monotone_and_bounded() {
        let cpu = CpuModel::default();
        let mut last = 0.0;
        for w in 1..=24 {
            let c = cpu.effective_capacity(w);
            assert!(c >= last);
            last = c;
        }
        assert!(last <= cpu.threads as f64);
    }

    #[test]
    fn slowdown_is_one_until_cores_saturate() {
        let cpu = CpuModel::default();
        assert!((cpu.worker_slowdown(10) - 1.0).abs() < 1e-9);
        assert!(cpu.worker_slowdown(20) > 1.0);
    }

    #[test]
    fn tbb_token_rule_matches_the_paper() {
        // §V-A: 38 tokens for CPU (2×19), 50 for GPU (5×10).
        assert_eq!(CpuRuntime::Tbb.in_flight_cap(19, false), 38);
        assert_eq!(CpuRuntime::Tbb.in_flight_cap(10, true), 50);
    }
}
