//! Performance model for Dedup (Fig. 5).
//!
//! A single functional *profiling pass* over a dataset records, per 1 MB
//! batch, everything the timing model needs: bytes, block structure,
//! duplicate ratio, CPU match-search probes, and warp-aggregated work for
//! the SHA-1 and `FindMatchKernel` launches (batched and per-block).
//! Model functions then time each of Fig. 5's versions:
//!
//! * `SPar` (CPU-only pipeline),
//! * `SPar + CUDA` / `SPar + OpenCL` (replicated GPU stages contending for
//!   device engines),
//! * with and without the batch-kernel optimization.
//!
//! The standalone single-threaded `CUDA` / `OpenCL` bars are *measured*
//! directly on the simulated devices (`dedup::single`), not modeled here.

use dedup::lzss::MatchFinder;
use dedup::{make_batches, DedupConfig, HostCosts};
use gpusim::kernel::LaunchDims;
use gpusim::model::{kernel_duration_from_units, transfer_duration};
use gpusim::DeviceProps;
use simtime::SimDuration;

use crate::machine::{CpuModel, OPENCL_ENQUEUE_EXTRA};
use crate::pipe::{Phase, PipeModel};

const BLOCK_1D: u32 = 256;
/// Cost-model constants mirroring `dedup::kernels`.
const SHA1_CYCLES_PER_BYTE: f64 = 18.0;
const LZSS_CYCLES_PER_PROBE: f64 = 3.0;

/// Which GPU API a modeled version uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuApi {
    /// CUDA (pageable host buffers in Dedup — see §V-B).
    Cuda,
    /// OpenCL.
    OpenCl,
}

/// Per-batch workload statistics.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Batch payload bytes.
    pub bytes: u64,
    /// Blocks in the batch.
    pub blocks: u64,
    /// Bytes belonging to unique (first-seen) blocks.
    pub unique_bytes: u64,
    /// Warp-aggregated SHA-1 work: (sum of warp maxima, max warp).
    pub sha1_warp: (u64, u64),
    /// Warp-aggregated FindMatch work over all positions.
    pub fm_warp: (u64, u64),
    /// Probes along the greedy encode path of unique blocks (CPU stage 4).
    pub cpu_path_probes: u64,
    /// Σ per-block kernel durations for the unbatched SHA-1 variant.
    pub nobatch_sha1: SimDuration,
    /// Σ per-block kernel durations for the unbatched FindMatch variant.
    pub nobatch_fm: SimDuration,
}

/// Whole-dataset profile.
pub struct DedupProfile {
    /// Per-batch statistics.
    pub batches: Vec<BatchStats>,
    /// Total input bytes.
    pub total_bytes: u64,
    /// Approximate output (compressed) bytes — unique bytes as a proxy.
    pub output_bytes: u64,
}

/// Run the functional profiling pass.
pub fn profile(input: &[u8], cfg: &DedupConfig, props: &DeviceProps) -> DedupProfile {
    let mut cache = dedup::DedupCache::new();
    let mut batches = Vec::new();
    let mut output_bytes = 0u64;
    for batch in make_batches(input, cfg.batch_size, &cfg.rabin) {
        let n = batch.block_count();
        let bytes = batch.data.len() as u64;

        // Classify blocks (duplicates found exactly as stage 3 would).
        let mut unique_bytes = 0u64;
        let mut unique = vec![false; n];
        for (b, flag) in unique.iter_mut().enumerate() {
            let block = batch.block(b);
            if matches!(
                cache.classify(dedup::sha1(block)),
                dedup::BlockClass::Unique { .. }
            ) {
                *flag = true;
                unique_bytes += block.len() as u64;
            }
        }
        output_bytes += unique_bytes;

        // SHA-1 kernel: one lane per block, warps of 32 blocks; warp work
        // is the biggest block in the warp.
        let block_sizes: Vec<u64> = (0..n).map(|b| batch.block(b).len() as u64).collect();
        let mut sha1_sum = 0u64;
        let mut sha1_max = 0u64;
        for chunk in block_sizes.chunks(32) {
            let w = chunk.iter().copied().max().unwrap_or(1);
            sha1_sum += w;
            sha1_max = sha1_max.max(w);
        }

        // FindMatch kernel: one lane per byte; probes per position.
        let scan_extra = (n as u64) / 4 + 1; // the startPos linear scan
        let mut probes = vec![0u64; batch.data.len()];
        let mut matches = vec![dedup::Match::default(); batch.data.len()];
        let mut finder = MatchFinder::default();
        for b in 0..n {
            let r = batch.block_range(b);
            finder.index(&batch.data, r.start, r.end);
            finder.find_each(&batch.data, &cfg.lzss, r.end, |pos, m, p| {
                probes[pos] = p + scan_extra;
                matches[pos] = m;
            });
        }
        let mut fm_sum = 0u64;
        let mut fm_max = 0u64;
        for chunk in probes.chunks(32) {
            let w = chunk.iter().copied().max().unwrap_or(1);
            fm_sum += w;
            fm_max = fm_max.max(w);
        }

        // CPU greedy encode path over unique blocks.
        let mut cpu_path_probes = 0u64;
        for (b, &is_unique) in unique.iter().enumerate() {
            if !is_unique {
                continue;
            }
            let r = batch.block_range(b);
            let mut pos = r.start;
            while pos < r.end {
                cpu_path_probes += probes[pos].saturating_sub(scan_extra);
                let m = matches[pos];
                pos += if m.len as usize >= cfg.lzss.min_coded {
                    m.len as usize
                } else {
                    1
                };
            }
        }

        // Unbatched kernel services: one launch per block.
        let mut nobatch_sha1 = SimDuration::ZERO;
        let mut nobatch_fm = SimDuration::ZERO;
        for b in 0..n {
            let r = batch.block_range(b);
            let len = (r.end - r.start) as u64;
            // SHA-1: a single lane does all the work (1 warp of 32).
            nobatch_sha1 += kernel_duration_from_units(
                props,
                &LaunchDims::linear(1, 32),
                48,
                0,
                SHA1_CYCLES_PER_BYTE,
                len,
                len,
            );
            // FindMatch over just this block.
            let mut s = 0u64;
            let mut mx = 0u64;
            for chunk in probes[r.clone()].chunks(32) {
                let w = chunk
                    .iter()
                    .map(|p| p.saturating_sub(scan_extra) + 1)
                    .max()
                    .unwrap_or(1);
                s += w;
                mx = mx.max(w);
            }
            nobatch_fm += kernel_duration_from_units(
                props,
                &LaunchDims::cover(len, BLOCK_1D),
                32,
                0,
                LZSS_CYCLES_PER_PROBE,
                s,
                mx,
            );
        }

        batches.push(BatchStats {
            bytes,
            blocks: n as u64,
            unique_bytes,
            sha1_warp: (sha1_sum, sha1_max),
            fm_warp: (fm_sum, fm_max),
            cpu_path_probes,
            nobatch_sha1,
            nobatch_fm,
        });
    }
    DedupProfile {
        batches,
        total_bytes: input.len() as u64,
        output_bytes,
    }
}

/// Result of one modeled Dedup run.
#[derive(Debug, Clone)]
pub struct DedupRun {
    /// End-to-end modeled time.
    pub makespan: SimDuration,
    /// Throughput in MB/s of input.
    pub throughput_mbps: f64,
    /// Per-stage worker utilization (Fig. 3's activity graph, quantified):
    /// the stage nearest 1.0 is the pipeline's bottleneck.
    pub stage_utilization: Vec<(&'static str, f64)>,
}

impl DedupRun {
    /// The busiest stage (name, utilization).
    pub fn bottleneck(&self) -> (&'static str, f64) {
        self.stage_utilization
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or(("-", 0.0))
    }
}

fn finish(profile: &DedupProfile, run: crate::pipe::PipeRun) -> DedupRun {
    DedupRun {
        makespan: run.makespan,
        throughput_mbps: profile.total_bytes as f64 / 1e6 / run.makespan.as_secs_f64(),
        stage_utilization: run.stage_utilization,
    }
}

/// Fig. 5's `SPar` bar: the CPU-only 3-stage-equivalent pipeline with
/// `workers` replicas on hashing and compression.
pub fn spar_cpu(
    profile: &DedupProfile,
    cpu: &CpuModel,
    costs: &HostCosts,
    workers: usize,
) -> DedupRun {
    let slow = cpu.worker_slowdown(2 * workers + 3);
    let scale = move |d: SimDuration| SimDuration::from_secs_f64(d.as_secs_f64() * slow);
    let stats = profile.batches.clone();
    let src: Vec<SimDuration> = stats.iter().map(|b| scale(costs.rabin(b.bytes))).collect();
    let hash: Vec<SimDuration> = stats.iter().map(|b| scale(costs.sha1(b.bytes))).collect();
    let classify: Vec<SimDuration> = stats
        .iter()
        .map(|b| scale(costs.classify(b.blocks)))
        .collect();
    let compress: Vec<SimDuration> = stats
        .iter()
        .map(|b| scale(costs.lzss_probes(b.cpu_path_probes) + costs.encode(b.unique_bytes)))
        .collect();
    let write: Vec<SimDuration> = stats
        .iter()
        .map(|b| scale(costs.write(b.unique_bytes)))
        .collect();
    let run = PipeModel::new(stats.len(), move |i| src[i])
        .stage("sha1", workers, move |i| vec![Phase::Cpu(hash[i])])
        .stage("classify", 1, move |i| vec![Phase::Cpu(classify[i])])
        .stage("compress", workers, move |i| vec![Phase::Cpu(compress[i])])
        .stage("write", 1, move |i| vec![Phase::Cpu(write[i])])
        .run();
    finish(profile, run)
}

/// Fig. 5's `SPar + CUDA` / `SPar + OpenCL` bars.
#[allow(clippy::too_many_arguments)]
pub fn spar_gpu(
    profile: &DedupProfile,
    cpu: &CpuModel,
    props: &DeviceProps,
    costs: &HostCosts,
    workers: usize,
    n_gpus: usize,
    api: GpuApi,
    batched: bool,
) -> DedupRun {
    assert!(n_gpus >= 1);
    let slow = cpu.worker_slowdown(2 * workers + 3);
    let scale = move |d: SimDuration| SimDuration::from_secs_f64(d.as_secs_f64() * slow);
    // CUDA copies run from Dedup's pageable (realloc'd) buffers.
    let pinned = matches!(api, GpuApi::OpenCl);
    let enqueue_extra = match api {
        GpuApi::Cuda => SimDuration::ZERO,
        GpuApi::OpenCl => OPENCL_ENQUEUE_EXTRA,
    };

    struct GpuServices {
        h2d: SimDuration,
        sha1: SimDuration,
        d2h_digests: SimDuration,
        fm: SimDuration,
        d2h_matches: SimDuration,
    }
    let services: Vec<GpuServices> = profile
        .batches
        .iter()
        .map(|b| {
            let avg_block = (b.bytes / b.blocks.max(1)).max(1);
            let sha1 = if batched {
                kernel_duration_from_units(
                    props,
                    &LaunchDims::cover(b.blocks, 64),
                    48,
                    0,
                    SHA1_CYCLES_PER_BYTE,
                    b.sha1_warp.0,
                    b.sha1_warp.1,
                )
            } else {
                // Naive integration: a kernel AND a digest read per block.
                b.nobatch_sha1 + transfer_duration(props, 20, pinned) * b.blocks
            };
            let fm = if batched {
                kernel_duration_from_units(
                    props,
                    &LaunchDims::cover(b.bytes, BLOCK_1D),
                    32,
                    0,
                    LZSS_CYCLES_PER_PROBE,
                    b.fm_warp.0,
                    b.fm_warp.1,
                )
            } else {
                // Naive integration: a kernel and two match-array reads per
                // block.
                b.nobatch_fm + transfer_duration(props, 4 * avg_block, pinned) * (2 * b.blocks)
            };
            GpuServices {
                h2d: transfer_duration(props, b.bytes + 4 * b.blocks, pinned) + enqueue_extra,
                sha1: sha1 + enqueue_extra,
                d2h_digests: transfer_duration(props, 20 * b.blocks, pinned) + enqueue_extra,
                fm,
                d2h_matches: transfer_duration(props, 8 * b.bytes, pinned) + enqueue_extra,
            }
        })
        .collect();

    let stats = profile.batches.clone();
    let src: Vec<SimDuration> = stats.iter().map(|b| scale(costs.rabin(b.bytes))).collect();
    let classify: Vec<SimDuration> = stats
        .iter()
        .map(|b| scale(costs.classify(b.blocks)))
        .collect();
    let encode: Vec<SimDuration> = stats.iter().map(|b| scale(costs.encode(b.bytes))).collect();
    let write: Vec<SimDuration> = stats
        .iter()
        .map(|b| scale(costs.write(b.unique_bytes)))
        .collect();

    let mut m = PipeModel::new(stats.len(), move |i| src[i]).buffer_cap(64);
    let mut compute = Vec::new();
    let mut h2d_eng = Vec::new();
    let mut d2h_eng = Vec::new();
    for _ in 0..n_gpus {
        compute.push(m.add_server("gpu-compute", 1));
        h2d_eng.push(m.add_server("gpu-h2d", 1));
        d2h_eng.push(m.add_server("gpu-d2h", 1));
    }
    let services = std::rc::Rc::new(services);
    let services2 = std::rc::Rc::clone(&services);
    let (c2, h2, d2) = (compute.clone(), h2d_eng.clone(), d2h_eng.clone());
    let run = m
        .stage("sha1-gpu", workers, move |i| {
            let dev = i % n_gpus;
            let s = &services[i];
            vec![
                Phase::Resource {
                    server: h2[dev],
                    dur: s.h2d,
                },
                Phase::Resource {
                    server: c2[dev],
                    dur: s.sha1,
                },
                Phase::Resource {
                    server: d2[dev],
                    dur: s.d2h_digests,
                },
            ]
        })
        .stage("classify", 1, move |i| vec![Phase::Cpu(classify[i])])
        .stage("compress-gpu", workers, move |i| {
            let dev = i % n_gpus;
            let s = &services2[i];
            vec![
                Phase::Resource {
                    server: compute[dev],
                    dur: s.fm,
                },
                Phase::Resource {
                    server: d2h_eng[dev],
                    dur: s.d2h_matches,
                },
                Phase::Cpu(encode[i]),
            ]
        })
        .stage("write", 1, move |i| vec![Phase::Cpu(write[i])])
        .run();
    finish(profile, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedup::datasets;
    use dedup::{LzssConfig, RabinParams};

    fn cfg() -> DedupConfig {
        DedupConfig {
            batch_size: 32 * 1024,
            rabin: RabinParams {
                window: 16,
                mask: (1 << 9) - 1,
                magic: 0x5c,
                min_chunk: 512,
                max_chunk: 8192,
            },
            lzss: LzssConfig {
                window: 256,
                min_coded: 3,
            },
        }
    }

    fn profile_small() -> DedupProfile {
        let data = datasets::parsec_like(150_000, 31).data;
        profile(&data, &cfg(), &DeviceProps::titan_xp())
    }

    #[test]
    fn profile_accounts_every_byte() {
        let p = profile_small();
        let total: u64 = p.batches.iter().map(|b| b.bytes).sum();
        assert_eq!(total, p.total_bytes);
        assert!(
            p.output_bytes < p.total_bytes,
            "duplicates must shrink output"
        );
        for b in &p.batches {
            assert!(b.blocks > 0);
            assert!(b.fm_warp.0 >= b.fm_warp.1);
            assert!(b.sha1_warp.0 >= b.sha1_warp.1);
        }
    }

    #[test]
    fn spar_cpu_scales_with_workers() {
        let p = profile_small();
        let cpu = CpuModel::default();
        let costs = HostCosts::default();
        let t1 = spar_cpu(&p, &cpu, &costs, 1);
        let t4 = spar_cpu(&p, &cpu, &costs, 4);
        assert!(
            t4.throughput_mbps > 1.5 * t1.throughput_mbps,
            "1w={:.1} 4w={:.1} MB/s",
            t1.throughput_mbps,
            t4.throughput_mbps
        );
    }

    #[test]
    fn batch_optimization_dominates() {
        let p = profile_small();
        let cpu = CpuModel::default();
        let costs = HostCosts::default();
        let props = DeviceProps::titan_xp();
        let with = spar_gpu(&p, &cpu, &props, &costs, 4, 1, GpuApi::Cuda, true);
        let without = spar_gpu(&p, &cpu, &props, &costs, 4, 1, GpuApi::Cuda, false);
        let gain = with.throughput_mbps / without.throughput_mbps;
        assert!(gain > 3.0, "batching must dominate: {gain:.2}x");
    }

    #[test]
    fn spar_cuda_beats_spar_opencl() {
        let p = profile_small();
        let cpu = CpuModel::default();
        let costs = HostCosts::default();
        let props = DeviceProps::titan_xp();
        let cuda = spar_gpu(&p, &cpu, &props, &costs, 4, 1, GpuApi::Cuda, true);
        let ocl = spar_gpu(&p, &cpu, &props, &costs, 4, 1, GpuApi::OpenCl, true);
        assert!(
            cuda.throughput_mbps >= ocl.throughput_mbps * 0.98,
            "cuda={:.1} ocl={:.1}",
            cuda.throughput_mbps,
            ocl.throughput_mbps
        );
    }

    #[test]
    fn second_gpu_does_not_hurt() {
        let p = profile_small();
        let cpu = CpuModel::default();
        let costs = HostCosts::default();
        let props = DeviceProps::titan_xp();
        let one = spar_gpu(&p, &cpu, &props, &costs, 4, 1, GpuApi::Cuda, true);
        let two = spar_gpu(&p, &cpu, &props, &costs, 4, 2, GpuApi::Cuda, true);
        assert!(two.throughput_mbps >= one.throughput_mbps * 0.95);
    }
}
