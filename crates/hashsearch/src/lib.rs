//! Hash search: the third GPU application, written *against* the
//! Workload SDK instead of alongside it.
//!
//! The stream: a fixed header (hashed once on the CPU into a SHA-1
//! midstate) is extended by a range of candidate nonces per stream item;
//! the GPU fans one thread per nonce, and the ordered sink scores every
//! digest (leading-zero bits) into a deterministic top-k. Everything
//! mandel and dedup needed hand-written — batch formation, the
//! retry/halve/fallback ladder, buffer recycling, ordered re-emit,
//! telemetry — comes from [`workload::WorkloadDriver`]; this crate only
//! declares [`SearchWork`] and its kernel.

#![forbid(unsafe_code)]

pub mod kernels;
pub mod simd;

use std::marker::PhantomData;
use std::sync::Arc;

use dedup::sha1::{Digest, Sha1};
use fastflow::{FaultPolicy, Recycler};
use gpusim::GpuSystem;
pub use gpusim::{CudaOffload, OclOffload, Offload};
use telemetry::Recorder;
use workload::{
    arm_gpu_traces, drain_gpu_traces, DeviceOut, Workload, WorkloadDriver, WorkloadFault,
};

use crate::kernels::NonceSearchKernel;

const BLOCK_1D: u32 = 256;

/// Telemetry stage label for fault events from the replicated GPU stage.
pub const SEARCH_STAGE: &str = "stage1 (search)";

/// Bytes per SHA-1 digest in the batch buffers.
pub const DIGEST_BYTES: usize = 20;

/// Search parameters: the nonce space, its batching, and what to keep.
#[derive(Clone)]
pub struct SearchConfig {
    /// Shared prefix, hashed once on the host. Length must be a multiple
    /// of 64 (midstates exist only on SHA-1 block boundaries).
    pub header: Vec<u8>,
    /// First nonce of the search space.
    pub start_nonce: u64,
    /// Nonces to try in total.
    pub total_nonces: u64,
    /// Nonces per stream item (the batch size).
    pub range: usize,
    /// Candidates to keep.
    pub k: usize,
    /// Retry budget before a failing range degrades to the host.
    pub policy: FaultPolicy,
}

impl SearchConfig {
    /// Config over `total_nonces` candidates with the default batching.
    pub fn new(header: Vec<u8>, total_nonces: u64) -> Self {
        SearchConfig {
            header,
            start_nonce: 0,
            total_nonces,
            range: 4096,
            k: 8,
            policy: FaultPolicy::default(),
        }
    }

    /// The stream: the nonce space cut into `range`-sized work items.
    pub fn ranges(&self) -> Vec<NonceRange> {
        let end = self.start_nonce + self.total_nonces;
        let mut out = Vec::new();
        let mut start = self.start_nonce;
        while start < end {
            let count = (self.range as u64).min(end - start) as usize;
            out.push(NonceRange {
                index: out.len(),
                start,
                count,
            });
            start += count as u64;
        }
        out
    }

    /// Hash the header once; every device lane and every CPU-fallback
    /// nonce resumes from this state.
    fn midstate(&self) -> ([u32; 5], u64) {
        let mut h = Sha1::new();
        h.update(&self.header);
        let mid = h
            .midstate()
            .expect("header length must be a multiple of 64 bytes");
        (mid, self.header.len() as u64)
    }
}

/// One stream item: `count` candidate nonces starting at `start`.
#[derive(Clone, Copy, Debug)]
pub struct NonceRange {
    /// Stream position (reorder key).
    pub index: usize,
    /// First nonce of the range.
    pub start: u64,
    /// Nonces in the range.
    pub count: usize,
}

/// A scored candidate nonce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The nonce that produced `digest`.
    pub nonce: u64,
    /// Leading-zero bits of `digest`.
    pub score: u32,
    /// SHA-1 of `header || nonce`.
    pub digest: Digest,
}

/// Leading-zero bits of a digest — the "difficulty" a candidate met.
pub fn score(d: &Digest) -> u32 {
    let mut bits = 0;
    for &b in &d.0 {
        if b == 0 {
            bits += 8;
        } else {
            return bits + b.leading_zeros();
        }
    }
    bits
}

/// Deterministic top-k accumulator: best score first, ties broken toward
/// the lower nonce, so GPU, fallback and sequential runs agree exactly.
///
/// The kept entries are always in final order. A candidate no better
/// than the k-th costs one comparison; a better one is inserted after
/// every entry it does not beat, so equal candidates keep offer order,
/// exactly as a stable sort of everything offered, truncated to `k`.
pub struct TopK {
    k: usize,
    entries: Vec<Candidate>,
}

/// Strictly ahead in the ranking: higher score, or equal score and lower
/// nonce.
fn better(a: &Candidate, b: &Candidate) -> bool {
    a.score > b.score || (a.score == b.score && a.nonce < b.nonce)
}

impl TopK {
    /// Keep the best `k` candidates.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            entries: Vec::new(),
        }
    }

    /// Consider one candidate.
    pub fn offer(&mut self, c: Candidate) {
        if self.entries.len() == self.k {
            match self.entries.last() {
                Some(kth) if better(&c, kth) => self.entries.pop(),
                _ => return,
            };
        }
        let at = self.entries.partition_point(|e| !better(&c, e));
        self.entries.insert(at, c);
    }

    /// The final ranking.
    pub fn into_sorted(self) -> Vec<Candidate> {
        self.entries
    }
}

/// The hash search declared as a [`Workload`]: items are nonce ranges,
/// batches are recycled digest-byte vectors, splitting halves the range,
/// GPU state is a per-replica [`DeviceOut`] holding the digest buffer.
pub struct SearchWork<O: Offload> {
    system: Arc<GpuSystem>,
    n_gpus: usize,
    midstate: [u32; 5],
    header_len: u64,
    recycle: Recycler<Vec<u8>>,
    policy: FaultPolicy,
    _off: PhantomData<fn() -> O>,
}

impl<O: Offload> Clone for SearchWork<O> {
    fn clone(&self) -> Self {
        SearchWork {
            system: Arc::clone(&self.system),
            n_gpus: self.n_gpus,
            midstate: self.midstate,
            header_len: self.header_len,
            recycle: self.recycle.clone(),
            policy: self.policy,
            _off: PhantomData,
        }
    }
}

impl<O: Offload> SearchWork<O> {
    /// Declare the workload. `pipeline_width` sizes the digest-buffer
    /// recycle channel (one buffer in flight per worker plus slack).
    pub fn new(
        system: &Arc<GpuSystem>,
        cfg: &SearchConfig,
        n_gpus: usize,
        pipeline_width: usize,
    ) -> Self {
        assert!(n_gpus >= 1 && n_gpus <= system.device_count());
        let (midstate, header_len) = cfg.midstate();
        SearchWork {
            system: Arc::clone(system),
            n_gpus,
            midstate,
            header_len,
            recycle: fastflow::recycler(pipeline_width * 2 + 2),
            policy: cfg.policy,
            _off: PhantomData,
        }
    }

    /// The digest-buffer recycle channel (sinks push spent buffers back).
    pub fn recycler(&self) -> &Recycler<Vec<u8>> {
        &self.recycle
    }
}

impl<O: Offload> Workload for SearchWork<O> {
    type Item = NonceRange;
    type Batch = Vec<u8>;
    type Gpu = DeviceOut<O>;

    fn stage_label(&self) -> &'static str {
        SEARCH_STAGE
    }

    fn policy(&self) -> FaultPolicy {
        self.policy
    }

    fn describe(&self, item: &NonceRange) -> String {
        format!("range {}", item.index)
    }

    fn attach(&self, replica: usize) -> DeviceOut<O> {
        DeviceOut::attach(&self.system, replica % self.n_gpus)
    }

    fn make_batch(&self, item: &NonceRange) -> Vec<u8> {
        let mut buf = self.recycle.take().unwrap_or_default();
        buf.clear();
        buf.resize(item.count * DIGEST_BYTES, 0);
        buf
    }

    fn try_gpu_batch(
        &self,
        gpu: &mut DeviceOut<O>,
        item: &NonceRange,
        out: &mut Vec<u8>,
    ) -> Result<(), WorkloadFault> {
        self.try_gpu_split(gpu, item, 0, item.count, out)
    }

    fn split_units(&self, item: &NonceRange) -> usize {
        item.count
    }

    /// Hash nonces `lo..hi` of the range into their `20`-byte slots of
    /// `out`; a sub-range after an OOM sizes the device buffer to its own
    /// (halved) span.
    fn try_gpu_split(
        &self,
        gpu: &mut DeviceOut<O>,
        item: &NonceRange,
        lo: usize,
        hi: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), WorkloadFault> {
        let digests = &mut out[lo * DIGEST_BYTES..hi * DIGEST_BYTES];
        gpu.launch_into(digests, (hi - lo) as u64, BLOCK_1D, |out| {
            NonceSearchKernel {
                midstate: self.midstate,
                header_len: self.header_len,
                start_nonce: item.start + lo as u64,
                n_nonces: hi - lo,
                out,
            }
        })
    }

    fn cpu_batch(&self, item: &NonceRange, out: &mut Vec<u8>) {
        simd::hash_nonces(self.midstate, self.header_len, item.start, item.count, out);
    }

    fn register_telemetry(&self, rec: &Recorder) {
        rec.register(&["hashsearch.digests"], self.recycle.counters());
    }
}

/// Run the hybrid search: nonce ranges stream through a `workers`-wide
/// ordered farm of GPU replicas; the sink scores every digest into a
/// deterministic top-k and recycles the spent buffer upstream.
pub fn search<O: Offload>(
    system: &Arc<GpuSystem>,
    cfg: &SearchConfig,
    workers: usize,
    n_gpus: usize,
    rec: Recorder,
) -> Vec<Candidate> {
    let work = SearchWork::<O>::new(system, cfg, n_gpus, workers);
    let recycle = work.recycler().clone();
    let driver = WorkloadDriver::new(work).with_recorder(rec.clone());
    arm_gpu_traces(system, &rec);
    let mut top = TopK::new(cfg.k);
    driver.run_ordered(workers, cfg.ranges(), |done| {
        for i in 0..done.item.count {
            let mut raw = [0u8; DIGEST_BYTES];
            raw.copy_from_slice(&done.batch[i * DIGEST_BYTES..(i + 1) * DIGEST_BYTES]);
            let digest = Digest(raw);
            top.offer(Candidate {
                nonce: done.item.start + i as u64,
                score: score(&digest),
                digest,
            });
        }
        recycle.give(done.batch);
    });
    drain_gpu_traces(system, &rec);
    top.into_sorted()
}

/// Sequential host reference: same nonce space, same scoring, no GPU.
/// [`search`] must agree with this bit-for-bit, faults or not.
pub fn search_cpu(cfg: &SearchConfig) -> Vec<Candidate> {
    let (midstate, header_len) = cfg.midstate();
    let mut top = TopK::new(cfg.k);
    for nonce in cfg.start_nonce..cfg.start_nonce + cfg.total_nonces {
        let mut h = Sha1::resume(midstate, header_len);
        h.update(&nonce.to_be_bytes());
        let digest = h.finalize();
        top.offer(Candidate {
            nonce,
            score: score(&digest),
            digest,
        });
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{DeviceProps, FaultSpec, GpuSystem};
    use telemetry::FaultKind;

    fn cfg(total: u64, range: usize) -> SearchConfig {
        let mut c = SearchConfig::new(vec![0x42u8; 64], total);
        c.range = range;
        c.k = 5;
        c
    }

    #[test]
    fn score_counts_leading_zero_bits() {
        assert_eq!(score(&Digest([0xFF; 20])), 0);
        assert_eq!(score(&Digest([0; 20])), 160);
        let mut d = [0u8; 20];
        d[2] = 0x10; // 16 + 3 leading zero bits
        assert_eq!(score(&Digest(d)), 19);
    }

    #[test]
    fn topk_is_deterministic_under_ties() {
        let mut top = TopK::new(2);
        let d = Digest([0xFF; 20]);
        for nonce in [9u64, 3, 7, 5] {
            top.offer(Candidate {
                nonce,
                score: 4,
                digest: d,
            });
        }
        let picked: Vec<u64> = top.into_sorted().iter().map(|c| c.nonce).collect();
        assert_eq!(picked, vec![3, 5]);
    }

    /// The ranking as it was first written: buffer every offer, stable
    /// sort and truncate whenever the buffer reaches `2k + 64`.
    struct SortAndTruncate {
        k: usize,
        entries: Vec<Candidate>,
    }

    impl SortAndTruncate {
        fn offer(&mut self, c: Candidate) {
            self.entries.push(c);
            if self.entries.len() >= self.k * 2 + 64 {
                self.compact();
            }
        }

        fn compact(&mut self) {
            self.entries
                .sort_by(|a, b| b.score.cmp(&a.score).then(a.nonce.cmp(&b.nonce)));
            self.entries.truncate(self.k);
        }

        fn into_sorted(mut self) -> Vec<Candidate> {
            self.compact();
            self.entries
        }
    }

    #[test]
    fn topk_equals_sort_and_truncate_under_ties_and_duplicate_nonces() {
        for k in [0, 1, 8, 100] {
            let mut rng = simtime::XorShift64::new(0x7071 + k as u64);
            let mut top = TopK::new(k);
            let mut reference = SortAndTruncate {
                k,
                entries: Vec::new(),
            };
            for _ in 0..12_000 {
                // Three scores, so nearly every comparison is a tie; 12 000
                // nonces drawn from 2 000, so each (score, nonce) pair is
                // offered about twice. The digest tells duplicates apart,
                // so their order is checked.
                let c = Candidate {
                    nonce: rng.below(2_000),
                    score: [3, 7, 12][rng.below(3) as usize],
                    digest: Digest(rng.bytes(DIGEST_BYTES).try_into().expect("20 bytes")),
                };
                top.offer(c);
                reference.offer(c);
            }
            let got = top.into_sorted();
            assert_eq!(got.len(), k);
            assert_eq!(got, reference.into_sorted(), "k = {k}");
        }
    }

    #[test]
    fn gpu_search_matches_cpu_reference() {
        let sys = GpuSystem::new(2, DeviceProps::titan_xp());
        let c = cfg(300, 64);
        let rec = Recorder::enabled();
        let got = search::<CudaOffload>(&sys, &c, 3, 2, rec.clone());
        assert_eq!(got, search_cpu(&c));
        assert_eq!(got.len(), 5);
        let report = rec.report();
        for device in [0, 1] {
            assert!(
                report
                    .gpu
                    .iter()
                    .any(|s| s.device == device && s.engine == "compute"),
                "no compute on device {device}"
            );
        }
        assert!(report
            .gpu
            .iter()
            .any(|s| s.name.contains("sha1_nonce_search")));
        assert!(
            report
                .family("pools")
                .any(|p| p.labels == ["hashsearch.digests"]),
            "the digest recycle pool is missing from the report"
        );
    }

    #[test]
    fn partial_tail_range_is_searched() {
        let c = cfg(100, 64); // ranges of 64 + 36
        let ranges = c.ranges();
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[1].count, 36);
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        assert_eq!(
            search::<CudaOffload>(&sys, &c, 1, 1, Recorder::default()),
            search_cpu(&c)
        );
    }

    #[test]
    fn faulty_devices_still_match_the_reference() {
        let sys = GpuSystem::new(2, DeviceProps::titan_xp());
        sys.inject_faults(&FaultSpec::demo(7));
        let c = cfg(500, 64);
        let rec = Recorder::enabled();
        let got = search::<CudaOffload>(&sys, &c, 3, 2, rec.clone());
        assert_eq!(got, search_cpu(&c));
        let report = rec.report();
        assert!(report.retry_count() >= 1, "expected at least one retry");
        assert!(
            report.fallback_count() >= 1,
            "expected at least one CPU fallback"
        );
    }

    #[test]
    fn oom_halving_keeps_ranges_on_device() {
        // Device memory fits half a range's digests but not a full one.
        let mut props = DeviceProps::titan_xp();
        props.global_mem = 2048; // bytes; 128 digests need 2560, halves 1280
        let sys = GpuSystem::new(1, props);
        let c = cfg(256, 128);
        let rec = Recorder::enabled();
        let got = search::<CudaOffload>(&sys, &c, 1, 1, rec.clone());
        assert_eq!(got, search_cpu(&c));
        let report = rec.report();
        assert!(report.faults_of(FaultKind::DeviceOom).count() >= 1);
        assert_eq!(report.fallback_count(), 0, "halving should avoid fallback");
    }

    #[test]
    fn ocl_front_end_agrees_with_cuda() {
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let c = cfg(200, 64);
        assert_eq!(
            search::<OclOffload>(&sys, &c, 2, 1, Recorder::default()),
            search::<CudaOffload>(&sys, &c, 2, 1, Recorder::default())
        );
    }
}
