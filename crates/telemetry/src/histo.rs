//! Lock-free latency histograms.
//!
//! [`LatencyHisto`] is a fixed-size log2 histogram with linear sub-buckets
//! (the HDR-histogram layout): recording is a handful of relaxed atomic
//! RMWs on a pre-allocated bucket array — wait-free, allocation-free and
//! lock-free, so it is safe to call from the SPSC hot path the FastFlow
//! TR insists must stay wait-free. Quantile queries walk a snapshot of the
//! buckets and are only taken at report time.
//!
//! Resolution: values are bucketed by their most significant bit with
//! [`SUB_BITS`] extra bits of linear resolution, so any reported quantile
//! is an upper bound within `1/2^SUB_BITS` (12.5%) of the true value;
//! values below `2^SUB_BITS` are exact. `max` is tracked exactly.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket bits per power of two (8 sub-buckets).
const SUB_BITS: u32 = 3;
/// Sub-buckets per power-of-two group.
const SUB: usize = 1 << SUB_BITS;
/// Total buckets covering the whole `u64` range.
/// Max index is `((63 - SUB_BITS + 1) << SUB_BITS) + (SUB - 1)`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    let m = (63 - (v | 1).leading_zeros()) as usize; // MSB position
    if m < SUB_BITS as usize {
        v as usize
    } else {
        let shift = m - SUB_BITS as usize;
        ((shift + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
    }
}

/// Upper edge (inclusive) of bucket `idx` — quantiles report this value,
/// keeping them conservative upper bounds.
#[inline]
fn bucket_value(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let shift = (idx >> SUB_BITS) - 1;
        let sub = (idx & (SUB - 1)) as u64;
        // The very top bucket's edge is 2^64; wrapping yields u64::MAX.
        ((SUB as u64 + sub + 1) << shift).wrapping_sub(1)
    }
}

/// A wait-free fixed-bucket latency histogram (nanosecond samples).
///
/// [`record`](LatencyHisto::record) performs four relaxed atomic updates
/// on pre-allocated storage: no locks, no allocation, no clock reads —
/// cheap enough for per-item instrumentation inside a stage loop.
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHisto {
    /// An empty histogram (allocates its bucket array once, here).
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the boxed array via a Vec.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = v
            .into_boxed_slice()
            .try_into()
            .expect("bucket count is BUCKETS");
        LatencyHisto {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Wait-free: four relaxed atomic RMWs, nothing else.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[inline]
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough copy of the counters for quantile computation.
    pub(crate) fn counts(&self) -> HistoCounts {
        let mut c = HistoCounts::new();
        c.add(self);
        c
    }

    /// Compute the percentile summary of everything recorded so far.
    pub fn snapshot(&self) -> LatencySnapshot {
        self.counts().snapshot()
    }
}

/// Non-atomic accumulation buffer: merges one or more [`LatencyHisto`]s
/// (e.g. all replicas of a stage) before computing quantiles.
pub(crate) struct HistoCounts {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistoCounts {
    pub(crate) fn new() -> Self {
        HistoCounts {
            buckets: Box::new([0u64; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Merge a live histogram's counters into this buffer.
    pub(crate) fn add(&mut self, h: &LatencyHisto) {
        for (acc, b) in self.buckets.iter_mut().zip(h.buckets.iter()) {
            *acc += b.load(Ordering::Relaxed);
        }
        self.count += h.count.load(Ordering::Relaxed);
        self.sum += h.sum.load(Ordering::Relaxed);
        self.max = self.max.max(h.max.load(Ordering::Relaxed));
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(idx).min(self.max);
            }
        }
        self.max
    }

    pub(crate) fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count,
            mean_ns: self.sum.checked_div(self.count).unwrap_or(0),
            max_ns: self.max,
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
        }
    }
}

/// Percentile summary of a latency distribution, in nanoseconds.
///
/// Quantiles are upper bounds within the histogram's 12.5% bucket
/// resolution; `max_ns` is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64 {
            let v = 1u64 << shift;
            probes.extend([v.saturating_sub(1), v, v.saturating_add(1), v + v / 2]);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut last = 0usize;
        for probe in probes {
            let idx = bucket_index(probe);
            assert!(idx < BUCKETS, "idx {idx} for {probe}");
            assert!(idx >= last, "non-monotone bucket at {probe}");
            last = idx;
            // The bucket's upper edge must not undershoot the value.
            assert!(bucket_value(idx) >= probe, "edge < {probe}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_value(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let h = LatencyHisto::new();
        for v in 0..16u64 {
            h.record(v);
        }
        // Every value below 2^SUB_BITS+1 groups lands in its own bucket, so
        // the median of 0..16 is exactly the rank-8 value.
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.p50_ns, 7);
        assert_eq!(s.max_ns, 15);
    }

    #[test]
    fn synthetic_distribution_percentiles_within_resolution() {
        // 900 × 100ns, 90 × 1_000ns, 10 × 10_000ns: p50/p90 in the 100ns
        // bucket, p99 in the 1_000ns bucket, max exact.
        let h = LatencyHisto::new();
        for _ in 0..900 {
            h.record(100);
        }
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max_ns, 10_000);
        let within = |got: u64, want: u64| {
            got >= want && (got as f64) <= want as f64 * (1.0 + 1.0 / SUB as f64)
        };
        assert!(within(s.p50_ns, 100), "p50 {}", s.p50_ns);
        assert!(within(s.p90_ns, 100), "p90 {}", s.p90_ns);
        assert!(within(s.p95_ns, 1_000), "p95 {}", s.p95_ns);
        assert!(within(s.p99_ns, 1_000), "p99 {}", s.p99_ns);
        let mean = (900 * 100 + 90 * 1_000 + 10 * 10_000) / 1000;
        assert_eq!(s.mean_ns, mean);
    }

    #[test]
    fn uniform_distribution_median_close() {
        let h = LatencyHisto::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // 12.5% bucket resolution around the true quantiles.
        assert!((450..=570).contains(&s.p50_ns), "p50 {}", s.p50_ns);
        assert!((900..=1_000).contains(&s.p99_ns), "p99 {}", s.p99_ns);
        assert_eq!(s.max_ns, 1_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHisto::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..100_000u64 {
                        h.record(t * 1_000 + (i % 7));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 400_000);
        let merged: u64 = h.counts().buckets.iter().sum();
        assert_eq!(merged, 400_000);
    }

    #[test]
    fn merged_replicas_aggregate() {
        let a = LatencyHisto::new();
        let b = LatencyHisto::new();
        for _ in 0..10 {
            a.record(100);
            b.record(200);
        }
        let mut c = HistoCounts::new();
        c.add(&a);
        c.add(&b);
        let s = c.snapshot();
        assert_eq!(s.count, 20);
        assert_eq!(s.max_ns, 200);
        assert!(s.p50_ns >= 100 && s.p50_ns < 200, "p50 {}", s.p50_ns);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = LatencyHisto::new().snapshot();
        assert_eq!(s, LatencySnapshot::default());
    }
}
