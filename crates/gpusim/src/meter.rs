//! Work metering: the bridge between functional kernel execution and the
//! timing model.
//!
//! Kernels report, per *lane* (global thread index), how many abstract work
//! units they executed — Mandelbrot iterations, SHA-1 bytes, LZSS
//! comparisons. The meter folds lanes into warps keeping the **maximum**
//! per warp: a warp is as slow as its slowest lane, which is exactly the
//! branch-divergence effect §IV-A highlights for Mandelbrot.

/// Collects per-lane work and aggregates it per warp.
///
/// A kernel body reports work in whichever grain suits its host
/// strategy — one lane ([`record`](Self::record)), a run of contiguous
/// lanes with individual units ([`record_span`](Self::record_span)) or a
/// run of lanes that all did the same ([`record_fill`](Self::record_fill)).
/// The four observables (`warp_units`, `max_warp_units`, `total_units`,
/// `lanes_recorded`) depend only on which lane did how much, never on the
/// grain it was reported in.
#[derive(Debug, Clone)]
pub struct WorkMeter {
    warp_size: u32,
    /// Threads in the launch being metered: every recorded lane range is
    /// checked against it once per call.
    lanes: u64,
    /// max work units over the lanes of each warp.
    warp_max: Vec<u64>,
    /// total units over all lanes (for reporting / CPU-equivalence checks).
    total_units: u64,
    lanes_recorded: u64,
}

impl WorkMeter {
    /// Meter for a launch of `lanes` total threads in warps of `warp_size`.
    pub fn new(lanes: u64, warp_size: u32) -> Self {
        let mut meter = WorkMeter {
            warp_size,
            lanes: 0,
            warp_max: Vec::new(),
            total_units: 0,
            lanes_recorded: 0,
        };
        meter.reset(lanes, warp_size);
        meter
    }

    /// Re-arm an existing meter for a new launch, reusing the per-warp
    /// buffer. Equivalent to `*self = WorkMeter::new(lanes, warp_size)`
    /// but allocation-free once the buffer has grown to the steady-state
    /// launch width — the device keeps one meter per state and resets it
    /// per launch, so kernel launches stay off the heap.
    pub fn reset(&mut self, lanes: u64, warp_size: u32) {
        assert!(warp_size > 0);
        self.warp_size = warp_size;
        self.lanes = lanes;
        let warps = lanes.div_ceil(warp_size as u64) as usize;
        self.warp_max.clear();
        self.warp_max.resize(warps, 0);
        self.total_units = 0;
        self.lanes_recorded = 0;
    }

    /// Record `units` of work done by `lane`.
    #[inline]
    pub fn record(&mut self, lane: u64, units: u64) {
        self.record_span(lane, &[units]);
    }

    /// Record the work of the contiguous lanes `first_lane..first_lane +
    /// units.len()`, lane `first_lane + i` having done `units[i]`. Folds
    /// the warp maxima in one pass over the slice.
    pub fn record_span<U: Copy + Into<u64>>(&mut self, first_lane: u64, units: &[U]) {
        let end = first_lane + units.len() as u64;
        assert!(
            end <= self.lanes,
            "lanes {first_lane}..{end} outside launch of {}",
            self.lanes
        );
        let warp_size = self.warp_size as u64;
        let mut warp = (first_lane / warp_size) as usize;
        // Lanes left in the warp the span starts in; whole warps after it.
        let mut room = (warp_size - first_lane % warp_size) as usize;
        let mut rest = units;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            let mut max = 0u64;
            for &u in chunk {
                let u: u64 = u.into();
                self.total_units += u;
                max = max.max(u);
            }
            let slot = &mut self.warp_max[warp];
            *slot = (*slot).max(max);
            warp += 1;
            room = warp_size as usize;
            rest = tail;
        }
        self.lanes_recorded += units.len() as u64;
    }

    /// Record the same `units` for every lane of `lanes` (uniform kernels,
    /// bounds-check-and-exit tails). The range names the lanes themselves,
    /// so it cannot disagree with the launch it meters.
    pub fn record_fill(&mut self, lanes: std::ops::Range<u64>, units: u64) {
        assert!(
            lanes.start <= lanes.end && lanes.end <= self.lanes,
            "lanes {lanes:?} outside launch of {}",
            self.lanes
        );
        if lanes.is_empty() {
            return;
        }
        let warp_size = self.warp_size as u64;
        let first = (lanes.start / warp_size) as usize;
        let last = ((lanes.end - 1) / warp_size) as usize;
        for w in &mut self.warp_max[first..=last] {
            *w = (*w).max(units);
        }
        let n = lanes.end - lanes.start;
        self.total_units += n * units;
        self.lanes_recorded += n;
    }

    /// Sum of per-warp maxima: the cycle-weighted work the SMs must issue.
    pub fn warp_units(&self) -> u64 {
        self.warp_max.iter().sum()
    }

    /// The largest single-warp work (lower bound on kernel time).
    pub fn max_warp_units(&self) -> u64 {
        self.warp_max.iter().copied().max().unwrap_or(0)
    }

    /// Total units across lanes (what a sequential CPU would execute).
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// Number of lanes recorded (diagnostic).
    pub fn lanes_recorded(&self) -> u64 {
        self.lanes_recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_max_is_divergence() {
        let mut m = WorkMeter::new(64, 32);
        // Warp 0: lanes 0..32 do 1 unit except lane 3 doing 100.
        for lane in 0..32 {
            m.record(lane, if lane == 3 { 100 } else { 1 });
        }
        // Warp 1: uniform 10.
        for lane in 32..64 {
            m.record(lane, 10);
        }
        assert_eq!(m.warp_units(), 110);
        assert_eq!(m.max_warp_units(), 100);
        assert_eq!(m.total_units(), 31 + 100 + 320);
        // Warp time exceeds the ideal total / width: divergence costs.
        assert!(m.warp_units() * 32 > m.total_units());
    }

    /// The four observables a launch is timed and checked by.
    fn observables(m: &WorkMeter) -> (u64, u64, u64, u64) {
        (
            m.warp_units(),
            m.max_warp_units(),
            m.total_units(),
            m.lanes_recorded(),
        )
    }

    #[test]
    fn fill_matches_the_per_lane_loop_on_any_range() {
        // Whole launch, a range inside one warp, one straddling warps,
        // one ending on the last (partial) warp, and an empty one.
        for range in [0..100u64, 3..7, 30..70, 64..100, 50..50] {
            let mut a = WorkMeter::new(100, 32);
            a.record_fill(range.clone(), 7);
            let mut b = WorkMeter::new(100, 32);
            for lane in range.clone() {
                b.record(lane, 7);
            }
            assert_eq!(observables(&a), observables(&b), "{range:?}");
        }
    }

    #[test]
    fn span_matches_the_per_lane_loop_at_any_offset() {
        let units: Vec<u32> = (0..90u32).map(|i| (i * 37 + 11) % 101).collect();
        for first in [0u64, 1, 31, 32, 33, 70] {
            for len in [0usize, 1, 5, 31, 32, 33, 64, 90] {
                let len = len.min(160 - first as usize).min(units.len());
                let mut a = WorkMeter::new(160, 32);
                a.record_span(first, &units[..len]);
                let mut b = WorkMeter::new(160, 32);
                for (i, &u) in units[..len].iter().enumerate() {
                    b.record(first + i as u64, u as u64);
                }
                assert_eq!(observables(&a), observables(&b), "{first}+{len}");
            }
        }
    }

    #[test]
    fn spans_and_fills_fold_into_earlier_records() {
        // Grains mix: a later span raises a warp's max, a later fill
        // below the max leaves it alone.
        let mut m = WorkMeter::new(64, 32);
        m.record_fill(0..64, 5);
        m.record_span(30, &[9u64, 2, 8]);
        m.record_fill(40..50, 1);
        assert_eq!(m.warp_units(), 9 + 8);
        assert_eq!(m.max_warp_units(), 9);
        assert_eq!(m.total_units(), 64 * 5 + 19 + 10);
        assert_eq!(m.lanes_recorded(), 64 + 3 + 10);
    }

    #[test]
    fn convergent_warp_divergence_factor_is_one() {
        let mut m = WorkMeter::new(32, 32);
        m.record_fill(0..32, 50);
        // Warp time equals the ideal total / width.
        assert_eq!(m.warp_units() * 32, m.total_units());
    }

    #[test]
    fn partial_last_warp_rounds_up() {
        let m = WorkMeter::new(33, 32);
        assert_eq!(m.warp_max.len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside launch")]
    fn out_of_range_lane_panics() {
        let mut m = WorkMeter::new(32, 32);
        m.record(32, 1);
    }

    #[test]
    #[should_panic(expected = "outside launch")]
    fn span_past_the_launch_panics() {
        let mut m = WorkMeter::new(40, 32);
        m.record_span(38, &[1u64, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "outside launch")]
    fn fill_past_the_launch_panics() {
        let mut m = WorkMeter::new(40, 32);
        m.record_fill(0..41, 1);
    }

    #[test]
    fn empty_meter_is_sane() {
        let m = WorkMeter::new(0, 32);
        assert!(m.warp_max.is_empty());
        assert_eq!(m.warp_units(), 0);
        assert_eq!(m.max_warp_units(), 0);
        assert_eq!(m.total_units(), 0);
    }
}
