//! Online batch/memory-space auto-tuner.
//!
//! The paper's fig1 ladder hard-codes its best operating point (batch
//! size and number of CUDA memory spaces) from offline sweeps. The
//! [`AutoTuner`] rediscovers that point online: it probes candidate
//! `(batch, spaces)` configurations through a caller-supplied measure
//! function (an epoch of the live pipeline, or a modeled run of it),
//! reads back throughput and p99 latency, and hill-climbs the
//! two-dimensional grid until no neighbor is meaningfully better.
//!
//! The climb is deterministic: the grids are fixed, neighbors are
//! probed in a fixed order, results are cached so a configuration is
//! measured at most once, and a move requires a relative throughput
//! gain above a 1 % dead-band — so the trajectory (and thus the
//! converged configuration) is a pure function of the measure function.

use std::collections::HashMap;

/// What one measurement epoch observed at a candidate configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochMeasure {
    /// Items (or batches) per modeled second — the objective.
    pub throughput: f64,
    /// 99th-percentile per-batch latency, modeled ns (reported in the
    /// trajectory; a tie on throughput breaks toward lower p99).
    pub p99_ns: u64,
}

/// One probe in the tuner's trajectory.
#[derive(Clone, Copy, Debug)]
pub struct TuneStep {
    /// Which climb epoch this probe belongs to (0 = the starting point).
    pub epoch: usize,
    /// Candidate batch size.
    pub batch_size: usize,
    /// Candidate memory-space count.
    pub mem_spaces: usize,
    /// What the epoch measured there.
    pub measure: EpochMeasure,
    /// Whether the tuner moved to this configuration.
    pub accepted: bool,
}

/// Where the tuner converged, with the full audit trail.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// Converged batch size.
    pub batch_size: usize,
    /// Converged memory-space count.
    pub mem_spaces: usize,
    /// Measurement at the converged configuration.
    pub measure: EpochMeasure,
    /// Every probe, in order (cache hits are not re-recorded).
    pub trajectory: Vec<TuneStep>,
    /// Climb epochs consumed (accepted moves + the final rejected round).
    pub epochs: usize,
}

/// Batch sizes the climb chooses from: powers of two in `4..=128`.
const BATCH_GRID: [usize; 6] = [4, 8, 16, 32, 64, 128];
/// Memory-space counts the climb chooses from.
const SPACES_GRID: [usize; 4] = [1, 2, 4, 8];
/// Minimum relative throughput gain required to accept a move. A
/// dead-band keeps the controller from chattering between statistically
/// identical neighbors.
const MIN_GAIN: f64 = 0.01;
/// Climb epochs after which the tuner stops, converged or not.
const MAX_EPOCHS: usize = 32;

/// Greedy cached hill-climber over the batch × memory-space grid,
/// starting from the naive corner `(4, 1)` — deliberately far from the
/// paper's hand-picked optimum so convergence is earned, not seeded.
pub struct AutoTuner;

impl AutoTuner {
    /// The tuner over the batch × memory-space grid above.
    pub fn new() -> Self {
        AutoTuner
    }

    /// Climb until converged (no neighbor clears the dead-band) or the
    /// epoch budget runs out. `probe(batch, spaces)` runs one
    /// measurement epoch at a candidate configuration and reports what
    /// it saw; each configuration is probed at most once.
    pub fn run(&self, mut probe: impl FnMut(usize, usize) -> EpochMeasure) -> TuneOutcome {
        let mut cache: HashMap<(usize, usize), EpochMeasure> = HashMap::new();
        let mut trajectory = Vec::new();
        let (mut bi, mut si) = (0, 0); // the naive corner
        let mut epoch = 0usize;
        let mut measure_at = |bi: usize,
                              si: usize,
                              epoch: usize,
                              trajectory: &mut Vec<TuneStep>,
                              cache: &mut HashMap<(usize, usize), EpochMeasure>|
         -> EpochMeasure {
            if let Some(&m) = cache.get(&(bi, si)) {
                return m;
            }
            let m = probe(BATCH_GRID[bi], SPACES_GRID[si]);
            cache.insert((bi, si), m);
            trajectory.push(TuneStep {
                epoch,
                batch_size: BATCH_GRID[bi],
                mem_spaces: SPACES_GRID[si],
                measure: m,
                accepted: false,
            });
            m
        };
        let mut current = measure_at(bi, si, epoch, &mut trajectory, &mut cache);
        if let Some(step) = trajectory.last_mut() {
            step.accepted = true;
        }
        loop {
            epoch += 1;
            if epoch > MAX_EPOCHS {
                break;
            }
            // Probe the four grid neighbors in a fixed order.
            let mut neighbors = Vec::with_capacity(4);
            if bi + 1 < BATCH_GRID.len() {
                neighbors.push((bi + 1, si));
            }
            if bi > 0 {
                neighbors.push((bi - 1, si));
            }
            if si + 1 < SPACES_GRID.len() {
                neighbors.push((bi, si + 1));
            }
            if si > 0 {
                neighbors.push((bi, si - 1));
            }
            let mut best: Option<(usize, usize, EpochMeasure)> = None;
            for (nb, ns) in neighbors {
                let m = measure_at(nb, ns, epoch, &mut trajectory, &mut cache);
                let better = match best {
                    None => true,
                    Some((_, _, bm)) => {
                        m.throughput > bm.throughput
                            || (m.throughput == bm.throughput && m.p99_ns < bm.p99_ns)
                    }
                };
                if better {
                    best = Some((nb, ns, m));
                }
            }
            let Some((nb, ns, m)) = best else { break };
            if m.throughput <= current.throughput * (1.0 + MIN_GAIN) {
                break; // converged: no neighbor clears the dead-band
            }
            (bi, si) = (nb, ns);
            current = m;
            if let Some(step) = trajectory
                .iter_mut()
                .rev()
                .find(|s| s.batch_size == BATCH_GRID[bi] && s.mem_spaces == SPACES_GRID[si])
            {
                step.accepted = true;
            }
        }
        TuneOutcome {
            batch_size: BATCH_GRID[bi],
            mem_spaces: SPACES_GRID[si],
            measure: current,
            trajectory,
            epochs: epoch,
        }
    }
}

impl Default for AutoTuner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth unimodal landscape peaking at (32, 4) — the shape of the
    /// paper's fig1 sweep (throughput rises with batch until launch
    /// overhead amortizes, then transfer serialization bites; spaces
    /// help until occupancy saturates).
    fn fig1_like(batch: usize, spaces: usize) -> EpochMeasure {
        let b = batch as f64;
        let s = spaces as f64;
        let batch_term = -((b.log2() - 5.0).powi(2)); // peak at 32
        let space_term = -((s.log2() - 2.0).powi(2)); // peak at 4
        EpochMeasure {
            throughput: 100.0 + 10.0 * batch_term + 6.0 * space_term,
            p99_ns: (1_000.0 * b) as u64,
        }
    }

    #[test]
    fn climbs_to_the_peak_from_the_naive_corner() {
        let out = AutoTuner::new().run(fig1_like);
        assert_eq!((out.batch_size, out.mem_spaces), (32, 4), "{out:?}");
        assert!(out.epochs <= 10, "should converge quickly: {}", out.epochs);
    }

    #[test]
    fn caches_probes_and_is_deterministic() {
        let mut calls_a = Vec::new();
        let a = AutoTuner::new().run(|b, s| {
            calls_a.push((b, s));
            fig1_like(b, s)
        });
        let mut calls_b = Vec::new();
        let b = AutoTuner::new().run(|b, s| {
            calls_b.push((b, s));
            fig1_like(b, s)
        });
        assert_eq!(calls_a, calls_b, "probe order must be deterministic");
        assert_eq!(a.batch_size, b.batch_size);
        assert_eq!(a.mem_spaces, b.mem_spaces);
        // Caching: never more probes than grid cells.
        assert!(calls_a.len() <= 24, "cached probes: {}", calls_a.len());
        let mut sorted = calls_a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), calls_a.len(), "no config probed twice");
    }

    #[test]
    fn dead_band_rejects_noise_sized_gains() {
        // Flat landscape with a 0.5% bump one step away: below the 1%
        // dead-band, so the tuner must stay put.
        let out = AutoTuner::new().run(|b, _| EpochMeasure {
            throughput: if b == 8 { 100.5 } else { 100.0 },
            p99_ns: 1_000,
        });
        assert_eq!((out.batch_size, out.mem_spaces), (4, 1), "{out:?}");
    }

    #[test]
    fn trajectory_marks_accepted_moves() {
        let out = AutoTuner::new().run(fig1_like);
        let accepted: Vec<(usize, usize)> = out
            .trajectory
            .iter()
            .filter(|s| s.accepted)
            .map(|s| (s.batch_size, s.mem_spaces))
            .collect();
        assert_eq!(accepted.first(), Some(&(4, 1)), "start is accepted");
        assert_eq!(accepted.last(), Some(&(32, 4)), "peak is accepted");
    }
}
