//! Order statistics for the benchmark's own samples.

/// Median of `v` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n` — the only tail a run of that
/// size can state. `None` below 20 samples (not even a median has ten
/// on each side).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, share of the sample beyond it in parts per 10 000):
    // integer arithmetic, so 100 samples × 10 % is exactly ten.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (95.0, 500),
        (90.0, 1_000),
        (75.0, 2_500),
        (50.0, 5_000),
    ]
    .into_iter()
    .find(|&(_, beyond)| n * beyond / 10_000 >= 10)
    .map(|(p, _)| p)
}

/// `(p50, p99)` of a latency-like sample; sorts in place.
pub fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (percentile(samples, 50.0), percentile(samples, 99.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(1_600), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
