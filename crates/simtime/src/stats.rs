//! Lightweight statistics collectors for model instrumentation.

use crate::time::SimTime;

/// A time-weighted value tracker: integrates `value · dt` so that e.g. mean
/// queue length or utilization can be reported at the end of a run.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    integral: f64, // value-seconds
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Start tracking at value 0 from t = 0.
    pub fn new() -> Self {
        TimeWeighted {
            value: 0.0,
            last_change: SimTime::ZERO,
            integral: 0.0,
        }
    }

    /// Set a new value at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.integral += self.value * now.since(self.last_change).as_secs_f64();
        self.last_change = now;
        self.value = value;
    }

    /// Add `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Time-weighted mean over `[0, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now.as_secs_f64();
        if total == 0.0 {
            return self.value;
        }
        let integral = self.integral + self.value * now.since(self.last_change).as_secs_f64();
        integral / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new();
        // value 2 over [0, 10s), value 4 over [10s, 20s) => mean 3
        tw.set(SimTime::ZERO, 2.0);
        tw.set(SimTime::from_nanos(10_000_000_000), 4.0);
        let mean = tw.mean(SimTime::from_nanos(20_000_000_000));
        assert!((mean - 3.0).abs() < 1e-9, "mean={mean}");
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new();
        // 1 over [0, 5), 2 over [5, 9), 0 over [9, 18): 13 value-ns in 18 ns.
        tw.add(SimTime::ZERO, 1.0);
        tw.add(SimTime::from_nanos(5), 1.0);
        tw.add(SimTime::from_nanos(9), -2.0);
        let mean = tw.mean(SimTime::from_nanos(18));
        assert!((mean - 13.0 / 18.0).abs() < 1e-9, "mean={mean}");
    }
}
