//! Virtual time types.
//!
//! Virtual time is measured in integer nanoseconds so that event ordering is
//! exact and runs are bit-reproducible. Durations derived from floating-point
//! cost models are rounded to the nearest nanosecond at the boundary.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64` (for reporting only; never for ordering).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    /// Negative and NaN inputs clamp to zero (cost models occasionally
    /// produce tiny negative values from subtraction of estimates).
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64` (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_000);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_000);
        assert_eq!(((t + d) - t).as_nanos(), 2_000);
        assert_eq!((d * 3).as_nanos(), 6_000);
        assert_eq!((d / 2).as_nanos(), 1_000);
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(-1.0).as_nanos(), 0);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN).as_nanos(), 0);
        assert_eq!(SimDuration::from_secs_f64(0.5e-9).as_nanos(), 1); // rounds
        assert_eq!(SimDuration::from_secs_f64(0.4e-9).as_nanos(), 0);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(b.since(a).as_nanos(), 4);
        assert_eq!(a.since(b).as_nanos(), 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_micros(2_000).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_micros(3_000_000).to_string(), "3.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }
}
