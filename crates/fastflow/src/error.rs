//! The retry policy of the fail-soft error model.
//!
//! A stage panic is a programmer error: the join re-raises it on the caller
//! thread after the graph drains. Operational faults (device out-of-memory,
//! transient kernel failures) are absorbed instead, by the `workload`
//! driver's recovery ladder: retry per [`FaultPolicy`], then halve the
//! batch, then fall back to the bit-identical CPU path.

use std::time::Duration;

/// Bounded retry-with-backoff, applied to a failed attempt before the
/// failure escalates to the next rung of the recovery ladder.
#[derive(Clone, Copy, Debug)]
pub struct FaultPolicy {
    /// Retries after the first failed attempt (so `max_retries + 1` total
    /// attempts). `0` disables retrying.
    pub max_retries: u32,
    /// Sleep between attempts. Keep this far below the stall watchdog's
    /// threshold or retries will read as stalls.
    pub backoff: Duration,
}

impl FaultPolicy {
    /// `max_retries` attempts with a fixed `backoff` between them.
    pub fn retries(max_retries: u32, backoff: Duration) -> Self {
        FaultPolicy {
            max_retries,
            backoff,
        }
    }
}

impl Default for FaultPolicy {
    /// Two retries, 50 µs apart — enough to ride out a transient injected
    /// fault without tripping a millisecond-scale watchdog.
    fn default() -> Self {
        FaultPolicy::retries(2, Duration::from_micros(50))
    }
}
