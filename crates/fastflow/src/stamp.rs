//! Item envelope carrying the emit timestamp for end-to-end latency.
//!
//! Every internal pipeline channel transports [`Stamped<T>`] instead of a
//! bare `T`: the source stamps each fresh item with
//! `StageHandle::stamp_ns()` (0 when telemetry is disabled) and every
//! downstream stage forwards the stamp alongside its outputs, so the
//! sink can record the item's full source→sink journey with
//! `Recorder::record_e2e`. The envelope is two machine words; with
//! telemetry disabled the stamp is the constant 0 and no clock is read.

/// An item plus the ns-since-run-start instant its ancestor left the
/// source (`0` = untimed, i.e. telemetry disabled or synthetic input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped<T> {
    /// The payload.
    pub item: T,
    /// Emit instant in ns since the recorder epoch; 0 means unstamped.
    pub emit_ns: u64,
}

impl<T> Stamped<T> {
    /// Wrap an item with no timing information.
    #[inline]
    pub fn bare(item: T) -> Self {
        Stamped { item, emit_ns: 0 }
    }

    /// Wrap an item stamped at `emit_ns`.
    #[inline]
    pub fn at(item: T, emit_ns: u64) -> Self {
        Stamped { item, emit_ns }
    }
}
