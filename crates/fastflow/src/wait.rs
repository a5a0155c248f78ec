//! How a channel endpoint waits for its peer.
//!
//! FastFlow can run its queues in non-blocking (spinning) or blocking mode.
//! This crate runs them blocking only: a waiter spins briefly — in a busy
//! pipeline the peer usually makes progress within a few hundred cycles —
//! then yields, then parks on a [`telemetry::sync::Signal`] until a peer
//! notifies it. A spinning mode wastes the CPU an oversubscribed host
//! needs for the peer.

/// How a channel endpoint waits for its peer: spin briefly, then park on
/// a condition variable until notified (FastFlow's blocking mode). It is
/// the only strategy; [`channel`](crate::channel()) still takes it as an
/// argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaitStrategy {
    /// Spin, yield, then park until notified.
    #[default]
    Block,
}
