//! `simtime` — a small deterministic discrete-event simulation (DES) core.
//!
//! This crate is the timing substrate of the `hetstream` reproduction. The
//! reproduction's hosts have one or two CPU cores and no GPU, so the
//! paper's performance figures are regenerated on a *model* of the paper's
//! testbed (i9-7900X + 2× Titan XP). `simtime` provides the pieces every such model
//! needs:
//!
//! * a virtual clock with nanosecond resolution ([`SimTime`], [`SimDuration`]),
//! * an event queue driven by closures ([`Sim`]),
//! * a FIFO multi-server resource ([`Server`]) for modelling CPU worker pools
//!   and GPU engines,
//! * a bounded blocking buffer ([`BoundedBuffer`]) for modelling the
//!   FastFlow/TBB inter-stage queues.
//!
//! Everything is single-threaded and fully deterministic: two runs of the
//! same model produce identical traces. There is intentionally no access to
//! wall-clock time or ambient randomness.
//!
//! # Example
//!
//! ```
//! use simtime::{Sim, SimDuration};
//!
//! let mut sim = Sim::new();
//! sim.schedule(SimDuration::from_micros(5), |sim| {
//!     assert_eq!(sim.now().as_nanos(), 5_000);
//! });
//! let end = sim.run();
//! assert_eq!(end.as_nanos(), 5_000);
//! ```

#![forbid(unsafe_code)]

mod buffer;
mod engine;
pub mod rng;
mod server;
mod stats;
mod time;

pub use buffer::BoundedBuffer;
pub use engine::Sim;
pub use rng::XorShift64;
pub use server::Server;
pub use stats::TimeWeighted;
pub use time::{SimDuration, SimTime};
