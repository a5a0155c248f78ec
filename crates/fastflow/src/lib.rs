//! `fastflow` — a FastFlow-style stream-parallel runtime in safe-by-API Rust.
//!
//! This crate reproduces, from scratch, the runtime layer the paper's SPar
//! DSL compiles to: algorithmic skeletons (pipeline, farm, ordered farm)
//! built on fine-grained lock-free SPSC queues with selectable blocking /
//! non-blocking wait strategies.
//!
//! Layering, bottom-up:
//!
//! * [`spsc`] — bounded lock-free single-producer/single-consumer ring;
//! * [`wait`] — spin / yield / block wait strategies ([`WaitStrategy`]);
//! * [`mod@channel`] — SPSC ring + wait strategy + end-of-stream propagation;
//! * [`node`] — the [`Node`] processing abstraction (`ff_node` analogue);
//! * [`farm`] — replicated workers between a fan-out and an (ordered) fan-in
//!   endpoint, fused into the neighbouring stages;
//! * [`pipeline`] — typed thread-per-stage pipeline builder;
//! * [`pool`] — size-classed buffer pool + recycle channel (zero-copy
//!   payload discipline for the hot paths);
//! * [`error`] — the [`FaultPolicy`] retry rung of the recovery ladder the
//!   `workload` driver runs.
//!
//! # Example
//!
//! ```
//! use fastflow::{node, Pipeline};
//!
//! let out = Pipeline::builder()
//!     .from_iter(0..100u64)
//!     .farm_ordered(4, |_worker| node::map(|x: u64| x * x))
//!     .collect();
//! assert_eq!(out[99], 99 * 99);
//! ```

pub mod channel;
pub mod error;
pub mod farm;
pub mod node;
pub mod pipeline;
pub mod pool;
pub mod spsc;
pub mod stamp;
pub mod wait;

pub use channel::{channel, Receiver, SendError, Sender, TrySendError};
pub use error::FaultPolicy;
pub use farm::{FanIn, FarmConfig, Router, SchedPolicy};
pub use node::{Emitter, Node};
pub use pipeline::{PipeConfig, Pipeline, PipelineBuilder, PipelineStart, PipelineThreads};
pub use pool::{recycler, BufPool, PooledBuf, Recycler, SlabRegistrar};
pub use stamp::Stamped;
pub use wait::{Signal, WaitStrategy};
