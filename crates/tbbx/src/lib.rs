//! `tbbx` — a Threading Building Blocks–style runtime built from scratch.
//!
//! Reproduces the TBB features the paper exercises:
//!
//! * a work-stealing task scheduler ([`TaskPool`]) with per-worker Chase–Lev
//!   deques and a global injector;
//! * `parallel_pipeline` with `serial_in_order` / `serial_out_of_order` /
//!   `parallel` filters and the `max_number_of_live_tokens` throttle
//!   ([`pipeline::Pipeline`]) — the knob the paper tunes to 38 (CPU) and
//!   50 (GPU) tokens for Mandelbrot.
//!
//! Unlike [`fastflow`](https://docs.rs/fastflow) (thread-per-stage,
//! programmer-composable topologies), `tbbx` multiplexes all pipeline work
//! onto one task pool and does not let the user attach a custom scheduler —
//! the exact contrast §III-B of the paper draws.
//!
//! # Example
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use tbbx::{Pipeline, TaskPool};
//!
//! let pool = Arc::new(TaskPool::new(2));
//! let out = Arc::new(Mutex::new(Vec::new()));
//! let sink = Arc::clone(&out);
//! Pipeline::from_iter(0..10u32)
//!     .parallel(|x| x * x)
//!     .serial_in_order(move |x| sink.lock().unwrap().push(x))
//!     .build()
//!     .run(&pool, 4);
//! assert_eq!(out.lock().unwrap().len(), 10);
//! ```

pub mod deque;
pub mod pipeline;
pub mod pool;

pub use pipeline::{Pipeline, PipelineBuilder};
pub use pool::{Latch, TaskPool};

/// Lock a mutex, recovering the guard if a panicking task poisoned it.
///
/// Pool bookkeeping (sleep/overflow/latch/pipeline state) must outlive a
/// panic in user task code: the fail-soft error model absorbs such panics
/// at join time, so one failed task must not cascade into poisoned-lock
/// panics on every other worker.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
