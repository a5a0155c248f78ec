//! `spar` — the paper's primary contribution, rebuilt in Rust: a
//! high-level, annotation-style DSL for expressing stream parallelism.
//!
//! SPar (Griebler et al.) lets the programmer annotate sequential C++ with
//! five attributes — `ToStream`, `Stage`, `Input`, `Output`, `Replicate` —
//! and source-to-source compiles them into FastFlow runtime calls. This
//! crate reproduces that contract:
//!
//! * the [`to_stream!`] macro is the annotation front end (its expansion is
//!   the source-to-source transformation);
//! * [`ToStream`]/[`StreamStage`] is the structured builder the macro
//!   targets, generating a [`fastflow`] pipeline/farm graph;
//! * order preservation (`-spar_ordered`) and per-replica state factories
//!   (the hook needed to hold non-thread-safe GPU objects per worker, §IV-A
//!   of the paper) are first-class.
//!
//! # Quick start
//!
//! ```
//! let mut doubled = Vec::new();
//! spar::to_stream! {
//!     ordered;
//!     source |em| {
//!         for i in 0..8u64 {
//!             em.send(i);
//!         }
//!     };
//!     stage(input(i), replicate = 2) |x: u64| -> u64 { x * 2 };
//!     last_stage |x: u64| { doubled.push(x); };
//! }
//! assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10, 12, 14]);
//! ```

#![forbid(unsafe_code)]

pub mod builder;
mod macros;

pub use builder::{StreamStage, ToStream};
// Re-exports the macro expansion relies on.
pub use fastflow::{Emitter, Node};
