//! `perfmodel` — discrete-event performance models of the paper's testbed.
//!
//! The reproduction host (a few cores, no GPU) cannot measure the paper's
//! speedups directly, so the figures are regenerated on a model of the
//! original testbed (i9-7900X + 2× Titan XP):
//!
//! * [`machine`] — the testbed parameters and per-runtime overheads;
//! * [`pipe`] — a generic queueing-network model of stream pipelines
//!   (bounded buffers, replicated stages, shared GPU engines);
//! * [`mandelmodel`] — Figs. 1 & 4: sequential / CPU pipelines / hybrid
//!   CPU+GPU versions of Mandelbrot Streaming;
//! * [`dedupmodel`] — Fig. 5: the Dedup pipeline versions, driven by a
//!   functional profiling pass over real (synthetic) datasets.
//!
//! Service times come from *measured work counts* of functional runs
//! (Mandelbrot iteration counts, SHA-1 bytes, LZSS probes) multiplied by
//! calibrated per-unit costs; GPU phases reuse the same cost model the
//! simulated devices run on (`gpusim::model`).

#![forbid(unsafe_code)]

pub mod dedupmodel;
pub mod machine;
pub mod mandelmodel;
pub mod paper;
pub mod pipe;

pub use machine::{CpuModel, CpuRuntime};
pub use pipe::{Phase, PipeModel, PipeRun};
