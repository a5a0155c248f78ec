//! `gpusim` — a functional + discrete-event GPU simulator with CUDA-like and
//! OpenCL-like front ends.
//!
//! The reproduction machine has no GPU, so this crate stands in for the
//! paper's two Titan XPs. The substitution is *behavioural*, not numeric:
//!
//! * **Functional layer** — kernels are Rust implementations of the paper's
//!   `__global__` functions ([`KernelFn`]); they execute eagerly over
//!   simulated device memory ([`DeviceMemory`]) and produce bit-exact
//!   results, so every application built on top can be verified end-to-end.
//! * **Timing layer** — every command is scheduled on a per-device virtual
//!   timeline (compute + H2D + D2H engines, FIFO streams, events) using a
//!   cost model ([`model`]) that captures launch overhead, per-block
//!   dispatch, occupancy, warp divergence and PCIe transfer behaviour —
//!   the exact mechanisms behind the paper's Fig. 1 optimization ladder.
//!
//! Front ends:
//!
//! * [`cuda`] — `cudaSetDevice` (thread-local), streams, events,
//!   `cudaMemcpyAsync` with pinned-vs-pageable semantics;
//! * [`opencl`] — platform/context/queue/buffer/kernel objects with
//!   `cl_event` chaining; `ClKernel` is deliberately `!Sync`.
//!
//! See `DESIGN.md` §2 for the full substitution argument.

#![forbid(unsafe_code)]

pub mod cuda;
pub mod device;
pub mod fault;
pub mod kernel;
pub mod mem;
pub mod meter;
pub mod model;
pub mod offload;
pub mod opencl;
pub mod pinned;
pub mod props;
pub mod trace;

pub use device::{Device, DeviceStats, EventStamp, GpuSystem, StreamId};
pub use fault::{DeviceFault, FaultClass, FaultSpec};
pub use kernel::{Dim3, KernelFn, LaunchDims};
pub use mem::{DeviceMemory, DevicePtr, OutOfMemory};
pub use meter::WorkMeter;
pub use offload::{CudaOffload, OclOffload, Offload, OffloadApi};
pub use pinned::PinnedSlab;
pub use props::DeviceProps;
pub use trace::{feed_recorder, overlap_fraction, render_timeline, CommandRecord, TraceEngine};
