//! `hetstream` — facade crate for the workspace.
//!
//! Re-exports every subsystem of the reproduction of *"Stream Processing on
//! Multi-Cores with GPUs: Parallel Programming Models' Challenges"*
//! (Rockenbach et al., IPDPS-W 2019) under one roof, so examples and
//! integration tests can `use hetstream::...`.
//!
//! Subsystem map (see `DESIGN.md` for the full inventory):
//!
//! * [`spar`] — the paper's primary contribution: an annotation-style DSL
//!   for stream parallelism, compiled onto the [`fastflow`] runtime.
//! * [`spar_gpu`] — the paper's §VI future work: GPU offload stages whose
//!   CUDA/OpenCL host code is generated from a single lane function, run
//!   as a [`Workload`](workload::Workload) on the recovery ladder.
//! * [`fastflow`] — pipeline/farm skeleton runtime over lock-free SPSC queues.
//! * [`tbbx`] — TBB-style task scheduler and token-throttled pipeline.
//! * [`gpusim`] — functional GPU simulator with CUDA-like and OpenCL-like
//!   front ends plus a Titan XP cost model.
//! * [`workload`] — the Workload SDK: the [`Workload`](workload::Workload)
//!   trait plus the generic driver owning batching, the recovery ladder
//!   (retry → OOM halving → bit-identical CPU fallback), buffer recycling,
//!   ordered re-emit and telemetry.
//! * [`mandel`] — the Mandelbrot Streaming case study (§IV-A).
//! * [`dedup`] — the Dedup case study (§IV-B): rabin, SHA-1, LZSS, archive.
//! * [`hashsearch`] — the third GPU application, written against the
//!   Workload SDK: a SHA-1 nonce sweep with midstate reuse and top-k
//!   reduction.
//! * [`taskgraph`] — cost-model task-graph scheduling over N simulated
//!   devices (EWMA per-device cost, residency, queue pressure) plus the
//!   online batch/memory-space auto-tuner behind `ablate`'s last table.
//! * [`perfmodel`] — discrete-event models regenerating Figs. 1, 4 and 5.
//! * [`simtime`] — the deterministic DES core underlying `perfmodel`.

#![forbid(unsafe_code)]

pub use dedup;
pub use fastflow;
pub use gpusim;
pub use hashsearch;
pub use ingress;
pub use mandel;
pub use perfmodel;
pub use simtime;
pub use spar;
pub use spar_gpu;
pub use taskgraph;
pub use tbbx;
pub use telemetry;
pub use workload;

/// The blessed application surface, in one import.
///
/// Everything a typical streaming application needs, grouped by layer:
///
/// * **Declaring work** — [`Workload`](workload::Workload) and its driver
///   [`WorkloadDriver`](workload::WorkloadDriver), which own batch
///   formation, the fault-recovery ladder ([`FaultPolicy`](fastflow::FaultPolicy)),
///   buffer recycling and ordered re-emit.
/// * **Composing streams** — the SPar builder ([`ToStream`](spar::ToStream))
///   and the FastFlow [`Pipeline`](fastflow::Pipeline) skeleton.
/// * **Reaching devices** — the unified [`Offload`](gpusim::Offload) trait
///   with its CUDA-like and OpenCL-like backends.
/// * **Memory & telemetry** — [`BufPool`](fastflow::BufPool) /
///   [`Recycler`](fastflow::Recycler) and the
///   [`Recorder`](telemetry::Recorder).
/// * **Live observability** — the flight recorder
///   ([`FlightHandle`](telemetry::FlightHandle) /
///   [`FlightKind`](telemetry::FlightKind)), the Prometheus endpoint
///   ([`Recorder::serve_metrics`](telemetry::Recorder::serve_metrics) →
///   [`MetricsServer`](telemetry::MetricsServer)) and the
///   [`HealthSnapshot`](telemetry::HealthSnapshot) contract.
///
/// Deeper paths stay public but are *advanced* API — reach for them only
/// when the blessed surface is not enough: `fastflow::{spsc, channel,
/// wait}` (runtime internals), `gpusim::{cuda, opencl}` (raw façades for
/// backend-specific machinery such as multi-stream overlap and
/// pinned-vs-pageable copies), `tbbx::{pool, deque}` (scheduler
/// internals), `dedup`/`mandel`/`hashsearch` stage plumbing.
pub mod prelude {
    pub use fastflow::{
        recycler, BufPool, FaultPolicy, Pipeline, PooledBuf, Recycler, WaitStrategy,
    };
    pub use gpusim::{CudaOffload, GpuSystem, OclOffload, Offload, OffloadApi};
    pub use spar::{to_stream, SparConfig, ToStream};
    pub use telemetry::{
        FlightEvent, FlightHandle, FlightKind, HealthSnapshot, HealthStatus, MetricsServer,
        Recorder, TelemetryReport, NO_BATCH,
    };
    pub use workload::{
        arm_gpu_traces, drain_gpu_traces, Done, Workload, WorkloadDriver, WorkloadFault,
        WorkloadNode,
    };
}
