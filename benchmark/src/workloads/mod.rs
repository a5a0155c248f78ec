//! The five end-to-end workloads and the plumbing they share.
//!
//! Every workload only *calls* harness-level public entry points of the
//! crates under test (`WorkloadDriver::run_ordered/run_placed`,
//! `dedup::run_pipeline`, `fastflow::Pipeline::builder`, the `ingress`
//! transports, `taskgraph::CostModelScheduler`). Nothing here implements
//! `gpusim::Offload`, so a PR that reshapes a layer's internals never has
//! to edit the benchmark.

use std::sync::Arc;

use gpusim::GpuSystem;
use telemetry::Recorder;
use workload::{Done, Placement, Workload, WorkloadDriver, WorkloadFault};

use crate::trace::{Kind, Tracer};

pub mod dedup_gpu;
pub mod farm;
pub mod mandel_gpu;
pub mod replay;
pub mod service;

/// Workers in every farm the benchmark builds: the box has two cores.
pub const WORKERS: usize = 2;

/// How big a run's repetitions are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// `--smoke`: about a second per workload, checks on.
    Smoke,
    /// The end-to-end run: short repetitions (0.1–0.6 s), so that a run
    /// holds tens to hundreds of them and their median is steady.
    EndToEnd,
    /// The per-layer run: repetitions long enough for span percentiles.
    Traced,
}

/// One verified closed-loop repetition.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Items pushed through (ops attempted).
    pub items: u64,
    /// Items whose output differed from the sequential reference.
    pub failed: u64,
    /// Wall seconds from first emit to last sink.
    pub secs: f64,
    /// Simulated-device counters of this repetition (zero off-GPU).
    pub modeled: Modeled,
}

/// One open-loop phase.
#[derive(Clone, Debug, Default)]
pub struct PacedRun {
    /// Sink time − due time per item, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator released each item, ms.
    pub late_ms: Vec<f64>,
    /// Items whose output differed from the reference.
    pub failed: u64,
}

/// Modeled (simulated-device) quantities of one run: gpusim's clock, never
/// the host's. Everything but `last_end_ns` repeats exactly for one seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Modeled {
    /// Max over devices of `DeviceStats::total_busy()`, ns.
    pub busy_max_ns: u64,
    /// Compute-engine busy time summed over devices, ns.
    pub compute_ns: u64,
    /// H2D-engine busy time summed over devices, ns.
    pub h2d_ns: u64,
    /// D2H-engine busy time summed over devices, ns.
    pub d2h_ns: u64,
    /// Kernels launched.
    pub kernels: u64,
    /// Bytes copied host→device.
    pub h2d_bytes: u64,
    /// Bytes copied device→host.
    pub d2h_bytes: u64,
    /// Host-side staging/bounce bytes charged to the copy ledger.
    pub copied_bytes: u64,
    /// Max over devices of `device_last_end()`, ns — depends on how the
    /// worker threads interleaved on the shared host clock.
    pub last_end_ns: u64,
    /// Commands (kernels + copies) in the device traces; 0 unless traced.
    pub commands: u64,
}

impl Modeled {
    /// Read every device of `sys`; `copies` is the ledger delta of the run.
    pub fn read(sys: &GpuSystem, copied_bytes: u64) -> Modeled {
        let mut m = Modeled {
            copied_bytes,
            ..Modeled::default()
        };
        for d in 0..sys.device_count() {
            let dev = sys.device(d);
            let st = dev.stats();
            m.busy_max_ns = m.busy_max_ns.max(st.total_busy().as_nanos());
            m.compute_ns += st.compute_busy.as_nanos();
            m.h2d_ns += st.h2d_busy.as_nanos();
            m.d2h_ns += st.d2h_busy.as_nanos();
            m.kernels += st.kernels;
            m.h2d_bytes += st.h2d_bytes;
            m.d2h_bytes += st.d2h_bytes;
            m.last_end_ns = m.last_end_ns.max(dev.device_last_end().as_nanos());
            m.commands += dev.take_trace().len() as u64;
        }
        m
    }

    /// The part that must repeat bit-for-bit for one seed.
    pub fn exact(&self) -> Modeled {
        Modeled {
            last_end_ns: 0,
            ..self.clone()
        }
    }
}

/// `sys` with its devices logging their commands when the run is traced
/// (`Modeled::commands` counts them).
pub fn with_command_trace(sys: Arc<GpuSystem>, tracer: Option<&Arc<Tracer>>) -> Arc<GpuSystem> {
    if tracer.is_some() {
        for d in 0..sys.device_count() {
            sys.device(d).enable_trace();
        }
    }
    sys
}

/// Run `f` and return its result with the copy-ledger bytes it charged.
pub fn with_copy_delta<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = telemetry::copy::snapshot();
    let r = f();
    (r, telemetry::copy::snapshot().since(&before).bytes_copied())
}

/// One workload: its inputs and reference (built by `setup`), a verified
/// closed-loop repetition, and — where the benchmark owns the source — an
/// open-loop paced phase.
pub trait Scenario: Sized {
    /// Worker replicas the busy ratio is averaged over.
    const REPLICAS: usize = WORKERS;

    /// What lies between the benchmark's spans on this workload — where
    /// the time is when no stage the benchmark can see is busy.
    const BETWEEN_SPANS: &'static str;

    /// Generate inputs from `seed`, compute the sequential reference, and
    /// warm the pipeline once. `scratch` is a private empty directory.
    fn setup(seed: u64, size: Size, scratch: &std::path::Path) -> Self;

    /// Items per second of the single-threaded reference run in set-up.
    fn serial_items_per_s(&self) -> f64;

    /// Run the single-threaded reference once more, over the same inputs,
    /// and return `(items, wall seconds)`. The end-to-end run times it
    /// right before every repetition, so both saw the same machine.
    fn serial(&self) -> (u64, f64);

    /// One closed-loop repetition (bounded queues back-pressure the
    /// source), every output checked. With a tracer, the benchmark's own
    /// spans are logged around each call into the layers.
    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Rep;

    /// Items/s the open-loop phase releases at, if the workload has one.
    fn paced_rate(&self) -> Option<f64> {
        None
    }

    /// The open-loop phase: `secs` seconds at [`Scenario::paced_rate`].
    fn paced(&self, _secs: f64) -> Option<PacedRun> {
        None
    }
}

/// Delegating [`Workload`] wrapper used by traced repetitions only: items
/// carry their index, and every ladder rung the driver calls is logged as
/// a span for that index. It wraps a *workload*, never an `Offload`.
pub struct TracedWork<W: Workload> {
    inner: W,
    tracer: Arc<Tracer>,
}

impl<W: Workload> Clone for TracedWork<W> {
    fn clone(&self) -> Self {
        TracedWork {
            inner: self.inner.clone(),
            tracer: Arc::clone(&self.tracer),
        }
    }
}

impl<W: Workload> Workload for TracedWork<W> {
    type Item = (u64, W::Item);
    type Batch = W::Batch;
    type Gpu = W::Gpu;

    fn stage_label(&self) -> &'static str {
        self.inner.stage_label()
    }

    fn policy(&self) -> fastflow::FaultPolicy {
        self.inner.policy()
    }

    fn describe(&self, item: &Self::Item) -> String {
        self.inner.describe(&item.1)
    }

    fn attach(&self, replica: usize) -> W::Gpu {
        self.inner.attach(replica)
    }

    fn make_batch(&self, item: &Self::Item) -> W::Batch {
        self.tracer
            .span(Kind::MakeBatch, item.0, || self.inner.make_batch(&item.1))
    }

    fn try_gpu_batch(
        &self,
        gpu: &mut W::Gpu,
        item: &Self::Item,
        out: &mut W::Batch,
    ) -> Result<(), WorkloadFault> {
        self.tracer.span(Kind::GpuBatch, item.0, || {
            self.inner.try_gpu_batch(gpu, &item.1, out)
        })
    }

    fn split_units(&self, item: &Self::Item) -> usize {
        self.inner.split_units(&item.1)
    }

    fn try_gpu_split(
        &self,
        gpu: &mut W::Gpu,
        item: &Self::Item,
        lo: usize,
        hi: usize,
        out: &mut W::Batch,
    ) -> Result<(), WorkloadFault> {
        self.tracer.span(Kind::GpuSplit, item.0, || {
            self.inner.try_gpu_split(gpu, &item.1, lo, hi, out)
        })
    }

    fn cpu_batch(&self, item: &Self::Item, out: &mut W::Batch) {
        self.tracer.span(Kind::CpuBatch, item.0, || {
            self.inner.cpu_batch(&item.1, out)
        })
    }

    fn register_telemetry(&self, rec: &Recorder) {
        self.inner.register_telemetry(rec)
    }
}

/// How [`drive`] feeds the farm.
pub enum Feed<T> {
    /// `WorkloadDriver::run_ordered` over this many replicas.
    Ordered(usize),
    /// `WorkloadDriver::run_placed`: `placer` picks one of `devices`
    /// replicas per item, residency keyed by `key_of`.
    Placed {
        /// The placement policy.
        placer: Arc<dyn Placement>,
        /// Devices (= replicas).
        devices: usize,
        /// Stream key of an item.
        key_of: fn(&T) -> u64,
    },
}

/// Push index-tagged `items` through `work` and hand each finished one to
/// `sink(index, item, batch)` in submission order. Untraced, the tag is
/// dropped at the source and `work` runs bare; traced, `work` runs inside
/// [`TracedWork`] and the sink call is logged as the item's sink span.
pub fn drive<W, I, S>(
    work: W,
    rec: Recorder,
    feed: Feed<W::Item>,
    items: I,
    tracer: Option<&Arc<Tracer>>,
    mut sink: S,
) where
    W: Workload,
    I: Iterator<Item = (u64, W::Item)> + Send + 'static,
    S: FnMut(u64, W::Item, W::Batch),
{
    match tracer {
        None => {
            let driver = WorkloadDriver::new(work).with_recorder(rec);
            let mut seq = 0u64;
            let sink = |done: Done<W>| {
                sink(seq, done.item, done.batch);
                seq += 1;
            };
            let items = items.map(|(_, item)| item);
            match feed {
                Feed::Ordered(workers) => driver.run_ordered(workers, items, sink),
                Feed::Placed {
                    placer,
                    devices,
                    key_of,
                } => driver.run_placed(placer, devices, key_of, items, sink),
            }
        }
        Some(tracer) => {
            let traced = TracedWork {
                inner: work,
                tracer: Arc::clone(tracer),
            };
            let driver = WorkloadDriver::new(traced).with_recorder(rec);
            let sink = |done: Done<TracedWork<W>>| {
                let (i, item) = done.item;
                tracer.span(Kind::Sink, i, || sink(i, item, done.batch));
            };
            match feed {
                Feed::Ordered(workers) => driver.run_ordered(workers, items, sink),
                Feed::Placed {
                    placer,
                    devices,
                    key_of,
                } => driver.run_placed(
                    placer,
                    devices,
                    move |t: &(u64, W::Item)| key_of(&t.1),
                    items,
                    sink,
                ),
            }
        }
    }
}

/// Iterator adaptor logging each `next()` of `inner` as the source span
/// of the item it yields.
pub struct TracedSource<I> {
    inner: I,
    tracer: Option<Arc<Tracer>>,
}

impl<I> TracedSource<I> {
    /// Wrap `inner`; with no tracer this is a plain pass-through.
    pub fn new(inner: I, tracer: Option<&Arc<Tracer>>) -> Self {
        TracedSource {
            inner,
            tracer: tracer.cloned(),
        }
    }
}

impl<T, I: Iterator<Item = (u64, T)>> Iterator for TracedSource<I> {
    type Item = (u64, T);

    fn next(&mut self) -> Option<(u64, T)> {
        let Some(tracer) = &self.tracer else {
            return self.inner.next();
        };
        let start = crate::pace::now_ns();
        let item = self.inner.next()?;
        tracer.log(Kind::Source, item.0, start, crate::pace::now_ns());
        Some(item)
    }
}
