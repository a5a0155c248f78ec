//! Workload SDK: the one place where "offload a batch, survive the device"
//! lives.
//!
//! The paper's case studies (Mandelbrot Streaming §IV-A, Dedup §IV-B) each
//! re-hand-rolled the same heterogeneous plumbing: form a batch, try the
//! GPU, retry transient faults, halve the batch when the device is out of
//! memory, fall back to a bit-identical CPU implementation, re-emit in
//! order, and report every rung to telemetry. This crate extracts that
//! commonality behind three types:
//!
//! * [`Workload`] — what an *application* declares: its item/batch/GPU
//!   state types, a fallible GPU path, an optional sub-batch path for OOM
//!   halving, and a CPU path that is byte-identical to the kernels.
//! * [`DeviceOut`] — the device half of an output-only stage: offloader,
//!   grow-only buffer, and the size → launch → read back → sync sequence.
//! * [`WorkloadDriver`] — what the *runtime* owns: the recovery ladder
//!   (retry → batch-halve → CPU fallback), recycled-buffer discipline
//!   (every rung writes into a caller-supplied batch), telemetry fault
//!   events, and ordered farm plumbing ([`WorkloadDriver::run_ordered`]).
//!
//! The ladder exists *only here*; `mandel`, `dedup`, `hashsearch` and
//! `spar-gpu`'s generated map stage are pure [`Workload`] impls. Adding
//! another application is ~100 lines: a kernel, a `Workload` impl, and a
//! harness.
//!
//! # Ladder semantics
//!
//! For each item the driver attempts the whole batch on the GPU. On
//! failure it records the fault and picks a rung:
//!
//! 1. **OOM with a splittable batch** ([`Workload::split_units`] > 1) —
//!    recursively halve the unit range via [`Workload::try_gpu_split`];
//!    each sub-range gets its own retry budget. A sub-range that can
//!    neither run nor split abandons the device.
//! 2. **Transient fault** (kernel fault, or OOM on an unsplittable batch)
//!    — retry per [`Workload::policy`] with backoff.
//! 3. **CPU fallback** — the batch is recomputed on the host,
//!    bit-identical, into the same output buffer.
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fastflow::FaultPolicy;
use gpusim::{DevicePtr, GpuSystem, KernelFn, Offload};
use telemetry::{FaultKind, FlightHandle, FlightKind, Recorder};

pub mod pinned;
pub use pinned::{pinned_pool, GpuPinnedRegistrar};

/// Why a batch failed on the device: the two operational fault classes the
/// recovery ladder absorbs (allocation refusals and launch refusals).
#[derive(Debug)]
pub enum WorkloadFault {
    /// The device refused an allocation.
    Oom(gpusim::OutOfMemory),
    /// The kernel launch was refused (fault injection / device error).
    Kernel(gpusim::DeviceFault),
}

impl WorkloadFault {
    /// Telemetry classification of this fault.
    pub fn kind(&self) -> FaultKind {
        match self {
            WorkloadFault::Oom(_) => FaultKind::DeviceOom,
            WorkloadFault::Kernel(_) => FaultKind::KernelFault,
        }
    }
}

impl std::fmt::Display for WorkloadFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadFault::Oom(e) => e.fmt(f),
            WorkloadFault::Kernel(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WorkloadFault {}

impl From<gpusim::OutOfMemory> for WorkloadFault {
    fn from(e: gpusim::OutOfMemory) -> Self {
        WorkloadFault::Oom(e)
    }
}

impl From<gpusim::DeviceFault> for WorkloadFault {
    fn from(e: gpusim::DeviceFault) -> Self {
        WorkloadFault::Kernel(e)
    }
}

/// The device half of an output-only offload stage, written once: an
/// offloader plus one grow-only device buffer the kernel writes and the
/// host reads back. It is the whole [`Workload::Gpu`] of a stage whose
/// kernel takes its input by value (Mandelbrot rows, nonce ranges); a
/// stage that also uploads keeps its input buffer beside it and issues the
/// copy through [`offloader`](Self::offloader) first.
pub struct DeviceOut<O: Offload, T: Default + Clone + Send + 'static = u8> {
    off: O,
    dev: Option<O::Buffer<T>>,
}

impl<O: Offload, T: Default + Clone + Send + 'static> DeviceOut<O, T> {
    /// Bind to `device`. Must run on the thread that will compute (the
    /// per-thread discipline [`Offload::attach`] documents).
    pub fn attach(system: &Arc<GpuSystem>, device: usize) -> Self {
        DeviceOut {
            off: O::attach(system, device),
            dev: None,
        }
    }

    /// The offloader, for verbs this helper does not issue itself.
    pub fn offloader(&mut self) -> &mut O {
        &mut self.off
    }

    /// Size the device buffer to `out`, launch the kernel `kernel` builds
    /// around it over `lanes` lanes, read `out.len()` elements back and
    /// wait. The buffer only grows, and `out` is page-locked for the
    /// transfer (idempotent for pool-backed memory, and it covers recycled
    /// `Vec`s), so the read-back is a DMA into the caller's buffer: with a
    /// stable length the steady state touches neither an allocator nor
    /// memcpy, and a halved sub-range allocates only its own span. A
    /// refused allocation or launch is returned with nothing enqueued and
    /// the state fit for a retry.
    pub fn launch_into<K: KernelFn>(
        &mut self,
        out: &mut [T],
        lanes: u64,
        block: u32,
        kernel: impl FnOnce(DevicePtr<T>) -> K,
    ) -> Result<(), WorkloadFault> {
        if self.dev.as_ref().map_or(0, |b| O::buffer_len(b)) < out.len() {
            // Drop the stale buffer before re-allocating; on failure the
            // slot stays empty so the next attempt allocates again.
            self.dev = None;
            self.dev = Some(self.off.try_alloc(out.len())?);
        }
        let dev = self.dev.as_ref().expect("sized above");
        self.off
            .try_launch(kernel(O::buffer_ptr(dev)), lanes, block)?;
        let _pin = gpusim::PinnedSlab::register(out);
        self.off.d2h(dev, out);
        self.off.sync();
        Ok(())
    }
}

/// One heterogeneous application, declared once.
///
/// A `Workload` is a cheap, cloneable *description*: shared configuration
/// plus constructors for the per-replica GPU state. All methods take
/// `&self`; mutable state lives in [`Workload::Gpu`], which the driver
/// threads through every call on the worker that owns it.
///
/// The contract (checked by the workspace `workload_contract` suite):
///
/// * [`cpu_batch`](Workload::cpu_batch) must be **bit-identical** to
///   [`try_gpu_batch`](Workload::try_gpu_batch) on a healthy device.
/// * [`try_gpu_split`](Workload::try_gpu_split) over any partition of
///   `0..split_units(item)` must equal one full-batch computation.
/// * Every path writes into the caller's `out` batch (recycled buffers);
///   a steady-state stream must not touch the allocator.
pub trait Workload: Send + Clone + 'static {
    /// One stream item (e.g. a batch index, a chunk of input blocks).
    type Item: Send + 'static;
    /// The computed result for one item (e.g. pixels, digests).
    type Batch: Send + 'static;
    /// Per-replica device state (offloader + lazily grown buffers). Built
    /// on the worker thread that uses it ([`Workload::attach`]), honoring
    /// the per-thread `cudaSetDevice` discipline.
    type Gpu: Send + 'static;

    /// Telemetry stage label for fault events (e.g. `"stage1 (gpu)"`).
    fn stage_label(&self) -> &'static str;

    /// Retry budget for transient faults. Defaults to the runtime default
    /// (2 retries, 50 µs backoff).
    fn policy(&self) -> FaultPolicy {
        FaultPolicy::default()
    }

    /// Short human description of an item, used in fault-event details.
    fn describe(&self, _item: &Self::Item) -> String {
        "item".to_string()
    }

    /// Build the GPU state for farm replica `replica`. Called on the
    /// worker thread that will compute.
    fn attach(&self, replica: usize) -> Self::Gpu;

    /// Produce an output batch for `item`, recycled where possible. The
    /// driver passes it through every ladder rung unchanged.
    fn make_batch(&self, item: &Self::Item) -> Self::Batch;

    /// Compute the whole batch on the device, writing into `out`.
    fn try_gpu_batch(
        &self,
        gpu: &mut Self::Gpu,
        item: &Self::Item,
        out: &mut Self::Batch,
    ) -> Result<(), WorkloadFault>;

    /// How many units an item's batch can be split into when the device
    /// is out of memory (rows, blocks, nonces…). `1` (the default)
    /// disables halving: OOM is then treated as transient and retried.
    fn split_units(&self, _item: &Self::Item) -> usize {
        1
    }

    /// Compute units `lo..hi` of the batch on the device, writing into
    /// the corresponding region of `out`. Only called when
    /// [`split_units`](Workload::split_units) returns > 1.
    fn try_gpu_split(
        &self,
        _gpu: &mut Self::Gpu,
        _item: &Self::Item,
        _lo: usize,
        _hi: usize,
        _out: &mut Self::Batch,
    ) -> Result<(), WorkloadFault> {
        unimplemented!("a Workload with split_units > 1 must implement try_gpu_split")
    }

    /// Compute the whole batch on the host, bit-identical to the device
    /// path, writing into `out`.
    fn cpu_batch(&self, item: &Self::Item, out: &mut Self::Batch);

    /// Register pools/gauges with a live recorder (called once by
    /// [`WorkloadDriver::with_recorder`]).
    fn register_telemetry(&self, _rec: &Recorder) {}
}

/// A finished item: the input that produced it plus its computed batch.
/// What [`WorkloadNode`] emits downstream (ordered farms re-emit these in
/// submission order).
pub struct Done<W: Workload> {
    /// The stream item.
    pub item: W::Item,
    /// Its computed batch.
    pub batch: W::Batch,
}

/// The generic driver owning the recovery ladder for one [`Workload`].
///
/// Cheap to clone (clones the workload description and the recorder
/// handle); every farm replica holds one.
pub struct WorkloadDriver<W: Workload> {
    work: W,
    rec: Recorder,
    /// Shared causal batch-id spring: every [`process_into`] call draws a
    /// fresh non-zero id so the flight recorder can stitch one batch's
    /// whole ladder journey together across replicas.
    ///
    /// [`process_into`]: WorkloadDriver::process_into
    batch_ids: Arc<AtomicU64>,
    flight: FlightHandle,
}

impl<W: Workload> Clone for WorkloadDriver<W> {
    fn clone(&self) -> Self {
        WorkloadDriver {
            work: self.work.clone(),
            rec: self.rec.clone(),
            batch_ids: Arc::clone(&self.batch_ids),
            flight: self.flight.clone(),
        }
    }
}

impl<W: Workload> WorkloadDriver<W> {
    /// Wrap a workload with telemetry disabled.
    pub fn new(work: W) -> Self {
        WorkloadDriver {
            work,
            rec: Recorder::default(),
            batch_ids: Arc::new(AtomicU64::new(0)),
            flight: FlightHandle::noop(),
        }
    }

    /// Attach a telemetry recorder; the workload's pools/gauges are
    /// registered immediately when it is live, and the driver's flight
    /// emitter binds to `driver:<stage_label>`.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        if rec.is_enabled() {
            self.work.register_telemetry(&rec);
        }
        self.flight = rec.flight_handle(&format!("driver:{}", self.work.stage_label()));
        self.rec = rec;
        self
    }

    /// Draw the next causal batch id (non-zero; `0` is
    /// [`NO_BATCH`](telemetry::NO_BATCH)).
    fn next_batch_id(&self) -> u64 {
        self.batch_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The wrapped workload description.
    pub fn workload(&self) -> &W {
        &self.work
    }

    /// Build GPU state for `replica` (delegates to [`Workload::attach`]).
    pub fn attach(&self, replica: usize) -> W::Gpu {
        self.work.attach(replica)
    }

    /// Compute one item with the full ladder, into a fresh
    /// (workload-recycled) batch.
    pub fn process(&self, gpu: &mut W::Gpu, item: &W::Item) -> W::Batch {
        let mut out = self.work.make_batch(item);
        self.process_into(gpu, item, &mut out);
        out
    }

    /// Compute one item on the host path only — for items that are not
    /// device-resident by design. Records no fault events (this is a
    /// policy choice, not a failure).
    pub fn process_host(&self, item: &W::Item) -> W::Batch {
        let mut out = self.work.make_batch(item);
        self.work.cpu_batch(item, &mut out);
        out
    }

    /// The recovery ladder: try the device, retry transients, halve on
    /// OOM, degrade to the host — always writing into `out` so recovery
    /// recycles the same buffer the happy path does.
    pub fn process_into(&self, gpu: &mut W::Gpu, item: &W::Item, out: &mut W::Batch) {
        let batch_id = self.next_batch_id();
        self.process_into_with_id(gpu, item, out, batch_id);
    }

    /// [`process_into`](Self::process_into) with a caller-supplied causal
    /// batch id. The placement path draws ids serially at feed time (so
    /// the id order is the stream order regardless of which device runs
    /// the batch) and hands them through here; the plain path draws one
    /// per call.
    pub fn process_into_with_id(
        &self,
        gpu: &mut W::Gpu,
        item: &W::Item,
        out: &mut W::Batch,
        batch_id: u64,
    ) {
        // One batch crossing the data path: the copy ledger divides its
        // byte counters by this to report copies-per-batch.
        telemetry::copy::record_batch();
        let w = &self.work;
        let units = w.split_units(item);
        self.flight
            .emit(FlightKind::BatchFormed, batch_id, units as u64, 0);
        if !self.device_ladder(gpu, item, batch_id, 0..units, true, out) {
            self.rec.fault_in_batch(
                w.stage_label(),
                FaultKind::CpuFallback,
                batch_id,
                format!("{}: computing on the host", w.describe(item)),
            );
            w.cpu_batch(item, out);
        }
    }

    /// The device rungs, written once: attempt `units` of the batch with
    /// a retry budget of its own, halve the range on OOM and walk each
    /// half the same way. `whole` marks the one attempt that goes through
    /// [`Workload::try_gpu_batch`] — the first, over `0..split_units` —
    /// every later one uses [`Workload::try_gpu_split`], starting with the
    /// whole range again (an OOM there is what starts the halving).
    /// Returns false when the range can neither run nor split: the caller
    /// then degrades the whole item to the host.
    fn device_ladder(
        &self,
        gpu: &mut W::Gpu,
        item: &W::Item,
        batch_id: u64,
        units: Range<usize>,
        mut whole: bool,
        out: &mut W::Batch,
    ) -> bool {
        let w = &self.work;
        let policy = w.policy();
        let stage = w.stage_label();
        let (lo, hi) = (units.start, units.end);
        let retry = |what: std::fmt::Arguments<'_>| {
            let detail = format!("{}: {what}", w.describe(item));
            self.rec
                .fault_in_batch(stage, FaultKind::Retry, batch_id, detail)
        };
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let attempt = if whole {
                w.try_gpu_batch(gpu, item, out)
            } else {
                w.try_gpu_split(gpu, item, lo, hi, out)
            };
            let Err(fault) = attempt else { return true };
            self.rec
                .fault_in_batch(stage, fault.kind(), batch_id, fault.to_string());
            let splittable = matches!(fault, WorkloadFault::Oom(_)) && hi - lo > 1;
            if splittable && whole {
                retry(format_args!("retrying as halved sub-batches"));
                (whole, attempts) = (false, 0);
            } else if splittable {
                let mid = lo + (hi - lo) / 2;
                self.flight
                    .emit(FlightKind::OomHalve, batch_id, lo as u64, hi as u64);
                retry(format_args!("halving units {lo}..{hi}"));
                return self.device_ladder(gpu, item, batch_id, lo..mid, false, out)
                    && self.device_ladder(gpu, item, batch_id, mid..hi, false, out);
            } else if attempts <= policy.max_retries {
                retry(format_args!("units {lo}..{hi} attempt {}", attempts + 1));
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff);
                }
            } else {
                return false;
            }
        }
    }

    /// A farm-ready [`Node`](fastflow::Node) computing items on replica
    /// `replica`'s GPU state (built lazily on the worker thread).
    pub fn node(&self, replica: usize) -> WorkloadNode<W> {
        WorkloadNode {
            driver: self.clone(),
            replica,
            gpu: None,
        }
    }

    /// Run `items` through an ordered farm of `workers` replicas, calling
    /// `sink` with each [`Done`] in submission order on the caller thread.
    /// The driver's recorder instruments every stage.
    pub fn run_ordered<I, F>(&self, workers: usize, items: I, sink: F)
    where
        I: IntoIterator<Item = W::Item> + Send + 'static,
        F: FnMut(Done<W>),
    {
        fastflow::Pipeline::builder()
            .recorder(self.rec.clone())
            .from_iter(items)
            .farm_ordered(workers, |replica| self.node(replica))
            .for_each(sink);
    }

    /// The graph/placement path next to the fixed ladder: run `items`
    /// through an ordered farm of `n_devices` replicas — replica *i*
    /// owning device *i* — where `placer` chooses the device for every
    /// batch instead of round-robin.
    ///
    /// Determinism contract:
    ///
    /// * Causal batch ids are drawn **serially in the feeder thread**, so
    ///   id order is stream order regardless of placement.
    /// * [`Placement::place`] runs serially on that same feeder thread —
    ///   the source stage feeds the farm's worker rings itself — in
    ///   batch-id order, each batch delivered before the next is placed,
    ///   and every decision is logged as a [`FlightKind::Placement`]
    ///   event keyed by the batch id.
    /// * [`Placement::observe`] runs on the device-owning worker right
    ///   after the batch's ladder walk finishes; one replica per device
    ///   serializes the observations a device produces.
    /// * The sink's merge over the worker rings restores submission order,
    ///   so `sink` sees outputs bit-identically and in the same order
    ///   under *any* placement.
    ///
    /// `key_of` extracts the stream key residency is tracked by (shard,
    /// lane, …).
    pub fn run_placed<I, K, F>(
        &self,
        placer: Arc<dyn Placement>,
        n_devices: usize,
        key_of: K,
        items: I,
        sink: F,
    ) where
        I: IntoIterator<Item = W::Item> + Send + 'static,
        K: Fn(&W::Item) -> u64 + Send + 'static,
        F: FnMut(Done<W>),
    {
        assert!(n_devices > 0, "placement needs at least one device");
        let ids = Arc::clone(&self.batch_ids);
        let work = self.work.clone();
        let flight = self.flight.clone();
        let route_placer = Arc::clone(&placer);
        let router: fastflow::Router<Keyed<W::Item>> = Box::new(move |_seq, k| {
            let d = route_placer.place(k.batch_id, k.key, work.split_units(&k.item) as u64);
            flight.emit(
                FlightKind::Placement,
                k.batch_id,
                d.device as u64,
                d.predicted_ns,
            );
            d.device
        });
        let driver = self.clone();
        fastflow::Pipeline::builder()
            .recorder(self.rec.clone())
            .source(move |em| {
                for item in items {
                    let batch_id = ids.fetch_add(1, Ordering::Relaxed) + 1;
                    let key = key_of(&item);
                    if !em.send(Keyed {
                        batch_id,
                        key,
                        item,
                    }) {
                        break;
                    }
                }
            })
            .farm_routed(
                n_devices,
                |replica| PlacedNode {
                    driver: driver.clone(),
                    placer: Arc::clone(&placer),
                    replica,
                    gpu: None,
                },
                router,
            )
            .for_each(sink);
    }
}

/// One placement decision: the chosen device and the cost the policy
/// predicts for it (`0` when the policy does not model cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Device (= farm replica) index.
    pub device: usize,
    /// Predicted modeled cost of the batch on that device, ns.
    pub predicted_ns: u64,
}

/// A device-placement policy driving [`WorkloadDriver::run_placed`].
///
/// `place` is invoked serially on the feeder thread (the stage upstream
/// of the farm, which routes its own outputs) in causal batch-id order;
/// `observe` is invoked from the device-owning worker thread right after
/// a batch finishes (per-device serialized, since one replica owns each
/// device). Implementations use interior mutability;
/// the driver guarantees the deterministic call order, the policy must
/// keep its *decisions* a pure function of that order.
pub trait Placement: Send + Sync + 'static {
    /// Choose a device for batch `batch_id` carrying `units` work units
    /// under stream key `key`.
    fn place(&self, batch_id: u64, key: u64, units: u64) -> Decision;

    /// A batch this policy placed has finished on `device`; measure and
    /// fold its cost into the model.
    fn observe(&self, batch_id: u64, device: usize);
}

/// The static baseline placement: cyclic assignment, blind to cost,
/// residency and queue pressure — exactly what the paper's hand-coded
/// versions do over their 2 GPUs, generalized to N.
#[derive(Debug)]
pub struct RoundRobinPlacement {
    n: usize,
    next: AtomicU64,
}

impl RoundRobinPlacement {
    /// Cyclic placement over `n` devices.
    pub fn new(n: usize) -> Arc<Self> {
        assert!(n > 0, "need at least one device");
        Arc::new(RoundRobinPlacement {
            n,
            next: AtomicU64::new(0),
        })
    }
}

impl Placement for RoundRobinPlacement {
    fn place(&self, _batch_id: u64, _key: u64, _units: u64) -> Decision {
        Decision {
            device: (self.next.fetch_add(1, Ordering::Relaxed) as usize) % self.n,
            predicted_ns: 0,
        }
    }

    fn observe(&self, _batch_id: u64, _device: usize) {}
}

/// One stream item annotated with its pre-drawn causal batch id and
/// stream key, flowing through a placed farm.
pub struct Keyed<T> {
    /// Causal batch id, drawn serially at feed time.
    pub batch_id: u64,
    /// Stream key residency is tracked by.
    pub key: u64,
    /// The item itself.
    pub item: T,
}

/// Worker node of the placement path: like [`WorkloadNode`] but
/// consuming [`Keyed`] items (the pre-drawn batch id rides along) and
/// reporting each finished batch back to the [`Placement`] policy.
pub struct PlacedNode<W: Workload> {
    driver: WorkloadDriver<W>,
    placer: Arc<dyn Placement>,
    replica: usize,
    gpu: Option<W::Gpu>,
}

impl<W: Workload> fastflow::Node for PlacedNode<W> {
    type In = Keyed<W::Item>;
    type Out = Done<W>;

    fn on_init(&mut self) {
        self.gpu = Some(self.driver.attach(self.replica));
    }

    fn svc(&mut self, keyed: Keyed<W::Item>, out: &mut fastflow::Emitter<'_, Done<W>>) {
        let gpu = self
            .gpu
            .get_or_insert_with(|| self.driver.work.attach(self.replica));
        let mut batch = self.driver.work.make_batch(&keyed.item);
        self.driver
            .process_into_with_id(gpu, &keyed.item, &mut batch, keyed.batch_id);
        self.placer.observe(keyed.batch_id, self.replica);
        out.send(Done {
            item: keyed.item,
            batch,
        });
    }
}

/// Worker node owning one replica's GPU state, for SPar/FastFlow farms.
/// Built by [`WorkloadDriver::node`]; the GPU state is constructed in
/// `on_init` on the worker thread (the per-thread `cudaSetDevice`
/// discipline the paper's §IV-A bug hunt is about).
pub struct WorkloadNode<W: Workload> {
    driver: WorkloadDriver<W>,
    replica: usize,
    gpu: Option<W::Gpu>,
}

impl<W: Workload> fastflow::Node for WorkloadNode<W> {
    type In = W::Item;
    type Out = Done<W>;

    fn on_init(&mut self) {
        self.gpu = Some(self.driver.attach(self.replica));
    }

    fn svc(&mut self, item: W::Item, out: &mut fastflow::Emitter<'_, Done<W>>) {
        let gpu = self
            .gpu
            .get_or_insert_with(|| self.driver.work.attach(self.replica));
        let mut batch = self.driver.work.make_batch(&item);
        self.driver.process_into(gpu, &item, &mut batch);
        out.send(Done { item, batch });
    }
}

/// Enable command tracing on every simulated device when the recorder is
/// live, and expose each device's allocation-cache gauges in the report.
/// Call before running a workload, pair with [`drain_gpu_traces`] after.
pub fn arm_gpu_traces(system: &Arc<GpuSystem>, rec: &Recorder) {
    if rec.is_enabled() {
        for d in 0..system.device_count() {
            system.device(d).enable_trace();
            system
                .device(d)
                .attach_flight(rec.flight_handle(&format!("gpu{d}")));
            rec.register(
                &[&format!("gpu{d}.cache")],
                &system.device(d).cache_counters(),
            );
        }
    }
}

/// Drain device command traces into the recorder as GPU engine spans.
pub fn drain_gpu_traces(system: &Arc<GpuSystem>, rec: &Recorder) {
    if rec.is_enabled() {
        for d in 0..system.device_count() {
            gpusim::feed_recorder(rec, d, &system.device(d).take_trace());
        }
    }
}

#[cfg(test)]
#[path = "../../telemetry/src/deadline.rs"]
mod deadline;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::within_deadline;
    use std::sync::Mutex;

    fn oom() -> WorkloadFault {
        WorkloadFault::Oom(gpusim::OutOfMemory {
            requested: 1024,
            available: 0,
        })
    }

    fn kfault() -> WorkloadFault {
        WorkloadFault::Kernel(gpusim::DeviceFault {
            device: 0,
            kernel: "toy",
            injected: true,
        })
    }

    /// What the scripted device should do on one call.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Ok,
        Oom,
        Kernel,
    }

    /// A scripted workload: items are `(base, len)` ranges, batches are
    /// `base + offset` vectors, and the "device" consumes a shared script
    /// of outcomes. The CPU path writes `base + offset + 1000` so tests
    /// can tell which rung produced the output.
    #[derive(Clone)]
    struct Toy {
        script: Arc<Mutex<Vec<Step>>>,
        units: usize,
        policy: FaultPolicy,
    }

    impl Toy {
        fn new(script: Vec<Step>, units: usize) -> Self {
            Toy {
                script: Arc::new(Mutex::new(script)),
                units,
                policy: FaultPolicy::retries(2, std::time::Duration::ZERO),
            }
        }

        fn next_step(&self) -> Step {
            let mut s = self.script.lock().expect("script lock");
            if s.is_empty() {
                Step::Ok
            } else {
                s.remove(0)
            }
        }
    }

    impl Workload for Toy {
        type Item = (u64, usize);
        type Batch = Vec<u64>;
        type Gpu = ();

        fn stage_label(&self) -> &'static str {
            "toy (gpu)"
        }
        fn policy(&self) -> FaultPolicy {
            self.policy
        }
        fn describe(&self, item: &(u64, usize)) -> String {
            format!("range {}+{}", item.0, item.1)
        }
        fn attach(&self, _replica: usize) {}
        fn make_batch(&self, item: &(u64, usize)) -> Vec<u64> {
            vec![0; item.1]
        }
        fn try_gpu_batch(
            &self,
            _gpu: &mut (),
            item: &(u64, usize),
            out: &mut Vec<u64>,
        ) -> Result<(), WorkloadFault> {
            match self.next_step() {
                Step::Ok => {
                    for (i, slot) in out.iter_mut().enumerate().take(item.1) {
                        *slot = item.0 + i as u64;
                    }
                    Ok(())
                }
                Step::Oom => Err(oom()),
                Step::Kernel => Err(kfault()),
            }
        }
        fn split_units(&self, _item: &(u64, usize)) -> usize {
            self.units
        }
        fn try_gpu_split(
            &self,
            _gpu: &mut (),
            item: &(u64, usize),
            lo: usize,
            hi: usize,
            out: &mut Vec<u64>,
        ) -> Result<(), WorkloadFault> {
            match self.next_step() {
                Step::Ok => {
                    let per = item.1 / self.units;
                    for (u, slot) in out.iter_mut().enumerate().take(hi * per).skip(lo * per) {
                        *slot = item.0 + u as u64;
                    }
                    Ok(())
                }
                Step::Oom => Err(oom()),
                Step::Kernel => Err(kfault()),
            }
        }
        fn cpu_batch(&self, item: &(u64, usize), out: &mut Vec<u64>) {
            out.clear();
            out.resize(item.1, 0);
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = item.0 + i as u64 + 1000;
            }
        }
    }

    fn gpu_result(base: u64, len: usize) -> Vec<u64> {
        (0..len as u64).map(|i| base + i).collect()
    }

    fn cpu_result(base: u64, len: usize) -> Vec<u64> {
        (0..len as u64).map(|i| base + i + 1000).collect()
    }

    #[test]
    fn healthy_device_records_no_faults() {
        let rec = Recorder::enabled();
        let d = WorkloadDriver::new(Toy::new(vec![], 1)).with_recorder(rec.clone());
        let out = d.process(&mut (), &(10, 4));
        assert_eq!(out, gpu_result(10, 4));
        assert!(rec.report().faults.is_empty());
    }

    #[test]
    fn transient_kernel_fault_is_retried_then_succeeds() {
        let rec = Recorder::enabled();
        let toy = Toy::new(vec![Step::Kernel, Step::Ok], 1);
        let d = WorkloadDriver::new(toy).with_recorder(rec.clone());
        let out = d.process(&mut (), &(5, 3));
        assert_eq!(out, gpu_result(5, 3), "second attempt must win");
        let report = rec.report();
        assert_eq!(report.retry_count(), 1);
        assert_eq!(report.fallback_count(), 0);
        assert_eq!(report.faults_of(FaultKind::KernelFault).count(), 1);
    }

    #[test]
    fn exhausted_retries_degrade_to_cpu() {
        let rec = Recorder::enabled();
        // Policy allows 2 retries = 3 attempts; fail all of them.
        let toy = Toy::new(vec![Step::Kernel, Step::Kernel, Step::Kernel], 1);
        let d = WorkloadDriver::new(toy).with_recorder(rec.clone());
        let out = d.process(&mut (), &(7, 4));
        assert_eq!(out, cpu_result(7, 4), "fallback output is the CPU's");
        let report = rec.report();
        assert_eq!(report.retry_count(), 2);
        assert_eq!(report.fallback_count(), 1);
    }

    #[test]
    fn oom_on_unsplittable_batch_is_treated_as_transient() {
        let rec = Recorder::enabled();
        let toy = Toy::new(vec![Step::Oom, Step::Ok], 1);
        let d = WorkloadDriver::new(toy).with_recorder(rec.clone());
        let out = d.process(&mut (), &(3, 2));
        assert_eq!(out, gpu_result(3, 2));
        assert_eq!(rec.report().retry_count(), 1);
    }

    #[test]
    fn oom_on_splittable_batch_halves_and_stays_on_device() {
        let rec = Recorder::enabled();
        // Full batch OOMs, both halves succeed.
        let toy = Toy::new(vec![Step::Oom, Step::Ok, Step::Ok], 4);
        let d = WorkloadDriver::new(toy).with_recorder(rec.clone());
        let out = d.process(&mut (), &(100, 8));
        assert_eq!(out, gpu_result(100, 8), "halved path must be identical");
        let report = rec.report();
        assert_eq!(report.fallback_count(), 0, "no CPU fallback");
        assert_eq!(report.faults_of(FaultKind::DeviceOom).count(), 1);
        assert!(report.retry_count() >= 1);
    }

    #[test]
    fn oom_recursion_bottoms_out_to_cpu_when_even_one_unit_oomsteadily() {
        let rec = Recorder::enabled();
        // Full batch OOMs; the first half OOMs down to a single unit that
        // keeps OOMing past the retry budget -> the whole item goes CPU.
        let toy = Toy::new(vec![Step::Oom; 32], 2);
        let d = WorkloadDriver::new(toy).with_recorder(rec.clone());
        let out = d.process(&mut (), &(9, 4));
        assert_eq!(out, cpu_result(9, 4));
        assert_eq!(rec.report().fallback_count(), 1);
    }

    #[test]
    fn process_host_records_no_fault_events() {
        let rec = Recorder::enabled();
        let d = WorkloadDriver::new(Toy::new(vec![], 1)).with_recorder(rec.clone());
        let out = d.process_host(&(20, 3));
        assert_eq!(out, cpu_result(20, 3));
        assert!(rec.report().faults.is_empty(), "host path is not a fault");
    }

    #[test]
    fn run_ordered_preserves_submission_order_across_replicas() {
        within_deadline(|| {
            let toy = Toy::new(vec![], 1);
            let d = WorkloadDriver::new(toy);
            let mut seen = Vec::new();
            d.run_ordered(3, (0..50u64).map(|b| (b, 2)), |done| {
                assert_eq!(done.batch, gpu_result(done.item.0, 2));
                seen.push(done.item.0);
            });
            assert_eq!(seen, (0..50).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn run_placed_round_robin_matches_run_ordered() {
        within_deadline(|| {
            let d = WorkloadDriver::new(Toy::new(vec![], 1));
            let mut seen = Vec::new();
            d.run_placed(
                RoundRobinPlacement::new(3),
                3,
                |item: &(u64, usize)| item.0 % 2,
                (0..50u64).map(|b| (b, 2)),
                |done| {
                    assert_eq!(done.batch, gpu_result(done.item.0, 2));
                    seen.push(done.item.0);
                },
            );
            assert_eq!(seen, (0..50).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn run_placed_calls_place_in_batch_id_order_and_observes_on_the_placed_device() {
        within_deadline(|| {
            struct Pin {
                placed: Mutex<Vec<(u64, u64)>>,
                observed: Mutex<Vec<(u64, usize)>>,
            }
            impl Placement for Pin {
                fn place(&self, batch_id: u64, key: u64, _units: u64) -> Decision {
                    self.placed.lock().expect("lock").push((batch_id, key));
                    Decision {
                        device: key as usize,
                        predicted_ns: 7,
                    }
                }
                fn observe(&self, batch_id: u64, device: usize) {
                    self.observed.lock().expect("lock").push((batch_id, device));
                }
            }
            let rec = Recorder::enabled();
            let pin = Arc::new(Pin {
                placed: Mutex::new(Vec::new()),
                observed: Mutex::new(Vec::new()),
            });
            let d = WorkloadDriver::new(Toy::new(vec![], 1)).with_recorder(rec.clone());
            let mut n = 0usize;
            d.run_placed(
                Arc::clone(&pin) as Arc<dyn Placement>,
                2,
                |item: &(u64, usize)| item.0 % 2,
                (0..20u64).map(|b| (b, 2)),
                |done| {
                    assert_eq!(done.batch, gpu_result(done.item.0, 2));
                    n += 1;
                },
            );
            assert_eq!(n, 20);
            // place() ran serially in strictly increasing batch-id order.
            let placed = pin.placed.lock().expect("lock").clone();
            assert_eq!(placed.len(), 20);
            assert!(placed.windows(2).all(|w| w[0].0 < w[1].0));
            // Every observation came from the device the key pinned.
            let observed = pin.observed.lock().expect("lock").clone();
            assert_eq!(observed.len(), 20);
            let by_id: std::collections::HashMap<u64, u64> = placed.iter().copied().collect();
            for (batch_id, device) in &observed {
                assert_eq!(*device as u64, by_id[batch_id] % 2);
            }
            // Every decision landed in the flight log as a Placement event
            // keyed by the causal batch id, carrying device + predicted cost.
            let events = rec.flight_snapshot();
            let placements: Vec<_> = events
                .iter()
                .filter(|e| e.kind == FlightKind::Placement)
                .collect();
            assert_eq!(placements.len(), 20);
            for e in placements {
                assert_eq!(e.a, by_id[&e.batch_id] % 2);
                assert_eq!(e.b, 7);
            }
        });
    }

    #[test]
    fn run_ordered_survives_a_scripted_fault_mix() {
        within_deadline(|| {
            let rec = Recorder::enabled();
            let toy = Toy::new(vec![Step::Kernel, Step::Oom, Step::Kernel, Step::Kernel], 1);
            let d = WorkloadDriver::new(toy).with_recorder(rec.clone());
            let mut n = 0usize;
            d.run_ordered(2, (0..10u64).map(|b| (b * 10, 4)), |done| {
                n += 1;
                // Every item is either the GPU or the CPU result, never garbage.
                assert!(
                    done.batch == gpu_result(done.item.0, 4)
                        || done.batch == cpu_result(done.item.0, 4)
                );
            });
            assert_eq!(n, 10);
            assert!(rec.report().retry_count() >= 1);
        });
    }
}
