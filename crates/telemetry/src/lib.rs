//! Stage-level and item-level observability for the hetstream runtimes.
//!
//! The paper argues with *structural* performance evidence — per-stage
//! utilization, copy/compute overlap, queue backpressure (Fig. 3's
//! activity graph). This crate is the substrate that lets every runtime
//! show its work the way `gpusim::trace` already does for the devices:
//!
//! * [`StageHandle`] — what a stage replica bumps: one [`Stage`] counter
//!   block (items in/out, accumulated service time, push-stall and
//!   pop-wait counts, the last and the highest observed queue depth), a
//!   wait-free service-latency histogram ([`LatencyHisto`]) and the
//!   coalesced busy spans of the Gantt.
//! * [`Recorder`] — a cloneable handle the runtimes thread through their
//!   builders. Disabled by default (`Recorder::default()`); when enabled
//!   it collects CPU stage spans, GPU engine spans, end-to-end item
//!   latencies and sampled per-item journeys into one [`TelemetryReport`].
//! * [`ThroughputWindow`] / [`Watchdog`] — background monitors sampling
//!   items/s + queue depths per tick, and flagging stages that stop making
//!   progress while work is queued (a deadlock/livelock detector for the
//!   pipeline and farm topologies).
//! * [`TelemetryReport`] — a snapshot that renders as JSON, a merged text
//!   Gantt, a latency table, or a Chrome trace-event document
//!   ([`TelemetryReport::to_chrome_trace`]) loadable in `ui.perfetto.dev`.
//!
//! Zero-cost discipline: every instrumentation call first branches on an
//! `Option<Arc<_>>`; a disabled recorder performs no atomic operation and
//! never reads the clock. With an enabled recorder, per-item probes stay
//! wait-free and allocation-free (histogram buckets are pre-allocated
//! atomics; the per-item flow sample is a bounded atomic array) — the
//! FastFlow TR's constraint that instrumentation must not be heavier than
//! the lock-free queues it observes.
//!
//! Time bases: CPU spans are wall-clock nanoseconds since the recorder's
//! creation. GPU spans come from `gpusim`'s *modeled* clock, which also
//! starts at zero for a run. The merged Gantt and the exported trace
//! therefore show both on a shared axis whose unit is
//! nanoseconds-since-run-start in each domain's own clock — exactly how
//! Fig. 3 juxtaposes host threads and device engines.
//!
//! [`sync`] is not observability: it holds the lock-free primitives the
//! runtimes share (one cache-line pad, one bounded MPMC ring, one
//! parker). It lives here because `fastflow`, `tbbx` and the flight
//! recorder all already sit on this crate, so sharing them needs no new
//! crate and no new dependency edge. It is also the only module allowed
//! `unsafe` code.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod chrome;
pub mod copy;
pub mod counters;
mod export;
mod flight;
mod health;
mod histo;
mod monitor;
pub mod sync;

use counters::Family;

pub use copy::CopyStats;
pub use counters::{
    CounterRow, Counters, Ingress, IngressTotals, Pool, PoolStats, Sched, SchedTotals,
};
pub use export::MetricsServer;
pub use flight::{
    FlightEvent, FlightHandle, FlightKind, FlightRing, DEFAULT_FLIGHT_CAPACITY, NO_BATCH,
};
pub use health::{HealthSnapshot, HealthStatus};
pub use histo::{LatencyHisto, LatencySnapshot};
pub use monitor::{ThroughputWindow, Watchdog};

/// Escape `s` for a JSON string literal: `\` and `"`, and every control
/// character (stage names and fault details are caller-supplied).
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `items` one per line, indented and comma-separated: the lines between
/// the brackets of a JSON array in this crate's hand-rolled documents.
pub(crate) fn json_lines(items: impl Iterator<Item = String>) -> String {
    let lines: Vec<String> = items.map(|item| format!("    {item}")).collect();
    if lines.is_empty() {
        String::new()
    } else {
        lines.join(",\n") + "\n"
    }
}

/// Maximum busy spans retained per stage before coalescing everything new
/// into the last span. Bounds memory on long runs; the Gantt resolution
/// is limited by terminal width anyway.
const MAX_SPANS: usize = 4096;

/// Two adjacent busy spans closer than this gap (ns) merge into one.
const COALESCE_GAP_NS: u64 = 20_000;

/// Per-item journeys sampled for the exported trace's flow arrows.
const FLOW_SAMPLES: usize = 512;

/// Windowed time-series samples retained before the sampler stops
/// appending (bounds memory on very long runs).
const MAX_WINDOW_SAMPLES: usize = 4096;

counters::family! {
    /// Stage replicas: one block per `(stage, replica)`, filed by
    /// [`Recorder::stage`] and bumped through its [`StageHandle`].
    Stage => StageTotals, "stages", ["stage", "replica"], report ["name", "replica"];
    cells {
        /// Items popped from the stage input queue.
        items_in: counter "hetstream_stage_items_in_total",
        /// Items pushed downstream by the stage.
        items_out: counter "hetstream_stage_items_out_total",
        /// Accumulated busy (service) time, wall ns.
        service_ns: counter "hetstream_stage_service_ns_total",
        /// Blocked-on-full-output-queue occurrences.
        push_stalls: counter "hetstream_stage_push_stalls_total",
        /// Blocked-on-empty-input-queue occurrences.
        pop_waits: counter "hetstream_stage_pop_waits_total",
        /// Input-queue depth the replica last observed.
        queue_depth: gauge "hetstream_stage_queue_depth",
        /// Input queue-depth high-water mark.
        queue_hwm: gauge "hetstream_stage_queue_hwm",
    }
    derived {}
}

/// The stage replicas among `rows` as `(stage, replica, cells)`, in
/// registration order — what every per-stage reader sums or walks.
pub(crate) fn stage_rows(rows: &[CounterRow]) -> impl Iterator<Item = (&str, &str, StageTotals)> {
    let rows = rows.iter().filter(|r| r.family == Stage::DESC.key);
    rows.map(|r| (&*r.labels[0], &*r.labels[1], StageTotals::from(r.values)))
}

/// One stage replica: its counter block, service-latency histogram (whose
/// count numbers the invocations), flight handle and busy spans.
#[derive(Debug)]
struct StageMetrics {
    name: String,
    replica: usize,
    epoch: Instant,
    cells: Counters<Stage>,
    latency: LatencyHisto,
    flight: FlightHandle,
    spans: Mutex<Vec<(u64, u64)>>,
}

impl counters::Block for StageMetrics {
    fn desc(&self) -> &'static counters::Descriptor {
        Stage::DESC
    }
    fn load(&self) -> [u64; counters::MAX_CELLS] {
        counters::Block::load(&self.cells)
    }
    // A replica's events go out through its own `flight` handle.
    fn arm(&self, _: FlightHandle) {}
}

impl StageMetrics {
    fn new(name: String, replica: usize, epoch: Instant, flight: FlightHandle) -> Self {
        StageMetrics {
            name,
            replica,
            epoch,
            cells: Counters::new(),
            latency: LatencyHisto::new(),
            flight,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_span(&self, start: u64, end: u64) {
        let mut spans = self.spans.lock().unwrap();
        let full = spans.len() >= MAX_SPANS;
        if let Some(last) = spans.last_mut() {
            if full || start.saturating_sub(last.1) < COALESCE_GAP_NS {
                last.1 = last.1.max(end);
                return;
            }
        }
        spans.push((start, end));
    }

    fn snapshot(&self) -> StageReport {
        StageReport {
            name: self.name.clone(),
            replica: self.replica,
            spans: self.spans.lock().unwrap().clone(),
        }
    }
}

/// An in-progress service measurement returned by [`StageHandle::begin`].
///
/// Holds the start timestamp and the replica-local invocation number
/// only when the recorder is enabled; a disabled handle hands out
/// `ServiceSpan(None)` without touching the clock.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the span back to StageHandle::end"]
pub struct ServiceSpan(Option<(u64, u64)>);

/// Per-replica instrumentation handle given to a runtime's stage loop.
///
/// All methods are no-ops (a single branch) when the owning [`Recorder`]
/// is disabled. Handles are cheap to clone and `Send`.
#[derive(Debug, Clone, Default)]
pub struct StageHandle(Option<Arc<StageMetrics>>);

impl StageHandle {
    /// A handle that records nothing — what disabled recorders hand out.
    pub fn noop() -> Self {
        StageHandle(None)
    }

    /// True when metrics are actually being collected.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one input item and the observed input-queue depth.
    #[inline]
    pub fn item_in(&self, queue_depth: usize) {
        if let Some(m) = &self.0 {
            let depth = queue_depth as u64;
            m.cells.items_in().fetch_add(1, Ordering::Relaxed);
            m.cells.queue_hwm().fetch_max(depth, Ordering::Relaxed);
            m.cells.queue_depth().store(depth, Ordering::Relaxed);
        }
    }

    /// Record `n` output items.
    #[inline]
    pub fn items_out(&self, n: u64) {
        if let Some(m) = &self.0 {
            m.cells.items_out().fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one stall while pushing downstream (full output queue).
    #[inline]
    pub fn push_stall(&self) {
        if let Some(m) = &self.0 {
            m.cells.push_stalls().fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one wait while popping upstream (empty input queue).
    #[inline]
    pub fn pop_wait(&self) {
        if let Some(m) = &self.0 {
            m.cells.pop_waits().fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current time in ns since the recorder epoch, or 0 when disabled —
    /// the emit stamp a source attaches to items for end-to-end latency.
    #[inline]
    pub fn stamp_ns(&self) -> u64 {
        match &self.0 {
            Some(m) => m.now_ns(),
            None => 0,
        }
    }

    /// Start timing one service invocation.
    ///
    /// Also drops a [`FlightKind::StageEnter`] event into the flight
    /// ring (`a` = replica-local invocation number, `b` = last observed
    /// queue depth) so the black box shows who was running when. The
    /// invocation number is one past the latency histogram's count, which
    /// numbers a replica's invocations in order while they run one at a
    /// time (a `tbbx` parallel filter's concurrent ones may share one).
    #[inline]
    pub fn begin(&self) -> ServiceSpan {
        ServiceSpan(self.0.as_ref().map(|m| {
            let start = m.now_ns();
            let inv = m.latency.count() + 1;
            let depth = m.cells.queue_depth().load(Ordering::Relaxed);
            m.flight.emit(FlightKind::StageEnter, NO_BATCH, inv, depth);
            (start, inv)
        }))
    }

    /// Finish timing one service invocation started with [`begin`].
    ///
    /// Also records the invocation into the stage's service-latency
    /// histogram (wait-free, allocation-free) and drops the matching
    /// [`FlightKind::StageExit`] event (`a` = invocation number, `b` =
    /// service ns) into the flight ring.
    ///
    /// [`begin`]: StageHandle::begin
    #[inline]
    pub fn end(&self, span: ServiceSpan) {
        if let (Some(m), Some((start, inv))) = (&self.0, span.0) {
            let end = m.now_ns();
            m.cells
                .service_ns()
                .fetch_add(end - start, Ordering::Relaxed);
            m.latency.record(end - start);
            m.flight
                .emit(FlightKind::StageExit, NO_BATCH, inv, end - start);
            m.push_span(start, end);
        }
    }
}

/// One busy interval of a GPU engine, in modeled nanoseconds since the
/// run's start. `gpusim` converts its command trace into these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSpan {
    /// Device index within the system.
    pub device: usize,
    /// Engine label ("compute", "h2d", "d2h").
    pub engine: &'static str,
    /// Command name (kernel or copy description).
    pub name: String,
    /// Stream the command was enqueued on.
    pub stream: usize,
    /// Start, modeled ns.
    pub start_ns: u64,
    /// End, modeled ns.
    pub end_ns: u64,
}

/// Bounded wait-free sample of per-item journeys `(emit_ns, done_ns)` —
/// the raw material for the exported trace's flow arrows.
#[derive(Debug)]
struct FlowBuf {
    len: AtomicUsize,
    slots: Box<[(AtomicU64, AtomicU64)]>,
}

impl FlowBuf {
    fn new() -> Self {
        FlowBuf {
            len: AtomicUsize::new(0),
            slots: (0..FLOW_SAMPLES)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    #[inline]
    fn push(&self, emit_ns: u64, done_ns: u64) {
        if self.len.load(Ordering::Relaxed) >= FLOW_SAMPLES {
            return; // sample full — stop without unbounded growth
        }
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        if i < FLOW_SAMPLES {
            self.slots[i].0.store(emit_ns, Ordering::Relaxed);
            self.slots[i].1.store(done_ns, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        let n = self.len.load(Ordering::Relaxed).min(FLOW_SAMPLES);
        self.slots[..n]
            .iter()
            .map(|(a, b)| (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)))
            .filter(|&(a, b)| !(a == 0 && b == 0))
            .collect()
    }
}

/// Auto-dump configuration armed by [`Recorder::arm_flight_dump`].
#[derive(Debug, Default)]
struct DumpCfg {
    path: Option<PathBuf>,
    storm_threshold: u64,
    fired: bool,
    escalated: bool,
}

#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    /// One entry per `(name, replica)`; each is also in `registry`.
    stages: Mutex<Vec<Arc<StageMetrics>>>,
    pub(crate) gpu: Mutex<Vec<EngineSpan>>,
    pub(crate) e2e: LatencyHisto,
    flows: FlowBuf,
    pub(crate) windows: Mutex<Vec<WindowSample>>,
    pub(crate) stalls: Mutex<Vec<StallEvent>>,
    pub(crate) faults: Mutex<Vec<FaultEvent>>,
    /// One entry per [`Recorder::register`] call and per stage replica.
    registry: Mutex<Vec<counters::Registered>>,
    pub(crate) flight: Arc<FlightRing>,
    // Interned flight source labels; a FlightEvent's `src` indexes here.
    flight_srcs: Mutex<Vec<String>>,
    fault_seen: AtomicU64,
    dump: Mutex<DumpCfg>,
}

impl Inner {
    /// Intern `label` into the flight source table (idempotent).
    fn intern_src(&self, label: &str) -> u32 {
        let mut srcs = self.flight_srcs.lock().unwrap();
        if let Some(i) = srcs.iter().position(|s| s == label) {
            i as u32
        } else {
            srcs.push(label.to_string());
            (srcs.len() - 1) as u32
        }
    }

    fn flight_handle(&self, label: &str) -> FlightHandle {
        FlightHandle::new(Arc::clone(&self.flight), self.intern_src(label))
    }

    fn flight_json(&self, reason: &str) -> String {
        let events = self.flight.snapshot();
        let srcs = self.flight_srcs.lock().unwrap().clone();
        flight::dump_json(
            reason,
            self.epoch.elapsed().as_nanos() as u64,
            &self.flight,
            &events,
            |id| srcs.get(id as usize).cloned(),
        )
    }

    /// Write the armed dump file if one is armed and this trigger has not
    /// fired yet. First trigger wins — the window closest to the incident
    /// is the one worth keeping — except that an `escalate` trigger (the
    /// ladder bottoming out on the host, the most severe automatic one)
    /// fires even when a stall or storm dump already did: the later
    /// window subsumes it and includes the fallback itself. It too fires
    /// only once — a fallback-heavy run must not re-serialize the ring
    /// per item.
    pub(crate) fn dump(&self, reason: &str, escalate: bool) -> Option<PathBuf> {
        let path = {
            let mut cfg = self.dump.lock().unwrap();
            if cfg.escalated || (cfg.fired && !escalate) {
                return None;
            }
            let path = cfg.path.clone()?;
            cfg.fired = true;
            cfg.escalated |= escalate;
            path
        };
        match std::fs::write(&path, self.flight_json(reason)) {
            Ok(()) => {
                eprintln!(
                    "[flight] dumped recorder window to {} ({reason})",
                    path.display()
                );
                Some(path)
            }
            Err(e) => {
                eprintln!("[flight] failed to write dump {}: {e}", path.display());
                None
            }
        }
    }

    /// Count one fault event toward the storm threshold, dumping the
    /// flight window when the run crosses it.
    fn storm_tick(&self) {
        let seen = self.fault_seen.fetch_add(1, Ordering::Relaxed) + 1;
        let threshold = self.dump.lock().unwrap().storm_threshold;
        if threshold > 0 && seen >= threshold {
            self.dump(&format!("fault storm: {seen} fault events"), false);
        }
    }

    /// Every counter block this recorder reports: the process-wide copy
    /// ledger, then the registered blocks in registration order.
    pub(crate) fn counter_rows(&self) -> Vec<CounterRow> {
        let registry = self.registry.lock().unwrap();
        let registered = registry.iter().map(|(l, b)| CounterRow::read(l, &**b));
        std::iter::once(CounterRow::read(&[], &copy::GLOBAL))
            .chain(registered)
            .collect()
    }

    /// Service-latency percentiles per stage name, in first-registered
    /// order. Replicas' histograms merge at the bucket level — percentiles
    /// over per-replica percentiles would be statistically wrong.
    pub(crate) fn stage_latency(&self) -> Vec<(String, LatencySnapshot)> {
        let stages = self.stages.lock().unwrap();
        let mut merged: Vec<(String, histo::HistoCounts)> = Vec::new();
        for m in stages.iter() {
            let i = merged.iter().position(|(n, _)| *n == m.name);
            let i = i.unwrap_or_else(|| {
                merged.push((m.name.clone(), histo::HistoCounts::new()));
                merged.len() - 1
            });
            merged[i].1.add(&m.latency);
        }
        merged.into_iter().map(|(n, c)| (n, c.snapshot())).collect()
    }
}

/// The run-wide collector the runtimes thread through their builders.
///
/// Cloning shares the underlying state. The [`Default`] recorder is
/// disabled, so `Recorder::default()` in a builder costs nothing.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// An enabled recorder; its creation instant is the CPU time origin.
    pub fn enabled() -> Self {
        let epoch = Instant::now();
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch,
                stages: Mutex::new(Vec::new()),
                gpu: Mutex::new(Vec::new()),
                e2e: LatencyHisto::new(),
                flows: FlowBuf::new(),
                windows: Mutex::new(Vec::new()),
                stalls: Mutex::new(Vec::new()),
                faults: Mutex::new(Vec::new()),
                registry: Mutex::new(Vec::new()),
                flight: Arc::new(FlightRing::new(epoch)),
                flight_srcs: Mutex::new(Vec::new()),
                fault_seen: AtomicU64::new(0),
                dump: Mutex::new(DumpCfg::default()),
            })),
        }
    }

    /// True when this recorder collects metrics.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register a stage replica and get its instrumentation handle: the
    /// recorder files one [`Stage`] block per `(name, replica)`, so asking
    /// again (a second pipeline with the same stage names) hands out a
    /// handle onto the same block and the counts add up.
    ///
    /// Disabled recorders return [`StageHandle::noop`].
    pub fn stage(&self, name: impl Into<String>, replica: usize) -> StageHandle {
        let Some(inner) = &self.inner else {
            return StageHandle::noop();
        };
        let name = name.into();
        let mut stages = inner.stages.lock().unwrap();
        if let Some(m) = stages
            .iter()
            .find(|m| m.name == name && m.replica == replica)
        {
            return StageHandle(Some(Arc::clone(m)));
        }
        let flight = inner.flight_handle(&format!("{name}/{replica}"));
        let labels = vec![name.clone(), replica.to_string()];
        let m = Arc::new(StageMetrics::new(name, replica, inner.epoch, flight));
        let block: Arc<dyn counters::Block> = Arc::clone(&m) as _;
        inner.registry.lock().unwrap().push((labels, block));
        stages.push(Arc::clone(&m));
        StageHandle(Some(m))
    }

    /// Merge one GPU engine span into the run (no-op when disabled).
    pub fn gpu_span(&self, span: EngineSpan) {
        if let Some(inner) = &self.inner {
            inner.gpu.lock().unwrap().push(span);
        }
    }

    /// Current time in ns since the recorder epoch, or 0 when disabled —
    /// what sources without a [`StageHandle`] stamp items with.
    #[inline]
    pub fn stamp_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Record one item's end-to-end latency from its emit stamp (taken
    /// with [`stamp_ns`](Self::stamp_ns) at the source) to now, at the
    /// collector. No-op when disabled or when the item is unstamped
    /// (`emit_ns == 0`). Wait-free and allocation-free.
    #[inline]
    pub fn record_e2e(&self, emit_ns: u64) {
        if let Some(inner) = &self.inner {
            if emit_ns != 0 {
                let now = inner.epoch.elapsed().as_nanos() as u64;
                inner.e2e.record(now.saturating_sub(emit_ns));
                inner.flows.push(emit_ns, now);
            }
        }
    }

    /// Record one fault-path event (observed fault or recovery action)
    /// with its causal batch key ([`NO_BATCH`] when there is none): the
    /// workload driver's ladder passes the batch's id so the flight
    /// recorder can stitch a batch's whole journey — fault, halvings,
    /// retries, fallback — back together. No-op when disabled; never on
    /// the per-item hot path — faults are rare by construction, so a
    /// mutex push is fine here.
    pub fn fault_in_batch(
        &self,
        stage: impl Into<String>,
        kind: FaultKind,
        batch_id: u64,
        detail: impl Into<String>,
    ) {
        if let Some(inner) = &self.inner {
            let stage = stage.into();
            let ev = FaultEvent {
                t_ns: inner.epoch.elapsed().as_nanos() as u64,
                stage,
                kind,
                detail: detail.into(),
            };
            let src = inner.intern_src(&ev.stage);
            inner.flight.emit(kind.flight_kind(), src, batch_id, 0, 0);
            let stage = ev.stage.clone();
            inner.faults.lock().unwrap().push(ev);
            inner.storm_tick();
            if kind == FaultKind::CpuFallback {
                inner.dump(&format!("cpu fallback: {stage} (batch {batch_id})"), true);
            }
        }
    }

    /// Register a counter block under its family's label values (a pool
    /// or scheduler name, an ingress `[stream, shard]`, …). The recorder
    /// only reads the shared cells, at report and scrape time; registering
    /// the same labels again replaces the earlier block (a run rebuilds
    /// its backends, pumps and schedulers freely). The block's rare
    /// events (pool sheds) go to this recorder's flight ring from now on.
    ///
    /// # Panics
    /// If `labels` does not have one value per label key of the family.
    pub fn register<F: counters::Family>(&self, labels: &[&str], block: &Arc<Counters<F>>) {
        if let Some(inner) = &self.inner {
            let keys = F::DESC.labels;
            assert_eq!(labels.len(), keys.len(), "{} takes {keys:?}", F::DESC.key);
            let block: Arc<dyn counters::Block> = Arc::clone(block) as _;
            let src = format!(
                "{}:{}",
                keys.first().unwrap_or(&F::DESC.key),
                labels.join("/")
            );
            block.arm(inner.flight_handle(&src));
            let labels: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
            let mut registry = inner.registry.lock().unwrap();
            let at = registry
                .iter()
                .position(|(l, b)| *l == labels && b.desc().key == F::DESC.key);
            match at {
                Some(at) => registry[at].1 = block,
                None => registry.push((labels, block)),
            }
        }
    }

    /// Start the windowed throughput sampler: every `tick` it snapshots
    /// every stage replica's counter row (cumulative `items_out`, the
    /// observed input-queue depth, …) into the report's time-series
    /// (capped at `MAX_WINDOW_SAMPLES`). Returns an inert guard when
    /// disabled.
    pub fn sample_windows(&self, tick: Duration) -> ThroughputWindow {
        match &self.inner {
            None => ThroughputWindow::inert(),
            Some(inner) => ThroughputWindow::start(Arc::clone(inner), tick),
        }
    }

    /// Start the stall watchdog: flags any stage replica whose `items_out`
    /// does not advance for `stall_ticks` consecutive ticks while upstream
    /// has queued work for it. Returns an inert guard when disabled.
    pub fn watchdog(&self, tick: Duration, stall_ticks: u32) -> Watchdog {
        match &self.inner {
            None => Watchdog::inert(),
            Some(inner) => Watchdog::start(Arc::clone(inner), tick, stall_ticks),
        }
    }

    pub(crate) fn window_sample_cap() -> usize {
        MAX_WINDOW_SAMPLES
    }

    // ── Live observability plane ────────────────────────────────────

    /// An emitter into the flight ring bound to the interned source
    /// `label` (e.g. a driver stage, `"gpu0"`). Noop when disabled.
    pub fn flight_handle(&self, label: &str) -> FlightHandle {
        match &self.inner {
            None => FlightHandle::noop(),
            Some(inner) => inner.flight_handle(label),
        }
    }

    /// Decode the flight ring's currently visible window (oldest first).
    pub fn flight_snapshot(&self) -> Vec<FlightEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.flight.snapshot(),
        }
    }

    /// Render the flight window as the dump JSON document (schema
    /// `hetstream.flight.v1`) without touching the filesystem — what the
    /// live endpoint's `/flight` route serves.
    pub fn flight_json(&self, reason: &str) -> String {
        match &self.inner {
            None => String::from(
                "{\n  \"schema\": \"hetstream.flight.v1\",\n  \"reason\": \"recorder disabled\",\n  \"events\": []\n}\n",
            ),
            Some(inner) => inner.flight_json(reason),
        }
    }

    /// Arm the flight recorder's auto-dump: on the first watchdog stall,
    /// or once `storm_threshold` fault events accumulate (0 disables the
    /// storm trigger), the visible window is written to `path` as JSON.
    /// First trigger wins, with one exception: the first CPU fallback
    /// escalates over an earlier stall/storm dump, rewriting `path` with
    /// the later window (which subsumes it and includes the fallback).
    pub fn arm_flight_dump(&self, path: impl Into<PathBuf>, storm_threshold: u64) {
        if let Some(inner) = &self.inner {
            let mut cfg = inner.dump.lock().unwrap();
            cfg.path = Some(path.into());
            cfg.storm_threshold = storm_threshold;
            cfg.fired = false;
            cfg.escalated = false;
        }
    }

    /// Render the live Prometheus text exposition (format 0.0.4). A
    /// disabled recorder reports `hetstream_up 0` and nothing else.
    pub fn prometheus(&self) -> String {
        match &self.inner {
            None => export::render_disabled(),
            Some(inner) => export::render_prometheus(inner),
        }
    }

    /// Compute the one-struct health snapshot — queue depths, per-stage
    /// p99, fault/retry/fallback rates, pool hit rates, watchdog state.
    pub fn health(&self) -> HealthSnapshot {
        match &self.inner {
            None => HealthSnapshot::default(),
            Some(inner) => health::snapshot(inner),
        }
    }

    /// Serve `/metrics`, `/health` and `/flight` over blocking TCP at
    /// `addr` (`"127.0.0.1:0"` picks a free port — see
    /// [`MetricsServer::addr`]). Works for disabled recorders too, which
    /// serve the `hetstream_up 0` document.
    pub fn serve_metrics(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<MetricsServer> {
        MetricsServer::start(self.clone(), addr)
    }

    /// Snapshot everything collected so far.
    pub fn report(&self) -> TelemetryReport {
        match &self.inner {
            None => TelemetryReport::default(),
            Some(inner) => {
                let metrics = inner.stages.lock().unwrap().clone();
                let mut stages: Vec<StageReport> = metrics.iter().map(|m| m.snapshot()).collect();
                stages.sort_by(|a, b| a.name.cmp(&b.name).then(a.replica.cmp(&b.replica)));
                let mut gpu = inner.gpu.lock().unwrap().clone();
                gpu.sort_by_key(|s| (s.device, s.engine, s.start_ns));
                let mut stage_latency = inner.stage_latency();
                stage_latency.sort_by(|a, b| a.0.cmp(&b.0));
                TelemetryReport {
                    stages,
                    gpu,
                    stage_latency,
                    e2e: inner.e2e.snapshot(),
                    flows: inner.flows.snapshot(),
                    windows: inner.windows.lock().unwrap().clone(),
                    stalls: inner.stalls.lock().unwrap().clone(),
                    faults: {
                        let mut f = inner.faults.lock().unwrap().clone();
                        f.sort_by_key(|e| e.t_ns);
                        f
                    },
                    counters: inner.counter_rows(),
                }
            }
        }
    }
}

/// One stage replica's row of the Gantt; its counters are the report's
/// [`Stage`] rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name as registered by the runtime.
    pub name: String,
    /// Replica index within the stage.
    pub replica: usize,
    /// Coalesced busy intervals, in time order.
    pub spans: Vec<(u64, u64)>,
}

/// One tick of the windowed throughput sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Sample time, ns since the recorder epoch.
    pub t_ns: u64,
    /// Every stage replica's [`Stage`] row at this instant (differentiate
    /// adjacent samples' `items_out` for items/s).
    pub stages: Vec<CounterRow>,
}

/// Structured report of one detected stage stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallEvent {
    /// Detection time, ns since the recorder epoch.
    pub t_ns: u64,
    /// Stalled stage name.
    pub stage: String,
    /// Stalled replica index.
    pub replica: usize,
    /// Consecutive watchdog ticks without `items_out` progress.
    pub ticks_stalled: u32,
    /// Items the replica had consumed when flagged.
    pub items_in: u64,
    /// Items the replica had produced when flagged.
    pub items_out: u64,
    /// Items the upstream stage group had emitted when flagged.
    pub upstream_out: u64,
    /// Input-queue depth the replica last observed.
    pub queue_depth: u64,
}

impl StallEvent {
    /// One-line rendering for logs.
    pub fn describe(&self) -> String {
        format!(
            "stall: stage {}/{} made no progress for {} ticks at t={}ns \
             (in={} out={} upstream_out={} queue={})",
            self.stage,
            self.replica,
            self.ticks_stalled,
            self.t_ns,
            self.items_in,
            self.items_out,
            self.upstream_out,
            self.queue_depth
        )
    }
}

/// What kind of fault-path event a [`FaultEvent`] records.
///
/// The first three are *causes* (observed device/stage misbehaviour); the
/// last two are *recovery actions* the runtime took. Acceptance checks and
/// the fig harnesses count the actions ([`TelemetryReport::retry_count`],
/// [`TelemetryReport::fallback_count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A device allocation failed (real or injected OOM).
    DeviceOom,
    /// A kernel launch failed (injected transient fault).
    KernelFault,
    /// A stage failed an item without unwinding. No runtime in the
    /// workspace reports it; it stays a label of the exposition and flight
    /// formats.
    StageError,
    /// The runtime retried the failed operation (possibly reshaped, e.g.
    /// with a halved batch).
    Retry,
    /// The runtime degraded the operation to its CPU implementation.
    CpuFallback,
}

impl FaultKind {
    /// Stable lowercase label used in JSON/CSV/trace output.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DeviceOom => "device_oom",
            FaultKind::KernelFault => "kernel_fault",
            FaultKind::StageError => "stage_error",
            FaultKind::Retry => "retry",
            FaultKind::CpuFallback => "cpu_fallback",
        }
    }

    /// The flight-recorder event kind mirroring this fault kind.
    pub fn flight_kind(&self) -> FlightKind {
        match self {
            FaultKind::DeviceOom => FlightKind::DeviceOom,
            FaultKind::KernelFault => FlightKind::KernelFault,
            FaultKind::StageError => FlightKind::StageError,
            FaultKind::Retry => FlightKind::Retry,
            FaultKind::CpuFallback => FlightKind::CpuFallback,
        }
    }
}

/// One fault-path event: an observed fault or a recovery action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Event time, ns since the recorder epoch.
    pub t_ns: u64,
    /// Stage (or subsystem) that observed the fault / took the action.
    pub stage: String,
    /// What happened.
    pub kind: FaultKind,
    /// Free-form context ("oom 1048576B on dev0", "batch halved to 16", …).
    pub detail: String,
}

impl FaultEvent {
    /// One-line rendering for logs.
    pub fn describe(&self) -> String {
        format!(
            "fault: [{}] {} at t={}ns ({})",
            self.kind.label(),
            self.stage,
            self.t_ns,
            self.detail
        )
    }
}

/// A full run snapshot: CPU stage counters plus GPU engine spans, latency
/// distributions, the windowed time-series and any stall events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Per-replica busy spans, sorted by (name, replica).
    pub stages: Vec<StageReport>,
    /// GPU engine busy intervals, sorted by (device, engine, start).
    pub gpu: Vec<EngineSpan>,
    /// Service-latency percentiles per stage name (replica histograms
    /// merged at the bucket level).
    pub stage_latency: Vec<(String, LatencySnapshot)>,
    /// End-to-end (source emit → collector) latency percentiles.
    pub e2e: LatencySnapshot,
    /// Sampled per-item journeys `(emit_ns, done_ns)` for trace arrows.
    pub flows: Vec<(u64, u64)>,
    /// Windowed throughput/queue-depth time-series.
    pub windows: Vec<WindowSample>,
    /// Stalls the watchdog reported.
    pub stalls: Vec<StallEvent>,
    /// Fault-path events (injected faults, retries, CPU fallbacks), in
    /// time order.
    pub faults: Vec<FaultEvent>,
    /// Every counter block at report time: the process-wide copy ledger
    /// (see [`copy`]), then each stage replica and each registered pool,
    /// scheduler and ingress shard in registration order (see
    /// [`counters`]).
    pub counters: Vec<CounterRow>,
}

impl TelemetryReport {
    /// End of the latest CPU activity, ns since run start.
    pub fn cpu_makespan_ns(&self) -> u64 {
        let ends = self.stages.iter().filter_map(|s| s.spans.last());
        ends.map(|&(_, end)| end).max().unwrap_or(0)
    }

    /// End of the latest GPU activity, modeled ns since run start.
    pub fn gpu_makespan_ns(&self) -> u64 {
        self.gpu.iter().map(|s| s.end_ns).max().unwrap_or(0)
    }

    /// The cells of every replica of `stage`.
    fn replicas_of<'a>(&'a self, stage: &'a str) -> impl Iterator<Item = StageTotals> + 'a {
        let rows = stage_rows(&self.counters).filter(move |(name, _, _)| *name == stage);
        rows.map(|(_, _, cells)| cells)
    }

    /// Total items into all replicas of `stage`.
    pub fn items_in(&self, stage: &str) -> u64 {
        self.replicas_of(stage).map(|s| s.items_in).sum()
    }

    /// Total items out of all replicas of `stage`.
    pub fn items_out(&self, stage: &str) -> u64 {
        self.replicas_of(stage).map(|s| s.items_out).sum()
    }

    /// The counter blocks of one family (`"stages"`, `"pools"`,
    /// `"sched"`, `"ingress"`, `"copy"`), in registration order.
    pub fn family<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a CounterRow> {
        self.counters.iter().filter(move |r| r.family == key)
    }

    /// Fault events of one kind.
    pub fn faults_of(&self, kind: FaultKind) -> impl Iterator<Item = &FaultEvent> {
        self.faults.iter().filter(move |e| e.kind == kind)
    }

    /// How many times the runtime retried a failed GPU operation.
    pub fn retry_count(&self) -> usize {
        self.faults_of(FaultKind::Retry).count()
    }

    /// How many times the runtime degraded a batch to its CPU path.
    pub fn fallback_count(&self) -> usize {
        self.faults_of(FaultKind::CpuFallback).count()
    }

    /// Measured utilization per stage, in name order: Σ replica service
    /// time over (replica count × CPU makespan). The quantity
    /// `perfmodel::pipe` predicts as `stage_utilization`.
    pub fn stage_utilization(&self) -> Vec<(String, f64)> {
        let makespan = self.cpu_makespan_ns().max(1) as f64;
        let mut names: Vec<&str> = stage_rows(&self.counters).map(|(n, _, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let (busy, replicas) = self
                    .replicas_of(name)
                    .fold((0u64, 0usize), |(b, r), s| (b + s.service_ns, r + 1));
                (name.to_string(), busy as f64 / (replicas as f64 * makespan))
            })
            .collect()
    }

    /// Aligned text table of per-stage service latency and end-to-end
    /// latency percentiles — what the fig binaries print.
    pub fn latency_table(&self) -> String {
        fn fmt(ns: u64) -> String {
            if ns >= 10_000_000 {
                format!("{:.1}ms", ns as f64 / 1e6)
            } else if ns >= 10_000 {
                format!("{:.1}us", ns as f64 / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
        let mut rows: Vec<[String; 7]> = Vec::new();
        for (name, l) in &self.stage_latency {
            rows.push([
                name.clone(),
                l.count.to_string(),
                fmt(l.p50_ns),
                fmt(l.p90_ns),
                fmt(l.p95_ns),
                fmt(l.p99_ns),
                fmt(l.max_ns),
            ]);
        }
        if self.e2e.count > 0 {
            let l = &self.e2e;
            rows.push([
                "end-to-end".into(),
                l.count.to_string(),
                fmt(l.p50_ns),
                fmt(l.p90_ns),
                fmt(l.p95_ns),
                fmt(l.p99_ns),
                fmt(l.max_ns),
            ]);
        }
        if rows.is_empty() {
            return String::from("(no latency samples recorded)\n");
        }
        let header = ["stage", "count", "p50", "p90", "p95", "p99", "max"];
        let mut w = header.map(|h| h.len());
        for r in &rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, h) in header.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", h, width = w[i]));
        }
        out.push('\n');
        for r in &rows {
            for (i, c) in r.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", c, width = w[i]));
            }
            out.push('\n');
        }
        out
    }

    /// JSON document (hand-rolled; the schema is small and stable). The
    /// stage replicas are the `"stages"` counter rows.
    pub fn to_json(&self) -> String {
        fn latency_json(l: &LatencySnapshot) -> String {
            format!(
                "{{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
                 \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                l.count, l.mean_ns, l.p50_ns, l.p90_ns, l.p95_ns, l.p99_ns, l.max_ns
            )
        }
        let mut out = String::from("{\n");
        let gpu = self.gpu.iter().map(|g| {
            format!(
                "{{\"device\": {}, \"engine\": \"{}\", \"name\": \"{}\", \"stream\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                g.device,
                g.engine,
                esc(&g.name),
                g.stream,
                g.start_ns,
                g.end_ns,
            )
        });
        out.push_str(&format!("  \"gpu\": [\n{}  ],\n", json_lines(gpu)));
        let stage_latency = self.stage_latency.iter();
        let stage_latency: Vec<String> = stage_latency
            .map(|(name, l)| format!("\"{}\": {}", esc(name), latency_json(l)))
            .collect();
        out.push_str(&format!(
            "  \"stage_latency\": {{{}}},\n",
            stage_latency.join(", ")
        ));
        out.push_str(&format!("  \"e2e\": {},\n", latency_json(&self.e2e)));
        let stalls = self.stalls.iter().map(|e| {
            format!(
                "{{\"t_ns\": {}, \"stage\": \"{}\", \"replica\": {}, \"ticks_stalled\": {}, \
                 \"items_in\": {}, \"items_out\": {}, \"upstream_out\": {}, \"queue_depth\": {}}}",
                e.t_ns,
                esc(&e.stage),
                e.replica,
                e.ticks_stalled,
                e.items_in,
                e.items_out,
                e.upstream_out,
                e.queue_depth,
            )
        });
        out.push_str(&format!("  \"stalls\": [\n{}  ],\n", json_lines(stalls)));
        let faults = self.faults.iter().map(|e| {
            format!(
                "{{\"t_ns\": {}, \"stage\": \"{}\", \"kind\": \"{}\", \"detail\": \"{}\"}}",
                e.t_ns,
                esc(&e.stage),
                e.kind.label(),
                esc(&e.detail),
            )
        });
        out.push_str(&format!("  \"faults\": [\n{}  ],\n", json_lines(faults)));
        out.push_str(&format!(
            "  \"fault_counts\": {{\"retries\": {}, \"cpu_fallbacks\": {}}},\n",
            self.retry_count(),
            self.fallback_count()
        ));
        counters::render_json(&mut out, &self.counters, false);
        let windows = self.windows.iter().map(|wdw| {
            let stages = wdw.stages.iter();
            let stages: Vec<String> = stages
                .map(|r| r.json_object(Stage::DESC.report_labels))
                .collect();
            format!(
                "{{\"t_ns\": {}, \"stages\": [{}]}}",
                wdw.t_ns,
                stages.join(", ")
            )
        });
        out.push_str(&format!("  \"windows\": [\n{}  ],\n", json_lines(windows)));
        let util = self.stage_utilization();
        let util: Vec<String> = util
            .iter()
            .map(|(name, u)| format!("\"{}\": {u:.6}", esc(name)))
            .collect();
        out.push_str(&format!("  \"utilization\": {{{}}}\n}}\n", util.join(", ")));
        out
    }

    /// Merged text Gantt: one row per CPU stage replica, one per GPU
    /// (device, engine). `#` marks busy cells, `.` idle; the axis spans
    /// from 0 to the latest activity in either clock domain.
    ///
    /// A `width` of 0 is clamped up, and a run with no recorded activity
    /// (zero-duration horizon) renders a placeholder instead of dividing
    /// by the makespan.
    pub fn gantt(&self, width: usize) -> String {
        let width = width.max(8);
        let mut rows: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
        for s in &self.stages {
            rows.push((format!("{}/{}", s.name, s.replica), s.spans.clone()));
        }
        let mut keys: Vec<(usize, &'static str)> =
            self.gpu.iter().map(|g| (g.device, g.engine)).collect();
        keys.sort_unstable();
        keys.dedup();
        for (device, engine) in keys {
            let spans = self
                .gpu
                .iter()
                .filter(|g| g.device == device && g.engine == engine)
                .map(|g| (g.start_ns, g.end_ns))
                .collect();
            rows.push((format!("gpu{device}/{engine}"), spans));
        }
        let horizon = self.cpu_makespan_ns().max(self.gpu_makespan_ns());
        if rows.is_empty() || horizon == 0 {
            // Zero-duration run (or nothing registered): nothing to scale
            // spans against — never divide by this horizon.
            return String::from("(no recorded activity)\n");
        }
        let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(4).max(4);
        let mut out = String::new();
        for (label, spans) in &rows {
            let mut cells = vec!['.'; width];
            for &(start, end) in spans {
                let a = (start as u128 * width as u128 / horizon as u128) as usize;
                let b = (end as u128 * width as u128).div_ceil(horizon as u128) as usize;
                for cell in cells.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = '#';
                }
            }
            out.push_str(&format!(
                "{label:<label_w$} |{}|\n",
                cells.iter().collect::<String>()
            ));
        }
        out.push_str(&format!(
            "{:<label_w$} 0{:>w$}\n",
            "t(ns)",
            format!("{horizon}"),
            w = width
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::default();
        let h = rec.stage("s", 0);
        assert!(!h.enabled());
        h.item_in(5);
        let t = h.begin();
        h.end(t);
        h.items_out(3);
        assert_eq!(h.stamp_ns(), 0);
        assert_eq!(rec.stamp_ns(), 0);
        rec.record_e2e(12345);
        let report = rec.report();
        assert!(report.stages.is_empty());
        assert!(report.gpu.is_empty());
        assert_eq!(report.e2e.count, 0);
        assert_eq!(report.cpu_makespan_ns(), 0);
    }

    #[test]
    fn counters_accumulate_per_replica() {
        let rec = Recorder::enabled();
        let h0 = rec.stage("work", 0);
        let h1 = rec.stage("work", 1);
        for _ in 0..3 {
            h0.item_in(2);
            h0.end(h0.begin());
            h0.items_out(1);
        }
        h1.item_in(7);
        h1.pop_wait();
        h1.push_stall();
        let report = rec.report();
        // One row per replica; summing them per stage is the reader's job.
        let rows: Vec<_> = stage_rows(&report.counters).collect();
        let labels: Vec<_> = rows
            .iter()
            .map(|&(name, replica, _)| (name, replica))
            .collect();
        assert_eq!(labels, [("work", "0"), ("work", "1")]);
        let (r0, r1) = (rows[0].2, rows[1].2);
        assert_eq!((r0.items_in + r1.items_in, report.items_in("work")), (4, 4));
        assert_eq!(
            (r0.items_out + r1.items_out, report.items_out("work")),
            (3, 3)
        );
        assert_eq!((r0.queue_hwm, r0.queue_depth), (2, 2));
        assert_eq!(report.stage_latency[0].1.count, 3);
        assert_eq!(r1.pop_waits, 1);
        assert_eq!(r1.push_stalls, 1);
        assert_eq!(r1.queue_hwm, 7);
    }

    #[test]
    fn service_time_is_recorded_and_spans_coalesce() {
        let rec = Recorder::enabled();
        let h = rec.stage("s", 0);
        for _ in 0..100 {
            let t = h.begin();
            std::thread::sleep(std::time::Duration::from_micros(50));
            h.end(t);
        }
        let report = rec.report();
        let row = report.family("stages").next().unwrap();
        let service_ns = StageTotals::from(row.values).service_ns;
        assert!(service_ns >= 100 * 50_000, "service {service_ns}");
        let spans = &report.stages[0].spans;
        assert!(spans.len() <= MAX_SPANS);
        assert!(spans[0].0 < spans[spans.len() - 1].1);
        // The stage's latency histogram saw every invocation.
        let latency = report.stage_latency[0].1;
        assert_eq!(latency.count, 100);
        assert!(latency.p50_ns >= 50_000, "p50 {}", latency.p50_ns);
    }

    #[test]
    fn e2e_latency_flows_from_stamp_to_collector() {
        let rec = Recorder::enabled();
        let src = rec.stage("source", 0);
        for _ in 0..10 {
            let stamp = src.stamp_ns();
            std::thread::sleep(std::time::Duration::from_micros(200));
            rec.record_e2e(stamp);
        }
        let report = rec.report();
        assert_eq!(report.e2e.count, 10);
        assert!(report.e2e.p50_ns >= 200_000, "p50 {}", report.e2e.p50_ns);
        assert!(!report.flows.is_empty());
        for &(emit, done) in &report.flows {
            assert!(done >= emit);
        }
    }

    #[test]
    fn report_renders_json_and_gantt() {
        let rec = Recorder::enabled();
        let h = rec.stage("alpha", 0);
        h.item_in(1);
        let t = h.begin();
        std::thread::sleep(std::time::Duration::from_micros(200));
        h.end(t);
        h.items_out(1);
        rec.gpu_span(EngineSpan {
            device: 0,
            engine: "compute",
            name: "k".into(),
            stream: 0,
            start_ns: 0,
            end_ns: 500,
        });
        let report = rec.report();
        let json = report.to_json();
        assert!(json.contains("\"alpha\""));
        assert!(json.contains("\"compute\""));
        assert!(json.contains("\"stage_latency\""));
        assert!(json.contains("\"e2e\""));
        assert!(json.contains(
            "{\"name\": \"alpha\", \"replica\": \"0\", \"items_in\": 1, \"items_out\": 1,"
        ));
        let gantt = report.gantt(40);
        assert!(gantt.contains("alpha/0"));
        assert!(gantt.contains("gpu0/compute"));
        assert!(gantt.contains('#'));
        let table = report.latency_table();
        assert!(table.contains("alpha"));
        assert!(table.contains("p99"));
    }

    #[test]
    fn gantt_guards_zero_duration_and_zero_width() {
        // Nothing recorded at all.
        let empty = TelemetryReport::default();
        assert_eq!(empty.gantt(0), "(no recorded activity)\n");
        // A stage registered but never active: horizon is zero.
        let rec = Recorder::enabled();
        let _h = rec.stage("s", 0);
        let report = rec.report();
        assert_eq!(report.gantt(40), "(no recorded activity)\n");
        // width == 0 with real activity must not panic and still renders.
        let rec = Recorder::enabled();
        let h = rec.stage("s", 0);
        let t = h.begin();
        std::thread::sleep(std::time::Duration::from_micros(100));
        h.end(t);
        let g = rec.report().gantt(0);
        assert!(g.contains("s/0"));
    }

    #[test]
    fn utilization_is_busy_over_makespan() {
        let rec = Recorder::enabled();
        let h = rec.stage("s", 0);
        let t = h.begin();
        std::thread::sleep(std::time::Duration::from_millis(5));
        h.end(t);
        let report = rec.report();
        let util = report.stage_utilization();
        assert_eq!(util.len(), 1);
        // The single stage was busy from its first to its last instant.
        assert!(util[0].1 > 0.5, "util {}", util[0].1);
        assert!(util[0].1 <= 1.0 + 1e-9);
    }

    #[test]
    fn window_sampler_collects_time_series() {
        let rec = Recorder::enabled();
        let h = rec.stage("s", 0);
        let sampler = rec.sample_windows(Duration::from_millis(2));
        for i in 0..20 {
            h.item_in(i % 4);
            h.items_out(1);
            std::thread::sleep(Duration::from_millis(1));
        }
        sampler.stop();
        let report = rec.report();
        assert!(
            report.windows.len() >= 2,
            "expected samples, got {}",
            report.windows.len()
        );
        let items_out = |w: &WindowSample| StageTotals::from(w.stages[0].values).items_out;
        let last = report.windows.last().unwrap();
        assert_eq!(last.stages.len(), 1);
        assert!(items_out(last) > 0);
        // Cumulative counters are monotone across samples.
        let mut prev = 0;
        for w in &report.windows {
            assert!(items_out(w) >= prev);
            prev = items_out(w);
        }
        let json = report.to_json();
        assert!(json.contains("\"windows\""));
    }

    #[test]
    fn watchdog_is_quiet_on_healthy_progress() {
        let rec = Recorder::enabled();
        let src = rec.stage("source", 0);
        let work = rec.stage("work", 0);
        let wd = rec.watchdog(Duration::from_millis(2), 2);
        for _ in 0..25 {
            src.items_out(1);
            work.item_in(0);
            work.items_out(1);
            std::thread::sleep(Duration::from_millis(1));
        }
        let stalls = wd.stop();
        assert!(stalls.is_empty(), "unexpected stalls: {stalls:?}");
    }

    #[test]
    fn watchdog_flags_stage_sitting_on_queued_work() {
        let rec = Recorder::enabled();
        let src = rec.stage("source", 0);
        let work = rec.stage("work", 0);
        let wd = rec.watchdog(Duration::from_millis(2), 3);
        // Source emits, "work" consumes nothing: queued work, no progress.
        src.items_out(10);
        work.item_in(5); // consumed one, queue depth 5 observed
        std::thread::sleep(Duration::from_millis(40));
        let stalls = wd.stop();
        assert!(!stalls.is_empty(), "watchdog missed the stall");
        let e = &stalls[0];
        assert_eq!(e.stage, "work");
        assert_eq!(e.upstream_out, 10);
        assert!(e.ticks_stalled >= 3);
        assert!(e.describe().contains("work/0"));
        // One event per episode, not one per tick.
        assert_eq!(stalls.len(), 1);
    }

    #[test]
    fn fault_events_are_recorded_counted_and_exported() {
        let rec = Recorder::enabled();
        let h = rec.stage("stage1", 0);
        h.item_in(0);
        rec.fault_in_batch(
            "stage1",
            FaultKind::DeviceOom,
            NO_BATCH,
            "oom 1024B on dev0",
        );
        rec.fault_in_batch("stage1", FaultKind::Retry, NO_BATCH, "batch halved to 16");
        rec.fault_in_batch("stage1", FaultKind::CpuFallback, NO_BATCH, "batch 3 on CPU");
        let report = rec.report();
        assert_eq!(report.faults.len(), 3);
        assert_eq!(report.retry_count(), 1);
        assert_eq!(report.fallback_count(), 1);
        assert_eq!(report.faults_of(FaultKind::DeviceOom).count(), 1);
        // Time-ordered.
        assert!(report.faults.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let json = report.to_json();
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"device_oom\""));
        assert!(json.contains("\"fault_counts\": {\"retries\": 1, \"cpu_fallbacks\": 1}"));
        let trace = report.to_chrome_trace();
        assert!(trace.contains("\"cat\":\"fault\""));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(report.faults[0].describe().contains("device_oom"));
        // Disabled recorders stay inert.
        let off = Recorder::default();
        off.fault_in_batch("s", FaultKind::Retry, NO_BATCH, "x");
        assert_eq!(off.report().retry_count(), 0);
    }

    #[test]
    fn disabled_monitors_are_inert() {
        let rec = Recorder::default();
        let sampler = rec.sample_windows(Duration::from_millis(1));
        let wd = rec.watchdog(Duration::from_millis(1), 1);
        std::thread::sleep(Duration::from_millis(5));
        sampler.stop();
        assert!(wd.stop().is_empty());
    }
}

#[cfg(test)]
mod deadline;
