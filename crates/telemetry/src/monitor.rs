//! Run-time monitors: the windowed throughput sampler and the stall
//! watchdog. Both run on their own thread, polling the stage replicas'
//! counter rows at a configurable tick — the hot path is never touched.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{counters::Family, stage_rows, Inner, Stage, StallEvent, WindowSample};

/// The stop flag a [`Background`] thread's body polls.
pub(crate) struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    pub(crate) fn raised(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Sleep `tick` in ≤10 ms slices, returning early (true) once the
    /// flag is raised — so stopping joins promptly however long the tick,
    /// and a final pass can run *after* the flag instead of being slept
    /// away.
    pub(crate) fn sleep(&self, tick: Duration) -> bool {
        let mut slept = Duration::ZERO;
        while slept < tick && !self.raised() {
            let step = (tick - slept).min(Duration::from_millis(10));
            std::thread::sleep(step);
            slept += step;
        }
        self.raised()
    }
}

/// One background thread with its stop flag: raised and joined by
/// [`halt`](Background::halt) or on drop. Every monitor, the metrics
/// endpoint and the snapshot writer are this guard plus a thread body.
#[derive(Debug)]
pub(crate) struct Background {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Background {
    /// A guard over no thread — what disabled recorders hand out.
    pub(crate) fn inert() -> Self {
        Background {
            stop: Arc::new(AtomicBool::new(true)),
            thread: None,
        }
    }

    pub(crate) fn spawn(name: &str, body: impl FnOnce(StopFlag) + Send + 'static) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = StopFlag(Arc::clone(&stop));
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || body(flag))
            .unwrap_or_else(|e| panic!("spawn {name} thread: {e}"));
        Background {
            stop,
            thread: Some(thread),
        }
    }

    pub(crate) fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Guard over the background thread started by
/// [`Recorder::sample_windows`](crate::Recorder::sample_windows).
///
/// Every tick it appends one [`WindowSample`] (every stage replica's
/// counter row: cumulative `items_out`, the last observed input-queue
/// depth, …) to the recorder, so the final
/// [`TelemetryReport`](crate::TelemetryReport) carries the run's
/// ramp-up/backpressure time-series. Stop it (or drop it) before taking
/// the report you intend to keep.
#[derive(Debug)]
pub struct ThroughputWindow(Background);

impl ThroughputWindow {
    pub(crate) fn inert() -> Self {
        ThroughputWindow(Background::inert())
    }

    pub(crate) fn start(inner: Arc<Inner>, tick: Duration) -> Self {
        ThroughputWindow(Background::spawn("telemetry-window", move |stop| {
            let cap = crate::Recorder::window_sample_cap();
            while !stop.sleep(tick) {
                let t_ns = inner.epoch.elapsed().as_nanos() as u64;
                let mut stages = inner.counter_rows();
                stages.retain(|r| r.family == Stage::DESC.key);
                let mut windows = inner.windows.lock().unwrap();
                if windows.len() < cap {
                    windows.push(WindowSample { t_ns, stages });
                }
            }
        }))
    }

    /// Stop sampling and join the sampler thread.
    pub fn stop(mut self) {
        self.0.halt();
    }
}

/// Per-replica progress tracking state of the watchdog.
struct Tracked {
    last_items_out: u64,
    stalled_ticks: u32,
    reported: bool,
}

/// The stall watchdog started by
/// [`Recorder::watchdog`](crate::Recorder::watchdog).
///
/// Every `tick` it checks each registered stage replica: if `items_out`
/// has not advanced for `stall_ticks` consecutive ticks *while upstream
/// has work queued for the stage* (upstream's group emitted more items
/// than this stage's group consumed, or the replica's input queue was
/// non-empty when last observed), it emits one structured [`StallEvent`]
/// into the recorder. One event is emitted per stall episode; progress
/// re-arms the detector. Because a deadlocked pipeline or farm is exactly
/// "no progress with work pending", this doubles as a deadlock/livelock
/// detector for those topologies.
#[derive(Debug)]
pub struct Watchdog {
    thread: Background,
    inner: Option<Arc<Inner>>,
}

impl Watchdog {
    pub(crate) fn inert() -> Self {
        Watchdog {
            thread: Background::inert(),
            inner: None,
        }
    }

    pub(crate) fn start(inner: Arc<Inner>, tick: Duration, stall_ticks: u32) -> Self {
        let stall_ticks = stall_ticks.max(1);
        let inner2 = Arc::clone(&inner);
        let thread = Background::spawn("telemetry-watchdog", move |stop| {
            let mut tracked: Vec<Tracked> = Vec::new();
            while !stop.sleep(tick) {
                scan(&inner2, &mut tracked, stall_ticks);
            }
            // A stall episode can mature during the final sleep; one
            // last scan flushes it as a StallEvent instead of
            // silently dropping it at stop(). (Sub-threshold
            // episodes still end unreported — a run's natural tail
            // is not a stall.)
            scan(&inner2, &mut tracked, stall_ticks);
        });
        Watchdog {
            thread,
            inner: Some(inner),
        }
    }

    /// Stop the watchdog and return every stall event it reported.
    pub fn stop(mut self) -> Vec<StallEvent> {
        self.thread.halt();
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.stalls.lock().unwrap().clone(),
        }
    }
}

/// One watchdog tick: compare every replica's `items_out` against the last
/// tick and flag replicas that sit still on pending work.
fn scan(inner: &Arc<Inner>, tracked: &mut Vec<Tracked>, stall_ticks: u32) {
    let rows = inner.counter_rows();
    let replicas: Vec<_> = stage_rows(&rows).collect();
    // Stage groups in registration order: group k's upstream is group k-1
    // (how every runtime here registers linear pipelines and farm stages).
    let mut group_names: Vec<&str> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(replicas.len());
    for &(name, _, _) in &replicas {
        let g = match group_names.iter().position(|n| *n == name) {
            Some(g) => g,
            None => {
                group_names.push(name);
                group_names.len() - 1
            }
        };
        group_of.push(g);
    }
    let n_groups = group_names.len();
    let mut group_in = vec![0u64; n_groups];
    let mut group_out = vec![0u64; n_groups];
    for (i, (_, _, s)) in replicas.iter().enumerate() {
        group_in[group_of[i]] += s.items_in;
        group_out[group_of[i]] += s.items_out;
    }

    while tracked.len() < replicas.len() {
        tracked.push(Tracked {
            last_items_out: 0,
            stalled_ticks: 0,
            reported: false,
        });
    }

    let t_ns = inner.epoch.elapsed().as_nanos() as u64;
    for (i, (name, replica, s)) in replicas.iter().enumerate() {
        let t = &mut tracked[i];
        if s.items_out != t.last_items_out {
            t.last_items_out = s.items_out;
            t.stalled_ticks = 0;
            t.reported = false;
            continue;
        }
        t.stalled_ticks = t.stalled_ticks.saturating_add(1);
        let g = group_of[i];
        // Work pending for the stage: its group consumed fewer items than
        // the upstream group emitted, or this replica's input queue was
        // non-empty when it last looked. The source (group 0) has no
        // upstream — it cannot stall by this definition.
        let upstream_out = if g == 0 { 0 } else { group_out[g - 1] };
        let pending = (g > 0 && group_in[g] < upstream_out) || s.queue_depth > 0;
        if t.stalled_ticks >= stall_ticks && pending && !t.reported {
            t.reported = true;
            let (ticks, queue_depth) = (t.stalled_ticks, s.queue_depth);
            let src = format!("{name}/{replica}");
            let flight = inner.flight_handle(&src);
            flight.emit(
                crate::FlightKind::Stall,
                crate::NO_BATCH,
                ticks as u64,
                queue_depth,
            );
            inner.stalls.lock().unwrap().push(StallEvent {
                t_ns,
                stage: name.to_string(),
                replica: replica.parse().unwrap_or_default(),
                ticks_stalled: ticks,
                items_in: s.items_in,
                items_out: s.items_out,
                upstream_out,
                queue_depth,
            });
            // A stall is the flight recorder's marquee trigger: dump the
            // window while the evidence is still in the ring.
            inner.dump(
                &format!("watchdog stall: {src} ({ticks} ticks, queue={queue_depth})"),
                false,
            );
        }
    }
}
