//! Lock-free bounded flight recorder — the "black box" of a run.
//!
//! A fixed-size multi-producer ring of compact structured events (stage
//! enter/exit, batch formed, copies, kernel launches, the whole recovery
//! ladder, pool sheds, stalls). Emission is wait-free in the common case
//! and allocation-free always; the ring overwrites its oldest entries, so
//! memory is bounded no matter how long the run. When a watchdog stall or
//! a fault storm fires, the recorder dumps the surviving window as JSON —
//! turning "it wedged" into a replayable post-mortem.
//!
//! # Slot protocol (why readers never observe torn events)
//!
//! Every slot is six `AtomicU64` words: a version word plus five payload
//! words. For sequence number `s` (slot `s & mask`, versions strictly
//! increase per slot because each lap adds `capacity`):
//!
//! * **claim** — a writer CASes the version from its *published* (even)
//!   or *empty* (0) value to the odd mark `2s + 1`. The CAS both excludes
//!   other writers and detects lapping: a writer that finds a version
//!   newer than its own drops its event (newest data wins in a black
//!   box); one that finds an odd older version spins briefly until the
//!   straggler publishes.
//! * **fill** — payload words are stored relaxed. They are atomics, so
//!   even a misbehaving interleaving could only yield a *stale* value,
//!   never UB.
//! * **publish** — the version is stored `2s + 2` with `Release`,
//!   ordering the payload stores before it.
//!
//! A reader loads the version with `Acquire`, rejects odd/empty slots,
//! reads the payload, issues an `Acquire` fence and re-reads the version:
//! equal even versions bracket an interval in which no writer touched the
//! payload (versions are strictly monotone per slot, so ABA cannot
//! happen). Torn slots are simply skipped — the recorder is a lossy
//! window by design.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::esc;

/// Default ring capacity (slots). Power of two; ~192 KiB of atomics.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// `batch_id` value meaning "not tied to any batch".
pub const NO_BATCH: u64 = 0;

/// What a [`FlightEvent`] records. The discriminant is packed into the
/// slot's meta word, so variants are explicitly numbered and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FlightKind {
    /// A stage replica began one service invocation (`b` = queue depth 0 — unused).
    StageEnter = 0,
    /// A stage replica finished one service invocation (`a` = service ns).
    StageExit = 1,
    /// The workload driver formed a batch (`a` = unit count).
    BatchFormed = 2,
    /// Host-to-device copy scheduled (`a` = bytes, `b` = modeled ns).
    H2d = 3,
    /// Device-to-host copy scheduled (`a` = bytes, `b` = modeled ns).
    D2h = 4,
    /// Kernel launch accepted by the device (`a` = global threads).
    KernelLaunch = 5,
    /// Kernel scheduled to completion (`a` = global threads, `b` = modeled ns).
    KernelComplete = 6,
    /// A device allocation failed (real or injected OOM).
    DeviceOom = 7,
    /// A kernel launch failed (injected transient fault).
    KernelFault = 8,
    /// A stage emitted a typed error downstream.
    StageError = 9,
    /// The runtime retried a failed operation (`a` = attempt number).
    Retry = 10,
    /// The recovery ladder halved an OOMed range (`a`/`b` = sub-range lo/hi).
    OomHalve = 11,
    /// The runtime degraded a batch to its CPU implementation.
    CpuFallback = 12,
    /// A pool shed a returned buffer because it was full.
    PoolShed = 13,
    /// The watchdog flagged a stalled stage (`a` = ticks stalled, `b` = queue depth).
    Stall = 14,
    /// An ingress source delivered a batch of records into a pipeline
    /// (`a` = record count, `b` = payload bytes). `batch_id` carries the
    /// shard id so replay and lag are traceable per shard.
    IngressBatch = 15,
    /// The task-graph scheduler placed a batch onto a device (`a` =
    /// device index, `b` = predicted cost in modeled ns). `batch_id` is
    /// the causal batch key, so the placement log replays in batch
    /// order regardless of worker interleaving.
    Placement = 16,
}

impl FlightKind {
    /// Stable lowercase label used in the dump JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FlightKind::StageEnter => "stage_enter",
            FlightKind::StageExit => "stage_exit",
            FlightKind::BatchFormed => "batch_formed",
            FlightKind::H2d => "h2d",
            FlightKind::D2h => "d2h",
            FlightKind::KernelLaunch => "kernel_launch",
            FlightKind::KernelComplete => "kernel_complete",
            FlightKind::DeviceOom => "device_oom",
            FlightKind::KernelFault => "kernel_fault",
            FlightKind::StageError => "stage_error",
            FlightKind::Retry => "retry",
            FlightKind::OomHalve => "oom_halve",
            FlightKind::CpuFallback => "cpu_fallback",
            FlightKind::PoolShed => "pool_shed",
            FlightKind::Stall => "stall",
            FlightKind::IngressBatch => "ingress_batch",
            FlightKind::Placement => "placement",
        }
    }

    fn from_u8(v: u8) -> Option<FlightKind> {
        Some(match v {
            0 => FlightKind::StageEnter,
            1 => FlightKind::StageExit,
            2 => FlightKind::BatchFormed,
            3 => FlightKind::H2d,
            4 => FlightKind::D2h,
            5 => FlightKind::KernelLaunch,
            6 => FlightKind::KernelComplete,
            7 => FlightKind::DeviceOom,
            8 => FlightKind::KernelFault,
            9 => FlightKind::StageError,
            10 => FlightKind::Retry,
            11 => FlightKind::OomHalve,
            12 => FlightKind::CpuFallback,
            13 => FlightKind::PoolShed,
            14 => FlightKind::Stall,
            15 => FlightKind::IngressBatch,
            16 => FlightKind::Placement,
            _ => return None,
        })
    }
}

impl fmt::Display for FlightKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global emission sequence number (monotone across all emitters).
    pub seq: u64,
    /// Emission time, wall ns since the recorder epoch.
    pub t_ns: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Source id — an index into the recorder's interned source-label
    /// table ("stage/replica", "gpu0", "pool:dedup.digests", …).
    pub src: u32,
    /// Causal batch key shared by every event of one batch's journey
    /// through the offload ladder ([`NO_BATCH`] when not applicable).
    pub batch_id: u64,
    /// Kind-specific payload (bytes, units, attempt, range lo, …).
    pub a: u64,
    /// Kind-specific payload (modeled ns, range hi, queue depth, …).
    pub b: u64,
}

/// One ring slot: a version word plus five payload words, all atomics —
/// see the module docs for the protocol.
struct Slot {
    version: AtomicU64,
    t_ns: AtomicU64,
    meta: AtomicU64, // kind << 32 | src
    batch: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// The bounded multi-producer flight ring.
pub struct FlightRing {
    epoch: Instant,
    mask: u64,
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

impl fmt::Debug for FlightRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRing")
            .field("capacity", &self.slots.len())
            .field("emitted", &self.emitted())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRing {
    /// A ring with [`DEFAULT_FLIGHT_CAPACITY`] slots.
    pub fn new(epoch: Instant) -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY, epoch)
    }

    /// A ring with `capacity` slots (rounded up to a power of two, min 8).
    pub fn with_capacity(capacity: usize, epoch: Instant) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        FlightRing {
            epoch,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    t_ns: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    batch: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events emitted over the ring's lifetime (≥ what is still visible).
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events abandoned because the emitter was lapped mid-claim (a
    /// newer event already owned the slot). Distinct from ordinary
    /// overwrites, which are the ring working as intended.
    pub fn lap_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Emit one event. Wait-free unless this emitter collides with a
    /// straggling writer a full lap behind on the same slot (it then
    /// spins for the straggler's five stores). Returns the event's seq.
    #[inline]
    pub fn emit(&self, kind: FlightKind, src: u32, batch_id: u64, a: u64, b: u64) -> u64 {
        let t = self.epoch.elapsed().as_nanos() as u64;
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        let claimed = 2 * seq + 1;
        let mut cur = slot.version.load(Ordering::Acquire);
        loop {
            if cur >= claimed {
                // A writer a lap ahead already owns or published this
                // slot: our (older) event loses. Newest data wins.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return seq;
            }
            if cur % 2 == 1 {
                // A straggler from a previous lap is mid-write; wait for
                // its publish store so the slot is never co-owned.
                std::hint::spin_loop();
                cur = slot.version.load(Ordering::Acquire);
                continue;
            }
            match slot.version.compare_exchange_weak(
                cur,
                claimed,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(v) => cur = v,
            }
        }
        slot.t_ns.store(t, Ordering::Relaxed);
        slot.meta
            .store(((kind as u64) << 32) | src as u64, Ordering::Relaxed);
        slot.batch.store(batch_id, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.version.store(claimed + 1, Ordering::Release);
        seq
    }

    /// Decode the currently visible window, oldest first, seq strictly
    /// increasing. Slots a concurrent writer holds (or laps) are skipped,
    /// never returned torn.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for seq in lo..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                continue; // empty, or a writer is mid-fill
            }
            if (v1 - 2) / 2 != seq {
                continue; // slot holds a different lap's event
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let batch_id = slot.batch.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != v1 {
                continue; // overwritten while we read: discard, not tear
            }
            let Some(kind) = FlightKind::from_u8((meta >> 32) as u8) else {
                continue;
            };
            out.push(FlightEvent {
                seq,
                t_ns,
                kind,
                src: meta as u32,
                batch_id,
                a,
                b,
            });
        }
        out
    }
}

/// Cheap cloneable emitter bound to one source label. The zero-cost
/// discipline of [`StageHandle`](crate::StageHandle) applies: a noop
/// handle (disabled recorder) is a single branch and never reads the
/// clock.
#[derive(Debug, Clone, Default)]
pub struct FlightHandle {
    ring: Option<Arc<FlightRing>>,
    src: u32,
}

impl FlightHandle {
    /// A handle that records nothing — what disabled recorders hand out.
    pub const fn noop() -> Self {
        FlightHandle { ring: None, src: 0 }
    }

    pub(crate) fn new(ring: Arc<FlightRing>, src: u32) -> Self {
        FlightHandle {
            ring: Some(ring),
            src,
        }
    }

    /// Emit one event from this handle's source.
    #[inline]
    pub fn emit(&self, kind: FlightKind, batch_id: u64, a: u64, b: u64) {
        if let Some(ring) = &self.ring {
            ring.emit(kind, self.src, batch_id, a, b);
        }
    }
}

/// Render a decoded event window as the dump's JSON document.
///
/// `resolve` maps a source id to its label; unknown ids render as
/// `"src<N>"` so a dump is never unserializable.
pub(crate) fn dump_json(
    reason: &str,
    t_ns: u64,
    ring: &FlightRing,
    events: &[FlightEvent],
    resolve: impl Fn(u32) -> Option<String>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"hetstream.flight.v1\",\n");
    out.push_str(&format!("  \"reason\": \"{}\",\n", esc(reason)));
    out.push_str(&format!("  \"t_ns\": {t_ns},\n"));
    out.push_str(&format!("  \"capacity\": {},\n", ring.capacity()));
    out.push_str(&format!("  \"emitted\": {},\n", ring.emitted()));
    out.push_str(&format!("  \"lap_dropped\": {},\n", ring.lap_dropped()));
    out.push_str("  \"events\": [\n");
    for (i, e) in events.iter().enumerate() {
        let src = resolve(e.src).unwrap_or_else(|| format!("src{}", e.src));
        out.push_str(&format!(
            "    {{\"seq\": {}, \"t_ns\": {}, \"kind\": \"{}\", \"src\": \"{}\", \
             \"batch_id\": {}, \"a\": {}, \"b\": {}}}{}\n",
            e.seq,
            e.t_ns,
            e.kind.label(),
            esc(&src),
            e.batch_id,
            e.a,
            e.b,
            if i + 1 < events.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_decode_in_order() {
        let ring = FlightRing::with_capacity(16, Instant::now());
        for i in 0..10u64 {
            ring.emit(FlightKind::StageEnter, 3, i + 1, i, 2 * i);
        }
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 10);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, FlightKind::StageEnter);
            assert_eq!(e.src, 3);
            assert_eq!(e.batch_id, i as u64 + 1);
            assert_eq!((e.a, e.b), (i as u64, 2 * i as u64));
        }
    }

    #[test]
    fn wraparound_keeps_newest_window() {
        let ring = FlightRing::with_capacity(8, Instant::now());
        for i in 0..100u64 {
            ring.emit(FlightKind::Retry, 0, i, 0, 0);
        }
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 8);
        assert_eq!(evs.first().unwrap().batch_id, 92);
        assert_eq!(evs.last().unwrap().batch_id, 99);
        assert_eq!(ring.emitted(), 100);
    }

    #[test]
    fn noop_handle_is_inert() {
        let h = FlightHandle::noop();
        assert!(h.ring.is_none());
        h.emit(FlightKind::Stall, NO_BATCH, 0, 0);
    }

    #[test]
    fn kind_roundtrip() {
        for v in 0..17u8 {
            let k = FlightKind::from_u8(v).unwrap();
            assert_eq!(k as u8, v);
            assert!(!k.label().is_empty());
        }
        assert_eq!(FlightKind::from_u8(17), None);
    }
}
