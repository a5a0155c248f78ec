//! The simulated device and the virtual system clock.
//!
//! Execution is **functionally eager**: every command runs to completion at
//! enqueue time on the host, so results are available immediately and are
//! bit-identical to what properly synchronized device code would produce.
//! *Timing* is modeled separately: each command is also scheduled on the
//! device's virtual timeline — three engines (compute, H2D copy, D2H copy)
//! with per-stream FIFO ordering — and the system tracks a virtual host
//! clock. Asynchronous commands advance the host clock only by the API-call
//! cost; synchronizing operations advance it to the awaited completion time.
//!
//! The modeled makespan is meaningful for single-host-thread programs (the
//! paper's GPU-only versions, i.e. the whole Fig. 1 ladder). Multi-threaded
//! host programs are timed by the `perfmodel` crate's DES instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use simtime::{SimDuration, SimTime};

use crate::fault::{DeviceFault, FaultInjector, FaultSpec};
use crate::kernel::{KernelFn, LaunchDims};
use crate::mem::{DeviceMemory, DevicePtr, OutOfMemory};
use crate::meter::WorkMeter;
use crate::model::{self, XferDir};
use crate::props::DeviceProps;
use crate::trace::{CommandRecord, TraceEngine};

/// Identifier of a stream on one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// The default stream (stream 0), always present.
    pub const DEFAULT: StreamId = StreamId(0);
}

/// A recorded synchronization point: completion time of everything enqueued
/// on a stream before the record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventStamp {
    pub(crate) device: u32,
    pub(crate) time: SimTime,
}

impl EventStamp {
    /// The modeled completion instant this event represents.
    pub fn time(&self) -> SimTime {
        self.time
    }
}

/// Aggregate per-device counters for reports and tests.
#[derive(Clone, Debug, Default)]
pub struct DeviceStats {
    /// Kernels launched.
    pub kernels: u64,
    /// Bytes copied host→device.
    pub h2d_bytes: u64,
    /// Bytes copied device→host.
    pub d2h_bytes: u64,
    /// Modeled busy time of the compute engine.
    pub compute_busy: SimDuration,
    /// Modeled busy time of the H2D engine.
    pub h2d_busy: SimDuration,
    /// Modeled busy time of the D2H engine.
    pub d2h_busy: SimDuration,
}

impl DeviceStats {
    /// Total modeled busy time across all three engines. Busy time only
    /// ever accumulates, and one worker thread per device serializes its
    /// batches, so differencing this around a batch yields that batch's
    /// modeled cost deterministically — the cost-model scheduler's
    /// measurement primitive.
    pub fn total_busy(&self) -> SimDuration {
        self.compute_busy + self.h2d_busy + self.d2h_busy
    }
}

#[derive(Clone, Copy)]
enum Engine {
    Compute,
    Copy(XferDir),
}

struct DevState {
    mem: DeviceMemory,
    compute_free: SimTime,
    h2d_free: SimTime,
    d2h_free: SimTime,
    streams: Vec<SimTime>, // last_end per stream
    stats: DeviceStats,
    trace: Option<Vec<CommandRecord>>,
    injector: Option<FaultInjector>,
    /// Live flight-recorder emitter (noop until attached): every copy
    /// and kernel drops a compact event so the run's black box shows
    /// device activity interleaved with the CPU stages and the ladder.
    flight: telemetry::FlightHandle,
    /// Reusable work meter: reset per launch so launching allocates
    /// nothing once the per-warp buffer has grown to the launch width.
    meter: WorkMeter,
}

impl DevState {
    fn schedule(
        &mut self,
        engine: Engine,
        name: &'static str,
        stream: StreamId,
        earliest: SimTime,
        dur: SimDuration,
    ) -> SimTime {
        let engine_free = match engine {
            Engine::Compute => &mut self.compute_free,
            Engine::Copy(XferDir::H2D) => &mut self.h2d_free,
            Engine::Copy(XferDir::D2H) => &mut self.d2h_free,
        };
        let stream_last = self.streams[stream.0];
        let start = earliest.max(*engine_free).max(stream_last);
        let end = start + dur;
        *engine_free = end;
        self.streams[stream.0] = end;
        match engine {
            Engine::Compute => self.stats.compute_busy += dur,
            Engine::Copy(XferDir::H2D) => self.stats.h2d_busy += dur,
            Engine::Copy(XferDir::D2H) => self.stats.d2h_busy += dur,
        }
        if let Some(trace) = &mut self.trace {
            trace.push(CommandRecord {
                engine: match engine {
                    Engine::Compute => TraceEngine::Compute,
                    Engine::Copy(XferDir::H2D) => TraceEngine::H2D,
                    Engine::Copy(XferDir::D2H) => TraceEngine::D2H,
                },
                name,
                stream: stream.0,
                start,
                end,
            });
        }
        end
    }
}

/// One simulated GPU.
pub struct Device {
    id: u32,
    props: DeviceProps,
    state: Mutex<DevState>,
}

impl Device {
    fn new(id: u32, props: DeviceProps) -> Self {
        let mem = DeviceMemory::new(id, props.global_mem);
        Device {
            id,
            props: props.clone(),
            state: Mutex::new(DevState {
                mem,
                compute_free: SimTime::ZERO,
                h2d_free: SimTime::ZERO,
                d2h_free: SimTime::ZERO,
                streams: vec![SimTime::ZERO], // default stream
                stats: DeviceStats::default(),
                trace: None,
                injector: None,
                flight: telemetry::FlightHandle::noop(),
                meter: WorkMeter::new(0, props.warp_size),
            }),
        }
    }

    /// Hardware properties.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    fn lock(&self) -> MutexGuard<'_, DevState> {
        // A panicking kernel must not brick the device: recover the guard
        // so later operations (and the CPU-fallback paths) keep working.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Arm (or, with [`FaultSpec::none`], disarm) fault injection on this
    /// device; [`GpuSystem::inject_faults`] calls it for each device.
    fn inject_faults(&self, spec: &FaultSpec) {
        self.lock().injector = Some(FaultInjector::new(spec, self.id));
    }

    /// Allocate a zero-initialized device buffer.
    pub fn alloc<T: Default + Clone + Send + 'static>(
        &self,
        len: usize,
    ) -> Result<DevicePtr<T>, OutOfMemory> {
        let mut st = self.lock();
        if st.injector.as_mut().is_some_and(|i| i.inject_oom()) {
            return Err(OutOfMemory {
                requested: (len * std::mem::size_of::<T>()) as u64,
                available: st.mem.available(),
            });
        }
        st.mem.alloc(len)
    }

    /// Free a device buffer.
    pub fn free<T: 'static>(&self, ptr: DevicePtr<T>) {
        self.lock().mem.free(ptr)
    }

    /// Create a new stream; returns its id.
    pub fn create_stream(&self) -> StreamId {
        let mut st = self.lock();
        st.streams.push(SimTime::ZERO);
        StreamId(st.streams.len() - 1)
    }

    /// Gauges of this device's allocation cache, for
    /// `telemetry::Recorder::register`.
    pub fn cache_counters(&self) -> std::sync::Arc<telemetry::Counters<telemetry::Pool>> {
        self.lock().mem.cache_counters()
    }

    /// Attach a live flight-recorder emitter (usually
    /// `Recorder::flight_handle("gpuN")`, one per device): copies and
    /// kernel launches then drop compact events into the shared ring as
    /// they are enqueued. Pass [`telemetry::FlightHandle::noop`] to
    /// detach.
    pub fn attach_flight(&self, handle: telemetry::FlightHandle) {
        self.lock().flight = handle;
    }

    /// Enqueue a kernel: executes functionally now, schedules on the
    /// compute engine, returns the modeled completion time.
    ///
    /// # Panics
    /// Panics if fault injection fails the launch; use
    /// [`try_launch`](Self::try_launch) on paths that recover.
    pub fn launch(
        &self,
        stream: StreamId,
        dims: LaunchDims,
        kernel: &dyn KernelFn,
        enqueue_at: SimTime,
    ) -> SimTime {
        match self.try_launch(stream, dims, kernel, enqueue_at) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`launch`](Self::launch): an injected kernel fault is
    /// reported instead of panicking. A failed launch leaves device memory
    /// untouched (the kernel never ran) and schedules nothing, so retrying
    /// the same launch is always safe.
    pub fn try_launch(
        &self,
        stream: StreamId,
        dims: LaunchDims,
        kernel: &dyn KernelFn,
        enqueue_at: SimTime,
    ) -> Result<SimTime, DeviceFault> {
        let mut st = self.lock();
        let slow = match st.injector.as_mut() {
            Some(inj) => {
                if inj.inject_kernel_fault() {
                    return Err(DeviceFault {
                        device: self.id,
                        kernel: kernel.name(),
                        injected: true,
                    });
                }
                inj.slow_factor()
            }
            None => 1.0,
        };
        let st = &mut *st;
        st.flight.emit(
            telemetry::FlightKind::KernelLaunch,
            telemetry::NO_BATCH,
            dims.total_threads(),
            stream.0 as u64,
        );
        st.meter.reset(dims.total_threads(), self.props.warp_size);
        kernel.run(&dims, &st.mem, &mut st.meter);
        let mut dur = model::kernel_duration(&self.props, &dims, kernel, &st.meter);
        if slow > 1.0 {
            // Busy/slow-device episode: same result, stretched timeline.
            dur = SimDuration::from_secs_f64(dur.as_secs_f64() * slow);
        }
        st.stats.kernels += 1;
        let end = st.schedule(Engine::Compute, kernel.name(), stream, enqueue_at, dur);
        st.flight.emit(
            telemetry::FlightKind::KernelComplete,
            telemetry::NO_BATCH,
            dims.total_threads(),
            dur.as_nanos(),
        );
        Ok(end)
    }

    /// Enqueue a host→device copy; data lands immediately (eager), timing
    /// is scheduled on the H2D engine.
    pub fn copy_h2d<T: Clone + Send + 'static>(
        &self,
        stream: StreamId,
        src: &[T],
        dst: DevicePtr<T>,
        dst_offset: usize,
        pinned: bool,
        enqueue_at: SimTime,
    ) -> SimTime {
        let bytes = std::mem::size_of_val(src) as u64;
        let mut st = self.lock();
        st.mem.write(dst, dst_offset, src);
        st.stats.h2d_bytes += bytes;
        let dur = model::transfer_duration(&self.props, bytes, pinned);
        st.flight.emit(
            telemetry::FlightKind::H2d,
            telemetry::NO_BATCH,
            bytes,
            dur.as_nanos(),
        );
        st.schedule(Engine::Copy(XferDir::H2D), "h2d", stream, enqueue_at, dur)
    }

    /// Enqueue a device→host copy.
    pub fn copy_d2h<T: Clone + Send + 'static>(
        &self,
        stream: StreamId,
        src: DevicePtr<T>,
        src_offset: usize,
        dst: &mut [T],
        pinned: bool,
        enqueue_at: SimTime,
    ) -> SimTime {
        let bytes = std::mem::size_of_val(dst) as u64;
        let mut st = self.lock();
        st.mem.read(src, src_offset, dst);
        st.stats.d2h_bytes += bytes;
        let dur = model::transfer_duration(&self.props, bytes, pinned);
        st.flight.emit(
            telemetry::FlightKind::D2h,
            telemetry::NO_BATCH,
            bytes,
            dur.as_nanos(),
        );
        st.schedule(Engine::Copy(XferDir::D2H), "d2h", stream, enqueue_at, dur)
    }

    /// Completion time of everything enqueued so far on `stream`.
    pub fn stream_last_end(&self, stream: StreamId) -> SimTime {
        self.lock().streams[stream.0]
    }

    /// Record an event on `stream`.
    pub fn record_event(&self, stream: StreamId) -> EventStamp {
        EventStamp {
            device: self.id,
            time: self.stream_last_end(stream),
        }
    }

    /// Make `stream` wait for `event` (cross-stream / cross-device dep).
    pub fn stream_wait_event(&self, stream: StreamId, event: EventStamp) {
        let mut st = self.lock();
        let cur = st.streams[stream.0];
        st.streams[stream.0] = cur.max(event.time);
    }

    /// Completion time of everything enqueued on any stream.
    pub fn device_last_end(&self) -> SimTime {
        let st = self.lock();
        st.streams.iter().copied().fold(SimTime::ZERO, SimTime::max)
    }

    /// Snapshot the stats.
    pub fn stats(&self) -> DeviceStats {
        self.lock().stats.clone()
    }

    /// Start recording a command trace (see [`crate::trace`]).
    pub fn enable_trace(&self) {
        self.lock().trace = Some(Vec::new());
    }

    /// Take the recorded trace (empties it; tracing stays enabled).
    pub fn take_trace(&self) -> Vec<CommandRecord> {
        self.lock()
            .trace
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Reset the virtual timeline and stats (memory contents are kept).
    pub fn reset_timeline(&self) {
        let mut st = self.lock();
        st.compute_free = SimTime::ZERO;
        st.h2d_free = SimTime::ZERO;
        st.d2h_free = SimTime::ZERO;
        for s in &mut st.streams {
            *s = SimTime::ZERO;
        }
        st.stats = DeviceStats::default();
        if let Some(trace) = &mut st.trace {
            trace.clear();
        }
    }
}

/// A host plus a set of devices sharing one virtual clock. The devices
/// are identical when built with [`GpuSystem::new`] and may differ per
/// slot when built with [`GpuSystem::new_mixed`].
pub struct GpuSystem {
    devices: Vec<Arc<Device>>,
    host_now: AtomicU64, // ns; atomic max-advance
}

impl GpuSystem {
    /// Build a system of `n_devices` copies of `props`.
    ///
    /// # Panics
    /// Panics if `n_devices == 0`.
    pub fn new(n_devices: usize, props: DeviceProps) -> Arc<Self> {
        assert!(n_devices > 0, "need at least one device");
        Self::new_mixed((0..n_devices).map(|_| props.clone()).collect())
    }

    /// Build a heterogeneous system: one property sheet per device slot,
    /// in device-index order. This is what an N-device scheduler runs
    /// against — a fleet where the cost of the same batch genuinely
    /// differs by device, so placement quality is observable in the
    /// modeled makespan.
    ///
    /// # Panics
    /// Panics if `props` is empty.
    pub fn new_mixed(props: Vec<DeviceProps>) -> Arc<Self> {
        assert!(!props.is_empty(), "need at least one device");
        Arc::new(GpuSystem {
            devices: props
                .into_iter()
                .enumerate()
                .map(|(i, p)| Arc::new(Device::new(i as u32, p)))
                .collect(),
            host_now: AtomicU64::new(0),
        })
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Access device `i`.
    pub fn device(&self, i: usize) -> &Arc<Device> {
        &self.devices[i]
    }

    /// Current virtual host time.
    pub fn host_now(&self) -> SimTime {
        SimTime::from_nanos(self.host_now.load(Ordering::Acquire))
    }

    /// Model host-side CPU work of the given duration.
    pub fn host_compute(&self, d: SimDuration) -> SimTime {
        SimTime::from_nanos(self.host_now.fetch_add(d.as_nanos(), Ordering::AcqRel) + d.as_nanos())
    }

    /// Advance the host clock to at least `t` (a blocking wait on the
    /// device); returns the new host time.
    pub fn host_wait_until(&self, t: SimTime) -> SimTime {
        let target = t.as_nanos();
        let mut cur = self.host_now.load(Ordering::Acquire);
        while cur < target {
            match self.host_now.compare_exchange_weak(
                cur,
                target,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return t,
                Err(c) => cur = c,
            }
        }
        SimTime::from_nanos(cur)
    }

    /// Arm deterministic fault injection on every device: each gets its
    /// own decision stream seeded with `spec.seed ^ device_id`. Passing
    /// [`FaultSpec::none`] disarms. Only the system this is called on is
    /// affected — a fault-free reference system stays fault-free.
    pub fn inject_faults(&self, spec: &FaultSpec) {
        for d in &self.devices {
            d.inject_faults(spec);
        }
    }

    /// Reset the host clock and every device timeline (for back-to-back
    /// benchmark configurations).
    pub fn reset_clock(&self) {
        self.host_now.store(0, Ordering::Release);
        for d in &self.devices {
            d.reset_timeline();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Busy {
        units: u64,
    }
    impl KernelFn for Busy {
        fn name(&self) -> &'static str {
            "busy"
        }
        fn run(&self, dims: &LaunchDims, _mem: &DeviceMemory, meter: &mut WorkMeter) {
            meter.record_fill(dims.lanes(), self.units);
        }
    }

    fn system() -> Arc<GpuSystem> {
        GpuSystem::new(1, DeviceProps::test_tiny())
    }

    #[test]
    fn same_stream_commands_serialize() {
        let sys = system();
        let dev = sys.device(0);
        let dims = LaunchDims::linear(1, 32);
        let k = Busy { units: 1000 };
        let e1 = dev.launch(StreamId::DEFAULT, dims, &k, SimTime::ZERO);
        let e2 = dev.launch(StreamId::DEFAULT, dims, &k, SimTime::ZERO);
        assert!(e2 > e1);
        assert!(e2.since(e1) >= e1.since(SimTime::ZERO) - SimDuration::from_nanos(1));
    }

    #[test]
    fn different_streams_overlap_copy_and_compute() {
        let sys = system();
        let dev = sys.device(0);
        let s1 = StreamId::DEFAULT;
        let s2 = dev.create_stream();
        let buf = dev.alloc::<u8>(1 << 20).unwrap();
        let host = vec![0u8; 1 << 20];
        let k = Busy { units: 2_000_000 };
        let dims = LaunchDims::linear(2, 64);
        // kernel on s1 and a big H2D on s2 start together: different engines.
        let kend = dev.launch(s1, dims, &k, SimTime::ZERO);
        let cend = dev.copy_h2d(s2, &host, buf, 0, true, SimTime::ZERO);
        let makespan = dev.device_last_end();
        let serial = kend.since(SimTime::ZERO) + cend.since(SimTime::ZERO);
        assert!(
            makespan.since(SimTime::ZERO) < serial,
            "engines must overlap: makespan={makespan:?} serial={serial:?}"
        );
    }

    #[test]
    fn two_kernels_on_different_streams_share_one_compute_engine() {
        let sys = system();
        let dev = sys.device(0);
        let s2 = dev.create_stream();
        let k = Busy { units: 1_000_000 };
        let dims = LaunchDims::linear(1, 32);
        let e1 = dev.launch(StreamId::DEFAULT, dims, &k, SimTime::ZERO);
        let e2 = dev.launch(s2, dims, &k, SimTime::ZERO);
        // Compute engine is serial: second kernel starts after the first.
        assert!(e2 >= e1 + e1.since(SimTime::from_nanos(20_000)));
    }

    #[test]
    fn functional_copies_are_eager() {
        let sys = system();
        let dev = sys.device(0);
        let buf = dev.alloc::<u32>(4).unwrap();
        dev.copy_h2d(
            StreamId::DEFAULT,
            &[1, 2, 3, 4],
            buf,
            0,
            false,
            SimTime::ZERO,
        );
        let mut out = [0u32; 4];
        dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut out, false, SimTime::ZERO);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn events_order_cross_stream_work() {
        let sys = system();
        let dev = sys.device(0);
        let s2 = dev.create_stream();
        let k = Busy { units: 500_000 };
        let dims = LaunchDims::linear(1, 32);
        let e1 = dev.launch(StreamId::DEFAULT, dims, &k, SimTime::ZERO);
        let ev = dev.record_event(StreamId::DEFAULT);
        assert_eq!(ev.time(), e1);
        dev.stream_wait_event(s2, ev);
        let e2 = dev.launch(s2, dims, &k, SimTime::ZERO);
        assert!(e2 > e1);
    }

    #[test]
    fn host_clock_advances_monotonically() {
        let sys = system();
        let t1 = sys.host_compute(SimDuration::from_micros(5));
        let t2 = sys.host_wait_until(SimTime::from_nanos(1)); // behind: no-op
        assert!(t2 >= t1);
        let t3 = sys.host_wait_until(SimTime::from_nanos(10_000_000));
        assert_eq!(t3.as_nanos(), 10_000_000);
    }

    #[test]
    fn reset_clears_timeline_but_not_memory() {
        let sys = system();
        let dev = sys.device(0);
        let buf = dev.alloc::<u32>(2).unwrap();
        dev.copy_h2d(StreamId::DEFAULT, &[7, 8], buf, 0, true, SimTime::ZERO);
        sys.reset_clock();
        assert_eq!(dev.stats().h2d_bytes, 0);
        assert_eq!(dev.device_last_end(), SimTime::ZERO);
        let mut out = [0u32; 2];
        dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut out, true, SimTime::ZERO);
        assert_eq!(out, [7, 8]);
    }

    #[test]
    fn injected_faults_are_transient_and_leave_memory_intact() {
        let sys = system();
        sys.inject_faults(&crate::fault::FaultSpec::demo(42));
        let dev = sys.device(0);
        // Demo spec: first 2 allocs fail, then the device heals.
        assert!(dev.alloc::<u8>(16).is_err());
        assert!(dev.alloc::<u8>(16).is_err());
        let buf = dev.alloc::<u32>(4).expect("healed after max injections");
        dev.copy_h2d(
            StreamId::DEFAULT,
            &[9, 9, 9, 9],
            buf,
            0,
            true,
            SimTime::ZERO,
        );
        // First 3 launches fail without running the kernel...
        let k = Busy { units: 10 };
        let dims = LaunchDims::linear(1, 32);
        for _ in 0..3 {
            assert!(dev
                .try_launch(StreamId::DEFAULT, dims, &k, SimTime::ZERO)
                .is_err());
        }
        assert_eq!(dev.stats().kernels, 0, "failed launches must not count");
        // ...then a retry succeeds and memory is unchanged.
        assert!(dev
            .try_launch(StreamId::DEFAULT, dims, &k, SimTime::ZERO)
            .is_ok());
        let mut out = [0u32; 4];
        dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut out, true, SimTime::ZERO);
        assert_eq!(out, [9, 9, 9, 9]);
    }

    #[test]
    fn disarmed_system_never_faults() {
        let sys = system();
        sys.inject_faults(&crate::fault::FaultSpec::none(1));
        let dev = sys.device(0);
        let k = Busy { units: 10 };
        for _ in 0..50 {
            assert!(dev.alloc::<u8>(1).is_ok());
            assert!(dev
                .try_launch(
                    StreamId::DEFAULT,
                    LaunchDims::linear(1, 32),
                    &k,
                    SimTime::ZERO
                )
                .is_ok());
        }
    }

    #[test]
    fn stats_accumulate() {
        let sys = system();
        let dev = sys.device(0);
        let buf = dev.alloc::<u8>(100).unwrap();
        dev.copy_h2d(StreamId::DEFAULT, &[0u8; 100], buf, 0, true, SimTime::ZERO);
        let k = Busy { units: 10 };
        dev.launch(
            StreamId::DEFAULT,
            LaunchDims::linear(1, 32),
            &k,
            SimTime::ZERO,
        );
        let st = dev.stats();
        assert_eq!(st.h2d_bytes, 100);
        assert_eq!(st.kernels, 1);
        assert!(st.compute_busy > SimDuration::ZERO);
    }
}
