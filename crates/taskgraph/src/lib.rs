//! Cost-model task-graph scheduling over N simulated devices.
//!
//! The paper hand-picks batch size, memory-space count and a fixed
//! round-robin over exactly two GPUs; the Workload SDK inherited those
//! choices. This crate closes the loop instead, in the style of
//! Heteroflow's dependency-driven CPU-GPU task graphs:
//!
//! * [`CostModelScheduler`] — a [`workload::Placement`] policy that
//!   places every ready batch onto one of **N** devices using a learned
//!   per-device cost model (EWMA of the batch's modeled kernel+transfer
//!   busy time per work unit), device residency (prefer the device
//!   already holding the batch's lane state) and queue pressure (the
//!   scheduler's own deterministic backlog accounting).
//! * [`AutoTuner`] — an online feedback controller that adjusts batch
//!   size and memory-space count from live throughput/p99 telemetry,
//!   rediscovering the paper's hand-picked fig1 operating point without
//!   being told it.
//!
//! # Why the placement log is deterministic
//!
//! Three rules make the decision sequence a pure function of the stream,
//! independent of thread timing:
//!
//! 1. **Serial decisions.** Causal batch ids are drawn serially at feed
//!    time and [`Placement::place`] runs serially on the same feeder
//!    thread, in batch-id order ([`WorkloadDriver::run_placed`]'s
//!    contract: the stage upstream of the farm routes its own outputs).
//! 2. **Deterministic cost samples.** A batch's measured cost is the
//!    *delta of the device's modeled busy time* around the batch. Busy
//!    time is additive and independent of wall-clock interleaving, and
//!    one worker owns each device, so the delta is exactly the batch's
//!    own modeled kernel+transfer time — every run measures the same
//!    number.
//! 3. **Windowed application.** Observations arrive in worker-completion
//!    order, which is *not* deterministic — so the scheduler folds them
//!    into the model strictly in batch-id order, and only up to a
//!    lookahead window behind the batch being decided. The decision for
//!    batch *i* waits (blocks the feeder) until every observation for
//!    ids `<= i - lookahead` is applied and never reads anything newer.
//!
//! The routed farm delivers each item before routing the next (burst 1),
//! so any lookahead ≥ 1 is deadlock-free; [`SchedConfig::for_devices`]
//! defaults to a window deep enough to keep N devices busy.
//!
//! [`Placement::place`]: workload::Placement::place
//! [`WorkloadDriver::run_placed`]: workload::WorkloadDriver::run_placed
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use gpusim::GpuSystem;
use telemetry::{Counters, Recorder, Sched};
use workload::{Decision, Placement};

mod tune;
pub use tune::{AutoTuner, EpochMeasure, TuneOutcome, TuneStep};

/// Tuning knobs of the [`CostModelScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// How many batches a decision may run ahead of the applied
    /// observations. Smaller = fresher model, larger = more pipeline
    /// slack (at most `lookahead` batches are in flight, so it should
    /// comfortably exceed the device count). Must be ≥ 1.
    pub lookahead: u64,
    /// EWMA smoothing factor for per-unit cost samples, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Cost added to every non-resident device while a key has lane
    /// state somewhere — the price of moving the key, modeled ns.
    pub migration_penalty_ns: u64,
    /// Optimistic per-batch cost assumed for a device with no samples
    /// yet. Must be nonzero: each blind placement adds it to the chosen
    /// device's backlog, so warm-up placements rotate across the
    /// unexplored devices instead of herding onto device 0 until its
    /// first observation lands.
    pub seed_cost_ns: u64,
}

impl SchedConfig {
    /// Defaults for an `n`-device fleet.
    pub fn for_devices(n: usize) -> Self {
        SchedConfig {
            lookahead: (4 * n as u64).max(16),
            ewma_alpha: 0.25,
            migration_penalty_ns: 20_000,
            seed_cost_ns: 1,
        }
    }
}

/// Learned state of one device.
struct DevState {
    /// EWMA modeled cost per work unit, ns.
    ewma_unit_ns: f64,
    /// Cost samples folded in so far.
    samples: u64,
    /// Predicted modeled ns of placed-but-unapplied batches (queue
    /// pressure as the scheduler accounts it).
    backlog_ns: f64,
    last_busy_ns: u64,
    /// Total measured modeled busy ns attributed to this device.
    busy_ns: u64,
}

struct PlacedRec {
    device: usize,
    predicted_ns: f64,
    units: u64,
}

struct SchedState {
    devs: Vec<DevState>,
    residency: HashMap<u64, usize>,
    placed: HashMap<u64, PlacedRec>,
    /// Observations not yet folded into the model, keyed by batch id.
    pending: BTreeMap<u64, u64>, // batch_id -> measured cost ns
    /// First batch id this scheduler placed (`None` until the first
    /// decision); applications advance from here.
    first_id: Option<u64>,
    /// Next batch id whose observation must be applied.
    next_apply: u64,
}

/// The N-device placement policy: measured cost × residency × pressure.
///
/// Implements [`workload::Placement`]; hand an `Arc` of it to
/// [`workload::WorkloadDriver::run_placed`] with one farm replica per
/// device. Scoring, per candidate device `d`:
///
/// ```text
/// score(d) = backlog_ns(d)                  // queue pressure
///          + predicted_ns(d, units)         // EWMA unit cost × units
///          + migration_penalty (d not holding the key's lane state)
/// ```
///
/// Lowest score wins, ties break to the lowest device index.
pub struct CostModelScheduler {
    system: Arc<GpuSystem>,
    cfg: SchedConfig,
    counters: Arc<Counters<Sched>>,
    state: Mutex<SchedState>,
    obs_ready: Condvar,
}

impl CostModelScheduler {
    /// A scheduler over every device of `system`, registered with `rec`
    /// under `name` so its decision counters are scrape-visible.
    pub fn new(system: &Arc<GpuSystem>, cfg: SchedConfig, rec: &Recorder, name: &str) -> Arc<Self> {
        let n = system.device_count();
        let counters = Arc::new(Counters::new());
        rec.register(&[name], &counters);
        let devs = (0..n)
            .map(|d| {
                // Baseline busy so deltas attribute only what this
                // scheduler's batches add, even on a used system.
                let busy = system.device(d).stats().total_busy().as_nanos();
                DevState {
                    ewma_unit_ns: 0.0,
                    samples: 0,
                    backlog_ns: 0.0,
                    last_busy_ns: busy,
                    busy_ns: 0,
                }
            })
            .collect();
        Arc::new(CostModelScheduler {
            system: Arc::clone(system),
            cfg,
            counters,
            state: Mutex::new(SchedState {
                devs,
                residency: HashMap::new(),
                placed: HashMap::new(),
                pending: BTreeMap::new(),
                first_id: None,
                next_apply: 0,
            }),
            obs_ready: Condvar::new(),
        })
    }

    /// The decision counters this scheduler bumps (shared with the
    /// recorder it registered under).
    pub fn counters(&self) -> &Arc<Counters<Sched>> {
        &self.counters
    }

    /// Deterministic balance metric of a finished run: the largest total
    /// measured busy time any one device carries, ns. Under perfect
    /// engine overlap this is the modeled makespan a placement achieves;
    /// unlike the device timeline it is independent of host-thread
    /// interleaving, so benches gate on it reproducibly.
    pub fn max_device_busy_ns(&self) -> u64 {
        let st = self.state.lock().expect("sched state");
        st.devs.iter().map(|d| d.busy_ns).max().unwrap_or(0)
    }

    /// Fold one observation into the model (caller holds the lock).
    fn apply_obs(st: &mut SchedState, alpha: f64, batch_id: u64, cost_ns: u64) {
        let Some(rec) = st.placed.remove(&batch_id) else {
            return;
        };
        let dev = &mut st.devs[rec.device];
        dev.backlog_ns = (dev.backlog_ns - rec.predicted_ns).max(0.0);
        dev.busy_ns += cost_ns;
        let unit = cost_ns as f64 / rec.units.max(1) as f64;
        dev.ewma_unit_ns = if dev.samples == 0 {
            unit
        } else {
            alpha * unit + (1.0 - alpha) * dev.ewma_unit_ns
        };
        dev.samples += 1;
    }
}

impl Placement for CostModelScheduler {
    fn place(&self, batch_id: u64, key: u64, units: u64) -> Decision {
        let mut st = self.state.lock().expect("sched state");
        if st.first_id.is_none() {
            st.first_id = Some(batch_id);
            st.next_apply = batch_id;
        }
        // Apply observations strictly in batch-id order, up to the
        // lookahead horizon — and no further, so the model state a
        // decision sees is a pure function of the batch id.
        let horizon = batch_id.saturating_sub(self.cfg.lookahead);
        while st.next_apply <= horizon {
            let id = st.next_apply;
            if let Some(cost_ns) = st.pending.remove(&id) {
                Self::apply_obs(&mut st, self.cfg.ewma_alpha, id, cost_ns);
                st.next_apply += 1;
            } else if st.placed.contains_key(&id) {
                // Placed but not yet observed: its worker is still on it.
                st = self.obs_ready.wait(st).expect("sched state");
            } else {
                // Never placed by this scheduler (id gap in the stream):
                // decisions arrive in batch-id order, so it never will be.
                st.next_apply += 1;
            }
        }
        // Overhead timing starts here: time blocked in the window above
        // is pipeline backpressure (waiting for devices to finish real
        // work), not scheduling cost — the overhead counter answers "what
        // does choosing a device cost per batch", and that is the scoring
        // and bookkeeping below.
        let t0 = Instant::now();
        // Score every device.
        let resident = st.residency.get(&key).copied();
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (d, dev) in st.devs.iter().enumerate() {
            let predicted = if dev.samples == 0 {
                self.cfg.seed_cost_ns as f64
            } else {
                dev.ewma_unit_ns * units as f64
            };
            let migration = match resident {
                Some(r) if r != d => self.cfg.migration_penalty_ns as f64,
                _ => 0.0,
            };
            let score = dev.backlog_ns + predicted + migration;
            if score < best_score {
                best_score = score;
                best = d;
            }
        }
        let predicted = if st.devs[best].samples == 0 {
            self.cfg.seed_cost_ns as f64
        } else {
            st.devs[best].ewma_unit_ns * units as f64
        };
        st.devs[best].backlog_ns += predicted;
        st.placed.insert(
            batch_id,
            PlacedRec {
                device: best,
                predicted_ns: predicted,
                units,
            },
        );
        match resident {
            Some(r) if r == best => self.counters.residency_hit(),
            Some(_) => self.counters.migration(),
            None => {}
        }
        st.residency.insert(key, best);
        drop(st);
        self.counters.decision(t0.elapsed().as_nanos() as u64);
        Decision {
            device: best,
            predicted_ns: predicted as u64,
        }
    }

    fn observe(&self, batch_id: u64, device: usize) {
        // Measure the batch's modeled cost as the device's busy-time
        // delta. One worker per device serializes its batches, and busy
        // time is additive and timing-independent, so this is exact and
        // deterministic (rule 2 of the module docs).
        let busy = self.system.device(device).stats().total_busy().as_nanos();
        let mut st = self.state.lock().expect("sched state");
        let cost = busy.saturating_sub(st.devs[device].last_busy_ns);
        st.devs[device].last_busy_ns = busy;
        st.pending.insert(batch_id, cost);
        // `place` (one caller, the router) only ever waits for
        // `next_apply`'s observation, and only `place` moves
        // `next_apply`: any other observation would wake it for nothing.
        let unblocks = batch_id == st.next_apply;
        drop(st);
        if unblocks {
            self.obs_ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceProps;

    fn sched(n: usize) -> (Arc<GpuSystem>, Arc<CostModelScheduler>) {
        let sys = GpuSystem::new(n, DeviceProps::test_tiny());
        let s = CostModelScheduler::new(
            &sys,
            SchedConfig {
                lookahead: 4,
                ..SchedConfig::for_devices(n)
            },
            &Recorder::default(),
            "test",
        );
        (sys, s)
    }

    /// Drive the scheduler synchronously: place then observe each batch,
    /// charging `cost_by_dev[d]` modeled ns to the chosen device.
    fn drive(
        s: &Arc<CostModelScheduler>,
        sys: &Arc<GpuSystem>,
        n_batches: u64,
        key_of: impl Fn(u64) -> u64,
        cost_by_dev: &[u64],
    ) -> Vec<usize> {
        let mut placements = Vec::new();
        for i in 1..=n_batches {
            let d = s.place(i, key_of(i), 8).device;
            placements.push(d);
            // Charge the device's modeled busy time via a real kernel
            // proxy: we bypass the device and inject the cost by
            // advancing last_busy through observe's delta math.
            let dev = sys.device(d);
            let host: Vec<u8> = vec![0; cost_by_dev[d] as usize];
            let buf = dev.alloc::<u8>(host.len()).expect("alloc");
            dev.copy_h2d(
                gpusim::StreamId::DEFAULT,
                &host,
                buf,
                0,
                true,
                simtime::SimTime::ZERO,
            );
            dev.free(buf);
            s.observe(i, d);
        }
        placements
    }

    #[test]
    fn explores_every_device_then_balances() {
        let (sys, s) = sched(3);
        // Equal cost per device: placement must spread the load.
        let placements = drive(&s, &sys, 60, |i| i, &[1_000_000, 1_000_000, 1_000_000]);
        for d in 0..3 {
            let n = placements.iter().filter(|&&p| p == d).count();
            assert!(
                n >= 10,
                "device {d} got only {n}/60 batches: {placements:?}"
            );
        }
    }

    #[test]
    fn skews_load_away_from_a_slow_device() {
        let (sys, s) = sched(2);
        // Device 1 pays 4x the transfer bytes per batch -> ~4x the cost.
        let placements = drive(&s, &sys, 100, |i| i, &[500_000, 2_000_000]);
        let slow = placements.iter().filter(|&&p| p == 1).count();
        let fast = placements.iter().filter(|&&p| p == 0).count();
        assert!(
            fast > 2 * slow,
            "fast device must carry most of the load: fast={fast} slow={slow}"
        );
        assert!(slow >= 1, "slow device still explored");
    }

    #[test]
    fn residency_keeps_a_key_on_its_device() {
        let (sys, s) = sched(2);
        // Two keys, equal costs: each key should stick to one device.
        let placements = drive(&s, &sys, 40, |i| i % 2, &[200_000, 200_000]);
        let k0: Vec<usize> = placements.iter().copied().step_by(2).collect();
        let k1: Vec<usize> = placements.iter().copied().skip(1).step_by(2).collect();
        // After warmup, each key's placements are constant.
        assert!(k0[4..].windows(2).all(|w| w[0] == w[1]), "{k0:?}");
        assert!(k1[4..].windows(2).all(|w| w[0] == w[1]), "{k1:?}");
        let snap = s.counters().snapshot();
        assert!(snap.residency_hits > 30, "{snap:?}");
        assert_eq!(snap.decisions, 40);
    }

    #[test]
    fn decision_sequence_is_reproducible() {
        let a = {
            let (sys, s) = sched(3);
            drive(&s, &sys, 80, |i| i % 5, &[300_000, 600_000, 900_000])
        };
        let b = {
            let (sys, s) = sched(3);
            drive(&s, &sys, 80, |i| i % 5, &[300_000, 600_000, 900_000])
        };
        assert_eq!(a, b, "same stream must produce the same placement log");
    }

    #[test]
    fn place_waits_out_reverse_order_observations_until_next_apply_lands() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;

        // Lookahead 8; batches 3 and 7–9 go to another scheduler. Placing
        // batch 10 needs batches 1 and 2 observed. Batch 1 is, so
        // `place(10)` applies it and waits for batch 2 without letting go
        // of the lock in between: `next_apply == 2` seen under the lock
        // means the placer is waiting. Batches 6, 5 and 4 then land, in
        // reverse id order, and none may release it; batch 2's
        // observation must.
        let sys = GpuSystem::new(2, DeviceProps::test_tiny());
        let cfg = SchedConfig {
            lookahead: 8,
            ..SchedConfig::for_devices(2)
        };
        let s = CostModelScheduler::new(&sys, cfg, &Recorder::default(), "test");
        let mut device = [0usize; 7];
        for id in [1u64, 2, 4, 5, 6] {
            device[id as usize] = s.place(id, id, 8).device;
        }
        s.observe(1, device[1]);
        let two_landing = Arc::new(AtomicBool::new(false));
        let (done, returned) = mpsc::channel();
        let placer = {
            let (s, two_landing) = (Arc::clone(&s), Arc::clone(&two_landing));
            std::thread::spawn(move || {
                let d = s.place(10, 10, 8);
                done.send(two_landing.load(Ordering::SeqCst))
                    .expect("test thread alive");
                d
            })
        };
        while s.state.lock().expect("sched state").next_apply < 2 {
            std::thread::yield_now();
        }
        for id in [6u64, 5, 4] {
            s.observe(id, device[id as usize]);
        }
        two_landing.store(true, Ordering::SeqCst);
        s.observe(2, device[2]);
        let after_two = returned
            .recv_timeout(Duration::from_secs(30))
            .expect("place(10) never returned once batch 2's observation landed");
        assert!(after_two, "place(10) returned before batch 2 was observed");
        placer.join().expect("placer thread");
        let st = s.state.lock().expect("sched state");
        assert_eq!(st.next_apply, 3, "batch 2 was the horizon");
        assert_eq!(st.pending.len(), 3, "4, 5 and 6 wait for later decisions");
    }

    #[test]
    fn models_report_busy_and_samples() {
        let (sys, s) = sched(2);
        drive(&s, &sys, 30, |i| i, &[400_000, 400_000]);
        // Apply everything by placing one far-future probe batch.
        let _ = s.place(1_000, 0, 1);
        assert!(s.max_device_busy_ns() > 0);
        let st = s.state.lock().expect("sched state");
        let samples: u64 = st.devs.iter().map(|d| d.samples).sum();
        assert!(samples >= 26, "most observations applied: {samples}");
        for d in &st.devs {
            if d.samples > 0 {
                assert!(d.ewma_unit_ns > 0.0, "{}", d.ewma_unit_ns);
            }
        }
    }
}
