//! `service-hashsearch` — the whole chain with a network source: one
//! `TcpSink` connection → `TcpIngressServer` → `spawn_pump` → channel →
//! `run_placed` `SearchWork<CudaOffload>` over a mixed four-device fleet
//! (two Titan XPs, two derated to half speed) placed by
//! `CostModelScheduler` → ordered collector → TopK sink, with a live
//! `Recorder`. Records are 1 024-nonce range descriptors keyed into eight
//! lanes. Same ingress and offload layers as the other workloads, used
//! differently: a socket instead of a file, output-only D2H, placement on.
//! The one place where paced latency means what the stream-processing
//! literature means by it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dedup::sha1::Digest;
use gpusim::{CudaOffload, DeviceProps, GpuSystem};
use hashsearch::{
    score, search_cpu, Candidate, NonceRange, SearchConfig, SearchWork, TopK, DIGEST_BYTES,
};
use ingress::{
    spawn_pump, IngressError, IngressStats, PumpConfig, ShardId, Sink, StreamKey, TcpIngressServer,
    TcpSink,
};
use simtime::XorShift64;
use taskgraph::{CostModelScheduler, SchedConfig};
use telemetry::Recorder;
use workload::Placement;

use super::{
    drive, with_command_trace, with_copy_delta, Feed, Modeled, PacedRun, Rep, Scenario, Size,
};
use crate::pace::{now_ns, since_due_ms, wait_until_due, Schedule};
use crate::trace::{Kind, Tracer};

/// Nonces per record.
const RANGE: usize = 1024;
/// Residency lanes (= ingress shards) ranges are keyed into.
pub const LANES: u64 = 8;
/// Devices of the mixed fleet (= placed replicas).
pub const DEVICES: usize = 4;
/// Open-loop release rate, records/s: about half the saturated rate
/// measured when the benchmark was defined (≈ 4 200 records/s).
const PACED_RATE: f64 = 2000.0;

/// Two full Titan XPs and two derated to half clock and half PCIe
/// bandwidth — the fleet the cost model has to discover.
pub fn mixed_fleet() -> Arc<GpuSystem> {
    GpuSystem::new_mixed(
        (0..DEVICES)
            .map(|d| {
                if d < 2 {
                    DeviceProps::titan_xp()
                } else {
                    DeviceProps::titan_xp().derated("titan-xp-half", 0.5)
                }
            })
            .collect(),
    )
}

/// The scheduler configuration the hashsearch harness uses: ranges are
/// cheap, so the migration penalty sits below the fast/slow cost delta.
pub fn sched_config() -> SchedConfig {
    let mut cfg = SchedConfig::for_devices(DEVICES);
    cfg.migration_penalty_ns = 2_000;
    cfg
}

/// The residency key of a range.
pub fn lane_of(r: &NonceRange) -> u64 {
    r.index as u64 % LANES
}

/// Offer every digest of a finished range to `top`.
pub fn offer_range(top: &mut TopK, range: &NonceRange, digests: &[u8]) {
    for (i, raw) in digests[..range.count * DIGEST_BYTES]
        .chunks_exact(DIGEST_BYTES)
        .enumerate()
    {
        let digest = Digest(raw.try_into().expect("20-byte digest"));
        top.offer(Candidate {
            nonce: range.start + i as u64,
            score: score(&digest),
            digest,
        });
    }
}

fn encode(r: &NonceRange) -> [u8; 20] {
    let mut p = [0u8; 20];
    p[..8].copy_from_slice(&(r.index as u64).to_le_bytes());
    p[8..16].copy_from_slice(&r.start.to_le_bytes());
    p[16..].copy_from_slice(&(r.count as u32).to_le_bytes());
    p
}

fn decode(p: &[u8]) -> NonceRange {
    assert_eq!(p.len(), 20, "range descriptor is 20 bytes");
    NonceRange {
        index: u64::from_le_bytes(p[..8].try_into().expect("8 bytes")) as usize,
        start: u64::from_le_bytes(p[8..16].try_into().expect("8 bytes")),
        count: u32::from_le_bytes(p[16..].try_into().expect("4 bytes")) as usize,
    }
}

/// Inputs and reference of one `service-hashsearch` run.
pub struct ServiceHashsearch {
    cfg: SearchConfig,
    /// Passes over the nonce space per closed-loop repetition.
    cycles: usize,
    /// The host ranking every pass over the nonce space must reproduce.
    pub reference: Vec<Candidate>,
    serial_items_per_s: f64,
}

impl ServiceHashsearch {
    /// Send `n` range records over TCP (on `schedule` if given) and search
    /// them on the placed fleet. Record `i` carries range `i mod R` of the
    /// `R`-range nonce space, so the stream is whole passes over it; each
    /// completed pass must rank exactly like the host reference.
    /// `on_done(seq)` runs after each range has been folded in. Returns
    /// the failed-op count and the device counters.
    fn sweep(
        &self,
        n: usize,
        schedule: Option<(Schedule, Arc<Mutex<Vec<f64>>>)>,
        tracer: Option<&Arc<Tracer>>,
        mut on_done: impl FnMut(u64),
    ) -> (u64, Modeled) {
        let rec = Recorder::enabled();
        let sys = with_command_trace(mixed_fleet(), tracer);
        let key = StreamKey::new("hetbench-ranges").expect("valid stream key");
        let server = TcpIngressServer::bind("127.0.0.1:0", &key, workload::pinned_pool::<u8>(), 64)
            .expect("bind loopback ingress server");
        let addr = server.addr();

        let ranges = self.cfg.ranges();
        let per_pass = ranges.len();
        let producer_key = key.clone();
        let producer = std::thread::Builder::new()
            .name("hetbench-producer".into())
            .spawn(move || -> Result<(), IngressError> {
                let mut sink = TcpSink::connect(addr, &producer_key, LANES as u32)?;
                for i in 0..n {
                    let r = NonceRange {
                        index: i,
                        ..ranges[i % per_pass]
                    };
                    if let Some((s, late)) = &schedule {
                        let late_ns = wait_until_due(s, i as u64);
                        late.lock()
                            .expect("lateness log poisoned")
                            .push(late_ns as f64 / 1e6);
                    }
                    sink.send(ShardId(lane_of(&r) as u32), &encode(&r))?;
                    if schedule.is_some() {
                        // A paced client does not sit on a record waiting
                        // for its window to fill.
                        sink.flush()?;
                    }
                }
                sink.flush()
            })
            .expect("spawn producer thread");

        let stats = IngressStats::new(&rec, key.as_str());
        let (tx, rx) = fastflow::channel::<(u64, NonceRange)>(64, fastflow::WaitStrategy::Block);
        let decode_tracer = tracer.cloned();
        let pump = spawn_pump(
            Box::new(server.source()),
            tx,
            move |m| {
                let r = decode(&m.payload);
                if let Some(t) = &decode_tracer {
                    let at = now_ns();
                    t.log(Kind::Decode, r.index as u64, at, at);
                }
                (r.index as u64, r)
            },
            PumpConfig::default(),
            &rec,
            stats,
        );

        let work = SearchWork::<CudaOffload>::new(&sys, &self.cfg, DEVICES, DEVICES);
        let recycle = work.recycler().clone();
        let placer = CostModelScheduler::new(&sys, sched_config(), &rec, "hetbench.graph");
        let mut top = TopK::new(self.cfg.k);
        let mut failed = 0u64;
        let ((), copied) = with_copy_delta(|| {
            drive(
                work,
                rec.clone(),
                Feed::Placed {
                    placer: placer as Arc<dyn Placement>,
                    devices: DEVICES,
                    key_of: lane_of,
                },
                rx.into_iter().take(n),
                tracer,
                |seq, range, digests| {
                    offer_range(&mut top, &range, &digests);
                    recycle.give(digests);
                    if (seq + 1) % per_pass as u64 == 0 {
                        // The ranking cannot say which range went wrong:
                        // a mismatch fails the whole pass.
                        let pass = std::mem::replace(&mut top, TopK::new(self.cfg.k));
                        if pass.into_sorted() != self.reference {
                            failed += per_pass as u64;
                        }
                    }
                    on_done(seq);
                },
            )
        });
        let transport = producer
            .join()
            .unwrap_or(Err(IngressError::Closed))
            .and(pump.join());
        server.stop();
        if transport.is_err() {
            failed = n as u64; // an IngressError fails every op of the sweep
        }
        (failed, Modeled::read(&sys, copied))
    }

    fn ranges(&self) -> usize {
        (self.cfg.total_nonces as usize).div_ceil(RANGE)
    }
}

impl Scenario for ServiceHashsearch {
    const REPLICAS: usize = DEVICES;
    const BETWEEN_SPANS: &'static str =
        "ingress and runtime (TCP transport, pump, placement, queues)";

    fn setup(seed: u64, size: Size, _scratch: &std::path::Path) -> Self {
        let n_ranges: u64 = if size == Size::Smoke { 256 } else { 1024 };
        let header = XorShift64::new(seed).bytes(64);
        let mut cfg = SearchConfig::new(header, n_ranges * RANGE as u64);
        cfg.range = RANGE;
        let t = Instant::now();
        let reference = search_cpu(&cfg);
        let serial_items_per_s = n_ranges as f64 / t.elapsed().as_secs_f64();
        let me = ServiceHashsearch {
            cfg,
            cycles: if size == Size::Traced { 4 } else { 1 },
            reference,
            serial_items_per_s,
        };
        me.sweep(me.ranges() / 8, None, None, |_| {});
        me
    }

    fn serial_items_per_s(&self) -> f64 {
        self.serial_items_per_s
    }

    fn serial(&self) -> (u64, f64) {
        let t = Instant::now();
        std::hint::black_box(search_cpu(&self.cfg));
        (self.ranges() as u64, t.elapsed().as_secs_f64())
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Rep {
        let n = self.ranges() * self.cycles;
        let t = Instant::now();
        let (failed, modeled) = self.sweep(n, None, tracer, |_| {});
        Rep {
            items: n as u64,
            failed,
            secs: t.elapsed().as_secs_f64(),
            modeled,
        }
    }

    fn paced_rate(&self) -> Option<f64> {
        Some(PACED_RATE)
    }

    fn paced(&self, secs: f64) -> Option<PacedRun> {
        let late = Arc::new(Mutex::new(Vec::new()));
        // The server binds and the producer connects before item 0 is due.
        let schedule = Schedule::new(now_ns() + 50_000_000, PACED_RATE);
        // Whole passes only, so every record is covered by a ranking check.
        let n = (schedule.items_in(secs) as usize).next_multiple_of(self.ranges());
        let mut latency_ms = Vec::with_capacity(n);
        let (failed, _) = self.sweep(n, Some((schedule, Arc::clone(&late))), None, |seq| {
            latency_ms.push(since_due_ms(now_ns(), schedule.due_ns(seq)));
        });
        let late_ms = std::mem::take(&mut *late.lock().expect("lateness log poisoned"));
        Some(PacedRun {
            latency_ms,
            late_ms,
            failed,
        })
    }
}
