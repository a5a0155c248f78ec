//! Fixed-size probes of one layer each, taken from outside by timing
//! public calls or reading public counters. A layer is a crate.
//!
//! They run in every traced invocation whatever the workload, so a change
//! to one layer shows here first and in the end-to-end rows of the
//! workloads that cross it second. Each probe is sized for ~50–150 ms on
//! the 2-core reference box; wall probes report the median of three.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gpusim::{CudaOffload, DeviceProps, GpuSystem};
use hashsearch::{SearchConfig, SearchWork, TopK};
use ingress::{
    FileLogSink, FileLogSource, IngressStats, PumpConfig, ShardId, Sink, Source, StreamKey,
};
use simtime::XorShift64;
use taskgraph::CostModelScheduler;
use telemetry::{FlightKind, Recorder};
use workload::{Placement, RoundRobinPlacement, Workload, WorkloadDriver, WorkloadFault};

use crate::metrics::Values;
use crate::stats::median;
use crate::workloads::farm::grain;
use crate::workloads::service::{lane_of, mixed_fleet, offer_range, sched_config, DEVICES};
use crate::workloads::{drive, Feed, WORKERS};

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median over three runs of `f`, in ns per one of `n` operations.
fn ns_per(n: u64, mut f: impl FnMut()) -> f64 {
    median(&[secs(&mut f), secs(&mut f), secs(&mut f)]) * 1e9 / n as f64
}

/// Every probe, into `v`. `scale` shrinks the sizes for `--smoke`.
pub fn probe_all(v: &mut Values, seed: u64, smoke: bool, scratch: &Path) {
    let scale = if smoke { 8 } else { 1 };
    fastflow_probes(v, scale);
    cpu_runtime_probes(v, scale);
    mandel_probes(v, smoke);
    dedup_probes(v, seed, scale);
    workload_probe(v, scale);
    ingress_probes(v, seed, scale, scratch);
    taskgraph_probes(v, scale);
    hashsearch_probes(v, seed, scale);
    telemetry_probes(v, scale);
}

// ---------------------------------------------------------------- fastflow

/// `n` items through `from_iter → farm_ordered(2, work) → for_each`.
fn farm_job(n: u64, rec: Recorder, work: impl Fn(u64) -> u64 + Send + Clone + 'static) {
    let mut acc = 0u64;
    fastflow::Pipeline::builder()
        .recorder(rec)
        .from_iter(0..n)
        .farm_ordered(WORKERS, move |_| fastflow::node::map(work.clone()))
        .for_each(|x| acc ^= x);
    black_box(acc);
}

/// Xorshift rounds one nanosecond buys on this core.
fn rounds_per_ns() -> f64 {
    const ROUNDS: u64 = 20_000_000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t = secs(|| {
        for _ in 0..ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    });
    ROUNDS as f64 / (t * 1e9)
}

/// `rounds` xorshift rounds: a per-item grain with no clock read in it.
fn spin(mut x: u64, rounds: u64) -> u64 {
    x |= 1;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

fn fastflow_probes(v: &mut Values, scale: u64) {
    // SPSC ring, one producer thread, one consumer thread.
    let n = 2_000_000 / scale;
    v.set(
        "fastflow.spsc.ns_per_item",
        ns_per(n, || {
            let (tx, rx) = fastflow::spsc::ring::<u64>(1024);
            std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..n {
                        let mut item = i;
                        while let Err(back) = tx.try_push(item) {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                });
                let mut got = 0;
                while got < n {
                    match rx.try_pop() {
                        Some(x) => {
                            black_box(x);
                            got += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
            });
        }),
    );

    // One channel hop with the default (pipeline) wait strategy.
    let n = 1_000_000 / scale;
    v.set(
        "fastflow.channel.ns_per_hop",
        ns_per(n, || {
            let (tx, rx) = fastflow::channel::<u64>(64, fastflow::WaitStrategy::default());
            std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..n {
                        if tx.send(i).is_err() {
                            break;
                        }
                    }
                });
                while let Some(x) = rx.recv() {
                    black_box(x);
                }
            });
        }),
    );

    // The grain curve: wall ns per item as per-item work grows from
    // nothing to 10 µs (FastFlow TR, overhead vs grain), 2 workers.
    let per_ns = rounds_per_ns();
    for (name, grain_ns, n) in [
        ("fastflow.farm.ns_per_item_g0", 0u64, 300_000u64),
        ("fastflow.farm.ns_per_item_g100ns", 100, 200_000),
        ("fastflow.farm.ns_per_item_g1us", 1_000, 100_000),
        ("fastflow.farm.ns_per_item_g10us", 10_000, 15_000),
    ] {
        let rounds = (grain_ns as f64 * per_ns) as u64;
        let n = n / scale;
        v.set(
            name,
            ns_per(n, || {
                farm_job(n, Recorder::default(), move |x| spin(x, rounds))
            }),
        );
    }

    // Pool: acquire + drop of one size class.
    let n = 300_000 / scale;
    let pool = fastflow::BufPool::<u8>::new();
    v.set(
        "fastflow.pool.ns_per_acquire",
        ns_per(n, || {
            for _ in 0..n {
                black_box(pool.acquire(4096));
            }
        }),
    );
    v.set("fastflow.pool.hit_rate", pool.stats().hit_rate());
}

// ------------------------------------------------------------ tbbx, core

fn cpu_runtime_probes(v: &mut Values, scale: u64) {
    let n = 200_000 / scale;
    let pool = Arc::new(tbbx::TaskPool::new(WORKERS));
    v.set(
        "tbbx.pipeline.ns_per_item_g0",
        ns_per(n, || {
            let acc = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let sink = Arc::clone(&acc);
            tbbx::Pipeline::from_iter(0..n)
                .parallel(grain)
                .serial_in_order(move |x: u64| {
                    sink.fetch_xor(x, std::sync::atomic::Ordering::Relaxed);
                })
                .build()
                .run(&pool, 2 * WORKERS);
            black_box(acc.load(std::sync::atomic::Ordering::Relaxed));
        }),
    );
    v.set(
        "tbbx.pool.ns_per_spawn",
        ns_per(n, || {
            let latch = tbbx::Latch::new(n as usize);
            for _ in 0..n {
                let l = Arc::clone(&latch);
                pool.spawn(move || l.count_down());
            }
            latch.wait();
        }),
    );
    v.set(
        "core.tostream.ns_per_item_g0",
        ns_per(n, || {
            let mut acc = 0u64;
            spar::ToStream::new()
                .ordered(true)
                .source_iter(0..n)
                .stage(WORKERS, grain)
                .last_stage(|x| acc ^= x);
            black_box(acc);
        }),
    );
}

// ------------------------------------------------------------------ mandel

fn mandel_probes(v: &mut Values, smoke: bool) {
    use mandel::core::FractalParams;
    let p = if smoke {
        FractalParams::view(128, 500)
    } else {
        FractalParams::view(512, 2000)
    };
    // Eight rows spread over the frame: in-set and escaping pixels both.
    let rows: Vec<usize> = (0..8).map(|i| i * p.dim / 8 + p.dim / 16).collect();
    let pixels = (rows.len() * p.dim) as u64;
    let mut out = vec![0u32; p.dim];
    let mut line = |f: fn(f64, f64, f64, u32, &mut [u32])| {
        ns_per(pixels, || {
            for &r in &rows {
                f(
                    p.init_a,
                    p.step(),
                    p.init_b + p.step() * r as f64,
                    p.niter,
                    &mut out,
                );
                black_box(&out);
            }
        })
    };
    v.set("mandel.simd.ns_per_pixel", line(mandel::simd::iterate_line));
    v.set(
        "mandel.scalar.ns_per_pixel",
        line(mandel::simd::iterate_line_scalar),
    );

    // The host rung of the ladder, and the paper's Fig. 1 ladder on one
    // thread: modeled makespans (exact) and the OpenCL/CUDA host ratio.
    let sys = GpuSystem::new(2, DeviceProps::titan_xp());
    let work = mandel::hybrid::MandelWork::<CudaOffload>::new(&sys, &p, 8, 2, 1);
    let mut batch = Vec::new();
    let items = (p.dim / 8) as u64;
    v.set(
        "mandel.cpu_batch.ms_per_item",
        ns_per(items, || {
            for b in 0..items as usize {
                work.cpu_batch(&b, &mut batch);
                black_box(&batch);
            }
        }) / 1e6,
    );
    let ms = |d: simtime::SimDuration| d.as_secs_f64() * 1e3;
    let t = Instant::now();
    let (_, batch32) = mandel::gpu::cuda_batch(&sys, &p, 32);
    let cuda_wall = t.elapsed().as_secs_f64();
    v.set("gpusim.modeled.fig1_batch32_ms", ms(batch32));
    v.set(
        "gpusim.modeled.fig1_overlap2x_ms",
        ms(mandel::gpu::cuda_overlap(&sys, &p, 32, 2, 1).1),
    );
    v.set(
        "gpusim.modeled.fig1_2gpu2x_ms",
        ms(mandel::gpu::cuda_overlap(&sys, &p, 32, 4, 2).1),
    );
    let ocl_wall = secs(|| {
        black_box(mandel::gpu::ocl_batch(&sys, &p, 32));
    });
    v.set("gpusim.ocl_over_cuda_wall_ratio", ocl_wall / cuda_wall);
}

// ------------------------------------------------------------------- dedup

/// A hand-driven sequential replay of the dedup layer: chunk, hash,
/// classify, compress, each stage timed on its own. The stage times must
/// add up to `run_sequential` on the same bytes, or the rows do not
/// describe the layer.
fn dedup_probes(v: &mut Values, seed: u64, scale: u64) {
    use dedup::{ArchiveStats, BlockClass, BlockEntry, DedupCache};
    let cfg = crate::workloads::dedup_gpu::fig5_config();
    let data = dedup::datasets::parsec_like(1024 * 1024 / scale as usize, seed).data;
    let mb = data.len() as f64 / 1e6;

    let mut archive = None;
    let t_seq = secs(|| archive = Some(dedup::run_sequential(&data, &cfg)));
    let st = ArchiveStats::of(archive.as_ref().expect("ran"));
    v.set("dedup.archive.ratio_percent", st.ratio_percent());
    v.set("dedup.dup_fraction", st.dup_fraction());

    let mut batches = Vec::new();
    let t_rabin = secs(|| batches = dedup::make_batches(&data, cfg.batch_size, &cfg.rabin));
    let blocks: Vec<&[u8]> = batches
        .iter()
        .flat_map(|b| (0..b.block_count()).map(move |i| b.block(i)))
        .collect();
    let mut digests = Vec::with_capacity(blocks.len());
    let t_sha1 = secs(|| digests.extend(blocks.iter().map(|b| dedup::sha1(b))));
    let mut cache = DedupCache::new();
    let mut classes = Vec::with_capacity(blocks.len());
    let t_cache = secs(|| classes.extend(digests.iter().map(|&d| cache.classify(d))));
    let unique: Vec<&[u8]> = blocks
        .iter()
        .zip(&classes)
        .filter(|(_, c)| matches!(c, BlockClass::Unique { .. }))
        .map(|(b, _)| *b)
        .collect();
    let unique_mb = unique.iter().map(|b| b.len()).sum::<usize>() as f64 / 1e6;
    let t_lzss = secs(|| {
        for b in &unique {
            black_box(BlockEntry::compress_unique(b, &cfg.lzss));
        }
    });
    v.set("dedup.rabin.mb_per_s", mb / t_rabin);
    v.set("dedup.sha1.mb_per_s", mb / t_sha1);
    v.set("dedup.lzss.mb_per_s", unique_mb / t_lzss);
    v.set(
        "dedup.cache.ns_per_classify",
        t_cache * 1e9 / blocks.len() as f64,
    );
    v.set(
        "dedup.replay_over_sequential",
        (t_rabin + t_sha1 + t_cache + t_lzss) / t_seq,
    );
}

// ---------------------------------------------------------------- workload

/// A workload that does nothing, so `process_into` is all driver.
#[derive(Clone)]
struct NoopWork;

impl Workload for NoopWork {
    type Item = u64;
    type Batch = u64;
    type Gpu = ();

    fn stage_label(&self) -> &'static str {
        "noop"
    }
    fn attach(&self, _replica: usize) {}
    fn make_batch(&self, _item: &u64) -> u64 {
        0
    }
    fn try_gpu_batch(&self, _gpu: &mut (), item: &u64, out: &mut u64) -> Result<(), WorkloadFault> {
        *out = *item;
        Ok(())
    }
    fn cpu_batch(&self, item: &u64, out: &mut u64) {
        *out = *item;
    }
}

fn workload_probe(v: &mut Values, scale: u64) {
    let n = 2_000_000 / scale;
    let driver = WorkloadDriver::new(NoopWork);
    v.set(
        "workload.driver.overhead_ns_per_item",
        ns_per(n, || {
            let mut out = 0u64;
            for i in 0..n {
                driver.process_into(&mut (), &i, &mut out);
                black_box(out);
            }
        }),
    );
}

// ----------------------------------------------------------------- ingress

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn ingress_probes(v: &mut Values, seed: u64, scale: u64, scratch: &Path) {
    const SHARDS: u32 = 4;
    const BYTES: usize = 128;
    let key = StreamKey::new("hetbench-probe").expect("valid stream key");
    let mut rng = XorShift64::new(seed);

    let mb = rng.bytes(1 << 20);
    let ns_per_byte = ns_per(4 * mb.len() as u64, || {
        for _ in 0..4 {
            black_box(ingress::crc32(black_box(&mb)));
        }
    });
    v.set("ingress.crc32.mb_per_s", 1e3 / ns_per_byte);

    // Durable produce with the default in-flight window: one fsync per 64
    // records. fsync-bound and noisy on this disk (the same 1 M-record
    // produce took 3.3–9.1 s when the benchmark was defined), so it is
    // reported with its spread and never as an end-to-end number.
    let n = 2_048 / scale;
    let payload = rng.bytes(BYTES);
    let produce: Vec<f64> = (0..3)
        .map(|round| {
            let root = scratch.join(format!("produce-{round}"));
            let mut sink = FileLogSink::open(&root, &key, SHARDS).expect("open probe log");
            let t = secs(|| {
                for i in 0..n {
                    sink.send(ShardId((i % u64::from(SHARDS)) as u32), &payload)
                        .expect("produce");
                }
                sink.flush().expect("flush");
            });
            drop(sink);
            if round == 0 {
                v.set(
                    "ingress.filelog.disk_bytes_per_record",
                    dir_bytes(&root) as f64 / n as f64,
                );
            }
            t * 1e9 / n as f64
        })
        .collect();
    let mid = median(&produce);
    v.set("ingress.filelog.produce_ns_per_record", mid);
    let lo = produce.iter().copied().fold(f64::MAX, f64::min);
    let hi = produce.iter().copied().fold(0.0, f64::max);
    v.set("ingress.filelog.produce_spread", (hi - lo) / mid);

    // A log written with one fsync, then read back three ways.
    let n = 40_000 / scale;
    let root = scratch.join("probe-log");
    let mut sink = FileLogSink::open(&root, &key, SHARDS)
        .expect("open probe log")
        .with_max_in_flight(n as usize + 1);
    for i in 0..n {
        sink.send(ShardId((i % u64::from(SHARDS)) as u32), &payload)
            .expect("produce");
    }
    sink.flush().expect("flush");
    drop(sink);

    v.set(
        "ingress.filelog.replay_ns_per_record",
        ns_per(n, || {
            let mut src = FileLogSource::open_replay(&root, &key, workload::pinned_pool::<u8>())
                .expect("open replay");
            let (mut got, mut buf) = (0, Vec::with_capacity(64));
            while got < n {
                got += src.next_batch(&mut buf, 64).expect("read") as u64;
                buf.clear();
            }
        }),
    );

    let ledger = telemetry::copy::CopyLedger::new();
    v.set(
        "ingress.pump.ns_per_record",
        ns_per(n, || {
            let rec = Recorder::default();
            let src = FileLogSource::open_replay(&root, &key, workload::pinned_pool::<u8>())
                .expect("open replay");
            let (tx, rx) =
                fastflow::channel::<ingress::Message>(256, fastflow::WaitStrategy::Block);
            let pump = ingress::spawn_pump(
                Box::new(src),
                tx,
                |m| m,
                PumpConfig {
                    ledger: Some(ledger.clone()),
                    ..PumpConfig::default()
                },
                &rec,
                IngressStats::new(&rec, key.as_str()),
            );
            let (mut got, mut buf) = (0, Vec::with_capacity(64));
            while got < n && rx.recv_batch(&mut buf, 64) > 0 {
                got += buf.len() as u64;
                buf.clear();
            }
            drop(rx);
            pump.join().expect("pump");
        }),
    );
    v.set(
        "ingress.pump.staging_bytes_per_record",
        ledger.stats().bytes_copied() as f64 / (3 * n) as f64,
    );

    let n = 30_000 / scale;
    v.set(
        "ingress.tcp.ns_per_record",
        ns_per(n, || {
            let server = ingress::TcpIngressServer::bind(
                "127.0.0.1:0",
                &key,
                workload::pinned_pool::<u8>(),
                64,
            )
            .expect("bind");
            let addr = server.addr();
            let mut src = server.source();
            std::thread::scope(|s| {
                let producer = s.spawn(|| {
                    let mut sink = ingress::TcpSink::connect(addr, &key, SHARDS).expect("connect");
                    for i in 0..n {
                        sink.send(ShardId((i % u64::from(SHARDS)) as u32), &payload)
                            .expect("send");
                    }
                    sink.flush().expect("flush");
                });
                let (mut got, mut buf) = (0, Vec::with_capacity(64));
                while got < n {
                    got += src.next_batch(&mut buf, 64).expect("recv") as u64;
                    buf.clear();
                }
                producer.join().expect("producer");
            });
            server.stop();
        }),
    );
}

// --------------------------------------------------------------- taskgraph

fn taskgraph_probes(v: &mut Values, scale: u64) {
    // The hashsearch harness's placement demo: 64 ranges of 4 096 nonces
    // over the mixed fleet, once per policy. (Ranges that size are where
    // the cost model parts from round-robin: at 2 048 nonces and below the
    // fast/slow cost gap no longer outweighs a warm lane and both policies
    // model the same busy time.) The makespan proxy (max device busy) and
    // the scheduler's counters are exact; the decision cost is wall time.
    let mut cfg = SearchConfig::new(vec![0xA5; 64], 64 * 4096 / scale);
    cfg.range = 4096;
    let run = |sys: &Arc<GpuSystem>, placer: Arc<dyn Placement>| -> f64 {
        let work = SearchWork::<CudaOffload>::new(sys, &cfg, DEVICES, DEVICES);
        let recycle = work.recycler().clone();
        let mut top = TopK::new(cfg.k);
        drive(
            work,
            Recorder::default(),
            Feed::Placed {
                placer,
                devices: DEVICES,
                key_of: lane_of,
            },
            cfg.ranges().into_iter().map(|r| (r.index as u64, r)),
            None,
            |_, range, digests| {
                offer_range(&mut top, &range, &digests);
                recycle.give(digests);
            },
        );
        black_box(top.into_sorted());
        crate::workloads::Modeled::read(sys, 0).busy_max_ns as f64 / 1e6
    };
    let sys = mixed_fleet();
    let sched =
        CostModelScheduler::new(&sys, sched_config(), &Recorder::default(), "hetbench.probe");
    v.set(
        "taskgraph.costmodel_max_busy_ms",
        run(&sys, Arc::clone(&sched) as Arc<dyn Placement>),
    );
    let snap = sched.counters().snapshot();
    v.set(
        "taskgraph.place.ns_per_decision",
        snap.overhead_per_decision_ns(),
    );
    v.set("taskgraph.residency_hits", snap.residency_hits as f64);
    v.set("taskgraph.migrations", snap.migrations as f64);
    v.set(
        "taskgraph.roundrobin_max_busy_ms",
        run(&mixed_fleet(), RoundRobinPlacement::new(DEVICES)),
    );
}

// -------------------------------------------------------------- hashsearch

fn hashsearch_probes(v: &mut Values, seed: u64, scale: u64) {
    let header = XorShift64::new(seed).bytes(64);
    let mut h = dedup::Sha1::new();
    h.update(&header);
    let mid = h
        .midstate()
        .expect("64-byte header ends on a block boundary");
    let n = 262_144 / scale;
    let mut out = vec![0u8; n as usize * hashsearch::DIGEST_BYTES];
    v.set(
        "hashsearch.simd.ns_per_nonce",
        ns_per(n, || {
            hashsearch::simd::hash_nonces(mid, 64, 0, n as usize, &mut out);
            black_box(&out);
        }),
    );
    v.set(
        "hashsearch.scalar.ns_per_nonce",
        ns_per(n, || {
            hashsearch::simd::hash_nonces_scalar(mid, 64, 0, n as usize, &mut out);
            black_box(&out);
        }),
    );
}

// --------------------------------------------------------------- telemetry

fn telemetry_probes(v: &mut Values, scale: u64) {
    let n = 2_000_000 / scale;
    let emit = |rec: &Recorder| {
        let h = rec.flight_handle("hetbench");
        ns_per(n, || {
            for i in 0..n {
                h.emit(FlightKind::BatchFormed, i, 1, 0);
            }
        })
    };
    v.set(
        "telemetry.flight.emit_ns_enabled",
        emit(&Recorder::enabled()),
    );
    v.set(
        "telemetry.flight.emit_ns_disabled",
        emit(&Recorder::default()),
    );

    // The farm-finegrain job with the recorder on ÷ off: what observing
    // costs where items are smallest.
    let n = 300_000 / scale;
    let job = |rec: fn() -> Recorder| ns_per(n, || farm_job(n, rec(), grain));
    v.set(
        "telemetry.recorder.overhead_ratio",
        job(Recorder::enabled) / job(Recorder::default),
    );
}
