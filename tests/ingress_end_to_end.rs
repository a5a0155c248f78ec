//! Exactly-once ingress end to end, through the application pipelines.
//!
//! Records are produced once into a segmented file log, pumped into pinned
//! pooled buffers, processed, and appended to a second log with
//! fsync-on-ack; an input offset commits only after its egress record is
//! durable. A consumer killed in the window between the two must resume
//! from the committed offsets and skip, not re-emit, the record the
//! egress log already holds. Three keyings ride that loop: Mandelbrot row
//! spans round-robin on CUDA, row spans per key on OpenCL, and dedup
//! segments per key echoed into the GPU dedup pipeline. The TCP transport
//! lands the same way, live, without the durable egress.

use std::collections::HashMap;
use std::path::Path;

use hetstream::dedup::{self, BackendCtx, DedupConfig, LzssConfig, RabinParams};
use hetstream::fastflow::{self, WaitStrategy};
use hetstream::gpusim::{self, CudaOffload, DeviceProps, GpuSystem, OclOffload, Offload};
use hetstream::ingress::filelog::{read_all, GroupOffsets};
use hetstream::ingress::{
    spawn_pump, FileLogSink, FileLogSource, IngressStats, Message, PumpConfig, ShardId, Sink,
    StreamKey, TcpIngressServer, TcpSink,
};
use hetstream::mandel::hybrid::MandelWork;
use hetstream::mandel::{self, FractalParams, Image};
use hetstream::telemetry::copy::CopyLedger;
use hetstream::telemetry::Recorder;
use hetstream::workload::{self, WorkloadDriver};

/// Rows per Mandelbrot span record.
const BATCH: usize = 16;

/// What one consumer incarnation did.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Records processed and appended to the egress log.
    emitted: u64,
    /// Re-delivered records an earlier incarnation had already emitted.
    skipped: u64,
    /// Shards that started from a committed offset.
    resumed: u32,
    /// Bytes the pump thread's copy ledger saw staged.
    staged_bytes: u64,
}

/// Deterministic per-key shard (FNV-1a over the key): records of one key
/// always ride one shard, so per-shard FIFO gives per-key order.
fn shard_of(key: u64, shards: u32) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % u64::from(shards)) as u32
}

/// A Mandelbrot span record, `[u32 y0][u32 rows]` LE.
fn span(y0: usize, rows: usize) -> Vec<u8> {
    [(y0 as u32).to_le_bytes(), (rows as u32).to_le_bytes()].concat()
}

fn decode_span(payload: &[u8]) -> (usize, usize) {
    let word = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().expect("4 bytes"));
    (word(0) as usize, word(4) as usize)
}

/// The pump's decode step: every record must land in a pinned slab.
fn landed_pinned(m: Message) -> Message {
    assert!(
        gpusim::pinned::is_pinned(&m.payload[..]),
        "ingress payload must land in a pinned slab"
    );
    m
}

/// One consumer incarnation over `root`, as consumer group `name`. The
/// input log is produced from `records` (each with its shard) only if it
/// is still empty. With `kill_after = Some(k)` the consumer stops after
/// its k-th egress record is durable and before that record's offset
/// commits — the crash the exactly-once rule exists for.
fn consume(
    root: &Path,
    name: &str,
    shards: u32,
    records: &[(u32, Vec<u8>)],
    kill_after: Option<u64>,
    mut process: impl FnMut(&[u8]) -> Vec<u8>,
) -> Outcome {
    let in_key = StreamKey::new(format!("{name}-in")).expect("valid key");
    let out_key = StreamKey::new(format!("{name}-out")).expect("valid key");
    let mut input = FileLogSink::open(root, &in_key, shards).expect("open input log");
    if (0..shards).all(|s| input.next_seq(ShardId(s)).expect("next_seq") == 0) {
        for (shard, payload) in records {
            input.send(ShardId(*shard), payload).expect("send record");
        }
        input.flush().expect("flush input log");
    }
    drop(input);

    let offsets = GroupOffsets::open(root, &in_key, name).expect("open group offsets");
    let mut remaining = records.len() as u64;
    let mut resumed = 0;
    for s in 0..shards {
        let committed = offsets.load(ShardId(s)).expect("load offset").unwrap_or(0);
        resumed += u32::from(committed > 0);
        remaining -= committed;
    }

    let rec = Recorder::default();
    let ledger = CopyLedger::new();
    let src = FileLogSource::open_resume(root, &in_key, name, workload::pinned_pool::<u8>())
        .expect("open resumable source");
    let (tx, rx) = fastflow::channel::<Message>(32, WaitStrategy::Block);
    let pump = spawn_pump(
        Box::new(src),
        tx,
        landed_pinned,
        PumpConfig {
            ledger: Some(ledger.clone()),
            ..PumpConfig::default()
        },
        &rec,
        IngressStats::new(&rec, in_key.as_str()),
    );

    let mut egress = FileLogSink::open(root, &out_key, shards)
        .expect("open egress log")
        .with_max_in_flight(1); // fsync-on-ack per record
    let (mut emitted, mut skipped) = (0, 0);
    let mut items = Vec::new();
    'consume: while remaining > 0 {
        assert!(
            rx.recv_batch(&mut items, 16) > 0,
            "pump hung up with {remaining} records outstanding"
        );
        for m in items.drain(..) {
            let next_out = egress.next_seq(m.shard).expect("egress next_seq");
            if m.seq < next_out {
                // Emitted by an incarnation that died before committing.
                skipped += 1;
            } else {
                assert_eq!(m.seq, next_out, "input seq vs egress watermark");
                let receipt = egress
                    .send(m.shard, &process(&m.payload))
                    .expect("egress send");
                assert!(receipt.is_acked(), "max_in_flight(1) acks every send");
                emitted += 1;
                if kill_after == Some(emitted) {
                    break 'consume;
                }
            }
            offsets.commit(m.shard, m.seq + 1).expect("commit offset");
            remaining -= 1;
        }
    }
    drop(rx);
    pump.join().expect("pump result");
    Outcome {
        emitted,
        skipped,
        resumed,
        staged_bytes: ledger.stats().bytes_copied(),
    }
}

/// Kill a fresh consumer after `kill_after` emitted records, resume it,
/// and return the egress log replayed from disk.
fn kill_and_resume(
    name: &str,
    shards: u32,
    records: &[(u32, Vec<u8>)],
    kill_after: u64,
    mut process: impl FnMut(&[u8]) -> Vec<u8>,
) -> HashMap<u32, Vec<Vec<u8>>> {
    let root = std::env::temp_dir().join(format!("hetstream_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let killed = consume(&root, name, shards, records, Some(kill_after), &mut process);
    let fresh = Outcome {
        emitted: kill_after,
        skipped: 0,
        resumed: 0,
        staged_bytes: 0,
    };
    assert_eq!(killed, fresh, "{name}: the killed incarnation");
    let rerun = consume(&root, name, shards, records, None, &mut process);
    assert!(rerun.resumed >= 1, "{name}: no shard resumed: {rerun:?}");
    let exactly_once = Outcome {
        emitted: records.len() as u64 - kill_after,
        skipped: 1,
        resumed: rerun.resumed,
        staged_bytes: 0,
    };
    assert_eq!(rerun, exactly_once, "{name}: the resumed incarnation");
    let out_key = StreamKey::new(format!("{name}-out")).expect("valid key");
    let egress = read_all(&root, &out_key).expect("replay egress log");
    let _ = std::fs::remove_dir_all(&root);
    egress
}

/// Render every row span of a small image through the `WorkloadDriver`
/// on `O` across a kill and a resume, span `y0` on shard `shard_for(y0)`.
/// The image rebuilt from the egress log must hold every span exactly
/// once, on its key's shard, and equal the sequential render.
fn mandel_kill_and_resume<O: Offload>(name: &str, shards: u32, shard_for: impl Fn(usize) -> u32) {
    let params = FractalParams::view(128, 300);
    let dim = params.dim;
    let n = dim.div_ceil(BATCH);
    let records: Vec<(u32, Vec<u8>)> = (0..n)
        .map(|b| {
            (
                shard_for(b * BATCH),
                span(b * BATCH, BATCH.min(dim - b * BATCH)),
            )
        })
        .collect();
    let sys = GpuSystem::new(2, DeviceProps::titan_xp());
    let driver = WorkloadDriver::new(MandelWork::<O>::new(&sys, &params, BATCH, 1, 1));
    let mut gpu = driver.attach(0);
    let egress = kill_and_resume(name, shards, &records, 3, |record| {
        let (y0, rows) = decode_span(record);
        let pixels = driver.process(&mut gpu, &(y0 / BATCH));
        [record, &pixels[..rows * dim]].concat()
    });

    let mut img = Image::new(dim);
    let mut seen = vec![false; n];
    for (shard, spans) in &egress {
        for bytes in spans {
            let (y0, rows) = decode_span(&bytes[..8]);
            assert_eq!(*shard, shard_for(y0), "span y0={y0} on the wrong shard");
            assert!(!seen[y0 / BATCH], "span y0={y0} emitted twice");
            seen[y0 / BATCH] = true;
            img.data[y0 * dim..(y0 + rows) * dim].copy_from_slice(&bytes[8..]);
        }
    }
    assert!(seen.iter().all(|&s| s), "egress is missing spans: {seen:?}");
    assert_eq!(
        img.digest(),
        mandel::cpu::run_sequential(&params).0.digest(),
        "{name}: image assembled from the egress log differs from the sequential render"
    );
}

#[test]
fn fig1_round_robin_spans_resume_exactly_once_on_cuda() {
    mandel_kill_and_resume::<CudaOffload>("fig1", 2, |y0| (y0 / BATCH) as u32 % 2);
}

#[test]
fn fig4_per_key_spans_resume_exactly_once_on_opencl() {
    mandel_kill_and_resume::<OclOffload>("fig4", 3, |y0| shard_of(y0 as u64, 3));
}

#[test]
fn fig5_segments_resume_exactly_once_into_a_bit_exact_archive() {
    let data = dedup::datasets::parsec_like(64_000, 42).data;
    let records: Vec<(u32, Vec<u8>)> = data
        .chunks(16 * 1024)
        .enumerate()
        .map(|(i, chunk)| {
            (
                shard_of(i as u64, 3),
                [&(i as u32).to_le_bytes(), chunk].concat(),
            )
        })
        .collect();
    let egress = kill_and_resume("fig5", 3, &records, 2, |segment| segment.to_vec());

    let mut segments: Vec<Option<&[u8]>> = vec![None; records.len()];
    for (shard, echoed) in &egress {
        for bytes in echoed {
            let i = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
            assert_eq!(
                *shard,
                shard_of(i as u64, 3),
                "segment {i} on the wrong shard"
            );
            assert!(
                segments[i].replace(&bytes[4..]).is_none(),
                "segment {i} emitted twice"
            );
        }
    }
    let stream: Vec<u8> = segments
        .iter()
        .flat_map(|s| s.expect("every segment egressed").iter().copied())
        .collect();
    assert_eq!(stream, data, "reassembled stream differs from the dataset");

    let cfg = DedupConfig {
        batch_size: 16 * 1024,
        rabin: RabinParams {
            window: 16,
            mask: (1 << 9) - 1,
            magic: 0x5c,
            min_chunk: 512,
            max_chunk: 8192,
        },
        lzss: LzssConfig {
            window: 256,
            min_coded: 3,
        },
    };
    let ctx = BackendCtx::gpu(
        GpuSystem::new(2, DeviceProps::titan_xp()),
        2,
        true,
        cfg.lzss,
    );
    let archive = dedup::run_pipeline::<CudaOffload>(ctx, stream, &cfg, 2);
    assert_eq!(
        archive.decompress().expect("roundtrip"),
        data,
        "ingress-fed archive must decompress to the input"
    );
}

#[test]
fn tcp_ingress_lands_pinned_without_a_copy_and_renders_the_exact_image() {
    let params = FractalParams::view(128, 300);
    let dim = params.dim;
    let n = dim.div_ceil(BATCH);
    let key = StreamKey::new("fig1-rows").expect("valid key");
    let server = TcpIngressServer::bind("127.0.0.1:0", &key, workload::pinned_pool::<u8>(), 64)
        .expect("bind ingress server");
    let (addr, producer_key) = (server.addr(), key.clone());
    let producer = std::thread::spawn(move || {
        let mut sink = TcpSink::connect(addr, &producer_key, 2)
            .expect("connect producer")
            .with_max_in_flight(8);
        for b in 0..n {
            let record = span(b * BATCH, BATCH.min(dim - b * BATCH));
            sink.send(ShardId(b as u32 % 2), &record).expect("tcp send");
        }
        sink.flush().expect("tcp flush (all acks in)");
    });

    let rec = Recorder::default();
    let ledger = CopyLedger::new();
    let (tx, rx) = fastflow::channel::<Message>(32, WaitStrategy::Block);
    let pump = spawn_pump(
        Box::new(server.source()),
        tx,
        landed_pinned,
        PumpConfig {
            ledger: Some(ledger.clone()),
            ..PumpConfig::default()
        },
        &rec,
        IngressStats::new(&rec, key.as_str()),
    );
    let sys = GpuSystem::new(2, DeviceProps::titan_xp());
    let driver = WorkloadDriver::new(MandelWork::<CudaOffload>::new(&sys, &params, BATCH, 1, 1));
    let mut gpu = driver.attach(0);
    let mut img = Image::new(dim);
    let (mut got, mut items) = (0, Vec::new());
    while got < n {
        assert!(rx.recv_batch(&mut items, 16) > 0, "tcp pump hung up");
        for m in items.drain(..) {
            let (y0, rows) = decode_span(&m.payload);
            let pixels = driver.process(&mut gpu, &(y0 / BATCH));
            img.data[y0 * dim..(y0 + rows) * dim].copy_from_slice(&pixels[..rows * dim]);
            got += 1;
        }
    }
    producer.join().expect("producer thread");
    assert_eq!(
        pump.join().expect("pump result"),
        n as u64,
        "each record pumped once"
    );
    server.stop();

    assert_eq!(
        ledger.stats().bytes_copied(),
        0,
        "the TCP landing staged bytes"
    );
    assert_eq!(
        img.digest(),
        mandel::cpu::run_sequential(&params).0.digest(),
        "tcp-ingress image differs from the sequential render"
    );
}
