//! `ingress-replay` — a pre-produced four-shard file log replayed through
//! `FileLogSource::open_replay → spawn_pump` (landing in `pinned_pool`
//! slabs) `→ channel → checksum fold`, with a live `Recorder`. The ingress
//! read/CRC/pump path does all the work and compute none: the only
//! workload that can show a faster segment reader, and the one that
//! carries the telemetry-on cost of the ingress counters.
//!
//! The log is written in set-up with one fsync (durable per-record produce
//! is fsync-bound and far too noisy for an end-to-end number; it is a
//! per-layer row with its spread instead).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ingress::{
    spawn_pump, FileLogSink, FileLogSource, IngressStats, PumpConfig, ShardId, Sink, StreamKey,
};
use simtime::XorShift64;
use telemetry::Recorder;

use super::{Rep, Scenario, Size};
use crate::pace::now_ns;
use crate::trace::{Kind, Tracer};

/// Shards of the replayed stream.
pub const SHARDS: u32 = 4;
/// Payload bytes per record.
pub const RECORD_BYTES: usize = 128;

/// What the sink folds per record: position-sensitive within a shard
/// (sequence numbers must be dense and ordered) and payload-sensitive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayDigest {
    /// Records seen.
    pub records: u64,
    /// Per shard: next expected sequence number if every record so far
    /// arrived in order, else `u64::MAX`.
    pub next_seq: [u64; SHARDS as usize],
    /// Per shard: ordered fold of the payload checksums.
    pub sums: [u64; SHARDS as usize],
}

impl ReplayDigest {
    fn add(&mut self, shard: u32, seq: u64, payload_sum: u64) {
        let s = shard as usize % SHARDS as usize;
        self.records += 1;
        self.next_seq[s] = if self.next_seq[s] == seq {
            seq + 1
        } else {
            u64::MAX
        };
        self.sums[s] = self.sums[s].rotate_left(7) ^ payload_sum;
    }
}

fn payload_sum(payload: &[u8]) -> u64 {
    payload.chunks_exact(8).fold(0u64, |acc, c| {
        acc.rotate_left(11) ^ u64::from_le_bytes(c.try_into().expect("8 bytes"))
    })
}

/// Inputs and reference of one `ingress-replay` run.
pub struct IngressReplay {
    root: PathBuf,
    key: StreamKey,
    /// Records in the log; a repetition is one full replay of it.
    records: u64,
    /// Every payload, in production order: what the serial reference
    /// folds, straight from memory.
    payloads: Vec<u8>,
    /// What one pass must fold to.
    pub reference: ReplayDigest,
    serial_items_per_s: f64,
}

impl Scenario for IngressReplay {
    const REPLICAS: usize = 1;
    const BETWEEN_SPANS: &'static str = "ingress (log reader, CRC check, pump)";

    fn setup(seed: u64, size: Size, scratch: &Path) -> Self {
        let records: u64 = if size == Size::Smoke { 20_000 } else { 100_000 };
        let key = StreamKey::new("hetbench-replay").expect("valid stream key");
        let root = scratch.join("replay");
        let _ = std::fs::remove_dir_all(&root);
        let mut rng = XorShift64::new(seed);
        let mut sink = FileLogSink::open(&root, &key, SHARDS)
            .expect("open replay log")
            .with_max_in_flight(records as usize + 1);
        let mut payloads = vec![0u8; records as usize * RECORD_BYTES];
        rng.fill_bytes(&mut payloads);
        for (i, payload) in payloads.chunks_exact(RECORD_BYTES).enumerate() {
            sink.send(ShardId(i as u32 % SHARDS), payload)
                .expect("produce record");
        }
        sink.flush().expect("fsync replay log");
        drop(sink);
        let mut me = IngressReplay {
            root,
            key,
            records,
            payloads,
            reference: ReplayDigest::default(),
            serial_items_per_s: 0.0,
        };
        // Folding the records on one thread straight from memory, no log
        // and no pump in between, is the serial baseline of "replay and
        // fold" — and what every replayed pass must fold to.
        let t = Instant::now();
        me.reference = me.fold_from_memory();
        me.serial_items_per_s = records as f64 / t.elapsed().as_secs_f64();
        // Warm the page cache and the pinned pool.
        me.pass(None, 0);
        me
    }

    fn serial_items_per_s(&self) -> f64 {
        self.serial_items_per_s
    }

    fn serial(&self) -> (u64, f64) {
        let t = Instant::now();
        std::hint::black_box(self.fold_from_memory());
        (self.records, t.elapsed().as_secs_f64())
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Rep {
        let t = Instant::now();
        let failed = if self.pass(tracer, 0) == self.reference {
            0
        } else {
            self.records
        };
        Rep {
            items: self.records,
            failed,
            secs: t.elapsed().as_secs_f64(),
            ..Rep::default()
        }
    }
}

impl IngressReplay {
    /// The digest of every payload in production order (record `i` went
    /// to shard `i mod SHARDS`), folded on the calling thread.
    fn fold_from_memory(&self) -> ReplayDigest {
        let mut digest = ReplayDigest::default();
        for (i, payload) in self.payloads.chunks_exact(RECORD_BYTES).enumerate() {
            let shard = i as u32 % SHARDS;
            digest.add(shard, (i as u32 / SHARDS) as u64, payload_sum(payload));
        }
        digest
    }

    /// One full replay of the log; trace indices start at `first_index`.
    fn pass(&self, tracer: Option<&Arc<Tracer>>, first_index: u64) -> ReplayDigest {
        let rec = Recorder::enabled();
        let stats = IngressStats::new(&rec, self.key.as_str());
        let src = FileLogSource::open_replay(&self.root, &self.key, workload::pinned_pool::<u8>())
            .expect("open replay source");
        let (tx, rx) =
            fastflow::channel::<(u64, ingress::Message)>(256, fastflow::WaitStrategy::Block);
        let decode_tracer = tracer.cloned();
        let mut index = first_index;
        let pump = spawn_pump(
            Box::new(src),
            tx,
            move |m| {
                if let Some(t) = &decode_tracer {
                    let at = now_ns();
                    t.log(Kind::Decode, index, at, at);
                }
                index += 1;
                (index - 1, m)
            },
            PumpConfig::default(),
            &rec,
            stats,
        );
        let mut digest = ReplayDigest::default();
        let mut buf = Vec::with_capacity(64);
        while digest.records < self.records {
            if rx.recv_batch(&mut buf, 64) == 0 {
                break; // pump died: the digest mismatch reports it
            }
            // Dropping the message hands its slab back to the pinned pool.
            for (i, m) in buf.drain(..) {
                let mut fold = || digest.add(m.shard.0, m.seq, payload_sum(&m.payload));
                match tracer {
                    Some(t) => t.span(Kind::Sink, i, fold),
                    None => fold(),
                }
            }
        }
        drop(rx);
        if pump.join().is_err() {
            digest.records = u64::MAX; // an IngressError is a failed pass
        }
        digest
    }
}
