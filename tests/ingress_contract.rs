//! Ingress contract tests — the guarantees the `crates/ingress` layer
//! advertises, exercised through the `hetstream` facade the way an
//! application would use them:
//!
//! * **Resume bit-exactness** — a consumer killed mid-batch loses its
//!   uncommitted work; the successor resumes from committed offsets and
//!   the downstream effect (dedup'd by `(shard, seq)`) is bit-identical
//!   to a never-killed run.
//! * **Seek/rewind determinism** — replays return the same records in
//!   the same order with the same bytes, from `Beginning` or any `At`.
//! * **Backpressure** — a full pipeline channel blocks the pump, not
//!   the test: a slow consumer drains everything, no deadlock.
//! * **Pinned zero-copy landing** — payloads pulled through a
//!   `workload::pinned_pool()` arrive in page-locked slabs and the
//!   delta-scoped copy ledger stays at zero bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use hetstream::ingress::{
    spawn_pump, FileLogSink, FileLogSource, IngressStats, PumpConfig, SeqPos, ShardId, Sink,
    Source, StreamKey,
};
use hetstream::{fastflow, gpusim, telemetry, workload};

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "hetstream_ingress_contract_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// `(shard, seq)`-addressable payload of record `i`: distinct per record
/// so bit-exactness checks mean something.
fn payload(shard: u32, seq: u64) -> Vec<u8> {
    format!("record-{shard}-{seq}-{}", shard as u64 * 1000 + seq).into_bytes()
}

/// Produce `n` records round-robin over `shards`, flushed durable.
fn produce(root: &PathBuf, key: &StreamKey, shards: u32, n: u64) {
    let mut sink = FileLogSink::open(root, key, shards).expect("open sink");
    for i in 0..n {
        let shard = (i % u64::from(shards)) as u32;
        let seq = sink.next_seq(ShardId(shard)).expect("next_seq");
        sink.send(ShardId(shard), &payload(shard, seq))
            .expect("send");
    }
    sink.flush().expect("flush");
}

/// Drain everything currently available from `src` (bounded retries so
/// a broken source cannot hang the test).
fn drain(src: &mut FileLogSource) -> Vec<(u32, u64, Vec<u8>)> {
    let mut got = Vec::new();
    let mut raw = Vec::new();
    let mut dry = 0;
    while dry < 3 {
        raw.clear();
        if src.next_batch(&mut raw, 64).expect("next_batch") == 0 {
            dry += 1;
            continue;
        }
        dry = 0;
        for m in raw.drain(..) {
            got.push((m.shard.0, m.seq, m.payload.to_vec()));
        }
    }
    got
}

#[test]
fn resume_is_bit_exact_after_a_midstream_kill() {
    let root = temp_root("resume");
    let key = StreamKey::new("contract.resume").expect("key");
    produce(&root, &key, 2, 12);

    // First incarnation: consume 6 records but commit only 4 — the last
    // in-flight record per shard dies with the process (simulated by
    // dropping the source without committing it).
    let mut seen_a = Vec::new();
    {
        let mut a =
            FileLogSource::open_resume(&root, &key, "g", fastflow::BufPool::new()).expect("open a");
        let mut raw = Vec::new();
        while seen_a.len() < 6 {
            raw.clear();
            a.next_batch(&mut raw, 2).expect("next_batch");
            for m in raw.drain(..) {
                seen_a.push((m.shard.0, m.seq, m.payload.to_vec()));
            }
        }
        let mut last_committed: BTreeMap<u32, u64> = BTreeMap::new();
        for (shard, seq, _) in seen_a.iter().take(4) {
            a.commit(ShardId(*shard), seq + 1).expect("commit");
            last_committed.insert(*shard, seq + 1);
        }
        // Crash here: records 5 and 6 were consumed but never committed.
    }

    // Second incarnation resumes from the committed offsets: it must
    // re-deliver the uncommitted tail (at-least-once at the transport)
    // and nothing before it.
    let mut b =
        FileLogSource::open_resume(&root, &key, "g", fastflow::BufPool::new()).expect("open b");
    let seen_b = drain(&mut b);
    assert!(
        !seen_b.is_empty(),
        "successor must see the uncommitted tail"
    );

    // Downstream dedup by (shard, seq) — the skip rule every egress
    // applies — must reconstruct each record exactly once, bit-exact.
    let mut effect: BTreeMap<(u32, u64), Vec<u8>> = BTreeMap::new();
    for (shard, seq, bytes) in seen_a.iter().chain(seen_b.iter()) {
        effect
            .entry((*shard, *seq))
            .or_insert_with(|| bytes.clone());
    }
    assert_eq!(effect.len(), 12, "every produced record reconstructed");
    for ((shard, seq), bytes) in &effect {
        assert_eq!(
            bytes,
            &payload(*shard, *seq),
            "record ({shard},{seq}) must be bit-exact after resume"
        );
    }
    // No record below its shard's committed offset was re-delivered.
    let mut floors: BTreeMap<u32, u64> = BTreeMap::new();
    for (shard, seq, _) in seen_a.iter().take(4) {
        let f = floors.entry(*shard).or_insert(0);
        *f = (*f).max(seq + 1);
    }
    for (shard, seq, _) in &seen_b {
        let floor = floors.get(shard).copied().unwrap_or(0);
        assert!(
            *seq >= floor,
            "shard {shard}: seq {seq} re-delivered below committed floor {floor}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn seek_and_rewind_replay_deterministically() {
    let root = temp_root("seek");
    let key = StreamKey::new("contract.seek").expect("key");
    produce(&root, &key, 2, 16);

    let mut src =
        FileLogSource::open_replay(&root, &key, fastflow::BufPool::new()).expect("open replay");
    let first = drain(&mut src);
    assert_eq!(first.len(), 16);

    // Rewind: the exact same records, order and bytes.
    src.rewind().expect("rewind");
    let second = drain(&mut src);
    assert_eq!(first, second, "rewind replay must be deterministic");

    // Seek both shards to seq 5: exactly the suffix, same bytes.
    for shard in src.assigned_shards() {
        src.seek(shard, SeqPos::At(5)).expect("seek");
    }
    let suffix = drain(&mut src);
    let expect: Vec<_> = first.iter().filter(|(_, q, _)| *q >= 5).cloned().collect();
    assert_eq!(suffix.len(), expect.len());
    let as_set: BTreeSet<_> = suffix.iter().cloned().collect();
    assert_eq!(as_set, expect.into_iter().collect::<BTreeSet<_>>());

    // Seek to End: nothing until a producer appends.
    for shard in src.assigned_shards() {
        src.seek(shard, SeqPos::End).expect("seek end");
    }
    assert!(drain(&mut src).is_empty(), "End means only-new-records");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pump_backpressure_blocks_without_deadlock() {
    let root = temp_root("backpressure");
    let key = StreamKey::new("contract.bp").expect("key");
    produce(&root, &key, 2, 64);

    let rec = telemetry::Recorder::enabled();
    let stats = IngressStats::new(&rec, "contract.bp");
    let src =
        FileLogSource::open_replay(&root, &key, fastflow::BufPool::new()).expect("open replay");
    // A 4-deep channel against 64 records: the pump must block on the
    // full channel (backpressure), not drop or deadlock.
    let (tx, rx) = fastflow::channel::<(u32, u64)>(4, fastflow::WaitStrategy::Block);
    let pump = spawn_pump(
        Box::new(src),
        tx,
        |m| (m.shard.0, m.seq),
        PumpConfig::default(),
        &rec,
        stats,
    );
    let mut got = Vec::new();
    let mut buf = Vec::new();
    while got.len() < 64 {
        buf.clear();
        if rx.recv_batch(&mut buf, 2) == 0 {
            panic!("pump hung up early with {}/64 delivered", got.len());
        }
        // Slow consumer: keep the channel pinned near full.
        std::thread::sleep(std::time::Duration::from_micros(200));
        got.append(&mut buf);
    }
    assert_eq!(pump.join().expect("pump result"), 64);
    // Each pull is sized by the channel, so no batch outgrows its depth.
    let pulls: Vec<u64> = rec
        .flight_snapshot()
        .iter()
        .filter(|e| e.kind == telemetry::FlightKind::IngressBatch)
        .map(|e| e.a)
        .collect();
    assert_eq!(pulls.iter().sum::<u64>(), 64, "pulls: {pulls:?}");
    assert!(
        pulls.iter().all(|&n| n <= 4),
        "a pull outgrew the channel: {pulls:?}"
    );
    // Dense and in order per shard: 0, 1, …, 31 on each of the two.
    for shard in 0..2 {
        let seqs: Vec<u64> = got
            .iter()
            .filter(|(s, _)| *s == shard)
            .map(|&(_, q)| q)
            .collect();
        assert_eq!(seqs, (0..32).collect::<Vec<u64>>(), "shard {shard}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pinned_pool_ingress_lands_pinned_with_zero_copies() {
    let root = temp_root("pinned");
    let key = StreamKey::new("contract.pinned").expect("key");
    produce(&root, &key, 2, 8);

    let rec = telemetry::Recorder::default();
    let stats = IngressStats::new(&rec, "contract.pinned");
    let ledger = telemetry::copy::CopyLedger::new();
    let src = FileLogSource::open_replay(&root, &key, workload::pinned_pool::<u8>())
        .expect("open replay");
    let (tx, rx) = fastflow::channel::<bool>(16, fastflow::WaitStrategy::Block);
    let pump = spawn_pump(
        Box::new(src),
        tx,
        |m| gpusim::pinned::is_pinned(&m.payload[..]),
        PumpConfig {
            ledger: Some(ledger.clone()),
        },
        &rec,
        stats,
    );
    let mut got = Vec::new();
    while got.len() < 8 {
        if rx.recv_batch(&mut got, 8) == 0 {
            panic!("pump hung up early");
        }
    }
    assert_eq!(pump.join().expect("pump result"), 8);
    assert!(
        got.iter().all(|&pinned| pinned),
        "every payload must land in a page-locked slab"
    );
    let stats = ledger.stats();
    assert_eq!(
        stats.bytes_copied(),
        0,
        "pooled pinned ingress path copied bytes: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
