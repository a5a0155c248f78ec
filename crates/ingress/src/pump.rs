//! The pump: routes a [`Source`]'s shards into the batched `fastflow`
//! channels that feed `Workload` pipelines.
//!
//! A pump thread loops `source.next_batch` → decode → `send_batch`,
//! parking for 1 ms when the source is dry and blocking on the channel
//! when the pipeline is full (backpressure flows transport ← channel).
//! [`Source`]'s two methods are all it reads: the stream key names its
//! flight handle, `next_batch` feeds it. Each pull asks the source for as
//! many records as the channel holds, so one hand-off can fill the ring.
//! [`PumpHandle::stop`] unparks the thread, so a stop takes effect at
//! once rather than after the idle park. Per shard it registers a
//! [`Counters<Ingress>`](telemetry::Counters) block with the recorder
//! (Prometheus families `hetstream_ingress_*`) and emits
//! [`FlightKind::IngressBatch`] events whose `batch_id` carries the
//! shard id, so replay progress is visible on the live plane.
//!
//! The pump owns its end of the copy story: give [`PumpConfig`] a
//! [`CopyLedger`](telemetry::copy::CopyLedger) and the pump thread runs
//! under a ledger scope, so the "external bytes land in pooled pinned
//! slabs with no extra copy" claim is checkable per pipeline, not just
//! process-wide.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use telemetry::{Counters, FlightKind, Ingress, Recorder};

use crate::{IngressError, Message, Source};

/// How long the pump parks when the source has nothing (the transport's
/// liveness is its own; the pump only polls). A stop cuts the park short.
const IDLE: Duration = Duration::from_millis(1);

/// Tuning for one pump thread.
#[derive(Debug, Clone, Default)]
pub struct PumpConfig {
    /// Optional delta-scoped copy ledger entered for the pump thread's
    /// whole lifetime.
    pub ledger: Option<telemetry::copy::CopyLedger>,
}

/// Shared per-shard ingress counters for one stream, lazily registered
/// with the recorder as shards appear.
#[derive(Debug)]
pub struct IngressStats {
    rec: Recorder,
    stream: String,
    shards: Mutex<HashMap<u32, Arc<Counters<Ingress>>>>,
}

impl IngressStats {
    /// Stats for `stream`, registering into `rec` (which may be
    /// disabled — counters still count, they just go unscraped).
    pub fn new(rec: &Recorder, stream: impl Into<String>) -> Arc<IngressStats> {
        Arc::new(IngressStats {
            rec: rec.clone(),
            stream: stream.into(),
            shards: Mutex::new(HashMap::new()),
        })
    }

    /// The counters for `shard`, creating and registering on first use.
    pub fn counters(&self, shard: u32) -> Arc<Counters<Ingress>> {
        let mut shards = self.shards.lock().expect("ingress stats");
        Arc::clone(shards.entry(shard).or_insert_with(|| {
            let c = Arc::new(Counters::new());
            self.rec.register(&[&self.stream, &shard.to_string()], &c);
            c
        }))
    }
}

/// One shard's share of the batch in hand, beside its counters.
struct ShardTally {
    shard: u32,
    counters: Arc<Counters<Ingress>>,
    records: u64,
    bytes: u64,
    hi: u64,
}

/// Handle to a running pump thread.
pub struct PumpHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<u64, IngressError>>>,
}

impl PumpHandle {
    /// Ask the pump to stop after its current iteration, waking it if it
    /// is parked on a dry source.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }

    /// Stop and join, returning how many records were pumped.
    pub fn join(mut self) -> Result<u64, IngressError> {
        self.stop();
        match self.thread.take() {
            Some(t) => t.join().unwrap_or(Err(IngressError::Closed)),
            None => Err(IngressError::Closed),
        }
    }
}

impl Drop for PumpHandle {
    fn drop(&mut self) {
        self.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spawn a pump: pull batches from `source`, decode each [`Message`]
/// into a pipeline item, and push them down `tx` in batches. The sender
/// is dropped when the pump stops — EOS propagates like any other
/// `fastflow` producer hanging up.
pub fn spawn_pump<T, F>(
    mut source: Box<dyn Source>,
    tx: fastflow::Sender<T>,
    mut decode: F,
    cfg: PumpConfig,
    rec: &Recorder,
    stats: Arc<IngressStats>,
) -> PumpHandle
where
    T: Send + 'static,
    F: FnMut(Message) -> T + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let flight = rec.flight_handle(&format!("ingress:{}", source.stream_key()));
    let thread = std::thread::Builder::new()
        .name("hetstream-ingress-pump".into())
        .spawn(move || {
            let _scope = cfg.ledger.as_ref().map(|l| l.enter());
            let pull = tx.capacity();
            let mut raw: Vec<Message> = Vec::with_capacity(pull);
            // One entry per shard seen, kept for the thread's life: its
            // counters (looked up once) and the current batch's tally.
            let mut shards: Vec<ShardTally> = Vec::new();
            let mut pumped = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                raw.clear();
                let n = source.next_batch(&mut raw, pull)?;
                if n == 0 {
                    std::thread::park_timeout(IDLE);
                    continue;
                }
                // Account per shard before the buffers move on.
                for m in &raw {
                    let i = match shards.iter().position(|t| t.shard == m.shard.0) {
                        Some(i) => i,
                        None => {
                            shards.push(ShardTally {
                                shard: m.shard.0,
                                counters: stats.counters(m.shard.0),
                                records: 0,
                                bytes: 0,
                                hi: 0,
                            });
                            shards.len() - 1
                        }
                    };
                    let t = &mut shards[i];
                    t.records += 1;
                    t.bytes += m.payload.len() as u64;
                    t.hi = t.hi.max(m.seq + 1);
                }
                for t in shards.iter_mut().filter(|t| t.records > 0) {
                    t.counters.add_records(t.records, t.bytes);
                    t.counters.delivered_to(t.hi);
                    flight.emit(
                        FlightKind::IngressBatch,
                        u64::from(t.shard),
                        t.records,
                        t.bytes,
                    );
                    (t.records, t.bytes, t.hi) = (0, 0, 0);
                }
                pumped += n as u64;
                if tx.send_batch(raw.drain(..).map(&mut decode)).is_err() {
                    break; // pipeline hung up: stop pumping
                }
            }
            Ok(pumped)
        })
        .expect("spawn ingress pump thread");
    PumpHandle {
        stop,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::within_deadline;
    use crate::filelog::{FileLogSink, FileLogSource};
    use crate::{ShardId, Sink, StreamKey};

    #[test]
    fn pump_feeds_a_fastflow_channel_and_counts_per_shard() {
        within_deadline(|| {
            let root = std::env::temp_dir().join(format!(
                "hetstream_pump_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let key = StreamKey::new("pumped").expect("valid");
            let mut sink = FileLogSink::open(&root, &key, 2).expect("open sink");
            for i in 0..12u8 {
                sink.send(ShardId((i % 2) as u32), &[i; 8]).expect("send");
            }
            sink.flush().expect("flush");

            let rec = Recorder::enabled();
            let stats = IngressStats::new(&rec, "pumped");
            let src =
                FileLogSource::open_replay(&root, &key, fastflow::BufPool::new()).expect("open");
            let (tx, rx) =
                fastflow::channel::<(u32, u64, usize)>(32, fastflow::WaitStrategy::Block);
            let pump = spawn_pump(
                Box::new(src),
                tx,
                |m| (m.shard.0, m.seq, m.payload.len()),
                PumpConfig::default(),
                &rec,
                Arc::clone(&stats),
            );
            let mut got = Vec::new();
            while got.len() < 12 {
                if rx.recv_batch(&mut got, 16) == 0 {
                    break; // EOS would mean the pump died early
                }
            }
            assert_eq!(got.len(), 12);
            assert!(got.iter().all(|&(_, _, len)| len == 8));
            assert_eq!(pump.join().expect("pump result"), 12);
            assert_eq!(stats.counters(0).snapshot().records, 6);
            assert_eq!(stats.counters(1).snapshot().records, 6);
            assert_eq!(stats.counters(0).snapshot().bytes, 48);
            let prom = rec.prometheus();
            assert!(
                prom.contains("hetstream_ingress_records_total{stream=\"pumped\",shard=\"0\"} 6"),
                "missing ingress family in:\n{prom}"
            );
            // The pump knows what it delivered, not what a consumer
            // committed: a drained stream must not read as lagging.
            assert!(
                !prom.contains("hetstream_ingress_lag"),
                "a drained stream exposes a lag series:\n{prom}"
            );
            let _ = std::fs::remove_dir_all(&root);
        });
    }

    /// A source that never has a record; it reports every poll.
    struct Dry(StreamKey, std::sync::mpsc::Sender<()>);

    impl Source for Dry {
        fn stream_key(&self) -> &StreamKey {
            &self.0
        }
        fn next_batch(&mut self, _: &mut Vec<Message>, _: usize) -> Result<usize, IngressError> {
            let _ = self.1.send(());
            Ok(0)
        }
    }

    #[test]
    fn stop_wakes_a_pump_idling_on_a_dry_source() {
        within_deadline(|| {
            let rec = Recorder::default();
            let (polled, polls) = std::sync::mpsc::channel();
            let (tx, _rx) = fastflow::channel::<()>(4, fastflow::WaitStrategy::Block);
            let pump = spawn_pump(
                Box::new(Dry(StreamKey::new("dry").expect("valid"), polled)),
                tx,
                |_| (),
                PumpConfig::default(),
                &rec,
                IngressStats::new(&rec, "dry"),
            );
            // Stop only once the pump has found the source dry: it is
            // parked for its idle period, or about to be.
            polls.recv().expect("the pump polls its source");
            let t = std::time::Instant::now();
            assert_eq!(pump.join().expect("pump result"), 0);
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "join waited out the idle period: {:?}",
                t.elapsed()
            );
        });
    }
}
