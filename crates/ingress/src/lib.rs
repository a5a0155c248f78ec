//! Stream ingress/egress: the boundary where external records enter and
//! leave the runtime.
//!
//! Everything upstream of this crate was born in-process — harness
//! generator loops feeding farms. This layer adds the missing edge in
//! the sea-streamer mold: streams are addressed by
//! [`StreamKey`] + [`ShardId`] + [`SequenceNo`], consumed live (TCP),
//! replayed, or resumed from a group's committed offsets. A pipeline
//! sees a stream only through [`Source`]'s two methods, its key and
//! [`Source::next_batch`]; repositioning ([`FileLogSource::seek`],
//! [`FileLogSource::rewind`]) and offset commits belong to the file log,
//! the one transport that can replay. Producers batch in-flight sends and
//! learn durability through acknowledged [`Receipt`]s. A receipt is a
//! position in its sink's ack count, so a send allocates nothing for it
//! and the file sink keeps nothing per record in flight.
//!
//! Two transports implement the contract:
//!
//! * [`filelog`] — a segmented on-disk log with an offset index,
//!   fsync-on-ack durability, and restart-and-resume consumer offsets;
//! * [`tcp`] — a length-prefixed TCP transport with windowed in-flight
//!   sends and ack frames, for live feeds.
//!
//! Payloads are [`Payload`] views of [`fastflow::PooledBuf`] slabs
//! acquired from the pool the caller supplies — hand a
//! `workload::pinned_pool()` and external bytes are read straight into
//! page-locked slabs, so the downstream offload path keeps its zero-copy
//! guarantee (the copy ledger stays at 0 bytes/batch). The file log
//! reads a block of segment bytes per slab and its records share it; a
//! slab returns to the pool when its last view drops. [`pump`] routes a
//! source's shards into the batched `fastflow` channels that feed
//! existing `Workload` pipelines.

#![deny(missing_docs)]

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fastflow::PooledBuf;

mod crc;
pub mod filelog;
pub mod pump;
pub mod tcp;

pub use crc::crc32;
pub use filelog::{FileLogSink, FileLogSource, GroupOffsets};
pub use pump::{spawn_pump, IngressStats, PumpConfig, PumpHandle};
pub use tcp::{TcpIngressServer, TcpSink, TcpSource};

/// A validated stream name: 1–64 chars of `[a-z0-9._-]`. Doubles as the
/// on-disk directory name for the file transport, hence the restriction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamKey(String);

impl StreamKey {
    /// Validate `name` as a stream key.
    pub fn new(name: impl Into<String>) -> Result<StreamKey, IngressError> {
        let name = name.into();
        let ok = !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"._-".contains(&b));
        if ok {
            Ok(StreamKey(name))
        } else {
            Err(IngressError::BadKey(name))
        }
    }

    /// The key as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for StreamKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// One shard (partition) of a stream. Records are totally ordered
/// *within* a shard, unordered across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Position of a record within its shard: dense, starting at 0.
pub type SequenceNo = u64;

/// Where to (re)position a shard cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqPos {
    /// The oldest retained record.
    Beginning,
    /// Past the newest record — i.e. only new data from here on.
    End,
    /// The record with this sequence number.
    At(SequenceNo),
}

/// One record delivered by a [`Source`]: its shard address plus the
/// payload in pool memory (pinned, when the pool is a
/// `workload::pinned_pool()`).
#[derive(Debug)]
pub struct Message {
    /// The shard this record belongs to.
    pub shard: ShardId,
    /// Its position within the shard.
    pub seq: SequenceNo,
    /// The record payload, in a pool-acquired slab.
    pub payload: Payload,
}

/// A record's bytes: a range of a pool slab, read as `[u8]`.
///
/// Either a whole slab of its own (one record per buffer, as the TCP
/// transport reads them) or a view of a block slab it shares with its
/// neighbours in the segment. A shared slab lives until its last view
/// drops, on whichever thread that happens — parking one record retains
/// its whole block.
pub struct Payload(Repr);

enum Repr {
    Whole(PooledBuf<u8>),
    View(Arc<PooledBuf<u8>>, Range<usize>),
}

impl Payload {
    /// The bytes `range` of `slab`, keeping the slab alive.
    pub(crate) fn view(slab: &Arc<PooledBuf<u8>>, range: Range<usize>) -> Payload {
        Payload(Repr::View(Arc::clone(slab), range))
    }
}

impl From<PooledBuf<u8>> for Payload {
    /// The whole of `slab`, unshared: no allocation.
    fn from(slab: PooledBuf<u8>) -> Payload {
        Payload(Repr::Whole(slab))
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Whole(slab) => slab,
            Repr::View(slab, range) => &slab[range.clone()],
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Errors from ingress transports.
#[derive(Debug)]
pub enum IngressError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// The on-disk or on-wire data failed validation (CRC, framing).
    Corrupt(String),
    /// The peer or transport has shut down.
    Closed,
    /// An invalid stream key.
    BadKey(String),
    /// The shard id is not part of this stream / assignment.
    UnknownShard(ShardId),
}

impl fmt::Display for IngressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngressError::Io(e) => write!(f, "ingress i/o: {e}"),
            IngressError::Corrupt(what) => write!(f, "ingress corrupt data: {what}"),
            IngressError::Closed => write!(f, "ingress transport closed"),
            IngressError::BadKey(k) => write!(f, "invalid stream key: {k:?}"),
            IngressError::UnknownShard(s) => write!(f, "unknown shard {s}"),
        }
    }
}

impl std::error::Error for IngressError {}

impl From<std::io::Error> for IngressError {
    fn from(e: std::io::Error) -> Self {
        IngressError::Io(e)
    }
}

/// A sharded record source (consumer side of a stream): what a pump
/// reads.
///
/// `next_batch` is non-blocking-ish: it returns however many records are
/// available now (up to `max`), possibly 0 — liveness (wait/retry) is
/// the caller's policy, usually [`pump::spawn_pump`]'s idle backoff.
pub trait Source: Send {
    /// The stream this source consumes.
    fn stream_key(&self) -> &StreamKey;

    /// Append up to `max` available records to `out`, round-robin across
    /// the source's shards. Returns how many were appended (0 = nothing
    /// available right now).
    fn next_batch(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, IngressError>;
}

/// Producer-side acknowledgement of one sent record. Starts pending;
/// flips acked exactly when the record is durable (fsynced, or
/// ack-framed by the TCP peer).
///
/// A receipt is a position in its sink's ack count: the sink counts the
/// sends it has had acked in one shared cell, and the receipt of its
/// `n`-th send (from 0) is acked once that count passes `n`. Both
/// transports ack in send order, so that is exact, and a send allocates
/// nothing for its receipt. Clones read the same cell.
#[derive(Debug, Clone)]
pub struct Receipt {
    shard: ShardId,
    seq: SequenceNo,
    n: u64,
    acked: Arc<AtomicU64>,
}

impl Receipt {
    /// The shard the record was sent to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The sequence number the transport assigned to the record.
    pub fn seq(&self) -> SequenceNo {
        self.seq
    }

    /// True once the record is durable.
    pub fn is_acked(&self) -> bool {
        self.acked.load(Ordering::Acquire) > self.n
    }
}

/// A sink's side of its receipts: how many sends it has issued receipts
/// for, and the ack count they read. Only the owning sink writes the
/// count, and only ever forward, in send order. Its stores are `Release`
/// and pair with the `Acquire` load in [`Receipt::is_acked`]; the sink's
/// own reads need no ordering.
#[derive(Debug, Default)]
pub(crate) struct AckCount {
    sent: u64,
    acked: Arc<AtomicU64>,
}

impl AckCount {
    /// The receipt of the next send, `(shard, seq)`.
    pub(crate) fn issue(&mut self, shard: ShardId, seq: SequenceNo) -> Receipt {
        let n = self.sent;
        self.sent += 1;
        Receipt {
            shard,
            seq,
            n,
            acked: Arc::clone(&self.acked),
        }
    }

    /// Sends issued and not yet acked.
    pub(crate) fn in_flight(&self) -> u64 {
        self.sent - self.acked.load(Ordering::Relaxed)
    }

    /// Ack the oldest unacked send.
    pub(crate) fn ack_one(&self) {
        debug_assert!(self.in_flight() > 0, "ack with nothing in flight");
        self.acked.fetch_add(1, Ordering::Release);
    }

    /// Ack every send issued so far.
    pub(crate) fn ack_all(&self) {
        self.acked.store(self.sent, Ordering::Release);
    }
}

/// A sharded record sink (producer side of a stream).
///
/// Sends are batched: a [`send`](Sink::send) may buffer; receipts ack on
/// [`flush`](Sink::flush) (or earlier, at the transport's discretion —
/// e.g. when the in-flight window fills and the sink syncs internally).
pub trait Sink: Send {
    /// Queue one record for `shard`; the returned receipt acks when the
    /// record is durable.
    fn send(&mut self, shard: ShardId, payload: &[u8]) -> Result<Receipt, IngressError>;

    /// Make every queued record durable and ack its receipt.
    fn flush(&mut self) -> Result<(), IngressError>;
}

#[cfg(test)]
#[path = "../../telemetry/src/deadline.rs"]
mod deadline;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_keys_validate() {
        assert!(StreamKey::new("fig1-pixels.v2").is_ok());
        assert!(StreamKey::new("").is_err());
        assert!(StreamKey::new("Upper").is_err());
        assert!(StreamKey::new("has space").is_err());
        assert!(StreamKey::new("a/b").is_err());
        assert!(StreamKey::new("x".repeat(65)).is_err());
    }

    #[test]
    fn receipts_start_pending_and_ack_once() {
        let mut count = AckCount::default();
        let r = count.issue(ShardId(3), 17);
        assert!(!r.is_acked());
        assert_eq!(r.shard(), ShardId(3));
        assert_eq!(r.seq(), 17);
        let clone = r.clone();
        count.ack_one();
        assert!(clone.is_acked(), "a clone taken before the ack sees it");
        assert_eq!(count.in_flight(), 0);
    }

    #[test]
    fn a_receipt_is_acked_once_the_count_passes_its_position() {
        let mut count = AckCount::default();
        let receipts: Vec<Receipt> = (0..5).map(|i| count.issue(ShardId(0), i)).collect();
        count.ack_one();
        count.ack_one();
        let acked: Vec<bool> = receipts.iter().map(Receipt::is_acked).collect();
        assert_eq!(acked, [true, true, false, false, false]);
        assert_eq!(count.in_flight(), 3);
        count.ack_all();
        assert!(receipts.iter().all(Receipt::is_acked));
        assert_eq!(count.in_flight(), 0);
        let later = count.issue(ShardId(0), 5);
        assert!(!later.is_acked(), "a send after the ack starts pending");
    }
}
