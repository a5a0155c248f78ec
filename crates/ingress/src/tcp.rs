//! Length-prefixed TCP transport: live feeds with windowed in-flight
//! sends and explicit ack frames.
//!
//! Wire format, little-endian: every frame is `[u32 len][u8 kind][body]`
//! where `len` counts the kind byte plus the body.
//!
//! ```text
//! kind 0  HELLO  body = stream key bytes          (client -> server)
//! kind 1  DATA   body = [u32 shard][u64 seq][payload]  (client -> server)
//! kind 2  ACK    body = [u32 shard][u64 seq]      (server -> client)
//! ```
//!
//! The server acks a DATA frame after enqueueing it for the consumer, so
//! a [`Receipt`] acking means "the consumer side holds it", not merely
//! "the kernel buffered it". ACKs of one read burst leave in one write:
//! the server reads frames through a buffer and holds the ACKs it owes
//! until it is about to block — on a read that must go to the socket, or
//! on a full queue — so a producer never waits on an ACK the server has
//! already earned. The queue is bounded, at exactly the `queue_cap` the
//! server was bound with, across all connections: when the pipeline
//! falls behind, enqueue blocks, the connection thread stops reading,
//! TCP flow control fills the producer's window, and
//! [`TcpSink`] blocks in its in-flight window — backpressure end to end
//! with no unbounded buffer anywhere. A connection thread blocked on the
//! full queue parks on the workspace's one [`Signal`], which every pop
//! and the server's stop notify; it has no timed wait.
//!
//! This transport is real-time only: a [`TcpSource`] is a [`Source`] and
//! nothing more. Replay, seeking and offset commits belong to the file
//! log.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use telemetry::sync::Signal;

use crate::{
    AckCount, IngressError, Message, Receipt, SequenceNo, ShardId, Sink, Source, StreamKey,
};

const KIND_HELLO: u8 = 0;
const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;

/// Largest accepted frame body; a frame claiming more is protocol
/// corruption, not a big record.
const MAX_FRAME: usize = 64 << 20;

/// Default bound on the server's consumer queue (messages).
const DEFAULT_QUEUE_CAP: usize = 1024;

/// Default producer in-flight window (unacked sends).
const DEFAULT_MAX_IN_FLIGHT: usize = 64;

/// The server's per-connection read buffer. A payload larger than this
/// is read straight into its slab past the buffer.
const READ_BUF: usize = 64 << 10;

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The server end of one producer connection: frames come in through a
/// buffer, ACKs go out in bursts.
struct Conn<'a> {
    rd: BufReader<&'a TcpStream>,
    /// ACK frames owed for records already enqueued, in order.
    acks: Vec<u8>,
    stop: &'a AtomicBool,
}

impl Conn<'_> {
    /// Fill `buf`, tolerating read-timeout wakeups so `stop` is polled.
    /// Owed ACKs go out before any read that has to wait on the socket.
    /// False on EOF, shutdown or error.
    fn read_full(&mut self, buf: &mut [u8]) -> bool {
        let mut filled = 0;
        while filled < buf.len() {
            if self.stop.load(Ordering::Relaxed) {
                return false;
            }
            if self.rd.buffer().is_empty() && self.send_acks().is_err() {
                return false;
            }
            match self.rd.read(&mut buf[filled..]) {
                Ok(0) => return false,
                Ok(n) => filled += n,
                Err(e) if is_timeout(&e) => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Owe the client an ACK for `(shard, seq)`.
    fn ack(&mut self, shard: u32, seq: u64) {
        self.acks.extend_from_slice(&13u32.to_le_bytes());
        self.acks.push(KIND_ACK);
        self.acks.extend_from_slice(&shard.to_le_bytes());
        self.acks.extend_from_slice(&seq.to_le_bytes());
    }

    /// Write every owed ACK in one `write_all`.
    fn send_acks(&mut self) -> std::io::Result<()> {
        if !self.acks.is_empty() {
            let mut stream: &TcpStream = self.rd.get_ref();
            stream.write_all(&self.acks)?;
            self.acks.clear();
        }
        Ok(())
    }
}

/// Bounded handoff queue between connection threads and the source.
struct SharedQueue {
    q: Mutex<VecDeque<Message>>,
    /// Notified when records leave the queue and when the server stops:
    /// what a connection thread blocked on a full queue parks on.
    room: Signal,
    cap: usize,
    stop: AtomicBool,
}

impl SharedQueue {
    fn new(cap: usize) -> SharedQueue {
        SharedQueue {
            q: Mutex::new(VecDeque::new()),
            room: Signal::new(),
            cap: cap.max(1),
            stop: AtomicBool::new(false),
        }
    }

    /// Enqueue if there is room now; hand `msg` back if the queue is full.
    fn try_push(&self, msg: Message) -> Result<(), Message> {
        let mut q = self.q.lock().expect("ingress queue");
        if q.len() >= self.cap {
            return Err(msg);
        }
        q.push_back(msg);
        Ok(())
    }

    /// Block until there is room (backpressure), then enqueue. Returns
    /// false when the server is stopping.
    fn push(&self, mut msg: Message) -> bool {
        loop {
            // Snapshot the epoch before the checks: a pop or a stop that
            // lands after them bumps it, and the park returns at once.
            let epoch = self.room.epoch();
            if self.stop.load(Ordering::SeqCst) {
                return false;
            }
            msg = match self.try_push(msg) {
                Ok(()) => return true,
                Err(msg) => msg,
            };
            self.room.wait_if(epoch);
        }
    }

    fn pop_many(&self, out: &mut Vec<Message>, max: usize) -> usize {
        let mut q = self.q.lock().expect("ingress queue");
        let n = max.min(q.len());
        out.extend(q.drain(..n));
        drop(q);
        if n > 0 {
            self.room.notify();
        }
        n
    }
}

/// Server half of the TCP transport: accepts producer connections for
/// one stream and queues their records for a [`TcpSource`].
pub struct TcpIngressServer {
    key: StreamKey,
    addr: SocketAddr,
    queue: Arc<SharedQueue>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpIngressServer {
    /// Bind `addr` (port 0 picks a free port) and start accepting
    /// producers for `key`. Payloads are read straight into buffers from
    /// `pool` — hand a pinned pool for the zero-copy path.
    pub fn bind(
        addr: impl ToSocketAddrs,
        key: &StreamKey,
        pool: fastflow::BufPool<u8>,
        queue_cap: usize,
    ) -> Result<TcpIngressServer, IngressError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(SharedQueue::new(if queue_cap == 0 {
            DEFAULT_QUEUE_CAP
        } else {
            queue_cap
        }));
        let accept_queue = Arc::clone(&queue);
        let accept_key = key.clone();
        let accept_pool = pool;
        let accept_thread = std::thread::Builder::new()
            .name("hetstream-ingress-accept".into())
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    // `halt` sets the flag, then connects to wake this
                    // blocking accept: that connection is dropped unserved.
                    if accept_queue.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    let q = Arc::clone(&accept_queue);
                    let k = accept_key.clone();
                    let p = accept_pool.clone();
                    if let Ok(h) = std::thread::Builder::new()
                        .name("hetstream-ingress-conn".into())
                        .spawn(move || serve_producer(stream, k, q, p))
                    {
                        conns.push(h);
                    }
                }
                for h in conns {
                    let _ = h.join();
                }
            })
            .expect("spawn ingress accept thread");
        Ok(TcpIngressServer {
            key: key.clone(),
            addr,
            queue,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A consumer over this server's queue. Multiple sources share the
    /// queue load-balanced (each record goes to exactly one).
    pub fn source(&self) -> TcpSource {
        TcpSource {
            key: self.key.clone(),
            queue: Arc::clone(&self.queue),
        }
    }

    /// Stop accepting and wake blocked connection threads.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.queue.stop.store(true, Ordering::SeqCst);
        self.queue.room.notify();
        if let Some(t) = self.accept_thread.take() {
            // Wake the blocking accept with a connection of our own. If
            // even that fails, the accept thread is left parked rather
            // than joined forever.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for TcpIngressServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One producer connection: HELLO handshake, then DATA frames acked
/// after enqueue. However the connection ends, the records it enqueued
/// are acked.
fn serve_producer(
    stream: TcpStream,
    key: StreamKey,
    queue: Arc<SharedQueue>,
    pool: fastflow::BufPool<u8>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut conn = Conn {
        rd: BufReader::with_capacity(READ_BUF, &stream),
        acks: Vec::new(),
        stop: &queue.stop,
    };
    let mut head = [0u8; 5];
    let mut hello = true;
    // Leaving the loop drops the connection: EOF, shutdown, an I/O error
    // or a protocol violation.
    while conn.read_full(&mut head) {
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        let kind = head[4];
        if len == 0 || len > MAX_FRAME {
            break;
        }
        let body_len = len - 1;
        match (hello, kind) {
            (true, KIND_HELLO) => {
                // A body of any length but this stream key's (at most 64
                // bytes) is refused before a byte of it is read, so a
                // HELLO header cannot make the server allocate or wait
                // for `MAX_FRAME` bytes.
                let want = key.as_str().as_bytes();
                let mut body = [0u8; 64];
                let body = &mut body[..want.len()];
                if body_len != want.len() || !conn.read_full(body) || *body != *want {
                    break; // a wrong stream is refused silently
                }
                hello = false;
            }
            (false, KIND_DATA) => {
                let mut meta = [0u8; 12];
                if body_len < meta.len() || !conn.read_full(&mut meta) {
                    break;
                }
                let shard = u32::from_le_bytes(meta[0..4].try_into().expect("4 bytes"));
                let seq = u64::from_le_bytes(meta[4..12].try_into().expect("8 bytes"));
                let mut payload = pool.acquire(body_len - meta.len());
                if !conn.read_full(&mut payload[..]) {
                    break;
                }
                let msg = Message {
                    shard: ShardId(shard),
                    seq,
                    payload: payload.into(), // the slab, whole and unshared
                };
                if let Err(msg) = queue.try_push(msg) {
                    // About to wait for the consumer: send the ACKs
                    // already earned first.
                    if conn.send_acks().is_err() || !queue.push(msg) {
                        break;
                    }
                }
                // Ack *after* enqueue: the receipt means the consumer
                // side holds the record.
                conn.ack(shard, seq);
            }
            _ => break, // protocol violation
        }
    }
    let _ = conn.send_acks();
}

/// Consumer over a [`TcpIngressServer`]'s queue. Real-time only.
pub struct TcpSource {
    key: StreamKey,
    queue: Arc<SharedQueue>,
}

impl Source for TcpSource {
    fn stream_key(&self) -> &StreamKey {
        &self.key
    }

    fn next_batch(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, IngressError> {
        Ok(self.queue.pop_many(out, max))
    }
}

/// Producer over one TCP connection: batched writes, a bounded in-flight
/// window, receipts acked by the server's ACK frames (in send order).
///
/// A [`Receipt`] is a position in the sink's ack count, which each
/// accepted ACK frame moves up by one. The window keeps only the
/// `(shard, seq)` of each unacked send, to check that the next ACK names
/// the oldest of them: an ACK for anything else is
/// [`IngressError::Corrupt`]. Once the window has grown to its bound, a
/// send allocates nothing.
pub struct TcpSink {
    writer: BufWriter<TcpStream>,
    /// ACKs arrive in bursts; one read takes in the whole burst.
    reader: BufReader<TcpStream>,
    next_seq: Vec<SequenceNo>,
    /// The unacked sends, oldest first: what the next ACK frame must name.
    window: VecDeque<(ShardId, SequenceNo)>,
    acks: AckCount,
    max_in_flight: usize,
}

impl TcpSink {
    /// Connect to a [`TcpIngressServer`] and handshake for `key` with
    /// `shards` sequence counters starting at 0.
    pub fn connect(
        addr: impl ToSocketAddrs,
        key: &StreamKey,
        shards: u32,
    ) -> Result<TcpSink, IngressError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Poll interval for the ack wait, not a deadline: await_one_ack
        // loops on timeout, so a backpressured consumer blocks the sink
        // (as documented) instead of erroring it out.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        let body = key.as_str().as_bytes();
        writer.write_all(&(1 + body.len() as u32).to_le_bytes())?;
        writer.write_all(&[KIND_HELLO])?;
        writer.write_all(body)?;
        writer.flush()?;
        Ok(TcpSink {
            writer,
            reader,
            next_seq: vec![0; shards.max(1) as usize],
            window: VecDeque::new(),
            acks: AckCount::default(),
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        })
    }

    /// Override the in-flight window (unacked sends tolerated before
    /// `send` blocks for acks).
    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    /// Override how often the ack wait re-polls its socket. This bounds
    /// poll latency only — never how long the sink will wait for a
    /// backpressured consumer. Mostly useful to speed up tests.
    pub fn with_ack_poll(self, interval: Duration) -> Result<Self, IngressError> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(interval.max(Duration::from_millis(1))))?;
        Ok(self)
    }

    /// Block until the oldest pending receipt is acked by the server.
    ///
    /// A read-timeout wakeup is *not* an error: the server withholds
    /// acks exactly when the consumer is backpressured, and the
    /// documented contract is that the sink blocks in its in-flight
    /// window until the pipeline drains — however long that takes. A
    /// closed connection (`Ok(0)`) is still a hard [`IngressError::Closed`].
    fn await_one_ack(&mut self) -> Result<(), IngressError> {
        let mut frame = [0u8; 17];
        let mut filled = 0;
        while filled < frame.len() {
            match self.reader.read(&mut frame[filled..]) {
                Ok(0) => return Err(IngressError::Closed),
                Ok(n) => filled += n,
                // A stalled consumer is backpressure: keep waiting.
                Err(e) if is_timeout(&e) => continue,
                Err(e) => return Err(IngressError::Io(e)),
            }
        }
        let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
        if len != 13 || frame[4] != KIND_ACK {
            return Err(IngressError::Corrupt(format!(
                "expected ACK frame, got kind {} len {len}",
                frame[4]
            )));
        }
        let shard = u32::from_le_bytes(frame[5..9].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(frame[9..17].try_into().expect("8 bytes"));
        let Some(&(want_shard, want_seq)) = self.window.front() else {
            return Err(IngressError::Corrupt("unsolicited ACK".into()));
        };
        if want_shard.0 != shard || want_seq != seq {
            return Err(IngressError::Corrupt(format!(
                "ACK out of order: got shard {shard} seq {seq}, expected shard {want_shard} seq {want_seq}"
            )));
        }
        self.window.pop_front();
        self.acks.ack_one();
        Ok(())
    }
}

impl Sink for TcpSink {
    fn send(&mut self, shard: ShardId, payload: &[u8]) -> Result<Receipt, IngressError> {
        let counter = self
            .next_seq
            .get_mut(shard.0 as usize)
            .ok_or(IngressError::UnknownShard(shard))?;
        let seq = *counter;
        *counter += 1;
        let body_len = 12 + payload.len();
        self.writer
            .write_all(&(1 + body_len as u32).to_le_bytes())?;
        self.writer.write_all(&[KIND_DATA])?;
        self.writer.write_all(&shard.0.to_le_bytes())?;
        self.writer.write_all(&seq.to_le_bytes())?;
        self.writer.write_all(payload)?;
        self.window.push_back((shard, seq));
        let receipt = self.acks.issue(shard, seq);
        if self.window.len() >= self.max_in_flight {
            // Window full: push bytes out and absorb acks until there is
            // room again — this is where server-side backpressure lands.
            self.writer.flush()?;
            while self.window.len() >= self.max_in_flight {
                self.await_one_ack()?;
            }
        }
        Ok(receipt)
    }

    fn flush(&mut self) -> Result<(), IngressError> {
        self.writer.flush()?;
        while !self.window.is_empty() {
            self.await_one_ack()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::within_deadline;

    fn key() -> StreamKey {
        StreamKey::new("live").expect("valid key")
    }

    #[test]
    fn produce_ack_consume_over_tcp() {
        within_deadline(|| {
            let server =
                TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 64)
                    .expect("bind");
            let mut sink = TcpSink::connect(server.addr(), &key(), 2).expect("connect");
            let mut receipts = Vec::new();
            for i in 0..10u32 {
                receipts.push(
                    sink.send(ShardId(i % 2), format!("rec-{i}").as_bytes())
                        .expect("send"),
                );
            }
            sink.flush().expect("flush");
            assert!(receipts.iter().all(Receipt::is_acked));
            let mut src = server.source();
            let mut msgs = Vec::new();
            while msgs.len() < 10 {
                if src.next_batch(&mut msgs, 16).expect("pop") == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            assert_eq!(msgs.len(), 10);
            // Per-shard order is preserved and sequences are dense.
            for shard in 0..2u32 {
                let seqs: Vec<u64> = msgs
                    .iter()
                    .filter(|m| m.shard.0 == shard)
                    .map(|m| m.seq)
                    .collect();
                assert_eq!(seqs, (0..5).collect::<Vec<u64>>());
            }
            server.stop();
        });
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_deadlock() {
        within_deadline(|| {
            // Queue of 4, window of 4, 64 records: the producer must block on
            // acks while the consumer drains slowly — and still finish.
            let server = TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 4)
                .expect("bind");
            let addr = server.addr();
            let producer = std::thread::spawn(move || {
                let mut sink = TcpSink::connect(addr, &key(), 1)
                    .expect("connect")
                    .with_max_in_flight(4);
                for i in 0..64u8 {
                    sink.send(ShardId(0), &[i; 100]).expect("send");
                }
                sink.flush().expect("flush");
            });
            let mut src = server.source();
            let mut got = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while got.len() < 64 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "backpressured transfer deadlocked ({} of 64)",
                    got.len()
                );
                if src.next_batch(&mut got, 3).expect("pop") == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                } else {
                    // A slow consumer: drain in dribbles.
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            producer.join().expect("producer");
            assert_eq!(got.len(), 64);
            let seqs: Vec<u64> = got.iter().map(|m| m.seq).collect();
            assert_eq!(seqs, (0..64).collect::<Vec<u64>>());
            server.stop();
        });
    }

    #[test]
    fn consumer_stalled_past_read_timeout_blocks_producer_instead_of_erroring() {
        within_deadline(|| {
            // The exact condition backpressure exists for: the consumer goes
            // quiet for longer than the sink's socket read timeout. The
            // sink must keep waiting for acks (blocked, per the module
            // contract), not fail with Io(TimedOut).
            let server = TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 1)
                .expect("bind");
            let addr = server.addr();
            let producer = std::thread::spawn(move || {
                let mut sink = TcpSink::connect(addr, &key(), 1)
                    .expect("connect")
                    .with_max_in_flight(1)
                    .with_ack_poll(Duration::from_millis(20))
                    .expect("ack poll");
                for i in 0..3u8 {
                    sink.send(ShardId(0), &[i; 50])
                        .expect("send must block through the stall, not time out");
                }
                sink.flush().expect("flush");
            });
            // Stall well past several poll intervals before draining.
            std::thread::sleep(Duration::from_millis(300));
            let mut src = server.source();
            let mut got = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while got.len() < 3 {
                assert!(std::time::Instant::now() < deadline, "transfer wedged");
                if src.next_batch(&mut got, 4).expect("pop") == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            producer.join().expect("producer survived the stall");
            assert_eq!(got.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
            server.stop();
        });
    }

    fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut f = (1 + body.len() as u32).to_le_bytes().to_vec();
        f.push(kind);
        f.extend_from_slice(body);
        f
    }

    fn shard_seq(shard: u32, seq: u64) -> Vec<u8> {
        [&shard.to_le_bytes()[..], &seq.to_le_bytes()].concat()
    }

    fn data(shard: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut body = shard_seq(shard, seq);
        body.extend_from_slice(payload);
        frame(KIND_DATA, &body)
    }

    /// A raw client that has sent nothing yet.
    fn raw_client(server: &TcpIngressServer) -> TcpStream {
        let client = TcpStream::connect(server.addr()).expect("connect");
        client.set_nodelay(true).expect("nodelay");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        client
    }

    /// The bytes of `n` ACK frames, read under the client's timeout.
    fn read_acks(client: &mut TcpStream, n: usize) -> Vec<u8> {
        let mut acks = vec![0u8; 17 * n];
        client.read_exact(&mut acks).expect("acks");
        acks
    }

    /// Pop `n` records, failing after a deadline.
    fn drain(src: &mut TcpSource, n: usize) -> Vec<Message> {
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while got.len() < n {
            assert!(std::time::Instant::now() < deadline, "{} of {n}", got.len());
            let missing = n - got.len();
            if src.next_batch(&mut got, missing).expect("pop") == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        got
    }

    /// HELLO and 100 DATA frames, written by `write`, come back as 100
    /// ACKs in order and land as 100 records.
    fn hundred_frames_yield_hundred_acks(write: impl Fn(&mut TcpStream, &[u8])) {
        let server = TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 128)
            .expect("bind");
        let mut client = raw_client(&server);
        let mut wire = frame(KIND_HELLO, key().as_str().as_bytes());
        let mut want = Vec::new();
        for i in 0..100u64 {
            wire.extend(data(i as u32 % 3, i, &i.to_le_bytes()));
            want.extend(frame(KIND_ACK, &shard_seq(i as u32 % 3, i)));
        }
        write(&mut client, &wire);
        assert_eq!(read_acks(&mut client, 100), want);
        let got = drain(&mut server.source(), 100);
        for (i, m) in got.iter().enumerate() {
            assert_eq!((m.shard.0, m.seq), (i as u32 % 3, i as u64));
            assert_eq!(&m.payload[..], &(i as u64).to_le_bytes());
        }
        server.stop();
    }

    #[test]
    fn a_burst_of_frames_is_acked_in_order() {
        within_deadline(|| {
            hundred_frames_yield_hundred_acks(|client, wire| {
                client.write_all(wire).expect("write")
            });
        });
    }

    #[test]
    fn a_client_trickling_single_bytes_is_acked_in_order() {
        within_deadline(|| {
            hundred_frames_yield_hundred_acks(|client, wire| {
                for b in wire {
                    client.write_all(&[*b]).expect("write");
                }
            });
        });
    }

    #[test]
    fn a_payload_bigger_than_the_read_buffer_arrives_intact() {
        within_deadline(|| {
            let server =
                TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 16)
                    .expect("bind");
            let mut client = raw_client(&server);
            let big: Vec<u8> = (0..100 << 10).map(|i: u32| (i * 31 % 251) as u8).collect();
            assert!(big.len() > READ_BUF);
            let wire = [
                frame(KIND_HELLO, key().as_str().as_bytes()),
                data(0, 0, &big),
                data(0, 1, b"after"),
            ]
            .concat();
            client.write_all(&wire).expect("write");
            let want = [
                frame(KIND_ACK, &shard_seq(0, 0)),
                frame(KIND_ACK, &shard_seq(0, 1)),
            ]
            .concat();
            assert_eq!(read_acks(&mut client, 2), want);
            let got = drain(&mut server.source(), 2);
            assert!(got[0].payload[..] == big[..], "the big payload changed");
            assert_eq!(&got[1].payload[..], b"after");
            server.stop();
        });
    }

    #[test]
    fn no_ack_waits_behind_a_blocked_enqueue() {
        within_deadline(|| {
            // Queue of one and no consumer: record 0 is enqueued, record 1's
            // enqueue blocks. Record 0's ACK must reach the client anyway.
            let server = TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 1)
                .expect("bind");
            let mut src = server.source();
            let mut client = raw_client(&server);
            let mut wire = frame(KIND_HELLO, key().as_str().as_bytes());
            for seq in 0..3 {
                wire.extend(data(0, seq, b"rec"));
            }
            client.write_all(&wire).expect("write");
            assert_eq!(read_acks(&mut client, 1), frame(KIND_ACK, &shard_seq(0, 0)));
            server.stop();
            // Stopping refused record 1, so it is never acked: the connection
            // closes with no further byte.
            let mut rest = [0u8; 1];
            match client.read(&mut rest) {
                Ok(0) => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                other => panic!("expected the connection closed, got {other:?}"),
            }
            let got = drain(&mut src, 1);
            assert_eq!(got[0].seq, 0);
            assert_eq!(src.next_batch(&mut Vec::new(), 8).expect("pop"), 0);
        });
    }

    /// A sink connected to a stand-in server that reads its HELLO and
    /// then writes `acks` whatever the sink sends.
    fn sink_against_acks(acks: Vec<u8>) -> (TcpSink, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let hello = frame(KIND_HELLO, key().as_str().as_bytes());
            let mut got = vec![0u8; hello.len()];
            conn.read_exact(&mut got).expect("hello");
            assert_eq!(got, hello);
            conn.write_all(&acks).expect("acks");
            // Hold the connection open until the sink hangs up.
            let _ = conn.read_to_end(&mut Vec::new());
        });
        let sink = TcpSink::connect(addr, &key(), 2).expect("connect");
        (sink, server)
    }

    #[test]
    fn an_unsolicited_or_out_of_order_ack_is_corrupt() {
        within_deadline(|| {
            let ack = |shard, seq| frame(KIND_ACK, &shard_seq(shard, seq));
            // Records (0, 0) and (1, 0) acked in the wrong order.
            let swapped = [ack(1, 0), ack(0, 0)].concat();
            // Record (0, 0) acked twice: the second names nothing in flight.
            let repeated = [ack(0, 0), ack(0, 0)].concat();
            for (case, acks, acked_first) in
                [("swapped", swapped, false), ("repeated", repeated, true)]
            {
                let (mut sink, server) = sink_against_acks(acks);
                let first = sink.send(ShardId(0), b"a").expect("send");
                let second = sink.send(ShardId(1), b"b").expect("send");
                match sink.flush() {
                    Err(IngressError::Corrupt(_)) => {}
                    other => panic!("{case}: expected Corrupt, got {other:?}"),
                }
                assert_eq!(first.is_acked(), acked_first, "{case}");
                assert!(!second.is_acked(), "{case}: a rejected ACK acked a record");
                drop(sink);
                server.join().expect("stand-in server");
            }
        });
    }

    #[test]
    fn stop_on_an_idle_server_returns_and_closes_the_port() {
        within_deadline(|| {
            let server =
                TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 16)
                    .expect("bind");
            let addr = server.addr();
            let (done, stopped) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                server.stop();
                done.send(()).expect("report");
            });
            stopped
                .recv_timeout(Duration::from_secs(10))
                .expect("stop() did not return");
            assert!(TcpStream::connect(addr).is_err(), "the port still accepts");
        });
    }

    #[test]
    fn an_oversized_hello_is_refused_before_its_body() {
        within_deadline(|| {
            // A HELLO header claiming the largest frame, and no body: the
            // key cannot be that long, so the server drops the connection
            // at once instead of waiting for 64 MiB.
            let server =
                TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 16)
                    .expect("bind");
            let mut client = raw_client(&server);
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut head = (MAX_FRAME as u32).to_le_bytes().to_vec();
            head.push(KIND_HELLO);
            client.write_all(&head).expect("write");
            let mut rest = [0u8; 1];
            match client.read(&mut rest) {
                Ok(0) => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                other => panic!("expected the connection closed, got {other:?}"),
            }
            server.stop();
        });
    }

    #[test]
    fn wrong_stream_key_is_refused() {
        within_deadline(|| {
            let server =
                TcpIngressServer::bind("127.0.0.1:0", &key(), fastflow::BufPool::new(), 16)
                    .expect("bind");
            let other = StreamKey::new("not-live").expect("valid");
            let mut sink = TcpSink::connect(server.addr(), &other, 1).expect("connect");
            // The server drops the connection on the mismatched HELLO; the
            // failure surfaces on the ack path.
            let _ = sink.send(ShardId(0), b"x");
            assert!(sink.flush().is_err(), "mismatched key must not ack");
            server.stop();
        });
    }
}
