//! Acceptance check: producing a record allocates nothing. A receipt is a
//! position in its sink's ack count, so neither transport keeps or makes
//! anything per send: a `FileLogSink` between flushes appends to its
//! buffered writers only, and a warm `TcpSink` writes frames into its
//! buffer and checks ACKs against a window that has stopped growing.
//!
//! A counting global allocator wraps the system one. The single test in
//! this binary (kept alone so no concurrent test thread allocates) warms
//! each sink, then counts a sweep of 1 000 and one of 4 000 sends and
//! demands zero for both. The TCP sweep counts the whole loopback
//! exchange, server included: its reader thread takes every payload slab
//! from a pool that the warm-up filled, and the queue, the ACK buffer and
//! the drain vector have all reached their size. A background allocation
//! (the test harness's monitor thread) can land in a sweep, so a sweep
//! is retried on a nonzero count; a per-send allocation, 1 000 or more a
//! sweep, can never give a clean attempt.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use hetstream::fastflow::BufPool;
use hetstream::ingress::{
    FileLogSink, Message, ShardId, Sink, Source, StreamKey, TcpIngressServer, TcpSink,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Sweep lengths: the sends counted in one attempt.
const SWEEPS: [usize; 2] = [1_000, 4_000];
const SHARDS: u32 = 4;
const PAYLOAD: [u8; 64] = [0x5a; 64];

/// Allocations of `sweep(n)` for each length of [`SWEEPS`], retried until
/// an attempt counts zero for both or five attempts have run.
fn quietest(mut sweep: impl FnMut(usize)) -> Vec<[usize; 2]> {
    let mut attempts = Vec::new();
    for _ in 0..5 {
        let counts = SWEEPS.map(|n| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            sweep(n);
            ALLOCATIONS.load(Ordering::SeqCst) - before
        });
        attempts.push(counts);
        if counts == [0, 0] {
            break;
        }
    }
    attempts
}

fn send_all(sink: &mut impl Sink, n: usize) {
    for i in 0..n {
        let receipt = sink
            .send(ShardId(i as u32 % SHARDS), &PAYLOAD)
            .expect("send");
        std::hint::black_box(receipt);
    }
}

/// `FileLogSink::send` between flushes: the window is never full, so the
/// counted sends only append. Each attempt flushes before it counts, so
/// every sweep starts a fresh fsync window; 5 attempts of 5 000 records
/// stay inside one 4 MiB segment, so no send rolls a segment.
fn file_log_sends(root: &Path) -> Vec<[usize; 2]> {
    let key = StreamKey::new("no-alloc").expect("valid key");
    let mut sink = FileLogSink::open(root, &key, SHARDS)
        .expect("open sink")
        .with_max_in_flight(usize::MAX);
    send_all(&mut sink, 64); // lazy one-time initialisation
    quietest(|n| {
        sink.flush().expect("flush");
        send_all(&mut sink, n);
    })
}

/// A warm `TcpSink` against a loopback server in this process: each
/// counted sweep sends, flushes (every receipt acked) and drains the
/// server's queue, whose records return their slabs to the pool.
fn tcp_sends() -> Vec<[usize; 2]> {
    let key = StreamKey::new("no-alloc").expect("valid key");
    let most = SWEEPS[1];
    let pool = BufPool::<u8>::with_capacity(2 * most);
    let server = TcpIngressServer::bind("127.0.0.1:0", &key, pool, most).expect("bind");
    let mut source = server.source();
    let mut sink = TcpSink::connect(server.addr(), &key, SHARDS).expect("connect");
    let mut got: Vec<Message> = Vec::with_capacity(most);
    let mut round = |n: usize| {
        send_all(&mut sink, n);
        sink.flush().expect("flush");
        while got.len() < n {
            let missing = n - got.len();
            source.next_batch(&mut got, missing).expect("pop");
        }
        got.clear();
    };
    // Fill the pool, the queue and every buffer to their largest size.
    round(most);
    round(most);
    let attempts = quietest(round);
    server.stop();
    attempts
}

#[test]
fn producing_a_record_never_allocates() {
    let root = std::env::temp_dir().join(format!("hetstream_send_no_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let file = file_log_sends(&root);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        file.last(),
        Some(&[0, 0]),
        "FileLogSink allocated between flushes on every attempt, at {SWEEPS:?} sends: {file:?}"
    );

    let tcp = tcp_sends();
    assert_eq!(
        tcp.last(),
        Some(&[0, 0]),
        "a warm TcpSink allocated on every attempt, at {SWEEPS:?} sends: {tcp:?}"
    );
}
