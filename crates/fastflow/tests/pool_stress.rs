//! Stress tests for the buffer pool layer: MPMC acquire/release from many
//! threads with no double-hand-out, bounded per-class capacity under
//! flooding (the fault-injected-OOM shape: a burst of releases when a
//! halved retry ladder unwinds), and the sink → source recycle channel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fastflow::{recycler, BufPool};

#[path = "../../telemetry/src/deadline.rs"]
mod deadline;
use deadline::within_deadline;

/// Many threads acquire, tag, re-check and release concurrently. If the
/// pool ever handed the same buffer to two threads at once, a thread
/// would observe another thread's tag inside its "exclusively owned"
/// buffer.
#[test]
fn concurrent_acquire_release_never_double_hands_out() {
    within_deadline(|| {
        const THREADS: usize = 8;
        const ROUNDS: usize = 2_000;
        let pool: BufPool<u64> = BufPool::new();
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = pool.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let tag = t as u64 + 1;
                    barrier.wait();
                    for round in 0..ROUNDS {
                        // Vary the length so different size classes mix.
                        let len = 1 + (round % 300);
                        let mut buf = pool.acquire(len);
                        assert_eq!(buf.len(), len, "acquire must honour the request");
                        assert!(
                            buf.iter().all(|&v| v == 0),
                            "acquired buffer must arrive zeroed"
                        );
                        buf.fill(tag);
                        std::thread::yield_now();
                        assert!(
                            buf.iter().all(|&v| v == tag),
                            "buffer mutated while exclusively owned: double hand-out"
                        );
                        // Dropping returns it to the pool for the other threads.
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(
            stats.outstanding, 0,
            "every buffer must be back in the pool"
        );
        assert_eq!(
            stats.hits + stats.misses,
            (THREADS * ROUNDS) as u64,
            "every acquire is either a hit or a miss"
        );
        assert!(
            stats.hits > 0,
            "recycling must kick in under sustained traffic: {stats:?}"
        );
    });
}

/// Flooding one size class with more buffers than the ring holds — the
/// release burst an OOM-halving retry ladder produces when it unwinds —
/// must shed the surplus instead of growing without bound.
#[test]
fn per_class_capacity_is_respected_under_release_floods() {
    within_deadline(|| {
        let per_class = 4;
        let pool: BufPool<u8> = BufPool::with_capacity(per_class);
        // Hold more buffers of one class than the ring can take back.
        let held: Vec<_> = (0..per_class * 4).map(|_| pool.acquire(100)).collect();
        let stats = pool.stats();
        assert_eq!(stats.outstanding, (per_class * 4) as u64);
        drop(held);
        let stats = pool.stats();
        assert_eq!(stats.outstanding, 0);
        assert!(
            stats.shed >= (per_class * 2) as u64,
            "the surplus must be shed, not hoarded: {stats:?}"
        );
        // The survivors are still served from the ring.
        let before = pool.stats().hits;
        drop(pool.acquire(100));
        assert_eq!(pool.stats().hits, before + 1);
    });
}

/// The sink→source recycle channel under contention: every buffer that a
/// "sink" thread gives back is observed by exactly one "worker".
#[test]
fn recycle_channel_cycles_buffers_across_threads() {
    within_deadline(|| {
        const WORKERS: usize = 4;
        const ITEMS: usize = 5_000;
        let chan = recycler::<Vec<u8>>(WORKERS * 2);
        let produced = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            // Bounded, like a real pipeline: workers block when the sink lags,
            // so the feedback loop actually gets a chance to cycle.
            let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(WORKERS);
            for _ in 0..WORKERS {
                let chan = chan.clone();
                let tx = tx.clone();
                let produced = Arc::clone(&produced);
                s.spawn(move || loop {
                    let n = produced.fetch_add(1, Ordering::Relaxed);
                    if n >= ITEMS {
                        break;
                    }
                    let mut buf = chan.take().unwrap_or_default();
                    buf.clear();
                    buf.resize(256, n as u8);
                    tx.send(buf).unwrap();
                });
            }
            drop(tx);
            let sink_chan = chan.clone();
            s.spawn(move || {
                // The sink: consume and feed buffers back upstream.
                for buf in rx {
                    sink_chan.give(buf);
                }
            });
        });
        let stats = chan.counters().snapshot();
        assert_eq!(
            stats.hits + stats.misses,
            ITEMS as u64,
            "every worker take is a hit or a miss"
        );
        assert!(stats.hits > 0, "the feedback loop must recycle: {stats:?}");
    });
}
