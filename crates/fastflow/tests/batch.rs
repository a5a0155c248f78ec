//! Integration coverage for the batched data path: `send_batch` /
//! `recv_batch` under real two-thread contention, and the pipeline/farm
//! burst loops at degenerate burst sizes (1 = the old item-at-a-time path,
//! huge = one flush per stream).

use std::thread;

use fastflow::{Pipeline, WaitStrategy};

/// Two threads, batched producer vs batched consumer, capacities far below
/// the stream length: every item must arrive exactly once, in order.
#[test]
fn send_batch_recv_batch_no_lost_dup_or_reordered() {
    const N: u64 = 200_000;
    for (cap, burst) in [(8usize, 3usize), (64, 64), (16, 97)] {
        let (tx, rx) = fastflow::channel::<u64>(cap, WaitStrategy::Block);
        let producer = thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                let hi = (next + burst as u64).min(N);
                tx.send_batch(next..hi).expect("receiver alive");
                next = hi;
            }
        });
        let mut expected = 0u64;
        let mut buf = Vec::with_capacity(burst);
        loop {
            let n = rx.recv_batch(&mut buf, burst);
            if n == 0 {
                break;
            }
            for v in buf.drain(..) {
                assert_eq!(v, expected, "cap={cap} burst={burst}");
                expected += 1;
            }
        }
        assert_eq!(expected, N, "cap={cap} burst={burst}");
        producer.join().unwrap();
    }
}

/// Mixed single-item and batched operations on the same channel interleave
/// without corrupting the order.
#[test]
fn mixed_single_and_batched_ops_interleave() {
    let (tx, rx) = fastflow::channel::<u32>(32, WaitStrategy::Yield);
    let producer = thread::spawn(move || {
        for base in 0..1000u32 {
            if base % 3 == 0 {
                tx.send(base * 10).unwrap();
            } else {
                tx.send_batch((base * 10)..(base * 10 + 3)).unwrap();
            }
        }
    });
    let mut got = Vec::new();
    let mut buf = Vec::new();
    loop {
        if got.len() % 2 == 0 {
            match rx.recv() {
                Some(v) => got.push(v),
                None => break,
            }
        } else if rx.recv_batch(&mut buf, 7) == 0 {
            break;
        } else {
            got.append(&mut buf);
        }
    }
    producer.join().unwrap();
    let mut expected = Vec::new();
    for base in 0..1000u32 {
        if base % 3 == 0 {
            expected.push(base * 10);
        } else {
            expected.extend((base * 10)..(base * 10 + 3));
        }
    }
    assert_eq!(got, expected);
}

/// The pipeline burst loops must produce identical results at burst=1
/// (pre-batching behaviour), the default, and a burst larger than both the
/// stream and every queue capacity.
#[test]
fn pipeline_results_are_burst_invariant() {
    let expected: Vec<u64> = (0..5_000).map(|x| x * 2 + 1).collect();
    for burst in [1usize, 32, 100_000] {
        let out = Pipeline::builder()
            .capacity(16)
            .burst(burst)
            .from_iter(0..5_000u64)
            .map(|x| x * 2)
            .map(|x| x + 1)
            .collect();
        assert_eq!(out, expected, "burst={burst}");
    }
}

/// Ordered farms must keep exact input order through the emitter multi-push
/// and the collector's batched merge, at every burst size.
#[test]
fn ordered_farm_is_burst_invariant() {
    let expected: Vec<u64> = (0..3_000).map(|x| x * 7).collect();
    for burst in [1usize, 5, 64, 4096] {
        let out = Pipeline::builder()
            .capacity(8)
            .burst(burst)
            .from_iter(0..3_000u64)
            .farm_ordered(4, |_| fastflow::node::map(|x: u64| x * 7))
            .collect();
        assert_eq!(out, expected, "burst={burst}");
    }
}

/// Unordered farm + multi-output nodes: conservation (every item exactly
/// once) under batching.
#[test]
fn unordered_farm_conserves_items_under_batching() {
    let mut out = Pipeline::builder()
        .capacity(4)
        .burst(16)
        .from_iter(0..2_000u32)
        .farm(3, |_| {
            fastflow::node::flat_map(|x: u32| vec![x * 2, x * 2 + 1])
        })
        .collect();
    out.sort_unstable();
    assert_eq!(out, (0..4_000).collect::<Vec<u32>>());
}

/// Dropping the receiver mid-stream with batched senders must terminate
/// every stage thread (no deadlock, no panic).
#[test]
fn early_receiver_drop_with_batching_terminates() {
    let (mut rx, threads) = Pipeline::builder()
        .capacity(4)
        .burst(64)
        .from_iter(0..1_000_000u64)
        .map(|x| x + 1)
        .into_receiver();
    let mut got = 0;
    while got < 10 {
        if rx.recv().is_some() {
            got += 1;
        }
    }
    drop(rx);
    threads.join(); // must not hang
}
