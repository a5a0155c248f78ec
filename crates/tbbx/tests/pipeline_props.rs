//! Randomized tests for the TBB-style pipeline: for any input, any worker
//! count, and any live-token cap, serial-in-order sinks must observe the
//! exact sequential result. Inputs come from the in-tree seeded RNG —
//! deterministic and offline.

use std::sync::{Arc, Mutex};

use simtime::XorShift64;
use tbbx::{Pipeline, TaskPool};

#[path = "../../telemetry/src/deadline.rs"]
mod deadline;
use deadline::within_deadline;

fn for_cases(cases: u64, mut f: impl FnMut(&mut XorShift64)) {
    for case in 0..cases {
        let mut rng = XorShift64::new(0x7BB ^ case);
        f(&mut rng);
    }
}

#[test]
fn in_order_sink_sees_sequential_result() {
    within_deadline(|| {
        for_cases(16, |rng| {
            let input: Vec<u32> = (0..rng.range_usize(0, 300))
                .map(|_| rng.next_u32())
                .collect();
            let workers = rng.range_usize(1, 5);
            let tokens = rng.range_usize(1, 20);
            let pool = Arc::new(TaskPool::new(workers));
            let expected: Vec<u64> = input
                .iter()
                .map(|&x| (x as u64).wrapping_mul(2654435761) >> 3)
                .collect();
            let out = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&out);
            Pipeline::from_iter(input)
                .parallel(|x: u32| (x as u64).wrapping_mul(2654435761) >> 3)
                .serial_in_order(move |v: u64| sink.lock().unwrap().push(v))
                .build()
                .run(&pool, tokens);
            assert_eq!(out.lock().unwrap().clone(), expected);
        });
    });
}

#[test]
fn multi_filter_chains_compose() {
    within_deadline(|| {
        for_cases(16, |rng| {
            let input: Vec<u16> = (0..rng.range_usize(0, 200))
                .map(|_| rng.range_u32(0, 1000) as u16)
                .collect();
            let tokens = rng.range_usize(1, 12);
            let pool = Arc::new(TaskPool::new(3));
            let expected: Vec<u32> = input.iter().map(|&x| (x as u32 + 7) * 3).collect();
            let out = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&out);
            Pipeline::from_iter(input)
                .parallel(|x: u16| x as u32 + 7)
                .serial_out_of_order(|x: u32| x) // serialization point
                .parallel(|x: u32| x * 3)
                .serial_in_order(move |v: u32| sink.lock().unwrap().push(v))
                .build()
                .run(&pool, tokens);
            let mut got = out.lock().unwrap().clone();
            let mut want = expected;
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        });
    });
}
