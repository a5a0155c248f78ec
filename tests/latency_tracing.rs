//! Integration tests for item-level latency tracing (PR: item-level
//! observability): end-to-end latency recorded from the emitter stamp to
//! the collector, through real FastFlow pipelines/farms and the TBB-style
//! token pipeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hetstream::prelude::*;

const N: u64 = 200;

/// A serial FastFlow pipeline stamps every item at the source and retires
/// it at the sink: the end-to-end histogram must see every item, and the
/// percentiles must be ordered and bounded by the max.
#[test]
fn fastflow_pipeline_records_e2e_latency() {
    let rec = Recorder::enabled();
    let mut n = 0u64;
    Pipeline::builder()
        .recorder(rec.clone())
        .from_iter(0..N)
        .map(|x: u64| {
            std::thread::sleep(Duration::from_micros(20));
            x + 1
        })
        .for_each(|_| n += 1);
    assert_eq!(n, N);

    let e2e = rec.report().e2e;
    assert_eq!(e2e.count, N, "every item must be timed end to end");
    // A 20 us service stage bounds the end-to-end latency from below.
    assert!(e2e.p50_ns >= 20_000, "p50 {} ns", e2e.p50_ns);
    assert!(e2e.p50_ns <= e2e.p90_ns);
    assert!(e2e.p90_ns <= e2e.p95_ns);
    assert!(e2e.p95_ns <= e2e.p99_ns);
    assert!(e2e.p99_ns <= e2e.max_ns);

    // The report carries the same snapshot plus per-stage service
    // percentiles for every stage that processed items.
    let report = rec.report();
    assert_eq!(report.e2e, e2e);
    let (_, stage1) = report
        .stage_latency
        .iter()
        .find(|(name, _)| name == "stage1")
        .expect("stage1 latency row");
    assert_eq!(stage1.count, N);
    assert!(stage1.p50_ns >= 20_000, "service p50 {} ns", stage1.p50_ns);
    // Service time is a component of end-to-end time.
    assert!(stage1.p50_ns <= e2e.max_ns);
}

/// Farms preserve the emit stamp across the fan-out→worker→merge hops,
/// including the ordered merge.
#[test]
fn fastflow_farm_preserves_stamps_through_workers() {
    for ordered in [false, true] {
        let rec = Recorder::enabled();
        let out = {
            let b = Pipeline::builder().recorder(rec.clone()).from_iter(0..N);
            let f = |_| hetstream::fastflow::node::map(|x: u64| x * 2);
            if ordered {
                b.farm_ordered(3, f).collect()
            } else {
                b.farm(3, f).collect()
            }
        };
        assert_eq!(out.len(), N as usize);
        let e2e = rec.report().e2e;
        assert_eq!(
            e2e.count, N,
            "ordered={ordered}: every item must keep its stamp through the farm"
        );
        assert!(e2e.max_ns > 0);
    }
}

/// The TBB-style pipeline stamps items as the source filter produces
/// tokens and retires them when the last filter finishes.
#[test]
fn tbb_pipeline_records_e2e_latency() {
    let pool = Arc::new(hetstream::tbbx::TaskPool::new(3));
    let rec = Recorder::enabled();
    let n = Arc::new(AtomicU64::new(0));
    let n2 = Arc::clone(&n);
    hetstream::tbbx::Pipeline::from_iter(0..N)
        .parallel(|x| x + 1)
        .serial_in_order(move |_| {
            n2.fetch_add(1, Ordering::Relaxed);
        })
        .recorder(rec.clone())
        .build()
        .run(&pool, 8);
    assert_eq!(n.load(Ordering::Relaxed), N);

    let e2e = rec.report().e2e;
    assert_eq!(e2e.count, N);
    assert!(e2e.p50_ns <= e2e.p99_ns && e2e.p99_ns <= e2e.max_ns);
}

/// A disabled recorder must not time anything anywhere in the pipeline.
#[test]
fn disabled_recorder_records_no_latency() {
    let rec = Recorder::default();
    let out = Pipeline::builder()
        .recorder(rec.clone())
        .from_iter(0..N)
        .map(|x: u64| x + 1)
        .collect();
    assert_eq!(out.len(), N as usize);
    assert_eq!(rec.report().e2e.count, 0);
    assert!(rec.report().stage_latency.is_empty());
}
