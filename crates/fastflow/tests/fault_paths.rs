//! Integration tests for the fail-soft error path: typed stage errors must
//! flow through *full* bounded queues to the sink, retries must not stall
//! the graph (or trip the telemetry watchdog), and
//! `PipelineThreads::join_report` must always join — absorbing stage
//! panics instead of re-raising them.

use std::collections::HashSet;
use std::time::Duration;

use fastflow::{try_map, try_map_with, FaultPolicy, Pipeline, StageError};
use telemetry::Recorder;

/// Many more items than the queue capacity, a stage that permanently
/// rejects some of them: the errors must arrive at the sink as data and
/// the whole graph must drain and join cleanly — no unwinding, no hang.
#[test]
fn typed_stage_errors_drain_full_bounded_queues_and_join() {
    let (mut rx, threads) = Pipeline::builder()
        .capacity(2)
        .from_iter(0..500u64)
        .map(Ok::<u64, StageError>)
        .node(try_map_with(
            |x: u64| {
                if x.is_multiple_of(50) {
                    Err((x, StageError::new("flaky", format!("rejecting {x}"))))
                } else {
                    Ok(x * 2)
                }
            },
            FaultPolicy::NONE,
        ))
        .node(try_map(|x: u64| Ok::<u64, (u64, StageError)>(x + 1)))
        .into_receiver();

    let mut oks = 0usize;
    let mut errs: Vec<StageError> = Vec::new();
    while let Some(stamped) = rx.recv() {
        match stamped.item {
            Ok(_) => oks += 1,
            Err(e) => errs.push(e),
        }
    }
    let report = threads.join_report();
    assert!(report.is_clean(), "unexpected stage panics: {report}");
    assert_eq!(oks, 490);
    assert_eq!(errs.len(), 10);
    assert!(errs.iter().all(|e| e.stage == "flaky" && e.attempts == 1));
}

/// Every item fails once and succeeds on retry; with backoff sleeps inside
/// the stage the bounded queues upstream are full for most of the run. All
/// items must still come out, and an armed watchdog must not report
/// phantom stalls for the retry/backoff pauses.
#[test]
fn retries_with_backoff_do_not_trip_the_stall_watchdog() {
    let rec = Recorder::enabled();
    let watchdog = rec.watchdog(Duration::from_millis(200), 3);
    let out = Pipeline::builder()
        .recorder(rec.clone())
        .capacity(2)
        .from_iter(0..100u64)
        .map(Ok::<u64, StageError>)
        .node(try_map_with(
            {
                let mut seen = HashSet::new();
                move |x: u64| {
                    if seen.insert(x) {
                        Err((x, StageError::new("transient", "first attempt fails")))
                    } else {
                        Ok(x)
                    }
                }
            },
            FaultPolicy::retries(2, Duration::from_micros(200)),
        ))
        .collect();
    let _ = watchdog.stop();
    assert_eq!(out.len(), 100);
    assert!(out.iter().all(|r| r.is_ok()));
    let report = rec.report();
    assert!(
        report.stalls.is_empty(),
        "watchdog flagged retry backoff as a stall: {:?}",
        report.stalls
    );
}

/// A stage that *does* panic mid-stream must not wedge `join_report`: the
/// panic is absorbed into the run report and every other thread is still
/// joined.
#[test]
fn join_report_absorbs_stage_panics_without_reraising() {
    let (mut rx, threads) = Pipeline::builder()
        .capacity(8)
        .from_iter(0..4u64)
        .map(|x: u64| {
            assert!(x != 2, "boom at item 2");
            x
        })
        .into_receiver();
    let mut received = Vec::new();
    while let Some(stamped) = rx.recv() {
        received.push(stamped.item);
    }
    let report = threads.join_report();
    assert!(!report.is_clean());
    assert_eq!(report.panics.len(), 1, "exactly one stage panicked");
    assert!(
        report.panics[0].contains("boom at item 2"),
        "payload preserved: {report}"
    );
    // Items buffered in the panicking stage's batch sink are lost with the
    // unwind — only items 0 and 1 can ever come out, and possibly fewer.
    // (This data loss is exactly why error.rs prefers typed errors.)
    assert!(received.iter().all(|&x| x < 2), "got {received:?}");
}
