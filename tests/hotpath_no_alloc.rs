//! Acceptance check: the hot-path probes — histogram recording, queue
//! sampling, service spans, end-to-end stamping — must allocate nothing,
//! and neither may an item crossing a farm. A counting global allocator
//! wraps the system one; the single test in this binary (kept alone so no
//! concurrent test thread allocates) takes a baseline, hammers the probes,
//! and demands a zero delta, then runs the farm at two stream lengths and
//! demands that the longer one allocates no more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hetstream::prelude::*;

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

/// One full sweep over every hot-path probe, enabled and disabled.
fn hammer(rec: &Recorder, handle: &telemetry::StageHandle, noop: &telemetry::StageHandle) {
    let disabled = Recorder::default();
    for i in 0..50_000u64 {
        handle.item_in(i as usize % 7);
        let span = handle.begin();
        handle.end(span);
        handle.items_out(1);
        handle.push_stall();
        handle.pop_wait();
        let emit = rec.stamp_ns();
        rec.record_e2e(emit);

        noop.item_in(0);
        let span = noop.begin();
        noop.end(span);
        noop.items_out(1);
        disabled.record_e2e(disabled.stamp_ns());
    }
}

/// Allocations of one `from_iter → farm_ordered(2, map) → for_each` run
/// over `n` items — set-up (threads, rings, burst buffers) included.
fn farm_run_allocations(n: u64, rec: Recorder) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut sum = 0u64;
    Pipeline::builder()
        .recorder(rec)
        .from_iter(0..n)
        .farm_ordered(2, |_| fastflow::node::map(|x: u64| x ^ (x << 7)))
        .for_each(|x| sum = sum.rotate_left(5) ^ x);
    std::hint::black_box(sum);
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Steady state is what the longer of two runs adds to the shorter: the
/// worker messages carry their outputs inline and the accounting keeps no
/// per-flush scratch, so 200 000 more items must cost (next to) nothing.
/// The allowance covers what is not per item: with the recorder on, each
/// stage's span list (capped at 4 096 coalesced entries) grows by
/// doubling, a dozen reallocations per stage at most.
fn farm_items_never_allocate() {
    const SHORT: u64 = 20_000;
    const LONG: u64 = 220_000;
    const ALLOWANCE: usize = 64;
    for (mode, rec) in [
        ("off", Recorder::default as fn() -> Recorder),
        ("on", Recorder::enabled),
    ] {
        farm_run_allocations(SHORT, rec()); // lazy one-time initialisation
        let short = farm_run_allocations(SHORT, rec());
        let long = farm_run_allocations(LONG, rec());
        assert!(
            long <= short + ALLOWANCE,
            "recorder {mode}: {} more items cost {long} - {short} allocations",
            LONG - SHORT
        );
    }
}

#[test]
fn recording_probes_never_allocate() {
    farm_items_never_allocate();

    // Setup allocates (stage registration interns the name, the flow
    // buffer is preallocated); everything after the baseline must not.
    let rec = Recorder::enabled();
    let handle = rec.stage("hot", 0);
    let noop = Recorder::default().stage("hot", 0);

    // Warm once so any lazy initialization is paid before measuring.
    hammer(&rec, &handle, &noop);

    // The measured sweep. The test-harness monitor thread occasionally
    // allocates a couple of times mid-run, which this test cannot control,
    // so retry on a nonzero delta: a *deterministic* hot-path allocation
    // (>= 1 per sweep, typically 50 000+) can never produce a clean
    // attempt, while background noise vanishes on retry.
    let mut deltas = Vec::new();
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        hammer(&rec, &handle, &noop);
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        deltas.push(after - before);
        if after == before {
            break;
        }
    }
    assert_eq!(
        *deltas.last().unwrap(),
        0,
        "hot-path probes allocated on every attempt: {deltas:?} allocation(s) per 50k-item sweep"
    );

    // Sanity: the enabled path really recorded.
    let e2e = rec.report().e2e;
    assert_eq!(e2e.count as usize, 50_000 * (deltas.len() + 1));
}
