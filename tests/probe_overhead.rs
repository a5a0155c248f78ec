//! Release-gated overhead smoke for the disabled-telemetry path (CI runs
//! it via `cargo test --release`): a probe on a disabled recorder is a
//! branch on a `None` option and must stay in the single-digit-nanosecond
//! range. The threshold is deliberately generous (20 ns against the ~0.7 ns
//! measured on the dev box) so shared-CI jitter cannot flake it, while a
//! regression that adds an atomic RMW or a clock read (~20-60 ns) is still
//! caught. Debug builds skip the check — unoptimized probe code is
//! legitimately tens of ns.

#![cfg(not(debug_assertions))]

use std::hint::black_box;
use std::time::Instant;

use hetstream::prelude::*;

const ITERS: u64 = 2_000_000;

fn ns_per_iter(f: impl Fn()) -> f64 {
    // Median of 5 samples: robust to a scheduler hiccup mid-sample.
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[2]
}

#[test]
fn disabled_probes_stay_branch_only() {
    let rec = Recorder::default();
    let handle = rec.stage("bench", 0);

    let per_probe = ns_per_iter(|| {
        for _ in 0..ITERS {
            handle.item_in(black_box(3));
            let span = handle.begin();
            handle.end(black_box(span));
            handle.items_out(1);
        }
    });
    // 4 probes per iteration; 20 ns/probe is ~30x the measured cost but
    // well below what any accidental clock read or atomic would add.
    assert!(
        per_probe / 4.0 < 20.0,
        "disabled probe cost {:.2} ns — no longer branch-only?",
        per_probe / 4.0
    );

    let per_stamp = ns_per_iter(|| {
        for _ in 0..ITERS {
            let emit = rec.stamp_ns();
            rec.record_e2e(black_box(emit));
        }
    });
    assert!(
        per_stamp / 2.0 < 20.0,
        "disabled stamp/record cost {:.2} ns — reading the clock while disabled?",
        per_stamp / 2.0
    );
}

/// The flight recorder obeys the same discipline: a noop handle (disabled
/// recorder) is one branch, and an enabled emit — clock read, seq claim,
/// five relaxed stores, release publish — stays well under the cost of
/// the work any instrumented hot loop does per item.
#[test]
fn flight_emit_cost_is_bounded() {
    let disabled = Recorder::default();
    let noop = disabled.flight_handle("bench");
    let per_noop = ns_per_iter(|| {
        for i in 0..ITERS {
            noop.emit(FlightKind::BatchFormed, black_box(i), 1, 2);
        }
    });
    assert!(
        per_noop < 20.0,
        "noop flight emit cost {per_noop:.2} ns — no longer branch-only?"
    );

    let rec = Recorder::enabled();
    let handle = rec.flight_handle("bench");
    let per_emit = ns_per_iter(|| {
        for i in 0..ITERS {
            handle.emit(FlightKind::BatchFormed, black_box(i), 1, 2);
        }
    });
    // ~25-60 ns on the dev box (dominated by the clock read); 250 ns is
    // generous for CI yet still catches an accidental lock or allocation.
    assert!(
        per_emit < 250.0,
        "enabled flight emit cost {per_emit:.2} ns — lock or allocation on the emit path?"
    );
}
