//! Quickstart: annotate a stream region with SPar-style attributes.
//!
//! The paper's programming model in 30 lines: a source generating stream
//! items, a stateless replicated stage (`Replicate`), and a last stage
//! that receives them in stream order. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hetstream::prelude::*;

fn main() {
    let workers = 4usize;

    // A stream of "sensor readings"; the stage computes a rolling checksum
    // per item; the last stage consumes them in stream order.
    let mut received = Vec::new();
    to_stream! {
        ordered;
        source(output(reading)) |em| {
            for i in 0..32u64 {
                let reading = (i, i * 37 % 101);
                em.send(reading);
            }
        };
        stage(input(reading), output(scored), replicate = workers)
        |reading: (u64, u64)| -> (u64, u64) {
            let (seq, value) = reading;
            // some per-item computation
            let score = (0..1000).fold(value, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
            (seq, score)
        };
        last_stage(input(scored)) |scored: (u64, u64)| {
            received.push(scored);
        };
    }

    assert_eq!(received.len(), 32);
    assert!(
        received.windows(2).all(|w| w[0].0 < w[1].0),
        "order preserved"
    );
    println!(
        "processed {} items in stream order across {workers} replicas",
        received.len()
    );

    // The same region through the builder API (what the macro expands to).
    let squares = ToStream::new()
        .source_iter(1..=10u64)
        .stage(2, |x| x * x)
        .collect();
    println!("squares: {squares:?}");
    assert_eq!(squares, (1..=10).map(|x| x * x).collect::<Vec<_>>());
}
