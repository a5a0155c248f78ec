//! `farm-finegrain` — the FastFlow TR's grain curve at its overhead-bound
//! end: `u64` items through `from_iter → farm_ordered(2, map) → for_each`
//! with eight xorshift rounds of work each. The SPSC rings, channels, farm
//! emitter/collector and the reorder buffer do all the work; kernels and
//! gpusim none — the bypass workload for every kernel optimisation and the
//! target of every queue optimisation.

use std::sync::Arc;
use std::time::Instant;

use simtime::XorShift64;

use super::{Rep, Scenario, Size, WORKERS};
use crate::pace::now_ns;
use crate::trace::{Kind, Tracer};

/// Eight xorshift rounds: the per-item "work" (≈ 10 ns).
#[inline]
pub fn grain(mut x: u64) -> u64 {
    for _ in 0..8 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Order-sensitive fold, so a reordered or dropped item changes the sum.
#[inline]
fn fold(acc: u64, x: u64) -> u64 {
    acc.rotate_left(5) ^ x
}

/// Item `i` of the stream seeded by `seed`.
#[inline]
fn value(seed: u64, i: u64) -> u64 {
    (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
}

/// Inputs and reference of one `farm-finegrain` run.
pub struct FarmFinegrain {
    seed: u64,
    /// Items per closed-loop repetition.
    n: u64,
    /// Items in a traced repetition (three spans each are kept in memory).
    n_traced: u64,
    /// Serial fold over `n` items.
    pub reference: u64,
    reference_traced: u64,
    serial_items_per_s: f64,
}

fn serial(seed: u64, n: u64) -> u64 {
    (0..n).fold(0, |acc, i| fold(acc, grain(value(seed, i))))
}

impl Scenario for FarmFinegrain {
    const BETWEEN_SPANS: &'static str =
        "runtime (SPSC rings, channels, farm emitter and ordered collector)";

    fn setup(seed: u64, size: Size, _scratch: &std::path::Path) -> Self {
        // The stream is a pure function of (seed, index); mix the seed so
        // neighbouring seeds give unrelated streams.
        let seed = XorShift64::new(seed).next_u64();
        let (n, n_traced) = if size == Size::Smoke {
            (200_000, 20_000)
        } else {
            (250_000, 50_000)
        };
        let t = Instant::now();
        let reference = serial(seed, n);
        let serial_items_per_s = n as f64 / t.elapsed().as_secs_f64();
        let me = FarmFinegrain {
            seed,
            n,
            n_traced,
            reference,
            reference_traced: serial(seed, n_traced),
            serial_items_per_s,
        };
        me.run(n, None);
        me
    }

    fn serial_items_per_s(&self) -> f64 {
        self.serial_items_per_s
    }

    fn serial(&self) -> (u64, f64) {
        let t = Instant::now();
        std::hint::black_box(serial(self.seed, self.n));
        (self.n, t.elapsed().as_secs_f64())
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Rep {
        let (n, want) = match tracer {
            Some(_) => (self.n_traced, self.reference_traced),
            None => (self.n, self.reference),
        };
        let t = Instant::now();
        let (count, sum) = self.run(n, tracer);
        let secs = t.elapsed().as_secs_f64();
        // The ordered checksum cannot say *which* item went wrong: a
        // mismatch fails the whole repetition.
        let failed = if count == n && sum == want { 0 } else { n };
        Rep {
            items: n,
            failed,
            secs,
            ..Rep::default()
        }
    }
}

impl FarmFinegrain {
    /// `(items seen, ordered checksum)` of `n` items through the farm.
    fn run(&self, n: u64, tracer: Option<&Arc<Tracer>>) -> (u64, u64) {
        let seed = self.seed;
        let (mut count, mut sum) = (0u64, 0u64);
        match tracer {
            None => fastflow::Pipeline::builder()
                .from_iter((0..n).map(move |i| value(seed, i)))
                .farm_ordered(WORKERS, |_| fastflow::node::map(grain))
                .for_each(|x| {
                    count += 1;
                    sum = fold(sum, x);
                }),
            Some(tracer) => {
                let (src, work) = (Arc::clone(tracer), Arc::clone(tracer));
                fastflow::Pipeline::builder()
                    .from_iter((0..n).map(move |i| {
                        let start = now_ns();
                        let v = value(seed, i);
                        src.log(Kind::Source, i, start, now_ns());
                        (i, v)
                    }))
                    .farm_ordered(WORKERS, move |_| {
                        let work = Arc::clone(&work);
                        fastflow::node::map(move |(i, v): (u64, u64)| {
                            (i, work.span(Kind::Work, i, || grain(v)))
                        })
                    })
                    .for_each(|(i, x)| {
                        tracer.span(Kind::Sink, i, || {
                            count += 1;
                            sum = fold(sum, x);
                        })
                    })
            }
        }
        (count, sum)
    }
}
