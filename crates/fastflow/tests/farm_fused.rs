//! The fused farm — fan-out on the upstream thread, merge on the
//! downstream thread, no emitter or collector in between — against a
//! sequential model: every output arity, ordered and unordered, at the
//! queue sizes and burst lengths where a lost wakeup or a wedged merge
//! would show as a hang. `ci.sh` runs this file in release under a
//! wall-clock timeout, so a deadlock fails the build instead of hanging it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fastflow::{node, Emitter, Node, PipeConfig, Pipeline};

#[path = "../../telemetry/src/deadline.rs"]
mod deadline;
use deadline::within_deadline;

const REPLICAS: usize = 2;
/// `on_eos` outputs sit above every stream value.
const FINAL: u64 = 1 << 40;

/// How many outputs an input produces.
#[derive(Clone, Copy, Debug)]
enum Arity {
    /// 0 or 1: odd inputs are dropped.
    Filter,
    /// Exactly 1.
    Map,
    /// Exactly 3.
    Triple,
}

/// What a worker emits for `x` — the sequential model and the node share it.
fn outputs(arity: Arity, x: u64) -> Vec<u64> {
    match arity {
        Arity::Filter if !x.is_multiple_of(2) => vec![],
        Arity::Filter | Arity::Map => vec![x * 3],
        Arity::Triple => vec![x * 3, x * 3 + 1, x * 3 + 2],
    }
}

/// Emits `outputs(arity, x)` per input and, at end-of-stream, one final
/// carrying the number of inputs this replica saw.
struct Counting {
    arity: Arity,
    seen: u64,
}

impl Node for Counting {
    type In = u64;
    type Out = u64;
    fn svc(&mut self, x: u64, out: &mut Emitter<'_, u64>) {
        self.seen += 1;
        for v in outputs(self.arity, x) {
            out.send(v);
        }
    }
    fn on_eos(&mut self, out: &mut Emitter<'_, u64>) {
        out.send(FINAL + self.seen);
    }
}

#[test]
fn every_arity_matches_the_sequential_model_at_every_queue_shape() {
    within_deadline(|| {
        let shipped = PipeConfig::default().capacity;
        for capacity in [1, 2, 64, shipped] {
            // At the shipped depth the stream is long enough for every worker's
            // input ring to wrap four times.
            let n = if capacity == shipped {
                (4 * REPLICAS * shipped) as u64
            } else {
                2_000
            };
            for arity in [Arity::Filter, Arity::Map, Arity::Triple] {
                let model: Vec<u64> = (0..n).flat_map(|x| outputs(arity, x)).collect();
                for ordered in [true, false] {
                    for burst in [1, 32] {
                        let what = format!(
                            "{arity:?} ordered={ordered} capacity={capacity} burst={burst}"
                        );
                        let source = Pipeline::builder()
                            .capacity(capacity)
                            .burst(burst)
                            .from_iter(0..n);
                        let worker = |_| Counting { arity, seen: 0 };
                        let got = if ordered {
                            source.farm_ordered(REPLICAS, worker).collect()
                        } else {
                            source.farm(REPLICAS, worker).collect()
                        };
                        // The finals come last, one per replica, and together
                        // account for every input.
                        let (stream, finals) = got.split_at(got.len() - REPLICAS);
                        assert!(finals.iter().all(|&f| f >= FINAL), "{what}: {finals:?}");
                        assert_eq!(finals.iter().map(|f| f - FINAL).sum::<u64>(), n, "{what}");
                        if ordered {
                            assert_eq!(stream, model, "{what}");
                        } else {
                            let mut sorted = stream.to_vec();
                            sorted.sort_unstable();
                            assert_eq!(sorted, model, "{what}");
                        }
                    }
                }
            }
        }
    });
}

/// The skewed work an on-demand feeder would route around, dealt
/// round-robin instead: with one slot per worker ring and every fifth
/// item slow, the feeder spends most of the run with every ring full. It
/// must park there and still deliver everything, in order.
#[test]
fn on_demand_with_skewed_work_completes_in_order_at_capacity_one() {
    within_deadline(|| {
        const N: u64 = 600;
        let got = Pipeline::builder()
            .capacity(1)
            .from_iter(0..N)
            .farm_ordered(3, |_| {
                node::map(|x: u64| {
                    if x.is_multiple_of(5) {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    x + 7
                })
            })
            .collect();
        assert_eq!(got, (0..N).map(|x| x + 7).collect::<Vec<u64>>());
    });
}

/// At the shipped depth, an ordered round-robin farm whose worker 0 takes
/// 50× longer per item than worker 1: worker 1 runs a full ring ahead, its
/// output ring fills while the merge waits on worker 0, and the merge must
/// still hand everything on in order.
#[test]
fn ordered_merge_holds_while_the_fast_worker_fills_its_ring() {
    within_deadline(|| {
        let depth = PipeConfig::default().capacity;
        let n = (4 * REPLICAS * depth) as u64;
        let spin = |micros: u64| {
            let t = std::time::Instant::now();
            while t.elapsed() < std::time::Duration::from_micros(micros) {
                std::hint::spin_loop();
            }
        };
        let got = Pipeline::builder()
            .from_iter(0..n)
            .farm_ordered(REPLICAS, |replica| {
                let micros = if replica == 0 { 50 } else { 1 };
                node::map(move |x: u64| {
                    spin(micros);
                    x + 7
                })
            })
            .collect();
        assert_eq!(got, (0..n).map(|x| x + 7).collect::<Vec<u64>>());
    });
}

#[test]
fn farm_chains_keep_order() {
    within_deadline(|| {
        const N: u64 = 3_000;
        for capacity in [1, 64] {
            // farm → farm: one relay thread merges the first and feeds the second.
            let got = Pipeline::builder()
                .capacity(capacity)
                .from_iter(0..N)
                .farm_ordered(2, |_| node::map(|x: u64| x * 2))
                .farm_ordered(3, |_| node::flat_map(|x: u64| [x, x + 1]))
                .collect();
            let model: Vec<u64> = (0..N).flat_map(|x| [x * 2, x * 2 + 1]).collect();
            assert_eq!(got, model, "farm → farm, capacity {capacity}");

            // farm → node → farm: the node merges the first farm and feeds the
            // second from its own thread.
            let got = Pipeline::builder()
                .capacity(capacity)
                .from_iter(0..N)
                .farm_ordered(2, |_| {
                    node::filter_map(|x: u64| (!x.is_multiple_of(3)).then_some(x))
                })
                .map(|x| x + 1)
                .farm_ordered(2, |_| node::map(|x: u64| x * 10))
                .collect();
            let model: Vec<u64> = (0..N)
                .filter(|x| !x.is_multiple_of(3))
                .map(|x| (x + 1) * 10)
                .collect();
            assert_eq!(got, model, "farm → node → farm, capacity {capacity}");
        }
    });
}

#[test]
#[should_panic(expected = "worker boom")]
fn worker_panic_is_reraised_at_the_terminal_op() {
    within_deadline(|| {
        // The dead worker's sequence numbers never arrive; the merge must skip
        // them, drain the survivor and end, so the join can surface the panic.
        Pipeline::builder()
            .capacity(2)
            .from_iter(0..10_000u64)
            .farm_ordered(2, |_| {
                node::map(|x: u64| {
                    assert!(x != 501, "worker boom");
                    x
                })
            })
            .for_each(|_| {});
    });
}

#[test]
fn early_sink_drop_stops_the_source() {
    within_deadline(|| {
        const N: u64 = 10_000_000;
        let produced = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&produced);
        let (mut rx, threads) = Pipeline::builder()
            .capacity(4)
            .from_iter((0..N).inspect(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            }))
            .farm_ordered(2, |_| node::map(|x: u64| x))
            .into_receiver();
        let first: Vec<u64> = (0..5)
            .map(|_| rx.recv().expect("five items").item)
            .collect();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
        drop(rx);
        threads.join(); // must not hang
        let produced = produced.load(Ordering::Relaxed);
        assert!(
            produced < N / 10,
            "the source kept running: {produced} items"
        );
    });
}
