//! Stress coverage for the Chase–Lev deque and the pool built on it: the
//! owner-vs-thief races the seq-cst fence exists for, and the
//! every-task-runs-exactly-once invariant under concurrent stealing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use tbbx::deque::{deque, deque_with_capacity, Steal};
use tbbx::{Latch, TaskPool};

#[path = "../../telemetry/src/deadline.rs"]
mod deadline;
use deadline::within_deadline;

/// Many thieves hammer one owner that is simultaneously pushing and
/// popping. Every pushed value must be claimed by exactly one side: the
/// union of owner pops and thief steals is a permutation of the input.
#[test]
fn owner_vs_many_stealers_no_loss_no_dup() {
    within_deadline(|| {
        const ITEMS: usize = 100_000;
        const THIEVES: usize = 4;
        // Tiny initial capacity so the race also crosses buffer growth.
        let (worker, stealer) = deque_with_capacity::<usize>(2);
        let done = Arc::new(AtomicBool::new(false));
        let mut thief_handles = Vec::new();
        for _ in 0..THIEVES {
            let stealer = stealer.clone();
            let done = Arc::clone(&done);
            thief_handles.push(thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match stealer.steal() {
                        Steal::Success(v) => got.push(v),
                        Steal::Retry => continue,
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && stealer.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                got
            }));
        }

        // Owner: push everything, interleaving pops so the bottom end races the
        // top end on near-empty deques (the take/steal fence's worst case).
        let mut owner_got = Vec::new();
        for i in 0..ITEMS {
            worker.push(i);
            if i % 3 == 0 {
                if let Some(v) = worker.pop() {
                    owner_got.push(v);
                }
            }
        }
        while let Some(v) = worker.pop() {
            owner_got.push(v);
        }
        done.store(true, Ordering::Release);

        let mut all = owner_got;
        for h in thief_handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), ITEMS, "lost or duplicated items");
        all.sort_unstable();
        for (i, v) in all.iter().enumerate() {
            assert_eq!(*v, i, "item set is not a permutation of the input");
        }
    });
}

/// Thieves observe the oldest-first (FIFO) order even while the owner keeps
/// pushing: steals from a single thief are strictly increasing when values
/// are pushed in increasing order.
#[test]
fn steals_are_fifo_under_concurrent_pushes() {
    within_deadline(|| {
        const ITEMS: usize = 50_000;
        let (worker, stealer) = deque::<usize>();
        let thief = thread::spawn(move || {
            let mut last: Option<usize> = None;
            let mut count = 0usize;
            while count < ITEMS {
                match stealer.steal() {
                    Steal::Success(v) => {
                        if let Some(prev) = last {
                            assert!(v > prev, "steal order regressed: {v} after {prev}");
                        }
                        last = Some(v);
                        count += 1;
                    }
                    Steal::Retry => continue,
                    Steal::Empty => std::hint::spin_loop(),
                }
            }
        });
        for i in 0..ITEMS {
            worker.push(i);
        }
        thief.join().unwrap();
    });
}

/// Pool-level exactly-once: a task wave spawned from outside (injector
/// path) plus nested spawns from inside workers (own-deque path), counted
/// with per-task flags — no task may run twice, none may be skipped.
#[test]
fn every_pool_task_runs_exactly_once_under_stealing() {
    within_deadline(|| {
        const OUTER: usize = 500;
        const INNER: usize = 20;
        let pool = Arc::new(TaskPool::new(8));
        let ran: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..OUTER * INNER)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>(),
        );
        let latch = Latch::new(OUTER * INNER);
        for o in 0..OUTER {
            let pool2 = Arc::clone(&pool);
            let ran = Arc::clone(&ran);
            let latch = Arc::clone(&latch);
            pool.spawn(move || {
                for i in 0..INNER {
                    let ran = Arc::clone(&ran);
                    let latch = Arc::clone(&latch);
                    // Nested spawn: lands on this worker's own deque and is
                    // either popped back (LIFO) or stolen by an idle peer.
                    pool2.spawn(move || {
                        ran[o * INNER + i].fetch_add(1, Ordering::Relaxed);
                        latch.count_down();
                    });
                }
            });
        }
        latch.wait();
        for (i, flag) in ran.iter().enumerate() {
            assert_eq!(
                flag.load(Ordering::Relaxed),
                1,
                "task {i} ran a wrong number of times"
            );
        }
    });
}

/// Unbalanced load: one worker gets all the work via nested spawning, the
/// other workers must steal it. The latch can only open if stealing works.
#[test]
fn idle_workers_steal_from_the_busy_one() {
    within_deadline(|| {
        const TASKS: usize = 2_000;
        let pool = Arc::new(TaskPool::new(4));
        let latch = Latch::new(TASKS);
        let counter = Arc::new(AtomicUsize::new(0));
        let pool2 = Arc::clone(&pool);
        let latch_outer = Arc::clone(&latch);
        let counter_outer = Arc::clone(&counter);
        // One generator task floods its own deque; peers must drain it.
        pool.spawn(move || {
            for _ in 0..TASKS {
                let latch = Arc::clone(&latch_outer);
                let counter = Arc::clone(&counter_outer);
                pool2.spawn(move || {
                    // Enough work per task that the generator cannot finish
                    // everything alone before the thieves wake.
                    std::hint::black_box((0..100).sum::<u64>());
                    counter.fetch_add(1, Ordering::Relaxed);
                    latch.count_down();
                });
            }
        });
        latch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), TASKS);
    });
}
