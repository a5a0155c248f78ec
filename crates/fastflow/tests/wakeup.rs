//! Lost-wakeup stress for [`fastflow::Signal`]'s parked-waiter fast path:
//! one-slot rings make every send and every receive depend on the peer's
//! notification, so a notify that skips a waiter it should have seen
//! leaves both sides asleep. A hang is the failure; each case runs under a
//! deadline so it fails instead.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fastflow::channel::{channel, channel_with_recv_signal};
use fastflow::{node, Pipeline, SendError, Signal, WaitStrategy};

const ITEMS: u64 = 1_000_000;
const DEADLINE: Duration = Duration::from_secs(120);
/// Receiver-drop rounds: round `r` yields `r % 97` times before the drop,
/// sweeping it across the blocked sender's spin → yield → park escalation.
const DISCONNECT_ROUNDS: usize = 2_000;
/// Farm rounds, each killing one worker while the feeder waits on it.
const FARM_PANIC_ROUNDS: usize = 300;

/// Run `case` on its own thread; panic if it has not finished by the
/// deadline (the wedged threads are leaked — the process is failing anyway).
fn within_deadline(what: &str, case: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        case();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(DEADLINE) {
        Ok(()) => runner.join().expect("case thread"),
        // The sender is dropped without a send only when the case panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("case panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: no progress — lost wakeup"),
    }
}

#[test]
fn one_slot_channel_delivers_a_million_items_under_every_strategy() {
    for wait in [WaitStrategy::Block, WaitStrategy::Yield, WaitStrategy::Spin] {
        within_deadline(&format!("{wait:?}"), move || {
            let (tx, rx) = channel::<u64>(1, wait);
            let producer = thread::spawn(move || {
                for i in 0..ITEMS {
                    tx.send(i).expect("receiver alive");
                }
            });
            let mut expected = 0;
            while let Some(v) = rx.recv() {
                assert_eq!(v, expected);
                expected += 1;
            }
            assert_eq!(expected, ITEMS);
            producer.join().expect("producer");
        });
    }
}

/// The farm fan-in's shape: several one-slot rings notifying one shared
/// signal, one consumer parking on it with the snapshot / re-check / wait
/// protocol.
#[test]
fn shared_collector_signal_loses_no_wakeup() {
    const PRODUCERS: u64 = 3;
    within_deadline("shared signal", || {
        let signal = Arc::new(Signal::new());
        let mut rxs = Vec::new();
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let (tx, rx) =
                channel_with_recv_signal::<u64>(1, WaitStrategy::Block, Arc::clone(&signal));
            rxs.push(rx);
            producers.push(thread::spawn(move || {
                for i in (p..ITEMS).step_by(PRODUCERS as usize) {
                    tx.send(i).expect("receiver alive");
                }
            }));
        }
        let (mut got, mut sum) = (0u64, 0u64);
        let mut buf = Vec::new();
        while !rxs.iter().all(|rx| rx.is_eos()) {
            let epoch = signal.epoch();
            let mut progressed = false;
            for rx in &rxs {
                while rx.try_recv_batch(&mut buf, 1) > 0 {
                    got += 1;
                    sum += buf.pop().expect("one item");
                    progressed = true;
                }
            }
            if !progressed && !rxs.iter().any(|rx| rx.is_closed()) {
                signal.wait_if(epoch);
            }
        }
        assert_eq!(got, ITEMS);
        assert_eq!(sum, ITEMS * (ITEMS - 1) / 2);
        for p in producers {
            p.join().expect("producer");
        }
    });
}

/// A sender blocked on a full one-slot ring while the receiver is dropped:
/// the drop's wakeup must find the sender able to see the disconnect, or
/// the sender re-parks with nobody left to wake it.
#[test]
fn receiver_drop_wakes_a_sender_blocked_on_a_full_ring() {
    within_deadline("receiver drop", || {
        for round in 0..DISCONNECT_ROUNDS {
            let (tx, rx) = channel::<usize>(1, WaitStrategy::Block);
            tx.send(round).expect("receiver alive");
            let sender = thread::spawn(move || tx.send(round));
            for _ in 0..round % 97 {
                thread::yield_now();
            }
            drop(rx);
            let sent = sender.join().expect("sender");
            assert_eq!(sent, Err(SendError(round)), "round {round}");
        }
    });
}

/// The farm's shape of the same race: a worker that dies drops its input
/// ring while the stage feeding the farm waits for room on it. The feeder
/// must stop, the merge drain the survivor, and `collect` re-raise.
#[test]
fn farm_worker_panic_is_reraised_and_never_wedges_the_feeder() {
    within_deadline("farm worker panic", || {
        for round in 0..FARM_PANIC_ROUNDS {
            let doomed = 17 + round as u64 % 13;
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                Pipeline::builder()
                    .capacity(1)
                    .from_iter(0..10_000u64)
                    .farm_ordered(2, move |_| {
                        node::map(move |x: u64| {
                            if x == doomed {
                                // Let the feeder block on this worker's full
                                // ring first, then die. `resume_unwind`
                                // unwinds like a panic without the hook's
                                // report, so the rounds print nothing.
                                thread::sleep(Duration::from_micros(200));
                                panic::resume_unwind(Box::new("worker boom"));
                            }
                            x
                        })
                    })
                    .collect()
            }));
            let payload = run.expect_err("the worker's panic reaches collect");
            let message = payload.downcast_ref::<&str>();
            assert_eq!(message, Some(&"worker boom"), "round {round}");
        }
    });
}
