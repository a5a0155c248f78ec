//! Lost-wakeup stress for [`fastflow::Signal`]'s parked-waiter fast path:
//! one-slot rings make every send and every receive depend on the peer's
//! notification, so a notify that skips a waiter it should have seen
//! leaves both sides asleep. A hang is the failure; each case runs under a
//! deadline so it fails instead.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fastflow::channel::{channel, channel_with_recv_signal};
use fastflow::{Signal, WaitStrategy};

const ITEMS: u64 = 1_000_000;
const DEADLINE: Duration = Duration::from_secs(120);

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
        while !rxs.iter().all(|rx| rx.is_eos()) {
            let epoch = signal.epoch();
            let mut progressed = false;
            for rx in &rxs {
                while let Some(v) = rx.try_recv() {
                    got += 1;
                    sum += v;
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
