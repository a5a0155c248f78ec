//! The deadline every blocking test of the runtimes runs under: a lost
//! wakeup or a deadlock shows as a hang, and the deadline turns the hang
//! into a failure that names the test.
//!
//! One copy, shared as a test-only module: `telemetry`'s `sync` tests
//! declare it with `#[cfg(test)] mod deadline;`, and `fastflow`'s and
//! `tbbx`'s unit and integration tests reach this file with
//! `#[path = ".../telemetry/src/deadline.rs"] mod deadline;`.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Longest a blocking test may run. Well above any test's debug-build
/// time on two loaded cores, and short enough that a lost wakeup fails
/// `cargo test` within a minute.
const DEADLINE: Duration = Duration::from_secs(30);

/// Run `case` on its own thread; panic if it has not finished by the
/// deadline (the wedged threads are leaked — the process is failing anyway).
/// A panic inside `case` is re-raised as it is.
pub(crate) fn within_deadline(case: impl FnOnce() + Send + 'static) {
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
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no progress within {DEADLINE:?}: lost wakeup or deadlock")
        }
    }
}
