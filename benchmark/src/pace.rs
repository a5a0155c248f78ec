//! The benchmark's clock and its open-loop load generator.
//!
//! An open-loop source releases item `i` at `start + i * period` whether or
//! not the system kept up, and latency is measured from that *due* time —
//! so a stall charges every item it delayed, not only the one in flight.
//! How late the generator itself released an item is kept separately: a
//! generator that cannot hold its schedule is measuring itself.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process (one epoch for every
/// thread, so stamps taken on different threads subtract).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fixed-rate release schedule. Pure arithmetic: nothing here reads a
/// clock, so the sink can recompute any item's due time from its index.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Due time of item 0, ns on the [`now_ns`] clock.
    pub start_ns: u64,
    /// Gap between releases, ns.
    pub period_ns: u64,
}

impl Schedule {
    /// `rate_per_s` items per second starting at `start_ns`.
    pub fn new(start_ns: u64, rate_per_s: f64) -> Self {
        Schedule {
            start_ns,
            period_ns: (1e9 / rate_per_s).round() as u64,
        }
    }

    /// When item `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + i * self.period_ns
    }

    /// Items that fit in `secs` seconds of this schedule.
    pub fn items_in(&self, secs: f64) -> u64 {
        ((secs * 1e9) as u64 / self.period_ns).max(1)
    }
}

/// Latency of something that finished at `done_ns` and was due at `due_ns`, ms.
pub fn since_due_ms(done_ns: u64, due_ns: u64) -> f64 {
    done_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// Sleep until item `i` of `schedule` is due; returns how late the
/// release was, ns (0 when the sleep overshot by nothing measurable).
pub fn wait_until_due(schedule: &Schedule, i: u64) -> u64 {
    let due = schedule.due_ns(i);
    let now = now_ns();
    if now < due {
        std::thread::sleep(Duration::from_nanos(due - now));
    }
    now_ns().saturating_sub(due)
}

/// An iterator adaptor that holds each item of `inner` back until its due
/// time and pushes the release lateness (ms) into `late_ms`.
pub struct Paced<I> {
    inner: I,
    schedule: Schedule,
    next: u64,
    late_ms: std::sync::Arc<std::sync::Mutex<Vec<f64>>>,
}

impl<I> Paced<I> {
    /// Pace `inner` by `schedule`.
    pub fn new(
        inner: I,
        schedule: Schedule,
        late_ms: std::sync::Arc<std::sync::Mutex<Vec<f64>>>,
    ) -> Self {
        Paced {
            inner,
            schedule,
            next: 0,
            late_ms,
        }
    }
}

impl<I: Iterator> Iterator for Paced<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        let late = wait_until_due(&self.schedule, self.next);
        self.next += 1;
        self.late_ms
            .lock()
            .expect("lateness log poisoned")
            .push(late as f64 / 1e6);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_the_start() {
        let s = Schedule::new(1_000, 200.0);
        assert_eq!(s.period_ns, 5_000_000);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(3), 15_001_000);
        assert_eq!(s.items_in(8.0), 1_600);
    }

    #[test]
    fn latency_counts_from_the_due_time_and_never_goes_negative() {
        assert_eq!(since_due_ms(7_000_000, 2_000_000), 5.0);
        assert_eq!(since_due_ms(1, 2), 0.0);
    }

    #[test]
    fn a_late_release_reports_its_lateness_and_keeps_the_schedule() {
        // Due in the past: released at once, lateness = now - due.
        let s = Schedule::new(0, 1_000.0);
        let before = now_ns();
        let late = wait_until_due(&s, 0);
        assert!(late >= before, "lateness {late} counts from the due time 0");
        // The schedule does not slip: item 5 is still due at 5 periods.
        assert_eq!(s.due_ns(5), 5_000_000);
    }

    #[test]
    fn paced_iterator_logs_one_lateness_per_item() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let s = Schedule::new(now_ns(), 10_000.0);
        let got: Vec<u32> = Paced::new(0..5u32, s, log.clone()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(log.lock().unwrap().len(), 5);
        assert!(now_ns() >= s.due_ns(4), "item 4 was not released early");
    }
}
