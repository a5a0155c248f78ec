//! Process-wide data-path copy accounting.
//!
//! The zero-copy pinned-slab handoff (DESIGN.md §"Zero-copy handoff")
//! claims the steady-state pooled path performs **no** host-side staging
//! memcpys. This module is how that claim stays checkable: every byte
//! that still crosses a host-side copy is charged to one of two paths,
//!
//! * `staging` — an explicit host→host memcpy into or out of a staging
//!   slab (the pre-PR-8 `clone_from_slice`/`extend_from_slice` sites);
//! * `bounce` — a transfer that touched *unregistered* host memory, so
//!   the simulated driver had to treat it as pageable and bounce it
//!   through its own staging area (CUDA pageable copies, pinned-verb
//!   fallbacks, OpenCL enqueues from unpinned slices).
//!
//! Counters are global relaxed atomics rather than `Recorder` state
//! because the copies happen deep inside `gpusim` and `fastflow`, layers
//! that deliberately do not thread a recorder through their hot paths.
//! They are cumulative and monotone, which is exactly the contract the
//! Prometheus `hetstream_copy_bytes_total` family needs.
//!
//! The globals alone, however, cannot answer "how many bytes did *my*
//! pipeline copy?" — two pipelines sharing the process (or parallel
//! `cargo test` threads) contaminate each other's deltas. For that there
//! is [`CopyLedger`]: a delta-scoped handle a thread [`enter`]s; while
//! the scope guard lives, every charge on that thread lands in the
//! ledger *in addition to* the globals. Tests and the ingress path
//! measure their own traffic on a fresh ledger; Prometheus keeps reading
//! the process totals.
//!
//! [`enter`]: CopyLedger::enter

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::counters::{family, ratio, Counters};

family! {
    /// The copy-accounting family: the process-wide block and every
    /// [`CopyLedger`] are blocks of it. Both paths are always present in
    /// `/metrics`, so the families exist even on a fully zero-copy run.
    HostCopy => CopyStats, "copy", [], report [];
    cells {
        /// Bytes moved by explicit host→host staging memcpys.
        staging_bytes: counter "hetstream_copy_bytes_total" ["path=\"staging\""],
        /// Explicit staging memcpy operations.
        staging_ops: counter "hetstream_copy_ops_total" ["path=\"staging\""],
        /// Bytes the simulated driver bounced because the host side of a
        /// transfer was not registered as pinned.
        bounce_bytes: counter "hetstream_copy_bytes_total" ["path=\"bounce\""],
        /// Driver bounce operations.
        bounce_ops: counter "hetstream_copy_ops_total" ["path=\"bounce\""],
        /// Workload batches processed (see [`record_batch`]).
        batches: counter "hetstream_copy_batches_total",
    }
    derived {
        /// All host-side copied bytes, both paths.
        bytes_copied: 0 "",
        /// All host-side copy operations, both paths.
        copy_ops: 0 "",
        /// Copy operations per processed batch (0.0 before any batch).
        copies_per_batch: 4 "",
        /// Copied bytes per processed batch (0.0 before any batch).
        bytes_per_batch: 2 "",
    }
}

/// The process-wide totals, which every recorder reports.
pub(crate) static GLOBAL: Counters<HostCopy> = Counters::new();

thread_local! {
    /// Stack of ledgers active on this thread. A stack, not a slot:
    /// nested scopes (a test ledger around a pipeline that also carries
    /// its own ingress ledger) each see the traffic, outermost included.
    static ACTIVE: RefCell<Vec<Arc<Counters<HostCopy>>>> = const { RefCell::new(Vec::new()) };
}

/// A delta-scoped copy ledger: charges land here only while (and on the
/// threads where) a [`CopyLedger::enter`] guard is alive, so concurrent
/// pipelines or parallel test threads cannot contaminate each other's
/// readings. Cloning the handle shares the counters — enter the clone on
/// each worker thread of one pipeline to get that pipeline's total.
#[derive(Debug, Clone, Default)]
pub struct CopyLedger {
    cells: Arc<Counters<HostCopy>>,
}

/// RAII scope for a [`CopyLedger`] on the current thread; created by
/// [`CopyLedger::enter`], deactivates the ledger on drop.
#[derive(Debug)]
pub struct LedgerScope {
    cells: Arc<Counters<HostCopy>>,
}

impl CopyLedger {
    /// A fresh ledger with zeroed counters.
    pub fn new() -> CopyLedger {
        CopyLedger::default()
    }

    /// Activate this ledger on the current thread until the returned
    /// guard drops. Charges made by *this thread* inside the scope are
    /// added to the ledger (and still to the process-wide globals).
    #[must_use = "the ledger only records while the scope guard lives"]
    pub fn enter(&self) -> LedgerScope {
        ACTIVE.with(|stack| stack.borrow_mut().push(Arc::clone(&self.cells)));
        LedgerScope {
            cells: Arc::clone(&self.cells),
        }
    }

    /// Point-in-time totals recorded by this ledger.
    pub fn stats(&self) -> CopyStats {
        self.cells.snapshot()
    }
}

impl Drop for LedgerScope {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            let mut s = stack.borrow_mut();
            // Pop *this* ledger even under out-of-order guard drops.
            if let Some(i) = s.iter().rposition(|c| Arc::ptr_eq(c, &self.cells)) {
                s.remove(i);
            }
        });
    }
}

/// Apply `f` to the process-wide block and to every ledger active on
/// this thread.
#[inline]
fn charge(f: impl Fn(&Counters<HostCopy>)) {
    f(&GLOBAL);
    ACTIVE.with(|stack| stack.borrow().iter().for_each(|c| f(c)));
}

/// Charge one explicit host→host staging memcpy of `bytes`.
#[inline]
pub fn count_staging(bytes: usize) {
    charge(|c| {
        c.staging_bytes().fetch_add(bytes as u64, Ordering::Relaxed);
        c.staging_ops().fetch_add(1, Ordering::Relaxed);
    });
}

/// Charge one driver bounce of `bytes` (a transfer from/into host memory
/// that was not registered as pinned).
#[inline]
pub fn count_bounce(bytes: usize) {
    charge(|c| {
        c.bounce_bytes().fetch_add(bytes as u64, Ordering::Relaxed);
        c.bounce_ops().fetch_add(1, Ordering::Relaxed);
    });
}

/// Record that one workload batch went through the data path — the
/// denominator of [`CopyStats::copies_per_batch`].
#[inline]
pub fn record_batch() {
    charge(|c| {
        c.batches().fetch_add(1, Ordering::Relaxed);
    });
}

impl CopyStats {
    /// All host-side copied bytes, both paths.
    pub fn bytes_copied(&self) -> u64 {
        self.staging_bytes + self.bounce_bytes
    }

    /// All host-side copy operations, both paths.
    pub fn copy_ops(&self) -> u64 {
        self.staging_ops + self.bounce_ops
    }

    /// Copy operations per processed batch (0.0 before any batch).
    pub fn copies_per_batch(&self) -> f64 {
        ratio(self.copy_ops(), self.batches, 0.0)
    }

    /// Copied bytes per processed batch (0.0 before any batch).
    pub fn bytes_per_batch(&self) -> f64 {
        ratio(self.bytes_copied(), self.batches, 0.0)
    }

    /// Per-field difference `self - earlier` (saturating; counters are
    /// monotone so a negative delta only means a torn baseline).
    pub fn since(&self, earlier: &CopyStats) -> CopyStats {
        CopyStats {
            staging_bytes: self.staging_bytes.saturating_sub(earlier.staging_bytes),
            staging_ops: self.staging_ops.saturating_sub(earlier.staging_ops),
            bounce_bytes: self.bounce_bytes.saturating_sub(earlier.bounce_bytes),
            bounce_ops: self.bounce_ops.saturating_sub(earlier.bounce_ops),
            batches: self.batches.saturating_sub(earlier.batches),
        }
    }
}

/// Read the global counters.
pub fn snapshot() -> CopyStats {
    GLOBAL.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_difference() {
        let before = snapshot();
        count_staging(100);
        count_bounce(40);
        count_bounce(2);
        record_batch();
        let d = snapshot().since(&before);
        // Other test threads may also be counting: deltas are lower
        // bounds, which is all a cumulative counter promises.
        assert!(d.staging_bytes >= 100);
        assert!(d.staging_ops >= 1);
        assert!(d.bounce_bytes >= 42);
        assert!(d.bounce_ops >= 2);
        assert!(d.batches >= 1);
        assert!(d.bytes_copied() >= 142);
        assert!(d.copy_ops() >= 3);
        assert!(d.copies_per_batch() > 0.0);
        assert!(d.bytes_per_batch() > 0.0);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let z = CopyStats::default();
        assert_eq!(z.copies_per_batch(), 0.0);
        assert_eq!(z.bytes_per_batch(), 0.0);
        assert_eq!(z.bytes_copied(), 0);
    }

    #[test]
    fn ledger_scopes_to_its_own_thread_and_lifetime() {
        let ledger = CopyLedger::new();
        count_staging(11); // before the scope: not ours
        {
            let _scope = ledger.enter();
            count_staging(100);
            count_bounce(40);
            record_batch();
            // A *different* thread charging concurrently must not leak
            // into this ledger — that is the whole point.
            std::thread::spawn(|| {
                count_staging(1_000_000);
                count_bounce(1_000_000);
                record_batch();
            })
            .join()
            .expect("charger thread");
        }
        count_bounce(7); // after the scope: not ours
        let s = ledger.stats();
        assert_eq!(s.staging_bytes, 100);
        assert_eq!(s.staging_ops, 1);
        assert_eq!(s.bounce_bytes, 40);
        assert_eq!(s.bounce_ops, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.bytes_per_batch(), 140.0);
    }

    #[test]
    fn ledger_clones_share_counters_across_threads() {
        let ledger = CopyLedger::new();
        let worker = {
            let l = ledger.clone();
            std::thread::spawn(move || {
                let _scope = l.enter();
                count_staging(64);
                record_batch();
            })
        };
        worker.join().expect("worker");
        {
            let _scope = ledger.enter();
            count_staging(36);
        }
        let s = ledger.stats();
        assert_eq!(s.staging_bytes, 100);
        assert_eq!(s.batches, 1);
    }

    #[test]
    fn nested_ledgers_both_record() {
        let outer = CopyLedger::new();
        let inner = CopyLedger::new();
        let _o = outer.enter();
        {
            let _i = inner.enter();
            count_bounce(8);
        }
        count_bounce(2);
        assert_eq!(inner.stats().bounce_bytes, 8);
        assert_eq!(outer.stats().bounce_bytes, 10);
    }
}
