//! One-struct health snapshot — the input contract for the future
//! elastic admission controller.
//!
//! [`HealthSnapshot`] condenses the same wait-free atomics the report and
//! the Prometheus exposition read (queue depths, per-stage p99, fault /
//! retry / fallback rates, pool hit rates, watchdog state) into a single
//! value a controller can poll cheaply and act on: shrink admission when
//! queues grow and faults spike, widen it when the plane is green. The
//! JSON rendering is what the live endpoint's `/health` route serves.

use crate::{counters, esc, stage_rows, CounterRow, FaultKind, Inner};

/// Traffic-light summary of the whole plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HealthStatus {
    /// Progress everywhere, no fault-path activity.
    #[default]
    Ok,
    /// The run is progressing but the recovery ladder has been active
    /// (faults observed, retries or CPU fallbacks taken).
    Degraded,
    /// The watchdog has flagged at least one stalled stage.
    Stalled,
}

impl HealthStatus {
    /// Stable lowercase label used in JSON.
    pub fn label(&self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Stalled => "stalled",
        }
    }
}

/// Point-in-time health of the whole run — everything an admission
/// controller needs, computed from wait-free atomics in one pass. The
/// default is what a disabled recorder reports: an empty, green plane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSnapshot {
    /// Snapshot time, ns since the recorder epoch.
    pub t_ns: u64,
    /// Rolled-up traffic light (see [`HealthStatus`]).
    pub status: HealthStatus,
    /// 99th-percentile service latency per stage name, replicas merged
    /// at the bucket level.
    pub stage_p99_ns: Vec<(String, u64)>,
    /// End-to-end p99 latency, ns (0 before any item completes).
    pub e2e_p99_ns: u64,
    /// Observed fault causes (OOM, kernel fault, stage error).
    pub fault_causes: u64,
    /// Retry actions the recovery ladder took.
    pub retries: u64,
    /// CPU-fallback actions the recovery ladder took.
    pub cpu_fallbacks: u64,
    /// Fault causes per second of uptime.
    pub fault_rate_per_s: f64,
    /// Retries per second of uptime.
    pub retry_rate_per_s: f64,
    /// CPU fallbacks per second of uptime.
    pub fallback_rate_per_s: f64,
    /// Stall episodes the watchdog has reported so far.
    pub stalls: u64,
    /// Every counter block (pools, the process-wide copy ledger,
    /// schedulers, ingress shards, stage replicas) — see
    /// [`crate::counters`].
    pub counters: Vec<CounterRow>,
    /// Events emitted into the flight ring so far.
    pub flight_events: u64,
}

impl HealthSnapshot {
    /// One-line rendering for logs.
    pub fn describe(&self) -> String {
        let depth: u64 = stage_rows(&self.counters)
            .map(|(_, _, s)| s.queue_depth)
            .sum();
        // The derived values of process-wide families (no labels) fit on
        // the line: what the copy ledger adds up to.
        let singles = self.counters.iter().filter(|r| r.labels.is_empty());
        let singles: String = singles
            .flat_map(|r| {
                let derived = r.fields().filter(|(f, _)| f.derive.is_some());
                derived.map(|(f, v)| format!(" {}.{}={v}", r.family, f.key))
            })
            .collect();
        format!(
            "health: {} at t={}ns (stages={} queued={} faults={} retries={} \
             fallbacks={} stalls={}{singles})",
            self.status.label(),
            self.t_ns,
            self.stage_p99_ns.len(),
            depth,
            self.fault_causes,
            self.retries,
            self.cpu_fallbacks,
            self.stalls,
        )
    }

    /// JSON document (hand-rolled like the rest of the crate; served by
    /// the live endpoint's `/health` route).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"hetstream.health.v1\",\n");
        out.push_str(&format!("  \"t_ns\": {},\n", self.t_ns));
        out.push_str(&format!("  \"status\": \"{}\",\n", self.status.label()));
        let p99 = self.stage_p99_ns.iter();
        let p99: Vec<String> = p99.map(|(s, ns)| format!("\"{}\": {ns}", esc(s))).collect();
        out.push_str(&format!("  \"stage_p99_ns\": {{{}}},\n", p99.join(", ")));
        out.push_str(&format!("  \"e2e_p99_ns\": {},\n", self.e2e_p99_ns));
        out.push_str(&format!(
            "  \"faults\": {{\"causes\": {}, \"retries\": {}, \"cpu_fallbacks\": {}, \
             \"fault_rate_per_s\": {:.4}, \"retry_rate_per_s\": {:.4}, \
             \"fallback_rate_per_s\": {:.4}}},\n",
            self.fault_causes,
            self.retries,
            self.cpu_fallbacks,
            self.fault_rate_per_s,
            self.retry_rate_per_s,
            self.fallback_rate_per_s
        ));
        out.push_str(&format!("  \"stalls\": {},\n", self.stalls));
        counters::render_json(&mut out, &self.counters, true);
        out.push_str(&format!("  \"flight_events\": {}\n", self.flight_events));
        out.push_str("}\n");
        out
    }
}

/// Compute the snapshot from a live recorder's state — relaxed atomic
/// loads plus two short mutex reads (fault and stall logs), never on any
/// hot path.
pub(crate) fn snapshot(inner: &Inner) -> HealthSnapshot {
    let t_ns = inner.epoch.elapsed().as_nanos() as u64;
    let uptime_s = (t_ns as f64 / 1e9).max(1e-9);
    let stage_latency = inner.stage_latency().into_iter();
    let stage_p99_ns = stage_latency.map(|(stage, l)| (stage, l.p99_ns)).collect();
    let (mut causes, mut retries, mut fallbacks) = (0u64, 0u64, 0u64);
    for e in inner.faults.lock().unwrap().iter() {
        match e.kind {
            FaultKind::DeviceOom | FaultKind::KernelFault | FaultKind::StageError => causes += 1,
            FaultKind::Retry => retries += 1,
            FaultKind::CpuFallback => fallbacks += 1,
        }
    }
    let stalls = inner.stalls.lock().unwrap().len() as u64;
    let status = if stalls > 0 {
        HealthStatus::Stalled
    } else if causes + retries + fallbacks > 0 {
        HealthStatus::Degraded
    } else {
        HealthStatus::Ok
    };
    HealthSnapshot {
        t_ns,
        status,
        stage_p99_ns,
        e2e_p99_ns: inner.e2e.snapshot().p99_ns,
        fault_causes: causes,
        retries,
        cpu_fallbacks: fallbacks,
        fault_rate_per_s: causes as f64 / uptime_s,
        retry_rate_per_s: retries as f64 / uptime_s,
        fallback_rate_per_s: fallbacks as f64 / uptime_s,
        stalls,
        counters: inner.counter_rows(),
        flight_events: inner.flight.emitted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn green_run_is_ok() {
        let rec = Recorder::enabled();
        let h = rec.stage("work", 0);
        h.item_in(2);
        h.end(h.begin());
        h.items_out(1);
        let snap = rec.health();
        assert_eq!(snap.status, HealthStatus::Ok);
        let stages: Vec<_> = stage_rows(&snap.counters).collect();
        assert_eq!((stages.len(), snap.stage_p99_ns.len()), (1, 1));
        let (_, _, s) = stages[0];
        assert_eq!(s.items_in, 1);
        assert_eq!(s.queue_depth, 2);
        assert!(snap.stage_p99_ns[0].1 > 0 || s.items_in > 0);
        let json = snap.to_json();
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("hetstream.health.v1"));
    }

    #[test]
    fn ladder_activity_degrades_then_stall_dominates() {
        let rec = Recorder::enabled();
        rec.fault_in_batch("work", FaultKind::DeviceOom, crate::NO_BATCH, "oom");
        rec.fault_in_batch("work", FaultKind::Retry, crate::NO_BATCH, "attempt 1");
        rec.fault_in_batch("work", FaultKind::CpuFallback, crate::NO_BATCH, "host path");
        let snap = rec.health();
        assert_eq!(snap.status, HealthStatus::Degraded);
        assert_eq!(
            (snap.fault_causes, snap.retries, snap.cpu_fallbacks),
            (1, 1, 1)
        );
        assert!(snap.retry_rate_per_s > 0.0);
        assert!(snap.describe().contains("degraded"));
    }

    #[test]
    fn replicas_aggregate_per_stage() {
        let rec = Recorder::enabled();
        let a = rec.stage("farm", 0);
        let b = rec.stage("farm", 1);
        a.item_in(1);
        a.items_out(1);
        b.item_in(4);
        b.items_out(2);
        let snap = rec.health();
        // One p99 per stage; one row per replica, summed by the reader.
        assert_eq!(snap.stage_p99_ns.len(), 1);
        let farm = stage_rows(&snap.counters).filter(|(name, _, _)| *name == "farm");
        let (replicas, items_in, items_out, queue_depth) =
            farm.fold((0, 0, 0, 0), |a, (_, _, s)| {
                (
                    a.0 + 1,
                    a.1 + s.items_in,
                    a.2 + s.items_out,
                    a.3 + s.queue_depth,
                )
            });
        assert_eq!((replicas, items_in, items_out), (2, 2, 3));
        assert_eq!(queue_depth, 5);
        assert!(snap.describe().contains("stages=1 queued=5"));
    }

    #[test]
    fn disabled_recorder_reports_empty_green() {
        let snap = Recorder::default().health();
        assert_eq!(snap, HealthSnapshot::default());
        assert!(snap.to_json().contains("\"status\": \"ok\""));
    }
}
