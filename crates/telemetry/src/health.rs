//! One-struct health snapshot — the input contract for the future
//! elastic admission controller.
//!
//! [`HealthSnapshot`] condenses the same wait-free atomics the report and
//! the Prometheus exposition read (queue depths, per-stage p99, fault /
//! retry / fallback rates, pool hit rates, watchdog state) into a single
//! value a controller can poll cheaply and act on: shrink admission when
//! queues grow and faults spike, widen it when the plane is green. The
//! JSON rendering is what the live endpoint's `/health` route serves.

use crate::{counters, esc, CounterRow, FaultKind, Inner};

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

/// Health of one stage (replicas aggregated).
#[derive(Debug, Clone, PartialEq)]
pub struct StageHealth {
    /// Stage name.
    pub stage: String,
    /// Registered replica count.
    pub replicas: usize,
    /// Total items consumed across replicas.
    pub items_in: u64,
    /// Total items produced across replicas.
    pub items_out: u64,
    /// Sum of the replicas' last-observed input-queue depths.
    pub queue_depth: u64,
    /// 99th-percentile service latency, replicas merged at bucket level.
    pub p99_service_ns: u64,
    /// Blocked-on-full-output occurrences across replicas.
    pub push_stalls: u64,
    /// Blocked-on-empty-input occurrences across replicas.
    pub pop_waits: u64,
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
    /// Per-stage aggregates.
    pub stages: Vec<StageHealth>,
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
    /// schedulers, ingress shards) — see [`crate::counters`].
    pub counters: Vec<CounterRow>,
    /// Events emitted into the flight ring so far.
    pub flight_events: u64,
}

impl HealthSnapshot {
    /// One-line rendering for logs.
    pub fn describe(&self) -> String {
        let depth: u64 = self.stages.iter().map(|s| s.queue_depth).sum();
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
            self.stages.len(),
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
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"replicas\": {}, \"items_in\": {}, \
                 \"items_out\": {}, \"queue_depth\": {}, \"p99_service_ns\": {}, \
                 \"push_stalls\": {}, \"pop_waits\": {}}}{}\n",
                esc(&s.stage),
                s.replicas,
                s.items_in,
                s.items_out,
                s.queue_depth,
                s.p99_service_ns,
                s.push_stalls,
                s.pop_waits,
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
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
    let metrics = inner.stages.lock().unwrap().clone();
    let stages: Vec<StageHealth> = inner
        .stage_latency()
        .into_iter()
        .map(|(stage, latency)| {
            let mut s = StageHealth {
                stage,
                replicas: 0,
                items_in: 0,
                items_out: 0,
                queue_depth: 0,
                p99_service_ns: latency.p99_ns,
                push_stalls: 0,
                pop_waits: 0,
            };
            for m in metrics.iter().filter(|m| m.name() == s.stage) {
                s.replicas += 1;
                s.items_in += m.items_in_now();
                s.items_out += m.items_out_now();
                s.queue_depth += m.queue_depth_now();
                s.push_stalls += m.push_stalls_now();
                s.pop_waits += m.pop_waits_now();
            }
            s
        })
        .collect();
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
        stages,
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
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].items_in, 1);
        assert_eq!(snap.stages[0].queue_depth, 2);
        assert!(snap.stages[0].p99_service_ns > 0 || snap.stages[0].items_in > 0);
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
        assert_eq!(snap.stages.len(), 1);
        let s = &snap.stages[0];
        assert_eq!((s.replicas, s.items_in, s.items_out), (2, 2, 3));
        assert_eq!(s.queue_depth, 5);
    }

    #[test]
    fn disabled_recorder_reports_empty_green() {
        let snap = Recorder::default().health();
        assert_eq!(snap, HealthSnapshot::default());
        assert!(snap.to_json().contains("\"status\": \"ok\""));
    }
}
