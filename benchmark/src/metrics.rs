//! The metric tables: every name the benchmark prints, with its unit and
//! which direction is better. `BENCHMARK.json` lists the same names; a test
//! keeps the two in step.
//!
//! Clocks are never mixed in one number. *Wall* metrics are host time on
//! this machine; *modeled* metrics are gpusim device time and repeat
//! exactly for one seed; *count* metrics are exact counters.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock (or counter) a metric reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host time on this machine; noisy.
    Wall,
    /// gpusim device time; exact for one seed.
    Modeled,
    /// An exact counter or a ratio of exact counters.
    Count,
}

/// One metric of the tables.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
}

const fn def(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Def {
    Def {
        name,
        unit,
        better,
        clock,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Modeled, Wall};

/// End-to-end metrics: defined and non-zero on every workload.
pub const END_TO_END: &[Def] = &[
    def("speedup_vs_serial", "x", Higher, Wall),
    def("peak_rss_mb", "MB", Lower, Wall),
    def("setup_s", "s", Lower, Wall),
];

/// Per-layer metrics, outside in. The first block is measured on the
/// workload itself; the rest are fixed-size probes of one layer each.
pub const PER_LAYER: &[Def] = &[
    // End-to-end in the issue's sense, but defined on some workloads only
    // (or constant for one seed), which the driver's contract does not
    // allow of an end-to-end metric: reported here instead.
    def("latency_p50_ms", "ms", Lower, Wall),
    def("latency_p99_ms", "ms", Lower, Wall),
    def("latency_samples", "count", Higher, Count),
    def("modeled_busy_ms", "ms", Lower, Modeled),
    // The harness's view of the workload.
    def("bench.items_per_s", "1/s", Higher, Wall),
    def("bench.serial_items_per_s", "1/s", Higher, Wall),
    def("bench.source_busy_ratio", "ratio", Lower, Wall),
    def("bench.worker_busy_ratio", "ratio", Higher, Wall),
    def("bench.sink_busy_ratio", "ratio", Lower, Wall),
    def("bench.allocs_per_item", "count", Lower, Count),
    def("bench.generator_late_ms_p99", "ms", Lower, Wall),
    def("bench.trace_overhead_ratio", "ratio", Lower, Wall),
    def("bench.span_sum_residual_ns", "ns", Lower, Count),
    // fastflow, on the workload.
    def("fastflow.queue_wait_ms_p50", "ms", Lower, Wall),
    def("fastflow.queue_wait_ms_p99", "ms", Lower, Wall),
    def("fastflow.reorder_wait_ms_p50", "ms", Lower, Wall),
    def("fastflow.reorder_wait_ms_p99", "ms", Lower, Wall),
    // workload driver, on the workload.
    def("workload.gpu_batch_ms_p50", "ms", Lower, Wall),
    def("workload.gpu_batch_ms_p99", "ms", Lower, Wall),
    def("workload.retries", "count", Lower, Count),
    def("workload.cpu_fallbacks", "count", Lower, Count),
    // gpusim, on the workload.
    def("gpusim.host_ns_per_command", "ns", Lower, Wall),
    def("gpusim.kernels_per_item", "count", Lower, Count),
    def("gpusim.h2d_bytes_per_item", "B", Lower, Count),
    def("gpusim.d2h_bytes_per_item", "B", Lower, Count),
    def("gpusim.copied_bytes_per_item", "B", Lower, Count),
    def("gpusim.compute_busy_ms", "ms", Lower, Modeled),
    def("gpusim.h2d_busy_ms", "ms", Lower, Modeled),
    def("gpusim.d2h_busy_ms", "ms", Lower, Modeled),
    def("gpusim.last_end_ms", "ms", Lower, Modeled),
    // Layer probes: fastflow.
    def("fastflow.spsc.ns_per_item", "ns", Lower, Wall),
    def("fastflow.channel.ns_per_hop", "ns", Lower, Wall),
    def("fastflow.farm.ns_per_item_g0", "ns", Lower, Wall),
    def("fastflow.farm.ns_per_item_g100ns", "ns", Lower, Wall),
    def("fastflow.farm.ns_per_item_g1us", "ns", Lower, Wall),
    def("fastflow.farm.ns_per_item_g10us", "ns", Lower, Wall),
    def("fastflow.pool.ns_per_acquire", "ns", Lower, Wall),
    def("fastflow.pool.hit_rate", "ratio", Higher, Count),
    // tbbx, core (SPar).
    def("tbbx.pipeline.ns_per_item_g0", "ns", Lower, Wall),
    def("tbbx.pool.ns_per_spawn", "ns", Lower, Wall),
    def("core.tostream.ns_per_item_g0", "ns", Lower, Wall),
    // mandel.
    def("mandel.simd.ns_per_pixel", "ns", Lower, Wall),
    def("mandel.scalar.ns_per_pixel", "ns", Lower, Wall),
    def("mandel.cpu_batch.ms_per_item", "ms", Lower, Wall),
    // gpusim.
    def("gpusim.modeled.fig1_batch32_ms", "ms", Lower, Modeled),
    def("gpusim.modeled.fig1_overlap2x_ms", "ms", Lower, Modeled),
    def("gpusim.modeled.fig1_2gpu2x_ms", "ms", Lower, Modeled),
    def("gpusim.ocl_over_cuda_wall_ratio", "ratio", Lower, Wall),
    // dedup.
    def("dedup.rabin.mb_per_s", "MB/s", Higher, Wall),
    def("dedup.sha1.mb_per_s", "MB/s", Higher, Wall),
    def("dedup.lzss.mb_per_s", "MB/s", Higher, Wall),
    def("dedup.cache.ns_per_classify", "ns", Lower, Wall),
    def("dedup.replay_over_sequential", "ratio", Lower, Wall),
    def("dedup.archive.ratio_percent", "%", Lower, Count),
    def("dedup.dup_fraction", "ratio", Higher, Count),
    // workload.
    def("workload.driver.overhead_ns_per_item", "ns", Lower, Wall),
    // ingress.
    def("ingress.filelog.replay_ns_per_record", "ns", Lower, Wall),
    def("ingress.pump.ns_per_record", "ns", Lower, Wall),
    def("ingress.pump.staging_bytes_per_record", "B", Lower, Count),
    def("ingress.crc32.mb_per_s", "MB/s", Higher, Wall),
    def("ingress.tcp.ns_per_record", "ns", Lower, Wall),
    def("ingress.filelog.produce_ns_per_record", "ns", Lower, Wall),
    def("ingress.filelog.produce_spread", "ratio", Lower, Wall),
    def("ingress.filelog.disk_bytes_per_record", "B", Lower, Count),
    // taskgraph.
    def("taskgraph.place.ns_per_decision", "ns", Lower, Wall),
    def("taskgraph.costmodel_max_busy_ms", "ms", Lower, Modeled),
    def("taskgraph.roundrobin_max_busy_ms", "ms", Lower, Modeled),
    def("taskgraph.residency_hits", "count", Higher, Count),
    def("taskgraph.migrations", "count", Lower, Count),
    // hashsearch.
    def("hashsearch.simd.ns_per_nonce", "ns", Lower, Wall),
    def("hashsearch.scalar.ns_per_nonce", "ns", Lower, Wall),
    // telemetry.
    def("telemetry.flight.emit_ns_enabled", "ns", Lower, Wall),
    def("telemetry.flight.emit_ns_disabled", "ns", Lower, Wall),
    def("telemetry.recorder.overhead_ratio", "ratio", Lower, Wall),
];

/// Values measured so far, keyed by table name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` for `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is in no table"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded for `name`; `0.0` when the workload does not
    /// cross that layer (a count of nothing).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `table`.
    pub fn to_json(&self, table: &[Def]) -> Json {
        Json::Obj(
            table
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(self.get(d.name))),
                            ("unit".into(), Json::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Human-readable table: one `name value unit [clock]` line each.
    pub fn print(&self, table: &[Def]) {
        for d in table {
            let clock = match d.clock {
                Wall => "wall",
                Modeled => "modeled",
                Count => "count",
            };
            eprintln!(
                "  {:<44} {:>16.6} {:<6} [{clock}, {} is better]",
                d.name,
                self.get(d.name),
                d.unit,
                d.better.as_str()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse::parse;

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        match obj {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no field {key}")),
            other => panic!("not an object: {other}"),
        }
    }

    fn text(v: &Json) -> &str {
        match v {
            Json::Str(s) => s,
            other => panic!("not a string: {other}"),
        }
    }

    fn list(v: &Json) -> &[Json] {
        match v {
            Json::Arr(items) => items,
            other => panic!("not an array: {other}"),
        }
    }

    /// `BENCHMARK.json` and the compiled tables name the same metrics with
    /// the same units and directions, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_the_compiled_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(field(&manifest, key));
            assert_eq!(listed.len(), table.len(), "{key}: count differs");
            for (entry, d) in listed.iter().zip(table) {
                assert_eq!(text(field(entry, "name")), d.name);
                assert_eq!(text(field(entry, "unit")), d.unit, "{}", d.name);
                assert_eq!(
                    text(field(entry, "better")),
                    d.better.as_str(),
                    "{}",
                    d.name
                );
            }
        }
        let names: Vec<&str> = list(field(&manifest, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn an_unset_metric_reads_zero_and_every_table_entry_is_printed() {
        let mut v = Values::default();
        v.set("speedup_vs_serial", 12.5);
        v.set("speedup_vs_serial", 13.5);
        assert_eq!(v.get("speedup_vs_serial"), 13.5);
        assert_eq!(v.get("setup_s"), 0.0);
        let Json::Obj(fields) = v.to_json(END_TO_END) else {
            panic!("object")
        };
        assert_eq!(fields.len(), END_TO_END.len());
    }
}
