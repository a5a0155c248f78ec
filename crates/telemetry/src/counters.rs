//! The counter registry: one cell-block type, one descriptor per family,
//! and the three renderers that walk them.
//!
//! Stage replicas, pools, schedulers, ingress shards and the copy ledger
//! all count the same way — a handful of `u64` cells bumped with one
//! relaxed atomic op on the owner's hot path and read only at report or
//! scrape time. A
//! [`Counters<F>`] is that handful, inline; the family `F` names a
//! [`Descriptor`] saying what each cell is called in the JSON report, in
//! `/metrics` and in `/health`, and which derived values (`hit_rate`,
//! …) are computed from the cells when read.
//! [`Recorder::register`](crate::Recorder::register) (or, for a stage
//! replica, [`Recorder::stage`](crate::Recorder::stage)) files a block
//! under its label values, and the report, the Prometheus exposition and
//! the health snapshot each render the same [`CounterRow`]s — so a cell
//! added to a family shows up in all three without touching a renderer.
//!
//! Adding a cell is one line in its `family!` table (plus whatever bumps
//! it); adding a family is one table, one entry in `FAMILIES` and a
//! `register` call where its blocks are made.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::export::{esc_label, family as family_header};
use crate::{esc, json_lines, FlightHandle, FlightKind, NO_BATCH};

/// Cells in one block (eight words: the largest family, `Stage`, stores
/// seven).
pub const MAX_CELLS: usize = 8;

/// One named value of a family: a stored cell, or a value derived from
/// the cells when they are read.
#[derive(Debug)]
pub struct Field {
    /// Key in the JSON report and in `/health`.
    pub key: &'static str,
    /// Prometheus metric name; empty keeps the value out of `/metrics`.
    pub metric: &'static str,
    /// Fixed extra label (`path="staging"`) when cells share one metric.
    pub series: &'static str,
    /// Prometheus type, `counter` or `gauge`.
    pub kind: &'static str,
    /// Prometheus help text.
    pub help: &'static str,
    /// Digits after the point wherever the value is rendered.
    pub decimals: usize,
    /// `None` for a stored cell (the block's next one, in field order),
    /// or how to derive the value from the cells.
    pub derive: Option<fn([u64; MAX_CELLS]) -> f64>,
}

/// What one counter family is called in each output.
#[derive(Debug)]
pub struct Descriptor {
    /// Member name in the JSON report and in `/health`: an array of one
    /// object per registered block, or a single object for a family
    /// without labels.
    pub key: &'static str,
    /// Label keys in `/metrics` and `/health`.
    pub labels: &'static [&'static str],
    /// Label keys in the JSON report.
    pub report_labels: &'static [&'static str],
    /// The stored cells in block order, then the derived values.
    pub fields: &'static [Field],
}

/// A counter family: a marker type naming a [`Descriptor`] and the typed
/// view of its cells. Declared with `family!`.
pub trait Family: 'static {
    /// Point-in-time view of one block, a field per cell.
    type Stats: From<[u64; MAX_CELLS]>;
    /// The family's names in every output.
    const DESC: &'static Descriptor;
}

/// Every family, in the order the outputs list them. Fixed rather than
/// collected from registrations so a family's `# TYPE` lines and JSON
/// members exist before its first block registers.
static FAMILIES: [&Descriptor; 5] = [
    Pool::DESC,
    crate::copy::HostCopy::DESC,
    Sched::DESC,
    Ingress::DESC,
    crate::Stage::DESC,
];

/// Declare a counter family from one table: the marker type, the stats
/// struct (a `u64` field per cell, a method per derived value written
/// beside the table), the [`Descriptor`] (each doc comment doubles as the
/// Prometheus help text) and one private accessor per cell for the
/// family's bump methods.
macro_rules! family {
    (
        $(#[$meta:meta])*
        $marker:ident => $stats:ident, $key:literal, $labels:tt, report $report:tt;
        cells {$(
            $(#[doc = $help:literal])+
            $cell:ident: $kind:ident $metric:literal $([$series:literal])?,
        )+}
        derived {$(
            $(#[doc = $dhelp:literal])+
            $derived:ident: $decimals:literal $dmetric:literal,
        )*}
    ) => {
        $(#[$meta])*
        pub struct $marker;

        #[doc = concat!("Snapshot of one [`", stringify!($marker), "`] block.")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $stats {$(
            $(#[doc = $help])+
            pub $cell: u64,
        )+}

        impl From<[u64; $crate::counters::MAX_CELLS]> for $stats {
            fn from(cells: [u64; $crate::counters::MAX_CELLS]) -> Self {
                let mut cells = cells.into_iter();
                $stats {$(
                    $cell: cells.next().unwrap_or(0),
                )+}
            }
        }

        impl $crate::counters::Family for $marker {
            type Stats = $stats;
            const DESC: &'static $crate::counters::Descriptor = &$crate::counters::Descriptor {
                key: $key,
                labels: &$labels,
                report_labels: &$report,
                fields: &[
                    $($crate::counters::Field {
                        key: stringify!($cell),
                        metric: $metric,
                        series: concat!($($series)?),
                        kind: stringify!($kind),
                        help: concat!($($help),+),
                        decimals: 0,
                        derive: None,
                    },)+
                    $($crate::counters::Field {
                        key: stringify!($derived),
                        metric: $dmetric,
                        series: "",
                        kind: "gauge",
                        help: concat!($($dhelp),+),
                        decimals: $decimals,
                        derive: Some(|cells| $stats::from(cells).$derived() as f64),
                    },)*
                ],
            };
        }

        $crate::counters::family!(@accessors $marker 0; $($cell)+);
    };
    (@accessors $marker:ident $index:expr; $cell:ident $($rest:ident)*) => {
        impl $crate::counters::Counters<$marker> {
            #[inline]
            fn $cell(&self) -> &std::sync::atomic::AtomicU64 {
                self.cell($index)
            }
        }
        $crate::counters::family!(@accessors $marker $index + 1; $($rest)*);
    };
    (@accessors $marker:ident $index:expr;) => {};
}
pub(crate) use family;

/// One block of wait-free cells of family `F`, shared between its owner
/// (which bumps it) and any [`Recorder`](crate::Recorder) it is
/// registered with (which only reads it). Every bump is a single relaxed
/// atomic op on an inline cell, so registering adds no cost to the owner.
pub struct Counters<F> {
    cells: [AtomicU64; MAX_CELLS],
    // Armed by `Recorder::register`, latest registration wins: blocks
    // outlive recorders (a device's cache counters live on the
    // `GpuSystem`), and rare events must land in the current run's ring.
    flight: Mutex<FlightHandle>,
    family: PhantomData<fn() -> F>,
}

impl<F> std::fmt::Debug for Counters<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counters").field(&self.load()).finish()
    }
}

impl<F> Default for Counters<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F> Counters<F> {
    /// A zeroed block.
    pub const fn new() -> Self {
        Counters {
            cells: [const { AtomicU64::new(0) }; MAX_CELLS],
            flight: Mutex::new(FlightHandle::noop()),
            family: PhantomData,
        }
    }

    #[inline]
    pub(crate) fn cell(&self, index: usize) -> &AtomicU64 {
        &self.cells[index]
    }

    fn load(&self) -> [u64; MAX_CELLS] {
        std::array::from_fn(|i| self.cells[i].load(Ordering::Relaxed))
    }
}

impl<F: Family> Counters<F> {
    /// Point-in-time snapshot of the cells.
    pub fn snapshot(&self) -> F::Stats {
        self.load().into()
    }
}

/// One registry entry: the label values and the block filed under them.
pub(crate) type Registered = (Vec<String>, std::sync::Arc<dyn Block>);

/// A registered block with its family erased.
pub(crate) trait Block: Send + Sync + std::fmt::Debug {
    fn desc(&self) -> &'static Descriptor;
    fn load(&self) -> [u64; MAX_CELLS];
    fn arm(&self, flight: FlightHandle);
}

impl<F: Family> Block for Counters<F> {
    fn desc(&self) -> &'static Descriptor {
        F::DESC
    }
    fn load(&self) -> [u64; MAX_CELLS] {
        Counters::load(self)
    }
    fn arm(&self, flight: FlightHandle) {
        *self.flight.lock().unwrap_or_else(PoisonError::into_inner) = flight;
    }
}

/// `num / den`, or `idle` before anything was counted.
pub(crate) fn ratio(num: u64, den: u64, idle: f64) -> f64 {
    if den == 0 {
        idle
    } else {
        num as f64 / den as f64
    }
}

family! {
    /// Buffer pools and allocation caches.
    Pool => PoolStats, "pools", ["pool"], report ["name"];
    cells {
        /// Acquires served by recycling a cached buffer.
        hits: counter "hetstream_pool_hits_total",
        /// Acquires that allocated fresh storage.
        misses: counter "hetstream_pool_misses_total",
        /// Buffers currently leased out.
        outstanding: gauge "hetstream_pool_outstanding",
        /// Returns dropped because the pool was at capacity.
        shed: counter "hetstream_pool_shed_total",
    }
    derived {
        /// Fraction of acquires served from the pool (1.0 when idle).
        hit_rate: 4 "hetstream_pool_hit_rate",
    }
}

impl PoolStats {
    /// Fraction of acquires served from the pool (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses, 1.0)
    }
}

impl Counters<Pool> {
    /// An acquire was served from the pool.
    #[inline]
    pub fn hit(&self) {
        self.hits().fetch_add(1, Ordering::Relaxed);
    }

    /// An acquire fell through to a fresh allocation.
    #[inline]
    pub fn miss(&self) {
        self.misses().fetch_add(1, Ordering::Relaxed);
    }

    /// A buffer left the pool (hit or miss).
    #[inline]
    pub fn lease(&self) {
        self.outstanding().fetch_add(1, Ordering::Relaxed);
    }

    /// A buffer came back.
    #[inline]
    pub fn release(&self) {
        // Saturating: a release without a matching lease (foreign buffer
        // given to the pool) must not wrap the gauge.
        let sub = |v: u64| Some(v.saturating_sub(1));
        let _ = self
            .outstanding()
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, sub);
    }

    /// A returned buffer was dropped because the pool was full. Sheds are
    /// rare and exactly what a post-mortem wants (a shedding pool is a
    /// backpressure symptom), so each also lands in the flight ring of
    /// the recorder the block was last registered with — behind a lock,
    /// which this path can afford.
    pub fn shed_one(&self) {
        let total = self.shed().fetch_add(1, Ordering::Relaxed) + 1;
        // Pools shed from `Drop`: never panic on a poisoned lock.
        let flight = self.flight.lock().unwrap_or_else(PoisonError::into_inner);
        flight.emit(FlightKind::PoolShed, NO_BATCH, total, 0);
    }
}

family! {
    /// Task-graph scheduler decisions.
    Sched => SchedTotals, "sched", ["sched"], report ["name"];
    cells {
        /// Placement decisions made by the task-graph scheduler.
        decisions: counter "hetstream_sched_decisions_total",
        /// Decisions that kept a key on the device holding its state.
        residency_hits: counter "hetstream_sched_residency_hits_total",
        /// Decisions that moved a key off its resident device.
        migrations: counter "hetstream_sched_migrations_total",
        /// Wall time spent inside the placement decision, ns.
        overhead_ns: counter "hetstream_sched_overhead_ns_total",
    }
    derived {
        /// Mean placement overhead per decision, ns (0 when idle).
        overhead_per_decision_ns: 1 "",
    }
}

impl SchedTotals {
    /// Mean placement overhead per decision, ns (0 when idle).
    pub fn overhead_per_decision_ns(&self) -> f64 {
        ratio(self.overhead_ns, self.decisions, 0.0)
    }
}

impl Counters<Sched> {
    /// One placement decision was made; `overhead_ns` is the wall time
    /// the decision itself took (the figure the <1 µs/batch gate reads).
    #[inline]
    pub fn decision(&self, overhead_ns: u64) {
        self.decisions().fetch_add(1, Ordering::Relaxed);
        self.overhead_ns().fetch_add(overhead_ns, Ordering::Relaxed);
    }

    /// The decision kept the batch on the device holding its lane state.
    #[inline]
    pub fn residency_hit(&self) {
        self.residency_hits().fetch_add(1, Ordering::Relaxed);
    }

    /// The decision moved a key away from its resident device.
    #[inline]
    pub fn migration(&self) {
        self.migrations().fetch_add(1, Ordering::Relaxed);
    }
}

family! {
    /// Ingress shards: one block per `(stream, shard)`, written by the
    /// pump that delivers the shard's records into a pipeline.
    Ingress => IngressTotals, "ingress", ["stream", "shard"], report ["stream", "shard"];
    cells {
        /// Records delivered from ingress sources into pipelines.
        records: counter "hetstream_ingress_records_total",
        /// Payload bytes delivered from ingress sources.
        bytes: counter "hetstream_ingress_bytes_total",
        /// Highest sequence number the pump has delivered, plus one
        /// (0 = nothing delivered).
        delivered: gauge "",
    }
    derived {}
}

impl Counters<Ingress> {
    /// Count `n` records totalling `bytes` payload bytes delivered into
    /// the pipeline.
    #[inline]
    pub fn add_records(&self, n: u64, bytes: u64) {
        self.records().fetch_add(n, Ordering::Relaxed);
        self.bytes().fetch_add(bytes, Ordering::Relaxed);
    }

    /// Raise the delivered watermark to `next_seq`, one past the highest
    /// sequence number the pump has handed on (monotone max — a rewound
    /// replay never lowers it).
    #[inline]
    pub fn delivered_to(&self, next_seq: u64) {
        self.delivered().fetch_max(next_seq, Ordering::Relaxed);
    }
}

/// One block as read at report or scrape time.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRow {
    /// The family's member name in the report (`"pools"`, `"sched"`, …).
    pub family: &'static str,
    /// The label values the block registered under.
    pub labels: Vec<String>,
    /// The cell values; `PoolStats::from` (or the family's own stats
    /// type) names them.
    pub values: [u64; MAX_CELLS],
}

impl CounterRow {
    pub(crate) fn read(labels: &[String], block: &dyn Block) -> Self {
        CounterRow {
            family: block.desc().key,
            labels: labels.to_vec(),
            values: block.load(),
        }
    }

    /// `(field, rendered value)` for every field of the row's family.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&'static Field, String)> + '_ {
        let desc = FAMILIES.iter().find(|d| d.key == self.family);
        let mut stored = self.values.into_iter();
        desc.into_iter().flat_map(|d| d.fields).map(move |f| {
            let value = match f.derive {
                None => stored.next().unwrap_or(0).to_string(),
                Some(derive) => format!("{:.*}", f.decimals, derive(self.values)),
            };
            (f, value)
        })
    }

    pub(crate) fn json_object(&self, keys: &[&str]) -> String {
        let labels = keys.iter().zip(&self.labels);
        let labels = labels.map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v)));
        let fields = self.fields().map(|(f, v)| format!("\"{}\": {v}", f.key));
        let members: Vec<String> = labels.chain(fields).collect();
        format!("{{{}}}", members.join(", "))
    }

    /// `{pool="x",path="staging"}`, or nothing for a series without labels.
    fn prom_labels(&self, keys: &[&str], series: &str) -> String {
        let labels = keys.iter().zip(&self.labels);
        let labels = labels.map(|(k, v)| format!("{k}=\"{}\"", esc_label(v)));
        let series = (!series.is_empty()).then(|| series.to_string());
        let labels: Vec<String> = labels.chain(series).collect();
        if labels.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", labels.join(","))
        }
    }
}

/// Append one JSON member per family (`"pools": [...]`, `"copy": {...}`,
/// …), each ending in `,\n`. The report names labels by `report_labels`,
/// `/health` (`health`) by the Prometheus label keys.
pub(crate) fn render_json(out: &mut String, rows: &[CounterRow], health: bool) {
    for desc in FAMILIES {
        let keys = if health {
            desc.labels
        } else {
            desc.report_labels
        };
        let mut rows = rows.iter().filter(|r| r.family == desc.key);
        let member = if keys.is_empty() {
            // One process-wide block; a disabled recorder reads zeros.
            let zero = CounterRow {
                family: desc.key,
                labels: Vec::new(),
                values: [0; MAX_CELLS],
            };
            rows.next().unwrap_or(&zero).json_object(keys)
        } else {
            format!("[\n{}  ]", json_lines(rows.map(|r| r.json_object(keys))))
        };
        out.push_str(&format!("  \"{}\": {member},\n", desc.key));
    }
}

/// Append every family's Prometheus metric families. Cells sharing one
/// metric name (told apart by their `series` label) form one family,
/// headed where the name first appears.
pub(crate) fn render_prometheus(out: &mut String, rows: &[CounterRow]) {
    for desc in FAMILIES {
        let rows = rows.iter().filter(|r| r.family == desc.key);
        let rows: Vec<(&CounterRow, Vec<_>)> = rows.map(|r| (r, r.fields().collect())).collect();
        for (i, head) in desc.fields.iter().enumerate() {
            let seen = desc.fields[..i].iter().any(|f| f.metric == head.metric);
            if head.metric.is_empty() || seen {
                continue;
            }
            family_header(out, head.metric, head.kind, head.help.trim());
            for (row, fields) in &rows {
                for (f, v) in fields.iter().filter(|(f, _)| f.metric == head.metric) {
                    let labels = row.prom_labels(desc.labels, f.series);
                    out.push_str(&format!("{}{labels} {v}\n", f.metric));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::Arc;

    #[test]
    fn shed_events_follow_the_latest_registration() {
        // Blocks outlive recorders (a device's cache counters live on the
        // `GpuSystem` and are re-registered per run): the second run's
        // sheds belong in the second run's ring.
        let (a, b) = (Recorder::enabled(), Recorder::enabled());
        let pool = Arc::new(Counters::<Pool>::new());
        a.register(&["gpu0.cache"], &pool);
        b.register(&["gpu0.cache"], &pool);
        pool.shed_one();
        let sheds = |rec: &Recorder| {
            let events = rec.flight_snapshot();
            let sheds = events.iter().filter(|e| e.kind == FlightKind::PoolShed);
            sheds.count()
        };
        assert_eq!((sheds(&a), sheds(&b)), (0, 1));
    }

    #[test]
    fn every_family_appears_in_the_report_in_metrics_and_in_health() {
        let rec = Recorder::enabled();
        let pool = Arc::new(Counters::<Pool>::new());
        pool.hit();
        pool.miss();
        pool.miss();
        pool.lease();
        pool.shed_one();
        rec.register(&["p.one"], &pool);
        let sched = Arc::new(Counters::<Sched>::new());
        sched.decision(40);
        sched.residency_hit();
        rec.register(&["s.one"], &sched);
        let shard = Arc::new(Counters::<Ingress>::new());
        shard.add_records(3, 30);
        shard.delivered_to(9);
        rec.register(&["i.one", "7"], &shard);
        let stage = rec.stage("st.one", 3);
        stage.item_in(5);
        stage.item_in(4);
        stage.items_out(2);
        stage.end(stage.begin());
        stage.push_stall();
        stage.pop_wait();
        stage.pop_wait();

        let (report, health) = (rec.report().to_json(), rec.health().to_json());
        let metrics = rec.prometheus();
        for doc in [&report, &metrics, &health] {
            for label in [
                "\"p.one\"",
                "\"s.one\"",
                "\"i.one\"",
                "\"7\"",
                "copy",
                "\"st.one\"",
            ] {
                assert!(doc.contains(label), "{label} missing from:\n{doc}");
            }
        }
        // Each stage cell under its key in both documents and under its
        // metric in `/metrics`; service time is wall clock, so only its key.
        fn stage_row<'a>(doc: &'a str, label: &str) -> &'a str {
            let row = &doc[doc
                .find(&format!("{{\"{label}\": \"st.one\""))
                .expect("a row")..];
            &row[..row.find('}').expect("the row closes")]
        }
        let cells = [
            ("items_in", "items_in_total", "2"),
            ("items_out", "items_out_total", "2"),
            ("service_ns", "service_ns_total", ""),
            ("push_stalls", "push_stalls_total", "1"),
            ("pop_waits", "pop_waits_total", "2"),
            ("queue_depth", "queue_depth", "4"),
            ("queue_hwm", "queue_hwm", "5"),
        ];
        for (key, metric, value) in cells {
            let series =
                format!("hetstream_stage_{metric}{{stage=\"st.one\",replica=\"3\"}} {value}");
            assert!(metrics.contains(&series), "{series} missing");
            for row in [stage_row(&report, "name"), stage_row(&health, "stage")] {
                assert!(
                    row.contains(&format!("\"{key}\": {value}")),
                    "{key} in {row}"
                );
            }
        }
        // Each bump landed in the cell its key names, in both documents;
        // the report says `"name"` where `/health` uses the label key.
        let pool =
            "\"hits\": 1, \"misses\": 2, \"outstanding\": 1, \"shed\": 1, \"hit_rate\": 0.3333}";
        let sched = "\"decisions\": 1, \"residency_hits\": 1, \"migrations\": 0, \
                     \"overhead_ns\": 40, \"overhead_per_decision_ns\": 40.0}";
        let shard =
            "{\"stream\": \"i.one\", \"shard\": \"7\", \"records\": 3, \"bytes\": 30, \"delivered\": 9}";
        for want in [
            format!("{{\"name\": \"p.one\", {pool}"),
            format!("{{\"name\": \"s.one\", {sched}"),
            shard.to_string(),
        ] {
            assert!(report.contains(&want), "{want} missing from:\n{report}");
        }
        for want in [
            format!("{{\"pool\": \"p.one\", {pool}"),
            format!("{{\"sched\": \"s.one\", {sched}"),
            shard.to_string(),
        ] {
            assert!(health.contains(&want), "{want} missing from:\n{health}");
        }
    }

    #[test]
    fn ingress_counters_accumulate() {
        let c = Counters::<Ingress>::new();
        c.add_records(4, 1024);
        c.add_records(1, 56);
        let s = c.snapshot();
        assert_eq!((s.records, s.bytes), (5, 1080));
    }

    #[test]
    fn delivered_watermark_is_monotone() {
        let c = Counters::<Ingress>::new();
        assert_eq!(c.snapshot().delivered, 0);
        c.delivered_to(10);
        assert_eq!(c.snapshot().delivered, 10);
        // A rewound replay reports a lower watermark: it changes nothing.
        c.delivered_to(5);
        assert_eq!(c.snapshot().delivered, 10);
    }

    #[test]
    fn descriptors_fit_the_block_and_name_each_key_once() {
        for desc in FAMILIES {
            let stored = desc.fields.iter().filter(|f| f.derive.is_none());
            assert!(stored.count() <= MAX_CELLS, "{}", desc.key);
            assert_eq!(desc.labels.len(), desc.report_labels.len(), "{}", desc.key);
            let mut keys: Vec<&str> = desc.fields.iter().map(|f| f.key).collect();
            let n = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), n, "duplicate key in {}", desc.key);
        }
    }
}
