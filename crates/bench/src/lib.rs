//! `bench` — harnesses regenerating every figure of the paper, plus shared
//! reporting helpers.
//!
//! Figure binaries (run with `--release`):
//!
//! * `cargo run --release -p bench --bin fig1` — the Mandelbrot
//!   optimization ladder (§IV-A / Fig. 1);
//! * `cargo run --release -p bench --bin fig4` — Mandelbrot across
//!   programming models and GPU counts (Fig. 4);
//! * `cargo run --release -p bench --bin fig5` — Dedup throughput across
//!   datasets and versions (Fig. 5).
//!
//! Each binary prints an aligned table, writes a CSV under
//! `target/figures/`, and checks the paper's qualitative *shape* claims,
//! exiting non-zero if one fails. The repo's benchmark is a package of
//! its own (`benchmark/run.sh`).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use gpusim::{DeviceProps, GpuSystem, Offload};
use ingress::filelog::{read_all, GroupOffsets};
use ingress::{
    spawn_pump, FileLogSink, FileLogSource, IngressStats, PumpConfig, ShardId, Sink, StreamKey,
};
use mandel::core::FractalParams;
use mandel::hybrid::MandelWork;
use simtime::SimDuration;
use taskgraph::{CostModelScheduler, SchedConfig};
use telemetry::{FlightKind, Recorder, TelemetryReport};
use workload::{Placement, RoundRobinPlacement, WorkloadDriver};

/// A simple table accumulator that renders aligned text and CSV.
pub struct Report {
    title: String,
    columns: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// New report with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: Vec<&'static str>) -> Self {
        Report {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render the aligned text table.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Render CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            let _ = writeln!(out, "{}", escaped.join(","));
        }
        out
    }

    /// Print the table and write the CSV under `target/figures/<name>.csv`.
    pub fn emit(&self, name: &str) {
        print!("{}", self.to_table());
        let dir = figures_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{name}.csv"));
            if std::fs::write(&path, self.to_csv()).is_ok() {
                println!("[csv written to {}]", path.display());
            }
        }
    }
}

/// Where figure CSVs land.
pub fn figures_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("figures")
}

/// Print a telemetry report's merged CPU-stage / GPU-engine Gantt plus the
/// per-stage and end-to-end latency percentile table, report any stalls
/// the watchdog flagged, write the full report under
/// `target/figures/<name>_telemetry.{json,csv}`, and export a
/// Perfetto-loadable Chrome trace as `<name>.trace.json` (directory
/// overridable with `--trace-out <dir>`).
pub fn emit_telemetry(name: &str, report: &telemetry::TelemetryReport) {
    println!("\n== merged stage/engine activity ({name}) ==");
    print!("{}", report.gantt(72));
    println!("\n== service / end-to-end latency ({name}) ==");
    print!("{}", report.latency_table());
    if !report.stalls.is_empty() {
        println!("\n== stalls detected ({name}) ==");
        for e in &report.stalls {
            println!("  {}", e.describe());
        }
    }
    if !report.faults.is_empty() {
        println!("\n== fault / retry / fallback events ({name}) ==");
        for e in &report.faults {
            println!("  {}", e.describe());
        }
        println!(
            "  [{} retries, {} cpu fallbacks]",
            report.retry_count(),
            report.fallback_count()
        );
    }
    for (i, p) in report.family("pools").enumerate() {
        if i == 0 {
            println!("\n== buffer pools ({name}) ==");
        }
        let stats = telemetry::PoolStats::from(p.values);
        println!(
            "  {:<24} hit rate {:>5.1}%  ({} hits / {} misses, {} outstanding, {} shed)",
            p.labels[0],
            stats.hit_rate() * 100.0,
            stats.hits,
            stats.misses,
            stats.outstanding,
            stats.shed
        );
    }
    let dir = figures_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let json_path = dir.join(format!("{name}_telemetry.json"));
        let csv_path = dir.join(format!("{name}_telemetry.csv"));
        let ok = std::fs::write(&json_path, report.to_json()).is_ok()
            && std::fs::write(&csv_path, report.to_csv()).is_ok();
        if ok {
            println!(
                "[telemetry written to {} and {}]",
                json_path.display(),
                csv_path.display()
            );
        }
    }
    let trace_dir = PathBuf::from(arg(
        "--trace-out",
        figures_dir().to_string_lossy().into_owned(),
    ));
    if std::fs::create_dir_all(&trace_dir).is_ok() {
        let trace_path = trace_dir.join(format!("{name}.trace.json"));
        if std::fs::write(&trace_path, report.to_chrome_trace()).is_ok() {
            println!(
                "[perfetto trace written to {} — load it at ui.perfetto.dev]",
                trace_path.display()
            );
        }
    }
}

/// True if the bare flag `name` appears among the CLI arguments.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Guards over the live observability plane of one figure run: the
/// blocking-TCP metrics endpoint, the periodic Prometheus file writer,
/// and the armed flight-recorder dump. Built by [`live_observability`];
/// call [`finish`](LiveObservability::finish) after the final report so
/// late scrapers see the settled counters.
pub struct LiveObservability {
    server: Option<telemetry::MetricsServer>,
    prom: Option<telemetry::PromWriter>,
    hold: std::time::Duration,
}

/// Wire a recorder into the live observability plane from the CLI:
///
/// * `--live-metrics <addr>` — serve `/metrics`, `/health` and `/flight`
///   at `addr` (e.g. `127.0.0.1:9187`; port `0` picks a free one — the
///   bound address is printed);
/// * `--live-hold <ms>` — keep the endpoint up that long after the run
///   finishes, so external scrapers can observe the settled counters;
/// * `--prom-out <path>` — additionally write the exposition to `path`
///   every 200 ms (plus a final snapshot at stop);
/// * `--flight-storm <n>` — fault-storm dump threshold (default 6,
///   `0` disables the storm trigger; the watchdog-stall trigger is
///   always armed).
///
/// The flight dump is armed at `<trace_dir>/<name>.flight.json` next to
/// the Chrome trace whenever the recorder is enabled — no flag needed;
/// triggers (stall or storm) are what gate it.
pub fn live_observability(name: &str, rec: &telemetry::Recorder) -> LiveObservability {
    if rec.is_enabled() {
        let trace_dir = PathBuf::from(arg(
            "--trace-out",
            figures_dir().to_string_lossy().into_owned(),
        ));
        let _ = std::fs::create_dir_all(&trace_dir);
        rec.arm_flight_dump(
            trace_dir.join(format!("{name}.flight.json")),
            arg("--flight-storm", 6u64),
        );
    }
    let server = match arg("--live-metrics", String::new()) {
        a if a.is_empty() => None,
        a => match rec.serve_metrics(a.as_str()) {
            Ok(s) => {
                println!("[live metrics serving at http://{}/metrics]", s.addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("[live metrics: failed to bind {a}: {e}]");
                None
            }
        },
    };
    let prom = match arg("--prom-out", String::new()) {
        p if p.is_empty() => None,
        p => Some(rec.write_prom_snapshots(p, std::time::Duration::from_millis(200))),
    };
    LiveObservability {
        server,
        prom,
        hold: std::time::Duration::from_millis(arg("--live-hold", 0u64)),
    }
}

impl LiveObservability {
    /// Hold the endpoint open for `--live-hold`, then stop the writer and
    /// the server (final snapshots are flushed on stop).
    pub fn finish(self) {
        if self.server.is_some() && !self.hold.is_zero() {
            println!(
                "[live metrics holding for {} ms before shutdown]",
                self.hold.as_millis()
            );
            std::thread::sleep(self.hold);
        }
        if let Some(p) = self.prom {
            p.stop();
        }
        if let Some(s) = self.server {
            s.stop();
        }
    }
}

/// Run `body` under a live recorder wired into the observability plane
/// ([`live_observability`]), then print and write its report
/// ([`emit_telemetry`]) and the health line, and shut the plane down.
pub fn observed_run(name: &str, body: impl FnOnce(&Recorder)) -> TelemetryReport {
    let rec = Recorder::enabled();
    let live = live_observability(name, &rec);
    body(&rec);
    let report = rec.report();
    emit_telemetry(name, &report);
    println!("{}", rec.health().describe());
    live.finish();
    report
}

/// The instrumented run every figure ends with: an [`observed_run`] of
/// `run` on a fresh two-GPU system with the 1 ms window sampler and the
/// stall watchdog on (stalls, if any, are printed with the report; a
/// healthy run has none). `--inject-faults <seed>` arms the demo fault
/// schedule on that system first and `run` is told so: an armed run should
/// be serial on one device, so the fault budget lands on consecutive
/// attempts of the same batch and the ladder deterministically walks retry
/// → OOM halving → retry exhaustion → CPU fallback, whatever the seed.
/// `run` checks its own output; an armed run must also have recorded a
/// retry and a CPU fallback, and `verdict` says what stayed exact.
pub fn instrumented_run(
    name: &str,
    verdict: &str,
    run: impl FnOnce(&Arc<GpuSystem>, &Recorder, bool),
) -> TelemetryReport {
    let fault_seed: u64 = arg("--inject-faults", 0u64);
    let report = observed_run(name, |rec| {
        let sampler = rec.sample_windows(std::time::Duration::from_millis(1));
        let watchdog = rec.watchdog(std::time::Duration::from_millis(10), 5);
        let system = GpuSystem::new(2, DeviceProps::titan_xp());
        if fault_seed != 0 {
            println!("\n[fault injection armed on the instrumented run: seed {fault_seed}]");
            system.inject_faults(&gpusim::FaultSpec::demo(fault_seed));
        }
        run(&system, rec, fault_seed != 0);
        sampler.stop();
        let _ = watchdog.stop();
    });
    if fault_seed != 0 {
        assert!(
            report.retry_count() >= 1,
            "fault injection armed but no retry was recorded"
        );
        assert!(
            report.fallback_count() >= 1,
            "fault injection armed but no CPU fallback was recorded"
        );
        println!(
            "fault injection: {verdict} ({} retries, {} cpu fallbacks)",
            report.retry_count(),
            report.fallback_count()
        );
    }
    report
}

/// The paper's testbed generalized to `n_dev` devices: the first half
/// full Titan XPs, the rest derated to half clock and half PCIe bandwidth
/// — the heterogeneous fleet the cost-model scheduler has to discover.
pub fn mixed_fleet(n_dev: usize) -> Arc<GpuSystem> {
    GpuSystem::new_mixed(
        (0..n_dev)
            .map(|d| {
                if d < n_dev.div_ceil(2) {
                    DeviceProps::titan_xp()
                } else {
                    DeviceProps::titan_xp().derated("titan-xp-half", 0.5)
                }
            })
            .collect(),
    )
}

/// Cost-model placement vs static round-robin over a [`mixed_fleet`],
/// compared on the deterministic makespan proxy (max device busy).
/// `run(placer, fleet)` drives the harness's placed pipeline over a fresh
/// fleet and checks its output, which must be bit-exact under either
/// placement; `stream` describes the `n_items` it placed, for the report
/// line. At figure scale (no `--tiny`) the cost model must win.
pub fn placed_fleet_demo(
    graph: &str,
    rec: &Recorder,
    n_dev: usize,
    cfg: SchedConfig,
    stream: &str,
    n_items: usize,
    run: impl Fn(Arc<dyn Placement>, &Arc<GpuSystem>),
) {
    let busiest = |fleet: &GpuSystem| -> u64 {
        (0..n_dev)
            .map(|d| fleet.device(d).stats().total_busy().as_nanos())
            .max()
            .unwrap_or(0)
    };
    let fleet = mixed_fleet(n_dev);
    let sched = CostModelScheduler::new(&fleet, cfg, rec, graph);
    run(Arc::clone(&sched) as Arc<dyn Placement>, &fleet);
    let cm_busy = busiest(&fleet);
    let snap = sched.counters().snapshot();
    let fleet = mixed_fleet(n_dev);
    run(RoundRobinPlacement::new(n_dev), &fleet);
    let rr_busy = busiest(&fleet);
    println!(
        "placement on N={n_dev} mixed fleet ({stream}): cost-model max-device-busy {} \
         vs round-robin {} ({} decisions, {} residency hits, {:.0} ns/decision overhead)",
        SimDuration::from_nanos(cm_busy),
        SimDuration::from_nanos(rr_busy),
        snap.decisions,
        snap.residency_hits,
        snap.overhead_per_decision_ns()
    );
    assert_eq!(snap.decisions, n_items as u64, "one decision per item");
    if flag("--tiny") {
        println!("(tiny smoke run: placement makespan shape check skipped)");
        return;
    }
    assert!(
        cm_busy < rr_busy,
        "cost-model placement must beat round-robin on the mixed fleet: \
         {cm_busy} vs {rr_busy}"
    );
}

/// A named shape assertion: prints PASS/FAIL and tracks overall status.
pub struct ShapeChecks {
    failures: Vec<String>,
}

impl Default for ShapeChecks {
    fn default() -> Self {
        Self::new()
    }
}

impl ShapeChecks {
    /// Empty checker.
    pub fn new() -> Self {
        ShapeChecks {
            failures: Vec::new(),
        }
    }

    /// Assert a qualitative claim from the paper.
    pub fn check(&mut self, claim: &str, ok: bool) {
        if ok {
            println!("  PASS  {claim}");
        } else {
            println!("  FAIL  {claim}");
            self.failures.push(claim.to_string());
        }
    }

    /// Exit non-zero if any claim failed.
    pub fn finish(self) {
        println!();
        if self.failures.is_empty() {
            println!("all shape checks passed");
        } else {
            println!("{} shape check(s) FAILED:", self.failures.len());
            for f in &self.failures {
                println!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Format a `SimDuration` as seconds with sensible precision.
pub fn secs(d: simtime::SimDuration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Deterministic per-key shard assignment (FNV-1a over the key), shared
/// by the harnesses' `--source file` ingress paths: records of the same
/// stream key always land on the same shard, so per-shard FIFO gives
/// per-key ordering — unlike round-robin, which scatters a key.
pub fn shard_of(key: u64, shards: u32) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % u64::from(shards)) as u32
}

/// A Mandelbrot ingress record: the row span `[y0, y0 + rows)` as
/// `[u32 y0][u32 rows]` LE.
pub fn span_payload(y0: u32, rows: u32) -> [u8; 8] {
    let mut p = [0u8; 8];
    p[..4].copy_from_slice(&y0.to_le_bytes());
    p[4..].copy_from_slice(&rows.to_le_bytes());
    p
}

/// Inverse of [`span_payload`].
pub fn decode_span(payload: &[u8]) -> (u32, u32) {
    assert_eq!(payload.len(), 8, "row-span payload is 8 bytes");
    (
        u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")),
        u32::from_le_bytes(payload[4..].try_into().expect("4 bytes")),
    )
}

/// What one [`ingress_demo`] run did, plus its egress log as replayed
/// from disk.
pub struct IngressOutcome {
    /// The egress log read back: shard → record payloads in sequence order.
    pub egress: HashMap<u32, Vec<Vec<u8>>>,
    /// Records processed and emitted by this run.
    pub emitted: u64,
    /// Records a previous incarnation had emitted but not committed:
    /// skipped instead of re-emitted.
    pub skipped: u64,
    /// Shards that resumed from a committed offset.
    pub resumed: u32,
}

/// The durable `--source file` path of every figure harness. `records`
/// (each with the shard it rides) are produced once into a segmented file
/// log under `--ingress-dir` (default `target/figures/<name>_ingress`),
/// consumed as group `name` with resumable offsets through the pinned
/// pooled pump, turned by `process` into one egress record each, and
/// appended to a second log with fsync-on-ack per record; an input offset
/// commits only after its egress record is durable. `--kill-after N`
/// exits in the window between the two — the crash the exactly-once rule
/// exists for: the rerun is re-delivered that record, finds its sequence
/// number below the egress watermark and skips the re-emit.
pub fn ingress_demo(
    name: &str,
    rec: &Recorder,
    shards: u32,
    records: &[(u32, Vec<u8>)],
    mut process: impl FnMut(&[u8]) -> Vec<u8>,
) -> IngressOutcome {
    let kill_after: u64 = arg("--kill-after", 0u64);
    let root = PathBuf::from(arg(
        "--ingress-dir",
        figures_dir()
            .join(format!("{name}_ingress"))
            .to_string_lossy()
            .into_owned(),
    ));
    let in_key = StreamKey::new(format!("{name}-in")).expect("valid key");
    let out_key = StreamKey::new(format!("{name}-out")).expect("valid key");

    // Produce the input stream exactly once: a restarted run finds the
    // records already durable and goes straight to consuming.
    {
        let mut sink = FileLogSink::open(&root, &in_key, shards).expect("open input log");
        let durable: u64 = (0..shards)
            .map(|s| sink.next_seq(ShardId(s)).expect("next_seq"))
            .sum();
        if durable == 0 {
            for (shard, payload) in records {
                sink.send(ShardId(*shard), payload).expect("send record");
            }
            sink.flush().expect("flush input log");
            println!(
                "ingress(file): produced {} records across {shards} shards under {}",
                records.len(),
                root.display()
            );
        } else {
            println!("ingress(file): found {durable} durable input records (restart)");
        }
    }

    // Where does each shard restart? The consumer group's committed
    // offsets decide; the source below loads the same store.
    let offsets = GroupOffsets::open(&root, &in_key, name).expect("open group offsets");
    let mut total_per_shard = vec![0u64; shards as usize];
    for (shard, _) in records {
        total_per_shard[*shard as usize] += 1;
    }
    let mut remaining = 0u64;
    let mut resumed = 0u32;
    for s in 0..shards {
        let committed = offsets.load(ShardId(s)).expect("load offset").unwrap_or(0);
        if committed > 0 {
            println!("resumed shard {s} at seq {committed}");
            resumed += 1;
        }
        remaining += total_per_shard[s as usize].saturating_sub(committed);
    }

    // Pump: file log → pinned pooled buffers → batched fastflow channel.
    // The delta-scoped ledger covers the pump thread, so "external bytes
    // land pinned with no extra copy" is asserted, not assumed.
    let ledger = telemetry::copy::CopyLedger::new();
    let stats = IngressStats::new(rec, in_key.as_str());
    let src = FileLogSource::open_resume(&root, &in_key, name, workload::pinned_pool::<u8>())
        .expect("open resumable source");
    let (tx, rx) = fastflow::channel::<ingress::Message>(32, fastflow::WaitStrategy::Block);
    let pump = spawn_pump(
        Box::new(src),
        tx,
        |m| {
            assert!(
                gpusim::pinned::is_pinned(&m.payload[..]),
                "ingress payload must land in a pinned slab"
            );
            m
        },
        PumpConfig {
            ledger: Some(ledger.clone()),
            ..PumpConfig::default()
        },
        rec,
        Arc::clone(&stats),
    );

    // Consumer: one egress record per input record, committed only after
    // the egress write is fsynced.
    let mut egress = FileLogSink::open(&root, &out_key, shards)
        .expect("open egress log")
        .with_max_in_flight(1); // fsync-on-ack per record
    let ack_flight = rec.flight_handle(&format!("ingress:{out_key}"));
    let stage_handles: Vec<telemetry::StageHandle> = (0..shards)
        .map(|s| rec.stage(format!("ingress.s{s}"), s as usize))
        .collect();

    let mut emitted = 0u64;
    let mut skipped = 0u64;
    let mut items: Vec<ingress::Message> = Vec::new();
    while remaining > 0 {
        items.clear();
        if rx.recv_batch(&mut items, 16) == 0 {
            panic!("ingress pump hung up with {remaining} records outstanding");
        }
        let depth = items.len();
        for m in items.drain(..) {
            let (s, seq) = (m.shard.0, m.seq);
            let h = &stage_handles[s as usize];
            h.item_in(depth);
            let next_out = egress.next_seq(m.shard).expect("egress next_seq");
            if seq < next_out {
                // Emitted by a previous incarnation that died before
                // committing: skip the re-emit, commit the offset.
                skipped += 1;
            } else {
                assert_eq!(
                    seq, next_out,
                    "shard {s}: input seq {seq} vs egress watermark {next_out}"
                );
                let payload = h.service(|| process(&m.payload));
                let receipt = egress.send(m.shard, &payload).expect("egress send");
                assert!(receipt.is_acked(), "max_in_flight(1) acks every send");
                stats.counters(s).add_acks(1);
                ack_flight.emit(
                    FlightKind::IngressAck,
                    u64::from(s),
                    1,
                    payload.len() as u64,
                );
                emitted += 1;
                if kill_after > 0 && emitted == kill_after {
                    println!(
                        "killed after {kill_after} batches \
                         (egress record durable, input offset uncommitted)"
                    );
                    std::process::exit(0);
                }
            }
            offsets.commit(m.shard, seq + 1).expect("commit offset");
            stats.counters(s).committed_to(seq + 1);
            h.items_out(1);
            remaining -= 1;
        }
    }
    drop(rx);
    let pumped = pump.join().expect("pump result");

    let copies = ledger.stats();
    assert_eq!(
        copies.bytes_copied(),
        0,
        "pooled pinned ingress path must not copy: {copies:?}"
    );
    println!(
        "ingress copy ledger: 0 staging bytes/batch across {pumped} pumped records \
         ({} staging ops, {} bounce ops)",
        copies.staging_ops, copies.bounce_ops
    );

    IngressOutcome {
        egress: read_all(&root, &out_key).expect("replay egress log"),
        emitted,
        skipped,
        resumed,
    }
}

/// [`ingress_demo`] for the Mandelbrot harnesses: one row-span record per
/// batch on shard `shard_for(y0, shards)`, each rendered through the full
/// `WorkloadDriver` ladder on offload `O` and emitted as
/// `[span][pixels]`; the image rebuilt from the replayed egress log must
/// hold every span exactly once, on its shard, and be bit-identical to
/// `seq_img`.
pub fn mandel_ingress_demo<O: Offload>(
    name: &str,
    rec: &Recorder,
    params: &FractalParams,
    seq_img: &mandel::Image,
    batch: usize,
    shard_for: impl Fn(u32, u32) -> u32,
) -> IngressOutcome {
    let dim = params.dim;
    let n_batches = dim.div_ceil(batch);
    let shards: u32 = arg("--shards", 2u32);
    assert!(shards >= 1, "--shards must be at least 1");
    let records: Vec<(u32, Vec<u8>)> = (0..n_batches)
        .map(|b| {
            let y0 = (b * batch) as u32;
            let rows = batch.min(dim - b * batch) as u32;
            (shard_for(y0, shards), span_payload(y0, rows).to_vec())
        })
        .collect();

    let tsys = GpuSystem::new(2, DeviceProps::titan_xp());
    let work = MandelWork::<O>::new(&tsys, params, batch, 1, 1);
    let driver = WorkloadDriver::new(work).with_recorder(rec.clone());
    let mut gpu = driver.attach(0);
    let outcome = ingress_demo(name, rec, shards, &records, |span| {
        let (y0, rows) = decode_span(span);
        let pixels = driver.process(&mut gpu, &(y0 as usize / batch));
        let mut payload = Vec::with_capacity(8 + rows as usize * dim);
        payload.extend_from_slice(span);
        payload.extend_from_slice(&pixels[..rows as usize * dim]);
        payload
    });

    let mut img = mandel::Image::new(dim);
    let mut seen = vec![false; n_batches];
    for (shard, records) in &outcome.egress {
        for bytes in records {
            let (y0, rows) = decode_span(&bytes[..8]);
            assert_eq!(
                *shard,
                shard_for(y0, shards),
                "egress record on the wrong shard for its key"
            );
            let (y0, rows) = (y0 as usize, rows as usize);
            assert_eq!(bytes.len(), 8 + rows * dim, "egress record framing");
            let bi = y0 / batch;
            assert!(!seen[bi], "row span at y0={y0} emitted twice");
            seen[bi] = true;
            img.data[y0 * dim..y0 * dim + rows * dim].copy_from_slice(&bytes[8..]);
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "egress log is missing row spans: {seen:?}"
    );
    assert_eq!(
        img.digest(),
        seq_img.digest(),
        "ingress-assembled image differs from the sequential render"
    );
    println!(
        "ingress image bit-identical ({} spans rendered this run, \
         {} skipped re-emits — exactly-once egress)",
        outcome.emitted, outcome.skipped
    );
    outcome
}

/// Parse `--key value` style arguments with a default.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1) {
                if let Ok(parsed) = v.parse() {
                    return parsed;
                }
            }
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_table_and_csv() {
        let mut r = Report::new("t", vec!["a", "bb"]);
        r.row(vec!["1".into(), "2,3".into()]);
        let table = r.to_table();
        assert!(table.contains("a "));
        assert!(table.contains('1'));
        let csv = r.to_csv();
        assert!(csv.starts_with("a,bb\n"));
        assert!(csv.contains("\"2,3\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut r = Report::new("t", vec!["a"]);
        r.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(simtime::SimDuration::from_micros(400_000_000)), "400s");
        assert_eq!(secs(simtime::SimDuration::from_micros(1_500_000)), "1.50s");
        assert_eq!(secs(simtime::SimDuration::from_micros(250)), "250.0us");
    }

    #[test]
    fn arg_returns_default_when_absent() {
        assert_eq!(arg("--definitely-not-passed", 42u32), 42);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for key in 0..1000u64 {
            let s = shard_of(key, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(key, 4), "same key, same shard");
        }
        // Not degenerate: several shards actually used.
        let used: std::collections::HashSet<u32> = (0..32).map(|k| shard_of(k, 4)).collect();
        assert!(used.len() >= 3, "keys spread over shards: {used:?}");
    }
}
