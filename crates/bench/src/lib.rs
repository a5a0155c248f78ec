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
//!   datasets and versions (Fig. 5);
//! * `cargo run --release -p bench --bin hashsearch` — the third GPU
//!   application, every API × GPU count against the host reference;
//! * `cargo run --release -p bench --bin ablate` — the design-choice
//!   ablations, ending with the auto-tuner's trajectory.
//!
//! Each binary prints an aligned table and writes it as a CSV under
//! `target/figures/`; the figure binaries end with one instrumented run
//! ([`instrumented_run`]). The paper's qualitative *shape* claims are
//! asserted by the root package's `tests/fig_shapes.rs`, not here. The
//! repo's benchmark is a package of its own (`benchmark/run.sh`).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gpusim::{DeviceProps, GpuSystem};
use telemetry::Recorder;

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
/// the watchdog flagged, write the full report as
/// `target/figures/<name>_telemetry.json`, and export a
/// Perfetto-loadable Chrome trace as `target/figures/<name>.trace.json`.
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
        if std::fs::write(&json_path, report.to_json()).is_ok() {
            println!("[telemetry written to {}]", json_path.display());
        }
        let trace_path = dir.join(format!("{name}.trace.json"));
        if std::fs::write(&trace_path, report.to_chrome_trace()).is_ok() {
            println!(
                "[perfetto trace written to {} — load it at ui.perfetto.dev]",
                trace_path.display()
            );
        }
    }
}

/// The instrumented run every figure ends with: `run` on a fresh two-GPU
/// system under an enabled recorder, with the 1 ms window sampler and the
/// stall watchdog on (stalls, if any, are printed with the report; a
/// healthy run has none). The flight dump is armed at
/// `target/figures/<name>.flight.json`, written on a watchdog stall, the
/// sixth fault event or a CPU fallback. The report is then printed and
/// written ([`emit_telemetry`]) with the health line. `run` checks its own
/// output.
pub fn instrumented_run(name: &str, run: impl FnOnce(&Arc<GpuSystem>, &Recorder)) {
    let rec = Recorder::enabled();
    let dir = figures_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        rec.arm_flight_dump(dir.join(format!("{name}.flight.json")), 6);
    }
    let sampler = rec.sample_windows(Duration::from_millis(1));
    let watchdog = rec.watchdog(Duration::from_millis(10), 5);
    run(&GpuSystem::new(2, DeviceProps::titan_xp()), &rec);
    sampler.stop();
    let _ = watchdog.stop();
    emit_telemetry(name, &rec.report());
    println!("{}", rec.health().describe());
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

/// Parse `--key value` style arguments with a default. A flag given
/// without a value, or with one that does not parse, is a usage error:
/// the message goes to stderr and the process exits 2.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    let problem = match args.get(i + 1) {
        Some(v) => match v.parse() {
            Ok(parsed) => return parsed,
            Err(_) => format!("cannot parse '{v}'"),
        },
        None => "missing value".to_string(),
    };
    eprintln!("error: {name}: {problem}");
    std::process::exit(2)
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
}
