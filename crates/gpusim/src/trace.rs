//! Command tracing: record every command's modeled interval and render a
//! text Gantt chart of the device timeline.
//!
//! This is the visual counterpart of §IV-A's optimization story — with
//! tracing enabled, the difference between the synchronous batch loop and
//! the multi-stream overlapped version is literally visible: gaps close on
//! the compute row while copies slide under kernels.

use simtime::SimTime;

/// Which engine executed a command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEngine {
    /// Kernel execution.
    Compute,
    /// Host→device copy.
    H2D,
    /// Device→host copy.
    D2H,
}

impl TraceEngine {
    /// Row label in rendered timelines.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEngine::Compute => "compute",
            TraceEngine::H2D => "h2d    ",
            TraceEngine::D2H => "d2h    ",
        }
    }

    /// Engine name without padding (telemetry row keys).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEngine::Compute => "compute",
            TraceEngine::H2D => "h2d",
            TraceEngine::D2H => "d2h",
        }
    }
}

/// One traced command.
#[derive(Clone, Debug)]
pub struct CommandRecord {
    /// Engine the command ran on.
    pub engine: TraceEngine,
    /// Command label (kernel name, "h2d", "d2h").
    pub name: &'static str,
    /// Stream it was enqueued on.
    pub stream: usize,
    /// Modeled start.
    pub start: SimTime,
    /// Modeled end.
    pub end: SimTime,
}

/// Render records as a fixed-width text Gantt: one row per engine, `#` for
/// busy spans, `.` for idle, `width` columns across the full makespan.
pub fn render_timeline(records: &[CommandRecord], width: usize) -> String {
    assert!(width >= 10, "need at least 10 columns");
    if records.is_empty() {
        return String::from("(no commands traced)\n");
    }
    let t0 = records.iter().map(|r| r.start).min().expect("non-empty");
    let t1 = records.iter().map(|r| r.end).max().expect("non-empty");
    let span = t1.since(t0).as_nanos().max(1) as f64;
    let mut out = String::new();
    for engine in [TraceEngine::H2D, TraceEngine::Compute, TraceEngine::D2H] {
        let mut row = vec!['.'; width];
        for r in records.iter().filter(|r| r.engine == engine) {
            let a = ((r.start.since(t0).as_nanos() as f64 / span) * width as f64) as usize;
            let b = ((r.end.since(t0).as_nanos() as f64 / span) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width - 1)) {
                *cell = '#';
            }
        }
        out.push_str(engine.label());
        out.push_str(" |");
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "          0{:>w$}\n",
        format!("{}", t1.since(t0)),
        w = width + 1
    ));
    out
}

/// Feed traced commands into a [`telemetry::Recorder`] as GPU engine spans
/// so they land on the same merged timeline as CPU stage metrics.
///
/// The spans keep the simulator's modeled clock (nanoseconds since the
/// device clock was last reset), which the unified report juxtaposes with
/// the wall-clock CPU rows — the same two-clock presentation as the
/// paper's Fig. 3 activity graph.
pub fn feed_recorder(rec: &telemetry::Recorder, device: usize, records: &[CommandRecord]) {
    if !rec.is_enabled() {
        return;
    }
    for r in records {
        rec.gpu_span(telemetry::EngineSpan {
            device,
            engine: r.engine.name(),
            name: r.name.to_string(),
            stream: r.stream,
            start_ns: r.start.as_nanos(),
            end_ns: r.end.as_nanos(),
        });
    }
}

/// Fraction of the traced makespan during which at least two engines were
/// busy simultaneously — the "overlap" the paper's 2×-memory optimization
/// buys.
pub fn overlap_fraction(records: &[CommandRecord]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    // Sweep over engine busy intervals.
    let mut events: Vec<(u64, i32)> = Vec::with_capacity(records.len() * 2);
    for r in records {
        events.push((r.start.as_nanos(), 1));
        events.push((r.end.as_nanos(), -1));
    }
    events.sort_unstable();
    let t0 = records
        .iter()
        .map(|r| r.start.as_nanos())
        .min()
        .expect("non-empty");
    let t1 = records
        .iter()
        .map(|r| r.end.as_nanos())
        .max()
        .expect("non-empty");
    let span = (t1 - t0).max(1) as f64;
    let mut active = 0i32;
    let mut last = t0;
    let mut overlapped = 0u64;
    for (t, delta) in events {
        if active >= 2 {
            overlapped += t - last;
        }
        active += delta;
        last = t;
    }
    overlapped as f64 / span
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(engine: TraceEngine, start: u64, end: u64) -> CommandRecord {
        CommandRecord {
            engine,
            name: "t",
            stream: 0,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    #[test]
    fn render_shows_busy_and_idle() {
        let recs = vec![
            rec(TraceEngine::Compute, 0, 50),
            rec(TraceEngine::D2H, 50, 100),
        ];
        let s = render_timeline(&recs, 20);
        assert!(s.contains("compute |##########"));
        assert!(s.contains("d2h"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // 3 engine rows + axis
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert!(render_timeline(&[], 20).contains("no commands"));
    }

    #[test]
    fn overlap_fraction_detects_concurrency() {
        // Serial: compute then copy — no overlap.
        let serial = vec![
            rec(TraceEngine::Compute, 0, 50),
            rec(TraceEngine::D2H, 50, 100),
        ];
        assert_eq!(overlap_fraction(&serial), 0.0);
        // Fully overlapped halves.
        let overlapped = vec![
            rec(TraceEngine::Compute, 0, 100),
            rec(TraceEngine::D2H, 0, 100),
        ];
        assert!((overlap_fraction(&overlapped) - 1.0).abs() < 1e-9);
        // Half overlap.
        let half = vec![
            rec(TraceEngine::Compute, 0, 100),
            rec(TraceEngine::D2H, 50, 150),
        ];
        let f = overlap_fraction(&half);
        assert!((f - 1.0 / 3.0).abs() < 0.01, "f={f}");
    }
}
