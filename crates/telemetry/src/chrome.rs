//! Chrome trace-event (Perfetto) export of a [`TelemetryReport`].
//!
//! The emitted JSON is the classic `{"traceEvents": [...]}` document that
//! `ui.perfetto.dev` and `chrome://tracing` load directly: CPU stage
//! replicas become threads of a "cpu stages" process, GPU engines become
//! threads of a "gpu engines (modeled clock)" process, and the recorder's
//! sampled per-item journeys become flow arrows from the source row to
//! the sink row. Timestamps are microseconds (the format's unit), kept to
//! nanosecond precision with three decimals.

use std::fmt::Write as _;

use crate::{esc, TelemetryReport};

/// Timestamp conversion: trace-event `ts`/`dur` are in microseconds.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

const CPU_PID: u32 = 1;
const GPU_PID: u32 = 2;

impl TelemetryReport {
    /// Export the report as a Chrome trace-event JSON document loadable in
    /// `ui.perfetto.dev`.
    ///
    /// Merges three sources onto one timeline:
    /// * every CPU stage replica's busy spans (wall clock, pid 1);
    /// * every GPU engine's command spans from the `gpusim` traces
    ///   (modeled clock, pid 2), with the stream index in `args`;
    /// * flow arrows for the per-item journeys the recorder sampled
    ///   (emit at the source → retire at the sink).
    ///
    /// All duration events are emitted in ascending `ts` order with
    /// non-negative `dur`.
    pub fn to_chrome_trace(&self) -> String {
        let mut meta: Vec<String> = Vec::new();
        // (ts, rendered event) so the body can be sorted by timestamp.
        let mut events: Vec<(u64, String)> = Vec::new();

        meta.push(format!(
            "{{\"ph\":\"M\",\"pid\":{CPU_PID},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"cpu stages\"}}}}"
        ));
        meta.push(format!(
            "{{\"ph\":\"M\",\"pid\":{GPU_PID},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"gpu engines (modeled clock)\"}}}}"
        ));

        // CPU stage replicas: one thread per replica, in report order.
        let mut source_tid = None;
        let mut sink_tid = None;
        for (i, s) in self.stages.iter().enumerate() {
            let tid = i as u32 + 1;
            if s.name == "source" && source_tid.is_none() {
                source_tid = Some(tid);
            }
            if s.name == "sink" {
                sink_tid = Some(tid);
            }
            meta.push(format!(
                "{{\"ph\":\"M\",\"pid\":{CPU_PID},\"tid\":{tid},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"{}/{}\"}}}}",
                esc(&s.name),
                s.replica
            ));
            for &(start, end) in &s.spans {
                let end = end.max(start);
                events.push((
                    start,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":{CPU_PID},\"tid\":{tid}}}",
                        esc(&s.name),
                        us(start),
                        us(end - start)
                    ),
                ));
            }
        }
        // Fallbacks when the graph has no stage literally named
        // "source"/"sink" (e.g. tbb names filters "filterN").
        let source_tid = source_tid.unwrap_or(1);
        let sink_tid = sink_tid.unwrap_or(self.stages.len().max(1) as u32);

        // GPU engines: one thread per (device, engine).
        let mut keys: Vec<(usize, &'static str)> =
            self.gpu.iter().map(|g| (g.device, g.engine)).collect();
        keys.sort_unstable();
        keys.dedup();
        for (i, &(device, engine)) in keys.iter().enumerate() {
            let tid = i as u32 + 1;
            meta.push(format!(
                "{{\"ph\":\"M\",\"pid\":{GPU_PID},\"tid\":{tid},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"gpu{device}/{engine}\"}}}}"
            ));
            for g in self
                .gpu
                .iter()
                .filter(|g| g.device == device && g.engine == engine)
            {
                let end = g.end_ns.max(g.start_ns);
                events.push((
                    g.start_ns,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"gpu\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":{GPU_PID},\"tid\":{tid},\
                         \"args\":{{\"stream\":{}}}}}",
                        esc(&g.name),
                        us(g.start_ns),
                        us(end - g.start_ns),
                        g.stream
                    ),
                ));
            }
        }

        // Fault-path events as global instant events ("i" phase), pinned
        // to the faulting stage's row when the stage has one.
        for e in &self.faults {
            let tid = self
                .stages
                .iter()
                .position(|s| e.stage.starts_with(&s.name))
                .map(|i| i as u32 + 1)
                .unwrap_or(source_tid);
            events.push((
                e.t_ns,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":{CPU_PID},\"tid\":{tid},\
                     \"args\":{{\"stage\":\"{}\",\"detail\":\"{}\"}}}}",
                    e.kind.label(),
                    us(e.t_ns),
                    esc(&e.stage),
                    esc(&e.detail)
                ),
            ));
        }

        // Per-item flow arrows: emit at the source row, retire at the sink
        // row, one arrow per sampled journey.
        for (id, &(emit_ns, done_ns)) in self.flows.iter().enumerate() {
            if done_ns < emit_ns || (emit_ns == 0 && done_ns == 0) {
                continue;
            }
            events.push((
                emit_ns,
                format!(
                    "{{\"name\":\"item\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\
                     \"ts\":{},\"pid\":{CPU_PID},\"tid\":{source_tid}}}",
                    us(emit_ns)
                ),
            ));
            events.push((
                done_ns,
                format!(
                    "{{\"name\":\"item\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                     \"id\":{id},\"ts\":{},\"pid\":{CPU_PID},\"tid\":{sink_tid}}}",
                    us(done_ns)
                ),
            ));
        }

        events.sort_by_key(|(ts, _)| *ts);

        let mut out = String::from("{\n\"traceEvents\": [\n");
        let total = meta.len() + events.len();
        for (i, ev) in meta
            .into_iter()
            .chain(events.into_iter().map(|(_, e)| e))
            .enumerate()
        {
            let _ = writeln!(out, "{ev}{}", if i + 1 < total { "," } else { "" });
        }
        out.push_str("],\n\"displayTimeUnit\": \"ns\"\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineSpan, Recorder};

    #[test]
    fn trace_has_stage_gpu_and_flow_events() {
        let rec = Recorder::enabled();
        let src = rec.stage("source", 0);
        let sink = rec.stage("sink", 0);
        for _ in 0..3 {
            let t = src.begin();
            let stamp = src.stamp_ns();
            std::thread::sleep(std::time::Duration::from_micros(100));
            src.end(t);
            let t = sink.begin();
            sink.end(t);
            rec.record_e2e(stamp);
        }
        rec.gpu_span(EngineSpan {
            device: 0,
            engine: "compute",
            name: "kernel".into(),
            stream: 2,
            start_ns: 10,
            end_ns: 400,
        });
        let trace = rec.report().to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"cpu stages\""));
        assert!(trace.contains("\"gpu engines (modeled clock)\""));
        assert!(trace.contains("\"kernel\""));
        assert!(trace.contains("\"stream\":2"));
        assert!(trace.contains("\"ph\":\"s\""));
        assert!(trace.contains("\"ph\":\"f\""));
    }

    #[test]
    fn empty_report_is_still_a_valid_document() {
        let trace = Recorder::enabled().report().to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.trim_end().ends_with('}'));
    }
}
