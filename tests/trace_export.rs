//! Chrome-trace / Perfetto export of a real instrumented run: the JSON
//! must be well-formed enough for the trace viewer (balanced document,
//! sorted timestamps, non-negative durations, paired flow arrows) and must
//! carry both clock domains — CPU stage rows and GPU engine rows.

use hetstream::gpusim::DeviceProps;
use hetstream::mandel::{self, core::FractalParams};
use hetstream::prelude::*;

/// Pull every numeric value following `"key":` out of the JSON text.
/// The exporter emits flat numbers (no nesting tricks), so a scan is an
/// adequate stand-in for a JSON parser in this dependency-free workspace.
fn values_of(json: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        rest = &rest[i + pat.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push(v);
        }
    }
    out
}

fn count_of(json: &str, needle: &str) -> usize {
    json.matches(needle).count()
}

/// Walk a JSON document tracking string state: braces and brackets
/// balance outside strings, every string closes, escapes are JSON's own,
/// and no raw control character sits inside a string.
fn assert_well_formed(json: &str) {
    let (mut open, mut in_string, mut escaped) = (Vec::new(), false, false);
    for c in json.chars() {
        if escaped {
            assert!("\"\\/bfnrtu".contains(c), "bad escape \\{c} in:\n{json}");
            escaped = false;
        } else if in_string {
            assert!(c >= ' ', "raw control character {c:?} in:\n{json}");
            (in_string, escaped) = (c != '"', c == '\\');
        } else {
            match c {
                '"' => in_string = true,
                '{' | '[' => open.push(c),
                '}' => assert_eq!(open.pop(), Some('{'), "unbalanced in:\n{json}"),
                ']' => assert_eq!(open.pop(), Some('['), "unbalanced in:\n{json}"),
                _ => {}
            }
        }
    }
    assert!(!in_string && open.is_empty(), "unterminated:\n{json}");
}

#[test]
fn chrome_trace_of_a_real_run_is_viewer_loadable() {
    let params = FractalParams::view(96, 64);
    let rec = Recorder::enabled();
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    let img = mandel::hybrid::run_spar_gpu::<CudaOffload>(&system, &params, 3, 16, 2, rec.clone());
    assert_eq!(
        img.digest(),
        mandel::cpu::run_sequential(&params).0.digest()
    );

    let json = rec.report().to_chrome_trace();

    // Document shape: one traceEvents array, a display unit, balanced
    // braces/brackets.
    assert!(json.trim_start().starts_with('{'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"displayTimeUnit\""));
    assert_well_formed(&json);

    // Both clock domains present: CPU stage process and GPU engine process
    // metadata, plus at least one complete (X) span in each.
    assert!(json.contains("cpu stages"));
    assert!(json.contains("gpu engines"));
    assert!(count_of(&json, "\"ph\":\"X\"") >= 2);

    // Timestamps are sorted and durations non-negative — Perfetto rejects
    // traces violating either.
    let ts = values_of(&json, "ts");
    assert!(!ts.is_empty());
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "trace events must be sorted by ts"
    );
    assert!(values_of(&json, "dur").iter().all(|&d| d >= 0.0));

    // Per-item flow arrows come in matched start/finish pairs sharing ids.
    let starts = count_of(&json, "\"ph\":\"s\"");
    let finishes = count_of(&json, "\"ph\":\"f\"");
    assert_eq!(starts, finishes, "every flow arrow needs both ends");
    assert!(starts > 0, "instrumented run must sample item journeys");
    let ids = values_of(&json, "id");
    assert_eq!(ids.len(), starts + finishes);
}

#[test]
fn empty_report_exports_an_empty_but_valid_trace() {
    let json = Recorder::default().report().to_chrome_trace();
    assert!(json.contains("\"traceEvents\""));
    assert_well_formed(&json);
    assert_eq!(count_of(&json, "\"ph\":\"X\""), 0);
}

#[test]
fn caller_supplied_strings_cannot_break_any_json_document() {
    // Stage names and fault details are arbitrary strings; every JSON
    // writer must escape quotes, backslashes and control characters.
    const NASTY: &str = "a\"b\\c\n\t\u{1}{[";
    let rec = Recorder::enabled();
    let stage = rec.stage(NASTY, 0);
    stage.item_in(1);
    let t = stage.begin();
    std::thread::sleep(std::time::Duration::from_micros(50));
    stage.end(t);
    stage.items_out(1);
    rec.fault_in_batch(
        NASTY,
        hetstream::telemetry::FaultKind::Retry,
        hetstream::telemetry::NO_BATCH,
        NASTY,
    );
    let report = rec.report();
    for (what, json) in [
        ("report", report.to_json()),
        ("health", rec.health().to_json()),
        ("flight dump", rec.flight_json(NASTY)),
        ("chrome trace", report.to_chrome_trace()),
    ] {
        assert!(
            json.contains("a\\\"b\\\\c\\n\\t\\u0001{["),
            "{what}:\n{json}"
        );
        assert_well_formed(&json);
    }
}
