//! The figure binaries end to end: each runs at a small scale, exits 0 and
//! leaves its CSVs, telemetry report and Chrome trace under
//! `$CARGO_TARGET_DIR/figures`; a value that does not parse is a usage
//! error (exit 2), never a silent default.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `exe` with `args` and its own `CARGO_TARGET_DIR`; returns the
/// output and the figures directory it wrote to.
fn run(tag: &str, exe: &str, args: &[&str]) -> (Output, PathBuf) {
    let target =
        std::env::temp_dir().join(format!("hetstream_figures_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&target);
    let out = Command::new(exe)
        .args(args)
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("spawn figure binary");
    (out, target.join("figures"))
}

/// `exe args` succeeds and writes every one of `files`, non-empty.
fn writes(tag: &str, exe: &str, args: &[&str], files: &[&str]) {
    let (out, dir) = run(tag, exe, args);
    assert!(
        out.status.success(),
        "{tag} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in files {
        let len = std::fs::metadata(dir.join(f)).map_or(0, |m| m.len());
        assert!(len > 0, "{tag} {args:?} did not write {f}");
    }
    let _ = std::fs::remove_dir_all(dir.parent().expect("target dir"));
}

/// The instrumented run's two outputs for figure `name`.
fn telemetry(name: &str) -> [String; 2] {
    [
        format!("{name}_telemetry.json"),
        format!("{name}.trace.json"),
    ]
}

#[test]
fn fig1_writes_its_table_and_telemetry() {
    let [json, trace] = telemetry("fig1");
    let args = ["--dim", "64", "--niter", "100"];
    let files = ["fig1.csv", &json, &trace];
    writes("fig1", env!("CARGO_BIN_EXE_fig1"), &args, &files);
}

#[test]
fn fig4_writes_its_table_and_both_telemetry_runs() {
    let [json, trace] = telemetry("fig4");
    let [tbb_json, tbb_trace] = telemetry("fig4_tbb");
    let args = ["--dim", "64", "--niter", "100"];
    let files = ["fig4.csv", &json, &trace, &tbb_json, &tbb_trace];
    writes("fig4", env!("CARGO_BIN_EXE_fig4"), &args, &files);
}

#[test]
fn fig5_writes_its_table_and_telemetry() {
    let [json, trace] = telemetry("fig5");
    let args = ["--mb", "0.05", "--batch-kb", "16"];
    let files = ["fig5.csv", &json, &trace];
    writes("fig5", env!("CARGO_BIN_EXE_fig5"), &args, &files);
}

#[test]
fn hashsearch_writes_its_tables_and_telemetry() {
    let [json, trace] = telemetry("hashsearch");
    let args = ["--nonces", "2048", "--range", "256"];
    let files = ["hashsearch.csv", "hashsearch_topk.csv", &json, &trace];
    writes(
        "hashsearch",
        env!("CARGO_BIN_EXE_hashsearch"),
        &args,
        &files,
    );
}

#[test]
fn ablate_writes_every_study_including_the_tuner_trajectory() {
    let files = [
        "ablate_batch.csv",
        "ablate_workers.csv",
        "ablate_sched.csv",
        "ablate_tokens.csv",
        "ablate_autotune.csv",
    ];
    let args = ["--dim", "64", "--niter", "100"];
    writes("ablate", env!("CARGO_BIN_EXE_ablate"), &args, &files);
}

#[test]
fn an_unparsable_value_exits_2_with_a_message() {
    let (out, dir) = run("badarg", env!("CARGO_BIN_EXE_fig1"), &["--dim", "abc"]);
    assert_eq!(out.status.code(), Some(2), "fig1 --dim abc must be refused");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error: --dim: cannot parse 'abc'"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.exists(), "a refused run must not write figures");
}
