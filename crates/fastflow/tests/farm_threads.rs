//! A farm costs its N workers and nothing else: the source distributes,
//! the caller merges. Alone in its test binary, because it counts this
//! process's `ff-*` threads.
#![cfg(target_os = "linux")]

use fastflow::{node, Pipeline};

#[path = "../../telemetry/src/deadline.rs"]
mod deadline;
use deadline::within_deadline;

/// Names of this process's runtime threads, sorted.
fn runtime_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("ff-"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_running_two_worker_farm_has_source_plus_two_worker_threads() {
    within_deadline(|| {
        let (mut rx, threads) = Pipeline::builder()
            .capacity(4)
            .from_iter(0..10_000_000u64)
            .farm_ordered(2, |_| node::map(|x: u64| x + 1))
            .into_receiver();
        // Once each worker's first item has come through, every thread has
        // started and named itself, and the source — far from done — is held
        // by the full rings.
        assert_eq!(rx.recv().map(|s| s.item), Some(1));
        assert_eq!(rx.recv().map(|s| s.item), Some(2));
        assert_eq!(
            runtime_threads(),
            ["ff-source", "ff-worker-0", "ff-worker-1"],
            "no emitter, no collector, no relay"
        );
        drop(rx);
        threads.join();
        // The kernel wakes a joiner before it unlists the exited task, so a
        // joined thread can still show in /proc for a moment on a busy host.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !runtime_threads().is_empty() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(runtime_threads().is_empty());
    });
}
