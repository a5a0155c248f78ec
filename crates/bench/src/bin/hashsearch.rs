//! Hash search — the third GPU application, driven end-to-end through
//! the Workload SDK: a SHA-1 nonce sweep whose header is hashed once on
//! the CPU (midstate), fanned over the simulated devices one thread per
//! nonce, scored by leading-zero bits, and reduced to a deterministic
//! top-k by the ordered sink.
//!
//! Every CUDA/OpenCL × 1/2-GPU combination must produce bit-identical
//! rankings to the sequential host reference — the SDK's recovery ladder
//! makes that hold even under injected device faults.
//!
//! Usage: `cargo run --release -p bench --bin hashsearch
//!         [--nonces 262144] [--range 4096] [--top 8] [--workers 4]`
//!
//! Pass `--tiny` for a fast smoke run (reduced scale; shape checks that
//! only hold at figure scale are skipped, telemetry is still emitted).
//! Pass `--inject-faults <seed>` to arm deterministic GPU fault injection
//! on the instrumented run: the ranking must stay bit-exact via retry +
//! CPU fallback, and the recorded fault events are printed and asserted.
//! Pass `--devices N` (N >= 2) to also place the sweep over an N-device
//! mixed fleet (the second half derated to half speed) with the cost-model
//! task-graph scheduler: nonce ranges are keyed into persistent lanes so
//! device residency matters, the ranking must stay bit-identical under
//! any placement, and at figure scale the cost-model makespan proxy
//! (max device busy) must beat static round-robin.

#![forbid(unsafe_code)]

use bench::{arg, flag, instrumented_run, placed_fleet_demo, Report, ShapeChecks};
use dedup::sha1::Digest;
use gpusim::{CudaOffload, DeviceProps, GpuSystem, OclOffload};
use hashsearch::{
    score, search, search_cpu, Candidate, SearchConfig, SearchWork, TopK, DIGEST_BYTES,
};
use taskgraph::SchedConfig;
use telemetry::Recorder;
use workload::WorkloadDriver;

/// Lanes the placement demo keys ranges into: few enough that every lane
/// recurs many times (residency has something to exploit), more than the
/// device count so no device can own the whole stream.
const PLACEMENT_LANES: u64 = 8;

fn main() {
    let tiny = flag("--tiny");
    let total: u64 = arg("--nonces", if tiny { 2_048 } else { 262_144 });
    let range: usize = arg("--range", if tiny { 256 } else { 4_096 });
    let k: usize = arg("--top", 8);
    let workers: usize = arg("--workers", 4);

    let mut cfg = SearchConfig::new(vec![0xA5u8; 64], total);
    cfg.range = range;
    cfg.k = k;
    println!(
        "Hash search — SHA-1 nonce sweep through the Workload SDK \
         ({total} nonces, ranges of {range}, top-{k}, {workers} workers)"
    );

    let reference = search_cpu(&cfg);

    let mut report = Report::new(
        "hash search — device compute time and agreement per version",
        vec!["version", "gpus", "compute busy", "matches cpu"],
    );
    let mut runs = Vec::new();
    for gpus in [1usize, 2] {
        for api in ["cuda", "opencl"] {
            let sys = GpuSystem::new(2, DeviceProps::titan_xp());
            let rec = Recorder::enabled();
            let got = match api {
                "cuda" => search::<CudaOffload>(&sys, &cfg, workers, gpus, rec.clone()),
                _ => search::<OclOffload>(&sys, &cfg, workers, gpus, rec.clone()),
            };
            let rep = rec.report();
            let busy: u64 = rep
                .gpu
                .iter()
                .filter(|s| s.engine == "compute")
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            let ok = got == reference;
            report.row(vec![
                api.into(),
                gpus.to_string(),
                format!("{:.3} ms", busy as f64 / 1e6),
                if ok { "yes" } else { "NO" }.into(),
            ]);
            runs.push((api, gpus, ok, rep));
        }
    }
    report.emit("hashsearch");

    let mut topk = Report::new(
        "top candidates (identical across every version)",
        vec!["rank", "nonce", "score (leading zero bits)", "digest"],
    );
    for (i, c) in reference.iter().enumerate() {
        topk.row(vec![
            (i + 1).to_string(),
            c.nonce.to_string(),
            c.score.to_string(),
            c.digest.to_hex(),
        ]);
    }
    topk.emit("hashsearch_topk");

    // An instrumented run for the merged stage/engine timeline — and the
    // fault-injection gate when armed.
    let trep = instrumented_run(
        "hashsearch",
        "ranking bit-identical to the host reference",
        |tsys, trec, armed| {
            let (tworkers, tgpus) = if armed { (1, 1) } else { (workers, 2) };
            let tgot = search::<CudaOffload>(tsys, &cfg, tworkers, tgpus, trec.clone());
            assert_eq!(
                tgot, reference,
                "instrumented run: ranking differs from the host reference"
            );
        },
    );
    // Pool-registration parity with the figure binaries: the digest
    // recycle pool must surface in the report (and hence in /metrics).
    assert!(
        trep.family("pools")
            .any(|p| p.labels == ["hashsearch.digests"]),
        "hashsearch.digests pool missing from the telemetry report"
    );

    let n_dev: usize = arg("--devices", 0usize);
    if n_dev >= 2 {
        search_fleet_demo(&cfg, &reference, n_dev);
    }

    if tiny {
        println!("\n(tiny smoke run: figure-scale shape checks skipped)");
        return;
    }

    println!("\nShape checks:");
    let mut checks = ShapeChecks::new();
    checks.check(
        "every CUDA/OpenCL × 1/2-GPU ranking matches the host reference",
        runs.iter().all(|(_, _, ok, _)| *ok),
    );
    checks.check(
        "2-GPU runs spread compute over both devices",
        runs.iter()
            .filter(|(_, g, _, _)| *g == 2)
            .all(|(_, _, _, rep)| {
                rep.gpu
                    .iter()
                    .any(|s| s.device == 0 && s.engine == "compute")
                    && rep
                        .gpu
                        .iter()
                        .any(|s| s.device == 1 && s.engine == "compute")
            }),
    );
    checks.check(
        "the nonce-search kernel appears on the device timeline",
        runs[0]
            .3
            .gpu
            .iter()
            .any(|s| s.name.contains("sha1_nonce_search")),
    );
    checks.check(
        "the ranking is full (k candidates survive the reduction)",
        reference.len() == k,
    );
    checks.finish();
}

/// Cost-model placement vs static round-robin over an N-device mixed
/// fleet. Ranges are keyed into [`PLACEMENT_LANES`] recurring lanes so the
/// scheduler's residency tracking has persistent keys to keep warm; both
/// placements must reproduce the host reference ranking bit-for-bit.
fn search_fleet_demo(cfg: &SearchConfig, reference: &[Candidate], n_dev: usize) {
    let rec = Recorder::enabled();
    let ranges = cfg.ranges();
    // Nonce ranges are cheap (~tens of µs modeled) — the default 20 µs
    // migration penalty would exceed the fast/slow cost delta per range
    // and greedily pin every lane wherever warm-up dropped it. Size the
    // penalty below that delta so lanes can drain off the slow devices.
    let mut sched_cfg = SchedConfig::for_devices(n_dev);
    sched_cfg.migration_penalty_ns = 2_000;
    placed_fleet_demo(
        "hashsearch.graph",
        &rec,
        n_dev,
        sched_cfg,
        &format!("{} ranges, {PLACEMENT_LANES} key lanes", ranges.len()),
        ranges.len(),
        |placer, sys| {
            let work = SearchWork::<CudaOffload>::new(sys, cfg, n_dev, n_dev);
            let recycle = work.recycler().clone();
            let driver = WorkloadDriver::new(work).with_recorder(rec.clone());
            let mut top = TopK::new(cfg.k);
            driver.run_placed(
                placer,
                n_dev,
                |r| r.index as u64 % PLACEMENT_LANES,
                ranges.clone(),
                |done| {
                    for i in 0..done.item.count {
                        let mut raw = [0u8; DIGEST_BYTES];
                        raw.copy_from_slice(&done.batch[i * DIGEST_BYTES..(i + 1) * DIGEST_BYTES]);
                        let digest = Digest(raw);
                        top.offer(Candidate {
                            nonce: done.item.start + i as u64,
                            score: score(&digest),
                            digest,
                        });
                    }
                    recycle.give(done.batch);
                },
            );
            assert_eq!(
                top.into_sorted(),
                reference,
                "placed sweep: ranking differs from the host reference"
            );
        },
    );
}
