//! `hetbench` — hetstream's benchmark.
//!
//! ```text
//! hetbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One invocation runs one workload in a fresh process (clean peak RSS and
//! thread state), checks every output against its sequential reference and
//! prints every metric by name and unit on stderr. The last line of stdout
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics: set-up (three to fifteen
//!   times, median), then for `--seconds` pairs of one single-threaded
//!   reference run and one closed-loop repetition, untraced; the speed-up
//!   is the upper quartile of the pairs.
//! * `--trace 1` measures the per-layer metrics: the open-loop paced phase
//!   (where the workload has one), a same-seed double run asserting the
//!   modeled counters repeat exactly, one repetition with the benchmark's
//!   own spans recorded in memory, and the fixed-size layer probes.
//!
//! Any output mismatch, `IngressError` or panic is a failed op and makes
//! the exit code non-zero. `benchmark/README.md` says why each workload
//! and metric exists.

mod json;
mod layers;
mod metrics;
mod pace;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use json::Json;
use metrics::{Values, END_TO_END, PER_LAYER};
use stats::{highest_supported_percentile, median, p50_p99};
use trace::Kind;
use workloads::{Rep, Scenario, Size};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// The workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = [
    "mandel-gpu",
    "dedup-gpu",
    "farm-finegrain",
    "ingress-replay",
    "service-hashsearch",
];

/// Set-up is repeated at least `MIN_SETUPS` times and then, while all of
/// them together have taken under `SETUP_BUDGET_S`, up to `MAX_SETUPS`
/// times: cheap set-ups are the noisy ones and can afford the most
/// samples. `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;
/// Fewest pairs behind a `speedup_vs_serial`.
const MIN_PAIRS: usize = 3;
/// Which of a run's pair speed-ups is reported (nearest rank): the upper
/// quartile. Everything that disturbs a repetition — a neighbour on the
/// shared host, two busy threads landing on one core — only ever slows
/// it, so the slow side of the distribution is the machine and the fast
/// side is the program: `farm-finegrain` has half its repetitions in a
/// tail 10–45 % under the mode, and its median moves 12 % between runs
/// where its upper quartile moves 2 %. Higher percentiles are no steadier
/// there and worse where a run holds only 25 pairs (README, "Why a
/// speed-up, and why its upper quartile").
const SPEEDUP_PERCENTILE: f64 = 75.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {WORKLOADS:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {}: out of range", args.seconds));
    }
    Ok(args)
}

impl Args {
    fn size(&self) -> Size {
        match (self.smoke, self.trace) {
            (true, _) => Size::Smoke,
            (false, false) => Size::EndToEnd,
            (false, true) => Size::Traced,
        }
    }
}

/// Ops attempted and failed so far.
#[derive(Default, Debug, PartialEq, Eq)]
struct Outcome {
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn add(&mut self, items: u64, failed: u64) {
        self.attempted += items;
        self.failed += failed;
    }

    /// The process exit code: any failed op is a failed run.
    fn exit_code(&self) -> u8 {
        u8::from(self.failed > 0 || self.attempted == 0)
    }
}

/// One single-threaded reference run and the closed-loop repetition that
/// followed it, both as items/s.
#[derive(Clone, Copy, Debug)]
struct Pair {
    serial: f64,
    pipeline: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.pipeline / self.serial
    }
}

/// Pairs of (reference run, closed-loop repetition) until `seconds` have
/// passed, at least [`MIN_PAIRS`].
///
/// The machine under the benchmark is a shared one whose speed moves by
/// 10–25 % in regimes that last from seconds to minutes, the same way for
/// the reference and for the pipeline; two runs a fraction of a second
/// apart see the same regime, so their ratio does not move with it.
fn closed_loop<S: Scenario>(sc: &S, seconds: f64, outcome: &mut Outcome) -> Vec<Pair> {
    let start = Instant::now();
    let mut pairs = Vec::new();
    let mut last = 0.0;
    // Stop when the next pair would end further past the budget than
    // stopping now falls short of it.
    while pairs.len() < MIN_PAIRS || start.elapsed().as_secs_f64() + last / 2.0 < seconds {
        let (serial_items, serial_secs) = sc.serial();
        let rep = sc.rep(None);
        outcome.add(rep.items, rep.failed);
        pairs.push(Pair {
            serial: serial_items as f64 / serial_secs,
            pipeline: rep.items as f64 / rep.secs,
        });
        last = serial_secs + rep.secs;
    }
    pairs
}

/// Set up several times (once under `--smoke`), keeping the last.
fn set_up<S: Scenario>(args: &Args, scratch: &std::path::Path, v: &mut Values) -> S {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let sc = S::setup(args.seed, args.size(), scratch);
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS
            && (times.len() >= MAX_SETUPS || times.iter().sum::<f64>() >= SETUP_BUDGET_S);
        if args.smoke || enough {
            v.set("setup_s", median(&times));
            return sc;
        }
    }
}

fn run<S: Scenario>(args: &Args) -> (Outcome, Values) {
    let scratch = sys::ScratchDir::new(&args.workload);
    let mut v = Values::default();
    let mut outcome = Outcome::default();
    let sc: S = set_up(args, &scratch.0, &mut v);
    if args.trace {
        per_layer(&sc, args, &scratch.0, &mut v, &mut outcome);
    } else {
        let pairs = closed_loop(&sc, args.seconds, &mut outcome);
        let mut sorted: Vec<f64> = pairs.iter().map(Pair::speedup).collect();
        sorted.sort_by(f64::total_cmp);
        v.set(
            "speedup_vs_serial",
            stats::percentile(&sorted, SPEEDUP_PERCENTILE),
        );
        v.set("peak_rss_mb", sys::peak_rss_mb());
        eprintln!(
            "{}: {} pairs, {} items; median items/s: pipeline {:.1}, reference {:.1}; \
             speed-up min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
            args.workload,
            pairs.len(),
            outcome.attempted,
            median(&pairs.iter().map(|p| p.pipeline).collect::<Vec<_>>()),
            median(&pairs.iter().map(|p| p.serial).collect::<Vec<_>>()),
            sorted[0],
            stats::percentile(&sorted, 25.0),
            median(&sorted),
            stats::percentile(&sorted, SPEEDUP_PERCENTILE),
            sorted[sorted.len() - 1],
        );
    }
    (outcome, v)
}

/// The `--trace 1` run: everything in the per-layer table.
fn per_layer<S: Scenario>(
    sc: &S,
    args: &Args,
    scratch: &std::path::Path,
    v: &mut Values,
    outcome: &mut Outcome,
) {
    v.set("bench.serial_items_per_s", sc.serial_items_per_s());

    // Open loop: latency from each item's due time, untraced.
    if let Some(rate) = sc.paced_rate() {
        // Half the budget, but never fewer than 1 000 samples: p99 needs
        // ten samples beyond it.
        let secs = if args.smoke {
            1.0
        } else {
            (args.seconds / 2.0).max(1_000.0 / rate)
        };
        let mut p = sc
            .paced(secs)
            .expect("a workload with a rate has a paced phase");
        outcome.add(p.latency_ms.len() as u64, p.failed);
        let n = p.latency_ms.len();
        let (p50, p99) = p50_p99(&mut p.latency_ms);
        v.set("latency_p50_ms", p50);
        v.set("latency_p99_ms", p99);
        v.set("latency_samples", n as f64);
        v.set("bench.generator_late_ms_p99", p50_p99(&mut p.late_ms).1);
        eprintln!(
            "{}: paced {rate} items/s for {secs:.1} s, {n} samples, highest percentile \
             with ten samples beyond it: p{}",
            args.workload,
            highest_supported_percentile(n).unwrap_or(0.0)
        );
    }

    // Two untraced repetitions of the same seed: the modeled counters
    // must repeat bit-for-bit (the interleaving-dependent last-end aside).
    let (first, allocs) = sys::count_allocs(|| sc.rep(None));
    let second = sc.rep(None);
    for rep in [&first, &second] {
        outcome.add(rep.items, rep.failed);
    }
    if first.modeled.exact() != second.modeled.exact() {
        eprintln!(
            "{}: modeled counters differ between two runs of one seed:\n  {:?}\n  {:?}",
            args.workload, first.modeled, second.modeled
        );
        outcome.failed += second.items;
    }
    // The second one is the untraced reference: nothing was counting.
    let untraced = &second;
    v.set("bench.items_per_s", untraced.items as f64 / untraced.secs);
    v.set("bench.allocs_per_item", allocs as f64 / first.items as f64);
    v.set("modeled_busy_ms", first.modeled.busy_max_ns as f64 / 1e6);

    // One repetition with the benchmark's own spans.
    let tracer = Arc::new(trace::Tracer::default());
    let traced = sc.rep(Some(&tracer));
    outcome.add(traced.items, traced.failed);
    let raw = tracer.take();
    let spans = trace::assemble(&raw);
    span_metrics::<S>(v, &raw, &spans, &traced, untraced);
    gpusim_metrics(v, &traced, untraced);
    let file = sys::out_dir().join(format!("trace-{}.json", args.workload));
    match std::fs::write(&file, trace::to_json(&args.workload, &spans).to_string()) {
        Ok(()) => eprintln!(
            "{}: {} spans in {}",
            args.workload,
            spans.len(),
            file.display()
        ),
        Err(e) => {
            eprintln!("{}: cannot write {}: {e}", args.workload, file.display());
            outcome.failed += 1;
        }
    }

    layers::probe_all(v, args.seed, args.smoke, scratch);
}

/// Per-workload rows derived from the traced repetition's spans.
fn span_metrics<S: Scenario>(
    v: &mut Values,
    raw: &[trace::Raw],
    spans: &[trace::Span],
    traced: &Rep,
    untraced: &Rep,
) {
    let mut pair = |p50: &'static str, p99: &'static str, span: &str| {
        let (a, b) = p50_p99(&mut trace::durations_ms(spans, span));
        v.set(p50, a);
        v.set(p99, b);
    };
    pair(
        "fastflow.queue_wait_ms_p50",
        "fastflow.queue_wait_ms_p99",
        "queue_wait",
    );
    pair(
        "fastflow.reorder_wait_ms_p50",
        "fastflow.reorder_wait_ms_p99",
        "reorder_wait",
    );
    pair(
        "workload.gpu_batch_ms_p50",
        "workload.gpu_batch_ms_p99",
        "try_gpu_batch",
    );
    let count = |k: Kind| raw.iter().filter(|r| r.kind == k).count() as f64;
    // Every item gets one batch; every device attempt beyond that is a retry.
    v.set(
        "workload.retries",
        (count(Kind::GpuBatch) - count(Kind::MakeBatch)).max(0.0),
    );
    v.set("workload.cpu_fallbacks", count(Kind::CpuBatch));

    let wall_ns = traced.secs * 1e9;
    let busy = |pick: fn(Kind) -> bool| trace::total_ns(raw, pick) as f64 / wall_ns;
    let source = busy(|k| k == Kind::Source);
    let worker = busy(Kind::is_work) / S::REPLICAS as f64;
    let sink = busy(|k| k == Kind::Sink);
    v.set("bench.source_busy_ratio", source);
    v.set("bench.worker_busy_ratio", worker);
    v.set("bench.sink_busy_ratio", sink);
    v.set(
        "bench.trace_overhead_ratio",
        (traced.secs / traced.items as f64) / (untraced.secs / untraced.items as f64),
    );
    v.set(
        "bench.span_sum_residual_ns",
        trace::tiling_residual_ns(spans) as f64,
    );
    // What the driver ladder itself costs: the work span minus its rungs.
    let mut driver_self_us: Vec<f64> = spans
        .iter()
        .zip(trace::self_times(spans))
        .filter(|(s, _)| s.name == "work" && s.parent != trace::ROOT)
        .map(|(_, self_ns)| self_ns as f64 / 1e3)
        .collect();
    if !driver_self_us.is_empty() {
        eprintln!(
            "work span self time (span minus ladder rungs), p50: {:.3} us",
            p50_p99(&mut driver_self_us).0
        );
    }
    // The busiest stage the benchmark can see names the bottleneck; when
    // none is busy half the time, the time is in what lies between the
    // spans — the part of the system this workload exists to measure.
    let (stage, share) = [("source", source), ("workers", worker), ("sink", sink)]
        .into_iter()
        .fold(("", 0.0), |best, s| if s.1 > best.1 { s } else { best });
    if share >= 0.5 {
        eprintln!("bottleneck: {stage} ({:.0} % busy)", share * 100.0);
    } else {
        eprintln!(
            "bottleneck: {} (no stage the benchmark sees is busy half the time; busiest: \
             {stage} at {:.0} %)",
            S::BETWEEN_SPANS,
            share * 100.0
        );
    }
}

/// gpusim rows of the workload: counters per item and modeled busy time.
fn gpusim_metrics(v: &mut Values, traced: &Rep, untraced: &Rep) {
    let m = &traced.modeled;
    let items = traced.items as f64;
    if m.commands > 0 {
        // Commands per item repeat exactly, so the untraced repetition's
        // wall time divides by the traced repetition's command count.
        let commands = m.commands as f64 / items * untraced.items as f64;
        v.set("gpusim.host_ns_per_command", untraced.secs * 1e9 / commands);
    }
    v.set("gpusim.kernels_per_item", m.kernels as f64 / items);
    v.set("gpusim.h2d_bytes_per_item", m.h2d_bytes as f64 / items);
    v.set("gpusim.d2h_bytes_per_item", m.d2h_bytes as f64 / items);
    v.set(
        "gpusim.copied_bytes_per_item",
        m.copied_bytes as f64 / items,
    );
    v.set("gpusim.compute_busy_ms", m.compute_ns as f64 / 1e6);
    v.set("gpusim.h2d_busy_ms", m.h2d_ns as f64 / 1e6);
    v.set("gpusim.d2h_busy_ms", m.d2h_ns as f64 / 1e6);
    v.set("gpusim.last_end_ms", m.last_end_ns as f64 / 1e6);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hetbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "hetbench {} seed {} ({} cores, {})",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
        if args.trace {
            "per-layer run"
        } else {
            "end-to-end run"
        }
    );
    let (outcome, values) = match args.workload.as_str() {
        "mandel-gpu" => run::<workloads::mandel_gpu::MandelGpu>(&args),
        "dedup-gpu" => run::<workloads::dedup_gpu::DedupGpu>(&args),
        "farm-finegrain" => run::<workloads::farm::FarmFinegrain>(&args),
        "ingress-replay" => run::<workloads::replay::IngressReplay>(&args),
        _ => run::<workloads::service::ServiceHashsearch>(&args),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    values.print(table);
    eprintln!(
        "{}: ops attempted {} failed {}",
        args.workload, outcome.attempted, outcome.failed
    );
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(outcome.exit_code() == 0)),
            ("attempted".into(), Json::Num(outcome.attempted as f64)),
            ("failed".into(), Json::Num(outcome.failed as f64)),
            ("metrics".into(), values.to_json(table)),
        ])
    );
    ExitCode::from(outcome.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::farm::FarmFinegrain;

    fn smoke_args() -> Args {
        Args {
            workload: "farm-finegrain".into(),
            seed: 7,
            seconds: 0.05,
            trace: false,
            smoke: true,
        }
    }

    #[test]
    fn a_clean_run_attempts_ops_fails_none_and_exits_zero() {
        let scratch = sys::ScratchDir::new("test-clean");
        let sc: FarmFinegrain = set_up(&smoke_args(), &scratch.0, &mut Values::default());
        let mut outcome = Outcome::default();
        let pairs = closed_loop(&sc, 0.05, &mut outcome);
        assert!(pairs.len() >= MIN_PAIRS);
        assert!(pairs.iter().all(|p| p.speedup() > 0.0));
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.exit_code(), 0);
    }

    #[test]
    fn a_corrupted_reference_flips_ops_failed_and_the_exit_code() {
        let scratch = sys::ScratchDir::new("test-corrupt");
        let mut sc: FarmFinegrain = set_up(&smoke_args(), &scratch.0, &mut Values::default());
        sc.reference ^= 1;
        let mut outcome = Outcome::default();
        closed_loop(&sc, 0.05, &mut outcome);
        assert_eq!(
            outcome.failed, outcome.attempted,
            "every repetition mismatches"
        );
        assert_eq!(outcome.exit_code(), 1);
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_a_pass() {
        assert_eq!(Outcome::default().exit_code(), 1);
    }
}
