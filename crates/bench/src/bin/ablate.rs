//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Batch-size sweep** — §IV-A derives that ~31 lines are needed to
//!    fill the Titan XP (61,440 resident threads / 2,000-pixel lines) and
//!    picks 32. The sweep shows the saturation knee around that size.
//! 2. **Worker-count sweep** — the CPU pipeline's speedup curve: linear to
//!    10 cores, sub-linear through SMT to 20 threads (the paper's 17×).
//! 3. **Scheduling policy** — round-robin vs on-demand farms under
//!    Mandelbrot's skewed line costs.
//! 4. **TBB live-token sweep** — the knob the paper tunes to 2×/5× workers.
//! 5. **Auto-tune** — the batch knee and memory-space count found online:
//!    `taskgraph::AutoTuner` climbs from the naive corner (batch 4, one
//!    memory space) on modeled probes of the 2-GPU overlapped pipeline,
//!    never told the paper's hand-picked point (batch 32, 4 spaces).
//!
//! Usage: `cargo run --release -p bench --bin ablate [--dim 600] [--niter 2000]`

#![forbid(unsafe_code)]

use bench::{arg, secs, Report};
use gpusim::{DeviceProps, GpuSystem};
use mandel::core::FractalParams;
use mandel::gpu;
use perfmodel::machine::{CpuModel, CpuRuntime};
use perfmodel::mandelmodel::{self, characterize};
use perfmodel::pipe::{Phase, PipeModel};
use simtime::SimDuration;
use taskgraph::{AutoTuner, EpochMeasure};

fn main() {
    let dim: usize = arg("--dim", 600);
    let niter: u32 = arg("--niter", 2_000);
    let params = FractalParams::view(dim, niter);
    println!("Ablation studies ({dim}x{dim}, niter={niter})");

    let workload = characterize(&params);
    let cpu = CpuModel::default();
    let t_seq = mandelmodel::seq_time(&workload, &cpu);

    // 1. Batch-size sweep on one simulated GPU.
    let system = GpuSystem::new(1, DeviceProps::titan_xp());
    let mut r = Report::new(
        "Ablation 1 — GPU batch size (paper derives ~31 lines to saturate)",
        vec!["batch (lines)", "modeled time", "speedup vs seq"],
    );
    let mut knee: Vec<(usize, f64)> = Vec::new();
    for batch in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let (_, t) = gpu::cuda_batch(&system, &params, batch);
        let s = t_seq.as_secs_f64() / t.as_secs_f64();
        knee.push((batch, s));
        r.row(vec![batch.to_string(), secs(t), format!("{s:.1}x")]);
    }
    r.emit("ablate_batch");
    let s1 = knee
        .iter()
        .find(|(b, _)| *b == 1)
        .expect("batch 1 present")
        .1;
    let s32 = knee
        .iter()
        .find(|(b, _)| *b == 32)
        .expect("batch 32 present")
        .1;
    let s128 = knee
        .iter()
        .find(|(b, _)| *b == 128)
        .expect("batch 128 present")
        .1;
    println!(
        "saturation: batch1 {s1:.1}x -> batch32 {s32:.1}x -> batch128 {s128:.1}x \
         (diminishing returns past the knee: {})",
        if s128 < s32 * 1.5 {
            "yes"
        } else {
            "NO — check the model"
        }
    );

    // 2. Worker-count sweep for the CPU pipeline.
    let mut r = Report::new(
        "Ablation 2 — CPU pipeline workers (linear to 10 cores, SMT beyond)",
        vec!["workers", "modeled time", "speedup"],
    );
    for workers in [1usize, 2, 4, 8, 10, 14, 19] {
        let t = mandelmodel::cpu_pipeline_time(&workload, &cpu, CpuRuntime::Spar, workers);
        r.row(vec![
            workers.to_string(),
            secs(t),
            format!("{:.1}x", t_seq.as_secs_f64() / t.as_secs_f64()),
        ]);
    }
    r.emit("ablate_workers");

    // 3. Scheduling policy under skewed service times (model study):
    //    round-robin suffers when consecutive items differ wildly; an
    //    on-demand (least-loaded) farm approximates ideal load balance.
    //    We model RR by pinning item i to worker i%N (per-worker serial
    //    chains via a dedicated server each), and on-demand as the plain
    //    replicated stage.
    let line_costs: Vec<SimDuration> = (0..dim)
        .map(|row| cpu.mandel_time(workload.line_iters(row)))
        .collect();
    let n = line_costs.len();
    let workers = 8usize;
    let od = {
        let costs = line_costs.clone();
        PipeModel::new(n, |_| SimDuration::ZERO)
            .stage("od", workers, move |i| vec![Phase::Cpu(costs[i])])
            .run()
            .makespan
    };
    let rr = {
        let costs = line_costs.clone();
        let mut m = PipeModel::new(n, |_| SimDuration::ZERO);
        let servers: Vec<usize> = (0..workers).map(|_| m.add_server("w", 1)).collect();
        m.stage("rr", workers, move |i| {
            vec![Phase::Resource {
                server: servers[i % workers],
                dur: costs[i],
            }]
        })
        .run()
        .makespan
    };
    let mut r = Report::new(
        "Ablation 3 — farm scheduling under skewed Mandelbrot lines (8 workers)",
        vec!["policy", "modeled time", "vs on-demand"],
    );
    r.row(vec!["on-demand".into(), secs(od), "1.00".into()]);
    r.row(vec![
        "round-robin".into(),
        secs(rr),
        format!("{:.2}", rr.as_secs_f64() / od.as_secs_f64()),
    ]);
    r.emit("ablate_sched");
    println!(
        "round-robin penalty from divergent line costs: {:.1}%",
        (rr.as_secs_f64() / od.as_secs_f64() - 1.0) * 100.0
    );

    // 4. TBB live-token sweep (hybrid GPU pipeline, 10 workers).
    let props = DeviceProps::titan_xp();
    let mut r = Report::new(
        "Ablation 4 — in-flight item cap (TBB's max_number_of_live_tokens)",
        vec!["tokens", "modeled time", "speedup"],
    );
    for tokens in [1usize, 2, 5, 10, 20, 50, 100] {
        // Reuse the hybrid model with a custom buffer cap by modeling the
        // cap as the pipe buffer size.
        let n_batches = dim.div_ceil(32);
        let services: Vec<(SimDuration, SimDuration)> = (0..n_batches)
            .map(|b| mandelmodel::batch_gpu_service(&workload, &props, b * 32, 32, true))
            .collect();
        // TBB's token cap bounds *total* in-flight items: idle workers
        // beyond the token count can never hold an item, so the effective
        // worker count is min(workers, tokens).
        let mut m = PipeModel::new(n_batches, |_| SimDuration::from_nanos(900)).buffer_cap(tokens);
        let compute = m.add_server("gpu", 1);
        let copy = m.add_server("d2h", 1);
        let workers = 10usize.min(tokens);
        let t = m
            .stage("offload", workers, move |b| {
                let (k, d) = services[b];
                vec![
                    Phase::Resource {
                        server: compute,
                        dur: k,
                    },
                    Phase::Resource {
                        server: copy,
                        dur: d,
                    },
                ]
            })
            .run()
            .makespan;
        r.row(vec![
            tokens.to_string(),
            secs(t),
            format!("{:.1}x", t_seq.as_secs_f64() / t.as_secs_f64()),
        ]);
    }
    r.emit("ablate_tokens");

    // 5. Auto-tuned batch size and memory spaces on two GPUs.
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    let pixels = (dim * dim) as f64;
    let probe = |batch: usize, spaces: usize| {
        let (_, t) = gpu::cuda_overlap(&system, &params, batch, spaces, 2);
        EpochMeasure {
            throughput: pixels / t.as_secs_f64(),
            p99_ns: t.as_nanos() / dim.div_ceil(batch) as u64,
        }
    };
    let outcome = AutoTuner::new().run(probe);
    let mut r = Report::new(
        format!("Ablation 5 — auto-tuner trajectory on 2 GPUs ({dim}x{dim})"),
        vec![
            "epoch",
            "batch",
            "mem spaces",
            "modeled Mpx/s",
            "per-batch p99",
            "accepted",
        ],
    );
    for step in &outcome.trajectory {
        r.row(vec![
            step.epoch.to_string(),
            step.batch_size.to_string(),
            step.mem_spaces.to_string(),
            format!("{:.1}", step.measure.throughput / 1e6),
            format!("{}", SimDuration::from_nanos(step.measure.p99_ns)),
            if step.accepted { "->" } else { "" }.into(),
        ]);
    }
    r.emit("ablate_autotune");
    println!(
        "auto-tune converged: batch={} mem_spaces={} after {} probes ({} epochs), \
         {:.3}x the hand-picked rung (batch 32, 4x mem)",
        outcome.batch_size,
        outcome.mem_spaces,
        outcome.trajectory.len(),
        outcome.epochs,
        outcome.measure.throughput / probe(32, 4).throughput
    );
}
