//! `mandel-gpu` — the paper's Fig. 1/4 application: `MandelWork<CudaOffload>`
//! through `WorkloadDriver::run_ordered`, 8-row batches over two simulated
//! Titan XPs. The kernel and the simulator's functional execution do nearly
//! all the work; queues and ingress almost none.
//!
//! The view is fixed, so the modeled work is fixed; the seed only picks the
//! row batch a frame starts at. (Shuffling the batches instead was tried:
//! it deals the heavy middle rows unevenly to the two round-robin workers
//! and moved `items_per_s` by 15 % between seeds.)

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpusim::{CudaOffload, DeviceProps, GpuSystem};
use mandel::core::FractalParams;
use mandel::hybrid::MandelWork;
use simtime::XorShift64;
use telemetry::Recorder;

use super::{
    drive, with_command_trace, with_copy_delta, Feed, Modeled, PacedRun, Rep, Scenario, Size,
    TracedSource, WORKERS,
};
use crate::pace::{now_ns, since_due_ms, Paced, Schedule};
use crate::trace::Tracer;

/// Rows per stream item.
const BATCH_ROWS: usize = 8;
/// Open-loop release rate, items/s: about half the saturated rate measured
/// when the benchmark was defined (≈ 375 items/s on the 2-core box).
const PACED_RATE: f64 = 200.0;

/// Inputs and reference of one `mandel-gpu` run.
pub struct MandelGpu {
    params: FractalParams,
    /// Frames per closed-loop repetition.
    frames: usize,
    /// Emission order of a frame's row batches (seed-rotated).
    order: Vec<usize>,
    /// The sequential render every batch is compared against.
    pub reference: mandel::Image,
    serial_items_per_s: f64,
}

impl MandelGpu {
    fn items_per_frame(&self) -> usize {
        self.params.dim / BATCH_ROWS
    }

    /// Drive `n_items` (whole frames, then a partial one) through the
    /// ordered farm; `on_done(seq)` runs after each verified item.
    fn run(
        &self,
        n_items: u64,
        schedule: Option<(Schedule, Arc<Mutex<Vec<f64>>>)>,
        tracer: Option<&Arc<Tracer>>,
        mut on_done: impl FnMut(u64),
    ) -> (u64, Modeled) {
        let sys = with_command_trace(GpuSystem::new(2, DeviceProps::titan_xp()), tracer);
        let work = MandelWork::<CudaOffload>::new(&sys, &self.params, BATCH_ROWS, 2, WORKERS);
        let recycle = work.recycler().clone();
        let order = self.order.clone();
        let per_frame = order.len() as u64;
        let tagged = (0..n_items).map(move |i| (i, order[(i % per_frame) as usize]));
        let items: Box<dyn Iterator<Item = (u64, usize)> + Send> = match schedule {
            Some((s, late)) => Box::new(Paced::new(tagged, s, late)),
            None => Box::new(TracedSource::new(tagged, tracer)),
        };
        let dim = self.params.dim;
        let mut failed = 0u64;
        let ((), copied) = with_copy_delta(|| {
            drive(
                work,
                Recorder::default(),
                Feed::Ordered(WORKERS),
                items,
                tracer,
                |seq, batch, pixels| {
                    let at = batch * BATCH_ROWS * dim;
                    let len = BATCH_ROWS * dim;
                    if pixels[..len] != self.reference.data[at..at + len] {
                        failed += 1;
                    }
                    recycle.give(pixels);
                    on_done(seq);
                },
            )
        });
        (failed, Modeled::read(&sys, copied))
    }
}

impl Scenario for MandelGpu {
    const BETWEEN_SPANS: &'static str = "runtime (queues, emitter, ordered collector)";

    fn setup(seed: u64, size: Size, _scratch: &std::path::Path) -> Self {
        let (params, frames) = match size {
            Size::Smoke => (FractalParams::view(128, 500), 2),
            Size::EndToEnd => (FractalParams::view(512, 2000), 1),
            Size::Traced => (FractalParams::view(512, 2000), 4),
        };
        assert_eq!(params.dim % BATCH_ROWS, 0, "whole batches only");
        let per_frame = params.dim / BATCH_ROWS;
        let first = XorShift64::new(seed).below(per_frame as u64) as usize;
        let order: Vec<usize> = (0..per_frame).map(|b| (first + b) % per_frame).collect();
        let t = Instant::now();
        let (reference, _) = mandel::cpu::run_sequential(&params);
        let serial_items_per_s = order.len() as f64 / t.elapsed().as_secs_f64();
        let me = MandelGpu {
            params,
            frames,
            order,
            reference,
            serial_items_per_s,
        };
        // Warm-up: thread stacks, recycle channel, allocator arenas.
        me.run(me.items_per_frame() as u64, None, None, |_| {});
        me
    }

    fn serial_items_per_s(&self) -> f64 {
        self.serial_items_per_s
    }

    fn serial(&self) -> (u64, f64) {
        let t = Instant::now();
        std::hint::black_box(mandel::cpu::run_sequential(&self.params));
        (self.items_per_frame() as u64, t.elapsed().as_secs_f64())
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Rep {
        let items = (self.frames * self.items_per_frame()) as u64;
        let t = Instant::now();
        let (failed, modeled) = self.run(items, None, tracer, |_| {});
        Rep {
            items,
            failed,
            secs: t.elapsed().as_secs_f64(),
            modeled,
        }
    }

    fn paced_rate(&self) -> Option<f64> {
        Some(PACED_RATE)
    }

    fn paced(&self, secs: f64) -> Option<PacedRun> {
        let late = Arc::new(Mutex::new(Vec::new()));
        let schedule = Schedule::new(now_ns() + 1_000_000, PACED_RATE);
        let n = schedule.items_in(secs);
        let mut latency_ms = Vec::with_capacity(n as usize);
        let (failed, _) = self.run(n, Some((schedule, Arc::clone(&late))), None, |seq| {
            latency_ms.push(since_due_ms(now_ns(), schedule.due_ns(seq)));
        });
        let late_ms = std::mem::take(&mut *late.lock().expect("lateness log poisoned"));
        Some(PacedRun {
            latency_ms,
            late_ms,
            failed,
        })
    }
}
