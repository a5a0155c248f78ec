//! CPU-only parallel versions: sequential baseline plus the SPar, TBB and
//! FastFlow pipelines of §IV-A.
//!
//! Every version has the same shape as the paper's: a source stage emitting
//! one stream item per fractal line, a replicated middle stage computing the
//! line, and a last stage collecting lines in order (the paper's `ShowLine`).

use std::sync::{Arc, Mutex};

use crate::core::{compute_line, FractalParams, Image};

/// Sequential reference (the paper's 400 s baseline). Also returns the total
/// iteration count, the timing model's unit of CPU work.
pub fn run_sequential(params: &FractalParams) -> (Image, u64) {
    let mut img = Image::new(params.dim);
    let mut total_iters = 0u64;
    for row in 0..params.dim {
        let line = compute_line(params, row);
        total_iters += line.iters.iter().map(|&k| k as u64).sum::<u64>();
        img.set_line(&line);
    }
    (img, total_iters)
}

/// SPar version — the paper's Listing 1, via the `to_stream!` annotations.
pub fn run_spar(params: &FractalParams, workers: usize) -> Image {
    let p = *params;
    let mut img = Image::new(p.dim);
    spar::to_stream! {
        ordered;
        source(output(i)) |em| {
            for i in 0..p.dim {
                em.send(i);
            }
        };
        stage(input(i, dim, init_a, init_b, step, niter), output(line), replicate = workers)
        |row: usize| -> crate::core::Line {
            compute_line(&p, row)
        };
        last_stage(input(line)) |line: crate::core::Line| {
            img.set_line(&line); // ShowLine(img, dim, i)
        };
    }
    img
}

/// FastFlow version — explicit pipeline(source, farm(worker), sink).
pub fn run_fastflow(params: &FractalParams, workers: usize) -> Image {
    let p = *params;
    let lines = fastflow::Pipeline::builder()
        .source(move |em| {
            for i in 0..p.dim {
                if !em.send(i) {
                    break;
                }
            }
        })
        .farm_ordered(workers, move |_replica| {
            fastflow::node::map(move |row: usize| compute_line(&p, row))
        })
        .collect();
    let mut img = Image::new(p.dim);
    for line in &lines {
        img.set_line(line);
    }
    img
}

/// TBB version — `parallel_pipeline` with a parallel middle filter and a
/// serial-in-order sink, throttled by `max_live_tokens` (the paper tunes
/// this to 2× the worker count for CPU runs).
pub fn run_tbb(
    params: &FractalParams,
    pool: &Arc<tbbx::TaskPool>,
    max_live_tokens: usize,
) -> Image {
    let p = *params;
    let img = Arc::new(Mutex::new(Image::new(p.dim)));
    let sink_img = Arc::clone(&img);
    let mut next_row = 0usize;
    tbbx::Pipeline::source(move || {
        if next_row < p.dim {
            let r = next_row;
            next_row += 1;
            Some(r)
        } else {
            None
        }
    })
    .parallel(move |row: usize| compute_line(&p, row))
    .serial_in_order(move |line: crate::core::Line| {
        sink_img
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .set_line(&line);
    })
    .build()
    .run(pool, max_live_tokens);
    Arc::try_unwrap(img)
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .unwrap_or_else(|arc| {
            arc.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FractalParams {
        FractalParams::view(48, 300)
    }

    #[test]
    fn spar_matches_sequential() {
        let p = params();
        let (seq, _) = run_sequential(&p);
        let par = run_spar(&p, 4);
        assert_eq!(seq.digest(), par.digest());
    }

    #[test]
    fn fastflow_matches_sequential() {
        let p = params();
        let (seq, _) = run_sequential(&p);
        let par = run_fastflow(&p, 3);
        assert_eq!(seq.digest(), par.digest());
    }

    #[test]
    fn tbb_matches_sequential() {
        let p = params();
        let (seq, _) = run_sequential(&p);
        let pool = Arc::new(tbbx::TaskPool::new(4));
        let par = run_tbb(&p, &pool, 8);
        assert_eq!(seq.digest(), par.digest());
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let p = params();
        let (seq, _) = run_sequential(&p);
        assert_eq!(run_spar(&p, 1).digest(), seq.digest());
        assert_eq!(run_fastflow(&p, 1).digest(), seq.digest());
    }

    #[test]
    fn sequential_reports_plausible_iteration_totals() {
        let p = params();
        let (_, iters) = run_sequential(&p);
        // At least 1 iteration per pixel; at most niter per pixel.
        let pixels = (p.dim * p.dim) as u64;
        assert!(iters >= pixels);
        assert!(iters <= pixels * p.niter as u64);
    }
}
