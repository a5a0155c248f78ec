//! SIMD-vectorized Mandelbrot escape iteration: 4 pixels per AVX2 lane
//! group, bit-identical to the scalar [`iterate`] loop.
//!
//! The escape loop is pure mul/add/sub/compare — no FMA, no division —
//! so a vector lane performs *exactly* the scalar instruction sequence
//! (`(2·a)·b + ci`, `(a² − b²) + cr`, in the same association order) and
//! IEEE-754 guarantees the same result per lane. Escaped lanes keep
//! iterating on dead values but stop counting, mirroring the scalar
//! `break`. The AVX2 path is runtime-detected
//! (`is_x86_feature_detected!`); every other target — and the remainder
//! pixels of a span whose width is not a multiple of 4 — takes the
//! scalar reference path, so results are identical everywhere.

use crate::core::iterate;

/// Iteration counts for one row: pixel `j` gets
/// `iterate(init_a + step*j, ci, niter)`. Vectorized when AVX2 is
/// available; always bit-identical to [`iterate_line_scalar`].
pub fn iterate_line(init_a: f64, step: f64, ci: f64, niter: u32, out: &mut [u32]) {
    iterate_span(init_a, step, 0, ci, niter, out);
}

/// Iteration counts for the columns `first_col..first_col + out.len()` of
/// one row. Every `cr` is `init_a + step * j` for the **absolute** column
/// `j` — never a shifted origin plus a relative column, which rounds
/// differently — so any tiling of a row yields the counts
/// [`iterate_line`] would, bit for bit.
pub fn iterate_span(
    init_a: f64,
    step: f64,
    first_col: usize,
    ci: f64,
    niter: u32,
    out: &mut [u32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { iterate_span_avx2(init_a, step, first_col, ci, niter, out) };
        return;
    }
    iterate_span_scalar(init_a, step, first_col, ci, niter, out);
}

/// Scalar reference for [`iterate_line`] (also the benchmark baseline).
pub fn iterate_line_scalar(init_a: f64, step: f64, ci: f64, niter: u32, out: &mut [u32]) {
    iterate_span_scalar(init_a, step, 0, ci, niter, out);
}

/// Scalar reference for [`iterate_span`] (also the non-x86 fallback).
fn iterate_span_scalar(
    init_a: f64,
    step: f64,
    first_col: usize,
    ci: f64,
    niter: u32,
    out: &mut [u32],
) {
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = iterate(init_a + step * (first_col + i) as f64, ci, niter);
    }
}

/// [`iterate_span`]'s AVX2 body: whole groups of four columns through
/// [`iterate4`], the remainder through the scalar loop.
///
/// # Safety
///
/// The CPU must support AVX2 (check with
/// `is_x86_feature_detected!("avx2")`, as [`iterate_span`] does): the
/// function is compiled for it and executes it unconditionally. It
/// touches memory only through safe slice operations on `out`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn iterate_span_avx2(
    init_a: f64,
    step: f64,
    first_col: usize,
    ci: f64,
    niter: u32,
    out: &mut [u32],
) {
    let mut groups = out.chunks_exact_mut(4);
    let mut j = first_col;
    for group in &mut groups {
        // The per-pixel coordinates are computed with the exact scalar
        // expression (init_a + step * j), not an incremental vector add,
        // so each lane sees the same cr the scalar loop would.
        let cr = [
            init_a + step * j as f64,
            init_a + step * (j + 1) as f64,
            init_a + step * (j + 2) as f64,
            init_a + step * (j + 3) as f64,
        ];
        group.copy_from_slice(&iterate4(&cr, ci, niter));
        j += 4;
    }
    iterate_span_scalar(init_a, step, j, ci, niter, groups.into_remainder());
}

/// Four escape iterations in parallel. Per-lane arithmetic mirrors
/// [`iterate`] operation for operation.
///
/// # Safety
///
/// The CPU must support AVX2. Only `iterate_span_avx2`, whose own
/// contract requires it, calls this. Its one load reads the four `f64`s
/// of `cr` and its one store writes a local `[i64; 4]`, so the argument
/// types bound every access.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn iterate4(cr: &[f64; 4], ci: f64, niter: u32) -> [u32; 4] {
    use std::arch::x86_64::*;

    let cr_v = _mm256_loadu_pd(cr.as_ptr());
    let ci_v = _mm256_set1_pd(ci);
    let four = _mm256_set1_pd(4.0);
    let two = _mm256_set1_pd(2.0);
    let one = _mm256_set1_epi64x(1);
    let mut a = cr_v;
    let mut b = ci_v;
    let mut counts = _mm256_setzero_si256();
    // All-ones = lane still iterating. A lane whose |z|² exceeds 4 goes
    // (and stays) zero: the AND below is monotone, like the scalar break.
    let mut active = _mm256_set1_epi64x(-1);
    for _ in 0..niter {
        let a2 = _mm256_mul_pd(a, a);
        let b2 = _mm256_mul_pd(b, b);
        let mag = _mm256_add_pd(a2, b2);
        // `mag <= 4` (ordered): NaNs on long-escaped lanes compare false
        // and keep those lanes retired.
        let still_in = _mm256_cmp_pd::<_CMP_LE_OQ>(mag, four);
        active = _mm256_and_si256(active, _mm256_castpd_si256(still_in));
        if _mm256_testz_si256(active, active) == 1 {
            break;
        }
        counts = _mm256_add_epi64(counts, _mm256_and_si256(active, one));
        // Scalar order exactly: b = (2*a)*b + ci; a = (a2 - b2) + cr.
        b = _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(two, a), b), ci_v);
        a = _mm256_add_pd(_mm256_sub_pd(a2, b2), cr_v);
    }
    let mut lanes = [0i64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), counts);
    [
        lanes[0] as u32,
        lanes[1] as u32,
        lanes[2] as u32,
        lanes[3] as u32,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_path_matches_scalar_exactly() {
        let p = crate::core::FractalParams::view(101, 500); // odd width: remainder lane
        let step = p.step();
        for row in [0, 33, 50, 100] {
            let ci = p.init_b + step * row as f64;
            let mut simd = vec![0u32; p.dim];
            let mut scalar = vec![0u32; p.dim];
            iterate_line(p.init_a, step, ci, p.niter, &mut simd);
            iterate_line_scalar(p.init_a, step, ci, p.niter, &mut scalar);
            assert_eq!(simd, scalar, "row {row}");
        }
    }

    #[test]
    fn empty_and_tiny_rows_are_handled() {
        let mut none: [u32; 0] = [];
        iterate_line(-2.0, 0.01, 0.0, 100, &mut none);
        for width in 1..=9 {
            let mut simd = vec![0u32; width];
            let mut scalar = vec![0u32; width];
            iterate_line(-2.0, 0.03, 0.1, 300, &mut simd);
            iterate_line_scalar(-2.0, 0.03, 0.1, 300, &mut scalar);
            assert_eq!(simd, scalar, "width {width}");
        }
    }

    #[test]
    fn interior_points_saturate_at_niter() {
        // Lanes covering set members must count all the way to niter.
        let mut out = [0u32; 4];
        iterate_line(-0.1, 0.05, 0.0, 250, &mut out);
        assert!(out.contains(&250), "{out:?}");
    }
}
