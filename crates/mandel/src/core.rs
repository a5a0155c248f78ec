//! The Mandelbrot iteration and fractal geometry shared by every version.
//!
//! All parallel implementations (CPU and GPU, every programming model) call
//! [`iterate`], so equivalence tests can compare whole images bit-for-bit.

/// Geometry of the fractal rendering, matching the paper's
/// `mandelbrot(dim, niter, init_a, init_b, range)` signature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FractalParams {
    /// Image is `dim × dim` pixels; each line is one stream item.
    pub dim: usize,
    /// Maximum iterations per point (the paper's experiments use 200,000).
    pub niter: u32,
    /// Real coordinate of the left edge.
    pub init_a: f64,
    /// Imaginary coordinate of the top edge.
    pub init_b: f64,
    /// Extent of the square window on the complex plane.
    pub range: f64,
}

impl FractalParams {
    /// The classic full-set view at a given resolution/iteration budget.
    pub fn view(dim: usize, niter: u32) -> Self {
        FractalParams {
            dim,
            niter,
            init_a: -2.125,
            init_b: -1.5,
            range: 3.0,
        }
    }

    /// Complex-plane step per pixel (`range / dim`).
    pub fn step(&self) -> f64 {
        self.range / self.dim as f64
    }
}

/// Iterate `z ← z² + p` from zero for `p = (cr, ci)`; returns the iteration
/// count at which `|z|` left the radius-2 circle, or `niter` if it never
/// did (the point is taken to be in the set).
///
/// The loop body is the exact arithmetic of the paper's Listing 1/2:
/// `a2 = a*a; b2 = b*b; if a2+b2 > 4 break; b = 2ab + ci; a = a2 - b2 + cr`.
#[inline]
pub fn iterate(cr: f64, ci: f64, niter: u32) -> u32 {
    let mut a = cr;
    let mut b = ci;
    let mut k = 0;
    while k < niter {
        let a2 = a * a;
        let b2 = b * b;
        if a2 + b2 > 4.0 {
            break;
        }
        b = 2.0 * a * b + ci;
        a = a2 - b2 + cr;
        k += 1;
    }
    k
}

/// Map an iteration count to the paper's grayscale:
/// `255 - k*255/niter` (set members are black).
#[inline]
pub fn color(k: u32, niter: u32) -> u8 {
    255 - ((k as u64 * 255) / niter as u64) as u8
}

/// One computed fractal line: pixel colors plus per-pixel iteration counts
/// (the work-meter input for the performance model).
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    /// Line index (row) in the image.
    pub row: usize,
    /// Grayscale pixels, `dim` of them.
    pub pixels: Vec<u8>,
    /// Iteration count per pixel (timing-model input).
    pub iters: Vec<u32>,
}

/// Compute one line of the fractal (the body of the replicated stage).
/// The escape loop runs through [`crate::simd::iterate_line`]: 4 pixels
/// per AVX2 lane group where available, bit-identical scalar otherwise.
pub fn compute_line(params: &FractalParams, row: usize) -> Line {
    let step = params.step();
    let ci = params.init_b + step * row as f64;
    let mut iters = vec![0u32; params.dim];
    crate::simd::iterate_line(params.init_a, step, ci, params.niter, &mut iters);
    let pixels = iters.iter().map(|&k| color(k, params.niter)).collect();
    Line { row, pixels, iters }
}

/// Pixels per stack tile of work units (1 KiB; a multiple of the SIMD
/// group and of the warp size, so full tiles fold whole warps).
const TILE: usize = 256;

/// Shade the columns `first_col..first_col + out.len()` of image row `row`
/// into `out`, handing each tile of per-pixel work units — iterations, at
/// least one: the escape test itself — to `units` together with its offset
/// in the span (the device kernels meter them, the host rung ignores
/// them). No heap use.
pub(crate) fn shade_span(
    p: &FractalParams,
    row: usize,
    first_col: usize,
    out: &mut [u8],
    mut units: impl FnMut(usize, &[u32]),
) {
    let step = p.step();
    let ci = p.init_b + step * row as f64;
    let mut tile = [0u32; TILE];
    for (t, pixels) in out.chunks_mut(TILE).enumerate() {
        let tile = &mut tile[..pixels.len()];
        crate::simd::iterate_span(p.init_a, step, first_col + t * TILE, ci, p.niter, tile);
        for (px, k) in pixels.iter_mut().zip(tile.iter_mut()) {
            *px = color(*k, p.niter);
            *k = (*k).max(1);
        }
        units(t * TILE, tile);
    }
}

/// A whole grayscale fractal image, assembled from lines.
#[derive(Clone, Debug, PartialEq)]
pub struct Image {
    /// Width == height.
    pub dim: usize,
    /// Row-major pixels, `dim * dim`.
    pub data: Vec<u8>,
}

impl Image {
    /// All-black image of the given size.
    pub fn new(dim: usize) -> Self {
        Image {
            dim,
            data: vec![0; dim * dim],
        }
    }

    /// Install one computed line.
    pub fn set_line(&mut self, line: &Line) {
        assert_eq!(line.pixels.len(), self.dim, "line width mismatch");
        let start = line.row * self.dim;
        self.data[start..start + self.dim].copy_from_slice(&line.pixels);
    }

    /// Install a raw row of pixels.
    pub fn set_row(&mut self, row: usize, pixels: &[u8]) {
        assert_eq!(pixels.len(), self.dim);
        let start = row * self.dim;
        self.data[start..start + self.dim].copy_from_slice(pixels);
    }

    /// Serialize as a binary PGM (portable graymap) image.
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.dim, self.dim).into_bytes();
        out.extend_from_slice(&self.data);
        out
    }

    /// A short digest for equivalence checks in tests (FNV-1a).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.data {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_is_in_the_set() {
        assert_eq!(iterate(0.0, 0.0, 1000), 1000);
    }

    #[test]
    fn far_points_escape_immediately() {
        // |p| > 2 escapes on the first check.
        assert!(iterate(3.0, 3.0, 1000) <= 1);
    }

    #[test]
    fn known_boundary_point_escapes_late() {
        // p = -0.75 + 0.1i sits near the seam between the cardioid and the
        // period-2 bulb: it escapes, but only after several iterations.
        let k = iterate(-0.75, 0.1, 10_000);
        assert!(k > 10 && k < 10_000, "k={k}");
    }

    #[test]
    fn color_extremes() {
        assert_eq!(color(0, 200), 255);
        assert_eq!(color(200, 200), 0);
    }

    #[test]
    fn color_is_monotone_in_iterations() {
        let niter = 100;
        let mut last = 255u8;
        for k in 0..=niter {
            let c = color(k, niter);
            assert!(c <= last);
            last = c;
        }
    }

    #[test]
    fn compute_line_is_deterministic_and_sized() {
        let p = FractalParams::view(64, 100);
        let l1 = compute_line(&p, 32);
        let l2 = compute_line(&p, 32);
        assert_eq!(l1, l2);
        assert_eq!(l1.pixels.len(), 64);
        assert_eq!(l1.iters.len(), 64);
    }

    #[test]
    fn center_line_contains_set_members() {
        let p = FractalParams::view(64, 500);
        // The row crossing ci ≈ 0 passes through the set's interior.
        let row = 32;
        let line = compute_line(&p, row);
        assert!(line.iters.contains(&p.niter), "no interior points found");
        assert!(
            line.iters.iter().any(|&k| k < p.niter),
            "no escaping points found"
        );
    }

    #[test]
    fn image_assembly_and_pgm_header() {
        let p = FractalParams::view(16, 50);
        let mut img = Image::new(16);
        for row in 0..16 {
            img.set_line(&compute_line(&p, row));
        }
        let pgm = img.to_pgm();
        assert!(pgm.starts_with(b"P5\n16 16\n255\n"));
        assert_eq!(pgm.len(), 13 + 256);
    }

    #[test]
    fn digest_differs_for_different_images() {
        let p = FractalParams::view(32, 100);
        let mut a = Image::new(32);
        let mut b = Image::new(32);
        for row in 0..32 {
            a.set_line(&compute_line(&p, row));
            b.set_line(&compute_line(&p, row));
        }
        assert_eq!(a.digest(), b.digest());
        b.data[5] ^= 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn step_matches_paper_formula() {
        let p = FractalParams::view(2000, 1);
        assert!((p.step() - p.range / 2000.0).abs() < 1e-15);
    }
}
