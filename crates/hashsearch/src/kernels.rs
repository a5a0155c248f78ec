//! The nonce-search kernel, as a [`gpusim`] kernel implementation.
//!
//! One thread per candidate nonce: each lane resumes the SHA-1 midstate
//! of the shared header prefix, absorbs its 8-byte big-endian nonce, and
//! writes the 20-byte digest to its slot of the output buffer. The CPU
//! hashes the header once; only the per-nonce tail runs on the device —
//! the midstate trick every real SHA-1 search kernel uses.

use gpusim::{DeviceMemory, DevicePtr, KernelFn, LaunchDims, WorkMeter};

use crate::simd::hash_nonces;
use crate::DIGEST_BYTES;

/// Device cycles one SHA-1 compression costs a warp: 80 rounds of ~4
/// dependent 32-bit ALU ops per lane. Integer-heavy and branch-free, so
/// unlike Mandelbrot every lane records the same unit count — the meter
/// sees no divergence, which is why this workload scales almost linearly
/// with occupancy.
pub const CYCLES_PER_HASH: f64 = 1152.0;

/// Registers per thread: the 80-word message schedule dominates; real
/// SHA-1 search kernels compile to ~48 registers.
pub const SHA1_SEARCH_REGS: u32 = 48;

/// One launch covers `n_nonces` candidates starting at `start_nonce`.
pub struct NonceSearchKernel {
    /// SHA-1 chaining state after absorbing the header prefix.
    pub midstate: [u32; 5],
    /// Header prefix length in bytes (multiple of 64).
    pub header_len: u64,
    /// First nonce of this launch's range.
    pub start_nonce: u64,
    /// Candidates to hash.
    pub n_nonces: usize,
    /// Output: `n_nonces * 20` digest bytes.
    pub out: DevicePtr<u8>,
}

impl KernelFn for NonceSearchKernel {
    fn name(&self) -> &'static str {
        "sha1_nonce_search"
    }
    fn regs_per_thread(&self) -> u32 {
        SHA1_SEARCH_REGS
    }
    fn cycles_per_unit(&self) -> f64 {
        CYCLES_PER_HASH
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let mut out = mem.borrow_mut(self.out);
        // Lanes are consecutive nonces: hash them eight to a vector pass
        // whose schedules are built in registers (`sha1mb::nonces8`).
        let n = self.n_nonces.min(dims.total_threads() as usize);
        hash_nonces(
            self.midstate,
            self.header_len,
            self.start_nonce,
            n,
            &mut out[..n * DIGEST_BYTES],
        );
        // 8-byte suffix plus padding fits one block: exactly one
        // compression per lane, bounds-check lanes included.
        meter.record_fill(dims.lanes(), 1);
    }
}
