//! Rabin-style rolling fingerprint and content-defined chunking.
//!
//! PARSEC's Dedup fragments its input at positions where a rolling
//! fingerprint of the trailing window matches a bit pattern, so chunk
//! boundaries follow *content* and survive insertions. The paper's GPU
//! redesign keeps this algorithm but runs it on the CPU over fixed 1 MB
//! batches, saving the boundary indexes (`startPos`, Fig. 2) for all later
//! stages. This module provides both the rolling hash and the boundary
//! scan.

/// Parameters of the chunker.
#[derive(Clone, Copy, Debug)]
pub struct RabinParams {
    /// Rolling window width in bytes.
    pub window: usize,
    /// A boundary is declared where `fp & mask == magic`.
    pub mask: u64,
    /// Pattern compared under the mask.
    pub magic: u64,
    /// Minimum chunk size (boundaries inside are ignored).
    pub min_chunk: usize,
    /// Maximum chunk size (forced boundary).
    pub max_chunk: usize,
}

impl Default for RabinParams {
    fn default() -> Self {
        // Expected chunk ≈ 8 KiB (mask of 13 bits), bounded to [2K, 32K] —
        // PARSEC's defaults scaled to this reproduction's batch size.
        RabinParams {
            window: 48,
            mask: (1 << 13) - 1,
            magic: 0x78,
            min_chunk: 2 * 1024,
            max_chunk: 32 * 1024,
        }
    }
}

/// Multiplier of the polynomial rolling hash (odd, large, fixed).
const PRIME: u64 = 0x003D_A335_8B4D_C173_u64;

/// A rolling hash over a fixed-width byte window.
///
/// `fp = Σ b[i] · PRIME^(w-1-i)` over the window, updated in O(1) per byte.
pub struct RollingHash {
    window: usize,
    /// PRIME^(window-1), for removing the outgoing byte.
    pow_out: u64,
    fp: u64,
    ring: Vec<u8>,
    pos: usize,
    filled: usize,
}

impl RollingHash {
    /// Hash over windows of `window` bytes.
    pub fn new(window: usize) -> Self {
        assert!(window > 0);
        let mut pow_out = 1u64;
        for _ in 0..window - 1 {
            pow_out = pow_out.wrapping_mul(PRIME);
        }
        RollingHash {
            window,
            pow_out,
            fp: 0,
            ring: vec![0; window],
            pos: 0,
            filled: 0,
        }
    }

    /// Push one byte; returns the fingerprint of the current window.
    #[inline]
    pub fn push(&mut self, byte: u8) -> u64 {
        let outgoing = self.ring[self.pos];
        self.ring[self.pos] = byte;
        self.pos = (self.pos + 1) % self.window;
        if self.filled < self.window {
            self.filled += 1;
        } else {
            self.fp = self
                .fp
                .wrapping_sub((outgoing as u64).wrapping_mul(self.pow_out));
        }
        self.fp = self.fp.wrapping_mul(PRIME).wrapping_add(byte as u64);
        self.fp
    }

    /// True once a full window has been absorbed.
    pub fn primed(&self) -> bool {
        self.filled == self.window
    }

    /// Reset to the empty state.
    pub fn reset(&mut self) {
        self.fp = 0;
        self.pos = 0;
        self.filled = 0;
        self.ring.fill(0);
    }
}

/// Scan `data` and return the start index of every chunk (Fig. 2's
/// `startPos` array). Always begins with 0; every value is `< data.len()`.
///
/// This is the branchless fast path: because the fingerprint after a
/// chunk reset is purely position-local (the polynomial over the
/// trailing `window` bytes), the per-byte ring buffer, modulo, and
/// primed/min-chunk checks of [`chunk_starts_reference`] all vanish.
/// Each chunk is scanned in two phases — prime the window ending at the
/// first index where a boundary may legally fire, then roll with a
/// single masked compare per byte until a match or the forced
/// `max_chunk` cut. Output is bit-identical to the reference.
pub fn chunk_starts(data: &[u8], params: &RabinParams) -> Vec<usize> {
    assert!(
        params.min_chunk >= params.window,
        "window must fit in min chunk"
    );
    assert!(params.max_chunk >= params.min_chunk);
    // Earliest in-chunk offset where the fingerprint test may fire.
    let floor = params.min_chunk.max(params.window).min(params.max_chunk);
    // Every chunk but the last is at least `floor` long: sized once.
    let mut starts = Vec::with_capacity(data.len() / floor.max(1) + 1);
    starts.push(0);
    if data.is_empty() {
        return starts;
    }
    let window = params.window;
    let mut pow_out = 1u64;
    for _ in 0..window - 1 {
        pow_out = pow_out.wrapping_mul(PRIME);
    }
    // A cut at index i starts a new chunk at i + 1, recorded only when
    // i + 1 < len — so the last index worth scanning is len - 2.
    let last = data.len().saturating_sub(2);
    let mut s = 0usize;
    loop {
        let first = s + floor - 1;
        let forced = s + params.max_chunk - 1;
        if first > last {
            break;
        }
        // Prime: fingerprint of the window ending at `first`. The whole
        // window lies inside the current chunk (floor >= window), so this
        // equals the reference's post-reset rolling state.
        let mut fp = 0u64;
        for &b in &data[first + 1 - window..=first] {
            fp = fp.wrapping_mul(PRIME).wrapping_add(b as u64);
        }
        // Scan: one masked compare per byte, outgoing byte read straight
        // from `data` — no ring buffer.
        let stop = forced.min(last);
        let mut i = first;
        let cut = loop {
            if (fp & params.mask) == params.magic {
                break Some(i);
            }
            if i >= stop {
                break None;
            }
            fp = fp
                .wrapping_sub((data[i + 1 - window] as u64).wrapping_mul(pow_out))
                .wrapping_mul(PRIME)
                .wrapping_add(data[i + 1] as u64);
            i += 1;
        };
        let cut = match cut {
            Some(c) => c,
            // No fingerprint match in range: the max_chunk cut fires iff
            // it lands before the unrecordable tail.
            None if forced <= last => forced,
            None => break,
        };
        starts.push(cut + 1);
        s = cut + 1;
    }
    starts
}

/// The streaming reference scanner: one [`RollingHash::push`] per byte
/// with explicit primed/min-chunk/max-chunk checks, exactly as the
/// paper's CPU stage describes it. [`chunk_starts`] must agree with this
/// bit-for-bit; it also serves as the baseline in the scan benchmarks.
pub fn chunk_starts_reference(data: &[u8], params: &RabinParams) -> Vec<usize> {
    assert!(
        params.min_chunk >= params.window,
        "window must fit in min chunk"
    );
    assert!(params.max_chunk >= params.min_chunk);
    let mut starts = vec![0usize];
    if data.is_empty() {
        return starts;
    }
    let mut hash = RollingHash::new(params.window);
    let mut chunk_len = 0usize;
    for (i, &b) in data.iter().enumerate() {
        let fp = hash.push(b);
        chunk_len += 1;
        let boundary =
            (hash.primed() && chunk_len >= params.min_chunk && (fp & params.mask) == params.magic)
                || chunk_len >= params.max_chunk;
        if boundary && i + 1 < data.len() {
            starts.push(i + 1);
            chunk_len = 0;
            hash.reset();
        }
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_params() -> RabinParams {
        RabinParams {
            window: 16,
            mask: (1 << 6) - 1, // expected chunk 64B
            magic: 0x15,
            min_chunk: 32,
            max_chunk: 512,
        }
    }

    /// Slice `data` into chunks given its `starts`.
    fn chunks<'d>(data: &'d [u8], starts: &[usize]) -> Vec<&'d [u8]> {
        let ends = starts.iter().skip(1).copied().chain([data.len()]);
        starts.iter().zip(ends).map(|(&s, e)| &data[s..e]).collect()
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        // xorshift64* — deterministic test data without external crates.
        let mut s = seed.max(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn rolling_hash_matches_direct_computation() {
        let data = pseudo_random(100, 7);
        let w = 8;
        let mut rh = RollingHash::new(w);
        for (i, &b) in data.iter().enumerate() {
            let fp = rh.push(b);
            if i + 1 >= w {
                // Direct evaluation of the window polynomial.
                let mut direct = 0u64;
                for &x in &data[i + 1 - w..=i] {
                    direct = direct.wrapping_mul(PRIME).wrapping_add(x as u64);
                }
                assert_eq!(fp, direct, "at {i}");
            }
        }
    }

    #[test]
    fn starts_begin_at_zero_and_are_strictly_increasing() {
        let data = pseudo_random(64 * 1024, 42);
        let starts = chunk_starts(&data, &test_params());
        assert_eq!(starts[0], 0);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert!(starts.iter().all(|&s| s < data.len()));
    }

    #[test]
    fn chunk_sizes_respect_min_and_max() {
        let p = test_params();
        let data = pseudo_random(64 * 1024, 43);
        let starts = chunk_starts(&data, &p);
        let cs = chunks(&data, &starts);
        for (i, c) in cs.iter().enumerate() {
            assert!(c.len() <= p.max_chunk, "chunk {i} too big: {}", c.len());
            if i + 1 < cs.len() {
                assert!(c.len() >= p.min_chunk, "chunk {i} too small: {}", c.len());
            }
        }
    }

    #[test]
    fn chunks_reassemble_exactly() {
        let data = pseudo_random(10_000, 44);
        let starts = chunk_starts(&data, &test_params());
        let glued: Vec<u8> = chunks(&data, &starts).concat();
        assert_eq!(glued, data);
    }

    #[test]
    fn chunking_is_deterministic() {
        let data = pseudo_random(32 * 1024, 45);
        let p = test_params();
        assert_eq!(chunk_starts(&data, &p), chunk_starts(&data, &p));
    }

    #[test]
    fn identical_content_produces_identical_chunks() {
        // Content-defined: two copies of the same region chunk identically
        // when each is scanned from a fresh state.
        let region = pseudo_random(16 * 1024, 46);
        let p = test_params();
        let a = chunk_starts(&region, &p);
        let b = chunk_starts(&region, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let p = test_params();
        assert_eq!(chunk_starts(&[], &p), vec![0]);
        assert_eq!(chunk_starts(&[1, 2, 3], &p), vec![0]);
        let cs = chunks(&[1, 2, 3], &[0]);
        assert_eq!(cs, vec![&[1u8, 2, 3][..]]);
    }

    #[test]
    fn fast_scan_matches_reference_exactly() {
        let p = test_params();
        for seed in 1..=8u64 {
            let data = pseudo_random(48 * 1024, seed);
            assert_eq!(
                chunk_starts(&data, &p),
                chunk_starts_reference(&data, &p),
                "seed {seed}"
            );
        }
        let p = RabinParams::default();
        let data = pseudo_random(512 * 1024, 99);
        assert_eq!(chunk_starts(&data, &p), chunk_starts_reference(&data, &p));
    }

    #[test]
    fn fast_scan_matches_reference_on_length_edges() {
        let p = test_params();
        // Lengths bracketing min_chunk, max_chunk, and the window.
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 511, 512, 513, 1024, 2047] {
            let data = pseudo_random(len, 5 + len as u64);
            assert_eq!(
                chunk_starts(&data, &p),
                chunk_starts_reference(&data, &p),
                "len {len}"
            );
            let zeros = vec![0u8; len];
            assert_eq!(
                chunk_starts(&zeros, &p),
                chunk_starts_reference(&zeros, &p),
                "zeros len {len}"
            );
        }
    }

    #[test]
    fn constant_data_still_chunks_at_max() {
        // All-zero data never matches the magic; max_chunk must force cuts.
        let p = test_params();
        let data = vec![0u8; 4096];
        let starts = chunk_starts(&data, &p);
        let cs = chunks(&data, &starts);
        assert!(cs.len() >= 4096 / p.max_chunk);
        for c in &cs {
            assert!(c.len() <= p.max_chunk);
        }
    }
}
