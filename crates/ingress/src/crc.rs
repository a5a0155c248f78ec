//! CRC32 (IEEE 802.3, bit-reflected) — the record checksum of both
//! transports. Slice-by-8 tables everywhere; on x86-64 with PCLMULQDQ
//! (runtime-detected) inputs of 64 bytes and more are folded 64 bytes
//! per step by carry-less multiplication and only their tail (< 16
//! bytes) goes through the tables. Both paths advance the same state, so
//! results are identical on every machine.

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: PCLMULQDQ support was just verified at runtime, and
        // `blocks` is `bytes` cut down to a multiple of 16: still >= 64.
        return !update_table(unsafe { update_clmul(!0, blocks) }, tail);
    }
    !update_table(!0, bytes)
}

/// Advance the (inverted) CRC state `c` over `bytes`, eight per step.
fn update_table(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ u64::from(c);
        c = 0;
        for (k, table) in TABLES.iter().rev().enumerate() {
            c ^= table[(v >> (8 * k)) as usize & 0xFF];
        }
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Advance the (inverted) CRC state `c` over `bytes` — at least 64 and
/// a multiple of 16 — by folding: "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009) with the
/// bit-reflected constants zlib's `crc32_simd` uses.
///
/// # Safety
///
/// The CPU must support PCLMULQDQ (check with
/// `is_x86_feature_detected!("pclmulqdq")`, as [`crc32`] does): the
/// function is compiled for it and executes it unconditionally. `bytes`
/// must be at least 64 long and a multiple of 16; that part is asserted,
/// so breaking it panics rather than reading out of bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
unsafe fn update_clmul(c: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    /// `x` carried 16·n bytes further (`k` = x^(128n±32) mod P), plus `next`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ. Only `update_clmul`, whose own
    /// contract requires it, calls this, and it reads no memory.
    #[inline(always)]
    unsafe fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
    let k1k2 = _mm_set_epi64x(0x0001_c6e4_1596, 0x0001_5444_2bd4); // 64 bytes ahead
    let k3k4 = _mm_set_epi64x(0x0000_ccaa_009e, 0x0001_7519_97d0); // 16 bytes ahead
    let k5 = _mm_set_epi64x(0, 0x0001_63cd_6124);
    let poly = _mm_set_epi64x(0x0001_f701_1641, 0x0001_db71_0641); // μ, P
    let mut blocks = bytes.chunks_exact(16).map(|b| {
        // SAFETY: `b` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    });
    let mut next = || blocks.next().expect("a whole 16-byte block");

    let mut x = [next(), next(), next(), next()];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
    for _ in 1..bytes.len() / 64 {
        for lane in &mut x {
            *lane = fold(*lane, k1k2, next());
        }
    }
    let mut x1 = x[0];
    for &lane in &x[1..] {
        x1 = fold(x1, k3k4, lane);
    }
    for _ in 0..bytes.len() % 64 / 16 {
        x1 = fold(x1, k3k4, next());
    }

    // 128 → 64 bits, then Barrett reduction to 32.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
    x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
    let x2 = _mm_srli_si128::<4>(x1);
    x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), k5);
    x1 = _mm_xor_si128(x1, x2);
    let x2 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), poly);
    let x2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x2, low32), poly);
    _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x1, x2))) as u32
}

/// Eight shifts per byte, no table: the definition, for tests here and
/// for the on-disk format test's independent writer.
#[cfg(test)]
pub(crate) fn bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table path by name (a PCLMULQDQ machine never dispatches a
    /// long input to it) and `crc32`, which folds wherever the CPU can.
    fn check(bytes: &[u8]) {
        let want = bitwise(bytes);
        assert_eq!(!update_table(!0, bytes), want, "table, len {}", bytes.len());
        assert_eq!(crc32(bytes), want, "dispatch, len {}", bytes.len());
    }

    #[test]
    fn known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_path_matches_the_bitwise_definition() {
        let mut rng = simtime::XorShift64::new(0x5EED_C4C3);
        let buf = rng.bytes(603);
        for align in 0..3 {
            for len in 0..=600 {
                check(&buf[align..align + len]);
            }
        }
        check(&rng.bytes(1 << 20));
    }
}
