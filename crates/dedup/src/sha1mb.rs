//! Multi-buffer SHA-1: eight independent compressions per call, one
//! message per 32-bit AVX2 lane.
//!
//! SHA-1 is pure 32-bit integer arithmetic (xor/and/or, rotates,
//! wrapping adds), so running eight messages in the lanes of a `__m256i`
//! is *exactly* eight interleaved runs of the scalar
//! [`compress_block`] — bit-identical by
//! construction, no floating-point caveats. This is the classic
//! "multi-buffer" scheme (one message per lane, not a parallelization of
//! a single hash: SHA-1's chaining makes the latter impossible). It
//! serves two lane-parallel workloads:
//!
//! * hashsearch, whose nonce search hashes thousands of independent
//!   one-block suffixes through [`compress8`];
//! * Dedup's stage 2, which digests every block of a batch through
//!   [`sha1_each`]: the `Sha1Kernel` body and the host rung both, so the
//!   device and host executors of one data-parallel method share one
//!   routine. The sequential reference keeps the scalar
//!   [`sha1()`](crate::sha1::sha1).
//!
//! The AVX2 path is runtime-detected; everywhere else [`compress8`]
//! falls back to eight scalar compressions with the same results. The
//! AVX2 body loads each block's two 32-byte halves as vectors,
//! byte-swaps every word to big endian with one byte shuffle, and turns
//! the eight blocks' rows into lanes with an 8×8 transpose of 32-bit
//! words. It then runs the 80 rounds unrolled, every index a constant,
//! with the message schedule in a rolling window of 16 words (round `i`
//! needs no word older than `i − 16`). Its round functions are shorter
//! forms of the scalar ones, equal for every input bit:
//! `ch = d ^ (b & (c ^ d))` and `maj = (b & c) | (d & (b | c))`.

use crate::sha1::{compress_block, Digest, IV};

/// SHA-1 of `n` messages of any length, eight at a time: calls
/// `emit(i, sha1(msg(i)))` once for every `i < n`, in the order the
/// lanes finish. Each lane feeds [`compress8`] its message's 64-byte
/// blocks, then the one or two padding blocks; a finished lane emits its
/// state as the digest and takes the next message from a fresh IV.
pub fn sha1_each<'a>(
    n: usize,
    msg: impl Fn(usize) -> &'a [u8],
    mut emit: impl FnMut(usize, Digest),
) {
    let mut next = 0;
    let mut take = || {
        (next < n).then(|| {
            next += 1;
            Lane {
                index: next - 1,
                data: msg(next - 1),
                block: 0,
            }
        })
    };
    let mut lanes: [Option<Lane>; 8] = std::array::from_fn(|_| take());
    let mut states = [IV; 8];
    let mut blocks = [[0u8; 64]; 8];
    while lanes.iter().any(Option::is_some) {
        for (lane, block) in lanes.iter().zip(&mut blocks) {
            if let Some(lane) = lane {
                lane.padded_block(block);
            }
        }
        compress8(&mut states, &blocks);
        for (slot, h) in lanes.iter_mut().zip(&mut states) {
            let Some(lane) = slot else { continue };
            lane.block += 1;
            if lane.block == padded_blocks(lane.data.len()) {
                emit(lane.index, Digest::from_state(h));
                *h = IV;
                *slot = take();
            }
        }
    }
}

/// One lane of [`sha1_each`]: message `index` and the next block of its
/// padded stream.
struct Lane<'a> {
    index: usize,
    data: &'a [u8],
    block: usize,
}

impl Lane<'_> {
    /// Block `self.block` of the padded stream: the message, `0x80`,
    /// zeros, and the 64-bit big-endian bit length in the last block.
    fn padded_block(&self, out: &mut [u8; 64]) {
        let (len, at) = (self.data.len(), self.block * 64);
        if let Some(full) = self.data.get(at..at + 64) {
            out.copy_from_slice(full);
            return;
        }
        let tail = self.data.get(at..).unwrap_or(&[]);
        *out = [0; 64];
        out[..tail.len()].copy_from_slice(tail);
        if at <= len {
            out[len - at] = 0x80;
        }
        if self.block + 1 == padded_blocks(len) {
            out[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
        }
    }
}

/// Blocks in the padded stream of a `len`-byte message: room for the
/// `0x80` byte and the 8-byte length, so a second padding block when
/// `len % 64` is 56–63.
fn padded_blocks(len: usize) -> usize {
    (len + 9).div_ceil(64)
}

/// Compress one 64-byte block into each of eight chaining states:
/// `states[l]` absorbs `blocks[l]`. Lane-parallel under AVX2, scalar
/// loop otherwise; both are bit-identical to [`compress_block`] per lane.
///
/// The AVX2 body differs from the scalar one only in how it moves data
/// and in the order of its operations, never in what it computes: the
/// shuffle and the transpose only move bytes (the same big-endian words
/// land in lane `l`, word `i`); the rolling window holds the same
/// schedule words the scalar 80-entry array does; `ch` and `maj` are
/// bitwise identities of the reference's forms; and wrapping 32-bit
/// addition is associative and commutative, so adding the round terms in
/// another order gives the same sum.
pub fn compress8(states: &mut [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { compress8_avx2(states, blocks) };
        return;
    }
    for (h, block) in states.iter_mut().zip(blocks) {
        compress_block(h, block);
    }
}

/// [`compress8`]'s AVX2 body.
///
/// # Safety
///
/// The CPU must support AVX2 (check with
/// `is_x86_feature_detected!("avx2")`, as [`compress8`] does): the
/// function is compiled for it and executes it unconditionally. Memory
/// needs nothing from the caller: the loads read bytes 0–31 and 32–63 of
/// a `[u8; 64]` block and the stores write a local `[i32; 8]`, so the
/// argument types bound every access.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compress8_avx2(states: &mut [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
    use std::arch::x86_64::*;

    /// Rotate every lane left by `L` (`R` = 32 − `L`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only `compress8_avx2`, whose own
    /// contract requires it, calls this, and it reads no memory.
    #[inline(always)]
    unsafe fn rotl<const L: i32, const R: i32>(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(v), _mm256_srli_epi32::<R>(v))
    }
    /// Lane `l` = `xs[l]` (`_mm256_set_epi32` takes lanes high-to-low).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only `compress8_avx2`, whose own
    /// contract requires it, calls this, and it reads no memory.
    #[inline(always)]
    unsafe fn gather(xs: [i32; 8]) -> __m256i {
        _mm256_set_epi32(xs[7], xs[6], xs[5], xs[4], xs[3], xs[2], xs[1], xs[0])
    }
    /// 8×8 transpose of 32-bit words: lane `l` of output `i` is lane `i`
    /// of input `l`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only `compress8_avx2`, whose own
    /// contract requires it, calls this, and it reads no memory.
    #[inline(always)]
    unsafe fn transpose8(r: [__m256i; 8]) -> [__m256i; 8] {
        // Pairs of rows interleaved: t0 = r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] r0[5] r1[5].
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        // Quads: u0 = column 0 of rows 0–3 | column 4 of rows 0–3.
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        // Low 128-bit halves give columns 0–3, high halves columns 4–7.
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    // Load each block's two 32-byte halves, byte-swap every word to big
    // endian, and transpose: w[i] holds message word i of all eight lanes.
    let bswap = _mm256_setr_epi8(
        3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12, //
        3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
    );
    let half = |h: usize| {
        transpose8(std::array::from_fn(|l| {
            // Reads 32 bytes of a block: bytes h * 32 to h * 32 + 31 < 64.
            let v = _mm256_loadu_si256(blocks[l][h * 32..].as_ptr().cast());
            _mm256_shuffle_epi8(v, bswap)
        }))
    };
    let (lo, hi) = (half(0), half(1));
    // The schedule's rolling window: round i ≥ 16 overwrites w[i % 16].
    let mut w: [__m256i; 16] = std::array::from_fn(|i| if i < 8 { lo[i] } else { hi[i - 8] });

    // Transpose the chaining states: one vector per SHA-1 word.
    let hv: [__m256i; 5] =
        std::array::from_fn(|j| gather(std::array::from_fn(|l| states[l][j] as i32)));
    let [mut a, mut b, mut c, mut d, mut e] = hv;

    // The round functions, in forms with fewer operations than the
    // scalar reference's but equal to them bit for bit.
    let ch = |b, c, d| _mm256_xor_si256(d, _mm256_and_si256(b, _mm256_xor_si256(c, d)));
    let parity = |b, c, d| _mm256_xor_si256(_mm256_xor_si256(b, c), d);
    let maj = |b, c, d| {
        _mm256_or_si256(
            _mm256_and_si256(b, c),
            _mm256_and_si256(d, _mm256_or_si256(b, c)),
        )
    };
    // One round, its index a literal so every window slot is a constant.
    macro_rules! round {
        ($f:ident, $k:literal, $i:literal) => {
            if $i >= 16 {
                // w[i − 3] ^ w[i − 8] ^ w[i − 14] ^ w[i − 16], modulo 16.
                w[$i % 16] = rotl::<1, 31>(_mm256_xor_si256(
                    _mm256_xor_si256(w[($i + 13) % 16], w[($i + 8) % 16]),
                    _mm256_xor_si256(w[($i + 2) % 16], w[$i % 16]),
                ));
            }
            let tmp = _mm256_add_epi32(
                _mm256_add_epi32(
                    _mm256_add_epi32(rotl::<5, 27>(a), $f(b, c, d)),
                    _mm256_add_epi32(e, _mm256_set1_epi32($k as i32)),
                ),
                w[$i % 16],
            );
            e = d;
            d = c;
            c = rotl::<30, 2>(b);
            b = a;
            a = tmp;
        };
    }
    macro_rules! rounds {
        ($f:ident, $k:literal, $($i:literal)*) => { $(round!($f, $k, $i);)* };
    }
    rounds!(ch, 0x5A82_7999u32, 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
    rounds!(parity, 0x6ED9_EBA1u32, 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
    rounds!(maj, 0x8F1B_BCDCu32, 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59);
    rounds!(parity, 0xCA62_C1D6u32, 60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79);

    // Feed-forward and transpose back out.
    let out = [a, b, c, d, e];
    for (j, (&v, &h0)) in out.iter().zip(hv.iter()).enumerate() {
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), _mm256_add_epi32(h0, v));
        for (l, &lane) in lanes.iter().enumerate() {
            states[l][j] = lane as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::{sha1, Sha1};

    /// `sha1_each` over `msgs`, collected by message index; every index
    /// must be emitted exactly once.
    fn digests(msgs: &[Vec<u8>]) -> Vec<Digest> {
        let mut out = vec![None; msgs.len()];
        sha1_each(
            msgs.len(),
            |i| &msgs[i],
            |i, d| {
                assert!(out[i].replace(d).is_none(), "message {i} emitted twice");
            },
        );
        out.into_iter()
            .enumerate()
            .map(|(i, d)| d.unwrap_or_else(|| panic!("message {i} never emitted")))
            .collect()
    }

    fn assert_exact(msgs: &[Vec<u8>]) {
        for (i, (got, m)) in digests(msgs).iter().zip(msgs).enumerate() {
            assert_eq!(
                *got,
                sha1(m),
                "message {i} of {} ({} B)",
                msgs.len(),
                m.len()
            );
        }
    }

    #[test]
    fn every_length_through_three_padding_edges() {
        // 55/56, 63/64 and 119/120 are where the padding takes a second
        // block or the message a whole one.
        let msgs: Vec<Vec<u8>> = (0..=200usize)
            .map(|len| (0..len).map(|i| (i * 7 + len) as u8).collect())
            .collect();
        assert_exact(&msgs);
        // Alone in the routine, each length is a single-lane run.
        for m in &msgs {
            assert_exact(std::slice::from_ref(m));
        }
    }

    #[test]
    fn no_message_emits_nothing() {
        sha1_each(0, |_| unreachable!(), |_, _| panic!("emitted"));
    }

    #[test]
    fn fewer_messages_than_lanes() {
        for n in [1usize, 7] {
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 30 * i]).collect();
            assert_exact(&msgs);
        }
    }

    #[test]
    fn lanes_refill_while_a_long_message_runs() {
        // One 5000-byte message among 40 short ones: the other seven
        // lanes take a new message every block or two while it runs.
        let mut msgs: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8 ^ 0x5a; i % 9]).collect();
        msgs.insert(3, (0..5000).map(|i| (i % 251) as u8).collect());
        assert_exact(&msgs);
    }

    /// Build the single padded block for a message of `len <= 55` bytes.
    fn padded_block(msg: &[u8]) -> [u8; 64] {
        assert!(msg.len() <= 55);
        let mut block = [0u8; 64];
        block[..msg.len()].copy_from_slice(msg);
        block[msg.len()] = 0x80;
        block[56..].copy_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
        block
    }

    #[test]
    fn eight_lanes_match_eight_scalar_hashes() {
        let msgs: Vec<Vec<u8>> = (0..8u8)
            .map(|l| (0..(5 + l as usize * 6)).map(|i| l ^ (i as u8)).collect())
            .collect();
        let blocks: [[u8; 64]; 8] = std::array::from_fn(|l| padded_block(&msgs[l]));
        let mut states = [IV; 8];
        compress8(&mut states, &blocks);
        for l in 0..8 {
            let expect = sha1(&msgs[l]).0;
            let mut got = [0u8; 20];
            for (j, wrd) in states[l].iter().enumerate() {
                got[j * 4..j * 4 + 4].copy_from_slice(&wrd.to_be_bytes());
            }
            assert_eq!(got, expect, "lane {l}");
        }
    }

    #[test]
    fn lanes_are_independent() {
        // Perturbing one lane's block must not disturb the other seven.
        let base = padded_block(b"base message");
        let mut blocks = [base; 8];
        blocks[3] = padded_block(b"different");
        let mut states = [IV; 8];
        compress8(&mut states, &blocks);
        for l in 0..8 {
            if l == 3 {
                assert_ne!(states[l], states[0]);
            } else {
                assert_eq!(states[l], states[0], "lane {l}");
            }
        }
    }

    #[test]
    fn multi_block_chaining_matches_incremental() {
        // Chain two compress8 calls and compare with the incremental
        // hasher over the 128-byte concatenation.
        let first: [u8; 64] = std::array::from_fn(|i| i as u8);
        let mut msgs: Vec<Vec<u8>> = Vec::new();
        let mut blocks2 = [[0u8; 64]; 8];
        for (l, block) in blocks2.iter_mut().enumerate() {
            let tail: Vec<u8> = (0..20).map(|i| (l * 31 + i) as u8).collect();
            *block = padded_block(&tail);
            // The real message is first-block bytes ++ tail, but the
            // padded tail block encodes only the tail length; fix it up
            // to the full length as a streaming hasher would.
            block[56..].copy_from_slice(&((64 + tail.len() as u64) * 8).to_be_bytes());
            let mut m = first.to_vec();
            m.extend_from_slice(&tail);
            msgs.push(m);
        }
        let mut states = [IV; 8];
        compress8(&mut states, &[first; 8]);
        compress8(&mut states, &blocks2);
        for l in 0..8 {
            let mut h = Sha1::new();
            h.update(&msgs[l]);
            let expect = h.finalize().0;
            let mut got = [0u8; 20];
            for (j, wrd) in states[l].iter().enumerate() {
                got[j * 4..j * 4 + 4].copy_from_slice(&wrd.to_be_bytes());
            }
            assert_eq!(got, expect, "lane {l}");
        }
    }

    /// `compress8` against eight `compress_block` calls on the same
    /// states and blocks.
    fn assert_lanes_exact(what: &str, states: [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
        let mut got = states;
        compress8(&mut got, blocks);
        for (l, (h, block)) in states.iter().zip(blocks).enumerate() {
            let mut expect = *h;
            compress_block(&mut expect, block);
            assert_eq!(got[l], expect, "{what}: lane {l}");
        }
    }

    /// A different chaining state in every lane.
    fn distinct_states() -> [[u32; 5]; 8] {
        std::array::from_fn(|l| {
            std::array::from_fn(|j| IV[j].rotate_left(l as u32 * 3 + 1) ^ (l * 5 + j) as u32)
        })
    }

    #[test]
    fn every_lane_its_own_block_and_state() {
        let blocks: [[u8; 64]; 8] =
            std::array::from_fn(|l| std::array::from_fn(|i| (l * 64 + i * 13) as u8 ^ 0x3c));
        assert_lanes_exact("distinct", distinct_states(), &blocks);
    }

    #[test]
    fn blocks_differing_only_in_one_words_byte_order() {
        // Lane l holds word 5's four bytes in the l-th order: a load that
        // swaps or drops the byte order within a word shows in the lanes
        // whose order it confuses.
        let orders = [
            [0, 1, 2, 3],
            [3, 2, 1, 0],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [1, 2, 3, 0],
            [3, 0, 1, 2],
            [0, 2, 1, 3],
            [2, 1, 0, 3],
        ];
        let word = [0x12u8, 0x34, 0x56, 0x78];
        let base: [u8; 64] = std::array::from_fn(|i| i as u8 * 3);
        let blocks: [[u8; 64]; 8] = std::array::from_fn(|l| {
            let mut b = base;
            for (k, &o) in orders[l].iter().enumerate() {
                b[20 + k] = word[o];
            }
            b
        });
        assert_lanes_exact("byte order", [IV; 8], &blocks);
        assert_lanes_exact("byte order, distinct states", distinct_states(), &blocks);
    }

    #[test]
    fn one_nonzero_word_per_lane_pins_the_transpose() {
        // Lane l's only nonzero word sits at index (l + shift) % 16: over
        // the sixteen shifts every lane sees a word at every index, each
        // pass with eight different indices, so a transpose that sends a
        // word to the wrong lane or the wrong schedule slot shows.
        for shift in 0..16 {
            let blocks: [[u8; 64]; 8] = std::array::from_fn(|l| {
                let mut b = [0u8; 64];
                let at = (l + shift) % 16 * 4;
                b[at..at + 4]
                    .copy_from_slice(&(0x8000_0001u32 | (l as u32 + 1) << 8).to_be_bytes());
                b
            });
            assert_lanes_exact(&format!("shift {shift}"), [IV; 8], &blocks);
        }
    }
}
