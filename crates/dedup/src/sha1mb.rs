//! Multi-buffer SHA-1: eight independent compressions per call, one
//! message per 32-bit lane.
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
//!   one-block suffixes through [`nonces8`]: eight consecutive nonces
//!   per call, their message schedules built in registers;
//! * Dedup's stage 2, which digests every block of a batch through
//!   [`sha1_each`] and [`compress8`]: the `Sha1Kernel` body and the host
//!   rung both, so the device and host executors of one data-parallel
//!   method share one routine. The sequential reference keeps the scalar
//!   [`sha1()`](crate::sha1::sha1).
//!
//! # One round body, two instruction-set forms
//!
//! The 80 rounds are written once (`eighty_rounds!`), unrolled so that
//! every index is a constant, with the message schedule in a rolling
//! window of 16 words (round `i` needs no word older than `i − 16`). The
//! body calls five lane operations — rotate-left, `ch`, `parity`, `maj`
//! and the schedule's 4-way xor — and is compiled twice, each time on
//! the same eight lanes of a 256-bit register:
//!
//! * **AVX2:** the rotate is two shifts and an or; `ch` is
//!   `d ^ (b & (c ^ d))` and `maj` is `(b & c) | (d & (b | c))`, shorter
//!   forms of the scalar ones that are equal for every input bit.
//! * **AVX-512VL:** the rotate is one `vprold` (`_mm256_rol_epi32`), and
//!   each round function is one `vpternlogd`
//!   (`_mm256_ternarylogic_epi32`). Its table is the function's truth
//!   table, bit `4b + 2c + d` for the input bits `b`, `c`, `d`: `0xCA` is
//!   `ch` (`c` where `b` is set, else `d`), `0x96` is `parity`
//!   (`b ^ c ^ d`) and `0xE8` is `maj` (set where two or three inputs
//!   are). The 4-way xor is one `0x96` and one xor. It uses no zmm
//!   register: the lanes are AVX2's eight, with AVX-512's instructions.
//!
//! Each call runs the fastest form the CPU has, found by runtime
//! detection and by nothing else: AVX-512VL, then AVX2, then a scalar
//! loop of [`compress_block`] calls. All three give the same digests.
//! The body is a macro, not a generic function over a lane-operations
//! trait, because a trait method cannot be a safe `#[target_feature]`
//! function: in generic form every lane operation would be an `unsafe`
//! call, where here each is a safe call between functions compiled for
//! the same instruction sets.

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
/// `states[l]` absorbs `blocks[l]`. Runs the eight-lane body in its
/// AVX-512VL form where the CPU has it, else in its AVX2 form, else a
/// scalar loop (see the [module docs](self)); all three are
/// bit-identical to [`compress_block`] per lane.
///
/// The vector forms differ from the scalar one only in how they move
/// data and in the order of their operations, never in what they
/// compute: the byte shuffle and the transpose only move bytes (the same
/// big-endian words land in lane `l`, word `i`); the rolling window
/// holds the same schedule words the scalar 80-entry array does; each
/// form's `ch`, `parity` and `maj` are bitwise identities of the
/// reference's; and wrapping 32-bit addition is associative and
/// commutative, so adding the round terms in another order gives the
/// same sum.
pub fn compress8(states: &mut [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
    Body::detect().compress8(states, blocks);
}

/// SHA-1 of `prefix ‖ n` for the eight counters `n` in
/// `first..first + 8`, each appended as 8 big-endian bytes: digest `l`
/// (of counter `first + l`) goes to `out[20 * l..20 * l + 20]`.
/// `midstate` is the chaining state after the `prefix_len`-byte prefix,
/// a multiple of 64 (see [`Sha1::midstate`](crate::sha1::Sha1::midstate)),
/// so each suffix — counter, `0x80` pad, zeros and the 64-bit bit length
/// — is one block and each digest one compression from `midstate`.
///
/// The vector forms never build those blocks. They make the sixteen
/// schedule words in registers: each lane's counter high and low words
/// (the high word carrying one where the low word wrapped), and the pad,
/// zero and bit-length words as broadcasts, as is the midstate. One byte
/// swap turns the results into digest bytes. Same dispatch and same
/// digests as [`compress8`] over the eight blocks.
pub fn nonces8(midstate: [u32; 5], prefix_len: u64, first: u64, out: &mut [u8; 160]) {
    Body::detect().nonces8(midstate, prefix_len, first, out);
}

/// A form of the eight-lane body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    #[cfg(target_arch = "x86_64")]
    Avx512Vl,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Scalar,
}

impl Body {
    /// The fastest form this CPU runs: AVX-512VL, then AVX2, then scalar.
    fn detect() -> Body {
        #[cfg(target_arch = "x86_64")]
        for body in [Body::Avx512Vl, Body::Avx2] {
            if body.runs() {
                return body;
            }
        }
        Body::Scalar
    }

    /// Whether this CPU has every instruction set the form is compiled
    /// for: runtime detection, cached by `std`.
    fn runs(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Body::Avx512Vl => {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => is_x86_feature_detected!("avx2"),
            Body::Scalar => true,
        }
    }

    fn compress8(self, states: &mut [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
        assert!(
            self.runs(),
            "{self:?} needs an instruction set this CPU lacks"
        );
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `runs` found AVX2, AVX-512F and AVX-512VL just above.
            Body::Avx512Vl => unsafe { x86::avx512vl::compress8(states, blocks) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `runs` found AVX2 just above.
            Body::Avx2 => unsafe { x86::avx2::compress8(states, blocks) },
            Body::Scalar => {
                for (h, block) in states.iter_mut().zip(blocks) {
                    compress_block(h, block);
                }
            }
        }
    }

    fn nonces8(self, midstate: [u32; 5], prefix_len: u64, first: u64, out: &mut [u8; 160]) {
        assert!(
            self.runs(),
            "{self:?} needs an instruction set this CPU lacks"
        );
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `runs` found AVX2, AVX-512F and AVX-512VL just above.
            Body::Avx512Vl => unsafe { x86::avx512vl::nonces8(midstate, prefix_len, first, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `runs` found AVX2 just above.
            Body::Avx2 => unsafe { x86::avx2::nonces8(midstate, prefix_len, first, out) },
            Body::Scalar => {
                let mut block = [0u8; 64];
                block[8] = 0x80;
                block[56..].copy_from_slice(&((prefix_len + 8) * 8).to_be_bytes());
                for (l, digest) in out.chunks_exact_mut(20).enumerate() {
                    block[..8].copy_from_slice(&first.wrapping_add(l as u64).to_be_bytes());
                    let mut h = midstate;
                    compress_block(&mut h, &block);
                    digest.copy_from_slice(&Digest::from_state(&h).0);
                }
            }
        }
    }
}

/// One round over eight lanes: the caller's window `$w` and working
/// variables `$a`–`$e`, round function `$f`, constant `$k`. `$i` is a
/// literal, so every window slot is a constant index. The lane
/// operations resolve where `eighty_rounds!` is invoked.
#[cfg(target_arch = "x86_64")]
macro_rules! round {
    ($f:ident, $k:literal, $i:literal, [$w:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident]) => {
        if $i >= 16 {
            // w[i − 3] ^ w[i − 8] ^ w[i − 14] ^ w[i − 16], modulo 16.
            $w[$i % 16] = rotl::<1, 31>(xor4(
                $w[($i + 13) % 16],
                $w[($i + 8) % 16],
                $w[($i + 2) % 16],
                $w[$i % 16],
            ));
        }
        // Everything but `a` is known a round early, so its sum waits
        // on `a`'s rotate and one add.
        let tmp = add(
            add(rotl::<5, 27>($a), $f($b, $c, $d)),
            add(add($e, splat($k)), $w[$i % 16]),
        );
        $e = $d;
        $d = $c;
        $c = rotl::<30, 2>($b);
        $b = $a;
        $a = tmp;
    };
}

/// Twenty `round!`s with one round function and constant.
#[cfg(target_arch = "x86_64")]
macro_rules! rounds {
    ($f:ident, $k:literal, $vars:tt, $($i:literal)*) => { $(round!($f, $k, $i, $vars);)* };
}

/// The eight-lane body, written once: the 80 rounds from chaining states
/// `$h` and schedule words `$w` (both `__m256i` arrays, lane `l` of
/// element `j` is message `l`'s word `j`), then the feed-forward. An
/// expression of the five new states. The lane operations `rotl`, `ch`,
/// `parity`, `maj` and `xor4`, and `add` and `splat`, are whatever the
/// invoking module defines, and compile with its instruction sets.
#[cfg(target_arch = "x86_64")]
macro_rules! eighty_rounds {
    ($h:expr, $w:expr) => {{
        let h: [__m256i; 5] = $h;
        // The rolling window: round i ≥ 16 overwrites w[i % 16].
        let mut w: [__m256i; 16] = $w;
        let [mut a, mut b, mut c, mut d, mut e] = h;
        rounds!(ch, 0x5A82_7999, [w, a, b, c, d, e], 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
        rounds!(parity, 0x6ED9_EBA1, [w, a, b, c, d, e], 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
        rounds!(maj, 0x8F1B_BCDC, [w, a, b, c, d, e], 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59);
        rounds!(parity, 0xCA62_C1D6, [w, a, b, c, d, e], 60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79);
        [
            add(h[0], a),
            add(h[1], b),
            add(h[2], c),
            add(h[3], d),
            add(h[4], e),
        ]
    }};
}

/// The vector forms: what both share (AVX2 data movement and
/// arithmetic), then one module per form with its lane operations and
/// its two entry points.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }

    /// Every lane `x`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(x: u32) -> __m256i {
        _mm256_set1_epi32(x as i32)
    }

    /// Lane `l` = `xs[l]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gather(xs: [u32; 8]) -> __m256i {
        let x = xs.map(|x| x as i32);
        _mm256_setr_epi32(x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7])
    }

    /// The eight lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes(v: __m256i) -> [u32; 8] {
        let mut out = [0u32; 8];
        // SAFETY: the store writes 32 bytes to `out`, which is 32 bytes.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
        out
    }

    /// Reverse the bytes of every lane: little-endian loads to
    /// big-endian words, and finished words to digest bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn bswap(v: __m256i) -> __m256i {
        let order = _mm256_setr_epi8(
            3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12, //
            3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
        );
        _mm256_shuffle_epi8(v, order)
    }

    /// 8×8 transpose of 32-bit words: lane `l` of output `i` is lane `i`
    /// of input `l`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256i; 8]) -> [__m256i; 8] {
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

    /// The eight chaining states, one vector per SHA-1 word.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_states(states: &[[u32; 5]; 8]) -> [__m256i; 5] {
        std::array::from_fn(|j| gather(std::array::from_fn(|l| states[l][j])))
    }

    /// [`load_states`]'s inverse.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_states(states: &mut [[u32; 5]; 8], words: [__m256i; 5]) {
        for (j, v) in words.into_iter().enumerate() {
            for (state, word) in states.iter_mut().zip(lanes(v)) {
                state[j] = word;
            }
        }
    }

    /// The schedule's first sixteen words of eight blocks: each block's
    /// two 32-byte halves loaded, every word byte-swapped to big endian,
    /// and transposed, so that `w[i]` holds word `i` of every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_blocks(blocks: &[[u8; 64]; 8]) -> [__m256i; 16] {
        let half = |h: usize| {
            transpose8(std::array::from_fn(|l| {
                let bytes = &blocks[l][h * 32..][..32];
                // SAFETY: the load reads 32 bytes from `bytes`, which is
                // 32 bytes.
                bswap(unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) })
            }))
        };
        let (lo, hi) = (half(0), half(1));
        std::array::from_fn(|i| if i < 8 { lo[i] } else { hi[i - 8] })
    }

    /// The schedule's first sixteen words of the one-block suffixes of
    /// counters `first..first + 8` after a `prefix_len`-byte prefix: the
    /// counter's high and low words, the `0x80` pad, zeros, and the
    /// message's 64-bit bit length.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn nonce_schedule(prefix_len: u64, first: u64) -> [__m256i; 16] {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let lo = add(splat(first as u32), lane);
        // A lane's low word wrapped where it came out below the lane's
        // offset, unsigned (the xors with the sign bit turn the signed
        // compare unsigned); its high word then carries one: minus the
        // compare's all-ones.
        let sign = splat(1 << 31);
        let wrapped = _mm256_cmpgt_epi32(_mm256_xor_si256(lane, sign), _mm256_xor_si256(lo, sign));
        let hi = _mm256_sub_epi32(splat((first >> 32) as u32), wrapped);
        let bits = (prefix_len + 8) * 8;
        let mut w = [_mm256_setzero_si256(); 16];
        w[0] = hi;
        w[1] = lo;
        w[2] = splat(0x8000_0000);
        w[14] = splat((bits >> 32) as u32);
        w[15] = splat(bits as u32);
        w
    }

    /// Lane `l`'s five words, byte-swapped, as digest `l` of `out`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_digests(out: &mut [u8; 160], words: [__m256i; 5]) {
        for (j, v) in words.into_iter().enumerate() {
            // After the swap a word's native bytes are its big-endian ones.
            for (l, word) in lanes(bswap(v)).into_iter().enumerate() {
                out[20 * l + 4 * j..][..4].copy_from_slice(&word.to_ne_bytes());
            }
        }
    }

    /// The AVX2 form: shift pairs for the rotate, and the round functions
    /// in their shortest two-operand forms.
    pub(super) mod avx2 {
        use super::*;

        /// Rotate every lane left by `L` (`R` = 32 − `L`).
        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl<const L: i32, const R: i32>(v: __m256i) -> __m256i {
            _mm256_or_si256(_mm256_slli_epi32::<L>(v), _mm256_srli_epi32::<R>(v))
        }

        /// `(b & c) | (!b & d)`, as `d ^ (b & (c ^ d))`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn ch(b: __m256i, c: __m256i, d: __m256i) -> __m256i {
            _mm256_xor_si256(d, _mm256_and_si256(b, _mm256_xor_si256(c, d)))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn parity(b: __m256i, c: __m256i, d: __m256i) -> __m256i {
            _mm256_xor_si256(_mm256_xor_si256(b, c), d)
        }

        /// `(b & c) | (b & d) | (c & d)`, as `(b & c) | (d & (b | c))`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn maj(b: __m256i, c: __m256i, d: __m256i) -> __m256i {
            _mm256_or_si256(
                _mm256_and_si256(b, c),
                _mm256_and_si256(d, _mm256_or_si256(b, c)),
            )
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn xor4(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> __m256i {
            _mm256_xor_si256(_mm256_xor_si256(a, b), _mm256_xor_si256(c, d))
        }

        /// [`compress8`](crate::sha1mb::compress8) in this form.
        #[target_feature(enable = "avx2")]
        pub(in crate::sha1mb) fn compress8(states: &mut [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
            store_states(
                states,
                eighty_rounds!(load_states(states), load_blocks(blocks)),
            );
        }

        /// [`nonces8`](crate::sha1mb::nonces8) in this form.
        #[target_feature(enable = "avx2")]
        pub(in crate::sha1mb) fn nonces8(
            midstate: [u32; 5],
            prefix_len: u64,
            first: u64,
            out: &mut [u8; 160],
        ) {
            let h = std::array::from_fn(|j| splat(midstate[j]));
            store_digests(out, eighty_rounds!(h, nonce_schedule(prefix_len, first)));
        }
    }

    /// The AVX-512VL form: one `vprold` for the rotate and one
    /// `vpternlogd` per round function, on the same 256-bit lanes.
    pub(super) mod avx512vl {
        use super::*;

        /// Rotate every lane left by `L` (`R`, 32 − `L`, is the AVX2
        /// form's right shift, unused here).
        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn rotl<const L: i32, const R: i32>(v: __m256i) -> __m256i {
            _mm256_rol_epi32::<L>(v)
        }

        /// Table `0xCA`: `c` where `b` is set, else `d`.
        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn ch(b: __m256i, c: __m256i, d: __m256i) -> __m256i {
            _mm256_ternarylogic_epi32::<0xCA>(b, c, d)
        }

        /// Table `0x96`: `b ^ c ^ d`.
        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn parity(b: __m256i, c: __m256i, d: __m256i) -> __m256i {
            _mm256_ternarylogic_epi32::<0x96>(b, c, d)
        }

        /// Table `0xE8`: set where at least two of `b`, `c`, `d` are.
        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn maj(b: __m256i, c: __m256i, d: __m256i) -> __m256i {
            _mm256_ternarylogic_epi32::<0xE8>(b, c, d)
        }

        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn xor4(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> __m256i {
            _mm256_ternarylogic_epi32::<0x96>(_mm256_xor_si256(a, b), c, d)
        }

        /// [`compress8`](crate::sha1mb::compress8) in this form.
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        pub(in crate::sha1mb) fn compress8(states: &mut [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
            store_states(
                states,
                eighty_rounds!(load_states(states), load_blocks(blocks)),
            );
        }

        /// [`nonces8`](crate::sha1mb::nonces8) in this form.
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        pub(in crate::sha1mb) fn nonces8(
            midstate: [u32; 5],
            prefix_len: u64,
            first: u64,
            out: &mut [u8; 160],
        ) {
            let h = std::array::from_fn(|j| splat(midstate[j]));
            store_digests(out, eighty_rounds!(h, nonce_schedule(prefix_len, first)));
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

    /// Every form of the body this CPU runs, scalar always among them.
    fn bodies() -> Vec<Body> {
        #[cfg(target_arch = "x86_64")]
        let all = [Body::Avx512Vl, Body::Avx2, Body::Scalar];
        #[cfg(not(target_arch = "x86_64"))]
        let all = [Body::Scalar];
        let run: Vec<Body> = all.into_iter().filter(|b| b.runs()).collect();
        assert_eq!(run[0], Body::detect(), "dispatch takes the fastest form");
        eprintln!("sha1mb bodies run: {run:?}");
        run
    }

    /// xorshift64: deterministic test data with no external crates.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn every_body_compresses_random_blocks_like_compress_block() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for body in bodies() {
            for trial in 0..64 {
                let states: [[u32; 5]; 8] =
                    std::array::from_fn(|_| std::array::from_fn(|_| next() as u32));
                let blocks: [[u8; 64]; 8] =
                    std::array::from_fn(|_| std::array::from_fn(|_| next() as u8));
                let mut got = states;
                body.compress8(&mut got, &blocks);
                for (l, (h, block)) in states.iter().zip(&blocks).enumerate() {
                    let mut expect = *h;
                    compress_block(&mut expect, block);
                    assert_eq!(got[l], expect, "{body:?}, trial {trial}, lane {l}");
                }
            }
        }
    }

    #[test]
    fn every_body_hashes_nonces_like_resume() {
        // Counts 0–17 and 1 021 cover no pass, one, two and many; the
        // starts put the low word's wrap (and the high word's carry) in
        // the middle of a pass, and the high word at all ones. The prefix
        // lengths give the bit length a zero and a nonzero high word.
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        for body in bodies() {
            for prefix_len in [64u64, 192, 1 << 35] {
                let midstate: [u32; 5] = std::array::from_fn(|_| next() as u32);
                for start in [0, u32::MAX as u64 - 3, u64::MAX - 2_000] {
                    for count in (0..=17).chain([1_021]) {
                        for pass in 0..count / 8 {
                            let first = start + pass as u64 * 8;
                            let mut got = [0u8; 160];
                            body.nonces8(midstate, prefix_len, first, &mut got);
                            for (l, digest) in got.chunks_exact(20).enumerate() {
                                let mut h = Sha1::resume(midstate, prefix_len);
                                h.update(&(first + l as u64).to_be_bytes());
                                assert_eq!(
                                    digest,
                                    h.finalize().0,
                                    "{body:?}, prefix {prefix_len}, start {start}, \
                                     count {count}, nonce {}",
                                    first + l as u64
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
