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
//! falls back to eight scalar compressions with the same results.

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
/// loop otherwise; both orders are bit-identical.
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compress8_avx2(states: &mut [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
    use std::arch::x86_64::*;

    #[inline(always)]
    unsafe fn rotl1(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<1>(v), _mm256_srli_epi32::<31>(v))
    }
    #[inline(always)]
    unsafe fn rotl5(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<5>(v), _mm256_srli_epi32::<27>(v))
    }
    #[inline(always)]
    unsafe fn rotl30(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<30>(v), _mm256_srli_epi32::<2>(v))
    }
    /// Big-endian word `i` of block `l` (what the scalar schedule loads).
    #[inline(always)]
    fn word(block: &[u8; 64], i: usize) -> i32 {
        u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes")) as i32
    }
    /// Lane `l` = `xs[l]` (`_mm256_set_epi32` takes lanes high-to-low).
    #[inline(always)]
    unsafe fn gather(xs: [i32; 8]) -> __m256i {
        _mm256_set_epi32(xs[7], xs[6], xs[5], xs[4], xs[3], xs[2], xs[1], xs[0])
    }

    // Transpose the eight message schedules into lane-parallel form.
    let mut w = [_mm256_setzero_si256(); 80];
    for (i, slot) in w.iter_mut().enumerate().take(16) {
        *slot = gather([
            word(&blocks[0], i),
            word(&blocks[1], i),
            word(&blocks[2], i),
            word(&blocks[3], i),
            word(&blocks[4], i),
            word(&blocks[5], i),
            word(&blocks[6], i),
            word(&blocks[7], i),
        ]);
    }
    for i in 16..80 {
        w[i] = rotl1(_mm256_xor_si256(
            _mm256_xor_si256(w[i - 3], w[i - 8]),
            _mm256_xor_si256(w[i - 14], w[i - 16]),
        ));
    }

    // Transpose the chaining states: one vector per SHA-1 word.
    let mut hv = [_mm256_setzero_si256(); 5];
    for (j, slot) in hv.iter_mut().enumerate() {
        *slot = gather([
            states[0][j] as i32,
            states[1][j] as i32,
            states[2][j] as i32,
            states[3][j] as i32,
            states[4][j] as i32,
            states[5][j] as i32,
            states[6][j] as i32,
            states[7][j] as i32,
        ]);
    }
    let [mut a, mut b, mut c, mut d, mut e] = hv;

    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            // ch: (b & c) | (!b & d) — andnot computes !b & d.
            0..=19 => (
                _mm256_or_si256(_mm256_and_si256(b, c), _mm256_andnot_si256(b, d)),
                0x5A82_7999u32,
            ),
            20..=39 => (_mm256_xor_si256(_mm256_xor_si256(b, c), d), 0x6ED9_EBA1u32),
            // maj: (b & c) | (b & d) | (c & d)
            40..=59 => (
                _mm256_or_si256(
                    _mm256_or_si256(_mm256_and_si256(b, c), _mm256_and_si256(b, d)),
                    _mm256_and_si256(c, d),
                ),
                0x8F1B_BCDCu32,
            ),
            _ => (_mm256_xor_si256(_mm256_xor_si256(b, c), d), 0xCA62_C1D6u32),
        };
        let tmp = _mm256_add_epi32(
            _mm256_add_epi32(
                _mm256_add_epi32(rotl5(a), f),
                _mm256_add_epi32(e, _mm256_set1_epi32(k as i32)),
            ),
            wi,
        );
        e = d;
        d = c;
        c = rotl30(b);
        b = a;
        a = tmp;
    }

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
}
