//! Lane-parallel nonce hashing for the CPU path: eight nonces per
//! [`dedup::sha1mb::nonces8`] call.
//!
//! Every candidate extends the (block-aligned) header by exactly one
//! final SHA-1 block — 8 nonce bytes, the 0x80 pad, zeros, and the
//! 64-bit message length — so the whole suffix hash is one compression
//! from the shared midstate. `nonces8` runs eight consecutive nonces in
//! the lanes of one vector pass, building their message schedules in
//! registers rather than from blocks in memory; the remainder
//! (count % 8) takes the scalar path, with bit-identical output.

use dedup::sha1::Sha1;
use dedup::sha1mb::nonces8;

use crate::DIGEST_BYTES;

/// Hash nonces `start..start + count` from `midstate`, writing
/// `count * 20` digest bytes into `out`. Bit-identical to the
/// [`Sha1::resume`] reference loop (which also serves as the scalar
/// remainder path and the benchmark baseline).
pub fn hash_nonces(midstate: [u32; 5], header_len: u64, start: u64, count: usize, out: &mut [u8]) {
    let lanes = count / 8 * 8;
    for (pass, digests) in out[..lanes * DIGEST_BYTES]
        .chunks_exact_mut(8 * DIGEST_BYTES)
        .enumerate()
    {
        let digests = digests.try_into().expect("chunks of eight digests");
        nonces8(midstate, header_len, start + (pass * 8) as u64, digests);
    }
    hash_nonces_scalar(
        midstate,
        header_len,
        start + lanes as u64,
        count - lanes,
        &mut out[lanes * DIGEST_BYTES..],
    );
}

/// Scalar reference: one [`Sha1::resume`] hash per nonce.
pub fn hash_nonces_scalar(
    midstate: [u32; 5],
    header_len: u64,
    start: u64,
    count: usize,
    out: &mut [u8],
) {
    for i in 0..count {
        let mut h = Sha1::resume(midstate, header_len);
        h.update(&(start + i as u64).to_be_bytes());
        out[i * DIGEST_BYTES..(i + 1) * DIGEST_BYTES].copy_from_slice(&h.finalize().0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn midstate_for(header: &[u8]) -> ([u32; 5], u64) {
        let mut h = Sha1::new();
        h.update(header);
        (h.midstate().expect("aligned"), header.len() as u64)
    }

    #[test]
    fn lane_parallel_matches_scalar_including_remainders() {
        let (mid, hlen) = midstate_for(&[0x42u8; 128]);
        // Counts straddling the 8-lane boundary (empty, single, 7, 8, 9,
        // 20) and a long run. From `u32::MAX - 3` the low word wraps in
        // the middle of the first pass, so a lane whose high word misses
        // its carry shows; from 2 000 below `u64::MAX` the high word is
        // all ones and the low word's third byte carries 0xF8 → 0xFC over
        // 1 021 nonces.
        for start in [1_000_000, u32::MAX as u64 - 3, u64::MAX - 2_000] {
            for count in [0usize, 1, 7, 8, 9, 20, 1_021] {
                let mut fast = vec![0u8; count * DIGEST_BYTES];
                let mut slow = vec![0u8; count * DIGEST_BYTES];
                hash_nonces(mid, hlen, start, count, &mut fast);
                hash_nonces_scalar(mid, hlen, start, count, &mut slow);
                assert_eq!(fast, slow, "start {start} count {count}");
            }
        }
    }

    #[test]
    fn digests_agree_with_full_one_shot_hash() {
        let header = vec![0x17u8; 64];
        let (mid, hlen) = midstate_for(&header);
        let mut out = vec![0u8; 16 * DIGEST_BYTES];
        hash_nonces(mid, hlen, 7, 16, &mut out);
        for i in 0..16u64 {
            let mut msg = header.clone();
            msg.extend_from_slice(&(7 + i).to_be_bytes());
            let expect = dedup::sha1::sha1(&msg).0;
            assert_eq!(
                &out[i as usize * DIGEST_BYTES..(i as usize + 1) * DIGEST_BYTES],
                &expect,
                "nonce {}",
                7 + i
            );
        }
    }
}
