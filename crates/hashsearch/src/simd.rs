//! Lane-parallel nonce hashing for the CPU path: eight nonces per
//! [`dedup::sha1mb::compress8`] call.
//!
//! Every candidate extends the (block-aligned) header by exactly one
//! final SHA-1 block — 8 nonce bytes, the 0x80 pad, zeros, and the
//! 64-bit message length — so the whole suffix hash is one compression
//! from the shared midstate. Eight of those run in the lanes of a single
//! AVX2 pass; the remainder (count % 8) and non-x86 targets take the
//! scalar path with bit-identical output.

use dedup::sha1::Sha1;
use dedup::sha1mb::compress8;

use crate::DIGEST_BYTES;

/// The single final block for `nonce` appended to a `header_len`-byte
/// block-aligned prefix.
#[inline]
fn final_block(nonce: u64, header_len: u64) -> [u8; 64] {
    let mut block = [0u8; 64];
    block[..8].copy_from_slice(&nonce.to_be_bytes());
    block[8] = 0x80;
    block[56..].copy_from_slice(&((header_len + 8) * 8).to_be_bytes());
    block
}

/// Hash nonces `start..start + count` from `midstate`, writing
/// `count * 20` digest bytes into `out`. Bit-identical to the
/// [`Sha1::resume`] reference loop (which also serves as the scalar
/// remainder path and the benchmark baseline).
pub fn hash_nonces(midstate: [u32; 5], header_len: u64, start: u64, count: usize, out: &mut [u8]) {
    let mut i = 0;
    while i + 8 <= count {
        let blocks: [[u8; 64]; 8] =
            std::array::from_fn(|l| final_block(start + (i + l) as u64, header_len));
        let mut states = [midstate; 8];
        compress8(&mut states, &blocks);
        for (l, state) in states.iter().enumerate() {
            let slot = &mut out[(i + l) * DIGEST_BYTES..(i + l + 1) * DIGEST_BYTES];
            for (j, w) in state.iter().enumerate() {
                slot[j * 4..j * 4 + 4].copy_from_slice(&w.to_be_bytes());
            }
        }
        i += 8;
    }
    hash_nonces_scalar(
        midstate,
        header_len,
        start + i as u64,
        count - i,
        &mut out[i * DIGEST_BYTES..],
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
        // Counts straddling the 8-lane boundary: empty, single, 7, 8, 9, 20.
        for count in [0usize, 1, 7, 8, 9, 20] {
            let mut fast = vec![0u8; count * DIGEST_BYTES];
            let mut slow = vec![0u8; count * DIGEST_BYTES];
            hash_nonces(mid, hlen, 1_000_000, count, &mut fast);
            hash_nonces_scalar(mid, hlen, 1_000_000, count, &mut slow);
            assert_eq!(fast, slow, "count {count}");
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
