//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! Dedup identifies duplicate blocks by their SHA-1 digest (PARSEC's
//! `hashtable` stage); the GPU pipeline computes one digest per block with
//! one thread per block (§IV-B stage 2). This module is the scalar
//! reference: the sequential Dedup hashes one block at a time through it,
//! and the eight-lane [`crate::sha1mb::sha1_each`] that stage 2 runs (on
//! both its device and host rungs) is held to it bit for bit.
//!
//! SHA-1 is used here as a *content fingerprint* exactly as PARSEC's Dedup
//! does — not as a security primitive.

/// A 160-bit SHA-1 digest.
///
/// `repr(transparent)` over its 20 bytes: a `[Digest]` slice may be
/// soundly viewed as a byte slice, which lets the GPU backends DMA a
/// device-side digest stream straight into a pooled `Digest` array.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
#[repr(transparent)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// The digest a finished chaining state `h` stands for: its five
    /// words, big-endian.
    pub(crate) fn from_state(h: &[u32; 5]) -> Digest {
        let mut out = [0u8; 20];
        for (i, w) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }
}

/// The FIPS initial chaining state.
pub(crate) const IV: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Sha1 {
            h: IV,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything merged into the partial block; do NOT fall
                // through (the tail below would clobber `buf_len`).
                return;
            }
            // `data` non-empty here implies the partial block was filled
            // and compressed: `buf_len == 0`, so the tail copy is safe.
            debug_assert_eq!(self.buf_len, 0);
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let arr: &[u8; 64] = block.try_into().expect("split_at(64)");
            self.compress(arr);
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len * 8;
        // Padding: 0x80, zeros, 64-bit big-endian length.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Append the length without counting it.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        Digest::from_state(&self.h)
    }

    /// The internal chaining state, available only on a block boundary
    /// (`None` if a partial block is buffered). Together with
    /// [`Sha1::resume`] this lets a caller hash a long shared prefix once
    /// and then fork the hash over many suffixes — the midstate trick
    /// nonce-search kernels rely on.
    pub fn midstate(&self) -> Option<[u32; 5]> {
        (self.buf_len == 0).then_some(self.h)
    }

    /// Rebuild a hasher from a [`Sha1::midstate`] taken after absorbing
    /// `prefix_len` bytes. `prefix_len` must be a multiple of the 64-byte
    /// block size (midstates only exist on block boundaries).
    pub fn resume(h: [u32; 5], prefix_len: u64) -> Self {
        assert!(
            prefix_len.is_multiple_of(64),
            "midstates exist only on 64-byte block boundaries"
        );
        Sha1 {
            h,
            len: prefix_len,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_block(&mut self.h, block);
    }
}

/// One SHA-1 compression: absorb a 64-byte block into chaining state `h`.
/// The scalar reference the multi-lane path in [`crate::sha1mb`] must
/// agree with bit-for-bit.
pub fn compress_block(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunk of 4"));
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *h;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
            20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
            _ => (b ^ c ^ d, 0xCA62_C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// One-shot convenience.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            sha1(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha1(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1(&data).to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // 55, 56, 63, 64, 65 bytes cross the padding edge cases.
        for n in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0x5Au8; n];
            let one_shot = sha1(&data);
            // Byte-at-a-time must agree with one-shot.
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one_shot, "length {n}");
        }
    }

    #[test]
    fn incremental_split_points_agree() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expected = sha1(&data);
        for split in [1, 63, 64, 65, 500, 999] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1(b"hello"), sha1(b"hellp"));
        assert_ne!(sha1(b""), sha1(b"\0"));
    }

    #[test]
    fn midstate_resume_agrees_with_one_shot() {
        let prefix = vec![0xC3u8; 128];
        let mut h = Sha1::new();
        h.update(&prefix);
        let mid = h.midstate().expect("128 bytes is a block boundary");
        for suffix in [&b"nonce-1"[..], &b""[..], &[0u8; 100][..]] {
            let mut forked = Sha1::resume(mid, prefix.len() as u64);
            forked.update(suffix);
            let full: Vec<u8> = prefix
                .iter()
                .copied()
                .chain(suffix.iter().copied())
                .collect();
            assert_eq!(forked.finalize(), sha1(&full));
        }
    }

    #[test]
    fn midstate_absent_mid_block() {
        let mut h = Sha1::new();
        h.update(b"short");
        assert!(h.midstate().is_none());
        h.update(&[0u8; 59]);
        assert!(h.midstate().is_some());
    }

    #[test]
    fn hex_rendering() {
        let d = Digest([0xab; 20]);
        assert_eq!(d.to_hex(), "ab".repeat(20));
    }
}
