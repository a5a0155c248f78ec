//! The output container and its decompressor.
//!
//! PARSEC's Dedup writes a stream of block records; duplicates are stored
//! as references to the first occurrence, unique blocks as (optionally
//! compressed) payloads. This module defines that container, its binary
//! serialization, and the full decompressor used to verify every pipeline
//! end-to-end — the paper's "guarantee the equivalence with the original
//! implementation" requirement turned into an executable check.

use crate::lzss::{decode_block, encode_block, LzssConfig, LzssError};

/// One block record, in stream order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockEntry {
    /// Unique block whose LZSS form was not smaller: stored raw.
    UniqueRaw(Vec<u8>),
    /// Unique block stored LZSS-compressed.
    UniqueLzss {
        /// Decoded length.
        orig_len: u32,
        /// LZSS bitstream.
        payload: Vec<u8>,
    },
    /// Duplicate of unique block with this ordinal.
    Dup(u64),
}

impl BlockEntry {
    /// Build the entry for a unique block: compress, keep raw if smaller.
    pub fn compress_unique(block: &[u8], cfg: &LzssConfig) -> BlockEntry {
        Self::from_encoded(block, encode_block(block, cfg))
    }

    /// Build the entry for a unique block whose LZSS bytes were already
    /// produced (the GPU path).
    pub fn from_encoded(block: &[u8], encoded: Vec<u8>) -> BlockEntry {
        if encoded.len() < block.len() {
            BlockEntry::UniqueLzss {
                orig_len: block.len() as u32,
                payload: encoded,
            }
        } else {
            BlockEntry::UniqueRaw(block.to_vec())
        }
    }
}

/// A complete deduplicated, compressed archive.
#[derive(Clone, Debug, PartialEq)]
pub struct Archive {
    /// Codec parameters (needed to decode).
    pub lzss: LzssConfig,
    /// Block records in stream order.
    pub entries: Vec<BlockEntry>,
}

/// Errors raised by [`Archive::from_bytes`] / [`Archive::decompress`].
#[derive(Debug, PartialEq, Eq)]
pub enum ArchiveError {
    /// Header magic or version mismatch.
    BadHeader,
    /// Serialized data ended unexpectedly.
    Truncated,
    /// A duplicate record references a unique ordinal that never appeared.
    DanglingDup(u64),
    /// An LZSS payload failed to decode.
    CorruptBlock(LzssError),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::BadHeader => write!(f, "bad archive header"),
            ArchiveError::Truncated => write!(f, "truncated archive"),
            ArchiveError::DanglingDup(n) => write!(f, "dup references unknown unique block {n}"),
            ArchiveError::CorruptBlock(e) => write!(f, "corrupt block payload: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

const MAGIC: &[u8; 4] = b"HDA1";

impl Archive {
    /// New empty archive for the given codec. Panics, before any block is
    /// compressed, on a window that is not a power of two: the codec
    /// cannot code it.
    pub fn new(lzss: LzssConfig) -> Self {
        assert!(
            lzss.window_is_valid(),
            "LZSS window {} is not a power of two",
            lzss.window
        );
        Archive {
            lzss,
            entries: Vec::new(),
        }
    }

    /// Serialized size in bytes (the "compressed size" of Fig. 5's ratio).
    pub fn serialized_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Binary serialization.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.lzss.window as u32).to_le_bytes());
        out.extend_from_slice(&(self.lzss.min_coded as u32).to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            match e {
                BlockEntry::UniqueRaw(data) => {
                    out.push(0);
                    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                    out.extend_from_slice(data);
                }
                BlockEntry::UniqueLzss { orig_len, payload } => {
                    out.push(1);
                    out.extend_from_slice(&orig_len.to_le_bytes());
                    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                    out.extend_from_slice(payload);
                }
                BlockEntry::Dup(ordinal) => {
                    out.push(2);
                    out.extend_from_slice(&ordinal.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parse a serialized archive.
    pub fn from_bytes(bytes: &[u8]) -> Result<Archive, ArchiveError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], ArchiveError> {
            let s = bytes.get(*pos..*pos + n).ok_or(ArchiveError::Truncated)?;
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 4)? != MAGIC {
            return Err(ArchiveError::BadHeader);
        }
        let window = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
        let min_coded = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
        let lzss = LzssConfig { window, min_coded };
        if !lzss.window_is_valid() {
            return Err(ArchiveError::BadHeader);
        }
        let n = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let tag = take(&mut pos, 1)?[0];
            let entry = match tag {
                0 => {
                    let len =
                        u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
                    BlockEntry::UniqueRaw(take(&mut pos, len)?.to_vec())
                }
                1 => {
                    let orig_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
                    let plen =
                        u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
                    BlockEntry::UniqueLzss {
                        orig_len,
                        payload: take(&mut pos, plen)?.to_vec(),
                    }
                }
                2 => BlockEntry::Dup(u64::from_le_bytes(
                    take(&mut pos, 8)?.try_into().expect("8"),
                )),
                _ => return Err(ArchiveError::BadHeader),
            };
            entries.push(entry);
        }
        Ok(Archive { lzss, entries })
    }

    /// Reconstruct the original input stream.
    pub fn decompress(&self) -> Result<Vec<u8>, ArchiveError> {
        let mut uniques: Vec<Vec<u8>> = Vec::new();
        let mut out = Vec::new();
        for e in &self.entries {
            match e {
                BlockEntry::UniqueRaw(data) => {
                    out.extend_from_slice(data);
                    uniques.push(data.clone());
                }
                BlockEntry::UniqueLzss { orig_len, payload } => {
                    let data = decode_block(payload, *orig_len as usize, &self.lzss)
                        .map_err(ArchiveError::CorruptBlock)?;
                    out.extend_from_slice(&data);
                    uniques.push(data);
                }
                BlockEntry::Dup(ordinal) => {
                    let data = uniques
                        .get(*ordinal as usize)
                        .ok_or(ArchiveError::DanglingDup(*ordinal))?;
                    out.extend_from_slice(data);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_archive() -> Archive {
        let cfg = LzssConfig::default();
        let mut a = Archive::new(cfg);
        a.entries.push(BlockEntry::compress_unique(
            &b"hello hello hello hello hello ".repeat(20),
            &cfg,
        ));
        a.entries.push(BlockEntry::Dup(0));
        a.entries.push(BlockEntry::compress_unique(
            &(0..=255u8).collect::<Vec<_>>(),
            &cfg,
        ));
        a
    }

    #[test]
    fn serialization_roundtrips() {
        let a = sample_archive();
        let bytes = a.to_bytes();
        let b = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decompress_reconstructs_stream_with_dups() {
        let a = sample_archive();
        let out = a.decompress().unwrap();
        let part1 = b"hello hello hello hello hello ".repeat(20);
        let mut expected = part1.clone();
        expected.extend_from_slice(&part1);
        expected.extend((0..=255u8).collect::<Vec<_>>());
        assert_eq!(out, expected);
    }

    #[test]
    fn incompressible_blocks_stored_raw() {
        let cfg = LzssConfig::default();
        // 0..=255 has no repeats >= min_coded within a 256-byte block.
        let e = BlockEntry::compress_unique(&(0..=255u8).collect::<Vec<_>>(), &cfg);
        assert!(matches!(e, BlockEntry::UniqueRaw(_)));
    }

    #[test]
    fn compressible_blocks_stored_lzss() {
        let cfg = LzssConfig::default();
        let e = BlockEntry::compress_unique(&[b'z'; 1000], &cfg);
        assert!(matches!(e, BlockEntry::UniqueLzss { .. }));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_archive().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Archive::from_bytes(&bytes), Err(ArchiveError::BadHeader));
    }

    #[test]
    fn a_window_that_is_not_a_power_of_two_is_rejected_on_read() {
        let mut bytes = sample_archive().to_bytes();
        bytes[4..8].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(Archive::from_bytes(&bytes), Err(ArchiveError::BadHeader));
    }

    #[test]
    #[should_panic(expected = "LZSS window 1000 is not a power of two")]
    fn a_window_that_is_not_a_power_of_two_is_rejected_before_compressing() {
        Archive::new(LzssConfig {
            window: 1000,
            min_coded: 3,
        });
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_archive().to_bytes();
        for cut in [3, 10, bytes.len() - 1] {
            assert_eq!(
                Archive::from_bytes(&bytes[..cut]),
                Err(ArchiveError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn dangling_dup_rejected() {
        let mut a = Archive::new(LzssConfig::default());
        a.entries.push(BlockEntry::Dup(7));
        assert_eq!(a.decompress(), Err(ArchiveError::DanglingDup(7)));
    }

    #[test]
    fn block_counts() {
        let s = crate::ArchiveStats::of(&sample_archive());
        assert_eq!((s.unique_raw + s.unique_lzss, s.dup_blocks), (2, 1));
    }

    #[test]
    fn empty_archive_roundtrips() {
        let a = Archive::new(LzssConfig::default());
        let b = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(b.decompress().unwrap(), Vec::<u8>::new());
    }
}
