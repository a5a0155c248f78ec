//! The output container and its decompressor.
//!
//! PARSEC's Dedup writes a stream of block records; duplicates are stored
//! as references to the first occurrence, unique blocks as (optionally
//! compressed) payloads. This module defines that container, its binary
//! serialization, and the full decompressor used to verify every pipeline
//! end-to-end — the paper's "guarantee the equivalence with the original
//! implementation" requirement turned into an executable check.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use crate::lzss::{decode_block, encode_block, LzssConfig, LzssError};

/// The bytes a block record stores: a range of a buffer other records may
/// share. The records a pipeline makes for one batch share one exact-size
/// buffer, and the records of a parsed archive share one copy of the
/// serialized bytes, so no record is an allocation of its own. Compares
/// and prints as its bytes.
#[derive(Clone)]
pub struct Stored {
    buf: Arc<[u8]>,
    range: Range<usize>,
}

impl Stored {
    /// `range` of `buf`.
    fn of(buf: &Arc<[u8]>, range: Range<usize>) -> Stored {
        Stored {
            buf: Arc::clone(buf),
            range,
        }
    }

    /// `range` of a buffer [`BatchRecords::finish`] has yet to make.
    fn pending(range: Range<usize>) -> Stored {
        static NONE_YET: OnceLock<Arc<[u8]>> = OnceLock::new();
        Stored::of(NONE_YET.get_or_init(|| Arc::from(&[][..])), range)
    }
}

impl From<&[u8]> for Stored {
    /// A copy of `bytes` in a buffer of its own.
    fn from(bytes: &[u8]) -> Stored {
        Stored::of(&Arc::from(bytes), 0..bytes.len())
    }
}

impl Deref for Stored {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl PartialEq for Stored {
    fn eq(&self, other: &Stored) -> bool {
        **self == **other
    }
}

impl Eq for Stored {}

impl fmt::Debug for Stored {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One block record, in stream order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockEntry {
    /// Unique block whose LZSS form was not smaller: stored raw.
    UniqueRaw(Stored),
    /// Unique block stored LZSS-compressed.
    UniqueLzss {
        /// Decoded length.
        orig_len: u32,
        /// LZSS bitstream, shorter than `orig_len`.
        payload: Stored,
    },
    /// Duplicate of unique block with this ordinal.
    Dup(u64),
}

impl BlockEntry {
    /// Build the entry for a unique block: compress, keep raw if smaller.
    pub fn compress_unique(block: &[u8], cfg: &LzssConfig) -> BlockEntry {
        let encoded = encode_block(block, cfg);
        if encoded.len() < block.len() {
            BlockEntry::UniqueLzss {
                orig_len: block.len() as u32,
                payload: Stored::from(&encoded[..]),
            }
        } else {
            BlockEntry::UniqueRaw(Stored::from(block))
        }
    }
}

/// The records of one batch, built block by block in stream order. The
/// bytes of its unique blocks go into an arena as they are made, and
/// [`finish`](Self::finish) copies them once into the exact-size buffer
/// the records share: the records keep no worst-case-sized arena, and the
/// arena can serve the next batch.
pub(crate) struct BatchRecords {
    arena: Vec<u8>,
    entries: Vec<BlockEntry>,
}

impl BatchRecords {
    /// Records for `blocks` blocks of `bytes` bytes in all, built in
    /// `arena`, whose old contents are dropped. It is grown once, if need
    /// be, to what the batch can take: every unique block stores at most
    /// its own length, and an encoder that gives up on a block has written
    /// at most four bytes past it (see [`crate::lzss::encode_shorter`]).
    pub(crate) fn new(mut arena: Vec<u8>, blocks: usize, bytes: usize) -> Self {
        arena.clear();
        arena.reserve(bytes + 4);
        BatchRecords {
            arena,
            entries: Vec::with_capacity(blocks),
        }
    }

    /// The next block duplicates unique block `of`.
    pub(crate) fn dup(&mut self, of: u64) {
        self.entries.push(BlockEntry::Dup(of));
    }

    /// The next block is the unique `block`: stored LZSS-compressed if
    /// `encode` appends a form shorter than the block to the arena (and
    /// says so), raw otherwise.
    pub(crate) fn unique(&mut self, block: &[u8], encode: impl FnOnce(&mut Vec<u8>) -> bool) {
        let start = self.arena.len();
        let entry = if encode(&mut self.arena) {
            BlockEntry::UniqueLzss {
                orig_len: block.len() as u32,
                payload: Stored::pending(start..self.arena.len()),
            }
        } else {
            self.arena.extend_from_slice(block);
            BlockEntry::UniqueRaw(Stored::pending(start..self.arena.len()))
        };
        self.entries.push(entry);
    }

    /// The batch's records, and the arena for the next batch.
    pub(crate) fn finish(mut self) -> (Vec<BlockEntry>, Vec<u8>) {
        let buf: Arc<[u8]> = Arc::from(&self.arena[..]);
        for entry in &mut self.entries {
            match entry {
                BlockEntry::UniqueRaw(stored)
                | BlockEntry::UniqueLzss {
                    payload: stored, ..
                } => stored.buf = Arc::clone(&buf),
                BlockEntry::Dup(_) => {}
            }
        }
        (self.entries, self.arena)
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
    /// The LZSS record with this index is not shorter than the block it
    /// decodes to, which no writer stores compressed.
    LzssNotShorter(u64),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::BadHeader => write!(f, "bad archive header"),
            ArchiveError::Truncated => write!(f, "truncated archive"),
            ArchiveError::DanglingDup(n) => write!(f, "dup references unknown unique block {n}"),
            ArchiveError::CorruptBlock(e) => write!(f, "corrupt block payload: {e}"),
            ArchiveError::LzssNotShorter(n) => {
                write!(f, "LZSS record {n} is not shorter than its block")
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

const MAGIC: &[u8; 4] = b"HDA1";

impl Archive {
    /// New empty archive for the given codec. Panics, before any block is
    /// compressed, on a configuration the codec cannot code: a window that
    /// is not a power of two, or a `min_coded` below 2 or above the window.
    pub fn new(lzss: LzssConfig) -> Self {
        lzss.assert_valid();
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

    /// Parse a serialized archive. Its records share one copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Archive, ArchiveError> {
        let mut pos = 0usize;
        let span = |pos: &mut usize, n: usize| -> Result<Range<usize>, ArchiveError> {
            let end = pos
                .checked_add(n)
                .filter(|&end| end <= bytes.len())
                .ok_or(ArchiveError::Truncated)?;
            Ok(std::mem::replace(pos, end)..end)
        };
        let take = |pos: &mut usize, n: usize| span(pos, n).map(|r| &bytes[r]);
        let u32_at =
            |pos: &mut usize| take(pos, 4).map(|b| u32::from_le_bytes(b.try_into().expect("4")));
        let u64_at =
            |pos: &mut usize| take(pos, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8")));
        if take(&mut pos, 4)? != MAGIC {
            return Err(ArchiveError::BadHeader);
        }
        let window = u32_at(&mut pos)? as usize;
        let min_coded = u32_at(&mut pos)? as usize;
        let lzss = LzssConfig { window, min_coded };
        if !lzss.window_is_valid() || !lzss.min_coded_is_valid() {
            return Err(ArchiveError::BadHeader);
        }
        let n = u64_at(&mut pos)?;
        let buf: Arc<[u8]> = Arc::from(bytes);
        let mut entries = Vec::with_capacity((n as usize).min(1 << 20));
        for index in 0..n {
            let tag = take(&mut pos, 1)?[0];
            let entry = match tag {
                0 => {
                    let len = u32_at(&mut pos)? as usize;
                    BlockEntry::UniqueRaw(Stored::of(&buf, span(&mut pos, len)?))
                }
                1 => {
                    let orig_len = u32_at(&mut pos)?;
                    let plen = u32_at(&mut pos)?;
                    if plen >= orig_len {
                        return Err(ArchiveError::LzssNotShorter(index));
                    }
                    BlockEntry::UniqueLzss {
                        orig_len,
                        payload: Stored::of(&buf, span(&mut pos, plen as usize)?),
                    }
                }
                2 => BlockEntry::Dup(u64_at(&mut pos)?),
                _ => return Err(ArchiveError::BadHeader),
            };
            entries.push(entry);
        }
        Ok(Archive { lzss, entries })
    }

    /// Reconstruct the original input stream. A duplicate copies its
    /// unique block from what is already decoded.
    pub fn decompress(&self) -> Result<Vec<u8>, ArchiveError> {
        let mut uniques: Vec<Range<usize>> = Vec::new();
        let mut out = Vec::new();
        for e in &self.entries {
            let start = out.len();
            match e {
                BlockEntry::UniqueRaw(data) => out.extend_from_slice(data),
                BlockEntry::UniqueLzss { orig_len, payload } => {
                    let data = decode_block(payload, *orig_len as usize, &self.lzss)
                        .map_err(ArchiveError::CorruptBlock)?;
                    out.extend_from_slice(&data);
                }
                BlockEntry::Dup(ordinal) => {
                    let unique = uniques
                        .get(*ordinal as usize)
                        .ok_or(ArchiveError::DanglingDup(*ordinal))?;
                    out.extend_from_within(unique.clone());
                    continue;
                }
            }
            uniques.push(start..out.len());
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
    fn a_min_coded_below_two_is_rejected_on_read() {
        for min_coded in [0u32, 1] {
            let mut bytes = sample_archive().to_bytes();
            bytes[8..12].copy_from_slice(&min_coded.to_le_bytes());
            assert_eq!(
                Archive::from_bytes(&bytes),
                Err(ArchiveError::BadHeader),
                "min_coded {min_coded}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "LZSS min_coded 1 is below 2")]
    fn a_min_coded_below_two_is_rejected_before_compressing() {
        Archive::new(LzssConfig {
            window: 1024,
            min_coded: 1,
        });
    }

    #[test]
    fn a_min_coded_above_the_window_is_rejected_on_read() {
        // Each coded match would otherwise copy up to min_coded + 15
        // bytes: a header's u32 field could make one match gigabytes.
        let a = sample_archive();
        for min_coded in [a.lzss.window as u32 + 1, u32::MAX] {
            let mut bytes = a.to_bytes();
            bytes[8..12].copy_from_slice(&min_coded.to_le_bytes());
            assert_eq!(
                Archive::from_bytes(&bytes),
                Err(ArchiveError::BadHeader),
                "min_coded {min_coded}"
            );
        }
        // The window itself is a valid min_coded.
        let mut bytes = a.to_bytes();
        bytes[8..12].copy_from_slice(&(a.lzss.window as u32).to_le_bytes());
        assert!(Archive::from_bytes(&bytes).is_ok());
    }

    #[test]
    #[should_panic(expected = "LZSS min_coded 1025 exceeds the window 1024")]
    fn a_min_coded_above_the_window_is_rejected_before_compressing() {
        Archive::new(LzssConfig {
            window: 1024,
            min_coded: 1025,
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

    /// `ArchiveStats::of` subtracts a payload's length from its block's: a
    /// parsed LZSS record at least as long as its block would underflow
    /// it, and no writer makes one, so reading refuses it.
    #[test]
    fn an_lzss_record_not_shorter_than_its_block_is_rejected_on_read() {
        let cfg = LzssConfig::default();
        for (orig_len, payload) in [(4u32, vec![0u8; 4]), (3, vec![0; 5]), (0, vec![])] {
            let mut a = Archive::new(cfg);
            a.entries.push(BlockEntry::compress_unique(b"abc", &cfg));
            a.entries.push(BlockEntry::UniqueLzss {
                orig_len,
                payload: Stored::from(&payload[..]),
            });
            assert_eq!(
                Archive::from_bytes(&a.to_bytes()),
                Err(ArchiveError::LzssNotShorter(1)),
                "orig_len {orig_len}, payload {}",
                payload.len()
            );
        }
        // One byte shorter is what a writer may store.
        let mut a = Archive::new(cfg);
        a.entries.push(BlockEntry::UniqueLzss {
            orig_len: 4,
            payload: Stored::from(&[0u8; 3][..]),
        });
        let parsed = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(crate::ArchiveStats::of(&parsed).compress_saved, 1);
    }

    /// A batch's records share one exact-size buffer holding only what
    /// they store, and equal the records `compress_unique` makes one by
    /// one.
    #[test]
    fn batch_records_share_one_exact_buffer() {
        let cfg = LzssConfig::default();
        let squeezable = b"hello hello hello hello hello ".repeat(20);
        let raw: Vec<u8> = (0..=255u8).collect();
        let mut records = BatchRecords::new(Vec::new(), 3, squeezable.len() + raw.len());
        let mut finder = crate::lzss::MatchFinder::default();
        for block in [&squeezable[..], &raw[..]] {
            records.unique(block, |out| {
                crate::lzss::encode_shorter(block, &cfg, &mut finder, out)
            });
        }
        records.dup(0);
        let (entries, arena) = records.finish();
        let one_by_one = vec![
            BlockEntry::compress_unique(&squeezable, &cfg),
            BlockEntry::compress_unique(&raw, &cfg),
            BlockEntry::Dup(0),
        ];
        assert_eq!(entries, one_by_one);
        let (BlockEntry::UniqueLzss { payload, .. }, BlockEntry::UniqueRaw(data)) =
            (&entries[0], &entries[1])
        else {
            panic!("one compressed and one raw record: {entries:?}")
        };
        assert!(Arc::ptr_eq(&payload.buf, &data.buf));
        assert_eq!(payload.buf.len(), payload.len() + data.len());
        assert_eq!(arena.len(), payload.buf.len());
    }

    #[test]
    fn empty_archive_roundtrips() {
        let a = Archive::new(LzssConfig::default());
        let b = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(b.decompress().unwrap(), Vec::<u8>::new());
    }
}
