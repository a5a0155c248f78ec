//! LZSS compression, CPU reference implementation.
//!
//! This is the compressor the paper swapped in for PARSEC's Bzip2/Gzip
//! because a GPU implementation of it existed from their earlier work \[24\].
//! The codec here matches that design:
//!
//! * sliding window limited to the **current block** (so blocks stay
//!   independently decompressible, as Dedup requires);
//! * greedy longest-match parsing, first-found-wins among equal lengths —
//!   the same search policy as Listing 3's `FindMatchKernel`, so the GPU
//!   path (match arrays computed on device, encoding on host) produces a
//!   byte-identical stream;
//! * bit-packed output: literal = `0` + 8 bits; match = `1` + offset bits
//!   + 4-bit length.
//!
//! The search is Listing 3's: a forward scan of every candidate in the
//! window, with a filter that rejects a candidate in one probe once a best
//! match exists. [`MatchFinder`] returns the same match and probe count
//! from a per-block hash chain on each position's first two bytes, so a
//! query costs the same-key candidates in its window, not O(window);
//! [`find_match_scalar`] is the loop itself, kept as its reference.
//!
//! The default window is 1 KiB (the paper's code uses 4 KiB; the reduction
//! keeps the modeled O(n·window) kernel work tractable at this
//! reproduction's scale and is recorded in DESIGN.md). Window size is
//! configurable, to any power of two.

/// Codec parameters. `max_coded` is derived: `min_coded + 15` (4-bit
/// length field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LzssConfig {
    /// Sliding-window width in bytes (power of two).
    pub window: usize,
    /// Shortest match worth encoding.
    pub min_coded: usize,
}

impl Default for LzssConfig {
    fn default() -> Self {
        LzssConfig {
            window: 1024,
            min_coded: 3,
        }
    }
}

impl LzssConfig {
    /// Longest encodable match.
    pub fn max_coded(&self) -> usize {
        self.min_coded + 15
    }

    /// Whether the codec can code this window: distances are stored in
    /// `offset_bits`, so the window must be a power of two. The rule
    /// `Archive::from_bytes` applies to a header on read.
    pub(crate) fn window_is_valid(&self) -> bool {
        self.window.is_power_of_two()
    }

    /// Whether a match of `min_coded` bytes advances the parse, shares
    /// its first two bytes with the position it is found for, and fits
    /// the window: `2 <= min_coded <= window`. Shorter "matches" would
    /// code every position as an empty one; a match never overlaps its
    /// position, so none is longer than the window. The rule
    /// `Archive::from_bytes` applies on read, which also bounds what one
    /// coded match can make the decoder write.
    pub(crate) fn min_coded_is_valid(&self) -> bool {
        (2..=self.window).contains(&self.min_coded)
    }

    /// Panics unless the codec can code this configuration (see
    /// [`window_is_valid`](Self::window_is_valid) and
    /// [`min_coded_is_valid`](Self::min_coded_is_valid)).
    pub(crate) fn assert_valid(&self) {
        assert!(
            self.window_is_valid(),
            "LZSS window {} is not a power of two",
            self.window
        );
        assert!(
            self.min_coded >= 2,
            "LZSS min_coded {} is below 2",
            self.min_coded
        );
        assert!(
            self.min_coded_is_valid(),
            "LZSS min_coded {} exceeds the window {}",
            self.min_coded,
            self.window
        );
    }

    /// Bits used to store a match offset. Panics on a configuration the
    /// codec cannot code: a window that is not a power of two (its
    /// distances would not fit, and the stream would decode to other
    /// bytes), or a `min_coded` below 2 or above the window.
    pub fn offset_bits(&self) -> u32 {
        self.assert_valid();
        self.window.trailing_zeros()
    }
}

/// A match found at some position: `dist` bytes back, `len` bytes long.
/// `len == 0` means "no usable match".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Match {
    /// Distance back from the current position (1..=window).
    pub dist: u32,
    /// Match length (0 or min_coded..=max_coded).
    pub len: u32,
}

/// The search of Listing 3's `FindMatch` over one block, by hash chain.
///
/// [`index`](Self::index) links every position of a block to the next
/// one whose first two bytes hash to the same bucket (the *key* is those
/// two bytes); [`find`](Self::find) then returns, for any position of the
/// block, what [`find_match_scalar`] returns: the same match **and** the
/// same probe count, so the metered device work and the modeled time
/// cannot tell the two apart.
///
/// Only a candidate whose key equals the key at `pos` can be extended
/// past one byte or become the match (`min_coded >= 2`); every other
/// candidate costs the scalar loop exactly one probe. So `find` walks the
/// same-key candidates in the window, in the scalar loop's forward order,
/// and charges the rest in one sum: probes = `(stop − w0) + Σ(j − 1)`
/// over the candidates it extends, where `w0` is the window's first
/// candidate, `stop` the one after the last candidate scanned, and `j`
/// each extension's length.
///
/// Queries within a block must ascend and share one [`LzssConfig`]: each
/// bucket's head moves forward past the candidates the window has left
/// behind, and never back. A default finder has no block indexed.
#[derive(Default)]
pub struct MatchFinder {
    /// Per bucket, the oldest indexed position the window has not yet
    /// left behind (relative to the block start); `NIL` if none.
    head: Vec<u32>,
    /// Per block position, the next newer position in its bucket.
    next: Vec<u32>,
    start: usize,
    end: usize,
    /// The last position queried.
    last: usize,
}

/// Buckets of the head table: the 2-byte key hashed to 12 bits.
const BUCKETS: usize = 4096;

/// The end of a chain.
const NIL: u32 = u32::MAX;

/// The bucket of the key `(a, b)`.
#[inline(always)]
fn bucket(a: u8, b: u8) -> usize {
    ((u32::from(a) << 8 | u32::from(b)).wrapping_mul(0x9E37_79B1) >> 20) as usize
}

impl MatchFinder {
    /// A finder that indexes blocks of up to `longest` bytes without
    /// growing its tables.
    pub fn with_capacity(longest: usize) -> Self {
        MatchFinder {
            head: Vec::with_capacity(BUCKETS),
            next: Vec::with_capacity(longest),
            ..MatchFinder::default()
        }
    }

    /// Index the block `data[block_start..block_end]`: its matches stay
    /// inside it, as Dedup requires of independently decodable blocks.
    pub fn index(&mut self, data: &[u8], block_start: usize, block_end: usize) {
        assert!(
            block_start <= block_end && block_end <= data.len(),
            "MatchFinder::index: need block_start <= block_end <= data.len()"
        );
        assert!(
            block_end - block_start < NIL as usize,
            "MatchFinder::index: block too long for u32 links"
        );
        let block = &data[block_start..block_end];
        self.head.clear();
        self.head.resize(BUCKETS, NIL);
        self.next.clear();
        self.next.resize(block.len(), NIL);
        // Walking backwards and pushing each position in front of its
        // bucket leaves every chain in ascending order. The last byte has
        // no key; it is never a candidate either.
        for (rel, pair) in block.windows(2).enumerate().rev() {
            let b = bucket(pair[0], pair[1]);
            self.next[rel] = self.head[b];
            self.head[b] = rel as u32;
        }
        self.start = block_start;
        self.end = block_end;
        self.last = block_start;
    }

    /// The longest match for `pos` within the indexed block, and the
    /// number of byte probes Listing 3's loop spends finding it (the GPU
    /// kernel's work unit): scan forward from the window start, extend
    /// while bytes match, keep the first strictly-longest, never overlap
    /// `pos`, stop at `max_coded`. `data` is the slice given to
    /// [`index`](Self::index); `pos` may not be below an earlier query's.
    pub fn find(&mut self, data: &[u8], pos: usize, cfg: &LzssConfig) -> (Match, u64) {
        let (start, end) = (self.start, self.end);
        assert!(
            self.last <= pos && pos < end && end <= data.len(),
            "MatchFinder::find: need ascending positions inside the indexed block"
        );
        Self::assert_searchable(cfg);
        self.last = pos;
        self.walk(data, (start, end), pos, cfg)
    }

    /// [`find`](Self::find) at every position of the indexed block from
    /// its start up to `upto`, in ascending order, handing each result to
    /// `each(pos, match, probes)`: Listing 3's one lane per byte, swept
    /// on the host through one inlined search loop. The preconditions are
    /// checked once, not per position: no query may have passed the
    /// block start, and `upto` may not pass the block end. Afterwards the
    /// last position swept counts as queried, so a later `find` must
    /// still ascend from it.
    pub fn find_each(
        &mut self,
        data: &[u8],
        cfg: &LzssConfig,
        upto: usize,
        mut each: impl FnMut(usize, Match, u64),
    ) {
        let (start, end) = (self.start, self.end);
        assert!(
            self.last == start && start <= upto && upto <= end && end <= data.len(),
            "MatchFinder::find_each: need a fresh sweep that ends inside the indexed block"
        );
        Self::assert_searchable(cfg);
        for pos in start..upto {
            let (m, probes) = self.walk(data, (start, end), pos, cfg);
            each(pos, m, probes);
        }
        self.last = start.max(upto.saturating_sub(1));
    }

    /// A one-byte match would make every candidate a possible one.
    #[inline(always)]
    fn assert_searchable(cfg: &LzssConfig) {
        assert!(
            cfg.min_coded_is_valid(),
            "MatchFinder: min_coded {} is outside 2..={}",
            cfg.min_coded,
            cfg.window
        );
    }

    /// The search behind [`find`](Self::find) and
    /// [`find_each`](Self::find_each), for a `pos` they have checked
    /// inside the indexed block `start..end`. The callers read the bounds
    /// once, before their checks, so `find` compiles as if the walk were
    /// written inside it and the encoder's parse points pay nothing for
    /// the sweep.
    #[inline(always)]
    fn walk(
        &mut self,
        data: &[u8],
        (start, end): (usize, usize),
        pos: usize,
        cfg: &LzssConfig,
    ) -> (Match, u64) {
        let w0 = start.max(pos.saturating_sub(cfg.window));
        let max_len = cfg.max_coded().min(end - pos);
        let mut best = Match::default();
        if max_len < 2 {
            // No candidate can extend past its first byte.
            return (best, (pos - w0) as u64);
        }
        let key = (data[pos], data[pos + 1]);
        let slot = &mut self.head[bucket(key.0, key.1)];
        let (w0_rel, pos_rel) = ((w0 - start) as u32, (pos - start) as u32);
        while *slot < w0_rel {
            *slot = self.next[*slot as usize];
        }
        let mut c = *slot;
        let mut best_len = 0usize;
        let mut extended: u64 = 0;
        let mut stop = pos;
        while c < pos_rel {
            let current = start + c as usize;
            // Other keys share the bucket. Once a best match exists, the
            // scalar loop's filter applies: only a candidate that matches
            // at `best_len` too, without reaching `pos`, can beat it.
            if (data[current], data[current + 1]) == key
                && (best_len == 0
                    || (current + best_len < pos
                        && data[current + best_len] == data[pos + best_len]))
            {
                // The key agrees, but a candidate right before `pos` may
                // not overlap it.
                let j = extend_by_words(data, current, pos, max_len, (pos - current).min(2));
                extended += j as u64 - 1;
                if j > best_len && j >= cfg.min_coded {
                    best_len = j;
                    best = Match {
                        dist: (pos - current) as u32,
                        len: j as u32,
                    };
                    if j == max_len {
                        stop = current + 1;
                        break; // cannot improve
                    }
                }
            }
            c = self.next[c as usize];
        }
        (best, (stop - w0) as u64 + extended)
    }
}

/// Listing 3's loop, one candidate at a time: the reference
/// [`MatchFinder::find`] is held to, match for match and probe for probe.
/// Finds the longest match for `pos` within `[block_start, pos)`, never
/// reading past `block_end`.
pub fn find_match_scalar(
    data: &[u8],
    block_start: usize,
    block_end: usize,
    pos: usize,
    cfg: &LzssConfig,
) -> (Match, u64) {
    debug_assert!(block_start <= pos && pos < block_end && block_end <= data.len());
    let w0 = block_start.max(pos.saturating_sub(cfg.window));
    let max_len = cfg.max_coded().min(block_end - pos);
    let mut best = Match::default();
    let mut best_len = 0usize;
    let mut probes: u64 = 0;
    for current in w0..pos {
        probes += 1;
        if best_len > 0 {
            // A candidate can only beat `best_len` if it matches there too
            // (and reaches past it without overlapping `pos`). This filter
            // rejects almost every candidate on repetitive data and does
            // not change the result: rejected candidates could never have
            // produced a strictly longer match.
            if current + best_len >= pos || data[current + best_len] != data[pos + best_len] {
                continue;
            }
        }
        if data[current] != data[pos] {
            continue;
        }
        let j = extend(data, current, pos, max_len, 1);
        probes += j as u64 - 1;
        if j > best_len && j >= cfg.min_coded {
            best_len = j;
            best = Match {
                dist: (pos - current) as u32,
                len: j as u32,
            };
            if j == max_len {
                break; // cannot improve
            }
        }
    }
    (best, probes)
}

/// Length of the match of `current` against `pos`, given that their first
/// `from` bytes agree: extend while bytes match, short of `max_len` and of
/// `pos`. Each byte that agrees past the first is one probe.
#[inline(always)]
fn extend(data: &[u8], current: usize, pos: usize, max_len: usize, from: usize) -> usize {
    let mut j = from;
    while j < max_len && current + j < pos && data[current + j] == data[pos + j] {
        j += 1;
    }
    j
}

/// [`extend`], comparing eight bytes at a time while eight are left
/// before `max_len` and `pos`: the same length, with fewer branches.
#[inline(always)]
fn extend_by_words(data: &[u8], current: usize, pos: usize, max_len: usize, from: usize) -> usize {
    let limit = max_len.min(pos - current);
    let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let mut j = from;
    while j + 8 <= limit {
        let diff = word(current + j) ^ word(pos + j);
        if diff != 0 {
            return j + (diff.trailing_zeros() / 8) as usize;
        }
        j += 8;
    }
    extend(data, current, pos, max_len, j)
}

/// Decoding failure: the bitstream is inconsistent with `orig_len` or
/// references data before the start of the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzssError {
    /// The stream ended before `orig_len` bytes were produced.
    Truncated,
    /// A match token points before the beginning of the output.
    BadOffset {
        /// Output length when the bad token was met.
        at: usize,
        /// The (impossible) back-distance.
        dist: usize,
    },
    /// Decoding produced more than `orig_len` bytes (corrupt length field).
    Overrun,
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::Truncated => write!(f, "truncated LZSS stream"),
            LzssError::BadOffset { at, dist } => {
                write!(
                    f,
                    "LZSS offset {dist} at output position {at} points before the block"
                )
            }
            LzssError::Overrun => write!(f, "LZSS stream decodes past the declared length"),
        }
    }
}

impl std::error::Error for LzssError {}

/// Bit-level writer, MSB-first within each byte, appending to a byte
/// vector it borrows.
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u32,
    n: u32,
}

impl<'a> BitWriter<'a> {
    /// Writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter { out, acc: 0, n: 0 }
    }

    /// Append the low `bits` bits of `value`.
    pub fn push(&mut self, value: u32, bits: u32) {
        debug_assert!(bits <= 24 && (bits == 32 || value < (1 << bits)));
        self.acc = (self.acc << bits) | value;
        self.n += bits;
        while self.n >= 8 {
            self.n -= 8;
            self.out.push((self.acc >> self.n) as u8);
        }
    }

    /// Pad with zeros to a byte boundary.
    pub fn finish(mut self) {
        if self.n > 0 {
            let pad = 8 - self.n;
            self.push(0, pad);
        }
    }
}

/// Bit-level reader matching [`BitWriter`].
pub struct BitReader<'a> {
    data: &'a [u8],
    byte: usize,
    bit: u32,
}

impl<'a> BitReader<'a> {
    /// Read from `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            byte: 0,
            bit: 0,
        }
    }

    /// Read `bits` bits (MSB-first). Returns `None` past the end.
    pub fn read(&mut self, bits: u32) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..bits {
            if self.byte >= self.data.len() {
                return None;
            }
            let b = (self.data[self.byte] >> (7 - self.bit)) & 1;
            v = (v << 1) | b as u32;
            self.bit += 1;
            if self.bit == 8 {
                self.bit = 0;
                self.byte += 1;
            }
        }
        Some(v)
    }
}

/// Compress one block, searching it with a [`MatchFinder`]. Returns the
/// bitstream, however long it is.
pub fn encode_block(block: &[u8], cfg: &LzssConfig) -> Vec<u8> {
    let mut finder = MatchFinder::default();
    finder.index(block, 0, block.len());
    // All literals, 9 bits a byte: what a block that does not compress
    // costs, and so enough for every block worth storing compressed.
    let mut out = Vec::with_capacity(block.len() + block.len() / 8 + 1);
    encode_with(
        block,
        cfg,
        |pos| finder.find(block, pos, cfg).0,
        &mut out,
        usize::MAX,
    );
    out
}

/// Append `block`'s bitstream to `out` if it is shorter than the block,
/// searching the block with `finder` (which it re-indexes, so one finder
/// serves any number of blocks). Returns whether it appended; if not,
/// `out` is as it was, and no more than `block.len() + 4` bytes past its
/// old end were ever written.
pub fn encode_shorter(
    block: &[u8],
    cfg: &LzssConfig,
    finder: &mut MatchFinder,
    out: &mut Vec<u8>,
) -> bool {
    finder.index(block, 0, block.len());
    encode_with(
        block,
        cfg,
        |pos| finder.find(block, pos, cfg).0,
        out,
        block.len(),
    )
}

/// [`encode_shorter`] from precomputed per-position matches (the GPU
/// path: `FindMatchKernel` fills the length and offset arrays, the host
/// walks them greedily). `lens[i]` and `offs[i]` describe position `i` of
/// `block`.
pub fn encode_shorter_from_matches(
    block: &[u8],
    lens: &[u32],
    offs: &[u32],
    cfg: &LzssConfig,
    out: &mut Vec<u8>,
) -> bool {
    assert!(lens.len() == block.len() && offs.len() == block.len());
    let match_at = |pos| Match {
        dist: offs[pos],
        len: lens[pos],
    };
    encode_with(block, cfg, match_at, out, block.len())
}

/// Append `block`'s bitstream to `out`, parsing greedily at the matches
/// `match_at` gives, and return whether it is shorter than `limit` bytes.
/// The parse stops as soon as the bitstream reaches `limit`, and a
/// bitstream that did is taken off `out` again.
fn encode_with(
    block: &[u8],
    cfg: &LzssConfig,
    mut match_at: impl FnMut(usize) -> Match,
    out: &mut Vec<u8>,
    limit: usize,
) -> bool {
    let off_bits = cfg.offset_bits();
    let start = out.len();
    let mut w = BitWriter::new(out);
    let mut pos = 0usize;
    while pos < block.len() && w.out.len() - start < limit {
        let m = match_at(pos);
        if m.len as usize >= cfg.min_coded {
            debug_assert!(m.dist as usize <= cfg.window && m.dist >= 1);
            w.push(1, 1);
            w.push(m.dist - 1, off_bits);
            w.push(m.len - cfg.min_coded as u32, 4);
            pos += m.len as usize;
        } else {
            w.push(0, 1);
            w.push(block[pos] as u32, 8);
            pos += 1;
        }
    }
    w.finish();
    let shorter = out.len() - start < limit;
    if !shorter {
        out.truncate(start);
    }
    shorter
}

/// Decompress one block; `orig_len` is the decoded size. Corrupt streams
/// are reported, never panicked on.
pub fn decode_block(
    encoded: &[u8],
    orig_len: usize,
    cfg: &LzssConfig,
) -> Result<Vec<u8>, LzssError> {
    let mut r = BitReader::new(encoded);
    let off_bits = cfg.offset_bits();
    let mut out = Vec::with_capacity(orig_len);
    while out.len() < orig_len {
        let flag = r.read(1).ok_or(LzssError::Truncated)?;
        if flag == 0 {
            out.push(r.read(8).ok_or(LzssError::Truncated)? as u8);
        } else {
            let dist = r.read(off_bits).ok_or(LzssError::Truncated)? as usize + 1;
            let len = r.read(4).ok_or(LzssError::Truncated)? as usize + cfg.min_coded;
            let start = out.len().checked_sub(dist).ok_or(LzssError::BadOffset {
                at: out.len(),
                dist,
            })?;
            if out.len() + len > orig_len {
                return Err(LzssError::Overrun);
            }
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LzssConfig {
        LzssConfig::default()
    }

    /// [`MatchFinder::find`] at every position of `data[start..end]`.
    fn find_all(data: &[u8], start: usize, end: usize, cfg: &LzssConfig) -> Vec<(Match, u64)> {
        let mut finder = MatchFinder::default();
        finder.index(data, start, end);
        (start..end)
            .map(|pos| finder.find(data, pos, cfg))
            .collect()
    }

    /// One query at `pos`, the first in its block.
    fn find_at(
        data: &[u8],
        start: usize,
        end: usize,
        pos: usize,
        cfg: &LzssConfig,
    ) -> (Match, u64) {
        let mut finder = MatchFinder::default();
        finder.index(data, start, end);
        finder.find(data, pos, cfg)
    }

    fn roundtrip(data: &[u8], cfg: &LzssConfig) {
        let enc = encode_block(data, cfg);
        let dec = decode_block(&enc, data.len(), cfg).expect("roundtrip decodes");
        assert_eq!(dec, data);
    }

    #[test]
    fn empty_and_single_byte() {
        roundtrip(b"", &cfg());
        roundtrip(b"x", &cfg());
    }

    #[test]
    fn repetitive_data_roundtrips_and_compresses() {
        let data: Vec<u8> = b"abcabcabcabc".iter().cycle().take(4000).copied().collect();
        let enc = encode_block(&data, &cfg());
        assert!(
            enc.len() < data.len() / 2,
            "repetitive data must compress: {} vs {}",
            enc.len(),
            data.len()
        );
        assert_eq!(decode_block(&enc, data.len(), &cfg()).unwrap(), data);
    }

    #[test]
    fn random_data_roundtrips_with_bounded_expansion() {
        let mut s = 12345u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 33) as u8
            })
            .collect();
        let enc = encode_block(&data, &cfg());
        // Worst case: 9 bits per literal = 12.5% expansion.
        assert!(enc.len() <= data.len() * 9 / 8 + 2);
        assert_eq!(decode_block(&enc, data.len(), &cfg()).unwrap(), data);
    }

    #[test]
    fn text_roundtrips() {
        let data = b"the quick brown fox jumps over the lazy dog; \
                     the quick brown fox jumps over the lazy dog again"
            .repeat(20);
        roundtrip(&data, &cfg());
    }

    #[test]
    fn all_window_sizes_roundtrip() {
        let data = b"mississippi mississippi mississippi".repeat(30);
        for window in [64usize, 256, 1024, 4096] {
            let c = LzssConfig {
                window,
                min_coded: 3,
            };
            roundtrip(&data, &c);
        }
    }

    #[test]
    #[should_panic(expected = "LZSS window 600 is not a power of two")]
    fn a_window_that_is_not_a_power_of_two_is_rejected() {
        // 600 would store distances in 3 bits and decode to other bytes.
        let data = b"abcdefgh".repeat(100);
        encode_block(
            &data,
            &LzssConfig {
                window: 600,
                min_coded: 3,
            },
        );
    }

    #[test]
    #[should_panic(expected = "LZSS min_coded 0 is below 2")]
    fn a_min_coded_below_two_is_rejected() {
        // A 0-byte "match" at every position: the parse would never
        // advance, and a distance of 0 would be coded as `dist - 1`.
        encode_block(
            b"abcabcabc",
            &LzssConfig {
                window: 64,
                min_coded: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "LZSS min_coded 17 exceeds the window 16")]
    fn a_min_coded_above_the_window_is_rejected() {
        // No match is longer than the window it is found in.
        LzssConfig {
            window: 16,
            min_coded: 17,
        }
        .offset_bits();
    }

    #[test]
    fn a_match_past_the_declared_length_is_an_overrun() {
        // Three literals, then one 3-byte match.
        let data = b"abcabc";
        let enc = encode_block(data, &cfg());
        assert_eq!(decode_block(&enc, data.len(), &cfg()).unwrap(), data);
        // A declared length that ends inside the match is refused before
        // the match is copied.
        for orig_len in 4..data.len() {
            assert_eq!(
                decode_block(&enc, orig_len, &cfg()),
                Err(LzssError::Overrun),
                "orig_len {orig_len}"
            );
        }
    }

    #[test]
    fn no_self_overlap_in_matches() {
        // Listing 3 forbids a match extending into the lookahead; dist
        // must be >= len for every emitted match.
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec();
        let c = cfg();
        for (pos, (m, _)) in find_all(&data, 0, data.len(), &c).into_iter().enumerate() {
            if m.len > 0 {
                assert!(
                    m.dist >= m.len,
                    "pos {pos}: dist {} < len {}",
                    m.dist,
                    m.len
                );
            }
        }
        roundtrip(&data, &c);
    }

    #[test]
    fn find_match_respects_block_bounds() {
        // Data repeats across the block boundary but matches must not
        // reach into the previous block.
        let data = b"abcdefghabcdefgh".to_vec();
        let c = LzssConfig {
            window: 8,
            min_coded: 3,
        };
        // Block starts at 8: position 8 sees an empty window.
        let (m, _) = find_at(&data, 8, 16, 8, &c);
        assert_eq!(m.len, 0);
    }

    #[test]
    fn matches_capped_at_max_coded() {
        let data = vec![7u8; 200];
        let c = cfg();
        let (m, _) = find_at(&data, 0, 200, 100, &c);
        assert!(m.len as usize <= c.max_coded());
    }

    /// The unfiltered reference search (Listing 3's exact loop), for
    /// equivalence testing of the best-len-filtered implementation.
    fn find_match_naive(
        data: &[u8],
        block_start: usize,
        block_end: usize,
        pos: usize,
        cfg: &LzssConfig,
    ) -> Match {
        let w0 = block_start.max(pos.saturating_sub(cfg.window));
        let max_len = cfg.max_coded().min(block_end - pos);
        let mut best = Match::default();
        for current in w0..pos {
            if data[current] != data[pos] {
                continue;
            }
            let mut j = 1usize;
            while j < max_len && current + j < pos && data[current + j] == data[pos + j] {
                j += 1;
            }
            if j > best.len as usize && j >= cfg.min_coded {
                best = Match {
                    dist: (pos - current) as u32,
                    len: j as u32,
                };
                if j == max_len {
                    break;
                }
            }
        }
        best
    }

    #[test]
    fn filtered_search_equals_naive_search() {
        let patterns: Vec<Vec<u8>> = vec![
            vec![0u8; 600],                                             // constant runs
            b"abcabcabcabcxyz".repeat(50),                              // short period
            b"the quick brown fox jumps over the lazy dog ".repeat(20), // text
            {
                let mut s = 99u64;
                (0..800)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (s >> 33) as u8
                    })
                    .collect() // incompressible
            },
            b"aabbaabbaabbccddccdd".repeat(40), // mixed periods
        ];
        let cfg = LzssConfig {
            window: 128,
            min_coded: 3,
        };
        for (pi, data) in patterns.iter().enumerate() {
            let found = find_all(data, 0, data.len(), &cfg);
            for (pos, (fast, _)) in found.into_iter().enumerate() {
                let naive = find_match_naive(data, 0, data.len(), pos, &cfg);
                assert_eq!(fast, naive, "pattern {pi}, pos {pos}");
            }
        }
    }

    #[test]
    fn repetitive_data_search_is_cheap() {
        // The best-len filter must keep probe counts near O(window) even
        // on pathological runs (this was a multi-minute hotspot).
        let data = vec![7u8; 4096];
        let cfg = LzssConfig {
            window: 1024,
            min_coded: 3,
        };
        let (_, probes) = find_at(&data, 0, data.len(), 2048, &cfg);
        assert!(
            probes < 100,
            "constant run must early-exit: {probes} probes"
        );
    }

    #[test]
    fn encode_from_matches_equals_cpu_encoding() {
        let data = b"abracadabra abracadabra banana banana banana".repeat(10);
        let c = cfg();
        let (lens, offs): (Vec<u32>, Vec<u32>) = find_all(&data, 0, data.len(), &c)
            .into_iter()
            .map(|(m, _)| (m.len, m.dist))
            .unzip();
        let direct = encode_block(&data, &c);
        assert!(direct.len() < data.len(), "the sample must compress");
        // Appended after whatever `out` already holds.
        let mut out = vec![7u8; 3];
        assert!(encode_shorter_from_matches(
            &data, &lens, &offs, &c, &mut out
        ));
        assert_eq!(out[..3], [7; 3]);
        assert_eq!(out[3..], direct[..]);
        let mut searched = vec![7u8; 3];
        assert!(encode_shorter(
            &data,
            &c,
            &mut MatchFinder::default(),
            &mut searched
        ));
        assert_eq!(searched, out);
    }

    /// A block whose bitstream is not shorter leaves `out` untouched, and
    /// the parse stops within four bytes of the block's length.
    #[test]
    fn encode_shorter_refuses_what_does_not_shrink() {
        let c = cfg();
        let data: Vec<u8> = (0..=255u8).collect();
        assert!(encode_block(&data, &c).len() >= data.len());
        let mut out = Vec::with_capacity(1 + data.len() + 4);
        out.push(9);
        let cap = out.capacity();
        assert!(!encode_shorter(
            &data,
            &c,
            &mut MatchFinder::default(),
            &mut out
        ));
        assert_eq!(out, [9]);
        assert_eq!(out.capacity(), cap, "the parse wrote past its bound");
    }

    #[test]
    fn bitio_roundtrips_arbitrary_fields() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        let fields = [(5u32, 3u32), (0, 1), (1023, 10), (15, 4), (255, 8), (1, 1)];
        for &(v, n) in &fields {
            w.push(v, n);
        }
        w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read(n), Some(v));
        }
    }

    #[test]
    fn bit_reader_returns_none_past_end() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read(8), Some(0xFF));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn corrupt_stream_is_reported_not_panicked() {
        // A match token pointing before the start of output.
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.push(1, 1); // match flag
        w.push(50, cfg().offset_bits()); // dist 51 with empty history
        w.push(0, 4);
        w.finish();
        assert_eq!(
            decode_block(&bytes, 3, &cfg()),
            Err(LzssError::BadOffset { at: 0, dist: 51 })
        );
        // Truncation: ask for more output than the stream encodes.
        let enc = encode_block(b"abc", &cfg());
        assert_eq!(decode_block(&enc, 10, &cfg()), Err(LzssError::Truncated));
    }

    /// [`MatchFinder::find_each`] over the block `start..end` up to
    /// `upto`: the finder it leaves and every `(pos, match, probes)` it
    /// handed out.
    fn sweep(
        data: &[u8],
        (start, end): (usize, usize),
        upto: usize,
        cfg: &LzssConfig,
    ) -> (MatchFinder, Vec<(usize, Match, u64)>) {
        let mut finder = MatchFinder::default();
        finder.index(data, start, end);
        let mut got = Vec::new();
        finder.find_each(data, cfg, upto, |pos, m, probes| got.push((pos, m, probes)));
        (finder, got)
    }

    fn sweep_fixture() -> (Vec<u8>, LzssConfig) {
        let data = b"abracadabra abracadabra banana banana banana".repeat(4);
        let cfg = LzssConfig {
            window: 64,
            min_coded: 3,
        };
        (data, cfg)
    }

    #[test]
    fn a_sweep_stopped_short_leaves_find_to_ascend_from_its_last_position() {
        let (data, cfg) = sweep_fixture();
        let (start, end, upto) = (20, data.len() - 9, 90);
        let want = find_all(&data, start, end, &cfg);
        let (mut finder, got) = sweep(&data, (start, end), upto, &cfg);
        // Every position from the block start up to `upto`, once, in
        // order, and none past it.
        let positions: Vec<usize> = got.iter().map(|&(pos, ..)| pos).collect();
        assert_eq!(positions, (start..upto).collect::<Vec<_>>());
        for (pos, m, probes) in got {
            assert_eq!((m, probes), want[pos - start], "pos {pos}");
        }
        // The greedy parse goes on from the last position swept.
        for pos in upto - 1..end {
            assert_eq!(
                finder.find(&data, pos, &cfg),
                want[pos - start],
                "pos {pos}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "need ascending positions")]
    fn a_find_below_a_sweep_is_rejected() {
        let (data, cfg) = sweep_fixture();
        let (mut finder, _) = sweep(&data, (0, data.len()), 50, &cfg);
        finder.find(&data, 48, &cfg);
    }

    #[test]
    #[should_panic(expected = "need a fresh sweep")]
    fn a_sweep_after_a_find_is_rejected() {
        let (data, cfg) = sweep_fixture();
        let mut finder = MatchFinder::default();
        finder.index(&data, 0, data.len());
        finder.find(&data, 5, &cfg);
        finder.find_each(&data, &cfg, 10, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "need a fresh sweep")]
    fn a_sweep_past_the_block_end_is_rejected() {
        let (data, cfg) = sweep_fixture();
        sweep(&data, (0, 40), 41, &cfg);
    }

    #[test]
    fn empty_and_one_byte_blocks_sweep() {
        let (data, cfg) = sweep_fixture();
        // An empty block, and a full sweep of it: no position at all.
        let (_, got) = sweep(&data, (30, 30), 30, &cfg);
        assert_eq!(got, []);
        // A one-byte block, mid-buffer and at the buffer's end: no window,
        // no match, no probe.
        for at in [30, data.len() - 1] {
            let (mut finder, got) = sweep(&data, (at, at + 1), at + 1, &cfg);
            assert_eq!(got, [(at, Match::default(), 0)]);
            assert_eq!(finder.find(&data, at, &cfg), (Match::default(), 0));
        }
    }

    #[test]
    fn keys_sharing_a_bucket_are_told_apart() {
        // Two keys that share a bucket: a walk that did not compare both
        // bytes would take the one at 0 for a two-byte match of the other
        // and extend it from there.
        let key = |k: u16| (k.to_be_bytes()[0], k.to_be_bytes()[1]);
        let mut first_in = vec![None; BUCKETS];
        let ((a, b), (y, z)) = (0..=u16::MAX)
            .find_map(|k| {
                let (a, b) = key(k);
                let other = first_in[bucket(a, b)].replace(k)?;
                Some((key(other), (a, b)))
            })
            .expect("4096 buckets hold 65536 keys");
        let mut data = vec![y, z, b'x', b'y', b'w', b'.', a, b, b'x', b'q'];
        data.extend_from_slice(&[a, b, b'x', b'y', b'w', b'!']);
        let cfg = LzssConfig {
            window: 64,
            min_coded: 3,
        };
        let pos = 10;
        let (m, probes) = find_at(&data, 0, data.len(), pos, &cfg);
        assert_eq!((m.dist, m.len), (4, 3), "the match is the `a b x` at 6");
        assert_eq!(
            (m, probes),
            find_match_scalar(&data, 0, data.len(), pos, &cfg)
        );
        for (pos, got) in find_all(&data, 0, data.len(), &cfg).into_iter().enumerate() {
            assert_eq!(
                got,
                find_match_scalar(&data, 0, data.len(), pos, &cfg),
                "pos {pos}"
            );
        }
    }
}
