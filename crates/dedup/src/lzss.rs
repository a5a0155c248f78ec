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
//! The search is Listing 3's: every candidate in the window is probed,
//! O(window) per position, with a filter that rejects a candidate in one
//! probe once a best match exists. Under AVX2 that filter runs on 32
//! candidates per compare, with the same match and probe count.
//!
//! The default window is 1 KiB (the paper's code uses 4 KiB; the reduction
//! keeps the O(n·window) search tractable at this reproduction's scale and
//! is recorded in DESIGN.md). Window size is configurable, to any power of
//! two.

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

    /// Bits used to store a match offset. Panics on a window that is not
    /// a power of two: its distances would not fit, and the stream would
    /// decode to other bytes.
    pub fn offset_bits(&self) -> u32 {
        assert!(
            self.window_is_valid(),
            "LZSS window {} is not a power of two",
            self.window
        );
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

/// Find the longest match for `pos` within `[block_start, pos)`, never
/// reading past `block_end`; returns the match and the number of byte
/// probes performed (the GPU kernel's work unit).
///
/// Search policy (identical to Listing 3): scan candidates forward from the
/// window start, extend while bytes match, keep the first strictly-longest.
/// The match must end at or before `pos` (no self-overlap).
///
/// Under AVX2 (detected at runtime) the candidates are filtered 32 at a
/// time; everywhere else [`find_match_scalar`] runs. Both return the same
/// match **and** the same probe count, so the modeled device time cannot
/// tell them apart.
pub fn find_match(
    data: &[u8],
    block_start: usize,
    block_end: usize,
    pos: usize,
    cfg: &LzssConfig,
) -> (Match, u64) {
    // The vector body's unchecked loads rely on this, so it holds in
    // release builds too.
    assert!(
        block_start <= pos && pos < block_end && block_end <= data.len(),
        "find_match: need block_start <= pos < block_end <= data.len()"
    );
    #[cfg(target_arch = "x86_64")]
    if pos >= LANES && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime, and the
        // assert above plus `pos >= LANES` are `find_match_avx2`'s
        // requirements.
        return unsafe { find_match_avx2(data, block_start, block_end, pos, cfg) };
    }
    find_match_scalar(data, block_start, block_end, pos, cfg)
}

/// The one-candidate-at-a-time body of [`find_match`]: its fallback off
/// AVX2 and the reference the vector body is held to, probe for probe.
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
        let j = extend(data, current, pos, max_len);
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
/// bytes agree: extend while bytes match, short of `max_len` and of `pos`.
/// Each byte it compares equal past the first is one probe.
#[inline(always)]
fn extend(data: &[u8], current: usize, pos: usize, max_len: usize) -> usize {
    let mut j = 1usize;
    while j < max_len && current + j < pos && data[current + j] == data[pos + j] {
        j += 1;
    }
    j
}

/// Candidates one AVX2 compare filters: one per byte of a `__m256i`.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 32;

/// [`find_match_scalar`] with the candidate filter run on 32 candidates
/// per compare. A candidate survives when `data[c] == data[pos]` and, once
/// a best match exists, `c + best_len < pos` and
/// `data[c + best_len] == data[pos + best_len]`: the scalar loop's
/// pre-checks, so every rejected candidate costs it exactly 1 probe here
/// too. Survivors are extended in candidate order; a new best match
/// changes the filter, so the scan resumes at the candidate after it.
///
/// # Safety
///
/// The CPU supports AVX2, `block_start <= pos < block_end <= data.len()`
/// and `pos >= LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn find_match_avx2(
    data: &[u8],
    block_start: usize,
    block_end: usize,
    pos: usize,
    cfg: &LzssConfig,
) -> (Match, u64) {
    use std::arch::x86_64::*;

    let w0 = block_start.max(pos.saturating_sub(cfg.window));
    let max_len = cfg.max_coded().min(block_end - pos);
    let first = _mm256_set1_epi8(data[pos] as i8);
    let mut best = Match::default();
    let mut best_len = 0usize;
    let mut probes: u64 = 0;
    let mut c = w0; // first candidate not yet scanned
    while c < pos {
        // The 32 candidates from `base`, never past `pos - 1`; lanes below
        // `c` were scanned already or lie before the window.
        let base = c.min(pos - LANES);
        let skip = c - base;
        // SAFETY: `base + 31 < pos < block_end <= data.len()`.
        let head = unsafe { _mm256_loadu_si256(data.as_ptr().add(base).cast()) };
        let mut live = _mm256_movemask_epi8(_mm256_cmpeq_epi8(head, first)) as u32;
        live &= u32::MAX << skip;
        if best_len > 0 {
            // Lane k may reach `best_len` only if `base + k + best_len < pos`.
            let reach = (pos - base).saturating_sub(best_len);
            if reach < LANES {
                live &= (1u32 << reach) - 1;
            }
            let want = _mm256_set1_epi8(data[pos + best_len] as i8);
            let from = base + best_len;
            // SAFETY: while the scan runs `best_len < max_len`, so
            // `base + best_len + 31 < pos + best_len < block_end`.
            let at_best = unsafe { _mm256_loadu_si256(data.as_ptr().add(from).cast()) };
            live &= _mm256_movemask_epi8(_mm256_cmpeq_epi8(at_best, want)) as u32;
        }
        let mut next = base + LANES;
        while live != 0 {
            let current = base + live.trailing_zeros() as usize;
            live &= live - 1;
            let j = extend(data, current, pos, max_len);
            probes += j as u64 - 1;
            if j > best_len && j >= cfg.min_coded {
                best_len = j;
                best = Match {
                    dist: (pos - current) as u32,
                    len: j as u32,
                };
                next = current + 1;
                break;
            }
        }
        probes += (next - c) as u64;
        if best_len == max_len {
            break; // cannot improve
        }
        c = next;
    }
    (best, probes)
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

/// Bit-level writer, MSB-first within each byte.
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    n: u32,
}

impl Default for BitWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            n: 0,
        }
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

    /// Pad with zeros to a byte boundary and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.n > 0 {
            let pad = 8 - self.n;
            self.push(0, pad);
        }
        self.out
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

/// Compress one block with the naive CPU search. Returns the bitstream.
pub fn encode_block(block: &[u8], cfg: &LzssConfig) -> Vec<u8> {
    let matches = |pos: usize| find_match(block, 0, block.len(), pos, cfg).0;
    encode_with(block, cfg, matches)
}

/// Compress one block from precomputed per-position matches (the GPU path:
/// `FindMatchKernel` fills `matches`, the host walks them greedily).
/// `matches[i]` must describe position `i` of `block`.
pub fn encode_block_from_matches(block: &[u8], matches: &[Match], cfg: &LzssConfig) -> Vec<u8> {
    assert_eq!(matches.len(), block.len());
    encode_with(block, cfg, |pos| matches[pos])
}

fn encode_with(
    block: &[u8],
    cfg: &LzssConfig,
    mut match_at: impl FnMut(usize) -> Match,
) -> Vec<u8> {
    let mut w = BitWriter::new();
    let off_bits = cfg.offset_bits();
    let mut pos = 0usize;
    while pos < block.len() {
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
    w.finish()
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
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if out.len() != orig_len {
        return Err(LzssError::Overrun);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LzssConfig {
        LzssConfig::default()
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
    fn no_self_overlap_in_matches() {
        // Listing 3 forbids a match extending into the lookahead; dist
        // must be >= len for every emitted match.
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec();
        let c = cfg();
        for pos in 1..data.len() {
            let (m, _) = find_match(&data, 0, data.len(), pos, &c);
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
        let (m, _) = find_match(&data, 8, 16, 8, &c);
        assert_eq!(m.len, 0);
    }

    #[test]
    fn matches_capped_at_max_coded() {
        let data = vec![7u8; 200];
        let c = cfg();
        let (m, _) = find_match(&data, 0, 200, 100, &c);
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
            for pos in 0..data.len() {
                let (fast, _) = find_match(data, 0, data.len(), pos, &cfg);
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
        let (_, probes) = find_match(&data, 0, data.len(), 2048, &cfg);
        assert!(
            probes < 100,
            "constant run must early-exit: {probes} probes"
        );
    }

    #[test]
    fn encode_from_matches_equals_cpu_encoding() {
        let data = b"abracadabra abracadabra banana banana banana".repeat(10);
        let c = cfg();
        let matches: Vec<Match> = (0..data.len())
            .map(|pos| find_match(&data, 0, data.len(), pos, &c).0)
            .collect();
        let from_matches = encode_block_from_matches(&data, &matches, &c);
        let direct = encode_block(&data, &c);
        assert_eq!(from_matches, direct);
    }

    #[test]
    fn bitio_roundtrips_arbitrary_fields() {
        let mut w = BitWriter::new();
        let fields = [(5u32, 3u32), (0, 1), (1023, 10), (15, 4), (255, 8), (1, 1)];
        for &(v, n) in &fields {
            w.push(v, n);
        }
        let bytes = w.finish();
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
        let mut w = BitWriter::new();
        w.push(1, 1); // match flag
        w.push(50, cfg().offset_bits()); // dist 51 with empty history
        w.push(0, 4);
        let bytes = w.finish();
        assert_eq!(
            decode_block(&bytes, 3, &cfg()),
            Err(LzssError::BadOffset { at: 0, dist: 51 })
        );
        // Truncation: ask for more output than the stream encodes.
        let enc = encode_block(b"abc", &cfg());
        assert_eq!(decode_block(&enc, 10, &cfg()), Err(LzssError::Truncated));
    }
}
