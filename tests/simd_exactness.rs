//! Bit-exactness gate for every vectorized/fast kernel added by the
//! raw-speed pass: the runtime-dispatched paths must agree with their
//! scalar references byte-for-byte on every input — lane remainders
//! (widths not divisible by the lane count), empty batches, single
//! items, and deterministic pseudo-random sweeps. On machines without
//! AVX2 the dispatchers fall back to the references themselves and the
//! suite degenerates to a tautology, which is exactly the contract.
//!
//! The second half holds the simulated kernels to gpusim's
//! functional-execution contract: a kernel body may walk its lanes any
//! way it likes on the host (spans through SIMD, a block cursor), as long
//! as device memory **and** the four meter observables the timing model
//! reads come out exactly as the lane-at-a-time reference
//! (`lane_reference/`) leaves them.

mod lane_reference;

use hetstream::dedup::datasets;
use hetstream::dedup::kernels::{
    FindMatchBlockKernel, FindMatchKernel, Sha1BlockKernel, Sha1Kernel,
};
use hetstream::dedup::lzss::{find_match_scalar, MatchFinder};
use hetstream::dedup::rabin::{chunk_starts, chunk_starts_reference};
use hetstream::dedup::sha1::{compress_block, sha1, Sha1};
use hetstream::dedup::sha1mb::{compress8, sha1_each};
use hetstream::dedup::{LzssConfig, RabinParams};
use hetstream::gpusim::{DeviceMemory, DevicePtr, Dim3, KernelFn, LaunchDims, WorkMeter};
use hetstream::hashsearch::kernels::NonceSearchKernel;
use hetstream::hashsearch::simd::{hash_nonces, hash_nonces_scalar};
use hetstream::hashsearch::DIGEST_BYTES;
use hetstream::mandel::core::FractalParams;
use hetstream::mandel::kernels::{BatchKernel, Line2DKernel, LineKernel, BLOCK_EDGE_2D};
use hetstream::mandel::simd::{iterate_line, iterate_line_scalar, iterate_span};

use lane_reference::{
    BatchRef, FindMatchBlockRef, FindMatchRef, Line2DRef, LineRef, NonceSearchRef, RowSpanRef,
    Sha1BlockRef, Sha1Ref,
};

/// xorshift64* byte stream — deterministic test data, no external crates.
fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed.max(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8
        })
        .collect()
}

#[test]
fn mandel_iterate_line_matches_scalar_at_every_width() {
    // Widths sweep every remainder class of the 4-lane groups, plus
    // empty and single-pixel rows.
    let niter = 300;
    for width in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 101] {
        let step = 3.0 / 101.0;
        for (row, ci) in [(0usize, -1.5f64), (33, -0.52), (50, 0.0)] {
            let init_a = -2.125;
            let mut fast = vec![0u32; width];
            let mut slow = vec![0u32; width];
            iterate_line(init_a, step, ci, niter, &mut fast);
            iterate_line_scalar(init_a, step, ci, niter, &mut slow);
            assert_eq!(fast, slow, "width {width} row {row}");
        }
    }
}

#[test]
fn mandel_iterate_span_tiles_a_row_exactly() {
    // Any tiling of a row — odd offsets, widths off the 4-lane group —
    // must reproduce the whole-row counts: `cr` comes from the absolute
    // column, so where a tile starts cannot show in the arithmetic.
    let p = FractalParams::view(101, 300);
    let ci = p.init_b + p.step() * 37.0;
    let mut whole = vec![0u32; p.dim];
    iterate_line_scalar(p.init_a, p.step(), ci, p.niter, &mut whole);
    for tile in [1usize, 3, 4, 7, 16, 50, 101] {
        let mut tiled = vec![0u32; p.dim];
        for (t, out) in tiled.chunks_mut(tile).enumerate() {
            iterate_span(p.init_a, p.step(), t * tile, ci, p.niter, out);
        }
        assert_eq!(tiled, whole, "tile {tile}");
    }
}

#[test]
fn sha1_compress8_matches_scalar_on_random_blocks_and_states() {
    for seed in 1..=16u64 {
        let raw = pseudo_random(8 * 64 + 8 * 20, seed);
        let blocks: [[u8; 64]; 8] =
            std::array::from_fn(|l| raw[l * 64..(l + 1) * 64].try_into().expect("64 bytes"));
        // Random chaining states too: exactness must hold mid-stream,
        // not just from the IV.
        let mut states: [[u32; 5]; 8] = std::array::from_fn(|l| {
            let base = 8 * 64 + l * 20;
            std::array::from_fn(|j| {
                u32::from_be_bytes(raw[base + j * 4..base + j * 4 + 4].try_into().expect("4"))
            })
        });
        let mut reference = states;
        compress8(&mut states, &blocks);
        for (h, block) in reference.iter_mut().zip(&blocks) {
            compress_block(h, block);
        }
        assert_eq!(states, reference, "seed {seed}");
    }
}

/// `compress8` against eight `compress_block` calls on the same states
/// and blocks.
fn assert_compress8_exact(what: &str, states: [[u32; 5]; 8], blocks: &[[u8; 64]; 8]) {
    let mut got = states;
    compress8(&mut got, blocks);
    for (l, (h, block)) in states.iter().zip(blocks).enumerate() {
        let mut expect = *h;
        compress_block(&mut expect, block);
        assert_eq!(got[l], expect, "{what}: lane {l}");
    }
}

/// Eight different pseudo-random chaining states.
fn random_states(seed: u64) -> [[u32; 5]; 8] {
    let raw = pseudo_random(8 * 20, seed);
    std::array::from_fn(|l| {
        std::array::from_fn(|j| {
            let at = l * 20 + j * 4;
            u32::from_be_bytes(raw[at..at + 4].try_into().expect("4 bytes"))
        })
    })
}

#[test]
fn sha1_compress8_blocks_differing_only_in_one_words_byte_order() {
    // Every block is the same but for the byte order of one word (each of
    // the sixteen in turn): lane l rotates its four bytes by l % 4 and
    // reverses them when l >= 4, so all eight orders differ.
    let base: [u8; 64] = pseudo_random(64, 7).try_into().expect("64 bytes");
    for word in 0..16 {
        let blocks: [[u8; 64]; 8] = std::array::from_fn(|l| {
            let mut b = base;
            let w = &mut b[word * 4..word * 4 + 4];
            w.copy_from_slice(&[0x01, 0x23, 0x45, 0x67]);
            w.rotate_left(l % 4);
            if l >= 4 {
                w.reverse();
            }
            b
        });
        assert_compress8_exact(&format!("word {word}"), random_states(8), &blocks);
    }
}

#[test]
fn sha1_compress8_one_nonzero_word_per_lane_pins_the_transpose() {
    // Lane l's only nonzero word sits at index (shift + 7l) % 16: eight
    // different indices in every pass, and every (lane, index) pair over
    // the sixteen shifts. A transpose that delivers a word to the wrong
    // lane or the wrong schedule slot shows.
    for shift in 0..16 {
        let blocks: [[u8; 64]; 8] = std::array::from_fn(|l| {
            let mut b = [0u8; 64];
            let at = (shift + 7 * l) % 16 * 4;
            b[at..at + 4].copy_from_slice(&[0x80 | l as u8, 0x11, 0x22, 0x01 + l as u8]);
            b
        });
        assert_compress8_exact(&format!("shift {shift}"), random_states(9), &blocks);
    }
}

/// `sha1_each` over `msgs` against `sha1()`, message by message; every
/// index must be emitted exactly once.
fn assert_sha1_each_exact(what: &str, msgs: &[&[u8]]) {
    let mut got = vec![None; msgs.len()];
    sha1_each(
        msgs.len(),
        |i| msgs[i],
        |i, d| assert!(got[i].replace(d).is_none(), "{what}: {i} emitted twice"),
    );
    for (i, (d, m)) in got.iter().zip(msgs).enumerate() {
        assert_eq!(*d, Some(sha1(m)), "{what}: message {i} ({} B)", m.len());
    }
}

#[test]
fn sha1_each_matches_sha1_at_every_length_and_lane_count() {
    let bytes = pseudo_random(5000, 21);
    // Every length 0-200 in one run (the padding edges 55/56, 63/64 and
    // 119/120 included), then each alone in a lane.
    let lengths: Vec<&[u8]> = (0..=200).map(|len| &bytes[..len]).collect();
    assert_sha1_each_exact("lengths 0-200", &lengths);
    for msg in &lengths {
        assert_sha1_each_exact("one message", std::slice::from_ref(msg));
    }
    // No message, and fewer messages than lanes.
    assert_sha1_each_exact("no message", &[]);
    assert_sha1_each_exact("seven messages", &lengths[50..57]);
    // One long message among short ones: the other lanes refill many
    // times while it runs, and it finishes last.
    let mut mixed: Vec<&[u8]> = lengths.iter().step_by(3).copied().collect();
    mixed.insert(2, &bytes);
    assert_sha1_each_exact("one long among short", &mixed);
}

#[test]
fn sha1_each_matches_sha1_on_every_block_of_every_dataset() {
    for ds in datasets::all(512 * 1024, 3) {
        let mut cuts = chunk_starts(&ds.data, &RabinParams::default());
        assert!(cuts.len() > 16, "{}: fixture must span blocks", ds.name);
        cuts.push(ds.data.len());
        let blocks: Vec<&[u8]> = cuts.windows(2).map(|c| &ds.data[c[0]..c[1]]).collect();
        assert_sha1_each_exact(ds.name, &blocks);
    }
}

#[test]
fn hash_nonces_matches_scalar_at_every_remainder() {
    let mut h = Sha1::new();
    h.update(&pseudo_random(192, 77));
    let mid = h.midstate().expect("192 bytes is a block boundary");
    // Counts covering empty, single, every lane remainder, and a few
    // full groups; starts exercising carry into the high nonce bytes.
    for count in [0usize, 1, 2, 5, 7, 8, 9, 15, 16, 17, 40] {
        for start in [0u64, 255, u32::MAX as u64 - 3] {
            let mut fast = vec![0u8; count * DIGEST_BYTES];
            let mut slow = vec![0u8; count * DIGEST_BYTES];
            hash_nonces(mid, 192, start, count, &mut fast);
            hash_nonces_scalar(mid, 192, start, count, &mut slow);
            assert_eq!(fast, slow, "count {count} start {start}");
        }
    }
}

#[test]
fn rabin_fast_scan_matches_reference_across_params_and_lengths() {
    let small = RabinParams {
        window: 16,
        mask: (1 << 6) - 1,
        magic: 0x15,
        min_chunk: 32,
        max_chunk: 512,
    };
    for params in [small, RabinParams::default()] {
        for (len, seed) in [
            (0usize, 1u64),
            (1, 2),
            (params.window, 3),
            (params.min_chunk - 1, 4),
            (params.min_chunk, 5),
            (params.min_chunk + 1, 6),
            (params.max_chunk, 7),
            (params.max_chunk + 1, 8),
            (4 * params.max_chunk + 13, 9),
        ] {
            let data = pseudo_random(len, seed);
            assert_eq!(
                chunk_starts(&data, &params),
                chunk_starts_reference(&data, &params),
                "len {len} window {}",
                params.window
            );
        }
    }
}

/// `MatchFinder::find` against `find_match_scalar` at every position of
/// `data` in `[block_start, block_end)`: the match and the probe count.
fn assert_search_exact(
    what: &str,
    data: &[u8],
    block_start: usize,
    block_end: usize,
    cfg: &LzssConfig,
) {
    let mut finder = MatchFinder::default();
    finder.index(data, block_start, block_end);
    for pos in block_start..block_end {
        assert_eq!(
            finder.find(data, pos, cfg),
            find_match_scalar(data, block_start, block_end, pos, cfg),
            "{what}: window {}, block {block_start}..{block_end}, pos {pos}",
            cfg.window
        );
    }
}

/// The same at the positions the encoder's greedy parse queries: each
/// match skips the positions it covers.
fn assert_parse_exact(
    what: &str,
    data: &[u8],
    block_start: usize,
    block_end: usize,
    cfg: &LzssConfig,
) {
    let mut finder = MatchFinder::default();
    finder.index(data, block_start, block_end);
    let mut pos = block_start;
    while pos < block_end {
        let (m, probes) = finder.find(data, pos, cfg);
        assert_eq!(
            (m, probes),
            find_match_scalar(data, block_start, block_end, pos, cfg),
            "{what} (parse): window {}, block {block_start}..{block_end}, pos {pos}",
            cfg.window
        );
        pos += if m.len as usize >= cfg.min_coded {
            m.len as usize
        } else {
            1
        };
    }
}

fn lzss(window: usize) -> LzssConfig {
    LzssConfig {
        window,
        min_coded: 3,
    }
}

#[test]
fn find_match_matches_scalar_at_every_position_of_every_dataset() {
    let params = RabinParams {
        window: 32,
        mask: (1 << 11) - 1,
        magic: 0x78,
        min_chunk: 512,
        max_chunk: 8 * 1024,
    };
    let mut inputs: Vec<(&str, Vec<u8>)> = datasets::all(24 * 1024, 7)
        .into_iter()
        .map(|ds| (ds.name, ds.data))
        .collect();
    // Four-letter noise as well: 16 keys, so long same-key chains, a new
    // best match along most walks, and runs that reach max_coded.
    let noise = pseudo_random(16 * 1024, 11)
        .into_iter()
        .map(|b| b >> 6)
        .collect();
    inputs.push(("four-letter noise", noise));
    for (name, data) in &inputs {
        let mut cuts = chunk_starts(data, &params);
        assert!(cuts.len() > 4, "{name}: fixture must span blocks");
        cuts.push(data.len());
        for window in [16, 128, 512, 1024, 4096] {
            for block in cuts.windows(2) {
                assert_search_exact(name, data, block[0], block[1], &lzss(window));
                assert_parse_exact(name, data, block[0], block[1], &lzss(window));
            }
        }
    }
}

/// `MatchFinder::find_each` over the whole block `block_start..block_end`
/// against `find_match_scalar` at each position: every position once, in
/// order, with the scalar loop's match and probe count.
fn assert_sweep_exact(
    what: &str,
    data: &[u8],
    block_start: usize,
    block_end: usize,
    cfg: &LzssConfig,
) {
    let mut finder = MatchFinder::default();
    finder.index(data, block_start, block_end);
    let mut next = block_start;
    finder.find_each(data, cfg, block_end, |pos, m, probes| {
        assert_eq!(pos, next, "{what}: positions out of order");
        assert_eq!(
            (m, probes),
            find_match_scalar(data, block_start, block_end, pos, cfg),
            "{what} (sweep): window {}, block {block_start}..{block_end}, pos {pos}",
            cfg.window
        );
        next += 1;
    });
    assert_eq!(next, block_end, "{what}: sweep ended early");
}

#[test]
fn find_each_matches_scalar_at_every_position_of_every_dataset() {
    let params = RabinParams {
        window: 32,
        mask: (1 << 11) - 1,
        magic: 0x78,
        min_chunk: 512,
        max_chunk: 8 * 1024,
    };
    let mut inputs: Vec<(&str, Vec<u8>)> = datasets::all(24 * 1024, 7)
        .into_iter()
        .map(|ds| (ds.name, ds.data))
        .collect();
    let noise = pseudo_random(16 * 1024, 11)
        .into_iter()
        .map(|b| b >> 6)
        .collect();
    inputs.push(("four-letter noise", noise));
    for (name, data) in &inputs {
        let mut cuts = chunk_starts(data, &params);
        assert!(cuts.len() > 4, "{name}: fixture must span blocks");
        cuts.push(data.len());
        for window in [16, 128, 512, 1024, 4096] {
            for block in cuts.windows(2) {
                assert_sweep_exact(name, data, block[0], block[1], &lzss(window));
            }
        }
    }
    // A block mid-buffer, and one- and two-byte blocks.
    let data = compressible(400, 5);
    assert_sweep_exact("block mid-buffer", &data, 330, 400, &lzss(512));
    assert_sweep_exact("one byte", &data, 7, 8, &lzss(512));
    assert_sweep_exact("two bytes", &data, 7, 9, &lzss(512));
}

#[test]
fn find_match_matches_scalar_at_the_edges_of_a_block() {
    let data = compressible(400, 5);
    let cfg = lzss(512);
    // A block that starts far into the buffer, after bytes it must not
    // match: a window shorter than the one configured.
    for block_start in [300, 330, 360] {
        assert_search_exact("block mid-buffer", &data, block_start, 400, &cfg);
    }
    // `block_end - pos` below `max_coded`, down to the last byte, where
    // there is no key; at the buffer's end and inside it.
    assert_search_exact("tail of the buffer", &data, 0, 400, &cfg);
    assert_search_exact("tail of a block", &data, 100, 250, &cfg);
    // A window that slides past chain heads, position after position.
    assert_search_exact("sliding window", &data, 0, 400, &lzss(16));
    // A one-byte and a two-byte block.
    assert_search_exact("one byte", &data, 7, 8, &cfg);
    assert_search_exact("two bytes", &data, 7, 9, &cfg);
}

#[test]
fn find_match_charges_the_last_byte_of_a_block_one_probe_a_candidate() {
    // At the last byte no candidate extends past its first byte: every
    // candidate in the window costs one probe, and nothing matches.
    let data = b"abcabcabca".to_vec();
    let cfg = lzss(8);
    let mut finder = MatchFinder::default();
    finder.index(&data, 0, data.len());
    let last = data.len() - 1;
    let (m, probes) = finder.find(&data, last, &cfg);
    assert_eq!((m.len, probes), (0, 8));
    assert_eq!(
        (m, probes),
        find_match_scalar(&data, 0, data.len(), last, &cfg)
    );
}

#[test]
fn find_match_extends_a_distance_one_candidate_by_nothing() {
    // In a run, the candidate right before `pos` shares its key but may
    // not overlap `pos`: it is extended to one byte and charged no more.
    let mut data = b"xy".to_vec();
    data.extend_from_slice(&[b'a'; 40]);
    let cfg = lzss(64);
    assert_search_exact("run", &data, 0, data.len(), &cfg);
    let (m, probes) = find_match_scalar(&data, 0, data.len(), 3, &cfg);
    assert_eq!((m.len, probes), (0, 3), "pos 3 has only `x`, `y`, `a`");
    let mut finder = MatchFinder::default();
    finder.index(&data, 0, data.len());
    assert_eq!(finder.find(&data, 3, &cfg), (m, probes));
}

#[test]
fn find_match_forgets_a_chain_head_the_window_slid_past() {
    // The key `ab` at 0, 40, 60, 85 and 120 over bytes that never repeat,
    // queried with a 32-byte window: 0 has left the window by 60, 40 by
    // 85, and by 120 every earlier `ab` has.
    let mut data: Vec<u8> = (0..130).map(|i| (128 + i) as u8).collect();
    data[0..4].copy_from_slice(b"abcd");
    data[40..43].copy_from_slice(b"abX");
    for at in [60, 85, 120] {
        data[at..at + 4].copy_from_slice(b"abcd");
    }
    let cfg = lzss(32);
    let mut finder = MatchFinder::default();
    finder.index(&data, 0, data.len());
    for (pos, want) in [(60, (0, 0)), (85, (25, 4)), (120, (0, 0))] {
        let (m, probes) = finder.find(&data, pos, &cfg);
        assert_eq!((m.dist, m.len), want, "pos {pos}");
        assert_eq!(
            (m, probes),
            find_match_scalar(&data, 0, data.len(), pos, &cfg),
            "pos {pos}"
        );
    }
    assert_search_exact("window past the head", &data, 0, data.len(), &cfg);
}

#[test]
fn find_match_takes_each_longer_match_in_turn() {
    // Matches of length 3, 5 and 8 for `pos`, in window order: each new
    // best match changes the filter for the candidates after it.
    let mut data = vec![b'.'; 64];
    data[2..6].copy_from_slice(b"abcX");
    data[10..16].copy_from_slice(b"abcdeY");
    data[20..29].copy_from_slice(b"abcdefghZ");
    data.extend_from_slice(b"abcdefghijklmnopqrstuvwxyz");
    let pos = 64;
    let cfg = lzss(64);
    let mut finder = MatchFinder::default();
    finder.index(&data, 0, data.len());
    let (m, probes) = finder.find(&data, pos, &cfg);
    assert_eq!((m.dist, m.len), ((pos - 20) as u32, 8));
    assert_eq!(
        (m, probes),
        find_match_scalar(&data, 0, data.len(), pos, &cfg)
    );
    assert_search_exact("longer in turn", &data, 0, data.len(), &cfg);
}

#[test]
fn find_match_stops_at_max_coded() {
    // A match of `max_coded` bytes at 10 ends the scan there, with the
    // later candidate at 60 never probed.
    let cfg = lzss(128);
    let run: Vec<u8> = (0..cfg.max_coded() as u8).map(|i| b'a' + i).collect();
    let mut data = vec![b'.'; 128];
    data[10..10 + run.len()].copy_from_slice(&run);
    data[60..60 + run.len()].copy_from_slice(&run);
    data.extend_from_slice(&run);
    data.extend_from_slice(b"tail");
    let pos = 128;
    let mut finder = MatchFinder::default();
    finder.index(&data, 0, data.len());
    let (m, probes) = finder.find(&data, pos, &cfg);
    assert_eq!(
        (m.dist, m.len as usize),
        ((pos - 10) as u32, cfg.max_coded())
    );
    // Ten rejected candidates, then the one that matched and its 17
    // extension probes.
    assert_eq!(probes, 10 + 1 + (cfg.max_coded() as u64 - 1));
    assert_eq!(
        (m, probes),
        find_match_scalar(&data, 0, data.len(), pos, &cfg)
    );
}

// ---------------------------------------------------------------------
// Simulated kernels vs the lane-at-a-time reference.
// ---------------------------------------------------------------------

const WARP: u32 = 32;

/// What the timing model and the reports read off a launch's meter.
#[derive(Debug, PartialEq)]
struct Metered {
    warp_units: u64,
    max_warp_units: u64,
    total_units: u64,
    lanes_recorded: u64,
}

fn launch(kernel: &dyn KernelFn, dims: LaunchDims, mem: &DeviceMemory) -> Metered {
    let mut meter = WorkMeter::new(dims.total_threads(), WARP);
    kernel.run(&dims, mem, &mut meter);
    Metered {
        warp_units: meter.warp_units(),
        max_warp_units: meter.max_warp_units(),
        total_units: meter.total_units(),
        lanes_recorded: meter.lanes_recorded(),
    }
}

fn contents<T: Clone + Default + 'static>(mem: &DeviceMemory, ptr: DevicePtr<T>) -> Vec<T> {
    let mut out = vec![T::default(); ptr.len()];
    mem.read(ptr, 0, &mut out);
    out
}

/// Run a shipped Mandelbrot kernel and its reference over the same launch
/// into two fresh `len`-pixel buffers; bytes and meter must agree.
fn assert_mandel_kernel_exact<K: KernelFn, R: KernelFn>(
    what: &str,
    len: usize,
    dims: LaunchDims,
    fast: impl Fn(DevicePtr<u8>) -> K,
    reference: impl Fn(DevicePtr<u8>) -> R,
) {
    let mut mem = DeviceMemory::new(0, 1 << 24);
    let got = mem.alloc::<u8>(len).expect("fits");
    let want = mem.alloc::<u8>(len).expect("fits");
    let got_meter = launch(&fast(got), dims, &mem);
    let want_meter = launch(&reference(want), dims, &mem);
    assert_eq!(contents(&mem, got), contents(&mem, want), "{what}: pixels");
    assert_eq!(got_meter, want_meter, "{what}: meter");
    assert_eq!(
        got_meter.lanes_recorded,
        dims.total_threads(),
        "{what}: every lane of the launch is metered exactly once"
    );
}

#[test]
fn mandel_kernels_match_the_lane_reference_at_every_width() {
    // 50 and 101 leave `cover()` slack in the last 256-thread block and a
    // partial 16-column block in the 2-D grid; 257 spills one pixel into
    // a second tile; 512 is tile- and block-aligned.
    for dim in [50usize, 101, 257, 512] {
        let params = FractalParams::view(dim, 150);
        for row in [0, dim / 3, dim / 2, dim - 1] {
            assert_mandel_kernel_exact(
                &format!("line dim {dim} row {row}"),
                dim,
                LaunchDims::cover(dim as u64, 256),
                |img| LineKernel { row, params, img },
                |img| LineRef { row, params, img },
            );
            assert_mandel_kernel_exact(
                &format!("line2d dim {dim} row {row}"),
                dim,
                LaunchDims {
                    grid: Dim3::x((dim as u32).div_ceil(BLOCK_EDGE_2D)),
                    block: Dim3::xy(BLOCK_EDGE_2D, BLOCK_EDGE_2D),
                },
                |img| Line2DKernel { row, params, img },
                |img| Line2DRef { row, params, img },
            );
        }
        // A full batch from the middle of the image and the partial tail
        // batch whose last rows fall off the image edge.
        let batch_size = 8;
        for batch in [dim / batch_size / 2, (dim - 1) / batch_size] {
            assert_mandel_kernel_exact(
                &format!("batch dim {dim} batch {batch}"),
                batch_size * dim,
                LaunchDims::cover((batch_size * dim) as u64, 256),
                |img| BatchKernel {
                    first_row: batch * batch_size,
                    rows: batch_size,
                    params,
                    img,
                },
                |img| BatchRef {
                    batch,
                    batch_size,
                    params,
                    img,
                },
            );
        }
        // Row spans at odd offsets: mid-image, and one running off the
        // bottom edge (the halving rung of a tail batch).
        for (first_row, rows) in [(21, 3), (dim - 2, 5)] {
            assert_mandel_kernel_exact(
                &format!("rows dim {dim} first {first_row}"),
                rows * dim,
                LaunchDims::cover((rows * dim) as u64, 256),
                |img| BatchKernel {
                    first_row,
                    rows,
                    params,
                    img,
                },
                |img| RowSpanRef {
                    first_row,
                    rows,
                    params,
                    img,
                },
            );
        }
    }
}

#[test]
fn mandel_kernels_match_the_lane_reference_on_short_launches() {
    // A launch narrower than its pixels computes only the lanes it has.
    let params = FractalParams::view(101, 150);
    assert_mandel_kernel_exact(
        "batch under a 3.5-row launch",
        8 * 101,
        LaunchDims::linear(11, 32),
        |img| BatchKernel {
            first_row: 5 * 8,
            rows: 8,
            params,
            img,
        },
        |img| BatchRef {
            batch: 5,
            batch_size: 8,
            params,
            img,
        },
    );
    assert_mandel_kernel_exact(
        "line under a 64-lane launch",
        101,
        LaunchDims::linear(2, 32),
        |img| LineKernel {
            row: 50,
            params,
            img,
        },
        |img| LineRef {
            row: 50,
            params,
            img,
        },
    );
}

#[test]
fn nonce_search_kernel_matches_the_lane_reference() {
    let mut h = Sha1::new();
    h.update(&pseudo_random(128, 5));
    let midstate = h.midstate().expect("128 bytes is a block boundary");
    // Counts off the 8-lane group and off the block size, so the SIMD
    // remainder and the `cover()` slack lanes are both exercised.
    for n_nonces in [1usize, 7, 8, 100, 257, 1000] {
        for block in [64u32, 256] {
            let dims = LaunchDims::cover(n_nonces as u64, block);
            let mut mem = DeviceMemory::new(0, 1 << 20);
            let got = mem.alloc::<u8>(n_nonces * DIGEST_BYTES).expect("fits");
            let want = mem.alloc::<u8>(n_nonces * DIGEST_BYTES).expect("fits");
            let start_nonce = u32::MAX as u64 - 3;
            let got_meter = launch(
                &NonceSearchKernel {
                    midstate,
                    header_len: 128,
                    start_nonce,
                    n_nonces,
                    out: got,
                },
                dims,
                &mem,
            );
            let want_meter = launch(
                &NonceSearchRef {
                    midstate,
                    header_len: 128,
                    start_nonce,
                    n_nonces,
                    out: want,
                },
                dims,
                &mem,
            );
            let what = format!("{n_nonces} nonces, block {block}");
            assert_eq!(contents(&mem, got), contents(&mem, want), "{what}");
            assert_eq!(got_meter, want_meter, "{what}: meter");
        }
    }
}

/// Run `FindMatchKernel` and its reference over `data` cut into blocks at
/// `starts`, launched with `dims`, at a 64-byte window.
fn assert_find_match_exact(what: &str, data: &[u8], starts: &[u32], dims: LaunchDims) {
    assert_find_match_exact_at(&lzss(64), what, data, starts, dims);
}

/// [`assert_find_match_exact`] with the codec parameters `cfg`.
fn assert_find_match_exact_at(
    cfg: &LzssConfig,
    what: &str,
    data: &[u8],
    starts: &[u32],
    dims: LaunchDims,
) {
    let cfg = *cfg;
    let mut mem = DeviceMemory::new(0, 1 << 22);
    // Device buffers are grow-only in the backends: longer than the batch.
    let d_data = mem.alloc::<u8>(data.len() + 100).expect("fits");
    let d_starts = mem.alloc::<u32>(starts.len() + 4).expect("fits");
    mem.write(d_data, 0, data);
    mem.write(d_starts, 0, starts);
    let mut outputs = || {
        (
            mem.alloc::<u32>(data.len() + 100).expect("fits"),
            mem.alloc::<u32>(data.len() + 100).expect("fits"),
        )
    };
    let (got_len, got_off) = outputs();
    let (want_len, want_off) = outputs();
    let got_meter = launch(
        &FindMatchKernel {
            data: d_data,
            data_len: data.len(),
            starts: d_starts,
            n_blocks: starts.len(),
            matches_len: got_len,
            matches_off: got_off,
            cfg,
        },
        dims,
        &mem,
    );
    let want_meter = launch(
        &FindMatchRef {
            data: d_data,
            data_len: data.len(),
            starts: d_starts,
            n_blocks: starts.len(),
            matches_len: want_len,
            matches_off: want_off,
            cfg,
        },
        dims,
        &mem,
    );
    assert_eq!(
        contents(&mem, got_len),
        contents(&mem, want_len),
        "{what}: lengths"
    );
    assert_eq!(
        contents(&mem, got_off),
        contents(&mem, want_off),
        "{what}: offsets"
    );
    assert_eq!(got_meter, want_meter, "{what}: meter");
}

/// Bytes with matches to find: a short phrase over a sprinkle of noise.
fn compressible(len: usize, seed: u64) -> Vec<u8> {
    let noise = pseudo_random(len, seed);
    (0..len)
        .map(|i| {
            if noise[i] < 40 {
                noise[i]
            } else {
                b"find the longest match "[i % 23]
            }
        })
        .collect()
}

#[test]
fn find_match_kernel_matches_the_lane_reference() {
    for len in [50usize, 101, 257, 512] {
        let data = compressible(len, len as u64);
        // One block spanning the whole batch.
        assert_find_match_exact(
            &format!("{len} B, single block"),
            &data,
            &[0],
            LaunchDims::cover(len as u64, 256),
        );
        // Many blocks: uneven cuts, an empty block (a repeated start) and
        // a one-byte tail block.
        let cuts: Vec<u32> = [0, 0, 13, 14, 40, 40, 41, 97, 200, 256, 300, 511]
            .into_iter()
            .filter(|&c| (c as usize) < len)
            .chain([len as u32 - 1])
            .collect();
        assert_find_match_exact(
            &format!("{len} B, {} blocks", cuts.len()),
            &data,
            &cuts,
            LaunchDims::cover(len as u64, 64),
        );
        // A launch shorter than the batch leaves the tail bytes untouched.
        assert_find_match_exact(
            &format!("{len} B under a 32-lane launch"),
            &data,
            &cuts,
            LaunchDims::linear(1, 32),
        );
    }
    // A batch-sized case cut by the real chunker.
    let data = compressible(6000, 99);
    let params = RabinParams {
        window: 16,
        mask: (1 << 6) - 1,
        magic: 0x15,
        min_chunk: 32,
        max_chunk: 512,
    };
    let starts: Vec<u32> = chunk_starts(&data, &params)
        .into_iter()
        .map(|s| s as u32)
        .collect();
    assert!(starts.len() > 8, "fixture must span many blocks");
    assert_find_match_exact(
        "6000 B, rabin-chunked",
        &data,
        &starts,
        LaunchDims::cover(6000, 256),
    );
}

#[test]
#[should_panic(expected = "startPos must be ascending")]
fn find_match_kernel_rejects_descending_starts() {
    // The block cursor is only the per-lane scan on ascending starts; the
    // kernel checks that once per launch instead of trusting the caller.
    let data = compressible(64, 3);
    assert_find_match_exact("descending", &data, &[0, 40, 20], LaunchDims::linear(1, 64));
}

#[test]
#[should_panic(expected = "startPos must begin with a block at 0")]
fn find_match_kernel_rejects_starts_that_skip_lane_0() {
    // Lanes before the first start would belong to no block: the per-lane
    // scan would search them in block 0 and the block walk skip them.
    let data = compressible(64, 3);
    assert_find_match_exact("first start 5", &data, &[5, 20], LaunchDims::linear(1, 64));
}

#[test]
#[should_panic(expected = "startPos must begin with a block at 0")]
fn find_match_kernel_rejects_active_lanes_without_blocks() {
    let data = compressible(64, 3);
    assert_find_match_exact("no blocks", &data, &[], LaunchDims::linear(1, 64));
}

#[test]
fn find_match_kernel_matches_the_lane_reference_at_fig5s_configuration() {
    // Fig. 5's window and chunker over a 32 KiB `parsec_like` batch: ~2 KiB
    // blocks, so windows that span most of a block, and a launch cut off
    // mid-block and mid-tile as well as a full one.
    let data = datasets::parsec_like(32 * 1024, 5).data;
    let params = RabinParams {
        window: 32,
        mask: (1 << 11) - 1,
        magic: 0x78,
        min_chunk: 512,
        max_chunk: 8 * 1024,
    };
    let starts: Vec<u32> = chunk_starts(&data, &params)
        .into_iter()
        .map(|s| s as u32)
        .collect();
    assert!(starts.len() > 8, "fixture must span many blocks");
    let cfg = lzss(512);
    let len = data.len() as u64;
    assert_find_match_exact_at(
        &cfg,
        "fig5, full launch",
        &data,
        &starts,
        LaunchDims::cover(len, 256),
    );
    assert_find_match_exact_at(
        &cfg,
        "fig5, half launch",
        &data,
        &starts,
        LaunchDims::linear((len / 2 / 96) as u32, 96),
    );
}

/// Run `Sha1Kernel` and its reference over `data` cut into blocks at
/// `starts`, launched with `dims`: digests and meter must agree.
fn assert_sha1_kernel_exact(what: &str, data: &[u8], starts: &[u32], dims: LaunchDims) {
    let mut mem = DeviceMemory::new(0, 1 << 22);
    // Device buffers are grow-only in the backends: longer than the batch.
    let d_data = mem.alloc::<u8>(data.len() + 100).expect("fits");
    let d_starts = mem.alloc::<u32>(starts.len() + 4).expect("fits");
    mem.write(d_data, 0, data);
    mem.write(d_starts, 0, starts);
    let got = mem.alloc::<u8>((starts.len() + 4) * 20).expect("fits");
    let want = mem.alloc::<u8>((starts.len() + 4) * 20).expect("fits");
    let got_meter = launch(
        &Sha1Kernel {
            data: d_data,
            starts: d_starts,
            data_len: data.len(),
            n_blocks: starts.len(),
            out: got,
        },
        dims,
        &mem,
    );
    let want_meter = launch(
        &Sha1Ref {
            data: d_data,
            starts: d_starts,
            data_len: data.len(),
            n_blocks: starts.len(),
            out: want,
        },
        dims,
        &mem,
    );
    assert_eq!(contents(&mem, got), contents(&mem, want), "{what}: digests");
    assert_eq!(got_meter, want_meter, "{what}: meter");
}

#[test]
fn sha1_kernel_matches_the_lane_reference() {
    let data = pseudo_random(3000, 8);
    // Uneven cuts, an empty block (a repeated start), blocks either side
    // of the padding edges, and a one-byte tail block.
    let cuts = [
        0u32, 0, 13, 68, 124, 180, 300, 363, 427, 1000, 1001, 2047, 2999,
    ];
    for (what, starts) in [("one block", &cuts[..1]), ("13 blocks", &cuts[..])] {
        // A tail batch: many more lanes than blocks.
        assert_sha1_kernel_exact(
            &format!("{what}, 128 lanes"),
            &data,
            starts,
            LaunchDims::cover(starts.len() as u64, 128),
        );
        // Exactly one lane per block.
        assert_sha1_kernel_exact(
            &format!("{what}, one lane per block"),
            &data,
            starts,
            LaunchDims::linear(starts.len() as u32, 1),
        );
    }
    // Fewer lanes than blocks: the blocks past the launch stay unhashed.
    assert_sha1_kernel_exact("13 blocks, 8 lanes", &data, &cuts, LaunchDims::linear(1, 8));
    // A batch-sized case cut by the real chunker, over several TILEs.
    let data = compressible(60_000, 4);
    let params = RabinParams {
        window: 16,
        mask: (1 << 6) - 1,
        magic: 0x15,
        min_chunk: 32,
        max_chunk: 512,
    };
    let starts: Vec<u32> = chunk_starts(&data, &params)
        .into_iter()
        .map(|s| s as u32)
        .collect();
    assert!(starts.len() > 300, "fixture must span several tiles");
    assert_sha1_kernel_exact(
        "60000 B, rabin-chunked",
        &data,
        &starts,
        LaunchDims::cover(starts.len() as u64, 64),
    );
}

#[test]
fn per_block_kernels_match_the_lane_reference() {
    let cfg = LzssConfig {
        window: 64,
        min_coded: 3,
    };
    let data = compressible(700, 12);
    let mut mem = DeviceMemory::new(0, 1 << 20);
    let d_data = mem.alloc::<u8>(data.len()).expect("fits");
    mem.write(d_data, 0, &data);
    // Launches wider and narrower than the block (and a 600-byte block
    // that spans several 256-lane tiles).
    for (start, end) in [(0usize, 1usize), (13, 90), (90, 690), (690, 700)] {
        for dims in [
            LaunchDims::cover((end - start) as u64, 128),
            LaunchDims::linear(1, 32),
        ] {
            let what = format!("block {start}..{end}, {} lanes", dims.total_threads());
            let got = mem.alloc::<u8>(40).expect("fits");
            let want = mem.alloc::<u8>(40).expect("fits");
            let got_meter = launch(
                &Sha1BlockKernel {
                    data: d_data,
                    start,
                    end,
                    out: got,
                    slot: 1,
                },
                dims,
                &mem,
            );
            let want_meter = launch(
                &Sha1BlockRef {
                    data: d_data,
                    start,
                    end,
                    out: want,
                    slot: 1,
                },
                dims,
                &mem,
            );
            assert_eq!(contents(&mem, got), contents(&mem, want), "{what}: digest");
            assert_eq!(got_meter, want_meter, "{what}: sha1 meter");

            let mut outputs = || {
                (
                    mem.alloc::<u32>(data.len()).expect("fits"),
                    mem.alloc::<u32>(data.len()).expect("fits"),
                )
            };
            let (got_len, got_off) = outputs();
            let (want_len, want_off) = outputs();
            let got_meter = launch(
                &FindMatchBlockKernel {
                    data: d_data,
                    start,
                    end,
                    matches_len: got_len,
                    matches_off: got_off,
                    cfg,
                },
                dims,
                &mem,
            );
            let want_meter = launch(
                &FindMatchBlockRef {
                    data: d_data,
                    start,
                    end,
                    matches_len: want_len,
                    matches_off: want_off,
                    cfg,
                },
                dims,
                &mem,
            );
            assert_eq!(
                contents(&mem, got_len),
                contents(&mem, want_len),
                "{what}: lengths"
            );
            assert_eq!(
                contents(&mem, got_off),
                contents(&mem, want_off),
                "{what}: offsets"
            );
            assert_eq!(got_meter, want_meter, "{what}: match meter");
        }
    }
}
