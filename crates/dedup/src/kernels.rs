//! Dedup's GPU kernels: SHA-1 (one thread per block) and LZSS `FindMatch`
//! (one thread per input byte), in batched and per-block variants.
//!
//! The batched [`FindMatchKernel`] is Listing 3: a single launch covers the
//! whole 1 MB batch, each lane locating its block via a linear scan of the
//! `startPos` array and bounding its window search to that block. The
//! per-block variants reproduce the paper's *first* (slow) integration —
//! "the GPU kernel function has been invoked for too many times without
//! using efficiently the GPU resources" — and power the no-batch bars of
//! Fig. 5.
//!
//! On the host, a kernel body may walk its lanes in any order that leaves
//! device memory and the meter's four observables as the one-lane-at-a-time
//! reference does. Both `FindMatch` kernels walk by block, not by lane:
//! each block is indexed once and swept through
//! [`MatchFinder::find_each`], whose every result is what
//! [`crate::lzss::find_match_scalar`] returns for that lane, probes
//! included. The lanes' work units are staged a tile at a time, in lane
//! order, and metered exactly as if recorded lane by lane.

use gpusim::{DeviceMemory, DevicePtr, KernelFn, LaunchDims, WorkMeter};

use crate::lzss::{LzssConfig, MatchFinder};
use crate::sha1::sha1;
use crate::sha1mb::sha1_each;

/// Cycles per byte hashed by a single GPU thread (scalar SHA-1 is
/// register-bound; one thread per block is latency-, not throughput-,
/// friendly — which is why the batch must carry many blocks).
const SHA1_CYCLES_PER_BYTE: f64 = 18.0;

/// Cycles per window probe of the match search.
const LZSS_CYCLES_PER_PROBE: f64 = 3.0;

/// Lanes whose work units are gathered on the stack before one
/// `record_span` (a multiple of the warp size).
const TILE: usize = 256;

/// SHA-1 of every block in a batch; lane `b` hashes block `b` (§IV-B
/// stage 2: "each GPU thread calculates the SHA-1 of one block"). On the
/// host the lanes run eight per pass through [`sha1_each`], the routine
/// the stage's host rung calls too; each block lane is metered its
/// length in bytes, each spare lane its bounds check.
pub struct Sha1Kernel {
    /// Batch bytes on device.
    pub data: DevicePtr<u8>,
    /// Block start offsets (Fig. 2's `startPos`).
    pub starts: DevicePtr<u32>,
    /// Valid bytes in `data` (tail batches are shorter than the buffer).
    pub data_len: usize,
    /// Valid entries in `starts`.
    pub n_blocks: usize,
    /// Output digests, 20 bytes per block.
    pub out: DevicePtr<u8>,
}

impl KernelFn for Sha1Kernel {
    fn name(&self) -> &'static str {
        "sha1_blocks"
    }
    fn regs_per_thread(&self) -> u32 {
        48 // SHA-1 state + schedule window
    }
    fn cycles_per_unit(&self) -> f64 {
        SHA1_CYCLES_PER_BYTE
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let data = mem.borrow(self.data);
        let starts = mem.borrow(self.starts);
        let mut out = mem.borrow_mut(self.out);
        let range = |b: usize| {
            let end = if b + 1 < self.n_blocks {
                starts[b + 1] as usize
            } else {
                self.data_len
            };
            starts[b] as usize..end
        };
        let active = self.n_blocks.min(dims.total_threads() as usize);
        sha1_each(
            active,
            |b| &data[range(b)],
            |b, digest| out[b * 20..b * 20 + 20].copy_from_slice(&digest.0),
        );
        let mut units = [0u64; TILE];
        for base in (0..active).step_by(TILE) {
            let units = &mut units[..TILE.min(active - base)];
            for (b, lane_units) in (base..).zip(units.iter_mut()) {
                *lane_units = range(b).len() as u64;
            }
            meter.record_span(base as u64, units);
        }
        // Lanes past the last block only pay their bounds check.
        meter.record_fill(active as u64..dims.total_threads(), 1);
    }
}

/// SHA-1 of a single block — the unbatched variant (one launch per block,
/// one *warp-wide* stripe of lanes but only lane 0 does the work: the GPU
/// is starved, exactly the pathology the batch redesign fixes).
pub struct Sha1BlockKernel {
    /// Batch bytes on device.
    pub data: DevicePtr<u8>,
    /// Block byte range.
    pub start: usize,
    /// End of the block range.
    pub end: usize,
    /// Output digest, 20 bytes, at `block_ordinal * 20`.
    pub out: DevicePtr<u8>,
    /// Which output slot to fill.
    pub slot: usize,
}

impl KernelFn for Sha1BlockKernel {
    fn name(&self) -> &'static str {
        "sha1_one_block"
    }
    fn regs_per_thread(&self) -> u32 {
        48
    }
    fn cycles_per_unit(&self) -> f64 {
        SHA1_CYCLES_PER_BYTE
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let data = mem.borrow(self.data);
        let mut out = mem.borrow_mut(self.out);
        let digest = sha1(&data[self.start..self.end]);
        out[self.slot * 20..self.slot * 20 + 20].copy_from_slice(&digest.0);
        meter.record_span(0, &[(self.end - self.start) as u64]);
        meter.record_fill(1..dims.total_threads(), 1);
    }
}

/// Listing 3: the batched `FindMatchKernel`. One lane per byte of the
/// batch; each lane scans `startPoss` linearly to find its block (and is
/// charged for that scan), then searches its block-bounded window for the
/// longest match.
///
/// On the host the launch walks `startPos` block by block: it indexes
/// each block once and sweeps its lanes, up to the block's end or the
/// launch's last active lane, through one [`MatchFinder`]. That is
/// exact because `startPos` is ascending from 0 (both asserted once per
/// launch): the block a lane's scan would find is then the one whose
/// range holds the lane, every active lane lies in exactly one block, and
/// the blocks hand their lanes out in lane order.
pub struct FindMatchKernel {
    /// Batch bytes on device (`input`).
    pub data: DevicePtr<u8>,
    /// Valid bytes (`sizeInput`).
    pub data_len: usize,
    /// Block starts (`startPoss`).
    pub starts: DevicePtr<u32>,
    /// Valid entries (`startPosSize`).
    pub n_blocks: usize,
    /// Output match lengths (`matchesLength`).
    pub matches_len: DevicePtr<u32>,
    /// Output match offsets (`matchesOffset`).
    pub matches_off: DevicePtr<u32>,
    /// Codec parameters (`WINDOW_SIZE` / `MAX_CODED`).
    pub cfg: LzssConfig,
}

impl KernelFn for FindMatchKernel {
    fn name(&self) -> &'static str {
        "FindMatchKernel"
    }
    fn regs_per_thread(&self) -> u32 {
        32
    }
    fn cycles_per_unit(&self) -> f64 {
        LZSS_CYCLES_PER_PROBE
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let data = mem.borrow(self.data);
        let starts = mem.borrow(self.starts);
        let starts = &starts[..self.n_blocks];
        let active = self.data_len.min(dims.total_threads() as usize);
        // Lines 4-10 have every lane scan all of `startPoss` for the last
        // block starting at or before it. On ascending starts from 0 that
        // block is the one whose range holds the lane, so walking the
        // blocks in order finds the same block for every lane. Checked
        // once per launch, not per lane.
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "FindMatchKernel: startPos must be ascending"
        );
        assert!(
            active == 0 || starts.first() == Some(&0),
            "FindMatchKernel: startPos must begin with a block at 0"
        );
        let mut m_len = mem.borrow_mut(self.matches_len);
        let mut m_off = mem.borrow_mut(self.matches_off);
        let (m_len, m_off) = (&mut m_len[..active], &mut m_off[..active]);
        // Work per lane: the startPos scan it stands for plus its probes.
        let scan_units = self.n_blocks as u64 / 4 + 1;
        let mut tile = Tile::new(meter);
        let mut finder = MatchFinder::default();
        for (b, &start) in starts.iter().enumerate() {
            let start = start as usize;
            let end = starts.get(b + 1).map_or(self.data_len, |&s| s as usize);
            if start >= active {
                break;
            }
            finder.index(&data, start, end);
            finder.find_each(&data, &self.cfg, end.min(active), |idx, m, probes| {
                m_len[idx] = m.len;
                m_off[idx] = m.dist;
                tile.record(idx, probes + scan_units);
            });
        }
        tile.finish(active);
        // Lanes past the batch only pay their bounds check.
        meter.record_fill(active as u64..dims.total_threads(), 1);
    }
}

/// Per-block `FindMatch` — the unbatched variant (one launch per block),
/// swept on the host as [`FindMatchKernel`] sweeps each of its blocks.
pub struct FindMatchBlockKernel {
    /// Batch bytes on device.
    pub data: DevicePtr<u8>,
    /// Block byte range start.
    pub start: usize,
    /// Block byte range end.
    pub end: usize,
    /// Output match lengths (indexed by absolute batch position).
    pub matches_len: DevicePtr<u32>,
    /// Output match offsets.
    pub matches_off: DevicePtr<u32>,
    /// Codec parameters.
    pub cfg: LzssConfig,
}

impl KernelFn for FindMatchBlockKernel {
    fn name(&self) -> &'static str {
        "FindMatchBlock"
    }
    fn regs_per_thread(&self) -> u32 {
        32
    }
    fn cycles_per_unit(&self) -> f64 {
        LZSS_CYCLES_PER_PROBE
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let data = mem.borrow(self.data);
        let mut m_len = mem.borrow_mut(self.matches_len);
        let mut m_off = mem.borrow_mut(self.matches_off);
        let active = (self.end - self.start).min(dims.total_threads() as usize);
        let mut tile = Tile::new(meter);
        let mut finder = MatchFinder::default();
        finder.index(&data, self.start, self.end);
        finder.find_each(&data, &self.cfg, self.start + active, |idx, m, probes| {
            m_len[idx] = m.len;
            m_off[idx] = m.dist;
            tile.record(idx - self.start, probes + 1);
        });
        tile.finish(active);
        meter.record_fill(active as u64..dims.total_threads(), 1);
    }
}

/// Per-lane work units staged [`TILE`] lanes at a time and handed to the
/// meter one `record_span` a full tile. Lanes must arrive in order from
/// lane 0, each once.
struct Tile<'m> {
    units: [u64; TILE],
    meter: &'m mut WorkMeter,
}

impl<'m> Tile<'m> {
    fn new(meter: &'m mut WorkMeter) -> Self {
        Tile {
            units: [0; TILE],
            meter,
        }
    }

    /// Stage `lane`'s units; the tile's last lane flushes it.
    #[inline(always)]
    fn record(&mut self, lane: usize, units: u64) {
        self.units[lane % TILE] = units;
        if lane % TILE == TILE - 1 {
            self.meter
                .record_span((lane + 1 - TILE) as u64, &self.units);
        }
    }

    /// Flush the partial tile of a launch whose first `lanes` lanes were
    /// all recorded.
    fn finish(self, lanes: usize) {
        let tail = lanes % TILE;
        self.meter
            .record_span((lanes - tail) as u64, &self.units[..tail]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::make_batches;
    use crate::lzss::{find_match_scalar, Match};
    use crate::rabin::RabinParams;
    use gpusim::{DeviceProps, GpuSystem, StreamId};
    use simtime::SimTime;

    fn rabin_small() -> RabinParams {
        RabinParams {
            window: 16,
            mask: (1 << 8) - 1,
            magic: 0x21,
            min_chunk: 64,
            max_chunk: 2048,
        }
    }

    fn sample_batch() -> crate::batch::Batch {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .cycle()
            .take(8192)
            .copied()
            .collect();
        make_batches(&data, 8192, &rabin_small()).remove(0)
    }

    #[test]
    fn sha1_kernel_matches_cpu_digests() {
        let b = sample_batch();
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let dev = sys.device(0);
        let d_data = dev.alloc::<u8>(b.data.len()).unwrap();
        let d_starts = dev.alloc::<u32>(b.block_count()).unwrap();
        let d_out = dev.alloc::<u8>(b.block_count() * 20).unwrap();
        let starts: Vec<u32> = b.starts.iter().map(|&s| s as u32).collect();
        dev.copy_h2d(StreamId::DEFAULT, &b.data, d_data, 0, false, SimTime::ZERO);
        dev.copy_h2d(
            StreamId::DEFAULT,
            &starts,
            d_starts,
            0,
            false,
            SimTime::ZERO,
        );
        let k = Sha1Kernel {
            data: d_data,
            starts: d_starts,
            data_len: b.data.len(),
            n_blocks: b.block_count(),
            out: d_out,
        };
        dev.launch(
            StreamId::DEFAULT,
            LaunchDims::cover(b.block_count() as u64, 64),
            &k,
            SimTime::ZERO,
        );
        let mut out = vec![0u8; b.block_count() * 20];
        dev.copy_d2h(StreamId::DEFAULT, d_out, 0, &mut out, false, SimTime::ZERO);
        for blk in 0..b.block_count() {
            let expected = sha1(b.block(blk));
            assert_eq!(
                &out[blk * 20..blk * 20 + 20],
                &expected.0[..],
                "block {blk}"
            );
        }
    }

    #[test]
    fn find_match_kernel_matches_cpu_search() {
        let b = sample_batch();
        let cfg = LzssConfig {
            window: 256,
            min_coded: 3,
        };
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let dev = sys.device(0);
        let d_data = dev.alloc::<u8>(b.data.len()).unwrap();
        let d_starts = dev.alloc::<u32>(b.block_count()).unwrap();
        let d_len = dev.alloc::<u32>(b.data.len()).unwrap();
        let d_off = dev.alloc::<u32>(b.data.len()).unwrap();
        let starts: Vec<u32> = b.starts.iter().map(|&s| s as u32).collect();
        dev.copy_h2d(StreamId::DEFAULT, &b.data, d_data, 0, false, SimTime::ZERO);
        dev.copy_h2d(
            StreamId::DEFAULT,
            &starts,
            d_starts,
            0,
            false,
            SimTime::ZERO,
        );
        let k = FindMatchKernel {
            data: d_data,
            data_len: b.data.len(),
            starts: d_starts,
            n_blocks: b.block_count(),
            matches_len: d_len,
            matches_off: d_off,
            cfg,
        };
        dev.launch(
            StreamId::DEFAULT,
            LaunchDims::cover(b.data.len() as u64, 256),
            &k,
            SimTime::ZERO,
        );
        let mut lens = vec![0u32; b.data.len()];
        let mut offs = vec![0u32; b.data.len()];
        dev.copy_d2h(StreamId::DEFAULT, d_len, 0, &mut lens, false, SimTime::ZERO);
        dev.copy_d2h(StreamId::DEFAULT, d_off, 0, &mut offs, false, SimTime::ZERO);
        // Spot-check every 37th position against the CPU search.
        for blk in 0..b.block_count() {
            let r = b.block_range(blk);
            for pos in r.clone().step_by(37) {
                let (m, _) = find_match_scalar(&b.data, r.start, r.end, pos, &cfg);
                assert_eq!(
                    Match {
                        dist: offs[pos],
                        len: lens[pos]
                    },
                    m,
                    "pos {pos}"
                );
            }
        }
    }

    #[test]
    fn per_block_kernels_agree_with_batched() {
        let b = sample_batch();
        let cfg = LzssConfig {
            window: 128,
            min_coded: 3,
        };
        let sys = GpuSystem::new(1, DeviceProps::titan_xp());
        let dev = sys.device(0);
        let d_data = dev.alloc::<u8>(b.data.len()).unwrap();
        dev.copy_h2d(StreamId::DEFAULT, &b.data, d_data, 0, false, SimTime::ZERO);
        let d_len_a = dev.alloc::<u32>(b.data.len()).unwrap();
        let d_off_a = dev.alloc::<u32>(b.data.len()).unwrap();
        for blk in 0..b.block_count() {
            let r = b.block_range(blk);
            let k = FindMatchBlockKernel {
                data: d_data,
                start: r.start,
                end: r.end,
                matches_len: d_len_a,
                matches_off: d_off_a,
                cfg,
            };
            dev.launch(
                StreamId::DEFAULT,
                LaunchDims::cover((r.end - r.start) as u64, 128),
                &k,
                SimTime::ZERO,
            );
        }
        let mut lens = vec![0u32; b.data.len()];
        dev.copy_d2h(
            StreamId::DEFAULT,
            d_len_a,
            0,
            &mut lens,
            false,
            SimTime::ZERO,
        );
        // CPU reference.
        for blk in 0..b.block_count() {
            let r = b.block_range(blk);
            for pos in r.clone().step_by(53) {
                let (m, _) = find_match_scalar(&b.data, r.start, r.end, pos, &cfg);
                assert_eq!(lens[pos], m.len, "pos {pos}");
            }
        }
    }
}
