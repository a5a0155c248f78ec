//! The lane-at-a-time reference: every simulated kernel written the way a
//! GPU thread reads — one lane, its index arithmetic, its bounds check,
//! one `WorkMeter::record` — exactly as the kernels executed before they
//! went span-wise. Test-only: `simd_exactness.rs` holds the shipped
//! kernels to these bodies, byte for byte and unit for unit.

use hetstream::dedup::lzss::{find_match_scalar, LzssConfig};
use hetstream::dedup::sha1::Sha1;
use hetstream::gpusim::{DeviceMemory, DevicePtr, KernelFn, LaunchDims, WorkMeter};
use hetstream::mandel::core::{color, iterate, FractalParams};

/// `mandel::kernels::LineKernel`, one lane at a time.
pub struct LineRef {
    pub row: usize,
    pub params: FractalParams,
    pub img: DevicePtr<u8>,
}

impl KernelFn for LineRef {
    fn name(&self) -> &'static str {
        "mandel_line_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let p = &self.params;
        let step = p.step();
        let ci = p.init_b + step * self.row as f64;
        let mut img = mem.borrow_mut(self.img);
        for lane in dims.lanes() {
            let j = lane as usize; // blockIdx.x * blockDim.x + threadIdx.x
            if j < p.dim {
                let cr = p.init_a + step * j as f64;
                let k = iterate(cr, ci, p.niter);
                img[j] = color(k, p.niter);
                meter.record(lane, k.max(1) as u64);
            } else {
                meter.record(lane, 1); // bounds-check-and-exit lane
            }
        }
    }
}

/// `mandel::kernels::Line2DKernel`, one lane at a time.
pub struct Line2DRef {
    pub row: usize,
    pub params: FractalParams,
    pub img: DevicePtr<u8>,
}

impl KernelFn for Line2DRef {
    fn name(&self) -> &'static str {
        "mandel_line_2d_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let p = &self.params;
        let step = p.step();
        let ci = p.init_b + step * self.row as f64;
        let mut img = mem.borrow_mut(self.img);
        let bx = dims.block.x as u64;
        let by = dims.block.y as u64;
        let block_threads = bx * by;
        for lane in dims.lanes() {
            let block = lane / block_threads;
            let tid = lane % block_threads;
            let tx = tid % bx;
            let ty = tid / bx;
            // j = blockIdx.x * blockDim.x + threadIdx.x; threads with
            // threadIdx.y != 0 have no pixel to compute.
            let j = (block * bx + tx) as usize;
            if ty == 0 && j < p.dim {
                let cr = p.init_a + step * j as f64;
                let k = iterate(cr, ci, p.niter);
                img[j] = color(k, p.niter);
                meter.record(lane, k.max(1) as u64);
            } else {
                meter.record(lane, 1);
            }
        }
    }
}

/// `mandel::kernels::BatchKernel` (the paper's Listing 2), one lane at a
/// time.
pub struct BatchRef {
    pub batch: usize,
    pub batch_size: usize,
    pub params: FractalParams,
    pub img: DevicePtr<u8>,
}

impl KernelFn for BatchRef {
    fn name(&self) -> &'static str {
        "mandel_kernel_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let p = &self.params;
        let step = p.step();
        let mut img = mem.borrow_mut(self.img);
        for lane in dims.lanes() {
            // Listing 2 lines 2-5.
            let tid = lane as usize;
            let i_batch = tid / p.dim;
            let i = self.batch * self.batch_size + i_batch;
            let j = tid - i_batch * p.dim;
            if i < p.dim && j < p.dim && i_batch < self.batch_size {
                let ci = p.init_b + step * i as f64;
                let cr = p.init_a + step * j as f64;
                let k = iterate(cr, ci, p.niter);
                img[i_batch * p.dim + j] = color(k, p.niter);
                meter.record(lane, k.max(1) as u64);
            } else {
                meter.record(lane, 1);
            }
        }
    }
}

/// `mandel::kernels::RowSpanKernel`, one lane at a time.
pub struct RowSpanRef {
    pub first_row: usize,
    pub rows: usize,
    pub params: FractalParams,
    pub img: DevicePtr<u8>,
}

impl KernelFn for RowSpanRef {
    fn name(&self) -> &'static str {
        "mandel_rows_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let p = &self.params;
        let step = p.step();
        let mut img = mem.borrow_mut(self.img);
        for lane in dims.lanes() {
            let tid = lane as usize;
            let r = tid / p.dim;
            let i = self.first_row + r;
            let j = tid - r * p.dim;
            if r < self.rows && i < p.dim && j < p.dim {
                let ci = p.init_b + step * i as f64;
                let cr = p.init_a + step * j as f64;
                let k = iterate(cr, ci, p.niter);
                img[r * p.dim + j] = color(k, p.niter);
                meter.record(lane, k.max(1) as u64);
            } else {
                meter.record(lane, 1);
            }
        }
    }
}

/// `hashsearch::kernels::NonceSearchKernel`, one lane at a time.
pub struct NonceSearchRef {
    pub midstate: [u32; 5],
    pub header_len: u64,
    pub start_nonce: u64,
    pub n_nonces: usize,
    pub out: DevicePtr<u8>,
}

impl KernelFn for NonceSearchRef {
    fn name(&self) -> &'static str {
        "sha1_nonce_search_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let mut out = mem.borrow_mut(self.out);
        for lane in dims.lanes() {
            let i = lane as usize;
            if i < self.n_nonces {
                let mut h = Sha1::resume(self.midstate, self.header_len);
                h.update(&(self.start_nonce + i as u64).to_be_bytes());
                out[i * 20..(i + 1) * 20].copy_from_slice(&h.finalize().0);
            }
            // 8-byte suffix plus padding fits one block: exactly one
            // compression per lane, bounds-check lanes included.
            meter.record(lane, 1);
        }
    }
}

/// `dedup::kernels::FindMatchKernel` (the paper's Listing 3), one lane at
/// a time — every lane scans all of `startPoss` for its block.
pub struct FindMatchRef {
    pub data: DevicePtr<u8>,
    pub data_len: usize,
    pub starts: DevicePtr<u32>,
    pub n_blocks: usize,
    pub matches_len: DevicePtr<u32>,
    pub matches_off: DevicePtr<u32>,
    pub cfg: LzssConfig,
}

impl KernelFn for FindMatchRef {
    fn name(&self) -> &'static str {
        "FindMatchKernel_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let data = mem.borrow(self.data);
        let starts = mem.borrow(self.starts);
        let mut m_len = mem.borrow_mut(self.matches_len);
        let mut m_off = mem.borrow_mut(self.matches_off);
        for lane in dims.lanes() {
            let idx = lane as usize; // idX
            if idx >= self.data_len {
                meter.record(lane, 1);
                continue;
            }
            // Lines 4-10: locate the block containing idx (linear scan).
            let mut block = 0usize;
            for k in 0..self.n_blocks {
                if (starts[k] as usize) < idx + 1 {
                    block = k;
                }
            }
            let start = starts[block] as usize;
            let last = if block + 1 < self.n_blocks {
                starts[block + 1] as usize
            } else {
                self.data_len
            };
            let (m, probes) = find_match_scalar(&data, start, last, idx, &self.cfg);
            m_len[idx] = m.len;
            m_off[idx] = m.dist;
            // Work: the startPos scan plus the window probes.
            meter.record(lane, probes + (self.n_blocks as u64) / 4 + 1);
        }
    }
}

/// `dedup::kernels::Sha1Kernel`, one lane at a time — lane `b` hashes
/// block `b` through the scalar hasher.
pub struct Sha1Ref {
    pub data: DevicePtr<u8>,
    pub starts: DevicePtr<u32>,
    pub data_len: usize,
    pub n_blocks: usize,
    pub out: DevicePtr<u8>,
}

impl KernelFn for Sha1Ref {
    fn name(&self) -> &'static str {
        "sha1_blocks_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let data = mem.borrow(self.data);
        let starts = mem.borrow(self.starts);
        let mut out = mem.borrow_mut(self.out);
        for lane in dims.lanes() {
            let b = lane as usize;
            if b < self.n_blocks {
                let start = starts[b] as usize;
                let end = if b + 1 < self.n_blocks {
                    starts[b + 1] as usize
                } else {
                    self.data_len
                };
                let mut h = Sha1::new();
                h.update(&data[start..end]);
                out[b * 20..b * 20 + 20].copy_from_slice(&h.finalize().0);
                meter.record(lane, (end - start) as u64);
            } else {
                meter.record(lane, 1);
            }
        }
    }
}

/// `dedup::kernels::Sha1BlockKernel`, one lane at a time — only lane 0
/// hashes.
pub struct Sha1BlockRef {
    pub data: DevicePtr<u8>,
    pub start: usize,
    pub end: usize,
    pub out: DevicePtr<u8>,
    pub slot: usize,
}

impl KernelFn for Sha1BlockRef {
    fn name(&self) -> &'static str {
        "sha1_one_block_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let data = mem.borrow(self.data);
        let mut out = mem.borrow_mut(self.out);
        for lane in dims.lanes() {
            if lane == 0 {
                let mut h = Sha1::new();
                h.update(&data[self.start..self.end]);
                out[self.slot * 20..self.slot * 20 + 20].copy_from_slice(&h.finalize().0);
                meter.record(lane, (self.end - self.start) as u64);
            } else {
                meter.record(lane, 1);
            }
        }
    }
}

/// `dedup::kernels::FindMatchBlockKernel`, one lane at a time — lane `i`
/// searches position `start + i` of the one block.
pub struct FindMatchBlockRef {
    pub data: DevicePtr<u8>,
    pub start: usize,
    pub end: usize,
    pub matches_len: DevicePtr<u32>,
    pub matches_off: DevicePtr<u32>,
    pub cfg: LzssConfig,
}

impl KernelFn for FindMatchBlockRef {
    fn name(&self) -> &'static str {
        "FindMatchBlock_ref"
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let data = mem.borrow(self.data);
        let mut m_len = mem.borrow_mut(self.matches_len);
        let mut m_off = mem.borrow_mut(self.matches_off);
        for lane in dims.lanes() {
            let i = lane as usize;
            if i < self.end - self.start {
                let idx = self.start + i;
                let (m, probes) = find_match_scalar(&data, self.start, self.end, idx, &self.cfg);
                m_len[idx] = m.len;
                m_off[idx] = m.dist;
                meter.record(lane, probes + 1);
            } else {
                meter.record(lane, 1);
            }
        }
    }
}
