//! Batches and blocks — the data layout of Fig. 2.
//!
//! The paper's GPU redesign fixes the *batch* size (1 MB) so kernels always
//! get a worthwhile amount of work, and keeps rabin fingerprinting for the
//! *block* boundaries inside each batch (`startPos`), "to still benefit
//! from the rabin fingerprint ... saved all the indexes where the algorithm
//! would fragment the data" (§IV-B).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::rabin::{chunk_starts, RabinParams};

/// Default batch size: the paper's 1 MB.
pub const DEFAULT_BATCH_SIZE: usize = 1 << 20;

/// A fixed-size batch of input data plus its content-defined block starts.
///
/// A batch is a view: it shares the run's input and names its own range
/// of it, so making and passing batches copies no input bytes.
#[derive(Clone)]
pub struct Batch {
    /// Position of this batch in the stream (reorder key for stage 5).
    pub index: usize,
    /// The whole input of the run this batch belongs to.
    input: Arc<Vec<u8>>,
    /// This batch's bytes within `input` (≤ batch size; the tail batch
    /// may be shorter).
    span: Range<usize>,
    /// Start offset of every block within [`data`](Self::data) (Fig. 2's
    /// `startPos`); `starts[0] == 0`.
    pub starts: Vec<usize>,
}

impl Batch {
    /// The batch's raw input bytes.
    pub fn data(&self) -> &[u8] {
        &self.input[self.span.clone()]
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.starts.len()
    }

    /// Byte range of block `b` within [`data`](Self::data).
    pub fn block_range(&self, b: usize) -> Range<usize> {
        let start = self.starts[b];
        let end = self.starts.get(b + 1).copied().unwrap_or(self.span.len());
        start..end
    }

    /// Borrow block `b`'s bytes.
    pub fn block(&self, b: usize) -> &[u8] {
        &self.data()[self.block_range(b)]
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Batch")
            .field("index", &self.index)
            .field("span", &self.span)
            .field("blocks", &self.starts.len())
            .finish()
    }
}

/// Split `input` into fixed-size batches and fingerprint each as it is
/// asked for (stage 1 of the Fig. 3 pipeline, minus the file I/O): a
/// pipeline's source sends batch *i* on while batch *i + 1* is still to
/// be made. Every batch is a range of `input`, which the batches share.
pub fn batches(
    input: Arc<Vec<u8>>,
    batch_size: usize,
    rabin: &RabinParams,
) -> impl Iterator<Item = Batch> {
    assert!(batch_size > 0);
    let rabin = *rabin;
    (0..input.len().div_ceil(batch_size)).map(move |index| {
        let span = index * batch_size..input.len().min((index + 1) * batch_size);
        Batch {
            index,
            starts: chunk_starts(&input[span.clone()], &rabin),
            input: Arc::clone(&input),
            span,
        }
    })
}

/// Every batch of `input` at once ([`batches`] over one copy of it).
pub fn make_batches(input: &[u8], batch_size: usize, rabin: &RabinParams) -> Vec<Batch> {
    batches(Arc::new(input.to_vec()), batch_size, rabin).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn batches_cover_input_exactly() {
        let input = data(100_000);
        let batches = make_batches(&input, 1 << 14, &RabinParams::default());
        let glued: Vec<u8> = batches.iter().flat_map(|b| b.data().to_vec()).collect();
        assert_eq!(glued, input);
        assert_eq!(batches.len(), 100_000usize.div_ceil(1 << 14));
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.index, i);
        }
    }

    #[test]
    fn blocks_tile_each_batch() {
        let input = data(50_000);
        for b in make_batches(&input, 1 << 14, &RabinParams::default()) {
            let mut covered = 0;
            for blk in 0..b.block_count() {
                let r = b.block_range(blk);
                assert_eq!(r.start, covered);
                covered = r.end;
            }
            assert_eq!(covered, b.data().len());
        }
    }

    #[test]
    fn empty_input_yields_no_batches() {
        assert!(make_batches(&[], 1024, &RabinParams::default()).is_empty());
    }

    #[test]
    fn tail_batch_is_short() {
        let input = data(1000);
        let batches = make_batches(&input, 512, &RabinParams::default());
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].data().len(), 512);
        assert_eq!(batches[1].data().len(), 488);
    }
}
