//! `dedup` — the Dedup case study (paper §IV-B): deduplicating compression
//! redesigned for GPUs.
//!
//! PARSEC's Dedup splits a stream into content-defined blocks, detects
//! duplicates by SHA-1, and compresses unique blocks. The paper's redesign
//! keeps rabin fingerprinting on the CPU over fixed 1 MB batches (Fig. 2),
//! offloads SHA-1 and LZSS match search to GPUs, and structures the whole
//! thing as a 5-stage SPar pipeline (Fig. 3). This crate builds all of it
//! from scratch:
//!
//! * [`rabin`] — rolling fingerprint and content-defined chunking;
//! * [`mod@sha1`] — FIPS 180-1 (test vectors included);
//! * [`sha1mb`] — eight-lane multi-buffer SHA-1: stage 2's digests on
//!   both its rungs, and hashsearch's CPU nonce path;
//! * [`lzss`] — the block-bounded LZSS codec + its `MatchFinder` search;
//! * [`batch`] — 1 MB batches with `startPos` block indexes (Fig. 2);
//! * [`kernels`] — GPU kernels: SHA-1 per block, `FindMatchKernel`
//!   (Listing 3), plus the slow per-block variants;
//! * [`dedupe`] — the global duplicate cache (stage 3);
//! * [`archive`] — output container **and full decompressor**, so every
//!   version is verified end-to-end;
//! * [`backend`] — stages 2 and 4 as `Workload`s over any offload front end;
//! * [`pipeline`] — the 5-stage SPar pipeline (Fig. 3) + sequential
//!   reference;
//! * [`single`] — single-threaded CUDA/OpenCL drivers with 1×/2× memory
//!   spaces (Fig. 5's standalone bars, including the pageable-memory
//!   asymmetry);
//! * [`datasets`] — seeded synthetic stand-ins for PARSEC native / Linux
//!   source / Silesia;
//! * [`costs`] — the host-side CPU cost model.

pub mod archive;
pub mod backend;
pub mod batch;
pub mod costs;
pub mod datasets;
pub mod dedupe;
pub mod kernels;
pub mod lzss;
pub mod pipeline;
pub mod rabin;
pub mod sha1;
pub mod sha1mb;
pub mod single;
pub mod stats;

pub use archive::{Archive, ArchiveError, BlockEntry};
pub use backend::{BackendCtx, OffloadBackend};
pub use batch::{make_batches, Batch, DEFAULT_BATCH_SIZE};
pub use costs::HostCosts;
pub use dedupe::{BlockClass, DedupCache};
pub use lzss::{LzssConfig, Match};
pub use pipeline::{run_pipeline, run_pipeline_rec, run_sequential, DedupConfig};
pub use rabin::RabinParams;
pub use sha1::{sha1, Digest, Sha1};
pub use stats::ArchiveStats;
