//! Segmented file-log transport: durable, replayable, resumable.
//!
//! On-disk layout under `<root>/<stream-key>/`:
//!
//! ```text
//! shard-<n>/seg-<base:016x>.log   records; <base> = seq of the first one
//! shard-<n>/seg-<base:016x>.idx   one [u64 seq][u64 pos] pair per record
//! groups/<group>/shard-<n>.off    a group's committed offset: u64 next_seq
//! ```
//!
//! A record is `[u32 len][u32 crc][u64 seq][payload]` (little-endian,
//! CRC32 over the payload). Sequence numbers are dense per shard, so a
//! segment's base name tells exactly which records it holds and the
//! offset index is addressable by subtraction — entry `seq - base` at
//! byte `16 * (seq - base)`.
//!
//! Durability contract (fsync-on-ack): [`FileLogSink::send`] buffers;
//! [`FileLogSink::flush`] fsyncs log + index and only then acks every
//! [`Receipt`] sent so far, by moving the sink's ack count up to its send
//! count. A crash between send and flush loses at most
//! the unacked tail, and the producer-side reopen truncates any torn
//! record so the log always ends on a record boundary. Readers treat a
//! torn or partially flushed tail as "no data yet", never as an error.
//!
//! Consumer offsets are per *group*: `commit(shard, next_seq)` writes
//! the offset file via temp + rename + fsync, and
//! [`FileLogSource::open_resume`] seeks every shard to its committed
//! offset — the restart-and-resume half of the exactly-once story (the
//! dedup half, skipping re-emits below the egress watermark, belongs to
//! the consumer; see DESIGN.md §"Ingress/egress").

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fastflow::{BufPool, PooledBuf};

use crate::{
    AckCount, IngressError, Message, Payload, Receipt, SeqPos, SequenceNo, ShardId, Sink, Source,
    StreamKey,
};

/// Byte size a segment may reach before the next record starts a new one.
const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Sends buffered before the sink flushes on its own.
const DEFAULT_MAX_IN_FLIGHT: usize = 64;

const REC_HEADER: usize = 4 + 4 + 8;
const IDX_ENTRY: usize = 8 + 8;

/// Largest accepted record payload. A header claiming more is a torn or
/// corrupt tail, never a real record — checked *before* any allocation
/// so garbage bytes cannot demand gigabytes (mirrors `tcp::MAX_FRAME`).
const MAX_RECORD: usize = 64 << 20;

/// Segment bytes read per pool slab: the unit the reader pays a `read`,
/// a pool lease and a cross-thread release for. A record larger than
/// this gets a slab of its own size.
const BLOCK: usize = 16 << 10;

fn shard_dir(stream_dir: &Path, shard: ShardId) -> PathBuf {
    stream_dir.join(format!("shard-{}", shard.0))
}

fn seg_path(dir: &Path, base: SequenceNo, ext: &str) -> PathBuf {
    dir.join(format!("seg-{base:016x}.{ext}"))
}

/// Segment bases present in `dir`, sorted ascending.
fn list_segments(dir: &Path) -> Result<Vec<SequenceNo>, IngressError> {
    let mut bases = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("seg-")
            .and_then(|r| r.strip_suffix(".log"))
        {
            if let Ok(base) = SequenceNo::from_str_radix(hex, 16) {
                bases.push(base);
            }
        }
    }
    bases.sort_unstable();
    Ok(bases)
}

/// What the front of a byte run decodes to.
enum Decoded {
    /// A whole record: its header fields; the payload follows the header.
    Record {
        len: usize,
        crc: u32,
        seq: SequenceNo,
    },
    /// The record needs this many bytes in all; fewer are here.
    NeedMore(usize),
    /// A length no writer produces.
    Garbage,
}

/// Decode, in place, the `[len][crc][seq]` header at the front of `bytes`.
fn decode_record(bytes: &[u8]) -> Decoded {
    let Some(head) = bytes.get(..REC_HEADER) else {
        return Decoded::NeedMore(REC_HEADER);
    };
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD {
        return Decoded::Garbage; // before anything is sized from it
    }
    if bytes.len() < REC_HEADER + len {
        return Decoded::NeedMore(REC_HEADER + len);
    }
    Decoded::Record {
        len,
        crc: u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")),
        seq: u64::from_le_bytes(head[8..16].try_into().expect("8 bytes")),
    }
}

/// Where a [`BlockWalker`] step ended.
enum Step {
    /// The expected record, intact: its payload bytes within `block`.
    Record(Range<usize>),
    /// The file ends here: cleanly, or inside a record (a torn or
    /// partially flushed tail).
    End,
    /// Bytes that are not the expected record: wrong sequence number,
    /// CRC mismatch or an impossible length.
    Bad,
}

/// Walks the records of one segment file a block at a time: the file is
/// `read` straight into a pool slab, headers are validated in place, and
/// a record straddling the slab's end is carried to the front of the
/// next slab — the only bytes ever copied.
struct BlockWalker {
    file: File,
    /// The slab being walked. Record views share it, so it is replaced,
    /// never rewritten.
    block: Arc<PooledBuf<u8>>,
    /// `block[at..filled]` is read but not yet walked.
    at: usize,
    filled: usize,
    /// File offset of `block[at]`: where the next record starts.
    pos: u64,
}

/// A fresh slab of at least `need` bytes: `carry` at its front, the rest
/// read from `file`. Returns it with how many of its bytes are valid.
fn read_block(
    file: &mut File,
    carry: &[u8],
    need: usize,
    pool: &BufPool<u8>,
) -> Result<(Arc<PooledBuf<u8>>, usize), IngressError> {
    let mut block = pool.acquire(need.max(BLOCK));
    block[..carry.len()].copy_from_slice(carry);
    let mut filled = carry.len();
    while filled < block.len() {
        match file.read(&mut block[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok((Arc::new(block), filled))
}

impl BlockWalker {
    fn open(path: &Path, pos: u64, pool: &BufPool<u8>) -> Result<BlockWalker, IngressError> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(pos))?;
        let (block, filled) = read_block(&mut file, &[], 0, pool)?;
        Ok(BlockWalker {
            file,
            block,
            at: 0,
            filled,
            pos,
        })
    }

    /// Carry the unwalked tail into a fresh slab and read on until
    /// `need` bytes are there. False when the file ends first.
    fn refill(&mut self, need: usize, pool: &BufPool<u8>) -> Result<bool, IngressError> {
        let tail = &self.block[self.at..self.filled];
        let (block, filled) = read_block(&mut self.file, tail, need, pool)?;
        (self.block, self.at, self.filled) = (block, 0, filled);
        Ok(filled >= need)
    }

    /// Advance over the next record, which must carry sequence `expect`.
    fn step(&mut self, expect: SequenceNo, pool: &BufPool<u8>) -> Result<Step, IngressError> {
        loop {
            match decode_record(&self.block[self.at..self.filled]) {
                Decoded::Record { len, crc, seq } => {
                    let payload = self.at + REC_HEADER..self.at + REC_HEADER + len;
                    if seq != expect || crate::crc32(&self.block[payload.clone()]) != crc {
                        return Ok(Step::Bad);
                    }
                    self.at = payload.end;
                    self.pos += (REC_HEADER + len) as u64;
                    return Ok(Step::Record(payload));
                }
                Decoded::NeedMore(need) => {
                    if !self.refill(need, pool)? {
                        return Ok(Step::End);
                    }
                }
                Decoded::Garbage => return Ok(Step::Bad),
            }
        }
    }
}

/// Scan one segment from the front, validating records. Returns
/// `(next_seq, good_bytes, positions)`: the sequence after the last
/// intact record, the byte length of the intact prefix, and the byte
/// offset of each intact record — everything a correct offset index
/// must contain, so recovery can rebuild one.
fn scan_segment(dir: &Path, base: SequenceNo) -> Result<(SequenceNo, u64, Vec<u64>), IngressError> {
    let pool = BufPool::with_capacity(2); // the block being walked + the next
    let mut walker = BlockWalker::open(&seg_path(dir, base, "log"), 0, &pool)?;
    let mut next = base;
    let mut positions = Vec::new();
    loop {
        let pos = walker.pos;
        match walker.step(next, &pool)? {
            Step::Record(_) => positions.push(pos),
            // Torn, wrong seq chain or corrupt: the prefix ends here.
            Step::End | Step::Bad => return Ok((next, pos, positions)),
        }
        next += 1;
    }
}

// ---------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------

/// Open a segment file for the writer, creating it if absent and never
/// truncating: recovery keeps the intact prefix.
fn open_in_place(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(path)
}

struct ShardWriter {
    dir: PathBuf,
    log: BufWriter<File>,
    idx: BufWriter<File>,
    base: SequenceNo,
    next_seq: SequenceNo,
    /// Bytes in the current segment (intact prefix at open; grows per send).
    seg_bytes: u64,
    dirty: bool,
}

impl ShardWriter {
    fn open(dir: PathBuf) -> Result<ShardWriter, IngressError> {
        fs::create_dir_all(&dir)?;
        let (base, (next_seq, good, positions)) = match list_segments(&dir)?.last() {
            Some(&base) => (base, scan_segment(&dir, base)?),
            None => (0, (0, 0, Vec::new())),
        };
        let log = open_in_place(&seg_path(&dir, base, "log"))?;
        // Trims exactly the torn tail.
        log.set_len(good)?;
        // The log and idx can be torn *independently* (the log buffer
        // flushes to the OS far more often than the 16-byte-per-record
        // idx buffer, and a crash can land between the two syncs), so
        // the idx is trusted only as far as it agrees with the log scan.
        // Everything past that prefix — including entries the crash
        // never wrote — is rebuilt from the scanned record positions;
        // zero-extending here would plant seq=0/pos=0 entries that later
        // seeks read as hard corruption.
        let idx = open_in_place(&seg_path(&dir, base, "idx"))?;
        let mut valid = 0usize;
        {
            let mut rdr = BufReader::new(&idx);
            let mut e = [0u8; IDX_ENTRY];
            while valid < positions.len() {
                if rdr.read_exact(&mut e).is_err() {
                    break;
                }
                let seq = u64::from_le_bytes(e[0..8].try_into().expect("8 bytes"));
                let pos = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
                if seq != base + valid as u64 || pos != positions[valid] {
                    break;
                }
                valid += 1;
            }
        }
        idx.set_len((valid * IDX_ENTRY) as u64)?;
        let mut idx = BufWriter::new(idx);
        idx.seek(SeekFrom::Start((valid * IDX_ENTRY) as u64))?;
        for (i, &pos) in positions.iter().enumerate().skip(valid) {
            idx.write_all(&(base + i as u64).to_le_bytes())?;
            idx.write_all(&pos.to_le_bytes())?;
        }
        if valid < positions.len() {
            idx.flush()?;
            idx.get_ref().sync_data()?;
        }
        let mut log = BufWriter::new(log);
        log.seek(SeekFrom::End(0))?;
        Ok(ShardWriter {
            dir,
            log,
            idx,
            base,
            next_seq,
            seg_bytes: good,
            dirty: false,
        })
    }

    fn roll(&mut self) -> Result<(), IngressError> {
        self.sync()?;
        self.base = self.next_seq;
        self.log = BufWriter::new(open_in_place(&seg_path(&self.dir, self.base, "log"))?);
        self.idx = BufWriter::new(open_in_place(&seg_path(&self.dir, self.base, "idx"))?);
        self.seg_bytes = 0;
        Ok(())
    }

    fn append(&mut self, payload: &[u8], segment_bytes: u64) -> Result<SequenceNo, IngressError> {
        if self.seg_bytes >= segment_bytes {
            self.roll()?;
        }
        let seq = self.next_seq;
        let pos = self.seg_bytes;
        self.log.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.log.write_all(&crate::crc32(payload).to_le_bytes())?;
        self.log.write_all(&seq.to_le_bytes())?;
        self.log.write_all(payload)?;
        self.idx.write_all(&seq.to_le_bytes())?;
        self.idx.write_all(&pos.to_le_bytes())?;
        self.next_seq += 1;
        self.seg_bytes += (REC_HEADER + payload.len()) as u64;
        self.dirty = true;
        Ok(seq)
    }

    fn sync(&mut self) -> Result<(), IngressError> {
        if self.dirty {
            self.log.flush()?;
            self.log.get_ref().sync_data()?;
            self.idx.flush()?;
            self.idx.get_ref().sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }
}

/// Producer into a file-logged stream: batched sends, fsync-on-ack.
///
/// The sink keeps nothing per record: a [`Receipt`] is a position in the
/// sink's ack count, and a flush, which makes everything sent durable,
/// sets that count to the number of sends. A send between flushes
/// allocates nothing.
pub struct FileLogSink {
    writers: Vec<ShardWriter>,
    acks: AckCount,
    segment_bytes: u64,
    max_in_flight: usize,
}

impl FileLogSink {
    /// Open (or create) the stream under `root` with `shards` shards,
    /// recovering per-shard sequence state and truncating torn tails.
    pub fn open(
        root: impl AsRef<Path>,
        key: &StreamKey,
        shards: u32,
    ) -> Result<FileLogSink, IngressError> {
        let stream_dir = root.as_ref().join(key.as_str());
        let writers = (0..shards)
            .map(|s| ShardWriter::open(shard_dir(&stream_dir, ShardId(s))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FileLogSink {
            writers,
            acks: AckCount::default(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        })
    }

    /// Override the segment roll threshold (bytes). Tiny values make
    /// multi-segment layouts testable.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// Override how many sends may be in flight before an automatic
    /// flush.
    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    /// The sequence the next record sent to `shard` will get.
    pub fn next_seq(&self, shard: ShardId) -> Result<SequenceNo, IngressError> {
        self.writers
            .get(shard.0 as usize)
            .map(|w| w.next_seq)
            .ok_or(IngressError::UnknownShard(shard))
    }
}

impl Sink for FileLogSink {
    fn send(&mut self, shard: ShardId, payload: &[u8]) -> Result<Receipt, IngressError> {
        let w = self
            .writers
            .get_mut(shard.0 as usize)
            .ok_or(IngressError::UnknownShard(shard))?;
        let seq = w.append(payload, self.segment_bytes)?;
        let receipt = self.acks.issue(shard, seq);
        if self.acks.in_flight() >= self.max_in_flight as u64 {
            self.flush()?;
        }
        Ok(receipt)
    }

    fn flush(&mut self) -> Result<(), IngressError> {
        for w in &mut self.writers {
            w.sync()?;
        }
        // Everything sent is now durable.
        self.acks.ack_all();
        Ok(())
    }
}

impl Drop for FileLogSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

// ---------------------------------------------------------------------
// Consumer-group offsets
// ---------------------------------------------------------------------

/// One consumer group's durable per-shard offsets.
///
/// A [`FileLogSource`] opened with [`FileLogSource::open_resume`] holds
/// one internally, but the source is usually moved into a pump thread —
/// a standalone handle lets the *consumer* end of the pipeline commit a
/// shard's progress (after its downstream effect is durable) without
/// sharing the source.
pub struct GroupOffsets {
    dir: PathBuf,
}

impl GroupOffsets {
    /// Open (creating directories as needed) the offsets of `group` for
    /// stream `key` under `root`.
    pub fn open(
        root: impl AsRef<Path>,
        key: &StreamKey,
        group: &str,
    ) -> Result<GroupOffsets, IngressError> {
        let dir = root.as_ref().join(key.as_str()).join("groups").join(group);
        fs::create_dir_all(&dir)?;
        Ok(GroupOffsets { dir })
    }

    fn path(&self, shard: ShardId) -> PathBuf {
        self.dir.join(format!("shard-{}.off", shard.0))
    }

    /// The committed next-sequence for `shard` (`None` = never committed).
    pub fn load(&self, shard: ShardId) -> Result<Option<SequenceNo>, IngressError> {
        match fs::read(self.path(shard)) {
            Ok(bytes) if bytes.len() == 8 => Ok(Some(u64::from_le_bytes(
                bytes[..8].try_into().expect("8 bytes"),
            ))),
            Ok(_) => Ok(None), // torn offset file: start from the beginning
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Durably record that `shard` is fully consumed below `next_seq`.
    pub fn commit(&self, shard: ShardId, next_seq: SequenceNo) -> Result<(), IngressError> {
        let tmp = self.dir.join(format!("shard-{}.off.tmp", shard.0));
        let mut f = File::create(&tmp)?;
        f.write_all(&next_seq.to_le_bytes())?;
        f.sync_data()?;
        fs::rename(&tmp, self.path(shard))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Consumer
// ---------------------------------------------------------------------

struct ShardReader {
    id: ShardId,
    dir: PathBuf,
    next_seq: SequenceNo,
    /// The segment being read. Dropped on seek, roll and any failed read.
    open: Option<OpenSegment>,
}

struct OpenSegment {
    base: SequenceNo,
    /// A newer segment existed when this one was opened: the writer has
    /// rolled past it, its bytes are final and none of them is a torn tail.
    sealed: bool,
    walker: BlockWalker,
}

impl ShardReader {
    fn new(id: ShardId, dir: PathBuf, next_seq: SequenceNo) -> ShardReader {
        ShardReader {
            id,
            dir,
            next_seq,
            open: None,
        }
    }

    /// Open the segment holding `self.next_seq`, positioned on that
    /// record through the offset index. `Ok(false)` = that record does
    /// not exist (yet).
    fn open_segment(&mut self, pool: &BufPool<u8>) -> Result<bool, IngressError> {
        let bases = list_segments(&self.dir)?;
        let Some(&oldest) = bases.first() else {
            return Ok(false);
        };
        // A pre-retention seek clamps up to the oldest retained record.
        self.next_seq = self.next_seq.max(oldest);
        let base = *bases
            .iter()
            .rfind(|&&b| b <= self.next_seq)
            .expect("the oldest base is at or below next_seq");
        let idx_path = seg_path(&self.dir, base, "idx");
        let mut idx = File::open(&idx_path)?;
        let entry = self.next_seq - base;
        if idx.metadata()?.len() < (entry + 1) * IDX_ENTRY as u64 {
            return Ok(false); // not indexed yet
        }
        idx.seek(SeekFrom::Start(entry * IDX_ENTRY as u64))?;
        let mut e = [0u8; IDX_ENTRY];
        idx.read_exact(&mut e)?;
        let seq = u64::from_le_bytes(e[0..8].try_into().expect("8 bytes"));
        let pos = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
        if seq != self.next_seq {
            return Err(IngressError::Corrupt(format!(
                "index {}: entry {entry} holds seq {seq}, expected {}",
                idx_path.display(),
                self.next_seq
            )));
        }
        self.open = Some(OpenSegment {
            base,
            sealed: bases.last() != Some(&base),
            walker: BlockWalker::open(&seg_path(&self.dir, base, "log"), pos, pool)?,
        });
        Ok(true)
    }

    /// The record at `next_seq`, as a view of the block slab it was read
    /// into. `Ok(None)` = nothing (durable) there yet.
    fn read_next(&mut self, pool: &BufPool<u8>) -> Result<Option<Message>, IngressError> {
        loop {
            if self.open.is_none() && !self.open_segment(pool)? {
                return Ok(None);
            }
            let seg = self.open.as_mut().expect("a segment is open");
            match seg.walker.step(self.next_seq, pool)? {
                Step::Record(range) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    return Ok(Some(Message {
                        shard: self.id,
                        seq,
                        payload: Payload::view(&seg.walker.block, range),
                    }));
                }
                Step::End => {
                    // Clean EOF or a torn / partially flushed tail: start
                    // over from the index next time. If the writer
                    // rolled, the record lives in a newer segment —
                    // go there now.
                    let base = seg.base;
                    self.open = None;
                    let rolled = list_segments(&self.dir)?
                        .iter()
                        .any(|&b| b > base && b <= self.next_seq);
                    if !rolled {
                        return Ok(None);
                    }
                }
                Step::Bad => {
                    // On the live tail this is what a crash leaves behind
                    // (the writer's reopen truncates it): no data yet. In
                    // a sealed segment it can only be damage, and
                    // re-reading it every poll would hide that forever.
                    let (base, sealed, pos) = (seg.base, seg.sealed, seg.walker.pos);
                    self.open = None;
                    if sealed {
                        return Err(IngressError::Corrupt(format!(
                            "sealed segment {}: no valid record seq {} at byte {pos}",
                            seg_path(&self.dir, base, "log").display(),
                            self.next_seq
                        )));
                    }
                    return Ok(None);
                }
            }
        }
    }

    fn seek(&mut self, pos: SeqPos) -> Result<(), IngressError> {
        self.open = None;
        self.next_seq = match pos {
            SeqPos::At(seq) => seq,
            SeqPos::Beginning => list_segments(&self.dir)?.first().copied().unwrap_or(0),
            // The durable watermark: past the newest segment's last
            // intact record.
            SeqPos::End => match list_segments(&self.dir)?.last() {
                Some(&base) => scan_segment(&self.dir, base)?.0,
                None => 0,
            },
        };
        Ok(())
    }
}

/// Consumer over a file-logged stream: replay or resumable — the same
/// type, differing only in whether it keeps group offsets.
pub struct FileLogSource {
    key: StreamKey,
    stream_dir: PathBuf,
    pool: BufPool<u8>,
    readers: Vec<ShardReader>,
    offsets: Option<GroupOffsets>,
    rr: usize,
}

impl FileLogSource {
    fn discover_shards(stream_dir: &Path) -> Result<Vec<ShardId>, IngressError> {
        let mut shards = Vec::new();
        match fs::read_dir(stream_dir) {
            Ok(entries) => {
                for entry in entries {
                    let name = entry?.file_name();
                    if let Some(n) = name.to_string_lossy().strip_prefix("shard-") {
                        if let Ok(n) = n.parse::<u32>() {
                            shards.push(ShardId(n));
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        shards.sort_unstable();
        Ok(shards)
    }

    fn open_with(
        root: impl AsRef<Path>,
        key: &StreamKey,
        group: Option<&str>,
        pool: BufPool<u8>,
    ) -> Result<FileLogSource, IngressError> {
        let stream_dir = root.as_ref().join(key.as_str());
        let offsets = match group {
            Some(g) => Some(GroupOffsets::open(root, key, g)?),
            None => None,
        };
        let mut source = FileLogSource {
            key: key.clone(),
            stream_dir,
            pool,
            readers: Vec::new(),
            offsets,
            rr: 0,
        };
        source.refresh_shards()?;
        Ok(source)
    }

    /// Start reading every shard of `ids` this source does not read yet:
    /// at the group's committed offset when it has one, else at the
    /// beginning. True when a shard was added.
    fn start_readers(&mut self, ids: Vec<ShardId>) -> Result<bool, IngressError> {
        let before = self.readers.len();
        for id in ids {
            if self.readers.iter().any(|r| r.id == id) {
                continue;
            }
            let mut r = ShardReader::new(id, shard_dir(&self.stream_dir, id), 0);
            match self.committed(id)? {
                Some(next) => r.next_seq = next,
                None => r.seek(SeqPos::Beginning)?,
            }
            self.readers.push(r);
        }
        self.readers.sort_unstable_by_key(|r| r.id);
        Ok(self.readers.len() > before)
    }

    /// Replay mode: start at each shard's beginning, no offset storage.
    pub fn open_replay(
        root: impl AsRef<Path>,
        key: &StreamKey,
        pool: BufPool<u8>,
    ) -> Result<FileLogSource, IngressError> {
        Self::open_with(root, key, None, pool)
    }

    /// Resumable mode: start each shard at `group`'s committed offset
    /// (beginning when the group has none); `commit` persists offsets.
    pub fn open_resume(
        root: impl AsRef<Path>,
        key: &StreamKey,
        group: &str,
        pool: BufPool<u8>,
    ) -> Result<FileLogSource, IngressError> {
        Self::open_with(root, key, Some(group), pool)
    }

    /// The offset this source's shard cursor currently sits at.
    pub fn position(&self, shard: ShardId) -> Option<SequenceNo> {
        self.readers
            .iter()
            .find(|r| r.id == shard)
            .map(|r| r.next_seq)
    }

    /// The shards this source currently reads, in id order.
    pub fn assigned_shards(&self) -> Vec<ShardId> {
        self.readers.iter().map(|r| r.id).collect()
    }

    /// Reposition one shard's cursor.
    pub fn seek(&mut self, shard: ShardId, pos: SeqPos) -> Result<(), IngressError> {
        // Repositioning restarts the round-robin from shard order, so a
        // rewound replay interleaves exactly like the first pass —
        // replay determinism is part of the contract.
        self.rr = 0;
        self.readers
            .iter_mut()
            .find(|r| r.id == shard)
            .ok_or(IngressError::UnknownShard(shard))?
            .seek(pos)
    }

    /// Reposition every assigned shard to [`SeqPos::Beginning`].
    pub fn rewind(&mut self) -> Result<(), IngressError> {
        for shard in self.assigned_shards() {
            self.seek(shard, SeqPos::Beginning)?;
        }
        Ok(())
    }

    /// Durably record that this consumer (group) has processed shard
    /// records *below* `next_seq`; a later `open_resume` starts there.
    /// A replay source keeps no offsets and accepts and ignores it.
    pub fn commit(&mut self, shard: ShardId, next_seq: SequenceNo) -> Result<(), IngressError> {
        match &self.offsets {
            Some(store) => store.commit(shard, next_seq),
            None => Ok(()),
        }
    }

    /// The committed offset stored for `shard` (resumable mode).
    pub fn committed(&self, shard: ShardId) -> Result<Option<SequenceNo>, IngressError> {
        match &self.offsets {
            Some(store) => store.load(shard),
            None => Ok(None),
        }
    }

    /// Pick up shard directories not read yet: all of them at open, and
    /// any created since. A source opened before the producer ever wrote
    /// would otherwise keep an empty reader set forever. Shards start at
    /// their committed offset when one exists, else at the beginning.
    /// Returns true when a shard was added.
    fn refresh_shards(&mut self) -> Result<bool, IngressError> {
        let all = Self::discover_shards(&self.stream_dir)?;
        let added = self.start_readers(all)?;
        if added {
            self.rr = 0;
        }
        Ok(added)
    }

    /// One round-robin sweep over the current reader set.
    fn poll_readers(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, IngressError> {
        if self.readers.is_empty() {
            return Ok(0);
        }
        let mut got = 0;
        let mut dry = 0;
        while got < max && dry < self.readers.len() {
            let i = self.rr % self.readers.len();
            self.rr += 1;
            match self.readers[i].read_next(&self.pool) {
                Ok(Some(msg)) => {
                    out.push(msg);
                    got += 1;
                    dry = 0;
                }
                Ok(None) => dry += 1,
                // Deliver what precedes the failure; it recurs next call.
                Err(_) if got > 0 => break,
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }
}

impl Source for FileLogSource {
    fn stream_key(&self) -> &StreamKey {
        &self.key
    }

    fn next_batch(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, IngressError> {
        if max == 0 {
            return Ok(0);
        }
        let mut got = self.poll_readers(out, max)?;
        // An idle sweep is the cheap moment to look for shard
        // directories that did not exist at open (producer started
        // later, or added shards).
        if got == 0 && self.refresh_shards()? {
            got = self.poll_readers(out, max)?;
        }
        Ok(got)
    }
}

/// Read a whole stream back as `shard -> ordered payload list` — the
/// verification helper the kill-and-resume demo and tests use to prove
/// bit-exactness.
pub fn read_all(
    root: impl AsRef<Path>,
    key: &StreamKey,
) -> Result<HashMap<u32, Vec<Vec<u8>>>, IngressError> {
    let mut src = FileLogSource::open_replay(root, key, BufPool::new())?;
    let mut out = HashMap::new();
    let mut batch = Vec::new();
    loop {
        batch.clear();
        if src.next_batch(&mut batch, 256)? == 0 {
            break;
        }
        for msg in batch.drain(..) {
            let rows: &mut Vec<Vec<u8>> = out.entry(msg.shard.0).or_default();
            if msg.seq as usize != rows.len() {
                return Err(IngressError::Corrupt(format!(
                    "shard {} replay out of order: seq {} at position {}",
                    msg.shard,
                    msg.seq,
                    rows.len()
                )));
            }
            rows.push(msg.payload.to_vec());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hetstream_ingress_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn key() -> StreamKey {
        StreamKey::new("t").expect("valid key")
    }

    /// Records the largest slab a pool ever allocated.
    #[derive(Default)]
    struct LargestSlab(AtomicUsize);

    impl fastflow::SlabRegistrar for LargestSlab {
        fn register(&self, _ptr: usize, bytes: usize) {
            self.0.fetch_max(bytes, Ordering::Relaxed);
        }
        fn unregister(&self, _ptr: usize, _bytes: usize) {}
    }

    /// Everything `src` has right now, in delivery order.
    fn drain(src: &mut FileLogSource, max: usize) -> Vec<Message> {
        let mut msgs = Vec::new();
        while src.next_batch(&mut msgs, max).expect("read") > 0 {}
        msgs
    }

    fn log_path(root: &Path, base: SequenceNo) -> PathBuf {
        seg_path(&shard_dir(&root.join("t"), ShardId(0)), base, "log")
    }

    #[test]
    fn produce_flush_consume_roundtrip() {
        let root = tmpdir("roundtrip");
        let mut sink = FileLogSink::open(&root, &key(), 2).expect("open sink");
        let mut receipts = Vec::new();
        for i in 0..10u32 {
            let r = sink
                .send(ShardId(i % 2), format!("payload-{i}").as_bytes())
                .expect("send");
            receipts.push(r);
        }
        assert!(
            receipts.iter().all(|r| !r.is_acked()),
            "acks wait for flush"
        );
        sink.flush().expect("flush");
        assert!(receipts.iter().all(Receipt::is_acked), "flush acks all");

        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        while src.next_batch(&mut msgs, 64).expect("read") > 0 {}
        assert_eq!(msgs.len(), 10);
        for m in &msgs {
            let text = String::from_utf8(m.payload.to_vec()).expect("utf8");
            let i: u32 = text
                .strip_prefix("payload-")
                .expect("prefix")
                .parse()
                .expect("n");
            assert_eq!(m.shard.0, i % 2);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_window_of_k_acks_exactly_the_whole_windows_before_the_final_flush() {
        let root = tmpdir("window");
        for (n, k) in [(23u64, 5usize), (20, 5), (4, 5), (7, 1)] {
            let mut sink = FileLogSink::open(&root, &key(), 3)
                .expect("open sink")
                .with_max_in_flight(k);
            let receipts: Vec<Receipt> = (0..n)
                .map(|i| {
                    sink.send(ShardId(i as u32 % 3), &i.to_le_bytes())
                        .expect("send")
                })
                .collect();
            let whole = (n / k as u64 * k as u64) as usize;
            let acked: Vec<bool> = receipts.iter().map(Receipt::is_acked).collect();
            let mut want = vec![true; whole];
            want.resize(n as usize, false);
            assert_eq!(acked, want, "n {n}, k {k}");
            sink.flush().expect("flush");
            assert!(receipts.iter().all(Receipt::is_acked), "n {n}, k {k}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_clone_taken_before_the_ack_sees_the_ack() {
        let root = tmpdir("clone");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("open sink");
        let receipt = sink.send(ShardId(0), b"one").expect("send");
        let clone = receipt.clone();
        assert!(!clone.is_acked());
        sink.flush().expect("flush");
        assert!(clone.is_acked() && receipt.is_acked());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn receipts_of_two_sinks_never_share_an_ack() {
        let root = tmpdir("two_sinks");
        let other = StreamKey::new("u").expect("valid key");
        let mut a = FileLogSink::open(&root, &key(), 1).expect("open a");
        let mut b = FileLogSink::open(&root, &other, 1).expect("open b");
        // Both are their sink's first send: the same position, in two counts.
        let ra = a.send(ShardId(0), b"a").expect("send a");
        let rb = b.send(ShardId(0), b"b").expect("send b");
        a.flush().expect("flush a");
        assert!(ra.is_acked());
        assert!(!rb.is_acked(), "a's flush acked b's record");
        let rb2 = b.send(ShardId(0), b"b2").expect("send b");
        a.flush().expect("flush a again");
        assert!(!rb.is_acked() && !rb2.is_acked());
        b.flush().expect("flush b");
        assert!(rb.is_acked() && rb2.is_acked());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn segments_roll_and_replay_across_the_boundary() {
        let root = tmpdir("roll");
        let mut sink = FileLogSink::open(&root, &key(), 1)
            .expect("open sink")
            .with_segment_bytes(64);
        for i in 0..20u8 {
            sink.send(ShardId(0), &[i; 24]).expect("send");
        }
        sink.flush().expect("flush");
        let dir = shard_dir(&root.join("t"), ShardId(0));
        assert!(
            list_segments(&dir).expect("list").len() > 1,
            "tiny threshold must produce multiple segments"
        );
        let all = read_all(&root, &key()).expect("read back");
        assert_eq!(all[&0].len(), 20);
        for (i, p) in all[&0].iter().enumerate() {
            assert_eq!(p, &vec![i as u8; 24]);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopened_sink_truncates_torn_tail_and_resumes_seq() {
        let root = tmpdir("torn");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            sink.send(ShardId(0), b"alpha").expect("send");
            sink.send(ShardId(0), b"beta").expect("send");
            sink.flush().expect("flush");
        }
        // Tear the log mid-record, as a crash between write and fsync
        // would.
        let log = seg_path(&shard_dir(&root.join("t"), ShardId(0)), 0, "log");
        let full = fs::metadata(&log).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&log).expect("open log");
        f.set_len(full + 7).expect("fake torn half-record"); // garbage tail
        drop(f);
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("reopen");
        assert_eq!(sink.next_seq(ShardId(0)).expect("seq"), 2, "two intact");
        assert_eq!(fs::metadata(&log).expect("meta").len(), full, "tail gone");
        sink.send(ShardId(0), b"gamma").expect("send");
        sink.flush().expect("flush");
        let all = read_all(&root, &key()).expect("read back");
        assert_eq!(
            all[&0],
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_rebuilds_index_entries_lost_in_crash() {
        // The log can be durable while the trailing idx entries are not
        // (crash between the two syncs, or BufWriter flush asymmetry).
        // Reopen must rebuild those entries from the log scan — the old
        // zero-extend planted seq=0/pos=0 entries that made any later
        // seek into that range a hard Corrupt error.
        let root = tmpdir("idxloss");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            for i in 0..6u8 {
                sink.send(ShardId(0), &[i; 10]).expect("send");
            }
            sink.flush().expect("flush");
        }
        let idx = seg_path(&shard_dir(&root.join("t"), ShardId(0)), 0, "idx");
        let full = fs::metadata(&idx).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&idx).expect("open idx");
        f.set_len(full - 2 * IDX_ENTRY as u64)
            .expect("drop last two idx entries");
        drop(f);
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("reopen");
        assert_eq!(sink.next_seq(ShardId(0)).expect("seq"), 6);
        assert_eq!(
            fs::metadata(&idx).expect("meta").len(),
            full,
            "reopen restores the missing idx entries"
        );
        // Seek straight into the formerly zero-extended range.
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        src.seek(ShardId(0), SeqPos::At(4)).expect("seek");
        let mut msgs = Vec::new();
        while src
            .next_batch(&mut msgs, 8)
            .expect("read past rebuilt entries")
            > 0
        {}
        assert_eq!(
            msgs.iter().map(|m| m.seq).collect::<Vec<_>>(),
            vec![4, 5],
            "rebuilt index addresses the tail records"
        );
        assert_eq!(&msgs[0].payload[..], &[4u8; 10]);
        // And the reopened sink keeps appending consistently.
        sink.send(ShardId(0), &[6; 10]).expect("send");
        sink.flush().expect("flush");
        let all = read_all(&root, &key()).expect("read back");
        assert_eq!(all[&0].len(), 7);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_replaces_corrupt_index_entries() {
        // Not just missing entries: garbage in the idx (torn write) must
        // be detected against the log scan and rewritten.
        let root = tmpdir("idxgarbage");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            for i in 0..4u8 {
                sink.send(ShardId(0), &[i; 8]).expect("send");
            }
            sink.flush().expect("flush");
        }
        let idx = seg_path(&shard_dir(&root.join("t"), ShardId(0)), 0, "idx");
        let mut f = OpenOptions::new().write(true).open(&idx).expect("open idx");
        f.seek(SeekFrom::Start(2 * IDX_ENTRY as u64)).expect("seek");
        f.write_all(&[0xAA; 2 * IDX_ENTRY]).expect("scribble");
        drop(f);
        let _ = FileLogSink::open(&root, &key(), 1).expect("reopen");
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        src.seek(ShardId(0), SeqPos::At(2)).expect("seek");
        let mut msgs = Vec::new();
        while src.next_batch(&mut msgs, 8).expect("read") > 0 {}
        assert_eq!(msgs.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![2, 3]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn oversized_length_header_is_torn_tail_not_allocation() {
        // A garbage header claiming ~4 GiB must be rejected before any
        // buffer is sized from it — reader treats it as a torn tail,
        // writer reopen truncates it.
        let root = tmpdir("hugelen");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            sink.send(ShardId(0), b"good").expect("send");
            sink.flush().expect("flush");
        }
        let log = seg_path(&shard_dir(&root.join("t"), ShardId(0)), 0, "log");
        let full = fs::metadata(&log).expect("meta").len();
        let mut f = OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("open log");
        let mut garbage = Vec::new();
        garbage.extend_from_slice(&u32::MAX.to_le_bytes()); // len ~4 GiB
        garbage.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // crc
        garbage.extend_from_slice(&1u64.to_le_bytes()); // seq (would chain)
        f.write_all(&garbage).expect("append garbage header");
        drop(f);
        let largest = Arc::new(LargestSlab::default());
        let pool =
            BufPool::with_registrar(Arc::clone(&largest) as Arc<dyn fastflow::SlabRegistrar>);
        let mut src = FileLogSource::open_replay(&root, &key(), pool).expect("open");
        let mut msgs = Vec::new();
        while src
            .next_batch(&mut msgs, 8)
            .expect("no error, no huge alloc")
            > 0
        {}
        assert_eq!(msgs.len(), 1, "only the intact record is delivered");
        assert_eq!(
            largest.0.load(Ordering::Relaxed),
            BLOCK,
            "the garbage length sized no lease: the pool saw block slabs only"
        );
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("reopen");
        assert_eq!(sink.next_seq(ShardId(0)).expect("seq"), 1);
        assert_eq!(
            fs::metadata(&log).expect("meta").len(),
            full,
            "reopen truncates the garbage tail"
        );
        sink.send(ShardId(0), b"next").expect("send");
        sink.flush().expect("flush");
        let all = read_all(&root, &key()).expect("read back");
        assert_eq!(all[&0], vec![b"good".to_vec(), b"next".to_vec()]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn source_opened_before_sink_discovers_shards_later() {
        // A non-group source opened before the producer created any
        // shard directory must pick them up once they appear instead of
        // returning 0 forever.
        let root = tmpdir("latesink");
        fs::create_dir_all(root.join("t")).expect("stream dir");
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        assert_eq!(src.next_batch(&mut msgs, 8).expect("read"), 0);
        assert!(src.assigned_shards().is_empty());
        let mut sink = FileLogSink::open(&root, &key(), 2).expect("open sink");
        for i in 0..4u8 {
            sink.send(ShardId(u32::from(i % 2)), &[i]).expect("send");
        }
        sink.flush().expect("flush");
        while src.next_batch(&mut msgs, 8).expect("read") > 0 {}
        assert_eq!(msgs.len(), 4, "late-created shards are discovered");
        assert_eq!(src.assigned_shards(), vec![ShardId(0), ShardId(1)]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn committed_offsets_resume_where_the_group_left_off() {
        let root = tmpdir("resume");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
        for i in 0..6u8 {
            sink.send(ShardId(0), &[i]).expect("send");
        }
        sink.flush().expect("flush");
        {
            let mut src = FileLogSource::open_resume(&root, &key(), "g", fastflow::BufPool::new())
                .expect("open");
            let mut msgs = Vec::new();
            src.next_batch(&mut msgs, 4).expect("read");
            assert_eq!(msgs.len(), 4);
            src.commit(ShardId(0), 4).expect("commit");
        }
        let mut src = FileLogSource::open_resume(&root, &key(), "g", fastflow::BufPool::new())
            .expect("reopen");
        assert_eq!(src.committed(ShardId(0)).expect("load"), Some(4));
        let mut msgs = Vec::new();
        src.next_batch(&mut msgs, 16).expect("read");
        let seqs: Vec<u64> = msgs.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![4, 5], "resume starts at the committed offset");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn seek_and_rewind_replay_deterministically() {
        let root = tmpdir("seek");
        let mut sink = FileLogSink::open(&root, &key(), 1)
            .expect("open")
            .with_segment_bytes(48);
        for i in 0..12u8 {
            sink.send(ShardId(0), &[i, i, i]).expect("send");
        }
        sink.flush().expect("flush");
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let drain = |src: &mut FileLogSource| {
            let mut msgs = Vec::new();
            while src.next_batch(&mut msgs, 8).expect("read") > 0 {}
            msgs.iter().map(|m| m.seq).collect::<Vec<_>>()
        };
        let first = drain(&mut src);
        assert_eq!(first, (0..12).collect::<Vec<u64>>());
        src.seek(ShardId(0), SeqPos::At(7)).expect("seek");
        assert_eq!(drain(&mut src), (7..12).collect::<Vec<u64>>());
        src.rewind().expect("rewind");
        assert_eq!(drain(&mut src), first, "rewind replays identically");
        src.seek(ShardId(0), SeqPos::End).expect("end");
        assert_eq!(drain(&mut src), Vec::<u64>::new());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn realtime_source_sees_only_new_records() {
        let root = tmpdir("realtime");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
        sink.send(ShardId(0), b"old").expect("send");
        sink.flush().expect("flush");
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        src.seek(ShardId(0), SeqPos::End).expect("end");
        let mut msgs = Vec::new();
        assert_eq!(src.next_batch(&mut msgs, 8).expect("read"), 0);
        sink.send(ShardId(0), b"new").expect("send");
        sink.flush().expect("flush");
        assert_eq!(src.next_batch(&mut msgs, 8).expect("read"), 1);
        assert_eq!(&msgs[0].payload[..], b"new");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unflushed_records_are_invisible_to_readers() {
        let root = tmpdir("unflushed");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
        sink.send(ShardId(0), b"pending").expect("send");
        // No flush: the record may sit in the BufWriter; whatever the
        // reader sees must parse as either nothing or the whole record —
        // and commit-before-flush semantics say nothing.
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        let _ = src.next_batch(&mut msgs, 8).expect("no error on torn tail");
        sink.flush().expect("flush");
        while src.next_batch(&mut msgs, 8).expect("read") > 0 {}
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0].payload[..], b"pending");
        let _ = fs::remove_dir_all(&root);
    }

    /// A record of a size that puts every boundary case in play: empty,
    /// a few bytes (so a 16-byte header lands across a block edge),
    /// mid-sized (so a payload does), about a block, three blocks.
    fn draw_record(rng: &mut simtime::XorShift64) -> Vec<u8> {
        let len = match rng.below(64) {
            0..=15 => 0,
            16..=47 => rng.range_usize(1, 64),
            48..=58 => rng.range_usize(BLOCK / 16, BLOCK / 3),
            59..=62 => rng.range_usize(BLOCK - 64, BLOCK + 64),
            _ => 3 * BLOCK,
        };
        rng.bytes(len)
    }

    /// How many records of one shard start with their header, and how
    /// many with their payload, across a reader block's end: a block
    /// begins where the carried record does and is `BLOCK` long, or the
    /// record's length if that is more.
    fn straddles(lens: &[usize]) -> (usize, usize) {
        let (mut room, mut header, mut payload) = (BLOCK, 0, 0);
        for len in lens {
            let n = REC_HEADER + len;
            if n > room {
                match room {
                    0 => {}
                    1..REC_HEADER => header += 1,
                    _ => payload += 1,
                }
                room = n.max(BLOCK);
            }
            room -= n;
        }
        (header, payload)
    }

    #[test]
    fn records_straddling_block_edges_replay_and_rewind_exactly() {
        const SHARDS: u32 = 3;
        let root = tmpdir("straddle");
        let mut rng = simtime::XorShift64::new(0xB10C_ED6E);
        let mut sink = FileLogSink::open(&root, &key(), SHARDS)
            .expect("open")
            .with_segment_bytes(40 * BLOCK as u64);
        let mut sent: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SHARDS as usize];
        for i in 0..3000 {
            let payload = draw_record(&mut rng);
            sink.send(ShardId(i % SHARDS), &payload).expect("send");
            sent[(i % SHARDS) as usize].push(payload);
        }
        sink.flush().expect("flush");
        for rows in &sent {
            let lens: Vec<usize> = rows.iter().map(Vec::len).collect();
            let (header, payload) = straddles(&lens);
            assert!(
                header > 0 && payload > 0,
                "the draw must straddle both ways"
            );
            assert!(lens.contains(&0) && lens.contains(&(3 * BLOCK)));
        }
        let dir = shard_dir(&root.join("t"), ShardId(0));
        assert!(list_segments(&dir).expect("list").len() > 1, "and roll");

        let mut src = FileLogSource::open_replay(&root, &key(), BufPool::new()).expect("open");
        let first = drain(&mut src, 7);
        assert_eq!(first.len(), 3000);
        let mut next = [0u64; SHARDS as usize];
        for m in &first {
            let s = m.shard.0 as usize;
            assert_eq!(m.seq, next[s], "dense per shard");
            assert_eq!(&m.payload[..], &sent[s][m.seq as usize][..]);
            next[s] += 1;
        }
        // A rewound replay interleaves exactly like the first pass,
        // whatever the batch size and wherever the blocks fall.
        src.rewind().expect("rewind");
        let again = drain(&mut src, 64);
        assert!(first
            .iter()
            .zip(&again)
            .all(|(a, b)| (a.shard, a.seq, &a.payload[..]) == (b.shard, b.seq, &b.payload[..])));
        assert_eq!(again.len(), first.len());
        src.seek(ShardId(1), SeqPos::At(600)).expect("seek");
        let tail = drain(&mut src, 5);
        assert_eq!(tail.len(), 400, "only the re-positioned shard has data");
        assert_eq!(&tail[0].payload[..], &sent[1][600][..]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tail_torn_at_a_block_edge_resumes_without_duplicate_or_gap() {
        // Record 1 starts `lead` bytes into the log, so byte BLOCK — where
        // the reader's first block ends and the file is cut — falls inside
        // its header (lead = BLOCK - 8) or its payload (BLOCK - 66).
        for lead in [BLOCK - 8, BLOCK - 66] {
            let root = tmpdir("tornedge");
            let mut rng = simtime::XorShift64::new(lead as u64);
            let records = [rng.bytes(lead - REC_HEADER), rng.bytes(100), rng.bytes(30)];
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            for r in &records {
                sink.send(ShardId(0), r).expect("send");
            }
            sink.flush().expect("flush");
            let log = log_path(&root, 0);
            let full = fs::read(&log).expect("read log");
            let f = OpenOptions::new().write(true).open(&log).expect("open");
            f.set_len(BLOCK as u64).expect("tear at the block edge");

            let mut src = FileLogSource::open_replay(&root, &key(), BufPool::new()).expect("open");
            let mut msgs = drain(&mut src, 8);
            assert_eq!(msgs.len(), 1, "the torn record is no data yet");
            assert_eq!(src.next_batch(&mut msgs, 8).expect("still no error"), 0);
            // The rest of the flush lands.
            let mut f = OpenOptions::new().append(true).open(&log).expect("open");
            f.write_all(&full[BLOCK..]).expect("complete the tail");
            msgs.extend(drain(&mut src, 8));
            assert_eq!(msgs.iter().map(|m| m.seq).collect::<Vec<_>>(), [0, 1, 2]);
            for (m, r) in msgs.iter().zip(&records) {
                assert_eq!(&m.payload[..], &r[..]);
            }
            let _ = fs::remove_dir_all(&root);
        }
    }

    /// 60 records of 100 bytes over shard 0, rolling after each 30, with
    /// one payload bit of record `victim` flipped on disk.
    fn log_with_flipped_bit(root: &Path, victim: u64) {
        let mut sink = FileLogSink::open(root, &key(), 1)
            .expect("open")
            .with_segment_bytes(30 * 116);
        for i in 0..60u8 {
            sink.send(ShardId(0), &[i; 100]).expect("send");
        }
        sink.flush().expect("flush");
        let base = victim / 30 * 30;
        let mut f = OpenOptions::new()
            .write(true)
            .open(log_path(root, base))
            .expect("open log");
        f.seek(SeekFrom::Start(
            (victim - base) * 116 + REC_HEADER as u64 + 50,
        ))
        .expect("seek");
        f.write_all(&[victim as u8 ^ 0x10]).expect("flip a bit");
    }

    #[test]
    fn bad_record_on_the_live_tail_is_no_data_yet() {
        let root = tmpdir("flip-tail");
        log_with_flipped_bit(&root, 45);
        let mut src = FileLogSource::open_replay(&root, &key(), BufPool::new()).expect("open");
        let mut msgs = drain(&mut src, 8);
        // Every record ahead of it in its block, nothing after it.
        assert_eq!(
            msgs.iter().map(|m| m.seq).collect::<Vec<_>>(),
            (0..45).collect::<Vec<_>>()
        );
        assert_eq!(src.next_batch(&mut msgs, 8).expect("not an error"), 0);
        assert_eq!(src.position(ShardId(0)), Some(45));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_record_in_a_sealed_segment_is_corrupt() {
        let root = tmpdir("flip-sealed");
        log_with_flipped_bit(&root, 20);
        let mut src = FileLogSource::open_replay(&root, &key(), BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        let err = loop {
            match src.next_batch(&mut msgs, 8) {
                Ok(n) => assert!(n > 0, "a sealed segment never reads as 'no data yet'"),
                Err(e) => break e,
            }
        };
        assert_eq!(
            msgs.iter().map(|m| m.seq).collect::<Vec<_>>(),
            (0..20).collect::<Vec<_>>(),
            "every record ahead of the damage is delivered first"
        );
        let IngressError::Corrupt(what) = err else {
            panic!("expected Corrupt, got {err}");
        };
        let file = log_path(&root, 0).display().to_string();
        assert!(
            what.contains(&file) && what.contains("seq 20") && what.contains("byte 2320"),
            "names file, seq and offset: {what}"
        );
        assert!(
            matches!(src.next_batch(&mut msgs, 8), Err(IngressError::Corrupt(_))),
            "and keeps saying so"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn views_outlive_reader_and_source_and_return_their_slab() {
        let root = tmpdir("outlive");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
        for i in 0..=255u8 {
            sink.send(ShardId(0), &[i; 200]).expect("send");
        }
        sink.flush().expect("flush");
        drop(sink);
        let pool = BufPool::new();
        let mut src = FileLogSource::open_replay(&root, &key(), pool.clone()).expect("open");
        let mut msgs = drain(&mut src, 64);
        drop(src);
        let _ = fs::remove_dir_all(&root);
        assert_eq!(msgs.len(), 256);
        assert_eq!(pool.stats().outstanding, 4, "256 x 216 bytes = 4 blocks");
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(&m.payload[..], &[i as u8; 200][..]);
        }
        // One parked record retains its whole block, and only that one.
        let parked = msgs.swap_remove(100);
        drop(msgs);
        assert_eq!(pool.stats().outstanding, 1);
        assert_eq!(&parked.payload[..], &[100u8; 200][..]);
        drop(parked);
        assert_eq!(pool.stats().outstanding, 0);
    }

    #[test]
    fn on_disk_format_is_the_parent_commits() {
        // An independent writer of the documented layout — bitwise CRC,
        // no code shared with the sink — must produce the sink's files
        // byte for byte (this reader's logs replay under the old code)
        // and its files must replay here (and the old code's under this).
        let mut rng = simtime::XorShift64::new(0xD15C);
        let records: Vec<Vec<u8>> = (0..40)
            .map(|_| {
                let len = rng.range_usize(0, 300);
                rng.bytes(len)
            })
            .collect();
        let threshold = 3000u64;
        let mut segments: Vec<(SequenceNo, Vec<u8>, Vec<u8>)> = Vec::new();
        for (seq, payload) in records.iter().enumerate() {
            if segments
                .last()
                .is_none_or(|(_, log, _)| log.len() as u64 >= threshold)
            {
                segments.push((seq as u64, Vec::new(), Vec::new()));
            }
            let (_, log, idx) = segments.last_mut().expect("just pushed");
            idx.extend_from_slice(&(seq as u64).to_le_bytes());
            idx.extend_from_slice(&(log.len() as u64).to_le_bytes());
            log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            log.extend_from_slice(&crate::crc::bitwise(payload).to_le_bytes());
            log.extend_from_slice(&(seq as u64).to_le_bytes());
            log.extend_from_slice(payload);
        }
        assert!(segments.len() >= 2);

        let ours = tmpdir("format-ours");
        let mut sink = FileLogSink::open(&ours, &key(), 1)
            .expect("open")
            .with_segment_bytes(threshold);
        for r in &records {
            sink.send(ShardId(0), r).expect("send");
        }
        sink.flush().expect("flush");
        let theirs = tmpdir("format-theirs");
        let dir = shard_dir(&theirs.join("t"), ShardId(0));
        fs::create_dir_all(&dir).expect("shard dir");
        for (base, log, idx) in &segments {
            assert_eq!(&fs::read(log_path(&ours, *base)).expect("log"), log);
            let ours_idx = seg_path(&shard_dir(&ours.join("t"), ShardId(0)), *base, "idx");
            assert_eq!(&fs::read(ours_idx).expect("idx"), idx);
            fs::write(seg_path(&dir, *base, "log"), log).expect("write log");
            fs::write(seg_path(&dir, *base, "idx"), idx).expect("write idx");
        }
        assert_eq!(read_all(&theirs, &key()).expect("replay")[&0], records);
        let _ = fs::remove_dir_all(&ours);
        let _ = fs::remove_dir_all(&theirs);
    }
}
