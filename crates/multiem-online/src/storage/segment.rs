//! The record store: a resident tail that spills to segment files when it
//! has a directory to spill to.
//!
//! Appends accumulate in an in-memory *tail*, in append order; a record's
//! position in that order is its global *sequence*, and the two id maps
//! (`seq_of`: id → sequence, `entity_of_seq`: sequence → id) are the only
//! record of which id is which append. Without a directory
//! ([`StorageConfig::Memory`]) that is the whole store: the tail never
//! seals and everything stays resident. With one ([`StorageConfig::Disk`])
//! the store has a *spill part*: once the tail reaches `segment_records`
//! entries (or [`RecordStorage::flush`] runs, e.g. at a serving-layer
//! checkpoint) it is *sealed* — encoded as a run of CRC32 frames
//! ([`crate::wire`], the same framing the WAL and binary snapshots use) and
//! published atomically as `seg-NNNNNN.seg` under the configured directory.
//! Sealed segments are immutable; the only resident state they keep is
//! per-frame offsets (8 bytes/record) plus whatever a bounded,
//! two-generation hot cache holds.
//!
//! One frame holds one record: the serde value tree of the [`Record`]
//! (binary value codec) followed by the raw little-endian `f32` embedding.
//! A read miss seeks straight to the frame offset, verifies the CRC and
//! decodes one record — no segment-wide scan.
//!
//! # Deletion and compaction
//!
//! [`RecordStorage::delete`] tombstones a record by re-pointing its row in
//! the per-source sequence map at a sentinel. A tail entry is emptied in
//! place; a sealed frame stays in its immutable segment file, and the
//! segment's `dead` counter tracks how many of its frames are pinned
//! garbage. Once a segment's live fraction drops to
//! `COMPACT_LIVE_RATIO`, [`RecordStorage::compact`] rewrites it:
//! consecutive runs of compactable segments are merged into fresh sealed
//! files holding only live frames (fully-dead segments vanish without a
//! successor). A rewritten segment is *sparse* — it records the global
//! sequence of each surviving frame — so point reads keep seeking by
//! sequence. Superseded files are left on disk for [`RecordStorage::gc`] so
//! a snapshot referencing the old index stays restorable until the new
//! index is durably committed.
//!
//! Serialization (for snapshots) carries the id maps, the unsealed tail and
//! the segment *index* — file names, sequence coverage, sizes, dead counts
//! — **not** the sealed payload: a checkpoint of a spilling store is a
//! delta, it re-ships only what changed since the segments were sealed.
//! [`RecordStorage::reopen`] checks the maps against each other and
//! re-attaches the deserialized index to the files, re-scanning frame
//! headers to rebuild offsets and refusing to open missing or
//! size-mismatched segments.
//!
//! Durability contract: sealed segments survive the process; tail records
//! live in memory until sealed and must be covered by an external log (the
//! serving layer's WAL) or a snapshot. One live writer per directory —
//! concurrent writers would race on segment file names.

use super::{CompactionReport, SegmentStats, StorageStats};
use crate::config::{DiskStorageConfig, StorageConfig};
use crate::error::OnlineError;
use crate::wire::{self, Frame};
use crate::Result;
use multiem_table::{EntityId, Record};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Sentinel in the per-source sequence map marking a deleted row. (A store
/// would need 2^32 - 1 appends for a real sequence to collide with it; the
/// append path guards against that overflow.)
const TOMBSTONE_SEQ: u32 = u32::MAX;

/// Compaction threshold: a sealed segment whose *live* fraction
/// (non-deleted records / records in the file) is at or below this value is
/// rewritten by the next [`RecordStorage::compact`], reclaiming the bytes its
/// tombstoned records pin.
const COMPACT_LIVE_RATIO: f64 = 0.6;

/// Index entry of one sealed, immutable segment file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SegmentMeta {
    /// File name under the store directory (`seg-NNNNNN.seg`).
    file: String,
    /// Global append sequence of the segment's first frame.
    first_seq: u32,
    /// Frames in the file (live records at seal time; deletions since then
    /// are counted by `dead`, the frames stay put until compaction).
    records: usize,
    /// Total file size in bytes (magic + frames).
    bytes: u64,
    /// Frames tombstoned since the file was sealed.
    dead: usize,
    /// Global sequence of each frame, in file order, for segments whose
    /// frames are not contiguous (`None` = dense:
    /// `first_seq .. first_seq + records`). Compaction produces sparse
    /// segments; plain seals of an all-live tail stay dense.
    seqs: Option<Vec<u32>>,
    /// Byte offset of each frame, rebuilt by `reopen` (not persisted).
    #[serde(skip)]
    offsets: Vec<u64>,
}

impl SegmentMeta {
    /// Global sequence of frame `i`.
    fn seq_at(&self, i: usize) -> u32 {
        match &self.seqs {
            None => self.first_seq + i as u32,
            Some(seqs) => seqs[i],
        }
    }

    /// One past the last sequence this segment covers.
    fn end_seq(&self) -> u32 {
        match &self.seqs {
            None => self.first_seq + self.records as u32,
            Some(seqs) => seqs.last().copied().unwrap_or(self.first_seq) + 1,
        }
    }

    /// Index of the frame holding `seq`, if present.
    fn frame_of(&self, seq: u32) -> Option<usize> {
        match &self.seqs {
            None => {
                let i = seq.checked_sub(self.first_seq)? as usize;
                (i < self.records).then_some(i)
            }
            Some(seqs) => seqs.binary_search(&seq).ok(),
        }
    }

    fn stats(&self) -> SegmentStats {
        SegmentStats {
            records: self.records,
            dead: self.dead,
            bytes: self.bytes,
        }
    }
}

/// The `(segment, frame)` holding `seq`, if one of `segments` (ordered by
/// `first_seq`) covers it.
fn locate(segments: &[SegmentMeta], seq: u32) -> Option<(usize, usize)> {
    let segment = segments
        .partition_point(|m| m.first_seq <= seq)
        .checked_sub(1)?;
    Some((segment, segments[segment].frame_of(seq)?))
}

/// Why [`open_segment`] refused a file; each caller words it its own way.
enum OpenFault {
    /// The file would not open.
    Missing(std::io::Error),
    /// Its length or its header would not read.
    Unreadable(std::io::Error),
    /// Its length, which is not the one its index records.
    Size(u64),
    /// Its header is not [`wire::SEGMENT_MAGIC`].
    Magic,
}

/// Open a segment file and check its magic header, leaving the reader at
/// the first frame. Given `bytes`, the file's length must equal it; that is
/// checked before the header is read.
fn open_segment(
    path: &Path,
    bytes: Option<u64>,
) -> std::result::Result<BufReader<File>, OpenFault> {
    let file = File::open(path).map_err(OpenFault::Missing)?;
    if let Some(bytes) = bytes {
        let actual = file.metadata().map_err(OpenFault::Unreadable)?.len();
        if actual != bytes {
            return Err(OpenFault::Size(actual));
        }
    }
    let mut reader = BufReader::new(file);
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(OpenFault::Unreadable)?;
    if &magic != wire::SEGMENT_MAGIC {
        return Err(OpenFault::Magic);
    }
    Ok(reader)
}

/// One resident record with its embedding.
type Entry = (Record, Vec<f32>);

/// Approximate heap footprint of one resident entry.
fn entry_bytes((record, embedding): &Entry) -> usize {
    let mut bytes = std::mem::size_of::<Record>() + embedding.len() * 4;
    for v in record.values() {
        bytes += std::mem::size_of_val(v);
        if let Some(t) = v.as_text() {
            bytes += t.len();
        }
    }
    bytes
}

/// What one tail slot costs in [`StorageStats::resident_bytes`].
fn tail_slot_bytes(entry: &Entry) -> usize {
    entry_bytes(entry) + 8
}

/// Two-generation (segmented-LRU) cache over sealed records, keyed by
/// global append sequence. Promotion on hit, wholesale demotion of the
/// older generation once the newer one fills half the capacity.
#[derive(Debug, Default, Clone)]
struct RecordCache {
    current: HashMap<u32, Entry>,
    previous: HashMap<u32, Entry>,
    hits: u64,
    misses: u64,
}

impl RecordCache {
    fn get(&mut self, seq: u32) -> Option<&Entry> {
        if let Some(hit) = self.previous.remove(&seq) {
            self.current.insert(seq, hit);
        }
        let hit = self.current.get(&seq);
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    fn insert(&mut self, cap: usize, seq: u32, entry: Entry) {
        if cap == 0 {
            return;
        }
        if self.current.len() >= cap.div_ceil(2) {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(seq, entry);
    }

    /// Drop a (deleted) sequence from both generations.
    fn remove(&mut self, seq: u32) {
        self.current.remove(&seq);
        self.previous.remove(&seq);
    }

    fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    fn approx_bytes(&self) -> usize {
        self.current
            .values()
            .chain(self.previous.values())
            .map(|entry| entry_bytes(entry) + 16)
            .sum()
    }
}

/// The hot cache behind a lock, so reads stay `&self` (the entity store
/// serves reads under shared locks). Not part of the persisted state.
#[derive(Debug, Default)]
struct HotCache(Mutex<RecordCache>);

impl HotCache {
    fn lock(&self) -> MutexGuard<'_, RecordCache> {
        self.0.lock().expect("cache lock poisoned")
    }
}

impl Clone for HotCache {
    fn clone(&self) -> Self {
        HotCache(Mutex::new(self.lock().clone()))
    }
}

/// The part of the store that exists only when it has somewhere to spill
/// to: the directory, the index of the sealed segment files in it, the hot
/// cache over them and the lifetime counters of their maintenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Spill {
    config: DiskStorageConfig,
    /// Sealed segments, ordered by `first_seq` (coverage never overlaps).
    segments: Vec<SegmentMeta>,
    /// Name counter for the next sealed file — monotonic even as compaction
    /// retires old files, so names never collide.
    next_seg: u64,
    /// Cumulative segment files compacted away (persisted).
    compactions: u64,
    /// Cumulative bytes reclaimed by compaction (persisted).
    reclaimed: u64,
    /// Cumulative files deleted by [`RecordStorage::gc`] (persisted; the
    /// restored value lags by any sweeps after the snapshot was taken).
    gc_deleted: u64,
    #[serde(skip)]
    cache: HotCache,
}

impl Spill {
    fn dir(&self) -> &Path {
        Path::new(&self.config.dir)
    }

    fn path_of(&self, meta: &SegmentMeta) -> PathBuf {
        self.dir().join(&meta.file)
    }

    /// Read one sealed record straight from its segment file.
    ///
    /// # Panics
    /// Panics when the segment file vanished or fails its CRC at runtime —
    /// the same contract as a poisoned lock: the store's backing state was
    /// corrupted out from under it. (`reopen` reports such damage as a
    /// recoverable error instead.)
    fn read_sealed(&self, seq: u32, dim: usize) -> Entry {
        let (segment, frame) = locate(&self.segments, seq)
            .unwrap_or_else(|| panic!("live sealed sequence {seq} missing from segment index"));
        let meta = &self.segments[segment];
        let offset = meta.offsets[frame];
        let path = self.path_of(meta);
        let entry = (|| -> Result<Entry> {
            let mut file =
                File::open(&path).map_err(|e| OnlineError::Storage(format!("open failed: {e}")))?;
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| OnlineError::Storage(format!("seek failed: {e}")))?;
            match wire::read_frame(&mut file)
                .map_err(|e| OnlineError::Storage(format!("read failed: {e}")))?
            {
                Frame::Payload(payload) => decode_entry(&payload, dim),
                _ => Err(OnlineError::Storage(
                    "frame truncated or failed its checksum".into(),
                )),
            }
        })();
        match entry {
            Ok(entry) => entry,
            Err(e) => panic!(
                "segment `{}` corrupted at offset {offset}: {e}",
                path.display()
            ),
        }
    }

    /// Cache-through lookup of one `part` of a live sealed sequence (the
    /// file read of a miss happens outside the cache lock).
    fn read<T>(&self, seq: u32, dim: usize, part: impl FnOnce(&Entry) -> T) -> T {
        let mut cache = self.cache.lock();
        if let Some(hit) = cache.get(seq) {
            return part(hit);
        }
        drop(cache);
        let entry = self.read_sealed(seq, dim);
        let out = part(&entry);
        self.cache
            .lock()
            .insert(self.config.cache_records, seq, entry);
        out
    }

    /// Decode a whole segment file sequentially (the compaction path).
    fn read_segment(&self, meta: &SegmentMeta, dim: usize) -> Vec<Entry> {
        let path = self.path_of(meta);
        let decode = (|| -> Result<Vec<Entry>> {
            let mut reader = open_segment(&path, None).map_err(|fault| {
                OnlineError::Storage(match fault {
                    OpenFault::Missing(e) => format!("open failed: {e}"),
                    OpenFault::Unreadable(e) => format!("read failed: {e}"),
                    OpenFault::Magic => "bad segment magic".into(),
                    OpenFault::Size(_) => unreachable!("no length was asked for"),
                })
            })?;
            let mut out = Vec::with_capacity(meta.records);
            for _ in 0..meta.records {
                match wire::read_frame(&mut reader)
                    .map_err(|e| OnlineError::Storage(format!("read failed: {e}")))?
                {
                    Frame::Payload(payload) => out.push(decode_entry(&payload, dim)?),
                    _ => {
                        return Err(OnlineError::Storage(
                            "frame truncated or failed its checksum".into(),
                        ))
                    }
                }
            }
            Ok(out)
        })();
        match decode {
            Ok(out) => out,
            Err(e) => panic!("segment `{}` corrupted: {e}", path.display()),
        }
    }

    /// Re-attach the deserialized segment index to its files: sizes and
    /// magic must match, frame offsets are rebuilt, coverage must be ordered
    /// and stay below the `sealed` boundary.
    fn reopen(&mut self, sealed: usize) -> Result<()> {
        let mut previous_end = 0u32;
        for meta in &mut self.segments {
            let path = Path::new(&self.config.dir).join(&meta.file);
            let mut reader = open_segment(&path, Some(meta.bytes)).map_err(|fault| {
                let path = path.display();
                OnlineError::Storage(match fault {
                    OpenFault::Missing(e) => format!("segment `{path}` missing: {e}"),
                    OpenFault::Unreadable(e) => format!("segment `{path}` unreadable: {e}"),
                    OpenFault::Size(actual) => format!(
                        "segment `{path}` is {actual} bytes on disk, index says {}",
                        meta.bytes
                    ),
                    OpenFault::Magic => format!("segment `{path}` has a bad magic header"),
                })
            })?;
            // Walk frame headers only, collecting offsets without decoding
            // payloads; a short file or length mismatch is refused here so
            // runtime reads never land mid-frame.
            let mut offsets = Vec::with_capacity(meta.records);
            let mut pos = 4u64;
            for i in 0..meta.records {
                let mut header = [0u8; wire::FRAME_HEADER_BYTES];
                reader.read_exact(&mut header).map_err(|_| {
                    OnlineError::Storage(format!(
                        "segment `{}` truncated at record {i}",
                        path.display()
                    ))
                })?;
                let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as u64;
                offsets.push(pos);
                pos += wire::FRAME_HEADER_BYTES as u64 + len;
                reader.seek(SeekFrom::Start(pos)).map_err(|e| {
                    OnlineError::Storage(format!("segment `{}` unreadable: {e}", path.display()))
                })?;
            }
            if pos != meta.bytes {
                return Err(OnlineError::Storage(format!(
                    "segment `{}` is {pos} bytes, index says {}",
                    path.display(),
                    meta.bytes
                )));
            }
            if let Some(seqs) = &meta.seqs {
                let sorted = seqs.windows(2).all(|w| w[0] < w[1]);
                if seqs.len() != meta.records || !sorted || seqs.first() != Some(&meta.first_seq) {
                    return Err(OnlineError::Storage(format!(
                        "segment `{}` carries an inconsistent sparse sequence index",
                        path.display()
                    )));
                }
            }
            // Coverage must be ordered and non-overlapping; deletion gaps
            // between segments are legal.
            if meta.first_seq < previous_end {
                return Err(OnlineError::Storage(format!(
                    "segment `{}` starts at sequence {}, overlapping coverage up to \
                     {previous_end}",
                    path.display(),
                    meta.first_seq
                )));
            }
            previous_end = meta.end_seq();
            meta.offsets = offsets;
        }
        if previous_end as usize > sealed {
            return Err(OnlineError::Storage(format!(
                "segment index covers sequences up to {previous_end}, past the sealed \
                 boundary {sealed}"
            )));
        }
        self.cache = HotCache::default();
        Ok(())
    }
}

/// File name of the `n`-th segment a store seals.
fn segment_file_name(n: u64) -> String {
    format!("seg-{n:06}.seg")
}

/// Encode one frame payload: record value tree + raw f32 embedding.
fn encode_entry(record: &Record, embedding: &[f32]) -> Vec<u8> {
    let mut payload = Vec::new();
    wire::write_value(&mut payload, &serde::Serialize::to_value(record));
    for x in embedding {
        payload.extend_from_slice(&x.to_le_bytes());
    }
    payload
}

fn decode_entry(payload: &[u8], dim: usize) -> Result<Entry> {
    let mut pos = 0;
    let value = wire::read_value_at(payload, &mut pos)
        .map_err(|e| OnlineError::Storage(format!("corrupt segment record: {e}")))?;
    let record: Record = serde::Deserialize::from_value(&value)
        .map_err(|e| OnlineError::Storage(format!("corrupt segment record: {e}")))?;
    let raw = &payload[pos..];
    if raw.len() != dim * 4 {
        return Err(OnlineError::Storage(format!(
            "segment record carries {} embedding bytes, expected {}",
            raw.len(),
            dim * 4
        )));
    }
    let embedding = raw
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect();
    Ok((record, embedding))
}

/// Encode `entries` (sequence-ordered live records) as one segment file and
/// publish it atomically under `dir` as `file` (tmp + rename; the file is
/// fsynced before publication so a manifest that later references it cannot
/// outlive its contents). Returns the index entry for the new file.
fn write_segment_file(
    dir: &Path,
    file: String,
    entries: &[(u32, &Record, &[f32])],
) -> Result<SegmentMeta> {
    debug_assert!(!entries.is_empty());
    let mut buf = Vec::from(*wire::SEGMENT_MAGIC);
    let mut offsets = Vec::with_capacity(entries.len());
    for (_, record, embedding) in entries {
        offsets.push(buf.len() as u64);
        let payload = encode_entry(record, embedding);
        wire::write_frame(&mut buf, &payload)
            .map_err(|e| OnlineError::Storage(format!("segment encode failed: {e}")))?;
    }

    let path = dir.join(&file);
    let tmp = path.with_extension("tmp");
    let publish = (|| -> std::io::Result<()> {
        {
            use std::io::Write;
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)
    })();
    publish.map_err(|e| {
        OnlineError::Storage(format!("cannot seal segment `{}`: {e}", path.display()))
    })?;

    let first_seq = entries[0].0;
    let dense = entries
        .last()
        .expect("entries not empty")
        .0
        .checked_sub(first_seq)
        .map(|span| span as usize + 1 == entries.len())
        .unwrap_or(false);
    Ok(SegmentMeta {
        file,
        first_seq,
        records: entries.len(),
        bytes: buf.len() as u64,
        dead: 0,
        seqs: if dense {
            None
        } else {
            Some(entries.iter().map(|&(seq, _, _)| seq).collect())
        },
        offsets,
    })
}

/// Append-only storage of `(record, embedding)` pairs keyed by
/// [`EntityId`], with per-source row numbering, tombstone deletion and —
/// when configured with a directory — a bounded resident footprint and
/// live-ratio-driven compaction. See the [module docs](self).
///
/// Round-trips are exact: `get` / `embedding` return byte-identical data to
/// what was appended, in any order, across `flush` + `reopen` cycles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecordStorage {
    dim: usize,
    /// Per-source: row -> global append sequence ([`TOMBSTONE_SEQ`] for
    /// deleted rows).
    seq_of: Vec<Vec<u32>>,
    /// Global append sequence -> id (the inverse of `seq_of` for live rows).
    entity_of_seq: Vec<EntityId>,
    /// Sequences covered by sealed files *or* skipped as dead at seal time;
    /// the boundary between the sealed sequence space and the tail (0 for
    /// as long as nothing was sealed).
    sealed: usize,
    /// Unsealed appends (decoded, fully resident; deleted entries are
    /// emptied in place).
    tail: Vec<Entry>,
    /// Tombstoned entries currently in the tail.
    tail_dead: usize,
    /// Cumulative deletions (persisted).
    deleted: usize,
    /// Where the tail seals to; `None` when the store has no directory, and
    /// then the tail is the store.
    spill: Option<Spill>,
    /// Running total of [`tail_slot_bytes`] over the tail, kept by append,
    /// delete and seal so [`RecordStorage::stats`] never walks a tail that,
    /// without a spill part, holds every record. Derived: `reopen` recounts.
    #[serde(skip)]
    tail_bytes: usize,
}

impl RecordStorage {
    /// An empty store for embeddings of width `dim`. [`StorageConfig::Disk`]
    /// gives it a spill part, creating (or reusing) the segment directory.
    pub fn new(config: &StorageConfig, dim: usize) -> Result<Self> {
        let spill = match config {
            StorageConfig::Memory => None,
            StorageConfig::Disk(disk) => {
                std::fs::create_dir_all(&disk.dir).map_err(|e| {
                    OnlineError::Storage(format!("cannot create segment dir `{}`: {e}", disk.dir))
                })?;
                Some(Spill {
                    config: disk.clone(),
                    segments: Vec::new(),
                    next_seg: 0,
                    compactions: 0,
                    reclaimed: 0,
                    gc_deleted: 0,
                    cache: HotCache::default(),
                })
            }
        };
        Ok(Self {
            dim,
            seq_of: Vec::new(),
            entity_of_seq: Vec::new(),
            sealed: 0,
            tail: Vec::new(),
            tail_dead: 0,
            deleted: 0,
            spill,
            tail_bytes: 0,
        })
    }

    /// Embedding dimensionality every appended embedding must match.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Open a new source table, returning its source id.
    pub fn open_source(&mut self) -> u32 {
        self.seq_of.push(Vec::new());
        (self.seq_of.len() - 1) as u32
    }

    /// The global append sequence of `id`, if stored and live.
    pub fn seq_of(&self, id: EntityId) -> Option<usize> {
        let seq = *self.seq_of.get(id.source as usize)?.get(id.row as usize)?;
        (seq != TOMBSTONE_SEQ).then_some(seq as usize)
    }

    /// The id of the record appended as `seq` (live or since deleted).
    ///
    /// # Panics
    /// Panics when fewer than `seq + 1` records were appended.
    pub fn id_at(&self, seq: usize) -> EntityId {
        self.entity_of_seq[seq]
    }

    /// Whether the record appended as `seq` is still live (its row in the
    /// per-source map still points back at it).
    pub(crate) fn is_live(&self, seq: usize) -> bool {
        self.seq_of(self.entity_of_seq[seq]) == Some(seq)
    }

    /// Append one record with its embedding to `source`, returning the id
    /// it is retrievable under (row numbers are dense per source). On `Err`
    /// nothing was stored: no row number was spent.
    pub fn append(&mut self, source: u32, record: &Record, embedding: &[f32]) -> Result<EntityId> {
        assert_eq!(embedding.len(), self.dim, "embedding width mismatch");
        let seq = self.entity_of_seq.len() as u32;
        assert!(seq < TOMBSTONE_SEQ, "sequence space exhausted");
        let row = self.seq_of[source as usize].len() as u32;
        let id = EntityId::new(source, row);
        let entry = (record.clone(), embedding.to_vec());
        let bytes = tail_slot_bytes(&entry);
        self.seq_of[source as usize].push(seq);
        self.entity_of_seq.push(id);
        self.tail.push(entry);
        self.tail_bytes += bytes;
        let full = |spill: &Spill| self.tail.len() >= spill.config.segment_records;
        if self.spill.as_ref().is_some_and(full) {
            if let Err(e) = self.seal() {
                // A failed seal leaves the tail as it was; take the record
                // back out of it, so `Err` means nothing was stored and the
                // next append tries the seal again.
                self.seq_of[source as usize].pop();
                self.entity_of_seq.pop();
                self.tail.pop();
                self.tail_bytes -= bytes;
                return Err(e);
            }
        }
        Ok(id)
    }

    /// Seal the tail into a segment file — when there is a directory to
    /// seal it into; a store without one keeps its tail. Dead tail entries
    /// are skipped (their sequences are simply never covered by a file); an
    /// all-dead tail just advances the sealed boundary.
    fn seal(&mut self) -> Result<()> {
        if self.spill.is_none() || self.tail.is_empty() {
            return Ok(());
        }
        let covered = self.tail.len();
        let live_flags: Vec<bool> = (0..covered)
            .map(|i| self.is_live(self.sealed + i))
            .collect();
        let first_seq = self.sealed as u32;
        let spill = self.spill.as_mut().expect("checked above");
        if live_flags.iter().any(|&live| live) {
            // The frame list is references into the tail — sealing must not
            // clone every record and embedding on the ingest hot path.
            let entries: Vec<(u32, &Record, &[f32])> = self
                .tail
                .iter()
                .enumerate()
                .filter(|&(i, _)| live_flags[i])
                .map(|(i, (record, embedding))| {
                    (first_seq + i as u32, record, embedding.as_slice())
                })
                .collect();
            let file = segment_file_name(spill.next_seg);
            let meta = write_segment_file(spill.dir(), file, &entries)?;
            spill.next_seg += 1;
            spill.segments.push(meta);
        }
        // Freshly sealed records stay hot: demote them into the cache so
        // reads right after a seal (pruning of recent clusters) stay cheap
        // (moved, not cloned — the tail is done with them).
        let mut cache = spill.cache.lock();
        for (i, entry) in self.tail.drain(..).enumerate() {
            if live_flags[i] {
                cache.insert(spill.config.cache_records, first_seq + i as u32, entry);
            }
        }
        self.sealed += covered;
        self.tail_dead = 0;
        self.tail_bytes = 0;
        Ok(())
    }

    /// One part of the live entry stored under `id`: straight out of the
    /// tail, or through the hot cache for a sealed record.
    fn read<T>(&self, id: EntityId, part: impl FnOnce(&Entry) -> T) -> Option<T> {
        let seq = self.seq_of(id)?;
        Some(match seq.checked_sub(self.sealed) {
            Some(slot) => part(&self.tail[slot]),
            None => {
                let spill = self.spill.as_ref().expect("only a spill part seals");
                spill.read(seq as u32, self.dim, part)
            }
        })
    }

    /// The record stored under `id`, or `None` for unknown or deleted ids.
    pub fn get(&self, id: EntityId) -> Option<Record> {
        self.read(id, |(record, _)| record.clone())
    }

    /// The embedding stored under `id`, or `None` for unknown or deleted
    /// ids.
    pub fn embedding(&self, id: EntityId) -> Option<Vec<f32>> {
        self.read(id, |(_, embedding)| embedding.clone())
    }

    /// The embeddings of the live records appended as `seqs`, in that order
    /// and back to back, each copied from where it lies.
    ///
    /// # Panics
    /// Panics when a sequence is deleted or was never appended.
    pub(crate) fn embeddings(&self, seqs: &[usize]) -> Vec<f32> {
        let mut out = Vec::with_capacity(seqs.len() * self.dim);
        for &seq in seqs {
            self.read(self.id_at(seq), |(_, x)| out.extend_from_slice(x))
                .expect("a live sequence");
        }
        out
    }

    /// Tombstone the record under `id`: `get` / `embedding` return `None`
    /// from now on, and the payload is freed (a tail entry) or marked dead
    /// pending [`RecordStorage::compact`] (a sealed frame). Row numbering
    /// is unaffected — ids of other records never shift. Returns whether a
    /// live record was deleted (`false` for unknown or already-deleted
    /// ids).
    pub fn delete(&mut self, id: EntityId) -> Result<bool> {
        let Some(seq) = self.seq_of(id) else {
            return Ok(false);
        };
        self.seq_of[id.source as usize][id.row as usize] = TOMBSTONE_SEQ;
        match seq.checked_sub(self.sealed) {
            Some(slot) => {
                // Free the tail payload in place; the slot keeps the
                // sequence space aligned until the next seal skips it.
                let slot = &mut self.tail[slot];
                self.tail_bytes -= tail_slot_bytes(slot);
                *slot = (Record::new(Vec::new()), Vec::new());
                self.tail_bytes += tail_slot_bytes(slot);
                self.tail_dead += 1;
            }
            None => {
                let spill = self.spill.as_mut().expect("only a spill part seals");
                let (segment, _) = locate(&spill.segments, seq as u32)
                    .expect("live sealed sequence missing from segment index");
                spill.segments[segment].dead += 1;
                spill.cache.lock().remove(seq as u32);
            }
        }
        self.deleted += 1;
        Ok(true)
    }

    /// Total appended records, deleted ones included.
    pub fn len(&self) -> usize {
        self.entity_of_seq.len()
    }

    /// Whether nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.entity_of_seq.is_empty()
    }

    /// Records tombstoned by [`RecordStorage::delete`] so far.
    pub(crate) fn deleted(&self) -> usize {
        self.deleted
    }

    /// Number of opened sources.
    pub fn num_sources(&self) -> usize {
        self.seq_of.len()
    }

    /// Persist any buffered state: a store with a spill part seals its tail
    /// segment, so a subsequent snapshot carries no record payload. No-op
    /// without one.
    pub fn flush(&mut self) -> Result<()> {
        self.seal()
    }

    /// Check deserialized state and re-attach it to its backing files.
    /// Called by [`crate::EntityStore`] after snapshot restore. The two id
    /// maps must be inverses of each other — cluster membership is stated in
    /// sequences and read back as ids — and the counts derived from them
    /// must agree; a spill part re-scans its segment files and rebuilds
    /// frame offsets.
    pub fn reopen(&mut self) -> Result<()> {
        if let Some(spill) = &mut self.spill {
            spill.reopen(self.sealed)?;
        }
        let appends = self.entity_of_seq.len();
        if self.sealed + self.tail.len() != appends {
            return Err(OnlineError::Storage(format!(
                "sealed boundary {} plus {} tail records disagrees with {appends} appends",
                self.sealed,
                self.tail.len(),
            )));
        }
        let segments = self.spill.as_ref().map_or(&[][..], |s| &s.segments[..]);
        let (mut rows, mut live) = (0, 0);
        for (source, seqs) in self.seq_of.iter().enumerate() {
            rows += seqs.len();
            for (row, &seq) in seqs.iter().enumerate() {
                if seq == TOMBSTONE_SEQ {
                    continue;
                }
                live += 1;
                let id = EntityId::new(source as u32, row as u32);
                if self.entity_of_seq.get(seq as usize) != Some(&id) {
                    return Err(OnlineError::Storage(format!(
                        "record {id} maps to sequence {seq}, which does not map back to it"
                    )));
                }
                // Every *live* sealed sequence must be covered by some
                // segment frame: a snapshot whose segment list lost an
                // entry (but whose sequence map still marks those records
                // live) must be refused here — `read_sealed` panics on the
                // same damage at serving time.
                let covered = seq as usize >= self.sealed || locate(segments, seq).is_some();
                if !covered {
                    return Err(OnlineError::Storage(format!(
                        "live sealed sequence {seq} is not covered by any segment in the \
                         index"
                    )));
                }
            }
        }
        if rows != appends || live + self.deleted != appends {
            return Err(OnlineError::Storage(format!(
                "{rows} rows, {live} of them live, and {} deletions disagree with {appends} \
                 appends",
                self.deleted
            )));
        }
        self.tail_bytes = self.tail.iter().map(tail_slot_bytes).sum();
        Ok(())
    }

    /// Garbage-collect backing files the store no longer references: segment
    /// files absent from the committed segment index — orphans left behind
    /// by a crash between sealing and checkpoint commit. Returns the number
    /// of files deleted; the cumulative count is surfaced as
    /// [`StorageStats::segments_deleted`]. No-op without a spill part.
    pub fn gc(&mut self) -> Result<u64> {
        let Some(spill) = &mut self.spill else {
            return Ok(0);
        };
        let entries = std::fs::read_dir(spill.dir()).map_err(|e| {
            OnlineError::Storage(format!(
                "cannot list segment dir `{}`: {e}",
                spill.config.dir
            ))
        })?;
        let mut deleted = 0u64;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            // Only touch files this store's naming scheme produced: sealed
            // segments and the tmp files of interrupted seals. Anything
            // else in the directory is not ours to delete.
            let ours =
                name.starts_with("seg-") && (name.ends_with(".seg") || name.ends_with(".tmp"));
            if !ours || spill.segments.iter().any(|meta| meta.file == name) {
                continue;
            }
            std::fs::remove_file(entry.path()).map_err(|e| {
                OnlineError::Storage(format!("cannot delete orphaned segment `{name}`: {e}"))
            })?;
            deleted += 1;
        }
        spill.gc_deleted += deleted;
        Ok(deleted)
    }

    /// Rewrite sealed segment files whose live fraction fell to or below
    /// 0.6 (`COMPACT_LIVE_RATIO`) into fresh sealed files holding only live
    /// records, dropping fully-dead files outright. The in-memory index
    /// switches atomically; superseded files stay on disk until
    /// [`RecordStorage::gc`] sweeps them, so callers persisting snapshots
    /// must commit the post-compaction index before sweeping. No-op without
    /// a spill part.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        let mut report = CompactionReport::default();
        let Some(spill) = &self.spill else {
            return Ok(report);
        };
        let compactable: Vec<bool> = spill
            .segments
            .iter()
            .map(|meta| meta.dead > 0 && meta.stats().live_ratio() <= COMPACT_LIVE_RATIO)
            .collect();
        if !compactable.iter().any(|&c| c) {
            return Ok(report);
        }

        // Rebuild the whole index first and swap it in at the end: an I/O
        // error mid-pass leaves the current index (and its files) intact,
        // and any files the failed pass already sealed become gc-able
        // orphans (whose names the next pass may write over).
        let mut rebuilt: Vec<SegmentMeta> = Vec::with_capacity(spill.segments.len());
        let mut next_seg = spill.next_seg;
        let mut i = 0;
        while i < spill.segments.len() {
            if !compactable[i] {
                rebuilt.push(spill.segments[i].clone());
                i += 1;
                continue;
            }
            // A maximal run of consecutive compactable segments merges into
            // dense-as-possible replacement files (sequence coverage stays
            // sorted because the run is consecutive).
            let run_start = i;
            while i < spill.segments.len() && compactable[i] {
                i += 1;
            }
            let run = &spill.segments[run_start..i];
            let mut live: Vec<(u32, Record, Vec<f32>)> = Vec::new();
            let mut old_bytes = 0u64;
            for meta in run {
                old_bytes += meta.bytes;
                let entries = spill.read_segment(meta, self.dim);
                for (frame, (record, embedding)) in entries.into_iter().enumerate() {
                    let seq = meta.seq_at(frame);
                    if self.is_live(seq as usize) {
                        live.push((seq, record, embedding));
                    }
                }
            }
            let mut new_bytes = 0u64;
            for chunk in live.chunks(spill.config.segment_records.max(1)) {
                let entries: Vec<(u32, &Record, &[f32])> = chunk
                    .iter()
                    .map(|(seq, record, embedding)| (*seq, record, embedding.as_slice()))
                    .collect();
                let file = segment_file_name(next_seg);
                let meta = write_segment_file(spill.dir(), file, &entries)?;
                next_seg += 1;
                new_bytes += meta.bytes;
                report.segments_written += 1;
                rebuilt.push(meta);
            }
            report.segments_compacted += run.len() as u64;
            report.reclaimed_bytes += old_bytes.saturating_sub(new_bytes);
        }
        let spill = self.spill.as_mut().expect("checked above");
        spill.segments = rebuilt;
        spill.next_seg = next_seg;
        spill.compactions += report.segments_compacted;
        spill.reclaimed += report.reclaimed_bytes;
        Ok(report)
    }

    /// Storage counters.
    pub fn stats(&self) -> StorageStats {
        let records = self.entity_of_seq.len();
        let mut stats = StorageStats {
            records,
            deleted_records: self.deleted,
            resident_records: self.tail.len() - self.tail_dead,
            // The tail, and the id maps: `seq_of` (4 B/record) and
            // `entity_of_seq` (8 B/record).
            resident_bytes: self.tail_bytes + records * 12,
            ..StorageStats::default()
        };
        if let Some(spill) = &self.spill {
            let cache = spill.cache.lock();
            let sparse = spill.segments.iter().filter(|m| m.seqs.is_some());
            stats.backend = "disk";
            stats.spilled_records = spill.segments.iter().map(|m| m.records).sum();
            stats.spilled_bytes = spill.segments.iter().map(|m| m.bytes).sum();
            stats.segments = spill.segments.len();
            stats.resident_records += cache.len();
            // The hot cache, frame offsets (8 B/frame) and sparse sequence
            // lists (4 B/frame where present).
            stats.resident_bytes += cache.approx_bytes()
                + stats.spilled_records * 8
                + sparse.map(|m| m.records * 4).sum::<usize>();
            stats.segments_deleted = spill.gc_deleted;
            stats.compactions = spill.compactions;
            stats.reclaimed_bytes = spill.reclaimed;
            stats.cache_hits = cache.hits;
            stats.cache_misses = cache.misses;
        }
        stats
    }

    /// Per-segment health, in segment order (empty without a spill part).
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        let segments = self.spill.iter().flat_map(|spill| &spill.segments);
        segments.map(SegmentMeta::stats).collect()
    }
}

#[cfg(test)]
impl RecordStorage {
    /// Assert that every running total is what a recount finds — the tail's
    /// bytes and dead slots, the deletions — and that `reopen` would take
    /// the id maps as they stand.
    pub(super) fn check(&self) {
        let tail_bytes: usize = self.tail.iter().map(tail_slot_bytes).sum();
        assert_eq!(self.tail_bytes, tail_bytes);
        let dead = |seq: &usize| !self.is_live(*seq);
        let tail_dead = (self.sealed..self.len()).filter(dead).count();
        assert_eq!(self.tail_dead, tail_dead);
        assert_eq!(self.deleted, (0..self.len()).filter(dead).count());
        self.clone().reopen().expect("a store the operations built");
    }
}
