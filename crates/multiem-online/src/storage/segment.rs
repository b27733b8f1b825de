//! The spill-to-disk segment record store.
//!
//! Appends accumulate in an in-memory *tail*; once the tail reaches
//! `segment_records` entries (or [`RecordStore::flush`] runs, e.g. at a
//! serving-layer checkpoint) it is *sealed*: encoded as a run of CRC32
//! frames ([`crate::wire`], the same framing the WAL and binary snapshots
//! use) and published atomically as `seg-NNNNNN.seg` under the configured
//! directory. Sealed segments are immutable; the only resident state they
//! keep is per-frame offsets (8 bytes/record) plus whatever a bounded,
//! two-generation hot cache holds.
//!
//! One frame holds one record: the serde value tree of the [`Record`]
//! (binary value codec) followed by the raw little-endian `f32` embedding.
//! A read miss seeks straight to the frame offset, verifies the CRC and
//! decodes one record — no segment-wide scan.
//!
//! # Deletion and compaction
//!
//! [`RecordStore::delete`] tombstones a record by re-pointing its row in
//! the per-source sequence map at a sentinel — the frame itself stays in
//! its immutable segment file, and the segment's `dead` counter tracks how
//! many of its frames are pinned garbage. Once a segment's live fraction
//! drops to the configured `compact_live_ratio`,
//! [`RecordStore::compact`] rewrites it: consecutive runs of compactable
//! segments are merged into fresh sealed files holding only live frames
//! (fully-dead segments vanish without a successor). A rewritten segment
//! is *sparse* — it records the global sequence of each surviving frame —
//! so point reads keep seeking by sequence. Superseded files are left on
//! disk for [`RecordStore::gc`] so a snapshot referencing the old index
//! stays restorable until the new index is durably committed.
//!
//! Serialization (for snapshots) carries the segment *index* — file names,
//! sequence coverage, sizes, dead counts — and the unsealed tail, **not**
//! the sealed payload: a checkpoint of a disk-backed store is a delta, it
//! re-ships only what changed since the segments were sealed.
//! [`RecordStore::reopen`] re-attaches the deserialized index to the files,
//! re-scanning frame headers to rebuild offsets and refusing to open
//! missing or size-mismatched segments.
//!
//! Durability contract: sealed segments survive the process; tail records
//! live in memory until sealed and must be covered by an external log (the
//! serving layer's WAL) or a snapshot, exactly like the memory backend.
//! One live writer per directory — concurrent writers would race on
//! segment file names.

use super::{
    record_heap_bytes, CompactionReport, RecordIter, RecordStore, SegmentStats, StorageStats,
};
use crate::config::DiskStorageConfig;
use crate::error::OnlineError;
use crate::wire::{self, Frame};
use crate::Result;
use multiem_table::{EntityId, Record};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Sentinel in the per-source sequence map marking a deleted row. (A store
/// would need 2^32 - 1 appends for a real sequence to collide with it; the
/// append path guards against that overflow.)
const TOMBSTONE_SEQ: u32 = u32::MAX;

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

    /// Fraction of the file's frames still live.
    fn live_ratio(&self) -> f64 {
        (self.records - self.dead) as f64 / self.records.max(1) as f64
    }
}

/// One appended entry: source, record, embedding.
type TailEntry = (u32, Record, Vec<f32>);

/// Two-generation (segmented-LRU) cache over sealed records, keyed by
/// global append sequence. Promotion on hit, wholesale demotion of the
/// older generation once the newer one fills half the capacity.
#[derive(Debug, Default, Clone)]
struct RecordCache {
    current: HashMap<u32, (Record, Vec<f32>)>,
    previous: HashMap<u32, (Record, Vec<f32>)>,
    hits: u64,
    misses: u64,
}

impl RecordCache {
    fn get(&mut self, seq: u32) -> Option<(Record, Vec<f32>)> {
        if let Some(hit) = self.current.get(&seq) {
            self.hits += 1;
            return Some(hit.clone());
        }
        if let Some(hit) = self.previous.remove(&seq) {
            self.hits += 1;
            self.current.insert(seq, hit.clone());
            return Some(hit);
        }
        self.misses += 1;
        None
    }

    fn insert(&mut self, cap: usize, seq: u32, entry: (Record, Vec<f32>)) {
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
            .map(|(r, e)| record_heap_bytes(r) + e.len() * 4 + 16)
            .sum()
    }
}

/// Append-only segment-file storage with a bounded resident footprint,
/// tombstone deletion and live-ratio-driven compaction. See the
/// [module docs](self).
#[derive(Debug, Serialize, Deserialize)]
pub struct SegmentRecordStore {
    config: DiskStorageConfig,
    dim: usize,
    /// Source names, in open order.
    names: Vec<String>,
    /// Per-source: row -> global append sequence ([`TOMBSTONE_SEQ`] for
    /// deleted rows).
    seq_of: Vec<Vec<u32>>,
    /// Global append sequence -> id (the inverse of `seq_of` for live rows).
    entity_of_seq: Vec<EntityId>,
    /// Sealed segments, ordered by `first_seq` (coverage never overlaps).
    segments: Vec<SegmentMeta>,
    /// Sequences covered by sealed files *or* skipped as dead at seal time;
    /// the boundary between the sealed sequence space and the tail.
    sealed: usize,
    /// Name counter for the next sealed file — monotonic even as compaction
    /// retires old files, so names never collide.
    next_seg: u64,
    /// Unsealed appends (decoded, fully resident; deleted entries are
    /// emptied in place).
    tail: Vec<TailEntry>,
    /// Tombstoned entries currently in the tail.
    tail_dead: usize,
    /// Cumulative deletions (persisted).
    deleted: usize,
    /// Cumulative segment files compacted away (persisted).
    compactions: u64,
    /// Cumulative bytes reclaimed by compaction (persisted).
    reclaimed: u64,
    /// Cumulative files deleted by [`RecordStore::gc`] (persisted; the
    /// restored value lags by any sweeps after the snapshot was taken).
    gc_deleted: u64,
    /// Hot cache over sealed records; interior-mutable so reads stay
    /// `&self` (the entity store serves reads under shared locks). Not part
    /// of the persisted state.
    #[serde(skip)]
    cache: Mutex<RecordCache>,
}

impl Clone for SegmentRecordStore {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            dim: self.dim,
            names: self.names.clone(),
            seq_of: self.seq_of.clone(),
            entity_of_seq: self.entity_of_seq.clone(),
            segments: self.segments.clone(),
            sealed: self.sealed,
            next_seg: self.next_seg,
            tail: self.tail.clone(),
            tail_dead: self.tail_dead,
            deleted: self.deleted,
            compactions: self.compactions,
            reclaimed: self.reclaimed,
            gc_deleted: self.gc_deleted,
            cache: Mutex::new(self.cache.lock().expect("cache lock poisoned").clone()),
        }
    }
}

impl SegmentRecordStore {
    /// Create (or reuse) the segment directory and start an empty store.
    pub fn create(config: DiskStorageConfig, dim: usize) -> Result<Self> {
        std::fs::create_dir_all(&config.dir).map_err(|e| {
            OnlineError::Storage(format!("cannot create segment dir `{}`: {e}", config.dir))
        })?;
        Ok(Self {
            config,
            dim,
            names: Vec::new(),
            seq_of: Vec::new(),
            entity_of_seq: Vec::new(),
            segments: Vec::new(),
            sealed: 0,
            next_seg: 0,
            tail: Vec::new(),
            tail_dead: 0,
            deleted: 0,
            compactions: 0,
            reclaimed: 0,
            gc_deleted: 0,
            cache: Mutex::new(RecordCache::default()),
        })
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        Path::new(&self.config.dir)
    }

    fn path_of(&self, meta: &SegmentMeta) -> PathBuf {
        self.dir().join(&meta.file)
    }

    /// Whether the record appended as `seq` is still live (its row in the
    /// per-source map still points back at it).
    fn is_live(&self, seq: u32) -> bool {
        let id = self.entity_of_seq[seq as usize];
        self.seq_of[id.source as usize][id.row as usize] == seq
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

    fn decode_entry(payload: &[u8], dim: usize) -> Result<(Record, Vec<f32>)> {
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

    /// Seal `entries` (sequence-ordered live records, not borrowing `self`)
    /// into a fresh segment file and advance the name counter. Used by the
    /// compaction path; `seal` drives [`write_segment_file`] directly so its
    /// entries can borrow the tail without cloning payloads.
    fn seal_entries(&mut self, entries: &[(u32, &Record, &[f32])]) -> Result<SegmentMeta> {
        let file = format!("seg-{:06}.seg", self.next_seg);
        let meta = write_segment_file(self.dir(), file, entries)?;
        self.next_seg += 1;
        Ok(meta)
    }

    /// Seal the tail. Dead tail entries are skipped (their sequences are
    /// simply never covered by a file); an all-dead tail just advances the
    /// sealed boundary.
    fn seal(&mut self) -> Result<()> {
        if self.tail.is_empty() {
            return Ok(());
        }
        let covered = self.tail.len();
        let first_seq = self.sealed as u32;
        let live_flags: Vec<bool> = (0..covered)
            .map(|i| self.is_live(first_seq + i as u32))
            .collect();
        // Build the frame list as references into the tail — sealing must
        // not clone every record and embedding on the ingest hot path.
        let meta = if live_flags.iter().any(|&live| live) {
            let entries: Vec<(u32, &Record, &[f32])> = self
                .tail
                .iter()
                .enumerate()
                .filter(|&(i, _)| live_flags[i])
                .map(|(i, (_, record, embedding))| {
                    (first_seq + i as u32, record, embedding.as_slice())
                })
                .collect();
            let file = format!("seg-{:06}.seg", self.next_seg);
            Some(write_segment_file(self.dir(), file, &entries)?)
        } else {
            None
        };
        if let Some(meta) = meta {
            self.next_seg += 1;
            self.segments.push(meta);
        }
        // Freshly sealed records stay hot: demote them into the cache so
        // reads right after a seal (pruning of recent clusters) stay cheap
        // (moved, not cloned — the tail is done with them).
        {
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for (i, (_, record, embedding)) in self.tail.drain(..).enumerate() {
                if live_flags[i] {
                    cache.insert(
                        self.config.cache_records,
                        first_seq + i as u32,
                        (record, embedding),
                    );
                }
            }
        }
        self.sealed += covered;
        self.tail_dead = 0;
        Ok(())
    }

    /// The global append sequence of `id`, if stored and live.
    fn seq(&self, id: EntityId) -> Option<u32> {
        let seq = *self.seq_of.get(id.source as usize)?.get(id.row as usize)?;
        (seq != TOMBSTONE_SEQ).then_some(seq)
    }

    /// Index of the sealed segment covering `seq` (callers guarantee the
    /// sequence is live and sealed, so a covering segment exists).
    fn segment_index_of(&self, seq: u32) -> usize {
        self.segments
            .partition_point(|m| m.first_seq <= seq)
            .checked_sub(1)
            .expect("sealed sequence below first segment")
    }

    /// Read one sealed record straight from its segment file.
    ///
    /// # Panics
    /// Panics when the segment file vanished or fails its CRC at runtime —
    /// the same contract as a poisoned lock: the store's backing state was
    /// corrupted out from under it. (`reopen` reports such damage as a
    /// recoverable error instead.)
    fn read_sealed(&self, seq: u32) -> (Record, Vec<f32>) {
        let meta = &self.segments[self.segment_index_of(seq)];
        let frame = meta
            .frame_of(seq)
            .unwrap_or_else(|| panic!("live sealed sequence {seq} missing from segment index"));
        let offset = meta.offsets[frame];
        let path = self.path_of(meta);
        let entry = (|| -> Result<(Record, Vec<f32>)> {
            let mut file = std::fs::File::open(&path)
                .map_err(|e| OnlineError::Storage(format!("open failed: {e}")))?;
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| OnlineError::Storage(format!("seek failed: {e}")))?;
            match wire::read_frame(&mut file)
                .map_err(|e| OnlineError::Storage(format!("read failed: {e}")))?
            {
                Frame::Payload(payload) => Self::decode_entry(&payload, self.dim),
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

    /// Cache-through lookup of any stored live sequence.
    fn entry(&self, seq: u32) -> (Record, Vec<f32>) {
        if (seq as usize) >= self.sealed {
            let (_, record, embedding) = &self.tail[seq as usize - self.sealed];
            return (record.clone(), embedding.clone());
        }
        {
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            if let Some(hit) = cache.get(seq) {
                return hit;
            }
        }
        let entry = self.read_sealed(seq);
        self.cache.lock().expect("cache lock poisoned").insert(
            self.config.cache_records,
            seq,
            entry.clone(),
        );
        entry
    }

    /// Decode a whole segment file sequentially (bulk iteration and
    /// compaction path).
    fn read_segment(&self, meta: &SegmentMeta) -> Vec<(Record, Vec<f32>)> {
        let path = self.path_of(meta);
        let decode = (|| -> Result<Vec<(Record, Vec<f32>)>> {
            let file = std::fs::File::open(&path)
                .map_err(|e| OnlineError::Storage(format!("open failed: {e}")))?;
            let mut reader = BufReader::new(file);
            let mut magic = [0u8; 4];
            reader
                .read_exact(&mut magic)
                .map_err(|e| OnlineError::Storage(format!("read failed: {e}")))?;
            if &magic != wire::SEGMENT_MAGIC {
                return Err(OnlineError::Storage("bad segment magic".into()));
            }
            let mut out = Vec::with_capacity(meta.records);
            for _ in 0..meta.records {
                match wire::read_frame(&mut reader)
                    .map_err(|e| OnlineError::Storage(format!("read failed: {e}")))?
                {
                    Frame::Payload(payload) => out.push(Self::decode_entry(&payload, self.dim)?),
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
        let payload = SegmentRecordStore::encode_entry(record, embedding);
        wire::write_frame(&mut buf, &payload)
            .map_err(|e| OnlineError::Storage(format!("segment encode failed: {e}")))?;
    }

    let path = dir.join(&file);
    let tmp = path.with_extension("tmp");
    let publish = (|| -> std::io::Result<()> {
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
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

impl RecordStore for SegmentRecordStore {
    fn dim(&self) -> usize {
        self.dim
    }

    fn open_source(&mut self, name: &str) -> u32 {
        self.names.push(name.to_string());
        self.seq_of.push(Vec::new());
        (self.seq_of.len() - 1) as u32
    }

    fn append(&mut self, source: u32, record: &Record, embedding: &[f32]) -> Result<EntityId> {
        assert_eq!(embedding.len(), self.dim, "embedding width mismatch");
        let seq = self.entity_of_seq.len() as u32;
        assert!(seq < TOMBSTONE_SEQ, "sequence space exhausted");
        let row = self.seq_of[source as usize].len() as u32;
        let id = EntityId::new(source, row);
        self.seq_of[source as usize].push(seq);
        self.entity_of_seq.push(id);
        self.tail.push((source, record.clone(), embedding.to_vec()));
        if self.tail.len() >= self.config.segment_records {
            if let Err(e) = self.seal() {
                // A failed seal leaves the tail as it was; take the record
                // back out of it, so `Err` means nothing was stored and the
                // next append tries the seal again.
                self.seq_of[source as usize].pop();
                self.entity_of_seq.pop();
                self.tail.pop();
                return Err(e);
            }
        }
        Ok(id)
    }

    fn get(&self, id: EntityId) -> Option<Record> {
        Some(self.entry(self.seq(id)?).0)
    }

    fn embedding(&self, id: EntityId) -> Option<Vec<f32>> {
        Some(self.entry(self.seq(id)?).1)
    }

    fn delete(&mut self, id: EntityId) -> Result<bool> {
        let Some(seq) = self.seq(id) else {
            return Ok(false);
        };
        self.seq_of[id.source as usize][id.row as usize] = TOMBSTONE_SEQ;
        if (seq as usize) < self.sealed {
            let idx = self.segment_index_of(seq);
            debug_assert!(self.segments[idx].frame_of(seq).is_some());
            self.segments[idx].dead += 1;
            self.cache.lock().expect("cache lock poisoned").remove(seq);
        } else {
            // Free the tail payload in place; the slot keeps the sequence
            // space aligned until the next seal skips it.
            self.tail[seq as usize - self.sealed] =
                (id.source, Record::new(Vec::new()), Vec::new());
            self.tail_dead += 1;
        }
        self.deleted += 1;
        Ok(true)
    }

    fn iter(&self) -> RecordIter<'_> {
        let sealed = self.segments.iter().flat_map(move |meta| {
            self.read_segment(meta)
                .into_iter()
                .enumerate()
                .filter_map(move |(i, (record, _))| {
                    let seq = meta.seq_at(i);
                    self.is_live(seq)
                        .then(|| (self.entity_of_seq[seq as usize], record))
                })
        });
        let tail = self
            .tail
            .iter()
            .enumerate()
            .filter(move |&(i, _)| self.is_live((self.sealed + i) as u32))
            .map(move |(i, (_, record, _))| (self.entity_of_seq[self.sealed + i], record.clone()));
        Box::new(sealed.chain(tail))
    }

    fn len(&self) -> usize {
        self.entity_of_seq.len()
    }

    fn num_sources(&self) -> usize {
        self.seq_of.len()
    }

    fn source_len(&self, source: u32) -> usize {
        self.seq_of.get(source as usize).map_or(0, Vec::len)
    }

    fn source_name(&self, source: u32) -> Option<&str> {
        self.names.get(source as usize).map(String::as_str)
    }

    fn flush(&mut self) -> Result<()> {
        self.seal()
    }

    fn reopen(&mut self) -> Result<()> {
        let mut previous_end = 0u32;
        for meta in &mut self.segments {
            let path = Path::new(&self.config.dir).join(&meta.file);
            let file = std::fs::File::open(&path).map_err(|e| {
                OnlineError::Storage(format!("segment `{}` missing: {e}", path.display()))
            })?;
            let actual = file
                .metadata()
                .map_err(|e| {
                    OnlineError::Storage(format!("segment `{}` unreadable: {e}", path.display()))
                })?
                .len();
            if actual != meta.bytes {
                return Err(OnlineError::Storage(format!(
                    "segment `{}` is {actual} bytes on disk, index says {}",
                    path.display(),
                    meta.bytes
                )));
            }
            let mut reader = BufReader::new(file);
            let mut magic = [0u8; 4];
            reader.read_exact(&mut magic).map_err(|e| {
                OnlineError::Storage(format!("segment `{}` unreadable: {e}", path.display()))
            })?;
            if &magic != wire::SEGMENT_MAGIC {
                return Err(OnlineError::Storage(format!(
                    "segment `{}` has a bad magic header",
                    path.display()
                )));
            }
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
        if previous_end as usize > self.sealed {
            return Err(OnlineError::Storage(format!(
                "segment index covers sequences up to {previous_end}, past the sealed \
                 boundary {}",
                self.sealed
            )));
        }
        if self.sealed + self.tail.len() != self.entity_of_seq.len() {
            return Err(OnlineError::Storage(format!(
                "sealed boundary {} plus {} tail records disagrees with {} appends",
                self.sealed,
                self.tail.len(),
                self.entity_of_seq.len()
            )));
        }
        // Every *live* sealed sequence must be covered by some segment
        // frame: a snapshot whose segment list lost an entry (but whose
        // sequence map still marks those records live) must be refused here
        // — `read_sealed` panics on the same damage at serving time.
        for rows in &self.seq_of {
            for &seq in rows {
                if seq == TOMBSTONE_SEQ || seq as usize >= self.sealed {
                    continue;
                }
                let covered = self
                    .segments
                    .partition_point(|m| m.first_seq <= seq)
                    .checked_sub(1)
                    .and_then(|idx| self.segments[idx].frame_of(seq))
                    .is_some();
                if !covered {
                    return Err(OnlineError::Storage(format!(
                        "live sealed sequence {seq} is not covered by any segment in the \
                         index"
                    )));
                }
            }
        }
        self.cache = Mutex::new(RecordCache::default());
        Ok(())
    }

    fn gc(&mut self) -> Result<u64> {
        let entries = std::fs::read_dir(self.dir()).map_err(|e| {
            OnlineError::Storage(format!(
                "cannot list segment dir `{}`: {e}",
                self.config.dir
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
            if !ours || self.segments.iter().any(|meta| meta.file == name) {
                continue;
            }
            std::fs::remove_file(entry.path()).map_err(|e| {
                OnlineError::Storage(format!("cannot delete orphaned segment `{name}`: {e}"))
            })?;
            deleted += 1;
        }
        self.gc_deleted += deleted;
        Ok(deleted)
    }

    fn compact(&mut self) -> Result<CompactionReport> {
        let threshold = self.config.compact_live_ratio;
        let compactable: Vec<bool> = self
            .segments
            .iter()
            .map(|meta| meta.dead > 0 && meta.live_ratio() <= threshold)
            .collect();
        if !compactable.iter().any(|&c| c) {
            return Ok(CompactionReport::default());
        }

        // Rebuild the whole index first and swap it in at the end: an I/O
        // error mid-pass leaves the current index (and its files) intact,
        // and any files the failed pass already sealed become gc-able
        // orphans.
        let mut report = CompactionReport::default();
        let mut rebuilt: Vec<SegmentMeta> = Vec::with_capacity(self.segments.len());
        let old_segments = self.segments.clone();
        let mut i = 0;
        while i < old_segments.len() {
            if !compactable[i] {
                rebuilt.push(old_segments[i].clone());
                i += 1;
                continue;
            }
            // A maximal run of consecutive compactable segments merges into
            // dense-as-possible replacement files (sequence coverage stays
            // sorted because the run is consecutive).
            let run_start = i;
            while i < old_segments.len() && compactable[i] {
                i += 1;
            }
            let run = &old_segments[run_start..i];
            let mut live: Vec<(u32, Record, Vec<f32>)> = Vec::new();
            let mut old_bytes = 0u64;
            for meta in run {
                old_bytes += meta.bytes;
                for (frame, (record, embedding)) in self.read_segment(meta).into_iter().enumerate()
                {
                    let seq = meta.seq_at(frame);
                    if self.is_live(seq) {
                        live.push((seq, record, embedding));
                    }
                }
            }
            let mut new_bytes = 0u64;
            for chunk in live.chunks(self.config.segment_records.max(1)) {
                let entries: Vec<(u32, &Record, &[f32])> = chunk
                    .iter()
                    .map(|(seq, record, embedding)| (*seq, record, embedding.as_slice()))
                    .collect();
                let meta = self.seal_entries(&entries)?;
                new_bytes += meta.bytes;
                report.segments_written += 1;
                rebuilt.push(meta);
            }
            report.segments_compacted += run.len() as u64;
            report.reclaimed_bytes += old_bytes.saturating_sub(new_bytes);
        }
        self.segments = rebuilt;
        self.compactions += report.segments_compacted;
        self.reclaimed += report.reclaimed_bytes;
        Ok(report)
    }

    fn stats(&self) -> StorageStats {
        let cache = self.cache.lock().expect("cache lock poisoned");
        let tail_bytes: usize = self
            .tail
            .iter()
            .map(|(_, r, e)| record_heap_bytes(r) + e.len() * 4 + 8)
            .sum();
        let spilled_records: usize = self.segments.iter().map(|m| m.records).sum();
        // Resident index overhead: seq maps (4 B/record), the seq -> id map
        // (8 B/record), frame offsets (8 B/frame) and sparse sequence lists
        // (4 B/frame where present).
        let index_bytes = self.entity_of_seq.len() * 12
            + spilled_records * 8
            + self
                .segments
                .iter()
                .filter(|m| m.seqs.is_some())
                .map(|m| m.records * 4)
                .sum::<usize>();
        StorageStats {
            backend: "disk",
            records: self.entity_of_seq.len(),
            deleted_records: self.deleted,
            resident_records: self.tail.len() - self.tail_dead + cache.len(),
            resident_bytes: tail_bytes + cache.approx_bytes() + index_bytes,
            spilled_records,
            spilled_bytes: self.segments.iter().map(|m| m.bytes).sum(),
            segments: self.segments.len(),
            segments_deleted: self.gc_deleted,
            compactions: self.compactions,
            reclaimed_bytes: self.reclaimed,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        }
    }

    fn segment_stats(&self) -> Vec<SegmentStats> {
        self.segments
            .iter()
            .map(|meta| SegmentStats {
                records: meta.records,
                dead: meta.dead,
                bytes: meta.bytes,
            })
            .collect()
    }
}
