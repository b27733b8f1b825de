//! Pluggable record/embedding storage for the online entity store.
//!
//! [`crate::EntityStore`] used to own every ingested [`Record`] (in
//! `Vec<Table>`) and every embedding (in an
//! [`multiem_core::representation::EmbeddingStore`]) directly, so resident
//! memory grew linearly with ingest. This module factors that ownership out
//! behind the [`RecordStore`] trait with two backends:
//!
//! * [`MemRecordStore`] — everything resident, the original behaviour and
//!   the default ([`crate::StorageConfig::Memory`]);
//! * [`SegmentRecordStore`] — records and embeddings spill to append-only,
//!   CRC-framed segment files (the framing of [`crate::wire`], shared with
//!   the WAL and the binary snapshot codec), keeping only the unsealed tail
//!   and a fixed-size hot cache in memory
//!   ([`crate::StorageConfig::Disk`]).
//!
//! The matching state itself (the cluster table: member lists, centroid
//! sums, the representative ANN index) stays in memory in both cases —
//! it is the *per-record* payload (text + `dim` floats) that dominates
//! long-running deployments and that the disk backend bounds.
//!
//! [`RecordStorage`] is the concrete enum the store embeds (static
//! dispatch, and it keeps `Clone`/serde derivable); both variants and the
//! enum itself implement [`RecordStore`].

pub mod mem;
pub mod segment;

pub use mem::MemRecordStore;
pub use segment::SegmentRecordStore;

use crate::config::StorageConfig;
use crate::Result;
use multiem_table::{EntityId, Record};
use serde::{Deserialize, Serialize};

/// Boxed iterator over every stored record in append order.
pub type RecordIter<'a> = Box<dyn Iterator<Item = (EntityId, Record)> + 'a>;

/// Counters describing where records live and what they cost in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StorageStats {
    /// Backend tag (`"memory"` or `"disk"`).
    pub backend: &'static str,
    /// Total appended records, including tombstoned ones (row ids stay
    /// stable under deletion, so the append count never shrinks).
    pub records: usize,
    /// Records tombstoned by [`RecordStore::delete`] over the store's
    /// lifetime (persisted: survives snapshot/restore).
    pub deleted_records: usize,
    /// Records whose decoded form is resident (memory backend: all live;
    /// disk backend: unsealed tail + hot cache).
    pub resident_records: usize,
    /// Approximate bytes of resident record + embedding payload, including
    /// the disk backend's per-record index overhead.
    pub resident_bytes: usize,
    /// Records that live only in sealed segment files (live + tombstoned
    /// frames still present on disk).
    pub spilled_records: usize,
    /// On-disk bytes across sealed segment files.
    pub spilled_bytes: u64,
    /// Sealed segment files.
    pub segments: usize,
    /// Unreferenced segment files deleted by [`RecordStore::gc`] over this
    /// store's lifetime. Persisted through snapshot/restore; the restored
    /// value lags by at most the sweeps since the snapshot was taken (GC
    /// runs after the snapshot that the counter rides in).
    pub segments_deleted: u64,
    /// Segment files rewritten or dropped by [`RecordStore::compact`] over
    /// the store's lifetime (persisted: survives snapshot/restore).
    pub compactions: u64,
    /// On-disk bytes reclaimed by compaction over the store's lifetime
    /// (persisted). Counted when the rewrite commits; the superseded files
    /// are physically removed by the next [`RecordStore::gc`].
    pub reclaimed_bytes: u64,
    /// Hot-cache hits since the store was opened (volatile: not part of the
    /// persisted state, resets on restore).
    pub cache_hits: u64,
    /// Hot-cache misses (each one is a segment-file read).
    pub cache_misses: u64,
}

impl Default for StorageStats {
    /// All-zero counters tagged with the default (`"memory"`) backend —
    /// the identity element for the serving layer's cross-shard merges.
    fn default() -> Self {
        StorageStats {
            backend: "memory",
            records: 0,
            deleted_records: 0,
            resident_records: 0,
            resident_bytes: 0,
            spilled_records: 0,
            spilled_bytes: 0,
            segments: 0,
            segments_deleted: 0,
            compactions: 0,
            reclaimed_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

/// Health of one sealed segment file (the per-segment rows of the serving
/// layer's `/debug/storage` surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SegmentStats {
    /// Frames in the file (live records at seal time).
    pub records: usize,
    /// Frames tombstoned since the file was sealed.
    pub dead: usize,
    /// File size in bytes.
    pub bytes: u64,
}

impl SegmentStats {
    /// Fraction of the file's frames still live (compaction triggers once
    /// this falls to the configured threshold).
    pub fn live_ratio(&self) -> f64 {
        (self.records - self.dead) as f64 / self.records.max(1) as f64
    }
}

/// Outcome of one [`RecordStore::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CompactionReport {
    /// Segment files rewritten or dropped by this pass.
    pub segments_compacted: u64,
    /// Fresh segment files the pass sealed (0 when every compacted segment
    /// was fully dead).
    pub segments_written: u64,
    /// Bytes of superseded segment files minus bytes of their replacements.
    pub reclaimed_bytes: u64,
}

/// Append-only storage of `(record, embedding)` pairs keyed by
/// [`EntityId`], with per-source row numbering.
///
/// Implementations must preserve exact round-trips: `get` / `embedding`
/// return byte-identical data to what was appended, in any order, across
/// `flush` + `reopen` cycles.
pub trait RecordStore {
    /// Embedding dimensionality every appended embedding must match.
    fn dim(&self) -> usize;

    /// Open a new source table, returning its source id.
    fn open_source(&mut self, name: &str) -> u32;

    /// Append one record with its embedding to `source`, returning the id
    /// it is retrievable under (row numbers are dense per source). On `Err`
    /// nothing was stored: no row number was spent.
    fn append(&mut self, source: u32, record: &Record, embedding: &[f32]) -> Result<EntityId>;

    /// The record stored under `id`, or `None` for unknown or deleted ids.
    fn get(&self, id: EntityId) -> Option<Record>;

    /// The embedding stored under `id`, or `None` for unknown or deleted
    /// ids.
    fn embedding(&self, id: EntityId) -> Option<Vec<f32>>;

    /// Tombstone the record under `id`: `get` / `embedding` return `None`
    /// from now on, and the payload is freed (memory backend) or marked
    /// dead pending [`RecordStore::compact`] (disk backend). Row numbering
    /// is unaffected — ids of other records never shift. Returns whether a
    /// live record was deleted (`false` for unknown or already-deleted
    /// ids).
    fn delete(&mut self, id: EntityId) -> Result<bool>;

    /// Iterate every *live* record in append order.
    fn iter(&self) -> RecordIter<'_>;

    /// Total stored records.
    fn len(&self) -> usize;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of opened sources.
    fn num_sources(&self) -> usize;

    /// Records stored for one source (0 for unknown sources).
    fn source_len(&self, source: u32) -> usize;

    /// Name a source was opened with.
    fn source_name(&self, source: u32) -> Option<&str>;

    /// Persist any buffered state (the disk backend seals its tail segment,
    /// so a subsequent snapshot carries no record payload). No-op for the
    /// memory backend.
    fn flush(&mut self) -> Result<()>;

    /// Re-attach deserialized metadata to its backing files (the disk
    /// backend re-scans its segment files and rebuilds frame offsets).
    /// Called by [`crate::EntityStore`] after snapshot restore.
    fn reopen(&mut self) -> Result<()>;

    /// Garbage-collect backing files the store no longer references (the
    /// disk backend deletes segment files absent from its committed segment
    /// index — orphans left behind by a crash between sealing and
    /// checkpoint commit). Returns the number of files deleted; the
    /// cumulative count is surfaced as
    /// [`StorageStats::segments_deleted`]. No-op for the memory backend.
    fn gc(&mut self) -> Result<u64> {
        Ok(0)
    }

    /// Rewrite sealed segment files whose live fraction fell to or below
    /// the configured threshold
    /// ([`DiskStorageConfig::compact_live_ratio`](crate::DiskStorageConfig))
    /// into fresh sealed files holding only live records, dropping
    /// fully-dead files outright. The in-memory index switches atomically;
    /// superseded files stay on disk until [`RecordStore::gc`] sweeps them,
    /// so callers persisting snapshots must commit the post-compaction
    /// index before sweeping. No-op for the memory backend.
    fn compact(&mut self) -> Result<CompactionReport> {
        Ok(CompactionReport::default())
    }

    /// Storage counters.
    fn stats(&self) -> StorageStats;

    /// Per-segment health, in segment order (empty for backends without
    /// segment files — the memory backend keeps the default).
    fn segment_stats(&self) -> Vec<SegmentStats> {
        Vec::new()
    }
}

/// The concrete storage backends, selected by
/// [`StorageConfig`](crate::StorageConfig).
// One store embeds exactly one backend, so the size gap between the two
// variants buys nothing by boxing (and the vendored serde stand-in has no
// `Box` support).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RecordStorage {
    /// Fully resident storage.
    Mem(MemRecordStore),
    /// Spill-to-disk segment storage.
    Disk(SegmentRecordStore),
}

impl RecordStorage {
    /// Build the backend named by `config` for embeddings of width `dim`.
    pub fn new(config: &StorageConfig, dim: usize) -> Result<Self> {
        Ok(match config {
            StorageConfig::Memory => RecordStorage::Mem(MemRecordStore::new(dim)),
            StorageConfig::Disk(disk) => {
                RecordStorage::Disk(SegmentRecordStore::create(disk.clone(), dim)?)
            }
        })
    }
}

macro_rules! delegate {
    ($self:ident, $store:ident => $body:expr) => {
        match $self {
            RecordStorage::Mem($store) => $body,
            RecordStorage::Disk($store) => $body,
        }
    };
}

impl RecordStore for RecordStorage {
    fn dim(&self) -> usize {
        delegate!(self, s => s.dim())
    }

    fn open_source(&mut self, name: &str) -> u32 {
        delegate!(self, s => s.open_source(name))
    }

    fn append(&mut self, source: u32, record: &Record, embedding: &[f32]) -> Result<EntityId> {
        delegate!(self, s => s.append(source, record, embedding))
    }

    fn get(&self, id: EntityId) -> Option<Record> {
        delegate!(self, s => s.get(id))
    }

    fn embedding(&self, id: EntityId) -> Option<Vec<f32>> {
        delegate!(self, s => s.embedding(id))
    }

    fn delete(&mut self, id: EntityId) -> Result<bool> {
        delegate!(self, s => s.delete(id))
    }

    fn iter(&self) -> RecordIter<'_> {
        delegate!(self, s => s.iter())
    }

    fn len(&self) -> usize {
        delegate!(self, s => s.len())
    }

    fn num_sources(&self) -> usize {
        delegate!(self, s => s.num_sources())
    }

    fn source_len(&self, source: u32) -> usize {
        delegate!(self, s => s.source_len(source))
    }

    fn source_name(&self, source: u32) -> Option<&str> {
        delegate!(self, s => s.source_name(source))
    }

    fn flush(&mut self) -> Result<()> {
        delegate!(self, s => s.flush())
    }

    fn reopen(&mut self) -> Result<()> {
        delegate!(self, s => s.reopen())
    }

    fn gc(&mut self) -> Result<u64> {
        delegate!(self, s => s.gc())
    }

    fn compact(&mut self) -> Result<CompactionReport> {
        delegate!(self, s => s.compact())
    }

    fn stats(&self) -> StorageStats {
        delegate!(self, s => s.stats())
    }

    fn segment_stats(&self) -> Vec<SegmentStats> {
        delegate!(self, s => s.segment_stats())
    }
}

/// Approximate heap footprint of one record's values (used by both backends
/// for resident-byte accounting).
pub(crate) fn record_heap_bytes(record: &Record) -> usize {
    let mut bytes = std::mem::size_of::<Record>();
    for v in record.values() {
        bytes += std::mem::size_of_val(v);
        if let Some(t) = v.as_text() {
            bytes += t.len();
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskStorageConfig;
    use multiem_table::Value;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "multiem-storage-test-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(i: usize) -> Record {
        Record::new(vec![
            Value::Text(format!("item number {i}")),
            Value::Number(i as f64),
            Value::Null,
        ])
    }

    fn embedding(i: usize, dim: usize) -> Vec<f32> {
        (0..dim).map(|d| (i * 31 + d) as f32 * 0.25).collect()
    }

    fn exercise(store: &mut dyn RecordStore, n: usize) {
        let dim = store.dim();
        let a = store.open_source("alpha");
        let b = store.open_source("beta");
        for i in 0..n {
            let source = if i % 3 == 0 { b } else { a };
            let id = store
                .append(source, &record(i), &embedding(i, dim))
                .unwrap();
            assert_eq!(id.source, source);
        }
        assert_eq!(store.len(), n);
        assert_eq!(store.num_sources(), 2);
        assert_eq!(store.source_len(a) + store.source_len(b), n);
        assert_eq!(store.source_name(b), Some("beta"));
        assert_eq!(store.source_name(9), None);
    }

    fn verify(store: &dyn RecordStore, n: usize) {
        let dim = store.dim();
        // Reconstruct the expected (source, row) assignment.
        let mut rows = [0u32; 2];
        for i in 0..n {
            let source = u32::from(i % 3 == 0);
            let id = EntityId::new(source, rows[source as usize]);
            rows[source as usize] += 1;
            assert_eq!(store.get(id), Some(record(i)), "record {i}");
            assert_eq!(
                store.embedding(id),
                Some(embedding(i, dim)),
                "embedding {i}"
            );
        }
        assert_eq!(store.get(EntityId::new(5, 0)), None);
        assert_eq!(store.embedding(EntityId::new(0, u32::MAX)), None);
        // Iteration covers everything in append order.
        let all: Vec<(EntityId, Record)> = store.iter().collect();
        assert_eq!(all.len(), n);
        for (i, (_, r)) in all.iter().enumerate() {
            assert_eq!(r, &record(i));
        }
    }

    #[test]
    fn memory_backend_roundtrips() {
        let mut store = MemRecordStore::new(4);
        exercise(&mut store, 40);
        verify(&store, 40);
        let stats = store.stats();
        assert_eq!(stats.backend, "memory");
        assert_eq!(stats.records, 40);
        assert_eq!(stats.resident_records, 40);
        assert_eq!(stats.spilled_records, 0);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn disk_backend_roundtrips_and_spills() {
        let dir = temp_dir("roundtrip");
        let config = DiskStorageConfig {
            segment_records: 8,
            cache_records: 6,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 40);
        verify(&store, 40);
        let stats = store.stats();
        assert_eq!(stats.backend, "disk");
        assert_eq!(stats.records, 40);
        assert_eq!(stats.segments, 5, "40 appends at 8/segment seal 5 files");
        assert_eq!(stats.spilled_records, 40);
        assert!(stats.spilled_bytes > 0);
        assert!(
            stats.resident_records <= 6,
            "resident records bounded by the cache: {stats:?}"
        );
        assert!(stats.cache_hits + stats.cache_misses > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_backend_flush_seals_partial_tail() {
        let dir = temp_dir("flush");
        let config = DiskStorageConfig {
            segment_records: 100,
            cache_records: 4,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 10);
        assert_eq!(store.stats().segments, 0, "tail not yet sealed");
        store.flush().unwrap();
        assert_eq!(store.stats().segments, 1);
        assert_eq!(store.stats().spilled_records, 10);
        // Appends continue into a fresh tail; mixed segment sizes resolve.
        exercise_more(&mut store, 10, 5);
        store.flush().unwrap();
        assert_eq!(store.stats().segments, 2);
        verify(&store, 15);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Append records `n..n + extra` following the `exercise` routing.
    fn exercise_more(store: &mut dyn RecordStore, n: usize, extra: usize) {
        let dim = store.dim();
        for i in n..n + extra {
            let source = u32::from(i % 3 == 0);
            store
                .append(source, &record(i), &embedding(i, dim))
                .unwrap();
        }
    }

    #[test]
    fn disk_backend_survives_serde_reopen() {
        let dir = temp_dir("reopen");
        let config = DiskStorageConfig {
            segment_records: 7,
            cache_records: 8,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 30);

        // Serialize metadata + unsealed tail, as a snapshot would.
        let value = serde::Serialize::to_value(&store);
        let mut reopened: SegmentRecordStore = serde::Deserialize::from_value(&value).unwrap();
        reopened.reopen().unwrap();
        verify(&reopened, 30);
        assert_eq!(reopened.stats().segments, store.stats().segments);

        // The reopened store keeps appending where the original left off.
        exercise_more(&mut reopened, 30, 12);
        verify(&reopened, 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_backend_reopen_rejects_missing_or_corrupt_segments() {
        let dir = temp_dir("corrupt");
        let config = DiskStorageConfig {
            segment_records: 5,
            cache_records: 0,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 10);
        let value = serde::Serialize::to_value(&store);

        // Truncate one segment file: reopen must fail loudly.
        let seg = dir.join("seg-000001.seg");
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let mut broken: SegmentRecordStore = serde::Deserialize::from_value(&value).unwrap();
        assert!(broken.reopen().is_err());

        // A missing file fails too.
        std::fs::remove_file(&seg).unwrap();
        let mut missing: SegmentRecordStore = serde::Deserialize::from_value(&value).unwrap();
        assert!(missing.reopen().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_deletes_only_unreferenced_segment_files() {
        let dir = temp_dir("gc");
        let config = DiskStorageConfig {
            segment_records: 5,
            cache_records: 4,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 12); // seals seg-000000 and seg-000001
        let sealed = store.stats().segments;
        assert_eq!(sealed, 2);

        // Orphans a crash between sealing and checkpoint commit could
        // leave: a segment beyond the index and an interrupted seal's tmp.
        std::fs::write(dir.join("seg-000042.seg"), b"orphan").unwrap();
        std::fs::write(dir.join("seg-000007.tmp"), b"torn seal").unwrap();
        // Foreign files are not ours to delete.
        std::fs::write(dir.join("NOTES.md"), b"keep").unwrap();

        assert_eq!(store.gc().unwrap(), 2);
        assert!(!dir.join("seg-000042.seg").exists());
        assert!(!dir.join("seg-000007.tmp").exists());
        assert!(dir.join("NOTES.md").exists());
        // Referenced segments survive and still serve reads.
        verify(&store, 12);
        let stats = store.stats();
        assert_eq!(stats.segments, sealed);
        assert_eq!(stats.segments_deleted, 2, "cumulative counter");
        // A second pass finds nothing.
        assert_eq!(store.gc().unwrap(), 0);
        assert_eq!(store.stats().segments_deleted, 2);

        // The memory backend's gc is a no-op.
        let mut mem = MemRecordStore::new(4);
        assert_eq!(mem.gc().unwrap(), 0);
        assert_eq!(mem.stats().segments_deleted, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `(append index, id)` pairs of the `exercise` routing.
    fn exercise_ids(n: usize) -> Vec<EntityId> {
        let mut rows = [0u32; 2];
        (0..n)
            .map(|i| {
                let source = u32::from(i % 3 == 0);
                let id = EntityId::new(source, rows[source as usize]);
                rows[source as usize] += 1;
                id
            })
            .collect()
    }

    /// Delete every even-indexed append of an `exercise(store, n)` run.
    fn delete_evens(store: &mut dyn RecordStore, n: usize) {
        for (i, id) in exercise_ids(n).iter().enumerate() {
            if i % 2 == 0 {
                assert!(store.delete(*id).unwrap(), "delete {i}");
                assert!(!store.delete(*id).unwrap(), "idempotent {i}");
            }
        }
        assert!(
            !store.delete(EntityId::new(7, 0)).unwrap(),
            "unknown source"
        );
        assert!(
            !store.delete(EntityId::new(0, u32::MAX)).unwrap(),
            "unknown row"
        );
    }

    /// Read-only verification after [`delete_evens`]: deleted lookups go
    /// `None`, survivors read back exact, iteration skips the dead.
    fn verify_deleted(store: &dyn RecordStore, n: usize) {
        let ids = exercise_ids(n);
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(store.get(*id), None, "deleted record {i} readable");
                assert_eq!(store.embedding(*id), None);
            } else {
                assert_eq!(store.get(*id), Some(record(i)), "survivor {i}");
                assert_eq!(store.embedding(*id), Some(embedding(i, store.dim())));
            }
        }
        let live: Vec<(EntityId, Record)> = store.iter().collect();
        assert_eq!(live.len(), n - n.div_ceil(2), "iter yields only live");
        assert!(live.iter().all(|(id, _)| ids
            .iter()
            .enumerate()
            .any(|(i, known)| known == id && i % 2 == 1)));
        let stats = store.stats();
        assert_eq!(stats.records, n, "append count never shrinks");
        assert_eq!(stats.deleted_records, n.div_ceil(2));
    }

    /// [`delete_evens`] + [`verify_deleted`].
    fn exercise_delete(store: &mut dyn RecordStore, n: usize) {
        delete_evens(store, n);
        verify_deleted(store, n);
    }

    #[test]
    fn memory_backend_deletes_and_frees() {
        let mut store = MemRecordStore::new(4);
        exercise(&mut store, 20);
        let bytes_before = store.stats().resident_bytes;
        exercise_delete(&mut store, 20);
        assert!(
            store.stats().resident_bytes < bytes_before,
            "deletes must free record payload in place"
        );
    }

    #[test]
    fn disk_backend_deletes_across_tail_and_sealed() {
        let dir = temp_dir("delete");
        let config = DiskStorageConfig {
            segment_records: 6,
            cache_records: 4,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 20); // 3 sealed segments + 2 in the tail
        exercise_delete(&mut store, 20);

        // Serde + reopen keeps the tombstones.
        let value = serde::Serialize::to_value(&store);
        let mut reopened: SegmentRecordStore = serde::Deserialize::from_value(&value).unwrap();
        reopened.reopen().unwrap();
        let stats = reopened.stats();
        assert_eq!(stats.deleted_records, 10);
        assert_eq!(reopened.iter().count(), 10);
        // Appends continue after deletes and a reopen.
        exercise_more(&mut reopened, 20, 4);
        assert_eq!(reopened.stats().records, 24);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rewrites_hollow_segments_and_reclaims_bytes() {
        let dir = temp_dir("compact");
        let config = DiskStorageConfig {
            segment_records: 4,
            cache_records: 0,
            compact_live_ratio: 0.6,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 16); // 4 sealed segments of 4
        let before = store.stats();
        assert_eq!(before.segments, 4);

        // Nothing dead: compaction is a no-op.
        let report = store.compact().unwrap();
        assert_eq!(report, CompactionReport::default());

        // Delete half of every segment (alternating append order).
        exercise_delete(&mut store, 16);
        let report = store.compact().unwrap();
        assert_eq!(report.segments_compacted, 4, "all segments were half dead");
        assert!(report.reclaimed_bytes > 0);
        let after = store.stats();
        assert_eq!(after.compactions, 4);
        assert_eq!(after.reclaimed_bytes, report.reclaimed_bytes);
        // Byte-accounted, so exactly repeatable: the deleted half is frame
        // for frame the size of the surviving half (`item number {i}`, even
        // against odd `i`), and four files become two.
        assert!(
            after.spilled_bytes * 2 <= before.spilled_bytes,
            "half the records deleted must reclaim at least half the \
             segment bytes ({} -> {})",
            before.spilled_bytes,
            after.spilled_bytes
        );
        // The merged run packs 8 survivors into 2 files of 4.
        assert_eq!(after.segments, 2);
        assert_eq!(after.spilled_records, 8);

        // Reads still come back exact after the rewrite...
        verify_deleted(&store, 16);
        // ...and GC sweeps exactly the superseded files.
        let swept = store.gc().unwrap();
        assert_eq!(swept, 4, "four original files replaced by two");
        verify_deleted(&store, 16);

        // A snapshot taken after compaction reopens cleanly (sparse
        // segment index survives serde).
        let value = serde::Serialize::to_value(&store);
        let mut reopened: SegmentRecordStore = serde::Deserialize::from_value(&value).unwrap();
        reopened.reopen().unwrap();
        verify_deleted(&reopened, 16);
        let restored = reopened.stats();
        assert_eq!(restored.compactions, 4, "compaction counter persisted");
        assert_eq!(restored.segments_deleted, 4, "gc counter persisted");
        assert_eq!(restored.reclaimed_bytes, after.reclaimed_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_refuses_an_index_missing_a_live_segment() {
        // A snapshot whose segment list lost an entry while the sequence
        // map still marks those records live must fail restore loudly —
        // accepting it would defer the damage to a panic on first read.
        let dir = temp_dir("lost-segment");
        let config = DiskStorageConfig {
            segment_records: 5,
            cache_records: 0,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 10); // two sealed segments
        let mut value = serde::Serialize::to_value(&store);
        if let serde::Value::Map(entries) = &mut value {
            for (key, field) in entries.iter_mut() {
                if key == "segments" {
                    if let serde::Value::Seq(segments) = field {
                        segments.pop();
                    }
                }
            }
        }
        let mut broken: SegmentRecordStore = serde::Deserialize::from_value(&value).unwrap();
        let err = broken.reopen();
        assert!(err.is_err(), "truncated segment index must be refused");
        assert!(
            format!("{}", err.unwrap_err()).contains("not covered"),
            "error should name the uncovered sequence"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fully_dead_segments_vanish_without_successor() {
        let dir = temp_dir("all-dead");
        let config = DiskStorageConfig {
            segment_records: 5,
            cache_records: 0,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        let source = store.open_source("only");
        for i in 0..10 {
            store.append(source, &record(i), &embedding(i, 4)).unwrap();
        }
        // Kill the entire first segment (rows 0..5).
        for row in 0..5 {
            assert!(store.delete(EntityId::new(source, row)).unwrap());
        }
        let report = store.compact().unwrap();
        assert_eq!(report.segments_compacted, 1);
        assert_eq!(report.segments_written, 0, "no survivors, no new file");
        let stats = store.stats();
        assert_eq!(stats.segments, 1, "only the live segment remains");
        store.gc().unwrap();
        // Survivors read fine; the second segment is untouched.
        for row in 5..10 {
            assert_eq!(
                store.get(EntityId::new(source, row)),
                Some(record(row as usize))
            );
        }
        // Deleting a tail record and sealing skips the dead entry.
        for i in 10..13 {
            store.append(source, &record(i), &embedding(i, 4)).unwrap();
        }
        assert!(store.delete(EntityId::new(source, 11)).unwrap());
        store.flush().unwrap();
        assert_eq!(store.get(EntityId::new(source, 11)), None);
        assert_eq!(
            store.get(EntityId::new(source, 12)),
            Some(record(12)),
            "live tail record survives a seal that skipped a dead one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_capacity_cache_still_reads_correctly() {
        let dir = temp_dir("nocache");
        let config = DiskStorageConfig {
            segment_records: 4,
            cache_records: 0,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        let mut store = SegmentRecordStore::create(config, 4).unwrap();
        exercise(&mut store, 20);
        verify(&store, 20);
        let stats = store.stats();
        assert_eq!(stats.cache_hits, 0, "cache disabled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enum_dispatch_matches_config() {
        let mem = RecordStorage::new(&StorageConfig::Memory, 3).unwrap();
        assert_eq!(mem.stats().backend, "memory");
        let dir = temp_dir("enum");
        let disk = RecordStorage::new(
            &StorageConfig::Disk(DiskStorageConfig::new(dir.display().to_string())),
            3,
        )
        .unwrap();
        assert_eq!(disk.stats().backend, "disk");
        std::fs::remove_dir_all(&dir).ok();
    }
}
