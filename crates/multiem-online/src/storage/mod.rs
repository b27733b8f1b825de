//! Record/embedding storage for the online entity store.
//!
//! [`crate::EntityStore`] keeps the matching state (the cluster table:
//! member lists, the representative ANN index) and hands every ingested
//! record and its embedding — the one copy the index rows derive from — to
//! one [`RecordStorage`], which also owns the map between a record's
//! `EntityId` and its place in the append order.
//!
//! There is one store. By default ([`crate::StorageConfig::Memory`]) it is a
//! resident tail of `(record, embedding)` entries in append order,
//! tombstoned in place. Given a directory ([`crate::StorageConfig::Disk`])
//! the same tail seals into append-only, CRC-framed segment files (the
//! framing of [`crate::wire`], shared with the WAL and the binary snapshot
//! codec) and only the unsealed tail and a fixed-size hot cache stay in
//! memory: it is the *per-record* payload (text + `dim` floats) that
//! dominates long-running deployments and that spilling bounds. See
//! [`segment`] for the layout.

pub mod segment;

pub use segment::RecordStorage;

use serde::Serialize;

/// Counters describing where records live and what they cost in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StorageStats {
    /// Backend tag (`"memory"` or `"disk"`).
    pub backend: &'static str,
    /// Total appended records, including tombstoned ones (row ids stay
    /// stable under deletion, so the append count never shrinks).
    pub records: usize,
    /// Records tombstoned by [`RecordStorage::delete`] over the store's
    /// lifetime (persisted: survives snapshot/restore).
    pub deleted_records: usize,
    /// Records whose decoded form is resident (the unsealed tail — without
    /// a directory, every live record — plus the hot cache).
    pub resident_records: usize,
    /// Approximate bytes of resident record + embedding payload, including
    /// the per-record index overhead.
    pub resident_bytes: usize,
    /// Records that live only in sealed segment files (live + tombstoned
    /// frames still present on disk).
    pub spilled_records: usize,
    /// On-disk bytes across sealed segment files.
    pub spilled_bytes: u64,
    /// Sealed segment files.
    pub segments: usize,
    /// Unreferenced segment files deleted by [`RecordStorage::gc`] over this
    /// store's lifetime. Persisted through snapshot/restore; the restored
    /// value lags by at most the sweeps since the snapshot was taken (GC
    /// runs after the snapshot that the counter rides in).
    pub segments_deleted: u64,
    /// Segment files rewritten or dropped by [`RecordStorage::compact`] over
    /// the store's lifetime (persisted: survives snapshot/restore).
    pub compactions: u64,
    /// On-disk bytes reclaimed by compaction over the store's lifetime
    /// (persisted). Counted when the rewrite commits; the superseded files
    /// are physically removed by the next [`RecordStorage::gc`].
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

/// Outcome of one [`RecordStorage::compact`] pass.
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{DiskStorageConfig, StorageConfig};
    use multiem_table::{EntityId, Record, Value};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "multiem-storage-test-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The two configurations a store can have: no directory, and a fresh
    /// one (returned for inspection and clean-up) it seals into every
    /// `segment_records` appends.
    fn configs(
        tag: &str,
        segment_records: usize,
        cache_records: usize,
    ) -> (PathBuf, [StorageConfig; 2]) {
        let dir = temp_dir(tag);
        let disk = DiskStorageConfig {
            segment_records,
            cache_records,
            ..DiskStorageConfig::new(dir.display().to_string())
        };
        (dir, [StorageConfig::Memory, StorageConfig::Disk(disk)])
    }

    /// An empty store of the spilling configuration of [`configs`].
    fn disk_store(
        tag: &str,
        segment_records: usize,
        cache_records: usize,
    ) -> (RecordStorage, PathBuf) {
        let (dir, [_, disk]) = configs(tag, segment_records, cache_records);
        (RecordStorage::new(&disk, 4).unwrap(), dir)
    }

    /// The node of a serde value tree at `path`: map keys by name, sequence
    /// items by index.
    pub(crate) fn at<'a>(value: &'a mut serde::Value, path: &[&str]) -> &'a mut serde::Value {
        path.iter().fold(value, |node, step| match node {
            serde::Value::Map(entries) => entries
                .iter_mut()
                .find_map(|(key, v)| (key == step).then_some(v))
                .unwrap_or_else(|| panic!("no field `{step}`")),
            serde::Value::Seq(items) => &mut items[step.parse::<usize>().unwrap()],
            other => panic!("`{step}` of {other:?}"),
        })
    }

    /// The items of the sequence at `path`.
    fn items<'a>(value: &'a mut serde::Value, path: &[&str]) -> &'a mut Vec<serde::Value> {
        match at(value, path) {
            serde::Value::Seq(items) => items,
            other => panic!("expected a sequence, got {other:?}"),
        }
    }

    /// What a snapshot would make of `store` had `edit` been at its value
    /// tree: through serde, then `reopen`.
    fn reopened_with(
        store: &RecordStorage,
        edit: impl Fn(&mut serde::Value),
    ) -> crate::Result<RecordStorage> {
        let mut value = serde::Serialize::to_value(store);
        edit(&mut value);
        let mut copy: RecordStorage = serde::Deserialize::from_value(&value).unwrap();
        copy.reopen().map(|()| copy)
    }

    fn reopened(store: &RecordStorage) -> crate::Result<RecordStorage> {
        reopened_with(store, |_| {})
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

    /// Append records `from..to`, every third to source 1, the rest to 0.
    fn append_range(store: &mut RecordStorage, from: usize, to: usize) {
        let dim = store.dim();
        for (i, &id) in exercise_ids(to).iter().enumerate().skip(from) {
            let stored = store.append(id.source, &record(i), &embedding(i, dim));
            assert_eq!(stored.unwrap(), id);
        }
    }

    fn exercise(store: &mut RecordStorage, n: usize) {
        assert_eq!(store.open_source(), 0);
        assert_eq!(store.open_source(), 1);
        append_range(store, 0, n);
        assert_eq!(store.len(), n);
        assert_eq!(store.num_sources(), 2);
    }

    /// The id of each append of the `exercise` routing, in append order.
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

    fn verify(store: &RecordStorage, n: usize) {
        let dim = store.dim();
        for (i, &id) in exercise_ids(n).iter().enumerate() {
            assert_eq!(store.get(id), Some(record(i)), "record {i}");
            assert_eq!(
                store.embedding(id),
                Some(embedding(i, dim)),
                "embedding {i}"
            );
            // The id map is the append order, both ways.
            assert_eq!(store.seq_of(id), Some(i));
            assert_eq!(store.id_at(i), id);
        }
        assert_eq!(store.get(EntityId::new(5, 0)), None);
        assert_eq!(store.embedding(EntityId::new(0, u32::MAX)), None);
        assert_eq!(store.seq_of(EntityId::new(0, u32::MAX)), None);
    }

    #[test]
    fn both_configurations_roundtrip_and_only_a_directory_spills() {
        let (dir, configs) = configs("roundtrip", 8, 6);
        for config in &configs {
            let mut store = RecordStorage::new(config, 4).unwrap();
            exercise(&mut store, 40);
            verify(&store, 40);
            let stats = store.stats();
            assert!(stats.resident_bytes > 0);
            if *config == StorageConfig::Memory {
                let resident = StorageStats {
                    records: 40,
                    resident_records: 40,
                    resident_bytes: stats.resident_bytes,
                    ..StorageStats::default()
                };
                assert_eq!(stats, resident, "everything else is zero");
                continue;
            }
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
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_without_a_directory_never_seals() {
        let mut store = RecordStorage::new(&StorageConfig::Memory, 4).unwrap();
        exercise(&mut store, 1_100); // past two default `segment_records`
        store.flush().unwrap();
        assert_eq!(store.gc().unwrap(), 0);
        assert_eq!(store.compact().unwrap(), CompactionReport::default());
        assert!(store.segment_stats().is_empty());
        let stats = store.stats();
        assert_eq!(stats.backend, "memory");
        assert_eq!((stats.segments, stats.spilled_bytes), (0, 0));
        assert_eq!(stats.resident_records, 1_100);
        // It holds no path it could create a file under.
        let state = serde::Serialize::to_value(&store);
        assert_eq!(
            serde::__get_field(&state, "spill"),
            Some(&serde::Value::Null)
        );
        verify(&reopened(&store).unwrap(), 1_100);
    }

    #[test]
    fn the_configuration_decides_whether_there_is_a_spill_part() {
        let (dir, configs) = configs("spill-part", 512, 1024);
        std::fs::remove_dir(&dir).unwrap();
        let spill_part = |config: &StorageConfig| {
            let store = RecordStorage::new(config, 3).unwrap();
            let state = serde::Serialize::to_value(&store);
            let spill = serde::__get_field(&state, "spill").expect("spill field");
            (store.stats().backend, spill.as_map().is_some())
        };
        assert_eq!(spill_part(&configs[0]), ("memory", false));
        assert!(!dir.exists(), "no directory is created without one to use");
        assert_eq!(spill_part(&configs[1]), ("disk", true));
        assert!(dir.is_dir(), "the configured directory is created");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_seals_a_partial_tail() {
        let (mut store, dir) = disk_store("flush", 100, 4);
        exercise(&mut store, 10);
        assert_eq!(store.stats().segments, 0, "tail not yet sealed");
        store.flush().unwrap();
        assert_eq!(store.stats().segments, 1);
        assert_eq!(store.stats().spilled_records, 10);
        // Appends continue into a fresh tail; mixed segment sizes resolve.
        append_range(&mut store, 10, 15);
        store.flush().unwrap();
        assert_eq!(store.stats().segments, 2);
        verify(&store, 15);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_survives_serde_reopen() {
        let (dir, configs) = configs("reopen", 7, 8);
        for config in &configs {
            let mut store = RecordStorage::new(config, 4).unwrap();
            exercise(&mut store, 30);

            // Serialize metadata + unsealed tail, as a snapshot would.
            let mut copy = reopened(&store).unwrap();
            verify(&copy, 30);
            assert_eq!(copy.stats().segments, store.stats().segments);

            // The reopened store keeps appending where the original left off.
            append_range(&mut copy, 30, 42);
            verify(&copy, 42);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_refuses_id_maps_that_are_not_inverses() {
        let (dir, configs) = configs("maps", 5, 0);
        for config in &configs {
            let mut store = RecordStorage::new(config, 4).unwrap();
            exercise(&mut store, 12);
            assert!(store.delete(exercise_ids(12)[4]).unwrap());
            assert!(reopened(&store).is_ok());

            let refused = |what: &str, edit: &dyn Fn(&mut serde::Value)| {
                let err = reopened_with(&store, edit).map(|s| s.stats());
                assert!(
                    matches!(err, Err(crate::OnlineError::Storage(_))),
                    "{what}: {err:?}"
                );
            };
            refused("a sequence re-pointed at another id", &|v| {
                let ids = items(v, &["entity_of_seq"]);
                ids[7] = ids[8].clone();
            });
            refused("a sequence naming a row nobody stored", &|v| {
                *at(v, &["entity_of_seq", "7", "row"]) = serde::Value::Int(70);
            });
            refused("a row re-pointed at another sequence", &|v| {
                let rows = items(v, &["seq_of", "0"]);
                rows[0] = rows[1].clone();
            });
            refused("a row pointing past the appends", &|v| {
                *at(v, &["seq_of", "0", "0"]) = serde::Value::Int(12);
            });
            refused("a row lost", &|v| drop(items(v, &["seq_of", "1"]).pop()));
            refused("a sequence lost", &|v| {
                drop(items(v, &["entity_of_seq"]).pop())
            });
            refused("a deletion uncounted", &|v| {
                *at(v, &["deleted"]) = serde::Value::Int(0);
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_rejects_missing_or_corrupt_segments() {
        let (mut store, dir) = disk_store("corrupt", 5, 0);
        exercise(&mut store, 10);

        // Truncate one segment file: reopen must fail loudly.
        let seg = dir.join("seg-000001.seg");
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        assert!(reopened(&store).is_err());

        // A missing file fails too.
        std::fs::remove_file(&seg).unwrap();
        assert!(reopened(&store).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_deletes_only_unreferenced_segment_files() {
        let (mut store, dir) = disk_store("gc", 5, 4);
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
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Delete every even-indexed append of an `exercise(store, n)` run.
    fn delete_evens(store: &mut RecordStorage, n: usize) {
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
    /// `None`, survivors read back exact.
    fn verify_deleted(store: &RecordStorage, n: usize) {
        let ids = exercise_ids(n);
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(store.get(*id), None, "deleted record {i} readable");
                assert_eq!(store.embedding(*id), None);
                assert_eq!(store.seq_of(*id), None);
            } else {
                assert_eq!(store.get(*id), Some(record(i)), "survivor {i}");
                assert_eq!(store.embedding(*id), Some(embedding(i, store.dim())));
            }
            assert_eq!(store.id_at(i), *id, "a sequence keeps its id");
        }
        let stats = store.stats();
        assert_eq!(stats.records, n, "append count never shrinks");
        assert_eq!(stats.deleted_records, n.div_ceil(2));
    }

    /// [`delete_evens`] + [`verify_deleted`].
    fn exercise_delete(store: &mut RecordStorage, n: usize) {
        delete_evens(store, n);
        verify_deleted(store, n);
    }

    #[test]
    fn deletes_free_the_tail_and_tombstone_sealed_frames() {
        let (dir, configs) = configs("delete", 6, 4);
        for config in &configs {
            let mut store = RecordStorage::new(config, 4).unwrap();
            exercise(&mut store, 20); // with a directory: 3 sealed segments + 2 in the tail
            let before = store.stats();
            exercise_delete(&mut store, 20);
            if before.segments == 0 {
                assert!(
                    store.stats().resident_bytes < before.resident_bytes,
                    "deletes must free record payload in place"
                );
                assert_eq!(store.stats().resident_records, 10);
            }

            // Serde + reopen keeps the tombstones.
            let mut copy = reopened(&store).unwrap();
            assert_eq!(copy.stats().deleted_records, 10);
            // Appends continue after deletes and a reopen.
            append_range(&mut copy, 20, 24);
            assert_eq!(copy.stats().records, 24);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rewrites_hollow_segments_and_reclaims_bytes() {
        let (mut store, dir) = disk_store("compact", 4, 0);
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
        let copy = reopened(&store).unwrap();
        verify_deleted(&copy, 16);
        let restored = copy.stats();
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
        let (mut store, dir) = disk_store("lost-segment", 5, 0);
        exercise(&mut store, 10); // two sealed segments
        let err = reopened_with(&store, |v| drop(items(v, &["spill", "segments"]).pop()));
        assert!(err.is_err(), "truncated segment index must be refused");
        assert!(
            format!("{}", err.unwrap_err()).contains("not covered"),
            "error should name the uncovered sequence"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fully_dead_segments_vanish_without_successor() {
        let (mut store, dir) = disk_store("all-dead", 5, 0);
        let source = store.open_source();
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
        let (mut store, dir) = disk_store("nocache", 4, 0);
        exercise(&mut store, 20);
        verify(&store, 20);
        let stats = store.stats();
        assert_eq!(stats.cache_hits, 0, "cache disabled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn running_byte_total_matches_a_recount_under_seeded_ops() {
        use rand::{Rng, SeedableRng};
        let (dir, configs) = configs("bytes", 9, 5);
        for config in &configs {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
            let mut store = RecordStorage::new(config, 4).unwrap();
            exercise(&mut store, 0);
            let (mut appended, mut counts) = (0, [0usize; 5]);
            for step in 0..400 {
                let op = match rng.gen_range(0..100) {
                    0..=49 => 0,
                    50..=79 => 1,
                    80..=87 => 2,
                    88..=93 => 3,
                    _ => 4,
                };
                counts[op] += 1;
                match op {
                    0 => {
                        append_range(&mut store, appended, appended + 1);
                        appended += 1;
                    }
                    1 if appended > 0 => {
                        let id = exercise_ids(appended)[rng.gen_range(0..appended)];
                        let live = store.get(id).is_some();
                        assert_eq!(store.delete(id).unwrap(), live, "step {step}");
                    }
                    2 => store.flush().unwrap(),
                    3 => drop(store.compact().unwrap()),
                    _ => store = reopened(&store).unwrap(),
                }
                store.check();
            }
            assert!(counts.iter().all(|&c| c >= 10), "every op ran: {counts:?}");
            let stats = store.stats();
            assert!(stats.deleted_records > 20 && stats.resident_records > 0);
            if *config != StorageConfig::Memory {
                assert!(stats.segments > 0 && stats.compactions > 0, "{stats:?}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
