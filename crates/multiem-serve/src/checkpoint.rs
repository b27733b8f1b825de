//! Durability: the manifest, checkpoint restore, WAL replay, and the delta
//! checkpoint.
//!
//! # Durability protocol
//!
//! `MANIFEST.json` is written when a data dir is created and is from then on
//! the one way to open it: it owns the shard count and the storage backend
//! (`--shards` and `--storage` on a populated directory are advisory, and
//! logged when they disagree), the WAL epoch and each shard's snapshot
//! epoch. Every write goes through its
//! shard's [`ShardWriter::commit`], which logs it to *that shard's* WAL
//! before applying it; startup restores the snapshots the manifest names and
//! replays each log through the same `commit` into the shard that wrote it —
//! shards are independent, so per-shard order is the only order that
//! matters. Killing the process at any point loses at most the torn tail of
//! a final append; acknowledged writes survive.
//!
//! Checkpoints are epoch-versioned **deltas** that commit via an atomic
//! manifest rename (see [`checkpoint`]'s step list). A crash *during* a
//! checkpoint can neither duplicate replayed ops into a snapshot that
//! already contains them nor leave a torn manifest behind. The WAL's
//! [`FsyncPolicy`](crate::FsyncPolicy) decides what a machine crash (as
//! opposed to a process kill) can lose.

use crate::config::{backend_name, ServeConfig, ServeError};
use crate::ingest::{Durable, ShardWriter};
use crate::obs::{Logger, Telemetry};
use crate::routes::{obj, render};
use crate::server::ServerState;
use crate::shard::ShardedEntityStore;
use crate::sync::{OrderedReadGuard, OrderedWriteGuard};
use crate::wal::Wal;
use multiem_embed::EmbeddingModel;
use multiem_online::{DiskStorageConfig, EntityStore, StorageConfig};
use multiem_table::Schema;
use serde::{Deserialize, Serialize, Value};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn wal_path(dir: &Path, shard: usize, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{shard:03}-{epoch:06}.log"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST.json")
}

fn snapshot_path(dir: &Path, shard: usize, epoch: u64) -> PathBuf {
    dir.join(format!("shard-{shard:03}-{epoch:06}.snap"))
}

/// Where a disk-backed data dir keeps its segment files.
pub(crate) fn segments_dir(dir: &Path) -> String {
    dir.join("segments").display().to_string()
}

/// Atomically publish `bytes` at `path` via a temp file + fsync + rename, so
/// a crash mid-write can never leave a torn file under the final name. The
/// `sync_all` before the rename matters: without it the rename can become
/// durable *before* the file contents, and a power cut would commit a
/// manifest or snapshot full of zeros.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// `MANIFEST.json`: what a data dir is. Written when the directory is
/// created and atomically replaced by every checkpoint.
#[derive(Serialize, Deserialize)]
pub(crate) struct Manifest {
    /// The directory's shard count — it, not `--shards`, sizes the store.
    shards: usize,
    /// The WAL epoch: the only `wal-NNN-{epoch}.log` files ever replayed.
    pub epoch: u64,
    /// Per shard, the epoch of its snapshot file (`0`: none, restores empty
    /// — delta checkpoints skip untouched shards).
    shard_epochs: Vec<u64>,
    attributes: Vec<String>,
    /// The directory's storage backend (`"memory"` or `"disk"`) — it, not
    /// `--storage`, decides where records live.
    storage: String,
}

impl Manifest {
    fn new(config: &ServeConfig, epoch: u64, shard_epochs: Vec<u64>) -> Self {
        Self {
            shards: shard_epochs.len(),
            epoch,
            shard_epochs,
            attributes: config.attributes.clone(),
            storage: backend_name(&config.online.storage).into(),
        }
    }

    fn commit(&self, dir: &Path) -> io::Result<()> {
        write_atomic(&manifest_path(dir), render(self.to_value()).as_bytes())
    }
}

/// A directory with WALs but no manifest (an older build wrote it, or the
/// manifest was deleted) does not say how many shards logged into it: a log
/// this server would never replay is refused by name, not silently dropped.
fn refuse_stray_wals(dir: &Path, shards: usize) -> Result<(), ServeError> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        // `wal_path`'s names at epoch 0, where a directory without a
        // manifest is opened.
        let index = name.strip_prefix("wal-");
        let index = index.and_then(|rest| rest.strip_suffix("-000000.log"));
        if index.is_some_and(|index| index.parse().is_ok_and(|index: usize| index >= shards)) {
            return Err(ServeError::Config(format!(
                "{} has no MANIFEST.json and holds {name}, the log of a shard a {shards}-shard \
                 server does not have; restart with the shard count that wrote it",
                dir.display()
            )));
        }
    }
    Ok(())
}

/// Load the store named by `MANIFEST.json` (the manifest is the only source
/// of truth — files from interrupted checkpoints of other epochs are
/// ignored), or, in a directory without one, create a fresh store and its
/// manifest at epoch 0. `config.online.storage` leaves as the directory's
/// backend.
pub(crate) fn restore_or_create<E: EmbeddingModel + Clone>(
    config: &mut ServeConfig,
    schema: Arc<Schema>,
    dir: &Path,
    encoder: E,
    logger: &Logger,
) -> Result<(ShardedEntityStore<E>, Manifest), ServeError> {
    let path = manifest_path(dir);
    if !path.exists() {
        let store = ShardedEntityStore::new(config.online.clone(), schema, config.shards, encoder)?;
        let manifest = Manifest::new(config, 0, vec![0; store.num_shards()]);
        refuse_stray_wals(dir, manifest.shards)?;
        manifest.commit(dir)?;
        return Ok((store, manifest));
    }
    let unreadable =
        |e: &dyn std::fmt::Display| ServeError::Config(format!("unreadable MANIFEST.json: {e}"));
    let text = std::fs::read_to_string(&path)?;
    let mut manifest: Value = serde_json::from_str(&text).map_err(|e| unreadable(&e))?;
    // A manifest written before it recorded the backend opens with the
    // configured one.
    let configured = backend_name(&config.online.storage);
    if let Value::Map(entries) = &mut manifest {
        if !entries.iter().any(|(key, _)| key == "storage") {
            entries.push(("storage".into(), Value::Str(configured.into())));
        }
    }
    let manifest = Manifest::from_value(&manifest).map_err(|e| unreadable(&e))?;
    if manifest.attributes != config.attributes {
        return Err(ServeError::Config(format!(
            "checkpoint schema {:?} differs from configured {:?}",
            manifest.attributes, config.attributes
        )));
    }
    let (shards, shard_epochs) = (manifest.shards, &manifest.shard_epochs);
    if shards != config.shards {
        let checkpoint = ("checkpoint_shards", Value::UInt(shards as u64));
        let configured = ("configured_shards", Value::UInt(config.shards as u64));
        logger.warn("checkpoint_shard_override", &[checkpoint, configured]);
    }
    if manifest.storage != configured {
        config.online.storage = match manifest.storage.as_str() {
            "memory" => StorageConfig::Memory,
            "disk" => StorageConfig::Disk(DiskStorageConfig::new(segments_dir(dir))),
            other => {
                return Err(ServeError::Config(format!(
                    "MANIFEST.json names an unknown storage backend `{other}`"
                )))
            }
        };
        let checkpoint = ("checkpoint_storage", Value::Str(manifest.storage.clone()));
        let configured = ("configured_storage", Value::Str(configured.into()));
        logger.warn("checkpoint_storage_override", &[checkpoint, configured]);
    }
    if shards == 0 || shard_epochs.len() != shards {
        return Err(ServeError::Config(format!(
            "MANIFEST.json lists {} shard epochs for {shards} shards (a store has at least one)",
            shard_epochs.len()
        )));
    }
    let snapshot = |(shard, &epoch): (usize, &u64)| {
        (epoch != 0).then(|| std::fs::read(snapshot_path(dir, shard, epoch)))
    };
    let snapshots: Vec<Option<Vec<u8>>> = shard_epochs
        .iter()
        .enumerate()
        .map(|entry| snapshot(entry).transpose())
        .collect::<io::Result<_>>()?;
    let store = ShardedEntityStore::restore(config.online.clone(), schema, &snapshots, encoder)?;
    Ok((store, manifest))
}

/// Open each shard's WAL at the manifest's epoch and replay its surviving
/// ops, in their own order, through the [`ShardWriter`] the log belongs to —
/// the `commit` a request goes through, with nothing to log. Replayed ops
/// count in `write_seq` against a `checkpoint_seq` of zero, so the next
/// delta checkpoint re-snapshots the shards they changed.
pub(crate) fn open_wals<E: EmbeddingModel>(
    store: &ShardedEntityStore<E>,
    config: &ServeConfig,
    dir: &Path,
    manifest: &Manifest,
    telemetry: &Telemetry,
) -> Result<Vec<ShardWriter>, ServeError> {
    let mut writers = Vec::with_capacity(manifest.shards);
    for (shard, &snapshot_epoch) in manifest.shard_epochs.iter().enumerate() {
        let path = wal_path(dir, shard, manifest.epoch);
        let (wal, recovery) = Wal::open_with(&path, config.fsync)?;
        if recovery.torn_tail {
            let shard = Value::UInt(shard as u64);
            telemetry.logger.warn("wal_torn_tail", &[("shard", shard)]);
        }
        let durable = Durable {
            wal,
            snapshot_epoch,
            checkpoint_seq: 0,
        };
        let writer = ShardWriter::new(shard, Some(durable));
        writer
            .commit(store, telemetry, recovery.ops, None)
            .map_err(|e| {
                ServeError::Config(format!(
                    "WAL replay failed ({e}); the log was written under a different schema \
                     or store configuration"
                ))
            })?;
        writers.push(writer);
    }
    Ok(writers)
}

/// A shard lock held for the duration of a checkpoint: shared for the
/// memory backend (reads keep serving), exclusive for the disk backend
/// (its storage tail is sealed under the lock).
enum ShardGuard<'a, E: EmbeddingModel> {
    Read(OrderedReadGuard<'a, EntityStore<E>>),
    Write(OrderedWriteGuard<'a, EntityStore<E>>),
}

impl<E: EmbeddingModel> ShardGuard<'_, E> {
    fn get(&self) -> &EntityStore<E> {
        match self {
            ShardGuard::Read(g) => g,
            ShardGuard::Write(g) => g,
        }
    }
}

/// `POST /snapshot` — the delta checkpoint protocol (crash-atomic): snapshot the shards that
/// changed since the last checkpoint and start a new WAL epoch, with the
/// manifest rename as the single commit point.
///
/// 1. take every shard lock (ascending), then every WAL lock — the same
///    global order writers use, so no write interleaves. Memory-backed
///    stores take **read** locks (reads keep serving through the
///    checkpoint); disk-backed stores take **write** locks because dirty
///    shards seal their storage tail here;
/// 2. for every *dirty* shard (its `write_seq` moved since the last
///    checkpoint, or it has no snapshot yet despite holding records):
///    flush its storage and write `shard-NNN-{epoch+1}.snap` (temp +
///    rename each). Clean shards keep their existing snapshot file, so the
///    checkpoint cost tracks the delta, not the store size;
/// 3. create empty `wal-NNN-{epoch+1}.log` files for **all** shards (WAL
///    truncation is keyed to the new delta epoch);
/// 4. **commit**: atomically rename the new `MANIFEST.json` naming
///    `epoch + 1` and the per-shard snapshot epochs into place;
/// 5. swap the in-memory WAL handles, best-effort delete the old epoch's
///    WALs and each re-snapshotted shard's superseded snapshot, and (disk
///    backend) GC segment files the committed segment index no longer
///    references — orphans left by checkpoints that crashed between
///    sealing and committing.
///
/// A crash before step 4 leaves the manifest pointing at the old epoch —
/// the old snapshots and old WALs are untouched, so startup sees exactly
/// the pre-checkpoint state and the half-written new epoch is ignored (and
/// overwritten by the next checkpoint). A crash after step 4 loads the new
/// manifest's mix of old and new snapshots with the new (empty) WALs. No
/// ordering replays an op into a snapshot that already contains it.
pub(crate) fn checkpoint<E: EmbeddingModel>(state: &ServerState<E>) -> Result<Value, ServeError> {
    let Some(dir) = &state.config.data_dir else {
        return Err(ServeError::Config(
            "server runs without a data dir; nothing to checkpoint".into(),
        ));
    };

    let num_shards = state.store.num_shards();
    let mut guards: Vec<ShardGuard<'_, E>> = (0..num_shards)
        .map(|i| match state.config.online.storage {
            StorageConfig::Memory => ShardGuard::Read(state.store.read_shard(i)),
            StorageConfig::Disk(_) => ShardGuard::Write(state.store.write_shard(i)),
        })
        .collect();
    // Bound with a data dir, every shard has its WAL.
    let wals = state
        .writers
        .iter()
        .filter_map(|writer| writer.wal.as_ref());
    let mut durables: Vec<_> = wals.map(|wal| wal.lock()).collect();
    let old_epoch = state.epoch.load(Ordering::SeqCst);
    let new_epoch = old_epoch + 1;

    let mut total_bytes = 0usize;
    let mut snapshots_written = 0u64;
    let mut compactions = 0u64;
    let mut reclaimed_bytes = 0u64;
    let mut superseded: Vec<(usize, u64)> = Vec::new();
    for (i, (guard, durable)) in guards.iter_mut().zip(&mut durables).enumerate() {
        let seq = state.writers[i].write_seq.load(Ordering::SeqCst);
        let unsaved = durable.snapshot_epoch == 0 && !guard.get().is_empty();
        if seq == durable.checkpoint_seq && !unsaved {
            continue;
        }
        // Seal the storage tail first (disk backend): the snapshot then
        // carries the segment index instead of record payloads. Then
        // compact: segments deletion has hollowed out are rewritten *before*
        // the snapshot, so the committed manifest references the compacted
        // files and the superseded ones become gc-able right after the
        // commit below.
        if let ShardGuard::Write(store) = guard {
            store.flush_storage()?;
            let report = store.compact_storage()?;
            compactions += report.segments_compacted;
            reclaimed_bytes += report.reclaimed_bytes;
        }
        let bytes = guard.get().snapshot_bytes()?;
        total_bytes += bytes.len();
        write_atomic(&snapshot_path(dir, i, new_epoch), &bytes)?;
        if durable.snapshot_epoch != 0 {
            superseded.push((i, durable.snapshot_epoch));
        }
        durable.snapshot_epoch = new_epoch;
        durable.checkpoint_seq = seq;
        snapshots_written += 1;
    }
    // Fresh, empty WALs for the new epoch (truncate any leftovers from a
    // previously crashed checkpoint attempt at this same epoch).
    let mut new_wals = Vec::with_capacity(durables.len());
    for (shard, durable) in durables.iter_mut().enumerate() {
        // Make the superseded log durable before committing past it.
        durable.wal.sync()?;
        let fsync = durable.wal.fsync_policy();
        let (mut log, _) = Wal::open_with(&wal_path(dir, shard, new_epoch), fsync)?;
        log.truncate()?;
        new_wals.push(log);
    }

    // Commit point: after this rename the new epoch is the only one loaded.
    let shard_epochs = durables.iter().map(|d| d.snapshot_epoch).collect();
    Manifest::new(&state.config, new_epoch, shard_epochs).commit(dir)?;
    state.epoch.store(new_epoch, Ordering::SeqCst);

    let mut truncated = 0u64;
    for (shard, new_wal) in new_wals.into_iter().enumerate() {
        truncated += std::mem::replace(&mut durables[shard].wal, new_wal).bytes();
        // relaxed-ok: published size for lock-free /stats; staleness is benign
        state.writers[shard].wal_bytes.store(0, Ordering::Relaxed);
        std::fs::remove_file(wal_path(dir, shard, old_epoch)).ok();
    }
    for (shard, epoch) in superseded {
        std::fs::remove_file(snapshot_path(dir, shard, epoch)).ok();
    }

    // Post-commit housekeeping, still under the shard locks: GC segment
    // files the committed index no longer references (best-effort — the
    // checkpoint itself already committed), and republish each shard's
    // stats so the lock-free `/stats` path reflects the checkpointed state.
    let mut segments_deleted = 0u64;
    for (i, guard) in guards.iter_mut().enumerate() {
        if let ShardGuard::Write(store) = guard {
            match store.gc_storage() {
                Ok(deleted) => segments_deleted += deleted,
                Err(e) => state.telemetry.logger.error(
                    "segment_gc_failed",
                    &[
                        ("shard", Value::UInt(i as u64)),
                        ("error", Value::Str(e.to_string())),
                    ],
                ),
            }
        }
        state.store.publish_stats(i, guard.get());
    }

    state.telemetry.metrics.checkpoints.inc();
    state.telemetry.logger.info(
        "checkpoint",
        &[
            ("epoch", Value::UInt(new_epoch)),
            ("snapshots_written", Value::UInt(snapshots_written)),
            ("wal_bytes_truncated", Value::UInt(truncated)),
            ("segments_deleted", Value::UInt(segments_deleted)),
        ],
    );

    Ok(obj([
        ("checkpointed", Value::Bool(true)),
        ("shards", Value::UInt(num_shards as u64)),
        ("epoch", Value::UInt(new_epoch)),
        ("snapshots_written", Value::UInt(snapshots_written)),
        ("snapshot_bytes", Value::UInt(total_bytes as u64)),
        ("wal_bytes_truncated", Value::UInt(truncated)),
        ("segments_deleted", Value::UInt(segments_deleted)),
        ("compactions", Value::UInt(compactions)),
        ("reclaimed_bytes", Value::UInt(reclaimed_bytes)),
    ]))
}
