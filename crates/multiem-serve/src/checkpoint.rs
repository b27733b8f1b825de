//! Durability: checkpoint restore, WAL replay, and the delta checkpoint.
//!
//! # Durability protocol
//!
//! Each shard owns its own WAL file, so writers to different shards share
//! no lock at all: a write takes its shard's write lock, appends to *that
//! shard's* WAL (`shard i → wals[i]` lock order everywhere), then applies
//! the insert. Startup restores the checkpoint named by `MANIFEST.json` (if
//! any) and replays each shard's WAL in its own order — shards are
//! independent, so per-shard order is the only order that matters — through
//! the same deterministic routing. Killing the process at any point loses
//! at most the torn tail of a final append; acknowledged writes survive.
//!
//! Checkpoints are epoch-versioned **deltas** that commit via an atomic
//! manifest rename (see [`checkpoint`]'s step list): only shards whose
//! write sequence moved since the last checkpoint write a new snapshot
//! file, the manifest records a per-shard snapshot-epoch vector, and with
//! [`StorageBackend::Disk`] even a dirty shard's snapshot is just its
//! segment index + cluster state (record payloads already live in sealed
//! segment files). A crash *during* a checkpoint can neither duplicate
//! replayed ops into a snapshot that already contains them nor leave a
//! torn manifest behind. The WAL's [`FsyncPolicy`](crate::FsyncPolicy)
//! decides what a machine crash (as opposed to a process kill) can lose.

use crate::config::{ServeConfig, ServeError, StorageBackend};
use crate::obs::Logger;
use crate::routes::{field, obj, render};
use crate::server::ServerState;
use crate::shard::ShardedEntityStore;
use crate::sync::{lock_unpoisoned, LockClass, OrderedMutex, OrderedReadGuard, OrderedWriteGuard};
use crate::wal::{Wal, WalOp};
use multiem_embed::EmbeddingModel;
use multiem_online::EntityStore;
use multiem_table::Schema;
use serde::Value;
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

/// Load the store named by `MANIFEST.json` (the manifest is the only source
/// of truth — files from interrupted checkpoints of other epochs are
/// ignored), or create a fresh one at epoch 0 when no manifest exists.
/// Returns the store, the manifest (WAL) epoch, and the per-shard snapshot
/// epochs (`shard_epochs[i] == 0` means shard `i` was never snapshotted and
/// restores empty — delta checkpoints skip untouched shards).
pub(crate) fn restore_or_create<E: EmbeddingModel + Clone>(
    config: &ServeConfig,
    schema: Arc<Schema>,
    dir: &Path,
    encoder: E,
    logger: &Logger,
) -> Result<(ShardedEntityStore<E>, u64, Vec<u64>), ServeError> {
    let manifest = manifest_path(dir);
    if !manifest.exists() {
        let store = ShardedEntityStore::new(config.online.clone(), schema, config.shards, encoder)?;
        let shards = store.num_shards();
        return Ok((store, 0, vec![0; shards]));
    }
    let text = std::fs::read_to_string(&manifest)?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| ServeError::Config(format!("unreadable MANIFEST.json: {e}")))?;
    let shards = field(&value, "shards")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServeError::Config("MANIFEST.json lacks `shards`".into()))?
        as usize;
    let epoch = field(&value, "epoch")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServeError::Config("MANIFEST.json lacks `epoch`".into()))?;
    let attributes: Vec<String> = field(&value, "attributes")
        .and_then(Value::as_seq)
        .map(|seq| {
            seq.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if !attributes.is_empty() && attributes != config.attributes {
        return Err(ServeError::Config(format!(
            "checkpoint schema {attributes:?} differs from configured {:?}",
            config.attributes
        )));
    }
    if shards != config.shards {
        logger.warn(
            "checkpoint_shard_override",
            &[
                ("checkpoint_shards", Value::UInt(shards as u64)),
                ("configured_shards", Value::UInt(config.shards as u64)),
            ],
        );
    }
    // Per-shard snapshot epochs (pre-delta manifests lack the field: every
    // shard was written at the manifest epoch).
    let shard_epochs: Vec<u64> = field(&value, "shard_epochs")
        .and_then(Value::as_seq)
        .map(|seq| seq.iter().filter_map(Value::as_u64).collect())
        .unwrap_or_else(|| vec![epoch; shards]);
    if shard_epochs.len() != shards {
        return Err(ServeError::Config(format!(
            "MANIFEST.json lists {} shard epochs for {shards} shards",
            shard_epochs.len()
        )));
    }
    let snapshots: Vec<Option<Vec<u8>>> = shard_epochs
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            if e == 0 {
                Ok(None)
            } else {
                std::fs::read(snapshot_path(dir, i, e)).map(Some)
            }
        })
        .collect::<io::Result<_>>()?;
    let store = ShardedEntityStore::restore(config.online.clone(), schema, &snapshots, encoder)?;
    Ok((store, epoch, shard_epochs))
}

/// Open one WAL per shard at `epoch` and replay each shard's surviving ops
/// in its own order (shards are independent, so cross-shard interleaving
/// does not matter). Returns the logs and how many ops each shard replayed:
/// replayed ops dirty their shard, so the next delta checkpoint must
/// re-snapshot it.
pub(crate) fn open_wals<E: EmbeddingModel>(
    store: &ShardedEntityStore<E>,
    config: &ServeConfig,
    dir: &Path,
    epoch: u64,
    logger: &Logger,
) -> Result<(Vec<OrderedMutex<Wal>>, Vec<u64>), ServeError> {
    let mut logs = Vec::with_capacity(store.num_shards());
    let mut replayed = vec![0u64; store.num_shards()];
    for (shard, dirtied) in replayed.iter_mut().enumerate() {
        let (log, recovery) = Wal::open_with(&wal_path(dir, shard, epoch), config.fsync)?;
        if recovery.torn_tail {
            logger.warn("wal_torn_tail", &[("shard", Value::UInt(shard as u64))]);
        }
        for op in recovery.ops {
            match op {
                WalOp::Insert(record) => {
                    store.insert(record).map_err(|e| {
                        ServeError::Config(format!(
                            "WAL replay failed ({e}); the log was written under \
                             a different schema or store configuration"
                        ))
                    })?;
                }
                WalOp::Delete(entity) => {
                    // Idempotent: replaying a delete of an id a snapshot
                    // already dropped is a no-op.
                    store
                        .write_shard(shard)
                        .delete_record(entity)
                        .map_err(|e| {
                            ServeError::Config(format!("WAL delete replay failed: {e}"))
                        })?;
                }
            }
            *dirtied += 1;
        }
        logs.push(OrderedMutex::new(LockClass::Wal, log));
    }
    Ok((logs, replayed))
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
///    checkpoint, as in PR 2); disk-backed stores take **write** locks
///    because dirty shards seal their storage tail here;
/// 2. for every *dirty* shard (its `write_seq` moved since the last
///    checkpoint, or it has no snapshot yet despite holding records):
///    flush its storage and write `shard-NNN-{epoch+1}.snap` (temp +
///    rename each). Clean shards keep their existing snapshot file — with
///    the disk backend even a dirty shard's snapshot is only the segment
///    index + cluster state, so the checkpoint cost tracks the delta, not
///    the store size;
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
    let Some(wals) = &state.wals else {
        return Err(ServeError::Config("server has no WAL".into()));
    };

    let num_shards = state.store.num_shards();
    // Only the disk backend mutates shard state here (sealing storage
    // tails); the memory backend checkpoints under read locks so matches
    // keep serving.
    let mut guards: Vec<ShardGuard<'_, E>> = (0..num_shards)
        .map(|i| match state.config.storage {
            StorageBackend::Memory => ShardGuard::Read(state.store.read_shard(i)),
            StorageBackend::Disk => ShardGuard::Write(state.store.write_shard(i)),
        })
        .collect();
    let mut wal_guards: Vec<_> = wals.iter().map(|wal| wal.lock()).collect();
    // Checkpoint bookkeeping vectors: only ever mutated inside this
    // all-locks critical section, and every update lands before the commit
    // rename — recovering a poisoned guard observes a consistent vector.
    let mut shard_epochs = lock_unpoisoned(&state.shard_epochs);
    let mut checkpoint_seq = lock_unpoisoned(&state.checkpoint_seq);
    let old_epoch = state.epoch.load(Ordering::SeqCst);
    let new_epoch = old_epoch + 1;

    let mut total_bytes = 0usize;
    let mut snapshots_written = 0u64;
    let mut compactions = 0u64;
    let mut reclaimed_bytes = 0u64;
    let mut superseded: Vec<(usize, u64)> = Vec::new();
    for (i, guard) in guards.iter_mut().enumerate() {
        let seq = state.write_seq[i].load(Ordering::SeqCst);
        let dirty = seq != checkpoint_seq[i] || (shard_epochs[i] == 0 && !guard.get().is_empty());
        if !dirty {
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
        if shard_epochs[i] != 0 {
            superseded.push((i, shard_epochs[i]));
        }
        shard_epochs[i] = new_epoch;
        checkpoint_seq[i] = seq;
        snapshots_written += 1;
    }
    // Fresh, empty WALs for the new epoch (truncate any leftovers from a
    // previously crashed checkpoint attempt at this same epoch).
    let mut new_wals = Vec::with_capacity(wal_guards.len());
    for (shard, wal) in wal_guards.iter_mut().enumerate() {
        // Make the superseded log durable before committing past it.
        wal.sync()?;
        let (mut log, _) = Wal::open_with(&wal_path(dir, shard, new_epoch), wal.fsync_policy())?;
        log.truncate()?;
        new_wals.push(log);
    }

    let attributes = state
        .config
        .attributes
        .iter()
        .map(|a| Value::Str(a.clone()));
    let manifest = obj([
        ("shards", Value::UInt(num_shards as u64)),
        ("epoch", Value::UInt(new_epoch)),
        (
            "shard_epochs",
            Value::Seq(shard_epochs.iter().map(|&e| Value::UInt(e)).collect()),
        ),
        ("format", Value::Str("binary".into())),
        ("attributes", Value::Seq(attributes.collect())),
    ]);
    // Commit point: after this rename the new epoch is the only one loaded.
    write_atomic(&manifest_path(dir), render(manifest).as_bytes())?;
    state.epoch.store(new_epoch, Ordering::SeqCst);

    let mut truncated = 0u64;
    for (shard, new_wal) in new_wals.into_iter().enumerate() {
        let old = std::mem::replace(&mut *wal_guards[shard], new_wal);
        truncated += old.bytes();
        drop(old);
        // relaxed-ok: published size for lock-free /stats; staleness is benign
        state.wal_bytes[shard].store(0, Ordering::Relaxed);
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
