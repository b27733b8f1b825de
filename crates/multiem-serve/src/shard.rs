//! Hash-partitioned sharding of the online [`EntityStore`].
//!
//! [`ShardedEntityStore`] splits the record space into `N` independent
//! [`EntityStore`] shards, each behind its own `RwLock`:
//!
//! * a record is routed to `hash(key(record)) % N`
//!   ([`ShardedEntityStore::shard_of`], a stable FNV-1a over the record's
//!   leading token — a cheap blocking key, so near-duplicates co-locate and
//!   the same record always lands on the same shard across restarts);
//! * ingestion takes the *write* lock of one shard only, so up to `N` writers
//!   make progress concurrently while the paper's single-writer invariant
//!   holds within every shard;
//! * reads ([`ShardedEntityStore::match_record`], stats) take *read* locks
//!   and fan out across all shards in parallel, merging the per-shard
//!   candidates with [`merge_ranked`] — the same global top-K an
//!   un-partitioned index would rank for the candidates each shard's mutual
//!   top-K rule (Eq. 1) admitted.
//!
//! Sharding trades a little recall for write scalability: co-referent
//! records whose leading tokens differ route to *different* shards and are
//! never fused into one cluster (each shard only merges what it stores), but
//! the read path still surfaces both shards' clusters for a query. Shard
//! counts therefore want to stay modest (4–16) unless write pressure demands
//! more; `1` recovers the exact single-store behaviour. On a seeded stream
//! of 596 product records, 2 and 4 shards cost 2.8 and 3.1 tuple-F1 points
//! against one, and less than a point of pair-F1 (the test
//! `sharded_quality_against_a_single_store_on_a_seeded_stream` prints them).

use crate::obs::elapsed_ns;
use crate::sync::{lock_unpoisoned, LockClass, OrderedReadGuard, OrderedRwLock, OrderedWriteGuard};
use crate::wal::WalOp;
use multiem_ann::merge_ranked;
use multiem_embed::hashing::fnv1a64;
use multiem_embed::EmbeddingModel;
use multiem_online::{
    EntityStore, OnlineConfig, OnlineError, SegmentStats, StorageStats, StoreStats,
};
use multiem_table::{EntityId, Record, Schema};
use rayon::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where the wall time of one [`ShardedEntityStore::match_record_timed`]
/// fan-out went, in nanoseconds. It feeds the request trace's `fan_out`,
/// `ann_search` and `rank_merge` spans, and the benchmark's replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchTiming {
    /// Wall time of the whole fan-out + merge section.
    pub wall_ns: u64,
    /// The slowest single shard's in-shard search time — the parallel
    /// section's critical path.
    pub ann_max_ns: u64,
    /// Merging per-shard candidates into the global top-K.
    pub merge_ns: u64,
    /// Shards queried.
    pub fan_out: u64,
}

impl MatchTiming {
    /// Scatter/gather overhead beyond the slowest shard's own search and the
    /// merge: `wall - ann_max - merge`, clamped at zero.
    pub fn coordination_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.ann_max_ns)
            .saturating_sub(self.merge_ns)
    }
}

/// A cluster handle that is unique across the whole sharded store: the shard
/// index plus the shard-local [`EntityId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GlobalEntityId {
    /// Index of the shard holding the entity.
    pub shard: u32,
    /// Shard-local entity id.
    pub entity: EntityId,
}

impl GlobalEntityId {
    /// The id named by exactly three components — shard, source, row — each
    /// of which must fit a `u32`. `None` for a missing, extra, non-numeric
    /// or out-of-range component: ids arrive from clients, and a narrowing
    /// cast would silently alias `4294967296` to shard `0`.
    pub fn from_parts(parts: impl IntoIterator<Item = Option<u64>>) -> Option<Self> {
        let mut parts = parts.into_iter();
        let mut next = || u32::try_from(parts.next()??).ok();
        let (shard, source, row) = (next()?, next()?, next()?);
        parts.next().is_none().then_some(Self {
            shard,
            entity: EntityId::new(source, row),
        })
    }

    /// The `shard` / `source` / `row` JSON fields every response names an
    /// entity by (callers append their own, e.g. `matched` or `distance`).
    pub fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("shard".into(), Value::UInt(u64::from(self.shard))),
            ("source".into(), Value::UInt(u64::from(self.entity.source))),
            ("row".into(), Value::UInt(u64::from(self.entity.row))),
        ]
    }
}

/// Parses the `{shard}-{source}-{row}` spelling [`GlobalEntityId`] displays
/// as (the `DELETE /records/{id}` path segment).
impl std::str::FromStr for GlobalEntityId {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        Self::from_parts(text.split('-').map(|part| part.parse().ok())).ok_or(())
    }
}

impl std::fmt::Display for GlobalEntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let EntityId { source, row } = self.entity;
        write!(f, "{}-{source}-{row}", self.shard)
    }
}

/// Aggregated statistics over all shards.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedStats {
    /// Total live records across shards.
    pub records: usize,
    /// Total records deleted across shards.
    pub deleted: usize,
    /// Total clusters across shards (including singletons).
    pub clusters: usize,
    /// Total multi-member clusters (matched tuples).
    pub tuples: usize,
    /// Total records detached by re-pruning.
    pub pruned_outliers: usize,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<StoreStats>,
}

impl ShardedStats {
    /// Total the store counters of one [`ShardedEntityStore::shard_stats`]
    /// pass.
    pub fn of(shards: &[ShardStats]) -> Self {
        let shards: Vec<StoreStats> = shards.iter().map(|s| s.store).collect();
        Self {
            records: shards.iter().map(|s| s.records).sum(),
            deleted: shards.iter().map(|s| s.deleted).sum(),
            clusters: shards.iter().map(|s| s.clusters).sum(),
            tuples: shards.iter().map(|s| s.tuples).sum(),
            pruned_outliers: shards.iter().map(|s| s.pruned_outliers).sum(),
            shards,
        }
    }
}

/// What one shard reports to [`ShardedEntityStore::shard_stats`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Cluster-level counters.
    pub store: StoreStats,
    /// Record-storage counters.
    pub storage: StorageStats,
    /// Per-segment health of a disk-backed shard. Empty for the memory
    /// backend, and for a shard a writer held during the pass (segment
    /// health is diagnostic, not worth waiting on a checkpoint for).
    pub segments: Vec<SegmentStats>,
}

impl ShardStats {
    /// Record-storage counters totalled over a pass (the backend tag is
    /// the first shard's; every shard shares one configuration).
    pub fn storage_total(shards: &[ShardStats]) -> StorageStats {
        let mut shards = shards.iter().map(|s| s.storage);
        // A sharded store always has at least one shard; the default only
        // papers over that impossibility without a panic path.
        let mut sum = shards.next().unwrap_or_default();
        for stats in shards {
            sum.records += stats.records;
            sum.deleted_records += stats.deleted_records;
            sum.resident_records += stats.resident_records;
            sum.resident_bytes += stats.resident_bytes;
            sum.spilled_records += stats.spilled_records;
            sum.spilled_bytes += stats.spilled_bytes;
            sum.segments += stats.segments;
            sum.segments_deleted += stats.segments_deleted;
            sum.compactions += stats.compactions;
            sum.reclaimed_bytes += stats.reclaimed_bytes;
            sum.cache_hits += stats.cache_hits;
            sum.cache_misses += stats.cache_misses;
        }
        sum
    }
}

/// One shard: the store behind its `RwLock`, plus the last stats it
/// *published* — a copy refreshed whenever stats are computed under a
/// successful lock, and served as-is when a writer (most importantly a
/// disk-backend checkpoint, which write-locks every shard) holds the store.
/// That keeps `/stats` and `/healthz` answerable without ever waiting on a
/// shard write lock.
#[derive(Debug)]
struct Shard<E: EmbeddingModel> {
    store: OrderedRwLock<EntityStore<E>>,
    published: Mutex<(StoreStats, StorageStats)>,
}

impl<E: EmbeddingModel> Shard<E> {
    fn new(store: EntityStore<E>) -> Self {
        let published = Mutex::new((store.stats(), store.storage_stats()));
        Self {
            store: OrderedRwLock::new(LockClass::Shard, store),
            published,
        }
    }

    /// Fresh stats when the shard is readable right now, else the last
    /// published copy (never blocks on a writer). The published copy is a
    /// self-consistent value pair, so a poisoned publisher just means we
    /// keep serving the last good copy ([`lock_unpoisoned`]).
    fn stats_nonblocking(&self) -> ShardStats {
        let ((store, storage), segments) = match self.store.try_read() {
            Some(guard) => (self.publish(&guard), guard.segment_stats()),
            None => (*lock_unpoisoned(&self.published), Vec::new()),
        };
        ShardStats {
            store,
            storage,
            segments,
        }
    }

    fn publish(&self, store: &EntityStore<E>) -> (StoreStats, StorageStats) {
        let fresh = (store.stats(), store.storage_stats());
        *lock_unpoisoned(&self.published) = fresh;
        fresh
    }
}

/// N hash-partitioned [`EntityStore`]s with single-writer-per-shard ingestion
/// and fully concurrent cross-shard reads. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedEntityStore<E: EmbeddingModel> {
    shards: Vec<Shard<E>>,
    schema: Arc<Schema>,
    /// Top-K bound used when fanning per-shard candidates back in.
    k: usize,
}

impl<E: EmbeddingModel + Clone> ShardedEntityStore<E> {
    /// Create an empty sharded store. Every shard gets an identically
    /// configured [`EntityStore`] initialised with `schema`, so attribute
    /// selection must be off ([`OnlineConfig::with_all_attributes`]).
    ///
    /// `match_within_source` is forced on: every streamed insert of a shard
    /// shares one stream source, so the batch pipeline's same-source
    /// restriction would veto every merge in a serving deployment.
    pub fn new(
        mut config: OnlineConfig,
        schema: Arc<Schema>,
        num_shards: usize,
        encoder: E,
    ) -> Result<Self, OnlineError> {
        config.match_within_source = true;
        config.validate().map_err(OnlineError::InvalidConfig)?;
        // Every shard starts as `restore` leaves one it has no snapshot of.
        let empty = vec![None; num_shards.clamp(1, 4096)];
        Self::restore(config, schema, &empty, encoder)
    }

    /// Rebuild a sharded store from per-shard snapshots, in shard order, as
    /// produced by [`EntityStore::snapshot_bytes`]. A `None` entry stands
    /// for a shard that was never checkpointed (delta checkpoints skip
    /// untouched shards): it is recreated empty from `config`, which is
    /// deterministic, so the combination restores the exact sharded state.
    /// A store has at least one shard: an empty `snapshots` is an error.
    pub fn restore(
        mut config: OnlineConfig,
        schema: Arc<Schema>,
        snapshots: &[Option<Vec<u8>>],
        encoder: E,
    ) -> Result<Self, OnlineError> {
        if snapshots.is_empty() {
            return Err(OnlineError::InvalidConfig(
                "a sharded store needs at least one shard".into(),
            ));
        }
        config.match_within_source = true;
        let k = config.base.k;
        let mut shards = Vec::with_capacity(snapshots.len());
        for (shard, snapshot) in snapshots.iter().enumerate() {
            let store = match snapshot {
                Some(bytes) => EntityStore::restore_bytes(bytes, encoder.clone())?,
                None => {
                    let mut store =
                        EntityStore::try_new(shard_config(&config, shard), encoder.clone())?;
                    store.init_schema(schema.clone())?;
                    store
                }
            };
            shards.push(Shard::new(store));
        }
        Ok(Self { shards, schema, k })
    }
}

/// The per-shard store configuration: disk-backed storage gets a shard-own
/// segment directory (`<dir>/shard-NNN`) so shards never race on segment
/// file names; everything else is shared verbatim.
fn shard_config(config: &OnlineConfig, shard: usize) -> OnlineConfig {
    let mut config = config.clone();
    if let multiem_online::StorageConfig::Disk(disk) = &mut config.storage {
        let dir = std::path::Path::new(&disk.dir).join(format!("shard-{shard:03}"));
        disk.dir = dir.display().to_string();
    }
    config
}

impl<E: EmbeddingModel> ShardedEntityStore<E> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The shard a record routes to: stable FNV-1a over the record's
    /// *leading token* (the first whitespace-separated token of its first
    /// non-empty attribute, lowercased), independent of insertion order and
    /// process restarts.
    ///
    /// Routing by leading token is a cheap blocking scheme: co-referent
    /// records overwhelmingly share their leading token (`"apple iphone 8
    /// plus 64gb"` / `"apple iphone 8 plus 64 gb"`), so they co-locate and
    /// fuse inside one shard. Records whose tokens differ in the first
    /// position end up on different shards — the write path then keeps them
    /// separate, but the fan-out read path still surfaces both.
    pub fn shard_of(&self, record: &Record) -> usize {
        (record_route_hash(record) % self.shards.len() as u64) as usize
    }

    /// Write-lock one shard (ingestion, deletion, a disk checkpoint).
    /// Callers that also append to a WAL must take this lock *before* the
    /// WAL lock — the serving layer's lock order is `shard → wal`
    /// everywhere. The guard is order-checked by the debug-build sanitizer
    /// in [`crate::sync`].
    pub fn write_shard(&self, shard: usize) -> OrderedWriteGuard<'_, EntityStore<E>> {
        self.shards[shard].store.write()
    }

    /// Read-lock one shard (order-checked, see [`crate::sync`]).
    pub fn read_shard(&self, shard: usize) -> OrderedReadGuard<'_, EntityStore<E>> {
        self.shards[shard].store.read()
    }

    /// Republish one shard's stats for the lock-free stats path. Callers
    /// already holding the shard's write guard (the checkpoint) use this so
    /// `/stats` served *during* long exclusive sections reflects the state
    /// at the start of the section, not something arbitrarily old.
    pub fn publish_stats(&self, shard: usize, store: &EntityStore<E>) {
        self.shards[shard].publish(store);
    }

    /// Insert a record into its shard, returning its global id and whether it
    /// merged into an existing cluster. Only the owning shard is write-locked.
    pub fn insert(&self, record: Record) -> Result<(GlobalEntityId, bool), OnlineError> {
        let shard = self.shard_of(&record);
        let mut guard = self.write_shard(shard);
        apply_insert(&mut guard, shard, record)
    }

    /// Delete a record by its global id, write-locking only the owning
    /// shard. Returns whether a live record was deleted (`false` for
    /// unknown shards/ids and repeated deletes — deletion is idempotent).
    pub fn delete(&self, id: GlobalEntityId) -> Result<bool, OnlineError> {
        let shard = id.shard as usize;
        if shard >= self.shards.len() {
            return Ok(false);
        }
        let mut guard = self.write_shard(shard);
        let applied = apply(&mut guard, shard, WalOp::Delete(id.entity))?;
        Ok(applied == Applied::Deleted(true))
    }

    /// Read-only fan-out match: query every shard concurrently under its
    /// read lock, then merge the per-shard candidates (each already filtered
    /// by the paper's mutual top-K rule and threshold `m` inside its shard)
    /// into one globally ranked top-K.
    pub fn match_record(&self, record: &Record) -> Vec<(GlobalEntityId, f32)> {
        self.match_record_timed(record).0
    }

    /// [`ShardedEntityStore::match_record`] plus a [`MatchTiming`] breakdown
    /// of where the fan-out's wall time went. Each shard is read-locked once
    /// and times its own search, so the critical path (the slowest shard)
    /// is separable from scatter/gather overhead and the final merge.
    pub fn match_record_timed(&self, record: &Record) -> (Vec<(GlobalEntityId, f32)>, MatchTiming) {
        let section = Instant::now();
        let per_shard: Vec<(Vec<(EntityId, f32)>, u64)> = self
            .shards
            .par_iter()
            .map(|shard| {
                let started = Instant::now();
                let hits = shard.store.read().match_record(record);
                (hits, elapsed_ns(started))
            })
            .collect();
        let fan_ns = elapsed_ns(section);
        let ann_max_ns = per_shard.iter().map(|(_, ns)| *ns).max().unwrap_or(0);
        let merge_started = Instant::now();
        let candidates: Vec<Vec<(GlobalEntityId, f32)>> = (0u32..)
            .zip(per_shard)
            .map(|(shard, (hits, _))| {
                let global = |(entity, distance)| (GlobalEntityId { shard, entity }, distance);
                hits.into_iter().map(global).collect()
            })
            .collect();
        let ranked = merge_ranked(&candidates, self.k);
        let merge_ns = elapsed_ns(merge_started);
        let timing = MatchTiming {
            wall_ns: fan_ns + merge_ns,
            ann_max_ns,
            merge_ns,
            fan_out: self.shards.len() as u64,
        };
        (ranked, timing)
    }

    /// Members of the cluster containing `id`, or `None` for unknown ids.
    pub fn cluster_members(&self, id: GlobalEntityId) -> Option<Vec<GlobalEntityId>> {
        let shard = id.shard as usize;
        if shard >= self.shards.len() {
            return None;
        }
        let members = self.read_shard(shard).cluster_members(id.entity)?;
        Some(
            members
                .into_iter()
                .map(|entity| GlobalEntityId {
                    shard: id.shard,
                    entity,
                })
                .collect(),
        )
    }

    /// Every shard's counters from **one nonblocking pass** — the only
    /// stats read there is, so a shard is visited and its counters computed
    /// once however many surfaces render them. **Never blocks on a shard
    /// write lock**: a shard a writer currently holds (e.g. a disk-backend
    /// checkpoint holding every shard) reports its last published counters
    /// instead, so `/stats` and health checks stay responsive through
    /// exclusive sections. Quiescent stores always report fresh, exact
    /// values.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(Shard::stats_nonblocking).collect()
    }

    /// The store counters of a [`ShardedEntityStore::shard_stats`] pass,
    /// totalled.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats::of(&self.shard_stats())
    }
}

/// What [`apply`] did with one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The record's global id and whether it *matched* ([`apply_insert`]).
    Inserted(GlobalEntityId, bool),
    /// Whether a live record was deleted (`false` for unknown ids and
    /// repeated deletes — deletion is idempotent).
    Deleted(bool),
}

/// Apply one write to an already write-locked shard: the only place a
/// [`WalOp`] becomes a store mutation, whether it comes from a request, a
/// direct [`ShardedEntityStore::insert`] / [`ShardedEntityStore::delete`] or
/// the start-up replay of the shard's log — so a restarted store cannot
/// drift from one that never stopped.
pub fn apply<E: EmbeddingModel>(
    store: &mut EntityStore<E>,
    shard: usize,
    op: WalOp,
) -> Result<Applied, OnlineError> {
    match op {
        WalOp::Insert(record) => {
            apply_insert(store, shard, record).map(|(id, matched)| Applied::Inserted(id, matched))
        }
        WalOp::Delete(entity) => store.delete_record(entity).map(Applied::Deleted),
    }
}

/// [`apply`]'s insert arm: insert `record` into an already write-locked
/// shard, returning the global id and whether the record *matched*: fused
/// with at least one existing cluster at insert time
/// ([`EntityStore::insert_matched`] — the store's one definition, also what
/// its `IngestReport::merged` counts).
pub fn apply_insert<E: EmbeddingModel>(
    store: &mut EntityStore<E>,
    shard: usize,
    record: Record,
) -> Result<(GlobalEntityId, bool), OnlineError> {
    let (entity, matched) = store.insert_matched(record)?;
    Ok((
        GlobalEntityId {
            shard: shard as u32,
            entity,
        },
        matched,
    ))
}

/// A record's routing key: the lowercased leading token of the first
/// non-empty attribute (empty when no value renders to text). This is both
/// what [`ShardedEntityStore::shard_of`] hashes and the "source" key the
/// serving layer's heavy-hitter analytics counts, so `/debug/top` ranks
/// exactly the keys that drive shard routing.
pub fn route_token(record: &Record) -> String {
    record
        .values()
        .iter()
        .map(multiem_table::Value::render)
        .find_map(|text| text.split_whitespace().next().map(str::to_ascii_lowercase))
        .unwrap_or_default()
}

/// Stable FNV-1a 64 over a record's routing key (see [`route_token`]).
/// Records with no non-empty value hash their (empty) key to a fixed shard.
fn record_route_hash(record: &Record) -> u64 {
    fnv1a64(route_token(record).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiem_core::MultiEmConfig;
    use multiem_embed::HashedLexicalEncoder;

    fn config() -> OnlineConfig {
        OnlineConfig::new(MultiEmConfig {
            m: 0.35,
            ..MultiEmConfig::default()
        })
        .with_all_attributes()
    }

    fn sharded(n: usize) -> ShardedEntityStore<HashedLexicalEncoder> {
        ShardedEntityStore::new(
            config(),
            Schema::new(["title"]).shared(),
            n,
            HashedLexicalEncoder::default(),
        )
        .unwrap()
    }

    #[test]
    fn record_ids_parse_and_reject_garbage() {
        let id: GlobalEntityId = "2-0-17".parse().unwrap();
        assert_eq!(id.shard, 2);
        assert_eq!(id.entity, EntityId::new(0, 17));
        assert_eq!(id.to_string(), "2-0-17");
        assert_eq!(
            GlobalEntityId::from_parts([Some(2), Some(0), Some(17)]),
            Some(id)
        );
        for garbage in ["2-0", "2-0-17-9", "a-b-c", "", "2--17", "4294967296-0-17"] {
            assert!(garbage.parse::<GlobalEntityId>().is_err(), "{garbage}");
        }
        let max = u64::from(u32::MAX);
        assert!(GlobalEntityId::from_parts([Some(max); 3]).is_some());
        assert!(GlobalEntityId::from_parts([Some(0), Some(max + 1), Some(0)]).is_none());
        assert!(GlobalEntityId::from_parts([Some(0), None, Some(0)]).is_none());
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let store = sharded(8);
        let a = Record::from_texts(["apple iphone 8 plus 64gb silver"]);
        assert_eq!(store.shard_of(&a), store.shard_of(&a.clone()));
        // Routing keys off the leading token: near-duplicates co-locate...
        let b = Record::from_texts(["Apple iphone 8 plus 64 gb silver"]);
        assert_eq!(store.shard_of(&a), store.shard_of(&b));
        // ...while 64 distinct leading tokens spread across shards.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64 {
            seen.insert(store.shard_of(&Record::from_texts([format!("item{i} number")])));
        }
        assert!(seen.len() > 1);
    }

    /// The shard a record routes to at 2, 4 and 7 shards. WALs and
    /// manifests name records by shard, so these may never move.
    #[test]
    fn routing_is_pinned() {
        let records = [
            vec!["apple iphone 8 plus 64gb silver"],
            vec!["Bosch drill 18v"],
            vec!["", "  samsung galaxy s21"],
            vec!["LENOVO thinkpad x1"],
            vec![""],
        ];
        let found: Vec<[usize; 3]> = records
            .iter()
            .map(|texts| {
                let record = Record::from_texts(texts.iter().copied());
                [2, 4, 7].map(|n| sharded(n).shard_of(&record))
            })
            .collect();
        assert_eq!(
            found,
            [[1, 3, 1], [0, 0, 1], [1, 3, 4], [0, 2, 4], [1, 1, 2]]
        );
    }

    #[test]
    fn similar_records_merge_within_a_shard() {
        let store = sharded(1); // one shard: both records share it
        let (a, merged_a) = store
            .insert(Record::from_texts(["golden heart river"]))
            .unwrap();
        assert!(!merged_a);
        let (_b, merged_b) = store
            .insert(Record::from_texts(["golden heart river live"]))
            .unwrap();
        assert!(merged_b, "near-duplicate should fuse into the cluster");
        assert_eq!(store.cluster_members(a).unwrap().len(), 2);
        let stats = store.stats();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.tuples, 1);
    }

    #[test]
    fn match_record_fans_out_across_shards() {
        let store = sharded(4);
        // Insert enough near-duplicates that multiple shards hold clusters.
        let titles = [
            "golden heart river",
            "golden heart river live",
            "golden heart river remaster",
            "makita drill 18v",
            "makita drill 18 v",
        ];
        for t in titles {
            store.insert(Record::from_texts([t])).unwrap();
        }
        let hits = store.match_record(&Record::from_texts(["golden heart river acoustic"]));
        assert!(!hits.is_empty());
        // Results are globally sorted by distance.
        for pair in hits.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        // A match must point at a river cluster, not the drill.
        let top = store.cluster_members(hits[0].0).unwrap();
        let top_record = store
            .read_shard(top[0].shard as usize)
            .record(top[0].entity)
            .unwrap();
        assert!(top_record.values()[0].render().contains("river"));
    }

    #[test]
    fn single_shard_matches_unsharded_store() {
        let titles = [
            "golden heart river",
            "golden heart river live",
            "sony bravia tv",
            "dyson v11 vacuum",
            "sony bravia television",
        ];
        let sharded = sharded(1);
        let mut config_plain = config();
        config_plain.match_within_source = true;
        let mut plain = EntityStore::new(config_plain, HashedLexicalEncoder::default());
        plain.init_schema(Schema::new(["title"]).shared()).unwrap();
        for t in titles {
            sharded.insert(Record::from_texts([t])).unwrap();
            plain.insert(Record::from_texts([t])).unwrap();
        }
        let probe = Record::from_texts(["sony bravia tv 55"]);
        let sharded_hits: Vec<(EntityId, f32)> = sharded
            .match_record(&probe)
            .into_iter()
            .map(|(gid, d)| (gid.entity, d))
            .collect();
        assert_eq!(sharded_hits, plain.match_record(&probe));
        let stats = sharded.stats();
        let plain_stats = plain.stats();
        assert_eq!(stats.records, plain_stats.records);
        assert_eq!(stats.clusters, plain_stats.clusters);
        assert_eq!(stats.tuples, plain_stats.tuples);
    }

    /// What the leading-token partition costs in quality, measured: one
    /// seeded stream of ~600 product records into 1, 2 and 4 shards, each
    /// store's tuples scored against the generator's ground truth. One shard
    /// is the plain store, tuple for tuple; the 2- and 4-shard gaps are
    /// printed (`--nocapture`), not bounded.
    #[test]
    fn sharded_quality_against_a_single_store_on_a_seeded_stream() {
        use multiem_datagen::{
            CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator,
        };
        use multiem_eval::{pair_metrics, tuple_metrics};
        use multiem_table::MatchTuple;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        use std::collections::HashMap;

        let ds = MultiSourceGenerator::new(GeneratorConfig {
            name: "sharded-vs-single".into(),
            num_sources: 4,
            num_tuples: 150,
            num_singletons: 150,
            min_tuple_size: 2,
            max_tuple_size: 4,
            seed: 61,
        })
        .generate(
            Domain::Product.factory().as_ref(),
            &Corruptor::new(CorruptionConfig::light()),
        );
        let mut stream: Vec<(EntityId, Record)> = (0..ds.num_sources() as u32)
            .flat_map(|source| {
                let table = &ds.tables()[source as usize];
                table
                    .iter()
                    .map(move |(row, record)| (EntityId::new(source, row), record.clone()))
            })
            .collect();
        stream.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(61));
        assert!((550..=650).contains(&stream.len()), "{}", stream.len());

        let truth = ds.ground_truth().unwrap();
        // Store tuples renamed to the ground truth's ids.
        let renamed = |tuples: Vec<MatchTuple>, truth_id: &dyn Fn(EntityId) -> EntityId| {
            tuples
                .iter()
                .map(|t| MatchTuple::new(t.members().iter().map(|&id| truth_id(id))))
                .collect::<Vec<_>>()
        };
        let score = |tuples: &[MatchTuple]| {
            let (tuple, pair) = (tuple_metrics(tuples, truth), pair_metrics(tuples, truth));
            (tuple.f1, pair.f1)
        };

        let mut plain_config = config();
        plain_config.match_within_source = true;
        let mut plain = EntityStore::new(plain_config, HashedLexicalEncoder::default());
        plain.init_schema(ds.schema().clone()).unwrap();
        let mut truth_of = HashMap::new();
        for (truth_id, record) in &stream {
            truth_of.insert(plain.insert(record.clone()).unwrap(), *truth_id);
        }
        let mut single = renamed(plain.tuples(), &|id| truth_of[&id]);
        single.sort();
        let (single_tuple_f1, single_pair_f1) = score(&single);
        assert!(single_pair_f1 > 0.5, "degenerate stream: {single_pair_f1}");

        for shards in [1, 2, 4] {
            let store = ShardedEntityStore::new(
                config(),
                ds.schema().clone(),
                shards,
                HashedLexicalEncoder::default(),
            )
            .unwrap();
            let mut truth_of = HashMap::new();
            for (truth_id, record) in &stream {
                truth_of.insert(store.insert(record.clone()).unwrap().0, *truth_id);
            }
            let mut tuples = Vec::new();
            for shard in 0..shards {
                let local = store.read_shard(shard).tuples();
                let shard = shard as u32;
                tuples.extend(renamed(local, &|entity| {
                    truth_of[&GlobalEntityId { shard, entity }]
                }));
            }
            tuples.sort();
            let (tuple_f1, pair_f1) = score(&tuples);
            if shards == 1 {
                assert_eq!(tuples, single, "one shard is the plain store");
            }
            println!(
                "{shards} shard(s), {} records: tuple-F1 {tuple_f1:.4} ({:+.4} vs single), \
                 pair-F1 {pair_f1:.4} ({:+.4})",
                stream.len(),
                tuple_f1 - single_tuple_f1,
                pair_f1 - single_pair_f1,
            );
        }
    }

    #[test]
    fn delete_detaches_record_from_its_cluster() {
        let store = sharded(2);
        let (a, _) = store
            .insert(Record::from_texts(["golden heart river"]))
            .unwrap();
        let (b, merged) = store
            .insert(Record::from_texts(["golden heart river live"]))
            .unwrap();
        assert!(merged);
        assert_eq!(store.cluster_members(a).unwrap().len(), 2);

        assert!(store.delete(b).unwrap());
        assert!(!store.delete(b).unwrap(), "deletion is idempotent");
        assert_eq!(store.cluster_members(a).unwrap(), vec![a]);
        assert!(store.cluster_members(b).is_none(), "deleted id is unknown");
        // Out-of-range shards are a clean miss, not a panic.
        assert!(!store
            .delete(GlobalEntityId {
                shard: 99,
                entity: EntityId::new(0, 0)
            })
            .unwrap());

        let stats = store.stats();
        assert_eq!(stats.records, 1);
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.tuples, 0);
        // The deleted record can never come back through a match.
        let hits = store.match_record(&Record::from_texts(["golden heart river live"]));
        assert!(hits.iter().all(|(gid, _)| *gid != b));
    }

    #[test]
    fn matched_is_what_the_merge_rule_decided_even_if_pruning_splits_it_off() {
        // With `epsilon` this tight, a refresh takes each near-duplicate
        // pair apart again.
        let mut config = config();
        config.base.epsilon = 0.1;
        config.match_within_source = true;
        let schema = Schema::new(["title"]).shared();
        let titles = ["golden heart river", "golden heart river live"];

        let mut store = EntityStore::new(config.clone(), HashedLexicalEncoder::default());
        store.init_schema(schema.clone()).unwrap();
        let [(_, first), (b, second)] =
            titles.map(|t| apply_insert(&mut store, 0, Record::from_texts([t])).unwrap());
        assert!(!first && second, "the second record fused with the first");
        assert_eq!(store.cluster_members(b.entity).unwrap().len(), 2);
        store.refresh();
        assert_eq!(
            store.cluster_members(b.entity),
            Some(vec![b.entity]),
            "and the refresh split it off"
        );
        assert_eq!(
            store.stats().pruned_outliers,
            2,
            "neither is near the other"
        );

        // `ingest_batch` counts the same record the same way.
        let mut batched = EntityStore::new(config, HashedLexicalEncoder::default());
        let reports = titles.map(|t| {
            let rows = vec![Record::from_texts([t])];
            let table = multiem_table::Table::with_records("batch", schema.clone(), rows);
            batched.ingest_batch(&table.unwrap()).unwrap()
        });
        assert_eq!((reports[0].merged, reports[1].merged), (0, 1));
        batched.refresh();
        assert_eq!(
            (batched.stats().tuples, batched.stats().pruned_outliers),
            (0, 2)
        );
    }

    #[test]
    fn snapshot_restore_preserves_all_shards() {
        let store = sharded(3);
        for i in 0..12 {
            store
                .insert(Record::from_texts([format!("item number {i}")]))
                .unwrap();
        }
        let snapshots: Vec<Option<Vec<u8>>> = (0..store.num_shards())
            .map(|s| Some(store.read_shard(s).snapshot_bytes().unwrap()))
            .collect();
        let restored = ShardedEntityStore::restore(
            config(),
            Schema::new(["title"]).shared(),
            &snapshots,
            HashedLexicalEncoder::default(),
        )
        .unwrap();
        assert_eq!(restored.num_shards(), 3);
        assert_eq!(restored.stats(), store.stats());
        let probe = Record::from_texts(["item number 7"]);
        assert_eq!(restored.match_record(&probe), store.match_record(&probe));
    }

    #[test]
    fn disk_shards_get_private_segment_dirs_and_agree_with_memory() {
        static DIR_SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "multiem-shard-disk-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        let mut disk_cfg = config().with_disk_storage(dir.display().to_string());
        if let multiem_online::StorageConfig::Disk(d) = &mut disk_cfg.storage {
            d.segment_records = 2; // force seals on a handful of records
        }
        let on_disk = ShardedEntityStore::new(
            disk_cfg,
            Schema::new(["title"]).shared(),
            3,
            HashedLexicalEncoder::default(),
        )
        .unwrap();
        let in_mem = sharded(3);
        let titles = [
            "golden heart river",
            "golden heart river live",
            "makita drill 18v",
            "makita drill 18 v",
            "sony bravia tv",
            "dyson v11 vacuum",
            "sony bravia television",
        ];
        for t in titles {
            on_disk.insert(Record::from_texts([t])).unwrap();
            in_mem.insert(Record::from_texts([t])).unwrap();
        }
        assert_eq!(on_disk.stats(), in_mem.stats());
        let probe = Record::from_texts(["sony bravia tv 55"]);
        assert_eq!(on_disk.match_record(&probe), in_mem.match_record(&probe));

        // Each shard sealed into its own subdirectory — no name races.
        let storage = ShardStats::storage_total(&on_disk.shard_stats());
        assert_eq!(storage.backend, "disk");
        assert!(storage.spilled_records > 0);
        let shard_dirs: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        for shard in 0..3 {
            assert!(
                shard_dirs.contains(&format!("shard-{shard:03}")),
                "missing per-shard segment dir: {shard_dirs:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_selection_is_rejected_without_data() {
        let auto = OnlineConfig::new(MultiEmConfig::default());
        let err = ShardedEntityStore::new(
            auto,
            Schema::new(["title"]).shared(),
            2,
            HashedLexicalEncoder::default(),
        );
        assert!(matches!(err, Err(OnlineError::InvalidConfig(_))));
    }
}
