//! The incremental entity store.
//!
//! # How the incremental path relates to the paper
//!
//! Batch MultiEM merges tables pairwise: a pair `(x, y)` of items is fused
//! when each is in the other's top-K under distance threshold `m` (Eq. 1).
//! The online store applies the same rule record-at-a-time against the
//! current *cluster representatives* (normalised centroids, exactly the item
//! embeddings the batch merger maintains):
//!
//! 1. the new record's embedding queries the representative index for its
//!    top-K clusters within `m`;
//! 2. a candidate cluster accepts the record only if the record would also be
//!    in the *cluster's* top-K — i.e. fewer than K other live representatives
//!    are closer to the candidate than the new record (the mutual check);
//! 3. accepted matches are fused transitively through
//!    [`DynamicUnionFind`], the merged cluster gets a fresh representative,
//!    and the superseded representatives are tombstoned.
//!
//! Tombstones accumulate as clusters merge; once their fraction exceeds
//! `rebuild_staleness`, the representative index is rebuilt from live
//! clusters, on the backend [`multiem_core::MultiEmConfig::index_for`] picks for
//! their number — the policy the batch merger applies per table.
//!
//! Every search of the representative index — an insert's candidates, the
//! mutual check's reverse look-up, a batch of `/match` queries — goes through
//! one helper that asks the index for the `k` nearest *live* nodes
//! ([`VectorIndex::search_batch_filtered`] with `node_root` as the
//! predicate); a single query is a batch of one. A tombstone therefore costs
//! a look-up nothing on the brute-force backend (the row is skipped unscored)
//! and only the graph steps that pass through it on HNSW; the tombstone
//! count decides when to rebuild, not how much to fetch.
//!
//! Density-based pruning (Algorithm 4) runs over clusters that changed since
//! the last pass ("dirty" clusters) every `prune_interval` accepted records:
//! outliers are detached back into singleton clusters, mirroring what the
//! batch pipeline does once at the end.
//!
//! Record and embedding payloads are owned by a pluggable
//! [`RecordStore`](crate::storage::RecordStore) ([`OnlineConfig::storage`]):
//! fully resident by default, or spilled to append-only segment files with a
//! bounded hot cache ([`crate::storage::SegmentRecordStore`]) so resident
//! memory stops growing linearly with ingest.

use crate::config::{OnlineConfig, SelectionStrategy};
use crate::error::OnlineError;
use crate::storage::{CompactionReport, RecordStorage, RecordStore, SegmentStats, StorageStats};
use crate::wire::{self, SnapshotFormat};
use crate::Result;
use multiem_ann::{AnnIndex, DynamicVectorIndex, VectorIndex};
use multiem_cluster::DynamicUnionFind;
use multiem_core::representation::{select_attributes, AttributeSelection, EmbeddingStore};
use multiem_core::{hierarchical_merge, prune_item, prune_points, MergedTable};
use multiem_embed::{l2_normalize, EmbeddingModel};
use multiem_table::{
    serialize_record_projected, AttrId, Dataset, EntityId, MatchTuple, Record, Schema, Table,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Outcome of ingesting one batch (or one record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Source id assigned to the batch.
    pub source: u32,
    /// Number of records ingested.
    pub records: usize,
    /// Records that merged into at least one existing cluster.
    pub merged: usize,
    /// Records that started a new singleton cluster.
    pub singletons: usize,
}

/// A point-in-time summary of the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Live records (ingested minus deleted).
    pub records: usize,
    /// Records removed by [`EntityStore::delete_record`] so far.
    pub deleted: usize,
    /// Number of source tables (batches) ingested.
    pub sources: usize,
    /// Current number of clusters (including singletons).
    pub clusters: usize,
    /// Clusters with at least two members (matched tuples).
    pub tuples: usize,
    /// Nodes in the representative index (live + tombstoned).
    pub index_nodes: usize,
    /// Tombstoned representative nodes awaiting a rebuild. Searches skip
    /// them; their share of `index_nodes` is what `rebuild_staleness` bounds.
    pub stale_nodes: usize,
    /// Times the representative index has been rebuilt.
    pub rebuilds: usize,
    /// Records removed from clusters by re-pruning so far.
    pub pruned_outliers: usize,
}

/// Metadata of one cluster, keyed by its [`DynamicUnionFind`] root.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ClusterMeta {
    /// Dense record ids of the members.
    members: Vec<usize>,
    /// Running (unnormalised) sum of member embeddings.
    sum: Vec<f32>,
    /// Live node in the representative index, if the cluster is indexed.
    node: Option<usize>,
    /// Whether the cluster changed since the last pruning pass.
    dirty: bool,
}

impl ClusterMeta {
    fn centroid(&self) -> Vec<f32> {
        let mut c = self.sum.clone();
        let inv = 1.0 / self.members.len().max(1) as f32;
        for x in c.iter_mut() {
            *x *= inv;
        }
        l2_normalize(&mut c);
        c
    }

    fn is_embedded(&self) -> bool {
        self.sum.iter().any(|&x| x != 0.0)
    }
}

/// The serializable state of an [`EntityStore`] (everything but the encoder).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreState {
    config: OnlineConfig,
    schema: Option<Arc<Schema>>,
    /// Record + embedding payloads (pluggable backend; see
    /// [`crate::storage`]).
    records: RecordStorage,
    /// Source currently accepting single-record inserts, if any.
    stream_source: Option<u32>,
    /// Attribute projection in effect (resolved from the selection strategy).
    selected: Option<Vec<AttrId>>,
    /// Full Algorithm 1 outcome when the strategy ran it.
    selection: Option<AttributeSelection>,
    /// Dense id of the first record of each source.
    dense_base: Vec<usize>,
    /// Dense id -> entity id.
    entity_of_dense: Vec<EntityId>,
    uf: DynamicUnionFind,
    clusters: BTreeMap<usize, ClusterMeta>,
    index: AnnIndex,
    /// Index node -> cluster root (`None` = tombstone).
    node_root: Vec<Option<usize>>,
    stale_nodes: usize,
    accepted_since_prune: usize,
    rebuilds: usize,
    pruned_outliers: usize,
    /// Records removed by [`EntityStore::delete_record`] (their dense slots
    /// stay allocated as detached orphans; payloads are freed by storage).
    deleted_records: usize,
}

impl StoreState {
    /// The entries of the map the derived `Serialize` produces, in its
    /// order, so a binary snapshot can be written field by field
    /// ([`wire::write_fields`]): the value tree of the index and that of the
    /// cluster sums are each tens of megabytes on a store of a few thousand
    /// records, and a checkpoint's peak memory is whichever trees are alive
    /// together.
    fn fields(&self) -> [(&'static str, &dyn Serialize); 17] {
        [
            ("config", &self.config),
            ("schema", &self.schema),
            ("records", &self.records),
            ("stream_source", &self.stream_source),
            ("selected", &self.selected),
            ("selection", &self.selection),
            ("dense_base", &self.dense_base),
            ("entity_of_dense", &self.entity_of_dense),
            ("uf", &self.uf),
            ("clusters", &self.clusters),
            ("index", &self.index),
            ("node_root", &self.node_root),
            ("stale_nodes", &self.stale_nodes),
            ("accepted_since_prune", &self.accepted_since_prune),
            ("rebuilds", &self.rebuilds),
            ("pruned_outliers", &self.pruned_outliers),
            ("deleted_records", &self.deleted_records),
        ]
    }
}

/// A long-lived, incrementally updatable multi-table matching engine.
///
/// See the [crate-level documentation](crate) for the API tour and the
/// [module documentation](self) for how the incremental path relates to the
/// paper's batch formulation.
#[derive(Debug, Clone)]
pub struct EntityStore<E: EmbeddingModel> {
    encoder: E,
    state: StoreState,
}

impl<E: EmbeddingModel> EntityStore<E> {
    /// Create an empty store.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the storage backend cannot
    /// be set up; use [`EntityStore::try_new`] to handle those as errors.
    pub fn new(config: OnlineConfig, encoder: E) -> Self {
        Self::try_new(config, encoder).unwrap_or_else(|e| panic!("invalid OnlineConfig: {e}"))
    }

    /// Create an empty store, reporting invalid configuration or a failed
    /// storage setup (e.g. an uncreatable segment directory) as errors.
    pub fn try_new(config: OnlineConfig, encoder: E) -> Result<Self> {
        config.validate().map_err(OnlineError::InvalidConfig)?;
        let dim = encoder.dim();
        let records = RecordStorage::new(&config.storage, dim)?;
        let index = config.base.index_for(0, dim);
        Ok(Self {
            encoder,
            state: StoreState {
                config,
                schema: None,
                records,
                stream_source: None,
                selected: None,
                selection: None,
                dense_base: Vec::new(),
                entity_of_dense: Vec::new(),
                uf: DynamicUnionFind::new(),
                clusters: BTreeMap::new(),
                index,
                node_root: Vec::new(),
                stale_nodes: 0,
                accepted_since_prune: 0,
                rebuilds: 0,
                pruned_outliers: 0,
                deleted_records: 0,
            },
        })
    }

    /// The store configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.state.config
    }

    /// The embedding backend.
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// The attribute projection in effect, once resolved from the first data.
    pub fn selected_attributes(&self) -> Option<&[AttrId]> {
        self.state.selected.as_deref()
    }

    /// The Algorithm 1 outcome, when the selection strategy ran it.
    pub fn attribute_selection(&self) -> Option<&AttributeSelection> {
        self.state.selection.as_ref()
    }

    /// Number of *live* records (ingested minus deleted).
    pub fn num_records(&self) -> usize {
        self.state.entity_of_dense.len() - self.state.deleted_records
    }

    /// Records removed by [`EntityStore::delete_record`] so far.
    pub fn num_deleted(&self) -> usize {
        self.state.deleted_records
    }

    /// Number of source tables ingested so far.
    pub fn num_sources(&self) -> usize {
        self.state.records.num_sources()
    }

    /// Whether the store has never ingested a record (a store whose every
    /// record was deleted still counts as populated — its id space is
    /// allocated).
    pub fn is_empty(&self) -> bool {
        self.state.entity_of_dense.is_empty()
    }

    /// Fetch an ingested record from the storage backend (a disk-backed
    /// store may read it back from a segment file, so the record is owned).
    pub fn record(&self, id: EntityId) -> Option<Record> {
        self.state.records.get(id)
    }

    /// Counters of the record-storage backend (where records live, resident
    /// vs spilled bytes, cache behaviour). Cache counters are volatile:
    /// they reset on restore and differ between otherwise identical stores.
    pub fn storage_stats(&self) -> StorageStats {
        self.state.records.stats()
    }

    /// Per-segment health of the record-storage backend, in segment order
    /// (empty for the memory backend).
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        self.state.records.segment_stats()
    }

    /// Persist buffered storage state: a disk-backed store seals its
    /// in-memory tail into a segment file, so a subsequent snapshot carries
    /// only the segment index instead of record payloads. No-op for the
    /// memory backend.
    pub fn flush_storage(&mut self) -> Result<()> {
        self.state.records.flush()
    }

    /// Garbage-collect storage files the backend no longer references (a
    /// disk-backed store deletes segment files absent from its segment
    /// index — orphans from crashes between sealing and checkpoint
    /// commit). Returns the number of files deleted; callers should run
    /// this only after the state referencing the surviving files is
    /// durably committed. No-op for the memory backend.
    pub fn gc_storage(&mut self) -> Result<u64> {
        self.state.records.gc()
    }

    /// Compact the storage backend: sealed segment files whose live
    /// fraction fell to or below the configured
    /// [`compact_live_ratio`](crate::DiskStorageConfig::compact_live_ratio)
    /// are rewritten into fresh files holding only live records (fully-dead
    /// files are dropped outright). Superseded files stay on disk until
    /// [`EntityStore::gc_storage`] sweeps them, so callers persisting
    /// snapshots should commit the post-compaction state before sweeping.
    /// No-op for the memory backend.
    pub fn compact_storage(&mut self) -> Result<CompactionReport> {
        self.state.records.compact()
    }

    /// Delete one record: detach it from its cluster (the survivors keep
    /// matching; the cluster representative is recomputed without the
    /// deleted member), tombstone the stored record and embedding, and
    /// forget the id — [`EntityStore::record`] returns `None` and
    /// [`EntityStore::match_record`] can never surface it again. Returns
    /// whether a live record was deleted (`false` for unknown or
    /// already-deleted ids — deletion is idempotent).
    ///
    /// Deletion does **not** re-match the surviving members of the cluster:
    /// records that only co-referred transitively through the deleted one
    /// stay fused until a pruning pass separates them.
    pub fn delete_record(&mut self, id: EntityId) -> Result<bool> {
        let Some(dense) = self.dense_of(id) else {
            return Ok(false);
        };
        // The stored embedding doubles as the liveness check (deleted rows
        // read back as `None`) and as the amount to subtract from the
        // cluster's running sum.
        let Some(embedding) = self.state.records.embedding(id) else {
            return Ok(false);
        };

        let root = self.state.uf.find(dense);
        let mut meta = self
            .state
            .clusters
            .remove(&root)
            .expect("every live record belongs to a cluster");
        meta.members.retain(|&d| d != dense);
        self.state.uf.detach(dense);
        self.tombstone(meta.node);
        meta.node = None;
        if !meta.members.is_empty() {
            // The cluster survives without the deleted member: rebuild its
            // centroid sum and re-index the representative.
            for (a, x) in meta.sum.iter_mut().zip(&embedding) {
                *a -= *x;
            }
            let surviving_root = self.state.uf.find(meta.members[0]);
            self.register_cluster(surviving_root, meta);
        }

        self.state.records.delete(id)?;
        self.state.deleted_records += 1;
        self.maybe_rebuild();
        Ok(true)
    }

    /// Current summary statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records: self.num_records(),
            deleted: self.state.deleted_records,
            sources: self.num_sources(),
            clusters: self.state.clusters.len(),
            tuples: self
                .state
                .clusters
                .values()
                .filter(|m| m.members.len() >= 2)
                .count(),
            index_nodes: self.state.node_root.len(),
            stale_nodes: self.state.stale_nodes,
            rebuilds: self.state.rebuilds,
            pruned_outliers: self.state.pruned_outliers,
        }
    }

    /// Approximate *resident* heap footprint of the large store components,
    /// in bytes: the representative index plus whatever the storage backend
    /// keeps in memory (everything for the memory backend; tail + hot cache
    /// + per-record index for the disk backend).
    pub fn approx_bytes(&self) -> usize {
        self.state.records.stats().resident_bytes + self.state.index.approx_bytes()
    }

    /// Current matched tuples: every cluster with at least two members.
    pub fn tuples(&self) -> Vec<MatchTuple> {
        self.state
            .clusters
            .values()
            .filter(|m| m.members.len() >= 2)
            .map(|m| MatchTuple::new(m.members.iter().map(|&d| self.state.entity_of_dense[d])))
            .collect()
    }

    /// All members of the cluster containing `id` (including `id` itself), or
    /// `None` for unknown entities.
    pub fn cluster_members(&self, id: EntityId) -> Option<Vec<EntityId>> {
        let dense = self.dense_of(id)?;
        let root = self.state.uf.find_immutable(dense);
        let meta = self.state.clusters.get(&root)?;
        let mut members: Vec<EntityId> = meta
            .members
            .iter()
            .map(|&d| self.state.entity_of_dense[d])
            .collect();
        members.sort_unstable();
        Some(members)
    }

    // --- ingestion ----------------------------------------------------------

    /// Initialise an empty store by running the full batch pipeline over
    /// `dataset` and adopting its output as the initial cluster state.
    pub fn bootstrap(&mut self, dataset: &Dataset) -> Result<IngestReport> {
        if !self.is_empty() {
            return Err(OnlineError::AlreadyPopulated);
        }
        if dataset.num_sources() == 0 {
            return Err(OnlineError::Pipeline(
                multiem_core::MultiEmError::EmptyDataset,
            ));
        }
        self.state.schema = Some(dataset.schema().clone());
        self.resolve_selection(dataset)?;
        let selected = self.state.selected.clone().expect("selection resolved");

        // Phase R over the whole dataset at once. The batch embedding store
        // drives the merge/prune phases below and is then dropped — the
        // per-record payloads stream into the pluggable record store, which
        // may spill them to disk as it goes.
        let embeddings =
            EmbeddingStore::build(dataset, &self.encoder, &selected, &self.state.config.base);
        for (s, table) in dataset.tables().iter().enumerate() {
            let source = self.open_source(table.name());
            debug_assert_eq!(source as usize, s);
            for (row, record) in table.iter() {
                let id = EntityId::new(s as u32, row);
                self.state
                    .records
                    .append(source, record, embeddings.embedding(id))?;
                self.state.entity_of_dense.push(id);
                self.state.uf.push();
            }
        }

        // Phases M and P: table-wise hierarchical merging, then density-based
        // pruning of every multi-member item.
        let tables: Vec<MergedTable> = (0..dataset.num_sources() as u32)
            .map(|s| MergedTable::from_source(dataset, s, &embeddings))
            .collect();
        let merge_out = hierarchical_merge(tables, &self.state.config.base, self.encoder.dim());

        let mut merged_records = 0usize;
        for item in &merge_out.integrated.items {
            let kept: Vec<EntityId> = if item.members.len() >= 2 && self.state.config.base.pruning {
                let outcome = prune_item(&item.members, &embeddings, &self.state.config.base);
                self.state.pruned_outliers += outcome.removed.len();
                outcome.kept
            } else {
                item.members.clone()
            };
            if kept.len() < 2 {
                continue;
            }
            merged_records += kept.len();
            let dense: Vec<usize> = kept
                .iter()
                .map(|&id| self.dense_of(id).expect("bootstrap id"))
                .collect();
            for w in dense.windows(2) {
                self.state.uf.union(w[0], w[1]);
            }
        }

        // Build cluster metadata for every record (clusters formed above,
        // everything else as singletons) and index the representatives.
        let mut members_of: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for d in 0..self.state.entity_of_dense.len() {
            members_of.entry(self.state.uf.find(d)).or_default().push(d);
        }
        for (root, members) in members_of {
            let meta = self.make_meta(members);
            self.register_cluster(root, meta);
        }

        let records = self.num_records();
        Ok(IngestReport {
            source: 0,
            records,
            merged: merged_records,
            singletons: records - merged_records,
        })
    }

    /// Ingest a whole table as a new source. Every record runs the
    /// incremental mutual-top-K merge against the current clusters (records
    /// of the same batch become visible to each other as they are inserted).
    pub fn ingest_batch(&mut self, table: &Table) -> Result<IngestReport> {
        self.ensure_schema(table.schema())?;
        if self.state.selected.is_none() {
            let mut ds = Dataset::new(table.name(), table.schema().clone());
            ds.add_table(table.clone())
                .map_err(|e| OnlineError::SchemaMismatch(e.to_string()))?;
            self.resolve_selection(&ds)?;
        }

        let source = self.open_source(table.name());
        let selected = self.state.selected.clone().expect("selection resolved");
        let opts = self.state.config.base.serialize.clone();
        let texts: Vec<String> = table
            .records()
            .iter()
            .map(|r| serialize_record_projected(r, &selected, &opts))
            .collect();
        let matrix = self.encoder.encode_batch(&texts);

        let mut report = IngestReport {
            source,
            records: 0,
            ..IngestReport::default()
        };
        for (row, record) in table.iter() {
            let merged = self.insert_embedded(source, record, matrix.row(row as usize))?;
            report.records += 1;
            if merged {
                report.merged += 1;
            } else {
                report.singletons += 1;
            }
        }
        // A batch seals its source: later single inserts open a fresh one.
        self.state.stream_source = None;
        Ok(report)
    }

    /// Insert one record, returning its own (stable) [`EntityId`]. Use
    /// [`EntityStore::cluster_members`] to see which entities it matched.
    pub fn insert(&mut self, record: Record) -> Result<EntityId> {
        let schema = self.state.schema.clone().ok_or_else(|| {
            OnlineError::SchemaMismatch(
                "store has no schema yet; bootstrap or ingest a batch first".into(),
            )
        })?;
        if record.arity() != schema.len() {
            return Err(OnlineError::SchemaMismatch(format!(
                "record has {} values, schema has {} attributes",
                record.arity(),
                schema.len()
            )));
        }
        let source = match self.state.stream_source {
            Some(s) => s,
            None => {
                let name = format!("stream-{}", self.state.records.num_sources());
                let s = self.open_source(&name);
                self.state.stream_source = Some(s);
                s
            }
        };
        let selected = self.state.selected.clone().expect("selection resolved");
        let text =
            serialize_record_projected(&record, &selected, &self.state.config.base.serialize);
        let emb = self.encoder.encode(&text);
        let row = self.state.records.source_len(source) as u32;
        self.insert_embedded(source, &record, &emb)?;
        Ok(EntityId::new(source, row))
    }

    /// Find the clusters a record would match, without mutating the store.
    /// Applies the same mutual top-K rule as [`EntityStore::insert`] (except
    /// the same-source restriction, since an unanchored record has no source
    /// yet). Returns up to `k` pairs of (canonical entity id of the cluster,
    /// distance under the merge metric), closest first. The canonical id of a
    /// cluster is its smallest member.
    pub fn match_record(&self, record: &Record) -> Vec<(EntityId, f32)> {
        self.match_batch(std::slice::from_ref(record))
            .pop()
            .unwrap_or_default()
    }

    /// Batched [`EntityStore::match_record`]: every query of `records` goes
    /// to the representative index in **one** `search_batch_filtered` call, which the
    /// brute-force backend answers by streaming its vector array through the
    /// cache hierarchy once per batch instead of once per query (the win of
    /// the serving layer's match micro-batching on a memory-bound scan).
    /// `match_record` is a batch of one through here, so the two can never
    /// drift in semantics.
    pub fn match_batch(&self, records: &[Record]) -> Vec<Vec<(EntityId, f32)>> {
        let mut out: Vec<Vec<(EntityId, f32)>> = vec![Vec::new(); records.len()];
        let Some(selected) = self.state.selected.as_deref() else {
            return out;
        };
        let k = self.state.config.base.k;
        if k == 0 {
            return out;
        }
        let embeddings: Vec<(usize, Vec<f32>)> = records
            .iter()
            .enumerate()
            .filter_map(|(query, record)| {
                let text =
                    serialize_record_projected(record, selected, &self.state.config.base.serialize);
                let emb = self.encoder.encode(&text);
                // Queries with no recognised tokens match nothing.
                emb.iter().any(|&x| x != 0.0).then_some((query, emb))
            })
            .collect();
        let queries: Vec<&[f32]> = embeddings.iter().map(|(_, e)| e.as_slice()).collect();
        for ((query, _), hits) in embeddings.iter().zip(self.search_live(&queries, k, None)) {
            out[*query] = hits
                .into_iter()
                .filter(|&(root, dist)| dist <= self.state.config.base.m && self.mutual(root, dist))
                .map(|(root, dist)| (self.canonical_id(root), dist))
                .collect();
        }
        out
    }

    /// Run density-based pruning over all dirty clusters now (the same pass
    /// that runs automatically every `prune_interval` accepted records), then
    /// rebuild the representative index if it got too stale.
    pub fn refresh(&mut self) {
        self.prune_dirty();
        self.maybe_rebuild();
    }

    // --- snapshot / restore -------------------------------------------------

    /// Serialize the full store state (embeddings, representative index,
    /// cluster partition, ingested records) to JSON. The encoder itself is
    /// not serialized: restore with an identically configured encoder.
    pub fn snapshot_json(&self) -> Result<String> {
        serde_json::to_string(&self.state).map_err(|e| OnlineError::Snapshot(e.to_string()))
    }

    /// Restore a store from a [`EntityStore::snapshot_json`] snapshot.
    ///
    /// `encoder` must be configured identically to the encoder the snapshot
    /// was taken with (same dimensionality and weights); otherwise new
    /// embeddings would be incompatible with the stored ones.
    pub fn restore_json(snapshot: &str, encoder: E) -> Result<Self> {
        let state: StoreState =
            serde_json::from_str(snapshot).map_err(|e| OnlineError::Snapshot(e.to_string()))?;
        Self::adopt_state(state, encoder)
    }

    /// The full store state as a [`serde::Value`] tree — the common
    /// representation behind both snapshot formats and the serving layer's
    /// write-ahead log.
    pub fn snapshot_value(&self) -> serde::Value {
        self.state.to_value()
    }

    /// Restore a store from a [`EntityStore::snapshot_value`] tree.
    pub fn restore_value(value: &serde::Value, encoder: E) -> Result<Self> {
        let state =
            StoreState::from_value(value).map_err(|e| OnlineError::Snapshot(e.to_string()))?;
        Self::adopt_state(state, encoder)
    }

    /// Serialize the full store state in the requested wire format.
    /// [`SnapshotFormat::Binary`] is typically 5–10x smaller than JSON (see
    /// [`crate::wire`]); [`EntityStore::restore_bytes`] auto-detects which
    /// one it is handed.
    pub fn snapshot_bytes(&self, format: SnapshotFormat) -> Result<Vec<u8>> {
        match format {
            SnapshotFormat::Json => self.snapshot_json().map(String::into_bytes),
            SnapshotFormat::Binary => {
                let mut out = Vec::from(*wire::SNAPSHOT_MAGIC);
                wire::write_fields(&mut out, &self.state.fields());
                Ok(out)
            }
        }
    }

    /// Restore a store from [`EntityStore::snapshot_bytes`] output of either
    /// format (binary snapshots are recognised by their magic prefix).
    pub fn restore_bytes(bytes: &[u8], encoder: E) -> Result<Self> {
        if let Some(payload) = bytes.strip_prefix(wire::SNAPSHOT_MAGIC.as_slice()) {
            let value = wire::value_from_bytes(payload)
                .map_err(|e| OnlineError::Snapshot(e.to_string()))?;
            Self::restore_value(&value, encoder)
        } else {
            let text = std::str::from_utf8(bytes)
                .map_err(|e| OnlineError::Snapshot(format!("snapshot is not utf-8: {e}")))?;
            Self::restore_json(text, encoder)
        }
    }

    fn adopt_state(mut state: StoreState, encoder: E) -> Result<Self> {
        if state.records.dim() != encoder.dim() {
            return Err(OnlineError::Snapshot(format!(
                "snapshot embeddings have dim {}, encoder produces dim {}",
                state.records.dim(),
                encoder.dim()
            )));
        }
        // Re-attach the storage backend to its backing files (disk-backed
        // snapshots carry the segment index, not the sealed payloads).
        state.records.reopen()?;
        Ok(Self { encoder, state })
    }

    /// Prepare an empty store to accept single-record
    /// [`EntityStore::insert`]s without a bootstrap dataset or a first batch:
    /// fixes the schema and resolves the attribute projection from it.
    /// Serving-layer shards use this so every shard agrees on the projection
    /// before any data arrives.
    ///
    /// Fails when `schema` conflicts with one already in place, or when the
    /// selection strategy is [`SelectionStrategy::AutoOnFirstData`] and no
    /// data has resolved it yet — Algorithm 1 needs records to score, so
    /// data-free initialisation requires `Fixed` or `AllAttributes`.
    pub fn init_schema(&mut self, schema: Arc<Schema>) -> Result<()> {
        self.ensure_schema(&schema)?;
        if self.state.selected.is_some() {
            return Ok(());
        }
        let schema_len = schema.len();
        let selected = match &self.state.config.selection {
            SelectionStrategy::Fixed(attrs) => {
                if attrs.iter().any(|&a| a >= schema_len) {
                    return Err(OnlineError::InvalidConfig(format!(
                        "fixed attribute selection references attribute >= {schema_len}"
                    )));
                }
                attrs.clone()
            }
            SelectionStrategy::AllAttributes => (0..schema_len).collect(),
            SelectionStrategy::AutoOnFirstData => {
                return Err(OnlineError::InvalidConfig(
                    "AutoOnFirstData cannot resolve an attribute projection without data; \
                     bootstrap or ingest a batch first, or configure Fixed / AllAttributes"
                        .into(),
                ))
            }
        };
        self.state.selected = Some(selected);
        Ok(())
    }

    // --- internals ----------------------------------------------------------

    fn dense_of(&self, id: EntityId) -> Option<usize> {
        let base = *self.state.dense_base.get(id.source as usize)?;
        if (id.row as usize) < self.state.records.source_len(id.source) {
            Some(base + id.row as usize)
        } else {
            None
        }
    }

    /// The stored embedding of a dense record id. Memory backend: a copy of
    /// the resident vector; disk backend: tail/cache hit or a segment read.
    fn embedding_of_dense(&self, dense: usize) -> Vec<f32> {
        let id = self.state.entity_of_dense[dense];
        self.state
            .records
            .embedding(id)
            .expect("every ingested record has a stored embedding")
    }

    fn canonical_id(&self, root: usize) -> EntityId {
        let meta = &self.state.clusters[&root];
        meta.members
            .iter()
            .map(|&d| self.state.entity_of_dense[d])
            .min()
            .expect("clusters are never empty")
    }

    fn ensure_schema(&mut self, schema: &Arc<Schema>) -> Result<()> {
        match &self.state.schema {
            None => {
                self.state.schema = Some(schema.clone());
                Ok(())
            }
            Some(existing) if existing.same_shape(schema) => Ok(()),
            Some(existing) => {
                let detail = if schema.len() != existing.len() {
                    format!(
                        "table schema has {} attributes, store schema has {}",
                        schema.len(),
                        existing.len()
                    )
                } else {
                    let diff = existing
                        .names()
                        .zip(schema.names())
                        .find(|(a, b)| a != b)
                        .map(|(a, b)| format!("store has `{a}`, table has `{b}`"))
                        .unwrap_or_else(|| "attribute lists differ".to_string());
                    format!("attribute names differ: {diff}")
                };
                Err(OnlineError::SchemaMismatch(detail))
            }
        }
    }

    fn resolve_selection(&mut self, dataset: &Dataset) -> Result<()> {
        let schema_len = dataset.schema().len();
        let (selected, selection) = match &self.state.config.selection {
            SelectionStrategy::Fixed(attrs) => {
                if attrs.iter().any(|&a| a >= schema_len) {
                    return Err(OnlineError::InvalidConfig(format!(
                        "fixed attribute selection references attribute >= {schema_len}"
                    )));
                }
                (attrs.clone(), None)
            }
            SelectionStrategy::AllAttributes => ((0..schema_len).collect(), None),
            SelectionStrategy::AutoOnFirstData => {
                let sel = select_attributes(dataset, &self.encoder, &self.state.config.base)?;
                (sel.selected.clone(), Some(sel))
            }
        };
        self.state.selected = Some(selected);
        self.state.selection = selection;
        Ok(())
    }

    fn open_source(&mut self, name: &str) -> u32 {
        self.state.dense_base.push(self.state.entity_of_dense.len());
        self.state.records.open_source(name)
    }

    fn make_meta(&self, members: Vec<usize>) -> ClusterMeta {
        let dim = self.encoder.dim();
        let mut sum = vec![0.0f32; dim];
        for &d in &members {
            for (a, x) in sum.iter_mut().zip(self.embedding_of_dense(d)) {
                *a += x;
            }
        }
        ClusterMeta {
            members,
            sum,
            node: None,
            dirty: false,
        }
    }

    /// Insert `meta` into the cluster map under `root`, indexing its
    /// representative when the cluster has a non-zero embedding.
    fn register_cluster(&mut self, root: usize, mut meta: ClusterMeta) {
        if meta.is_embedded() {
            let node = self.state.index.insert(&meta.centroid());
            debug_assert_eq!(node, self.state.node_root.len());
            self.state.node_root.push(Some(root));
            meta.node = Some(node);
        }
        self.state.clusters.insert(root, meta);
    }

    fn tombstone(&mut self, node: Option<usize>) {
        if let Some(n) = node {
            if self.state.node_root[n].take().is_some() {
                self.state.stale_nodes += 1;
            }
        }
    }

    /// Search the representative index for every query at once, returning
    /// per query up to `k` *live* clusters as `(root, distance)`, closest
    /// first; the node `exclude`, if any, is passed over like a tombstone.
    ///
    /// Tombstones still occupy index slots, but the index is told which
    /// nodes are live (`node_root` is the only record of that) and never
    /// returns a dead one, so the look-up asks for exactly `k`: the
    /// brute-force scan does not score a tombstone, and the HNSW traversal
    /// only passes through it.
    fn search_live(
        &self,
        queries: &[&[f32]],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<Vec<(usize, f32)>> {
        let node_root = &self.state.node_root;
        let live = |node: usize| node_root[node].is_some() && Some(node) != exclude;
        self.state
            .index
            .search_batch_filtered(queries, k, &live)
            .into_iter()
            .map(|hits| {
                hits.into_iter()
                    .filter_map(|n| node_root[n.index].map(|root| (root, n.distance)))
                    .collect()
            })
            .collect()
    }

    /// Would the new record (at `dist_to_candidate` from the candidate's
    /// representative) be within the candidate's top-K? True when fewer than
    /// K other live representatives are closer to the candidate than the new
    /// record is — the reverse direction of Eq. 1.
    fn mutual(&self, candidate_root: usize, dist_to_candidate: f32) -> bool {
        let k = self.state.config.base.k;
        let meta = &self.state.clusters[&candidate_root];
        let Some(own_node) = meta.node else {
            return false;
        };
        let closer = self
            .search_live(&[&meta.centroid()], k, Some(own_node))
            .into_iter()
            .flatten()
            .filter(|&(_, dist)| dist < dist_to_candidate)
            .count();
        closer < k
    }

    /// Whether a record from `source` may merge directly into the cluster:
    /// the batch pipeline never compares two items of the same source table
    /// directly, so by default a candidate whose members all share the
    /// record's source is skipped.
    fn source_compatible(&self, candidate_root: usize, source: u32) -> bool {
        if self.state.config.match_within_source {
            return true;
        }
        self.state.clusters[&candidate_root]
            .members
            .iter()
            .any(|&d| self.state.entity_of_dense[d].source != source)
    }

    /// The shared incremental insert path. Returns whether the record merged
    /// into at least one existing cluster.
    fn insert_embedded(&mut self, source: u32, record: &Record, emb: &[f32]) -> Result<bool> {
        let row_id = self.state.records.append(source, record, emb)?;
        let dense = self.state.uf.push();
        self.state.entity_of_dense.push(row_id);
        debug_assert_eq!(self.dense_of(row_id), Some(dense));

        let k = self.state.config.base.k;
        let m = self.state.config.base.m;
        let singleton = ClusterMeta {
            members: vec![dense],
            sum: emb.to_vec(),
            node: None,
            dirty: false,
        };

        // Zero embeddings (empty serialized text) never match anything; keep
        // them as unindexed singletons, like the batch merger skips them.
        if !singleton.is_embedded() {
            let root = self.state.uf.find(dense);
            self.state.clusters.insert(root, singleton);
            return Ok(false);
        }

        let matches: Vec<usize> = self
            .search_live(&[emb], k, None)
            .into_iter()
            .flatten()
            .filter(|&(root, dist)| {
                dist <= m && self.source_compatible(root, source) && self.mutual(root, dist)
            })
            .map(|(root, _)| root)
            .collect();

        let merged = !matches.is_empty();
        let mut fused = singleton;
        for root in matches {
            let old = self
                .state
                .clusters
                .remove(&root)
                .expect("candidate root exists");
            self.tombstone(old.node);
            self.state.uf.union(dense, old.members[0]);
            fused.members.extend_from_slice(&old.members);
            for (a, x) in fused.sum.iter_mut().zip(&old.sum) {
                *a += *x;
            }
        }
        fused.dirty = merged;
        let root = self.state.uf.find(dense);
        self.register_cluster(root, fused);

        self.state.accepted_since_prune += 1;
        if let Some(interval) = self.state.config.prune_interval {
            if self.state.accepted_since_prune >= interval {
                self.prune_dirty();
            }
        }
        self.maybe_rebuild();
        Ok(merged)
    }

    /// Density-based pruning (Algorithm 4) over dirty clusters: outliers are
    /// detached into fresh singleton clusters.
    fn prune_dirty(&mut self) {
        self.state.accepted_since_prune = 0;
        if !self.state.config.base.pruning {
            return;
        }
        let dirty_roots: Vec<usize> = self
            .state
            .clusters
            .iter()
            .filter(|(_, m)| m.dirty && m.members.len() >= 2)
            .map(|(&root, _)| root)
            .collect();
        for root in dirty_roots {
            let mut meta = self
                .state
                .clusters
                .remove(&root)
                .expect("dirty root exists");
            // Fetch member embeddings through the storage backend (resident
            // for the memory backend; tail/cache hits or segment reads for
            // disk) and prune the raw points.
            let points: Vec<Vec<f32>> = meta
                .members
                .iter()
                .map(|&d| self.embedding_of_dense(d))
                .collect();
            let point_refs: Vec<&[f32]> = points.iter().map(Vec::as_slice).collect();
            let (kept, removed) = prune_points(&point_refs, &self.state.config.base);
            if removed.is_empty() {
                meta.dirty = false;
                self.state.clusters.insert(root, meta);
                continue;
            }
            self.state.pruned_outliers += removed.len();
            self.tombstone(meta.node);
            // Rebuild cluster sums from the points already fetched above —
            // a refetch through `make_meta` would hit the storage backend
            // (and possibly segment files) a second time per member.
            for &i in &removed {
                let dense = meta.members[i];
                let new_root = self.state.uf.detach(dense);
                let single = ClusterMeta {
                    members: vec![dense],
                    sum: points[i].clone(),
                    node: None,
                    dirty: false,
                };
                self.register_cluster(new_root, single);
            }
            if !kept.is_empty() {
                let mut sum = vec![0.0f32; self.encoder.dim()];
                for &i in &kept {
                    for (a, x) in sum.iter_mut().zip(&points[i]) {
                        *a += *x;
                    }
                }
                let kept_meta = ClusterMeta {
                    members: kept.iter().map(|&i| meta.members[i]).collect(),
                    sum,
                    node: None,
                    dirty: false,
                };
                self.register_cluster(root, kept_meta);
            }
        }
    }

    /// Rebuild the representative index when tombstones dominate, or when the
    /// live clusters have outgrown the brute-force backend
    /// ([`multiem_core::MultiEmConfig::wants_hnsw`]).
    fn maybe_rebuild(&mut self) {
        let total = self.state.node_root.len();
        if total == 0 {
            return;
        }
        let live = total - self.state.stale_nodes;
        let staleness = self.state.stale_nodes as f64 / total as f64;
        let needs_upgrade = !self.state.index.is_hnsw() && self.state.config.base.wants_hnsw(live);
        if staleness <= self.state.config.rebuild_staleness && !needs_upgrade {
            return;
        }
        let mut index = self.state.config.base.index_for(live, self.encoder.dim());
        let mut node_root = Vec::with_capacity(live);
        for (&root, meta) in self.state.clusters.iter_mut() {
            if meta.node.is_some() {
                let node = index.insert(&meta.centroid());
                debug_assert_eq!(node, node_root.len());
                node_root.push(Some(root));
                meta.node = Some(node);
            }
        }
        self.state.index = index;
        self.state.node_root = node_root;
        self.state.stale_nodes = 0;
        self.state.rebuilds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiem_core::MultiEmConfig;
    use multiem_datagen::{
        CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator,
    };
    use multiem_embed::HashedLexicalEncoder;

    fn config() -> OnlineConfig {
        OnlineConfig::new(MultiEmConfig {
            m: 0.35,
            ..MultiEmConfig::default()
        })
        .with_all_attributes()
    }

    fn store() -> EntityStore<HashedLexicalEncoder> {
        EntityStore::new(config(), HashedLexicalEncoder::default())
    }

    fn table(name: &str, schema: &Arc<Schema>, titles: &[&str]) -> Table {
        Table::with_records(
            name,
            schema.clone(),
            titles.iter().map(|t| Record::from_texts([*t])).collect(),
        )
        .unwrap()
    }

    fn title_schema() -> Arc<Schema> {
        Schema::new(["title"]).shared()
    }

    fn music_dataset(seed: u64) -> Dataset {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let cfg = GeneratorConfig {
            name: "music-online".into(),
            num_sources: 4,
            num_tuples: 40,
            num_singletons: 20,
            min_tuple_size: 2,
            max_tuple_size: 4,
            seed,
        };
        MultiSourceGenerator::new(cfg).generate(factory.as_ref(), &corruptor)
    }

    #[test]
    fn cross_source_duplicates_merge() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table(
            "a",
            &schema,
            &["apple iphone 8 plus 64gb silver", "sony tv"],
        ))
        .unwrap();
        let report = s
            .ingest_batch(&table(
                "b",
                &schema,
                &["apple iphone 8 plus 64 gb silver", "dyson v11"],
            ))
            .unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.merged, 1);
        let tuples = s.tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(
            tuples[0].members(),
            &[EntityId::new(0, 0), EntityId::new(1, 0)]
        );
    }

    #[test]
    fn same_source_duplicates_do_not_merge_directly() {
        let schema = title_schema();
        let mut s = store();
        let report = s
            .ingest_batch(&table(
                "a",
                &schema,
                &["apple iphone 8 plus 64gb", "apple iphone 8 plus 64gb"],
            ))
            .unwrap();
        assert_eq!(report.merged, 0);
        assert!(s.tuples().is_empty());
    }

    #[test]
    fn single_insert_matches_existing_cluster() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table(
            "a",
            &schema,
            &["golden heart river", "makita drill 18v"],
        ))
        .unwrap();
        let id = s
            .insert(Record::from_texts(["golden heart river live"]))
            .unwrap();
        assert_eq!(id.source, 1, "single inserts open a stream source");
        let members = s.cluster_members(id).unwrap();
        assert_eq!(members, vec![EntityId::new(0, 0), id]);
    }

    #[test]
    fn match_record_is_read_only() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table(
            "a",
            &schema,
            &["golden heart river", "makita drill 18v"],
        ))
        .unwrap();
        let before = s.stats();
        let hits = s.match_record(&Record::from_texts(["golden heart river remaster"]));
        assert_eq!(s.stats(), before, "match_record must not mutate");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, EntityId::new(0, 0));
        assert!(hits[0].1 <= 0.35);
        // A completely different product misses.
        assert!(s
            .match_record(&Record::from_texts(["bosch washing machine"]))
            .is_empty());
    }

    #[test]
    fn match_batch_agrees_with_match_record() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table(
            "a",
            &schema,
            &[
                "golden heart river",
                "makita drill 18v",
                "bosch jigsaw 700w",
            ],
        ))
        .unwrap();
        let probes: Vec<Record> = [
            "golden heart river remaster",
            "bosch washing machine",
            "makita drill 18 v",
            "", // no recognised tokens -> zero embedding -> no hits
        ]
        .iter()
        .map(|t| Record::from_texts([*t]))
        .collect();
        let batched = s.match_batch(&probes);
        assert_eq!(batched.len(), probes.len());
        for (probe, hits) in probes.iter().zip(&batched) {
            assert_eq!(hits, &s.match_record(probe));
        }
        assert!(batched[0].len() == 1 && batched[3].is_empty());
        assert!(s.match_batch(&[]).is_empty());
    }

    #[test]
    fn empty_record_stays_singleton() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table("a", &schema, &["real item"]))
            .unwrap();
        let id = s
            .insert(Record::new(vec![multiem_table::Value::Null]))
            .unwrap();
        assert_eq!(s.cluster_members(id).unwrap(), vec![id]);
        assert!(s
            .match_record(&Record::new(vec![multiem_table::Value::Null]))
            .is_empty());
    }

    #[test]
    fn insert_requires_schema_and_matching_arity() {
        let mut s = store();
        assert!(matches!(
            s.insert(Record::from_texts(["x"])),
            Err(OnlineError::SchemaMismatch(_))
        ));
        let schema = title_schema();
        s.ingest_batch(&table("a", &schema, &["x"])).unwrap();
        assert!(matches!(
            s.insert(Record::from_texts(["a", "b"])),
            Err(OnlineError::SchemaMismatch(_))
        ));
        let other = Schema::new(["a", "b"]).shared();
        assert!(matches!(
            s.ingest_batch(&table("b", &other, &[])),
            Err(OnlineError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn bootstrap_matches_streaming_state_shape() {
        let ds = music_dataset(3);
        let mut s = store();
        let report = s.bootstrap(&ds).unwrap();
        assert_eq!(report.records, ds.total_entities());
        assert_eq!(s.num_sources(), ds.num_sources());
        assert!(!s.tuples().is_empty());
        assert!(matches!(
            s.bootstrap(&ds),
            Err(OnlineError::AlreadyPopulated)
        ));
        // Streaming continues after bootstrap.
        let record = ds.record(EntityId::new(0, 0)).unwrap().clone();
        let id = s.insert(record).unwrap();
        assert_eq!(id.source as usize, ds.num_sources());
    }

    #[test]
    fn transitive_merge_through_new_record() {
        // Two border clusters that only connect through a bridging record.
        let schema = title_schema();
        let mut cfg = config();
        cfg.base.m = 0.5;
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        s.ingest_batch(&table(
            "a",
            &schema,
            &["silver river serenade acoustic cover"],
        ))
        .unwrap();
        s.ingest_batch(&table("b", &schema, &["silver river serenade"]))
            .unwrap();
        let stats = s.stats();
        assert!(stats.clusters >= 1);
        // The pair is close enough to have merged already; add a third copy.
        s.ingest_batch(&table("c", &schema, &["silver river serenade live"]))
            .unwrap();
        let tuples = s.tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].len(), 3);
    }

    #[test]
    fn refresh_prunes_outlier_from_dirty_cluster() {
        let schema = title_schema();
        let mut cfg = config();
        // Loose merge threshold lets an outlier sneak in; strict epsilon
        // prunes it again.
        cfg.base.m = 1.1;
        cfg.base.epsilon = 0.8;
        cfg.prune_interval = None; // only explicit refresh
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        s.ingest_batch(&table("a", &schema, &["apple iphone 8 plus 64gb silver"]))
            .unwrap();
        s.ingest_batch(&table(
            "b",
            &schema,
            &["apple iphone 8 plus 64gb silver unlocked"],
        ))
        .unwrap();
        s.ingest_batch(&table(
            "c",
            &schema,
            &["apple iphone plus silver deluxe kit box"],
        ))
        .unwrap();
        let before = s.tuples();
        assert_eq!(before.len(), 1);
        let size_before = before[0].len();
        s.refresh();
        let after = s.tuples();
        let stats = s.stats();
        if stats.pruned_outliers > 0 {
            assert!(after.is_empty() || after[0].len() < size_before);
        }
        // Pruned members remain known records with singleton clusters.
        let total: usize = s.num_records();
        assert_eq!(total, 3);
    }

    #[test]
    fn index_rebuild_preserves_matching() {
        let schema = title_schema();
        let mut cfg = config();
        cfg.rebuild_staleness = 0.0; // rebuild eagerly after every merge
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        s.ingest_batch(&table(
            "a",
            &schema,
            &["golden heart river", "makita drill 18v"],
        ))
        .unwrap();
        s.ingest_batch(&table(
            "b",
            &schema,
            &["golden heart river live", "makita drill 18 v"],
        ))
        .unwrap();
        assert_eq!(s.tuples().len(), 2);
        assert!(s.stats().rebuilds > 0);
        assert_eq!(s.stats().stale_nodes, 0);
        // Matching still works after rebuilds.
        let hits = s.match_record(&Record::from_texts(["golden heart river remaster"]));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn auto_backend_upgrades_to_hnsw_past_threshold() {
        let schema = title_schema();
        let mut cfg = config();
        cfg.base.hnsw_threshold = 4;
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        s.ingest_batch(&table(
            "a",
            &schema,
            &[
                "golden heart river",
                "makita drill 18v",
                "sony bravia tv",
                "dyson v11 vacuum",
            ],
        ))
        .unwrap();
        s.ingest_batch(&table(
            "b",
            &schema,
            &["golden heart river live", "crimson ballad"],
        ))
        .unwrap();
        assert!(
            s.state.index.is_hnsw(),
            "auto backend should have upgraded to HNSW"
        );
        // Matching still works on the upgraded index.
        let hits = s.match_record(&Record::from_texts(["golden heart river remaster"]));
        assert_eq!(hits.len(), 1);
        assert_eq!(s.tuples().len(), 1);
    }

    #[test]
    fn insert_and_match_see_the_same_candidates_past_tombstones() {
        let ds = music_dataset(13);
        let mut cfg = config();
        cfg.rebuild_staleness = 1.0; // never rebuild: tombstones pile up
        cfg.prune_interval = None;
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        let (probes, ingested) = ds.tables().split_last().unwrap();
        for table in ingested {
            s.ingest_batch(table).unwrap();
        }
        assert!(s.stats().stale_nodes > 10, "the index must hold tombstones");
        assert_eq!(s.stats().rebuilds, 0);

        // The same store with its tombstones compacted away answers every
        // probe identically: a search past tombstones is a search of the
        // live nodes, exactly (this index is the brute-force one).
        s.refresh(); // prune now, so the copy's refresh only rebuilds
        let mut compacted = s.clone();
        compacted.state.config.rebuild_staleness = 0.0;
        compacted.refresh();
        assert!(!s.state.index.is_hnsw() && !compacted.state.index.is_hnsw());
        assert!(s.stats().stale_nodes > 10 && s.stats().rebuilds == 0);
        assert_eq!(compacted.stats().stale_nodes, 0);
        assert_eq!(compacted.stats().rebuilds, 1);
        assert_eq!(
            compacted.stats().index_nodes,
            s.stats().index_nodes - s.stats().stale_nodes
        );
        for record in probes.records() {
            let bits = |hits: Vec<(EntityId, f32)>| -> Vec<(EntityId, u32)> {
                hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
            };
            assert_eq!(
                bits(s.match_record(record)),
                bits(compacted.match_record(record))
            );
        }

        let metric = s.state.config.base.merge_metric;
        let (k, m) = (s.state.config.base.k, s.state.config.base.m);
        let mut merged = 0;
        for record in probes.records() {
            let hits = s.match_record(record);
            // What `match_record` may return: the `k` live clusters closest
            // to the record, by definition rather than through the index.
            let text = serialize_record_projected(
                record,
                s.selected_attributes().unwrap(),
                &s.state.config.base.serialize,
            );
            let emb = s.encoder.encode(&text);
            let qnorm = multiem_ann::Metric::squared_norm(&emb);
            let mut live: Vec<(u32, EntityId)> = s
                .state
                .clusters
                .iter()
                .filter(|(_, meta)| meta.node.is_some())
                .map(|(&root, meta)| {
                    let c = meta.centroid();
                    let cnorm = multiem_ann::Metric::squared_norm(&c);
                    let d = metric.distance_prenormed(&emb, &c, qnorm, cnorm);
                    (d.to_bits(), s.canonical_id(root))
                })
                .collect();
            // Cosine distances are non-negative, so bit order is value order.
            live.sort_unstable();
            let cut = live.get(k - 1).map_or(u32::MAX, |&(d, _)| d);
            for &(id, dist) in &hits {
                assert!(dist <= m && dist.to_bits() <= cut);
                assert!(live.contains(&(dist.to_bits(), id)), "{id:?} at {dist}");
            }

            // `insert` fuses exactly the clusters `match_record` named.
            let mut expected: Vec<EntityId> = hits
                .iter()
                .flat_map(|&(id, _)| s.cluster_members(id).unwrap())
                .collect();
            let id = s.insert(record.clone()).unwrap();
            expected.push(id);
            expected.sort_unstable();
            assert_eq!(s.cluster_members(id).unwrap(), expected);
            merged += usize::from(!hits.is_empty());
        }
        assert!(merged > 5, "only {merged} probes matched: vacuous");
    }

    #[test]
    fn snapshot_keeps_the_index_shape() {
        let schema = title_schema();
        let mut cfg = config();
        cfg.base.hnsw_threshold = 3;
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        let index_entry = |s: &EntityStore<HashedLexicalEncoder>| {
            let snapshot = s.snapshot_value();
            let index = serde::__get_field(&snapshot, "index").expect("index field");
            let (variant, payload) = index.as_single_entry_map().expect("variant entry");
            let keys: Vec<String> = payload
                .as_map()
                .expect("index fields")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            (variant.to_string(), keys)
        };
        s.ingest_batch(&table("a", &schema, &["golden heart river", "sony tv"]))
            .unwrap();
        let (variant, keys) = index_entry(&s);
        assert_eq!(variant, "Brute");
        assert_eq!(keys, ["metric", "dim", "data"]);
        s.ingest_batch(&table("b", &schema, &["makita drill 18v", "dyson v11"]))
            .unwrap();
        let (variant, keys) = index_entry(&s);
        assert_eq!(variant, "Hnsw");
        assert_eq!(
            keys,
            [
                "config",
                "metric",
                "dim",
                "data",
                "links",
                "max_layer",
                "entry_point"
            ]
        );
    }

    #[test]
    fn stats_and_bytes_account_the_store() {
        let ds = music_dataset(5);
        let mut s = store();
        s.bootstrap(&ds).unwrap();
        let stats = s.stats();
        assert_eq!(stats.records, ds.total_entities());
        assert_eq!(stats.sources, ds.num_sources());
        assert!(stats.clusters > 0 && stats.tuples > 0);
        assert!(stats.clusters >= stats.tuples);
        assert!(s.approx_bytes() > 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let ds = music_dataset(7);
        let mut s = store();
        s.bootstrap(&ds).unwrap();
        s.insert(ds.record(EntityId::new(1, 3)).unwrap().clone())
            .unwrap();

        let snapshot = s.snapshot_json().unwrap();
        let restored: EntityStore<HashedLexicalEncoder> =
            EntityStore::restore_json(&snapshot, HashedLexicalEncoder::default()).unwrap();

        let mut a = s.tuples();
        let mut b = restored.tuples();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(s.stats(), restored.stats());

        // The restored store keeps evolving identically: insert the same
        // record into both and compare.
        let probe = ds.record(EntityId::new(2, 5)).unwrap().clone();
        let mut s2 = s.clone();
        let mut r2 = restored.clone();
        let ia = s2.insert(probe.clone()).unwrap();
        let ib = r2.insert(probe).unwrap();
        assert_eq!(ia, ib);
        assert_eq!(s2.cluster_members(ia), r2.cluster_members(ib));
    }

    #[test]
    fn binary_snapshot_roundtrips_and_is_smaller_than_json() {
        let ds = music_dataset(11);
        let mut s = store();
        s.bootstrap(&ds).unwrap();

        let json = s.snapshot_bytes(SnapshotFormat::Json).unwrap();
        let binary = s.snapshot_bytes(SnapshotFormat::Binary).unwrap();
        // Written field by field, the bytes are those of the whole state's
        // value tree: no field of `StoreState` is missing from `fields()`.
        let whole = wire::value_to_bytes(&s.snapshot_value());
        assert_eq!(binary, [wire::SNAPSHOT_MAGIC.as_slice(), &whole].concat());
        assert!(
            binary.len() * 3 < json.len(),
            "binary snapshot should be well under a third of JSON ({} vs {} bytes)",
            binary.len(),
            json.len()
        );

        // Both formats restore through the same auto-detecting entry point.
        for snapshot in [&json, &binary] {
            let restored: EntityStore<HashedLexicalEncoder> =
                EntityStore::restore_bytes(snapshot, HashedLexicalEncoder::default()).unwrap();
            let mut a = s.tuples();
            let mut b = restored.tuples();
            a.sort();
            b.sort();
            assert_eq!(a, b);
            assert_eq!(s.stats(), restored.stats());
        }

        // The restored binary store keeps evolving identically.
        let probe = ds.record(EntityId::new(1, 2)).unwrap().clone();
        let mut from_binary: EntityStore<HashedLexicalEncoder> =
            EntityStore::restore_bytes(&binary, HashedLexicalEncoder::default()).unwrap();
        let mut original = s.clone();
        let ia = original.insert(probe.clone()).unwrap();
        let ib = from_binary.insert(probe).unwrap();
        assert_eq!(ia, ib);
        assert_eq!(
            original.cluster_members(ia),
            from_binary.cluster_members(ib)
        );
    }

    #[test]
    fn init_schema_enables_data_free_inserts() {
        let schema = title_schema();
        let mut s = store(); // AllAttributes strategy
        s.init_schema(schema.clone()).unwrap();
        let a = s
            .insert(Record::from_texts(["golden heart river"]))
            .unwrap();
        assert_eq!(a, EntityId::new(0, 0));
        assert_eq!(s.cluster_members(a).unwrap(), vec![a]);
        // Conflicting schema is rejected, idempotent re-init is fine.
        assert!(s.init_schema(schema).is_ok());
        let other = Schema::new(["a", "b"]).shared();
        assert!(matches!(
            s.init_schema(other),
            Err(OnlineError::SchemaMismatch(_))
        ));
        // Auto selection cannot resolve without data.
        let mut auto = EntityStore::new(
            OnlineConfig::new(MultiEmConfig::default()),
            HashedLexicalEncoder::default(),
        );
        assert!(matches!(
            auto.init_schema(title_schema()),
            Err(OnlineError::InvalidConfig(_))
        ));
    }

    fn disk_config(tag: &str) -> (OnlineConfig, std::path::PathBuf) {
        static DIR_SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "multiem-store-disk-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        let mut cfg = config().with_disk_storage(dir.display().to_string());
        // Tiny segments and cache so even small tests spill and re-read.
        if let crate::config::StorageConfig::Disk(disk) = &mut cfg.storage {
            disk.segment_records = 16;
            disk.cache_records = 8;
        }
        (cfg, dir)
    }

    #[test]
    fn disk_backend_matches_memory_backend_exactly() {
        let ds = music_dataset(17);
        let (disk_cfg, dir) = disk_config("equiv");
        let mut on_disk = EntityStore::new(disk_cfg, HashedLexicalEncoder::default());
        let mut in_mem = store();
        for table in ds.tables() {
            let a = on_disk.ingest_batch(table).unwrap();
            let b = in_mem.ingest_batch(table).unwrap();
            assert_eq!(a, b, "ingest reports must not depend on storage");
        }
        on_disk.refresh();
        in_mem.refresh();

        let mut a = on_disk.tuples();
        let mut b = in_mem.tuples();
        a.sort();
        b.sort();
        assert_eq!(a, b, "matching must not depend on the storage backend");
        assert_eq!(on_disk.stats(), in_mem.stats());

        let probe = ds.record(EntityId::new(0, 3)).unwrap().clone();
        assert_eq!(on_disk.match_record(&probe), in_mem.match_record(&probe));
        // Records read back identically through the segment files.
        for id in [EntityId::new(0, 0), EntityId::new(2, 5)] {
            assert_eq!(on_disk.record(id), in_mem.record(id));
        }

        let ds_stats = on_disk.storage_stats();
        assert_eq!(ds_stats.backend, "disk");
        assert!(ds_stats.spilled_records > 0, "test must actually spill");
        assert!(
            ds_stats.resident_records < ds_stats.records,
            "disk backend must not keep everything resident"
        );
        assert!(on_disk.approx_bytes() < in_mem.approx_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_backend_snapshot_restores_and_continues() {
        let ds = music_dataset(19);
        let (disk_cfg, dir) = disk_config("snap");
        let mut s = EntityStore::new(disk_cfg, HashedLexicalEncoder::default());
        let tables = ds.tables();
        for table in &tables[..2] {
            s.ingest_batch(table).unwrap();
        }

        // Without a flush the snapshot carries the unsealed tail inline;
        // with one it carries only the segment index. Both must restore.
        for flush in [false, true] {
            let mut current = s.clone();
            if flush {
                current.flush_storage().unwrap();
            }
            let snapshot = current.snapshot_bytes(SnapshotFormat::Binary).unwrap();
            let mut restored: EntityStore<HashedLexicalEncoder> =
                EntityStore::restore_bytes(&snapshot, HashedLexicalEncoder::default()).unwrap();
            assert_eq!(restored.stats(), current.stats());
            for table in &tables[2..] {
                current.ingest_batch(table).unwrap();
                restored.ingest_batch(table).unwrap();
            }
            current.refresh();
            restored.refresh();
            let mut a = current.tuples();
            let mut b = restored.tuples();
            a.sort();
            b.sort();
            assert_eq!(a, b, "restored disk store must continue identically");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_snapshot_after_flush_is_a_delta() {
        let ds = music_dataset(23);
        let (disk_cfg, dir) = disk_config("delta");
        let mut s = EntityStore::new(disk_cfg, HashedLexicalEncoder::default());
        for table in ds.tables() {
            s.ingest_batch(table).unwrap();
        }
        let inline = s.snapshot_bytes(SnapshotFormat::Binary).unwrap();
        s.flush_storage().unwrap();
        let delta = s.snapshot_bytes(SnapshotFormat::Binary).unwrap();
        assert!(
            delta.len() < inline.len(),
            "sealing the tail must shrink the snapshot ({} vs {} bytes)",
            delta.len(),
            inline.len()
        );
        // A memory-backend snapshot of the same data dwarfs the disk delta
        // (it carries every record and embedding).
        let mut mem = store();
        for table in ds.tables() {
            mem.ingest_batch(table).unwrap();
        }
        let full = mem.snapshot_bytes(SnapshotFormat::Binary).unwrap();
        assert!(
            delta.len() * 2 < full.len(),
            "disk snapshot should be well under half the resident one \
             ({} vs {} bytes)",
            delta.len(),
            full.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_record_detaches_and_forgets() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table(
            "a",
            &schema,
            &["golden heart river", "makita drill 18v"],
        ))
        .unwrap();
        let id = s
            .insert(Record::from_texts(["golden heart river live"]))
            .unwrap();
        assert_eq!(s.cluster_members(id).unwrap().len(), 2);

        assert!(s.delete_record(id).unwrap());
        assert!(!s.delete_record(id).unwrap(), "idempotent");
        assert!(!s.delete_record(EntityId::new(9, 9)).unwrap(), "unknown");
        assert_eq!(s.record(id), None);
        assert_eq!(s.cluster_members(id), None, "deleted ids are unknown");
        // The survivor is a singleton again with a working representative.
        let anchor = EntityId::new(0, 0);
        assert_eq!(s.cluster_members(anchor).unwrap(), vec![anchor]);
        let hits = s.match_record(&Record::from_texts(["golden heart river remaster"]));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, anchor, "match must never surface a deleted id");

        let stats = s.stats();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.tuples, 0);
        assert_eq!(s.num_records(), 2);
        assert_eq!(s.num_deleted(), 1);

        // Deleting the last member of a singleton cluster drops the cluster.
        assert!(s.delete_record(EntityId::new(0, 1)).unwrap());
        assert!(s
            .match_record(&Record::from_texts(["makita drill 18v"]))
            .is_empty());
    }

    #[test]
    fn deletion_is_identical_across_storage_backends() {
        let ds = music_dataset(29);
        let (disk_cfg, dir) = disk_config("delete-equiv");
        let mut on_disk = EntityStore::new(disk_cfg, HashedLexicalEncoder::default());
        let mut in_mem = store();
        for table in ds.tables() {
            on_disk.ingest_batch(table).unwrap();
            in_mem.ingest_batch(table).unwrap();
        }
        // Delete every third record of every source, both stores alike.
        for source in 0..ds.num_sources() as u32 {
            for row in (0..ds.tables()[source as usize].len() as u32).step_by(3) {
                let id = EntityId::new(source, row);
                assert_eq!(
                    on_disk.delete_record(id).unwrap(),
                    in_mem.delete_record(id).unwrap()
                );
            }
        }
        on_disk.refresh();
        in_mem.refresh();
        assert_eq!(on_disk.stats(), in_mem.stats());
        let mut a = on_disk.tuples();
        let mut b = in_mem.tuples();
        a.sort();
        b.sort();
        assert_eq!(a, b, "deletion must not depend on the storage backend");
        let probe = ds.record(EntityId::new(1, 1)).unwrap().clone();
        assert_eq!(on_disk.match_record(&probe), in_mem.match_record(&probe));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_after_delete_and_compaction_continues_identically() {
        let ds = music_dataset(31);
        let (disk_cfg, dir) = disk_config("delete-snap");
        let mut s = EntityStore::new(disk_cfg, HashedLexicalEncoder::default());
        for table in ds.tables() {
            s.ingest_batch(table).unwrap();
        }
        s.flush_storage().unwrap();
        let spilled_before = s.storage_stats().spilled_bytes;
        // Delete more than half of source 0 and 1 so segments hollow out.
        let mut deleted = 0;
        for source in 0..2u32 {
            for row in 0..ds.tables()[source as usize].len() as u32 {
                if row % 3 != 2 && s.delete_record(EntityId::new(source, row)).unwrap() {
                    deleted += 1;
                }
            }
        }
        assert!(deleted > 0);
        let report = s.compact_storage().unwrap();
        assert!(report.segments_compacted > 0, "compaction must trigger");
        assert!(s.storage_stats().spilled_bytes < spilled_before);
        s.gc_storage().unwrap();

        let snapshot = s.snapshot_bytes(SnapshotFormat::Binary).unwrap();
        let mut restored: EntityStore<HashedLexicalEncoder> =
            EntityStore::restore_bytes(&snapshot, HashedLexicalEncoder::default()).unwrap();
        assert_eq!(restored.stats(), s.stats());
        assert_eq!(
            restored.storage_stats().deleted_records,
            s.storage_stats().deleted_records
        );
        // Both stores keep evolving identically after restore: insert and
        // delete the same things.
        let probe = ds.record(EntityId::new(2, 3)).unwrap().clone();
        let ia = s.insert(probe.clone()).unwrap();
        let ib = restored.insert(probe).unwrap();
        assert_eq!(ia, ib);
        assert_eq!(
            s.delete_record(ia).unwrap(),
            restored.delete_record(ib).unwrap()
        );
        let mut a = s.tuples();
        let mut b = restored.tuples();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_mismatched_encoder_dim() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table("a", &schema, &["x"])).unwrap();
        let snapshot = s.snapshot_json().unwrap();
        let err = EntityStore::restore_json(&snapshot, HashedLexicalEncoder::with_dim(64));
        assert!(matches!(err, Err(OnlineError::Snapshot(_))));
    }
}
