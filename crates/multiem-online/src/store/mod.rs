//! The incremental entity store.
//!
//! # How the incremental path relates to the paper
//!
//! Batch MultiEM merges tables pairwise: a pair `(x, y)` of items is fused
//! when each is in the other's top-K under distance threshold `m` (Eq. 1).
//! The online store applies the same rule record-at-a-time against the
//! current *cluster representatives*: each the normalised centroid of its
//! members' stored embeddings, computed by [`multiem_core::representative`],
//! the function the batch merger computes a fused item's embedding with,
//! over the members in the same order (ascending sequence, which is
//! ascending entity id), so a member set has the same bits in both:
//!
//! 1. the new record's embedding queries the representative index for its
//!    top-K clusters within `m`;
//! 2. a candidate cluster accepts the record only if the record would also be
//!    in the *cluster's* top-K — i.e. fewer than K other live representatives
//!    are closer to the candidate than the new record (the mutual check);
//! 3. the record and every cluster that accepted it become one cluster
//!    (matches are transitive) under a fresh representative, and the
//!    superseded representatives are tombstoned.
//!
//! The partition lives in one place, the cluster table (`clusters.rs`):
//! member lists, the representative index and its liveness map, and the
//! record → cluster look-up derived from them. This file never touches
//! those; it asks the table to add, fuse, prune or remove, and the table
//! keeps them in step.
//!
//! The representative index is exact at every size: a
//! [`multiem_ann::BruteForceIndex`], so a look-up scans every live
//! representative and the store answers Eq. 1 exactly, not approximately.
//! Tombstones accumulate as clusters merge; once their fraction exceeds
//! `rebuild_staleness`, the index is rebuilt from the live clusters.
//!
//! An insert and a `/match` query take their candidates from one function,
//! so the two apply Eq. 1 the same way; only an insert adds the same-source
//! restriction. Every search of the representative index — those candidates
//! and the mutual check's reverse look-up — goes through one helper that
//! asks the index for the `k` nearest *live* nodes
//! ([`multiem_ann::BruteForceIndex::search_filtered`], with the table's
//! liveness map as the predicate). A tombstone therefore costs a look-up
//! nothing (the row is skipped unscored); the tombstone count decides when
//! to rebuild, not how much to fetch.
//!
//! The mutual check's reverse look-up is memoized per index version. Its
//! answer — the distances from a candidate's representative to the `k`
//! nearest other live ones — depends on the index and the liveness map
//! alone, not on the record being matched, and the helper is a pure function
//! of those, the query, `k` and the excluded node. So the table keeps each
//! candidate's row until the next write to either (every such write bumps
//! one version number), and a kept row is the row a fresh look-up would
//! return, bit for bit: no match or insert decision changes. Between writes, a match whose candidates were checked before
//! costs one search of the index instead of one plus one per candidate; a
//! write drops every kept row.
//!
//! Density-based pruning (Algorithm 4) runs over the survivors of every
//! delete and, on [`EntityStore::refresh`], over every multi-member cluster:
//! outliers are split off into singleton clusters, mirroring what the batch
//! pipeline does once at the end. Inserts never prune. Algorithm 4 is
//! idempotent — a member is kept iff another member lies within `ε`, and
//! that member is kept too — so a refresh splits only clusters that fused
//! since they were last pruned.
//!
//! Record and embedding payloads, and the map between a record's
//! [`EntityId`] and its place in the append order (the *sequence* the cluster
//! table knows it by), are owned by one [`RecordStorage`]
//! ([`OnlineConfig::storage`]): fully resident by default, or spilled to
//! append-only segment files with a bounded hot cache so resident memory
//! stops growing linearly with ingest.

mod clusters;
mod snapshot;

use crate::config::OnlineConfig;
use crate::error::OnlineError;
use crate::storage::{CompactionReport, RecordStorage, SegmentStats, StorageStats};
use crate::Result;
use clusters::ClusterTable;
use multiem_core::representation::{select_attributes, AttributeSelection, EmbeddingStore};
use multiem_core::{hierarchical_merge_store, prune_members};
use multiem_embed::EmbeddingModel;
use multiem_table::{
    serialize_record_projected, AttrId, Dataset, EntityId, MatchTuple, Record, Schema, Table,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Outcome of ingesting one batch (or one record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Source id assigned to the batch.
    pub source: u32,
    /// Number of records ingested.
    pub records: usize,
    /// Records that fused with at least one existing cluster at insert time.
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

/// The schema the store serves and the attribute projection resolved against
/// it. One value, adopted whole by [`EntityStore::adopt_schema`]: a store
/// has both or neither.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdoptedSchema {
    schema: Arc<Schema>,
    /// Attribute projection in effect.
    selected: Vec<AttrId>,
    /// Full Algorithm 1 outcome when `base.attribute_selection` ran it.
    selection: Option<AttributeSelection>,
}

/// The serializable state of an [`EntityStore`] (everything but the encoder).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreState {
    config: OnlineConfig,
    schema: Option<AdoptedSchema>,
    /// Record + embedding payloads and the id <-> append-sequence map (see
    /// [`crate::storage`]).
    records: RecordStorage,
    /// Source currently accepting single-record inserts, if any.
    stream_source: Option<u32>,
    /// The partition of the append sequences and the representative index.
    clusters: ClusterTable,
    pruned_outliers: usize,
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
        let clusters = ClusterTable::new(dim, config.base.merge_metric);
        Ok(Self {
            encoder,
            state: StoreState {
                config,
                schema: None,
                records,
                stream_source: None,
                clusters,
                pruned_outliers: 0,
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

    /// The Algorithm 1 outcome, when `base.attribute_selection` ran it.
    pub fn attribute_selection(&self) -> Option<&AttributeSelection> {
        self.state.schema.as_ref()?.selection.as_ref()
    }

    /// Number of *live* records (ingested minus deleted).
    pub fn num_records(&self) -> usize {
        self.state.records.len() - self.state.records.deleted()
    }

    /// Records removed by [`EntityStore::delete_record`] so far.
    pub fn num_deleted(&self) -> usize {
        self.state.records.deleted()
    }

    /// Number of source tables ingested so far.
    pub fn num_sources(&self) -> usize {
        self.state.records.num_sources()
    }

    /// Whether the store has never ingested a record (a store whose every
    /// record was deleted still counts as populated — its id space is
    /// allocated).
    pub fn is_empty(&self) -> bool {
        self.state.records.is_empty()
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
    /// fraction fell to or below 0.6 are rewritten into fresh files holding
    /// only live records (fully-dead files are dropped outright).
    /// Superseded files stay on disk until [`EntityStore::gc_storage`]
    /// sweeps them, so callers persisting snapshots should commit the
    /// post-compaction state before sweeping. No-op for the memory backend.
    pub fn compact_storage(&mut self) -> Result<CompactionReport> {
        self.state.records.compact()
    }

    /// Delete one record: detach it from its cluster, tombstone the stored
    /// record and embedding, and forget the id — [`EntityStore::record`]
    /// returns `None` and [`EntityStore::match_record`] can never surface it
    /// again. Returns whether a live record was deleted (`false` for unknown
    /// or already-deleted ids — deletion is idempotent).
    ///
    /// The survivors are pruned on the spot (Algorithm 4, unless `pruning` is
    /// off): records that co-referred only through the deleted one are split
    /// off, counted in [`StoreStats::pruned_outliers`]. What stays together
    /// matches under its own members' representative, with no trace of the
    /// deleted embedding.
    pub fn delete_record(&mut self, id: EntityId) -> Result<bool> {
        let Some(seq) = self.state.records.seq_of(id) else {
            return Ok(false);
        };
        let state = &mut self.state;
        let base = &state.config.base;
        state.pruned_outliers += state.clusters.remove_member(seq, &state.records, base);
        state.records.delete(id)?;
        state.clusters.maybe_rebuild(&state.config);
        Ok(true)
    }

    /// Current summary statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records: self.num_records(),
            deleted: self.num_deleted(),
            sources: self.num_sources(),
            pruned_outliers: self.state.pruned_outliers,
            ..self.state.clusters.stats()
        }
    }

    /// Approximate *resident* heap footprint of the large store components,
    /// in bytes: the representative index plus whatever the storage backend
    /// keeps in memory (everything for the memory backend; tail + hot cache
    /// + per-record index for the disk backend).
    pub fn approx_bytes(&self) -> usize {
        self.state.records.stats().resident_bytes + self.state.clusters.index_bytes()
    }

    /// Current matched tuples: every cluster with at least two members.
    pub fn tuples(&self) -> Vec<MatchTuple> {
        self.state
            .clusters
            .iter()
            .filter(|(_, c)| c.members().len() >= 2)
            .map(|(_, c)| MatchTuple::new(self.entities(c.members())))
            .collect()
    }

    /// All members of the cluster containing `id` (including `id` itself), or
    /// `None` for unknown entities.
    pub fn cluster_members(&self, id: EntityId) -> Option<Vec<EntityId>> {
        let cluster = self
            .state
            .clusters
            .cluster_of(self.state.records.seq_of(id)?)?;
        let mut members: Vec<EntityId> = self
            .entities(self.state.clusters.members(cluster))
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
        let selected = self.adopt_schema(dataset.schema(), Some(dataset))?;
        let base = self.state.config.base.clone();

        // Phase R over the whole dataset at once. The batch embedding store
        // drives the merge/prune phases below and is then dropped — the
        // per-record payloads stream into the pluggable record store, which
        // may spill them to disk as it goes.
        let embeddings = EmbeddingStore::build(dataset, &self.encoder, &selected, &base);
        for (s, table) in dataset.tables().iter().enumerate() {
            let source = self.open_source();
            for (row, record) in table.iter() {
                let embedding = embeddings.embedding(EntityId::new(s as u32, row));
                self.state.records.append(source, record, embedding)?;
            }
        }

        // Phases M and P, as `MultiEm::run` spells them: table-wise
        // hierarchical merging, then density-based pruning of every
        // multi-member item.
        let merge_out = hierarchical_merge_store(dataset, &embeddings, &base);
        let tuples = if base.pruning {
            let lists = merge_out.members.iter().map(Vec::as_slice);
            let summary = prune_members(lists, &embeddings, &base);
            self.state.pruned_outliers += summary.outliers_removed;
            summary.tuples
        } else {
            merge_out.tuples()
        };

        // Every surviving tuple is a cluster, every other record a singleton.
        let records = self.num_records();
        let mut in_tuple = vec![false; records];
        // A tuple lists its members in id order, which is append order here.
        for tuple in &tuples {
            let ids = tuple.members();
            let members: Vec<usize> = ids
                .iter()
                .filter_map(|&id| self.state.records.seq_of(id))
                .collect();
            for &seq in &members {
                in_tuple[seq] = true;
            }
            let points: Vec<_> = ids.iter().map(|&id| embeddings.embedding(id)).collect();
            self.state.clusters.register(members, &points);
        }
        for seq in (0..records).filter(|&seq| !in_tuple[seq]) {
            let point = embeddings.embedding(self.state.records.id_at(seq));
            self.state.clusters.register(vec![seq], &[point]);
        }

        let merged = in_tuple.iter().filter(|&&t| t).count();
        Ok(IngestReport {
            source: 0,
            records,
            merged,
            singletons: records - merged,
        })
    }

    /// Ingest a whole table as a new source. Every record runs the
    /// incremental mutual-top-K merge against the current clusters (records
    /// of the same batch become visible to each other as they are inserted).
    /// If a record fails to store, the rows accepted before it stand.
    pub fn ingest_batch(&mut self, table: &Table) -> Result<IngestReport> {
        let selected = if self.state.schema.is_some() {
            self.adopt_schema(table.schema(), None)?
        } else {
            // The first data a schema-less store sees is what Algorithm 1
            // scores.
            let mut first_data = Dataset::new(table.name(), table.schema().clone());
            first_data
                .add_table(table.clone())
                .map_err(|e| OnlineError::SchemaMismatch(e.to_string()))?;
            self.adopt_schema(table.schema(), Some(&first_data))?
        };

        let mut report = IngestReport {
            source: self.open_source(),
            ..IngestReport::default()
        };
        for record in table.records() {
            let embedding = self.embed(record, &selected);
            let (_, merged) = self.insert_embedded(report.source, record, &embedding)?;
            report.records += 1;
            if merged {
                report.merged += 1;
            } else {
                report.singletons += 1;
            }
        }
        Ok(report)
    }

    /// Insert one record, returning its own (stable) [`EntityId`]. Use
    /// [`EntityStore::cluster_members`] to see which entities it matched.
    pub fn insert(&mut self, record: Record) -> Result<EntityId> {
        self.insert_matched(record).map(|(id, _)| id)
    }

    /// [`EntityStore::insert`], also returning whether the record *matched*:
    /// fused with at least one existing cluster at insert time — what
    /// [`IngestReport::merged`] counts. A later [`EntityStore::refresh`], or
    /// the pruning of a delete's survivors, may split the record off again;
    /// that does not change what the merge rule decided here.
    pub fn insert_matched(&mut self, record: Record) -> Result<(EntityId, bool)> {
        let adopted = self.state.schema.as_ref().ok_or_else(|| {
            OnlineError::SchemaMismatch(
                "store has no schema yet; bootstrap or ingest a batch first".into(),
            )
        })?;
        if record.arity() != adopted.schema.len() {
            return Err(OnlineError::SchemaMismatch(format!(
                "record has {} values, schema has {} attributes",
                record.arity(),
                adopted.schema.len()
            )));
        }
        let embedding = self.embed(&record, &adopted.selected);
        let source = match self.state.stream_source {
            Some(s) => s,
            None => {
                let s = self.open_source();
                self.state.stream_source = Some(s);
                s
            }
        };
        self.insert_embedded(source, &record, &embedding)
    }

    /// Find the clusters a record would match, without mutating the store.
    /// Applies the same mutual top-K rule as [`EntityStore::insert`] (except
    /// the same-source restriction, since an unanchored record has no source
    /// yet). Returns up to `k` pairs of (canonical entity id of the cluster,
    /// distance under the merge metric), closest first. The canonical id of a
    /// cluster is its smallest member.
    pub fn match_record(&self, record: &Record) -> Vec<(EntityId, f32)> {
        let Some(adopted) = &self.state.schema else {
            return Vec::new();
        };
        let emb = self.embed(record, &adopted.selected);
        // Queries with no recognised tokens match nothing.
        if emb.iter().all(|&x| x == 0.0) {
            return Vec::new();
        }
        self.candidates(&emb, None)
            .into_iter()
            .map(|(cluster, dist)| (self.canonical_id(cluster), dist))
            .collect()
    }

    /// Run density-based pruning (Algorithm 4, unless `pruning` is off) over
    /// every multi-member cluster now, then rebuild the representative index
    /// if it got too stale. Inserts never prune, so this is where a cluster
    /// the merge rule grew past `ε` splits; a cluster pruned before and
    /// unchanged since loses nothing.
    pub fn refresh(&mut self) {
        let state = &mut self.state;
        if state.config.base.pruning {
            let tuples: Vec<usize> = state
                .clusters
                .iter()
                .filter(|(_, c)| c.members().len() >= 2)
                .map(|(id, _)| id)
                .collect();
            for id in tuples {
                let base = &state.config.base;
                state.pruned_outliers += state.clusters.prune(id, None, &state.records, base);
            }
        }
        state.clusters.maybe_rebuild(&state.config);
    }

    /// Prepare an empty store to accept single-record
    /// [`EntityStore::insert`]s without a bootstrap dataset or a first batch:
    /// fixes the schema and resolves the attribute projection from it.
    /// Serving-layer shards use this so every shard agrees on the projection
    /// before any data arrives.
    ///
    /// Fails when `schema` conflicts with one already in place, or when
    /// `base.attribute_selection` is set — Algorithm 1 needs records to
    /// score, so data-free initialisation requires
    /// [`OnlineConfig::with_all_attributes`]. A failed call leaves the store
    /// as it was.
    pub fn init_schema(&mut self, schema: Arc<Schema>) -> Result<()> {
        self.adopt_schema(&schema, None).map(|_| ())
    }

    // --- internals ----------------------------------------------------------

    /// The one place the store takes on a schema: check `schema` against the
    /// one in place, or — on a store that has none — resolve the projection
    /// against it (scoring `data` with Algorithm 1 when
    /// `base.attribute_selection` is set) and commit schema and projection
    /// together. Returns the projection in effect; on `Err` nothing was
    /// committed.
    fn adopt_schema(
        &mut self,
        schema: &Arc<Schema>,
        data: Option<&Dataset>,
    ) -> Result<Vec<AttrId>> {
        if let Some(adopted) = &self.state.schema {
            let existing = &adopted.schema;
            if existing.same_shape(schema) {
                return Ok(adopted.selected.clone());
            }
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
            return Err(OnlineError::SchemaMismatch(detail));
        }
        let base = &self.state.config.base;
        let (selected, selection) = match (base.attribute_selection, data) {
            (false, _) => ((0..schema.len()).collect(), None),
            (true, Some(dataset)) => {
                let sel = select_attributes(dataset, &self.encoder, base)?;
                (sel.selected.clone(), Some(sel))
            }
            (true, None) => {
                return Err(OnlineError::InvalidConfig(
                    "attribute selection cannot resolve a projection without data; \
                     bootstrap or ingest a batch first, or embed all attributes"
                        .into(),
                ))
            }
        };
        self.state.schema = Some(AdoptedSchema {
            schema: schema.clone(),
            selected: selected.clone(),
            selection,
        });
        Ok(selected)
    }

    /// Phase R for one record: project, serialize, encode.
    fn embed(&self, record: &Record, selected: &[AttrId]) -> Vec<f32> {
        let text = serialize_record_projected(record, selected, &self.state.config.base.serialize);
        self.encoder.encode(&text)
    }

    fn entities<'a>(&'a self, members: &'a [usize]) -> impl Iterator<Item = EntityId> + 'a {
        members.iter().map(|&seq| self.state.records.id_at(seq))
    }

    fn canonical_id(&self, cluster: usize) -> EntityId {
        self.entities(self.state.clusters.members(cluster))
            .min()
            .expect("clusters are never empty")
    }

    /// Open a source. Only the newest source takes rows: whichever source
    /// single inserts were streaming into is closed to them from here on.
    fn open_source(&mut self) -> u32 {
        self.state.stream_source = None;
        self.state.records.open_source()
    }

    /// Whether a record from `source` may merge directly into the cluster:
    /// the batch pipeline never compares two items of the same source table
    /// directly, so by default a candidate whose members all share the
    /// record's source is skipped.
    fn source_compatible(&self, cluster: usize, source: u32) -> bool {
        self.state.config.match_within_source
            || self
                .entities(self.state.clusters.members(cluster))
                .any(|id| id.source != source)
    }

    /// The clusters that `emb` matches under Eq. 1, as `(cluster,
    /// distance)`, closest first: of its `k` nearest live representatives,
    /// those within `m`, then, for a record from `source`, those it may
    /// merge into directly ([`EntityStore::source_compatible`]), then those
    /// whose own top-K it would be in ([`clusters::ClusterTable::mutual`]).
    /// The one candidate rule of inserts and matches.
    fn candidates(&self, emb: &[f32], source: Option<u32>) -> Vec<(usize, f32)> {
        let (k, m) = (self.state.config.base.k, self.state.config.base.m);
        let clusters = &self.state.clusters;
        clusters
            .search_live(emb, k, None)
            .into_iter()
            .filter(|&(cluster, dist)| {
                dist <= m
                    && source.is_none_or(|source| self.source_compatible(cluster, source))
                    && clusters.mutual(cluster, dist, k)
            })
            .collect()
    }

    /// The shared incremental insert path. Returns the id storage gave the
    /// record and whether it fused with at least one existing cluster; on
    /// `Err` storage holds nothing of it and the store is unchanged.
    fn insert_embedded(
        &mut self,
        source: u32,
        record: &Record,
        emb: &[f32],
    ) -> Result<(EntityId, bool)> {
        // A record's sequence is its place in storage's append order.
        let seq = self.state.records.len();
        let id = self.state.records.append(source, record, emb)?;

        // Zero embeddings (empty serialized text) never match anything; the
        // table keeps them as unindexed singletons.
        if emb.iter().all(|&x| x == 0.0) {
            self.state.clusters.fuse(seq, emb, &[], &self.state.records);
            return Ok((id, false));
        }

        let matches: Vec<usize> = self
            .candidates(emb, Some(source))
            .into_iter()
            .map(|(cluster, _)| cluster)
            .collect();
        self.state
            .clusters
            .fuse(seq, emb, &matches, &self.state.records);
        self.state.clusters.maybe_rebuild(&self.state.config);
        Ok((id, !matches.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::tests::at;
    use crate::wire;
    use multiem_ann::Metric;
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
    fn refresh_splits_the_outlier_and_a_second_refresh_changes_nothing() {
        // A loose merge threshold lets `c` in with `a` and `b`; ε = 1 (a
        // chord of 60 degrees) takes it out again, 80 or more degrees from
        // both.
        let mut cfg = config();
        cfg.base.m = 1.1;
        cfg.match_within_source = true;
        let mut s = EntityStore::new(cfg, Angle);
        s.init_schema(title_schema()).unwrap();
        let [a, b, c] = ["0", "10", "90"].map(|t| s.insert(Record::from_texts([t])).unwrap());
        assert_eq!(
            s.cluster_members(a).unwrap(),
            [a, b, c],
            "inserts never prune"
        );
        assert_eq!(s.stats().pruned_outliers, 0);

        s.refresh();
        check_invariants(&s);
        assert_eq!(s.cluster_members(a).unwrap(), [a, b]);
        assert_eq!(s.cluster_members(c).unwrap(), [c]);
        assert_eq!(s.stats().pruned_outliers, 1);
        assert_eq!(s.num_records(), 3, "an outlier stays a known record");

        // Algorithm 4 over what it kept keeps it all.
        let pruned = s.snapshot_bytes().unwrap();
        s.refresh();
        check_invariants(&s);
        assert_eq!(s.stats().pruned_outliers, 1);
        assert_eq!(s.snapshot_bytes().unwrap(), pruned);
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
    fn insert_and_match_see_the_same_candidates_past_tombstones() {
        let ds = music_dataset(13);
        let mut cfg = config();
        cfg.rebuild_staleness = 1.0; // never rebuild: tombstones pile up
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        let (probes, ingested) = ds.tables().split_last().unwrap();
        for table in ingested {
            s.ingest_batch(table).unwrap();
        }
        assert!(s.stats().stale_nodes > 10, "the index must hold tombstones");
        assert_eq!(s.stats().rebuilds, 0);

        // The same store with its tombstones compacted away answers every
        // probe identically: a search past tombstones is a search of the
        // live nodes, exactly.
        s.refresh(); // prune now, so the copy's refresh only rebuilds
        let mut compacted = s.clone();
        compacted.state.config.rebuild_staleness = 0.0;
        compacted.refresh();
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
                &s.state.schema.as_ref().unwrap().selected,
                &s.state.config.base.serialize,
            );
            let emb = s.encoder.encode(&text);
            let qnorm = Metric::squared_norm(&emb);
            let mut live: Vec<(u32, EntityId)> = s
                .state
                .clusters
                .iter()
                .filter(|(_, cluster)| cluster.node().is_some())
                .map(|(id, cluster)| {
                    let c = clusters::stored_representative(&s.state.records, cluster.members());
                    let cnorm = Metric::squared_norm(&c);
                    let d = metric.distance_prenormed(&emb, &c, qnorm, cnorm);
                    (d.to_bits(), s.canonical_id(id))
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
        let mut s = store();
        s.ingest_batch(&table("a", &schema, &["golden heart river", "sony tv"]))
            .unwrap();
        let snapshot = s.state.to_value();
        // Streamed field by field, the bytes are still this tree's.
        let whole = wire::value_to_bytes(&snapshot);
        let bytes = s.snapshot_bytes().expect("snapshot");
        assert_eq!(bytes, [wire::SNAPSHOT_MAGIC.as_slice(), &whole].concat());
        let clusters = serde::__get_field(&snapshot, "clusters").expect("cluster table");
        let index = serde::__get_field(clusters, "index").expect("index field");
        let keys: Vec<&str> = index
            .as_map()
            .expect("index fields")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["metric", "dim", "data"]);
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

        let snapshot = s.snapshot_bytes().unwrap();
        // Written field by field, the bytes are those of the whole state's
        // value tree: no field of `StoreState` is missing from `fields()`.
        let whole = wire::value_to_bytes(&s.state.to_value());
        assert_eq!(snapshot, [wire::SNAPSHOT_MAGIC.as_slice(), &whole].concat());
        let restored: EntityStore<HashedLexicalEncoder> =
            EntityStore::restore_bytes(&snapshot, HashedLexicalEncoder::default()).unwrap();

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
    fn init_schema_enables_data_free_inserts() {
        let schema = title_schema();
        let mut s = store(); // embeds every attribute
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
        // What spilling buys, byte-accounted and so exactly repeatable: with
        // segments sealed and only the hot cache resident, the disk backend
        // holds at most half the record bytes the memory backend does.
        let mem_stats = in_mem.storage_stats();
        assert!(
            ds_stats.resident_bytes * 2 <= mem_stats.resident_bytes,
            "disk resident {} vs mem resident {}",
            ds_stats.resident_bytes,
            mem_stats.resident_bytes
        );
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
            let snapshot = current.snapshot_bytes().unwrap();
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
        let inline = s.snapshot_bytes().unwrap();
        s.flush_storage().unwrap();
        let delta = s.snapshot_bytes().unwrap();
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
        let full = mem.snapshot_bytes().unwrap();
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

    /// Reads a record's text as an angle in degrees: the unit vector at that
    /// angle in the plane.
    #[derive(Debug, Clone)]
    struct Angle;

    impl EmbeddingModel for Angle {
        fn dim(&self) -> usize {
            2
        }

        fn encode(&self, text: &str) -> Vec<f32> {
            let r = text.parse::<f32>().expect("degrees").to_radians();
            vec![r.cos(), r.sin()]
        }
    }

    #[test]
    fn a_delete_splits_off_records_joined_only_through_the_deleted_one() {
        // `a` and `c`, 80 degrees apart, are farther apart than ε = 1 (a
        // chord of 60 degrees); `b` is within ε of both, and each record is
        // within m of the cluster it joins.
        for pruning in [true, false] {
            let mut cfg = config();
            cfg.base.m = 0.6;
            cfg.base.pruning = pruning;
            cfg.match_within_source = true;
            let mut s = EntityStore::new(cfg, Angle);
            s.init_schema(title_schema()).unwrap();
            let [a, b, c] = ["0", "40", "80"].map(|t| s.insert(Record::from_texts([t])).unwrap());
            assert_eq!(s.cluster_members(a).unwrap(), [a, b, c]);
            s.refresh();
            assert_eq!(s.cluster_members(a).unwrap(), [a, b, c], "b joins them");

            // No refresh: the delete itself re-runs Algorithm 4.
            assert!(s.delete_record(b).unwrap());
            check_invariants(&s);
            if pruning {
                assert_eq!(s.cluster_members(a).unwrap(), [a]);
                assert_eq!(s.cluster_members(c).unwrap(), [c]);
                assert_eq!(s.stats().pruned_outliers, 2);
            } else {
                assert_eq!(s.cluster_members(a).unwrap(), [a, c]);
                assert_eq!(s.stats().pruned_outliers, 0);
            }
        }
    }

    #[test]
    fn a_delete_leaves_no_trace_in_the_representative() {
        let titles = [
            "golden heart river",
            "golden heart river live",
            "golden heart river remastered",
        ];
        let probes = [
            "golden heart river",
            "golden heart river live remastered",
            "heart river deluxe",
            "makita drill 18v",
        ];
        for disk in [false, true] {
            let mut dirs = Vec::new();
            let mut store = |tag: &str| {
                let mut cfg = if disk {
                    let (cfg, dir) = disk_config(tag);
                    dirs.push(dir);
                    cfg
                } else {
                    config()
                };
                cfg.match_within_source = true;
                let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
                s.init_schema(title_schema()).unwrap();
                s
            };
            // One store inserts all three, which fuse, then deletes the
            // middle one; the other only ever saw the outer two.
            let (mut deleted, mut never) = (store("trace-a"), store("trace-b"));
            let ids = titles.map(|t| deleted.insert(Record::from_texts([t])).unwrap());
            assert_eq!(deleted.cluster_members(ids[0]).unwrap(), ids);
            assert!(deleted.delete_record(ids[1]).unwrap());
            for title in [titles[0], titles[2]] {
                never.insert(Record::from_texts([title])).unwrap();
            }
            for s in [&deleted, &never] {
                let tuples = s.tuples();
                assert!(tuples.len() == 1 && tuples[0].len() == 2, "{tuples:?}");
            }

            let mut hits = 0;
            for probe in probes {
                let probe = Record::from_texts([probe]);
                let bits = |s: &EntityStore<HashedLexicalEncoder>| -> Vec<(EntityId, u32)> {
                    let hits = s.match_record(&probe);
                    hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
                };
                assert_eq!(bits(&deleted), bits(&never), "{probe:?}");
                hits += bits(&never).len();
            }
            assert!(hits >= 2, "vacuous: {hits} hits");
            for dir in dirs {
                std::fs::remove_dir_all(dir).ok();
            }
        }
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

        let snapshot = s.snapshot_bytes().unwrap();
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
        let snapshot = s.snapshot_bytes().unwrap();
        let err = EntityStore::restore_bytes(&snapshot, HashedLexicalEncoder::with_dim(64));
        assert!(matches!(err, Err(OnlineError::Snapshot(_))));
    }

    #[test]
    fn restore_refuses_a_config_try_new_would_refuse() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table("a", &schema, &["golden heart river", "sony tv"]))
            .unwrap();
        let good = s.snapshot_bytes().unwrap();
        let restore_with = |path: &[&str], field: serde::Value| {
            let mut value = wire::value_from_bytes(&good[4..]).unwrap();
            *at(&mut value, path) = field;
            let bytes = [
                wire::SNAPSHOT_MAGIC.as_slice(),
                &wire::value_to_bytes(&value),
            ]
            .concat();
            EntityStore::restore_bytes(&bytes, HashedLexicalEncoder::default())
        };
        assert!(restore_with(&["config", "base", "k"], serde::Value::Int(1)).is_ok());
        for (path, field, names) in [
            (&["config", "base", "k"][..], serde::Value::Int(0), "k must"),
            (
                &["config", "base", "m"][..],
                serde::Value::Float(f64::NAN),
                "m must",
            ),
            (
                &["config", "rebuild_staleness"][..],
                serde::Value::Float(7.0),
                "rebuild_staleness must",
            ),
        ] {
            match restore_with(path, field).map(|s| s.stats()) {
                Err(OnlineError::InvalidConfig(msg)) => assert!(msg.contains(names), "{msg}"),
                other => panic!("{path:?}: expected an invalid config, got {other:?}"),
            }
        }
    }

    // --- one owner per fact: faults that used to leave two owners apart -----

    /// Distinct titles: no two of them match, so each is its own cluster.
    fn distinct_titles(n: usize) -> Vec<Record> {
        const WORDS: [&str; 12] = [
            "makita", "bravia", "dyson", "golden", "crimson", "jigsaw", "kettle", "saddle",
            "violin", "tractor", "lantern", "harbour",
        ];
        (0..n)
            .map(|i| {
                Record::from_texts([format!(
                    "{} {} {}",
                    WORDS[i % 12],
                    WORDS[(i / 12 + 5) % 12],
                    1000 + i
                )])
            })
            .collect()
    }

    /// Every id reads back its own record and is its own cluster, and
    /// deleting one of them removes only it.
    fn assert_each_id_is_its_own(
        s: &mut EntityStore<HashedLexicalEncoder>,
        stored: &[(EntityId, Record)],
    ) {
        for (id, record) in stored {
            assert_eq!(s.record(*id).as_ref(), Some(record), "{id:?}");
            assert_eq!(s.cluster_members(*id), Some(vec![*id]), "{id:?}");
        }
        let (victim, rest) = stored.split_last().unwrap();
        let before = s.stats();
        assert!(s.delete_record(victim.0).unwrap());
        assert_eq!(s.stats().records, before.records - 1);
        assert_eq!(s.record(victim.0), None);
        for (id, record) in rest {
            assert_eq!(s.record(*id).as_ref(), Some(record), "{id:?}");
            assert_eq!(s.cluster_members(*id), Some(vec![*id]), "{id:?}");
        }
    }

    /// A disk-backed store that seals every 4 records, plus its directory.
    fn sealing_store(tag: &str) -> (EntityStore<HashedLexicalEncoder>, std::path::PathBuf) {
        let (mut cfg, dir) = disk_config(tag);
        if let crate::config::StorageConfig::Disk(disk) = &mut cfg.storage {
            disk.segment_records = 4;
        }
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        s.init_schema(title_schema()).unwrap();
        (s, dir)
    }

    #[test]
    fn a_failed_append_stores_nothing_and_later_ids_stay_their_own() {
        let (mut on_disk, dir) = sealing_store("failed-seal");
        let mut in_mem = store();
        in_mem.init_schema(title_schema()).unwrap();
        let records = distinct_titles(9);
        let (mut disk_ids, mut mem_ids) = (Vec::new(), Vec::new());
        for record in &records[..3] {
            disk_ids.push((on_disk.insert(record.clone()).unwrap(), record.clone()));
            mem_ids.push((in_mem.insert(record.clone()).unwrap(), record.clone()));
        }

        // The fourth record fills the tail; with the segment directory gone
        // the seal fails, and so must the insert — leaving nothing behind.
        std::fs::remove_dir_all(&dir).unwrap();
        let lost = on_disk.insert(records[3].clone());
        assert!(matches!(lost, Err(OnlineError::Storage(_))), "{lost:?}");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(on_disk.stats().records, 3);
        assert_eq!(on_disk.storage_stats().records, 3);
        assert_eq!(on_disk.stats(), in_mem.stats());

        // The memory backend runs the same sequence without the fault.
        for record in &records[4..] {
            disk_ids.push((on_disk.insert(record.clone()).unwrap(), record.clone()));
            mem_ids.push((in_mem.insert(record.clone()).unwrap(), record.clone()));
        }
        assert_eq!(disk_ids, mem_ids);
        assert!(on_disk.storage_stats().segments >= 2, "later seals succeed");
        assert_eq!(on_disk.stats(), in_mem.stats());
        assert_each_id_is_its_own(&mut on_disk, &disk_ids);
        assert_each_id_is_its_own(&mut in_mem, &mem_ids);
        assert_eq!(on_disk.stats(), in_mem.stats());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_that_fails_part_way_closes_the_older_stream_source() {
        let (mut on_disk, dir) = sealing_store("failed-batch");
        let mut in_mem = store();
        in_mem.init_schema(title_schema()).unwrap();
        let schema = title_schema();
        let records = distinct_titles(8);
        let batch =
            |rows: &[Record]| Table::with_records("batch", schema.clone(), rows.to_vec()).unwrap();

        let first = on_disk.insert(records[0].clone()).unwrap();
        assert_eq!(first, in_mem.insert(records[0].clone()).unwrap());
        // One record in the tail, so the batch's third row fills it and the
        // seal fails: two rows of the batch are in, the rest are not.
        std::fs::remove_dir_all(&dir).unwrap();
        let failed = on_disk.ingest_batch(&batch(&records[1..6]));
        assert!(matches!(failed, Err(OnlineError::Storage(_))), "{failed:?}");
        std::fs::create_dir_all(&dir).unwrap();
        in_mem.ingest_batch(&batch(&records[1..3])).unwrap();
        assert_eq!(on_disk.stats().records, 3);
        assert_eq!(on_disk.storage_stats().records, 3);
        assert_eq!(on_disk.stats(), in_mem.stats());

        // The next single insert must not land in the stream source the
        // batch superseded: its dense slot there belongs to a batch row.
        let mut stored = vec![
            (first, records[0].clone()),
            (EntityId::new(1, 0), records[1].clone()),
            (EntityId::new(1, 1), records[2].clone()),
        ];
        for record in &records[6..] {
            let id = on_disk.insert(record.clone()).unwrap();
            assert_eq!(id, in_mem.insert(record.clone()).unwrap());
            assert_eq!(id.source, 2, "a fresh stream source");
            stored.push((id, record.clone()));
        }
        assert_eq!(on_disk.stats(), in_mem.stats());
        assert_each_id_is_its_own(&mut on_disk, &stored);
        assert_each_id_is_its_own(&mut in_mem, &stored);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_selection_that_fails_to_resolve_leaves_the_store_schema_less() {
        // Algorithm 1 has nothing to score without data (`init_schema`) or
        // in an empty first batch.
        let two = Schema::new(["name", "city"]).shared();
        let rows = vec![Record::from_texts(["golden heart river", "oslo"])];
        let empty = Table::with_records("a", two.clone(), Vec::new()).unwrap();
        let cfg = OnlineConfig::new(MultiEmConfig {
            m: 0.35,
            ..MultiEmConfig::default()
        });
        assert!(cfg.base.attribute_selection);
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        for _ in 0..2 {
            assert!(matches!(
                s.ingest_batch(&empty),
                Err(OnlineError::Pipeline(
                    multiem_core::MultiEmError::EmptyDataset
                ))
            ));
            assert!(matches!(
                s.init_schema(two.clone()),
                Err(OnlineError::InvalidConfig(_))
            ));
            // Nothing was committed: no projection, no source, and an insert
            // is told there is no schema instead of finding half of one.
            assert!(s.state.schema.is_none());
            assert!(s.is_empty() && s.num_sources() == 0);
            assert!(matches!(
                s.insert(rows[0].clone()),
                Err(OnlineError::SchemaMismatch(_))
            ));
            assert!(s.match_record(&rows[0]).is_empty());
        }
        // The store is still usable: a first batch with records is scored
        // and its selection adopted.
        let table = Table::with_records("a", two, rows.clone()).unwrap();
        assert_eq!(s.ingest_batch(&table).unwrap().records, 1);
        let scored = s.attribute_selection().expect("Algorithm 1 ran");
        assert_eq!(s.state.schema.as_ref().unwrap().selected, scored.selected);
        assert_eq!(s.match_record(&rows[0]).len(), 1);
    }

    #[test]
    fn bootstrap_refuses_a_dataset_of_another_schema() {
        let ds = music_dataset(37);
        assert!(!ds.schema().same_shape(&title_schema()));
        let mut s = store();
        s.init_schema(title_schema()).unwrap();
        assert!(matches!(
            s.bootstrap(&ds),
            Err(OnlineError::SchemaMismatch(_))
        ));
        // As `ingest_batch` answers, and the store keeps the schema it had.
        assert!(matches!(
            s.ingest_batch(&ds.tables()[0]),
            Err(OnlineError::SchemaMismatch(_))
        ));
        assert!(s.is_empty() && s.num_sources() == 0);
        let id = s
            .insert(Record::from_texts(["golden heart river"]))
            .unwrap();
        assert_eq!(s.cluster_members(id), Some(vec![id]));
    }

    // --- snapshots that are not this build's ---------------------------------

    #[test]
    fn foreign_and_truncated_binary_snapshots_are_errors_not_panics() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table("a", &schema, &["golden heart river", "sony tv"]))
            .unwrap();
        s.ingest_batch(&table("b", &schema, &["golden heart river live"]))
            .unwrap();
        let good = s.snapshot_bytes().unwrap();
        assert_eq!(&good[..4], wire::SNAPSHOT_MAGIC);
        let restore = |bytes: &[u8]| {
            EntityStore::restore_bytes(bytes, HashedLexicalEncoder::default()).map(|s| s.stats())
        };
        assert_eq!(restore(&good).unwrap(), s.stats());

        // What an older build wrote: its magic, then a map this build's
        // decoder would stumble over field by field. It is refused by name,
        // and so are the previous layouts' magics in front of a payload this
        // build could decode.
        let mut older = b"MEB1".to_vec();
        wire::write_value(
            &mut older,
            &serde::Value::Map(vec![("uf".into(), serde::Value::Null)]),
        );
        let meb3 = [b"MEB3".as_slice(), &good[4..]].concat();
        let meb4 = [b"MEB4".as_slice(), &good[4..]].concat();
        let meb5 = [b"MEB5".as_slice(), &good[4..]].concat();
        let meb6 = [b"MEB6".as_slice(), &good[4..]].concat();
        let meb7 = [b"MEB7".as_slice(), &good[4..]].concat();
        let meb8 = [b"MEB8".as_slice(), &good[4..]].concat();
        for foreign in [
            &older[..],
            &b"MEB2"[..],
            &meb3[..],
            &meb4[..],
            &meb5[..],
            &meb6[..],
            &meb7[..],
            &meb8[..],
            &b"MEBX whatever"[..],
            &b"MEB"[..],
        ] {
            match restore(foreign) {
                Err(OnlineError::Snapshot(msg)) => {
                    assert!(msg.contains("MEB9"), "{msg}");
                    assert!(
                        foreign.len() < 4 || msg.contains(&format!("MEB{}", foreign[3] as char))
                    );
                }
                other => panic!("expected a snapshot error, got {other:?}"),
            }
        }

        // Every truncation of a good snapshot, and a flipped byte anywhere
        // in its head, is an error or — for a flip that lands in a payload —
        // a store; never a panic.
        for cut in 0..good.len() {
            assert!(restore(&good[..cut]).is_err(), "cut at {cut}");
        }
        for at in 0..good.len().min(512) {
            let mut bad = good.clone();
            bad[at] ^= 0x55;
            let _ = restore(&bad);
        }
    }

    #[test]
    fn snapshot_layout_is_pinned_to_its_magic() {
        // A field added, dropped, renamed or moved below changes what
        // `restore_bytes` reads: bump the version byte of `SNAPSHOT_MAGIC`
        // in the same change as these lists.
        assert_eq!(wire::SNAPSHOT_MAGIC, b"MEB9");
        let (cfg, dir) = disk_config("layout");
        let mut s = EntityStore::new(cfg, HashedLexicalEncoder::default());
        s.init_schema(title_schema()).unwrap();
        s.insert(Record::from_texts(["golden heart river"]))
            .unwrap();
        let bytes = s.snapshot_bytes().unwrap();
        // The layouts before this one are refused by name: `MEB8` carried
        // the HNSW size threshold in `config.base` and an index backend
        // variant; `MEB7` the source
        // names in `records`; `MEB6` `parallel` in `config.base`; `MEB5` a
        // selection strategy in `config` and `index_backend`, `min_pts` and
        // `prune_metric` in `config.base`; `MEB4` a prune counter and a
        // dirty bit per cluster.
        for old in ["MEB8", "MEB7", "MEB6", "MEB5", "MEB4"] {
            let stale = [old.as_bytes(), &bytes[4..]].concat();
            match EntityStore::restore_bytes(&stale, HashedLexicalEncoder::default()) {
                Err(OnlineError::Snapshot(msg)) => assert!(msg.contains(&format!("`{old}`"))),
                other => panic!("expected a snapshot error, got {other:?}"),
            }
        }
        let mut value = wire::value_from_bytes(&bytes[4..]).unwrap();
        let mut keys = |path: &[&str]| -> String {
            let fields = at(&mut value, path).as_map().expect("a struct");
            let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
            keys.join(" ")
        };
        assert_eq!(
            keys(&[]),
            "config schema records stream_source clusters pruned_outliers"
        );
        assert_eq!(
            keys(&["config"]),
            "base rebuild_staleness match_within_source storage"
        );
        assert_eq!(
            keys(&["config", "base"]),
            "attribute_selection sample_ratio gamma serialize k m merge_metric \
             hnsw merge_seed pruning epsilon"
        );
        assert_eq!(
            keys(&["records"]),
            "dim seq_of entity_of_seq sealed tail tail_dead deleted spill"
        );
        assert_eq!(
            keys(&["records", "spill"]),
            "config segments next_seg compactions reclaimed gc_deleted"
        );
        assert_eq!(
            keys(&["records", "spill", "config"]),
            "dir segment_records cache_records"
        );
        assert_eq!(keys(&["clusters"]), "clusters index rebuilds");
        // The index is the exact one, with no backend variant around it.
        assert_eq!(keys(&["clusters", "index"]), "metric dim data");
        // A cluster is its members: it carries no embedding of its own.
        assert_eq!(keys(&["clusters", "clusters", "0", "1"]), "members node");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_whose_ids_disagree_with_storage_is_refused() {
        let schema = title_schema();
        let mut s = store();
        s.ingest_batch(&table("a", &schema, &["golden heart river", "sony tv"]))
            .unwrap();
        s.ingest_batch(&table("b", &schema, &["golden heart river live"]))
            .unwrap();
        assert!(s.delete_record(EntityId::new(0, 1)).unwrap());
        let fused = vec![EntityId::new(0, 0), EntityId::new(1, 0)];
        assert_eq!(s.tuples(), [MatchTuple::new(fused.clone())]);

        let good = s.snapshot_bytes().unwrap();
        let restore_edited = |edit: &dyn Fn(&mut serde::Value)| {
            let mut value = wire::value_from_bytes(&good[4..]).unwrap();
            edit(&mut value);
            let bytes = [
                wire::SNAPSHOT_MAGIC.as_slice(),
                &wire::value_to_bytes(&value),
            ]
            .concat();
            EntityStore::restore_bytes(&bytes, HashedLexicalEncoder::default()).map(|mut s| {
                s.refresh();
                s.tuples()
            })
        };
        assert_eq!(restore_edited(&|_| {}).unwrap(), [MatchTuple::new(fused)]);

        // Sequence 2 is the fused record `1-0`. Re-pointed at a row storage
        // never stored, it must not come back as a phantom `1-7` for the
        // next pruning pass to trip over.
        let refused = |why: &str, edit: &dyn Fn(&mut serde::Value)| match restore_edited(edit) {
            Err(e) => assert!(e.to_string().contains(why), "{e}, not `{why}`"),
            Ok(tuples) => panic!("restored {tuples:?}, not refused for `{why}`"),
        };
        refused("does not map back", &|v| {
            *at(v, &["records", "entity_of_seq", "2", "row"]) = serde::Value::Int(7);
        });
        refused("does not map back", &|v| {
            *at(v, &["records", "seq_of", "1", "0"]) = serde::Value::Int(0);
        });
        let members = ["clusters", "clusters", "0", "1", "members"];
        let push = |v: &mut serde::Value, seq: i64| match at(v, &members) {
            serde::Value::Seq(members) => members.push(serde::Value::Int(seq)),
            other => panic!("members are {other:?}"),
        };
        refused("unknown record 3", &|v| push(v, 3));
        refused("deleted record 1", &|v| push(v, 1));
    }

    // --- the table's invariants under a seeded op sequence -------------------

    /// What every operation must leave true, whatever came before it.
    fn check_invariants<E: EmbeddingModel>(s: &EntityStore<E>) {
        let records = s.state.records.len();
        let table = &s.state.clusters;
        // Also: a cluster is indexed exactly when the representative of its
        // members' stored embeddings is non-zero, under that representative
        // bit for bit.
        table.check(&s.state.records);

        // A record is in a cluster exactly while storage holds it.
        let mut live = 0;
        for seq in 0..records {
            let id = s.state.records.id_at(seq);
            let stored = s.state.records.embedding(id).is_some();
            assert_eq!(s.state.records.seq_of(id), stored.then_some(seq), "{id:?}");
            assert_eq!(table.cluster_of(seq).is_some(), stored, "{id:?}");
            assert_eq!(s.cluster_members(id).is_some(), stored, "{id:?}");
            live += usize::from(stored);
        }

        let (mut clustered, mut indexed, mut tuples) = (0, 0, 0);
        for (id, cluster) in table.iter() {
            assert_eq!(table.members(id), cluster.members());
            clustered += cluster.members().len();
            indexed += usize::from(cluster.node().is_some());
            tuples += usize::from(cluster.members().len() >= 2);
        }

        let stats = s.stats();
        assert_eq!(clustered, live);
        assert_eq!(stats.records, live);
        assert_eq!(stats.records + stats.deleted, records);
        assert_eq!(stats.clusters, table.iter().count());
        assert_eq!(stats.tuples, tuples);
        assert_eq!(s.tuples().len(), tuples);
        assert_eq!(stats.index_nodes - stats.stale_nodes, indexed);
        assert_eq!(s.storage_stats().records, records);
        assert_eq!(s.storage_stats().deleted_records, stats.deleted);
    }

    /// The store answers Eq. 1 exactly: its candidates for `probe` are,
    /// ids and distance bits, what the rule gives over every live
    /// representative with no index in between. Of the `k` nearest, by
    /// distance and then index node, those within `m` whose own `k` nearest
    /// other live representatives it would be among. Returns how many
    /// candidates there were.
    fn check_candidates_are_eq_1<E: EmbeddingModel>(s: &EntityStore<E>, probe: &Record) -> usize {
        let Some(adopted) = &s.state.schema else {
            return 0;
        };
        let base = &s.state.config.base;
        let (k, m, metric) = (base.k, base.m, base.merge_metric);
        let distance = |from: &[f32], to: &[f32]| {
            let (a, b) = (Metric::squared_norm(from), Metric::squared_norm(to));
            metric.distance_prenormed(from, to, a, b)
        };
        // (node, cluster, representative) of every live representative.
        let mut live: Vec<(usize, usize, Vec<f32>)> = s
            .state
            .clusters
            .iter()
            .filter_map(|(id, cluster)| {
                let row = clusters::stored_representative(&s.state.records, cluster.members());
                cluster.node().map(|node| (node, id, row))
            })
            .collect();
        live.sort_unstable_by_key(|&(node, ..)| node);
        let nearest = |query: &[f32], skip: Option<usize>| -> Vec<(usize, f32)> {
            let mut all: Vec<(usize, f32)> = live
                .iter()
                .filter(|&&(node, ..)| Some(node) != skip)
                .map(|(_, id, row)| (*id, distance(query, row)))
                .collect();
            // Stable: a tie keeps node order.
            all.sort_by(|a, b| a.1.total_cmp(&b.1));
            all.truncate(k);
            all
        };

        let emb = s.embed(probe, &adopted.selected);
        let reference: Vec<(usize, u32)> = nearest(&emb, None)
            .into_iter()
            .filter(|&(id, dist)| {
                let (node, _, row) = live.iter().find(|(_, c, _)| *c == id).unwrap();
                let closer = nearest(row, Some(*node))
                    .iter()
                    .filter(|&&(_, d)| d < dist)
                    .count();
                dist <= m && closer < k
            })
            .map(|(id, dist)| (id, dist.to_bits()))
            .collect();
        let found: Vec<(usize, u32)> = s
            .candidates(&emb, None)
            .into_iter()
            .map(|(id, dist)| (id, dist.to_bits()))
            .collect();
        assert_eq!(found, reference, "k = {k}");
        found.len()
    }

    #[test]
    fn seeded_op_sequences_keep_the_invariants_and_backends_agree() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let ds = music_dataset(41);
        let pool: Vec<Record> = ds
            .tables()
            .iter()
            .flat_map(Table::records)
            .cloned()
            .collect();
        for (seed, k) in [(1u64, 1), (2, 3)] {
            let (mut disk_cfg, dir) = disk_config(&format!("ops-{seed}"));
            disk_cfg.match_within_source = true;
            disk_cfg.base.m = 0.5;
            disk_cfg.base.k = k;
            let mut mem_cfg = disk_cfg.clone();
            mem_cfg.storage = crate::config::StorageConfig::Memory;
            let encoder = || HashedLexicalEncoder::with_dim(64);
            let mut stores = [
                EntityStore::new(mem_cfg, encoder()),
                EntityStore::new(disk_cfg, encoder()),
            ];

            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Probes come from a stream of their own, so the ops are the
            // ones this seed always ran.
            let mut probes = ChaCha8Rng::seed_from_u64(!seed);
            let mut ids: Vec<EntityId> = Vec::new();
            let (mut counts, mut candidates) = ([0usize; 5], 0);
            for step in 0..220 {
                let op = if step == 0 {
                    1 // the first data fixes the schema
                } else {
                    match rng.gen_range(0..100) {
                        0..=54 => 0,
                        55..=64 => 1,
                        65..=84 => 2,
                        85..=89 => 3,
                        _ => 4,
                    }
                };
                counts[op] += 1;
                match op {
                    0 => {
                        let record = &pool[rng.gen_range(0..pool.len())];
                        let [a, b] = stores.each_mut().map(|s| s.insert(record.clone()).unwrap());
                        assert_eq!(a, b, "step {step}");
                        ids.push(a);
                    }
                    1 => {
                        let rows: Vec<Record> = (0..rng.gen_range(1..8))
                            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                            .collect();
                        let batch =
                            Table::with_records("batch", ds.schema().clone(), rows).unwrap();
                        let [a, b] = stores.each_mut().map(|s| s.ingest_batch(&batch).unwrap());
                        assert_eq!(a, b, "step {step}");
                        ids.extend((0..a.records as u32).map(|row| EntityId::new(a.source, row)));
                    }
                    2 if !ids.is_empty() => {
                        // One id in four was deleted before: a miss, twice.
                        let id = ids[rng.gen_range(0..ids.len())];
                        let [a, b] = stores.each_mut().map(|s| s.delete_record(id).unwrap());
                        assert_eq!(a, b, "step {step}");
                    }
                    3 => stores.iter_mut().for_each(EntityStore::refresh),
                    _ => {
                        for s in &mut stores {
                            let before = s.stats();
                            let bytes = s.snapshot_bytes().unwrap();
                            *s = EntityStore::restore_bytes(&bytes, encoder()).unwrap();
                            assert_eq!(s.stats(), before, "step {step}");
                        }
                    }
                }
                let probe = &pool[probes.gen_range(0..pool.len())];
                for s in &stores {
                    check_invariants(s);
                    candidates += check_candidates_are_eq_1(s, probe);
                }
                assert_eq!(stores[0].stats(), stores[1].stats(), "step {step}");
            }

            assert!(counts.iter().all(|&c| c >= 5), "every op ran: {counts:?}");
            assert!(candidates > 100, "vacuous: {candidates} candidates");
            let [mem, disk] = &stores;
            let (mut a, mut b) = (mem.tuples(), disk.tuples());
            a.sort();
            b.sort();
            assert_eq!(a, b, "mem and disk must end in the same tuples");
            assert!(a.len() > 10, "vacuous: {} tuples", a.len());
            let stats = disk.stats();
            assert!(stats.deleted > 10 && stats.stale_nodes + stats.rebuilds > 0);
            assert!(disk.storage_stats().spilled_records > 0, "must spill");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn the_memoized_mutual_check_answers_as_a_fresh_look_up_after_every_op() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let ds = music_dataset(43);
        let pool: Vec<Record> = ds
            .tables()
            .iter()
            .flat_map(Table::records)
            .cloned()
            .collect();
        for (seed, k) in [(1u64, 1), (2, 3)] {
            let mut cfg = config();
            cfg.base.k = k;
            cfg.base.m = 0.5;
            // Tight enough that pruning splits clusters.
            cfg.base.epsilon = 0.4;
            cfg.match_within_source = true;
            let encoder = || HashedLexicalEncoder::with_dim(64);
            let mut s = EntityStore::new(cfg, encoder());
            s.init_schema(ds.schema().clone()).unwrap();

            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut ids: Vec<EntityId> = Vec::new();
            let mut counts = [0usize; 6];
            for step in 0..160 {
                let op = match rng.gen_range(0..100) {
                    0..=49 => 0,
                    50..=62 => 1,
                    63..=77 => 2,
                    78..=85 => 3,
                    86..=93 => 4,
                    _ => 5,
                };
                counts[op] += 1;
                match op {
                    0 => ids.push(
                        s.insert(pool[rng.gen_range(0..pool.len())].clone())
                            .unwrap(),
                    ),
                    1 => {
                        if !ids.is_empty() {
                            s.delete_record(ids[rng.gen_range(0..ids.len())]).unwrap();
                        }
                    }
                    2 => {
                        // A burst of matches reads through the memo and
                        // leaves nothing a snapshot carries behind.
                        let before = s.snapshot_bytes().unwrap();
                        for _ in 0..8 {
                            s.match_record(&pool[rng.gen_range(0..pool.len())]);
                        }
                        assert_eq!(s.snapshot_bytes().unwrap(), before, "step {step}");
                    }
                    // Pruning, which splits clusters, then a rebuild if due.
                    3 => s.refresh(),
                    4 => {
                        // A staleness rebuild with no write right before it.
                        let mut eager = s.config().clone();
                        eager.rebuild_staleness = 0.0;
                        s.state.clusters.maybe_rebuild(&eager);
                    }
                    _ => {
                        let bytes = s.snapshot_bytes().unwrap();
                        s = EntityStore::restore_bytes(&bytes, encoder()).unwrap();
                    }
                }
                // Also leaves every row in the memo, for the next op's
                // writes to invalidate.
                let table = &s.state.clusters;
                table.check(&s.state.records);
                table.check_mutual(k, s.config().base.m);
            }

            assert!(counts.iter().all(|&c| c >= 5), "every op ran: {counts:?}");
            let stats = s.stats();
            assert!(stats.tuples > 5, "vacuous: {stats:?}");
            assert!(
                stats.pruned_outliers > 0 && stats.rebuilds >= 2,
                "{stats:?}"
            );
        }
    }
}
