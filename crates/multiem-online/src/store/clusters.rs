//! The cluster table: the one owner of the store's partition.
//!
//! Every live record belongs to exactly one cluster, and every cluster with
//! a non-zero representative has one live node in the representative index.
//! A cluster is its members: the table states each of those facts once — a
//! cluster's ascending member list and its `node` — and derives the rest
//! from them: each node's row, the [`representative`] of the members'
//! stored embeddings in ascending sequence order (the batch merger's rule
//! for a fused item, over the same order); `cluster_of` (record → cluster,
//! the look-up behind every read); and `node_root` (index node → cluster,
//! the liveness map every search filters by), with `stale_nodes` counting
//! the dead slots of the latter. One more piece of derived state rides on the index:
//! `reverse`, the memo of the mutual check's reverse look-up per index node,
//! valid for one version of the index and its liveness map (see
//! [`ClusterTable::mutual`]). Only the operations of this file write any of
//! them, each keeping all of them in step; a snapshot carries the clusters
//! and the index, [`ClusterTable::reindex`] derives the maps on restore, and
//! a restored or cloned table starts with an empty memo.
//!
//! A cluster id is one past the largest live id when the cluster is made. An
//! id can therefore come back after its cluster is gone, which is sound
//! because [`ClusterTable::take`] leaves no reference to it behind: the node
//! is tombstoned, and every caller re-homes the members it took. Ids are a
//! function of the live set alone, so a restored table hands out the ids the
//! original would have.

use super::StoreStats;
use crate::config::OnlineConfig;
use crate::storage::RecordStorage;
use crate::wire::Field;
use multiem_ann::{BruteForceIndex, Metric, VectorIndex};
use multiem_core::{prune_points, representative, MultiEmConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One cluster of the partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct Cluster {
    /// Dense record ids of the members, ascending.
    members: Vec<usize>,
    /// Live node in the representative index, if the cluster is indexed.
    node: Option<usize>,
}

impl Cluster {
    /// Dense record ids of the members, ascending.
    pub(super) fn members(&self) -> &[usize] {
        &self.members
    }
}

/// The `n` equal-width points `flat` holds back to back.
fn as_points(flat: &[f32], n: usize) -> Vec<&[f32]> {
    let dim = flat.len().checked_div(n).unwrap_or(0);
    (0..n).map(|i| &flat[i * dim..(i + 1) * dim]).collect()
}

/// The memo of the mutual check's reverse look-up: per index node, the
/// distances of its `k` nearest other live nodes, each row valid for the
/// version of the index it was looked up in. Readers fill it under `&self`,
/// hence the lock; a write to the index bumps the version, so invalidating
/// every row is one increment and nothing is reallocated.
#[derive(Debug)]
struct ReverseMemo(Mutex<ReverseRows>);

#[derive(Debug)]
struct ReverseRows {
    /// Version of the index and its liveness map; starts at 1.
    version: u64,
    /// Row width: the `k` the rows were looked up with.
    k: usize,
    /// `k` distances per node, `+∞`-padded.
    dists: Vec<f32>,
    /// The version each node's row was looked up in (0: never).
    stamps: Vec<u64>,
}

impl Default for ReverseMemo {
    fn default() -> Self {
        Self(Mutex::new(ReverseRows {
            version: 1,
            k: 0,
            dists: Vec::new(),
            stamps: Vec::new(),
        }))
    }
}

/// A copy starts empty: its rows would be those of another table's index.
impl Clone for ReverseMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl ReverseMemo {
    /// The rows. Every step of [`ReverseMemo::fill`] leaves `dists` covering
    /// `stamps` and writes a row before its stamp, so a lock poisoned by a
    /// holder's panic guards valid rows and is sound to keep using.
    fn rows(&self) -> MutexGuard<'_, ReverseRows> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every row is out of date: the index or its liveness map changed.
    fn invalidate(&mut self) {
        self.0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .version += 1;
    }

    /// `f` of `node`'s row, if one was looked up for `k` in this version.
    fn read<R>(&self, node: usize, k: usize, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        let rows = self.rows();
        (rows.k == k && rows.stamps.get(node) == Some(&rows.version))
            .then(|| f(&rows.dists[node * k..(node + 1) * k]))
    }

    /// Keep `row`, looked up in this version, as `node`'s.
    fn fill(&self, node: usize, row: &[f32]) {
        let k = row.len();
        let mut guard = self.rows();
        let rows = &mut *guard;
        if rows.k != k {
            rows.k = k;
            rows.stamps.clear();
            rows.dists.clear();
        }
        if node >= rows.stamps.len() {
            rows.dists.resize((node + 1) * k, f32::INFINITY);
            rows.stamps.resize(node + 1, 0);
        }
        rows.dists[node * k..(node + 1) * k].copy_from_slice(row);
        rows.stamps[node] = rows.version;
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        let rows = self.rows();
        rows.dists.capacity() * std::mem::size_of::<f32>()
            + rows.stamps.capacity() * std::mem::size_of::<u64>()
    }
}

/// The partition of the store's records into clusters, and the index of the
/// clusters' representatives. See the [module docs](self).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct ClusterTable {
    clusters: BTreeMap<usize, Cluster>,
    /// One node per indexed cluster, plus the tombstones of clusters since
    /// fused, split or emptied. Exact at every size: every search scans the
    /// live nodes.
    index: BruteForceIndex,
    /// Times the index has been rebuilt.
    rebuilds: usize,
    /// Record -> cluster (`None` = deleted). Derived from the member lists.
    #[serde(skip)]
    cluster_of: Vec<Option<usize>>,
    /// Index node -> cluster (`None` = tombstone). Derived from the
    /// clusters' nodes.
    #[serde(skip)]
    node_root: Vec<Option<usize>>,
    /// Tombstones in `node_root`: what `rebuild_staleness` bounds.
    #[serde(skip)]
    stale_nodes: usize,
    /// The mutual check's reverse look-ups in the current index version.
    #[serde(skip)]
    reverse: ReverseMemo,
}

impl ClusterTable {
    /// An empty table over an empty representative index of `dim`-float
    /// rows under `metric`.
    pub(super) fn new(dim: usize, metric: Metric) -> Self {
        Self {
            clusters: BTreeMap::new(),
            index: BruteForceIndex::new(dim, metric),
            rebuilds: 0,
            cluster_of: Vec::new(),
            node_root: Vec::new(),
            stale_nodes: 0,
            reverse: ReverseMemo::default(),
        }
    }

    /// The entries the derived `Serialize` produces, in its order, so a
    /// binary snapshot can write them one tree at a time
    /// ([`crate::wire::write_fields`]).
    pub(super) fn fields(&self) -> [(&'static str, Field<'_>); 3] {
        [
            ("clusters", Field::Value(&self.clusters)),
            // The index's coordinates one at a time.
            ("index", Field::Index(&self.index)),
            ("rebuilds", Field::Value(&self.rebuilds)),
        ]
    }

    /// Derive `cluster_of`, `node_root` and the tombstone count of a
    /// deserialized table over `records` records, of which storage still
    /// holds those `live` says, refusing clusters that could not have come
    /// from this file's operations.
    pub(super) fn reindex(
        &mut self,
        records: usize,
        live: impl Fn(usize) -> bool,
    ) -> Result<(), String> {
        let mut cluster_of = vec![None; records];
        let mut node_root = vec![None; self.index.len()];
        for (&id, cluster) in &self.clusters {
            if cluster.members.is_empty() {
                return Err(format!("cluster {id} is empty"));
            }
            for &record in &cluster.members {
                match cluster_of.get_mut(record) {
                    Some(slot @ None) if live(record) => *slot = Some(id),
                    Some(None) => {
                        return Err(format!("cluster {id} names deleted record {record}"))
                    }
                    Some(Some(_)) => return Err(format!("record {record} is in two clusters")),
                    None => return Err(format!("cluster {id} names unknown record {record}")),
                }
            }
            if !cluster.members.is_sorted() {
                return Err(format!("cluster {id} lists its members out of order"));
            }
            if let Some(node) = cluster.node {
                match node_root.get_mut(node) {
                    Some(slot @ None) => *slot = Some(id),
                    _ => return Err(format!("cluster {id} has no index node of its own")),
                }
            }
        }
        self.stale_nodes = node_root.iter().filter(|root| root.is_none()).count();
        self.cluster_of = cluster_of;
        self.node_root = node_root;
        self.reverse.invalidate();
        Ok(())
    }

    // --- reads --------------------------------------------------------------

    /// Every cluster with its id, in id order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (usize, &Cluster)> {
        self.clusters.iter().map(|(&id, cluster)| (id, cluster))
    }

    /// The cluster holding `record`, unless the record was deleted.
    pub(super) fn cluster_of(&self, record: usize) -> Option<usize> {
        self.cluster_of.get(record).copied().flatten()
    }

    /// Members of a cluster this table named.
    pub(super) fn members(&self, id: usize) -> &[usize] {
        &self.clusters[&id].members
    }

    /// The cluster and index counters of [`StoreStats`]; the record counters
    /// are the store's to fill in.
    pub(super) fn stats(&self) -> StoreStats {
        StoreStats {
            clusters: self.clusters.len(),
            tuples: self.iter().filter(|(_, c)| c.members.len() >= 2).count(),
            index_nodes: self.node_root.len(),
            stale_nodes: self.stale_nodes,
            rebuilds: self.rebuilds,
            ..StoreStats::default()
        }
    }

    /// Approximate heap footprint of the representative index and the memo
    /// of its reverse look-ups.
    pub(super) fn index_bytes(&self) -> usize {
        self.index.approx_bytes() + self.reverse.bytes()
    }

    /// Search the representative index for `query`, returning up to `k`
    /// *live* clusters as `(cluster, distance)`, closest first; the node
    /// `exclude`, if any, is passed over like a tombstone.
    ///
    /// Tombstones still occupy index slots, but the scan is told which
    /// nodes are live (`node_root` is the only record of that) and never
    /// scores a dead one, so the look-up asks for exactly `k`.
    pub(super) fn search_live(
        &self,
        query: &[f32],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<(usize, f32)> {
        let node_root = &self.node_root;
        let live = |node: usize| node_root[node].is_some() && Some(node) != exclude;
        self.index
            .search_filtered(query, k, &live)
            .into_iter()
            .filter_map(|n| node_root[n.index].map(|id| (id, n.distance)))
            .collect()
    }

    /// Would a record at `dist` from the representative of `candidate` be
    /// within the candidate's top-K? True when fewer than `k` other live
    /// representatives are closer to the candidate than the record is — the
    /// reverse direction of Eq. 1.
    ///
    /// The look-up behind it depends on the index and its liveness map
    /// only, not on the record, so it runs once per candidate per index
    /// version: its row of distances is kept in `reverse` until the next
    /// write, and every check in between counts over the kept row. A kept
    /// row is the one a fresh look-up would return, bit for bit.
    pub(super) fn mutual(&self, candidate: usize, dist: f32, k: usize) -> bool {
        let Some(node) = self.clusters[&candidate].node else {
            return false;
        };
        let closer = |row: &[f32]| row.iter().filter(|&&d| d < dist).count();
        let count = self.reverse.read(node, k, closer).unwrap_or_else(|| {
            let row = self.reverse_row(node, k);
            self.reverse.fill(node, &row);
            closer(&row)
        });
        count < k
    }

    /// The distances from `node` to its `k` nearest other live nodes,
    /// closest first and padded with `+∞` to `k` (a padded slot is never
    /// closer than anything). The query is the node's indexed row: its
    /// cluster's representative, bit for bit (the test-only
    /// `ClusterTable::check` asserts it).
    fn reverse_row(&self, node: usize, k: usize) -> Vec<f32> {
        let mut row: Vec<f32> = self
            .search_live(self.index.vector(node), k, Some(node))
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        row.resize(k, f32::INFINITY);
        row
    }

    // --- writes -------------------------------------------------------------

    /// The one place a cluster is made: `members` (ascending) move in, whose
    /// stored embeddings are `points` in the same order, and their
    /// [`representative`] is indexed when it is non-zero (a zero embedding
    /// — empty serialized text — never matches anything, like the batch
    /// merger skips it).
    pub(super) fn register(&mut self, members: Vec<usize>, points: &[&[f32]]) {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        self.reverse.invalidate();
        let id = self.clusters.keys().next_back().map_or(0, |&id| id + 1);
        for &record in &members {
            if record >= self.cluster_of.len() {
                self.cluster_of.resize(record + 1, None);
            }
            self.cluster_of[record] = Some(id);
        }
        let row = representative(self.index.dim(), points);
        let node = row.iter().any(|&x| x != 0.0).then(|| {
            let node = self.index.add(&row);
            debug_assert_eq!(node, self.node_root.len());
            self.node_root.push(Some(id));
            node
        });
        self.clusters.insert(id, Cluster { members, node });
    }

    /// Remove a cluster this table named, tombstoning its node. The caller
    /// re-homes the members.
    fn take(&mut self, id: usize) -> Cluster {
        self.reverse.invalidate();
        let cluster = self
            .clusters
            .remove(&id)
            .expect("cluster ids come from this table");
        if let Some(node) = cluster.node {
            self.node_root[node] = None;
            self.stale_nodes += 1;
        }
        cluster
    }

    /// Fuse the new `record` — the newest sequence, embedding `embedding` —
    /// with every cluster it matched (transitively: they all become one
    /// cluster); with no match it starts a singleton. The fused
    /// representative reads the stored embeddings of the matched clusters'
    /// members.
    pub(super) fn fuse(
        &mut self,
        record: usize,
        embedding: &[f32],
        matched: &[usize],
        stored: &RecordStorage,
    ) {
        let mut members = Vec::new();
        for &id in matched {
            members.extend(self.take(id).members);
        }
        members.sort_unstable();
        let flat = stored.embeddings(&members);
        let mut points = as_points(&flat, members.len());
        members.push(record);
        points.push(embedding);
        self.register(members, &points);
    }

    /// Density-based pruning (Algorithm 4) of a cluster this table named,
    /// by its members' stored embeddings, leaving `without` (a member being
    /// deleted) out: outliers split off into singletons and the rest stay
    /// together; a cluster that loses no member is left as it is, node and
    /// all. With `base.pruning` off nothing is split. Returns the number of
    /// outliers.
    pub(super) fn prune(
        &mut self,
        id: usize,
        without: Option<usize>,
        stored: &RecordStorage,
        base: &MultiEmConfig,
    ) -> usize {
        let mut members = self.clusters[&id].members.clone();
        members.retain(|&record| Some(record) != without);
        let flat = stored.embeddings(&members);
        let points = as_points(&flat, members.len());
        let (kept, outliers) = match base.pruning {
            true => prune_points(&points, base),
            false => ((0..members.len()).collect(), Vec::new()),
        };
        if outliers.is_empty() && without.is_none() {
            return 0;
        }
        self.take(id);
        for &i in &outliers {
            self.register(vec![members[i]], &[points[i]]);
        }
        if !kept.is_empty() {
            let rest: Vec<&[f32]> = kept.iter().map(|&i| points[i]).collect();
            self.register(kept.iter().map(|&i| members[i]).collect(), &rest);
        }
        outliers.len()
    }

    /// Take the deleted `record` out of its cluster and prune the survivors
    /// now ([`ClusterTable::prune`]). A cluster left empty is gone. Returns
    /// the number of outliers.
    pub(super) fn remove_member(
        &mut self,
        record: usize,
        stored: &RecordStorage,
        base: &MultiEmConfig,
    ) -> usize {
        match self.cluster_of.get_mut(record).and_then(Option::take) {
            Some(id) => self.prune(id, Some(record), stored, base),
            None => 0,
        }
    }

    /// Rebuild the representative index from the live clusters when
    /// tombstones exceed `rebuild_staleness` of it. A cluster's row moves
    /// over as it is: it already is the cluster's representative.
    pub(super) fn maybe_rebuild(&mut self, config: &OnlineConfig) {
        let total = self.node_root.len();
        if total == 0 {
            return;
        }
        let staleness = self.stale_nodes as f64 / total as f64;
        if staleness <= config.rebuild_staleness {
            return;
        }
        let mut index = BruteForceIndex::new(self.index.dim(), self.index.metric());
        let mut node_root = Vec::with_capacity(total - self.stale_nodes);
        for (&id, cluster) in self.clusters.iter_mut() {
            if let Some(old) = cluster.node {
                let node = index.add(self.index.vector(old));
                debug_assert_eq!(node, node_root.len());
                node_root.push(Some(id));
                cluster.node = Some(node);
            }
        }
        self.index = index;
        self.node_root = node_root;
        self.stale_nodes = 0;
        self.rebuilds += 1;
        self.reverse.invalidate();
    }
}

/// The [`representative`] of `members` (ascending), read from storage.
#[cfg(test)]
pub(super) fn stored_representative(stored: &RecordStorage, members: &[usize]) -> Vec<f32> {
    let flat = stored.embeddings(members);
    representative(stored.dim(), &as_points(&flat, members.len()))
}

#[cfg(test)]
impl Cluster {
    /// The cluster's live node in the representative index, if indexed.
    pub(super) fn node(&self) -> Option<usize> {
        self.node
    }
}

#[cfg(test)]
impl ClusterTable {
    /// Assert the table's invariants over the records `stored` holds: the
    /// derived maps are exactly what [`ClusterTable::reindex`] derives from
    /// the clusters — each live record in one member list, ascending, and
    /// `cluster_of` naming it, each indexed cluster's node mapping back to
    /// it, the tombstone count equal to the dead `node_root` slots — the
    /// index holds one vector per `node_root` slot, and a cluster is indexed
    /// exactly when the [`representative`] of its members' stored
    /// embeddings is non-zero, under that representative, bit for bit (the
    /// mutual check's look-up queries with the row).
    pub(super) fn check(&self, stored: &RecordStorage) {
        let mut derived = self.clone();
        derived
            .reindex(stored.len(), |seq| stored.is_live(seq))
            .expect("a table the operations built");
        assert_eq!(self.cluster_of, derived.cluster_of);
        assert_eq!(self.node_root, derived.node_root);
        assert_eq!(self.stale_nodes, derived.stale_nodes);
        assert_eq!(self.index.len(), self.node_root.len());
        for (id, cluster) in self.iter() {
            let want = stored_representative(stored, &cluster.members);
            assert_eq!(
                cluster.node.is_some(),
                want.iter().any(|&x| x != 0.0),
                "cluster {id}"
            );
            if let Some(node) = cluster.node {
                assert_eq!(
                    bits(self.index.vector(node)),
                    bits(&want),
                    "cluster {id}'s index row is not its members' representative"
                );
            }
        }
    }

    /// Assert that [`ClusterTable::mutual`] answers for every cluster as the
    /// unmemoized check would — a fresh look-up from the cluster's row — at
    /// `0`, `m`, `+∞`, NaN, and every distance the memo held before the call
    /// or the fresh look-up returns, each with its neighbours `next_up` /
    /// `next_down`. Leaves every indexed cluster's row in the memo, equal to
    /// the fresh row bit for bit.
    pub(super) fn check_mutual(&self, k: usize, m: f32) {
        for (id, cluster) in self.iter() {
            let Some(node) = cluster.node else {
                assert!(!self.mutual(id, 0.0, k), "an unindexed cluster");
                continue;
            };
            let fresh = self.reverse_row(node, k);
            let kept = self.reverse.read(node, k, <[f32]>::to_vec);
            let mut probes = vec![0.0, m, f32::INFINITY, f32::NAN];
            for &d in kept.iter().flatten().chain(&fresh) {
                probes.extend([d, d.next_up(), d.next_down()]);
            }
            for dist in probes {
                let reference = fresh.iter().filter(|&&d| d < dist).count() < k;
                assert_eq!(
                    self.mutual(id, dist, k),
                    reference,
                    "cluster {id} at {dist}"
                );
            }
            let kept = self.reverse.read(node, k, <[f32]>::to_vec);
            assert_eq!(
                kept.as_deref().map(bits),
                Some(bits(&fresh)),
                "cluster {id}"
            );
        }
    }
}

/// The bit patterns of `xs`: equal exactly when `xs` are the same floats.
#[cfg(test)]
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageConfig;
    use multiem_table::Record;
    use std::ops::{Deref, DerefMut};

    /// Unit vector at `degrees` in the plane.
    fn at(degrees: f32) -> Vec<f32> {
        let r = degrees.to_radians();
        vec![r.cos(), r.sin()]
    }

    fn config() -> OnlineConfig {
        OnlineConfig::new(MultiEmConfig::default())
    }

    /// A table with the storage its members' embeddings live in, as the
    /// store keeps them side by side: a record is appended to storage as
    /// it is fused, and leaves storage after it leaves its cluster.
    #[derive(Clone)]
    struct Stored {
        table: ClusterTable,
        stored: RecordStorage,
    }

    impl Deref for Stored {
        type Target = ClusterTable;
        fn deref(&self) -> &ClusterTable {
            &self.table
        }
    }

    impl DerefMut for Stored {
        fn deref_mut(&mut self) -> &mut ClusterTable {
            &mut self.table
        }
    }

    impl Stored {
        /// Store the new `record` (the next sequence) and fuse it.
        fn fuse(&mut self, record: usize, embedding: &[f32], matched: &[usize]) {
            let id = self.stored.append(0, &Record::new(Vec::new()), embedding);
            assert_eq!(self.stored.seq_of(id.unwrap()), Some(record));
            self.table.fuse(record, embedding, matched, &self.stored);
        }

        /// Delete `record`, stored as `embedding`, if it is live; returns
        /// the outliers its survivors lost.
        fn remove_member(&mut self, record: usize, embedding: &[f32]) -> usize {
            let live = record < self.stored.len() && self.stored.is_live(record);
            if live {
                let kept = self.stored.embedding(self.stored.id_at(record));
                assert_eq!(kept.as_deref(), Some(embedding));
            }
            let pruned = self
                .table
                .remove_member(record, &self.stored, &config().base);
            if live {
                assert!(self.stored.delete(self.stored.id_at(record)).unwrap());
            }
            pruned
        }

        /// Algorithm 4 over cluster `id`.
        fn prune(&mut self, id: usize) -> usize {
            self.table.prune(id, None, &self.stored, &config().base)
        }

        /// [`ClusterTable::check`], after `records` appends.
        fn check(&self, records: usize) {
            assert_eq!(self.stored.len(), records);
            self.table.check(&self.stored);
        }

        /// The index row of cluster `id`.
        fn row(&self, id: usize) -> &[f32] {
            self.index.vector(self.clusters[&id].node.unwrap())
        }
    }

    fn table() -> Stored {
        let mut stored = RecordStorage::new(&StorageConfig::Memory, 2).unwrap();
        stored.open_source();
        Stored {
            table: ClusterTable::new(2, config().base.merge_metric),
            stored,
        }
    }

    /// Singletons `0..n`, record `i` at `10 * i` degrees.
    fn singletons(n: usize) -> Stored {
        let mut t = table();
        for record in 0..n {
            t.fuse(record, &at(10.0 * record as f32), &[]);
        }
        t
    }

    /// Member lists, each ascending, ordered by smallest member.
    fn groups(t: &ClusterTable) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = t
            .iter()
            .map(|(_, c)| {
                let mut members = c.members().to_vec();
                members.sort_unstable();
                members
            })
            .collect();
        out.sort();
        out
    }

    fn together(t: &ClusterTable, a: usize, b: usize) -> bool {
        t.cluster_of(a).is_some() && t.cluster_of(a) == t.cluster_of(b)
    }

    #[test]
    fn empty_table() {
        let mut t = table();
        t.check(0);
        assert!(groups(&t).is_empty());
        assert_eq!(t.stats(), StoreStats::default());
        assert_eq!(t.cluster_of(0), None);
        assert!(t.search_live(&at(0.0), 3, None).is_empty());
        t.maybe_rebuild(&config());
        assert_eq!(t.stats().rebuilds, 0);
    }

    #[test]
    fn records_arrive_as_singletons_and_fuse_transitively() {
        let mut t = singletons(3);
        t.check(3);
        assert_eq!(groups(&t), [vec![0], vec![1], vec![2]]);
        assert!(!together(&t, 0, 1));

        // Record 3 matched the clusters of 0 and 2: all three are one.
        let matched = [t.cluster_of(0).unwrap(), t.cluster_of(2).unwrap()];
        t.fuse(3, &at(5.0), &matched);
        t.check(4);
        assert_eq!(groups(&t), [vec![0, 2, 3], vec![1]]);
        assert!(together(&t, 0, 3) && together(&t, 2, 3) && !together(&t, 1, 3));
        let stats = t.stats();
        assert_eq!((stats.clusters, stats.tuples), (2, 1));
        assert_eq!((stats.index_nodes, stats.stale_nodes), (4, 2));

        // The table keeps growing after fuses, and a fused cluster fuses on.
        t.fuse(4, &at(40.0), &[]);
        assert!(!together(&t, 4, 0));
        t.fuse(
            5,
            &at(7.0),
            &[t.cluster_of(0).unwrap(), t.cluster_of(4).unwrap()],
        );
        t.check(6);
        assert_eq!(groups(&t), [vec![0, 2, 3, 4, 5], vec![1]]);
    }

    #[test]
    fn the_representative_is_the_mean_of_the_members() {
        let mut t = singletons(2);
        t.fuse(2, &at(40.0), &[t.cluster_of(0).unwrap()]);
        let id = t.cluster_of(2).unwrap();
        assert_eq!(t.members(id), [0, 2], "members stay ascending");
        // The representative is the unit vector half-way between the two,
        // and it is the fused cluster's row.
        let c = representative(2, &[at(0.0).as_slice(), &at(40.0)]);
        assert!((c[0] - at(20.0)[0]).abs() < 1e-6 && (c[1] - at(20.0)[1]).abs() < 1e-6);
        assert_eq!(t.row(id), c);
        // It is what the index answers with, and the superseded singleton
        // of record 0 is passed over.
        let hits = t.search_live(&at(20.0), 3, None);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, t.cluster_of(2).unwrap());
        assert!(hits[0].1 < 1e-6);
        assert_eq!(hits[1].0, t.cluster_of(1).unwrap());
    }

    #[test]
    fn pruning_keeps_the_rest_together_when_the_first_member_goes() {
        // ε = 1 is a chord of 60 degrees. Record 0, at 90, is more than that
        // from 1 and 2 (10 and 20 degrees), which are within it of each other.
        let mut t = table();
        t.fuse(0, &at(90.0), &[]);
        t.fuse(1, &at(10.0), &[t.cluster_of(0).unwrap()]);
        t.fuse(2, &at(20.0), &[t.cluster_of(0).unwrap()]);
        t.fuse(3, &at(-60.0), &[]);
        let id = t.cluster_of(0).unwrap();
        assert_eq!(
            t.members(id),
            [0, 1, 2],
            "ascending, whatever the fuse order"
        );

        assert_eq!(t.prune(id), 1);
        t.check(4);
        assert_eq!(groups(&t), [vec![0], vec![1, 2], vec![3]]);
        assert!(together(&t, 1, 2) && !together(&t, 0, 1));
        let rest = t.cluster_of(1).unwrap();
        assert_eq!(
            t.row(rest),
            representative(2, &[at(10.0).as_slice(), &at(20.0)])
        );

        // Nothing to split, as on any cluster pruned before: the cluster is
        // left as it is, its node kept.
        assert_eq!(t.prune(rest), 0);
        assert_eq!(t.cluster_of(1), Some(rest));
        t.fuse(4, &at(15.0), &[rest]);
        let id = t.cluster_of(4).unwrap();
        let node = t.clusters[&id].node;
        assert_eq!(t.prune(id), 0);
        assert_eq!(t.clusters[&id].node, node);

        // A record split off can join clusters again, and splitting every
        // member off leaves singletons only: 90, -60 and 170 degrees are
        // pairwise more than 60 apart.
        t.fuse(
            5,
            &at(170.0),
            &[t.cluster_of(0).unwrap(), t.cluster_of(3).unwrap()],
        );
        t.check(6);
        assert_eq!(groups(&t), [vec![0, 3, 5], vec![1, 2, 4]]);
        assert_eq!(t.prune(t.cluster_of(5).unwrap()), 3);
        t.check(6);
        assert_eq!(groups(&t), [vec![0], vec![1, 2, 4], vec![3], vec![5]]);
    }

    #[test]
    fn remove_member_leaves_the_survivors_one_cluster() {
        let mut t = singletons(2);
        t.fuse(
            2,
            &at(20.0),
            &[t.cluster_of(0).unwrap(), t.cluster_of(1).unwrap()],
        );
        assert_eq!(t.members(t.cluster_of(2).unwrap()), [0, 1, 2]);
        // The last member goes; the other two, 10 degrees apart, stay one
        // cluster, pruned on the spot, under the representative of the two
        // alone.
        assert_eq!(t.remove_member(2, &at(20.0)), 0);
        t.check(3);
        assert_eq!(t.cluster_of(2), None);
        assert_eq!(groups(&t), [vec![0, 1]]);
        let rest = t.cluster_of(0).unwrap();
        assert_eq!(
            t.row(rest),
            representative(2, &[at(0.0).as_slice(), &at(10.0)])
        );
        // Removing it again changes nothing; removing the last member of a
        // cluster removes the cluster.
        let before = t.stats();
        t.remove_member(2, &at(20.0));
        t.remove_member(7, &at(0.0));
        assert_eq!(t.stats(), before);
        t.remove_member(0, &at(0.0));
        t.remove_member(1, &at(10.0));
        t.check(3);
        assert!(groups(&t).is_empty());
        assert_eq!(t.stats().stale_nodes, t.stats().index_nodes);
        assert!(t.search_live(&at(0.0), 3, None).is_empty());
    }

    #[test]
    fn remove_member_splits_off_survivors_joined_only_through_it() {
        // 0 and 80 degrees are farther apart than ε; 40 is within it of both.
        let mut t = singletons(1);
        t.fuse(1, &at(40.0), &[t.cluster_of(0).unwrap()]);
        t.fuse(2, &at(80.0), &[t.cluster_of(0).unwrap()]);
        assert_eq!(t.prune(t.cluster_of(0).unwrap()), 0, "connected through 1");
        assert_eq!(t.remove_member(1, &at(40.0)), 2);
        t.check(3);
        assert_eq!(groups(&t), [vec![0], vec![2]]);

        // Without pruning the survivors stay together.
        let mut t = singletons(1);
        t.fuse(1, &at(40.0), &[t.cluster_of(0).unwrap()]);
        t.fuse(2, &at(80.0), &[t.cluster_of(0).unwrap()]);
        let mut base = config().base;
        base.pruning = false;
        assert_eq!(t.table.remove_member(1, &t.stored, &base), 0);
        assert_eq!(groups(&t), [vec![0, 2]]);
    }

    #[test]
    fn zero_embeddings_stay_out_of_the_index() {
        let mut t = singletons(1);
        t.fuse(1, &[0.0, 0.0], &[]);
        t.check(2);
        assert_eq!(t.stats().clusters, 2);
        assert_eq!(t.stats().index_nodes, 1);
        let blank = t.cluster_of(1).unwrap();
        assert!(
            !t.mutual(blank, 0.0, 3),
            "an unindexed cluster accepts nothing"
        );
        assert_eq!(t.search_live(&at(0.0), 3, None).len(), 1);
    }

    #[test]
    fn mutual_counts_closer_live_representatives() {
        // 0 and 1 are 10 degrees apart, 2 is far away.
        let mut t = table();
        for (record, degrees) in [0.0, 10.0, 120.0].into_iter().enumerate() {
            t.fuse(record, &at(degrees), &[]);
        }
        let zero = t.cluster_of(0).unwrap();
        let d10 = t.search_live(&at(0.0), 2, None)[1].1;
        // With k = 1, a record farther from 0 than 1 is loses to it...
        assert!(!t.mutual(zero, d10 * 1.5, 1));
        assert!(t.mutual(zero, d10 * 0.5, 1));
        // ...unless 1 is gone: tombstones do not count.
        t.remove_member(1, &at(10.0));
        assert!(t.mutual(zero, d10 * 1.5, 1));
    }

    #[test]
    fn the_memo_lives_for_one_index_version_and_one_table() {
        let mut t = singletons(4);
        let node = t.clusters[&t.cluster_of(0).unwrap()].node.unwrap();
        let row = |t: &ClusterTable, k| t.reverse.read(node, k, <[f32]>::to_vec);
        let bare = t.index_bytes();
        assert_eq!(row(&t, 2), None);
        t.check_mutual(2, 0.35);
        // Records 1 and 2, at 10 and 20 degrees, are the closest others.
        let hits = t.search_live(&at(0.0), 3, None);
        assert_eq!(row(&t, 2), Some(vec![hits[1].1, hits[2].1]));
        assert!(t.index_bytes() > bare, "the memo's bytes count");
        assert_eq!(
            row(&t, 1),
            None,
            "a row is kept for the k it was looked up with"
        );
        assert_eq!(row(&t.clone(), 2), None, "a copy starts empty");

        // A write to the index drops every row, however little it moves.
        t.fuse(4, &at(180.0), &[]);
        assert_eq!(row(&t, 2), None);
        t.check_mutual(2, 0.35);
        t.maybe_rebuild(&OnlineConfig {
            rebuild_staleness: 0.0,
            ..config()
        });
        assert_eq!(
            t.stats().rebuilds,
            0,
            "no tombstones, no rebuild: the rows stand"
        );
        assert!(row(&t, 2).is_some());
        t.remove_member(4, &at(180.0));
        assert_eq!(row(&t, 2), None);
        t.check_mutual(2, 0.35);
        t.maybe_rebuild(&OnlineConfig {
            rebuild_staleness: 0.0,
            ..config()
        });
        assert_eq!(t.stats().rebuilds, 1);
        assert_eq!(row(&t, 2), None, "a rebuild renumbers the nodes");
    }

    #[test]
    fn rebuild_drops_tombstones() {
        let mut config = config();
        config.rebuild_staleness = 0.4;
        let mut t = singletons(4);
        t.fuse(
            4,
            &at(5.0),
            &[t.cluster_of(0).unwrap(), t.cluster_of(1).unwrap()],
        );
        // 2 of 5 nodes are tombstones: at the bound, not over it.
        t.maybe_rebuild(&config);
        assert_eq!((t.stats().rebuilds, t.stats().stale_nodes), (0, 2));
        t.remove_member(3, &at(30.0));
        t.maybe_rebuild(&config);
        t.check(5);
        let stats = t.stats();
        assert_eq!(
            (stats.rebuilds, stats.stale_nodes, stats.index_nodes),
            (1, 0, 2)
        );
        let hits = t.search_live(&at(20.0), 3, None);
        assert_eq!(hits[0].0, t.cluster_of(2).unwrap());
        assert_eq!(hits[1].0, t.cluster_of(4).unwrap());
    }

    #[test]
    fn a_freed_id_can_come_back_without_a_trace_of_its_old_cluster() {
        let mut t = singletons(3);
        let last = t.cluster_of(2).unwrap();
        t.remove_member(2, &at(20.0));
        t.fuse(3, &at(30.0), &[]);
        assert_eq!(t.cluster_of(3), Some(last), "one past the largest live id");
        t.check(4);
        assert_eq!(t.cluster_of(2), None);
        assert_eq!(t.members(last), [3]);
        let hits = t.search_live(&at(20.0), 1, None);
        assert_eq!(
            hits[0].0,
            t.cluster_of(1).unwrap(),
            "record 2's node is dead"
        );
    }

    #[test]
    fn reindex_derives_the_maps_and_refuses_impossible_tables() {
        let mut t = singletons(3);
        t.fuse(3, &at(5.0), &[t.cluster_of(0).unwrap()]);
        let restored = {
            let mut r = ClusterTable::from_value(&t.to_value()).unwrap();
            assert!(r.cluster_of.is_empty() && r.node_root.is_empty());
            r.reindex(4, |_| true).unwrap();
            r
        };
        assert_eq!(restored.cluster_of, t.cluster_of);
        assert_eq!(restored.node_root, t.node_root);
        assert_eq!(restored.stats(), t.stats());

        let broken = |edit: &dyn Fn(&mut ClusterTable)| {
            let mut r = ClusterTable::from_value(&t.to_value()).unwrap();
            edit(&mut r);
            r.reindex(4, |_| true)
        };
        let first = |r: &mut ClusterTable| *r.clusters.keys().next().unwrap();
        assert!(
            t.clone().reindex(3, |_| true).is_err(),
            "a member past the records"
        );
        assert!(
            t.clone().reindex(4, |record| record != 3).is_err(),
            "a member storage no longer holds"
        );
        assert!(broken(&|r| {
            let id = first(r);
            r.clusters.get_mut(&id).unwrap().members.push(3);
        })
        .is_err());
        assert!(broken(&|r| {
            let id = first(r);
            r.clusters.get_mut(&id).unwrap().members.clear();
        })
        .is_err());
        assert!(broken(&|r| {
            let fused = r.clusters.values_mut().find(|c| c.members.len() == 2);
            fused.unwrap().members.reverse();
        })
        .is_err());
        assert!(broken(&|r| {
            let id = first(r);
            r.clusters.get_mut(&id).unwrap().node = Some(99);
        })
        .is_err());
        assert!(broken(&|r| {
            let node = r.clusters.values().last().unwrap().node;
            let id = first(r);
            r.clusters.get_mut(&id).unwrap().node = node;
        })
        .is_err());
    }
}
