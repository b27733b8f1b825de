//! Table-wise Hierarchical Merging (Section III-C, Algorithms 2 and 3).
//!
//! The merging phase operates on *merged tables* whose items are either single
//! entities or tuples produced by earlier merges. One two-table merge step
//! (Algorithm 3):
//!
//! 1. joins the two tables' item rows where they lie, in one exact pass over
//!    their distance matrix ([`mutual_top_k_exact`]), with no index built,
//! 2. finds all **mutual top-K** item pairs with distance ≤ `m` (Eq. 1),
//! 3. fuses matched items through transitivity (union-find) into new items,
//!    carrying every unmatched item into the output table unchanged. A fused
//!    item's embedding is the [`representative`] of its members' rows: their
//!    sum in ascending [`EntityId`] order, L2-normalised, i.e. the normalised
//!    centroid of the members. The online store computes its clusters'
//!    representatives with the same function over the same order, so a
//!    member set has the same embedding, bit for bit, in either.
//!
//! Algorithm 3 builds an HNSW index per table instead. Here the exact join is
//! faster at every size the repository runs, and it answers Eq. 1 exactly
//! (PAPER.md, "M", has the measurement).
//!
//! Hierarchical merging (Algorithm 2) repeatedly pairs up the current tables
//! (in a seeded random order) and merges each pair until a single integrated
//! table remains. Matched tuples are the multi-member items of that final
//! table.
//!
//! The merges of a level run one after another, and each spreads over the
//! rayon pool inside its join: an exact join maps its left rows in ranges of
//! 128 across the pool's threads. Section III-E of the paper runs a level's
//! merges at the same time instead; here a map nested inside another runs on
//! its caller, so that would give each join one thread and make the level
//! wait for its largest merge.
//!
//! Every vector is held once. A run's items carry the id of a row in one
//! arena and their members, each beside the row it entered the run with: an
//! entity's own row is borrowed from where the caller keeps it (the
//! [`EmbeddingStore`] for [`hierarchical_merge_store`], the input items for
//! [`hierarchical_merge`]), a fused item's representative is appended once
//! with its squared norm, and a carried item moves into the next table by
//! its member list.

use crate::config::MultiEmConfig;
use multiem_ann::{mutual_top_k_exact, Metric, RowRefs};
use multiem_cluster::UnionFind;
use multiem_embed::l2_normalize;
use multiem_table::{Dataset, EntityId, MatchTuple};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::representation::EmbeddingStore;

/// One item of a merged table: a set of entities believed to co-refer, plus a
/// representative embedding (the normalised centroid of its members).
///
/// This is the merger's public form, which [`hierarchical_merge`] takes and
/// gives back. Inside a run an item is its members and a row id; the
/// embedding is copied out only for the final table.
#[derive(Debug, Clone)]
pub struct MergeItem {
    /// The entities merged into this item so far.
    pub members: Vec<EntityId>,
    /// The embedding used for subsequent merges: for an item a merge fused,
    /// the [`representative`] of its members' rows.
    pub embedding: Vec<f32>,
}

impl MergeItem {
    /// Create a singleton item for one entity.
    pub fn singleton(id: EntityId, embedding: Vec<f32>) -> Self {
        Self {
            members: vec![id],
            embedding,
        }
    }

    /// Number of member entities.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the item has no members (never produced by the pipeline).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Convert the item into a [`MatchTuple`] (only meaningful when `len() >= 2`).
    pub fn to_tuple(&self) -> MatchTuple {
        MatchTuple::new(self.members.iter().copied())
    }
}

/// A table in the hierarchical-merging lattice, with an owned embedding per
/// item: the input and output of [`hierarchical_merge`].
/// [`hierarchical_merge_store`] never builds one.
#[derive(Debug, Clone, Default)]
pub struct MergedTable {
    /// The items of the table.
    pub items: Vec<MergeItem>,
}

impl MergedTable {
    /// Build the level-0 merged table for one source table: one singleton item
    /// per entity, skipping entities whose serialized text was empty (zero
    /// embeddings would otherwise produce spurious mutual matches). Each item
    /// holds a copy of its store row.
    pub fn from_source(dataset: &Dataset, source: u32, store: &EmbeddingStore) -> Self {
        let items = source_rows(dataset, source, store)
            .map(|(id, emb)| MergeItem::singleton(id, emb.to_vec()))
            .collect();
        Self { items }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the table has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items with at least two members, as match tuples.
    pub fn tuples(&self) -> Vec<MatchTuple> {
        self.items
            .iter()
            .filter(|i| i.len() >= 2)
            .map(MergeItem::to_tuple)
            .collect()
    }

    /// Approximate bytes used by item embeddings and member lists.
    pub fn approx_bytes(&self) -> usize {
        self.items
            .iter()
            .map(|i| {
                i.embedding.capacity() * 4 + i.members.capacity() * std::mem::size_of::<EntityId>()
            })
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

/// The entities of one source table and their store rows, in row order,
/// without the entities whose row is all zeros (their serialized text was
/// empty).
fn source_rows<'s>(
    dataset: &Dataset,
    source: u32,
    store: &'s EmbeddingStore,
) -> impl Iterator<Item = (EntityId, &'s [f32])> {
    let rows = dataset.tables()[source as usize].len();
    (0..rows as u32).filter_map(move |row| {
        let id = EntityId::new(source, row);
        let emb = store.embedding(id);
        (!emb.iter().all(|&x| x == 0.0)).then_some((id, emb))
    })
}

/// One item inside a run: the id of its row in the run's [`Arena`] and its
/// members, each beside the arena row it entered the run with.
#[derive(Debug, Default)]
struct Item {
    members: Vec<(EntityId, usize)>,
    row: usize,
}

impl Item {
    /// The member ids, without their rows.
    fn ids(self) -> Vec<EntityId> {
        self.members.into_iter().map(|(id, _)| id).collect()
    }
}

/// Every row a run's items point at, each beside its squared norm
/// ([`Metric::squared_norm`], the norm an index caches): the base rows,
/// borrowed, then the representative of every fused item, appended once.
struct Arena<'a> {
    dim: usize,
    base: Vec<&'a [f32]>,
    fused: Vec<f32>,
    norms: Vec<f32>,
}

impl<'a> Arena<'a> {
    fn new(dim: usize, base: Vec<&'a [f32]>) -> Self {
        let norms = base.iter().map(|row| Metric::squared_norm(row)).collect();
        Self {
            dim,
            base,
            fused: Vec::new(),
            norms,
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.norms.len()
    }

    fn row(&self, id: usize) -> &[f32] {
        match id.checked_sub(self.base.len()) {
            None => self.base[id],
            Some(fused) => &self.fused[fused * self.dim..][..self.dim],
        }
    }

    /// The rows of `items`, in item order, as one side of a join.
    fn side(&self, items: &[Item]) -> RowRefs<'_> {
        let mut side = RowRefs::with_capacity(items.len());
        for item in items {
            side.push(self.row(item.row), self.norms[item.row]);
        }
        side
    }

    /// Heap bytes: the base references, the fused rows and every norm.
    fn approx_bytes(&self) -> usize {
        self.base.capacity() * std::mem::size_of::<&[f32]>()
            + (self.fused.capacity() + self.norms.capacity()) * std::mem::size_of::<f32>()
    }
}

/// The representative of an item whose members' rows are `points`: their
/// sum, taken in the order given, L2-normalised — the normalised centroid of
/// the members (Algorithm 3). The one rule for a fused item's embedding:
/// the batch merger calls it over a fused item's members in ascending
/// [`EntityId`] order, the online store over a cluster's members in
/// ascending sequence order, which is the same order. A zero sum stays zero.
pub fn representative(dim: usize, points: &[&[f32]]) -> Vec<f32> {
    let mut sum = vec![0.0f32; dim];
    for &point in points {
        for (a, x) in sum.iter_mut().zip(point) {
            *a += *x;
        }
    }
    l2_normalize(&mut sum);
    sum
}

/// Statistics of one two-table merge (used for diagnostics and memory accounting).
#[derive(Debug, Clone, Copy, Default)]
struct MergeStats {
    /// Number of mutual matched pairs found (|P_m| in Algorithm 3).
    matched_pairs: usize,
    /// Peak search memory of the merge: the two sides' row references and
    /// norms plus the join's top-K tables (no row is copied).
    index_bytes: usize,
}

/// What one merge decided, before its output table is assembled: the item
/// groups (indexes into the left items, then the right ones), the members
/// (ascending) and rows of its fused groups in group order, and its
/// statistics.
struct Fusion {
    groups: Vec<Vec<usize>>,
    members: Vec<Vec<(EntityId, usize)>>,
    rows: Vec<f32>,
    norms: Vec<f32>,
    stats: MergeStats,
}

/// Algorithm 3 on two tables, reading the arena: match, union, and compute
/// every fused group's [`representative`] from its members' rows.
fn fuse(arena: &Arena<'_>, left: &[Item], right: &[Item], config: &MultiEmConfig) -> Fusion {
    let (matches, index_bytes) = if left.is_empty() || right.is_empty() {
        (Vec::new(), 0)
    } else {
        let (rows_l, rows_r) = (arena.side(left), arena.side(right));
        let (matches, tables) =
            mutual_top_k_exact(config.merge_metric, &rows_l, &rows_r, config.k, config.m);
        (
            matches,
            rows_l.approx_bytes() + rows_r.approx_bytes() + tables,
        )
    };
    // Transitivity: union matched items (right items are offset by left.len()).
    let mut uf = UnionFind::new(left.len() + right.len());
    for m in &matches {
        uf.union(m.left, left.len() + m.right);
    }
    let groups = uf.groups();
    let item = |i: usize| match i.checked_sub(left.len()) {
        None => &left[i],
        Some(r) => &right[r],
    };
    let (mut members, mut rows, mut norms) = (Vec::new(), Vec::new(), Vec::new());
    for group in groups.iter().filter(|g| g.len() > 1) {
        let mut fused: Vec<(EntityId, usize)> = group
            .iter()
            .flat_map(|&i| item(i).members.iter().copied())
            .collect();
        fused.sort_unstable();
        fused.dedup_by_key(|&mut (id, _)| id);
        let points: Vec<&[f32]> = fused.iter().map(|&(_, row)| arena.row(row)).collect();
        let row = representative(arena.dim, &points);
        norms.push(Metric::squared_norm(&row));
        rows.extend_from_slice(&row);
        members.push(fused);
    }
    Fusion {
        groups,
        members,
        rows,
        norms,
        stats: MergeStats {
            matched_pairs: matches.len(),
            index_bytes,
        },
    }
}

/// The output table of a merge: a carried item moves over by its member
/// list, a fused one gets the next row of the arena, which the merge's
/// fused rows are appended to.
fn assemble(arena: &mut Arena<'_>, left: Vec<Item>, right: Vec<Item>, fusion: Fusion) -> Vec<Item> {
    let mut all: Vec<Item> = left.into_iter().chain(right).collect();
    let mut fused = fusion.members.into_iter().zip(arena.len()..);
    let items = fusion
        .groups
        .iter()
        .map(|group| match group[..] {
            [only] => std::mem::take(&mut all[only]),
            _ => {
                let (members, row) = fused.next().expect("one member list per fused group");
                Item { members, row }
            }
        })
        .collect();
    arena.fused.extend_from_slice(&fusion.rows);
    arena.norms.extend_from_slice(&fusion.norms);
    items
}

/// Outcome of a run of the merging engine.
struct Run {
    items: Vec<Item>,
    levels: usize,
    peak_index_bytes: usize,
    total_matched_pairs: usize,
}

/// Algorithm 2 over tables of items whose rows are in `arena`.
fn run(mut tables: Vec<Vec<Item>>, arena: &mut Arena<'_>, config: &MultiEmConfig) -> Run {
    let mut rng = ChaCha8Rng::seed_from_u64(config.merge_seed);
    let (mut levels, mut peak_index_bytes, mut total_matched_pairs) = (0, 0, 0);

    while tables.len() > 1 {
        levels += 1;
        // Random pairing order (Figure 6(b) shows the result is insensitive to it).
        tables.shuffle(&mut rng);
        let carry = (tables.len() % 2 == 1).then(|| tables.pop()).flatten();
        let mut pairs: Vec<(Vec<Item>, Vec<Item>)> = Vec::with_capacity(tables.len() / 2);
        let mut iter = tables.into_iter();
        while let (Some(a), Some(b)) = (iter.next(), iter.next()) {
            pairs.push((a, b));
        }

        // A level's merges read the arena, one after another (see the module
        // docs); their fused rows are appended after, in pair order.
        let fusions: Vec<Fusion> = pairs
            .iter()
            .map(|(a, b)| fuse(arena, a, b, config))
            .collect();

        tables = Vec::with_capacity(pairs.len() + 1);
        let fused: usize = fusions.iter().map(|f| f.rows.len()).sum();
        arena.fused.reserve_exact(fused);
        for ((a, b), fusion) in pairs.into_iter().zip(fusions) {
            peak_index_bytes = peak_index_bytes.max(fusion.stats.index_bytes);
            total_matched_pairs += fusion.stats.matched_pairs;
            tables.push(assemble(arena, a, b, fusion));
        }
        tables.extend(carry);
    }

    Run {
        items: tables.pop().unwrap_or_default(),
        levels,
        peak_index_bytes,
        total_matched_pairs,
    }
}

/// Base rows and item tables for the engine, from tables with owned rows:
/// every input item's embedding is borrowed as its row.
fn borrow_tables<'t>(
    tables: impl IntoIterator<Item = &'t MergedTable>,
    dim: usize,
) -> (Vec<Vec<Item>>, Arena<'t>) {
    let mut base = Vec::new();
    let items = tables
        .into_iter()
        .map(|table| {
            table
                .items
                .iter()
                .map(|item| {
                    let row = base.len();
                    base.push(item.embedding.as_slice());
                    Item {
                        members: item.members.iter().map(|&id| (id, row)).collect(),
                        row,
                    }
                })
                .collect()
        })
        .collect();
    (items, Arena::new(dim, base))
}

/// Items with owned embeddings, each row copied out of the arena.
fn copy_out(items: Vec<Item>, arena: &Arena<'_>) -> MergedTable {
    let items = items
        .into_iter()
        .map(|item| MergeItem {
            embedding: arena.row(item.row).to_vec(),
            members: item.ids(),
        })
        .collect();
    MergedTable { items }
}

/// Outcome of the hierarchical merging phase.
#[derive(Debug, Clone)]
pub struct HierarchicalMergeOutput {
    /// The final integrated table.
    pub integrated: MergedTable,
    /// Number of hierarchy levels executed (`⌈log2 S⌉` for S source tables).
    pub levels: usize,
    /// Peak search memory across all two-table merges: the two sides' row
    /// references and norms plus the join's top-K tables.
    pub peak_index_bytes: usize,
    /// Total mutual matched pairs across all merges.
    pub total_matched_pairs: usize,
}

/// Table-wise hierarchical merging (Algorithm 2).
///
/// Tables are paired in a seeded random order at every level; each pair is
/// merged by Algorithm 3, one pair after another, until one table remains;
/// two tables are one level of one merge. The input items' embeddings are
/// the run's base rows, and a member's row is the embedding of the input
/// item it came in with: a fused item's embedding is the [`representative`]
/// of those rows, so a multi-member input item counts once per member. Only
/// the integrated table's rows are copied, into its items.
pub fn hierarchical_merge(
    tables: Vec<MergedTable>,
    config: &MultiEmConfig,
    dim: usize,
) -> HierarchicalMergeOutput {
    let (items, mut arena) = borrow_tables(&tables, dim);
    let run = run(items, &mut arena, config);
    HierarchicalMergeOutput {
        integrated: copy_out(run.items, &arena),
        levels: run.levels,
        peak_index_bytes: run.peak_index_bytes,
        total_matched_pairs: run.total_matched_pairs,
    }
}

/// Outcome of [`hierarchical_merge_store`]: the integrated table as member
/// lists. Its rows were the store's and the run's arena, which is gone.
#[derive(Debug, Clone)]
pub struct StoreMergeOutput {
    /// The members of every item of the integrated table.
    pub members: Vec<Vec<EntityId>>,
    /// Number of hierarchy levels executed (`⌈log2 S⌉` for S source tables).
    pub levels: usize,
    /// Peak search memory across all two-table merges: the two sides' row
    /// references and norms plus the join's top-K tables.
    pub peak_index_bytes: usize,
    /// Total mutual matched pairs across all merges.
    pub total_matched_pairs: usize,
    /// Heap bytes of the run's arena at its end: the fused rows, every
    /// row's norm and the references to the store's rows.
    pub arena_bytes: usize,
}

impl StoreMergeOutput {
    /// Items with at least two members, as match tuples.
    pub fn tuples(&self) -> Vec<MatchTuple> {
        self.members
            .iter()
            .filter(|m| m.len() >= 2)
            .map(|m| MatchTuple::new(m.iter().copied()))
            .collect()
    }

    /// Bytes of the integrated table: its member lists and the arena.
    pub fn approx_bytes(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.capacity() * std::mem::size_of::<EntityId>())
            .sum::<usize>()
            + self.arena_bytes
    }
}

/// [`hierarchical_merge`] of `dataset`'s source tables, each entity's row
/// borrowed from `store` rather than copied: the same tables as
/// [`MergedTable::from_source`] gives, the same merges, the same tuples.
/// This is the merging phase of `MultiEm::run`.
pub fn hierarchical_merge_store(
    dataset: &Dataset,
    store: &EmbeddingStore,
    config: &MultiEmConfig,
) -> StoreMergeOutput {
    let mut base = Vec::new();
    let tables = (0..dataset.num_sources() as u32)
        .map(|source| {
            source_rows(dataset, source, store)
                .map(|(id, emb)| {
                    let row = base.len();
                    base.push(emb);
                    Item {
                        members: vec![(id, row)],
                        row,
                    }
                })
                .collect()
        })
        .collect();
    let mut arena = Arena::new(store.dim(), base);
    let run = run(tables, &mut arena, config);
    StoreMergeOutput {
        members: run.items.into_iter().map(Item::ids).collect(),
        levels: run.levels,
        peak_index_bytes: run.peak_index_bytes,
        total_matched_pairs: run.total_matched_pairs,
        arena_bytes: arena.approx_bytes(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::representation::EmbeddingStore;
    use multiem_datagen::{
        CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator,
    };
    use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};

    fn item(id: (u32, u32), emb: Vec<f32>) -> MergeItem {
        let mut e = emb;
        l2_normalize(&mut e);
        MergeItem::singleton(EntityId::new(id.0, id.1), e)
    }

    fn config() -> MultiEmConfig {
        MultiEmConfig {
            m: 0.3,
            ..MultiEmConfig::default()
        }
    }

    /// One merge of two tables: a hierarchical merge of two is one level.
    fn merge_two(
        left: &MergedTable,
        right: &MergedTable,
        config: &MultiEmConfig,
        dim: usize,
    ) -> HierarchicalMergeOutput {
        let out = hierarchical_merge(vec![left.clone(), right.clone()], config, dim);
        assert!(out.levels <= 1);
        out
    }

    #[test]
    fn a_merge_fuses_mutual_neighbors() {
        let left = MergedTable {
            items: vec![
                item((0, 0), vec![1.0, 0.0, 0.0]),
                item((0, 1), vec![0.0, 1.0, 0.0]),
            ],
        };
        let right = MergedTable {
            items: vec![
                item((1, 0), vec![0.99, 0.1, 0.0]),
                item((1, 1), vec![0.0, 0.0, 1.0]),
            ],
        };
        let merged = merge_two(&left, &right, &config(), 3).integrated;
        // (0,0) matches (1,0); the other two stay singletons.
        assert_eq!(merged.len(), 3);
        let tuples = merged.tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(
            tuples[0].members(),
            &[EntityId::new(0, 0), EntityId::new(1, 0)]
        );
    }

    #[test]
    fn distance_threshold_blocks_weak_matches() {
        let left = MergedTable {
            items: vec![item((0, 0), vec![1.0, 0.0])],
        };
        let right = MergedTable {
            items: vec![item((1, 0), vec![0.5, 0.87])],
        };
        let strict = MultiEmConfig {
            m: 0.05,
            ..MultiEmConfig::default()
        };
        let merged = merge_two(&left, &right, &strict, 2).integrated;
        assert!(merged.tuples().is_empty());
        let loose = MultiEmConfig {
            m: 0.9,
            ..MultiEmConfig::default()
        };
        let merged = merge_two(&left, &right, &loose, 2).integrated;
        assert_eq!(merged.tuples().len(), 1);
    }

    #[test]
    fn merging_empty_tables_is_identity() {
        let left = MergedTable {
            items: vec![item((0, 0), vec![1.0, 0.0])],
        };
        let empty = MergedTable::default();
        let merged = merge_two(&left, &empty, &config(), 2).integrated;
        assert_eq!(merged.len(), 1);
        let merged = merge_two(&empty, &left, &config(), 2).integrated;
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn merged_item_centroid_is_normalised_mean() {
        let left = MergedTable {
            items: vec![item((0, 0), vec![1.0, 0.0])],
        };
        let right = MergedTable {
            items: vec![item((1, 0), vec![1.0, 0.02])],
        };
        let merged = merge_two(&left, &right, &config(), 2).integrated;
        let fused = merged.items.iter().find(|i| i.len() == 2).unwrap();
        let norm: f32 = fused.embedding.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
        // Centroid points between the two inputs (dominant first axis).
        assert!(fused.embedding[0] > 0.9);
    }

    /// Every fused item of a run over [`MergedTable::from_source`] tables
    /// is the [`representative`] of its members' store rows, in ascending id
    /// order, bit for bit: the rule the online store applies to a cluster.
    /// Items of three or more members are where a mean of the fused items'
    /// embeddings weighted by their sizes would differ, so the run must have
    /// some.
    #[test]
    fn a_fused_item_is_the_representative_of_its_members_store_rows() {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let ds = MultiSourceGenerator::new(GeneratorConfig::small_test("merge-par", 4))
            .generate(factory.as_ref(), &corruptor);
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig {
            m: 0.4,
            ..MultiEmConfig::default()
        };
        let store = EmbeddingStore::build(&ds, &encoder, &[2, 4, 5], &config);
        let tables = (0..ds.num_sources() as u32)
            .map(|s| MergedTable::from_source(&ds, s, &store))
            .collect();
        let out = hierarchical_merge(tables, &config, encoder.dim());
        let bits = |xs: &[f32]| -> Vec<u32> { xs.iter().map(|x| x.to_bits()).collect() };
        let mut wide = 0;
        for item in out.integrated.items.iter().filter(|i| i.len() >= 2) {
            let rows: Vec<&[f32]> = item.members.iter().map(|&id| store.embedding(id)).collect();
            let want = representative(store.dim(), &rows);
            assert_eq!(bits(&item.embedding), bits(&want), "{:?}", item.members);
            wide += usize::from(item.len() >= 3);
        }
        assert!(wide >= 5, "{wide} items of three or more members");
    }

    #[test]
    fn hierarchical_merge_handles_odd_table_counts() {
        // Three tables, each holding the same real-world entity -> one 3-tuple.
        let t = |s: u32| MergedTable {
            items: vec![item((s, 0), vec![1.0, 0.0, 0.0])],
        };
        let out = hierarchical_merge(vec![t(0), t(1), t(2)], &config(), 3);
        assert_eq!(out.integrated.len(), 1);
        assert_eq!(out.integrated.items[0].len(), 3);
        assert_eq!(out.levels, 2);
    }

    #[test]
    fn transitive_merging_builds_multi_source_tuples() {
        // Entity appears in 4 sources with slightly different embeddings.
        let mk = |s: u32, eps: f32| item((s, 0), vec![1.0, eps, 0.0]);
        let tables = vec![
            MergedTable {
                items: vec![mk(0, 0.00)],
            },
            MergedTable {
                items: vec![mk(1, 0.02)],
            },
            MergedTable {
                items: vec![mk(2, 0.04)],
            },
            MergedTable {
                items: vec![mk(3, 0.06)],
            },
        ];
        let out = hierarchical_merge(tables, &config(), 3);
        let tuples = out.integrated.tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].len(), 4);
        assert_eq!(out.levels, 2);
        assert!(out.total_matched_pairs >= 3);
    }

    #[test]
    fn merge_order_seed_changes_pairing_but_not_drastically_results() {
        let mk = |s: u32, eps: f32| item((s, 0), vec![1.0, eps]);
        let tables: Vec<MergedTable> = (0..4)
            .map(|s| MergedTable {
                items: vec![mk(s, s as f32 * 0.01)],
            })
            .collect();
        let a = hierarchical_merge(
            tables.clone(),
            &MultiEmConfig {
                merge_seed: 0,
                ..config()
            },
            2,
        );
        let b = hierarchical_merge(
            tables,
            &MultiEmConfig {
                merge_seed: 3,
                ..config()
            },
            2,
        );
        assert_eq!(a.integrated.tuples(), b.integrated.tuples());
    }

    #[test]
    fn from_source_skips_zero_embeddings() {
        use multiem_table::{Record, Schema, Table, Value};
        let schema = Schema::new(["title"]).shared();
        let mut ds = Dataset::new("zeros", schema.clone());
        let t1 = Table::with_records(
            "a",
            schema.clone(),
            vec![
                Record::new(vec![Value::Text("real item".into())]),
                Record::new(vec![Value::Null]),
            ],
        )
        .unwrap();
        let t2 = Table::with_records("b", schema.clone(), vec![Record::from_texts(["real item"])])
            .unwrap();
        ds.add_table(t1).unwrap();
        ds.add_table(t2).unwrap();
        let encoder = HashedLexicalEncoder::default();
        let cfg = MultiEmConfig::default();
        let store = EmbeddingStore::build(&ds, &encoder, &[0], &cfg);
        let table = MergedTable::from_source(&ds, 0, &store);
        assert_eq!(table.len(), 1, "null-text entity must be skipped");
        assert!(table.approx_bytes() > 0);
    }

    /// A merge's search memory is norms, row references and top-K tables,
    /// which do not grow with the rows: the same rows with zeros appended
    /// cost the same.
    #[test]
    fn a_merge_copies_no_row() {
        use rand::Rng;
        let dim = 16;
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let centres: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        // Row `i` of a table lies near centre `i % 8`.
        let mut table = |source: u32, n: usize| MergedTable {
            items: (0..n)
                .map(|row| {
                    let centre = &centres[row % centres.len()];
                    let noisy = centre
                        .iter()
                        .map(|x| x + rng.gen_range(-0.05f32..0.05))
                        .collect();
                    item((source, row as u32), noisy)
                })
                .collect(),
        };
        let (small, large, other) = (table(0, 6), table(1, 30), table(2, 30));
        // The same rows with zeros appended: the same norms and distances,
        // four times the floats.
        let padded = |t: &MergedTable| MergedTable {
            items: t
                .items
                .iter()
                .map(|i| MergeItem {
                    members: i.members.clone(),
                    embedding: [i.embedding.as_slice(), &[0.0; 48]].concat(),
                })
                .collect(),
        };
        for (left, right) in [(&small, &large), (&large, &small), (&large, &other)] {
            let exact = merge_two(left, right, &config(), dim);
            assert!(!exact.integrated.tuples().is_empty());
            assert!(exact.peak_index_bytes > 0);
            let wide = merge_two(&padded(left), &padded(right), &config(), 64);
            assert_eq!(
                exact.peak_index_bytes, wide.peak_index_bytes,
                "a row was copied"
            );
        }
    }

    /// One input the pinned digests are taken over.
    pub(crate) struct PinnedCase {
        pub name: &'static str,
        pub dataset: Dataset,
        pub config: MultiEmConfig,
        /// The attributes the case's embedding store is built from.
        pub selected: Vec<usize>,
        /// Whether the case runs inside a one-thread pool rather than at the
        /// machine's width.
        pub one_thread: bool,
    }

    impl PinnedCase {
        /// `op`, on the threads this case runs on.
        pub fn run<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
            if self.one_thread {
                rayon::ThreadPool::new(1).install(op)
            } else {
                op()
            }
        }
    }

    /// The merge inputs the pinned digests are taken over: `small_test`
    /// music at the machine's width and on one thread, `small_test` geo, and
    /// `music-20` at 0.05 with the default config.
    pub(crate) fn pinned_cases() -> Vec<PinnedCase> {
        let small = |domain: Domain, name: &str| {
            let factory = domain.factory();
            let corruptor = Corruptor::new(CorruptionConfig::light());
            MultiSourceGenerator::new(GeneratorConfig::small_test(name, 4))
                .generate(factory.as_ref(), &corruptor)
        };
        let music = small(Domain::Music, "merge-par");
        let geo = small(Domain::Geo, "geo-backend");
        let preset = multiem_datagen::benchmark_dataset("music-20", 0.05)
            .unwrap()
            .dataset;
        let base = MultiEmConfig {
            m: 0.4,
            ..MultiEmConfig::default()
        };
        let case = |name, dataset, config, selected: &[usize], one_thread| PinnedCase {
            name,
            dataset,
            config,
            selected: selected.to_vec(),
            one_thread,
        };
        vec![
            case("music", music.clone(), base.clone(), &[2, 4, 5], false),
            case("music, one thread", music, base.clone(), &[2, 4, 5], true),
            case("geo", geo, base, &[0], false),
            case(
                "music-20 0.05",
                preset,
                MultiEmConfig::default(),
                &[2, 4, 5],
                false,
            ),
        ]
    }

    /// FNV-1a over every item of an integrated table, sorted by members:
    /// each member's source and row, then each embedding bit.
    fn digest(items: &[MergeItem]) -> u64 {
        let mut sorted: Vec<&MergeItem> = items.iter().collect();
        sorted.sort_by(|a, b| a.members.cmp(&b.members));
        let mut bytes = Vec::new();
        for item in sorted {
            bytes.extend_from_slice(&(item.members.len() as u32).to_le_bytes());
            for id in &item.members {
                bytes.extend_from_slice(&id.source.to_le_bytes());
                bytes.extend_from_slice(&id.row.to_le_bytes());
            }
            for x in &item.embedding {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        multiem_embed::hashing::fnv1a64(&bytes)
    }

    /// Every member and every embedding bit of `hierarchical_merge`'s
    /// integrated table, on each pinned case: a fused item's embedding is
    /// the [`representative`] of its members' store rows.
    #[test]
    fn merge_output_is_pinned() {
        let encoder = HashedLexicalEncoder::default();
        let mut found = Vec::new();
        for case in pinned_cases() {
            let (ds, config) = (&case.dataset, &case.config);
            let (hash, matched_pairs) = case.run(|| {
                let store = EmbeddingStore::build(ds, &encoder, &case.selected, config);
                let tables: Vec<MergedTable> = (0..ds.num_sources() as u32)
                    .map(|s| MergedTable::from_source(ds, s, &store))
                    .collect();
                let out = hierarchical_merge(tables, config, encoder.dim());
                (digest(&out.integrated.items), out.total_matched_pairs)
            });
            found.push((case.name, hash, matched_pairs));
        }
        let expected = [
            ("music", 0xc89b_797f_87b9_9bb1, 60),
            ("music, one thread", 0xc89b_797f_87b9_9bb1, 60),
            ("geo", 0x7e17_bde4_10fa_a8d4, 59),
            ("music-20 0.05", 0x1ee0_c094_1248_1d00, 457),
        ];
        assert_eq!(found, expected);
    }
}
