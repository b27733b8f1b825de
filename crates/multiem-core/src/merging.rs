//! Table-wise Hierarchical Merging (Section III-C, Algorithms 2 and 3).
//!
//! The merging phase operates on *merged tables* whose items are either single
//! entities or tuples produced by earlier merges. One two-table merge step
//! (Algorithm 3):
//!
//! 1. builds an ANN index over each table's item embeddings, both on the
//!    backend the *smaller* table's size selects: a merge is approximate only
//!    when both tables are past `hnsw_threshold`, because a join with an
//!    exact side scores every pair of the two tables anyway,
//! 2. finds all **mutual top-K** item pairs with distance ≤ `m` (Eq. 1),
//! 3. fuses matched items through transitivity (union-find) into new items,
//!    carrying every unmatched item into the output table unchanged.
//!
//! Hierarchical merging (Algorithm 2) repeatedly pairs up the current tables
//! (in a seeded random order) and merges each pair — in parallel when
//! requested — until a single integrated table remains. Matched tuples are the
//! multi-member items of that final table.

use crate::config::MultiEmConfig;
use multiem_ann::{mutual_top_k, AnnIndex, DynamicVectorIndex, VectorIndex};
use multiem_cluster::UnionFind;
use multiem_embed::l2_normalize;
use multiem_table::{Dataset, EntityId, MatchTuple};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::representation::EmbeddingStore;

/// One item of a merged table: a set of entities believed to co-refer, plus a
/// representative embedding (the normalised centroid of its members).
#[derive(Debug, Clone)]
pub struct MergeItem {
    /// The entities merged into this item so far.
    pub members: Vec<EntityId>,
    /// Normalised centroid embedding used for subsequent merges.
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

/// A table in the hierarchical-merging lattice.
#[derive(Debug, Clone, Default)]
pub struct MergedTable {
    /// The items of the table.
    pub items: Vec<MergeItem>,
}

impl MergedTable {
    /// Build the level-0 merged table for one source table: one singleton item
    /// per entity, skipping entities whose serialized text was empty (zero
    /// embeddings would otherwise produce spurious mutual matches).
    pub fn from_source(dataset: &Dataset, source: u32, store: &EmbeddingStore) -> Self {
        let table = &dataset.tables()[source as usize];
        let mut items = Vec::with_capacity(table.len());
        for (row, _) in table.iter() {
            let id = EntityId::new(source, row);
            let emb = store.embedding(id);
            if emb.iter().all(|&x| x == 0.0) {
                continue;
            }
            items.push(MergeItem::singleton(id, emb.to_vec()));
        }
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

/// Index one table's item embeddings, on the backend `config` selects for a
/// merge whose smaller table holds `smaller` items. Both sides of a merge are
/// built with the same `smaller`: with one exact side, `mutual_top_k` scans
/// it once per row of the other, which scores all |A|×|B| pairs — exactly the
/// distances its one-pass exact join needs for both directions — so an HNSW
/// graph on the other side would be built for nothing.
fn index_items(
    items: &[MergeItem],
    smaller: usize,
    config: &MultiEmConfig,
    dim: usize,
) -> AnnIndex {
    let mut index = config.index_for(smaller, dim);
    index.reserve(items.len());
    for item in items {
        index.insert(&item.embedding);
    }
    index
}

fn centroid(members: &[&MergeItem], dim: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    let mut total = 0usize;
    for item in members {
        let w = item.members.len();
        total += w;
        for (a, x) in acc.iter_mut().zip(&item.embedding) {
            *a += *x * w as f32;
        }
    }
    if total > 0 {
        let inv = 1.0 / total as f32;
        for a in acc.iter_mut() {
            *a *= inv;
        }
    }
    l2_normalize(&mut acc);
    acc
}

/// Statistics of one two-table merge (used for diagnostics and memory accounting).
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeStats {
    /// Number of mutual matched pairs found (|P_m| in Algorithm 3).
    pub matched_pairs: usize,
    /// Bytes used by the two ANN indexes.
    pub index_bytes: usize,
}

/// Merge two tables (Algorithm 3). Returns the merged table and statistics.
pub fn two_table_merge_with_stats(
    left: &MergedTable,
    right: &MergedTable,
    config: &MultiEmConfig,
    dim: usize,
) -> (MergedTable, MergeStats) {
    if left.is_empty() {
        return (right.clone(), MergeStats::default());
    }
    if right.is_empty() {
        return (left.clone(), MergeStats::default());
    }

    let smaller = left.len().min(right.len());
    let left_index = index_items(&left.items, smaller, config, dim);
    let right_index = index_items(&right.items, smaller, config, dim);
    let left_vecs: Vec<&[f32]> = left.items.iter().map(|i| i.embedding.as_slice()).collect();
    let right_vecs: Vec<&[f32]> = right.items.iter().map(|i| i.embedding.as_slice()).collect();

    let matches = mutual_top_k(
        &left_index,
        &right_index,
        &left_vecs,
        &right_vecs,
        config.k,
        config.m,
    );
    let stats = MergeStats {
        matched_pairs: matches.len(),
        index_bytes: left_index.approx_bytes() + right_index.approx_bytes(),
    };

    // Transitivity: union matched items (right items are offset by left.len()).
    let n_left = left.len();
    let mut uf = UnionFind::new(n_left + right.len());
    for m in &matches {
        uf.union(m.left, n_left + m.right);
    }

    let all_items: Vec<&MergeItem> = left.items.iter().chain(right.items.iter()).collect();
    let mut merged_items = Vec::with_capacity(all_items.len());
    for group in uf.groups() {
        if group.len() == 1 {
            merged_items.push(all_items[group[0]].clone());
        } else {
            let members_items: Vec<&MergeItem> = group.iter().map(|&i| all_items[i]).collect();
            let mut members: Vec<EntityId> = members_items
                .iter()
                .flat_map(|i| i.members.iter().copied())
                .collect();
            members.sort_unstable();
            members.dedup();
            let embedding = centroid(&members_items, dim);
            merged_items.push(MergeItem { members, embedding });
        }
    }
    (
        MergedTable {
            items: merged_items,
        },
        stats,
    )
}

/// Merge two tables (Algorithm 3).
pub fn two_table_merge(
    left: &MergedTable,
    right: &MergedTable,
    config: &MultiEmConfig,
    dim: usize,
) -> MergedTable {
    two_table_merge_with_stats(left, right, config, dim).0
}

/// Outcome of the hierarchical merging phase.
#[derive(Debug, Clone)]
pub struct HierarchicalMergeOutput {
    /// The final integrated table.
    pub integrated: MergedTable,
    /// Number of hierarchy levels executed (`⌈log2 S⌉` for S source tables).
    pub levels: usize,
    /// Peak index bytes observed across all two-table merges.
    pub peak_index_bytes: usize,
    /// Total mutual matched pairs across all merges.
    pub total_matched_pairs: usize,
}

/// Table-wise hierarchical merging (Algorithm 2).
///
/// Tables are paired in a seeded random order at every level; each pair is
/// merged with [`two_table_merge`], sequentially or in parallel according to
/// `config.parallel`, until one table remains.
pub fn hierarchical_merge(
    mut tables: Vec<MergedTable>,
    config: &MultiEmConfig,
    dim: usize,
) -> HierarchicalMergeOutput {
    let mut rng = ChaCha8Rng::seed_from_u64(config.merge_seed);
    let mut levels = 0usize;
    let mut peak_index_bytes = 0usize;
    let mut total_matched_pairs = 0usize;

    while tables.len() > 1 {
        levels += 1;
        // Random pairing order (Figure 6(b) shows the result is insensitive to it).
        tables.shuffle(&mut rng);

        let mut pairs: Vec<(MergedTable, MergedTable)> = Vec::with_capacity(tables.len() / 2);
        let mut carry: Option<MergedTable> = None;
        let mut iter = tables.into_iter();
        loop {
            match (iter.next(), iter.next()) {
                (Some(a), Some(b)) => pairs.push((a, b)),
                (Some(a), None) => {
                    carry = Some(a);
                    break;
                }
                _ => break,
            }
        }

        let merge_one =
            |(a, b): &(MergedTable, MergedTable)| two_table_merge_with_stats(a, b, config, dim);
        let results: Vec<(MergedTable, MergeStats)> = if config.parallel {
            pairs.par_iter().map(merge_one).collect()
        } else {
            pairs.iter().map(merge_one).collect()
        };

        let mut next_level: Vec<MergedTable> = Vec::with_capacity(results.len() + 1);
        for (table, stats) in results {
            peak_index_bytes = peak_index_bytes.max(stats.index_bytes);
            total_matched_pairs += stats.matched_pairs;
            next_level.push(table);
        }
        if let Some(c) = carry {
            next_level.push(c);
        }
        tables = next_level;
    }

    HierarchicalMergeOutput {
        integrated: tables.pop().unwrap_or_default(),
        levels,
        peak_index_bytes,
        total_matched_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexBackend;
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

    #[test]
    fn two_table_merge_fuses_mutual_neighbors() {
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
        let merged = two_table_merge(&left, &right, &config(), 3);
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
        let merged = two_table_merge(&left, &right, &strict, 2);
        assert!(merged.tuples().is_empty());
        let loose = MultiEmConfig {
            m: 0.9,
            ..MultiEmConfig::default()
        };
        let merged = two_table_merge(&left, &right, &loose, 2);
        assert_eq!(merged.tuples().len(), 1);
    }

    #[test]
    fn merging_empty_tables_is_identity() {
        let left = MergedTable {
            items: vec![item((0, 0), vec![1.0, 0.0])],
        };
        let empty = MergedTable::default();
        let merged = two_table_merge(&left, &empty, &config(), 2);
        assert_eq!(merged.len(), 1);
        let merged = two_table_merge(&empty, &left, &config(), 2);
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
        let merged = two_table_merge(&left, &right, &config(), 2);
        let fused = merged.items.iter().find(|i| i.len() == 2).unwrap();
        let norm: f32 = fused.embedding.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
        // Centroid points between the two inputs (dominant first axis).
        assert!(fused.embedding[0] > 0.9);
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
    fn parallel_and_sequential_agree() {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let gen_cfg = GeneratorConfig::small_test("merge-par", 4);
        let ds = MultiSourceGenerator::new(gen_cfg).generate(factory.as_ref(), &corruptor);
        let encoder = HashedLexicalEncoder::default();
        let selected = vec![2, 4, 5];
        let cfg_seq = MultiEmConfig {
            m: 0.4,
            parallel: false,
            ..MultiEmConfig::default()
        };
        let cfg_par = MultiEmConfig {
            m: 0.4,
            parallel: true,
            ..MultiEmConfig::default()
        };
        let store = EmbeddingStore::build(&ds, &encoder, &selected, &cfg_seq);
        let tables: Vec<MergedTable> = (0..ds.num_sources() as u32)
            .map(|s| MergedTable::from_source(&ds, s, &store))
            .collect();

        let seq = hierarchical_merge(tables.clone(), &cfg_seq, encoder.dim());
        let par = hierarchical_merge(tables, &cfg_par, encoder.dim());
        let mut seq_tuples = seq.integrated.tuples();
        let mut par_tuples = par.integrated.tuples();
        seq_tuples.sort();
        par_tuples.sort();
        assert_eq!(seq_tuples, par_tuples);
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

    #[test]
    fn a_merge_with_a_side_below_the_threshold_builds_no_graph_and_answers_as_the_exact_merge() {
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
        let auto = MultiEmConfig {
            hnsw_threshold: 10,
            ..config()
        };
        let brute = MultiEmConfig {
            index_backend: IndexBackend::BruteForce,
            ..auto.clone()
        };
        let brute_bytes = |t: &MergedTable| {
            let mut index = AnnIndex::new(dim, auto.merge_metric, None);
            index.reserve(t.len());
            for item in &t.items {
                index.insert(&item.embedding);
            }
            index.approx_bytes()
        };
        let bits =
            |i: &MergeItem| -> Vec<u32> { i.embedding.iter().map(|x| x.to_bits()).collect() };

        for (left, right) in [(&small, &large), (&large, &small)] {
            let (merged, stats) = two_table_merge_with_stats(left, right, &auto, dim);
            assert_eq!(
                stats.index_bytes,
                brute_bytes(left) + brute_bytes(right),
                "6 rows against 30 must index both sides exactly"
            );
            let exact = two_table_merge(left, right, &brute, dim);
            assert!(!exact.tuples().is_empty());
            assert_eq!(merged.len(), exact.len());
            for (a, b) in merged.items.iter().zip(&exact.items) {
                assert_eq!(a.members, b.members);
                assert_eq!(bits(a), bits(b));
            }
        }

        // Both sides past the threshold: graphs are still built.
        let (_, stats) = two_table_merge_with_stats(&large, &other, &auto, dim);
        assert!(stats.index_bytes > brute_bytes(&large) + brute_bytes(&other));
    }

    #[test]
    fn hnsw_backend_produces_same_tuples_as_brute_force_on_small_data() {
        let factory = Domain::Geo.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let ds = MultiSourceGenerator::new(GeneratorConfig::small_test("geo-backend", 4))
            .generate(factory.as_ref(), &corruptor);
        let encoder = HashedLexicalEncoder::default();
        let selected = vec![0];
        let brute_cfg = MultiEmConfig {
            index_backend: IndexBackend::BruteForce,
            m: 0.4,
            ..MultiEmConfig::default()
        };
        let hnsw_cfg = MultiEmConfig {
            index_backend: IndexBackend::Hnsw,
            m: 0.4,
            ..MultiEmConfig::default()
        };
        let store = EmbeddingStore::build(&ds, &encoder, &selected, &brute_cfg);
        let tables: Vec<MergedTable> = (0..ds.num_sources() as u32)
            .map(|s| MergedTable::from_source(&ds, s, &store))
            .collect();
        let brute = hierarchical_merge(tables.clone(), &brute_cfg, encoder.dim());
        let hnsw = hierarchical_merge(tables, &hnsw_cfg, encoder.dim());
        let mut bt = brute.integrated.tuples();
        let mut ht = hnsw.integrated.tuples();
        bt.sort();
        ht.sort();
        // HNSW is approximate but on this scale the overlap should be near-total.
        let bt_set: std::collections::BTreeSet<_> = bt.iter().collect();
        let overlap = ht.iter().filter(|t| bt_set.contains(t)).count();
        assert!(
            overlap as f64 >= 0.9 * bt.len() as f64,
            "overlap {overlap} of {}",
            bt.len()
        );
    }
}
