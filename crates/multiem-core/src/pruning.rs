//! Density-based Pruning (Section III-D, Algorithm 4).
//!
//! Hierarchical merging only ever looks at the two tables currently being
//! merged, so a tuple can accumulate an entity that is close to *one* member
//! but far from the group as a whole (Figure 4). The pruning phase fixes this
//! per tuple: members are classified into core / reachable / outlier entities
//! with DBSCAN-style density definitions over the **original entity
//! embeddings** (Euclidean distance in the paper), outliers are removed, and
//! the tuple survives only if at least two members remain.
//!
//! Each tuple is pruned independently, so the phase parallelises trivially
//! (Section III-E).

use crate::config::MultiEmConfig;
use crate::merging::MergedTable;
use crate::representation::EmbeddingStore;
use multiem_cluster::{classify_points, DbscanConfig, PointClass};
use multiem_table::{EntityId, MatchTuple};
use rayon::prelude::*;

/// The result of pruning one merged item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneOutcome {
    /// Members kept (core + reachable entities).
    pub kept: Vec<EntityId>,
    /// Members removed as outliers.
    pub removed: Vec<EntityId>,
}

impl PruneOutcome {
    /// Whether the pruned item still forms a valid matched tuple (≥ 2 members).
    pub fn is_tuple(&self) -> bool {
        self.kept.len() >= 2
    }

    /// The surviving tuple, if any.
    pub fn tuple(&self) -> Option<MatchTuple> {
        if self.is_tuple() {
            Some(MatchTuple::new(self.kept.iter().copied()))
        } else {
            None
        }
    }
}

/// Prune a single data item `x = {e_1, ..., e_u}` (Algorithm 4 plus removal).
pub fn prune_item(
    members: &[EntityId],
    store: &EmbeddingStore,
    config: &MultiEmConfig,
) -> PruneOutcome {
    let points: Vec<&[f32]> = members.iter().map(|&id| store.embedding(id)).collect();
    let (kept, removed) = prune_points(&points, config);
    PruneOutcome {
        kept: kept.into_iter().map(|i| members[i]).collect(),
        removed: removed.into_iter().map(|i| members[i]).collect(),
    }
}

/// Algorithm 4 over raw embedding points, returning `(kept, removed)` index
/// sets. This is the storage-agnostic core of [`prune_item`]: callers that
/// do not keep a resident [`EmbeddingStore`] (the online store's
/// spill-to-disk backend) fetch member embeddings themselves and prune the
/// points directly.
pub fn prune_points(points: &[&[f32]], config: &MultiEmConfig) -> (Vec<usize>, Vec<usize>) {
    if points.len() < 2 {
        return ((0..points.len()).collect(), Vec::new());
    }
    let dbscan = DbscanConfig {
        eps: config.epsilon,
        min_pts: config.min_pts,
        metric: config.prune_metric,
    };
    let classes = classify_points(points, &dbscan);
    let mut kept = Vec::with_capacity(points.len());
    let mut removed = Vec::new();
    for (i, class) in classes.iter().enumerate() {
        match class {
            PointClass::Core | PointClass::Reachable => kept.push(i),
            PointClass::Outlier => removed.push(i),
        }
    }
    (kept, removed)
}

/// Summary of pruning an entire merged table.
#[derive(Debug, Clone, Default)]
pub struct PruneSummary {
    /// Final matched tuples (after outlier removal).
    pub tuples: Vec<MatchTuple>,
    /// Total number of entities removed as outliers.
    pub outliers_removed: usize,
    /// Number of candidate tuples that collapsed below two members.
    pub tuples_dropped: usize,
}

/// Prune every multi-member item of the integrated table.
///
/// Runs in parallel over items when `config.parallel` is set.
pub fn prune_merged_table(
    table: &MergedTable,
    store: &EmbeddingStore,
    config: &MultiEmConfig,
) -> PruneSummary {
    prune_members(
        table.items.iter().map(|item| item.members.as_slice()),
        store,
        config,
    )
}

/// Prune every member list of at least two entities (Algorithm 4 per list);
/// the shorter ones are not tuples and are skipped. This is the pruning
/// phase over an integrated table given as member lists, which is how
/// `MultiEm::run` holds it.
///
/// Runs in parallel over lists when `config.parallel` is set.
pub fn prune_members<'a>(
    lists: impl IntoIterator<Item = &'a [EntityId]>,
    store: &EmbeddingStore,
    config: &MultiEmConfig,
) -> PruneSummary {
    let candidates: Vec<&[EntityId]> = lists.into_iter().filter(|m| m.len() >= 2).collect();

    let outcomes: Vec<PruneOutcome> = if config.parallel {
        candidates
            .par_iter()
            .map(|members| prune_item(members, store, config))
            .collect()
    } else {
        candidates
            .iter()
            .map(|members| prune_item(members, store, config))
            .collect()
    };

    let mut summary = PruneSummary::default();
    for outcome in outcomes {
        summary.outliers_removed += outcome.removed.len();
        match outcome.tuple() {
            Some(t) => summary.tuples.push(t),
            None => summary.tuples_dropped += 1,
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merging::{MergeItem, MergedTable};
    use crate::representation::EmbeddingStore;
    use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};
    use multiem_table::{Dataset, Record, Schema, Table};

    /// Build a dataset whose entity embeddings we can reason about: each
    /// record's text controls its position in embedding space.
    fn dataset_with_titles(titles_per_source: &[Vec<&str>]) -> (Dataset, EmbeddingStore) {
        let schema = Schema::new(["title"]).shared();
        let mut ds = Dataset::new("prune-test", schema.clone());
        for (s, titles) in titles_per_source.iter().enumerate() {
            let records: Vec<Record> = titles.iter().map(|t| Record::from_texts([*t])).collect();
            ds.add_table(Table::with_records(format!("s{s}"), schema.clone(), records).unwrap())
                .unwrap();
        }
        let encoder = HashedLexicalEncoder::default();
        let cfg = MultiEmConfig::default();
        let store = EmbeddingStore::build(&ds, &encoder, &[0], &cfg);
        (ds, store)
    }

    fn id(s: u32, r: u32) -> EntityId {
        EntityId::new(s, r)
    }

    #[test]
    fn outlier_member_is_removed() {
        // Three near-identical titles plus one completely different product.
        let (_ds, store) = dataset_with_titles(&[
            vec!["apple iphone 8 plus 64gb silver"],
            vec!["apple iphone 8 plus 64gb silver unlocked"],
            vec!["apple iphone 8 plus 5.5 64gb silver"],
            vec!["makita cordless drill 18v kit"],
        ]);
        let members = vec![id(0, 0), id(1, 0), id(2, 0), id(3, 0)];
        let config = MultiEmConfig {
            epsilon: 0.8,
            min_pts: 2,
            ..MultiEmConfig::default()
        };
        let outcome = prune_item(&members, &store, &config);
        assert_eq!(outcome.removed, vec![id(3, 0)]);
        assert_eq!(outcome.kept.len(), 3);
        assert!(outcome.is_tuple());
        assert_eq!(outcome.tuple().unwrap().len(), 3);
    }

    #[test]
    fn coherent_tuple_is_untouched() {
        let (_ds, store) = dataset_with_titles(&[
            vec!["golden heart river"],
            vec!["golden heart river live"],
            vec!["golden heart river remastered"],
        ]);
        let members = vec![id(0, 0), id(1, 0), id(2, 0)];
        let config = MultiEmConfig {
            epsilon: 1.0,
            min_pts: 2,
            ..MultiEmConfig::default()
        };
        let outcome = prune_item(&members, &store, &config);
        assert!(outcome.removed.is_empty());
        assert_eq!(outcome.kept.len(), 3);
    }

    #[test]
    fn pair_of_dissimilar_entities_is_dropped_entirely() {
        let (_ds, store) = dataset_with_titles(&[
            vec!["apple iphone 8 plus"],
            vec!["bosch washing machine 8kg"],
        ]);
        let members = vec![id(0, 0), id(1, 0)];
        let config = MultiEmConfig {
            epsilon: 0.5,
            min_pts: 2,
            ..MultiEmConfig::default()
        };
        let outcome = prune_item(&members, &store, &config);
        assert!(!outcome.is_tuple());
        assert!(outcome.tuple().is_none());
        assert_eq!(outcome.kept.len() + outcome.removed.len(), 2);
    }

    #[test]
    fn singleton_items_pass_through() {
        let (_ds, store) = dataset_with_titles(&[vec!["lonely star anthem"]]);
        let members = vec![id(0, 0)];
        let outcome = prune_item(&members, &store, &MultiEmConfig::default());
        assert_eq!(outcome.kept, members);
        assert!(outcome.removed.is_empty());
        assert!(!outcome.is_tuple());
    }

    #[test]
    fn epsilon_controls_strictness() {
        let (_ds, store) = dataset_with_titles(&[
            vec!["crimson shadow ballad"],
            vec!["crimson shadow ballad deluxe edition bonus"],
        ]);
        let members = vec![id(0, 0), id(1, 0)];
        let strict = MultiEmConfig {
            epsilon: 0.1,
            min_pts: 2,
            ..MultiEmConfig::default()
        };
        let loose = MultiEmConfig {
            epsilon: 1.2,
            min_pts: 2,
            ..MultiEmConfig::default()
        };
        assert!(!prune_item(&members, &store, &strict).is_tuple());
        assert!(prune_item(&members, &store, &loose).is_tuple());
    }

    #[test]
    fn prune_merged_table_summary_counts() {
        let (_ds, store) = dataset_with_titles(&[
            vec!["apple iphone 8 plus 64gb", "sony bravia tv 55"],
            vec!["apple iphone 8 plus 64 gb", "logitech webcam hd"],
            vec!["apple iphone 8 64gb plus", "dyson vacuum v11"],
        ]);
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig {
            epsilon: 0.8,
            min_pts: 2,
            ..MultiEmConfig::default()
        };
        let good = MergeItem {
            members: vec![id(0, 0), id(1, 0), id(2, 0)],
            embedding: vec![0.0; encoder.dim()],
        };
        // A bogus tuple of three unrelated products: everything is an outlier.
        let bad = MergeItem {
            members: vec![id(0, 1), id(1, 1), id(2, 1)],
            embedding: vec![0.0; encoder.dim()],
        };
        let singleton = MergeItem {
            members: vec![id(0, 1)],
            embedding: vec![0.0; encoder.dim()],
        };
        let table = MergedTable {
            items: vec![good, bad, singleton],
        };
        let summary = prune_merged_table(&table, &store, &config);
        assert_eq!(summary.tuples.len(), 1);
        assert_eq!(summary.tuples[0].len(), 3);
        assert_eq!(summary.tuples_dropped, 1);
        assert!(summary.outliers_removed >= 2);
    }

    /// Two unit vectors at cosine distance `d` (up to rounding), drawn from
    /// `seed`: `a` at random, `b` rotated off it towards a random direction
    /// orthogonal to `a`.
    fn unit_pair(seed: u64, d: f32) -> (Vec<f32>, Vec<f32>) {
        use multiem_embed::hashing::splitmix64;
        use multiem_embed::l2_normalize;
        let mut state = seed;
        let mut draw = || -> Vec<f32> {
            (0..64)
                .map(|_| (splitmix64(&mut state) >> 40) as f32 / (1u32 << 24) as f32 - 0.5)
                .collect()
        };
        let mut a = draw();
        l2_normalize(&mut a);
        let mut u = draw();
        let along: f32 = a.iter().zip(&u).map(|(x, y)| x * y).sum();
        u.iter_mut().zip(&a).for_each(|(y, x)| *y -= along * x);
        l2_normalize(&mut u);
        let (cos, sin) = (1.0 - d, (1.0 - (1.0 - d) * (1.0 - d)).sqrt());
        let b = a.iter().zip(&u).map(|(x, y)| cos * x + sin * y).collect();
        (a, b)
    }

    /// Between unit vectors `‖a − b‖ = √(2·d_cos)`. So a two-member item
    /// whose members the merger joined at cosine distance `≤ m` keeps both
    /// whenever `ε > √(2m)` and `MinPts = 2`: each member has the other
    /// within `ε`, so both are core points. On the paper's grid the bound
    /// holds in three of six (`m`, `ε`) cells; where it fails, a pair at
    /// distance `m` is dropped.
    #[test]
    fn a_mutual_pair_within_m_survives_pruning_whenever_epsilon_exceeds_sqrt_2m() {
        let (mut held, mut checked) = (Vec::new(), 0);
        for m in [0.2f32, 0.35, 0.5] {
            for epsilon in [0.8f32, 1.0] {
                if epsilon <= (2.0 * m).sqrt() {
                    continue;
                }
                held.push((m, epsilon));
                let config = MultiEmConfig {
                    epsilon,
                    min_pts: 2,
                    ..MultiEmConfig::default()
                };
                for seed in 0..200u64 {
                    // Distances spread over [0, m], the last one m itself.
                    let d = m * (seed % 100 + 1) as f32 / 100.0;
                    let (a, b) = unit_pair(seed, d);
                    if multiem_embed::cosine_distance(&a, &b) > m {
                        continue; // rounded past m: not the claim's case
                    }
                    let (kept, removed) = prune_points(&[&a, &b], &config);
                    assert_eq!(
                        (kept, removed),
                        (vec![0, 1], vec![]),
                        "m {m} ε {epsilon} d {d}"
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(held, [(0.2, 0.8), (0.2, 1.0), (0.35, 1.0)]);
        assert!(checked > 590, "only {checked} of 600 pairs fell within m");

        // m 0.35, ε 0.8: √0.7 ≈ 0.837 > ε, so a pair at distance m splits.
        let (a, b) = unit_pair(7, 0.35);
        let config = MultiEmConfig {
            epsilon: 0.8,
            min_pts: 2,
            ..MultiEmConfig::default()
        };
        assert_eq!(prune_points(&[&a, &b], &config), (vec![], vec![0, 1]));
    }

    /// Algorithm 4 is idempotent: pruning what it kept keeps all of it. An
    /// outlier lies within `ε` of no core point, so removing it leaves every
    /// core point its whole neighbourhood and every reachable point its core
    /// neighbour. The online store's `refresh` prunes every cluster, the
    /// ones it pruned before included, on the strength of this.
    #[test]
    fn pruning_what_pruning_kept_keeps_every_point() {
        use multiem_embed::hashing::splitmix64;
        use multiem_embed::l2_normalize;
        let mut split = 0;
        for epsilon in [0.4f32, 0.8, 1.0] {
            for min_pts in [2, 3] {
                let config = MultiEmConfig {
                    epsilon,
                    min_pts,
                    ..MultiEmConfig::default()
                };
                for seed in 0..200u64 {
                    let mut state = seed;
                    let mut draw =
                        || (splitmix64(&mut state) >> 40) as f32 / (1u32 << 24) as f32 - 0.5;
                    // 2 to 12 unit vectors scattered round one centre, some
                    // tightly, some hardly at all.
                    let n = 2 + (seed % 11) as usize;
                    let spread = 0.1 + 2.0 * (draw() + 0.5);
                    let centre: Vec<f32> = (0..8).map(|_| draw()).collect();
                    let points: Vec<Vec<f32>> = (0..n)
                        .map(|_| {
                            let mut p: Vec<f32> =
                                centre.iter().map(|c| c + spread * draw()).collect();
                            l2_normalize(&mut p);
                            p
                        })
                        .collect();
                    let points: Vec<&[f32]> = points.iter().map(Vec::as_slice).collect();
                    let (kept, removed) = prune_points(&points, &config);
                    let rest: Vec<&[f32]> = kept.iter().map(|&i| points[i]).collect();
                    assert_eq!(
                        prune_points(&rest, &config),
                        ((0..rest.len()).collect(), vec![]),
                        "ε {epsilon} MinPts {min_pts} seed {seed}"
                    );
                    split += usize::from(!kept.is_empty() && !removed.is_empty());
                }
            }
        }
        assert!(
            split > 200,
            "vacuous: {split} of 1200 sets lost some points"
        );
    }

    #[test]
    fn parallel_and_sequential_pruning_agree() {
        let (_ds, store) = dataset_with_titles(&[
            vec!["silver river serenade", "broken mirror anthem"],
            vec!["silver river serenade live", "makita drill 18v"],
            vec!["silver river serenade acoustic", "samsung galaxy s21 ultra"],
        ]);
        let mk = |rows: &[(u32, u32)]| MergeItem {
            members: rows.iter().map(|&(s, r)| id(s, r)).collect(),
            embedding: vec![0.0; store.dim()],
        };
        let table = MergedTable {
            items: vec![mk(&[(0, 0), (1, 0), (2, 0)]), mk(&[(0, 1), (1, 1), (2, 1)])],
        };
        let seq_cfg = MultiEmConfig {
            parallel: false,
            ..MultiEmConfig::default()
        };
        let par_cfg = MultiEmConfig {
            parallel: true,
            ..MultiEmConfig::default()
        };
        let mut a = prune_merged_table(&table, &store, &seq_cfg).tuples;
        let mut b = prune_merged_table(&table, &store, &par_cfg).tuples;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
