//! Mutual top-K joins between two vector collections (Eq. 1 of the paper).
//!
//! The two-table merging strategy of MultiEM declares a pair `(e, e')` matched
//! when `e' ∈ topK(e)`, `e ∈ topK(e')`, **and** `dist(e, e') ≤ m`. This module
//! implements that join generically over any [`VectorIndex`] so it can run on
//! the exact brute-force index (small tables) or the HNSW index (large tables).

use crate::{Neighbor, VectorIndex};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One mutual match between row `left` of collection A and row `right` of
/// collection B.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MutualMatch {
    /// Row index in the left collection.
    pub left: usize,
    /// Row index in the right collection.
    pub right: usize,
    /// Distance between the two vectors.
    pub distance: f32,
}

/// Compute the mutual top-K matches between `left_vectors` and `right_vectors`.
///
/// * `left_index` must index exactly `left_vectors` (same order); likewise for
///   the right side. The function only uses the indexes for searching and the
///   raw slices for queries, so callers can pass HNSW or brute-force indexes.
/// * `k` is the top-K bound of Eq. 1 (the paper uses `k = 1`).
/// * `max_distance` is the threshold `m`; pairs farther apart are discarded.
///
/// The result is sorted by `(left, right)` for determinism.
pub fn mutual_top_k<IL, IR>(
    left_index: &IL,
    right_index: &IR,
    left_vectors: &[&[f32]],
    right_vectors: &[&[f32]],
    k: usize,
    max_distance: f32,
) -> Vec<MutualMatch>
where
    IL: VectorIndex,
    IR: VectorIndex,
{
    if k == 0 || left_vectors.is_empty() || right_vectors.is_empty() {
        return Vec::new();
    }

    let left_to_right = top_k_tiled(right_index, left_vectors, k);
    let right_to_left = top_k_tiled(left_index, right_vectors, k);

    let mut matches: Vec<MutualMatch> = Vec::new();
    for (l, neighbors) in left_to_right.iter().enumerate() {
        for n in neighbors {
            if n.distance > max_distance {
                continue;
            }
            let reciprocal = right_to_left[n.index].iter().any(|back| back.index == l);
            if reciprocal {
                matches.push(MutualMatch {
                    left: l,
                    right: n.index,
                    distance: n.distance,
                });
            }
        }
    }
    matches.sort_by(|a, b| a.left.cmp(&b.left).then(a.right.cmp(&b.right)));
    matches
}

/// Most queries per [`VectorIndex::search_batch`] call of a join. A
/// brute-force scan streams the whole index once per call, so wider tiles
/// amortize that pass over more queries, until the tile's own vectors
/// (`TILE × dim` floats) stop fitting in cache beside it.
const TILE: usize = 32;

/// Queries per tile for `queries` queries on `threads` threads. Tiles are
/// also the unit of parallelism, so a side too short to give every thread a
/// full tile is cut into narrower ones (300 queries on 16 threads: 19 wide,
/// not 10 tiles of 32 with six threads idle). Results do not depend on the
/// width. Measured on 2 cores only, where every side of 64 queries or more
/// gets full tiles.
fn tile_width(queries: usize, threads: usize) -> usize {
    TILE.min(queries.div_ceil(threads)).max(1)
}

/// Top-`k` of every query in `index`, in query order: the queries go to
/// `search_batch` tile by tile, tiles in parallel.
fn top_k_tiled<I: VectorIndex>(index: &I, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
    let width = tile_width(queries.len(), rayon::current_num_threads());
    let tiles: Vec<&[&[f32]]> = queries.chunks(width).collect();
    let per_tile: Vec<Vec<Vec<Neighbor>>> = tiles
        .par_iter()
        .map(|tile| index.search_batch(tile, k))
        .collect();
    per_tile.into_iter().flatten().collect()
}

/// Fan-in merge of per-partition candidate lists into one global top-`k`.
///
/// Each input list must already be sorted by increasing distance (the order
/// every [`VectorIndex::search`] and `EntityStore::match_record` returns).
/// The output interleaves the lists by distance, breaking ties by input
/// order (list index, then position), and truncates to `k` — exactly the
/// rank a single un-partitioned index would have produced for candidates it
/// scored with the same distances. The serving layer uses this to merge
/// per-shard match results.
///
/// Non-finite distances (NaN, ±∞) are dropped before ranking: a NaN would
/// make any comparator non-total and scramble the merged order, and a
/// candidate without a finite distance is meaningless to rank. The sort
/// itself uses [`f32::total_cmp`], so the comparator is total even if a
/// new non-finite class ever slips through.
pub fn merge_ranked<T: Clone>(lists: &[Vec<(T, f32)>], k: usize) -> Vec<(T, f32)> {
    let mut all: Vec<(T, f32)> = lists
        .iter()
        .flatten()
        .filter(|(_, distance)| distance.is_finite())
        .cloned()
        .collect();
    // Stable sort: equal distances keep (list, position) order.
    all.sort_by(|a, b| a.1.total_cmp(&b.1));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;
    use crate::hnsw::{HnswConfig, HnswIndex};
    use crate::metric::Metric;
    use crate::{AnnIndex, DynamicVectorIndex};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn slices(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(|x| x.as_slice()).collect()
    }

    #[test]
    fn simple_mutual_match() {
        // Left: two clusters; Right: one point near left[0], one far away.
        let left = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        let right = vec![vec![0.1, 0.0], vec![50.0, 50.0]];
        let li =
            BruteForceIndex::from_vectors(2, Metric::Euclidean, left.iter().map(|v| v.as_slice()));
        let ri =
            BruteForceIndex::from_vectors(2, Metric::Euclidean, right.iter().map(|v| v.as_slice()));
        let m = mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 1.0);
        assert_eq!(m.len(), 1);
        assert_eq!((m[0].left, m[0].right), (0, 0));
    }

    #[test]
    fn threshold_filters_far_pairs() {
        let left = vec![vec![0.0, 0.0]];
        let right = vec![vec![5.0, 0.0]];
        let li =
            BruteForceIndex::from_vectors(2, Metric::Euclidean, left.iter().map(|v| v.as_slice()));
        let ri =
            BruteForceIndex::from_vectors(2, Metric::Euclidean, right.iter().map(|v| v.as_slice()));
        // Mutual nearest, but distance 5 > threshold 1 → no match.
        assert!(mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 1.0).is_empty());
        // Raising the threshold admits it.
        assert_eq!(
            mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 10.0).len(),
            1
        );
    }

    #[test]
    fn mutuality_is_required() {
        // right[0] is closest to left[1], but left[1]'s nearest right point is
        // right[1]; with k = 1 there is no mutual agreement for (1, 0).
        let left = vec![vec![0.0], vec![2.0]];
        let right = vec![vec![1.3], vec![2.1]];
        let li =
            BruteForceIndex::from_vectors(1, Metric::Euclidean, left.iter().map(|v| v.as_slice()));
        let ri =
            BruteForceIndex::from_vectors(1, Metric::Euclidean, right.iter().map(|v| v.as_slice()));
        let matches = mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 10.0);
        assert_eq!(matches.len(), 1);
        assert_eq!((matches[0].left, matches[0].right), (1, 1));
    }

    #[test]
    fn k_zero_or_empty_inputs() {
        let left: Vec<Vec<f32>> = vec![vec![0.0]];
        let li =
            BruteForceIndex::from_vectors(1, Metric::Euclidean, left.iter().map(|v| v.as_slice()));
        let empty: Vec<Vec<f32>> = Vec::new();
        let ei = BruteForceIndex::new(1, Metric::Euclidean);
        assert!(mutual_top_k(&li, &li, &slices(&left), &slices(&left), 0, 1.0).is_empty());
        assert!(mutual_top_k(&li, &ei, &slices(&left), &slices(&empty), 1, 1.0).is_empty());
    }

    #[test]
    fn larger_k_recovers_more_pairs() {
        let left = vec![vec![0.0], vec![0.4]];
        let right = vec![vec![0.1], vec![0.3]];
        let li =
            BruteForceIndex::from_vectors(1, Metric::Euclidean, left.iter().map(|v| v.as_slice()));
        let ri =
            BruteForceIndex::from_vectors(1, Metric::Euclidean, right.iter().map(|v| v.as_slice()));
        let k1 = mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 1.0);
        let k2 = mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 2, 1.0);
        assert!(k2.len() >= k1.len());
        assert_eq!(k2.len(), 4);
    }

    #[test]
    fn tile_width_is_capped_and_shares_short_sides_among_threads() {
        assert_eq!(tile_width(1_150, 2), TILE);
        assert_eq!(tile_width(2 * TILE, 2), TILE);
        assert_eq!(tile_width(300, 16), 19);
        assert_eq!(tile_width(TILE + 1, 2), TILE / 2 + 1);
        assert_eq!(tile_width(1, 8), 1);
        assert_eq!(tile_width(0, 4), 1);
    }

    /// The tiled join equals Eq. 1 read query by query: `(l, r)` is a match
    /// when `r ∈ topK(l)`, `l ∈ topK(r)` and `dist(l, r) ≤ m` — on either
    /// backend, for side lengths around the tile boundaries (of two threads
    /// and of one) and `k` up to past the side length.
    #[test]
    fn tiled_join_equals_the_per_query_definition() {
        const DIM: usize = 6;
        let lengths = [0, 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1, 3 * TILE + 5];
        let backends = [None, Some(HnswConfig::small())];

        let mut rng = ChaCha8Rng::seed_from_u64(0x711E);
        // One vector set per (side, length), indexed once per backend.
        let mut sides = Vec::new();
        for _side in 0..2 {
            let mut per_length = Vec::new();
            for &n in &lengths {
                let vectors: Vec<Vec<f32>> = (0..n)
                    .map(|_| (0..DIM).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
                    .collect();
                let indexes: Vec<AnnIndex> = backends
                    .iter()
                    .map(|hnsw| {
                        let mut index = AnnIndex::new(DIM, Metric::Euclidean, hnsw.clone());
                        for v in &vectors {
                            index.insert(v);
                        }
                        index
                    })
                    .collect();
                per_length.push((vectors, indexes));
            }
            sides.push(per_length);
        }

        let mut matched = 0;
        for (left, left_indexes) in &sides[0] {
            for (right, right_indexes) in &sides[1] {
                let (lrefs, rrefs) = (slices(left), slices(right));
                for (lb, rb) in [(0, 0), (0, 1), (1, 1)] {
                    let (li, ri) = (&left_indexes[lb], &right_indexes[rb]);
                    for k in [1, 3, 4 * TILE] {
                        // Random pairs sit about 20 apart: some pass `m`, some do not.
                        let m = rng.gen_range(10.0f32..30.0);
                        let backs: Vec<Vec<Neighbor>> =
                            rrefs.iter().map(|rv| li.search(rv, k)).collect();
                        let mut expected = Vec::new();
                        for (l, lv) in lrefs.iter().enumerate() {
                            for hit in ri.search(lv, k) {
                                let back = &backs[hit.index];
                                if hit.distance <= m && back.iter().any(|b| b.index == l) {
                                    expected.push((l, hit.index, hit.distance.to_bits()));
                                }
                            }
                        }
                        expected.sort_unstable();
                        let joined: Vec<(usize, usize, u32)> =
                            mutual_top_k(li, ri, &lrefs, &rrefs, k, m)
                                .iter()
                                .map(|x| (x.left, x.right, x.distance.to_bits()))
                                .collect();
                        assert_eq!(
                            joined,
                            expected,
                            "{} x {} items, backends {lb}/{rb}, k {k}, m {m}",
                            left.len(),
                            right.len()
                        );
                        matched += joined.len();
                    }
                }
            }
        }
        assert!(matched > 1_000, "only {matched} matches: vacuous");
    }

    #[test]
    fn merge_ranked_interleaves_and_truncates() {
        let lists = vec![
            vec![("a0", 0.1), ("a1", 0.4)],
            vec![],
            vec![("c0", 0.05), ("c1", 0.4), ("c2", 0.9)],
        ];
        let merged = merge_ranked(&lists, 4);
        let names: Vec<&str> = merged.iter().map(|(n, _)| *n).collect();
        // Tie at 0.4 keeps list order (a1 before c1).
        assert_eq!(names, vec!["c0", "a0", "a1", "c1"]);
        assert!(merge_ranked::<&str>(&[], 5).is_empty());
        assert_eq!(merge_ranked(&lists, 0).len(), 0);
    }

    #[test]
    fn merge_ranked_drops_non_finite_distances() {
        // One NaN used to poison the whole comparator (`partial_cmp(..)
        // .unwrap_or(Equal)` is non-total), leaving the merged ranking
        // unspecified. NaN and ±∞ must be filtered, finite order preserved.
        let lists = vec![
            vec![("nan", f32::NAN), ("a", 0.2), ("inf", f32::INFINITY)],
            vec![("b", 0.1), ("neg-inf", f32::NEG_INFINITY), ("c", 0.3)],
        ];
        let merged = merge_ranked(&lists, 10);
        let names: Vec<&str> = merged.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
        assert!(merged.iter().all(|(_, d)| d.is_finite()));
        // An all-NaN input merges to nothing rather than garbage.
        assert!(merge_ranked(&[vec![("x", f32::NAN)]], 3).is_empty());
    }

    #[test]
    fn merge_ranked_k_beyond_candidates_and_tie_stability() {
        // `k` larger than the total candidate count returns everything.
        let lists = vec![vec![("a", 0.5)], vec![("b", 0.25)]];
        let merged = merge_ranked(&lists, 100);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].0, "b");

        // Equal distances across shards keep (list, position) order no
        // matter how many ties pile up — the stable-sort guarantee the
        // sharded read path leans on for deterministic responses.
        let tied = vec![
            vec![("s0-a", 0.4), ("s0-b", 0.4)],
            vec![("s1-a", 0.4)],
            vec![("s2-a", 0.4), ("s2-b", 0.4)],
        ];
        let merged = merge_ranked(&tied, 10);
        let names: Vec<&str> = merged.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["s0-a", "s0-b", "s1-a", "s2-a", "s2-b"]);
    }

    #[test]
    fn results_deterministically_sorted() {
        let left = vec![vec![0.0], vec![1.0], vec![2.0]];
        let right = vec![vec![0.0], vec![1.0], vec![2.0]];
        let li =
            BruteForceIndex::from_vectors(1, Metric::Euclidean, left.iter().map(|v| v.as_slice()));
        let ri =
            BruteForceIndex::from_vectors(1, Metric::Euclidean, right.iter().map(|v| v.as_slice()));
        let m = mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 0.5);
        let pairs: Vec<(usize, usize)> = m.iter().map(|x| (x.left, x.right)).collect();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn works_with_hnsw_indexes() {
        let left: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32, 0.0]).collect();
        let right: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32 + 0.05, 0.0]).collect();
        let li = HnswIndex::build(
            2,
            Metric::Euclidean,
            HnswConfig::small(),
            left.iter().map(|v| v.as_slice()),
        );
        let ri = HnswIndex::build(
            2,
            Metric::Euclidean,
            HnswConfig::small(),
            right.iter().map(|v| v.as_slice()),
        );
        let m = mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 0.2);
        // Every i should match its shifted counterpart.
        assert!(
            m.len() >= 45,
            "HNSW mutual join found only {} of 50 pairs",
            m.len()
        );
        assert!(m.iter().all(|x| x.left == x.right));
    }
}
