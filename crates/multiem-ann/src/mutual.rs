//! Mutual top-K joins between two vector collections (Eq. 1 of the paper).
//!
//! The two-table merging strategy of MultiEM declares a pair `(e, e')` matched
//! when `e' ∈ topK(e)`, `e ∈ topK(e')`, **and** `dist(e, e') ≤ m`. This module
//! implements that join generically over any [`VectorIndex`] so it can run on
//! the exact brute-force index or the HNSW index, and over borrowed rows
//! ([`mutual_top_k_exact`]) where no index is built at all. The batch merger
//! picks one backend per merge from its smaller table: an exact merge joins
//! its rows where they lie, an approximate one searches two graphs; a mixed
//! join still answers, by searches.
//!
//! Both directions' top-K come from searches when a side is approximate
//! (`top_k_tiled`), and from one pass over the distance matrix when both
//! sides are exact (`exact_join`); reciprocity, the threshold and the order
//! of the result are decided once, after either.

use crate::{Metric, Neighbor, Rows, TopK, VectorIndex};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Mutex;

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

/// One side of an exact join ([`mutual_top_k_exact`]): rows borrowed from
/// wherever they live, each beside its squared norm, so the join copies no
/// row. The norm must be [`Metric::squared_norm`] of the row — the norm an
/// index caches — for the join to give an index's bits.
#[derive(Debug, Clone, Default)]
pub struct RowRefs<'a> {
    rows: Vec<&'a [f32]>,
    norms: Vec<f32>,
}

impl<'a> RowRefs<'a> {
    /// An empty side with room for `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        Self {
            rows: Vec::with_capacity(rows),
            norms: Vec::with_capacity(rows),
        }
    }

    /// Append `row`, whose squared norm is `norm`.
    pub fn push(&mut self, row: &'a [f32], norm: f32) {
        self.rows.push(row);
        self.norms.push(norm);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in order.
    pub fn rows(&self) -> &[&'a [f32]] {
        &self.rows
    }

    /// Heap bytes of the references and norms (the rows are borrowed).
    pub fn approx_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<&[f32]>()
            + self.norms.capacity() * std::mem::size_of::<f32>()
    }

    /// Every row of an index, beside the norm it caches.
    fn of(rows: Rows<'a>) -> Self {
        Self {
            rows: (0..rows.len()).map(|i| rows.row(i)).collect(),
            norms: rows.norms.to_vec(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &'a [f32] {
        self.rows[i]
    }
}

impl<'a> FromIterator<&'a [f32]> for RowRefs<'a> {
    /// Borrow every row, computing its squared norm.
    fn from_iter<I: IntoIterator<Item = &'a [f32]>>(rows: I) -> Self {
        let rows: Vec<&'a [f32]> = rows.into_iter().collect();
        let norms = rows.iter().map(|row| Metric::squared_norm(row)).collect();
        Self { rows, norms }
    }
}

/// Compute the mutual top-K matches between `left_vectors` and `right_vectors`.
///
/// * `left_index` must index exactly `left_vectors` (same order); likewise for
///   the right side. Callers can pass HNSW or brute-force indexes: an
///   approximate side is searched once per vector of the other side; two
///   exact sides ([`VectorIndex::as_exact`]) with one metric and
///   dimensionality are joined by [`mutual_top_k_exact`] over their stored
///   rows — same result, bit for bit, for half the distances.
/// * `k` is the top-K bound of Eq. 1 (the paper uses `k = 1`).
/// * `max_distance` is the threshold `m`: a pair is kept only when its
///   distance is `<= m`, so a NaN distance never matches.
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
    match (left_index.as_exact(), right_index.as_exact()) {
        (Some(left), Some(right))
            if left.metric() == right.metric() && left.dim() == right.dim() =>
        {
            debug_assert_eq!(left.len(), left_vectors.len());
            debug_assert_eq!(right.len(), right_vectors.len());
            let (left, right) = (RowRefs::of(left.rows()), RowRefs::of(right.rows()));
            mutual_top_k_exact(left_index.metric(), &left, &right, k, max_distance).0
        }
        _ => reciprocal(
            &top_k_tiled(right_index, left_vectors, k),
            &top_k_tiled(left_index, right_vectors, k),
            max_distance,
        ),
    }
}

/// [`mutual_top_k`] of two exact sides given as borrowed rows: both
/// directions' top-`k` from one pass over the `|A| × |B|` distances, with no
/// index built. This is what the batch merger runs for a merge on the exact
/// backend, over rows it keeps once per run.
///
/// Returns the matches, sorted by `(left, right)`, and the bytes of the
/// top-K tables the join held: a table row per left row, and one table of
/// the right side per range in flight (at most one per thread).
///
/// # Panics
/// Panics if the rows are not all of one length.
pub fn mutual_top_k_exact(
    metric: Metric,
    left: &RowRefs<'_>,
    right: &RowRefs<'_>,
    k: usize,
    max_distance: f32,
) -> (Vec<MutualMatch>, usize) {
    if k == 0 || left.is_empty() || right.is_empty() {
        return (Vec::new(), 0);
    }
    let dim = left.rows[0].len();
    assert!(
        left.rows
            .iter()
            .chain(&right.rows)
            .all(|row| row.len() == dim),
        "rows of an exact join must have one length"
    );
    // Whole tiles per range: only the last one has leftover rows.
    let rows_per_range = RANGE_ROWS
        .max(MIN_RANGE_PAIRS.div_ceil(right.len()))
        .next_multiple_of(TILE_ROWS);
    let (left_to_right, right_to_left, bytes) = exact_join(metric, left, right, k, rows_per_range);
    (
        reciprocal(&left_to_right, &right_to_left, max_distance),
        bytes,
    )
}

/// Eq. 1 over both directions' top-K: `(l, r)` is kept when `r` is among
/// `l`'s, `l` among `r`'s and their distance is at most `max_distance`;
/// sorted by `(left, right)`.
fn reciprocal(
    left_to_right: &[Vec<Neighbor>],
    right_to_left: &[Vec<Neighbor>],
    max_distance: f32,
) -> Vec<MutualMatch> {
    let mut matches: Vec<MutualMatch> = Vec::new();
    for (l, neighbors) in left_to_right.iter().enumerate() {
        for n in neighbors {
            let reciprocal = || right_to_left[n.index].iter().any(|back| back.index == l);
            if n.distance <= max_distance && reciprocal() {
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

/// Most queries per [`VectorIndex::search_batch`] call of a join with an
/// approximate side. A brute-force scan streams the whole index once per
/// call, so wider tiles amortize that pass over more queries; 8 to 64 were
/// measured within 5% of each other, so the width is not a cache fit (32
/// queries of dimension 384 are 48 KB, a whole L1d) — the scan reads each
/// group of stored rows once per query while it is hot, whatever the width.
const TILE: usize = 32;

/// Queries per tile for `queries` queries on `threads` threads. Tiles are
/// also the unit of parallelism, so a side too short to give every thread a
/// full tile is cut into narrower ones (300 queries on 16 threads: 19 wide,
/// not 10 tiles of 32 with six threads idle). Results do not depend on the
/// width. Since the exact join left this path only joins with an HNSW side
/// come here, and from the batch merger only joins of two HNSW sides (it
/// picks one backend per merge), i.e. sides of thousands of queries, which
/// get full tiles on any machine the pipeline has run on; the narrow case is
/// covered by tests, not by a measurement.
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

/// Shape of the exact join's distance tiles: the widest square whose
/// accumulators stay in registers on the baseline target (`ann/kernel`
/// bench rows; see `LANES` in `metric.rs`).
const TILE_ROWS: usize = 2;
const TILE_COLS: usize = 2;

/// Right rows per pass of the exact join. Every tile row of a range is
/// scored against one block before the next block is touched, so the block
/// (16 rows of dimension 384 are 24 KB) stays in L1d while the range's left
/// rows stream past it. 8, 16, 24 and 32 rows were within run-to-run spread
/// of each other on the 1,150- and 2,300-row joins; 32 rows of dimension 384
/// are all of a 48 KB L1d.
const BLOCK: usize = 16;

/// Left rows per range of the exact join: the unit of parallelism, and the
/// rows that stream past every right block — 128 rows of dimension 384 are
/// 192 KB, which stays in L2 for the whole pass. Whole-side ranges (1,150
/// rows, 1.7 MB) measured about a tenth slower at 2,300 × 2,300, and a
/// thread that loses its core for a while then holds a quarter of the join
/// back instead of a twentieth.
const RANGE_ROWS: usize = 128;

/// Fewest pairs a range is cut for: 2^15 pairs are about a millisecond of
/// scoring, several times what handing a range to another thread costs (the
/// pool spawns a scoped thread per parallel map), so a join with a short
/// right side gets longer ranges, and one under 2^15 pairs runs on the
/// calling thread. Measured at 170 × 170: one thread 0.66 ms at best and
/// 0.82 ms in the median, two threads 0.43 ms and 0.90 ms.
const MIN_RANGE_PAIRS: usize = 1 << 15;

/// One range of left rows of an exact join against the whole right side.
struct RangeJoin<'a> {
    metric: Metric,
    a: &'a RowRefs<'a>,
    b: &'a RowRefs<'a>,
    /// First left row of the range: `left` is indexed from it.
    first: usize,
    /// Top-K right rows of every left row of the range.
    left: TopK,
    /// Top-K left rows of every right row, among the ranges that have used
    /// this table.
    right: TopK,
}

impl RangeJoin<'_> {
    /// Score left rows `l..l + R` against right rows `r..r + C` in one
    /// kernel tile and offer every distance to both of its rows.
    #[inline]
    fn tile<const R: usize, const C: usize>(&mut self, l: usize, r: usize) {
        let ls: [usize; R] = std::array::from_fn(|i| l + i);
        let rs: [usize; C] = std::array::from_fn(|i| r + i);
        let distances = self.metric.distance_tile(
            ls.map(|l| self.a.row(l)),
            rs.map(|r| self.b.row(r)),
            ls.map(|l| self.a.norms[l]),
            rs.map(|r| self.b.norms[r]),
        );
        for (&l, row) in ls.iter().zip(&distances) {
            for (&r, &distance) in rs.iter().zip(row) {
                self.left.offer(l - self.first, Neighbor::new(r, distance));
                self.right.offer(r, Neighbor::new(l, distance));
            }
        }
    }

    /// Left rows `l..l + R` against right rows `cols`.
    #[inline]
    fn strip<const R: usize>(&mut self, l: usize, cols: Range<usize>) {
        let mut r = cols.start;
        while r + TILE_COLS <= cols.end {
            self.tile::<R, TILE_COLS>(l, r);
            r += TILE_COLS;
        }
        while r < cols.end {
            self.tile::<R, 1>(l, r);
            r += 1;
        }
    }

    /// Left rows `rows` against the whole right side, block by block.
    fn run(&mut self, rows: Range<usize>) {
        for block in (0..self.b.len()).step_by(BLOCK) {
            let cols = block..(block + BLOCK).min(self.b.len());
            let mut l = rows.start;
            while l + TILE_ROWS <= rows.end {
                self.strip::<TILE_ROWS>(l, cols.clone());
                l += TILE_ROWS;
            }
            while l < rows.end {
                self.strip::<1>(l, cols.clone());
                l += 1;
            }
        }
    }
}

/// Both directions' top-`k` of a join of two exact sides — per left row its
/// `k` nearest right rows and per right row its `k` nearest left rows, each
/// exactly what a search of the other side's index returns — from **one**
/// pass over the `|A| × |B|` distances: `dist(l, r)` and `dist(r, l)` are
/// the same bits, so each is computed once and offered to both rows.
///
/// The left rows are cut into contiguous ranges of `rows_per_range`, joined
/// in parallel. A range owns the tops of its left rows; for the right rows
/// it borrows a table that ranges before it on the same thread have filled
/// — there are as many tables as ranges in flight, so working memory is
/// `threads × |B| × k` neighbours however many ranges there are — and the
/// tables are merged afterwards under the same rank, so ties still break by
/// index whichever ranges met in a table. The third value is the bytes of
/// those tables: every range's own, and one right table per range that can
/// be in flight.
fn exact_join(
    metric: Metric,
    a: &RowRefs<'_>,
    b: &RowRefs<'_>,
    k: usize,
    rows_per_range: usize,
) -> (Vec<Vec<Neighbor>>, Vec<Vec<Neighbor>>, usize) {
    let rows_per_range = rows_per_range.max(1);
    let ranges: Vec<Range<usize>> = (0..a.len())
        .step_by(rows_per_range)
        .map(|start| start..(start + rows_per_range).min(a.len()))
        .collect();
    let (left_cap, right_cap) = (k.min(b.len()), k.min(a.len()));
    let spare_tables: Mutex<Vec<TopK>> = Mutex::new(Vec::new());
    let take_table = || {
        let spare = spare_tables.lock().expect("a range panicked").pop();
        spare.unwrap_or_else(|| TopK::new(b.len(), right_cap))
    };
    let left: Vec<TopK> = ranges
        .par_iter()
        .map(|range| {
            let mut join = RangeJoin {
                metric,
                a,
                b,
                first: range.start,
                left: TopK::new(range.len(), left_cap),
                right: take_table(),
            };
            join.run(range.clone());
            let mut spare = spare_tables.lock().expect("a range panicked");
            spare.push(join.right);
            join.left
        })
        .collect();

    let mut right = take_table();
    for table in spare_tables.into_inner().expect("a range panicked") {
        for row in 0..b.len() {
            for &found in table.row(row) {
                right.offer(row, found);
            }
        }
    }
    let in_flight = ranges.len().min(rayon::current_num_threads()).max(1);
    let bytes = TopK::bytes(a.len(), left_cap) + in_flight * TopK::bytes(b.len(), right_cap);
    (
        left.iter().flat_map(TopK::rows).collect(),
        right.rows().collect(),
        bytes,
    )
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

    /// The one-pass join of two exact sides returns, for every row of either
    /// side, exactly what searching the other side's index returns — on the
    /// tie-heavy fixture (every vector twice, so a tie that the merge of two
    /// ranges' tables broke differently from the scan would show), for side
    /// lengths around the tile, block and range boundaries, `k` past the
    /// side length, and however the left side is cut into ranges.
    #[test]
    fn exact_join_is_both_sides_searches_however_it_is_cut() {
        use crate::bruteforce::tests::{bits, tie_heavy_fixture};
        let (dim, vectors, probes) = tie_heavy_fixture();
        // Left: the fixture with its zero and NaN probes in the middle.
        // Right: the fixture back to front, so equal vectors sit at unequal
        // indexes on the two sides.
        let mut left = vectors.clone();
        left.splice(50..50, probes[probes.len() - 2..].iter().cloned());
        let right: Vec<Vec<f32>> = vectors.iter().rev().cloned().collect();
        let lengths = [0, 1, 3, 4, 5, BLOCK + 1, 2 * BLOCK + 3, right.len()];

        let mut compared = 0;
        for metric in [Metric::Cosine, Metric::Euclidean, Metric::InnerProduct] {
            for &nl in lengths.iter().chain(&[left.len()]) {
                for &nr in &lengths {
                    let (left, right) = (slices(&left[..nl]), slices(&right[..nr]));
                    let li = BruteForceIndex::from_vectors(dim, metric, left.iter().copied());
                    let ri = BruteForceIndex::from_vectors(dim, metric, right.iter().copied());
                    for k in [1, 3, 200] {
                        let forward: Vec<_> = left.iter().map(|v| bits(&ri.search(v, k))).collect();
                        let backward: Vec<_> =
                            right.iter().map(|v| bits(&li.search(v, k))).collect();
                        // One range, two, five, and one per tile row and less.
                        for rows in [nl.max(1), nl.div_ceil(2), nl.div_ceil(5), 3, 2, 1] {
                            let (l2r, r2l, _) = exact_join(
                                metric,
                                &left.iter().copied().collect(),
                                &right.iter().copied().collect(),
                                k,
                                rows,
                            );
                            let what =
                                format!("{metric:?} {nl} x {nr}, k {k}, {rows} rows a range");
                            let l2r: Vec<_> = l2r.iter().map(|hits| bits(hits)).collect();
                            let r2l: Vec<_> = r2l.iter().map(|hits| bits(hits)).collect();
                            assert_eq!(l2r, forward, "{what}");
                            assert_eq!(r2l, backward, "{what}");
                            compared += l2r.len() + r2l.len();
                        }
                    }
                }
            }
        }
        assert!(compared > 100_000, "only {compared} rows compared");
    }

    /// The exact entry over borrowed rows is the join of two exact indexes
    /// over the same rows, bit for bit, and the top-K tables it reports do
    /// not grow with the rows' length.
    #[test]
    fn the_exact_entry_over_borrowed_rows_is_the_join_of_two_indexes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xE1AC);
        let mut vectors = |n: usize, dim: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect()
        };
        let (left, right) = (vectors(150, 9), vectors(70, 9));
        let (lrefs, rrefs) = (slices(&left), slices(&right));
        let li = BruteForceIndex::from_vectors(9, Metric::Cosine, lrefs.iter().copied());
        let ri = BruteForceIndex::from_vectors(9, Metric::Cosine, rrefs.iter().copied());
        let bits = |m: &[MutualMatch]| -> Vec<(usize, usize, u32)> {
            m.iter()
                .map(|m| (m.left, m.right, m.distance.to_bits()))
                .collect()
        };
        let left_rows: RowRefs = lrefs.iter().copied().collect();
        let right_rows: RowRefs = rrefs.iter().copied().collect();
        for k in [1, 3] {
            let (found, bytes) =
                mutual_top_k_exact(Metric::Cosine, &left_rows, &right_rows, k, 0.5);
            let indexed = mutual_top_k(&li, &ri, &lrefs, &rrefs, k, 0.5);
            assert!(!indexed.is_empty());
            assert_eq!(bits(&found), bits(&indexed), "k {k}");
            let (wide_left, wide_right) = (vectors(150, 90), vectors(70, 90));
            let wide_left: RowRefs = wide_left.iter().map(Vec::as_slice).collect();
            let wide_right: RowRefs = wide_right.iter().map(Vec::as_slice).collect();
            let (_, wide) = mutual_top_k_exact(Metric::Cosine, &wide_left, &wide_right, k, 0.5);
            assert_eq!((bytes > 0, bytes), (true, wide), "k {k}");
        }
    }

    #[test]
    #[should_panic(expected = "one length")]
    fn an_exact_join_of_rows_of_two_lengths_panics() {
        let (short, long) = ([0.5f32, 0.5], [0.5f32, 0.5, 0.5]);
        let left: RowRefs = [&short[..]].into_iter().collect();
        let right: RowRefs = [&short[..], &long[..]].into_iter().collect();
        mutual_top_k_exact(Metric::Cosine, &left, &right, 1, 1.0);
    }

    /// A vector with a NaN component matches nothing, on either path of the
    /// join: under cosine its distances used to be clamped to 0.0, a perfect
    /// match with whichever item had the lowest index.
    #[test]
    fn a_nan_vector_matches_nothing() {
        let left = vec![vec![f32::NAN, 0.0, 1.0], vec![0.0, 0.9, 0.1]];
        let right = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]];
        for hnsw in [None, Some(HnswConfig::small())] {
            for metric in [Metric::Cosine, Metric::Euclidean] {
                let index = |vectors: &[Vec<f32>]| {
                    let mut index = AnnIndex::new(3, metric, hnsw.clone());
                    for v in vectors {
                        index.insert(v);
                    }
                    index
                };
                let (li, ri) = (index(&left), index(&right));
                let pairs: Vec<(usize, usize)> =
                    mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 0.35)
                        .iter()
                        .map(|m| (m.left, m.right))
                        .collect();
                assert_eq!(pairs, [(1, 1)], "{metric:?}, hnsw {}", hnsw.is_some());
            }
        }
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
