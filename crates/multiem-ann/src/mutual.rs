//! Mutual top-K joins between two vector collections (Eq. 1 of the paper).
//!
//! The two-table merging strategy of MultiEM declares a pair `(e, e')` matched
//! when `e' ∈ topK(e)`, `e ∈ topK(e')`, **and** `dist(e, e') ≤ m`. This module
//! implements that join exactly, over borrowed rows ([`mutual_top_k_exact`],
//! with no index built) or over the rows of two [`BruteForceIndex`]es
//! ([`mutual_top_k`]). The batch merger runs the first for every merge, over
//! the rows where they lie.
//!
//! Both directions' top-K come from one pass over the distance matrix
//! (`exact_join`); reciprocity, the threshold and the order of the result
//! are decided once, after it.
//!
//! The exact join stops scoring a 2×2 tile of pairs halfway through the
//! dimensions when a bound proves all four lie beyond `m`
//! (`Metric::distance_tile_within`: Cauchy–Schwarz for cosine, a partial
//! sum for Euclidean). The result is unchanged, bit for bit: a pair within
//! `m` is never dropped, and neither is any row that ranks before it in
//! either row's top-K, being closer still. So each top-K list keeps exactly
//! its within-`m` entries, and those are all Eq. 1 reads. At the default
//! `m` = 0.35 the bound drops 90.4% of the tiles of `shopee` ×0.1's merges
//! and 91.6% of `music-20` ×0.3's.

use crate::{BruteForceIndex, Metric, Neighbor, Rows, TopK, VectorIndex};
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
///   the right side. The join is [`mutual_top_k_exact`] over the indexes'
///   stored rows and cached norms.
/// * `k` is the top-K bound of Eq. 1 (the paper uses `k = 1`).
/// * `max_distance` is the threshold `m`: a pair is kept only when its
///   distance is `<= m`, so a NaN distance never matches.
///
/// The result is sorted by `(left, right)` for determinism.
///
/// # Panics
/// Panics if a vector slice is not as long as its index, if the two indexes
/// have different metrics, or if their rows are not all of one length.
pub fn mutual_top_k(
    left_index: &BruteForceIndex,
    right_index: &BruteForceIndex,
    left_vectors: &[&[f32]],
    right_vectors: &[&[f32]],
    k: usize,
    max_distance: f32,
) -> Vec<MutualMatch> {
    assert_eq!(
        left_index.len(),
        left_vectors.len(),
        "left index and vectors"
    );
    assert_eq!(
        right_index.len(),
        right_vectors.len(),
        "right index and vectors"
    );
    assert_eq!(
        left_index.metric(),
        right_index.metric(),
        "the two indexes of a join must share one metric"
    );
    let (left, right) = (
        RowRefs::of(left_index.rows()),
        RowRefs::of(right_index.rows()),
    );
    mutual_top_k_exact(left_index.metric(), &left, &right, k, max_distance).0
}

/// The mutual top-K join (Eq. 1) of two sides given as borrowed rows: both
/// directions' top-`k` from one pass over the `|A| × |B|` distances, with no
/// index built. This is what the batch merger runs for every merge, over
/// rows it keeps once per run, and what [`mutual_top_k`] runs over two
/// indexes' rows.
///
/// Returns the matches, sorted by `(left, right)`, and the bytes the join
/// held: the top-K tables — a table row per left row, and one table of the
/// right side per range in flight (at most one per thread) — and two norms
/// per row of either side for the bound that drops tiles beyond
/// `max_distance`.
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
    let (left_to_right, right_to_left, bytes) =
        exact_join(metric, left, right, k, max_distance, rows_per_range);
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

/// Shape of the exact join's distance tiles: the widest square whose
/// accumulators stay in registers. On the x86-64-v3 target a pair's lanes
/// are one of the sixteen `ymm` registers, so 2×2 holds four accumulators
/// beside four loaded blocks (see `LANES` in `metric.rs`). Measured at v3 on
/// the ledger's batch workloads (`op_p50_ms` medians, `batch_many` /
/// `batch_wide`, 8 / 6 seeds): 2×2 77.6 / 244 ms, 4×4 75.8 / 263 ms (no
/// better), 2×4 285 / 751 ms (about 3x slower).
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

/// One side of an exact join: its rows, and each row's L2 norm and L2 norm
/// over the terms after the bound's test ([`Metric::distance_tile_within`]),
/// computed once per join rather than once per tile the row is in.
struct Side<'a> {
    rows: &'a RowRefs<'a>,
    roots: Vec<f32>,
    tails: Vec<f32>,
}

impl<'a> Side<'a> {
    fn of(rows: &'a RowRefs<'a>) -> Self {
        Self {
            rows,
            roots: rows.norms.iter().map(|norm| norm.sqrt()).collect(),
            tails: rows.rows.iter().map(|row| Metric::tail_norm(row)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Rows `first..first + N` with their two norms, cut out as arrays.
    #[inline]
    fn tile<const N: usize>(&self, first: usize) -> ([&'a [f32]; N], [f32; N], [f32; N]) {
        let at = first..first + N;
        let array = "a range of N";
        (
            self.rows.rows[at.clone()].try_into().expect(array),
            self.roots[at.clone()].try_into().expect(array),
            self.tails[at].try_into().expect(array),
        )
    }

    /// Heap bytes of the two norms per row.
    fn bytes(&self) -> usize {
        (self.roots.capacity() + self.tails.capacity()) * std::mem::size_of::<f32>()
    }
}

/// One range of left rows of an exact join against the whole right side.
struct RangeJoin<'a> {
    metric: Metric,
    a: &'a Side<'a>,
    b: &'a Side<'a>,
    /// The threshold `m`: a tile whose pairs all lie beyond it is dropped.
    max_distance: f32,
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
    /// kernel tile and offer every distance to both of its rows, unless the
    /// kernel proves every pair of the tile lies beyond `max_distance`.
    #[inline]
    fn tile<const R: usize, const C: usize>(&mut self, l: usize, r: usize) {
        let ls: [usize; R] = std::array::from_fn(|i| l + i);
        let rs: [usize; C] = std::array::from_fn(|i| r + i);
        let (a_rows, a_roots, a_tails) = self.a.tile::<R>(l);
        let (b_rows, b_roots, b_tails) = self.b.tile::<C>(r);
        let Some(distances) = self.metric.distance_tile_within(
            a_rows,
            b_rows,
            (a_roots, b_roots),
            (a_tails, b_tails),
            self.max_distance,
        ) else {
            return;
        };
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
/// those tables — every range's own, and one right table per range that can
/// be in flight — and of the two norms per row the bound reads.
///
/// A tile whose pairs all lie beyond `max_distance` is dropped halfway
/// through its dimensions, before any offer. The lists are then not the
/// searches' but their within-`max_distance` prefixes followed by pairs
/// beyond it, which is all [`reciprocal`] reads: a within-`m` pair is never
/// dropped, so each row's top-K still holds every within-`m` pair that
/// ranks in its top-K, and nothing within `m` that does not. The tests that
/// compare these lists to index searches pass `f32::INFINITY`, at which no
/// tile is dropped. On `ann/join`'s music-20 embeddings, one thread, best
/// of 25 on a 2-core x86-64 VM, the 1,150 × 1,150 join took 38.2 ms before
/// the bound, and 23.8 ms with it at `m` = 0.35 and 39.6 ms at `m = ∞`,
/// where every tile pays for the test and none is dropped.
fn exact_join(
    metric: Metric,
    a: &RowRefs<'_>,
    b: &RowRefs<'_>,
    k: usize,
    max_distance: f32,
    rows_per_range: usize,
) -> (Vec<Vec<Neighbor>>, Vec<Vec<Neighbor>>, usize) {
    let (a, b) = (&Side::of(a), &Side::of(b));
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
                max_distance,
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
    let bytes = TopK::bytes(a.len(), left_cap)
        + in_flight * TopK::bytes(b.len(), right_cap)
        + a.bytes()
        + b.bytes();
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
    use crate::metric::Metric;
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

    /// The join equals Eq. 1 read query by query: `(l, r)` is a match when
    /// `r ∈ topK(l)`, `l ∈ topK(r)` and `dist(l, r) ≤ m` — for side lengths
    /// around the exact join's block boundaries and `k` up to past the side
    /// length.
    #[test]
    fn tiled_join_equals_the_per_query_definition() {
        const DIM: usize = 6;
        let lengths = [
            0,
            1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            2 * BLOCK + 1,
            3 * BLOCK + 5,
        ];

        let mut rng = ChaCha8Rng::seed_from_u64(0x711E);
        // One vector set per (side, length), indexed once.
        let mut sides = Vec::new();
        for _side in 0..2 {
            let mut per_length = Vec::new();
            for &n in &lengths {
                let vectors: Vec<Vec<f32>> = (0..n)
                    .map(|_| (0..DIM).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
                    .collect();
                let index = BruteForceIndex::from_vectors(DIM, Metric::Euclidean, slices(&vectors));
                per_length.push((vectors, index));
            }
            sides.push(per_length);
        }

        let mut matched = 0;
        for (left, li) in &sides[0] {
            for (right, ri) in &sides[1] {
                let (lrefs, rrefs) = (slices(left), slices(right));
                for k in [1, 3, 4 * BLOCK] {
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
                        "{} x {} items, k {k}, m {m}",
                        left.len(),
                        right.len()
                    );
                    matched += joined.len();
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
        for metric in [Metric::Cosine, Metric::Euclidean] {
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
                                f32::INFINITY,
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

    /// The matches of a join at `m` are those of the join at `m = ∞` (where
    /// the exact join's bound never drops a tile) that lie within `m`, with
    /// the same distance bits. Seeded unit vectors, a third of the right
    /// side planted near a left row, a zero row and a NaN row on the left;
    /// thresholds fixed and at matched pairs' distances and the float below
    /// them; dimensions with and without trailing terms.
    #[test]
    fn a_join_at_m_is_the_unbounded_join_cut_at_m() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB0_0D);
        let mut unit = |dim: usize| -> Vec<f32> {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter().map(|x| x / norm).collect()
        };
        let bits = |m: &[MutualMatch]| -> Vec<(usize, usize, u32)> {
            m.iter()
                .map(|m| (m.left, m.right, m.distance.to_bits()))
                .collect()
        };
        let mut cut_below_infinity = 0;
        for dim in [16, 67, 384] {
            let mut left: Vec<Vec<f32>> = (0..60).map(|_| unit(dim)).collect();
            left[7] = vec![0.0; dim];
            left[23][dim / 3] = f32::NAN;
            let mut right: Vec<Vec<f32>> = (0..45).map(|_| unit(dim)).collect();
            for (i, r) in right.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
                // Near a left row: the left row plus noise of 1/8 to 1/2 of
                // its norm.
                let scale = [0.125, 0.25, 0.5][i % 9 / 3];
                let noise = unit(dim);
                *r = left[(i * 7) % 60]
                    .iter()
                    .zip(&noise)
                    .map(|(x, n)| x + scale * n)
                    .collect();
            }
            let (left, right): (RowRefs, RowRefs) = (
                left.iter().map(Vec::as_slice).collect(),
                right.iter().map(Vec::as_slice).collect(),
            );
            for metric in [Metric::Cosine, Metric::Euclidean] {
                for k in [1, 3] {
                    let join = |m| mutual_top_k_exact(metric, &left, &right, k, m).0;
                    let all = join(f32::INFINITY);
                    let mut thresholds = vec![0.05, 0.2, 0.35, 0.5, 1.0];
                    for found in all.iter().step_by(4) {
                        thresholds.extend([found.distance, found.distance.next_down()]);
                    }
                    for m in thresholds {
                        let within: Vec<MutualMatch> =
                            all.iter().filter(|x| x.distance <= m).copied().collect();
                        let what = format!("{metric:?} dim {dim}, k {k}, m {m}");
                        assert_eq!(bits(&join(m)), bits(&within), "{what}");
                        cut_below_infinity += all.len() - within.len();
                    }
                }
            }
        }
        assert!(cut_below_infinity > 500, "{cut_below_infinity}: vacuous");

        // Two rows that differ only before the bound's checkpoint: the
        // Euclidean partial sum is the whole distance, so at `m` equal to it
        // the pair sits exactly on the threshold and must match.
        let (mut u, mut v) = (vec![0.0f32; 64], vec![0.0f32; 64]);
        for i in 0..32 {
            (u[i], v[i]) = (0.1 * i as f32, 0.1 * i as f32 + 0.01);
        }
        let (u, v): (RowRefs, RowRefs) = (
            [&u[..]].into_iter().collect(),
            [&v[..]].into_iter().collect(),
        );
        let all = mutual_top_k_exact(Metric::Euclidean, &u, &v, 1, f32::INFINITY).0;
        assert_eq!(all.len(), 1);
        let at = mutual_top_k_exact(Metric::Euclidean, &u, &v, 1, all[0].distance).0;
        assert_eq!(bits(&at), bits(&all));
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

    /// A vector with a NaN component matches nothing: under cosine its
    /// distances used to be clamped to 0.0, a perfect match with whichever
    /// item had the lowest index.
    #[test]
    fn a_nan_vector_matches_nothing() {
        let left = vec![vec![f32::NAN, 0.0, 1.0], vec![0.0, 0.9, 0.1]];
        let right = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]];
        for metric in [Metric::Cosine, Metric::Euclidean] {
            let li = BruteForceIndex::from_vectors(3, metric, slices(&left));
            let ri = BruteForceIndex::from_vectors(3, metric, slices(&right));
            let pairs: Vec<(usize, usize)> =
                mutual_top_k(&li, &ri, &slices(&left), &slices(&right), 1, 0.35)
                    .iter()
                    .map(|m| (m.left, m.right))
                    .collect();
            assert_eq!(pairs, [(1, 1)], "{metric:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one metric")]
    fn a_join_of_indexes_under_two_metrics_panics() {
        let rows = vec![vec![0.5f32, 0.5]];
        let li = BruteForceIndex::from_vectors(2, Metric::Cosine, slices(&rows));
        let ri = BruteForceIndex::from_vectors(2, Metric::Euclidean, slices(&rows));
        mutual_top_k(&li, &ri, &slices(&rows), &slices(&rows), 1, 1.0);
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
}
