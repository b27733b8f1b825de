//! Approximate nearest-neighbour search substrate for MultiEM.
//!
//! The merging phase of MultiEM finds the *mutual top-K* neighbours of two
//! tables' embeddings under a distance threshold `m` (Eq. 1 of the paper).
//! The paper searches an hnswlib index over each table; the batch merger
//! here joins the two tables' rows exactly, and the online store searches
//! an index of its cluster representatives. This crate provides:
//!
//! * [`Metric`] — cosine / Euclidean distances;
//! * [`BruteForceIndex`] — exact k-NN: the online store's representative
//!   index at every size, and the correctness oracle in tests and recall
//!   benchmarks;
//! * [`HnswIndex`] — a from-scratch implementation of Hierarchical Navigable
//!   Small World graphs (Malkov & Yashunin, TPAMI 2020) with heuristic
//!   neighbour selection, `ef_construction` / `ef_search` control and
//!   deterministic seeding, which the recall and latency benchmarks measure
//!   against the exact index;
//! * [`mutual_top_k_exact`] — the mutual top-K join of two sides given as
//!   borrowed rows ([`RowRefs`]), with no index built: every two-table merge
//!   of Algorithm 3; and [`mutual_top_k`], the same join over the rows of
//!   two [`BruteForceIndex`]es.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bruteforce;
pub mod hnsw;
pub mod metric;
pub mod mutual;

pub use bruteforce::{BruteForceIndex, StateField};
pub use hnsw::{HnswConfig, HnswIndex};
pub use metric::Metric;
pub use mutual::{merge_ranked, mutual_top_k, mutual_top_k_exact, MutualMatch, RowRefs};

use serde::{Deserialize, Serialize};

/// One search result: the index of a stored vector and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Index of the matched vector within the index (insertion order).
    pub index: usize,
    /// Distance from the query to the matched vector under the index metric.
    pub distance: f32,
}

impl Neighbor {
    /// Create a neighbor result.
    pub fn new(index: usize, distance: f32) -> Self {
        Self { index, distance }
    }

    /// The ranking shared by every search path: ascending distance under
    /// [`f32::total_cmp`] (a total order even with NaN distances, which the
    /// sorts and heaps require), ties broken by index for determinism.
    pub(crate) fn rank(&self, other: &Self) -> std::cmp::Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.index.cmp(&other.index))
    }
}

/// The `cap` best neighbours of each of `rows` rows under [`Neighbor::rank`]
/// — the top-k of the brute-force scan (one row) and of the exact join (a
/// row per vector of either side) — in one flat allocation: row `r`
/// keeps its `len[r]` entries in `slots[r * cap..]` as a binary max-heap,
/// the worst of them first.
pub(crate) struct TopK {
    cap: usize,
    len: Vec<usize>,
    slots: Vec<Neighbor>,
    /// Per row, a distance no entry that could still get in exceeds: the
    /// worst kept distance once the row is full, infinity before. Almost
    /// every offer of a scan or a join ends at this one compare.
    bound: Vec<f32>,
}

impl TopK {
    pub(crate) fn new(rows: usize, cap: usize) -> Self {
        Self {
            cap,
            len: vec![0; rows],
            slots: vec![Neighbor::new(0, 0.0); rows * cap],
            bound: vec![f32::INFINITY; rows],
        }
    }

    /// Heap bytes of a table of `rows` rows of `cap` entries.
    pub(crate) fn bytes(rows: usize, cap: usize) -> usize {
        rows * (cap * std::mem::size_of::<Neighbor>()
            + std::mem::size_of::<usize>()
            + std::mem::size_of::<f32>())
    }

    /// The entries of `row`, in heap order.
    pub(crate) fn row(&self, row: usize) -> &[Neighbor] {
        &self.slots[row * self.cap..][..self.len[row]]
    }

    /// Every row's entries, best first, in row order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Vec<Neighbor>> + '_ {
        (0..self.len.len()).map(|row| {
            let mut entries = self.row(row).to_vec();
            entries.sort_unstable_by(Neighbor::rank);
            entries
        })
    }

    /// Offer `found` to `row`: kept if the row is not full or `found` ranks
    /// before its worst entry, which it then displaces. The order of offers
    /// does not matter: the rank is total, so the `cap` best of a set are
    /// the same whichever way it is walked.
    #[inline]
    pub(crate) fn offer(&mut self, row: usize, found: Neighbor) {
        // `>` is false for a NaN on either side and for a tie: those go on
        // to the exact comparison under `Neighbor::rank`.
        if found.distance > self.bound[row] {
            return;
        }
        self.insert(row, found);
    }

    fn insert(&mut self, row: usize, found: Neighbor) {
        let slots = &mut self.slots[row * self.cap..][..self.cap];
        let len = &mut self.len[row];
        let mut at;
        if *len < slots.len() {
            // A new leaf, sifted up past every parent it ranks after.
            at = *len;
            *len += 1;
            while at > 0 && found.rank(&slots[(at - 1) / 2]).is_gt() {
                slots[at] = slots[(at - 1) / 2];
                at = (at - 1) / 2;
            }
        } else {
            if slots.first().is_none_or(|worst| found.rank(worst).is_ge()) {
                return;
            }
            // In place of the root, sifted down past every child that ranks
            // after it.
            at = 0;
            loop {
                let mut child = 2 * at + 1;
                if child + 1 < *len && slots[child + 1].rank(&slots[child]).is_gt() {
                    child += 1;
                }
                if child >= *len || slots[child].rank(&found).is_le() {
                    break;
                }
                slots[at] = slots[child];
                at = child;
            }
        }
        slots[at] = found;
        if *len == slots.len() {
            self.bound[row] = slots[0].distance;
        }
    }
}

/// Stored vectors scored per kernel call against one query: a full group is
/// one 1 × `GROUP` tile of [`Metric::distance_tile`]. Four pairs are eight
/// accumulator registers on the baseline target (`ann/kernel` bench rows;
/// see `LANES` in `metric.rs`); rows of five and six still fit its sixteen
/// but measured slower than four.
pub(crate) const GROUP: usize = 4;

/// Hand `nodes` to `f` in groups of [`GROUP`], in order; the last group may
/// be shorter, none is empty.
pub(crate) fn for_each_group(nodes: impl Iterator<Item = usize>, mut f: impl FnMut(&[usize])) {
    let mut group = [0usize; GROUP];
    let mut filled = 0;
    for node in nodes {
        group[filled] = node;
        filled += 1;
        if filled == GROUP {
            f(&group);
            filled = 0;
        }
    }
    if filled > 0 {
        f(&group[..filled]);
    }
}

/// What both indexes store — a flat row-major array of `dim`-float vectors
/// and one cached squared norm per row — as every loop that scores stored
/// vectors reads it: the brute-force scan and the HNSW neighbour expansion
/// (the exact join of two indexes borrows it as [`RowRefs`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows<'a> {
    pub(crate) metric: Metric,
    pub(crate) dim: usize,
    pub(crate) data: &'a [f32],
    pub(crate) norms: &'a [f32],
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.norms.len()
    }

    /// The vector at `row`.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> &'a [f32] {
        &self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// Distance from `query` (squared norm `qnorm`) to each row of `group`,
    /// in group order, in the first `group.len()` slots of the result: one
    /// tile when the group is full, the pair kernel row by row when it is
    /// not. Every entry is bit-equal to the pair kernel's either way.
    #[inline]
    pub(crate) fn distances_to(&self, query: &[f32], qnorm: f32, group: &[usize]) -> [f32; GROUP] {
        if let Ok(full) = <[usize; GROUP]>::try_from(group) {
            let (rows, norms) = (full.map(|r| self.row(r)), full.map(|r| self.norms[r]));
            let [distances] = self.metric.distance_tile([query], rows, [qnorm], norms);
            return distances;
        }
        let mut distances = [0.0; GROUP];
        for (distance, &r) in distances.iter_mut().zip(group) {
            *distance = self
                .metric
                .distance_prenormed(query, self.row(r), qnorm, self.norms[r]);
        }
        distances
    }
}

/// Common interface over exact and approximate vector indexes.
pub trait VectorIndex: Send + Sync {
    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distance metric used by the index.
    fn metric(&self) -> Metric;

    /// Return (up to) the `k` nearest stored vectors to `query`, ordered by
    /// increasing distance.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Borrow the stored vector at `index`.
    fn vector(&self, index: usize) -> &[f32];

    /// Approximate heap footprint of the index in bytes (memory accounting).
    fn approx_bytes(&self) -> usize;
}
