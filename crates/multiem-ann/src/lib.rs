//! Approximate nearest-neighbour search substrate for MultiEM.
//!
//! The merging phase of MultiEM builds an ANN index over the embeddings of each
//! table and queries *mutual top-K* neighbours with a distance threshold `m`
//! (Eq. 1 of the paper). The paper uses hnswlib; this crate provides:
//!
//! * [`Metric`] — cosine / Euclidean / inner-product distances;
//! * [`BruteForceIndex`] — exact k-NN, used for small inputs and as the
//!   correctness oracle in tests and recall benchmarks;
//! * [`HnswIndex`] — a from-scratch implementation of Hierarchical Navigable
//!   Small World graphs (Malkov & Yashunin, TPAMI 2020) with heuristic
//!   neighbour selection, `ef_construction` / `ef_search` control and
//!   deterministic seeding;
//! * [`AnnIndex`] — either of the two behind one serializable type, for
//!   callers that pick the backend from the collection size;
//! * [`mutual_top_k`] — the mutual top-K join used by the two-table merging
//!   strategy (Algorithm 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bruteforce;
pub mod hnsw;
pub mod index;
pub mod metric;
pub mod mutual;

pub use bruteforce::BruteForceIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use index::AnnIndex;
pub use metric::Metric;
pub use mutual::{merge_ranked, mutual_top_k, MutualMatch};

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

/// Max-heap entry: the farthest neighbour on top, so a heap capped at `n`
/// entries keeps the `n` closest seen so far (the HNSW result set and the
/// brute-force scan's top-k).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FarthestFirst(pub(crate) Neighbor);

impl Eq for FarthestFirst {}

impl Ord for FarthestFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.rank(&other.0)
    }
}

impl PartialOrd for FarthestFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Squared norm of every `dim`-float row of a deserialized flat vector array,
/// or an error when `data` is not a whole number of rows: a malformed
/// (hand-edited or truncated) snapshot must fail while it is read, not come
/// back as a shorter index or panic later in a search.
pub(crate) fn row_norms(owner: &str, data: &[f32], dim: usize) -> Result<Vec<f32>, serde::Error> {
    if dim == 0 && !data.is_empty() {
        return Err(serde::Error::type_mismatch(
            owner,
            "dim > 0 for non-empty data",
        ));
    }
    if dim != 0 && !data.len().is_multiple_of(dim) {
        return Err(serde::Error::type_mismatch(
            owner,
            "data length that is a multiple of dim",
        ));
    }
    Ok(data
        .chunks_exact(dim.max(1))
        .map(Metric::squared_norm)
        .collect())
}

/// Vector indexes that support online insertion after construction.
///
/// [`BruteForceIndex`], [`HnswIndex`] and [`AnnIndex`] implement this: HNSW insertion
/// is `O(log N)` (the graph is built incrementally anyway), which is what the
/// streaming entity store in `multiem-online` relies on.
pub trait DynamicVectorIndex: VectorIndex {
    /// Insert a vector into the (possibly already built) index, returning its
    /// storage index.
    ///
    /// # Panics
    /// Implementations panic if `vector.len() != self.dim()`.
    fn insert(&mut self, vector: &[f32]) -> usize;
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

    /// [`VectorIndex::search`] for several queries at once: one result per
    /// query, in query order, each exactly what `search` returns for it.
    /// The default searches query by query (HNSW has no batched traversal);
    /// [`BruteForceIndex`] answers the whole batch in one pass over its
    /// stored vectors.
    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }

    /// [`VectorIndex::search_batch`] over the stored vectors `keep` accepts:
    /// per query the (up to) `k` nearest of *those*, as if the rejected ones
    /// were not stored. This is how a caller that retires entries without
    /// removing them (the online store's tombstones) searches what is left:
    /// the cost follows the accepted vectors, not `k` plus the rejected ones.
    /// [`BruteForceIndex`] skips a rejected row before scoring it;
    /// [`HnswIndex`] walks through rejected nodes, so the graph stays
    /// navigable, but never counts one as a result.
    ///
    /// `search` and `search_batch` are this with every vector accepted, run
    /// through the same scan or traversal.
    fn search_batch_filtered(
        &self,
        queries: &[&[f32]],
        k: usize,
        keep: &dyn Fn(usize) -> bool,
    ) -> Vec<Vec<Neighbor>>;

    /// Borrow the stored vector at `index`.
    fn vector(&self, index: usize) -> &[f32];

    /// Approximate heap footprint of the index in bytes (memory accounting).
    fn approx_bytes(&self) -> usize;
}
