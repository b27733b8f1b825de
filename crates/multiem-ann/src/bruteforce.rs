//! Exact k-nearest-neighbour search by linear scan.
//!
//! Used as the correctness oracle for [`crate::HnswIndex`], for the small
//! per-tuple neighbourhood computations in the pruning phase, and as a simple
//! fallback for tiny tables where building a graph index is not worth it.

use crate::metric::Metric;
use crate::{DynamicVectorIndex, Neighbor, VectorIndex};
use serde::{Deserialize, Serialize};

/// Exact nearest-neighbour index backed by a flat array of vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BruteForceIndex {
    metric: Metric,
    dim: usize,
    data: Vec<f32>,
}

impl BruteForceIndex {
    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric) -> Self {
        Self {
            metric,
            dim,
            data: Vec::new(),
        }
    }

    /// Create an index pre-populated with `vectors`.
    ///
    /// # Panics
    /// Panics if any vector has the wrong dimensionality.
    pub fn from_vectors<'a, I>(dim: usize, metric: Metric, vectors: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut idx = Self::new(dim, metric);
        for v in vectors {
            idx.add(v);
        }
        idx
    }

    /// Add a vector; returns its index.
    ///
    /// # Panics
    /// Panics if `vector.len() != dim`.
    pub fn add(&mut self, vector: &[f32]) -> usize {
        assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
        self.data.extend_from_slice(vector);
        self.len() - 1
    }

    /// Search, excluding a specific stored index (useful for self-joins where
    /// the query vector itself is part of the index).
    pub fn search_excluding(
        &self,
        query: &[f32],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<Neighbor> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // The query's norm is loop-invariant across the scan; hoist it.
        let qnorm = Metric::squared_norm(query);
        let mut results: Vec<Neighbor> = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            if exclude == Some(i) {
                continue;
            }
            let d = self.metric.distance_qnormed(query, self.vector(i), qnorm);
            results.push(Neighbor::new(i, d));
        }
        results.sort_by(Neighbor::rank);
        results.truncate(k);
        // Hand the scan-sized buffer back. A join keeps one result per query:
        // with `len()` slots each they would hold n² slots between them, every
        // scan would fault in fresh pages, and a run's time would follow what
        // a page fault costs that minute instead of what the scan costs.
        results.shrink_to_fit();
        results
    }

    /// Search several queries in **one pass** over the stored vectors.
    ///
    /// The scan is candidates-outer / queries-inner, which saves real work
    /// twice over per-query scans: each stored vector is loaded once per
    /// *batch* and scored against every query while it is cache-hot, and —
    /// for [`Metric::Cosine`] — its squared norm is computed once and shared
    /// by the whole batch, so the per-pair kernel degenerates to a dot
    /// product ([`Metric::distance_prenormed`]). A single-query scan cannot
    /// amortize candidate norms (each candidate is visited once per scan).
    /// Each query's result is bit-identical to what [`VectorIndex::search`]
    /// returns for it (same floats, same distance-then-index ranking, same
    /// top-`k` cut).
    pub fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
        if k == 0 || self.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        let keep = k.min(self.len());
        let qnorms: Vec<f32> = queries.iter().map(|q| Metric::squared_norm(q)).collect();
        // Per-query bounded insertion sort (ascending, worst hit last): with
        // small `k` almost every candidate costs one compare against the
        // current worst, so the inner loop stays distance-computation bound.
        let mut results = vec![Vec::with_capacity(keep + 1); queries.len()];
        for i in 0..self.len() {
            let candidate = self.vector(i);
            let cnorm = Metric::squared_norm(candidate);
            for ((query, &qnorm), hits) in queries.iter().zip(&qnorms).zip(results.iter_mut()) {
                let found = Neighbor::new(
                    i,
                    self.metric
                        .distance_prenormed(query, candidate, qnorm, cnorm),
                );
                if hits.len() == keep {
                    if found.rank(&hits[keep - 1]) != std::cmp::Ordering::Less {
                        continue;
                    }
                    hits.pop();
                }
                let at = hits.partition_point(|h| h.rank(&found) != std::cmp::Ordering::Greater);
                hits.insert(at, found);
            }
        }
        results
    }
}

impl DynamicVectorIndex for BruteForceIndex {
    fn insert(&mut self, vector: &[f32]) -> usize {
        self.add(vector)
    }
}

impl VectorIndex for BruteForceIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_excluding(query, k, None)
    }

    fn vector(&self, index: usize) -> &[f32] {
        let start = index * self.dim;
        &self.data[start..start + self.dim]
    }

    fn approx_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_with(points: &[[f32; 2]]) -> BruteForceIndex {
        let mut idx = BruteForceIndex::new(2, Metric::Euclidean);
        for p in points {
            idx.add(p);
        }
        idx
    }

    #[test]
    fn returns_sorted_neighbors() {
        let idx = index_with(&[[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [0.5, 0.0]]);
        let res = idx.search(&[0.0, 0.0], 3);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].index, 0);
        assert_eq!(res[1].index, 3);
        assert_eq!(res[2].index, 1);
        assert!(res[0].distance <= res[1].distance && res[1].distance <= res[2].distance);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let idx = index_with(&[[0.0, 0.0], [1.0, 0.0]]);
        assert_eq!(idx.search(&[0.0, 0.0], 10).len(), 2);
    }

    #[test]
    fn k_zero_and_empty_index() {
        let idx = index_with(&[[0.0, 0.0]]);
        assert!(idx.search(&[0.0, 0.0], 0).is_empty());
        let empty = BruteForceIndex::new(2, Metric::Cosine);
        assert!(empty.search(&[1.0, 0.0], 3).is_empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn exclusion_skips_self() {
        let idx = index_with(&[[0.0, 0.0], [1.0, 0.0]]);
        let res = idx.search_excluding(&[0.0, 0.0], 1, Some(0));
        assert_eq!(res[0].index, 1);
    }

    #[test]
    fn vector_accessor_and_bytes() {
        let idx = index_with(&[[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(idx.vector(1), &[3.0, 4.0]);
        assert_eq!(idx.dim(), 2);
        assert_eq!(idx.len(), 2);
        assert!(idx.approx_bytes() >= 16);
        assert_eq!(idx.metric(), Metric::Euclidean);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn add_rejects_wrong_dim() {
        let mut idx = BruteForceIndex::new(3, Metric::Cosine);
        idx.add(&[1.0, 2.0]);
    }

    #[test]
    fn batch_search_agrees_with_single_searches() {
        let mut idx = BruteForceIndex::new(4, Metric::Cosine);
        let mut x = 1.0f32;
        for _ in 0..57 {
            // Deterministic pseudo-random-ish vectors, including duplicates.
            x = (x * 7.31).fract() + 0.1;
            idx.add(&[x, 1.0 - x, x * x, 0.5]);
            idx.add(&[x, 1.0 - x, x * x, 0.5]);
        }
        let queries: Vec<Vec<f32>> = (0..9)
            .map(|q| vec![0.1 * q as f32, 1.0, 0.3, 0.2 * q as f32])
            .collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        for k in [0, 1, 3, 200] {
            let batched = idx.search_batch(&refs, k);
            assert_eq!(batched.len(), queries.len());
            for (query, hits) in refs.iter().zip(&batched) {
                assert_eq!(hits, &idx.search(query, k));
            }
        }
        assert!(idx.search_batch(&[], 3).is_empty());
        let empty = BruteForceIndex::new(4, Metric::Cosine);
        assert_eq!(empty.search_batch(&refs, 3), vec![Vec::new(); 9]);
    }

    #[test]
    fn nan_query_is_deterministic_and_panic_free() {
        let mut idx = BruteForceIndex::new(2, Metric::Euclidean);
        for i in 0..40 {
            idx.add(&[i as f32, 1.0]);
        }
        // Every distance is NaN: the ranking falls back to insertion order.
        let query = [f32::NAN, 1.0];
        let order: Vec<usize> = idx.search(&query, 5).iter().map(|n| n.index).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        let batched = idx.search_batch(&[&query], 5);
        let order: Vec<usize> = batched[0].iter().map(|n| n.index).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ties_break_by_index_for_determinism() {
        let idx = index_with(&[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]);
        let res = idx.search(&[0.0, 0.0], 3);
        let order: Vec<usize> = res.iter().map(|n| n.index).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
