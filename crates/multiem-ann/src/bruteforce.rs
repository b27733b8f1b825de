//! Exact k-nearest-neighbour search by linear scan.
//!
//! The online store's representative index at every size, the index the
//! embedding baselines search, and the correctness oracle for
//! [`crate::HnswIndex`] in tests and recall benchmarks.
//!
//! There is one scan, `BruteForceIndex::scan`, and it answers one query:
//! [`VectorIndex::search`] is [`BruteForceIndex::search_filtered`] accepting
//! every row.

use crate::metric::Metric;
use crate::{for_each_group, Neighbor, Rows, TopK, VectorIndex};
use serde::{Deserialize, Serialize};

/// One field of an index's serialized state
/// ([`BruteForceIndex::state_fields`]).
pub enum StateField<'a> {
    /// A field as its value tree gives it.
    Value(&'a dyn Serialize),
    /// The flat vector storage: a sequence of `f32`, which a writer can
    /// stream instead of building its value tree (32 bytes a coordinate).
    Floats(&'a [f32]),
}

/// Exact nearest-neighbour index backed by a flat array of vectors.
#[derive(Debug, Clone, Serialize)]
pub struct BruteForceIndex {
    metric: Metric,
    dim: usize,
    data: Vec<f32>,
    /// Squared norm of every stored vector, so a scan is one pass per pair
    /// ([`Metric::distance_prenormed`]). Derived from `data`: never
    /// serialized, recomputed on deserialize.
    #[serde(skip)]
    norms: Vec<f32>,
}

impl BruteForceIndex {
    /// What [`Serialize::to_value`] gives, field by field and in tree
    /// order, the vectors as [`StateField::Floats`]: a snapshot writer
    /// streams the coordinates instead of building their tree.
    pub fn state_fields(&self) -> [(&'static str, StateField<'_>); 3] {
        [
            ("metric", StateField::Value(&self.metric)),
            ("dim", StateField::Value(&self.dim)),
            ("data", StateField::Floats(&self.data)),
        ]
    }

    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric) -> Self {
        Self {
            metric,
            dim,
            data: Vec::new(),
            norms: Vec::new(),
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
        self.norms.push(Metric::squared_norm(vector));
        self.len() - 1
    }

    /// The stored vectors and their norms, as the distance loops read them.
    pub(crate) fn rows(&self) -> Rows<'_> {
        Rows {
            metric: self.metric,
            dim: self.dim,
            data: &self.data,
            norms: &self.norms,
        }
    }

    /// [`VectorIndex::search`] over the stored vectors `keep` accepts: the
    /// (up to) `k` nearest of *those*, as if the rejected ones were not
    /// stored. This is how the online store searches past its tombstones: a
    /// rejected row is skipped before it is scored, so the cost follows the
    /// accepted rows, not `k` plus the rejected ones.
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        keep: &dyn Fn(usize) -> bool,
    ) -> Vec<Neighbor> {
        self.scan(query, k, keep)
    }

    /// The scan: one pass over the stored vectors for one query.
    ///
    /// The rows `keep` accepts are taken a group at a time
    /// ([`crate::GROUP`]), each group scored in one 1 × `GROUP` tile of
    /// [`Metric::distance_tile`]. A row `keep` rejects is skipped before the
    /// kernel: it costs one predicate call and no distance. The `k` best
    /// accepted rows are kept in a one-row [`TopK`]: a candidate costs one
    /// compare against the current worst, and one that displaces it
    /// `O(log k)`. The result is bit-equal to scoring every accepted row with
    /// the pair kernel, sorting by `Neighbor::rank` and truncating.
    ///
    /// Generic over `keep` so the unfiltered search compiles to a loop with
    /// no predicate in it.
    fn scan<F>(&self, query: &[f32], k: usize, keep: F) -> Vec<Neighbor>
    where
        F: Fn(usize) -> bool,
    {
        let cap = k.min(self.len());
        if cap == 0 {
            return Vec::new();
        }
        let qnorm = Metric::squared_norm(query);
        let mut best = TopK::new(1, cap);
        let rows = self.rows();
        for_each_group((0..self.len()).filter(|&i| keep(i)), |group| {
            let distances = rows.distances_to(query, qnorm, group);
            for (&i, &distance) in group.iter().zip(&distances) {
                best.offer(0, Neighbor::new(i, distance));
            }
        });
        // A local, not the tail expression: the iterator borrows `best`.
        let hits = best.rows().next().unwrap_or_default();
        hits
    }
}

impl Deserialize for BruteForceIndex {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        /// The serialized fields of a [`BruteForceIndex`].
        #[derive(Deserialize)]
        struct Stored {
            metric: Metric,
            dim: usize,
            data: Vec<f32>,
        }
        let Stored { metric, dim, data } = Stored::from_value(v)?;
        // A malformed (hand-edited or truncated) snapshot must fail while it
        // is read: a shorter index would no longer line up with the node
        // numbers the caller stored beside it.
        let whole = match dim {
            0 => data.is_empty(),
            _ => data.len().is_multiple_of(dim),
        };
        if !whole {
            return Err(serde::Error::type_mismatch(
                "BruteForceIndex",
                "data length that is a multiple of dim > 0",
            ));
        }
        let norms = data
            .chunks_exact(dim.max(1))
            .map(Metric::squared_norm)
            .collect();
        Ok(Self {
            metric,
            dim,
            data,
            norms,
        })
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
        self.scan(query, k, |_| true)
    }

    fn vector(&self, index: usize) -> &[f32] {
        let start = index * self.dim;
        &self.data[start..start + self.dim]
    }

    fn approx_bytes(&self) -> usize {
        (self.data.capacity() + self.norms.capacity()) * std::mem::size_of::<f32>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// Top-`k` by definition: score every stored vector `keep` accepts,
    /// sort, truncate.
    fn reference_top_k(
        idx: &BruteForceIndex,
        query: &[f32],
        k: usize,
        keep: &dyn Fn(usize) -> bool,
    ) -> Vec<Neighbor> {
        let qnorm = Metric::squared_norm(query);
        let mut all: Vec<Neighbor> = (0..idx.len())
            .filter(|&i| keep(i))
            .map(|i| {
                let stored = idx.vector(i);
                let norm = Metric::squared_norm(stored);
                let d = idx.metric().distance_prenormed(query, stored, qnorm, norm);
                Neighbor::new(i, d)
            })
            .collect();
        all.sort_by(Neighbor::rank);
        all.truncate(k);
        all
    }

    pub(crate) fn bits(hits: &[Neighbor]) -> Vec<(usize, u32)> {
        hits.iter()
            .map(|n| (n.index, n.distance.to_bits()))
            .collect()
    }

    /// 114 stored vectors of 11 dimensions (one full lane block plus a
    /// remainder), every one twice so ties are everywhere, and 12 queries:
    /// generic ones, a stored vector, the zero vector and one with a NaN.
    pub(crate) fn tie_heavy_fixture() -> (usize, Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let dim = 11;
        let mut x = 1.0f32;
        let mut vectors: Vec<Vec<f32>> = Vec::new();
        for _ in 0..57 {
            let v: Vec<f32> = (0..dim)
                .map(|_| {
                    x = (x * 7.31).fract() + 0.1;
                    x - 0.6
                })
                .collect();
            // Every vector twice: ties everywhere, broken by index.
            vectors.push(v.clone());
            vectors.push(v);
        }
        let mut queries: Vec<Vec<f32>> = (0..9)
            .map(|q| (0..dim).map(|j| 0.1 * q as f32 - 0.05 * j as f32).collect())
            .collect();
        queries.push(vectors[20].clone());
        queries.push(vec![0.0; dim]);
        let mut poisoned = vectors[3].clone();
        poisoned[5] = f32::NAN;
        queries.push(poisoned);
        (dim, vectors, queries)
    }

    #[test]
    fn scan_agrees_with_sort_and_truncate_reference() {
        let (dim, vectors, queries) = tie_heavy_fixture();

        for metric in [Metric::Cosine, Metric::Euclidean] {
            let built =
                BruteForceIndex::from_vectors(dim, metric, vectors.iter().map(Vec::as_slice));
            let value = built.to_value();
            let serde::Value::Map(fields) = &value else {
                panic!("an index serializes as a map");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["metric", "dim", "data"], "the norm cache is derived");
            let restored = BruteForceIndex::from_value(&value).unwrap();
            assert_eq!(restored.norms, built.norms);

            let n = built.len();
            for idx in [&built, &restored] {
                for k in [0, 1, 3, n / 2, n, n + 7] {
                    for query in &queries {
                        let expected = reference_top_k(&built, query, k, &|_| true);
                        let hits = idx.search(query, k);
                        assert_eq!(bits(&hits), bits(&expected), "{metric:?} k={k}");
                    }
                }
            }
        }

        let empty = BruteForceIndex::new(dim, Metric::Cosine);
        assert!(queries
            .iter()
            .all(|query| empty.search(query, 3).is_empty()));
    }

    #[test]
    fn filtered_scan_is_the_reference_over_the_accepted_rows() {
        let (dim, vectors, queries) = tie_heavy_fixture();
        let n = vectors.len();
        // Dead shares: none, every other row, all, and all but a few — one
        // short of a kernel group, exactly one, and one past it, so the last
        // group of the scan is empty, partial and full.
        type Keep = fn(usize) -> bool;
        let masks: [(&str, Keep); 7] = [
            ("none dead", |_| true),
            ("half dead", |i| i % 2 == 1),
            ("all dead", |_| false),
            ("one live", |i| i == 40),
            ("three live", |i| [7, 40, 41].contains(&i)),
            ("four live", |i| [0, 7, 40, 113].contains(&i)),
            ("five live", |i| [0, 7, 40, 41, 113].contains(&i)),
        ];
        assert_eq!(crate::GROUP, 4, "the masks straddle the group size");
        for metric in [Metric::Cosine, Metric::Euclidean] {
            let idx = BruteForceIndex::from_vectors(dim, metric, vectors.iter().map(Vec::as_slice));
            for (name, keep) in &masks {
                let live = (0..n).filter(|&i| keep(i)).count();
                for k in [0, 1, 3, live, live + 7] {
                    for query in &queries {
                        let hits = &idx.search_filtered(query, k, keep);
                        let expected = reference_top_k(&idx, query, k, keep);
                        assert_eq!(expected.len(), k.min(live));
                        assert_eq!(bits(hits), bits(&expected), "{metric:?} {name} k={k}");
                        // What the store used to do: fetch `k` plus the dead
                        // count unfiltered, drop the dead, cut to `k`.
                        let overfetched: Vec<Neighbor> = idx
                            .search(query, k + (n - live))
                            .into_iter()
                            .filter(|hit| keep(hit.index))
                            .take(k)
                            .collect();
                        assert_eq!(bits(hits), bits(&overfetched), "{metric:?} {name} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn deserialize_rejects_malformed_snapshots() {
        let idx = index_with(&[[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]);
        let json = serde_json::to_string(&idx).unwrap();
        assert!(serde_json::from_str::<BruteForceIndex>(&json).is_ok());
        // Six floats are not a whole number of 4-d vectors.
        let bad = json.replace("\"dim\":2", "\"dim\":4");
        assert_ne!(bad, json);
        assert!(serde_json::from_str::<BruteForceIndex>(&bad).is_err());
        // Data without a dimensionality.
        let bad = json.replace("\"dim\":2", "\"dim\":0");
        assert!(serde_json::from_str::<BruteForceIndex>(&bad).is_err());
        // An empty index of dimension 0 is what `new(0, ..)` serializes to.
        let empty = serde_json::to_string(&BruteForceIndex::new(0, Metric::Cosine)).unwrap();
        assert!(serde_json::from_str::<BruteForceIndex>(&empty)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn state_fields_are_the_value_tree_field_by_field() {
        let idx = index_with(&[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]);
        let fields = idx.state_fields().map(|(name, field)| {
            let tree = match field {
                StateField::Value(value) => value.to_value(),
                StateField::Floats(xs) => xs.to_vec().to_value(),
            };
            (name.to_string(), tree)
        });
        assert_eq!(serde::Value::Map(fields.to_vec()), idx.to_value());
    }

    #[test]
    fn nan_query_is_deterministic_and_panic_free() {
        // Cosine too: its clamp used to turn the NaN distances into 0.0.
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let mut idx = BruteForceIndex::new(2, metric);
            for i in 0..40 {
                idx.add(&[i as f32, 1.0]);
            }
            // Every distance is NaN: the ranking falls back to insertion order.
            let query = [f32::NAN, 1.0];
            let hits = idx.search(&query, 5);
            assert!(hits.iter().all(|n| n.distance.is_nan()), "{metric:?}");
            let order: Vec<usize> = hits.iter().map(|n| n.index).collect();
            assert_eq!(order, vec![0, 1, 2, 3, 4], "{metric:?}");
            let filtered = idx.search_filtered(&query, 5, &|_| true);
            let order: Vec<usize> = filtered.iter().map(|n| n.index).collect();
            assert_eq!(order, vec![0, 1, 2, 3, 4], "{metric:?}");
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let idx = index_with(&[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]);
        let res = idx.search(&[0.0, 0.0], 3);
        let order: Vec<usize> = res.iter().map(|n| n.index).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
