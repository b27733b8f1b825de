//! Exact k-nearest-neighbour search by linear scan.
//!
//! The online store's representative index at every size, the index the
//! embedding baselines search, and the correctness oracle for
//! [`crate::HnswIndex`] in tests and recall benchmarks.
//!
//! There is one scan, [`BruteForceIndex::search_within`], and it answers one
//! query: [`VectorIndex::search`] is that scan at `max_distance = ∞`. It
//! scores through the bounded kernel (`Metric::distance_tile_within`), so a
//! group of rows proved beyond what the scan could still keep costs half of
//! its dimensions: beyond the caller's `max_distance` (the online store
//! passes its `m`), or beyond the top-k's current worst once `k` rows are
//! held.

use crate::metric::Metric;
use crate::{for_each_group, Neighbor, Rows, TopK, VectorIndex, GROUP};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

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
    /// L2 norm of every stored vector over the terms the bounded kernel
    /// sums after its test ([`Metric::tail_norm`]). Derived like `norms`.
    #[serde(skip)]
    tails: Vec<f32>,
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
            tails: Vec::new(),
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
        self.tails.push(Metric::tail_norm(vector));
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

    /// Remove the vector at `index`, moving the last one into its place:
    /// the semantics of `Vec::swap_remove`, at `O(dim)` cost. Every other
    /// vector keeps its index.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn swap_remove(&mut self, index: usize) {
        self.norms.swap_remove(index);
        self.tails.swap_remove(index);
        let (dim, last) = (self.dim, self.norms.len());
        self.data.copy_within(last * dim.., index * dim);
        self.data.truncate(last * dim);
    }

    /// [`VectorIndex::search`] over the stored vectors whose distance is not
    /// beyond `max_distance`: the (up to) `k` nearest of *those*. A NaN
    /// distance is never beyond it, so it ranks as in an unbounded search.
    /// At `max_distance = ∞` this is the unbounded search; below it, that
    /// search's list cut at `max_distance`, wherever no NaN distance ranks
    /// after one beyond it (a NaN ranks after every number unless its sign
    /// bit is set). The online store searches within its threshold `m`.
    ///
    /// The scan takes the rows a group at a time (`GROUP`). The `k` best
    /// rows within `max_distance` are kept in a one-row `TopK`: a
    /// candidate costs one compare against the current worst, and one that
    /// displaces it `O(log k)`.
    ///
    /// A full group is one 1 × `GROUP` tile of the bounded kernel
    /// (`Metric::distance_tile_within`) at the lower of `max_distance` and
    /// the top-k's bound, and the group is skipped when the kernel proves
    /// all four rows beyond it; a short last group goes through the pair
    /// kernel. The query's root and tail norm are computed once per scan,
    /// the rows' come from the index. Nothing the unbounded scan would keep
    /// is lost: a row is dropped only when it lies strictly beyond
    /// `max_distance`, where the final filter drops it anyway, or strictly
    /// beyond the top-k's current worst, where `TopK::offer` turns it
    /// away whatever its index; and every row ranked before a kept one is
    /// closer still, so it is never dropped either. The result is bit-equal
    /// to scoring every row with the pair kernel, keeping those with
    /// `!(d > max_distance)`, sorting by `Neighbor::rank` and truncating to
    /// `k`.
    pub fn search_within(&self, query: &[f32], k: usize, max_distance: f32) -> Vec<Neighbor> {
        let cap = k.min(self.len());
        if cap == 0 {
            return Vec::new();
        }
        let qnorm = Metric::squared_norm(query);
        let (qroot, qtail) = (qnorm.sqrt(), Metric::tail_norm(query));
        let mut best = TopK::new(1, cap);
        let offer = |best: &mut TopK, i: usize, distance: f32| {
            // Not `distance <= max_distance`: a NaN is kept, as unbounded.
            if distance.partial_cmp(&max_distance) != Some(Ordering::Greater) {
                best.offer(0, Neighbor::new(i, distance));
            }
        };
        for_each_group(0..self.len(), |group| {
            let Ok(full) = <[usize; GROUP]>::try_from(group) else {
                for &i in group {
                    let distance =
                        self.metric
                            .distance_prenormed(query, self.vector(i), qnorm, self.norms[i]);
                    offer(&mut best, i, distance);
                }
                return;
            };
            let within = self.metric.distance_tile_within(
                [query],
                full.map(|i| self.vector(i)),
                ([qroot], full.map(|i| self.norms[i].sqrt())),
                ([qtail], full.map(|i| self.tails[i])),
                max_distance.min(best.bound(0)),
            );
            if let Some([distances]) = within {
                for (i, distance) in full.into_iter().zip(distances) {
                    offer(&mut best, i, distance);
                }
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
        let rows = || data.chunks_exact(dim.max(1));
        let norms = rows().map(Metric::squared_norm).collect();
        let tails = rows().map(Metric::tail_norm).collect();
        Ok(Self {
            metric,
            dim,
            data,
            norms,
            tails,
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
        self.search_within(query, k, f32::INFINITY)
    }

    fn vector(&self, index: usize) -> &[f32] {
        let start = index * self.dim;
        &self.data[start..start + self.dim]
    }

    fn approx_bytes(&self) -> usize {
        (self.data.capacity() + self.norms.capacity() + self.tails.capacity())
            * std::mem::size_of::<f32>()
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

    /// Top-`k` by definition: score every stored vector, sort, truncate.
    fn reference_top_k(idx: &BruteForceIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
        let qnorm = Metric::squared_norm(query);
        let mut all: Vec<Neighbor> = (0..idx.len())
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
            assert_eq!(restored.tails, built.tails);

            let n = built.len();
            for idx in [&built, &restored] {
                for k in [0, 1, 3, n / 2, n, n + 7] {
                    for query in &queries {
                        let expected = reference_top_k(&built, query, k);
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

    type Keep = fn(usize) -> bool;

    /// Removed shares: none, every other row, all, and all but a few — one
    /// short of a kernel group, exactly one, and one past it, so the last
    /// group of the scan is empty, partial and full.
    const MASKS: [(&str, Keep); 7] = [
        ("none removed", |_| true),
        ("half removed", |i| i % 2 == 1),
        ("all removed", |_| false),
        ("one left", |i| i == 40),
        ("three left", |i| [7, 40, 41].contains(&i)),
        ("four left", |i| [0, 7, 40, 113].contains(&i)),
        ("five left", |i| [0, 7, 40, 41, 113].contains(&i)),
    ];

    /// `idx` with every row `keep` rejects swap-removed, the highest first,
    /// so the row moved into a freed slot is always one `keep` accepts.
    fn keeping(idx: &BruteForceIndex, keep: Keep) -> BruteForceIndex {
        let mut out = idx.clone();
        for i in (0..idx.len()).rev().filter(|&i| !keep(i)) {
            out.swap_remove(i);
        }
        out
    }

    /// `swap_remove` is `Vec::swap_remove` on the rows, and leaves the index
    /// a fresh build of the rows it holds would be: the same norms and tail
    /// norms, bit for bit, and so the same answers.
    #[test]
    fn swap_remove_is_vec_swap_remove() {
        let (dim, vectors, queries) = tie_heavy_fixture();
        for metric in [Metric::Cosine, Metric::Euclidean] {
            let mut idx =
                BruteForceIndex::from_vectors(dim, metric, vectors.iter().map(Vec::as_slice));
            let mut model = vectors.clone();
            // The last row, the first, one in the middle, and so on down to
            // none: every position a removal can free.
            while !model.is_empty() {
                let at = (model.len() * 7 / 13) % model.len();
                for at in [model.len() - 1, 0, at] {
                    if at < model.len() {
                        idx.swap_remove(at);
                        model.swap_remove(at);
                    }
                }
                let fresh =
                    BruteForceIndex::from_vectors(dim, metric, model.iter().map(Vec::as_slice));
                assert_eq!(idx.data, fresh.data, "{metric:?}");
                assert_eq!(bits_of(&idx.norms), bits_of(&fresh.norms));
                assert_eq!(bits_of(&idx.tails), bits_of(&fresh.tails));
                for query in &queries {
                    let hits = idx.search_within(query, 3, 0.35);
                    assert_eq!(bits(&hits), bits(&fresh.search_within(query, 3, 0.35)));
                }
            }
            assert!(idx.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "index")]
    fn swap_remove_rejects_an_index_past_the_end() {
        index_with(&[[0.0, 0.0]]).swap_remove(1);
    }

    fn bits_of(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The store's look-up: at a threshold `m`, the scan returns the
    /// unbounded reference list cut at `m` — the entries with
    /// `!(d > m)`, so a NaN distance stays — ids and distance bits, at
    /// thresholds below, at and above every distance it can return, over
    /// indexes rows were swap-removed from.
    #[test]
    fn a_bounded_scan_is_the_unbounded_scan_cut_at_m() {
        let (dim, vectors, queries) = tie_heavy_fixture();
        let (mut kept, mut cut) = (0, 0);
        for metric in [Metric::Cosine, Metric::Euclidean] {
            let all = BruteForceIndex::from_vectors(dim, metric, vectors.iter().map(Vec::as_slice));
            for (name, keep) in MASKS {
                let idx = keeping(&all, keep);
                let live = idx.len();
                for k in [0, 1, 3, live, live + 7] {
                    for query in &queries {
                        let unbounded = reference_top_k(&idx, query, k);
                        let mut thresholds = vec![-1.0, 0.0, 0.35, f32::INFINITY];
                        for hit in &unbounded {
                            let d = hit.distance;
                            thresholds.extend([d, d.next_up(), d.next_down()]);
                        }
                        thresholds.sort_by(f32::total_cmp);
                        thresholds.dedup_by(|a, b| a.to_bits() == b.to_bits());
                        for m in thresholds {
                            let expected: Vec<Neighbor> = unbounded
                                .iter()
                                .copied()
                                .filter(|hit| {
                                    hit.distance.partial_cmp(&m) != Some(Ordering::Greater)
                                })
                                .collect();
                            let hits = idx.search_within(query, k, m);
                            assert_eq!(
                                bits(&hits),
                                bits(&expected),
                                "{metric:?} {name} k={k} m={m}"
                            );
                            kept += expected.iter().filter(|h| h.distance.is_nan()).count();
                            cut += unbounded.len() - expected.len();
                        }
                    }
                }
            }
        }
        assert!(kept > 0, "no NaN distance was kept: vacuous");
        assert!(cut > 0, "no entry was cut: vacuous");
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
            let within = idx.search_within(&query, 5, f32::INFINITY);
            let order: Vec<usize> = within.iter().map(|n| n.index).collect();
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
