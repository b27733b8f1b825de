//! Either index backend behind one type.
//!
//! The online store picks a backend per rebuild (from its live clusters), so
//! its representative index is "a brute-force or an HNSW index" — this
//! enum, which serializes as part of the store's snapshot.

use crate::{BruteForceIndex, HnswConfig, HnswIndex, Metric, Neighbor, VectorIndex};
use serde::{Deserialize, Serialize};

/// One field of an index's serialized state ([`AnnIndex::state_fields`]).
pub enum StateField<'a> {
    /// A field as its value tree gives it.
    Value(&'a dyn Serialize),
    /// The flat vector storage: a sequence of `f32`, which a writer can
    /// stream instead of building its value tree (32 bytes a coordinate).
    Floats(&'a [f32]),
}

/// A [`BruteForceIndex`] or an [`HnswIndex`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnnIndex {
    /// Exact index.
    Brute(BruteForceIndex),
    /// HNSW graph index.
    Hnsw(Box<HnswIndex>),
}

impl AnnIndex {
    /// Create an empty index: an HNSW graph with parameters `hnsw`, or the
    /// exact index when there are none.
    pub fn new(dim: usize, metric: Metric, hnsw: Option<HnswConfig>) -> Self {
        match hnsw {
            Some(config) => AnnIndex::Hnsw(Box::new(HnswIndex::new(dim, metric, config))),
            None => AnnIndex::Brute(BruteForceIndex::new(dim, metric)),
        }
    }

    /// Insert a vector, returning its storage index: an append on the exact
    /// backend, an `O(log N)` graph insertion on HNSW (the graph is built
    /// incrementally anyway), which is what lets the online store grow its
    /// representative index record by record.
    ///
    /// # Panics
    /// If `vector.len() != self.dim()`.
    pub fn insert(&mut self, vector: &[f32]) -> usize {
        match self {
            AnnIndex::Brute(i) => i.add(vector),
            AnnIndex::Hnsw(i) => i.add(vector),
        }
    }

    /// Whether this is the HNSW backend.
    pub fn is_hnsw(&self) -> bool {
        matches!(self, AnnIndex::Hnsw(_))
    }

    /// What [`Serialize::to_value`] gives, field by field: the variant's
    /// name and its fields in tree order, the vectors as
    /// [`StateField::Floats`].
    pub fn state_fields(&self) -> (&'static str, Vec<(&'static str, StateField<'_>)>) {
        match self {
            AnnIndex::Brute(i) => ("Brute", i.state_fields()),
            AnnIndex::Hnsw(i) => ("Hnsw", i.state_fields()),
        }
    }

    fn backend(&self) -> &dyn VectorIndex {
        match self {
            AnnIndex::Brute(i) => i,
            AnnIndex::Hnsw(i) => i.as_ref(),
        }
    }
}

impl VectorIndex for AnnIndex {
    fn dim(&self) -> usize {
        self.backend().dim()
    }

    fn len(&self) -> usize {
        self.backend().len()
    }

    fn metric(&self) -> Metric {
        self.backend().metric()
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.backend().search(query, k)
    }

    fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        keep: &dyn Fn(usize) -> bool,
    ) -> Vec<Neighbor> {
        self.backend().search_filtered(query, k, keep)
    }

    fn vector(&self, index: usize) -> &[f32] {
        self.backend().vector(index)
    }

    fn approx_bytes(&self) -> usize {
        self.backend().approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(hnsw: Option<HnswConfig>) -> AnnIndex {
        let mut index = AnnIndex::new(2, Metric::Euclidean, hnsw);
        for i in 0..6 {
            assert_eq!(index.insert(&[i as f32, 1.0]), i);
        }
        index
    }

    #[test]
    fn state_fields_are_the_value_tree_field_by_field() {
        for index in [filled(None), filled(Some(HnswConfig::small()))] {
            let (variant, fields) = index.state_fields();
            let fields = fields.into_iter().map(|(name, field)| {
                let tree = match field {
                    StateField::Value(value) => value.to_value(),
                    StateField::Floats(xs) => xs.to_vec().to_value(),
                };
                (name.to_string(), tree)
            });
            let tree = serde::Value::Map(fields.collect());
            let whole = serde::Value::Map(vec![(variant.to_string(), tree)]);
            assert_eq!(whole, index.to_value(), "{variant}");
        }
    }

    #[test]
    fn both_backends_answer_through_the_enum() {
        for index in [filled(None), filled(Some(HnswConfig::small()))] {
            assert_eq!((index.len(), index.dim()), (6, 2));
            assert_eq!(index.metric(), Metric::Euclidean);
            assert_eq!(index.vector(4), &[4.0, 1.0]);
            assert!(index.approx_bytes() > 0);
            let nearest: Vec<usize> = index
                .search(&[3.2, 1.0], 2)
                .iter()
                .map(|n| n.index)
                .collect();
            assert_eq!(nearest, [3, 4]);
            let odd: Vec<usize> = index
                .search_filtered(&[3.2, 1.0], 2, &|node| node % 2 == 1)
                .iter()
                .map(|n| n.index)
                .collect();
            assert_eq!(odd, [3, 5]);
        }
        assert!(!filled(None).is_hnsw());
        assert!(filled(Some(HnswConfig::small())).is_hnsw());
    }

    #[test]
    fn roundtrip_restores_backend_and_results() {
        for index in [filled(None), filled(Some(HnswConfig::small()))] {
            let restored = AnnIndex::from_value(&index.to_value()).unwrap();
            assert_eq!(restored.is_hnsw(), index.is_hnsw());
            assert_eq!(
                restored.search(&[2.4, 1.0], 3),
                index.search(&[2.4, 1.0], 3)
            );
        }
    }

    #[test]
    fn deserialize_rejects_malformed_snapshots() {
        let json = serde_json::to_string(&filled(None)).unwrap();
        // 12 floats are not a whole number of 5-d vectors.
        let bad = json.replace("\"dim\":2", "\"dim\":5");
        assert_ne!(bad, json);
        assert!(serde_json::from_str::<AnnIndex>(&bad).is_err());
        let bad = json.replace("\"dim\":2", "\"dim\":0");
        assert!(serde_json::from_str::<AnnIndex>(&bad).is_err());
        let bad = json.replace("Brute", "Flat");
        assert!(serde_json::from_str::<AnnIndex>(&bad).is_err());

        let json = serde_json::to_string(&filled(Some(HnswConfig::small()))).unwrap();
        let bad = json.replace("\"dim\":2", "\"dim\":5");
        assert_ne!(bad, json);
        assert!(serde_json::from_str::<AnnIndex>(&bad).is_err());
    }
}
