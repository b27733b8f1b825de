//! # multiem
//!
//! A Rust reproduction of **MultiEM: Efficient and Effective Unsupervised
//! Multi-Table Entity Matching** (ICDE 2024).
//!
//! This facade crate re-exports the whole workspace so applications can depend
//! on a single crate:
//!
//! * [`core`] — the MultiEM pipeline (enhanced entity representation,
//!   table-wise hierarchical merging, density-based pruning);
//! * [`table`] — the relational data model (schemas, records, datasets,
//!   ground truth, CSV I/O);
//! * [`embed`] — entity serialization and the embedding backend;
//! * [`ann`] — the exact mutual top-K join every batch merge runs, the
//!   brute-force index the online store searches, and an HNSW index the
//!   benchmarks measure against it;
//! * [`cluster`] — the batch merger's union-find, HAC and affinity
//!   propagation;
//! * [`datagen`] — synthetic multi-source benchmark datasets;
//! * [`eval`] — tuple / pair metrics and profiling;
//! * [`baselines`] — the comparison methods of the paper's evaluation;
//! * [`online`] — the incremental [`EntityStore`](online::EntityStore) for
//!   streaming ingestion, online matching and snapshot persistence;
//! * [`serve`] — the sharded, WAL-durable HTTP serving layer
//!   ([`MatchServer`](serve::MatchServer)) over the online store.
//!
//! ## Quickstart
//!
//! ```
//! use multiem::prelude::*;
//!
//! // Generate a small multi-source dataset (an analogue of the paper's Geo benchmark).
//! let data = multiem::datagen::benchmark_dataset("geo", 0.02).expect("known preset");
//!
//! // Run the unsupervised pipeline.
//! let pipeline = MultiEm::new(MultiEmConfig::default(), HashedLexicalEncoder::default());
//! let output = pipeline.run(&data.dataset).expect("pipeline runs");
//!
//! // Score against the generator's ground truth.
//! let report = evaluate(&output.tuples, data.dataset.ground_truth().unwrap());
//! assert!(report.pair.f1 > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use multiem_ann as ann;
pub use multiem_baselines as baselines;
pub use multiem_cluster as cluster;
pub use multiem_core as core;
pub use multiem_datagen as datagen;
pub use multiem_embed as embed;
pub use multiem_eval as eval;
pub use multiem_online as online;
pub use multiem_serve as serve;
pub use multiem_table as table;

/// Commonly used items, importable with `use multiem::prelude::*`.
pub mod prelude {
    pub use multiem_core::{MultiEm, MultiEmConfig, MultiEmOutput};
    pub use multiem_datagen::{benchmark_dataset, BenchmarkDataset};
    pub use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};
    pub use multiem_eval::{evaluate, EvaluationReport, Metrics};
    pub use multiem_online::{EntityStore, OnlineConfig};
    pub use multiem_serve::{MatchServer, ServeConfig, ShardedEntityStore};
    pub use multiem_table::{
        Dataset, EntityId, GroundTruth, MatchTuple, Record, Schema, Table, Value,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let data = crate::datagen::benchmark_dataset("geo", 0.02).unwrap();
        let pipeline = MultiEm::new(MultiEmConfig::default(), HashedLexicalEncoder::default());
        let output = pipeline.run(&data.dataset).unwrap();
        let report = evaluate(&output.tuples, data.dataset.ground_truth().unwrap());
        assert!(report.pair.f1 > 0.3);
    }
}
