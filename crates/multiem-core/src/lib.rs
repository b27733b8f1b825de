//! MultiEM — unsupervised multi-table entity matching (ICDE 2024), in Rust.
//!
//! This crate implements the paper's primary contribution: a three-phase
//! pipeline that identifies groups ("tuples") of records from multiple source
//! tables that refer to the same real-world entity, with no labelled data.
//!
//! 1. **Enhanced Entity Representation** ([`representation`]) — every entity is
//!    serialized to a sentence and embedded; an automated attribute-selection
//!    step (Algorithm 1) measures, per attribute, how much shuffling its values
//!    perturbs the embeddings and keeps only the attributes whose perturbation
//!    is large (threshold `γ`), so opaque ids and other noise attributes do not
//!    pollute the representation.
//! 2. **Table-wise Hierarchical Merging** ([`merging`]) — tables are merged
//!    pairwise, level by level, until a single table remains (Algorithm 2).
//!    Each two-table merge finds mutual top-K nearest neighbours under a
//!    distance threshold `m` using an ANN index (Algorithm 3, Eq. 1) and fuses
//!    matched items through transitivity, giving `O(S·k·n · log S · log n)`
//!    total work (Lemma 3) instead of the quadratic pairwise extension.
//! 3. **Density-based Pruning** ([`pruning`]) — each merged tuple is cleaned by
//!    classifying its members into core / reachable / outlier entities
//!    (Definitions 3–5, Algorithm 4) and dropping the outliers.
//!
//! Both the merging and the pruning phase are embarrassingly parallel; the
//! [`pipeline::MultiEm`] runner exposes a sequential and a rayon-parallel mode
//! (Section III-E of the paper).
//!
//! ```
//! use multiem_core::{MultiEm, MultiEmConfig};
//! use multiem_datagen::{benchmark_dataset};
//! use multiem_embed::HashedLexicalEncoder;
//!
//! let data = benchmark_dataset("geo", 0.02).unwrap();
//! let encoder = HashedLexicalEncoder::default();
//! let multiem = MultiEm::new(MultiEmConfig::default(), encoder);
//! let output = multiem.run(&data.dataset).unwrap();
//! println!("found {} matched tuples", output.tuples.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complexity;
pub mod config;
pub mod error;
pub mod merging;
pub mod pipeline;
pub mod pruning;
pub mod representation;

pub use config::{IndexBackend, MultiEmConfig};
pub use error::MultiEmError;
pub use merging::{
    hierarchical_merge, hierarchical_merge_store, two_table_merge, MergeItem, MergedTable,
    StoreMergeOutput,
};
pub use pipeline::{MultiEm, MultiEmOutput, PhaseBreakdown};
pub use pruning::{prune_item, prune_members, prune_merged_table, prune_points, PruneOutcome};
pub use representation::{
    select_attributes, AttributeSelection, AttributeSignificance, EmbeddingStore,
};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, MultiEmError>;
