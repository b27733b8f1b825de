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
//!    distance threshold `m` (Algorithm 3, Eq. 1) and fuses matched items
//!    through transitivity. The paper searches an ANN index per table, for
//!    `O(S·k·n · log S · log n)` total work (Lemma 3); here every merge is
//!    the exact join over the two tables' rows, which is faster at every
//!    size measured (see [`merging`]).
//! 3. **Density-based Pruning** ([`pruning`]) — each merged tuple drops its
//!    outliers (Definitions 3–5, Algorithm 4). At the paper's `MinPts = 2`
//!    no member is merely reachable, so a member survives iff another member
//!    of its tuple lies within Euclidean distance `ε` ([`prune_points`]).
//!
//! Every phase spreads over the rayon pool (Section III-E of the paper):
//! attribute selection and encoding map sources and rows, each merge's
//! exact join maps ranges of its left rows, and pruning maps tuples. A run
//! has one schedule; its width is the pool's, so
//! `rayon::ThreadPool::new(1).install(|| multiem.run(&data))` is a
//! single-threaded run with the same tuples.
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

pub use config::MultiEmConfig;
pub use error::MultiEmError;
pub use merging::{
    hierarchical_merge, hierarchical_merge_store, representative, MergeItem, MergedTable,
    StoreMergeOutput,
};
pub use pipeline::{MultiEm, MultiEmOutput, PhaseBreakdown};
pub use pruning::{prune_item, prune_members, prune_merged_table, prune_points, PruneOutcome};
pub use representation::{
    select_attributes, AttributeSelection, AttributeSignificance, EmbeddingStore,
};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, MultiEmError>;
