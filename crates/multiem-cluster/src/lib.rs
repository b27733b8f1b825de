//! Clustering substrate for MultiEM.
//!
//! Two parts of the reproduction need clustering machinery:
//!
//! * the **merging phase** aggregates matched pairs into tuples through
//!   transitivity — [`union_find`];
//! * the **baselines** MSCD-HAC and MSCD-AP are clustering algorithms
//!   (source-aware hierarchical agglomerative clustering and affinity
//!   propagation) — [`hac`] and [`affinity`].
//!
//! The **pruning phase** (Algorithm 4) needs none of it: at the paper's
//! `MinPts = 2` it keeps the members of a tuple that have another member
//! within `ε`, a rule `multiem_core::pruning` states in one loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod hac;
pub mod union_find;

pub use affinity::{AffinityPropagation, AffinityPropagationConfig};
pub use hac::{AgglomerativeClustering, HacConfig, Linkage};
pub use union_find::UnionFind;
