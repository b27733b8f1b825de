//! Clustering substrate for MultiEM.
//!
//! Three different parts of the reproduction need clustering machinery:
//!
//! * the **pruning phase** of MultiEM classifies the entities of every merged
//!   tuple into core / reachable / outlier entities with DBSCAN-style density
//!   definitions (Definitions 3–5, Algorithm 4) — [`mod@dbscan`];
//! * the **merging phase** aggregates matched pairs into tuples through
//!   transitivity — [`union_find`];
//! * the **baselines** MSCD-HAC and MSCD-AP are clustering algorithms
//!   (source-aware hierarchical agglomerative clustering and affinity
//!   propagation) — [`hac`] and [`affinity`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod dbscan;
pub mod hac;
pub mod union_find;

pub use affinity::{AffinityPropagation, AffinityPropagationConfig};
pub use dbscan::{classify_points, dbscan, DbscanConfig, DbscanResult, PointClass};
pub use hac::{AgglomerativeClustering, HacConfig, Linkage};
pub use union_find::UnionFind;
