//! Configuration of the MultiEM pipeline.

use multiem_ann::{AnnIndex, HnswConfig, Metric};
use multiem_table::SerializeOptions;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of MultiEM (Section IV-A, "Implementation details").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiEmConfig {
    // --- Enhanced Entity Representation -----------------------------------
    /// Whether to run the automated attribute selection (the `w/o EER`
    /// ablation disables this and embeds all attributes).
    pub attribute_selection: bool,
    /// Sampling ratio `r` used when computing attribute significance scores
    /// (0.2 for most datasets, 0.05 for the largest in the paper).
    pub sample_ratio: f64,
    /// Selection threshold `γ`: an attribute is kept when the mean cosine
    /// similarity between original and value-shuffled embeddings is **at
    /// most** `γ` (i.e. shuffling the attribute changes the embedding enough
    /// to matter). The paper grid-searches `γ ∈ {0.8, 0.9}`.
    pub gamma: f64,
    /// Serialization options (lowercasing, max sequence length 64).
    pub serialize: SerializeOptions,

    // --- Table-wise Hierarchical Merging -----------------------------------
    /// Mutual top-K bound `k` (the paper uses 1).
    pub k: usize,
    /// Distance threshold `m` on matched pairs (grid `{0.05, 0.2, 0.35, 0.5}`).
    pub m: f32,
    /// Metric used in the merging phase (cosine in the paper).
    pub merge_metric: Metric,
    /// Index size at which the vector index switches from the exact
    /// brute-force backend to HNSW: below it, exact; at or above it, a graph.
    /// `0` always builds HNSW and `usize::MAX` never does. A merge counts its
    /// *smaller* table and runs both of its sides on the one backend that
    /// selects, so it builds HNSW graphs only when both tables are past the
    /// threshold (an exact merge builds no index at all): with one exact
    /// side, the join scores all |A|×|B| pairs anyway, and the one-pass
    /// exact join does it without a graph. The online store counts its live
    /// representatives.
    ///
    /// The default (2,000) is the measured break-even of the two backends in
    /// a merge, where every item is inserted once into its own table's index
    /// and searched once in the other table's. Per item HNSW costs
    /// `ann.hnsw.insert_us + ann.hnsw.search_us` — 474 µs at n = 1,143,
    /// 638 µs at 2,296, 690 µs at 3,667 — and brute force costs
    /// `ann.brute.search_us` = 0.285 µs × n — 315 / 655 / 1,068 µs — so the
    /// lines cross near n ≈ 2,200. Those are rows of the benchmark's traced
    /// runs (`benchmark/README.md`; seed 103, dim-384 embeddings, `k = 1`,
    /// default [`HnswConfig`]) on a 2-core x86-64 VM with rustc 1.95;
    /// re-measure before moving the threshold on other hardware. Since then
    /// the brute-force scan runs on cached norms at 0.13–0.14 µs × n, which
    /// put the crossing near n ≈ 5,000, and then a merge of two exact tables
    /// stopped searching at all: `mutual_top_k` joins them in one pass over
    /// their distance matrix, at `ann.mutual.join_s` ÷ items = 10 / 18 /
    /// 21 µs per item at the same three sizes (about 0.009 µs × n) against
    /// 193 / 337 / 408 µs for HNSW insert + search in the same runs — for a
    /// merge the lines no longer cross below n ≈ 40,000 (extrapolated:
    /// nothing has run past n ≈ 6,000). A single look-up, which is what the
    /// online store pays, still crosses near n ≈ 3,700. The default was
    /// deliberately not moved along with either (README, "Where the default
    /// `hnsw_threshold` comes from").
    pub hnsw_threshold: usize,
    /// HNSW construction/search parameters.
    pub hnsw: HnswConfig,
    /// Seed controlling the random pairing order of tables in hierarchical
    /// merging (Figure 6(b) varies this seed).
    pub merge_seed: u64,

    // --- Density-based Pruning ---------------------------------------------
    /// Whether to run the pruning phase (the `w/o DP` ablation disables it).
    pub pruning: bool,
    /// Neighbourhood radius `ε` (grid `{0.8, 1.0}` in the paper): a member
    /// survives pruning iff another member of its tuple lies within
    /// Euclidean distance `ε`. That is Algorithm 4 at the paper's
    /// `MinPts = 2`, which is no setting but the shape of
    /// [`crate::prune_points`].
    pub epsilon: f32,
}

impl Default for MultiEmConfig {
    fn default() -> Self {
        Self {
            attribute_selection: true,
            sample_ratio: 0.2,
            gamma: 0.9,
            serialize: SerializeOptions::default(),
            k: 1,
            m: 0.35,
            merge_metric: Metric::Cosine,
            hnsw_threshold: 2_000,
            hnsw: HnswConfig::default(),
            merge_seed: 0,
            pruning: true,
            epsilon: 1.0,
        }
    }
}

impl MultiEmConfig {
    /// The `w/o EER` ablation: skip attribute selection.
    pub fn without_attribute_selection(mut self) -> Self {
        self.attribute_selection = false;
        self
    }

    /// The `w/o DP` ablation: skip density-based pruning.
    pub fn without_pruning(mut self) -> Self {
        self.pruning = false;
        self
    }

    /// Whether an index sized by `len` is an HNSW graph rather than the exact
    /// index — the one place [`MultiEmConfig::hnsw_threshold`] is read. The
    /// merger passes the length of a merge's smaller table, for both of its
    /// sides (no: the exact join over its rows; yes: a graph over each); the
    /// online store passes its count of live representatives.
    pub fn wants_hnsw(&self, len: usize) -> bool {
        len >= self.hnsw_threshold
    }

    /// An empty index of dimensionality `dim`, on the backend
    /// [`MultiEmConfig::wants_hnsw`] selects for `len` (same callers, same
    /// lengths).
    pub fn index_for(&self, len: usize, dim: usize) -> AnnIndex {
        let hnsw = self.wants_hnsw(len).then(|| self.hnsw.clone());
        AnnIndex::new(dim, self.merge_metric, hnsw)
    }

    /// Validate the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be at least 1".into());
        }
        if !(0.0 < self.sample_ratio && self.sample_ratio <= 1.0) {
            return Err("sample_ratio must be in (0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must be in [0, 1]".into());
        }
        // Written so NaN fails: every comparison with NaN is false.
        if !(self.m.is_finite() && self.m >= 0.0) {
            return Err("m must be finite and non-negative".into());
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err("epsilon must be finite and positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = MultiEmConfig::default();
        assert_eq!(c.k, 1);
        assert_eq!(c.merge_metric, Metric::Cosine);
        assert!(c.attribute_selection);
        assert!(c.pruning);
        assert!(c.validate().is_ok());
        assert_eq!(c.serialize.max_tokens, Some(64));
    }

    #[test]
    fn ablation_builders() {
        let c = MultiEmConfig::default().without_attribute_selection();
        assert!(!c.attribute_selection);
        assert!(c.pruning);
        let c = MultiEmConfig::default().without_pruning();
        assert!(!c.pruning);
    }

    #[test]
    fn backend_policy_follows_the_threshold() {
        let at = |hnsw_threshold| MultiEmConfig {
            hnsw_threshold,
            ..MultiEmConfig::default()
        };
        let ten = at(10);
        assert!(!ten.wants_hnsw(9) && ten.wants_hnsw(10));
        assert!(!ten.index_for(9, 4).is_hnsw() && ten.index_for(10, 4).is_hnsw());
        // `0`: HNSW even for an empty index; `usize::MAX`: never HNSW.
        assert!(at(0).wants_hnsw(0) && at(0).index_for(0, 4).is_hnsw());
        let never = at(usize::MAX);
        assert!(!never.wants_hnsw(1_000_000) && !never.wants_hnsw(usize::MAX - 1));
        assert!(!never.index_for(1_000_000, 4).is_hnsw());
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            MultiEmConfig {
                k: 0,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                sample_ratio: 0.0,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                gamma: 1.5,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                m: -0.1,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                epsilon: 0.0,
                ..MultiEmConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn validation_refuses_non_finite_thresholds() {
        for m in [f32::NAN, f32::INFINITY] {
            let c = MultiEmConfig {
                m,
                ..MultiEmConfig::default()
            };
            assert!(c.validate().is_err(), "m = {m}");
        }
        for epsilon in [f32::NAN, f32::INFINITY] {
            let c = MultiEmConfig {
                epsilon,
                ..MultiEmConfig::default()
            };
            assert!(c.validate().is_err(), "epsilon = {epsilon}");
        }
    }
}
