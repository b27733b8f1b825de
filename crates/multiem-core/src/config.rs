//! Configuration of the MultiEM pipeline.

use multiem_ann::{HnswConfig, Metric};
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
    /// HNSW construction/search parameters. No program path builds a
    /// graph: every merge is the exact join (see [`crate::merging`]) and the
    /// online store's representative index is exact at every size. It is
    /// read only by the benchmark's `ann.hnsw.*` rows, which build a graph
    /// with it to measure against the exact index.
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
