//! Supervised two-table matcher — the Ditto / PromptEM stand-in.
//!
//! The real baselines fine-tune pre-trained language models on a 5 % labelled
//! sample. Running a transformer is out of scope offline, so this matcher
//! keeps the evaluation-relevant structure: it *requires labelled pairs*,
//! learns a pair classifier from them (logistic regression over lexical and
//! embedding similarity features), and is applied to candidate pairs produced
//! by a cheap blocking step (top-K embedding neighbours). Its behaviour under
//! the pairwise / chain extensions — including the transitive-conflict
//! failure mode — matches the role Ditto/PromptEM play in Table IV.

use crate::context::MatchContext;
use crate::lr::LogisticRegression;
use crate::{MatchedPair, TwoTableMatcher};
use multiem_ann::{BruteForceIndex, Metric, VectorIndex};
use multiem_table::EntityId;
use serde::{Deserialize, Serialize};

/// Configuration of the supervised matcher.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SupervisedConfig {
    /// Number of blocking candidates per left entity.
    pub block_k: usize,
    /// Classification threshold on the predicted match probability.
    pub decision_threshold: f64,
}

impl Default for SupervisedConfig {
    fn default() -> Self {
        Self {
            block_k: 3,
            decision_threshold: 0.5,
        }
    }
}

/// Pair features used by the classifier.
fn pair_features(ctx: &MatchContext<'_>, a: EntityId, b: EntityId) -> Vec<f64> {
    let cosine = f64::from(ctx.cosine(a, b));
    let jaccard = f64::from(ctx.jaccard(a, b));
    let ta = ctx.text(a);
    let tb = ctx.text(b);
    let len_a = ta.split_whitespace().count() as f64;
    let len_b = tb.split_whitespace().count() as f64;
    let len_ratio = if len_a.max(len_b) == 0.0 {
        1.0
    } else {
        len_a.min(len_b) / len_a.max(len_b)
    };
    // Shared-prefix indicator: first token equal.
    let first_equal = match (ta.split_whitespace().next(), tb.split_whitespace().next()) {
        (Some(x), Some(y)) if x == y => 1.0,
        _ => 0.0,
    };
    vec![cosine, jaccard, len_ratio, first_equal]
}

/// The supervised pair matcher (Ditto / PromptEM stand-in).
#[derive(Debug, Clone)]
pub struct SupervisedMatcher {
    name: String,
    config: SupervisedConfig,
    model: LogisticRegression,
}

impl SupervisedMatcher {
    /// Create an untrained matcher; call [`SupervisedMatcher::train`] before use.
    pub fn new(name: impl Into<String>, config: SupervisedConfig) -> Self {
        Self {
            name: name.into(),
            config,
            model: LogisticRegression::new(4),
        }
    }

    /// A matcher playing the role of Ditto: standard fine-tuning, a tighter
    /// decision threshold (higher precision, lower recall).
    pub fn ditto_like() -> Self {
        Self::new(
            "Ditto",
            SupervisedConfig {
                block_k: 3,
                decision_threshold: 0.55,
            },
        )
    }

    /// A matcher playing the role of PromptEM: prompt-tuning is stronger in
    /// the low-resource regime, modelled as a wider candidate set and a more
    /// permissive threshold (higher recall).
    pub fn promptem_like() -> Self {
        Self::new(
            "PromptEM",
            SupervisedConfig {
                block_k: 4,
                decision_threshold: 0.45,
            },
        )
    }

    /// Train the pair classifier on the context's labelled sample.
    pub fn train(&mut self, ctx: &MatchContext<'_>) {
        let examples: Vec<(Vec<f64>, bool)> = ctx
            .labeled
            .iter()
            .map(|p| (pair_features(ctx, p.a, p.b), p.label))
            .collect();
        self.model.fit(&examples);
    }

    /// Probability that `a` and `b` match.
    pub fn match_probability(&self, ctx: &MatchContext<'_>, a: EntityId, b: EntityId) -> f64 {
        self.model.predict_proba(&pair_features(ctx, a, b))
    }
}

impl TwoTableMatcher for SupervisedMatcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn match_collections(
        &self,
        ctx: &MatchContext<'_>,
        left: &[EntityId],
        right: &[EntityId],
    ) -> Vec<MatchedPair> {
        if left.is_empty() || right.is_empty() {
            return Vec::new();
        }
        // Blocking: top-K embedding neighbours of every left entity.
        let dim = ctx.store.dim();
        let right_index = BruteForceIndex::from_vectors(
            dim,
            Metric::Cosine,
            right.iter().map(|&id| ctx.embedding(id)),
        );
        let mut out = Vec::new();
        for &l in left {
            for n in right_index.search(ctx.embedding(l), self.config.block_k) {
                let r = right[n.index];
                let p = self.match_probability(ctx, l, r);
                if p >= self.config.decision_threshold {
                    out.push(MatchedPair::new(l, r, p as f32));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchContext;
    use multiem_datagen::{
        CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator,
    };
    use multiem_embed::HashedLexicalEncoder;
    use multiem_eval::{sample_labeled_pairs, SamplingConfig};
    use multiem_table::Dataset;

    fn dataset() -> Dataset {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let cfg = GeneratorConfig {
            name: "supervised".into(),
            num_sources: 3,
            num_tuples: 60,
            num_singletons: 20,
            min_tuple_size: 2,
            max_tuple_size: 3,
            seed: 13,
        };
        MultiSourceGenerator::new(cfg).generate(factory.as_ref(), &corruptor)
    }

    fn trained_ctx_and_matcher(ds: &Dataset) -> (MatchContext<'_>, SupervisedMatcher) {
        let encoder = HashedLexicalEncoder::default();
        let sampling = SamplingConfig {
            positive_fraction: 0.3,
            negatives_per_positive: 3,
            seed: 2,
        };
        let labeled = sample_labeled_pairs(ds, &sampling);
        let ctx = MatchContext::build(ds, &encoder, labeled);
        let mut matcher = SupervisedMatcher::ditto_like();
        matcher.train(&ctx);
        (ctx, matcher)
    }

    #[test]
    fn trains_and_separates_matches_from_non_matches() {
        let ds = dataset();
        let (ctx, matcher) = trained_ctx_and_matcher(&ds);
        let truth: Vec<_> = ds.ground_truth().unwrap().pairs().into_iter().collect();
        let (a, b) = truth[0];
        let p_match = matcher.match_probability(&ctx, a, b);
        // A clearly unrelated cross-source pair.
        let c = truth[1].0;
        let d = truth[truth.len() - 1].1;
        let p_non = matcher.match_probability(&ctx, c, d);
        assert!(p_match > p_non, "match prob {p_match} vs non-match {p_non}");
        assert!(p_match > 0.5);
    }

    #[test]
    fn match_collections_has_reasonable_quality() {
        let ds = dataset();
        let (ctx, matcher) = trained_ctx_and_matcher(&ds);
        let pairs =
            matcher.match_collections(&ctx, &ctx.source_entities(0), &ctx.source_entities(1));
        assert!(!pairs.is_empty());
        let truth = ds.ground_truth().unwrap().pairs();
        let correct = pairs
            .iter()
            .filter(|p| truth.contains(&(p.a.min(p.b), p.a.max(p.b))))
            .count();
        let precision = correct as f64 / pairs.len() as f64;
        assert!(precision > 0.6, "precision {precision}");
    }

    #[test]
    fn untrained_matcher_still_runs_without_panicking() {
        let ds = dataset();
        let encoder = HashedLexicalEncoder::default();
        let ctx = MatchContext::build(&ds, &encoder, Vec::new());
        let matcher = SupervisedMatcher::promptem_like();
        assert_eq!(matcher.name(), "PromptEM");
        // Untrained model predicts 0.5 everywhere; with threshold 0.5 it may
        // emit pairs, but it must not panic and scores stay in [0, 1].
        let pairs =
            matcher.match_collections(&ctx, &ctx.source_entities(0), &ctx.source_entities(1));
        for p in pairs {
            assert!((0.0..=1.0).contains(&p.score));
        }
    }

    #[test]
    fn empty_collections() {
        let ds = dataset();
        let (ctx, matcher) = trained_ctx_and_matcher(&ds);
        assert!(matcher
            .match_collections(&ctx, &[], &ctx.source_entities(0))
            .is_empty());
    }
}
