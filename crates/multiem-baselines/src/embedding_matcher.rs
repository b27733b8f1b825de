//! A generic unsupervised two-table matcher: mutual nearest neighbours over
//! entity embeddings with a similarity threshold.
//!
//! This is the "vanilla" representation-based two-table EM method the paper's
//! complexity analysis assumes (mutual top-K search); it is used as the base
//! matcher for ablation-style comparisons of the pairwise / chain extensions
//! against hierarchical merging.

use crate::context::MatchContext;
use crate::{MatchedPair, TwoTableMatcher};
use multiem_ann::{mutual_top_k_exact, Metric, RowRefs};
use multiem_table::EntityId;

/// Mutual-nearest-neighbour matcher over embeddings with a cosine-similarity
/// threshold.
#[derive(Debug, Clone)]
pub struct EmbeddingThresholdMatcher {
    /// Minimum cosine similarity for a match.
    pub min_similarity: f32,
    /// Top-K bound of the mutual check.
    pub k: usize,
}

impl Default for EmbeddingThresholdMatcher {
    fn default() -> Self {
        Self {
            min_similarity: 0.65,
            k: 1,
        }
    }
}

impl TwoTableMatcher for EmbeddingThresholdMatcher {
    fn name(&self) -> &str {
        "EmbedMNN"
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
        let rows =
            |ids: &[EntityId]| -> RowRefs<'_> { ids.iter().map(|&id| ctx.embedding(id)).collect() };
        let max_distance = 1.0 - self.min_similarity;
        mutual_top_k_exact(
            Metric::Cosine,
            &rows(left),
            &rows(right),
            self.k,
            max_distance,
        )
        .0
        .into_iter()
        .map(|m| MatchedPair::new(left[m.left], right[m.right], 1.0 - m.distance))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiem_ann::{BruteForceIndex, VectorIndex};
    use multiem_datagen::{
        CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator,
    };
    use multiem_embed::HashedLexicalEncoder;

    #[test]
    fn finds_cross_source_matches_on_clean_data() {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::none());
        let ds = MultiSourceGenerator::new(GeneratorConfig::small_test("emb-mnn", 2))
            .generate(factory.as_ref(), &corruptor);
        let encoder = HashedLexicalEncoder::default();
        let ctx = MatchContext::build(&ds, &encoder, Vec::new());
        let matcher = EmbeddingThresholdMatcher::default();
        let pairs =
            matcher.match_collections(&ctx, &ctx.source_entities(0), &ctx.source_entities(1));
        assert!(!pairs.is_empty());
        // The same pairs, scores bit for bit, as Eq. 1 read from exact
        // searches in both directions: `(l, r)` when `r` is among `l`'s top-K,
        // `l` among `r`'s, and their distance is within the threshold.
        let (left, right) = (ctx.source_entities(0), ctx.source_entities(1));
        let index = |ids: &[EntityId]| {
            BruteForceIndex::from_vectors(
                ctx.store.dim(),
                Metric::Cosine,
                ids.iter().map(|&id| ctx.embedding(id)),
            )
        };
        let (li, ri) = (index(&left), index(&right));
        let max_distance = 1.0 - matcher.min_similarity;
        let mut expected = Vec::new();
        for (l, &id) in left.iter().enumerate() {
            for hit in ri.search(ctx.embedding(id), matcher.k) {
                let back = li.search(ctx.embedding(right[hit.index]), matcher.k);
                if hit.distance <= max_distance && back.iter().any(|b| b.index == l) {
                    expected.push((l, hit.index, (1.0 - hit.distance).to_bits()));
                }
            }
        }
        expected.sort_unstable();
        let expected: Vec<_> = expected
            .into_iter()
            .map(|(l, r, score)| (left[l], right[r], score))
            .collect();
        let found: Vec<_> = pairs
            .iter()
            .map(|p| (p.a, p.b, p.score.to_bits()))
            .collect();
        assert_eq!(found, expected);
        // Every returned pair crosses the two collections and scores above threshold.
        for p in &pairs {
            assert_eq!(p.a.source, 0);
            assert_eq!(p.b.source, 1);
            assert!(p.score >= matcher.min_similarity);
        }
        // Recall against ground truth restricted to sources 0/1 should be high
        // on uncorrupted data.
        let gt: Vec<_> = ds
            .ground_truth()
            .unwrap()
            .pairs()
            .into_iter()
            .filter(|(a, b)| a.source == 0 && b.source == 1)
            .collect();
        let found: std::collections::BTreeSet<_> =
            pairs.iter().map(|p| (p.a.min(p.b), p.a.max(p.b))).collect();
        let hit = gt.iter().filter(|p| found.contains(p)).count();
        assert!(
            hit as f64 >= 0.9 * gt.len() as f64,
            "recall {hit}/{}",
            gt.len()
        );
    }

    #[test]
    fn empty_collections_return_nothing() {
        let factory = Domain::Geo.factory();
        let corruptor = Corruptor::new(CorruptionConfig::none());
        let ds = MultiSourceGenerator::new(GeneratorConfig::small_test("emb-empty", 2))
            .generate(factory.as_ref(), &corruptor);
        let encoder = HashedLexicalEncoder::default();
        let ctx = MatchContext::build(&ds, &encoder, Vec::new());
        let matcher = EmbeddingThresholdMatcher::default();
        assert!(matcher
            .match_collections(&ctx, &[], &ctx.source_entities(0))
            .is_empty());
        assert!(matcher
            .match_collections(&ctx, &ctx.source_entities(0), &[])
            .is_empty());
        assert_eq!(matcher.name(), "EmbedMNN");
    }
}
