//! The embedding model trait and the hashed lexical encoder.

use crate::hashing::{accumulate_tokens, fnv1a64, fnv1a64_extend};
use crate::tokenizer::{char_ngrams, tokenize, TokenKind};
use crate::vector::{l2_normalize, Matrix};
use rayon::prelude::*;

/// A sentence/entity embedding model.
///
/// The MultiEM pipeline is generic over this trait: the paper plugs in
/// Sentence-BERT, this reproduction plugs in [`HashedLexicalEncoder`], and a
/// candle/ort transformer backend could implement it as well.
pub trait EmbeddingModel: Send + Sync {
    /// Dimensionality of produced embeddings.
    fn dim(&self) -> usize;

    /// Encode one serialized entity into a (unit-norm) embedding.
    fn encode(&self, text: &str) -> Vec<f32>;

    /// Encode a batch of serialized entities. The default implementation
    /// encodes contiguous blocks of the batch in parallel, each row straight
    /// into its block's matrix, and appends the blocks in order; a batch
    /// encoded inside another parallel map (one table of
    /// `EmbeddingStore::build`) is one block, returned as it is. Backends
    /// with real batching can override it.
    fn encode_batch(&self, texts: &[String]) -> Matrix {
        let threads = rayon::current_num_threads();
        let blocks = if threads == 1 || rayon::current_thread_index().is_some() {
            1
        } else {
            threads * BLOCKS_PER_THREAD
        };
        let chunks: Vec<&[String]> = texts.chunks(texts.len().div_ceil(blocks).max(1)).collect();
        let mut encoded: Vec<Matrix> = chunks
            .par_iter()
            .map(|chunk| {
                let mut block = Matrix::with_capacity(self.dim(), chunk.len());
                for text in chunk.iter() {
                    block.push_row(&self.encode(text));
                }
                block
            })
            .collect();
        if encoded.len() <= 1 {
            return encoded.pop().unwrap_or_else(|| Matrix::new(self.dim()));
        }
        let mut m = Matrix::with_capacity(self.dim(), texts.len());
        for block in &encoded {
            m.append(block);
        }
        m
    }

    /// Human-readable backend name (for logs and experiment records).
    fn name(&self) -> &str {
        "embedding-model"
    }
}

/// Blocks per thread of a default [`EmbeddingModel::encode_batch`]: a few,
/// so a thread that loses its core for a while holds back a fraction of its
/// share, not all of it.
const BLOCKS_PER_THREAD: usize = 4;

/// Relative weight of whole-word vectors.
const WORD_WEIGHT: f32 = 1.0;
/// Relative weight of character-n-gram vectors (gives typo robustness).
const NGRAM_WEIGHT: f32 = 0.35;

/// Pooling weight of alphabetic word tokens.
const KIND_WEIGHT_WORD: f32 = 1.0;
/// Pooling weight of short (< 3 chars) alphabetic tokens.
const KIND_WEIGHT_SHORT: f32 = 0.55;
/// Pooling weight of compact numeric tokens (at most [`LONG_TOKEN_LEN`]
/// characters), e.g. years, postcodes, model numbers. These are single
/// meaningful tokens for a transformer.
const KIND_WEIGHT_NUMBER: f32 = 0.7;
/// Pooling weight of long numeric tokens (e.g. raw coordinates, timestamps),
/// which a transformer fragments into many low-salience sub-word pieces.
const KIND_WEIGHT_LONG_NUMBER: f32 = 0.3;
/// Pooling weight of compact identifier-like mixed tokens ("64gb", "s21").
const KIND_WEIGHT_MIXED: f32 = 0.7;
/// Pooling weight of long identifier-like mixed tokens (opaque record ids such
/// as "wom14513028").
const KIND_WEIGHT_LONG_MIXED: f32 = 0.35;
/// Character-count boundary between "compact" and "long" numeric / mixed
/// tokens.
const LONG_TOKEN_LEN: usize = 4;

/// Pooling weight for a token of the given kind and character length.
///
/// Numeric and identifier-like tokens longer than [`LONG_TOKEN_LEN`]
/// characters are treated as opaque and receive the corresponding "long"
/// weight, mirroring how a transformer fragments them into many low-salience
/// sub-word pieces.
fn kind_weight(kind: TokenKind, token_len: usize) -> f32 {
    let long = token_len > LONG_TOKEN_LEN;
    match kind {
        TokenKind::Word => KIND_WEIGHT_WORD,
        TokenKind::ShortWord => KIND_WEIGHT_SHORT,
        TokenKind::Number if long => KIND_WEIGHT_LONG_NUMBER,
        TokenKind::Number => KIND_WEIGHT_NUMBER,
        TokenKind::Mixed if long => KIND_WEIGHT_LONG_MIXED,
        TokenKind::Mixed => KIND_WEIGHT_MIXED,
    }
}

/// FNV-1a state after an n-gram key's `#` prefix, which keeps the n-gram and
/// word hash spaces apart: an n-gram hashes as `fnv1a64("#" ++ gram)`.
const NGRAM_KEY_PREFIX: u64 = fnv1a64(b"#");

/// Deterministic hashed lexical encoder — the Sentence-BERT stand-in.
///
/// See the crate-level documentation for the design rationale. Like the
/// pre-trained encoder it stands in for, it is a fixed function of the text:
/// its one setting is the output dimension. It is completely deterministic
/// (no RNG state), cheap (no embedding table), and thread-safe, which is what
/// allows the representation phase of MultiEM to be embarrassingly parallel.
#[derive(Debug, Clone)]
pub struct HashedLexicalEncoder {
    dim: usize,
}

impl Default for HashedLexicalEncoder {
    /// The paper's dimension, [`crate::DEFAULT_DIM`] (384).
    fn default() -> Self {
        Self::with_dim(crate::DEFAULT_DIM)
    }
}

impl HashedLexicalEncoder {
    /// Create an encoder producing `dim`-dimensional embeddings.
    pub fn with_dim(dim: usize) -> Self {
        Self { dim }
    }
}

impl EmbeddingModel for HashedLexicalEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    /// Lowercases `text` once, lists every token's `(hash, weight)` from
    /// slices of it, then adds all of them in one [`accumulate_tokens`] call.
    fn encode(&self, text: &str) -> Vec<f32> {
        let lowercased = text.to_lowercase();
        // A token of `c` chars adds at most `c` entries: never reallocates.
        let mut tokens: Vec<(u64, f32)> = Vec::with_capacity(lowercased.len());
        for (token, kind) in tokenize(&lowercased) {
            let base = kind_weight(kind, token.chars().count());
            // Whole-word vector.
            tokens.push((fnv1a64(token.as_bytes()), base * WORD_WEIGHT));
            // Character n-gram vectors (split the n-gram budget evenly so long
            // tokens do not dominate): hashed first, weighted once counted.
            let first = tokens.len();
            tokens.extend(
                char_ngrams(token).map(|g| (fnv1a64_extend(NGRAM_KEY_PREFIX, g.as_bytes()), 0.0)),
            );
            let grams = tokens.len() - first;
            if grams > 0 {
                let per = base * NGRAM_WEIGHT / grams as f32;
                for (_, weight) in &mut tokens[first..] {
                    *weight = per;
                }
            }
        }
        let mut acc = vec![0.0f32; self.dim];
        accumulate_tokens(&mut acc, &tokens);
        l2_normalize(&mut acc);
        acc
    }

    fn name(&self) -> &str {
        "hashed-lexical-encoder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::cosine_similarity;

    fn enc() -> HashedLexicalEncoder {
        HashedLexicalEncoder::default()
    }

    #[test]
    fn deterministic_and_unit_norm() {
        let e = enc();
        let a = e.encode("apple iphone 8 plus 64gb silver");
        let b = e.encode("apple iphone 8 plus 64gb silver");
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
        assert_eq!(a.len(), crate::DEFAULT_DIM);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = enc();
        let v = e.encode("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn similar_titles_are_closer_than_different_products() {
        let e = enc();
        // Figure 1: the same iPhone listed by different sources.
        let a = e.encode("apple iphone 8 plus 64gb silver");
        let b = e.encode("apple iphone 8 plus 5.5 64gb 4g unlocked sim free silver");
        // A different product entirely.
        let c = e.encode("sony bravia 55 inch oled television stand");
        let sim_ab = cosine_similarity(&a, &b);
        let sim_ac = cosine_similarity(&a, &c);
        assert!(sim_ab > 0.55, "same-product similarity too low: {sim_ab}");
        assert!(
            sim_ac < 0.25,
            "different-product similarity too high: {sim_ac}"
        );
        assert!(sim_ab > sim_ac + 0.3);
    }

    #[test]
    fn typo_robustness_via_char_ngrams() {
        let e = enc();
        let clean = e.encode("chameleon tim obrien");
        let typo = e.encode("chameleon tim obrein");
        let unrelated = e.encode("completely different words here");
        assert!(
            cosine_similarity(&clean, &typo) > cosine_similarity(&clean, &unrelated) + 0.2,
            "typo variant should stay closer than unrelated text"
        );
    }

    #[test]
    fn id_attribute_matters_less_than_album_attribute() {
        // Reproduces Example 1 of the paper: replacing the opaque `id` value
        // should move the embedding much less than replacing the `album` value.
        let e = enc();
        let ea = e.encode("wom14513028 megna's tim o'brien chameleon");
        let eb = e.encode("wom94369364 megna's tim o'brien chameleon");
        let ec = e.encode("wom14513028 megna's tim o'brien the hitmen");
        let sim_id_change = cosine_similarity(&ea, &eb);
        let sim_album_change = cosine_similarity(&ea, &ec);
        assert!(
            sim_id_change > sim_album_change,
            "id change ({sim_id_change}) should perturb less than album change ({sim_album_change})"
        );
        assert!(sim_id_change > 0.8);
    }

    #[test]
    fn batch_matches_single_encoding() {
        let e = enc();
        let texts = vec![
            "apple iphone".to_string(),
            "samsung galaxy".to_string(),
            String::new(),
        ];
        let m = e.encode_batch(&texts);
        assert_eq!(m.len(), 3);
        assert_eq!(m.row(0), e.encode("apple iphone").as_slice());
        assert_eq!(m.row(2), vec![0.0f32; e.dim()].as_slice());

        // Empty, shorter than the block count, ragged blocks, and the same
        // batch as one block inside a parallel map.
        for n in [0, 1, 5, 67, 500] {
            let texts: Vec<String> = (0..n).map(|i| format!("item {i} of {n}")).collect();
            let rows: Vec<Vec<f32>> = texts.iter().map(|t| e.encode(t)).collect();
            let nested: Vec<Matrix> = [&texts, &texts]
                .par_iter()
                .map(|t| e.encode_batch(t))
                .collect();
            for m in [e.encode_batch(&texts)].into_iter().chain(nested) {
                assert_eq!((m.len(), m.dim()), (n, e.dim()));
                assert!(m.rows().eq(rows.iter().map(Vec::as_slice)), "{n} texts");
            }
        }
    }

    #[test]
    fn custom_dimension() {
        let e = HashedLexicalEncoder::with_dim(64);
        assert_eq!(e.dim(), 64);
        assert_eq!(e.encode("hello world").len(), 64);
        assert_eq!(e.name(), "hashed-lexical-encoder");
    }

    #[test]
    fn encoder_output_bits_are_pinned() {
        // Figure 1 and Example 1 of the paper, multi-byte text, and two
        // inputs without a token, at three dimensions. The digest is of every output bit, so a
        // tokenizer, hashing or pooling change that moves one bit of one
        // embedding fails here.
        let corpus = [
            "apple iphone 8 plus 64gb silver",
            "apple iphone 8 plus 5.5 64gb 4g unlocked sim free silver",
            "wom14513028 megna's tim o'brien chameleon",
            "wom94369364 megna's tim o'brien chameleon",
            "wom14513028 megna's tim o'brien the hitmen",
            "café naïve 東京都庁 straße",
            "",
            "--- ,,,",
        ];
        let mut bytes = Vec::new();
        for dim in [64, 100, 384] {
            let encoder = HashedLexicalEncoder::with_dim(dim);
            for text in corpus {
                for x in encoder.encode(text) {
                    bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
        assert_eq!(crate::hashing::fnv1a64(&bytes), 0x5f75_7d42_4ae9_1e59);
    }
}
