//! The embedding model trait and the hashed lexical encoder.

use crate::hashing::{accumulate_token, fnv1a64, fnv1a64_extend};
use crate::idf::IdfStatistics;
use crate::tokenizer::{TokenKind, Tokenizer, TokenizerConfig};
use crate::vector::{l2_normalize, Matrix};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

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

/// Configuration of the [`HashedLexicalEncoder`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Output dimensionality (the paper's SBERT uses 384).
    pub dim: usize,
    /// Tokenizer configuration.
    pub tokenizer: TokenizerConfig,
    /// Relative weight of whole-word vectors.
    pub word_weight: f32,
    /// Relative weight of character-n-gram vectors (gives typo robustness).
    pub ngram_weight: f32,
    /// Pooling weight of alphabetic word tokens.
    pub kind_weight_word: f32,
    /// Pooling weight of short (< 3 chars) alphabetic tokens.
    pub kind_weight_short: f32,
    /// Pooling weight of compact numeric tokens (at most
    /// [`EncoderConfig::long_token_len`] characters), e.g. years, postcodes,
    /// model numbers. These are single meaningful tokens for a transformer.
    pub kind_weight_number: f32,
    /// Pooling weight of long numeric tokens (e.g. raw coordinates,
    /// timestamps), which a transformer fragments into many low-salience
    /// sub-word pieces.
    pub kind_weight_long_number: f32,
    /// Pooling weight of compact identifier-like mixed tokens ("64gb", "s21").
    pub kind_weight_mixed: f32,
    /// Pooling weight of long identifier-like mixed tokens (opaque record ids
    /// such as "wom14513028").
    pub kind_weight_long_mixed: f32,
    /// Character-count boundary between "compact" and "long" numeric / mixed
    /// tokens.
    pub long_token_len: usize,
    /// Whether to multiply token weights by normalised corpus IDF (requires
    /// [`HashedLexicalEncoder::fit_idf`] to have been called to take effect).
    pub use_idf: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            dim: crate::DEFAULT_DIM,
            tokenizer: TokenizerConfig::default(),
            word_weight: 1.0,
            ngram_weight: 0.35,
            kind_weight_word: 1.0,
            kind_weight_short: 0.55,
            kind_weight_number: 0.7,
            kind_weight_long_number: 0.3,
            kind_weight_mixed: 0.7,
            kind_weight_long_mixed: 0.35,
            long_token_len: 4,
            use_idf: false,
        }
    }
}

impl EncoderConfig {
    /// Pooling weight for a token of the given kind and character length.
    ///
    /// Numeric and identifier-like tokens longer than
    /// [`EncoderConfig::long_token_len`] characters are treated as opaque and
    /// receive the corresponding "long" weight, mirroring how a transformer
    /// fragments them into many low-salience sub-word pieces.
    pub fn kind_weight(&self, kind: TokenKind, token_len: usize) -> f32 {
        let long = token_len > self.long_token_len;
        match kind {
            TokenKind::Word => self.kind_weight_word,
            TokenKind::ShortWord => self.kind_weight_short,
            TokenKind::Number => {
                if long {
                    self.kind_weight_long_number
                } else {
                    self.kind_weight_number
                }
            }
            TokenKind::Mixed => {
                if long {
                    self.kind_weight_long_mixed
                } else {
                    self.kind_weight_mixed
                }
            }
        }
    }
}

/// FNV-1a state after an n-gram key's `#` prefix, which keeps the n-gram and
/// word hash spaces apart: an n-gram hashes as `fnv1a64("#" ++ gram)`.
const NGRAM_KEY_PREFIX: u64 = fnv1a64(b"#");

/// Deterministic hashed lexical encoder — the Sentence-BERT stand-in.
///
/// See the crate-level documentation for the design rationale. The encoder is
/// completely deterministic (no RNG state), cheap (no embedding table), and
/// thread-safe, which is what allows the representation phase of MultiEM to be
/// embarrassingly parallel.
#[derive(Debug, Clone)]
pub struct HashedLexicalEncoder {
    config: EncoderConfig,
    tokenizer: Tokenizer,
    idf: Option<IdfStatistics>,
}

impl Default for HashedLexicalEncoder {
    fn default() -> Self {
        Self::new(EncoderConfig::default())
    }
}

impl HashedLexicalEncoder {
    /// Create an encoder with the given configuration.
    pub fn new(config: EncoderConfig) -> Self {
        let tokenizer = Tokenizer::new(config.tokenizer.clone());
        Self {
            config,
            tokenizer,
            idf: None,
        }
    }

    /// Create an encoder with the default configuration but a custom dimension.
    pub fn with_dim(dim: usize) -> Self {
        Self::new(EncoderConfig {
            dim,
            ..EncoderConfig::default()
        })
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Fit corpus IDF statistics and enable IDF weighting.
    pub fn fit_idf<'a, I>(&mut self, docs: I)
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.idf = Some(IdfStatistics::fit(&self.tokenizer, docs));
        self.config.use_idf = true;
    }

    /// The fitted IDF statistics, if any.
    pub fn idf(&self) -> Option<&IdfStatistics> {
        self.idf.as_ref()
    }

    /// Fold one document into the IDF statistics (creating them when absent)
    /// and enable IDF weighting. The streaming counterpart of
    /// [`HashedLexicalEncoder::fit_idf`]: single records can be observed as
    /// they arrive instead of refitting over the whole corpus.
    pub fn observe_document(&mut self, doc: &str) {
        self.idf
            .get_or_insert_with(IdfStatistics::default)
            .observe(&self.tokenizer, doc);
        self.config.use_idf = true;
    }

    fn token_weight(&self, text: &str, kind: TokenKind) -> f32 {
        let mut w = self.config.kind_weight(kind, text.chars().count());
        if self.config.use_idf {
            if let Some(idf) = &self.idf {
                w *= idf.normalized_idf(text);
            }
        }
        w
    }
}

impl EmbeddingModel for HashedLexicalEncoder {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn encode(&self, text: &str) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.config.dim];
        let tokens = self.tokenizer.tokenize(text);
        if tokens.is_empty() {
            return acc;
        }
        for tok in &tokens {
            let base = self.token_weight(&tok.text, tok.kind);
            if base <= 0.0 {
                continue;
            }
            // Whole-word vector.
            accumulate_token(
                &mut acc,
                fnv1a64(tok.text.as_bytes()),
                base * self.config.word_weight,
            );
            // Character n-gram vectors (split the n-gram budget evenly so long
            // tokens do not dominate).
            if self.config.ngram_weight > 0.0 {
                let grams = self.tokenizer.char_ngrams(&tok.text);
                if !grams.is_empty() {
                    let per = base * self.config.ngram_weight / grams.len() as f32;
                    for g in grams {
                        let hash = fnv1a64_extend(NGRAM_KEY_PREFIX, g.as_bytes());
                        accumulate_token(&mut acc, hash, per);
                    }
                }
            }
        }
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
    fn idf_weighting_downweights_ubiquitous_tokens() {
        let corpus: Vec<String> = (0..50)
            .map(|i| format!("acme widget model {i}"))
            .chain(std::iter::once("acme sprocket deluxe".to_string()))
            .collect();
        let mut with_idf = enc();
        with_idf.fit_idf(corpus.iter().map(|s| s.as_str()));
        let without_idf = enc();

        // "acme" appears everywhere; two entities sharing only "acme" should be
        // less similar under IDF weighting than without it.
        let a = "acme widget model 3";
        let b = "acme sprocket deluxe";
        let sim_with = cosine_similarity(&with_idf.encode(a), &with_idf.encode(b));
        let sim_without = cosine_similarity(&without_idf.encode(a), &without_idf.encode(b));
        assert!(sim_with < sim_without);
        assert!(with_idf.idf().is_some());
    }

    #[test]
    fn custom_dimension() {
        let e = HashedLexicalEncoder::with_dim(64);
        assert_eq!(e.dim(), 64);
        assert_eq!(e.encode("hello world").len(), 64);
        assert_eq!(e.name(), "hashed-lexical-encoder");
    }

    #[test]
    fn disabling_ngrams_still_works() {
        let cfg = EncoderConfig {
            ngram_weight: 0.0,
            tokenizer: TokenizerConfig {
                ngram_max: 0,
                ..TokenizerConfig::default()
            },
            ..EncoderConfig::default()
        };
        let e = HashedLexicalEncoder::new(cfg);
        let v = e.encode("apple iphone");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn encoder_output_bits_are_pinned() {
        // Figure 1 and Example 1 of the paper, multi-byte text, and two
        // inputs without a token, through a plain and an IDF-fitted encoder
        // at three dimensions. The digest is of every output bit, so a
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
            let plain = HashedLexicalEncoder::with_dim(dim);
            let mut fitted = HashedLexicalEncoder::with_dim(dim);
            fitted.fit_idf(corpus);
            for encoder in [&plain, &fitted] {
                for text in corpus {
                    for x in encoder.encode(text) {
                        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(crate::hashing::fnv1a64(&bytes), 0x786e_a9d8_d47c_d722);
    }
}
