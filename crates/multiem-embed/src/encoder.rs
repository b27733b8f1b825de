//! The embedding model trait and the hashed lexical encoder.

use crate::hashing::{accumulate_tokens, fnv1a64, fnv1a64_extend};
use crate::tokenizer::{char_ngrams, tokenize, TokenKind};
use crate::vector::{l2_normalize, l2_normalize_rows, Matrix};
use rayon::prelude::*;
use std::ops::Range;

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

    /// Encode `base` and each of `variants`, texts that differ from it in
    /// one part (Algorithm 1's rows with one attribute shuffled): row 0 is
    /// `encode(base)` and row `1 + j` is `encode(&variants[j])`, bit for
    /// bit. The default implementation calls [`EmbeddingModel::encode`] on
    /// each; a backend that can share the unchanged parts' work overrides
    /// it.
    fn encode_variants(&self, base: &str, variants: &[String]) -> Matrix {
        let mut m = Matrix::with_capacity(self.dim(), 1 + variants.len());
        m.push_row(&self.encode(base));
        for variant in variants {
            m.push_row(&self.encode(variant));
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

/// Append the `(hash, weight)` entries of every token of `lowercased` (text
/// already passed through [`str::to_lowercase`]) to `entries`, in token
/// order: the token's word vector, then its character n-grams, which split
/// the n-gram budget evenly so long tokens do not dominate. With `spans`,
/// each token's byte range in `lowercased` and the new length of `entries`
/// after it are pushed there too.
fn list_tokens(
    lowercased: &str,
    entries: &mut Vec<(u64, f32)>,
    mut spans: Option<&mut Vec<(Range<usize>, usize)>>,
) {
    for (token, kind) in tokenize(lowercased) {
        let base = kind_weight(kind, token.chars().count());
        entries.push((fnv1a64(token.as_bytes()), base * WORD_WEIGHT));
        // Hashed first, weighted once counted.
        let first = entries.len();
        entries.extend(
            char_ngrams(token).map(|g| (fnv1a64_extend(NGRAM_KEY_PREFIX, g.as_bytes()), 0.0)),
        );
        let grams = entries.len() - first;
        if grams > 0 {
            let per = base * NGRAM_WEIGHT / grams as f32;
            for (_, weight) in &mut entries[first..] {
                *weight = per;
            }
        }
        if let Some(spans) = spans.as_deref_mut() {
            let start = token.as_ptr().addr() - lowercased.as_ptr().addr();
            spans.push((start..start + token.len(), entries.len()));
        }
    }
}

/// The byte lengths of the longest common prefix and suffix of `a` and `b`,
/// each backed off to a char boundary of both, the suffix no longer than
/// what the prefix leaves of the shorter text.
fn common_ends(a: &str, b: &str) -> (usize, usize) {
    let boundary = |i: usize, j: usize| a.is_char_boundary(i) && b.is_char_boundary(j);
    let mut prefix = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    while !boundary(prefix, prefix) {
        prefix -= 1;
    }
    let room = a.len().min(b.len()) - prefix;
    let mut suffix = (a.bytes().rev().zip(b.bytes().rev()))
        .take(room)
        .take_while(|(x, y)| x == y)
        .count();
    while !boundary(a.len() - suffix, b.len() - suffix) {
        suffix -= 1;
    }
    (prefix, suffix)
}

/// What one variant of [`HashedLexicalEncoder::encode_variants`] shares with
/// its base.
struct Shared {
    /// The variant, lowercased.
    lowercased: String,
    /// The base entries the variant starts with.
    head: usize,
    /// The bytes of `lowercased` between the shared head and tail tokens.
    middle: Range<usize>,
    /// Where the base entries the variant ends with start.
    tail: usize,
}

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
        list_tokens(&lowercased, &mut tokens, None);
        let mut acc = vec![0.0f32; self.dim];
        accumulate_tokens(&mut acc, &tokens);
        l2_normalize(&mut acc);
        acc
    }

    /// Lists the base's tokens once, and each variant's only between the
    /// prefix and suffix it shares with the base (of the lowercased texts,
    /// at char boundaries). A base token that ends strictly before the
    /// prefix's end is followed by the same separator in the variant, so it
    /// is the variant's token too, as is one that starts strictly after the
    /// suffix's start. An embedding is a fold of per-token sign vectors in
    /// token order, so a variant's accumulator resumes from the base's state
    /// after the shared head (snapshotted while the base accumulates, the
    /// variants in order of head length) and adds its middle and then the
    /// base's shared tail entries: every lane gets the adds `encode` would
    /// give it, in the same order.
    fn encode_variants(&self, base: &str, variants: &[String]) -> Matrix {
        let dim = self.dim;
        if dim == 0 {
            return Matrix::new(dim);
        }
        let base = base.to_lowercase();
        let mut entries: Vec<(u64, f32)> = Vec::with_capacity(base.len());
        // Each base token's bytes and where its entries end.
        let mut spans: Vec<(Range<usize>, usize)> = Vec::new();
        list_tokens(&base, &mut entries, Some(&mut spans));
        let entries_before = |token: usize| token.checked_sub(1).map_or(0, |t| spans[t].1);
        let shared: Vec<Shared> = variants
            .iter()
            .map(|variant| {
                let lowercased = variant.to_lowercase();
                let (prefix, suffix) = common_ends(&base, &lowercased);
                // A variant equal to the base shares every token, the last too.
                let same = prefix == base.len() && prefix == lowercased.len();
                let head = spans.partition_point(|(bytes, _)| same || bytes.end < prefix);
                let tail = spans.partition_point(|(bytes, _)| bytes.start <= base.len() - suffix);
                let start = head.checked_sub(1).map_or(0, |t| spans[t].0.end);
                let end = spans.get(tail).map_or(lowercased.len(), |(bytes, _)| {
                    lowercased.len() - (base.len() - bytes.start)
                });
                Shared {
                    head: entries_before(head),
                    middle: start..end,
                    tail: entries_before(tail),
                    lowercased,
                }
            })
            .collect();

        let mut data = vec![0.0f32; (1 + variants.len()) * dim];
        let (acc, rows) = data.split_at_mut(dim);
        let mut order: Vec<usize> = (0..shared.len()).collect();
        order.sort_by_key(|&j| shared[j].head);
        let mut added = 0;
        for j in order {
            let head = shared[j].head;
            if head > added {
                accumulate_tokens(acc, &entries[added..head]);
                added = head;
            }
            rows[j * dim..][..dim].copy_from_slice(acc);
        }
        accumulate_tokens(acc, &entries[added..]);
        let mut rest: Vec<(u64, f32)> = Vec::new();
        for (variant, row) in shared.iter().zip(rows.chunks_exact_mut(dim)) {
            rest.clear();
            list_tokens(&variant.lowercased[variant.middle.clone()], &mut rest, None);
            rest.extend_from_slice(&entries[variant.tail..]);
            accumulate_tokens(row, &rest);
        }
        l2_normalize_rows(&mut data, dim);
        Matrix::from_data(dim, data)
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

    /// The symbols a seeded case draws its parts from: ASCII letters and
    /// digits, separators, Greek sigmas (whose lowercase depends on their
    /// neighbours), letters whose lowercase is longer or another char, and
    /// `×`, `é`, `è` and `É`, which share a UTF-8 lead byte.
    const SYMBOLS: &[&str] = &[
        "a", "B", "c", "x", "Y", "z", "0", "7", "9", " ", "\t", "-", "'", "’", "Σ", "σ", "ς", "İ",
        "ß", "ǅ", "Ω", "×", "é", "è", "É",
    ];

    /// A seeded draw below `n`.
    fn below(state: &mut u64, n: usize) -> usize {
        (crate::hashing::splitmix64(state) % n as u64) as usize
    }

    /// A part of 0 to 5 symbols.
    fn part(state: &mut u64) -> String {
        let len = below(state, 6);
        (0..len)
            .map(|_| SYMBOLS[below(state, SYMBOLS.len())])
            .collect()
    }

    /// The hashed encoder's `encode` behind the trait's default
    /// `encode_variants`, which encodes every text alone.
    struct OneByOne(HashedLexicalEncoder);

    impl EmbeddingModel for OneByOne {
        fn dim(&self) -> usize {
            self.0.dim()
        }

        fn encode(&self, text: &str) -> Vec<f32> {
            self.0.encode(text)
        }
    }

    /// The hashed encoder's `encode_variants` against the default, one
    /// `encode` per text, over 20,000 seeded cases of 1 to 4 parts, each
    /// with variants that replace, extend or insert a part and one identical
    /// to the base, at four dimensions. Backing the prefix off to a byte
    /// instead of a char boundary of both texts fails it: `7× yß` and
    /// `7éé 7× yß` share `7` and the lead byte of `×` and `é`, so the token
    /// `7` would seem to end inside the shared prefix.
    #[test]
    fn encode_variants_equals_encode_bit_for_bit() {
        let encoders = [16, 64, 100, 384].map(|dim| OneByOne(HashedLexicalEncoder::with_dim(dim)));
        let mut state = 56u64;
        let mut mismatches = Vec::new();
        for case in 0..20_000 {
            let parts: Vec<String> = (0..1 + below(&mut state, 4))
                .map(|_| part(&mut state))
                .collect();
            let mut variants = vec![parts.join(" ")];
            for _ in 0..4 {
                let mut edited = parts.clone();
                let at = below(&mut state, parts.len() + 1);
                match below(&mut state, 3) {
                    0 if at < parts.len() => edited[at] = part(&mut state),
                    1 if at < parts.len() => edited[at].push_str(&part(&mut state)),
                    _ => edited.insert(at, part(&mut state)),
                }
                variants.push(edited.join(" "));
            }
            let base = parts.join(" ");
            let one_by_one = &encoders[case % encoders.len()];
            let shared = one_by_one.0.encode_variants(&base, &variants);
            let expected = one_by_one.encode_variants(&base, &variants);
            assert_eq!(shared.len(), 1 + variants.len());
            let texts = std::iter::once(&base).chain(&variants);
            for ((row, want), text) in shared.rows().zip(expected.rows()).zip(texts) {
                if row
                    .iter()
                    .zip(want)
                    .any(|(x, y)| x.to_bits() != y.to_bits())
                {
                    mismatches.push((base.clone(), text.clone()));
                }
            }
        }
        assert_eq!(enc().encode_variants("", &[]).len(), 1);
        assert!(
            mismatches.is_empty(),
            "{} mismatches, first {:?}",
            mismatches.len(),
            &mismatches[..mismatches.len().min(4)]
        );
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
