//! Tokenization of serialized entities.
//!
//! [`tokenize`] splits lowercased text on any non-alphanumeric character and
//! classifies every token (alphabetic word / number / identifier-like mix).
//! [`char_ngrams`] gives the character trigrams of a token separately, so the
//! encoder can give partial credit to near-matching tokens ("iphone" vs
//! "iphon8e"), which plays the role of BERT's sub-word pieces. Both are
//! iterators of slices of their input: the encoder lowercases a text once
//! and allocates nothing per token or per n-gram.

use serde::{Deserialize, Serialize};

/// Length in chars of a character n-gram.
const NGRAM_LEN: usize = 3;

/// Only tokens of at least this many chars have n-grams: shorter ones are
/// already fully captured by their word vector.
const NGRAM_TOKEN_MIN_LEN: usize = 4;

/// The lexical class of a token, used to modulate its pooling weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TokenKind {
    /// Purely alphabetic, length ≥ 3 (e.g. "apple", "chameleon").
    Word,
    /// Purely alphabetic, length < 3 (e.g. "of", "u3").
    ShortWord,
    /// Purely numeric (e.g. "64", "1998").
    Number,
    /// Mixed alphanumeric, identifier-like (e.g. "64gb", "wom14513028").
    Mixed,
}

/// Classify a normalised token.
fn classify(token: &str) -> TokenKind {
    let has_alpha = token.chars().any(|c| c.is_alphabetic());
    let has_digit = token.chars().any(|c| c.is_ascii_digit());
    match (has_alpha, has_digit) {
        (true, true) => TokenKind::Mixed,
        (false, true) => TokenKind::Number,
        (true, false) => {
            if token.chars().count() >= 3 {
                TokenKind::Word
            } else {
                TokenKind::ShortWord
            }
        }
        // Pure punctuation never reaches here because splitting removes it,
        // but classify defensively.
        (false, false) => TokenKind::ShortWord,
    }
}

/// Split `lowercased` (text already passed through [`str::to_lowercase`])
/// into its tokens, in order, each a slice of it with its kind.
pub fn tokenize(lowercased: &str) -> impl Iterator<Item = (&str, TokenKind)> {
    lowercased
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| (t, classify(t)))
}

/// Character trigrams of a single token: every run of 3 consecutive chars,
/// in order, as a slice of `token` cut at `char_indices` boundaries (so
/// multi-byte chars stay whole). Nothing is copied; a token shorter than 4
/// chars has no n-grams.
pub fn char_ngrams(token: &str) -> impl Iterator<Item = &str> {
    let long_enough = token.chars().nth(NGRAM_TOKEN_MIN_LEN - 1).is_some();
    let starts = token.char_indices().map(|(i, _)| i);
    // Gram `k` runs from char `k` to char `k + 3`; zipping stops at the last
    // gram that fits.
    let ends = starts
        .clone()
        .chain(std::iter::once(token.len()))
        .skip(NGRAM_LEN);
    starts
        .zip(ends)
        .map(|(start, end)| &token[start..end])
        .take(if long_enough { usize::MAX } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of `text`, lowercased first as the encoder does.
    fn texts(text: &str) -> Vec<String> {
        tokenize(&text.to_lowercase())
            .map(|(t, _)| t.to_string())
            .collect()
    }

    fn grams(token: &str) -> Vec<&str> {
        char_ngrams(token).collect()
    }

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(
            texts("Apple iPhone-8 Plus, 64GB (Silver)"),
            vec!["apple", "iphone", "8", "plus", "64gb", "silver"]
        );
    }

    #[test]
    fn lowercases_non_ascii_text() {
        assert_eq!(texts("CAFÉ ÉCOLE Straße"), vec!["café", "école", "straße"]);
    }

    #[test]
    fn classification_covers_all_kinds() {
        assert_eq!(classify("apple"), TokenKind::Word);
        assert_eq!(classify("of"), TokenKind::ShortWord);
        assert_eq!(classify("1998"), TokenKind::Number);
        assert_eq!(classify("64gb"), TokenKind::Mixed);
        assert_eq!(classify("wom14513028"), TokenKind::Mixed);
    }

    #[test]
    fn empty_and_punctuation_only_input() {
        assert!(texts("").is_empty());
        assert!(texts("--- ,,, !!!").is_empty());
    }

    #[test]
    fn char_ngrams_are_trigrams_of_long_enough_tokens() {
        assert_eq!(grams("iphone"), vec!["iph", "pho", "hon", "one"]);
        // Token below the minimum length yields no n-grams.
        assert!(grams("ace").is_empty());
    }

    #[test]
    fn char_ngrams_are_the_char_windows_of_multi_byte_tokens() {
        let by_windows = |token: &str| -> Vec<String> {
            let chars: Vec<char> = token.chars().collect();
            chars
                .windows(NGRAM_LEN)
                .map(|w| w.iter().collect())
                .collect()
        };
        // "café" is exactly `NGRAM_TOKEN_MIN_LEN` (4) chars long.
        for token in ["naïve", "東京都庁", "café", "iphone"] {
            assert_eq!(grams(token), by_windows(token), "{token}");
        }
        assert_eq!(grams("naïve"), vec!["naï", "aïv", "ïve"]);
        assert_eq!(grams("東京都庁"), vec!["東京都", "京都庁"]);
        assert_eq!(grams("café"), vec!["caf", "afé"]);
        assert!(grams("東京都").is_empty());
    }

    #[test]
    fn unicode_tokens_survive() {
        let toks: Vec<(&str, TokenKind)> = tokenize("café naïve 東京").collect();
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0], ("café", TokenKind::Word));
    }
}
