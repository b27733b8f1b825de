//! Tokenization of serialized entities.
//!
//! The tokenizer lowercases, splits on any non-alphanumeric character, and
//! classifies every token (alphabetic word / number / identifier-like mix).
//! Character n-grams of word tokens are produced separately so the encoder can
//! give partial credit to near-matching tokens ("iphone" vs "iphon8e"), which
//! plays the role of BERT's sub-word pieces.

use serde::{Deserialize, Serialize};

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

/// A token together with its kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// Normalised (lowercased) token text.
    pub text: String,
    /// Lexical class.
    pub kind: TokenKind,
}

/// Configuration of the tokenizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenizerConfig {
    /// Lowercase input before splitting.
    pub lowercase: bool,
    /// Minimum character n-gram length (inclusive). Set `ngram_max` to 0 to
    /// disable n-grams entirely.
    pub ngram_min: usize,
    /// Maximum character n-gram length (inclusive).
    pub ngram_max: usize,
    /// Only emit n-grams for tokens at least this long (shorter tokens are
    /// already fully captured by their word vector).
    pub ngram_token_min_len: usize,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self {
            lowercase: true,
            ngram_min: 3,
            ngram_max: 3,
            ngram_token_min_len: 4,
        }
    }
}

/// Splits serialized entities into classified tokens and character n-grams.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    config: TokenizerConfig,
}

impl Tokenizer {
    /// Create a tokenizer with the given configuration.
    pub fn new(config: TokenizerConfig) -> Self {
        Self { config }
    }

    /// The tokenizer configuration.
    pub fn config(&self) -> &TokenizerConfig {
        &self.config
    }

    /// Classify a normalised token.
    pub fn classify(token: &str) -> TokenKind {
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

    /// Split `text` into classified tokens.
    pub fn tokenize(&self, text: &str) -> Vec<Token> {
        let lowered;
        let source: &str = if self.config.lowercase {
            lowered = text.to_lowercase();
            &lowered
        } else {
            text
        };
        source
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(|t| Token {
                text: t.to_string(),
                kind: Self::classify(t),
            })
            .collect()
    }

    /// Character n-grams of a single token according to the configuration:
    /// for each `n` in `ngram_min..=ngram_max`, every run of `n` consecutive
    /// chars, in order, as a slice of `token` cut at `char_indices`
    /// boundaries (so multi-byte chars stay whole). Nothing is copied; a
    /// token shorter than `ngram_token_min_len` chars has no n-grams.
    pub fn char_ngrams<'t>(&self, token: &'t str) -> Vec<&'t str> {
        let mut out = Vec::new();
        if self.config.ngram_max == 0 || token.chars().count() < self.config.ngram_token_min_len {
            return out;
        }
        let starts = || token.char_indices().map(|(i, _)| i);
        for n in self.config.ngram_min..=self.config.ngram_max {
            if n == 0 {
                continue;
            }
            // Gram `k` runs from char `k` to char `k + n`; zipping stops at
            // the last gram that fits (none when the token is too short).
            let ends = starts().chain(std::iter::once(token.len())).skip(n);
            out.extend(starts().zip(ends).map(|(start, end)| &token[start..end]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        let t = Tokenizer::default();
        let toks = t.tokenize("Apple iPhone-8 Plus, 64GB (Silver)");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["apple", "iphone", "8", "plus", "64gb", "silver"]
        );
    }

    #[test]
    fn classification_covers_all_kinds() {
        assert_eq!(Tokenizer::classify("apple"), TokenKind::Word);
        assert_eq!(Tokenizer::classify("of"), TokenKind::ShortWord);
        assert_eq!(Tokenizer::classify("1998"), TokenKind::Number);
        assert_eq!(Tokenizer::classify("64gb"), TokenKind::Mixed);
        assert_eq!(Tokenizer::classify("wom14513028"), TokenKind::Mixed);
    }

    #[test]
    fn empty_and_punctuation_only_input() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("--- ,,, !!!").is_empty());
    }

    #[test]
    fn char_ngrams_default_config() {
        let t = Tokenizer::default();
        let grams = t.char_ngrams("iphone");
        assert_eq!(grams, vec!["iph", "pho", "hon", "one"]);
        // Token below the minimum length yields no n-grams.
        assert!(t.char_ngrams("ace").is_empty());
    }

    #[test]
    fn char_ngrams_disabled() {
        let cfg = TokenizerConfig {
            ngram_max: 0,
            ..TokenizerConfig::default()
        };
        let t = Tokenizer::new(cfg);
        assert!(t.char_ngrams("iphone").is_empty());
    }

    #[test]
    fn char_ngrams_range() {
        let cfg = TokenizerConfig {
            ngram_min: 2,
            ngram_max: 3,
            ngram_token_min_len: 3,
            ..TokenizerConfig::default()
        };
        let t = Tokenizer::new(cfg);
        let grams = t.char_ngrams("abcd");
        assert!(grams.contains(&"ab"));
        assert!(grams.contains(&"bcd"));
        assert_eq!(grams.len(), 3 + 2);
    }

    #[test]
    fn char_ngrams_are_the_char_windows_of_multi_byte_tokens() {
        let by_windows = |token: &str, n: usize| -> Vec<String> {
            let chars: Vec<char> = token.chars().collect();
            chars.windows(n).map(|w| w.iter().collect()).collect()
        };
        let default = Tokenizer::default();
        let range = Tokenizer::new(TokenizerConfig {
            ngram_min: 1,
            ngram_max: 4,
            ngram_token_min_len: 3,
            ..TokenizerConfig::default()
        });
        // "café" is exactly the default `ngram_token_min_len` (4) chars long.
        for token in ["naïve", "東京都庁", "café", "iphone"] {
            for t in [&default, &range] {
                let cfg = t.config();
                let expected: Vec<String> = (cfg.ngram_min..=cfg.ngram_max)
                    .flat_map(|n| by_windows(token, n))
                    .collect();
                assert_eq!(t.char_ngrams(token), expected, "{token}");
            }
        }
        assert_eq!(default.char_ngrams("naïve"), vec!["naï", "aïv", "ïve"]);
        assert_eq!(default.char_ngrams("東京都庁"), vec!["東京都", "京都庁"]);
        assert_eq!(default.char_ngrams("café"), vec!["caf", "afé"]);
        assert!(default.char_ngrams("東京都").is_empty());
    }

    #[test]
    fn unicode_tokens_survive() {
        let t = Tokenizer::default();
        let toks = t.tokenize("café naïve 東京");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].text, "café");
    }

    #[test]
    fn case_preserving_mode() {
        let cfg = TokenizerConfig {
            lowercase: false,
            ..TokenizerConfig::default()
        };
        let t = Tokenizer::new(cfg);
        let toks = t.tokenize("Apple iPhone");
        assert_eq!(toks[0].text, "Apple");
    }
}
