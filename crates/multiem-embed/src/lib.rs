//! Embedding substrate for the MultiEM reproduction.
//!
//! The paper represents every serialized entity with a pre-trained
//! Sentence-BERT model (`all-MiniLM-L12-v2`, 384-dimensional mean-pooled
//! output). Shipping and running a transformer is out of scope for this
//! offline reproduction, so this crate provides a **deterministic hashed
//! lexical encoder** that preserves the property MultiEM actually relies on:
//! *textually similar serialized entities receive high-cosine-similarity
//! embeddings, and perturbing an attribute value moves the embedding
//! proportionally to the semantic weight of that attribute*.
//!
//! The encoder works as follows:
//!
//! 1. [`tokenizer`] splits the serialized entity into lowercase word tokens and
//!    character n-grams (the n-grams give robustness to typos, mirroring the
//!    sub-word tokenization of BERT).
//! 2. Every token is mapped to a pseudo-random unit vector seeded by a stable
//!    64-bit hash of the token ([`hashing`]), i.e. a fixed random embedding
//!    table that never has to be stored.
//! 3. Token vectors are combined by weighted mean pooling. Token weights model
//!    semantic salience: alphabetic words count fully, numeric and
//!    identifier-like tokens are down-weighted (this is what makes opaque `id`
//!    columns contribute little to the embedding, reproducing Example 1 of the
//!    paper).
//! 4. The pooled vector is L2-normalised.
//!
//! Any real transformer backend can be plugged in by implementing
//! [`EmbeddingModel`]; the rest of the pipeline is agnostic to the encoder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoder;
pub mod hashing;
pub mod tokenizer;
pub mod vector;

pub use encoder::{EmbeddingModel, HashedLexicalEncoder};
pub use tokenizer::TokenKind;
pub use vector::{cosine_distance, cosine_similarity, l2_normalize, Matrix};

/// Default embedding dimensionality, matching `all-MiniLM-L12-v2` used in the
/// paper (384 dimensions).
pub const DEFAULT_DIM: usize = 384;
