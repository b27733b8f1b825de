//! Enhanced Entity Representation (Section III-B, Algorithm 1).
//!
//! Two pieces live here:
//!
//! * [`select_attributes`] — the automated attribute-selection algorithm:
//!   shuffle one attribute's values across a sample of entities, re-embed, and
//!   measure how much the embeddings move. Attributes whose shuffling barely
//!   moves the embeddings (mean cosine similarity above `γ`) carry little
//!   signal for the encoder — opaque ids, track numbers, low-cardinality flags
//!   — and are discarded.
//! * [`EmbeddingStore`] — serializes every entity of the dataset using the
//!   selected attributes and encodes it, keeping one embedding matrix per
//!   source table with `EntityId`-based lookup.

use crate::config::MultiEmConfig;
use crate::error::MultiEmError;
use crate::Result;
use multiem_embed::{cosine_similarity, EmbeddingModel, Matrix};
use multiem_table::{
    serialize_record_projected, serialize_record_substituted, AttrId, Dataset, EntityId, Record,
    Value,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Significance measurement of one attribute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributeSignificance {
    /// Attribute index in the schema.
    pub attr: AttrId,
    /// Attribute name.
    pub name: String,
    /// Mean cosine similarity between original and shuffled embeddings
    /// (lower = the attribute matters more).
    pub mean_similarity: f64,
    /// Whether the attribute was selected.
    pub selected: bool,
}

/// The outcome of Algorithm 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributeSelection {
    /// Per-attribute measurements, in schema order.
    pub scores: Vec<AttributeSignificance>,
    /// Indices of the selected attributes, in schema order.
    pub selected: Vec<AttrId>,
}

impl AttributeSelection {
    /// Names of the selected attributes.
    pub fn selected_names(&self) -> Vec<&str> {
        self.scores
            .iter()
            .filter(|s| s.selected)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// A selection that keeps every attribute (used by the `w/o EER` ablation).
    pub fn all_attributes(dataset: &Dataset) -> Self {
        let scores = dataset
            .schema()
            .names()
            .enumerate()
            .map(|(i, name)| AttributeSignificance {
                attr: i,
                name: name.to_string(),
                mean_similarity: 0.0,
                selected: true,
            })
            .collect::<Vec<_>>();
        let selected = (0..dataset.schema().len()).collect();
        Self { scores, selected }
    }
}

/// Sample blocks per thread in [`select_attributes`]: a few, so a thread that
/// loses its core for a while holds back a fraction of its share.
const BLOCKS_PER_THREAD: usize = 4;

/// Run the automated attribute selection (Algorithm 1).
///
/// * `sample_ratio` is the paper's `r`: the fraction of (concatenated) entities
///   used to estimate significance scores.
/// * `gamma` is the paper's `γ`: an attribute is **selected** when the mean
///   cosine similarity between the original and attribute-shuffled embeddings
///   is `≤ γ` — i.e. shuffling the attribute visibly changes the embedding, as
///   in Example 1 of the paper (replacing `album` moved similarity to 0.79
///   while replacing `id` only moved it to 0.91).
///
/// If every attribute would be rejected, the single most significant attribute
/// is kept so the pipeline always has something to embed.
pub fn select_attributes(
    dataset: &Dataset,
    encoder: &dyn EmbeddingModel,
    config: &MultiEmConfig,
) -> Result<AttributeSelection> {
    let schema = dataset.schema();
    if schema.is_empty() {
        return Err(MultiEmError::InvalidConfig(
            "dataset schema has no attributes".into(),
        ));
    }
    let all: Vec<(EntityId, &Record)> = dataset.concat();
    if all.is_empty() {
        return Err(MultiEmError::EmptyDataset);
    }

    // Sample `r * |E|` entities (at least 2, at most all).
    let mut rng = ChaCha8Rng::seed_from_u64(config.merge_seed ^ 0x5EED_A771);
    let mut indices: Vec<usize> = (0..all.len()).collect();
    indices.shuffle(&mut rng);
    let sample_size = ((all.len() as f64 * config.sample_ratio).ceil() as usize)
        .clamp(2.min(all.len()), all.len());
    indices.truncate(sample_size);
    let sample: Vec<&Record> = indices.iter().map(|&i| all[i].1).collect();

    // Every attribute's values shuffled across the sample, attribute by
    // attribute, so the draws do not depend on how the texts are built.
    let shuffled: Vec<Vec<&Value>> = (0..schema.len())
        .map(|attr| {
            let mut values: Vec<&Value> = sample
                .iter()
                .map(|r| r.value(attr).expect("attr within schema"))
                .collect();
            values.shuffle(&mut rng);
            values
        })
        .collect();

    let all_attrs: Vec<AttrId> = (0..schema.len()).collect();
    // The sample's blocks, a few per thread: each block serializes every row
    // and its shuffled variants, encodes them together and scores each
    // variant against the row, so no text crosses threads.
    let block_len = sample
        .len()
        .div_ceil(rayon::current_num_threads() * BLOCKS_PER_THREAD);
    let ranges: Vec<Range<usize>> = (0..sample.len())
        .step_by(block_len)
        .map(|start| start..(start + block_len).min(sample.len()))
        .collect();
    // Each block's similarities, row-major: one per (row, attribute).
    let similarities: Vec<Vec<f64>> = ranges
        .par_iter()
        .map(|rows| {
            let mut out = Vec::with_capacity(rows.len() * schema.len());
            for i in rows.clone() {
                let record = sample[i];
                let base = serialize_record_projected(record, &all_attrs, &config.serialize);
                let variants: Vec<String> = (0..schema.len())
                    .map(|attr| {
                        let value = shuffled[attr][i];
                        serialize_record_substituted(
                            record,
                            attr,
                            value,
                            &all_attrs,
                            &config.serialize,
                        )
                    })
                    .collect();
                let m = encoder.encode_variants(&base, &variants);
                out.extend((1..m.len()).map(|j| f64::from(cosine_similarity(m.row(0), m.row(j)))));
            }
            out
        })
        .collect();

    let mut scores = Vec::with_capacity(schema.len());
    for attr in 0..schema.len() {
        // Summed in sample order, so the mean does not depend on the blocks.
        let total: f64 = similarities
            .iter()
            .flat_map(|block| block.iter().skip(attr).step_by(schema.len()))
            .fold(0.0, |sum, s| sum + s);
        let mean_similarity = if sample.is_empty() {
            1.0
        } else {
            total / sample.len() as f64
        };
        scores.push(AttributeSignificance {
            attr,
            name: schema.name(attr).unwrap_or("").to_string(),
            mean_similarity,
            selected: mean_similarity <= config.gamma,
        });
    }

    // Guarantee at least one selected attribute.
    if scores.iter().all(|s| !s.selected) {
        if let Some(best) = scores.iter_mut().min_by(|a, b| {
            a.mean_similarity
                .partial_cmp(&b.mean_similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
        }) {
            best.selected = true;
        }
    }

    let selected = scores
        .iter()
        .filter(|s| s.selected)
        .map(|s| s.attr)
        .collect();
    Ok(AttributeSelection { scores, selected })
}

/// Embeddings of every entity in the dataset, organised per source table.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    dim: usize,
    per_source: Vec<Matrix>,
}

impl EmbeddingStore {
    /// Serialize (using `selected` attributes) and encode every entity of the
    /// dataset. Encoding is parallel across source tables.
    pub fn build(
        dataset: &Dataset,
        encoder: &dyn EmbeddingModel,
        selected: &[AttrId],
        config: &MultiEmConfig,
    ) -> Self {
        let per_source: Vec<Matrix> = dataset
            .tables()
            .par_iter()
            .map(|table| {
                let texts: Vec<String> = table
                    .records()
                    .iter()
                    .map(|r| serialize_record_projected(r, selected, &config.serialize))
                    .collect();
                encoder.encode_batch(&texts)
            })
            .collect();
        Self {
            dim: encoder.dim(),
            per_source,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of source tables covered.
    pub fn num_sources(&self) -> usize {
        self.per_source.len()
    }

    /// Number of embeddings stored for one source.
    pub fn source_len(&self, source: u32) -> usize {
        self.per_source
            .get(source as usize)
            .map(Matrix::len)
            .unwrap_or(0)
    }

    /// Borrow the embedding of an entity.
    ///
    /// # Panics
    /// Panics if the entity id is out of range for the store.
    pub fn embedding(&self, id: EntityId) -> &[f32] {
        self.per_source[id.source as usize].row(id.row as usize)
    }

    /// Total accounted bytes across all matrices.
    pub fn approx_bytes(&self) -> usize {
        self.per_source.iter().map(Matrix::approx_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiem_datagen::{
        benchmark_dataset, CorruptionConfig, Corruptor, Domain, GeneratorConfig,
        MultiSourceGenerator,
    };
    use multiem_embed::HashedLexicalEncoder;

    fn music_dataset() -> Dataset {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let cfg = GeneratorConfig {
            name: "music-eer".into(),
            num_sources: 4,
            num_tuples: 80,
            num_singletons: 20,
            min_tuple_size: 2,
            max_tuple_size: 4,
            seed: 5,
        };
        MultiSourceGenerator::new(cfg).generate(factory.as_ref(), &corruptor)
    }

    #[test]
    fn selects_informative_music_attributes_and_drops_id() {
        let ds = music_dataset();
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig {
            sample_ratio: 0.5,
            gamma: 0.9,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(&ds, &encoder, &config).unwrap();
        let names = selection.selected_names();
        // Table VII: title, artist, album are the expert-chosen attributes.
        assert!(names.contains(&"title"), "selected: {names:?}");
        assert!(names.contains(&"artist"), "selected: {names:?}");
        // The opaque per-source id and the track number must be rejected.
        assert!(!names.contains(&"id"), "selected: {names:?}");
        assert!(!names.contains(&"number"), "selected: {names:?}");
        // Scores are reported for every attribute.
        assert_eq!(selection.scores.len(), ds.schema().len());
    }

    #[test]
    fn significant_attributes_have_lower_similarity() {
        let ds = music_dataset();
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig {
            sample_ratio: 0.5,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(&ds, &encoder, &config).unwrap();
        let sim_of = |name: &str| {
            selection
                .scores
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.mean_similarity)
                .unwrap()
        };
        assert!(sim_of("title") < sim_of("id"));
        assert!(sim_of("artist") < sim_of("number"));
    }

    #[test]
    fn at_least_one_attribute_is_always_selected() {
        let ds = music_dataset();
        let encoder = HashedLexicalEncoder::default();
        // gamma = 0 would normally reject everything.
        let config = MultiEmConfig {
            gamma: 0.0,
            sample_ratio: 0.3,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(&ds, &encoder, &config).unwrap();
        assert_eq!(selection.selected.len(), 1);
    }

    #[test]
    fn single_attribute_dataset_keeps_it() {
        let bd = benchmark_dataset("shopee", 0.01).unwrap();
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig {
            sample_ratio: 0.5,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(&bd.dataset, &encoder, &config).unwrap();
        assert_eq!(selection.selected_names(), vec!["title"]);
    }

    #[test]
    fn all_attributes_helper_selects_everything() {
        let ds = music_dataset();
        let sel = AttributeSelection::all_attributes(&ds);
        assert_eq!(sel.selected.len(), ds.schema().len());
        assert!(sel.scores.iter().all(|s| s.selected));
    }

    #[test]
    fn embedding_store_lookup_matches_direct_encoding() {
        let ds = music_dataset();
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig::default();
        let selected: Vec<AttrId> = vec![2, 4, 5]; // title, artist, album
        let store = EmbeddingStore::build(&ds, &encoder, &selected, &config);
        assert_eq!(store.num_sources(), ds.num_sources());
        assert_eq!(store.dim(), encoder.dim());

        let id = ds.entity_ids().nth(7).unwrap();
        let record = ds.record(id).unwrap();
        let text = serialize_record_projected(record, &selected, &config.serialize);
        let direct = encoder.encode(&text);
        assert_eq!(store.embedding(id), direct.as_slice());
        assert!(store.approx_bytes() > 0);
        assert_eq!(store.source_len(0), ds.table(0).unwrap().len());
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let schema = multiem_table::Schema::new(["a"]).shared();
        let ds = Dataset::new("empty", schema);
        let encoder = HashedLexicalEncoder::default();
        let err = select_attributes(&ds, &encoder, &MultiEmConfig::default());
        assert!(err.is_err());
    }

    /// Algorithm 1's scores do not depend on how many threads, and so how
    /// many sample blocks, computed them: on the music fixture, and on a
    /// `music-20` sample of 97 rows (prime, so no block count divides it and
    /// the last block is short), one thread, three and full width give the
    /// same bits.
    #[test]
    fn mean_similarities_are_the_same_at_every_width() {
        let encoder = HashedLexicalEncoder::default();
        let preset = benchmark_dataset("music-20", 0.05).unwrap().dataset;
        let entities = preset.concat().len();
        let ragged = MultiEmConfig {
            sample_ratio: 96.5 / entities as f64,
            ..MultiEmConfig::default()
        };
        assert_eq!((entities as f64 * ragged.sample_ratio).ceil(), 97.0);
        for (ds, config) in [
            (music_dataset(), MultiEmConfig::default()),
            (preset, ragged),
        ] {
            let bits = || -> Vec<u64> {
                let selection = select_attributes(&ds, &encoder, &config).unwrap();
                selection
                    .scores
                    .iter()
                    .map(|s| s.mean_similarity.to_bits())
                    .collect()
            };
            let full = bits();
            for width in [1, 3] {
                let narrow = rayon::ThreadPool::new(width).install(bits);
                assert_eq!(narrow, full, "{} at {width} thread(s)", ds.name());
            }
        }
    }

    /// Every attribute's `mean_similarity`, as bits, on the music fixture
    /// and on `music-20` at 0.05, as Algorithm 1 computed them when it
    /// cloned a record per shuffled value and built the texts on one thread.
    #[test]
    fn mean_similarities_are_pinned() {
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig::default();
        let preset = benchmark_dataset("music-20", 0.05).unwrap().dataset;
        let found: Vec<Vec<u64>> = [music_dataset(), preset]
            .iter()
            .map(|ds| {
                let selection = select_attributes(ds, &encoder, &config).unwrap();
                selection
                    .scores
                    .iter()
                    .map(|s| s.mean_similarity.to_bits())
                    .collect()
            })
            .collect();
        let expected: [&[u64]; 2] = [
            &[
                0x3fef_9b7b_9a76_2762,
                0x3fee_7868_9762_7627,
                0x3fe6_7ef3_14ec_4ec5,
                0x3fee_797d_bbb1_3b14,
                0x3fe9_b23c_2e27_6276,
                0x3fe9_8a94_76c4_ec4f,
                0x3fee_8880_b589_d89e,
                0x3fee_b978_5000_0000,
            ],
            &[
                0x3fef_9815_7f28_6bca,
                0x3fee_707b_77ea_712e,
                0x3fe6_9a94_1af2_86bd,
                0x3fee_5f50_d563_b48c,
                0x3fe9_92a3_ca71_2dcf,
                0x3fe9_96e5_6769_1841,
                0x3fee_0936_1dcf_7ea7,
                0x3fee_8956_886b_ca1b,
            ],
        ];
        assert_eq!(found, expected);
    }
}
