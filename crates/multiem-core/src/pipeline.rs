//! The end-to-end MultiEM runner.
//!
//! Ties the three phases together, records per-phase wall-clock times (the S /
//! R / M / P bars of Figure 5) and accounts the memory of the large structures
//! it materialises (Table VI).

use crate::config::MultiEmConfig;
use crate::error::MultiEmError;
use crate::merging::hierarchical_merge_store;
use crate::pruning::prune_members;
use crate::representation::{select_attributes, AttributeSelection, EmbeddingStore};
use crate::Result;
use multiem_embed::EmbeddingModel;
use multiem_table::{Dataset, MatchTuple};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock durations of the pipeline phases (Figure 5 notation:
/// S = attribute selection, R = representation, M = merging, P = pruning).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Automated attribute selection (Algorithm 1).
    pub attribute_selection: Duration,
    /// Entity serialization + encoding.
    pub representation: Duration,
    /// Table-wise hierarchical merging.
    pub merging: Duration,
    /// Density-based pruning.
    pub pruning: Duration,
}

impl PhaseBreakdown {
    /// Total time across the four phases.
    pub fn total(&self) -> Duration {
        self.attribute_selection + self.representation + self.merging + self.pruning
    }

    /// Phases as `(label, duration)` pairs in execution order.
    pub fn as_pairs(&self) -> Vec<(&'static str, Duration)> {
        vec![
            ("S", self.attribute_selection),
            ("R", self.representation),
            ("M", self.merging),
            ("P", self.pruning),
        ]
    }
}

/// The result of one MultiEM run.
#[derive(Debug, Clone)]
pub struct MultiEmOutput {
    /// Predicted matched tuples.
    pub tuples: Vec<MatchTuple>,
    /// Outcome of the attribute-selection step.
    pub selection: AttributeSelection,
    /// Per-phase wall-clock durations.
    pub phases: PhaseBreakdown,
    /// Total wall-clock runtime.
    pub total_time: Duration,
    /// Byte-accounted memory per component: `embeddings` (the store),
    /// `ann-indexes` (the peak search memory of one merge: norms, row
    /// references and top-K tables) and `merged-table` (the integrated
    /// member lists and the fused-row arena).
    pub memory_bytes: BTreeMap<String, usize>,
    /// Number of hierarchy levels executed by the merging phase.
    pub merge_levels: usize,
    /// Number of entities removed as outliers by the pruning phase.
    pub outliers_removed: usize,
    /// Number of candidate tuples dropped entirely by the pruning phase.
    pub tuples_dropped: usize,
}

impl MultiEmOutput {
    /// Total accounted memory in bytes.
    pub fn total_memory_bytes(&self) -> usize {
        self.memory_bytes.values().sum()
    }
}

/// The MultiEM pipeline, generic over the embedding backend.
#[derive(Debug, Clone)]
pub struct MultiEm<E: EmbeddingModel> {
    config: MultiEmConfig,
    encoder: E,
}

impl<E: EmbeddingModel> MultiEm<E> {
    /// Create a pipeline with the given configuration and encoder.
    pub fn new(config: MultiEmConfig, encoder: E) -> Self {
        Self { config, encoder }
    }

    /// The configuration.
    pub fn config(&self) -> &MultiEmConfig {
        &self.config
    }

    /// The embedding backend.
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// Run the full pipeline on a dataset.
    pub fn run(&self, dataset: &Dataset) -> Result<MultiEmOutput> {
        self.config
            .validate()
            .map_err(MultiEmError::InvalidConfig)?;
        if dataset.num_sources() == 0 {
            return Err(MultiEmError::EmptyDataset);
        }
        if dataset.num_sources() == 1 {
            return Err(MultiEmError::SingleTable);
        }

        let start = Instant::now();
        let mut phases = PhaseBreakdown::default();
        let mut memory: BTreeMap<String, usize> = BTreeMap::new();

        // Phase S: automated attribute selection.
        let t = Instant::now();
        let selection = if self.config.attribute_selection {
            select_attributes(dataset, &self.encoder, &self.config)?
        } else {
            AttributeSelection::all_attributes(dataset)
        };
        phases.attribute_selection = t.elapsed();

        // Phase R: entity representation.
        let t = Instant::now();
        let store =
            EmbeddingStore::build(dataset, &self.encoder, &selection.selected, &self.config);
        phases.representation = t.elapsed();
        memory.insert("embeddings".to_string(), store.approx_bytes());

        // Phase M: table-wise hierarchical merging.
        let t = Instant::now();
        let merge_out = hierarchical_merge_store(dataset, &store, &self.config);
        phases.merging = t.elapsed();
        memory.insert("ann-indexes".to_string(), merge_out.peak_index_bytes);
        memory.insert("merged-table".to_string(), merge_out.approx_bytes());

        // Phase P: density-based pruning.
        let t = Instant::now();
        let (tuples, outliers_removed, tuples_dropped) = if self.config.pruning {
            let lists = merge_out.members.iter().map(Vec::as_slice);
            let summary = prune_members(lists, &store, &self.config);
            (
                summary.tuples,
                summary.outliers_removed,
                summary.tuples_dropped,
            )
        } else {
            (merge_out.tuples(), 0, 0)
        };
        phases.pruning = t.elapsed();

        Ok(MultiEmOutput {
            tuples,
            selection,
            phases,
            total_time: start.elapsed(),
            memory_bytes: memory,
            merge_levels: merge_out.levels,
            outliers_removed,
            tuples_dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiEmConfig;
    use multiem_datagen::{
        benchmark_dataset, CorruptionConfig, Corruptor, Domain, GeneratorConfig,
        MultiSourceGenerator,
    };
    use multiem_embed::HashedLexicalEncoder;
    use multiem_eval::evaluate;

    fn music_dataset(seed: u64) -> Dataset {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let cfg = GeneratorConfig {
            name: "music-pipe".into(),
            num_sources: 5,
            num_tuples: 60,
            num_singletons: 30,
            min_tuple_size: 2,
            max_tuple_size: 4,
            seed,
        };
        MultiSourceGenerator::new(cfg).generate(factory.as_ref(), &corruptor)
    }

    #[test]
    fn end_to_end_music_quality() {
        let ds = music_dataset(3);
        let config = MultiEmConfig {
            m: 0.35,
            ..MultiEmConfig::default()
        };
        let pipeline = MultiEm::new(config, HashedLexicalEncoder::default());
        let output = pipeline.run(&ds).unwrap();
        let report = evaluate(&output.tuples, ds.ground_truth().unwrap());
        assert!(
            report.pair.f1 > 0.6,
            "pair F1 too low: {:?} ({} tuples predicted)",
            report.pair,
            output.tuples.len()
        );
        assert!(
            report.tuple.f1 > 0.4,
            "tuple F1 too low: {:?}",
            report.tuple
        );
        // Sanity on the bookkeeping.
        assert!(output.total_time >= output.phases.merging);
        assert!(output.total_memory_bytes() > 0);
        assert_eq!(output.merge_levels, 3); // ceil(log2(5))
        assert!(!output.selection.selected.is_empty());
    }

    #[test]
    fn geo_benchmark_preset_end_to_end() {
        let bd = benchmark_dataset("geo", 0.05).unwrap();
        let config = MultiEmConfig {
            m: 0.35,
            ..MultiEmConfig::default()
        };
        let pipeline = MultiEm::new(config, HashedLexicalEncoder::default());
        let output = pipeline.run(&bd.dataset).unwrap();
        let report = evaluate(&output.tuples, bd.dataset.ground_truth().unwrap());
        assert!(report.pair.f1 > 0.5, "geo pair F1: {:?}", report.pair);
    }

    #[test]
    fn ablations_change_behaviour_but_still_run() {
        let ds = music_dataset(5);
        let full = MultiEm::new(MultiEmConfig::default(), HashedLexicalEncoder::default())
            .run(&ds)
            .unwrap();
        let no_eer = MultiEm::new(
            MultiEmConfig::default().without_attribute_selection(),
            HashedLexicalEncoder::default(),
        )
        .run(&ds)
        .unwrap();
        let no_dp = MultiEm::new(
            MultiEmConfig::default().without_pruning(),
            HashedLexicalEncoder::default(),
        )
        .run(&ds)
        .unwrap();
        // w/o EER embeds every attribute.
        assert_eq!(no_eer.selection.selected.len(), ds.schema().len());
        assert!(full.selection.selected.len() < ds.schema().len());
        // w/o DP never removes outliers.
        assert_eq!(no_dp.outliers_removed, 0);
        assert_eq!(no_dp.tuples_dropped, 0);
        // Pruning can only reduce (or keep) the number of predicted tuples of
        // the same merge output; with selection differences the counts may vary,
        // so just check everything produced tuples.
        assert!(!full.tuples.is_empty());
        assert!(!no_eer.tuples.is_empty());
        assert!(!no_dp.tuples.is_empty());
    }

    #[test]
    fn rejects_degenerate_datasets_and_configs() {
        let schema = multiem_table::Schema::new(["a"]).shared();
        let empty = Dataset::new("empty", schema.clone());
        let pipeline = MultiEm::new(MultiEmConfig::default(), HashedLexicalEncoder::default());
        assert!(matches!(
            pipeline.run(&empty),
            Err(MultiEmError::EmptyDataset)
        ));

        let mut single = Dataset::new("single", schema.clone());
        single
            .add_table(
                multiem_table::Table::with_records(
                    "only",
                    schema.clone(),
                    vec![multiem_table::Record::from_texts(["x"])],
                )
                .unwrap(),
            )
            .unwrap();
        assert!(matches!(
            pipeline.run(&single),
            Err(MultiEmError::SingleTable)
        ));

        let bad_cfg = MultiEmConfig {
            k: 0,
            ..MultiEmConfig::default()
        };
        let bad = MultiEm::new(bad_cfg, HashedLexicalEncoder::default());
        let ds = music_dataset(1);
        assert!(matches!(bad.run(&ds), Err(MultiEmError::InvalidConfig(_))));
    }

    #[test]
    fn deterministic_given_config_and_seed() {
        let ds = music_dataset(11);
        let run = || {
            MultiEm::new(
                MultiEmConfig {
                    m: 0.35,
                    ..MultiEmConfig::default()
                },
                HashedLexicalEncoder::default(),
            )
            .run(&ds)
            .unwrap()
            .tuples
        };
        let mut a = run();
        let mut b = run();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn phase_breakdown_pairs_cover_all_phases() {
        let ds = music_dataset(2);
        let out = MultiEm::new(MultiEmConfig::default(), HashedLexicalEncoder::default())
            .run(&ds)
            .unwrap();
        let pairs = out.phases.as_pairs();
        assert_eq!(pairs.len(), 4);
        let labels: Vec<&str> = pairs.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["S", "R", "M", "P"]);
        assert!(out.phases.total() <= out.total_time + Duration::from_millis(50));
    }

    /// A run joins every merge over the rows where they lie: its
    /// `ann-indexes` (the largest merge's search memory) stays below the
    /// bytes of the smaller side's rows of any merge, which hold at least as
    /// many items as the smallest source table has embedded rows.
    #[test]
    fn an_exact_run_accounts_no_row_copy_to_its_merges() {
        let ds = music_dataset(3);
        let config = MultiEmConfig {
            m: 0.35,
            ..MultiEmConfig::default()
        };
        let encoder = HashedLexicalEncoder::default();
        let out = MultiEm::new(config.clone(), encoder.clone())
            .run(&ds)
            .unwrap();
        let store = EmbeddingStore::build(&ds, &encoder, &out.selection.selected, &config);
        let smallest = (0..ds.num_sources() as u32)
            .map(|s| {
                (0..store.source_len(s) as u32)
                    .filter(|&row| {
                        let id = multiem_table::EntityId::new(s, row);
                        store.embedding(id).iter().any(|&x| x != 0.0)
                    })
                    .count()
            })
            .min()
            .unwrap();
        let row_bytes = smallest * encoder.dim() * std::mem::size_of::<f32>();
        let ann = out.memory_bytes["ann-indexes"];
        assert!(
            ann > 0 && ann < row_bytes,
            "ann-indexes {ann} vs rows {row_bytes}"
        );
    }

    /// `MultiEm::run`'s sorted tuples on each of the merger's pinned cases,
    /// as computed before the merger kept its rows in an arena.
    #[test]
    fn run_tuples_are_pinned() {
        let mut found = Vec::new();
        for case in crate::merging::tests::pinned_cases() {
            let pipeline = MultiEm::new(case.config.clone(), HashedLexicalEncoder::default());
            let out = case.run(|| pipeline.run(&case.dataset).unwrap());
            let mut bytes = Vec::new();
            for tuple in sorted_tuples(out.tuples) {
                bytes.extend_from_slice(&(tuple.len() as u32).to_le_bytes());
                for id in tuple.members() {
                    bytes.extend_from_slice(&id.source.to_le_bytes());
                    bytes.extend_from_slice(&id.row.to_le_bytes());
                }
            }
            found.push((case.name, multiem_embed::hashing::fnv1a64(&bytes)));
        }
        let expected = [
            ("music", 0x702d_5ced_2408_4ea6),
            ("music, one thread", 0x702d_5ced_2408_4ea6),
            ("geo", 0xe6e3_0278_3dda_14a6),
            ("music-20 0.05", 0xe2ed_30e5_192e_3907),
        ];
        assert_eq!(found, expected);
    }

    fn sorted_tuples(mut tuples: Vec<MatchTuple>) -> Vec<MatchTuple> {
        tuples.sort();
        tuples
    }
}
