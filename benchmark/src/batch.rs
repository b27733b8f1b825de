//! The batch workloads: `MultiEm::run` on a fixed set of tables, in process
//! — what a user matching a static dataset waits for (the paper's Tables
//! IV–VI: quality, wall time, memory).

use crate::data;
use crate::layers;
use crate::spans::Spans;
use crate::stats;
use crate::{Contract, Metrics, Outcome};
use multiem_core::{
    hierarchical_merge, prune_merged_table, select_attributes, EmbeddingStore, MergedTable,
    MultiEm, MultiEmConfig,
};
use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};
use multiem_eval::evaluate;
use multiem_table::{Dataset, MatchTuple, Record};
use std::time::Instant;

/// Sizing of one batch workload. Fixed here; nothing reads `MULTIEM_SCALE`.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub preset: &'static str,
    pub scale: f64,
    /// Pipeline runs per measurement, each on its own dataset drawn from the
    /// seed. A count, not a duration: the datasets matched, and with them
    /// `quality`, are then a function of the seed alone.
    pub reps: usize,
    /// Pair-F1 below this is a failed run ("faster by matching worse").
    pub min_f1: f64,
}

/// Dataset generations timed for `setup_s`, at least.
const SETUP_REPS: usize = 5;

fn sorted(mut tuples: Vec<MatchTuple>) -> Vec<MatchTuple> {
    tuples.sort();
    tuples
}

/// The dataset of repetition `rep`: every repetition matches its own
/// dataset drawn from the seed, so one run's median is over several inputs
/// of the same shape and depends less on the luck of a single draw.
fn generate_timed(spec: &BatchSpec, seed: u64, rep: usize) -> (Dataset, f64) {
    let started = Instant::now();
    let dataset = data::generate(
        spec.preset,
        spec.scale,
        seed.wrapping_mul(1_000) + rep as u64,
    );
    (dataset, started.elapsed().as_secs_f64())
}

/// Plain run: end-to-end metrics only.
pub fn run_plain(spec: &BatchSpec, seed: u64) -> Outcome {
    let pipeline = MultiEm::new(MultiEmConfig::default(), HashedLexicalEncoder::default());
    let (mut setups, mut walls, mut rates, mut f1s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut notes = Vec::new();
    let (mut failed, mut records) = (0u64, 0usize);
    for rep in 0..spec.reps {
        let (dataset, setup_s) = generate_timed(spec, seed, rep);
        setups.push(setup_s);
        let started = Instant::now();
        let output = pipeline.run(&dataset);
        let wall = started.elapsed().as_secs_f64();
        walls.push(wall);
        records = dataset.total_entities();
        rates.push(records as f64 / wall);
        match output {
            Ok(output) => {
                let truth = dataset.ground_truth().expect("datagen attaches truth");
                f1s.push(evaluate(&output.tuples, truth).pair.f1);
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("run {rep}: {e}"));
            }
        }
    }
    for rep in spec.reps..SETUP_REPS {
        setups.push(generate_timed(spec, seed, rep).1);
    }
    notes.push(format!(
        "{} runs, each on its own dataset of ~{records} records",
        spec.reps
    ));

    // The floor guards the reported (median) quality: a single draw a few
    // points below it is the data, a median below it is the matcher.
    let f1 = stats::median(&f1s);
    if f1 < spec.min_f1 {
        failed += 1;
        notes.push(format!("pair-F1 {f1:.4} below the floor {}", spec.min_f1));
    }
    let mut m = Metrics::new();
    m.insert("setup_s".into(), stats::median(&setups));
    m.insert("op_p50_ms".into(), stats::median(&walls) * 1e3);
    m.insert("records_per_s".into(), stats::median(&rates));
    m.insert("quality".into(), f1);
    // One workload per process (the suite re-runs itself per workload), so
    // the high-water mark is this run's own.
    m.insert(
        "peak_rss_mb".into(),
        crate::machine::proc_status_kb("self", "VmHWM") / 1024.0,
    );
    Outcome {
        metrics: m,
        attempted: spec.reps as u64 + 1,
        failed,
        notes,
    }
}

/// Traced run: the four phases called directly, the ANN kernels on the
/// largest merge inputs, and the per-record layers.
pub fn run_traced(spec: &BatchSpec, seed: u64, contract: &Contract, spans: &mut Spans) -> Outcome {
    let dataset = generate_timed(spec, seed, 0).0;
    let config = MultiEmConfig::default();
    let encoder = HashedLexicalEncoder::default();
    let mut m = Metrics::new();
    let mut notes = Vec::new();
    let mut failed = 0u64;

    let reference = spans.time("batch.run", |_| {
        MultiEm::new(config.clone(), encoder.clone()).run(&dataset)
    });

    // The same four calls `MultiEm::run` makes, each under its own span.
    let (selection, store, merged, pruned) = spans.time("batch.direct", |spans| {
        let selection = spans.time("core.select", |_| {
            select_attributes(&dataset, &encoder, &config).expect("selection on generated data")
        });
        let store = spans.time("core.represent", |_| {
            EmbeddingStore::build(&dataset, &encoder, &selection.selected, &config)
        });
        let merged = spans.time("core.merge", |_| {
            let tables = source_tables(&dataset, &store);
            hierarchical_merge(tables, &config, encoder.dim())
        });
        let pruned = spans.time("core.prune", |_| {
            prune_merged_table(&merged.integrated, &store, &config)
        });
        (selection, store, merged, pruned)
    });

    let wall = spans.total_s("batch.direct");
    for (metric, span) in [
        ("core.select_s", "core.select"),
        ("core.represent_s", "core.represent"),
        ("core.merge_s", "core.merge"),
        ("core.prune_s", "core.prune"),
    ] {
        m.insert(metric.into(), spans.total_s(span));
    }
    m.insert(
        "core.merge_share".into(),
        spans.total_s("core.merge") / wall,
    );
    let closure = spans.closure("batch.direct");
    m.insert("core.closure".into(), closure);
    m.insert("core.merge_levels".into(), merged.levels as f64);
    m.insert(
        "core.matched_pairs".into(),
        merged.total_matched_pairs as f64,
    );
    m.insert(
        "core.outliers_removed".into(),
        pruned.outliers_removed as f64,
    );
    m.insert("core.tuples_dropped".into(), pruned.tuples_dropped as f64);
    m.insert("core.attrs_kept".into(), selection.selected.len() as f64);
    m.insert(
        "core.index_peak_mb".into(),
        merged.peak_index_bytes as f64 / 1e6,
    );

    // Correctness: directly-called phases ≡ `MultiEm::run`, quality holds,
    // and the phase spans account for the wall time.
    let mut check = |ok: bool, what: String| {
        if !ok {
            failed += 1;
            notes.push(what);
        }
    };
    match reference {
        Ok(reference) => {
            let f1 = evaluate(&reference.tuples, dataset.ground_truth().expect("truth"))
                .pair
                .f1;
            m.insert("core.pair_f1".into(), f1);
            m.insert(
                "core.mem_mb".into(),
                reference.total_memory_bytes() as f64 / 1e6,
            );
            check(
                f1 >= spec.min_f1,
                format!("pair-F1 {f1:.4} below the floor {}", spec.min_f1),
            );
            check(
                sorted(reference.tuples) == sorted(pruned.tuples),
                "tuples of the directly-called phases differ from MultiEm::run's".into(),
            );
        }
        Err(e) => check(false, format!("MultiEm::run failed: {e}")),
    }
    check(
        closure >= 0.95,
        format!("core.closure {closure:.3}: the phase spans miss >5% of the wall time"),
    );

    // ANN kernels on the two halves of the hierarchy — the size of the final
    // (largest) merge's inputs.
    let mut tables = source_tables(&dataset, &store);
    let right = tables.split_off(tables.len().div_ceil(2));
    let left = hierarchical_merge(tables, &config, encoder.dim()).integrated;
    let right = hierarchical_merge(right, &config, encoder.dim()).integrated;
    let vectors = |t: &MergedTable| -> Vec<Vec<f32>> {
        t.items.iter().map(|i| i.embedding.clone()).collect()
    };
    let (left, right) = (vectors(&left), vectors(&right));
    let left: Vec<&[f32]> = left.iter().map(Vec::as_slice).collect();
    let right: Vec<&[f32]> = right.iter().map(Vec::as_slice).collect();
    let (indexed, queries) = layers::larger_first(&left, &right);
    let matches = layers::ann_layer(indexed, queries, &config, spans, &mut m);
    let records: Vec<Record> = dataset
        .tables()
        .iter()
        .flat_map(|t| t.records().iter().cloned())
        .collect();
    layers::record_layers(
        &records,
        &selection.selected,
        &encoder,
        indexed,
        queries,
        &matches,
        &config,
        spans,
        &mut m,
    );
    contract.zero_fill(&mut m, &["serve.", "online."]);

    Outcome {
        metrics: m,
        attempted: 4,
        failed,
        notes,
    }
}

fn source_tables(dataset: &Dataset, store: &EmbeddingStore) -> Vec<MergedTable> {
    (0..dataset.num_sources() as u32)
        .map(|s| MergedTable::from_source(dataset, s, store))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_is_a_function_of_the_seed_alone() {
        let spec = BatchSpec {
            preset: "shopee",
            scale: 0.02,
            reps: 2,
            min_f1: 0.0,
        };
        let quality = |seed| run_plain(&spec, seed).metrics["quality"];
        assert_eq!(quality(42), quality(42));
        assert_ne!(quality(42), quality(7));
    }
}
