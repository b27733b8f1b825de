//! Criterion micro-benchmark: density-based pruning throughput as a function
//! of tuple size, on one thread (`sequential`, inside a one-thread pool) and
//! at the machine's width (`parallel`): the P / P(p) bars of Figure 5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use multiem_core::{prune_merged_table, EmbeddingStore, MergeItem, MergedTable, MultiEmConfig};
use multiem_datagen::{CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator};
use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};
use multiem_table::EntityId;
use rayon::ThreadPool;

fn bench_pruning(c: &mut Criterion) {
    let sources = 8usize;
    let factory = Domain::Product.factory();
    let corruptor = Corruptor::new(CorruptionConfig::heavy());
    let cfg = GeneratorConfig {
        name: "prune-bench".into(),
        num_sources: sources,
        num_tuples: 400,
        num_singletons: 100,
        min_tuple_size: 2,
        max_tuple_size: 6,
        seed: 3,
    };
    let dataset = MultiSourceGenerator::new(cfg).generate(factory.as_ref(), &corruptor);
    let encoder = HashedLexicalEncoder::default();
    let config = MultiEmConfig::default();
    let store = EmbeddingStore::build(&dataset, &encoder, &[0], &config);

    // Build candidate tuples directly from the ground truth (worst case: every
    // tuple needs a pruning pass).
    let items: Vec<MergeItem> = dataset
        .ground_truth()
        .expect("ground truth")
        .tuples()
        .iter()
        .map(|t| MergeItem {
            members: t.members().to_vec(),
            embedding: vec![0.0; encoder.dim()],
        })
        .collect();
    let table = MergedTable { items };
    let singleton_table = MergedTable {
        items: dataset
            .entity_ids()
            .take(400)
            .map(|id: EntityId| MergeItem {
                members: vec![id],
                embedding: vec![0.0; encoder.dim()],
            })
            .collect(),
    };

    let mut group = c.benchmark_group("pruning");
    group.throughput(Throughput::Elements(table.items.len() as u64));
    let prune = || prune_merged_table(&table, &store, &config);
    let one_thread = ThreadPool::new(1);
    group.bench_function(BenchmarkId::new("sequential", table.items.len()), |b| {
        b.iter(|| one_thread.install(prune))
    });
    group.bench_function(BenchmarkId::new("parallel", table.items.len()), |b| {
        b.iter(prune)
    });
    group.bench_function(
        BenchmarkId::new("singletons_noop", singleton_table.items.len()),
        |b| b.iter(|| prune_merged_table(&singleton_table, &store, &config)),
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pruning
}
criterion_main!(benches);
