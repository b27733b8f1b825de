//! Criterion benchmark: the end-to-end MultiEM pipeline on one thread
//! (`sequential`, inside a one-thread pool) and at the machine's width
//! (`parallel`): the MultiEM / MultiEM (parallel) rows of Table V in micro
//! form.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use multiem_core::{MultiEm, MultiEmConfig};
use multiem_datagen::benchmark_dataset;
use multiem_embed::HashedLexicalEncoder;
use rayon::ThreadPool;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/end_to_end");
    group.sample_size(10);
    for (name, scale) in [("geo", 0.05), ("music-20", 0.01), ("shopee", 0.01)] {
        let data = benchmark_dataset(name, scale).expect("preset");
        group.throughput(Throughput::Elements(data.stats.entities as u64));
        let pipeline = MultiEm::new(
            MultiEmConfig {
                m: 0.35,
                ..MultiEmConfig::default()
            },
            HashedLexicalEncoder::default(),
        );
        let run = || pipeline.run(&data.dataset).expect("pipeline runs");
        let one_thread = ThreadPool::new(1);
        group.bench_function(BenchmarkId::new("sequential", name), |b| {
            b.iter(|| one_thread.install(run))
        });
        group.bench_function(BenchmarkId::new("parallel", name), |b| b.iter(run));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
