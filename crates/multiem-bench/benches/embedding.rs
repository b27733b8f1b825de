//! Criterion micro-benchmark: encoder throughput.
//!
//! Supports the representation-phase (R) timings of Figure 5: how fast the
//! hashed lexical encoder turns serialized entities into embeddings, as a
//! function of batch size and embedding dimension. `embedding/accumulate_token`
//! is the sign kernel alone (one token into a 384-d accumulator), and
//! `embedding/encode/all_attributes` encodes whole 8-attribute `music-20` rows
//! one at a time on one thread: the text Algorithm 1 embeds once per sampled
//! entity and again once per shuffled attribute.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use multiem_datagen::benchmark_dataset;
use multiem_embed::hashing::{accumulate_token, fnv1a64};
use multiem_embed::{EmbeddingModel, EncoderConfig, HashedLexicalEncoder};
use multiem_table::{serialize_record, SerializeOptions};

/// Serialized `music-20` rows, every attribute, as the pipeline serializes
/// them.
fn music_texts() -> Vec<String> {
    let data = benchmark_dataset("music-20", 0.02).expect("preset");
    let opts = SerializeOptions::default();
    data.dataset
        .concat()
        .iter()
        .map(|(_, r)| serialize_record(r, &opts))
        .collect()
}

fn bench_encode_batch(c: &mut Criterion) {
    let texts = music_texts();

    let mut group = c.benchmark_group("embedding/encode_batch");
    for &batch in &[64usize, 256, 1024] {
        let slice: Vec<String> = texts.iter().take(batch).cloned().collect();
        group.throughput(Throughput::Elements(slice.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &slice, |b, slice| {
            let encoder = HashedLexicalEncoder::default();
            b.iter(|| encoder.encode_batch(slice));
        });
    }
    group.finish();
}

fn bench_dimensions(c: &mut Criterion) {
    let text = "apple iphone 8 plus 5.5 64gb 4g unlocked sim free silver";
    let mut group = c.benchmark_group("embedding/dimension");
    for &dim in &[96usize, 384, 768] {
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
            let encoder = HashedLexicalEncoder::new(EncoderConfig {
                dim,
                ..EncoderConfig::default()
            });
            b.iter(|| encoder.encode(text));
        });
    }
    group.finish();
}

fn bench_accumulate_token(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding/accumulate_token");
    let dim = 384usize;
    group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
        let mut acc = vec![0.0f32; dim];
        let hash = fnv1a64(b"iphone");
        b.iter(|| accumulate_token(&mut acc, black_box(hash), 0.05));
    });
    group.finish();
}

fn bench_encode_rows(c: &mut Criterion) {
    let texts: Vec<String> = music_texts().into_iter().take(256).collect();
    let encoder = HashedLexicalEncoder::default();
    let mut group = c.benchmark_group("embedding/encode");
    group.throughput(Throughput::Elements(texts.len() as u64));
    group.bench_function("all_attributes", |b| {
        b.iter(|| {
            for text in &texts {
                black_box(encoder.encode(text));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_encode_batch, bench_dimensions, bench_accumulate_token, bench_encode_rows
}
criterion_main!(benches);
