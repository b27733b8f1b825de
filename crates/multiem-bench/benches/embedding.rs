//! Criterion micro-benchmark: encoder throughput.
//!
//! Supports the representation-phase (R) timings of Figure 5: how fast the
//! hashed lexical encoder turns serialized entities into embeddings, as a
//! function of batch size and embedding dimension. `embedding/accumulate_tokens`
//! is the sign kernel alone (66 tokens, a music row's count, into a 384-d
//! accumulator), and
//! `embedding/encode/all_attributes` encodes whole 8-attribute `music-20` rows
//! one at a time on one thread: the text Algorithm 1 embeds once per sampled
//! entity and again once per shuffled attribute. `embedding/encode_variants`
//! is that work for one row: `shared` encodes a `music-20` row and its 8
//! shuffled variants in one `encode_variants` call, `separate` makes the 9
//! `encode` calls it stands for.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use multiem_datagen::benchmark_dataset;
use multiem_embed::hashing::{accumulate_tokens, splitmix64};
use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};
use multiem_table::{
    serialize_record, serialize_record_projected, serialize_record_substituted, AttrId,
    SerializeOptions,
};

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
            let encoder = HashedLexicalEncoder::with_dim(dim);
            b.iter(|| encoder.encode(text));
        });
    }
    group.finish();
}

fn bench_accumulate_tokens(c: &mut Criterion) {
    let mut state = 66u64;
    let tokens: Vec<(u64, f32)> = (0..66).map(|_| (splitmix64(&mut state), 0.05)).collect();
    let mut acc = vec![0.0f32; 384];
    c.bench_function("embedding/accumulate_tokens", |b| {
        b.iter(|| accumulate_tokens(&mut acc, black_box(&tokens)))
    });
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

fn bench_encode_variants(c: &mut Criterion) {
    let data = benchmark_dataset("music-20", 0.02).expect("preset");
    let rows = data.dataset.concat();
    let (row, donor) = (rows[0].1, rows[1].1);
    let opts = SerializeOptions::default();
    let attrs: Vec<AttrId> = (0..data.dataset.schema().len()).collect();
    let base = serialize_record_projected(row, &attrs, &opts);
    // Each attribute in turn takes another row's value, as a shuffle would.
    let variants: Vec<String> = attrs
        .iter()
        .map(|&a| {
            let value = donor.value(a).expect("attr within schema");
            serialize_record_substituted(row, a, value, &attrs, &opts)
        })
        .collect();
    let encoder = HashedLexicalEncoder::default();
    let mut group = c.benchmark_group("embedding/encode_variants");
    group.throughput(Throughput::Elements(1 + variants.len() as u64));
    group.bench_function("shared", |b| {
        b.iter(|| encoder.encode_variants(black_box(&base), black_box(&variants)))
    });
    group.bench_function("separate", |b| {
        b.iter(|| {
            black_box(encoder.encode(black_box(&base)));
            for text in &variants {
                black_box(encoder.encode(black_box(text)));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_encode_batch, bench_dimensions, bench_accumulate_tokens, bench_encode_rows,
        bench_encode_variants
}
criterion_main!(benches);
