//! Criterion micro-benchmark: HNSW vs brute-force nearest-neighbour search.
//!
//! Supports the merging-phase analysis: the ANN index is what keeps each
//! two-table merge sub-quadratic. The benchmark measures build, per-insert
//! and query cost for both backends at increasing collection sizes, on the
//! vectors the pipeline really indexes: `music-20` records through the
//! default encoder (dim 384, unit norm, duplicates clustered tightly).
//! `ann/insert` is the kernel row under the benchmark's `ann.hnsw.insert_us`;
//! its `elem/s` is inserts per second, so per-insert time is its inverse.
//! `ann/query_top1` is the online store's look-up past tombstones, filtered
//! search beside the over-fetch it replaced.
//! `ann/join` is the brute-force mutual top-1 join at the per-side sizes of
//! the benchmark's `batch_many` (1,150) and `batch_wide` (2,300) merges; its
//! `elem/s` is queries per second over both directions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use multiem_ann::{mutual_top_k, BruteForceIndex, HnswConfig, HnswIndex, Metric, VectorIndex};
use multiem_core::{AttributeSelection, EmbeddingStore, MergedTable, MultiEmConfig};
use multiem_datagen::benchmark_specs;
use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};
use std::sync::OnceLock;

/// Record embeddings of the `music-20` preset at half scale (~9.5k records),
/// source table after source table, with the encoder's dimensionality.
/// Generated once for all groups.
fn music_embeddings() -> (&'static [Vec<f32>], usize) {
    static EMBEDDINGS: OnceLock<(Vec<Vec<f32>>, usize)> = OnceLock::new();
    let (vectors, dim) = EMBEDDINGS.get_or_init(|| {
        let dataset = benchmark_specs()
            .into_iter()
            .find(|s| s.name == "music-20")
            .expect("music-20 is a Table III preset")
            .generate(0.5);
        let encoder = HashedLexicalEncoder::default();
        let selection = AttributeSelection::all_attributes(&dataset);
        let store = EmbeddingStore::build(
            &dataset,
            &encoder,
            &selection.selected,
            &MultiEmConfig::default(),
        );
        let vectors = (0..dataset.num_sources() as u32)
            .flat_map(|s| MergedTable::from_source(&dataset, s, &store).items)
            .map(|item| item.embedding)
            .collect();
        (vectors, encoder.dim())
    });
    (vectors, *dim)
}

fn hnsw(dim: usize, vectors: &[Vec<f32>]) -> HnswIndex {
    HnswIndex::build(
        dim,
        Metric::Cosine,
        HnswConfig::default(),
        vectors.iter().map(|v| v.as_slice()),
    )
}

fn bench_build(c: &mut Criterion) {
    let (vectors, dim) = music_embeddings();
    let mut group = c.benchmark_group("ann/build");
    for &n in &[500usize, 2_000] {
        let vectors = &vectors[..n];
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("hnsw", n), vectors, |b, v| {
            b.iter(|| hnsw(dim, v))
        });
        group.bench_with_input(BenchmarkId::new("bruteforce", n), vectors, |b, v| {
            b.iter(|| {
                BruteForceIndex::from_vectors(dim, Metric::Cosine, v.iter().map(|x| x.as_slice()))
            })
        });
    }
    group.finish();
}

/// Cost of one `HnswIndex::add` into an index that already holds `n`
/// vectors. Each iteration clones the built index and inserts `n / 10` further
/// vectors, so the index stays within 10% of `n` and the clone is under 1% of
/// the iteration.
fn bench_insert(c: &mut Criterion) {
    let (vectors, dim) = music_embeddings();
    let mut group = c.benchmark_group("ann/insert");
    for &n in &[500usize, 2_000, 8_000] {
        let (indexed, rest) = vectors.split_at(n);
        let batch = &rest[..n / 10];
        let base = hnsw(dim, indexed);
        group.throughput(Throughput::Elements(batch.len() as u64));
        group.bench_with_input(BenchmarkId::new("hnsw", n), batch, |b, batch| {
            b.iter(|| {
                let mut index = base.clone();
                for v in batch {
                    index.add(v);
                }
                index
            })
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let (vectors, dim) = music_embeddings();
    let (indexed, rest) = vectors.split_at(5_000);
    let queries = &rest[..100];
    let hnsw = hnsw(dim, indexed);
    let brute =
        BruteForceIndex::from_vectors(dim, Metric::Cosine, indexed.iter().map(|v| v.as_slice()));

    let mut group = c.benchmark_group("ann/query_top10");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("hnsw", |b| {
        b.iter(|| {
            for q in queries {
                std::hint::black_box(hnsw.search(q, 10));
            }
        })
    });
    group.bench_function("bruteforce", |b| {
        b.iter(|| {
            for q in queries {
                std::hint::black_box(brute.search(q, 10));
            }
        })
    });
    group.finish();
}

/// The online store's look-up: the nearest *live* node of an index in which
/// 0%, 25% and 50% of the nodes are tombstones. `<backend>_dead<share>` is
/// the filtered search the store runs; `..._overfetch` beside it is what it
/// ran before — fetch `k` plus the tombstone count unfiltered, drop the dead,
/// cut to `k` — kept here for the ratio.
fn bench_query_dead(c: &mut Criterion) {
    let (vectors, dim) = music_embeddings();
    let (indexed, rest) = vectors.split_at(3_000);
    let queries = &rest[..100];
    let hnsw = hnsw(dim, indexed);
    let brute =
        BruteForceIndex::from_vectors(dim, Metric::Cosine, indexed.iter().map(|v| v.as_slice()));
    let backends: [(&str, &dyn VectorIndex); 2] = [("bruteforce", &brute), ("hnsw", &hnsw)];

    let mut group = c.benchmark_group("ann/query_top1");
    group.throughput(Throughput::Elements(queries.len() as u64));
    for share in [0usize, 25, 50] {
        // A multiplicative hash spreads the tombstones over the clusters.
        let dead: Vec<bool> = (0..indexed.len())
            .map(|i| i.wrapping_mul(2_654_435_761) % 100 < share)
            .collect();
        let stale = dead.iter().filter(|&&d| d).count();
        let live = |node: usize| !dead[node];
        for (name, index) in backends {
            group.bench_function(format!("{name}_dead{share}"), |b| {
                b.iter(|| {
                    for q in queries {
                        std::hint::black_box(index.search_batch_filtered(&[q], 1, &live));
                    }
                })
            });
            group.bench_function(format!("{name}_dead{share}_overfetch"), |b| {
                b.iter(|| {
                    for q in queries {
                        let nearest = index
                            .search(q, 1 + stale)
                            .into_iter()
                            .find(|hit| live(hit.index));
                        std::hint::black_box(nearest);
                    }
                })
            });
        }
    }
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let (vectors, dim) = music_embeddings();
    let mut group = c.benchmark_group("ann/join");
    for &n in &[1_150usize, 2_300] {
        let (left, rest) = vectors.split_at(n);
        let left: Vec<&[f32]> = left.iter().map(|v| v.as_slice()).collect();
        let right: Vec<&[f32]> = rest[..n].iter().map(|v| v.as_slice()).collect();
        let left_index = BruteForceIndex::from_vectors(dim, Metric::Cosine, left.iter().copied());
        let right_index = BruteForceIndex::from_vectors(dim, Metric::Cosine, right.iter().copied());
        group.throughput(Throughput::Elements(2 * n as u64));
        group.bench_function(BenchmarkId::new("bruteforce", n), |b| {
            b.iter(|| mutual_top_k(&left_index, &right_index, &left, &right, 1, 0.35))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_insert, bench_query, bench_query_dead, bench_join
}
criterion_main!(benches);
