//! Criterion micro-benchmark: HNSW vs brute-force nearest-neighbour search.
//!
//! The brute-force index is the online store's representative index, the
//! graph is what the benchmark's `ann.hnsw.*` rows measure against it, and
//! the exact join (`ann/join`) is every batch merge. The benchmark measures
//! build, per-insert and query cost for both backends at increasing
//! collection sizes, and the join, on the vectors the pipeline really embeds: `music-20` records through the
//! default encoder (dim 384, unit norm, duplicates clustered tightly).
//! `ann/insert` is the kernel row under the benchmark's `ann.hnsw.insert_us`;
//! its `elem/s` is inserts per second, so per-insert time is its inverse.
//! `ann/query_top1` is the online store's look-up: `bruteforce` is the scan
//! with no threshold, and beside it `bruteforce_m035` is the scan within the
//! store's default `m` = 0.35, the call the store makes.
//! `ann/kernel` is `Metric::distance_tile` alone, walked the way the exact
//! join walks it (every group of left rows against one 16-row block of right
//! rows): its `elem/s` is 384-d pairs per second, so ns per pair is its
//! inverse. 1×1 is the pair kernel (`distance_prenormed`), 1×4 the tile of
//! the scan (run in two legs, with the bound between them) and of the HNSW
//! neighbour expansion, 2×2 the tile of the exact join; 4×4 is there to
//! show why it is not used (its accumulators spill: on the x86-64-v3 build
//! it ties 2×2 here and gains nothing on the ledger's batch workloads).
//! Every distance under the benchmark's `ann.mutual.join_s`,
//! `ann.brute.search_us`, `ann.hnsw.search_us` and `ann.hnsw.insert_us` rows
//! is one of these.
//! `ann/join` is the mutual top-1 join (the benchmark's `ann.mutual.join_s`
//! row, and most of `core.merge_s`): `bruteforce/*` is the entry the merger
//! calls for every merge, `mutual_top_k_exact` over borrowed rows with no
//! index built, at the per-side sizes of `batch_many`'s (1,150) and
//! `batch_wide`'s (2,300) largest merges, and `bruteforce/1800x2300`,
//! `batch_wide`'s last merge. Its `elem/s` is rows per second over both
//! sides. Each `bruteforce` row runs at the pipeline's default `m` = 0.35,
//! where the join's bound drops most tiles halfway, and beside it
//! `bruteforce_m_inf` runs the same join at `m = ∞`, where the bound never
//! fires: every pair is scored, as before the join had one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use multiem_ann::{
    mutual_top_k_exact, BruteForceIndex, HnswConfig, HnswIndex, Metric, RowRefs, VectorIndex,
};
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

/// The online store's look-up: the nearest node of a 3,000-node index.
/// `bruteforce` is the scan with no threshold, which the top-k's bound alone
/// prunes; `bruteforce_m035` beside it is the call the store makes, within
/// its default `m` = 0.35.
fn bench_query_top1(c: &mut Criterion) {
    let (vectors, dim) = music_embeddings();
    let (indexed, rest) = vectors.split_at(3_000);
    let queries = &rest[..100];
    let brute =
        BruteForceIndex::from_vectors(dim, Metric::Cosine, indexed.iter().map(|v| v.as_slice()));

    let mut group = c.benchmark_group("ann/query_top1");
    group.throughput(Throughput::Elements(queries.len() as u64));
    for (name, m) in [("bruteforce", f32::INFINITY), ("bruteforce_m035", 0.35)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for q in queries {
                    std::hint::black_box(brute.search_within(q, 1, m));
                }
            })
        });
    }
    group.finish();
}

/// One pass of `R`×`C` tiles over `left` × `right`, summing the distances so
/// nothing is optimized away.
fn tile_pass<const R: usize, const C: usize>(
    left: &[&[f32]],
    right: &[&[f32]],
    left_norms: &[f32],
    right_norms: &[f32],
) -> f32 {
    let mut sum = 0.0;
    for (a, na) in left.chunks_exact(R).zip(left_norms.chunks_exact(R)) {
        for (b, nb) in right.chunks_exact(C).zip(right_norms.chunks_exact(C)) {
            let tile = Metric::Cosine.distance_tile::<R, C>(
                a.try_into().expect("R rows"),
                b.try_into().expect("C rows"),
                na.try_into().expect("R norms"),
                nb.try_into().expect("C norms"),
            );
            sum += tile.iter().flatten().sum::<f32>();
        }
    }
    sum
}

fn bench_kernel(c: &mut Criterion) {
    let (vectors, _) = music_embeddings();
    let left: Vec<&[f32]> = vectors[..256].iter().map(|v| v.as_slice()).collect();
    let right: Vec<&[f32]> = vectors[256..272].iter().map(|v| v.as_slice()).collect();
    let left_norms: Vec<f32> = left.iter().map(|v| Metric::squared_norm(v)).collect();
    let right_norms: Vec<f32> = right.iter().map(|v| Metric::squared_norm(v)).collect();

    let mut group = c.benchmark_group("ann/kernel");
    group.throughput(Throughput::Elements((left.len() * right.len()) as u64));
    group.bench_function("1x1", |b| {
        b.iter(|| tile_pass::<1, 1>(&left, &right, &left_norms, &right_norms))
    });
    group.bench_function("1x4", |b| {
        b.iter(|| tile_pass::<1, 4>(&left, &right, &left_norms, &right_norms))
    });
    group.bench_function("2x2", |b| {
        b.iter(|| tile_pass::<2, 2>(&left, &right, &left_norms, &right_norms))
    });
    group.bench_function("4x4", |b| {
        b.iter(|| tile_pass::<4, 4>(&left, &right, &left_norms, &right_norms))
    });
    group.finish();
}

/// The exact join's threshold: the pipeline's default `m`, and infinity,
/// at which the join's bound never drops a tile.
const JOIN_THRESHOLDS: [(&str, f32); 2] =
    [("bruteforce", 0.35), ("bruteforce_m_inf", f32::INFINITY)];

fn bench_join(c: &mut Criterion) {
    let (vectors, _) = music_embeddings();
    let rows =
        |v: &'static [Vec<f32>]| -> RowRefs<'static> { v.iter().map(Vec::as_slice).collect() };
    let mut group = c.benchmark_group("ann/join");
    for &n in &[1_150usize, 2_300] {
        let (left, rest) = vectors.split_at(n);
        let (left, right) = (rows(left), rows(&rest[..n]));
        group.throughput(Throughput::Elements(2 * n as u64));
        for (name, m) in JOIN_THRESHOLDS {
            group.bench_function(BenchmarkId::new(name, n), |b| {
                b.iter(|| mutual_top_k_exact(Metric::Cosine, &left, &right, 1, m))
            });
        }
    }

    let (left, rest) = vectors.split_at(1_800);
    let (left, right) = (rows(left), rows(&rest[..2_300]));
    group.throughput(Throughput::Elements((left.len() + right.len()) as u64));
    for (name, m) in JOIN_THRESHOLDS {
        group.bench_function(BenchmarkId::new(name, "1800x2300"), |b| {
            b.iter(|| mutual_top_k_exact(Metric::Cosine, &left, &right, 1, m))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_insert, bench_query, bench_query_top1, bench_kernel, bench_join
}
criterion_main!(benches);
