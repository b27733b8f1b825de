//! Layer measurements shared by every workload: the ANN kernels under the
//! merge and match paths, and the small per-record layers (serialize,
//! encode, union-find, DBSCAN pruning).
//!
//! Each function times calls into a crate's public API from here, records
//! them as spans, and publishes medians under the crate's layer name.

use crate::spans::Spans;
use crate::Metrics;
use multiem_ann::{
    merge_ranked, mutual_top_k, BruteForceIndex, HnswIndex, MutualMatch, VectorIndex,
};
use multiem_cluster::UnionFind;
use multiem_core::{prune_points, MultiEmConfig};
use multiem_embed::EmbeddingModel;
use multiem_table::{serialize_record_projected, AttrId, Record};
use std::hint::black_box;

/// Queries timed per index (the indexed side is never sampled).
const MAX_QUERIES: usize = 512;
/// Records timed through serialize + encode.
const MAX_RECORDS: usize = 2_000;

/// Order a pair of vector sets as `(indexed, queries)`: the larger side is
/// indexed, the smaller side queries it.
pub fn larger_first<'a, 'v>(
    a: &'a [&'v [f32]],
    b: &'a [&'v [f32]],
) -> (&'a [&'v [f32]], &'a [&'v [f32]]) {
    if a.len() >= b.len() {
        (a, b)
    } else {
        (b, a)
    }
}

/// `multiem-ann` on one pair of vector sets. Returns the mutual matches of
/// the pair (`left` indexes `indexed`, `right` indexes `queries`) for the
/// cluster-layer measurements.
pub fn ann_layer(
    indexed: &[&[f32]],
    queries: &[&[f32]],
    config: &MultiEmConfig,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Vec<MutualMatch> {
    let dim = indexed.first().map_or(0, |v| v.len());
    let metric = config.merge_metric;
    m.insert("ann.indexed_n".into(), indexed.len() as f64);
    m.insert("ann.query_n".into(), queries.len() as f64);
    let sample = &queries[..queries.len().min(MAX_QUERIES)];

    let brute = spans.time("ann.brute.build", |_| {
        BruteForceIndex::from_vectors(dim, metric, indexed.iter().copied())
    });
    let exact: Vec<Option<usize>> = sample
        .iter()
        .map(|q| {
            spans
                .time("ann.brute.search", |_| black_box(brute.search(q, config.k)))
                .first()
                .map(|n| n.index)
        })
        .collect();
    m.insert(
        "ann.brute.build_ms".into(),
        spans.median_us("ann.brute.build") / 1e3,
    );
    m.insert(
        "ann.brute.search_us".into(),
        spans.median_us("ann.brute.search"),
    );
    // One multiply-add per dimension per stored vector: computed, not measured.
    m.insert(
        "ann.brute.mflop_computed".into(),
        2.0 * dim as f64 * indexed.len() as f64 / 1e6,
    );

    let hnsw = spans.time("ann.hnsw.build", |spans| {
        let mut index = HnswIndex::new(dim, metric, config.hnsw.clone());
        for v in indexed {
            spans.time("ann.hnsw.insert", |_| index.add(v));
        }
        index
    });
    let mut agree = 0usize;
    for (q, exact) in sample.iter().zip(&exact) {
        let found = spans.time("ann.hnsw.search", |_| black_box(hnsw.search(q, config.k)));
        agree += usize::from(found.first().map(|n| n.index) == *exact);
    }
    m.insert("ann.hnsw.build_s".into(), spans.total_s("ann.hnsw.build"));
    m.insert(
        "ann.hnsw.insert_us".into(),
        spans.median_us("ann.hnsw.insert"),
    );
    m.insert(
        "ann.hnsw.search_us".into(),
        spans.median_us("ann.hnsw.search"),
    );
    m.insert(
        "ann.hnsw.recall_at_1".into(),
        agree as f64 / sample.len().max(1) as f64,
    );

    // The join as the merge phase runs it: exact on both sides here, so the
    // ratio is a property of the data and repeats exactly.
    let other = BruteForceIndex::from_vectors(dim, metric, queries.iter().copied());
    let matches = spans.time("ann.mutual.join", |_| {
        mutual_top_k(&brute, &other, indexed, queries, config.k, config.m)
    });
    m.insert("ann.mutual.join_s".into(), spans.total_s("ann.mutual.join"));
    m.insert(
        "ann.mutual.match_ratio".into(),
        matches.len() as f64 / queries.len().max(1) as f64,
    );

    // Fan-in of two per-shard candidate lists into one top-k.
    let lists: Vec<Vec<(usize, f32)>> = (0..2)
        .map(|shard| {
            matches
                .iter()
                .skip(shard)
                .step_by(2)
                .take(config.k.max(1))
                .map(|mm| (mm.left, mm.distance))
                .collect()
        })
        .collect();
    for _ in 0..1_000 {
        spans.time("ann.merge_ranked", |_| {
            black_box(merge_ranked(&lists, config.k))
        });
    }
    m.insert(
        "ann.merge_ranked_us".into(),
        spans.median_us("ann.merge_ranked"),
    );
    matches
}

/// `multiem-table`, `multiem-embed` and `multiem-cluster`: the fixed
/// per-record costs, and the transitivity + pruning work on `matches`
/// (pairs of `indexed` / `queries` vectors as returned by [`ann_layer`]).
#[allow(clippy::too_many_arguments)]
pub fn record_layers<E: EmbeddingModel>(
    records: &[Record],
    attrs: &[AttrId],
    encoder: &E,
    indexed: &[&[f32]],
    queries: &[&[f32]],
    matches: &[MutualMatch],
    config: &MultiEmConfig,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    for record in records.iter().take(MAX_RECORDS) {
        let text = spans.time("table.serialize", |_| {
            serialize_record_projected(record, attrs, &config.serialize)
        });
        spans.time("embed.encode", |_| black_box(encoder.encode(&text)));
    }
    m.insert(
        "table.serialize_us".into(),
        spans.median_us("table.serialize"),
    );
    m.insert("embed.encode_us".into(), spans.median_us("embed.encode"));

    let mut uf = UnionFind::new(indexed.len() + queries.len());
    spans.time("cluster.unionfind", |_| {
        for mm in matches {
            uf.union(mm.left, indexed.len() + mm.right);
        }
    });
    m.insert(
        "cluster.unionfind.union_ns".into(),
        spans.total_s("cluster.unionfind") * 1e9 / matches.len().max(1) as f64,
    );
    for group in uf.groups_min_size(2) {
        let points: Vec<&[f32]> = group
            .iter()
            .map(|&i| {
                if i < indexed.len() {
                    indexed[i]
                } else {
                    queries[i - indexed.len()]
                }
            })
            .collect();
        spans.time("cluster.dbscan.prune", |_| {
            black_box(prune_points(&points, config))
        });
    }
    m.insert(
        "cluster.dbscan.prune_us".into(),
        spans.median_us("cluster.dbscan.prune"),
    );
}
