//! Property-based tests of core invariants.
//!
//! The crates.io `proptest` crate is not available offline, so these
//! properties are exercised with seeded random generation: every case draws
//! many random inputs from a deterministic RNG and asserts the invariant for
//! each. Failures print the offending case so they stay reproducible.

use multiem::ann::{mutual_top_k, BruteForceIndex, Metric, VectorIndex};
use multiem::cluster::UnionFind;
use multiem::embed::{cosine_similarity, EmbeddingModel, HashedLexicalEncoder};
use multiem::eval::Metrics;
use multiem::prelude::*;
use multiem::table::{serialize_record, serialize_record_projected, SerializeOptions};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 64;

fn arb_text(rng: &mut ChaCha8Rng) -> String {
    let words = rng.gen_range(0usize..8);
    (0..words)
        .map(|_| {
            let len = rng.gen_range(1usize..=8);
            (0..len)
                .map(|_| {
                    let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
                    alphabet[rng.gen_range(0..alphabet.len())] as char
                })
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn arb_word(rng: &mut ChaCha8Rng, min_len: usize, max_len: usize) -> String {
    let len = rng.gen_range(min_len..=max_len);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

fn arb_vec(rng: &mut ChaCha8Rng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect()
}

/// The encoder is deterministic and produces unit-norm (or zero) vectors.
#[test]
fn encoder_is_deterministic_and_normalised() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE0C0);
    let enc = HashedLexicalEncoder::with_dim(96);
    for _ in 0..CASES {
        let text = arb_text(&mut rng);
        let a = enc.encode(&text);
        let b = enc.encode(&text);
        assert_eq!(a, b, "non-deterministic encoding for {text:?}");
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(
            norm < 1e-6 || (norm - 1.0).abs() < 1e-3,
            "bad norm {norm} for {text:?}"
        );
    }
}

/// Cosine similarity of any two encodings stays in [-1, 1].
#[test]
fn encoder_similarity_is_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x51B1);
    let enc = HashedLexicalEncoder::with_dim(64);
    for _ in 0..CASES {
        let a = arb_text(&mut rng);
        let b = arb_text(&mut rng);
        let sim = cosine_similarity(&enc.encode(&a), &enc.encode(&b));
        assert!(
            (-1.0..=1.0).contains(&sim),
            "similarity {sim} out of range for {a:?} / {b:?}"
        );
    }
}

/// Entity serialization with a projected attribute list only ever produces
/// tokens that the full serialization also contains.
#[test]
fn projected_serialization_is_a_subset() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E51);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..6);
        let values: Vec<String> = (0..n).map(|_| arb_text(&mut rng)).collect();
        let record = Record::from_texts(values.clone());
        let opts = SerializeOptions {
            max_tokens: None,
            ..SerializeOptions::default()
        };
        let full = serialize_record(&record, &opts);
        let full_tokens: std::collections::HashSet<&str> = full.split_whitespace().collect();
        let attrs: Vec<usize> = (0..values.len()).step_by(2).collect();
        let projected = serialize_record_projected(&record, &attrs, &opts);
        for tok in projected.split_whitespace() {
            assert!(
                full_tokens.contains(tok),
                "token {tok} missing from full serialization"
            );
        }
    }
}

/// Mutual top-K matches are symmetric, within-threshold and unique per
/// (left, right) pair.
#[test]
fn mutual_top_k_respects_threshold_and_mutuality() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x707B);
    for _ in 0..CASES {
        let nl = rng.gen_range(1usize..12);
        let nr = rng.gen_range(1usize..12);
        let left: Vec<Vec<f32>> = (0..nl).map(|_| arb_vec(&mut rng, 4)).collect();
        let right: Vec<Vec<f32>> = (0..nr).map(|_| arb_vec(&mut rng, 4)).collect();
        let k = rng.gen_range(1usize..3);
        let threshold = rng.gen_range(0.1f32..5.0);
        let li =
            BruteForceIndex::from_vectors(4, Metric::Euclidean, left.iter().map(|v| v.as_slice()));
        let ri =
            BruteForceIndex::from_vectors(4, Metric::Euclidean, right.iter().map(|v| v.as_slice()));
        let lrefs: Vec<&[f32]> = left.iter().map(|v| v.as_slice()).collect();
        let rrefs: Vec<&[f32]> = right.iter().map(|v| v.as_slice()).collect();
        let matches = mutual_top_k(&li, &ri, &lrefs, &rrefs, k, threshold);
        let mut seen = std::collections::HashSet::new();
        for m in &matches {
            assert!(m.distance <= threshold + 1e-6);
            assert!(seen.insert((m.left, m.right)), "duplicate pair");
            // Mutuality: each side is within the other's top-k.
            let l_top: Vec<usize> = ri
                .search(lrefs[m.left], k)
                .into_iter()
                .map(|n| n.index)
                .collect();
            let r_top: Vec<usize> = li
                .search(rrefs[m.right], k)
                .into_iter()
                .map(|n| n.index)
                .collect();
            assert!(l_top.contains(&m.right));
            assert!(r_top.contains(&m.left));
        }
    }
}

/// Union-find groups partition the universe and respect the union calls.
#[test]
fn union_find_groups_partition() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0F1D);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..40);
        let num_edges = rng.gen_range(0usize..60);
        let edges: Vec<(usize, usize)> = (0..num_edges)
            .map(|_| (rng.gen_range(0usize..40), rng.gen_range(0usize..40)))
            .collect();
        let mut uf = UnionFind::new(n);
        for (a, b) in edges.iter().filter(|(a, b)| *a < n && *b < n) {
            uf.union(*a, *b);
        }
        let groups = uf.groups();
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
        assert_eq!(groups.len(), uf.num_groups());
        for (a, b) in edges.iter().filter(|(a, b)| *a < n && *b < n) {
            assert!(uf.connected(*a, *b));
        }
    }
}

/// Pruning is Algorithm 4 at `MinPts = 2`: it keeps the core and reachable
/// points of Definitions 3–5 and removes the outliers. The reference below
/// classifies by those definitions, ε-neighbourhoods counting the point
/// itself. Duplicate points and ε set to a pair's distance (and just below
/// it) probe the `≤ ε` boundary; fewer than two points are kept as they are.
#[test]
fn pruning_keeps_the_core_and_reachable_points_at_min_pts_2() {
    use multiem::core::{prune_points, MultiEmConfig};
    let mut rng = ChaCha8Rng::seed_from_u64(0xDB5C);
    let mut split = 0;
    for case in 0..2_000 {
        let n = rng.gen_range(2usize..8);
        let dim = rng.gen_range(1usize..=5);
        let mut points: Vec<Vec<f32>> = Vec::with_capacity(n);
        for _ in 0..n {
            let point = if !points.is_empty() && rng.gen_range(0..5) == 0 {
                points[rng.gen_range(0..points.len())].clone()
            } else {
                (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
            };
            points.push(point);
        }
        let refs: Vec<&[f32]> = points.iter().map(Vec::as_slice).collect();
        let distance = |i: usize, j: usize| Metric::Euclidean.distance(refs[i], refs[j]);
        let epsilon = match case % 4 {
            0 | 1 => rng.gen_range(0.05f32..2.0),
            edge => {
                let i = rng.gen_range(0..n - 1);
                let d = distance(i, rng.gen_range(i + 1..n));
                if edge == 2 {
                    d
                } else {
                    d.next_down()
                }
            }
        };

        let neighbours = |i: usize| (0..n).filter(move |&j| distance(i, j) <= epsilon);
        let core: Vec<bool> = (0..n).map(|i| neighbours(i).count() >= 2).collect();
        let (kept, removed): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| core[i] || neighbours(i).any(|j| core[j]));
        let config = MultiEmConfig {
            epsilon,
            ..MultiEmConfig::default()
        };
        assert_eq!(
            prune_points(&refs, &config),
            (kept.clone(), removed.clone()),
            "case {case}: ε {epsilon} points {points:?}"
        );
        split += usize::from(!kept.is_empty() && !removed.is_empty());
    }
    assert!(split > 200, "vacuous: {split} of 2000 sets split");

    let config = MultiEmConfig::default();
    assert_eq!(prune_points(&[], &config), (vec![], vec![]));
    assert_eq!(prune_points(&[&[0.5, 0.5]], &config), (vec![0], vec![]));
}

/// Metrics stay within [0, 1] and F1 is between min and max of P and R.
#[test]
fn metrics_are_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x3E7C);
    for _ in 0..CASES {
        let tp = rng.gen_range(0usize..50);
        let extra_pred = rng.gen_range(0usize..50);
        let extra_actual = rng.gen_range(0usize..50);
        let m = Metrics::from_counts(tp, tp + extra_pred, tp + extra_actual);
        assert!((0.0..=1.0).contains(&m.precision));
        assert!((0.0..=1.0).contains(&m.recall));
        assert!((0.0..=1.0).contains(&m.f1));
        assert!(m.f1 <= m.precision.max(m.recall) + 1e-9);
        if m.precision > 0.0 && m.recall > 0.0 {
            assert!(m.f1 >= m.precision.min(m.recall) - 1e-9);
        }
    }
}

/// A MatchTuple built from arbitrary ids deduplicates, sorts, and exposes
/// exactly C(n, 2) pairs.
#[test]
fn match_tuple_pair_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7A1E);
    for _ in 0..CASES {
        let count = rng.gen_range(0usize..12);
        let ids: Vec<(u32, u32)> = (0..count)
            .map(|_| (rng.gen_range(0u32..5), rng.gen_range(0u32..50)))
            .collect();
        let tuple = MatchTuple::new(ids.iter().map(|&(s, r)| EntityId::new(s, r)));
        let n = tuple.len();
        assert_eq!(tuple.pairs().len(), n * n.saturating_sub(1) / 2);
        let members = tuple.members();
        for w in members.windows(2) {
            assert!(w[0] < w[1], "members must be strictly increasing");
        }
    }
}

/// Pruning never invents entities: kept ∪ removed == input members, and the
/// surviving tuple is a subset of the candidate.
#[test]
fn pruning_preserves_membership() {
    use multiem::core::{prune_item, EmbeddingStore, MultiEmConfig};
    let mut rng = ChaCha8Rng::seed_from_u64(0x9B0E);
    for _ in 0..12 {
        let n = rng.gen_range(2usize..6);
        let titles: Vec<String> = (0..n)
            .map(|_| {
                let extra = rng.gen_range(0usize..=3);
                let mut words = vec![arb_word(&mut rng, 3, 8)];
                for _ in 0..extra {
                    words.push(arb_word(&mut rng, 3, 8));
                }
                words.join(" ")
            })
            .collect();
        let schema = Schema::new(["title"]).shared();
        let mut ds = Dataset::new("prop-prune", schema.clone());
        for (i, t) in titles.iter().enumerate() {
            let table = Table::with_records(
                format!("s{i}"),
                schema.clone(),
                vec![Record::from_texts([t.clone()])],
            )
            .unwrap();
            ds.add_table(table).unwrap();
        }
        let encoder = HashedLexicalEncoder::with_dim(64);
        let config = MultiEmConfig::default();
        let store = EmbeddingStore::build(&ds, &encoder, &[0], &config);
        let members: Vec<EntityId> = (0..titles.len() as u32)
            .map(|s| EntityId::new(s, 0))
            .collect();
        let outcome = prune_item(&members, &store, &config);
        let mut union: Vec<EntityId> = outcome
            .kept
            .iter()
            .chain(outcome.removed.iter())
            .copied()
            .collect();
        union.sort();
        let mut original = members.clone();
        original.sort();
        assert_eq!(union, original);
        if let Some(t) = outcome.tuple() {
            for id in t.members() {
                assert!(members.contains(id));
            }
        }
    }
}
