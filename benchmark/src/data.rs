//! Seeded inputs: datagen datasets for the batch workloads, and interleaved
//! record streams, held-out queries and per-client operation lists for the
//! serve workloads.
//!
//! Everything here is a pure function of `(workload, seed)`. The programs
//! under test never see the seed — only the records generated from it.

use multiem_datagen::benchmark_specs;
use multiem_table::{Dataset, EntityId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// Share of ground-truth tuples that give up one member as a match query.
const HOLD_OUT_TUPLE_SHARE: f64 = 0.3;

/// Generate a Table III preset at `scale`, re-seeded from the benchmark seed
/// (the preset's own seed is offset, so seed 0 differs from the CI tables).
pub fn generate(preset: &str, scale: f64, seed: u64) -> Dataset {
    let mut spec = benchmark_specs()
        .into_iter()
        .find(|s| s.name == preset)
        .unwrap_or_else(|| panic!("unknown datagen preset `{preset}`"));
    spec.seed = spec.seed.wrapping_mul(1_000_003).wrapping_add(seed);
    spec.generate(scale)
}

/// One operation of a serve client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /match` with `records[i]` (a held-out true duplicate).
    Match(usize),
    /// `POST /records` with the single fresh record `records[i]`.
    Insert(usize),
    /// `DELETE /records/{id}` of this client's `n`-th own insert.
    Delete(usize),
}

/// Traffic mix of a serve workload (shares of ingest and delete; the rest
/// are matches).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub ingest: f64,
    pub delete: f64,
}

/// Everything a serve workload sends, in order.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Record titles, indexed by the ids used everywhere else in the plan.
    pub records: Vec<String>,
    /// Ground-truth tuple of each record (`None` for singletons).
    pub tuple_of: Vec<Option<u32>>,
    /// Records loaded before the measured phase, in load order (sources
    /// interleaved, so duplicates arrive spread out).
    pub preload: Vec<usize>,
    /// Held-out records, each with at least one co-referent in `preload`.
    pub queries: Vec<usize>,
    /// One operation list per client.
    pub ops: Vec<Vec<Op>>,
}

/// Build the plan of a serve workload.
///
/// * `preload` — how many records to load up front (`usize::MAX` = all that
///   are not held out);
/// * `ops_per_client` — length of each client's list (inserts stop early
///   when the fresh records run out and become matches).
pub fn serve_plan(
    dataset: &Dataset,
    seed: u64,
    preload: usize,
    clients: usize,
    ops_per_client: usize,
    mix: Mix,
) -> ServePlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e7e_9a11);

    // Interleave the sources row by row.
    let tables = dataset.tables();
    let longest = tables.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut order: Vec<EntityId> = Vec::with_capacity(dataset.total_entities());
    for row in 0..longest {
        for (source, table) in tables.iter().enumerate() {
            if row < table.len() {
                order.push(EntityId::new(source as u32, row as u32));
            }
        }
    }
    let index_of: HashMap<EntityId, usize> =
        order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let records: Vec<String> = order
        .iter()
        .map(|&id| {
            let record = dataset.record(id).expect("interleaved id exists");
            record.values()[0].render()
        })
        .collect();

    let mut tuple_of: Vec<Option<u32>> = vec![None; order.len()];
    let mut held: HashSet<usize> = HashSet::new();
    let truth = dataset.ground_truth().expect("datagen attaches truth");
    for (t, tuple) in truth.tuples().iter().enumerate() {
        for id in tuple.members() {
            tuple_of[index_of[id]] = Some(t as u32);
        }
        // At most one member per tuple, so its co-referents stay loadable.
        if rng.gen_bool(HOLD_OUT_TUPLE_SHARE) {
            let pick = rng.gen_range(0..tuple.len());
            held.insert(index_of[&tuple.members()[pick]]);
        }
    }

    let preload: Vec<usize> = (0..order.len())
        .filter(|i| !held.contains(i))
        .take(preload)
        .collect();
    let loaded_tuples: HashSet<u32> = preload.iter().filter_map(|&i| tuple_of[i]).collect();
    let is_query = |i: &usize| tuple_of[*i].is_some_and(|t| loaded_tuples.contains(&t));
    let mut queries: Vec<usize> = held.iter().copied().filter(is_query).collect();
    queries.sort_unstable();
    assert!(
        !queries.is_empty(),
        "no held-out query has a loaded co-referent"
    );

    // Fresh records: everything neither loaded nor a query, in stream order,
    // dealt round-robin to the clients.
    let loaded: HashSet<usize> = preload.iter().copied().collect();
    let query_set: HashSet<usize> = queries.iter().copied().collect();
    let fresh: Vec<usize> = (0..order.len())
        .filter(|i| !loaded.contains(i) && !query_set.contains(i))
        .collect();

    let ops = (0..clients)
        .map(|client| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0xc11e_0000 + client as u64));
            let mut fresh = fresh.iter().copied().skip(client).step_by(clients);
            let mut inserted = 0usize;
            // Own inserts not deleted yet, by insert ordinal.
            let mut live: Vec<usize> = Vec::new();
            (0..ops_per_client)
                .map(|_| {
                    let roll: f64 = rng.gen_range(0..1_000_000) as f64 / 1e6;
                    if roll < mix.ingest {
                        if let Some(i) = fresh.next() {
                            live.push(inserted);
                            inserted += 1;
                            return Op::Insert(i);
                        }
                    } else if roll < mix.ingest + mix.delete && !live.is_empty() {
                        let victim = live.swap_remove(rng.gen_range(0..live.len()));
                        return Op::Delete(victim);
                    }
                    Op::Match(queries[rng.gen_range(0..queries.len())])
                })
                .collect()
        })
        .collect();

    ServePlan {
        records,
        tuple_of,
        preload,
        queries,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Mix = Mix {
        ingest: 0.4,
        delete: 0.1,
    };

    fn plan(seed: u64) -> ServePlan {
        let dataset = generate("shopee", 0.02, seed);
        serve_plan(&dataset, seed, 200, 2, 400, MIXED)
    }

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let (a, b, c) = (plan(42), plan(42), plan(7));
        assert_eq!(a.records, b.records);
        assert_eq!(a.preload, b.preload);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.records, c.records);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn every_query_has_a_loaded_co_referent() {
        for seed in [1, 42] {
            let p = plan(seed);
            let loaded: HashSet<u32> = p.preload.iter().filter_map(|&i| p.tuple_of[i]).collect();
            assert!(!p.queries.is_empty());
            for q in &p.queries {
                assert!(!p.preload.contains(q), "a query was also preloaded");
                let tuple = p.tuple_of[*q].expect("queries are tuple members");
                assert!(loaded.contains(&tuple));
            }
        }
    }

    #[test]
    fn clients_never_share_a_fresh_record_and_delete_only_their_own() {
        let p = plan(42);
        let mut seen = HashSet::new();
        for ops in &p.ops {
            let mut inserted = 0usize;
            let mut deleted = HashSet::new();
            for op in ops {
                match *op {
                    Op::Insert(i) => {
                        assert!(seen.insert(i), "record {i} inserted twice");
                        assert!(!p.preload.contains(&i) && !p.queries.contains(&i));
                        inserted += 1;
                    }
                    Op::Delete(n) => {
                        assert!(n < inserted, "delete of a later insert");
                        assert!(deleted.insert(n), "insert {n} deleted twice");
                    }
                    Op::Match(q) => assert!(p.queries.contains(&q)),
                }
            }
            assert!(inserted > 0 && !deleted.is_empty());
        }
    }

    #[test]
    fn read_only_mix_is_all_matches() {
        let dataset = generate("shopee", 0.02, 3);
        let mix = Mix {
            ingest: 0.0,
            delete: 0.0,
        };
        let p = serve_plan(&dataset, 3, usize::MAX, 2, 100, mix);
        assert!(p.ops.iter().flatten().all(|op| matches!(op, Op::Match(_))));
        assert_eq!(p.preload.len() + p.queries.len(), p.records.len());
    }
}
