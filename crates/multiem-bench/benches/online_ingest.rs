//! Criterion micro-benchmark: online ingest throughput (records/sec) of the
//! streaming [`EntityStore`] as a function of the number of records already
//! in the store.
//!
//! This is the hot path of the online subsystem: each insert encodes one
//! record, queries the representative index for mutual top-K candidates and
//! maintains the cluster partition. The index is exact, so an insert scans
//! every live representative and its cost grows linearly with the number
//! of clusters in the store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use multiem_core::MultiEmConfig;
use multiem_datagen::{CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator};
use multiem_embed::HashedLexicalEncoder;
use multiem_online::{EntityStore, OnlineConfig};
use multiem_table::{Dataset, Table};

fn generate(num_tuples: usize, seed: u64) -> Dataset {
    let factory = Domain::Music.factory();
    let corruptor = Corruptor::new(CorruptionConfig::light());
    let cfg = GeneratorConfig {
        name: format!("online-bench-{num_tuples}"),
        num_sources: 4,
        num_tuples,
        num_singletons: num_tuples / 2,
        min_tuple_size: 2,
        max_tuple_size: 4,
        seed,
    };
    MultiSourceGenerator::new(cfg).generate(factory.as_ref(), &corruptor)
}

fn prefilled_store(ds: &Dataset) -> EntityStore<HashedLexicalEncoder> {
    let base = MultiEmConfig {
        m: 0.35,
        attribute_selection: false,
        ..MultiEmConfig::default()
    };
    let config = OnlineConfig::new(base).with_all_attributes();
    let mut store = EntityStore::new(config, HashedLexicalEncoder::default());
    for table in ds.tables() {
        store.ingest_batch(table).expect("ingest");
    }
    store
}

/// Single-record insert cost at increasing store sizes.
fn bench_insert_vs_store_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("online/insert");
    group.sample_size(20);
    for &num_tuples in &[50usize, 200, 800] {
        let ds = generate(num_tuples, 7);
        let store = prefilled_store(&ds);
        // Fresh records the store has not seen: another generator seed.
        let extra = generate(50, 99);
        let fresh: Vec<_> = extra.tables()[0].records().to_vec();
        group.throughput(Throughput::Elements(fresh.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("records", store.num_records()),
            &fresh,
            |b, fresh| {
                b.iter(|| {
                    let mut s = store.clone();
                    for r in fresh {
                        s.insert(r.clone()).expect("insert");
                    }
                    s.num_records()
                })
            },
        );
    }
    group.finish();
}

/// Whole-batch ingestion throughput.
fn bench_batch_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("online/ingest_batch");
    group.sample_size(10);
    for &num_tuples in &[100usize, 400] {
        let ds = generate(num_tuples, 3);
        let (head, tail): (&[Table], &[Table]) = ds.tables().split_at(ds.tables().len() - 1);
        let base = MultiEmConfig {
            m: 0.35,
            attribute_selection: false,
            ..MultiEmConfig::default()
        };
        let config = OnlineConfig::new(base).with_all_attributes();
        let mut warm = EntityStore::new(config, HashedLexicalEncoder::default());
        for table in head {
            warm.ingest_batch(table).expect("ingest");
        }
        let last = &tail[0];
        group.throughput(Throughput::Elements(last.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("into_records", warm.num_records()),
            last,
            |b, table| {
                b.iter(|| {
                    let mut s = warm.clone();
                    s.ingest_batch(table).expect("ingest")
                })
            },
        );
    }
    group.finish();
}

/// Read-only matching throughput against a populated store.
fn bench_match_record(c: &mut Criterion) {
    let ds = generate(400, 5);
    let store = prefilled_store(&ds);
    let probes: Vec<_> = ds.tables()[0].records().iter().take(100).cloned().collect();
    let mut group = c.benchmark_group("online/match_record");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function(BenchmarkId::from_parameter(store.num_records()), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes {
                hits += store.match_record(p).len();
            }
            hits
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_insert_vs_store_size,
    bench_batch_ingest,
    bench_match_record
);
criterion_main!(benches);
