//! Streaming deduplication with the incremental [`EntityStore`].
//!
//! Simulates a production feed: an initial corpus is bootstrapped with the
//! batch pipeline, further source tables stream in one at a time, and single
//! records are matched / inserted interactively. Finally the online result is
//! scored against the same ground truth as a full batch run, to show the two
//! paths agree.
//!
//! ```bash
//! cargo run --release --example streaming_dedup
//! ```

use multiem::eval::evaluate;
use multiem::online::{EntityStore, OnlineConfig};
use multiem::prelude::*;

fn main() {
    // A 5-source music catalogue with ground truth (an analogue of the
    // paper's Music-20 benchmark).
    let data = multiem::datagen::benchmark_dataset("music-20", 0.03).expect("known preset");
    let dataset = &data.dataset;
    let tables = dataset.tables();
    println!(
        "dataset `{}`: {} sources, {} entities",
        dataset.name(),
        dataset.num_sources(),
        dataset.total_entities()
    );

    // The store reuses the batch hyper-parameters; attribute selection is
    // off here so every attribute is embedded and the demo is self-contained
    // (with it on, the store would run Algorithm 1 over the bootstrap corpus
    // instead).
    let base = MultiEmConfig {
        m: 0.35,
        attribute_selection: false,
        ..MultiEmConfig::default()
    };
    let config = OnlineConfig::new(base.clone());
    let mut store = EntityStore::new(config, HashedLexicalEncoder::default());

    // 1. Bootstrap from the first three sources using the batch pipeline.
    let mut bootstrap = Dataset::new("bootstrap", dataset.schema().clone());
    for table in &tables[..3] {
        bootstrap.add_table(table.clone()).expect("same schema");
    }
    let report = store.bootstrap(&bootstrap).expect("bootstrap runs");
    println!(
        "bootstrap: {} records, {} already matched into tuples",
        report.records, report.merged
    );

    // 2. Stream the remaining sources in as batches.
    for table in &tables[3..] {
        let report = store.ingest_batch(table).expect("ingest runs");
        println!(
            "ingested `{}`: {} records ({} merged, {} new singletons)",
            table.name(),
            report.records,
            report.merged,
            report.singletons
        );
    }

    // 3. Interactive use: match a record without inserting it...
    let probe = dataset
        .record(EntityId::new(0, 0))
        .expect("record exists")
        .clone();
    let hits = store.match_record(&probe);
    println!(
        "match_record on a known record returns {} hit(s)",
        hits.len()
    );
    if let Some((id, dist)) = hits.first() {
        println!("  closest entity: {id} at merge distance {dist:.3}");
    }

    // ... then actually insert one.
    let id = store.insert(probe).expect("insert runs");
    let members = store.cluster_members(id).expect("cluster exists");
    println!(
        "inserted as {id}; its cluster now has {} members",
        members.len()
    );

    // 4. Final pruning pass + scoreboard vs. the batch pipeline.
    store.refresh();
    let stats = store.stats();
    println!(
        "store: {} records, {} clusters ({} tuples), index {} nodes, {} pruned outliers",
        stats.records, stats.clusters, stats.tuples, stats.index_nodes, stats.pruned_outliers
    );

    let truth = dataset
        .ground_truth()
        .expect("generated dataset has ground truth");
    let online_report = evaluate(&store.tuples(), truth);
    let batch_output = MultiEm::new(base, HashedLexicalEncoder::default())
        .run(dataset)
        .expect("batch pipeline runs");
    let batch_report = evaluate(&batch_output.tuples, truth);
    println!(
        "pair-F1: online {:.4} vs batch {:.4} (Δ {:+.4})",
        online_report.pair.f1,
        batch_report.pair.f1,
        online_report.pair.f1 - batch_report.pair.f1
    );

    // 5. Persistence: snapshot the store and restore it.
    let snapshot = store.snapshot_bytes().expect("snapshot serializes");
    let restored = EntityStore::restore_bytes(&snapshot, HashedLexicalEncoder::default())
        .expect("snapshot restores");
    println!(
        "snapshot: {} bytes, restored store has {} clusters",
        snapshot.len(),
        restored.stats().clusters
    );
}
