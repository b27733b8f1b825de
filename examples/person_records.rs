//! Person-record linkage at a larger scale.
//!
//! The Person benchmark of the paper is administrative data (given name,
//! surname, suburb, postcode) spread over five sources. This example runs the
//! pipeline once on a scaled-down analogue and reports the per-phase running
//! times (the data behind Figure 5). The one-thread and full-width rows of
//! Table V come from the `exhibits` binary of `multiem-bench`.
//!
//! ```bash
//! cargo run --release --example person_records
//! ```

use multiem::prelude::*;
use std::time::Duration;

fn fmt(d: Duration) -> String {
    multiem::eval::format_duration(d)
}

fn main() {
    // Scale 0.002 of the 500k-tuple Person benchmark ≈ 1 000 tuples ≈ 10 000 records.
    let data = multiem::datagen::benchmark_dataset("person", 0.002).expect("known preset");
    let dataset = &data.dataset;
    println!(
        "person dataset: {} sources, {} records, {} true clusters",
        dataset.num_sources(),
        dataset.total_entities(),
        dataset.ground_truth().map(|g| g.len()).unwrap_or(0)
    );

    let config = MultiEmConfig {
        m: 0.2,
        sample_ratio: 0.05,
        ..MultiEmConfig::default()
    };
    let pipeline = MultiEm::new(config, HashedLexicalEncoder::default());
    let output = pipeline.run(dataset).expect("pipeline runs");
    let report = evaluate(
        &output.tuples,
        dataset.ground_truth().expect("ground truth"),
    );
    let (_, _, f1) = report.tuple.as_percentages();
    let (_, _, pf1) = report.pair.as_percentages();

    println!("\n== MultiEM ==");
    println!("total time: {}", fmt(output.total_time));
    for (phase, d) in output.phases.as_pairs() {
        println!("  phase {phase}: {}", fmt(d));
    }
    println!(
        "memory (accounted): {}",
        multiem::eval::format_bytes(output.total_memory_bytes())
    );
    println!(
        "tuples predicted: {}   F1 {f1:.1}   pair-F1 {pf1:.1}",
        output.tuples.len()
    );
}
