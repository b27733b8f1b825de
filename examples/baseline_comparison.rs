//! Compare MultiEM against the paper's baselines on one small dataset.
//!
//! A miniature version of Table IV: every method runs on the same generated
//! Geo analogue and is scored with tuple-F1 and pair-F1. Supervised baselines
//! receive the 5 % labelled sample described in Section IV-A.
//!
//! ```bash
//! cargo run --release --example baseline_comparison
//! ```

use multiem::baselines::{
    AlmserGb, AutoFjMatcher, ChainExtension, MatchContext, MscdAp, MscdHac, MultiTableMatcher,
    PairwiseExtension, SupervisedMatcher,
};
use multiem::eval::{sample_labeled_pairs, SamplingConfig};
use multiem::prelude::*;
use std::time::Instant;

fn main() {
    let data = multiem::datagen::benchmark_dataset("geo", 0.15).expect("known preset");
    let dataset = &data.dataset;
    let gt = dataset.ground_truth().expect("generated ground truth");
    println!(
        "geo dataset: {} sources, {} entities, {} true tuples\n",
        dataset.num_sources(),
        dataset.total_entities(),
        gt.len()
    );

    let encoder = HashedLexicalEncoder::default();
    // 5 % labelled pairs for the supervised methods (Ditto / PromptEM / ALMSER).
    let labeled = sample_labeled_pairs(dataset, &SamplingConfig::default());
    let ctx = MatchContext::build(dataset, &encoder, labeled);

    println!(
        "{:<22} {:>7} {:>7} {:>9} {:>10}",
        "method", "F1", "pair-F1", "tuples", "time"
    );

    // Baselines.
    let mut supervised_pw = SupervisedMatcher::ditto_like();
    supervised_pw.train(&ctx);
    let mut supervised_c = SupervisedMatcher::ditto_like();
    supervised_c.train(&ctx);
    let methods: Vec<Box<dyn MultiTableMatcher>> = vec![
        Box::new(PairwiseExtension::new(AutoFjMatcher::default())),
        Box::new(ChainExtension::new(AutoFjMatcher::default())),
        Box::new(PairwiseExtension::new(supervised_pw)),
        Box::new(ChainExtension::new(supervised_c)),
        Box::new(AlmserGb::default()),
        Box::new(MscdHac::default()),
        Box::new(MscdAp::default()),
    ];
    for method in &methods {
        let start = Instant::now();
        let tuples = method.run(&ctx);
        let elapsed = start.elapsed();
        let report = evaluate(&tuples, gt);
        let (_, _, f1) = report.tuple.as_percentages();
        let (_, _, pf1) = report.pair.as_percentages();
        println!(
            "{:<22} {f1:>7.1} {pf1:>7.1} {:>9} {:>10}",
            method.name(),
            tuples.len(),
            multiem::eval::format_duration(elapsed)
        );
    }

    // MultiEM itself.
    let config = MultiEmConfig {
        m: 0.35,
        ..MultiEmConfig::default()
    };
    let pipeline = MultiEm::new(config, HashedLexicalEncoder::default());
    let start = Instant::now();
    let output = pipeline.run(dataset).expect("pipeline runs");
    let elapsed = start.elapsed();
    let report = evaluate(&output.tuples, gt);
    let (_, _, f1) = report.tuple.as_percentages();
    let (_, _, pf1) = report.pair.as_percentages();
    println!(
        "{:<22} {f1:>7.1} {pf1:>7.1} {:>9} {:>10}",
        "MultiEM",
        output.tuples.len(),
        multiem::eval::format_duration(elapsed)
    );
}
