//! Integration tests spanning datagen → core pipeline → eval.

use multiem::core::MultiEmError;
use multiem::prelude::*;

fn run(dataset: &Dataset, config: MultiEmConfig) -> (MultiEmOutput, EvaluationReport) {
    let pipeline = MultiEm::new(config, HashedLexicalEncoder::default());
    let output = pipeline.run(dataset).expect("pipeline runs");
    let report = evaluate(
        &output.tuples,
        dataset.ground_truth().expect("ground truth"),
    );
    (output, report)
}

#[test]
fn multiem_is_effective_on_every_benchmark_preset() {
    // Small scales keep the test fast; thresholds are deliberately loose for
    // the noisy shopee analogue (the paper itself reports F1 ≈ 26 there).
    let cases = [
        ("geo", 0.08, 0.35, 0.55),
        ("music-20", 0.02, 0.35, 0.55),
        ("person", 0.0004, 0.2, 0.5),
        ("shopee", 0.02, 0.5, 0.15),
    ];
    for (name, scale, m, min_pair_f1) in cases {
        let data = multiem::datagen::benchmark_dataset(name, scale).expect("preset exists");
        let config = MultiEmConfig {
            m,
            ..MultiEmConfig::default()
        };
        let (_output, report) = run(&data.dataset, config);
        assert!(
            report.pair.f1 >= min_pair_f1,
            "{name}: pair-F1 {:.3} below {min_pair_f1}",
            report.pair.f1
        );
    }
}

#[test]
fn ablations_degrade_music_quality() {
    // Table IV: removing EER or DP lowers F1 on the music datasets.
    let data = multiem::datagen::benchmark_dataset("music-20", 0.03).expect("preset exists");
    let base = MultiEmConfig {
        m: 0.35,
        ..MultiEmConfig::default()
    };
    let (_, full) = run(&data.dataset, base.clone());
    let (_, no_eer) = run(&data.dataset, base.clone().without_attribute_selection());
    let (_, no_dp) = run(&data.dataset, base.clone().without_pruning());
    assert!(
        full.tuple.f1 >= no_eer.tuple.f1 - 1e-9,
        "EER should not hurt: full {:.3} vs w/o EER {:.3}",
        full.tuple.f1,
        no_eer.tuple.f1
    );
    assert!(
        full.tuple.f1 >= no_dp.tuple.f1 - 1e-9,
        "DP should not hurt: full {:.3} vs w/o DP {:.3}",
        full.tuple.f1,
        no_dp.tuple.f1
    );
    // At least one of the two modules must contribute measurably on this data.
    assert!(
        full.tuple.f1 > no_eer.tuple.f1 + 1e-6 || full.tuple.f1 > no_dp.tuple.f1 + 1e-6,
        "ablations match full pipeline exactly; modules contribute nothing"
    );
}

/// A run inside a one-thread pool is single-threaded: every parallel map of
/// the pipeline runs on its caller. It finds the same tuples as a run at the
/// machine's width.
#[test]
fn a_one_thread_run_matches_a_full_width_run_on_all_domains() {
    let one_thread = rayon::ThreadPool::new(1);
    for (name, scale) in [("geo", 0.05), ("music-20", 0.01), ("shopee", 0.01)] {
        let data = multiem::datagen::benchmark_dataset(name, scale).expect("preset exists");
        let config = MultiEmConfig {
            m: 0.35,
            ..MultiEmConfig::default()
        };
        let (mut single, _) = one_thread.install(|| run(&data.dataset, config.clone()));
        let (mut full, _) = run(&data.dataset, config);
        single.tuples.sort();
        full.tuples.sort();
        assert_eq!(single.tuples, full.tuples, "one thread differs on {name}");
    }
}

#[test]
fn predictions_respect_dataset_bounds_and_source_diversity() {
    let data = multiem::datagen::benchmark_dataset("geo", 0.08).expect("preset exists");
    let (output, _) = run(&data.dataset, MultiEmConfig::default());
    for tuple in &output.tuples {
        assert!(tuple.len() >= 2);
        assert!(
            tuple.len() <= data.dataset.num_sources(),
            "tuple larger than source count"
        );
        for &id in tuple.members() {
            assert!(
                data.dataset.record(id).is_ok(),
                "prediction references missing record"
            );
        }
    }
}

#[test]
fn merge_order_insensitivity_figure_6b() {
    // Figure 6(b): F1 varies only slightly with the random merge order.
    let data = multiem::datagen::benchmark_dataset("music-20", 0.02).expect("preset exists");
    let mut f1s = Vec::new();
    for seed in [0u64, 1, 2, 3] {
        let config = MultiEmConfig {
            m: 0.35,
            merge_seed: seed,
            ..MultiEmConfig::default()
        };
        let (_, report) = run(&data.dataset, config);
        f1s.push(report.tuple.f1);
    }
    let max = f1s.iter().cloned().fold(f64::MIN, f64::max);
    let min = f1s.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.12, "merge order changes F1 too much: {f1s:?}");
}

#[test]
fn invalid_inputs_are_rejected_cleanly() {
    let schema = Schema::new(["a"]).shared();
    let empty = Dataset::new("empty", schema.clone());
    let pipeline = MultiEm::new(MultiEmConfig::default(), HashedLexicalEncoder::default());
    assert!(matches!(
        pipeline.run(&empty),
        Err(MultiEmError::EmptyDataset)
    ));

    let bad_config = MultiEmConfig {
        sample_ratio: 0.0,
        ..MultiEmConfig::default()
    };
    let data = multiem::datagen::benchmark_dataset("geo", 0.02).expect("preset exists");
    let bad = MultiEm::new(bad_config, HashedLexicalEncoder::default());
    assert!(matches!(
        bad.run(&data.dataset),
        Err(MultiEmError::InvalidConfig(_))
    ));
}
