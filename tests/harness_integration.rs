//! Integration tests for the reporting/meta-analysis side: corpus →
//! figures → tables/charts, plus the experiment-config registry.

use sb_bench::configs::{experiment_config, Scale};
use sb_bench::figures::{fig1, fig2, fig3, fig4, fig5, table1, OutputPaths};
use sb_corpus::data::{build_corpus, published, TABLE1_PAIRS};
use sb_report::Table;

fn temp_paths(tag: &str) -> (OutputPaths, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("shrinkbench-harness-{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    (
        OutputPaths {
            results: root.join("results"),
            figures: root.join("figures"),
        },
        root,
    )
}

#[test]
fn meta_analysis_artifacts_render_and_persist() {
    let (paths, root) = temp_paths("meta");
    let t1 = table1(&paths).expect("figures written");
    for &(dataset, arch, count) in TABLE1_PAIRS {
        assert!(t1.contains(dataset) && t1.contains(arch), "{dataset}/{arch} missing");
        assert!(t1.contains(&count.to_string()));
    }
    assert!(t1.contains("81 papers, 49 datasets, 132 architectures, 195 combinations"));

    let f1 = fig1(&paths).expect("figures written");
    assert!(f1.contains("EfficientNet"));
    assert!(f1.contains("VGG Pruned"));

    let f2 = fig2(&paths).expect("figures written");
    assert!(f2.contains("in-degree"));
    assert!(f2.contains("never compared to"));

    let f3 = fig3(&paths).expect("figures written");
    assert!(f3.contains("VGG-16") && f3.contains("ResNet-56"));
    assert!(f3.contains(&format!(
        "{} of the 81 papers",
        published::FIGURE3_PAPERS
    )));

    let f4 = fig4(&paths).expect("figures written");
    assert!(f4.contains("pairs"));

    let f5 = fig5(&paths).expect("figures written");
    assert!(f5.contains("magnitude"));

    // Artifacts persisted as .txt and .csv.
    for name in ["table1", "fig1", "fig2", "fig3", "fig4", "fig5"] {
        assert!(paths.figures.join(format!("{name}.txt")).exists(), "{name}.txt");
        assert!(paths.figures.join(format!("{name}.csv")).exists(), "{name}.csv");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn csv_artifacts_are_parseable_tables() {
    let (paths, root) = temp_paths("csv");
    table1(&paths).expect("figures written");
    let csv = std::fs::read_to_string(paths.figures.join("table1.csv")).unwrap();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let cols = header.split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), cols, "ragged CSV row: {line}");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn every_experimental_artifact_has_a_config() {
    for id in [
        "cifar-vgg",
        "resnet20",
        "resnet56",
        "resnet110",
        "imagenet-resnet18",
        "weights-a",
        "weights-b",
        "ablation-schedule-oneshot",
        "ablation-schedule-iterative",
        "ablation-classifier-excluded",
        "ablation-classifier-included",
        "ablation-structured",
        "ablation-random-layerwise",
        "mnist-saturation",
    ] {
        let cfg = experiment_config(id, Scale::Quick).expect(id);
        // Every grid includes the dense control or at least two ratios,
        // satisfying the paper's "at least 5 operating points" guidance
        // at standard scale.
        let std_cfg = experiment_config(id, Scale::Standard).expect(id);
        assert!(std_cfg.compressions.len() >= 2);
        assert!(cfg.compressions.len() >= 2);
    }
}

#[test]
fn figure7_grid_satisfies_paper_recommendations() {
    // Section 6's recommendations, checked against our own config:
    let cfg = experiment_config("cifar-vgg", Scale::Standard).unwrap();
    // "use at least 5 operating points spanning a range of compression
    // ratios. The set {2, 4, 8, 16, 32} is a good choice."
    for c in [2.0, 4.0, 8.0, 16.0, 32.0] {
        assert!(cfg.compressions.contains(&c), "{c} missing");
    }
    // "report means and sample standard deviations" — three seeds.
    assert!(cfg.seeds.len() >= 3);
    // Compare a random baseline and magnitude baselines (Appendix B).
    assert!(cfg.strategies.len() >= 5);
}

#[test]
fn corpus_is_consistent_with_experiment_architectures() {
    // The architectures ShrinkBench ships experiments for are exactly the
    // common ones from Table 1 (plus scaled ImageNet models).
    let corpus = build_corpus();
    for arch in ["ResNet-56", "ResNet-110", "CIFAR-VGG", "ResNet-18"] {
        assert!(
            corpus.architectures().contains(&arch),
            "{arch} missing from corpus"
        );
    }
}

#[test]
fn report_table_round_trips_through_csv() {
    let mut t = Table::new(vec!["strategy", "top1"]);
    t.row(vec!["Global Weight".into(), "0.91".into()]);
    let csv = t.to_csv();
    assert_eq!(csv, "strategy,top1\nGlobal Weight,0.91\n");
}

#[test]
fn extension_artifacts_render_without_training() {
    use sb_bench::figures::{hygiene, metrics_ambiguity, sparsity_profile};
    let (paths, root) = temp_paths("ext");
    let h = hygiene(&paths).expect("figures written");
    assert!(h.contains("1 report any measure of central tendency"));
    let m = metrics_ambiguity(&paths).expect("figures written");
    assert!(m.contains("RatioOriginalOverCompressed"));
    assert!(m.contains("spread"));
    let s = sparsity_profile(&paths).expect("figures written");
    assert!(s.contains("stage1.conv1.weight"));
    assert!(s.contains("Layerwise"));
    for name in ["hygiene", "metrics-ambiguity", "sparsity-profile"] {
        assert!(paths.figures.join(format!("{name}.txt")).exists(), "{name}");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn corrupted_result_cache_triggers_rerun_not_crash() {
    use shrinkbench::experiment::{
        DatasetKind, ExperimentConfig, ExperimentRunner, ModelKind, PretrainConfig,
    };
    use shrinkbench::{FinetuneConfig, StrategyKind};
    let (paths, root) = temp_paths("corrupt-cache");
    std::fs::create_dir_all(&paths.results).unwrap();
    let config = ExperimentConfig {
        id: "corrupt".to_string(),
        dataset: DatasetKind::MnistLike,
        data_scale: 16,
        data_seed: 0,
        model: ModelKind::Lenet300_100,
        strategies: vec![StrategyKind::GlobalMagnitude],
        compressions: vec![2.0],
        seeds: vec![1],
        pretrain: PretrainConfig {
            epochs: 1,
            patience: None,
            ..PretrainConfig::default()
        },
        finetune: FinetuneConfig {
            epochs: 1,
            patience: None,
            ..FinetuneConfig::default()
        },
    };
    // Poison the cache file; the runner must fall back to recomputing.
    std::fs::write(paths.results.join("corrupt.json"), b"{not json").unwrap();
    let runner = ExperimentRunner::with_cache(&paths.results);
    let records = runner.run(&config);
    assert_eq!(records.len(), 1);
    // And the rewritten cache must now round-trip.
    let again = runner.run(&config);
    assert_eq!(records, again);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn stale_config_cache_is_ignored() {
    use shrinkbench::experiment::{
        DatasetKind, ExperimentConfig, ExperimentRunner, ModelKind, PretrainConfig,
    };
    use shrinkbench::{FinetuneConfig, StrategyKind};
    let (paths, root) = temp_paths("stale-cache");
    let base = ExperimentConfig {
        id: "stale".to_string(),
        dataset: DatasetKind::MnistLike,
        data_scale: 16,
        data_seed: 0,
        model: ModelKind::Lenet300_100,
        strategies: vec![StrategyKind::GlobalMagnitude],
        compressions: vec![2.0],
        seeds: vec![1],
        pretrain: PretrainConfig {
            epochs: 1,
            patience: None,
            ..PretrainConfig::default()
        },
        finetune: FinetuneConfig {
            epochs: 1,
            patience: None,
            ..FinetuneConfig::default()
        },
    };
    let runner = ExperimentRunner::with_cache(&paths.results);
    let first = runner.run(&base);
    // Same id, different grid: cached records must NOT be reused.
    let mut changed = base.clone();
    changed.compressions = vec![2.0, 4.0];
    let second = runner.run(&changed);
    assert_eq!(first.len(), 1);
    assert_eq!(second.len(), 2);
    let _ = std::fs::remove_dir_all(root);
}
