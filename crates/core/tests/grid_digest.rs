//! Pins the exact records of small quick-size grids: an FNV-1a digest
//! over each grid's records JSON, the same digest the benchmark's grid
//! workload checks at full size. The grids cover every weight policy
//! (fine-tune, rewind to init, reinitialize), both schedules (one-shot,
//! iterative), early stopping on and off, a gradient-scored strategy, a
//! dense model (LeNet-300-100) and a conv model (ResNet-8). A changed
//! digest means the training, pruning, evaluation or serialization
//! arithmetic changed.
//!
//! The last test counts the `eval` spans of a traced one-shot fine-tune
//! cell, which pins how many evaluations a cell pays for.

use shrinkbench::experiment::{
    DatasetKind, ExperimentConfig, ExperimentRunner, ModelKind, PretrainConfig,
};
use shrinkbench::{FinetuneConfig, OptimizerKind, ScheduleKind, StrategyKind, WeightPolicy};

/// One grid: a single seed, quick-size data, fixed pretraining.
fn grid(
    id: &str,
    model: ModelKind,
    strategies: Vec<StrategyKind>,
    compressions: Vec<f64>,
    finetune: FinetuneConfig,
) -> ExperimentConfig {
    let dataset = if model.flatten_input() {
        DatasetKind::MnistLike
    } else {
        DatasetKind::CifarLike
    };
    ExperimentConfig {
        id: id.to_string(),
        dataset,
        data_scale: 16,
        data_seed: 3,
        model,
        strategies,
        compressions,
        seeds: vec![1],
        pretrain: PretrainConfig {
            epochs: 2,
            optimizer: OptimizerKind::Adam { lr: 1e-3 },
            batch_size: 32,
            weights_seed: 0xA11CE,
            patience: None,
        },
        finetune,
    }
}

fn finetune(epochs: usize, schedule: ScheduleKind, policy: WeightPolicy) -> FinetuneConfig {
    FinetuneConfig {
        epochs,
        batch_size: 32,
        optimizer: OptimizerKind::Adam { lr: 3e-4 },
        schedule,
        patience: None,
        flatten_input: false,
        exclude_classifier: true,
        weight_policy: policy,
    }
}

const RESNET8: ModelKind = ModelKind::ResNetCifar {
    depth: 8,
    base_width: 4,
};

/// FNV-1a 64 over the records' JSON, as hex.
fn digest(config: &ExperimentConfig) -> String {
    let records = ExperimentRunner::default().run(config);
    let json = sb_json::to_string(&records).expect("records serialize");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[test]
fn lenet300_finetune_oneshot_records_are_pinned() {
    let cfg = grid(
        "digest-lenet300-finetune-oneshot",
        ModelKind::Lenet300_100,
        vec![StrategyKind::GlobalMagnitude, StrategyKind::GlobalGradient],
        vec![1.0, 4.0],
        finetune(2, ScheduleKind::OneShot, WeightPolicy::Finetune),
    );
    assert_eq!(digest(&cfg), "32fc438b762e5a38");
}

#[test]
fn lenet300_rewind_iterative_records_are_pinned() {
    let cfg = grid(
        "digest-lenet300-rewind-iterative",
        ModelKind::Lenet300_100,
        vec![StrategyKind::GlobalMagnitude],
        vec![8.0],
        FinetuneConfig {
            patience: Some(0),
            ..finetune(
                4,
                ScheduleKind::Iterative { iterations: 2 },
                WeightPolicy::RewindToInit,
            )
        },
    );
    assert_eq!(digest(&cfg), "fbc7a5ddc7db5f65");
}

#[test]
fn resnet8_reinitialize_oneshot_records_are_pinned() {
    let cfg = grid(
        "digest-resnet8-reinit-oneshot",
        RESNET8,
        vec![StrategyKind::LayerMagnitude],
        vec![4.0],
        finetune(2, ScheduleKind::OneShot, WeightPolicy::Reinitialize),
    );
    assert_eq!(digest(&cfg), "595c9f6bebf5ad26");
}

#[test]
fn resnet8_finetune_iterative_records_are_pinned() {
    let cfg = grid(
        "digest-resnet8-finetune-iterative",
        RESNET8,
        vec![StrategyKind::GlobalMagnitude],
        vec![2.0, 8.0],
        FinetuneConfig {
            patience: Some(0),
            ..finetune(
                2,
                ScheduleKind::Iterative { iterations: 2 },
                WeightPolicy::Finetune,
            )
        },
    );
    assert_eq!(digest(&cfg), "2f6def25e6361f5e");
}

/// Calls of spans named `name` anywhere under `node`.
fn spans_named(node: &sb_trace::TraceNode, name: &str) -> u64 {
    let own = if node.name == name { node.count } else { 0 };
    own + node
        .children
        .iter()
        .map(|c| spans_named(c, name))
        .sum::<u64>()
}

#[test]
fn traced_oneshot_finetune_cell_evaluates_epochs_plus_one_times() {
    const EPOCHS: usize = 3;
    let cfg = grid(
        "eval-count",
        ModelKind::Lenet300_100,
        vec![StrategyKind::GlobalMagnitude],
        vec![4.0],
        finetune(EPOCHS, ScheduleKind::OneShot, WeightPolicy::Finetune),
    );
    // Other tests in this binary never drain or disable the collector, and
    // their spans live under grid roots of their own.
    sb_trace::set_override(Some(true));
    ExperimentRunner::default().run(&cfg);
    let trace = sb_trace::report().subtree("grid:eval-count");
    sb_trace::set_override(None);

    let grid = &trace.roots[0];
    let cell = grid
        .children
        .iter()
        .find(|c| c.name == "job:eval-count:cell-s0-c0-r0")
        .expect("the cell's job span");
    // One evaluation after pruning, which fine-tuning starts from, then
    // one per epoch; the metrics of the returned weights are reused.
    assert_eq!(spans_named(cell, "eval"), EPOCHS as u64 + 1);
    // Pretraining evaluates its starting weights and every epoch.
    let pretrain = grid
        .children
        .iter()
        .find(|c| c.name == "pretrain")
        .expect("the pretrain span");
    assert_eq!(
        spans_named(pretrain, "eval"),
        cfg.pretrain.epochs as u64 + 1
    );
}
