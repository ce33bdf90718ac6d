//! Algorithm 1 of the paper: prune and fine-tune.
//!
//! ```text
//! W ← trainToConvergence(f(X; W))     (caller provides the trained net)
//! M ← 1^|W|
//! for i in 1..N:
//!     M ← prune(M, score(W))
//!     W ← fineTune(f(X; M ⊙ W))
//! return M, W
//! ```

use crate::pruner::{PruneError, PruneOutcome, Pruner, PruneSettings};
use crate::strategy::Strategy;
use sb_data::{batches_of, first_batch_of, Split, SyntheticVision};
use sb_nn::{
    evaluate, Adam, EarlyStopping, EvalMetrics, LrSchedule, Network, NetworkExt, Optimizer, Sgd,
    TrainConfig, Trainer,
};
use sb_tensor::Rng;
use sb_json::{json_enum, json_struct, FromJson, Json, JsonError, ToJson};

/// Which optimizer fine-tuning (or pretraining) uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with Nesterov momentum 0.9 (the paper's ImageNet fine-tuning
    /// setup, Appendix C.2).
    SgdNesterov {
        /// Base learning rate.
        lr: f32,
    },
    /// Adam (the paper's CIFAR-10 fine-tuning setup, Appendix C.2).
    Adam {
        /// Base learning rate.
        lr: f32,
    },
}

impl ToJson for OptimizerKind {
    fn to_json(&self) -> Json {
        match self {
            OptimizerKind::SgdNesterov { lr } => Json::Obj(vec![(
                "SgdNesterov".to_string(),
                Json::Obj(vec![("lr".to_string(), lr.to_json())]),
            )]),
            OptimizerKind::Adam { lr } => Json::Obj(vec![(
                "Adam".to_string(),
                Json::Obj(vec![("lr".to_string(), lr.to_json())]),
            )]),
        }
    }
}

impl FromJson for OptimizerKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(body) = v.get("SgdNesterov") {
            return Ok(OptimizerKind::SgdNesterov {
                lr: sb_json::field(body, "lr")?,
            });
        }
        if let Some(body) = v.get("Adam") {
            return Ok(OptimizerKind::Adam {
                lr: sb_json::field(body, "lr")?,
            });
        }
        Err(JsonError::Mismatch {
            expected: "OptimizerKind variant (SgdNesterov or Adam)".to_string(),
            found: v.type_name().to_string(),
        })
    }
}

impl OptimizerKind {
    /// Instantiates the optimizer.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::SgdNesterov { lr } => {
                Box::new(Sgd::new(lr).momentum(0.9).nesterov(true))
            }
            OptimizerKind::Adam { lr } => Box::new(Adam::new(lr)),
        }
    }
}

/// One-shot vs iterative pruning (the "scheduling" axis of Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Prune to the target ratio in a single step, then fine-tune.
    OneShot,
    /// Prune in `iterations` geometric steps, fine-tuning between steps
    /// (Han et al. 2015 style).
    Iterative {
        /// Number of prune → fine-tune rounds.
        iterations: usize,
    },
}

impl ToJson for ScheduleKind {
    fn to_json(&self) -> Json {
        match self {
            ScheduleKind::OneShot => Json::Str("OneShot".to_string()),
            ScheduleKind::Iterative { iterations } => Json::Obj(vec![(
                "Iterative".to_string(),
                Json::Obj(vec![("iterations".to_string(), iterations.to_json())]),
            )]),
        }
    }
}

impl FromJson for ScheduleKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Json::Str(s) = v {
            if s == "OneShot" {
                return Ok(ScheduleKind::OneShot);
            }
            return Err(JsonError::UnknownVariant { name: s.clone() });
        }
        if let Some(body) = v.get("Iterative") {
            return Ok(ScheduleKind::Iterative {
                iterations: sb_json::field(body, "iterations")?,
            });
        }
        Err(JsonError::Mismatch {
            expected: "ScheduleKind variant (OneShot or Iterative)".to_string(),
            found: v.type_name().to_string(),
        })
    }
}

/// What weights training starts from after masks are installed — the
/// "fine-tuning" axis of the paper's Section 2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(Default)]
pub enum WeightPolicy {
    /// Continue from the trained weights (the near-universal default).
    #[default]
    Finetune,
    /// Rewind surviving weights to their values at initialization
    /// (Frankle & Carbin 2019's lottery-ticket procedure). Requires the
    /// caller to supply the initialization snapshot.
    RewindToInit,
    /// Reinitialize surviving weights randomly and retrain from scratch
    /// with the mask fixed (Liu et al. 2019's "scratch" control).
    Reinitialize,
}

json_enum!(WeightPolicy { Finetune, RewindToInit, Reinitialize });

/// Configuration for [`prune_and_finetune`].
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneConfig {
    /// Fine-tuning epochs (total across iterations).
    pub epochs: usize,
    /// Minibatch size for fine-tuning and scoring.
    pub batch_size: usize,
    /// Optimizer choice.
    pub optimizer: OptimizerKind,
    /// One-shot or iterative pruning.
    pub schedule: ScheduleKind,
    /// Early-stopping patience (epochs); `None` disables.
    pub patience: Option<usize>,
    /// Whether the model consumes flattened `[N, D]` inputs (MLPs).
    pub flatten_input: bool,
    /// Whether to exclude the classifier layer from pruning.
    pub exclude_classifier: bool,
    /// What weights post-pruning training starts from. Defaults when the
    /// field is absent, so configs written before this axis existed still
    /// parse.
    pub weight_policy: WeightPolicy,
}

json_struct!(FinetuneConfig {
    epochs,
    batch_size,
    optimizer,
    schedule,
    patience,
    flatten_input,
    exclude_classifier;
    weight_policy
});

impl Default for FinetuneConfig {
    /// The paper's CIFAR-10 fine-tuning setup scaled to this substrate:
    /// Adam at `3e-4`, batch size 64, early stopping.
    fn default() -> Self {
        FinetuneConfig {
            epochs: 4,
            batch_size: 64,
            optimizer: OptimizerKind::Adam { lr: 3e-4 },
            schedule: ScheduleKind::OneShot,
            patience: Some(2),
            flatten_input: false,
            exclude_classifier: true,
            weight_policy: WeightPolicy::Finetune,
        }
    }
}

/// Everything measured from one prune + fine-tune run.
#[derive(Debug, Clone)]
pub struct PruneFinetuneResult {
    /// Compression requested.
    pub target_compression: f64,
    /// Compression achieved (all parameters counted).
    pub compression: f64,
    /// Theoretical speedup achieved.
    pub speedup: f64,
    /// Validation metrics immediately after pruning, before any
    /// fine-tuning.
    pub before_finetune: EvalMetrics,
    /// Validation metrics after fine-tuning.
    pub after_finetune: EvalMetrics,
    /// Number of fine-tuning epochs actually run.
    pub epochs_run: usize,
}

json_struct!(PruneFinetuneResult {
    target_compression,
    compression,
    speedup,
    before_finetune,
    after_finetune,
    epochs_run
});

/// Runs Algorithm 1 on an already-trained network.
///
/// The network is pruned with `strategy` to `target_compression` (in one
/// shot or geometrically over iterations per `config.schedule`) and
/// fine-tuned on `data`'s training split; metrics are reported on the
/// validation split. All randomness (batch order, scoring batch choice,
/// random pruning) flows from `rng`.
///
/// # Errors
///
/// Propagates [`PruneError`] from the pruning step.
pub fn prune_and_finetune(
    network: &mut dyn Network,
    strategy: &dyn Strategy,
    target_compression: f64,
    data: &SyntheticVision,
    config: &FinetuneConfig,
    rng: &mut Rng,
) -> Result<PruneFinetuneResult, PruneError> {
    prune_and_retrain(network, strategy, target_compression, data, config, None, rng)
}

/// [`prune_and_finetune`] with an explicit initialization snapshot, which
/// [`WeightPolicy::RewindToInit`] rewinds surviving weights to.
///
/// # Errors
///
/// Propagates [`PruneError`]; additionally requires `init_snapshot` when
/// the config selects `RewindToInit`.
///
/// # Panics
///
/// Panics if `RewindToInit` is requested without an `init_snapshot`.
pub fn prune_and_retrain(
    network: &mut dyn Network,
    strategy: &dyn Strategy,
    target_compression: f64,
    data: &SyntheticVision,
    config: &FinetuneConfig,
    init_snapshot: Option<&[sb_nn::ParamSnapshot]>,
    rng: &mut Rng,
) -> Result<PruneFinetuneResult, PruneError> {
    let val = batches_of(data, Split::Val, config.batch_size, None, config.flatten_input);
    let iterations = match config.schedule {
        ScheduleKind::OneShot => 1,
        ScheduleKind::Iterative { iterations } => iterations.max(1),
    };
    let epochs_per_iter = (config.epochs / iterations).max(1);

    let mut outcome: Option<PruneOutcome> = None;
    let mut before: Option<EvalMetrics> = None;
    let mut after: Option<EvalMetrics> = None;
    let mut epochs_run = 0usize;

    for iter in 1..=iterations {
        // Geometric intermediate ratio: c^(i/N).
        let ratio = target_compression.powf(iter as f64 / iterations as f64);

        // Scoring batch for gradient strategies: one training minibatch.
        let score_batch = if strategy.needs_gradients() {
            let mut fork = rng.fork(0x5C0E);
            first_batch_of(data, Split::Train, config.batch_size, Some(&mut fork), config.flatten_input)
        } else {
            None
        };
        let pruner = Pruner::new(PruneSettings {
            exclude_classifier: config.exclude_classifier,
            score_batch,
            monotone: true,
        });
        outcome = Some({
            let _prune = sb_trace::span("prune");
            pruner.prune(network, strategy, ratio, rng)?
        });

        // The first iteration's pruned weights are evaluated once: they
        // are `before`, and under `Finetune` also the weights fine-tuning
        // starts from.
        let start = if before.is_none() {
            let pruned = evaluate(network, &val);
            before = Some(pruned);
            (config.weight_policy == WeightPolicy::Finetune).then_some(pruned)
        } else {
            None
        };

        // The fine-tuning axis (Section 2.3): where training resumes from.
        // Masks are preserved across the weight reset: collect them, swap
        // the weights, and re-install.
        match config.weight_policy {
            WeightPolicy::Finetune => {}
            WeightPolicy::RewindToInit => {
                let init = init_snapshot
                    .expect("WeightPolicy::RewindToInit requires an initialization snapshot");
                let mut masks: Vec<Option<sb_tensor::Tensor>> = Vec::new();
                network.visit_params_ref(&mut |p| masks.push(p.mask().cloned()));
                let mut i = 0usize;
                network.visit_params(&mut |p| {
                    assert_eq!(init[i].name, p.name(), "init snapshot order mismatch");
                    *p.value_mut() = init[i].value.clone();
                    if let Some(mask) = &masks[i] {
                        p.set_mask(mask.clone());
                    }
                    i += 1;
                });
            }
            WeightPolicy::Reinitialize => {
                let mut reinit_rng = rng.fork(0x12E1);
                network.visit_params(&mut |p| {
                    if p.kind().prunable_by_default() {
                        let dims = p.value().dims().to_vec();
                        let fan_in = dims.last().copied().unwrap_or(1).max(1);
                        *p.value_mut() =
                            sb_tensor::Tensor::kaiming_normal(&dims, fan_in, &mut reinit_rng);
                    }
                    p.apply_mask();
                });
            }
        }

        // Fine-tune with masks pinned (optimizer re-applies them).
        let mut optimizer = config.optimizer.build();
        let trainer = Trainer::new(TrainConfig {
            epochs: epochs_per_iter,
            schedule: LrSchedule::Fixed,
            early_stopping: config.patience.map(|p| EarlyStopping { patience: p }),
            restore_best: true,
        });
        let mut epoch_rng = rng.fork(iter as u64);
        let pre_finetune = network.snapshot();
        let _finetune = sb_trace::span("finetune");
        match trainer.fit_from(
            network,
            optimizer.as_mut(),
            |epoch| {
                let mut fork = epoch_rng.fork(epoch as u64);
                batches_of(
                    data,
                    Split::Train,
                    config.batch_size,
                    Some(&mut fork),
                    config.flatten_input,
                )
            },
            &val,
            start,
        ) {
            Ok(report) => {
                epochs_run += report.epoch_losses.len();
                after = report.final_metrics;
            }
            Err(_diverged) => {
                // Fine-tuning blew up (non-finite activations). The run
                // is still a valid data point: fall back to the pruned,
                // un-fine-tuned network rather than aborting the grid.
                network.restore(&pre_finetune);
                after = None;
            }
        }
    }

    let outcome = outcome.expect("at least one iteration ran");
    // The last fine-tuning reports the metrics of the weights it returned;
    // only a diverged one leaves them to be measured.
    let after = after.unwrap_or_else(|| evaluate(network, &val));
    Ok(PruneFinetuneResult {
        target_compression,
        compression: outcome.compression_ratio,
        speedup: outcome.theoretical_speedup,
        before_finetune: before.expect("measured in first iteration"),
        after_finetune: after,
        epochs_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{GlobalMagnitude, RandomPruning};
    use sb_data::DatasetSpec;
    use sb_nn::models;

    fn quick_data() -> SyntheticVision {
        SyntheticVision::new(DatasetSpec::mnist_like(0).scaled_down(8))
    }

    fn pretrained(data: &SyntheticVision) -> impl Network {
        let mut rng = Rng::seed_from(0);
        let spec = data.spec();
        let mut net = models::mlp(spec.channels * spec.side * spec.side, &[32], spec.classes, &mut rng);
        let mut opt = Adam::new(1e-3);
        let trainer = Trainer::new(TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        });
        let mut erng = Rng::seed_from(1);
        trainer
            .fit(
                &mut net,
                &mut opt,
                |_| {
                    let mut fork = erng.fork(0);
                    batches_of(data, Split::Train, 32, Some(&mut fork), true)
                },
                &[],
            )
            .unwrap();
        net
    }

    fn quick_config() -> FinetuneConfig {
        FinetuneConfig {
            epochs: 2,
            batch_size: 32,
            flatten_input: true,
            patience: None,
            ..FinetuneConfig::default()
        }
    }

    #[test]
    fn finetune_recovers_accuracy_after_moderate_pruning() {
        let data = quick_data();
        let mut net = pretrained(&data);
        let mut rng = Rng::seed_from(2);
        let result = prune_and_finetune(
            &mut net,
            &GlobalMagnitude,
            2.0,
            &data,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        assert!((result.compression - 2.0).abs() < 0.1);
        assert!(
            result.after_finetune.top1 >= result.before_finetune.top1 - 0.05,
            "fine-tuning should not lose accuracy: {} -> {}",
            result.before_finetune.top1,
            result.after_finetune.top1
        );
    }

    #[test]
    fn magnitude_beats_random_at_high_compression() {
        let data = quick_data();
        let cfg = quick_config();
        let mut rng = Rng::seed_from(3);

        let mut net_mag = pretrained(&data);
        let r_mag =
            prune_and_finetune(&mut net_mag, &GlobalMagnitude, 8.0, &data, &cfg, &mut rng)
                .unwrap();
        let mut net_rand = pretrained(&data);
        let r_rand = prune_and_finetune(
            &mut net_rand,
            &RandomPruning::global(),
            8.0,
            &data,
            &cfg,
            &mut rng,
        )
        .unwrap();
        // Before fine-tuning, magnitude pruning should retain much more
        // accuracy than random pruning (the paper's most replicated
        // finding, Section 3.2).
        assert!(
            r_mag.before_finetune.top1 > r_rand.before_finetune.top1,
            "magnitude {} vs random {}",
            r_mag.before_finetune.top1,
            r_rand.before_finetune.top1
        );
    }

    #[test]
    fn iterative_schedule_reaches_target() {
        let data = quick_data();
        let mut net = pretrained(&data);
        let mut rng = Rng::seed_from(4);
        let cfg = FinetuneConfig {
            schedule: ScheduleKind::Iterative { iterations: 3 },
            epochs: 3,
            ..quick_config()
        };
        let result =
            prune_and_finetune(&mut net, &GlobalMagnitude, 8.0, &data, &cfg, &mut rng).unwrap();
        assert!((result.compression - 8.0).abs() / 8.0 < 0.05);
        assert!(result.epochs_run >= 3);
    }

    #[test]
    fn masks_survive_finetuning() {
        let data = quick_data();
        let mut net = pretrained(&data);
        let mut rng = Rng::seed_from(5);
        prune_and_finetune(&mut net, &GlobalMagnitude, 4.0, &data, &quick_config(), &mut rng)
            .unwrap();
        // Every masked weight must still be exactly zero.
        net.visit_params(&mut |p| {
            if let Some(mask) = p.mask() {
                let mask = mask.clone();
                for (v, m) in p.value().data().iter().zip(mask.data()) {
                    if *m == 0.0 {
                        assert_eq!(*v, 0.0);
                    }
                }
            }
        });
    }

    #[test]
    fn results_serialize() {
        let data = quick_data();
        let mut net = pretrained(&data);
        let mut rng = Rng::seed_from(6);
        let result =
            prune_and_finetune(&mut net, &GlobalMagnitude, 2.0, &data, &quick_config(), &mut rng)
                .unwrap();
        let json = sb_json::to_string(&result).unwrap();
        assert!(json.contains("compression"));
    }
}
