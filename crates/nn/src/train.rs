//! Training and evaluation loops with early stopping.

use crate::loss::cross_entropy;
use crate::network::{Mode, Network, NetworkExt};
use crate::optim::Optimizer;
use crate::param::ParamSnapshot;
use crate::schedule::LrSchedule;
use sb_json::json_struct;
use sb_tensor::Tensor;

/// A labelled minibatch: inputs plus integer class labels.
pub type Batch = (Tensor, Vec<usize>);

/// Early-stopping policy: stop when validation accuracy has not improved
/// for `patience` consecutive epochs (the paper's Appendix C.2 uses early
/// stopping during fine-tuning "to prevent overfitting").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarlyStopping {
    /// Number of non-improving epochs tolerated before stopping.
    pub patience: usize,
}

json_struct!(EarlyStopping { patience });

/// Configuration for a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Learning-rate schedule applied on top of the optimizer's base rate.
    pub schedule: LrSchedule,
    /// Optional early stopping on validation accuracy.
    pub early_stopping: Option<EarlyStopping>,
    /// Whether to restore the best-validation snapshot at the end.
    pub restore_best: bool,
}

json_struct!(TrainConfig {
    epochs,
    schedule,
    early_stopping,
    restore_best,
});

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            schedule: LrSchedule::Fixed,
            early_stopping: None,
            restore_best: false,
        }
    }
}

/// Aggregate evaluation result over a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub top1: f32,
    /// Top-5 accuracy in `[0, 1]` (equals 1.0 trivially when the network
    /// has five or fewer classes).
    pub top5: f32,
    /// Number of evaluated samples.
    pub samples: usize,
}

json_struct!(EvalMetrics { loss, top1, top5, samples });

/// Per-run training history.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation top-1 accuracy per completed epoch (empty when no
    /// validation batches were supplied).
    pub val_top1: Vec<f32>,
    /// Best validation top-1 accuracy observed.
    pub best_val_top1: f32,
    /// Whether early stopping triggered before `epochs` completed.
    pub stopped_early: bool,
    /// Validation metrics of the weights the network holds when training
    /// returns: the restored best snapshot's under `restore_best`, else
    /// the last epoch's. Each is the evaluation already run for that
    /// snapshot or epoch, not a new one. `None` when no validation
    /// batches were supplied.
    pub final_metrics: Option<EvalMetrics>,
}

json_struct!(TrainReport {
    epoch_losses,
    val_top1,
    best_val_top1,
    stopped_early,
    final_metrics,
});

/// Orchestrates epoch loops: forward, loss, backward, optimizer step,
/// schedule, validation, early stopping.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Runs one optimization step on a single batch; returns the loss.
    ///
    /// NaN/Inf in the logits is reported via `Err` so callers can abort a
    /// diverging run instead of silently training on garbage.
    pub fn train_step(
        network: &mut dyn Network,
        optimizer: &mut dyn Optimizer,
        batch: &Batch,
    ) -> Result<f32, TrainDiverged> {
        let (x, labels) = batch;
        network.zero_grads();
        let logits = {
            let _s = sb_trace::span("forward");
            network.forward(x, Mode::Train)
        };
        if logits.has_non_finite() {
            return Err(TrainDiverged);
        }
        let out = cross_entropy(&logits, labels);
        {
            let _s = sb_trace::span("backward");
            network.backward(&out.grad_logits);
        }
        {
            let _s = sb_trace::span("step");
            optimizer.step(network);
        }
        Ok(out.loss)
    }

    /// Trains for up to `config.epochs` epochs.
    ///
    /// `make_epoch` is called once per epoch with the epoch index and must
    /// return that epoch's training batches (allowing per-epoch
    /// reshuffling); `val_batches` (if non-empty) drives validation
    /// metrics and early stopping, and the report carries the metrics of
    /// the weights returned ([`TrainReport::final_metrics`]).
    ///
    /// # Errors
    ///
    /// Returns [`TrainDiverged`] if the network produces non-finite
    /// logits at any step.
    pub fn fit(
        &self,
        network: &mut dyn Network,
        optimizer: &mut dyn Optimizer,
        make_epoch: impl FnMut(usize) -> Vec<Batch>,
        val_batches: &[Batch],
    ) -> Result<TrainReport, TrainDiverged> {
        self.fit_from(network, optimizer, make_epoch, val_batches, None)
    }

    /// [`Trainer::fit`] for a caller that already holds `start`, the
    /// result of `evaluate(network, val_batches)` on the weights passed
    /// in. Training uses it in place of evaluating the starting weights
    /// again; with `start = None` this is exactly `fit`.
    ///
    /// # Errors
    ///
    /// Returns [`TrainDiverged`] if the network produces non-finite
    /// logits at any step.
    pub fn fit_from(
        &self,
        network: &mut dyn Network,
        optimizer: &mut dyn Optimizer,
        mut make_epoch: impl FnMut(usize) -> Vec<Batch>,
        val_batches: &[Batch],
        start: Option<EvalMetrics>,
    ) -> Result<TrainReport, TrainDiverged> {
        let base_lr = optimizer.learning_rate();
        let mut report = TrainReport {
            epoch_losses: Vec::new(),
            val_top1: Vec::new(),
            best_val_top1: f32::NEG_INFINITY,
            stopped_early: false,
            final_metrics: None,
        };
        let validate = !val_batches.is_empty();
        // Metrics of the weights the network holds now, when known.
        let mut current = if validate { start } else { None };
        let mut best_snapshot: Option<(Vec<ParamSnapshot>, EvalMetrics)> = None;
        let mut epochs_since_best = 0usize;

        // The starting state is itself a candidate: with restore_best,
        // training can never return a network worse (on validation) than
        // the one it was given.
        if self.config.restore_best && validate {
            let initial = *current.get_or_insert_with(|| evaluate(network, val_batches));
            report.best_val_top1 = initial.top1;
            best_snapshot = Some((network.snapshot(), initial));
        }

        for epoch in 0..self.config.epochs {
            optimizer.set_learning_rate(base_lr * self.config.schedule.multiplier(epoch));
            let batches = make_epoch(epoch);
            let mut loss_sum = 0.0f32;
            let mut batch_count = 0usize;
            {
                let _epoch_span = sb_trace::span_with(|| format!("epoch-{epoch}"));
                for batch in &batches {
                    loss_sum += Self::train_step(network, optimizer, batch)?;
                    batch_count += 1;
                }
            }
            sb_trace::count(sb_trace::CounterId::EpochsTrained, 1);
            report
                .epoch_losses
                .push(if batch_count > 0 { loss_sum / batch_count as f32 } else { 0.0 });

            if validate {
                let metrics = evaluate(network, val_batches);
                current = Some(metrics);
                report.val_top1.push(metrics.top1);
                if metrics.top1 > report.best_val_top1 {
                    report.best_val_top1 = metrics.top1;
                    epochs_since_best = 0;
                    if self.config.restore_best {
                        best_snapshot = Some((network.snapshot(), metrics));
                    }
                } else {
                    epochs_since_best += 1;
                    if let Some(es) = self.config.early_stopping {
                        if epochs_since_best > es.patience {
                            report.stopped_early = true;
                            break;
                        }
                    }
                }
            }
        }
        optimizer.set_learning_rate(base_lr);
        if let Some((snap, metrics)) = best_snapshot {
            // `evaluate` is a pure function of the restored state (values,
            // masks, batch-norm running statistics), so the snapshot's
            // metrics are the restored network's.
            network.restore(&snap);
            current = Some(metrics);
        }
        if validate {
            // Known unless no epoch ran and nothing evaluated the start.
            report.final_metrics = Some(current.unwrap_or_else(|| evaluate(network, val_batches)));
        }
        if report.best_val_top1 == f32::NEG_INFINITY {
            report.best_val_top1 = f32::NAN;
        }
        Ok(report)
    }
}

/// Error signalling that training produced non-finite activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainDiverged;

impl std::fmt::Display for TrainDiverged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "training diverged: network produced non-finite logits")
    }
}

impl std::error::Error for TrainDiverged {}

/// Evaluates a network over batches, computing loss and Top-1/Top-5
/// accuracy (the two quality metrics the paper recommends always reporting
/// together).
pub fn evaluate(network: &mut dyn Network, batches: &[Batch]) -> EvalMetrics {
    let _s = sb_trace::span("eval");
    let mut loss_sum = 0.0f64;
    let mut top1_hits = 0usize;
    let mut top5_hits = 0usize;
    let mut samples = 0usize;
    for (x, labels) in batches {
        let logits = network.forward(x, Mode::Eval);
        let out = cross_entropy(&logits, labels);
        loss_sum += out.loss as f64 * labels.len() as f64;
        let k = 5.min(network.num_classes());
        let topk = logits.topk_rows(k);
        // Hit counting fans out over fixed 64-row blocks; integer partials
        // fold in block order (counts are order-independent anyway, but the
        // runtime contract keeps even float folds reproducible).
        let (b1, b5) = sb_runtime::parallel_for(
            labels.len(),
            64,
            |rows| {
                let mut h1 = 0usize;
                let mut h5 = 0usize;
                for i in rows {
                    let label = labels[i];
                    if topk[i][0] == label {
                        h1 += 1;
                    }
                    if topk[i].contains(&label) {
                        h5 += 1;
                    }
                }
                (h1, h5)
            },
            (0usize, 0usize),
            |(a1, a5), (h1, h5)| (a1 + h1, a5 + h5),
        );
        top1_hits += b1;
        top5_hits += b5;
        samples += labels.len();
    }
    assert!(samples > 0, "evaluate requires at least one sample");
    EvalMetrics {
        loss: (loss_sum / samples as f64) as f32,
        top1: top1_hits as f32 / samples as f32,
        top5: top5_hits as f32 / samples as f32,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mlp;
    use crate::optim::Sgd;
    use sb_tensor::Rng;

    /// Linearly separable two-class blobs.
    fn blob_batches(n: usize, seed: u64) -> Vec<Batch> {
        let mut rng = Rng::seed_from(seed);
        let mut batches = Vec::new();
        for _ in 0..n {
            let mut xs = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..8 {
                let class = rng.below(2);
                let center = if class == 0 { -2.0 } else { 2.0 };
                xs.push(Tensor::from_fn(&[4], |_| rng.normal_with(center, 0.5)));
                labels.push(class);
            }
            batches.push((Tensor::stack_rows(&xs), labels));
        }
        batches
    }

    #[test]
    fn fit_learns_separable_blobs() {
        let mut rng = Rng::seed_from(0);
        let mut net = mlp(4, &[8], 2, &mut rng);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        });
        let val = blob_batches(2, 100);
        let report = trainer
            .fit(&mut net, &mut opt, |e| blob_batches(4, e as u64), &val)
            .unwrap();
        assert_eq!(report.epoch_losses.len(), 10);
        let metrics = evaluate(&mut net, &val);
        assert!(metrics.top1 > 0.9, "top1 {}", metrics.top1);
        // Two classes → top-5 is trivially 1.
        assert_eq!(metrics.top5, 1.0);
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        let mut rng = Rng::seed_from(1);
        let mut net = mlp(4, &[4], 2, &mut rng);
        // Zero learning rate → no improvement → early stop after patience.
        let mut opt = Sgd::new(1e-12);
        let trainer = Trainer::new(TrainConfig {
            epochs: 50,
            early_stopping: Some(EarlyStopping { patience: 2 }),
            ..TrainConfig::default()
        });
        let val = blob_batches(1, 7);
        let report = trainer
            .fit(&mut net, &mut opt, |_| blob_batches(1, 3), &val)
            .unwrap();
        assert!(report.stopped_early);
        assert!(report.epoch_losses.len() < 50);
    }

    #[test]
    fn restore_best_never_returns_worse_than_start() {
        // A destructive learning rate wrecks every epoch; with
        // restore_best the network must come back unchanged.
        let mut rng = Rng::seed_from(7);
        let mut net = mlp(4, &[8], 2, &mut rng);
        let val = blob_batches(2, 20);
        // Make the starting model decent first.
        let mut warm = Sgd::new(0.1).momentum(0.9);
        Trainer::new(TrainConfig { epochs: 6, ..TrainConfig::default() })
            .fit(&mut net, &mut warm, |e| blob_batches(3, e as u64), &val)
            .unwrap();
        let before = evaluate(&mut net, &val);
        let mut destructive = Sgd::new(50.0);
        let report = Trainer::new(TrainConfig {
            epochs: 3,
            restore_best: true,
            ..TrainConfig::default()
        })
        .fit(&mut net, &mut destructive, |e| blob_batches(3, 100 + e as u64), &val);
        if report.is_ok() {
            let after = evaluate(&mut net, &val);
            assert!(after.top1 >= before.top1 - 1e-6, "{} < {}", after.top1, before.top1);
        } // a divergence Err is also acceptable: caller handles it
    }

    #[test]
    fn restore_best_rewinds_to_best_epoch() {
        let mut rng = Rng::seed_from(2);
        let mut net = mlp(4, &[8], 2, &mut rng);
        let mut opt = Sgd::new(0.1);
        let trainer = Trainer::new(TrainConfig {
            epochs: 6,
            restore_best: true,
            ..TrainConfig::default()
        });
        let val = blob_batches(2, 11);
        let report = trainer
            .fit(&mut net, &mut opt, |e| blob_batches(3, e as u64), &val)
            .unwrap();
        // Network must now evaluate at exactly the reported best accuracy.
        let metrics = evaluate(&mut net, &val);
        assert!((metrics.top1 - report.best_val_top1).abs() < 1e-6);
    }

    #[test]
    fn final_metrics_are_those_of_the_returned_weights() {
        let val = blob_batches(2, 12);
        for restore_best in [false, true] {
            let trainer = Trainer::new(TrainConfig {
                epochs: 4,
                restore_best,
                ..TrainConfig::default()
            });
            let mut net = mlp(4, &[8], 2, &mut Rng::seed_from(8));
            let mut twin = mlp(4, &[8], 2, &mut Rng::seed_from(8));
            let start = evaluate(&mut twin, &val);
            let fit = trainer
                .fit(
                    &mut net,
                    &mut Sgd::new(0.5),
                    |e| blob_batches(3, e as u64),
                    &val,
                )
                .unwrap();
            let from = trainer
                .fit_from(
                    &mut twin,
                    &mut Sgd::new(0.5),
                    |e| blob_batches(3, e as u64),
                    &val,
                    Some(start),
                )
                .unwrap();
            assert_eq!(fit.final_metrics, Some(evaluate(&mut net, &val)));
            assert_eq!(from.final_metrics, fit.final_metrics);
            assert_eq!(from.val_top1, fit.val_top1);
            assert_eq!(twin.snapshot(), net.snapshot());
        }
        let no_val = Trainer::new(TrainConfig::default())
            .fit(
                &mut mlp(4, &[4], 2, &mut Rng::seed_from(9)),
                &mut Sgd::new(0.1),
                |_| blob_batches(1, 5),
                &[],
            )
            .unwrap();
        assert_eq!(no_val.final_metrics, None);
    }

    #[test]
    fn schedule_is_applied_and_base_lr_restored() {
        let mut rng = Rng::seed_from(3);
        let mut net = mlp(4, &[4], 2, &mut rng);
        let mut opt = Sgd::new(0.1);
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            schedule: LrSchedule::StepDecay { every: 1, gamma: 0.1 },
            ..TrainConfig::default()
        });
        trainer
            .fit(&mut net, &mut opt, |_| blob_batches(1, 5), &[])
            .unwrap();
        assert!((opt.learning_rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn divergence_is_reported() {
        let mut rng = Rng::seed_from(4);
        let mut net = mlp(2, &[4], 2, &mut rng);
        // Poison a weight with NaN.
        net.visit_params(&mut |p| p.value_mut().data_mut()[0] = f32::NAN);
        let mut opt = Sgd::new(0.1);
        let batch = (Tensor::ones(&[1, 2]), vec![0]);
        assert_eq!(
            Trainer::train_step(&mut net, &mut opt, &batch),
            Err(TrainDiverged)
        );
    }

    #[test]
    fn evaluate_counts_samples() {
        let mut rng = Rng::seed_from(5);
        let mut net = mlp(4, &[4], 2, &mut rng);
        let batches = blob_batches(3, 9);
        let metrics = evaluate(&mut net, &batches);
        assert_eq!(metrics.samples, 24);
    }
}
