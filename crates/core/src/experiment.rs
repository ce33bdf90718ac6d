//! Multi-seed experiment orchestration: the part of ShrinkBench that
//! "compute[s] metrics across many models, datasets, random seeds, and
//! levels of pruning" (paper Section 7.1).
//!
//! An [`ExperimentConfig`] fully determines a result grid: datasets and
//! pretrained weights are derived from fixed seeds, and each
//! (strategy, compression, seed) cell reruns Algorithm 1 from the same
//! pretrained snapshot. Results persist as JSON so figures can be
//! regenerated without recomputation.

use crate::finetune::{prune_and_retrain, FinetuneConfig, OptimizerKind};
use crate::strategy::StrategyKind;
use sb_data::{batches_of, first_batch_of, DatasetSpec, Split, SyntheticVision};
use sb_metrics::{mean_std, MeanStd};
use sb_nn::{
    models, EarlyStopping, EvalMetrics, LrSchedule, NetworkExt, ParamSnapshot, TrainConfig, Trainer,
};
use sb_runtime::{JobQueue, JobSpec};
use sb_tensor::Rng;
use sb_json::{json_enum, json_struct, FromJson, Json, JsonError, ToJson};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Which synthetic dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// [`DatasetSpec::mnist_like`].
    MnistLike,
    /// [`DatasetSpec::cifar_like`].
    CifarLike,
    /// [`DatasetSpec::imagenet_like`].
    ImagenetLike,
}

json_enum!(DatasetKind { MnistLike, CifarLike, ImagenetLike });

impl DatasetKind {
    /// Materializes the spec, shrunken by `scale` (1 = full size).
    pub fn spec(&self, scale: usize, seed: u64) -> DatasetSpec {
        let base = match self {
            DatasetKind::MnistLike => DatasetSpec::mnist_like(seed),
            DatasetKind::CifarLike => DatasetSpec::cifar_like(seed),
            DatasetKind::ImagenetLike => DatasetSpec::imagenet_like(seed),
        };
        if scale > 1 {
            base.scaled_down(scale)
        } else {
            base
        }
    }

    /// Display name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::MnistLike => "MNIST-like",
            DatasetKind::CifarLike => "CIFAR-like",
            DatasetKind::ImagenetLike => "ImageNet-like",
        }
    }
}

/// Which architecture an experiment prunes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// [`models::lenet_300_100`].
    Lenet300_100,
    /// [`models::lenet5`].
    Lenet5,
    /// [`models::cifar_vgg`] at the given stem width.
    CifarVgg {
        /// Stage-1 channel count (original: 64).
        base_width: usize,
    },
    /// [`models::cifar_vgg_variant`] — the dropout/smaller-head variant
    /// used by the architecture-ambiguity experiment.
    CifarVggVariant {
        /// Stage-1 channel count.
        base_width: usize,
    },
    /// [`models::resnet_cifar`] of the given depth and stem width.
    ResNetCifar {
        /// Depth `6n + 2` (20, 56, 110, ...).
        depth: usize,
        /// Stem channel count (original: 16).
        base_width: usize,
    },
    /// [`models::resnet18`] at the given stem width.
    ResNet18 {
        /// Stem channel count (original: 64).
        base_width: usize,
    },
}

impl ToJson for ModelKind {
    fn to_json(&self) -> Json {
        // Externally tagged, matching the layout the previous serde-based
        // format wrote: unit variants as strings, payload variants as
        // single-key objects.
        let tagged = |name: &str, fields: Vec<(String, Json)>| {
            Json::Obj(vec![(name.to_string(), Json::Obj(fields))])
        };
        match self {
            ModelKind::Lenet300_100 => Json::Str("Lenet300_100".to_string()),
            ModelKind::Lenet5 => Json::Str("Lenet5".to_string()),
            ModelKind::CifarVgg { base_width } => tagged(
                "CifarVgg",
                vec![("base_width".to_string(), base_width.to_json())],
            ),
            ModelKind::CifarVggVariant { base_width } => tagged(
                "CifarVggVariant",
                vec![("base_width".to_string(), base_width.to_json())],
            ),
            ModelKind::ResNetCifar { depth, base_width } => tagged(
                "ResNetCifar",
                vec![
                    ("depth".to_string(), depth.to_json()),
                    ("base_width".to_string(), base_width.to_json()),
                ],
            ),
            ModelKind::ResNet18 { base_width } => tagged(
                "ResNet18",
                vec![("base_width".to_string(), base_width.to_json())],
            ),
        }
    }
}

impl FromJson for ModelKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Json::Str(s) = v {
            return match s.as_str() {
                "Lenet300_100" => Ok(ModelKind::Lenet300_100),
                "Lenet5" => Ok(ModelKind::Lenet5),
                other => Err(JsonError::UnknownVariant {
                    name: other.to_string(),
                }),
            };
        }
        if let Some(body) = v.get("CifarVgg") {
            return Ok(ModelKind::CifarVgg {
                base_width: sb_json::field(body, "base_width")?,
            });
        }
        if let Some(body) = v.get("CifarVggVariant") {
            return Ok(ModelKind::CifarVggVariant {
                base_width: sb_json::field(body, "base_width")?,
            });
        }
        if let Some(body) = v.get("ResNetCifar") {
            return Ok(ModelKind::ResNetCifar {
                depth: sb_json::field(body, "depth")?,
                base_width: sb_json::field(body, "base_width")?,
            });
        }
        if let Some(body) = v.get("ResNet18") {
            return Ok(ModelKind::ResNet18 {
                base_width: sb_json::field(body, "base_width")?,
            });
        }
        Err(JsonError::Mismatch {
            expected: "ModelKind variant".to_string(),
            found: v.type_name().to_string(),
        })
    }
}

impl ModelKind {
    /// Builds the network for `spec`, seeding weights from `weights_rng`.
    pub fn build(&self, spec: &DatasetSpec, weights_rng: &mut Rng) -> models::Model {
        match self {
            ModelKind::Lenet300_100 => models::lenet_300_100(
                spec.channels * spec.side * spec.side,
                spec.classes,
                weights_rng,
            ),
            ModelKind::Lenet5 => models::lenet5(spec.channels, spec.side, spec.classes, weights_rng),
            ModelKind::CifarVgg { base_width } => {
                models::cifar_vgg(spec.channels, spec.side, spec.classes, *base_width, weights_rng)
            }
            ModelKind::CifarVggVariant { base_width } => models::cifar_vgg_variant(
                spec.channels,
                spec.side,
                spec.classes,
                *base_width,
                weights_rng,
            ),
            ModelKind::ResNetCifar { depth, base_width } => models::resnet_cifar(
                *depth,
                spec.channels,
                spec.side,
                spec.classes,
                *base_width,
                weights_rng,
            ),
            ModelKind::ResNet18 { base_width } => {
                models::resnet18(spec.channels, spec.side, spec.classes, *base_width, weights_rng)
            }
        }
    }

    /// Whether the architecture consumes flattened `[N, D]` inputs.
    pub fn flatten_input(&self) -> bool {
        matches!(self, ModelKind::Lenet300_100)
    }

    /// Display name used in reports.
    pub fn label(&self) -> String {
        match self {
            ModelKind::Lenet300_100 => "LeNet-300-100".to_string(),
            ModelKind::Lenet5 => "LeNet-5".to_string(),
            ModelKind::CifarVgg { .. } => "CIFAR-VGG".to_string(),
            // Deliberately the same display label as the base model —
            // that is Section 5.1's point.
            ModelKind::CifarVggVariant { .. } => "CIFAR-VGG".to_string(),
            ModelKind::ResNetCifar { depth, .. } => format!("ResNet-{depth}"),
            ModelKind::ResNet18 { .. } => "ResNet-18".to_string(),
        }
    }
}

/// How the initial ("pretrained") model is obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainConfig {
    /// Training epochs to convergence.
    pub epochs: usize,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Minibatch size.
    pub batch_size: usize,
    /// Seed for weight initialization and batch order (fixing it gives
    /// the standardized pretrained weights ShrinkBench ships).
    pub weights_seed: u64,
    /// Early-stopping patience, if any.
    pub patience: Option<usize>,
}

json_struct!(PretrainConfig { epochs, optimizer, batch_size, weights_seed, patience });

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            epochs: 20,
            optimizer: OptimizerKind::Adam { lr: 1e-3 },
            batch_size: 64,
            weights_seed: 0xA11CE,
            patience: Some(4),
        }
    }
}

/// A full experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Unique identifier (cache key and report title).
    pub id: String,
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Dataset shrink divisor (1 = preset size).
    pub data_scale: usize,
    /// Dataset generation seed.
    pub data_seed: u64,
    /// Architecture.
    pub model: ModelKind,
    /// Pruning strategies to sweep.
    pub strategies: Vec<StrategyKind>,
    /// Target compression ratios (the paper recommends
    /// `{2, 4, 8, 16, 32}`; 1 is allowed as the dense control).
    pub compressions: Vec<f64>,
    /// Random seeds (paper: three per CIFAR configuration).
    pub seeds: Vec<u64>,
    /// Pretraining recipe.
    pub pretrain: PretrainConfig,
    /// Fine-tuning recipe.
    pub finetune: FinetuneConfig,
}

json_struct!(ExperimentConfig {
    id,
    dataset,
    data_scale,
    data_seed,
    model,
    strategies,
    compressions,
    seeds,
    pretrain,
    finetune
});

/// One grid cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Experiment id this record belongs to.
    pub experiment: String,
    /// Strategy legend label.
    pub strategy: String,
    /// Requested compression.
    pub target_compression: f64,
    /// Run seed.
    pub seed: u64,
    /// Achieved compression ratio.
    pub compression: f64,
    /// Achieved theoretical speedup.
    pub speedup: f64,
    /// Validation Top-1 after fine-tuning.
    pub top1: f32,
    /// Validation Top-5 after fine-tuning.
    pub top5: f32,
    /// Validation Top-1 after pruning, before fine-tuning.
    pub top1_before_finetune: f32,
    /// Pretrained (dense) model's validation Top-1 — the control the
    /// paper insists on reporting.
    pub pretrain_top1: f32,
    /// Pretrained model's validation Top-5.
    pub pretrain_top5: f32,
    /// Wall-clock speedup of the `sb-infer`-compiled pruned model over
    /// the dense-compiled baseline; `None` when the runner did not
    /// measure latency (the default — timing is machine-dependent and
    /// would break record-level reproducibility).
    pub realized_speedup: Option<f64>,
    /// Median compiled-forward latency per evaluation batch, in
    /// microseconds; `None` when latency was not measured.
    pub latency_us: Option<f64>,
}

json_struct!(RunRecord {
    experiment,
    strategy,
    target_compression,
    seed,
    compression,
    speedup,
    top1,
    top5,
    top1_before_finetune,
    pretrain_top1,
    pretrain_top5,
    realized_speedup,
    latency_us
});

/// Mean ± std summary of one (strategy, compression) cell across seeds.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Strategy legend label.
    pub strategy: String,
    /// Requested compression.
    pub target_compression: f64,
    /// Achieved compression across seeds.
    pub compression: MeanStd,
    /// Achieved speedup across seeds.
    pub speedup: MeanStd,
    /// Top-1 after fine-tuning.
    pub top1: MeanStd,
    /// Top-5 after fine-tuning.
    pub top5: MeanStd,
    /// Realized (wall-clock) speedup across the seeds that measured it;
    /// `None` when no record in the cell carries latency data.
    pub realized_speedup: Option<MeanStd>,
    /// Median compiled-forward latency across measuring seeds (µs).
    pub latency_us: Option<MeanStd>,
}

json_struct!(CellSummary {
    strategy,
    target_compression,
    compression,
    speedup,
    top1,
    top5,
    realized_speedup,
    latency_us
});

/// Executes experiment grids with JSON result caching.
#[derive(Debug, Clone, Default)]
pub struct ExperimentRunner {
    /// Directory for cached results; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Print per-cell progress to stderr.
    pub verbose: bool,
    /// Also compile each pruned model with `sb-infer` and record its
    /// wall-clock latency and realized speedup over a dense-compiled
    /// baseline. Off by default: timings are machine-dependent, so
    /// enabling this intentionally gives up byte-identical re-runs of
    /// the record stream (the deterministic fields are unaffected).
    pub measure_latency: bool,
}

struct CacheFile {
    config: ExperimentConfig,
    records: Vec<RunRecord>,
}

json_struct!(CacheFile { config, records });

/// One persisted grid cell: the record plus the fingerprint of the
/// configuration it was computed under, so a cell file left behind by a
/// *different* grid definition can never be resumed by mistake.
struct CellCacheFile {
    fingerprint: String,
    record: RunRecord,
}

json_struct!(CellCacheFile { fingerprint, record });

/// Outcome of a grid run, including how much of it was resumed from the
/// per-cell cache rather than recomputed.
#[derive(Debug, Clone)]
pub struct GridRunSummary {
    /// One record per (strategy, compression, seed) cell, in grid order.
    pub records: Vec<RunRecord>,
    /// Cells loaded from cache (whole-grid or per-cell) without training.
    pub resumed: usize,
    /// Cells actually computed in this run.
    pub computed: usize,
}

/// FNV-1a 64-bit over the config's canonical JSON, as a hex string.
/// (Hex rather than a JSON number: sb-json numbers are f64-backed, which
/// cannot represent every u64 exactly.)
fn config_fingerprint(config: &ExperimentConfig) -> String {
    let text = sb_json::to_string(config).expect("config serializes");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

impl ExperimentRunner {
    /// Creates a runner caching into `dir`.
    pub fn with_cache(dir: impl Into<PathBuf>) -> Self {
        ExperimentRunner {
            cache_dir: Some(dir.into()),
            verbose: false,
            measure_latency: false,
        }
    }

    fn cache_path(&self, id: &str) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| d.join(format!("{id}.json")))
    }

    /// Pretrains the experiment's model on its dataset, returning the
    /// network, its validation metrics, and the snapshot reused by every
    /// grid cell.
    pub fn pretrain(
        config: &ExperimentConfig,
        data: &SyntheticVision,
    ) -> (models::Model, EvalMetrics, Vec<ParamSnapshot>) {
        let (net, metrics, trained, _init) = Self::pretrain_with_init(config, data);
        (net, metrics, trained)
    }

    /// Like [`ExperimentRunner::pretrain`], additionally returning the
    /// snapshot taken *before* training — the rewind target for
    /// lottery-ticket-style weight policies.
    pub fn pretrain_with_init(
        config: &ExperimentConfig,
        data: &SyntheticVision,
    ) -> (
        models::Model,
        EvalMetrics,
        Vec<ParamSnapshot>,
        Vec<ParamSnapshot>,
    ) {
        let mut weights_rng = Rng::seed_from(config.pretrain.weights_seed);
        let mut net = config.model.build(data.spec(), &mut weights_rng);
        let init_snapshot = net.snapshot();
        let flatten = config.model.flatten_input();
        let val = batches_of(data, Split::Val, config.pretrain.batch_size, None, flatten);
        let mut optimizer = config.pretrain.optimizer.build();
        let trainer = Trainer::new(TrainConfig {
            epochs: config.pretrain.epochs,
            schedule: LrSchedule::Fixed,
            early_stopping: config
                .pretrain
                .patience
                .map(|p| EarlyStopping { patience: p }),
            restore_best: true,
        });
        let mut epoch_rng = Rng::seed_from(config.pretrain.weights_seed ^ 0x0E90C4);
        let report = trainer
            .fit(
                &mut net,
                optimizer.as_mut(),
                |epoch| {
                    let mut fork = epoch_rng.fork(epoch as u64);
                    batches_of(
                        data,
                        Split::Train,
                        config.pretrain.batch_size,
                        Some(&mut fork),
                        flatten,
                    )
                },
                &val,
            )
            .unwrap_or_else(|d| panic!("pretraining diverged: {d}"));
        let metrics = report
            .final_metrics
            .expect("a validation split is never empty");
        let snapshot = net.snapshot();
        (net, metrics, snapshot, init_snapshot)
    }

    /// Runs (or loads from cache) the full grid.
    pub fn run(&self, config: &ExperimentConfig) -> Vec<RunRecord> {
        self.run_with_summary(config).records
    }

    /// Runs the grid, reporting how many cells were resumed from cache.
    ///
    /// Cells are submitted to a [`JobQueue`] in grid order (strategy ×
    /// compression × seed) and joined in that same order, so the record
    /// vector — and everything serialized from it — is identical for any
    /// `SB_RUNTIME_THREADS`. Each cell is a pure function of the config:
    /// the model is rebuilt from `weights_seed` and restored from the
    /// pretrained snapshot inside the job, so no RNG or parameter state
    /// leaks between cells regardless of execution order.
    ///
    /// With a cache directory set, every finished cell is persisted as
    /// `{id}.cells/cell-s{si}-c{ci}-r{wi}.json` tagged with the config's
    /// fingerprint, and the finished grid as `{id}.json`. A rerun reads
    /// every cell file before it trains anything: a cell whose file
    /// parses and carries the config's fingerprint is resumed, any other
    /// is recomputed. When every cell is resumed, the grid neither builds
    /// its dataset nor pretrains; otherwise it pretrains once and computes
    /// only the missing cells. Cache files are written to a temp file and
    /// renamed into place, so a crash never leaves a truncated one; a
    /// failed write is counted (`cache_write_failures`) and warned about,
    /// and the run still returns its records.
    pub fn run_with_summary(&self, config: &ExperimentConfig) -> GridRunSummary {
        let summary = {
            let _grid = sb_trace::span_with(|| format!("grid:{}", config.id));
            self.run_grid(config)
        };
        // The grid span is closed (and this thread's buffers flushed), so
        // the snapshot below contains everything the grid recorded.
        if sb_trace::enabled() {
            if let Some(dir) = &self.cache_dir {
                let trace = sb_trace::report().subtree(&format!("grid:{}", config.id));
                if let Ok(json) = sb_json::to_string_pretty(&trace) {
                    write_cache_file(&dir.join(format!("{}.trace.json", config.id)), &json);
                }
                write_cache_file(
                    &dir.join(format!("{}.flame.txt", config.id)),
                    &trace.flamegraph(),
                );
            }
        }
        summary
    }

    fn run_grid(&self, config: &ExperimentConfig) -> GridRunSummary {
        if let Some(path) = self.cache_path(&config.id) {
            if let Ok(bytes) = fs::read(&path) {
                if let Ok(cache) = sb_json::from_slice::<CacheFile>(&bytes) {
                    if &cache.config == config {
                        if self.verbose {
                            eprintln!("[{}] loaded {} cached records", config.id, cache.records.len());
                        }
                        let resumed = cache.records.len();
                        sb_trace::count(sb_trace::CounterId::CacheHits, 1);
                        sb_trace::count(sb_trace::CounterId::CellsResumed, resumed as u64);
                        return GridRunSummary { records: cache.records, resumed, computed: 0 };
                    }
                }
            }
        }

        // Probe every cell file, in grid order, before any training. This
        // is the only place a cell file is read.
        let t0 = Instant::now();
        let fingerprint = config_fingerprint(config);
        let cell_dir = self
            .cache_dir
            .as_ref()
            .map(|d| d.join(format!("{}.cells", config.id)));
        let cells = grid_cells(config);
        let cached: Vec<Option<RunRecord>> = cells
            .iter()
            .map(|cell| {
                let bytes =
                    fs::read(cell_dir.as_ref()?.join(format!("{}.json", cell.name))).ok()?;
                let file = sb_json::from_slice::<CellCacheFile>(&bytes).ok()?;
                (file.fingerprint == fingerprint).then_some(file.record)
            })
            .collect();
        let resumed = cached.iter().flatten().count();
        let computed = cached.len() - resumed;
        sb_trace::count(sb_trace::CounterId::CacheHits, resumed as u64);

        // Every record carries its pretrain metrics, so a fully cached grid
        // needs neither the dataset nor the pretrained model.
        let records = if computed == 0 {
            cached.into_iter().flatten().collect()
        } else {
            self.compute_missing(config, cells, cached, fingerprint, cell_dir)
        };
        sb_trace::count(sb_trace::CounterId::CellsResumed, resumed as u64);
        sb_trace::count(sb_trace::CounterId::CellsComputed, computed as u64);
        if self.verbose {
            eprintln!(
                "[{}] grid complete: {computed} computed, {resumed} resumed ({:?})",
                config.id,
                t0.elapsed()
            );
        }

        if let Some(path) = self.cache_path(&config.id) {
            let cache = CacheFile {
                config: config.clone(),
                records: records.clone(),
            };
            if let Ok(json) = sb_json::to_string_pretty(&cache) {
                write_cache_file(&path, &json);
            }
        }
        GridRunSummary {
            records,
            resumed,
            computed,
        }
    }

    /// Pretrains once and computes every cell that `cached` lacks on a
    /// [`JobQueue`], returning all records in grid order.
    fn compute_missing(
        &self,
        config: &ExperimentConfig,
        cells: Vec<GridCell>,
        cached: Vec<Option<RunRecord>>,
        fingerprint: String,
        cell_dir: Option<PathBuf>,
    ) -> Vec<RunRecord> {
        let data = Arc::new(SyntheticVision::new(
            config.dataset.spec(config.data_scale, config.data_seed),
        ));
        let t0 = Instant::now();
        let (_net, pre_metrics, snapshot, init_snapshot) = {
            let _pretrain = sb_trace::span("pretrain");
            Self::pretrain_with_init(config, &data)
        };
        let snapshot = Arc::new(snapshot);
        let init_snapshot = Arc::new(init_snapshot);
        if self.verbose {
            eprintln!(
                "[{}] pretrained {} on {}: top1 {:.3} top5 {:.3} ({:?})",
                config.id,
                config.model.label(),
                data.spec().name,
                pre_metrics.top1,
                pre_metrics.top5,
                t0.elapsed()
            );
        }

        let mut finetune = config.finetune.clone();
        finetune.flatten_input = config.model.flatten_input();

        // Submit every missing cell in grid order; cached cells stay
        // `Done`. Joining the handles in the same order reassembles the
        // exact sequential record vector.
        enum Slot {
            Done(RunRecord),
            Pending(sb_runtime::JobHandle<RunRecord>),
        }
        let queue = JobQueue::new();
        let slots: Vec<Slot> = cells
            .into_iter()
            .zip(cached)
            .map(|(cell, hit)| {
                if let Some(record) = hit {
                    return Slot::Done(record);
                }
                let job = CellJob {
                    id: config.id.clone(),
                    model: config.model.clone(),
                    strategy: cell.strategy,
                    compression: cell.compression,
                    seed: cell.seed,
                    weights_seed: config.pretrain.weights_seed,
                    finetune: finetune.clone(),
                    data: Arc::clone(&data),
                    snapshot: Arc::clone(&snapshot),
                    init_snapshot: Arc::clone(&init_snapshot),
                    pre_metrics,
                    fingerprint: fingerprint.clone(),
                    cell_path: cell_dir
                        .as_ref()
                        .map(|d| d.join(format!("{}.json", cell.name))),
                    verbose: self.verbose,
                    measure_latency: self.measure_latency,
                };
                let spec = JobSpec::new().label(format!("{}:{}", config.id, cell.name));
                Slot::Pending(queue.submit(spec, move |_ctx| job.run()))
            })
            .collect();
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(record) => record,
                Slot::Pending(handle) => handle
                    .join()
                    .unwrap_or_else(|e| panic!("pruning failed in {}: {e}", config.id)),
            })
            .collect()
    }
}

/// One (strategy, compression, seed) cell of a grid, with the name its
/// cache file and job label use.
struct GridCell {
    name: String,
    strategy: StrategyKind,
    compression: f64,
    seed: u64,
}

/// Every cell of the grid, in grid order (strategy × compression × seed).
fn grid_cells(config: &ExperimentConfig) -> Vec<GridCell> {
    let mut cells = Vec::new();
    for (si, &strategy) in config.strategies.iter().enumerate() {
        for (ci, &compression) in config.compressions.iter().enumerate() {
            for (wi, &seed) in config.seeds.iter().enumerate() {
                cells.push(GridCell {
                    name: format!("cell-s{si}-c{ci}-r{wi}"),
                    strategy,
                    compression,
                    seed,
                });
            }
        }
    }
    cells
}

/// Writes one cache file through a temp file in the same directory
/// (`{name}.tmp`), renamed into place, creating the directory first. A
/// crash can leave a stale temp file, which no reader looks for and the
/// next write of the same path replaces, but never a truncated or empty
/// cache file. There is no fsync: a file lost with the machine is
/// recomputed like any other miss.
///
/// The cache only saves work, so a failed write does not fail the run: it
/// counts [`sb_trace::CounterId::CacheWriteFailures`] and prints a warning
/// naming the path to stderr. A run writes each path once, so a run warns
/// once per path.
fn write_cache_file(path: &Path, contents: &str) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        fs::write(&tmp, contents)?;
        fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        sb_trace::count(sb_trace::CounterId::CacheWriteFailures, 1);
        eprintln!(
            "warning: could not write cache file {}: {e}",
            path.display()
        );
    }
}

/// Everything one grid cell needs, owned, so the cell can run on any
/// worker at any time. Rebuilding the model from `weights_seed` and
/// restoring the pretrained snapshot (which includes BatchNorm running
/// stats — they are parameters) makes the cell a pure function of this
/// struct; the previous in-place sequential loop let layer-internal RNG
/// state (e.g. dropout streams) leak from one cell into the next.
struct CellJob {
    id: String,
    model: ModelKind,
    strategy: StrategyKind,
    compression: f64,
    seed: u64,
    weights_seed: u64,
    finetune: FinetuneConfig,
    data: Arc<SyntheticVision>,
    snapshot: Arc<Vec<ParamSnapshot>>,
    init_snapshot: Arc<Vec<ParamSnapshot>>,
    pre_metrics: EvalMetrics,
    fingerprint: String,
    cell_path: Option<PathBuf>,
    verbose: bool,
    measure_latency: bool,
}

impl CellJob {
    fn run(&self) -> Result<RunRecord, String> {
        let t = Instant::now();
        let mut weights_rng = Rng::seed_from(self.weights_seed);
        let mut net = self.model.build(self.data.spec(), &mut weights_rng);
        net.restore(&self.snapshot);
        let strategy = self.strategy.build();
        let mut rng = Rng::seed_from(self.seed ^ 0x5EED_0000);
        let result = prune_and_retrain(
            &mut net,
            strategy.as_ref(),
            self.compression,
            &self.data,
            &self.finetune,
            Some(&self.init_snapshot),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        if self.verbose {
            eprintln!(
                "[{}] {} c={:<5} seed={} → top1 {:.3} (pre-ft {:.3}, speedup {:.2}×) ({:?})",
                self.id,
                strategy.label(),
                self.compression,
                self.seed,
                result.after_finetune.top1,
                result.before_finetune.top1,
                result.speedup,
                t.elapsed()
            );
        }
        let (realized_speedup, latency_us) = if self.measure_latency {
            self.measure_realized(&net)
        } else {
            (None, None)
        };
        let record = RunRecord {
            experiment: self.id.clone(),
            strategy: strategy.label(),
            target_compression: self.compression,
            seed: self.seed,
            compression: result.compression,
            speedup: result.speedup,
            top1: result.after_finetune.top1,
            top5: result.after_finetune.top5,
            top1_before_finetune: result.before_finetune.top1,
            pretrain_top1: self.pre_metrics.top1,
            pretrain_top5: self.pre_metrics.top5,
            realized_speedup,
            latency_us,
        };
        if let Some(path) = &self.cell_path {
            let cell = CellCacheFile {
                fingerprint: self.fingerprint.clone(),
                record: record.clone(),
            };
            if let Ok(json) = sb_json::to_string_pretty(&cell) {
                write_cache_file(path, &json);
            }
        }
        Ok(record)
    }

    /// Compiles the pruned model with `sb-infer` (cost-model formats) and
    /// a dense-compiled baseline, then times both over one validation
    /// batch: `(realized speedup, median latency in µs)`.
    fn measure_realized(&self, net: &sb_nn::models::Model) -> (Option<f64>, Option<f64>) {
        let batch = first_batch_of(&self.data, Split::Val, 64, None, self.model.flatten_input());
        let Some((x, _)) = batch else {
            return (None, None);
        };
        let compiled =
            sb_infer::CompiledModel::compile(net, &sb_infer::CompileOptions::default());
        let dense = sb_infer::CompiledModel::compile(
            net,
            &sb_infer::CompileOptions {
                force_format: Some(sb_infer::ExecFormat::Dense),
                ..sb_infer::CompileOptions::default()
            },
        );
        let profile = sb_metrics::RealizedProfile::measure(
            5,
            compiled.storage_bytes(),
            || {
                compiled.forward(&x);
            },
            || {
                dense.forward(&x);
            },
        );
        (Some(profile.realized_speedup), Some(profile.latency_us))
    }
}

/// Aggregates records into per-(strategy, compression) summaries with
/// mean ± std across seeds, ordered by strategy then compression.
pub fn summarize(records: &[RunRecord]) -> Vec<CellSummary> {
    let mut keys: Vec<(String, f64)> = Vec::new();
    for r in records {
        let key = (r.strategy.clone(), r.target_compression);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys.iter()
        .map(|(strategy, compression)| {
            let cell: Vec<&RunRecord> = records
                .iter()
                .filter(|r| &r.strategy == strategy && r.target_compression == *compression)
                .collect();
            let f = |g: &dyn Fn(&RunRecord) -> f64| {
                mean_std(&cell.iter().map(|r| g(r)).collect::<Vec<_>>())
            };
            let opt = |g: &dyn Fn(&RunRecord) -> Option<f64>| {
                let xs: Vec<f64> = cell.iter().filter_map(|r| g(r)).collect();
                if xs.is_empty() {
                    None
                } else {
                    Some(mean_std(&xs))
                }
            };
            CellSummary {
                strategy: strategy.clone(),
                target_compression: *compression,
                compression: f(&|r| r.compression),
                speedup: f(&|r| r.speedup),
                top1: f(&|r| r.top1 as f64),
                top5: f(&|r| r.top5 as f64),
                realized_speedup: opt(&|r| r.realized_speedup),
                latency_us: opt(&|r| r.latency_us),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(id: &str) -> ExperimentConfig {
        ExperimentConfig {
            id: id.to_string(),
            dataset: DatasetKind::MnistLike,
            data_scale: 16,
            data_seed: 0,
            model: ModelKind::Lenet300_100,
            strategies: vec![StrategyKind::GlobalMagnitude, StrategyKind::Random],
            compressions: vec![2.0, 8.0],
            seeds: vec![1, 2],
            pretrain: PretrainConfig {
                epochs: 3,
                patience: None,
                ..PretrainConfig::default()
            },
            finetune: FinetuneConfig {
                epochs: 1,
                patience: None,
                ..FinetuneConfig::default()
            },
        }
    }

    #[test]
    fn grid_produces_one_record_per_cell() {
        let runner = ExperimentRunner::default();
        let records = runner.run(&tiny_config("t1"));
        assert_eq!(records.len(), 2 * 2 * 2);
        // All pretrain metrics identical (same snapshot reused).
        let first = records[0].pretrain_top1;
        assert!(records.iter().all(|r| r.pretrain_top1 == first));
    }

    #[test]
    fn runs_are_reproducible() {
        let runner = ExperimentRunner::default();
        let a = runner.run(&tiny_config("t2"));
        let b = runner.run(&tiny_config("t2"));
        assert_eq!(a, b);
    }

    #[test]
    fn measure_latency_populates_realized_fields() {
        let mut config = tiny_config("t-latency");
        config.strategies = vec![StrategyKind::GlobalMagnitude];
        config.compressions = vec![4.0];
        config.seeds = vec![1];
        let runner = ExperimentRunner {
            measure_latency: true,
            ..ExperimentRunner::default()
        };
        let records = runner.run(&config);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        let realized = r.realized_speedup.expect("measured realized speedup");
        let latency = r.latency_us.expect("measured latency");
        assert!(realized > 0.0 && realized.is_finite());
        assert!(latency > 0.0 && latency.is_finite());
        let cells = summarize(&records);
        assert_eq!(cells[0].realized_speedup.as_ref().map(|m| m.n), Some(1));
        // The default runner leaves the optional fields empty, keeping
        // the record stream byte-identical run to run.
        let plain = ExperimentRunner::default().run(&config);
        assert_eq!(plain[0].realized_speedup, None);
        assert_eq!(plain[0].latency_us, None);
        let plain_cells = summarize(&plain);
        assert!(plain_cells[0].realized_speedup.is_none());
    }

    #[test]
    fn summarize_groups_cells() {
        let runner = ExperimentRunner::default();
        let records = runner.run(&tiny_config("t3"));
        let cells = summarize(&records);
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert_eq!(cell.top1.n, 2);
        }
    }

    #[test]
    fn cache_round_trips() {
        let dir = std::env::temp_dir().join("shrinkbench-test-cache");
        let _ = fs::remove_dir_all(&dir);
        let runner = ExperimentRunner::with_cache(&dir);
        let cfg = tiny_config("t4");
        let a = runner.run(&cfg);
        assert!(dir.join("t4.json").exists());
        let b = runner.run(&cfg);
        assert_eq!(a, b);
        // Changing the config invalidates the cache.
        let mut cfg2 = cfg.clone();
        cfg2.compressions = vec![4.0];
        let c = runner.run(&cfg2);
        assert_ne!(a.len(), c.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_grid_resumes_from_cell_cache() {
        let dir = std::env::temp_dir().join("shrinkbench-test-cell-resume");
        let _ = fs::remove_dir_all(&dir);
        let runner = ExperimentRunner::with_cache(&dir);
        let cfg = tiny_config("t5");
        let first = runner.run_with_summary(&cfg);
        assert_eq!(first.computed, 8);
        assert_eq!(first.resumed, 0);

        // Simulate a mid-run kill: the whole-grid result never landed and
        // one cell is missing, but the other cells survive on disk.
        fs::remove_file(dir.join("t5.json")).unwrap();
        fs::remove_file(dir.join("t5.cells").join("cell-s1-c1-r1.json")).unwrap();

        let second = runner.run_with_summary(&cfg);
        assert_eq!(second.resumed, 7, "surviving cells must not retrain");
        assert_eq!(second.computed, 1);
        assert_eq!(second.records, first.records);

        // A different grid definition must not resume these cells.
        let mut cfg2 = cfg.clone();
        cfg2.finetune.epochs = 2;
        let third = runner.run_with_summary(&cfg2);
        assert_eq!(third.resumed, 0, "stale-fingerprint cells must be recomputed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dataset_kind_specs() {
        assert_eq!(DatasetKind::MnistLike.spec(1, 0).channels, 1);
        assert_eq!(DatasetKind::ImagenetLike.spec(1, 0).classes, 60);
        assert!(DatasetKind::CifarLike.spec(4, 0).train_size < 1024);
    }

    #[test]
    fn model_kind_labels() {
        assert_eq!(
            ModelKind::ResNetCifar {
                depth: 56,
                base_width: 8
            }
            .label(),
            "ResNet-56"
        );
        assert!(ModelKind::Lenet300_100.flatten_input());
        assert!(!ModelKind::Lenet5.flatten_input());
    }
}
