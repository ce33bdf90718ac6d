//! `grid`: the researcher's job. Two small experiment grids run cold
//! through `ExperimentRunner::run_with_summary` into a fresh cache
//! directory, then each `{id}.json` is removed and the grids rerun, so
//! every cell is read back from its cell file. One grid is LeNet-300-100
//! on MNIST-like data (dense layers), the other ResNet-8 on CIFAR-like
//! data (conv, batch norm, residual). The workload calls tensor, nn,
//! data, core, runtime and json, and never infer, serve or sched, so
//! kernel and serving changes should leave it unchanged.
//!
//! Early stopping is off in both grids: the epoch count, and so the
//! work, is the same for every seed, which is what keeps the time
//! steady across seeds.

use crate::calib::Calibrator;
use crate::report::{median, ms, Metric, Report};
use crate::spans::Spans;
use crate::Ctx;
use sb_data::{batches_of, Split, SyntheticVision};
use shrinkbench::experiment::{
    DatasetKind, ExperimentConfig, ExperimentRunner, ModelKind, PretrainConfig,
};
use shrinkbench::{FinetuneConfig, OptimizerKind, ScheduleKind, StrategyKind, WeightPolicy};
use std::path::Path;
use std::time::Instant;

/// FNV-1a digest of both grids' records at [`crate::DEFAULT_SEED`]
/// (full size), as written by this workload. A change to it means the
/// training, pruning or serialization arithmetic changed.
const REFERENCE_DIGEST: &str = include_str!("grid.digest");

pub const LAYERS: &[(&str, &str)] = &[
    ("data.synth_ms", "ms"),
    ("core.pretrain_ms", "ms"),
    ("core.cell_ms_p50", "ms"),
    ("core.cell_ms_max", "ms"),
    ("core.prune_ms", "ms"),
    ("nn.finetune_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.step_ms", "ms"),
    ("nn.eval_ms", "ms"),
    ("nn.epochs_trained", "count"),
    ("core.cells_computed", "count"),
    ("core.cells_resumed", "count"),
];

fn grids(seed: u64, quick: bool) -> Vec<ExperimentConfig> {
    let finetune = FinetuneConfig {
        epochs: if quick { 1 } else { 2 },
        batch_size: 64,
        optimizer: OptimizerKind::Adam { lr: 3e-4 },
        schedule: ScheduleKind::OneShot,
        patience: None,
        flatten_input: false,
        exclude_classifier: true,
        weight_policy: WeightPolicy::Finetune,
    };
    let pretrain = PretrainConfig {
        epochs: if quick { 1 } else { 4 },
        optimizer: OptimizerKind::Adam { lr: 1e-3 },
        batch_size: 64,
        weights_seed: 0xA11CE,
        patience: None,
    };
    let mlp = ExperimentConfig {
        id: "bench-lenet300".to_string(),
        dataset: DatasetKind::MnistLike,
        data_scale: if quick { 16 } else { 4 },
        data_seed: seed,
        model: ModelKind::Lenet300_100,
        strategies: if quick {
            vec![StrategyKind::GlobalMagnitude]
        } else {
            vec![StrategyKind::GlobalMagnitude, StrategyKind::Random]
        },
        compressions: if quick {
            vec![1.0, 4.0]
        } else {
            vec![1.0, 4.0, 16.0]
        },
        seeds: vec![1],
        pretrain: pretrain.clone(),
        finetune: finetune.clone(),
    };
    let resnet_pretrain = PretrainConfig {
        epochs: if quick { 1 } else { 2 },
        ..pretrain.clone()
    };
    let resnet_finetune = FinetuneConfig {
        epochs: 1,
        ..finetune.clone()
    };
    let resnet = ExperimentConfig {
        id: "bench-resnet8".to_string(),
        dataset: DatasetKind::CifarLike,
        data_scale: if quick { 16 } else { 8 },
        data_seed: seed ^ 0x5EED,
        model: ModelKind::ResNetCifar {
            depth: 8,
            base_width: 4,
        },
        strategies: if quick {
            vec![StrategyKind::GlobalMagnitude]
        } else {
            vec![StrategyKind::GlobalMagnitude, StrategyKind::LayerMagnitude]
        },
        compressions: if quick { vec![4.0] } else { vec![2.0, 8.0] },
        seeds: vec![1],
        pretrain: resnet_pretrain,
        finetune: resnet_finetune,
    };
    vec![mlp, resnet]
}

/// Materializes both grids' datasets — the work the runner repeats
/// inside every pass, timed here as the set-up cost.
fn synthesize(cfgs: &[ExperimentConfig]) -> usize {
    let mut samples = 0;
    for cfg in cfgs {
        let data = SyntheticVision::new(cfg.dataset.spec(cfg.data_scale, cfg.data_seed));
        let flatten = cfg.model.flatten_input();
        for split in [Split::Train, Split::Val] {
            samples += batches_of(&data, split, 64, None, flatten)
                .iter()
                .map(|(_, labels)| labels.len())
                .sum::<usize>();
        }
    }
    samples
}

/// One pass over every grid: the records' JSON per grid, cells computed
/// and resumed, and the time in wall ms and in reference ms.
struct Pass {
    records: Vec<String>,
    computed: usize,
    resumed: usize,
    ms: f64,
    ref_ms: f64,
}

/// Each grid runs between two samples of the reference mix: a pass lasts
/// longer than many of the host's slow spells, so one sample per pass
/// would miss them.
fn pass(
    runner: &ExperimentRunner,
    cfgs: &[ExperimentConfig],
    span: &str,
    cal: &mut Calibrator,
) -> Pass {
    let mut out = Pass {
        records: Vec::new(),
        computed: 0,
        resumed: 0,
        ms: 0.0,
        ref_ms: 0.0,
    };
    for cfg in cfgs {
        let ((summary, wall_ms), mix_ms) = cal.around(|| {
            let t = Instant::now();
            let _span = sb_trace::span(span);
            let summary = runner.run_with_summary(cfg);
            (summary, ms(t.elapsed()))
        });
        out.records
            .push(sb_json::to_string(&summary.records).expect("records serialize"));
        out.computed += summary.computed;
        out.resumed += summary.resumed;
        out.ms += wall_ms;
        out.ref_ms += wall_ms / mix_ms;
    }
    out
}

/// Cold pass into a fresh cache, then a resumed pass reading each cell
/// file back. Returns `(cold, resumed)`.
fn rep(cfgs: &[ExperimentConfig], dir: &Path, cal: &mut Calibrator) -> (Pass, Pass) {
    let _ = std::fs::remove_dir_all(dir);
    let runner = ExperimentRunner::with_cache(dir);
    let cold = pass(&runner, cfgs, "bench:grid:cold", cal);
    for cfg in cfgs {
        std::fs::remove_file(dir.join(format!("{}.json", cfg.id)))
            .expect("the cold pass wrote the grid cache");
    }
    let resumed = pass(&runner, cfgs, "bench:grid:resume", cal);
    let _ = std::fs::remove_dir_all(dir);
    (cold, resumed)
}

/// FNV-1a 64 over the records' JSON, as hex.
fn digest(records: &[String]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in records.iter().flat_map(|r| r.bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let cfgs = grids(ctx.seed, ctx.quick);
    let cells: usize = cfgs
        .iter()
        .map(|c| c.strategies.len() * c.compressions.len() * c.seeds.len())
        .sum();

    let (_, synth_s) = ctx.set_up(|| std::hint::black_box(synthesize(&cfgs)));
    let dir = ctx.work_dir.join("grid");
    let mut cal = Calibrator::new(1);
    let (warm, _) = rep(&cfgs, &dir, &mut cal);

    let checked = |report: &mut Report, cold: &Pass, resumed: &Pass| {
        report.attempted += (cold.computed + resumed.resumed) as u64;
        report.check(cold.computed == cells && resumed.resumed == cells, || {
            format!(
                "grid: {} of {cells} cells computed cold, {} resumed",
                cold.computed, resumed.resumed
            )
        });
        report.check(resumed.records == cold.records, || {
            "grid: resumed records differ from cold records".to_string()
        });
        report.check(cold.records == warm.records, || {
            "grid: cold records differ between passes".to_string()
        });
    };
    let digest_now = digest(&warm.records);
    if ctx.seed == crate::DEFAULT_SEED && !ctx.quick {
        report.check(digest_now == REFERENCE_DIGEST.trim(), || {
            format!(
                "grid: records digest {digest_now} != reference {}",
                REFERENCE_DIGEST.trim()
            )
        });
    }

    if !ctx.trace {
        // Per pass, in reference units: cold ms, resumed ms, cold cells
        // per second.
        let (mut cold_ms, mut resume_ms, mut cells_per_s) = (Vec::new(), Vec::new(), Vec::new());
        crate::repeat(ctx.seconds, 3, |_| {
            let (cold, resumed) = rep(&cfgs, &dir, &mut cal);
            checked(&mut report, &cold, &resumed);
            cold_ms.push(cold.ref_ms);
            resume_ms.push(resumed.ref_ms);
            cells_per_s.push(cells as f64 / (cold.ref_ms / 1e3));
        });
        report.reference_ms = cal.median_ms();
        report.metrics = vec![
            crate::setup_metric(synth_s),
            Metric::median("p50_ms", "ms", cold_ms.clone()),
            Metric::p90("p90_ms", "ms", cold_ms),
            Metric::median("throughput", "1/s", cells_per_s),
            Metric::median("ref_p50_ms", "ms", resume_ms),
        ];
    } else {
        let mut spans = Spans::default();
        let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
        let mut traced = 0usize;
        crate::repeat(ctx.seconds, 2, |i| {
            let on = i.is_multiple_of(2);
            sb_trace::set_override(Some(on));
            let (cold, resumed) = rep(&cfgs, &dir, &mut cal);
            sb_trace::set_override(Some(false));
            checked(&mut report, &cold, &resumed);
            if on {
                spans.drain();
                traced += 1;
                traced_ms.push(cold.ms);
            } else {
                plain_ms.push(cold.ms);
            }
        });
        report.metrics = layer_metrics(&spans, traced.max(1) as f64, &synth_s);
        report
            .metrics
            .push(crate::overhead_pct(&traced_ms, &plain_ms));
        report
            .metrics
            .extend(crate::runtime_metrics(&spans, traced as f64));
    }
    report
}

fn layer_metrics(spans: &Spans, reps: f64, synth_s: &[f64]) -> Vec<Metric> {
    const COLD: &str = "bench:grid:cold";
    let per_rep_ms = |name: &str| spans.get(COLD, name).total_ns as f64 / reps / 1e6;
    let self_ms = |name: &str| spans.get(COLD, name).self_ns as f64 / reps / 1e6;
    let mut cell_ms: Vec<f64> = spans
        .iter()
        .filter(|(ctx, name, _)| {
            *ctx == COLD && name.starts_with("job:") && name.contains(":cell-")
        })
        .map(|(_, _, s)| s.mean_us() / 1e3)
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    vec![
        Metric::one("data.synth_ms", "ms", median(synth_s) * 1e3),
        Metric::one("core.pretrain_ms", "ms", per_rep_ms("pretrain")),
        Metric::one("core.cell_ms_p50", "ms", median(&cell_ms)),
        Metric::one(
            "core.cell_ms_max",
            "ms",
            cell_ms.last().copied().unwrap_or(0.0),
        ),
        Metric::one("core.prune_ms", "ms", per_rep_ms("prune")),
        Metric::one("nn.finetune_ms", "ms", per_rep_ms("finetune")),
        Metric::one("nn.forward_ms", "ms", self_ms("forward")),
        Metric::one("nn.backward_ms", "ms", self_ms("backward")),
        Metric::one("nn.step_ms", "ms", self_ms("step")),
        Metric::one("nn.eval_ms", "ms", self_ms("eval")),
        Metric::one(
            "nn.epochs_trained",
            "count",
            spans.counter("epochs_trained") as f64 / reps,
        ),
        Metric::one(
            "core.cells_computed",
            "count",
            spans.counter("cells_computed") as f64 / reps,
        ),
        Metric::one(
            "core.cells_resumed",
            "count",
            spans.counter("cells_resumed") as f64 / reps,
        ),
    ]
}
