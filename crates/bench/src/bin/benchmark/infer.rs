//! `infer`: offline batch-64 `CompiledModel::forward`, the paper's
//! realized-versus-theoretical speedup. Four pruned models cover every
//! format the auto-compiler picks: LeNet-300-100 at 16× (CSR), LeNet-5
//! at 4× unstructured (BSR and bitmap), LeNet-5 at 4× filter pruning
//! (shrunk dense) and ResNet-20 at 8× (mostly bitmap, some CSR). Each is
//! compiled twice, by the cost model and forced dense, and the rounds
//! interleave the two so that machine drift hits both alike.
//!
//! Weights come from a fixed seed, like shipped pretrained weights, so
//! the compiled formats and the work are the same for every run; the
//! input batches come from `--seed`.

use crate::calib::Calibrator;
use crate::report::{median, ms, Metric, Report};
use crate::spans::Spans;
use crate::Ctx;
use sb_data::{batches_of, DatasetSpec, Split, SyntheticVision};
use sb_infer::{CompileOptions, CompiledModel, ExecFormat};
use sb_tensor::{Rng, Tensor};
use shrinkbench::structured::FilterNorm;
use shrinkbench::{GlobalMagnitude, Pruner, Strategy};
use std::time::Instant;

const LENET300: &[&str] = &["fc1", "fc2", "fc3"];
const LENET5: &[&str] = &["conv1", "conv2", "fc1", "fc2", "fc3"];
const RESNET20: &[&str] = &[
    "stem.conv",
    "stage1.block0.conv1",
    "stage1.block0.conv2",
    "stage1.block1.conv1",
    "stage1.block1.conv2",
    "stage1.block2.conv1",
    "stage1.block2.conv2",
    "stage2.block0.conv1",
    "stage2.block0.conv2",
    "stage2.block0.shortcut.conv",
    "stage2.block1.conv1",
    "stage2.block1.conv2",
    "stage2.block2.conv1",
    "stage2.block2.conv2",
    "stage3.block0.conv1",
    "stage3.block0.conv2",
    "stage3.block0.shortcut.conv",
    "stage3.block1.conv1",
    "stage3.block1.conv2",
    "stage3.block2.conv1",
    "stage3.block2.conv2",
    "classifier.fc",
];

/// The four models and the weight-bearing layers of each.
pub const MODELS: [(&str, &[&str]); 4] = [
    ("lenet300_16x", LENET300),
    ("lenet5_4x", LENET5),
    ("lenet5_filter4x", LENET5),
    ("resnet20_8x", RESNET20),
];

const FORMATS: [ExecFormat; 5] = ExecFormat::ALL;

/// Largest |auto − dense| logit difference accepted as the same answer.
const LOGIT_TOL: f32 = 1e-4;

/// Per-layer metric names and units, in report order.
pub fn layers() -> Vec<(String, &'static str)> {
    let mut out = vec![("infer.compile_ms".to_string(), "ms")];
    for (model, _) in MODELS {
        out.push((format!("infer.{model}.auto_ms"), "ms"));
        out.push((format!("infer.{model}.dense_ms"), "ms"));
        out.push((format!("infer.{model}.effective_macs"), "count"));
    }
    for (model, layers) in MODELS {
        for layer in layers {
            out.push((format!("infer.{model}.{layer}.us"), "us"));
        }
    }
    for fmt in FORMATS {
        out.push((format!("infer.fmt.{}.ns_per_mac", fmt.label()), "ns"));
    }
    out
}

struct Case {
    name: &'static str,
    auto: CompiledModel,
    dense: CompiledModel,
    x: Tensor,
}

/// The compiled cases, with the ms spent synthesizing inputs and
/// compiling.
fn build(seed: u64, batch: usize) -> (Vec<Case>, f64, f64) {
    let t0 = Instant::now();
    let inputs = |spec: DatasetSpec, flatten: bool| {
        let data = SyntheticVision::new(spec);
        batches_of(&data, Split::Val, batch, None, flatten)
            .swap_remove(0)
            .0
    };
    let flat = inputs(DatasetSpec::mnist_like(seed), true);
    let gray = inputs(DatasetSpec::mnist_like(seed), false);
    let color = inputs(DatasetSpec::cifar_like(seed ^ 0x5EED), false);
    let synth_ms = ms(t0.elapsed());

    let mut rng = Rng::seed_from(0xBE7C);
    let mut pruned = |mut net: sb_nn::models::Model, strategy: &dyn Strategy, ratio: f64| {
        Pruner::default()
            .prune(&mut net, strategy, ratio, &mut rng)
            .expect("pruning a fresh network succeeds");
        net
    };
    let nets = [
        pruned(
            sb_nn::models::lenet_300_100(256, 10, &mut Rng::seed_from(1)),
            &GlobalMagnitude,
            16.0,
        ),
        pruned(
            sb_nn::models::lenet5(1, 16, 10, &mut Rng::seed_from(2)),
            &GlobalMagnitude,
            4.0,
        ),
        pruned(
            sb_nn::models::lenet5(1, 16, 10, &mut Rng::seed_from(3)),
            &FilterNorm,
            4.0,
        ),
        pruned(
            sb_nn::models::resnet_cifar(20, 3, 16, 10, 4, &mut Rng::seed_from(4)),
            &GlobalMagnitude,
            8.0,
        ),
    ];
    let xs = [flat, gray.clone(), gray, color];

    let t1 = Instant::now();
    let dense = CompileOptions {
        force_format: Some(ExecFormat::Dense),
        ..CompileOptions::default()
    };
    let cases = MODELS
        .iter()
        .zip(nets.iter().zip(xs))
        .map(|(&(name, _), (net, x))| Case {
            name,
            auto: CompiledModel::compile(net, &CompileOptions::default()),
            dense: CompiledModel::compile(net, &dense),
            x,
        })
        .collect();
    (cases, synth_ms, ms(t1.elapsed()))
}

/// One round: every model forward once auto-compiled and once dense,
/// auto first on even rounds. Returns per-model `(auto_ms, dense_ms)`.
fn round(cases: &[Case], i: usize, traced: bool) -> Vec<(f64, f64)> {
    let timed = |case: &Case, auto: bool| {
        let model = if auto { &case.auto } else { &case.dense };
        let _span = traced.then(|| {
            sb_trace::span(&format!(
                "bench:infer:{}:{}",
                case.name,
                if auto { "auto" } else { "dense" }
            ))
        });
        let t = Instant::now();
        std::hint::black_box(model.forward(&case.x));
        ms(t.elapsed())
    };
    cases
        .iter()
        .map(|case| {
            if i.is_multiple_of(2) {
                let a = timed(case, true);
                (a, timed(case, false))
            } else {
                let d = timed(case, false);
                (timed(case, true), d)
            }
        })
        .collect()
}

/// Argmax must agree exactly and logits to within [`LOGIT_TOL`].
fn check(case: &Case) -> Result<(), String> {
    let a = case.auto.forward(&case.x);
    let d = case.dense.forward(&case.x);
    let classes = case.auto.classes();
    let worst = a
        .data()
        .iter()
        .zip(d.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    let argmax =
        |row: &[f32]| (0..row.len()).fold(0, |best, j| if row[j] > row[best] { j } else { best });
    let same_class = a
        .data()
        .chunks(classes)
        .zip(d.data().chunks(classes))
        .all(|(x, y)| argmax(x) == argmax(y));
    if worst <= LOGIT_TOL && same_class {
        Ok(())
    } else {
        Err(format!(
            "infer: {} auto vs dense: max logit diff {worst:e}, same argmax {same_class}",
            case.name
        ))
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let batch = if ctx.quick { 8 } else { 64 };
    let (mut synth_ms, mut compile_ms) = (Vec::new(), Vec::new());
    let (cases, setup_s) = ctx.set_up(|| {
        let (cases, synth, compile) = build(ctx.seed, batch);
        synth_ms.push(synth);
        compile_ms.push(compile);
        cases
    });
    for case in &cases {
        report.attempted += 1;
        if let Err(e) = check(case) {
            report.failed += 1;
            report.failures.push(e);
        }
    }
    for i in 0..2 {
        round(&cases, i, false);
    }
    let min_rounds = if ctx.quick { 2 } else { 15 };

    if !ctx.trace {
        // Per round, in reference ms: the auto forwards and the dense ones.
        let (mut auto, mut dense) = (Vec::new(), Vec::new());
        let mut cal = Calibrator::new(1);
        crate::repeat(ctx.seconds, min_rounds, |i| {
            let (r, mix_ms) = cal.around(|| round(&cases, i, false));
            auto.push(r.iter().map(|p| p.0).sum::<f64>() / mix_ms);
            dense.push(r.iter().map(|p| p.1).sum::<f64>() / mix_ms);
        });
        report.attempted += 2 * (cases.len() * auto.len()) as u64;
        report.reference_ms = cal.median_ms();
        let samples = (batch * cases.len()) as f64;
        let per_s = auto.iter().map(|ms| samples / (ms / 1e3)).collect();
        report.metrics = vec![
            crate::setup_metric(setup_s),
            Metric::median("p50_ms", "ms", auto.clone()),
            Metric::p90("p90_ms", "ms", auto),
            Metric::median("throughput", "1/s", per_s),
            Metric::median("ref_p50_ms", "ms", dense),
        ];
    } else {
        let mut spans = Spans::default();
        let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
        let mut per_model: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); cases.len()];
        crate::repeat(ctx.seconds, 2 * min_rounds.min(4), |i| {
            let on = i.is_multiple_of(2);
            sb_trace::set_override(Some(on));
            let r = round(&cases, i / 2, on);
            sb_trace::set_override(Some(false));
            let auto_ms: f64 = r.iter().map(|p| p.0).sum();
            if on {
                spans.drain();
                traced_ms.push(auto_ms);
            } else {
                plain_ms.push(auto_ms);
                for (m, (a, d)) in per_model.iter_mut().zip(r) {
                    m.0.push(a);
                    m.1.push(d);
                }
            }
        });
        report.attempted += 2 * (cases.len() * (traced_ms.len() + plain_ms.len())) as u64;
        let forwards = traced_ms.len().max(1) as f64;
        let mut m = vec![Metric::one("infer.compile_ms", "ms", median(&compile_ms))];
        for (case, (a, d)) in cases.iter().zip(&per_model) {
            m.push(Metric::one(
                format!("infer.{}.auto_ms", case.name),
                "ms",
                median(a),
            ));
            m.push(Metric::one(
                format!("infer.{}.dense_ms", case.name),
                "ms",
                median(d),
            ));
            m.push(Metric::one(
                format!("infer.{}.effective_macs", case.name),
                "count",
                case.auto.effective_macs() as f64,
            ));
        }
        for (model, layers) in MODELS {
            let ctx_name = format!("bench:infer:{model}:auto");
            for layer in layers {
                let prefix = format!("layer:{layer}:");
                let self_ns: u64 = spans
                    .iter()
                    .filter(|(c, n, _)| *c == ctx_name && n.starts_with(&prefix))
                    .map(|(_, _, s)| s.self_ns)
                    .sum();
                m.push(Metric::one(
                    format!("infer.{model}.{layer}.us"),
                    "us",
                    self_ns as f64 / forwards / 1e3,
                ));
            }
        }
        for fmt in FORMATS {
            let suffix = format!(":{}", fmt.label());
            let (ns, macs) = spans
                .iter()
                .filter(|(_, n, _)| n.starts_with("layer:") && n.ends_with(&suffix))
                .fold((0u64, 0u64), |(ns, macs), (_, _, s)| {
                    (ns + s.self_ns, macs + s.flops)
                });
            let per_mac = if macs == 0 {
                0.0
            } else {
                ns as f64 / macs as f64
            };
            m.push(Metric::one(
                format!("infer.fmt.{}.ns_per_mac", fmt.label()),
                "ns",
                per_mac,
            ));
        }
        m.push(Metric::one("data.synth_ms", "ms", median(&synth_ms)));
        m.push(crate::overhead_pct(&traced_ms, &plain_ms));
        m.extend(crate::runtime_metrics(&spans, forwards));
        report.metrics = m;
    }
    report
}
