//! Bench-backed checks that compiled sparse formats deliver *realized*
//! speedup, not just a better multiply-add ratio.
//!
//! The baseline is the dense-compiled twin on the same batch, which runs
//! sb-tensor's register tile: a strong baseline, not a strawman. CSR
//! linear layers run the row tile and CSR convs the packed sparse
//! convolution (`sb_tensor::PackedConv`). These are wall-clock assertions, so each ratio comes from
//! [`PAIRS`] interleaved candidate/baseline pairs and the floors leave a
//! margin; EXPERIMENTS.md records the measured ratios behind each floor.
//! These forwards take 0.1–10 ms, so a worker stalled by another tenant
//! of the host costs both sides the same time and pulls the ratio toward
//! one. Forced BSR at 16× is not asserted against dense: it was *slower*
//! than the tile (0.74–0.89×).

mod common;

use sb_infer::{CompileOptions, CompiledModel, ExecFormat};
use sb_metrics::RealizedProfile;
use sb_tensor::{Rng, Tensor};
use std::sync::Mutex;

/// Wall-clock tests must not time-share the CPU with each other: the
/// test harness runs `#[test]`s on parallel threads, and a measurement
/// taken while a sibling saturates the pool is noise. Every test body
/// takes this lock first.
static SERIAL: Mutex<()> = Mutex::new(());

fn compile_pair(model: &sb_nn::models::Model, force: Option<ExecFormat>) -> (CompiledModel, CompiledModel) {
    let candidate = CompiledModel::compile(
        model,
        &CompileOptions {
            force_format: force,
            ..CompileOptions::default()
        },
    );
    let baseline = CompiledModel::compile(
        model,
        &CompileOptions {
            force_format: Some(ExecFormat::Dense),
            ..CompileOptions::default()
        },
    );
    (candidate, baseline)
}

/// Interleaved candidate/baseline pairs per ratio: enough that the
/// ratio of medians holds steady on a shared host.
const PAIRS: usize = 101;

fn measured_speedup(candidate: &CompiledModel, baseline: &CompiledModel, x: &Tensor) -> f64 {
    let profile = RealizedProfile::measure(
        PAIRS,
        candidate.storage_bytes(),
        || {
            std::hint::black_box(candidate.forward(x));
        },
        || {
            std::hint::black_box(baseline.forward(x));
        },
    );
    assert!(profile.latency_us > 0.0 && profile.baseline_latency_us > 0.0);
    // Shown with `--nocapture`, so that runs can report the ratios behind
    // the floors.
    eprintln!(
        "speedup {:.3}x: candidate {:.1} us, baseline {:.1} us",
        profile.realized_speedup, profile.latency_us, profile.baseline_latency_us
    );
    profile.realized_speedup
}

#[test]
fn csr_compiled_linear_model_beats_dense_at_16x() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from(0x5EED);
    let mut model = sb_nn::models::lenet_300_100(256, 10, &mut rng);
    common::prune_global_magnitude(&mut model, 16.0);

    let (candidate, baseline) = compile_pair(&model, Some(ExecFormat::Csr));
    assert!(
        candidate.plans().iter().any(|p| p.format == ExecFormat::Csr),
        "16x-pruned linear layers should compile to CSR"
    );
    let x = Tensor::rand_normal(&[32, 256], 0.0, 1.0, &mut rng);
    let speedup = measured_speedup(&candidate, &baseline, &x);
    assert!(
        speedup > 1.3,
        "CSR at 16x unstructured should clearly beat dense, got {speedup:.2}x"
    );
}

/// The format-crossover relation at 2× unstructured (≈50% density) on
/// the conv model, pinned as a regression floor: CSR beats BSR. It used to
/// read the other way, BSR over CSR (floor 1.05), while CSR convs ran one
/// accumulator per output over im2col rows. With the direct sparse
/// convolution and the row tile, release runs at `SB_RUNTIME_THREADS=4`
/// on a 2-vCPU x86-64 host measured forced BSR at 0.69–0.91× of forced
/// CSR in 10 of 10 runs (CSR over BSR 1.10–1.46× over 15 runs, and
/// 1.55–2.00× at 4×). The old claim came from a weak CSR kernel, so the
/// floor now pins the relation that holds, with the same margin.
#[test]
fn csr_beats_bsr_on_conv_model_at_2x() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from(0x5EED);
    let mut model = sb_nn::models::lenet5(1, 16, 10, &mut rng);
    common::prune_global_magnitude(&mut model, 2.0);

    let bsr = CompiledModel::compile(
        &model,
        &CompileOptions {
            force_format: Some(ExecFormat::Bsr),
            ..CompileOptions::default()
        },
    );
    let csr = CompiledModel::compile(
        &model,
        &CompileOptions {
            force_format: Some(ExecFormat::Csr),
            ..CompileOptions::default()
        },
    );
    let x = Tensor::rand_normal(&[32, 1, 16, 16], 0.0, 1.0, &mut rng);
    let speedup = measured_speedup(&csr, &bsr, &x);
    assert!(
        speedup > 1.05,
        "CSR should beat BSR on a conv model at 2x unstructured, got {speedup:.2}x"
    );
}

/// The direct sparse convolution's claim: ResNet-20 at 8× global
/// magnitude, compiled by the cost model (CSR for most convs, dense for
/// the strided ones and the classifier), beats its forced-dense twin.
#[test]
fn auto_compiled_resnet20_beats_dense_at_8x() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from(0x5EED);
    let mut model = sb_nn::models::resnet_cifar(20, 3, 16, 10, 4, &mut rng);
    common::prune_global_magnitude(&mut model, 8.0);

    let (candidate, baseline) = compile_pair(&model, None);
    assert!(
        candidate.plans().iter().any(|p| p.format == ExecFormat::Csr),
        "8x-pruned ResNet-20 convs should compile to CSR"
    );
    let x = Tensor::rand_normal(&[32, 3, 16, 16], 0.0, 1.0, &mut rng);
    let speedup = measured_speedup(&candidate, &baseline, &x);
    assert!(
        speedup > 1.3,
        "auto-compiled ResNet-20 at 8x should clearly beat dense, got {speedup:.2}x"
    );
}

/// The packed sparse convolution's claim on short rows: LeNet-5 at 4×
/// global magnitude, whose conv2 planes are 8 pixels wide, compiled by the
/// cost model (CSR for its convs), beats its forced-dense twin.
#[test]
fn auto_compiled_lenet5_beats_dense_at_4x() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from(0x5EED);
    let mut model = sb_nn::models::lenet5(1, 16, 10, &mut rng);
    common::prune_global_magnitude(&mut model, 4.0);

    let (candidate, baseline) = compile_pair(&model, None);
    assert!(
        candidate
            .plans()
            .iter()
            .any(|p| p.format == ExecFormat::Csr && p.name.starts_with("conv")),
        "4x-pruned LeNet-5 should compile a conv to CSR"
    );
    let x = Tensor::rand_normal(&[32, 1, 16, 16], 0.0, 1.0, &mut rng);
    let speedup = measured_speedup(&candidate, &baseline, &x);
    assert!(
        speedup > 1.3,
        "auto-compiled LeNet-5 at 4x should clearly beat dense, got {speedup:.2}x"
    );
}

/// LeNet-5 pruned 4× by filter norm, compiled by the cost model, beats its
/// forced-dense twin. This used to assert that the zeroed filters compile
/// to shrunk dense; with the packed sparse convolution the fitted model
/// prices conv1 cheaper as CSR, and since it prices each layer alone it
/// cannot credit a shrink with conv2's narrower input, so no layer
/// shrinks. The relation that holds is the speedup, with the same floor.
#[test]
fn auto_compiled_structured_model_beats_dense_at_4x() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from(0x5EED);
    let mut model = sb_nn::models::lenet5(1, 16, 10, &mut rng);
    common::prune_filters_l1(&mut model, 4.0);

    let (candidate, baseline) = compile_pair(&model, None);
    assert!(
        candidate.plans().iter().any(|p| p.format != ExecFormat::Dense),
        "4x filter-pruned LeNet-5 should compile a layer to a sparse or shrunk format"
    );
    let x = Tensor::rand_normal(&[32, 1, 16, 16], 0.0, 1.0, &mut rng);
    let speedup = measured_speedup(&candidate, &baseline, &x);
    assert!(
        speedup > 1.2,
        "auto-compiled LeNet-5 at 4x structured should clearly beat dense, got {speedup:.2}x"
    );
}
