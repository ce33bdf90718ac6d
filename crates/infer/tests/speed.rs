//! Bench-backed checks that compiled sparse formats deliver *realized*
//! speedup, not just a better multiply-add ratio.
//!
//! The baseline is the dense-compiled twin on the same batch, which runs
//! sb-tensor's register tile: a strong baseline, not a strawman. These
//! are wall-clock assertions, so each ratio comes from [`PAIRS`]
//! interleaved candidate/baseline pairs and the floors leave a margin:
//! in 10 release runs at `SB_RUNTIME_THREADS=4` on a 2-vCPU x86-64 host,
//! CSR at 16× measured 1.8–2.2× (floor 1.3) and shrunk at 4× structured
//! 2.0–2.4× (floor 1.2). While other tenants loaded that host, CSR at 16×
//! dipped to 1.07–1.28× in 6 of 85 release runs; these forwards take
//! 0.1–0.3 ms, so a stalled worker costs both sides the same time and
//! pulls the ratio toward 1. Forced BSR at 16× is not asserted against
//! dense: it was *slower* than the tile (0.74–0.89×).

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

/// The format-crossover claim from the `format-crossover` artifact,
/// pinned as a regression floor: at 2× unstructured (≈50% density) the
/// BSR conv kernels beat the CSR conv kernels on wall-clock — CSR pays
/// an index load per stored nonzero while BSR streams vector lanes.
/// The margin depends on where the two kernels' hot loops land in this
/// test binary, which edits anywhere in the crate graph move. With
/// byte-identical BSR and CSR code, release runs at
/// `SB_RUNTIME_THREADS=4` on a 2-vCPU x86-64 host measured 1.33–1.51×
/// in one build (20 runs) and 1.00–1.27× in another (40 runs); a build
/// that moved the CSR loop into a function of its own failed this floor
/// in 16 of 45 runs. The relation holds in the other binaries that
/// measure it (the `format-crossover` figure reads about 1.5×
/// whole-model at 2×), so the floor stays; a wider margin needs a
/// faster BSR kernel, not a lower floor.
///
/// Optimized-build only: the advantage *is* vectorization. At 50%
/// density a random mask leaves ~94% of 4-wide blocks live, so BSR
/// multiplies nearly every lane while CSR touches half — unoptimized,
/// raw multiply count wins and the comparison inverts. `scripts/ci.sh`
/// runs this suite in release so the floor still gates merges.
#[test]
#[cfg_attr(debug_assertions, ignore = "BSR's vector-lane win over CSR only exists optimized")]
fn bsr_beats_csr_on_conv_model_at_2x() {
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
    let speedup = measured_speedup(&bsr, &csr, &x);
    assert!(
        speedup > 1.05,
        "BSR should beat CSR on a conv model at 2x unstructured, got {speedup:.2}x"
    );
}

#[test]
fn shrunk_dense_structured_model_beats_dense_at_4x() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from(0x5EED);
    let mut model = sb_nn::models::lenet5(1, 16, 10, &mut rng);
    common::prune_filters_l1(&mut model, 4.0);

    // Default cost-model compilation: structured masks should engage the
    // shrunk-dense path on their own.
    let (candidate, baseline) = compile_pair(&model, None);
    assert!(
        candidate
            .plans()
            .iter()
            .any(|p| p.format == ExecFormat::ShrunkDense),
        "4x filter-pruned convs should compile to shrunk-dense"
    );
    let x = Tensor::rand_normal(&[32, 1, 16, 16], 0.0, 1.0, &mut rng);
    let speedup = measured_speedup(&candidate, &baseline, &x);
    assert!(
        speedup > 1.2,
        "shrunk-dense at 4x structured should clearly beat dense, got {speedup:.2}x"
    );
}
