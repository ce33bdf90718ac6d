//! Realized vs theoretical speedup: wall-clock of the actual CSR sparse
//! kernel against the dense matmul, across sparsity levels — and of whole
//! compiled models (`sb-infer`) against their dense-compiled baselines.
//!
//! The paper's "theoretical speedup" metric assumes unstructured sparsity
//! is exploited perfectly; Section 2.1 warns it is not. These benchmarks
//! measure how much of the theoretical speedup the real kernel delivers.
//! All measurements are written to `BENCH_infer.json` at the repository
//! root so the numbers travel with the code.

use sb_bench::timer::Timer;
use sb_infer::formats::{BitmapMatrix, BsrMatrix, BSR_BLOCK_W};
use sb_infer::{CompileOptions, CompiledModel, ExecFormat};
use sb_tensor::{PackedRhs, Rng, SparseMatrix, Tensor};
use shrinkbench::structured::FilterNorm;
use shrinkbench::{GlobalMagnitude, Pruner};

fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::from_fn(&[rows, cols], |_| {
        if rng.coin(density) {
            rng.normal()
        } else {
            0.0
        }
    })
}

fn bench_realized_speedup(c: &mut Timer) {
    let mut group = c.benchmark_group("realized-speedup-256x256xb32");
    let mut rng = Rng::seed_from(0);
    let x = Tensor::rand_normal(&[256, 32], 0.0, 1.0, &mut rng);
    let dense_w = random_sparse(256, 256, 1.0, 1);
    group.bench_function("dense", |b| {
        b.iter(|| std::hint::black_box(dense_w.matmul(&x)))
    });
    for density in [0.5, 0.25, 0.125, 0.03125] {
        let w = random_sparse(256, 256, density, 2);
        let sparse = SparseMatrix::from_dense(&w);
        group.bench_function(format!("csr-density-{density}"), |b| {
            b.iter(|| std::hint::black_box(sparse.matmul_dense(&x)))
        });
    }
    group.finish();
}

/// Single-threaded per-format row kernels on conv2-shaped data (im2col
/// rows of a late conv layer: short rows, weight reused across every
/// spatial position): divide each format's ns/iter by its executed lanes
/// to get its per-lane cost relative to the dense kernel. The dense row
/// runs sb-tensor's register tile over weights packed once, then adds the
/// bias, as `sb-infer`'s dense kernel does; the CSR loop replicates the
/// (private) `sb-infer` CSR kernel exactly. The cost-model constants in
/// `crates/infer/src/compile.rs` were fit on this group when its dense
/// row was the single-accumulator dot product that `sb-infer` ran before
/// the tile (850 µs per iteration here on the calibration host), so they
/// are in units of that retired scalar lane.
fn bench_conv_row_kernels(c: &mut Timer) {
    let (out_f, in_cols, n_rows) = (16usize, 200usize, 512usize);
    let mut rng = Rng::seed_from(7);
    let x = Tensor::rand_normal(&[n_rows, in_cols], 0.0, 1.0, &mut rng);
    let bias = vec![0.1f32; out_f];
    let mut y = vec![0.0f32; n_rows * out_f];
    let mut group = c.benchmark_group("conv-row-kernels-16x200xr512");

    let dense_w = PackedRhs::pack(&random_sparse(out_f, in_cols, 1.0, 8));
    group.bench_function("dense", |b| {
        b.iter(|| {
            dense_w.matmul_rows(x.data(), &mut y);
            for yr in y.chunks_exact_mut(out_f) {
                for (o, &bv) in yr.iter_mut().zip(&bias) {
                    *o += bv;
                }
            }
            std::hint::black_box(&y);
        })
    });
    for density in [0.5, 0.25, 0.125, 0.0625, 0.03125] {
        let w = random_sparse(out_f, in_cols, density, 9);
        let csr = SparseMatrix::from_dense(&w);
        let bsr = BsrMatrix::from_dense(&w, BSR_BLOCK_W);
        let bitmap = BitmapMatrix::from_dense(&w);
        group.bench_function(format!("csr-density-{density}"), |b| {
            b.iter(|| {
                for (xr, yr) in x.data().chunks_exact(in_cols).zip(y.chunks_exact_mut(out_f)) {
                    for (j, o) in yr.iter_mut().enumerate() {
                        let (cols, vals) = csr.row(j);
                        let mut acc = 0.0f32;
                        for (&ci, &v) in cols.iter().zip(vals) {
                            acc += v * xr[ci as usize];
                        }
                        *o = acc + bias[j];
                    }
                }
                std::hint::black_box(&y);
            })
        });
        group.bench_function(format!("bsr-density-{density}"), |b| {
            b.iter(|| {
                bsr.matmul_rows(x.data(), &bias, &mut y);
                std::hint::black_box(&y);
            })
        });
        group.bench_function(format!("bitmap-density-{density}"), |b| {
            b.iter(|| {
                bitmap.matmul_rows(x.data(), &bias, &mut y);
                std::hint::black_box(&y);
            })
        });
    }
    group.finish();
}

/// Compiles `net` twice — cost-model formats and forced-dense — and
/// benches both forwards on the same batch.
fn bench_compiled_pair(c: &mut Timer, group_name: &str, net: &sb_nn::models::Model, x: &Tensor) {
    let auto = CompiledModel::compile(net, &CompileOptions::default());
    let dense = CompiledModel::compile(
        net,
        &CompileOptions {
            force_format: Some(ExecFormat::Dense),
            ..CompileOptions::default()
        },
    );
    let formats: Vec<&str> = auto.plans().iter().map(|p| p.format.label()).collect();
    eprintln!(
        "{group_name}: formats {formats:?}, theoretical {:.2}x, storage {} -> {} bytes",
        auto.dense_macs() as f64 / auto.effective_macs().max(1) as f64,
        dense.storage_bytes(),
        auto.storage_bytes()
    );
    let mut group = c.benchmark_group(group_name);
    group.bench_function("dense-compiled", |b| {
        b.iter(|| std::hint::black_box(dense.forward(x)))
    });
    group.bench_function("auto-compiled", |b| {
        b.iter(|| std::hint::black_box(auto.forward(x)))
    });
    group.finish();
}

/// End-to-end compiled models: unstructured 16× on an FC network (the CSR
/// path) and structured 4× on LeNet-5 (the shrunk-dense path).
fn bench_compiled_models(c: &mut Timer) {
    let mut rng = Rng::seed_from(0xBE7C);

    let mut fc = sb_nn::models::lenet_300_100(256, 10, &mut rng);
    Pruner::default()
        .prune(&mut fc, &GlobalMagnitude, 16.0, &mut rng)
        .expect("pruning a fresh network succeeds");
    let x = Tensor::rand_normal(&[64, 256], 0.0, 1.0, &mut rng);
    bench_compiled_pair(c, "infer-fc256-16x-unstructured", &fc, &x);

    let mut conv = sb_nn::models::lenet5(1, 16, 10, &mut rng);
    Pruner::default()
        .prune(&mut conv, &FilterNorm, 4.0, &mut rng)
        .expect("pruning a fresh network succeeds");
    let x = Tensor::rand_normal(&[64, 1, 16, 16], 0.0, 1.0, &mut rng);
    bench_compiled_pair(c, "infer-lenet5-4x-structured", &conv, &x);
}

/// Forced-format compiled LeNet-5 across unstructured ratios: the
/// whole-model measurement behind the `format-crossover` artifact and
/// the wall-clock floors in `crates/infer/tests/speed.rs`.
fn bench_format_crossover(c: &mut Timer) {
    for ratio in [2.0, 4.0, 16.0] {
        let mut rng = Rng::seed_from(0xC405);
        let mut net = sb_nn::models::lenet5(1, 16, 10, &mut rng);
        Pruner::default()
            .prune(&mut net, &GlobalMagnitude, ratio, &mut rng)
            .expect("pruning a fresh network succeeds");
        let x = Tensor::rand_normal(&[64, 1, 16, 16], 0.0, 1.0, &mut rng);
        let mut group = c.benchmark_group(format!("infer-lenet5-formats-{ratio}x"));
        for fmt in [
            ExecFormat::Dense,
            ExecFormat::Csr,
            ExecFormat::Bsr,
            ExecFormat::Bitmap,
        ] {
            let compiled = CompiledModel::compile(
                &net,
                &CompileOptions {
                    force_format: Some(fmt),
                    ..CompileOptions::default()
                },
            );
            group.bench_function(fmt.label(), |b| {
                b.iter(|| std::hint::black_box(compiled.forward(&x)))
            });
        }
        group.finish();
    }
}

fn main() {
    let mut timer = Timer::new();
    bench_realized_speedup(&mut timer);
    bench_conv_row_kernels(&mut timer);
    bench_format_crossover(&mut timer);
    bench_compiled_models(&mut timer);
    timer.finish();

    // Persist the measurements so the repo carries its own numbers.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_infer.json");
    let json = sb_json::to_string_pretty(&timer.results().to_vec())
        .expect("measurements serialize");
    std::fs::write(&out, json + "\n").expect("write BENCH_infer.json");
    eprintln!("wrote {}", out.display());
}
