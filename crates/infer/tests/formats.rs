//! Property and regression suite for the BSR and bitmap weight formats,
//! on the in-repo `sb-check` harness (every failure message carries an
//! `SB_CHECK_SEED` that replays the exact case).
//!
//! Three contracts are pinned here:
//!
//! 1. **Conversion is exact.** `from_dense` → `to_dense` reproduces the
//!    source matrix verbatim for both formats, and the structural
//!    accounting (block counts, stored lanes, set bits) matches what a
//!    direct scan of the dense matrix says it should be.
//! 2. **The kernels compute the same product.** `matmul_rows` agrees
//!    with a scalar dense reference within accumulation tolerance,
//!    including all-zero rows (which must still emit their bias),
//!    single-live-block rows, and right-edge partial blocks.
//! 3. **The cost model flips formats at the right crossovers.** A
//!    synthetic single-layer sweep pins the regimes of the fitted model
//!    (predicted ns per sample, `crates/infer/src/cost.rs`): unpruned →
//!    Dense, extreme or block-clustered sparsity → CSR, short-row mid
//!    sparsity and high-occupancy sparsity → Dense, a sparse 3×3 conv on
//!    16×16 planes and LeNet-5's conv2 at mid density → CSR, a strided
//!    1×1 conv → Dense, and a fully-pruned layer falls back to Dense
//!    rather than emitting an empty blocked/bitmap kernel.

use sb_check::{check, prop_assert, prop_assert_eq, Config, Rng};
use sb_infer::formats::{BitmapMatrix, BsrMatrix, BSR_BLOCK_W};
use sb_infer::{CompileOptions, CompiledModel, ExecFormat};
use sb_nn::{models::Model, Conv2d, Flatten, Linear, Network, ParamKind, Sequential};
use sb_tensor::{Conv2dGeometry, Tensor};

/// Pinned suite seed (sb-check convention: one suite constant per crate
/// area; the exec-format suite owns `_000A`).
const SUITE: u64 = 0x7E45_000A;

fn cfg() -> Config {
    Config::new(SUITE)
}

/// Random weight data whose rows mix sparse, fully-zero, fully-dense,
/// and block-clustered regimes — everything the two formats specialize
/// for.
fn weight_data(rng: &mut Rng, rows: usize, cols: usize) -> Vec<f32> {
    let density = rng.uniform(0.0, 1.0) as f64;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        // 1 = fully-zero row, 2 = fully-dense row, 3 = block-clustered
        // row (whole aligned 4-blocks live or dead), else random density.
        let regime = rng.below(5);
        match regime {
            3 => {
                let mut c = 0;
                while c < cols {
                    let live = rng.coin(density);
                    for _ in 0..BSR_BLOCK_W.min(cols - c) {
                        data.push(if live { rng.uniform(-10.0, 10.0) } else { 0.0 });
                    }
                    c += BSR_BLOCK_W;
                }
            }
            _ => {
                for _ in 0..cols {
                    let v = match regime {
                        1 => 0.0,
                        2 => rng.uniform(-10.0, 10.0),
                        _ => {
                            if rng.coin(density) {
                                rng.uniform(-10.0, 10.0)
                            } else {
                                0.0
                            }
                        }
                    };
                    data.push(v);
                }
            }
        }
    }
    data
}

fn tensor_of(data: &[f32], rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(data.to_vec(), &[rows, cols]).expect("weight shape")
}

/// Scalar reference for `y = x · Wᵀ + bias` over row-major `x`.
fn dense_matmul_rows(w: &Tensor, x: &[f32], bias: &[f32]) -> Vec<f32> {
    let (rows, cols) = (w.dim(0), w.dim(1));
    let wd = w.data();
    let n = x.len() / cols;
    let mut y = vec![0.0f32; n * rows];
    for (xr, yr) in x.chunks_exact(cols).zip(y.chunks_exact_mut(rows)) {
        for (j, o) in yr.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (&wv, &xv) in wd[j * cols..(j + 1) * cols].iter().zip(xr) {
                acc += wv * xv;
            }
            *o = acc + bias[j];
        }
    }
    y
}

#[test]
fn bsr_roundtrip_is_exact_and_blocks_are_conserved() {
    check(
        "formats::bsr_roundtrip_is_exact_and_blocks_are_conserved",
        cfg(),
        |rng| {
            let rows = rng.below(8) + 1;
            let cols = rng.below(19) + 1; // exercises right-edge blocks
            (rows, cols, weight_data(rng, rows, cols))
        },
        |(rows, cols, data)| {
            let w = tensor_of(data, *rows, *cols);
            let bsr = BsrMatrix::from_dense(&w, BSR_BLOCK_W);
            prop_assert_eq!(bsr.to_dense(), w.clone());
            // Block count conservation: exactly the aligned 4-column
            // chunks that contain a nonzero, no more, no fewer.
            let expected_blocks: usize = (0..*rows)
                .map(|r| {
                    data[r * cols..(r + 1) * cols]
                        .chunks(BSR_BLOCK_W)
                        .filter(|b| b.iter().any(|&v| v != 0.0))
                        .count()
                })
                .sum();
            prop_assert_eq!(bsr.num_blocks(), expected_blocks);
            prop_assert_eq!(bsr.stored_lanes(), expected_blocks * BSR_BLOCK_W);
            let nnz = data.iter().filter(|&&v| v != 0.0).count();
            prop_assert_eq!(bsr.nnz(), nnz);
            prop_assert!(bsr.storage_bytes() >= bsr.stored_lanes() * 4);
            Ok(())
        },
    );
}

#[test]
fn bitmap_roundtrip_is_exact_and_counts_set_bits() {
    check(
        "formats::bitmap_roundtrip_is_exact_and_counts_set_bits",
        cfg(),
        |rng| {
            let rows = rng.below(8) + 1;
            let cols = rng.below(150) + 1; // crosses the 64-bit word edge
            (rows, cols, weight_data(rng, rows, cols))
        },
        |(rows, cols, data)| {
            let w = tensor_of(data, *rows, *cols);
            let bitmap = BitmapMatrix::from_dense(&w);
            prop_assert_eq!(bitmap.to_dense(), w.clone());
            let nnz = data.iter().filter(|&&v| v != 0.0).count();
            prop_assert_eq!(bitmap.nnz(), nnz);
            prop_assert_eq!(bitmap.words_per_row(), cols.div_ceil(64));
            // Dense values plus the mask: strictly more than dense alone
            // (the storage-for-compute tradeoff, reported honestly).
            prop_assert!(bitmap.storage_bytes() > rows * cols * 4);
            Ok(())
        },
    );
}

#[test]
fn format_kernels_match_dense_reference() {
    check(
        "formats::format_kernels_match_dense_reference",
        cfg(),
        |rng| {
            let rows = rng.below(6) + 1;
            let cols = rng.below(19) + 1;
            let n = rng.below(4) + 1;
            let w = weight_data(rng, rows, cols);
            let x: Vec<f32> = (0..n * cols).map(|_| rng.uniform(-5.0, 5.0)).collect();
            let bias: Vec<f32> = (0..rows).map(|_| rng.uniform(-2.0, 2.0)).collect();
            ((rows, cols), w, x, bias)
        },
        |((rows, cols), wdata, x, bias)| {
            let w = tensor_of(wdata, *rows, *cols);
            let expected = dense_matmul_rows(&w, x, bias);
            let bsr = BsrMatrix::from_dense(&w, BSR_BLOCK_W);
            let mut y = vec![0.0f32; expected.len()];
            bsr.matmul_rows(x, bias, &mut y);
            for (i, (&e, &g)) in expected.iter().zip(&y).enumerate() {
                prop_assert!(
                    (e - g).abs() <= 1e-4 * (1.0 + e.abs()),
                    "bsr output {} diverged: {} vs {}",
                    i,
                    e,
                    g
                );
            }
            let bitmap = BitmapMatrix::from_dense(&w);
            y.fill(0.0);
            bitmap.matmul_rows(x, bias, &mut y);
            for (i, (&e, &g)) in expected.iter().zip(&y).enumerate() {
                prop_assert!(
                    (e - g).abs() <= 1e-4 * (1.0 + e.abs()),
                    "bitmap output {} diverged: {} vs {}",
                    i,
                    e,
                    g
                );
            }
            Ok(())
        },
    );
}

// --- Degenerate cases -------------------------------------------------

#[test]
fn all_zero_weight_stores_nothing_and_emits_bias() {
    let w = Tensor::zeros(&[3, 10]);
    let bsr = BsrMatrix::from_dense(&w, BSR_BLOCK_W);
    assert_eq!(bsr.num_blocks(), 0);
    assert_eq!(bsr.stored_lanes(), 0);
    let bitmap = BitmapMatrix::from_dense(&w);
    assert_eq!(bitmap.nnz(), 0);
    let x = vec![1.0f32; 20];
    let bias = vec![0.5f32, -1.5, 2.0];
    let mut y = vec![9.0f32; 6];
    bsr.matmul_rows(&x, &bias, &mut y);
    assert_eq!(y, vec![0.5, -1.5, 2.0, 0.5, -1.5, 2.0]);
    y.fill(9.0);
    bitmap.matmul_rows(&x, &bias, &mut y);
    assert_eq!(y, vec![0.5, -1.5, 2.0, 0.5, -1.5, 2.0]);
}

#[test]
fn single_live_block_at_right_edge() {
    // cols = 10 means the last block is a 2-wide partial; put the only
    // nonzero there to hit the peel path with n == 1.
    let mut data = vec![0.0f32; 10];
    data[9] = 3.0;
    let w = tensor_of(&data, 1, 10);
    let bsr = BsrMatrix::from_dense(&w, BSR_BLOCK_W);
    assert_eq!(bsr.num_blocks(), 1);
    assert_eq!(bsr.stored_lanes(), BSR_BLOCK_W);
    assert_eq!(bsr.nnz(), 1);
    let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
    let mut y = vec![0.0f32];
    bsr.matmul_rows(&x, &[1.0], &mut y);
    assert_eq!(y, vec![3.0 * 9.0 + 1.0]);
    assert_eq!(bsr.to_dense(), w);
}

/// One linear layer wrapped as a model, with `mask` applied to the
/// weight — the cost model's unit of decision.
fn single_linear_model(rows: usize, cols: usize, mask: impl Fn(usize, usize) -> bool) -> Model {
    let mut rng = sb_tensor::Rng::seed_from(0xF0);
    let body = Sequential::new().push(Linear::new("fc", cols, rows, &mut rng));
    let mut model = Model::from_sequential("synthetic", body, rows);
    model.visit_params(&mut |p| {
        if p.kind() == ParamKind::LinearWeight {
            let m = Tensor::from_fn(&[rows, cols], |i| {
                if mask(i / cols, i % cols) {
                    1.0
                } else {
                    0.0
                }
            });
            p.set_mask(m);
        }
    });
    model
}

fn chosen_format(model: &Model) -> ExecFormat {
    let compiled = CompiledModel::compile(model, &CompileOptions::default());
    compiled.plans()[0].format
}

#[test]
fn fully_pruned_layer_falls_back_to_dense_not_empty_kernel() {
    let model = single_linear_model(8, 32, |_, _| false);
    for force in [Some(ExecFormat::Bsr), Some(ExecFormat::Bitmap)] {
        let compiled = CompiledModel::compile(
            &model,
            &CompileOptions {
                force_format: force,
                ..CompileOptions::default()
            },
        );
        assert_eq!(
            compiled.plans()[0].format,
            ExecFormat::Dense,
            "fully-pruned layer must fall back to Dense under {force:?}"
        );
        // The fallback still runs: an all-zero layer yields the bias.
        let x = Tensor::zeros(&[2, 32]);
        let y = compiled.forward(&x);
        assert_eq!(y.dims(), &[2, 8]);
    }
}

// --- Cost-model crossover regression ---------------------------------
//
// The constants in cost.rs are the fit of figures/cost-fit.csv (pinned by
// tests/cost_fit.rs); these pins freeze the *regime structure* so that a
// re-fit that flips a regime fails loudly. Each comment gives the
// fitted model's predictions in ns per sample; a sparse format must be
// predicted 20% (`cost::MARGIN`) under the dense lane to be picked.

#[test]
fn crossover_unpruned_layer_stays_dense() {
    let model = single_linear_model(32, 64, |_, _| true);
    assert_eq!(chosen_format(&model), ExecFormat::Dense);
}

#[test]
fn crossover_extreme_sparsity_picks_csr() {
    // ~1% density on long rows: pure-nonzero cost wins, the bitmap pays
    // its word-scan floor and BSR its occupancy blow-up.
    let model = single_linear_model(32, 1024, |r, c| (r * 1024 + c) % 97 == 0);
    assert_eq!(chosen_format(&model), ExecFormat::Csr);
}

#[test]
fn crossover_short_row_mid_sparsity_stays_dense() {
    // 25% density on 32-wide rows: dense 205, CSR 255, bitmap 726, BSR
    // 902. The tile's 0.2 ns per multiply-add leaves no sparse format
    // enough to win on rows this short.
    let model = single_linear_model(32, 32, |_, c| c % 4 == 0);
    assert_eq!(chosen_format(&model), ExecFormat::Dense);
}

#[test]
fn crossover_block_clustered_sparsity_picks_csr() {
    // 12.5% density aligned to 4-wide blocks: CSR 362, BSR 451, dense
    // 819, bitmap 1,146. BSR stores exactly the nonzeros, but the row
    // tile's 0.61 ns per entry undercuts its 1.9 ns per block.
    let model = single_linear_model(16, 256, |_, c| c < 32);
    assert_eq!(chosen_format(&model), ExecFormat::Csr);
}

#[test]
fn crossover_high_occupancy_unstructured_stays_dense() {
    // ~67% unstructured density: dense 640, CSR 1,351, BSR 1,728, bitmap
    // 3,901. Every block is live, and no format streams faster than the
    // tile.
    let model = single_linear_model(16, 200, |r, c| (r * 200 + c) % 3 != 0);
    assert_eq!(chosen_format(&model), ExecFormat::Dense);
}

/// One conv layer of `geom` with `out_c` filters, then a linear
/// classifier, with `mask` on the conv weight.
fn single_conv_model(
    geom: Conv2dGeometry,
    out_c: usize,
    mask: impl Fn(usize, usize) -> bool,
) -> Model {
    let mut rng = sb_tensor::Rng::seed_from(0xF1);
    let flat = out_c * geom.out_h() * geom.out_w();
    let body = Sequential::new()
        .push(Conv2d::new("conv", out_c, geom, &mut rng))
        .push(Flatten::new())
        .push(Linear::new("fc", flat, 10, &mut rng));
    let mut model = Model::from_sequential("synthetic", body, 10);
    let cols = geom.patch_len();
    model.visit_params(&mut |p| {
        if p.kind() == ParamKind::ConvWeight {
            let m = Tensor::from_fn(&[out_c, cols], |i| if mask(i / cols, i % cols) { 1.0 } else { 0.0 });
            p.set_mask(m);
        }
    });
    model
}

#[test]
fn crossover_sparse_3x3_conv_on_16x16_planes_picks_csr() {
    // 1/8 density, stride 1: CSR 10,180 (5,760 in 2,304 tile steps, 4,420
    // in the 2,600-element padded copy), dense 55,706, bitmap 73,011, BSR
    // 80,077.
    let model = single_conv_model(Conv2dGeometry::square(8, 16, 16, 3, 1, 1), 8, |r, c| {
        (r * 72 + c) % 8 == 0
    });
    assert_eq!(chosen_format(&model), ExecFormat::Csr);
}

#[test]
fn crossover_dense_1x1_strided_conv_stays_dense() {
    // 70% density, stride 2: dense 6,042, CSR 5,631, BSR 17,715, bitmap
    // 19,706. Eight input channels give the unfold little to copy, and
    // CSR, which pads the whole input for a quarter of its pixels, falls
    // short of the 20% margin.
    let model = single_conv_model(Conv2dGeometry::square(8, 16, 16, 1, 2, 0), 16, |r, c| {
        (r * 8 + c) % 10 < 7
    });
    assert_eq!(chosen_format(&model), ExecFormat::Dense);
}

#[test]
fn crossover_lenet5_conv2_at_30_percent_picks_csr() {
    // LeNet-5's conv2 (6 → 16 channels, 5×5, padding 2, 8×8 planes) at
    // 30% density: CSR 15,882 (720 weights × 8 one-tile rows = 5,760 tile
    // steps at 2.5 ns, and an 872-element padded copy), dense 44,211,
    // BSR 65,715, bitmap 102,304. An 8-pixel row is one register tile, so
    // each stored weight costs one tile step per row.
    let model = single_conv_model(Conv2dGeometry::square(6, 8, 8, 5, 1, 2), 16, |r, c| {
        (r * 150 + c) % 10 < 3
    });
    assert_eq!(chosen_format(&model), ExecFormat::Csr);
}
