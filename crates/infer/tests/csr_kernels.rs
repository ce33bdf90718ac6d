//! Bitwise suite for the two CSR kernels that sb-infer runs: the row tile
//! `SparseMatrix::matmul_rows` (linear layers) and the direct sparse
//! convolution `sparse_conv_into` (conv layers), each followed by the
//! bias add sb-infer's step does.
//!
//! The references are in-test copies of the CSR path these kernels
//! replaced: one accumulator per output, its stored entries added in
//! ascending column from `+0.0`, then `acc + bias[j]`; for a conv, that
//! loop over `im2col_into`'s patch rows, then `rows_to_nchw`. Every
//! output must match bit for bit (any NaN matches any NaN), on inputs
//! with `±0.0`, `±∞`, ReLU zeros and `±0.0` biases, densities from 0
//! (empty rows) to 1, 0–3 samples, row counts that are not multiples of
//! the tile, and conv windows that lie wholly in padding. Finally every
//! model of the zoo, pruned by global magnitude, is compiled forced CSR
//! and forced dense, and the two must agree bit for bit on finite
//! inputs.
//!
//! The packed kernel that sb-infer runs (`PackedConv::run`, over a padded
//! scratch buffer it is handed) has a property of its own: output widths
//! 1–19, so that every tail of its 8-wide tile runs, each kernel run twice
//! over one scratch buffer that first holds NaN and then another
//! geometry's padded sample.

mod common;

use sb_check::{check, prop_assert, prop_assert_eq, Config, Rng};
use sb_infer::{CompileOptions, CompiledModel, ExecFormat};
use sb_tensor::{
    im2col_into, rows_to_nchw, sparse_conv_into, Conv2dGeometry, PackedConv, SparseMatrix, Tensor,
};

/// Pinned suite seed: the CSR kernel suite owns `_0013`.
const SUITE: u64 = 0x7E45_0013;

/// The CSR loop sb-infer ran before the row tile: one output at a time,
/// `acc + bias[j]`.
fn csr_reference(w: &SparseMatrix, bias: &[f32], x: &[f32], y: &mut [f32]) {
    let (in_d, out_d) = (w.cols(), w.rows());
    if out_d == 0 {
        return;
    }
    for (r, yr) in y.chunks_exact_mut(out_d).enumerate() {
        let xr = &x[r * in_d..(r + 1) * in_d];
        for (j, o) in yr.iter_mut().enumerate() {
            let (cols, vals) = w.row(j);
            let mut acc = 0.0f32;
            for (&ci, &v) in cols.iter().zip(vals) {
                acc += v * xr[ci as usize];
            }
            *o = acc + bias[j];
        }
    }
}

/// An activation: mostly finite, sometimes `±0.0`, `±∞` or a ReLU zero.
fn activation(rng: &mut Rng, specials: bool) -> f32 {
    match (specials, rng.below(16)) {
        (true, 0) => 0.0,
        (true, 1) => -0.0,
        (true, 2) => f32::INFINITY,
        (true, 3) => f32::NEG_INFINITY,
        (_, 4 | 5) => rng.uniform(-4.0, 4.0).max(0.0),
        _ => rng.uniform(-4.0, 4.0),
    }
}

/// A finite weight matrix at `density` (0 and 1 included), as CSR.
fn weights(rng: &mut Rng, rows: usize, cols: usize) -> SparseMatrix {
    let density = match rng.below(4) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.uniform(0.0, 1.0) as f64,
    };
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.coin(density) {
                rng.uniform(-3.0, 3.0)
            } else {
                0.0
            }
        })
        .collect();
    SparseMatrix::from_dense(&Tensor::from_vec(data, &[rows, cols]).expect("weight shape"))
}

fn bias(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.below(4) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.uniform(-2.0, 2.0),
        })
        .collect()
}

fn assert_bitwise(got: &[f32], want: &[f32], kernel: &str) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len());
    for (idx, (&g, &w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (w.is_nan() && g.is_nan()) || g.to_bits() == w.to_bits(),
            "{} output {}: {:e} ({:#010x}) vs reference {:e} ({:#010x})",
            kernel,
            idx,
            g,
            g.to_bits(),
            w,
            w.to_bits()
        );
    }
    Ok(())
}

#[test]
fn csr_row_tile_is_bitwise_the_row_loop() {
    check(
        "infer::csr_row_tile_is_bitwise_the_row_loop",
        Config::new(SUITE).cases(256),
        |rng| {
            // Batch rows 0–11, so that most counts are not tile multiples.
            (
                (rng.below(12), rng.below(13)),
                rng.below(41),
                rng.below(1 << 20) as u64,
                rng.coin(0.5),
            )
        },
        |&((m, rows), cols, seed, specials)| {
            let mut rng = Rng::seed_from(seed);
            let w = weights(&mut rng, rows, cols);
            let b = bias(&mut rng, rows);
            let x: Vec<f32> = (0..m * cols)
                .map(|_| activation(&mut rng, specials))
                .collect();
            let mut want = vec![0.0f32; m * rows];
            csr_reference(&w, &b, &x, &mut want);
            // NaN-filled, so that an output the tile skips fails.
            let mut got = vec![f32::NAN; m * rows];
            w.matmul_rows(&x, &mut got);
            for yr in got.chunks_exact_mut(rows.max(1)) {
                for (o, &bj) in yr.iter_mut().zip(&b) {
                    *o += bj;
                }
            }
            assert_bitwise(&got, &want, "matmul_rows")
        },
    );
}

/// Conv cases: `(channels, extra height, extra width)`, `(kernel height,
/// kernel width)`, `(stride, padding above, padding left)`, each counted
/// from its least value so that a shrunk case is still a valid geometry.
type GeometryParams = ((usize, usize, usize), (usize, usize), (usize, usize, usize));

/// Kernels of 1–5 taps per axis, not always square, strides of 1–3, and
/// padding of up to kernel + 1 per axis, which puts some windows wholly
/// in padding.
fn geometry_params(rng: &mut Rng) -> GeometryParams {
    let kh = rng.below(5);
    let kw = if rng.coin(0.5) { kh } else { rng.below(5) };
    let shape = (rng.below(3), rng.below(7), rng.below(7));
    (shape, (kh, kw), (rng.below(3), rng.below(7), rng.below(7)))
}

fn geometry(params: &GeometryParams) -> Conv2dGeometry {
    let &((c, extra_h, extra_w), (kh, kw), (s, ph, pw)) = params;
    let (kernel_h, kernel_w) = (kh + 1, kw + 1);
    let (padding_h, padding_w) = (ph.min(kernel_h + 1), pw.min(kernel_w + 1));
    Conv2dGeometry {
        in_channels: c + 1,
        in_h: kernel_h.saturating_sub(2 * padding_h).max(1) + extra_h,
        in_w: kernel_w.saturating_sub(2 * padding_w).max(1) + extra_w,
        kernel_h,
        kernel_w,
        stride: s + 1,
        padding_h,
        padding_w,
    }
}

#[test]
fn direct_sparse_conv_is_bitwise_the_unfolded_csr_product() {
    check(
        "infer::direct_sparse_conv_is_bitwise_the_unfolded_csr_product",
        Config::new(SUITE).cases(256),
        |rng| {
            let params = geometry_params(rng);
            (
                params,
                (rng.below(4), rng.below(7)),
                rng.below(1 << 20) as u64,
                rng.coin(0.5),
            )
        },
        |&(params, (n, out_c), seed, specials)| {
            let g = geometry(&params);
            let mut rng = Rng::seed_from(seed);
            let w = weights(&mut rng, out_c, g.patch_len());
            let b = bias(&mut rng, out_c);
            let numel = n * g.in_channels * g.in_h * g.in_w;
            let x: Vec<f32> = (0..numel).map(|_| activation(&mut rng, specials)).collect();
            let spatial = g.out_h() * g.out_w();
            let out_len = n * out_c * spatial;
            let mut patch = vec![0.0f32; n * spatial * g.patch_len()];
            im2col_into(&x, &g, &mut patch);
            let mut rows = vec![0.0f32; out_len];
            csr_reference(&w, &b, &patch, &mut rows);
            let mut want = vec![0.0f32; out_len];
            if out_len > 0 {
                rows_to_nchw(&rows, out_c, spatial, &mut want);
            }
            let mut got = vec![f32::NAN; out_len];
            sparse_conv_into(&x, &w, &g, &mut got);
            for (plane, &bj) in got.chunks_exact_mut(spatial).zip(b.iter().cycle()) {
                for o in plane {
                    *o += bj;
                }
            }
            assert_bitwise(&got, &want, &format!("sparse_conv_into {g:?}"))
        },
    );
}

/// The unfolded reference for one conv: `im2col_into`, the CSR row loop
/// with `bias`, then `rows_to_nchw`.
fn unfolded_reference(x: &[f32], w: &SparseMatrix, b: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let n = x.len() / (g.in_channels * g.in_h * g.in_w);
    let spatial = g.out_h() * g.out_w();
    let out_len = n * w.rows() * spatial;
    let mut patch = vec![0.0f32; n * spatial * g.patch_len()];
    im2col_into(x, g, &mut patch);
    let mut rows = vec![0.0f32; out_len];
    csr_reference(w, b, &patch, &mut rows);
    let mut want = vec![0.0f32; out_len];
    if out_len > 0 {
        rows_to_nchw(&rows, w.rows(), spatial, &mut want);
    }
    want
}

/// A geometry whose output is `wide + 1` pixels wide: kernels of 1–5 taps
/// per axis, strides 1–3 and padding of up to kernel + 1 per axis (less
/// where the width would not fit), from `(channels, extra height, extra
/// width)`, `(kernel height, kernel width)`, `(stride, padding above,
/// padding left)` and `wide`, each counted from its least value.
fn geometry_of_width(params: &GeometryParams, wide: usize) -> Conv2dGeometry {
    let &((c, extra_h, extra_w), (kh, kw), (s, ph, pw)) = params;
    let (kernel_h, kernel_w, stride, out_w) = (kh + 1, kw + 1, s + 1, wide + 1);
    let padding_h = ph.min(kernel_h + 1);
    // in_w = (out_w − 1)·stride + kernel_w − 2·padding_w + r, r < stride.
    let reach = (out_w - 1) * stride + kernel_w;
    let padding_w = pw.min(kernel_w + 1).min((reach - 1) / 2);
    Conv2dGeometry {
        in_channels: c + 1,
        in_h: kernel_h.saturating_sub(2 * padding_h).max(1) + extra_h,
        in_w: reach - 2 * padding_w + extra_w % stride,
        kernel_h,
        kernel_w,
        stride,
        padding_h,
        padding_w,
    }
}

#[test]
fn packed_conv_is_bitwise_on_every_tile_tail_over_reused_scratch() {
    check(
        "infer::packed_conv_is_bitwise_on_every_tile_tail_over_reused_scratch",
        Config::new(SUITE).cases(256),
        |rng| {
            // Output widths 1–19: every tail of the 8-wide tile.
            let params = (geometry_params(rng), rng.below(19));
            let other = (geometry_params(rng), rng.below(19));
            (
                (params, other),
                (rng.below(4), rng.below(7)),
                rng.below(1 << 20) as u64,
                rng.coin(0.5),
            )
        },
        |&(((params, wide), (other, other_wide)), (n, out_c), seed, specials)| {
            let (g, h) = (geometry_of_width(&params, wide), geometry_of_width(&other, other_wide));
            let out_w = wide + 1;
            prop_assert_eq!(g.out_w(), out_w);
            let mut rng = Rng::seed_from(seed);
            let w = weights(&mut rng, out_c, g.patch_len());
            let b = bias(&mut rng, out_c);
            let x: Vec<f32> = (0..n * g.in_channels * g.in_h * g.in_w)
                .map(|_| activation(&mut rng, specials))
                .collect();
            let want = unfolded_reference(&x, &w, &b, &g);
            let spatial = g.out_h() * out_w;
            let packed = PackedConv::pack(&w, &g);
            // Another geometry's kernel and sample, which leave their own
            // padded copy in the shared scratch.
            let other_w = weights(&mut rng, 2, h.patch_len());
            let other_x: Vec<f32> = (0..h.in_channels * h.in_h * h.in_w)
                .map(|_| activation(&mut rng, specials))
                .collect();
            let mut other_out = vec![0.0f32; 2 * h.out_h() * h.out_w()];
            let len = PackedConv::padded_len(&g).max(PackedConv::padded_len(&h));
            let mut padded = vec![f32::NAN; len];
            for pass in ["NaN-filled", "reused"] {
                if pass == "reused" {
                    PackedConv::pack(&other_w, &h).run(&other_x, &mut padded, &mut other_out);
                }
                let mut got = vec![f32::NAN; want.len()];
                packed.run(&x, &mut padded, &mut got);
                for (plane, &bj) in got.chunks_exact_mut(spatial).zip(b.iter().cycle()) {
                    for o in plane {
                        *o += bj;
                    }
                }
                assert_bitwise(&got, &want, &format!("PackedConv::run, {pass} scratch, {g:?}"))?;
            }
            Ok(())
        },
    );
}

#[test]
fn csr_compiled_zoo_matches_dense_compiled_bitwise() {
    let forced = |f| CompileOptions {
        force_format: Some(f),
        ..CompileOptions::default()
    };
    for ratio in [2.0, 4.0, 8.0, 16.0] {
        for (name, mut model) in common::zoo() {
            common::prune_global_magnitude(&mut model, ratio);
            let csr = CompiledModel::compile(&model, &forced(ExecFormat::Csr));
            assert!(
                csr.plans().iter().all(|p| p.format == ExecFormat::Csr),
                "{name} at {ratio}x: every layer compiles CSR when forced"
            );
            let dense = CompiledModel::compile(&model, &forced(ExecFormat::Dense));
            let x = common::input_for(&model, 5, 0x5EED);
            let (a, b) = (csr.forward(&x), dense.forward(&x));
            assert_eq!(a.dims(), b.dims());
            for (i, (p, q)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "{name} at {ratio}x: logit {i} is {p:e} under CSR and {q:e} dense"
                );
            }
        }
    }
}
