//! Property-based tests for tensor algebra invariants, on the in-repo
//! `sb-check` harness. Every failure message carries an `SB_CHECK_SEED`
//! that replays the exact case.

use sb_check::{check, prop_assert, prop_assert_eq, Config, Rng};
use sb_tensor::{
    col2im, im2col, im2col_into, matmul_rows, nchw_to_rows, rows_to_nchw, Conv2dGeometry,
    PackedRhs, Tensor,
};

/// Pinned suite seed: every property below derives its per-case seeds
/// from this value, so failures reproduce across machines.
const SUITE: u64 = 0x7E45_0001;

fn cfg() -> Config {
    Config::new(SUITE)
}

fn vec_in(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-100.0, 100.0)).collect()
}

#[test]
fn addition_commutes() {
    check(
        "tensor::addition_commutes",
        cfg(),
        |rng| (vec_in(rng, 24), vec_in(rng, 24)),
        |(a, b)| {
            let ta = Tensor::from_vec(a.clone(), &[4, 6]).unwrap();
            let tb = Tensor::from_vec(b.clone(), &[4, 6]).unwrap();
            prop_assert_eq!(&ta + &tb, &tb + &ta);
            Ok(())
        },
    );
}

#[test]
fn addition_associates_up_to_eps() {
    check(
        "tensor::addition_associates_up_to_eps",
        cfg(),
        |rng| (vec_in(rng, 16), vec_in(rng, 16), vec_in(rng, 16)),
        |(a, b, c)| {
            let ta = Tensor::from_slice(a);
            let tb = Tensor::from_slice(b);
            let tc = Tensor::from_slice(c);
            let lhs = &(&ta + &tb) + &tc;
            let rhs = &ta + &(&tb + &tc);
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
            }
            Ok(())
        },
    );
}

#[test]
fn scale_distributes_over_add() {
    check(
        "tensor::scale_distributes_over_add",
        cfg(),
        |rng| (vec_in(rng, 12), vec_in(rng, 12), rng.uniform(-10.0, 10.0)),
        |(a, b, k)| {
            let ta = Tensor::from_slice(a);
            let tb = Tensor::from_slice(b);
            let lhs = (&ta + &tb).scale(*k);
            let rhs = &ta.scale(*k) + &tb.scale(*k);
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() <= 1e-2 * (1.0 + x.abs()));
            }
            Ok(())
        },
    );
}

#[test]
fn double_transpose_is_identity() {
    check(
        "tensor::double_transpose_is_identity",
        cfg(),
        |rng| vec_in(rng, 20),
        |a| {
            let t = Tensor::from_vec(a.clone(), &[4, 5]).unwrap();
            prop_assert_eq!(t.transpose2().transpose2(), t);
            Ok(())
        },
    );
}

#[test]
fn matmul_matches_naive() {
    check(
        "tensor::matmul_matches_naive",
        cfg(),
        |rng| (vec_in(rng, 12), vec_in(rng, 20)),
        |(a, b)| {
            let ta = Tensor::from_vec(a.clone(), &[3, 4]).unwrap();
            let tb = Tensor::from_vec(b.clone(), &[4, 5]).unwrap();
            let c = ta.matmul(&tb);
            for i in 0..3 {
                for j in 0..5 {
                    let mut acc = 0.0f64;
                    for k in 0..4 {
                        acc += ta.at(&[i, k]) as f64 * tb.at(&[k, j]) as f64;
                    }
                    prop_assert!(
                        (c.at(&[i, j]) as f64 - acc).abs() <= 1e-2 * (1.0 + acc.abs()),
                        "({}, {}): {} vs {}",
                        i,
                        j,
                        c.at(&[i, j]),
                        acc
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn matmul_transpose_identities() {
    check(
        "tensor::matmul_transpose_identities",
        cfg(),
        |rng| (vec_in(rng, 12), vec_in(rng, 20)),
        |(a, b)| {
            // (A·B)ᵀ == Bᵀ·Aᵀ
            let ta = Tensor::from_vec(a.clone(), &[3, 4]).unwrap();
            let tb = Tensor::from_vec(b.clone(), &[4, 5]).unwrap();
            let lhs = ta.matmul(&tb).transpose2();
            let rhs = tb.transpose2().matmul(&ta.transpose2());
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() <= 1e-2 * (1.0 + x.abs()));
            }
            Ok(())
        },
    );
}

#[test]
fn softmax_rows_are_distributions() {
    check(
        "tensor::softmax_rows_are_distributions",
        cfg(),
        |rng| vec_in(rng, 30),
        |a| {
            let t = Tensor::from_vec(a.clone(), &[5, 6]).unwrap();
            let s = t.softmax_rows();
            for i in 0..5 {
                let row = &s.data()[i * 6..(i + 1) * 6];
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
            Ok(())
        },
    );
}

#[test]
fn reshape_preserves_sum() {
    check(
        "tensor::reshape_preserves_sum",
        cfg(),
        |rng| vec_in(rng, 24),
        |a| {
            let t = Tensor::from_vec(a.clone(), &[2, 12]).unwrap();
            let r = t.reshape(&[4, 6]).unwrap();
            prop_assert_eq!(t.sum(), r.sum());
            Ok(())
        },
    );
}

#[test]
fn mask_multiply_is_idempotent() {
    check(
        "tensor::mask_multiply_is_idempotent",
        cfg(),
        |rng| (vec_in(rng, 16), rng.below(1000) as u64),
        |(a, seed)| {
            let mut rng = Rng::seed_from(*seed);
            let mask = Tensor::from_fn(&[16], |_| if rng.coin(0.5) { 1.0 } else { 0.0 });
            let mut w = Tensor::from_slice(a);
            w.mul_in_place(&mask);
            let once = w.clone();
            w.mul_in_place(&mask);
            prop_assert_eq!(w, once);
            Ok(())
        },
    );
}

#[test]
fn im2col_col2im_adjoint() {
    check(
        "tensor::im2col_col2im_adjoint",
        cfg(),
        |rng| {
            (
                rng.below(500) as u64,
                (rng.below(2), rng.below(2)), // independent pad_h / pad_w
                rng.below(2) + 1,
            )
        },
        |(seed, (pad_h, pad_w), stride)| {
            let g = Conv2dGeometry {
                in_channels: 2,
                in_h: 5,
                in_w: 5,
                kernel_h: 3,
                kernel_w: 3,
                stride: *stride,
                padding_h: *pad_h,
                padding_w: *pad_w,
            };
            let mut rng = Rng::seed_from(*seed);
            let x = Tensor::rand_normal(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
            let cols_dims = [2 * g.out_h() * g.out_w(), g.patch_len()];
            let y = Tensor::rand_normal(&cols_dims, 0.0, 1.0, &mut rng);
            let lhs = im2col(&x, &g).dot(&y) as f64;
            let rhs = x.flatten().dot(&col2im(&y, 2, &g).flatten()) as f64;
            prop_assert!(
                (lhs - rhs).abs() <= 1e-2 * (1.0 + lhs.abs()),
                "{} vs {}",
                lhs,
                rhs
            );
            Ok(())
        },
    );
}

#[test]
fn count_zeros_plus_nonzero_is_numel() {
    check(
        "tensor::count_zeros_plus_nonzero_is_numel",
        cfg(),
        |rng| vec_in(rng, 32),
        |a| {
            let t = Tensor::from_slice(a);
            prop_assert_eq!(t.count_zeros() + t.count_nonzero(), t.numel());
            Ok(())
        },
    );
}

#[test]
fn json_round_trip() {
    check(
        "tensor::json_round_trip",
        cfg(),
        |rng| vec_in(rng, 10),
        |a| {
            let t = Tensor::from_vec(a.clone(), &[2, 5]).unwrap();
            let s = sb_json::to_string(&t).unwrap();
            let back: Tensor = sb_json::from_str(&s).unwrap();
            prop_assert_eq!(back, t);
            Ok(())
        },
    );
}

#[test]
fn sparse_round_trip_any_density() {
    check(
        "tensor::sparse_round_trip_any_density",
        cfg(),
        |rng| (rng.below(2000) as u64, rng.uniform(0.0, 1.0) as f64),
        |(seed, density)| {
            let mut rng = Rng::seed_from(*seed);
            let dense = Tensor::from_fn(&[6, 9], |_| {
                if rng.coin(*density) {
                    rng.normal()
                } else {
                    0.0
                }
            });
            let sparse = sb_tensor::SparseMatrix::from_dense(&dense);
            prop_assert_eq!(sparse.to_dense(), dense.clone());
            prop_assert_eq!(sparse.nnz(), dense.count_nonzero());
            Ok(())
        },
    );
}

#[test]
fn sparse_matmul_agrees_with_dense() {
    check(
        "tensor::sparse_matmul_agrees_with_dense",
        cfg(),
        |rng| (rng.below(2000) as u64, rng.uniform(0.05, 0.95) as f64),
        |(seed, density)| {
            let mut rng = Rng::seed_from(*seed);
            let w = Tensor::from_fn(&[5, 8], |_| {
                if rng.coin(*density) {
                    rng.normal()
                } else {
                    0.0
                }
            });
            let x = Tensor::rand_normal(&[4, 8], 0.0, 1.0, &mut rng);
            let sparse = sb_tensor::SparseMatrix::from_dense(&w);
            let fast = sparse.dense_matmul_transposed(&x);
            let slow = x.matmul_transposed(&w);
            for (a, b) in fast.data().iter().zip(slow.data()) {
                prop_assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
            }
            Ok(())
        },
    );
}

/// Pinned seed of the `matmul_transposed` register-tile suite below.
const TILE_SUITE: u64 = 0x7E45_0010;

/// `a · bᵀ` for `a: [m, k]`, `b: [n, k]` in the order `matmul_transposed`
/// promises: each output starts at `0.0` and adds `a[i][kk] · b[j][kk]`
/// one product at a time in ascending `kk`.
fn ascending_dot_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[j * k + kk];
            }
            out.push(acc);
        }
    }
    out
}

/// Mostly finite values; with `specials` on, about one in eight is
/// `±0.0` or `±∞`.
fn tile_value(rng: &mut Rng, specials: bool) -> f32 {
    match (specials, rng.below(32)) {
        (true, 0) => 0.0,
        (true, 1) => -0.0,
        (true, 2) => f32::INFINITY,
        (true, 3) => f32::NEG_INFINITY,
        _ => rng.uniform(-4.0, 4.0),
    }
}

/// A dimension from 0 to 40 that is usually not a tile multiple, with
/// extra weight on 1 and on the edges around 0.
fn tile_dim(rng: &mut Rng) -> usize {
    match rng.below(5) {
        0 => 1,
        1 => rng.below(5),
        _ => rng.below(41),
    }
}

#[test]
fn matmul_transposed_is_bitwise_the_ascending_dot() {
    check(
        "tensor::matmul_transposed_is_bitwise_the_ascending_dot",
        Config::new(TILE_SUITE).cases(256),
        |rng| {
            let m = tile_dim(rng);
            // One case in eight is a wide product (k·n > 32k), which the
            // kernel splits into one-tile row blocks.
            let (k, n) = if rng.below(8) == 0 {
                (rng.below(100) + 1000, rng.below(8) + 33)
            } else {
                (tile_dim(rng), tile_dim(rng))
            };
            ((m, k, n), rng.below(1 << 20) as u64, rng.coin(0.5))
        },
        |&((m, k, n), seed, specials)| {
            let mut rng = Rng::seed_from(seed);
            let a: Vec<f32> = (0..m * k).map(|_| tile_value(&mut rng, specials)).collect();
            let b: Vec<f32> = (0..n * k).map(|_| tile_value(&mut rng, specials)).collect();
            let ta = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
            let tb = Tensor::from_vec(b.clone(), &[n, k]).unwrap();
            let got = ta.matmul_transposed(&tb);
            prop_assert_eq!(got.dims(), &[m, n]);
            let want = ascending_dot_reference(&a, &b, m, k, n);
            assert_bitwise(got.data(), &want, n, "matmul_transposed")?;
            // The slice entry point over `b` packed once, on a random
            // two-way split of `a`'s rows. The outputs start at `f32::MAX`,
            // which no reference here can equal (|values| ≤ 4, k < 1100),
            // so an output the entry never writes fails.
            let packed = PackedRhs::pack(&tb);
            let split = rng.below(m + 1);
            let mut rows = vec![f32::MAX; m * n];
            let (top, bottom) = rows.split_at_mut(split * n);
            packed.matmul_rows(&a[..split * k], top);
            packed.matmul_rows(&a[split * k..], bottom);
            assert_bitwise(&rows, &want, n, "PackedRhs::matmul_rows")
        },
    );
}

/// Pinned seed of the backward-product suite below.
const BACKWARD_SUITE: u64 = 0x7E45_0015;

/// `v` (`rows × cols`, row-major) transposed.
fn transposed(v: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols)
        .flat_map(|c| (0..rows).map(move |r| v[r * cols + c]))
        .collect()
}

/// `matmul` (`dx = dy · W`) and `transposed_matmul` (`dW = dyᵀ · X`) are
/// the ascending dot on transposed operands, bit for bit. Besides small
/// shapes that are not tile multiples, one case in four is a conv weight
/// gradient (`k` ≫ `m`, `n` a patch length) and one in four a conv input
/// gradient (`m` ≫ `k`); both kernels split those into several row
/// blocks. With specials on, a zero left factor meets `±∞`, whose
/// product is NaN like any other.
#[test]
fn backward_products_are_bitwise_the_ascending_dot() {
    check(
        "tensor::backward_products_are_bitwise_the_ascending_dot",
        Config::new(BACKWARD_SUITE).cases(256),
        |rng| {
            let patch = [27, 36, 72, 144][rng.below(4)];
            let (m, k, n) = match rng.below(4) {
                0 => (rng.below(13) + 4, rng.below(1000) + 1000, patch),
                1 => (rng.below(1000) + 1000, [4, 8, 16][rng.below(3)], patch),
                _ => (tile_dim(rng), tile_dim(rng), tile_dim(rng)),
            };
            ((m, k, n), rng.below(1 << 20) as u64, rng.coin(0.5))
        },
        |&((m, k, n), seed, specials)| {
            let mut rng = Rng::seed_from(seed);
            let mut values = |len: usize| -> Vec<f32> {
                (0..len).map(|_| tile_value(&mut rng, specials)).collect()
            };
            let (dy, dy_t, rhs) = (values(m * k), values(k * m), values(k * n));
            let rhs_t = transposed(&rhs, k, n);
            let tb = Tensor::from_vec(rhs.clone(), &[k, n]).unwrap();

            let dx = Tensor::from_vec(dy.clone(), &[m, k]).unwrap().matmul(&tb);
            prop_assert_eq!(dx.dims(), &[m, n]);
            let want = ascending_dot_reference(&dy, &rhs_t, m, k, n);
            assert_bitwise(dx.data(), &want, n, "matmul")?;

            let dw = Tensor::from_vec(dy_t.clone(), &[k, m]).unwrap().transposed_matmul(&tb);
            prop_assert_eq!(dw.dims(), &[m, n]);
            let want_dw = ascending_dot_reference(&transposed(&dy_t, k, m), &rhs_t, m, k, n);
            assert_bitwise(dw.data(), &want_dw, n, "transposed_matmul")?;

            // The slice entry on a random two-way split of `dy`'s rows,
            // into outputs that start at `f32::MAX` (see above).
            let split = rng.below(m + 1);
            let mut rows = vec![f32::MAX; m * n];
            let (top, bottom) = rows.split_at_mut(split * n);
            matmul_rows(&dy[..split * k], &rhs, n, top);
            matmul_rows(&dy[split * k..], &rhs, n, bottom);
            assert_bitwise(&rows, &want, n, "matmul_rows")
        },
    );
}

/// `got` equals `want` bit for bit, except that a NaN only has to be a
/// NaN: IEEE leaves a NaN's sign unspecified, and the compiler may
/// commute an add, so only the NaN's position is pinned.
fn assert_bitwise(got: &[f32], want: &[f32], n: usize, kernel: &str) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len());
    for (idx, (&g, &w)) in got.iter().zip(want).enumerate() {
        if w.is_nan() {
            prop_assert!(
                g.is_nan(),
                "{} [{}, {}]: {} where NaN",
                kernel,
                idx / n,
                idx % n,
                g
            );
        } else {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "{} [{}, {}]: {:e} ({:#010x}) vs reference {:e} ({:#010x})",
                kernel,
                idx / n,
                idx % n,
                g,
                g.to_bits(),
                w,
                w.to_bits()
            );
        }
    }
    Ok(())
}

/// Pinned seed of the convolution-lowering suite below.
const LOWERING_SUITE: u64 = 0x7E45_0012;

/// The per-element unfold loop that `im2col` ran before it worked from
/// tap ranges: every patch element is tested against the image bounds,
/// and padding keeps the `0.0` the buffer starts with.
fn im2col_reference(x: &[f32], n: usize, g: &Conv2dGeometry) -> Vec<f32> {
    let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
    let (oh, ow, patch) = (g.out_h(), g.out_w(), g.patch_len());
    let (kh, kw) = (g.kernel_h, g.kernel_w);
    let (pad_y, pad_x) = (g.padding_h as isize, g.padding_w as isize);
    let mut out = vec![0.0f32; n * oh * ow * patch];
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * patch;
                let base_y = (oy * g.stride) as isize - pad_y;
                let base_x = (ox * g.stride) as isize - pad_x;
                for ci in 0..c {
                    let chan = (ni * c + ci) * h * w;
                    for ky in 0..kh {
                        let iy = base_y + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = base_x + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out[row + (ci * kh + ky) * kw + kx] =
                                x[chan + iy as usize * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// The per-element fold loop that `col2im` ran before it worked from tap
/// ranges: each image element adds its contributions in ascending
/// `(oy, ox)`.
fn col2im_reference(cols: &[f32], n: usize, g: &Conv2dGeometry) -> Vec<f32> {
    let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
    let (oh, ow, patch) = (g.out_h(), g.out_w(), g.patch_len());
    let (kh, kw) = (g.kernel_h, g.kernel_w);
    let (pad_y, pad_x) = (g.padding_h as isize, g.padding_w as isize);
    let mut out = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * patch;
                let base_y = (oy * g.stride) as isize - pad_y;
                let base_x = (ox * g.stride) as isize - pad_x;
                for ci in 0..c {
                    let chan = (ni * c + ci) * h * w;
                    for ky in 0..kh {
                        let iy = base_y + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = base_x + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out[chan + iy as usize * w + ix as usize] +=
                                cols[row + (ci * kh + ky) * kw + kx];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Free parameters of a conv geometry: `(channels, extra height, extra
/// width)`, `(kernel height, kernel width)` and `(stride, padding above,
/// padding left)`, each counted from its least value, so that a shrunk
/// case is still a valid geometry.
type GeometryParams = ((usize, usize, usize), (usize, usize), (usize, usize, usize));

/// Kernels of 1–5 taps per axis, not always square, strides of 1–3 and
/// padding of up to kernel + 1 per axis, which puts some windows wholly
/// in padding.
fn lowering_params(rng: &mut Rng) -> GeometryParams {
    let kh = rng.below(5);
    let kw = if rng.coin(0.5) { kh } else { rng.below(5) };
    let shape = (rng.below(3), rng.below(7), rng.below(7));
    (shape, (kh, kw), (rng.below(3), rng.below(7), rng.below(7)))
}

/// The geometry of `lowering_params`: each input extent is the least
/// that fits the kernel (at least 1) plus its extra.
fn lowering_geometry(params: &GeometryParams) -> Conv2dGeometry {
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
fn conv_lowering_is_bitwise_the_per_element_loops() {
    check(
        "tensor::conv_lowering_is_bitwise_the_per_element_loops",
        Config::new(LOWERING_SUITE).cases(256),
        |rng| (lowering_params(rng), rng.below(4), rng.below(1 << 20) as u64, rng.coin(0.5)),
        |(params, n, seed, specials)| {
            let (g, n, specials) = (lowering_geometry(params), *n, *specials);
            let mut rng = Rng::seed_from(*seed);
            let numel = n * g.in_channels * g.in_h * g.in_w;
            let x: Vec<f32> = (0..numel).map(|_| tile_value(&mut rng, specials)).collect();
            let want = im2col_reference(&x, n, &g);
            let patch = g.patch_len();
            let input = Tensor::from_vec(x.clone(), &[n, g.in_channels, g.in_h, g.in_w]).unwrap();
            let cols = im2col(&input, &g);
            prop_assert_eq!(cols.dims(), &[want.len() / patch, patch]);
            assert_bitwise(cols.data(), &want, patch, "im2col")?;
            // The slice entry must write every element itself, padding
            // as +0.0: a NaN left over fails the comparison.
            let mut into = vec![f32::NAN; want.len()];
            im2col_into(&x, &g, &mut into);
            assert_bitwise(&into, &want, patch, "im2col_into")?;

            let grads: Vec<f32> = (0..want.len()).map(|_| tile_value(&mut rng, specials)).collect();
            let folded = col2im(&Tensor::from_vec(grads.clone(), cols.dims()).unwrap(), n, &g);
            prop_assert_eq!(folded.dims(), input.dims());
            assert_bitwise(folded.data(), &col2im_reference(&grads, n, &g), g.in_w, "col2im")
        },
    );
}

#[test]
fn conv_row_reorders_round_trip() {
    check(
        "tensor::conv_row_reorders_round_trip",
        Config::new(LOWERING_SUITE),
        |rng| (rng.below(4), rng.below(5) + 1, rng.below(20) + 1, rng.below(1 << 20) as u64),
        |&(n, channels, spatial, seed)| {
            let mut rng = Rng::seed_from(seed);
            let len = n * spatial * channels;
            let rows: Vec<f32> = (0..len).map(|_| tile_value(&mut rng, true)).collect();
            let mut images = vec![f32::NAN; rows.len()];
            rows_to_nchw(&rows, channels, spatial, &mut images);
            for (i, &v) in rows.iter().enumerate() {
                let (ni, p, ci) = (i / (spatial * channels), i / channels % spatial, i % channels);
                let at = (ni * channels + ci) * spatial + p;
                prop_assert!(images[at].to_bits() == v.to_bits(), "row value {} misplaced", i);
            }
            let mut back = vec![f32::NAN; rows.len()];
            nchw_to_rows(&images, channels, spatial, &mut back);
            assert_bitwise(&back, &rows, channels, "nchw_to_rows")
        },
    );
}
