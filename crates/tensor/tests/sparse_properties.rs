//! Property-based tests for the CSR sparse kernels, on the in-repo
//! `sb-check` harness. Every failure message carries an `SB_CHECK_SEED`
//! that replays the exact case.
//!
//! These properties pin the contract `sb-infer` builds on: CSR conversion
//! is lossless, and every sparse product agrees with the dense reference
//! kernel — across random shapes and densities, including fully-zero and
//! fully-dense rows.

use sb_check::{check, prop_assert, prop_assert_eq, Config, Rng};
use sb_tensor::{SparseMatrix, Tensor};

/// Pinned suite seed (sb-check convention: one suite constant per crate
/// area, `0x7E45_0001..` so far; sparse kernels own `_0009`).
const SUITE: u64 = 0x7E45_0009;

fn cfg() -> Config {
    Config::new(SUITE)
}

/// Random weight data whose rows are a mix of sparse, fully-zero, and
/// fully-dense — the row regimes a CSR kernel must handle.
fn weight_data(rng: &mut Rng, rows: usize, cols: usize) -> Vec<f32> {
    let density = rng.uniform(0.0, 1.0) as f64;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        // 1 = fully-zero row, 2 = fully-dense row, else random density.
        let regime = rng.below(4);
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
    data
}

fn dense_data(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-5.0, 5.0)).collect()
}

/// Builds a `[rows, cols]` tensor, or `None` when a shrunk candidate's
/// data length no longer matches the shape (such cases pass vacuously).
fn tensor_of(data: &[f32], rows: usize, cols: usize) -> Option<Tensor> {
    if data.len() != rows * cols {
        return None;
    }
    Tensor::from_vec(data.to_vec(), &[rows, cols]).ok()
}

#[test]
fn from_dense_to_dense_roundtrip_is_identity() {
    check(
        "sparse::from_dense_to_dense_roundtrip_is_identity",
        cfg(),
        |rng| {
            let rows = rng.below(8) + 1;
            let cols = rng.below(10) + 1;
            (rows, cols, weight_data(rng, rows, cols))
        },
        |(rows, cols, data)| {
            let Some(w) = tensor_of(data, *rows, *cols) else {
                return Ok(());
            };
            let sparse = SparseMatrix::from_dense(&w);
            prop_assert_eq!(sparse.to_dense(), w.clone());
            prop_assert_eq!(sparse.nnz(), w.count_nonzero());
            let expected = w.count_nonzero() as f64 / w.numel() as f64;
            prop_assert!((sparse.density() - expected).abs() < 1e-12);
            Ok(())
        },
    );
}

#[test]
fn dense_matmul_transposed_matches_dense_reference() {
    check(
        "sparse::dense_matmul_transposed_matches_dense_reference",
        cfg(),
        |rng| {
            let rows = rng.below(8) + 1;
            let cols = rng.below(10) + 1;
            let m = rng.below(6) + 1;
            let w = weight_data(rng, rows, cols);
            let x = dense_data(rng, m * cols);
            ((rows, cols, m), w, x)
        },
        |((rows, cols, m), wdata, xdata)| {
            let (Some(w), Some(x)) = (
                tensor_of(wdata, *rows, *cols),
                tensor_of(xdata, *m, *cols),
            ) else {
                return Ok(());
            };
            let fast = SparseMatrix::from_dense(&w).dense_matmul_transposed(&x);
            let slow = x.matmul_transposed(&w);
            prop_assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.data().iter().zip(slow.data()) {
                prop_assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()), "{} vs {}", a, b);
            }
            Ok(())
        },
    );
}
