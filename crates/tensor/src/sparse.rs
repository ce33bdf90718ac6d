//! Compressed sparse row (CSR) matrices and sparse–dense products.
//!
//! The paper's Section 2.1 observes that unstructured pruning yields a
//! network that "may not be arranged in a fashion conducive to speedups
//! using modern libraries and hardware". This module makes that claim
//! measurable in-repo: convert a pruned weight matrix to CSR, run the
//! actual sparse kernel, and compare wall-clock against the dense product
//! — the *realized* counterpart of `sb-metrics`' theoretical speedup.
//!
//! The inference-side product `a · Wᵀ` runs one kernel,
//! [`SparseMatrix::matmul_rows`]: it copies [`LANES`] rows of `a` into a
//! column-major panel, so that each stored entry's index and value load
//! feeds one contiguous [`LANES`]-wide accumulator (two SSE2 vectors)
//! with no gathers. Each output still starts at `+0.0` and adds its
//! products in ascending column, so the kernel is bit-identical to the
//! one-output-at-a-time loop. [`SparseMatrix::dense_matmul_transposed`]
//! calls it from its row blocks and sb-infer's CSR linear layers call it
//! on their batch blocks. A CSR convolution runs [`crate::PackedConv`]
//! instead.

use crate::tensor::Tensor;
use sb_json::json_struct;

/// Rows of `a` per lane group of [`SparseMatrix::matmul_rows`]: two SSE2
/// vectors of `f32`.
const LANES: usize = 8;

/// A sparse matrix in compressed-sparse-row format.
///
/// # Example
///
/// ```
/// use sb_tensor::{SparseMatrix, Tensor};
///
/// let dense = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2])?;
/// let sparse = SparseMatrix::from_dense(&dense);
/// assert_eq!(sparse.nnz(), 2);
/// assert_eq!(sparse.to_dense(), dense);
/// # Ok::<(), sb_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i`.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

json_struct!(SparseMatrix { rows, cols, row_ptr, col_idx, values });

impl SparseMatrix {
    /// Builds a CSR matrix from a dense 2-D tensor, dropping exact zeros.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not 2-D or has more than `u32::MAX` columns
    /// or entries per row table.
    pub fn from_dense(dense: &Tensor) -> Self {
        assert_eq!(dense.shape().ndim(), 2, "CSR requires a 2-D tensor");
        let (rows, cols) = (dense.dim(0), dense.dim(1));
        assert!(cols <= u32::MAX as usize, "too many columns for u32 indices");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            let row = &dense.data()[r * cols..(r + 1) * cols];
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len() as u32);
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are nonzero.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The stored entries of row `r` as parallel `(column, value)` slices,
    /// column-ascending.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Materializes back to a dense tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        for r in 0..self.rows {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for k in lo..hi {
                out.data_mut()[r * self.cols + self.col_idx[k] as usize] = self.values[k];
            }
        }
        out
    }

    /// Storage bytes of this CSR representation (values + column indices
    /// + row pointers).
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 4 + self.col_idx.len() * 4 + self.row_ptr.len() * 4
    }

    /// The panel elements [`SparseMatrix::matmul_rows`] writes: `LANES ×
    /// cols`.
    pub fn panel_len(&self) -> usize {
        LANES * self.cols
    }

    /// `out = a · selfᵀ` for the row-major rows of `a` (`m × cols` values)
    /// into `out` (`m × rows`), on the calling thread, using the first
    /// [`SparseMatrix::panel_len`] elements of `panel` as scratch. Every
    /// element of `out` and of that prefix is written, so both may hold
    /// anything beforehand.
    ///
    /// The rows of `a` run in groups of [`LANES`]: a group is copied once
    /// into the panel as `[cols, LANES]`, lanes past the last row zeroed.
    /// For each output column `j` the group then walks row `j`'s stored
    /// entries once, and each `(col, v)` adds `v × panel[col]` into a
    /// `LANES`-wide accumulator with contiguous loads. Each output starts
    /// at `+0.0` and adds `v · a[i][col]` in ascending column, so
    /// splitting `a`'s rows between calls never changes a bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `out` do not hold the same number of rows, or if
    /// `panel` is shorter than [`SparseMatrix::panel_len`].
    pub fn matmul_rows(&self, a: &[f32], panel: &mut [f32], out: &mut [f32]) {
        let (n, k) = (self.rows, self.cols);
        // `a` has no values to count rows by when `k` is 0.
        let m = a.len().checked_div(k).unwrap_or(out.len() / n.max(1));
        assert!(
            a.len() == m * k && out.len() == m * n,
            "matmul_rows slice lengths disagree: {} lhs values and {} outputs \
             for a [{n}, {k}] CSR matrix",
            a.len(),
            out.len()
        );
        let panel = &mut panel[..self.panel_len()];
        if out.is_empty() {
            return;
        }
        if k == 0 {
            out.fill(0.0);
            return;
        }
        for (out_group, a_group) in out.chunks_mut(LANES * n).zip(a.chunks(LANES * k)) {
            fill_panel(a_group, k, panel);
            for j in 0..n {
                let acc = self.lane_dot(j, panel);
                for (o, &v) in out_group[j..].iter_mut().step_by(n).zip(&acc) {
                    *o = v;
                }
            }
        }
    }

    /// Row `j`'s dot product with every lane of `panel`: each lane starts
    /// at `+0.0` and adds its products in ascending column.
    #[inline(always)]
    fn lane_dot(&self, j: usize, panel: &[f32]) -> [f32; LANES] {
        let (cols, vals) = self.row(j);
        let mut acc = [0.0f32; LANES];
        for (&c, &v) in cols.iter().zip(vals) {
            let x = &panel[c as usize * LANES..][..LANES];
            for (a, &x) in acc.iter_mut().zip(x) {
                *a += v * x;
            }
        }
        acc
    }

    /// Dense × sparseᵀ product: `lhs [m, k] × (self [n, k])ᵀ → [m, n]`.
    ///
    /// With `self` a CSR weight matrix `[out, in]` (the same layout
    /// `Linear` and `Conv2d` store) and `lhs` a batch of activations
    /// `[m, in]`, it computes `lhs · Wᵀ` without materializing the
    /// transpose, by running [`SparseMatrix::matmul_rows`] (the kernel of
    /// sb-infer's CSR linear layers) over parallel blocks of `lhs` rows,
    /// each with a panel of its own.
    /// Each output element `out[i, j]` is a single dot product over row
    /// `j`'s stored entries, accumulated in `k`-ascending index order, so
    /// results are bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `lhs` is not 2-D or `lhs.dim(1) != self.cols()`.
    pub fn dense_matmul_transposed(&self, lhs: &Tensor) -> Tensor {
        assert_eq!(lhs.shape().ndim(), 2, "lhs must be 2-D");
        assert_eq!(
            lhs.dim(1),
            self.cols,
            "shared dimensions differ: {}x{} × ({}x{})ᵀ",
            lhs.dim(0),
            lhs.dim(1),
            self.rows,
            self.cols
        );
        let m = lhs.dim(0);
        let n = self.rows;
        let k = self.cols;
        let mut out = vec![0.0f32; m * n];
        if out.is_empty() {
            return Tensor::from_vec(out, &[m, n]).expect("shape computed above");
        }
        let a = lhs.data();
        // One task handles a block of lhs rows, whole lane groups but the
        // last; per row the whole CSR matrix is walked, so work per row ≈
        // nnz.
        let rows_per = (32_768 / self.nnz().max(1)).max(1).next_multiple_of(LANES).min(m);
        sb_runtime::for_each_chunk_mut(&mut out, rows_per * n, |ci, block| {
            let rows = block.len() / n;
            let mut panel = vec![0.0f32; self.panel_len()];
            self.matmul_rows(&a[ci * rows_per * k..][..rows * k], &mut panel, block);
        });
        Tensor::from_vec(out, &[m, n]).expect("shape computed above")
    }
}

/// Copies the rows of `a` (at most [`LANES`] rows of `k` values) into
/// `panel` as `[k, LANES]`, lane `l` of column `c` holding `a[l][c]`, and
/// zeros the lanes past the last row. Each column is read from every row
/// and written as one contiguous run.
fn fill_panel(a: &[f32], k: usize, panel: &mut [f32]) {
    if a.len() == LANES * k {
        let lanes: [&[f32]; LANES] = std::array::from_fn(|l| &a[l * k..][..k]);
        for (c, column) in panel.chunks_exact_mut(LANES).enumerate() {
            for (dst, lane) in column.iter_mut().zip(&lanes) {
                *dst = lane[c];
            }
        }
    } else {
        // The last group of a call, with fewer rows.
        for (c, column) in panel.chunks_exact_mut(LANES).enumerate() {
            let (rows, past) = column.split_at_mut(a.len() / k);
            for (dst, row) in rows.iter_mut().zip(a.chunks_exact(k)) {
                *dst = row[c];
            }
            past.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rng;

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

    #[test]
    fn round_trip_preserves_dense() {
        let dense = random_sparse(7, 11, 0.3, 1);
        let sparse = SparseMatrix::from_dense(&dense);
        assert_eq!(sparse.to_dense(), dense);
        assert_eq!(sparse.nnz(), dense.count_nonzero());
    }

    #[test]
    fn matvec_matches_dense() {
        // One row of `a`: a lane group whose other seven lanes are zeroed
        // over a NaN-filled panel.
        let mut rng = Rng::seed_from(4);
        let w = random_sparse(6, 9, 0.4, 5);
        let v = Tensor::rand_normal(&[9], 0.0, 1.0, &mut rng);
        let sparse = SparseMatrix::from_dense(&w);
        let mut panel = vec![f32::NAN; sparse.panel_len()];
        let mut fast = vec![f32::NAN; 6];
        sparse.matmul_rows(v.data(), &mut panel, &mut fast);
        let slow = w.matvec(&v);
        for (a, b) in fast.iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_matrix_works() {
        let dense = Tensor::zeros(&[3, 4]);
        let sparse = SparseMatrix::from_dense(&dense);
        assert_eq!(sparse.nnz(), 0);
        assert_eq!(sparse.density(), 0.0);
        let x = Tensor::ones(&[2, 4]);
        assert_eq!(sparse.dense_matmul_transposed(&x), Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn density_and_storage_accounting() {
        let dense = random_sparse(10, 10, 0.5, 6);
        let sparse = SparseMatrix::from_dense(&dense);
        let expected_density = dense.count_nonzero() as f64 / 100.0;
        assert!((sparse.density() - expected_density).abs() < 1e-12);
        assert_eq!(
            sparse.storage_bytes(),
            sparse.nnz() * 8 + (10 + 1) * 4
        );
    }

    #[test]
    fn zero_element_shapes_have_zero_density() {
        // Regression: rows*cols == 0 used to yield NaN density.
        for dims in [[0usize, 5], [5, 0], [0, 0]] {
            let sparse = SparseMatrix::from_dense(&Tensor::zeros(&dims));
            assert_eq!(sparse.rows(), dims[0]);
            assert_eq!(sparse.cols(), dims[1]);
            assert_eq!(sparse.nnz(), 0);
            assert_eq!(sparse.density(), 0.0, "density must be 0.0, not NaN");
            assert_eq!(sparse.to_dense(), Tensor::zeros(&dims));
        }
        // Degenerate products stay well-formed.
        let wide = SparseMatrix::from_dense(&Tensor::zeros(&[0, 5]));
        assert_eq!(
            wide.dense_matmul_transposed(&Tensor::ones(&[2, 5])),
            Tensor::zeros(&[2, 0])
        );
        let tall = SparseMatrix::from_dense(&Tensor::zeros(&[5, 0]));
        assert_eq!(tall.dense_matmul_transposed(&Tensor::zeros(&[3, 0])), Tensor::zeros(&[3, 5]));
    }

    #[test]
    fn dense_matmul_transposed_matches_explicit() {
        let mut rng = Rng::seed_from(8);
        let w = random_sparse(10, 7, 0.3, 9);
        let x = Tensor::rand_normal(&[4, 7], 0.0, 1.0, &mut rng);
        let sparse = SparseMatrix::from_dense(&w);
        let fast = sparse.dense_matmul_transposed(&x);
        let slow = x.matmul_transposed(&w);
        assert_eq!(fast.dims(), &[4, 10]);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "shared dimensions differ")]
    fn dense_matmul_transposed_rejects_mismatch() {
        let sparse = SparseMatrix::from_dense(&Tensor::ones(&[2, 3]));
        sparse.dense_matmul_transposed(&Tensor::ones(&[2, 4]));
    }

    #[test]
    #[should_panic(expected = "slice lengths disagree")]
    fn mismatched_product_panics() {
        let sparse = SparseMatrix::from_dense(&Tensor::ones(&[2, 3]));
        sparse.matmul_rows(&[1.0; 6], &mut [0.0; 24], &mut [0.0; 3]);
    }

    #[test]
    fn json_round_trip() {
        let sparse = SparseMatrix::from_dense(&random_sparse(4, 4, 0.5, 7));
        let json = sb_json::to_string(&sparse).unwrap();
        let back: SparseMatrix = sb_json::from_str(&json).unwrap();
        assert_eq!(back, sparse);
    }
}
