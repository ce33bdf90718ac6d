//! Matrix multiplication kernels.
//!
//! These are the hot kernels for both linear layers and (via im2col)
//! convolutions, written in safe Rust with no SIMD intrinsics.
//!
//! - The forward products `a · bᵀ` run on one register tile with two
//!   callers. [`PackedRhs`] holds `b` packed into [`NR`]-wide column
//!   panels ([`NR_NARROW`]-wide when there are at most that many outputs
//!   per row), and [`PackedRhs::matmul_rows`] computes [`MR`]-row tiles
//!   on the calling thread, holding a tile's accumulators in registers
//!   while stepping `kk` upward. [`Tensor::matmul_transposed`], the
//!   forward of every `Linear` and `Conv2d` in training and evaluation,
//!   packs `rhs` on every call and runs the tile over parallel row
//!   blocks; sb-infer's dense kernel packs its weights once at compile
//!   time and runs the tile inside its own batch blocks. The tile's
//!   independent accumulators are what let the compiler vectorize it at
//!   the default SSE2 target; a one-output-at-a-time dot product is a
//!   serial chain of adds, bound by add latency.
//! - The backward products run on a second register tile that reads
//!   `b: [k, n]` in place, a window of [`NR`] adjacent values of one row
//!   of `b` per `kk` step, so neither product copies its large operand
//!   (ResNet-8's 2.4 MB patch matrix in `dW`). [`Tensor::transposed_matmul`] computes
//!   the weight gradients `dW = dyᵀ · X` of `Linear` and `Conv2d`: its
//!   left operand `dy: [k, m]` is read column-wise, [`MR`] adjacent
//!   values per `kk`. [`Tensor::matmul`] computes the input gradients
//!   `dx = dy · W` through [`matmul_rows`], which interleaves each tile's
//!   [`MR`] rows of `dy` (`k × MR` values) once and reuses them for
//!   every column window. A product whose `n` is not a multiple of the
//!   window ends with a window that overlaps the one before it, so every
//!   window is full width. Neither tile tests for zero factors, which
//!   would put a test on every multiply-add. On the `grid` workload's
//!   layer shapes (the kernels bench's `backward-grid` group, one thread,
//!   a 2-vCPU x86-64 host) the tiles take 0.07–0.13 ns per multiply-add
//!   for `dW` and 0.07–0.20 for `dx`, against 0.09–0.93 and 0.08–1.07
//!   for the zero-skipping `ikj` loops they replaced, which they beat
//!   even on LeNet-300's ReLU-sparse gradients (half zeros).
//!
//! **Order invariant.** Each output element starts at `0.0` and adds its
//! products `a·b` one at a time in ascending `kk`, as separate multiplies
//! and adds (never a fused multiply-add). The tiles only change which
//! outputs are in flight together, never the operations that produce one
//! of them, so they are bit-identical to the plain dot-product loop,
//! however their rows are split between calls.
//! `crates/tensor/tests/properties.rs` checks that bit for bit for all
//! three products, and `crates/nn/tests/training_digest.rs` pins the
//! bits of a few training steps. Every product term is computed, so
//! `0·±∞` and `0·NaN` give NaN as IEEE 754 says; on finite inputs a zero
//! factor adds `±0.0` to a sum that starts at `+0.0` and so is never
//! `−0.0`, which changes no bit.
//!
//! The `Tensor` kernels parallelize over **disjoint blocks of output
//! rows** via `sb_runtime::for_each_chunk_mut`, with block sizes that
//! depend only on the shape. Each output element is accumulated by
//! exactly one task, so results are bit-identical for any
//! `SB_RUNTIME_THREADS`, including 1 (which runs the same blocks inline).
//! Blocks hold whole [`MR`]-row tiles. [`PackedRhs::matmul_rows`] and
//! [`matmul_rows`] never fan out: their caller owns the parallelism.

use crate::tensor::Tensor;

/// Output rows per register tile.
const MR: usize = 4;

/// Output columns per packed panel of a [`PackedRhs`]: two SSE2 vectors
/// of `f32`, so an `MR × NR` tile is 8 vector accumulators.
const NR: usize = 8;

/// The panel width for products with at most 4 outputs per row (the
/// 4-filter convs of a width-4 ResNet), where an [`NR`]-wide panel would
/// be half padding.
const NR_NARROW: usize = 4;

/// Output rows per parallel task, targeting ~32k mul-adds per task so
/// tiny matrices stay single-chunk (inline) and large ones split evenly.
/// Depends only on the problem shape — never on the worker count — which
/// is what keeps chunk boundaries (and thus results) deterministic.
fn rows_per_task(work_per_row: usize, m: usize) -> usize {
    (32_768 / work_per_row.max(1)).clamp(1, m.max(1))
}

/// Packs `b` (`[n, k]`, row-major) into `⌈n / W⌉` panels of `k × W`:
/// panel `p` holds `b[p·W + c][kk]` at `kk·W + c`, zero-padded past
/// row `n` of `b`, so one `kk` step of a tile reads `W` adjacent values.
fn pack_panels<const W: usize>(b: &[f32], n: usize, k: usize) -> Vec<f32> {
    let mut panels = vec![0.0f32; n.div_ceil(W) * k * W];
    // `b` is empty when `k` is 0, and so are the panels.
    for (j, b_row) in b.chunks_exact(k.max(1)).enumerate() {
        let panel = &mut panels[(j / W) * k * W..][..k * W];
        for (slot, &v) in panel.iter_mut().skip(j % W).step_by(W).zip(b_row) {
            *slot = v;
        }
    }
    panels
}

/// A right-hand side `b: [n, k]` packed once into the register tile's
/// column panels, for any number of products `a · bᵀ` with the same `b`.
///
/// [`Tensor::matmul_transposed`] packs its `rhs` on every call; a caller
/// that multiplies by the same matrix many times (sb-infer's dense
/// kernel, whose weights are fixed at compile time) packs it once and
/// calls [`PackedRhs::matmul_rows`] directly. Both callers run the same
/// tile, so both produce the ascending-dot bits described in the module
/// docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedRhs {
    n: usize,
    k: usize,
    /// [`NR_NARROW`]-wide panels when `n ≤ NR_NARROW`, else [`NR`]-wide.
    panels: Vec<f32>,
}

impl PackedRhs {
    /// Packs the 2-D tensor `b: [n, k]`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not 2-D.
    pub fn pack(b: &Tensor) -> PackedRhs {
        assert_eq!(b.shape().ndim(), 2, "packed rhs must be 2-D");
        let (n, k) = (b.dim(0), b.dim(1));
        let panels = if n <= NR_NARROW {
            pack_panels::<NR_NARROW>(b.data(), n, k)
        } else {
            pack_panels::<NR>(b.data(), n, k)
        };
        PackedRhs { n, k, panels }
    }

    /// `n`: the rows of the packed matrix, so the outputs per row of a
    /// product.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// `k`: the columns of the packed matrix, so the length of each row
    /// of `a`.
    pub fn cols(&self) -> usize {
        self.k
    }

    /// The outputs per row the tile computes for a packed matrix of `n`
    /// rows: `n` rounded up to whole panels, whose padding columns are
    /// computed and dropped.
    pub fn padded_rows(n: usize) -> usize {
        let w = if n <= NR_NARROW { NR_NARROW } else { NR };
        n.div_ceil(w) * w
    }

    /// `out = a · bᵀ` for the row-major rows of `a` (`m × k` values) into
    /// `out` (`m × n`), on the calling thread: [`MR`]-row tiles, then the
    /// last one to three rows one at a time. Each output starts at `0.0`
    /// and adds `a[i][kk] · b[j][kk]` in ascending `kk`, so splitting `a`'s
    /// rows between calls never changes a bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `out` do not hold the same number of rows.
    pub fn matmul_rows(&self, a: &[f32], out: &mut [f32]) {
        let (n, k) = (self.n, self.k);
        // `a` has no values to count rows by when `k` is 0.
        let m = a.len().checked_div(k).unwrap_or(out.len() / n.max(1));
        assert!(
            a.len() == m * k && out.len() == m * n,
            "matmul_rows slice lengths disagree: {} lhs values and {} outputs \
             for a [{n}, {k}] rhs",
            a.len(),
            out.len()
        );
        if out.is_empty() {
            return;
        }
        if k == 0 {
            out.fill(0.0);
        } else if n <= NR_NARROW {
            tile_rows::<NR_NARROW>(a, k, n, &self.panels, out);
        } else {
            tile_rows::<NR>(a, k, n, &self.panels, out);
        }
    }
}

/// `out = a · bᵀ` over `W`-wide `panels` (`k > 0`, `out` non-empty):
/// whole [`MR`]-row tiles, then the remaining rows one at a time.
fn tile_rows<const W: usize>(a: &[f32], k: usize, n: usize, panels: &[f32], out: &mut [f32]) {
    for (out_tile, a_tile) in out.chunks_mut(MR * n).zip(a.chunks(MR * k)) {
        if out_tile.len() == MR * n {
            row_tile::<MR, W>(a_tile, k, panels, out_tile);
        } else {
            for (out_row, a_row) in out_tile.chunks_mut(n).zip(a_tile.chunks(k)) {
                row_tile::<1, W>(a_row, k, panels, out_row);
            }
        }
    }
}

/// Computes `R` output rows of `a · bᵀ` (`a_tile` is `R × k`, `out_tile`
/// is `R × n`), one `R × W` tile per panel. Each accumulator starts at
/// `0.0` and adds `a[r][kk] · b[j][kk]` in ascending `kk`: the plain dot
/// product's order, with `R · W` independent chains in flight instead of
/// one. The last panel's padding columns are computed and dropped.
fn row_tile<const R: usize, const W: usize>(
    a_tile: &[f32],
    k: usize,
    panels: &[f32],
    out_tile: &mut [f32],
) {
    let n = out_tile.len() / R;
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a_tile[r * k..(r + 1) * k]);
    for (p, panel) in panels.chunks_exact(k * W).enumerate() {
        let mut acc = [[0.0f32; W]; R];
        for (kk, b) in panel.chunks_exact(W).enumerate() {
            for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = a_row[kk];
                for (o, &bv) in acc_row.iter_mut().zip(b) {
                    *o += av * bv;
                }
            }
        }
        let j0 = p * W;
        let width = W.min(n - j0);
        for (out_row, acc_row) in out_tile.chunks_exact_mut(n).zip(&acc) {
            out_row[j0..j0 + width].copy_from_slice(&acc_row[..width]);
        }
    }
}

/// `out = a · b` for the row-major rows of `a` (`m × k` values) and
/// `b: [k, n]` (`k × n` values, row-major), on the calling thread: the
/// backward tile of [`Tensor::matmul`] without the runtime's row blocks.
/// Each output starts at `0.0` and adds `a[i][kk] · b[kk][j]` in
/// ascending `kk`, so splitting `a`'s rows between calls never changes a
/// bit.
///
/// # Panics
///
/// Panics if `b` is not whole rows of `n` values, or if `a` and `out` do
/// not hold the same number of rows.
pub fn matmul_rows(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        assert!(out.is_empty(), "matmul_rows: {} outputs for n = 0", out.len());
        return;
    }
    let (m, k) = (out.len() / n, b.len() / n);
    assert!(
        out.len() == m * n && b.len() == k * n && a.len() == m * k,
        "matmul_rows slice lengths disagree: {} lhs values, {} rhs values and {} \
         outputs for n = {n}",
        a.len(),
        b.len(),
        out.len()
    );
    if k == 0 {
        out.fill(0.0);
        return;
    }
    // Each tile's `MR` rows of `a`, interleaved once so that a `kk` step
    // reads `MR` adjacent values, the layout `transposed_rows` reads in
    // place.
    let mut a_cols = vec![[0.0f32; MR]; k];
    for (out_tile, a_tile) in out.chunks_mut(MR * n).zip(a.chunks(MR * k)) {
        if out_tile.len() == MR * n {
            for (r, a_row) in a_tile.chunks_exact(k).enumerate() {
                for (col, &v) in a_cols.iter_mut().zip(a_row) {
                    col[r] = v;
                }
            }
            lhs_tile(a_cols.iter().copied(), b, n, out_tile);
        } else {
            for (out_row, a_row) in out_tile.chunks_mut(n).zip(a_tile.chunks(k)) {
                lhs_tile(a_row.iter().map(|&v| [v]), b, n, out_row);
            }
        }
    }
}

/// Output rows `i0..` of `aᵀ · b` for `a: [k, m]` and `b: [k, n]`, both
/// row-major and read in place, into `out` (whole rows of `n > 0`
/// values): output row `i` is column `i` of `a`.
fn transposed_rows(a: &[f32], m: usize, i0: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for (t, out_tile) in out.chunks_mut(MR * n).enumerate() {
        let i = i0 + t * MR;
        if out_tile.len() == MR * n {
            let cols = a.chunks_exact(m).map(move |a_row| -> [f32; MR] {
                a_row[i..i + MR].try_into().expect("MR columns")
            });
            lhs_tile(cols, b, n, out_tile);
        } else {
            for (r, out_row) in out_tile.chunks_mut(n).enumerate() {
                lhs_tile(a.chunks_exact(m).map(move |a_row| [a_row[i + r]]), b, n, out_row);
            }
        }
    }
}

/// `R` output rows (`out_tile` is `R × n`) of a backward product, in
/// column windows of [`NR`] outputs ([`NR_NARROW`] or one when `n` is
/// narrower). `lhs` yields the tile's left-operand values `[a[r][kk]; R]`
/// for ascending `kk`, and `b: [k, n]` is read in place.
fn lhs_tile<const R: usize>(
    lhs: impl Iterator<Item = [f32; R]> + Clone,
    b: &[f32],
    n: usize,
    out_tile: &mut [f32],
) {
    if n >= NR {
        lhs_windows::<R, NR>(lhs, b, n, out_tile);
    } else if n >= NR_NARROW {
        lhs_windows::<R, NR_NARROW>(lhs, b, n, out_tile);
    } else {
        lhs_windows::<R, 1>(lhs, b, n, out_tile);
    }
}

/// Computes `R` output rows (`n ≥ W`) one `R × W` window of accumulators
/// at a time. Each accumulator starts at `0.0` and adds `a[r][kk] ·
/// b[kk][j]` in ascending `kk`, with `W` adjacent values of each row of
/// `b`. When `W` does not divide `n`, the last window ends at column `n`
/// and overlaps the one before it, whose columns it recomputes with the
/// same operations.
fn lhs_windows<const R: usize, const W: usize>(
    lhs: impl Iterator<Item = [f32; R]> + Clone,
    b: &[f32],
    n: usize,
    out_tile: &mut [f32],
) {
    let mut j = 0;
    while j < n {
        let start = j.min(n - W);
        let mut acc = [[0.0f32; W]; R];
        for (av, b_row) in lhs.clone().zip(b.chunks_exact(n)) {
            let b_window: &[f32; W] = b_row[start..start + W].try_into().expect("W columns");
            for (acc_row, &a) in acc.iter_mut().zip(&av) {
                for (o, &bv) in acc_row.iter_mut().zip(b_window) {
                    *o += a * bv;
                }
            }
        }
        for (out_row, acc_row) in out_tile.chunks_exact_mut(n).zip(&acc) {
            out_row[start..start + W].copy_from_slice(acc_row);
        }
        j = start + W;
    }
}

impl Tensor {
    /// Matrix product of two 2-D tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// The input-gradient kernel of `Linear` and `Conv2d` (`dx = dy · W`).
    /// It runs [`matmul_rows`] over parallel row blocks, with results
    /// bit-identical to computing each output on its own as
    /// `Σ self[i][kk] · rhs[kk][j]`, added in ascending `kk` from `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(
            k, k2,
            "matmul inner dimensions differ: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let mut out = vec![0.0f32; m * n];
        if out.is_empty() {
            return Tensor::from_vec(out, &[m, n]).expect("shape computed above");
        }
        let (a, b) = (self.data(), rhs.data());
        let rows_per = rows_per_task(k * n, m).next_multiple_of(MR);
        sb_runtime::for_each_chunk_mut(&mut out, rows_per * n, |ci, block| {
            matmul_rows(&a[ci * rows_per * k..][..block.len() / n * k], b, n, block);
        });
        Tensor::from_vec(out, &[m, n]).expect("shape computed above")
    }

    /// `self × rhsᵀ` for 2-D tensors: `[m, k] × ([n, k])ᵀ → [m, n]`.
    ///
    /// The forward kernel of `Linear` (activations × weightsᵀ) and
    /// `Conv2d` (im2col rows × filtersᵀ). It packs `rhs` into column
    /// panels and computes a block of outputs (4 rows by up to 8 columns)
    /// at a time, with results bit-identical to computing each output on
    /// its own as `Σ self[i][kk] · rhs[j][kk]`, added in ascending `kk`
    /// from `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_transposed(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul_transposed lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul_transposed rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (n, k2) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(
            k, k2,
            "matmul_transposed shared dimensions differ: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let mut out = vec![0.0f32; m * n];
        if out.is_empty() || k == 0 {
            return Tensor::from_vec(out, &[m, n]).expect("shape computed above");
        }
        let packed = PackedRhs::pack(rhs);
        // Blocks of whole tiles: a wide product (LeNet-300's fc1 is 76.8k
        // mul-adds per row) would otherwise get one-row blocks, which
        // leave a tile one row tall.
        let rows_per = rows_per_task(k * n, m).next_multiple_of(MR);
        let a = self.data();
        sb_runtime::for_each_chunk_mut(&mut out, rows_per * n, |ci, block| {
            let a_block = &a[ci * rows_per * k..][..block.len() / n * k];
            packed.matmul_rows(a_block, block);
        });
        Tensor::from_vec(out, &[m, n]).expect("shape computed above")
    }

    /// `selfᵀ × rhs` for 2-D tensors: `([k, m])ᵀ × [k, n] → [m, n]`.
    ///
    /// The weight-gradient kernel of `Linear` and `Conv2d`
    /// (`dW = dyᵀ · x`). It reads `self` column-wise in place, never
    /// materializing the transpose, and computes a block of outputs
    /// (4 rows by up to 8 columns) at a time, with results bit-identical
    /// to computing each output on its own as `Σ self[kk][i] · rhs[kk][j]`,
    /// added in ascending `kk` from `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the leading dimensions differ.
    pub fn transposed_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "transposed_matmul lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "transposed_matmul rhs must be 2-D");
        let (k, m) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(
            k, k2,
            "transposed_matmul leading dimensions differ: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let mut out = vec![0.0f32; m * n];
        if out.is_empty() {
            return Tensor::from_vec(out, &[m, n]).expect("shape computed above");
        }
        let (a, b) = (self.data(), rhs.data());
        let rows_per = rows_per_task(k * n, m).next_multiple_of(MR);
        sb_runtime::for_each_chunk_mut(&mut out, rows_per * n, |ci, block| {
            transposed_rows(a, m, ci * rows_per, b, n, block);
        });
        Tensor::from_vec(out, &[m, n]).expect("shape computed above")
    }

    /// Matrix–vector product `[m, k] × [k] → [m]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or dimensions are incompatible.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matvec lhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(v.numel(), k, "matvec dimensions differ");
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data()[i * k..(i + 1) * k]
                .iter()
                .zip(v.data())
                .map(|(&a, &b)| a * b)
                .sum();
        }
        Tensor::from_vec(out, &[m]).expect("shape computed above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[3, 3]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(3)).data(), a.data());
        assert_eq!(Tensor::eye(3).matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_transposed_matches_explicit() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|i| (i as f32) * 0.5).collect(), &[4, 3]).unwrap();
        let fast = a.matmul_transposed(&b);
        let slow = a.matmul(&b.transpose2());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transposed_matmul_matches_explicit() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]).unwrap();
        let b = Tensor::from_vec((0..12).map(|i| (i as f32) * 0.25).collect(), &[3, 4]).unwrap();
        let fast = a.transposed_matmul(&b);
        let slow = a.transpose2().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let v = Tensor::from_slice(&[1.0, 0.5, -1.0]);
        let mv = a.matvec(&v);
        let mm = a.matmul(&v.reshape(&[3, 1]).unwrap());
        assert_eq!(mv.data(), mm.data());
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_incompatible() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "slice lengths disagree")]
    fn packed_matmul_rows_rejects_mismatched_slices() {
        // Two rows of `a` for a `[3, 4]` rhs need 6 outputs, not 5.
        let packed = PackedRhs::pack(&Tensor::zeros(&[3, 4]));
        packed.matmul_rows(&[0.0; 8], &mut [0.0; 5]);
    }

    #[test]
    fn matmul_with_zero_output_columns_is_empty() {
        let c = Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[3, 0]));
        assert_eq!(c.dims(), &[2, 0]);
    }

    #[test]
    fn matmul_transposed_with_zero_output_columns_is_empty() {
        let c = Tensor::zeros(&[2, 3]).matmul_transposed(&Tensor::zeros(&[0, 3]));
        assert_eq!(c.dims(), &[2, 0]);
    }

    #[test]
    fn transposed_matmul_with_zero_output_columns_is_empty() {
        let c = Tensor::zeros(&[3, 2]).transposed_matmul(&Tensor::zeros(&[3, 0]));
        assert_eq!(c.dims(), &[2, 0]);
    }

    #[test]
    fn matmul_skips_zeros_correctly() {
        // A zero lhs entry adds a `±0.0` product, which changes no finite
        // sum that starts at `+0.0`.
        let a = Tensor::from_vec(vec![0.0, 2.0, 0.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&b).data(), &[2.0, 2.0, 0.0, 0.0]);
    }
}
