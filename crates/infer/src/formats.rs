//! Blocked-sparse (BSR) and bitmap weight storage.
//!
//! Both formats were written against a CSR kernel that has since been
//! replaced: one accumulator per output over unfolded patch rows, with an
//! indirect column load per stored nonzero, which an early
//! `latency-attribution` run showed costing conv layers ~6× their FLOP
//! count. CSR now runs a row tile on linear layers and the packed sparse
//! convolution on convs, and the fitted cost model picks neither format
//! for any layer of its fit's 32 models. They attack the same problem
//! from different ends. [`BsrMatrix`] amortizes that index overhead across a
//! fixed-width block of contiguous lanes (one column index per
//! [`BSR_BLOCK_W`] multiply-adds, and the matching input lanes are
//! contiguous in the im2col patch row, so the block inner loop
//! vectorizes like a dense kernel). [`BitmapMatrix`] keeps the values
//! dense and adds a per-row occupancy bitmask; its inner loop walks set
//! bits with `trailing_zeros`, so mid-sparsity rows skip zeros without
//! loading an index array at all.
//!
//! Both conversions are exact: `from_dense` → `to_dense` reproduces the
//! input values verbatim (zeros inside a stored BSR block are stored as
//! zeros, and the bitmap keeps the whole dense value array), which the
//! `formats.rs` property suite pins. Both kernels use a fixed,
//! input-independent reduction order — the bitmap pops bits in ascending
//! column order like the CSR kernel; BSR keeps one accumulator per block
//! lane and folds them pairwise at the end of each row — so parity stays
//! within the engine's 1e-4 contract and execution is byte-identical at
//! any thread count.

use sb_tensor::Tensor;

/// Fixed BSR block width (columns per block).
///
/// Tuned on the `realized` bench: 4 lanes amortize the per-block index
/// to a quarter of CSR's per-nonzero cost while keeping the occupancy
/// blow-up of *random* (unstructured) sparsity tolerable — at 16×
/// pruning (~6% density) a 4-wide block is live with probability ~22%,
/// so the kernel still skips ~78% of the dense work.
pub const BSR_BLOCK_W: usize = 4;

/// Block-compressed sparse rows with a fixed block width.
///
/// Each stored block covers `block_w` contiguous columns of one row and
/// is stored densely (zeros inside a live block are kept), so one column
/// index serves `block_w` multiply-adds. Blocks are stored in ascending
/// column order per row; rows with no live blocks store nothing and the
/// kernel still emits their bias (an all-zero row never becomes an
/// "empty" output).
#[derive(Debug, Clone, PartialEq)]
pub struct BsrMatrix {
    rows: usize,
    cols: usize,
    block_w: usize,
    /// Prefix block counts, `rows + 1` entries.
    row_ptr: Vec<u32>,
    /// Starting column of each block (a multiple of `block_w`).
    block_starts: Vec<u32>,
    /// `num_blocks() * block_w` values; lanes past the right matrix edge
    /// are zero-padded.
    values: Vec<f32>,
}

impl BsrMatrix {
    /// Extracts every block (of `block_w` contiguous columns) containing
    /// at least one nonzero from a `[rows, cols]` dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not 2-D or `block_w` is zero.
    pub fn from_dense(dense: &Tensor, block_w: usize) -> BsrMatrix {
        assert!(block_w > 0, "BSR block width must be positive");
        assert_eq!(dense.shape().ndim(), 2, "BSR source must be 2-D");
        let (rows, cols) = (dense.dim(0), dense.dim(1));
        let data = dense.data();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut block_starts = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let mut start = 0usize;
            while start < cols {
                let end = (start + block_w).min(cols);
                if row[start..end].iter().any(|&v| v != 0.0) {
                    block_starts.push(start as u32);
                    values.extend_from_slice(&row[start..end]);
                    // Right-edge blocks are zero-padded to full width so
                    // every block's value slice has the same length.
                    values.extend(std::iter::repeat_n(0.0, block_w - (end - start)));
                }
                start += block_w;
            }
            row_ptr.push(block_starts.len() as u32);
        }
        BsrMatrix {
            rows,
            cols,
            block_w,
            row_ptr,
            block_starts,
            values,
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block width this matrix was extracted with.
    pub fn block_w(&self) -> usize {
        self.block_w
    }

    /// Number of stored (live) blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_starts.len()
    }

    /// Multiply-add lanes the kernel executes: every stored block runs
    /// all `block_w` lanes, zeros included.
    pub fn stored_lanes(&self) -> usize {
        self.num_blocks() * self.block_w
    }

    /// Stored nonzero values (excludes zero lanes inside live blocks).
    pub fn nnz(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0.0).count()
    }

    /// Bytes of the compressed representation.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 4 + self.block_starts.len() * 4 + self.row_ptr.len() * 4
    }

    /// The `(block starts, values)` slices of one row.
    pub fn row_blocks(&self, r: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
        (
            &self.block_starts[lo..hi],
            &self.values[lo * self.block_w..hi * self.block_w],
        )
    }

    /// Exact reconstruction of the source matrix.
    pub fn to_dense(&self) -> Tensor {
        let mut data = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let (starts, vals) = self.row_blocks(r);
            for (bi, &s) in starts.iter().enumerate() {
                let s = s as usize;
                let w = self.block_w.min(self.cols - s);
                data[r * self.cols + s..r * self.cols + s + w]
                    .copy_from_slice(&vals[bi * self.block_w..bi * self.block_w + w]);
            }
        }
        Tensor::from_vec(data, &[self.rows, self.cols]).expect("BSR dense shape")
    }

    /// `y[r] = x[r] · Wᵀ + bias` over `x.len() / cols` rows.
    ///
    /// The hot path keeps one accumulator per block lane and folds the
    /// [`BSR_BLOCK_W`] partial sums pairwise at the end of each output
    /// row, so the block loop is a single widening multiply-add per block
    /// with no horizontal reduction inside it — that is what lets the
    /// compiler keep the whole inner loop in vector registers. The
    /// reduction order is fixed (blocks ascending, lanes folded
    /// pairwise, right-edge tail last), so results are bit-deterministic
    /// at any thread count and within the engine's 1e-4 accumulation
    /// tolerance of the dense kernel.
    pub fn matmul_rows(&self, x: &[f32], bias: &[f32], y: &mut [f32]) {
        debug_assert_eq!(bias.len(), self.rows, "BSR bias length");
        debug_assert_eq!(x.len() % self.cols, 0, "BSR input row length");
        if self.block_w == BSR_BLOCK_W {
            self.matmul_rows_w4(x, bias, y);
        } else {
            self.matmul_rows_generic(x, bias, y);
        }
    }

    /// Vector-lane hot path for the engine's fixed block width.
    fn matmul_rows_w4(&self, x: &[f32], bias: &[f32], y: &mut [f32]) {
        const W: usize = BSR_BLOCK_W;
        let cols = self.cols;
        for (xr, yr) in x.chunks_exact(cols).zip(y.chunks_exact_mut(self.rows)) {
            for (j, o) in yr.iter_mut().enumerate() {
                let (starts, vals) = self.row_blocks(j);
                // Only the last block of a row can overhang the right
                // edge (blocks are ascending); peel it so the main loop
                // reads full-width input slices unconditionally.
                let mut n = starts.len();
                let mut tail = 0.0f32;
                if n > 0 {
                    let s = starts[n - 1] as usize;
                    if s + W > cols {
                        n -= 1;
                        for (l, &wv) in vals[n * W..n * W + (cols - s)].iter().enumerate() {
                            tail += wv * xr[s + l];
                        }
                    }
                }
                let mut lanes = [0.0f32; W];
                for (&s, block) in starts[..n].iter().zip(vals.chunks_exact(W)) {
                    let xb = &xr[s as usize..s as usize + W];
                    for l in 0..W {
                        lanes[l] += block[l] * xb[l];
                    }
                }
                *o = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail + bias[j];
            }
        }
    }

    /// Straightforward path for non-default block widths.
    fn matmul_rows_generic(&self, x: &[f32], bias: &[f32], y: &mut [f32]) {
        let (cols, bw) = (self.cols, self.block_w);
        for (xr, yr) in x.chunks_exact(cols).zip(y.chunks_exact_mut(self.rows)) {
            for (j, o) in yr.iter_mut().enumerate() {
                let (starts, vals) = self.row_blocks(j);
                let mut acc = 0.0f32;
                for (bi, &s) in starts.iter().enumerate() {
                    let s = s as usize;
                    let block = &vals[bi * bw..(bi + 1) * bw];
                    let live = bw.min(cols - s);
                    for (l, &wv) in block[..live].iter().enumerate() {
                        acc += wv * xr[s + l];
                    }
                }
                *o = acc + bias[j];
            }
        }
    }
}

/// Dense values plus a per-row occupancy bitmask.
///
/// The value array is the full dense matrix (conversion is trivially
/// exact and zero-copyable back out); the mask — one bit per column,
/// packed into 64-bit words per row — is what the kernel iterates. The
/// inner loop pops set bits with `trailing_zeros`, so a row costs its
/// nonzero count plus one word load per 64 columns: no per-nonzero
/// column-index array, no branch on individual values. That makes it
/// the mid-sparsity format — cheaper than CSR per nonzero, with a small
/// fixed word-scan floor that CSR undercuts only at extreme sparsity.
#[derive(Debug, Clone, PartialEq)]
pub struct BitmapMatrix {
    rows: usize,
    cols: usize,
    /// 64-bit mask words per row (`ceil(cols / 64)`).
    words_per_row: usize,
    /// `rows * words_per_row` occupancy words, LSB = lowest column.
    masks: Vec<u64>,
    /// The dense `[rows, cols]` values, kept verbatim.
    values: Vec<f32>,
}

impl BitmapMatrix {
    /// Builds the bitmask over a `[rows, cols]` dense matrix (bit set
    /// where the value is nonzero) and keeps the values verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not 2-D.
    pub fn from_dense(dense: &Tensor) -> BitmapMatrix {
        assert_eq!(dense.shape().ndim(), 2, "bitmap source must be 2-D");
        let (rows, cols) = (dense.dim(0), dense.dim(1));
        let words_per_row = cols.div_ceil(64);
        let data = dense.data();
        let mut masks = vec![0u64; rows * words_per_row];
        for r in 0..rows {
            for c in 0..cols {
                if data[r * cols + c] != 0.0 {
                    masks[r * words_per_row + c / 64] |= 1u64 << (c % 64);
                }
            }
        }
        BitmapMatrix {
            rows,
            cols,
            words_per_row,
            masks,
            values: data.to_vec(),
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mask words per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Set bits — the multiply-adds the kernel performs.
    pub fn nnz(&self) -> usize {
        self.masks.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bytes of the representation: the dense values *plus* the mask.
    /// Bitmap trades a little storage for mid-sparsity compute; the cost
    /// model selects on compute and `storage_bytes` reports honestly.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 4 + self.masks.len() * 8
    }

    /// Exact reconstruction: masked-off entries read as zero (they were
    /// zero in the source by construction).
    pub fn to_dense(&self) -> Tensor {
        let mut data = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let (mrow, vrow) = self.row(r);
            for (wi, &word) in mrow.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let c = wi * 64 + m.trailing_zeros() as usize;
                    data[r * self.cols + c] = vrow[c];
                    m &= m - 1;
                }
            }
        }
        Tensor::from_vec(data, &[self.rows, self.cols]).expect("bitmap dense shape")
    }

    /// The `(mask words, dense values)` slices of one row.
    pub fn row(&self, r: usize) -> (&[u64], &[f32]) {
        (
            &self.masks[r * self.words_per_row..(r + 1) * self.words_per_row],
            &self.values[r * self.cols..(r + 1) * self.cols],
        )
    }

    /// `y[r] = x[r] · Wᵀ + bias` over `x.len() / cols` rows.
    ///
    /// Bits pop in ascending column order, so the accumulation order
    /// matches the dense and CSR kernels and is thread-count invariant.
    pub fn matmul_rows(&self, x: &[f32], bias: &[f32], y: &mut [f32]) {
        let cols = self.cols;
        debug_assert_eq!(bias.len(), self.rows, "bitmap bias length");
        debug_assert_eq!(x.len() % cols, 0, "bitmap input row length");
        for (xr, yr) in x.chunks_exact(cols).zip(y.chunks_exact_mut(self.rows)) {
            for (j, o) in yr.iter_mut().enumerate() {
                let (mrow, vrow) = self.row(j);
                let mut acc = 0.0f32;
                for (wi, &word) in mrow.iter().enumerate() {
                    let base = wi * 64;
                    let mut m = word;
                    while m != 0 {
                        let c = base + m.trailing_zeros() as usize;
                        acc += vrow[c] * xr[c];
                        m &= m - 1;
                    }
                }
                *o = acc + bias[j];
            }
        }
    }
}
