//! Convolution lowering: `im2col` / `col2im`, the reorders between
//! product rows and images, the packed sparse convolution, and
//! output-geometry math.
//!
//! A convolution is a matrix product over a patch matrix: the input
//! `[N, C, H, W]` is unfolded into `[N·H_out·W_out, C·KH·KW]` rows, times
//! the `[C_out, C·KH·KW]` kernel, and the product's rows are reordered
//! into `[N, C_out, H_out, W_out]`; the backward pass reorders the
//! gradient back into rows and folds the patch gradient with `col2im`.
//! This module is the whole lowering. sb-nn's `Conv2d` ([`im2col`],
//! [`col2im`]) and sb-infer's conv step ([`im2col_into`] on its batch
//! blocks) run the same unfold loop.
//!
//! Both directions work from each output pixel's **tap ranges**: the
//! kernel rows and columns whose input lies inside the image. The unfold
//! copies each (channel, kernel-row) run as one slice and writes padding
//! as `+0.0`; the fold adds each run into its image row with no bounds
//! test per element, in the reference loop's order: each image element
//! adds its contributions in ascending `(oy, ox)`.
//!
//! A CSR-weighted convolution skips the lowering altogether.
//! [`PackedConv`] (direct sparse convolution, Park et al., ICLR 2017, run
//! output-stationary as in Elsen et al., "Fast Sparse ConvNets", CVPR
//! 2020) turns each stored weight `(c, ky, kx)` into an offset into the
//! zero-padded sample once, at pack time. Its kernel copies each sample
//! into a zero-padded buffer and keeps a tile of one output row in
//! registers while it walks the filter's weights in ascending column, so
//! every output adds the products the unfolded CSR product would, padded
//! taps times `+0.0` included, in the same order: the same bits.
//! [`sparse_conv_into`] packs and runs it in one call.

use crate::sparse::SparseMatrix;
use crate::tensor::Tensor;
use sb_json::json_struct;
use std::ops::Range;

/// Static geometry of a 2-D convolution (or pooling) window.
///
/// Padding is specified per axis (`padding_h` above/below, `padding_w`
/// left/right), so asymmetric same-padding schemes and their gradients
/// can be exercised directly; use [`Conv2dGeometry::square`] for the
/// common symmetric case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding above and below (vertical axis).
    pub padding_h: usize,
    /// Zero padding left and right (horizontal axis).
    pub padding_w: usize,
}

json_struct!(Conv2dGeometry {
    in_channels,
    in_h,
    in_w,
    kernel_h,
    kernel_w,
    stride,
    padding_h,
    padding_w,
});

impl Conv2dGeometry {
    /// Geometry with a square kernel and the same padding on both axes —
    /// the overwhelmingly common case in the model zoo.
    pub fn square(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding_h: padding,
            padding_w: padding,
        }
    }

    /// Output height after the window sweep.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit the input.
    pub fn out_h(&self) -> usize {
        out_extent(self.in_h, self.kernel_h, self.stride, self.padding_h)
    }

    /// Output width after the window sweep.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit the input.
    pub fn out_w(&self) -> usize {
        out_extent(self.in_w, self.kernel_w, self.stride, self.padding_w)
    }

    /// Patch length: `in_channels · kernel_h · kernel_w`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }
}

fn out_extent(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    assert!(
        padded >= kernel,
        "kernel {kernel} does not fit input {input} with padding {padding}"
    );
    assert!(stride > 0, "stride must be positive");
    (padded - kernel) / stride + 1
}

/// The taps `t` of a `k`-tap window at output coordinate `o` whose input
/// `o·stride + t − pad` lies in `0..len`, and the input of the first one.
/// A window wholly in padding has no taps, and its first input is clamped
/// to `len` so that slicing from it stays in bounds.
fn taps(o: usize, stride: usize, pad: usize, k: usize, len: usize) -> (Range<usize>, usize) {
    let start = o * stride;
    let lo = pad.saturating_sub(start).min(k);
    let hi = (len + pad).saturating_sub(start).clamp(lo, k);
    (lo..hi, (start + lo).saturating_sub(pad).min(len))
}

/// Unfolds a batched image tensor `[N, C, H, W]` into a patch matrix
/// `[N·out_h·out_w, C·kh·kw]`.
///
/// Row `(n·out_h + oy)·out_w + ox` holds the receptive field of output
/// pixel `(oy, ox)` of sample `n`, channel-major. Out-of-bounds (padding)
/// positions read as zero.
///
/// # Panics
///
/// Panics if `input` is not 4-D or its dims disagree with `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(input.shape().ndim(), 4, "im2col requires [N, C, H, W] input");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    assert_eq!(c, geom.in_channels, "channel mismatch");
    assert_eq!(h, geom.in_h, "height mismatch");
    assert_eq!(w, geom.in_w, "width mismatch");
    let (rows, patch) = (geom.out_h() * geom.out_w(), geom.patch_len());
    let mut out = vec![0.0f32; n * rows * patch];
    let data = input.data();

    // Each sample's patch rows form one disjoint output block, so the
    // unfold parallelizes over sample groups; every element is written by
    // exactly one task, making the result worker-count independent.
    let sample_block = rows * patch;
    let per = (32_768 / sample_block.max(1)).clamp(1, n.max(1));
    sb_runtime::for_each_chunk_mut(&mut out, per * sample_block, |chunk, block| {
        let x = &data[chunk * per * c * h * w..][..block.len() / sample_block * c * h * w];
        im2col_into(x, geom, block);
    });
    Tensor::from_vec(out, &[n * rows, patch]).expect("shape computed above")
}

/// Unfolds the contiguous `[C, H, W]` samples of `x` into `out`, their
/// patch matrix as [`im2col`] lays it out, on the calling thread. Every
/// element of `out` is written, padding as `+0.0`, so it may hold
/// anything beforehand.
///
/// # Panics
///
/// Panics if `x` is not whole samples of `geom` or `out` is not their
/// patch matrix.
pub fn im2col_into(x: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let in_len = geom.in_channels * geom.in_h * geom.in_w;
    let n = x.len().checked_div(in_len).unwrap_or(0);
    let out_len = n * geom.out_h() * geom.out_w() * geom.patch_len();
    assert!(x.len() == n * in_len && out.len() == out_len, "partial im2col_into samples");
    if out.is_empty() {
        return;
    }
    // The kernel size is a constant in each arm, so the runs of the
    // common square kernels are fixed-length moves.
    match (geom.kernel_h, geom.kernel_w) {
        (1, 1) => unfold(x, geom, out, 1, 1),
        (3, 3) => unfold(x, geom, out, 3, 3),
        (5, 5) => unfold(x, geom, out, 5, 5),
        (kh, kw) => unfold(x, geom, out, kh, kw),
    }
}

/// [`im2col_into`]'s loop for a `kh × kw` kernel (`out` non-empty).
#[inline(always)]
fn unfold(x: &[f32], g: &Conv2dGeometry, out: &mut [f32], kh: usize, kw: usize) {
    let (h, w, ow, patch) = (g.in_h, g.in_w, g.out_w(), g.patch_len());
    let samples = x.chunks_exact(g.in_channels * h * w);
    for (sample, rows) in samples.zip(out.chunks_exact_mut(g.out_h() * ow * patch)) {
        for (oy, line) in rows.chunks_exact_mut(ow * patch).enumerate() {
            let (ys, y0) = taps(oy, g.stride, g.padding_h, kh, h);
            for (ox, row) in line.chunks_exact_mut(patch).enumerate() {
                let (xs, x0) = taps(ox, g.stride, g.padding_w, kw, w);
                let full = xs.len() == kw;
                for (chan, runs) in sample.chunks_exact(h * w).zip(row.chunks_exact_mut(kh * kw)) {
                    if full && ys.len() == kh {
                        // No tap in padding: `kh` fixed-length copies.
                        let src = &chan[y0 * w + x0..][..(kh - 1) * w + kw];
                        for (ky, run) in runs.chunks_exact_mut(kw).enumerate() {
                            run.copy_from_slice(&src[ky * w..ky * w + kw]);
                        }
                        continue;
                    }
                    for (ky, run) in runs.chunks_exact_mut(kw).enumerate() {
                        if !ys.contains(&ky) {
                            run.fill(0.0);
                            continue;
                        }
                        let src = &chan[(y0 + ky - ys.start) * w + x0..];
                        if full {
                            run.copy_from_slice(&src[..kw]);
                        } else {
                            run[..xs.start].fill(0.0);
                            run[xs.clone()].copy_from_slice(&src[..xs.len()]);
                            run[xs.end..].fill(0.0);
                        }
                    }
                }
            }
        }
    }
}

/// Output pixels per register tile of [`PackedConv::run`]: two SSE2
/// vectors of `f32`.
const TILE: usize = 8;

/// CSR conv filters packed once for one geometry: each stored weight
/// `(c, ky, kx)` of a filter becomes its offset `c·Hp·Wp + ky·Wp + kx`
/// into the sample zero-padded to `[C, Hp, Wp]` (`Hp = H + 2·padding_h`,
/// `Wp = W + 2·padding_w`), beside its value, in ascending column.
///
/// [`PackedConv::run`] copies each sample into that padded buffer and then
/// computes, for each (filter, output row), [`TILE`] outputs at a time in
/// registers: output `(oy, ox)` of a weight at offset `o` reads the padded
/// sample at `o + oy·stride·Wp + ox·stride`, so a tile's inputs for one
/// weight are one contiguous (at stride 1) or evenly strided run. There is
/// no tap-range logic and no accumulator load or store per weight. A
/// caller with fixed weights (sb-infer's CSR conv step) packs them at
/// compile time; [`sparse_conv_into`] packs on each call.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConv {
    geom: Conv2dGeometry,
    /// `row_ptr[j]..row_ptr[j + 1]` indexes filter `j`'s stored weights.
    row_ptr: Vec<u32>,
    offsets: Vec<u32>,
    values: Vec<f32>,
}

impl PackedConv {
    /// Packs the CSR filters `w` (`[C_out, C·KH·KW]`, the layout of a conv
    /// weight) for `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `w` does not have `geom`'s patch length as its columns, or
    /// if the padded sample has more than `u32::MAX` elements.
    pub fn pack(w: &SparseMatrix, geom: &Conv2dGeometry) -> PackedConv {
        assert_eq!(w.cols(), geom.patch_len(), "sparse conv filters are not patch-wide");
        let (hp, wp) = padded_extent(geom);
        assert!(
            geom.in_channels * hp * wp <= u32::MAX as usize,
            "padded sample too large for u32 offsets"
        );
        let (kw, taps) = (geom.kernel_w, geom.kernel_h * geom.kernel_w);
        let mut row_ptr = Vec::with_capacity(w.rows() + 1);
        row_ptr.push(0);
        let (mut offsets, mut values) = (Vec::with_capacity(w.nnz()), Vec::with_capacity(w.nnz()));
        for j in 0..w.rows() {
            let (cols, vals) = w.row(j);
            for &col in cols {
                let (c, t) = (col as usize / taps, col as usize % taps);
                offsets.push((c * hp * wp + t / kw * wp + t % kw) as u32);
            }
            values.extend_from_slice(vals);
            row_ptr.push(offsets.len() as u32);
        }
        PackedConv {
            geom: *geom,
            row_ptr,
            offsets,
            values,
        }
    }

    /// Number of filters: the output channels.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored weights.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Bytes of the packed filters: a value and an offset per stored
    /// weight plus the row pointers, the same as their CSR form.
    pub fn storage_bytes(&self) -> usize {
        (self.values.len() + self.offsets.len() + self.row_ptr.len()) * 4
    }

    /// The register tiles one filter computes per sample of `geom`:
    /// `out_h · ⌈out_w / TILE⌉`. Each stored weight of the filter is one
    /// multiply-add step of each tile.
    pub fn row_tiles(geom: &Conv2dGeometry) -> usize {
        geom.out_h() * geom.out_w().div_ceil(TILE)
    }

    /// The scratch elements [`PackedConv::run`] writes per sample of
    /// `geom`: the zero-padded `[C, Hp, Wp]` sample, then `TILE · stride`
    /// zeros that a row's last tile may read past it for lanes it drops.
    pub fn padded_len(geom: &Conv2dGeometry) -> usize {
        let (hp, wp) = padded_extent(geom);
        geom.in_channels * hp * wp + TILE * geom.stride
    }

    /// Convolves the contiguous `[C, H, W]` samples of `x` into their
    /// `[C_out, OH, OW]` outputs in `out`, with no bias, on the calling
    /// thread, using the first [`PackedConv::padded_len`] elements of
    /// `padded` as the padded copy of each sample. Every element of `out`
    /// and of that prefix is written, so both may hold anything
    /// beforehand.
    ///
    /// Each output starts at `+0.0` and adds `v × input` for every stored
    /// weight of its filter in ascending column, a padded tap multiplying
    /// `+0.0`: the operations, in order, of the CSR product of the
    /// unfolded patch rows (`im2col_into` writes padding as `+0.0`), so the
    /// two agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not whole samples of the packed geometry, `out` is
    /// not their output, or `padded` is shorter than
    /// [`PackedConv::padded_len`].
    pub fn run(&self, x: &[f32], padded: &mut [f32], out: &mut [f32]) {
        let g = &self.geom;
        let in_len = g.in_channels * g.in_h * g.in_w;
        let n = x.len().checked_div(in_len).unwrap_or(0);
        let plane = g.out_h() * g.out_w();
        assert!(
            x.len() == n * in_len && out.len() == n * self.rows() * plane,
            "partial sparse conv samples"
        );
        let padded = &mut padded[..Self::padded_len(g)];
        if out.is_empty() {
            return;
        }
        // The stride is a constant in the first two arms, so a stride-1
        // tile reads one contiguous run per weight.
        for (sample, planes) in x.chunks_exact(in_len).zip(out.chunks_exact_mut(self.rows() * plane)) {
            pad_sample(sample, g, padded);
            match g.stride {
                1 => self.planes(padded, planes, 1),
                2 => self.planes(padded, planes, 2),
                s => self.planes(padded, planes, s),
            }
        }
    }

    /// Every filter's output plane of one padded sample: for each output
    /// row, whole tiles and then the tail, whose dropped lanes read the
    /// padding or the zeros past the sample.
    #[inline(always)]
    fn planes(&self, padded: &[f32], planes: &mut [f32], s: usize) {
        let (ow, wp) = (self.geom.out_w(), padded_extent(&self.geom).1);
        let plane = self.geom.out_h() * ow;
        for (j, acc_plane) in planes.chunks_exact_mut(plane).enumerate() {
            let (lo, hi) = (self.row_ptr[j] as usize, self.row_ptr[j + 1] as usize);
            let (offsets, values) = (&self.offsets[lo..hi], &self.values[lo..hi]);
            for (oy, row) in acc_plane.chunks_exact_mut(ow).enumerate() {
                let x = &padded[oy * s * wp..];
                let mut tiles = row.chunks_exact_mut(TILE);
                for (t, dst) in (&mut tiles).enumerate() {
                    dst.copy_from_slice(&tile(offsets, values, &x[t * TILE * s..], s));
                }
                let tail = tiles.into_remainder();
                if !tail.is_empty() {
                    let acc = tile(offsets, values, &x[ow / TILE * TILE * s..], s);
                    for (o, &a) in tail.iter_mut().zip(&acc) {
                        *o = a;
                    }
                }
            }
        }
    }
}

/// `TILE` outputs of one filter, lane `t` reading `x[o + t·s]` for each
/// stored weight at offset `o`: each lane starts at `+0.0` and adds its
/// products in the weights' order.
#[inline(always)]
fn tile(offsets: &[u32], values: &[f32], x: &[f32], s: usize) -> [f32; TILE] {
    let mut acc = [0.0f32; TILE];
    for (&o, &v) in offsets.iter().zip(values) {
        let src = &x[o as usize..][..(TILE - 1) * s + 1];
        for (t, a) in acc.iter_mut().enumerate() {
            *a += v * src[t * s];
        }
    }
    acc
}

/// `(Hp, Wp)`: the input extent with its padding on both sides.
fn padded_extent(g: &Conv2dGeometry) -> (usize, usize) {
    (g.in_h + 2 * g.padding_h, g.in_w + 2 * g.padding_w)
}

/// Writes one `[C, H, W]` sample into `padded` as `[C, Hp, Wp]` with zero
/// borders, then zeros the rest of `padded`.
fn pad_sample(sample: &[f32], g: &Conv2dGeometry, padded: &mut [f32]) {
    let (h, w, ph, pw) = (g.in_h, g.in_w, g.padding_h, g.padding_w);
    let (hp, wp) = padded_extent(g);
    let (body, slack) = padded.split_at_mut(g.in_channels * hp * wp);
    for (chan, dst) in sample.chunks_exact(h * w).zip(body.chunks_exact_mut(hp * wp)) {
        let (top, rest) = dst.split_at_mut(ph * wp);
        top.fill(0.0);
        let (rows, bottom) = rest.split_at_mut(h * wp);
        for (src, row) in chan.chunks_exact(w).zip(rows.chunks_exact_mut(wp)) {
            row[..pw].fill(0.0);
            row[pw..pw + w].copy_from_slice(src);
            row[pw + w..].fill(0.0);
        }
        bottom.fill(0.0);
    }
    slack.fill(0.0);
}

/// Direct sparse convolution of the contiguous `[C, H, W]` samples of `x`
/// by the CSR filters `w` (`[C_out, C·KH·KW]`, the layout of a conv
/// weight) into `[C_out, OH, OW]` samples in `out`, with no bias, on the
/// calling thread: [`PackedConv::pack`] and [`PackedConv::run`] over a
/// padded buffer of its own. Every element of `out` is written, with the
/// bits of the CSR product of the unfolded patch rows.
///
/// # Panics
///
/// Panics as [`PackedConv::pack`] and [`PackedConv::run`] do.
pub fn sparse_conv_into(x: &[f32], w: &SparseMatrix, geom: &Conv2dGeometry, out: &mut [f32]) {
    let packed = PackedConv::pack(w, geom);
    packed.run(x, &mut vec![0.0; PackedConv::padded_len(geom)], out);
}

/// Folds a patch-matrix gradient `[N·out_h·out_w, C·kh·kw]` back into an
/// image gradient `[N, C, H, W]`, accumulating overlapping contributions.
///
/// This is the exact adjoint of [`im2col`]: positions that were read `k`
/// times during unfolding receive the sum of their `k` gradient copies,
/// added in ascending `(oy, ox)` of the windows that read them.
///
/// # Panics
///
/// Panics if `cols` dims disagree with `geom` for batch size `n`.
pub fn col2im(cols: &Tensor, n: usize, geom: &Conv2dGeometry) -> Tensor {
    let (rows, patch) = (geom.out_h() * geom.out_w(), geom.patch_len());
    assert_eq!(cols.dims(), &[n * rows, patch], "col2im input shape mismatch");
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let mut out = vec![0.0f32; n * c * h * w];
    let data = cols.data();

    // Overlapping windows only collide *within* a sample, never across
    // samples, so the fold parallelizes over sample groups; within each
    // sample the accumulation order matches the sequential loop exactly.
    let sample_block = c * h * w;
    let per = (32_768 / sample_block.max(1)).clamp(1, n.max(1));
    sb_runtime::for_each_chunk_mut(&mut out, per * sample_block, |chunk, block| {
        let cols = &data[chunk * per * rows * patch..][..block.len() / sample_block * rows * patch];
        match (geom.kernel_h, geom.kernel_w) {
            (1, 1) => fold(cols, geom, block, 1, 1),
            (3, 3) => fold(cols, geom, block, 3, 3),
            (5, 5) => fold(cols, geom, block, 5, 5),
            (kh, kw) => fold(cols, geom, block, kh, kw),
        }
    });
    Tensor::from_vec(out, &[n, c, h, w]).expect("shape computed above")
}

/// [`col2im`]'s loop for a `kh × kw` kernel: the windows of each sample in
/// ascending `(oy, ox)`, each adding its in-image runs into `out`.
#[inline(always)]
fn fold(cols: &[f32], g: &Conv2dGeometry, out: &mut [f32], kh: usize, kw: usize) {
    let (h, w, ow, patch) = (g.in_h, g.in_w, g.out_w(), g.patch_len());
    let samples = cols.chunks_exact(g.out_h() * ow * patch);
    for (rows, image) in samples.zip(out.chunks_exact_mut(g.in_channels * h * w)) {
        for (oy, line) in rows.chunks_exact(ow * patch).enumerate() {
            let (ys, y0) = taps(oy, g.stride, g.padding_h, kh, h);
            for (ox, row) in line.chunks_exact(patch).enumerate() {
                let (xs, x0) = taps(ox, g.stride, g.padding_w, kw, w);
                for (chan, runs) in image.chunks_exact_mut(h * w).zip(row.chunks_exact(kh * kw)) {
                    for (ky, run) in runs.chunks_exact(kw).enumerate().take(ys.end).skip(ys.start) {
                        let dst = &mut chan[(y0 + ky - ys.start) * w + x0..];
                        let (dst, run) = match xs.len() == kw {
                            true => (&mut dst[..kw], run),
                            false => (dst, &run[xs.clone()]),
                        };
                        for (d, &v) in dst.iter_mut().zip(run) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Reorders `[N·S, C]` rows, one per output pixel as a conv's product
/// leaves them, into `[N, C, S]` images of `S = spatial` pixels.
///
/// # Panics
///
/// Panics unless both slices hold the same whole number of `C·S` samples.
pub fn rows_to_nchw(rows: &[f32], channels: usize, spatial: usize, out: &mut [f32]) {
    let sample = channels * spatial;
    assert!(rows.len() == out.len() && rows.len().is_multiple_of(sample), "partial samples");
    for (src, dst) in rows.chunks_exact(sample).zip(out.chunks_exact_mut(sample)) {
        for (p, row) in src.chunks_exact(channels).enumerate() {
            for (ci, &v) in row.iter().enumerate() {
                dst[ci * spatial + p] = v;
            }
        }
    }
}

/// The inverse of [`rows_to_nchw`]: `[N, C, S]` images into `[N·S, C]`
/// rows, with the same panics.
pub fn nchw_to_rows(images: &[f32], channels: usize, spatial: usize, out: &mut [f32]) {
    let sample = channels * spatial;
    assert!(images.len() == out.len() && images.len().is_multiple_of(sample), "partial samples");
    for (src, dst) in images.chunks_exact(sample).zip(out.chunks_exact_mut(sample)) {
        for (ci, chan) in src.chunks_exact(spatial).enumerate() {
            for (p, &v) in chan.iter().enumerate() {
                dst[p * channels + ci] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry::square(c, h, w, k, s, p)
    }

    #[test]
    fn output_extent_math() {
        assert_eq!(geom(1, 5, 5, 3, 1, 0).out_h(), 3);
        assert_eq!(geom(1, 5, 5, 3, 1, 1).out_h(), 5);
        assert_eq!(geom(1, 6, 6, 3, 2, 1).out_h(), 3);
        assert_eq!(geom(1, 4, 4, 1, 1, 0).out_h(), 4);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: patch matrix is just a flattened reordering.
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let g = geom(2, 2, 2, 1, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 2]);
        // Row for pixel (0,0): channels [x[0,0,0,0], x[0,1,0,0]] = [0, 4]
        assert_eq!(cols.data()[0..2], [0.0, 4.0]);
    }

    #[test]
    fn im2col_known_patch() {
        let x = Tensor::from_vec((1..=9).map(|i| i as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let g = geom(1, 3, 3, 2, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 4]);
        // Top-left patch is [1,2,4,5].
        assert_eq!(cols.data()[0..4], [1.0, 2.0, 4.0, 5.0]);
        // Bottom-right patch is [5,6,8,9].
        assert_eq!(cols.data()[12..16], [5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = geom(1, 2, 2, 3, 1, 1);
        let cols = im2col(&x, &g);
        // Output pixel (0, 0) has top row and left column padded out.
        let first = &cols.data()[0..9];
        assert_eq!(first, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y: the defining
        // property of an adjoint, which is exactly what backprop requires.
        let g = geom(2, 4, 4, 3, 1, 1);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| ((i * 37 % 11) as f32) - 5.0);
        let cols_shape = [g.out_h() * g.out_w(), g.patch_len()];
        let y = Tensor::from_fn(&cols_shape, |i| ((i * 13 % 7) as f32) - 3.0);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.flatten().dot(&col2im(&y, 1, &g).flatten());
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // With a 2x2 kernel stride 1 on 3x3 input, the center pixel is
        // covered by all 4 patches.
        let g = geom(1, 3, 3, 2, 1, 0);
        let cols = Tensor::ones(&[4, 4]);
        let img = col2im(&cols, 1, &g);
        assert_eq!(img.at(&[0, 0, 1, 1]), 4.0);
        assert_eq!(img.at(&[0, 0, 0, 0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_panics() {
        geom(1, 2, 2, 5, 1, 0).out_h();
    }

    #[test]
    fn multi_batch_rows_are_independent() {
        let x0 = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let x1 = Tensor::from_fn(&[1, 1, 3, 3], |i| (i as f32) * 10.0);
        let mut both = Vec::new();
        both.extend_from_slice(x0.data());
        both.extend_from_slice(x1.data());
        let x = Tensor::from_vec(both, &[2, 1, 3, 3]).unwrap();
        let g = geom(1, 3, 3, 3, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[2, 9]);
        assert_eq!(cols.row(0).data(), x0.data());
        assert_eq!(cols.row(1).data(), x1.data());
    }

    #[test]
    fn asymmetric_padding_changes_only_its_axis() {
        let mut g = geom(1, 5, 7, 3, 1, 0);
        g.padding_h = 1;
        assert_eq!(g.out_h(), 5);
        assert_eq!(g.out_w(), 5);
        g.padding_w = 2;
        assert_eq!(g.out_w(), 9);
    }

    #[test]
    fn asymmetric_padding_adjoint_holds() {
        let mut g = geom(1, 4, 5, 3, 2, 1);
        g.padding_w = 0;
        let x = Tensor::from_fn(&[1, 1, 4, 5], |i| ((i * 29 % 13) as f32) - 6.0);
        let cols_shape = [g.out_h() * g.out_w(), g.patch_len()];
        let y = Tensor::from_fn(&cols_shape, |i| ((i * 17 % 5) as f32) - 2.0);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.flatten().dot(&col2im(&y, 1, &g).flatten());
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn geometry_json_round_trip() {
        let mut g = geom(3, 8, 8, 5, 2, 2);
        g.padding_w = 1;
        let text = sb_json::to_string(&g).unwrap();
        let back: Conv2dGeometry = sb_json::from_str(&text).unwrap();
        assert_eq!(back, g);
    }
}
