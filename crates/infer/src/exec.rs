//! Batched, allocation-reused execution of compiled plans.
//!
//! [`CompiledModel::forward`] splits the batch into fixed-size blocks and
//! runs each block on one `sb-runtime` worker with its own preplanned
//! [`Scratch`] buffers. Per-sample arithmetic never crosses block
//! boundaries and every kernel visits its inputs in a fixed index order,
//! so the logits are byte-identical for any `SB_RUNTIME_THREADS` value.
//!
//! A CSR conv step runs `sb_tensor::PackedConv`, packed at compile time:
//! it copies each sample into a zero-padded buffer in the block's
//! scratch and computes NCHW output from it a register tile at a time.
//! Every other conv step unfolds with `sb_tensor::im2col_into`, the loop
//! `Conv2d` runs, multiplies the patch rows, and reorders with
//! `sb_tensor::rows_to_nchw`. CSR linear steps run sb-tensor's
//! `SparseMatrix::matmul_rows`, which copies eight activation rows at a
//! time into a panel in the block's `patch` scratch and feeds each stored
//! weight to all eight from it. Every kernel keeps the float order of the
//! eval-mode layer in `sb-nn` (each output's products added in ascending
//! patch column from `+0.0`, bias added after the full accumulation,
//! unfused batch-norm arithmetic), so a dense-compiled model reproduces
//! `Model::forward` exactly, not just approximately, and a CSR-compiled
//! one matches it bit for bit on finite inputs.

use crate::compile::CompiledModel;
use crate::plan::{FeatureShape, Kernel, Planned, Step};
use sb_tensor::{im2col_into, rows_to_nchw, PackedRhs, Tensor};
use std::sync::Mutex;

/// Per-worker scratch: activation ping-pong buffers, a residual stash,
/// im2col/row staging for the convs that lower to a product (a CSR conv
/// pads one sample at a time into `patch`, and a CSR linear layer copies
/// eight activation rows at a time into it as a panel), all sized once for
/// the worst-case layer.
struct Scratch {
    cur: Vec<f32>,
    tmp: Vec<f32>,
    res: Vec<f32>,
    patch: Vec<f32>,
    rows: Vec<f32>,
}

impl Scratch {
    fn new(block: usize, m: &CompiledModel) -> Scratch {
        Scratch {
            cur: vec![0.0; block * m.max_act],
            tmp: vec![0.0; block * m.max_act],
            res: vec![0.0; block * m.max_act],
            patch: vec![0.0; m.max_patch],
            rows: vec![0.0; block * m.max_rows],
        }
    }
}

/// Reusable scratch for [`CompiledModel::forward_batch_into`]: a pool of
/// per-block activation buffers checked out by whichever worker runs each
/// batch block and returned afterwards, so steady-state callers (the
/// serving batcher, latency benchmarks) allocate nothing per forward.
///
/// Every pooled buffer is sized for a full `batch_block`, the worst case
/// any chunk needs; kernels only ever read regions they first wrote, so
/// stale contents from a previous batch are never observable and reusing
/// scratch is bitwise-equivalent to fresh allocation.
pub struct ForwardScratch {
    slots: Mutex<Vec<Scratch>>,
}

impl ForwardScratch {
    fn checkout(&self, m: &CompiledModel) -> Scratch {
        self.slots
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| Scratch::new(m.batch_block, m))
    }

    fn checkin(&self, s: Scratch) {
        self.slots.lock().expect("scratch pool poisoned").push(s);
    }
}

impl CompiledModel {
    /// A fresh scratch pool sized for this plan, for
    /// [`forward_batch_into`](CompiledModel::forward_batch_into).
    pub fn scratch(&self) -> ForwardScratch {
        ForwardScratch {
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Runs the compiled plan over a batch, returning `[n, classes]`
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s shape does not match the plan's input shape.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let scratch = self.scratch();
        let mut out = Vec::new();
        let n = self.forward_batch_into(x, &mut out, &scratch);
        Tensor::from_vec(out, &[n, self.classes]).expect("logit shape")
    }

    /// Runs the compiled plan over a batch into a caller-owned logit
    /// buffer, reusing `scratch` across calls: after the first call on a
    /// given pool no activation memory is allocated, which is what keeps
    /// the serving batcher's steady state allocation-free. Returns the
    /// batch size `n`; `out` is resized to `n * classes` logits in the
    /// same row-major order [`forward`](CompiledModel::forward) produces.
    ///
    /// The computation is bitwise-identical to
    /// [`forward`](CompiledModel::forward) — same block decomposition,
    /// same kernels, same operation order — regardless of how often the
    /// scratch pool has been reused.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s shape does not match the plan's input shape.
    pub fn forward_batch_into(
        &self,
        x: &Tensor,
        out: &mut Vec<f32>,
        scratch: &ForwardScratch,
    ) -> usize {
        let n = if x.shape().ndim() == 0 { 0 } else { x.dim(0) };
        match self.input_shape {
            FeatureShape::Flat { d } => assert_eq!(
                x.dims(),
                &[n, d],
                "compiled model expects flat [n, {d}] input"
            ),
            FeatureShape::Image { c, h, w } => assert_eq!(
                x.dims(),
                &[n, c, h, w],
                "compiled model expects image [n, {c}, {h}, {w}] input"
            ),
        }
        let in_numel = self.input_shape.numel();
        let classes = self.classes;
        out.clear();
        out.resize(n * classes, 0.0);
        if out.is_empty() {
            return n;
        }
        let xd = x.data();
        let block = self.batch_block;
        // Per-layer spans opened inside the blocks re-parent under this
        // span (the chunk tasks carry the submitter's path), so traced
        // inference aggregates identically at any thread count.
        let _fwd = sb_trace::span("infer");
        sb_runtime::for_each_chunk_mut(out, block * classes, |ci, out_block| {
            let s0 = ci * block;
            let b = out_block.len() / classes;
            let mut s = scratch.checkout(self);
            s.cur[..b * in_numel]
                .copy_from_slice(&xd[s0 * in_numel..(s0 + b) * in_numel]);
            let Scratch {
                cur,
                tmp,
                res,
                patch,
                rows,
            } = &mut s;
            apply_chain(&self.steps, b, cur, tmp, res, patch, rows);
            out_block.copy_from_slice(&cur[..b * classes]);
            scratch.checkin(s);
        });
        n
    }
}

/// Applies a step chain to `cur` in place (via ping-pong with `tmp`).
fn apply_chain(
    steps: &[Planned],
    b: usize,
    cur: &mut Vec<f32>,
    tmp: &mut Vec<f32>,
    res: &mut Vec<f32>,
    patch: &mut Vec<f32>,
    rows: &mut Vec<f32>,
) {
    for p in steps {
        apply_step(p, b, cur, tmp, res, patch, rows);
    }
}

fn apply_step(
    p: &Planned,
    b: usize,
    cur: &mut Vec<f32>,
    tmp: &mut Vec<f32>,
    res: &mut Vec<f32>,
    patch: &mut Vec<f32>,
    rows: &mut Vec<f32>,
) {
    match &p.step {
        Step::Relu => {
            for v in &mut cur[..b * p.out_shape.numel()] {
                *v = v.max(0.0);
            }
        }
        Step::BatchNorm {
            gamma,
            beta,
            mean,
            var,
            eps,
        } => {
            let FeatureShape::Image { c, h, w } = p.in_shape else {
                panic!("batch norm requires image features");
            };
            let spatial = h * w;
            for ci in 0..c {
                let m = mean[ci];
                let istd = 1.0 / (var[ci] + eps).sqrt();
                let g = gamma[ci];
                let bb = beta[ci];
                for ni in 0..b {
                    let base = (ni * c + ci) * spatial;
                    for v in &mut cur[base..base + spatial] {
                        *v = g * (*v - m) * istd + bb;
                    }
                }
            }
        }
        Step::Matmul { kernel, bias } => {
            let _layer = sb_trace::span_with(|| format!("layer:{}", p.label));
            sb_trace::add(sb_trace::CounterId::Flops, kernel.macs() * b as u64);
            sb_trace::add(sb_trace::CounterId::BytesMoved, kernel.param_bytes() as u64);
            let in_d = p.in_shape.numel();
            let (x, y) = (&cur[..b * in_d], &mut tmp[..b * p.out_shape.numel()]);
            if let Kernel::Csr(sparse) = kernel {
                sparse.matmul_rows(x, patch, y);
                add_bias(y, bias);
            } else {
                matmul_rows(kernel, bias, x, in_d, y);
            }
            std::mem::swap(cur, tmp);
        }
        Step::Conv {
            kernel,
            bias,
            geom,
            out_c,
        } => {
            let spatial = geom.out_h() * geom.out_w();
            let _layer = sb_trace::span_with(|| format!("layer:{}", p.label));
            sb_trace::add(sb_trace::CounterId::Flops, kernel.macs() * (b * spatial) as u64);
            sb_trace::add(sb_trace::CounterId::BytesMoved, kernel.param_bytes() as u64);
            let (x, plen) = (&cur[..b * p.in_shape.numel()], geom.patch_len());
            let y = &mut tmp[..b * p.out_shape.numel()];
            if let Kernel::CsrConv(packed) = kernel {
                packed.run(x, patch, y);
                for (plane, &bc) in y.chunks_exact_mut(spatial).zip(bias.iter().cycle()) {
                    for o in plane {
                        *o += bc;
                    }
                }
            } else {
                let rows = &mut rows[..y.len()];
                im2col_into(x, geom, &mut patch[..b * spatial * plen]);
                matmul_rows(kernel, bias, &patch[..b * spatial * plen], plen, rows);
                rows_to_nchw(rows, *out_c, spatial, y);
            }
            std::mem::swap(cur, tmp);
        }
        Step::MaxPool { kernel, stride } => {
            pool_block(p, b, cur, tmp, *kernel, *stride, true);
            std::mem::swap(cur, tmp);
        }
        Step::AvgPool { kernel, stride } => {
            pool_block(p, b, cur, tmp, *kernel, *stride, false);
            std::mem::swap(cur, tmp);
        }
        Step::Residual { main, shortcut } => {
            let in_len = b * p.in_shape.numel();
            let out_len = b * p.out_shape.numel();
            // Stash the block input; residual bodies contain no nested
            // residual (the compiler guarantees it), so `res` is free to
            // serve as the shortcut's activation buffer.
            let mut short = std::mem::take(res);
            short[..in_len].copy_from_slice(&cur[..in_len]);
            apply_chain(main, b, cur, tmp, res, patch, rows);
            apply_chain(shortcut, b, &mut short, tmp, res, patch, rows);
            for (o, &sv) in cur[..out_len].iter_mut().zip(&short[..out_len]) {
                *o = (*o + sv).max(0.0);
            }
            *res = short;
        }
    }
}

/// `y[r] = x[r] · Wᵀ + bias` over `rows = len/in_d` rows, k-ascending.
fn matmul_rows(kernel: &Kernel, bias: &[f32], x: &[f32], in_d: usize, y: &mut [f32]) {
    match kernel {
        Kernel::Dense(w) => dense_rows(w, bias, x, y),
        Kernel::Csr(_) => unreachable!("CSR linear steps run over their panel"),
        Kernel::CsrConv(_) => unreachable!("packed sparse convs run as conv steps"),
        Kernel::Bsr(b) => {
            debug_assert_eq!(b.cols(), in_d, "BSR kernel input width");
            b.matmul_rows(x, bias, y);
        }
        Kernel::Bitmap(m) => {
            debug_assert_eq!(m.cols(), in_d, "bitmap kernel input width");
            m.matmul_rows(x, bias, y);
        }
    }
}

/// The dense kernel: sb-tensor's register tile over the weights packed at
/// compile time, then the bias, so each output is `acc + bias[j]` with
/// `acc` the k-ascending dot product — `Model::forward`'s bits.
///
/// Kept out of line. Inlining it would move every kernel in the binary,
/// and kernel speeds follow placement: measure such a change across
/// layouts with `scripts/ab.sh` (see DESIGN.md).
#[inline(never)]
fn dense_rows(w: &PackedRhs, bias: &[f32], x: &[f32], y: &mut [f32]) {
    w.matmul_rows(x, y);
    add_bias(y, bias);
}

/// Adds `bias[j]` to output `j` of every `[bias.len()]` row of `y`.
fn add_bias(y: &mut [f32], bias: &[f32]) {
    for yr in y.chunks_exact_mut(bias.len()) {
        for (o, &b) in yr.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// Square-window pooling over `b` samples; `max` picks max vs. average.
fn pool_block(
    p: &Planned,
    b: usize,
    cur: &[f32],
    tmp: &mut [f32],
    kernel: usize,
    stride: usize,
    max: bool,
) {
    let FeatureShape::Image { c, h, w } = p.in_shape else {
        panic!("pooling requires image features");
    };
    let FeatureShape::Image { h: oh, w: ow, .. } = p.out_shape else {
        panic!("pooling produces image features");
    };
    let norm = 1.0 / (kernel * kernel) as f32;
    for nc in 0..b * c {
        let in_base = nc * h * w;
        let out_base = nc * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let acc = if max {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..kernel {
                        let iy = oy * stride + ky;
                        for kx in 0..kernel {
                            let ix = ox * stride + kx;
                            let v = cur[in_base + iy * w + ix];
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    best
                } else {
                    let mut acc = 0.0f32;
                    for ky in 0..kernel {
                        let iy = oy * stride + ky;
                        for kx in 0..kernel {
                            acc += cur[in_base + iy * w + ox * stride + kx];
                        }
                    }
                    acc * norm
                };
                tmp[out_base + oy * ow + ox] = acc;
            }
        }
    }
}
