//! Compiled-model intermediate representation.
//!
//! Compilation lowers an eval-mode [`sb_nn::LayerSpec`] chain into a flat
//! list of [`Planned`] steps. Each step records the per-sample feature
//! shape flowing in and out, so the executor can preplan every scratch
//! buffer once and never allocate inside the forward loop. Weight-bearing
//! steps carry a [`Kernel`] in the storage format the cost model picked,
//! packed for its kernel at compile time (a CSR conv's filters as offsets
//! into the zero-padded sample, [`PackedConv`]); the public
//! [`LayerPlan`] mirrors that decision for reporting.

use sb_tensor::{Conv2dGeometry, PackedConv, PackedRhs, SparseMatrix};

/// Per-sample feature shape between two compiled steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureShape {
    /// Channel-major image features `[c, h, w]`.
    Image {
        /// Channel count (physical — shrunk layers reduce this).
        c: usize,
        /// Spatial height.
        h: usize,
        /// Spatial width.
        w: usize,
    },
    /// Flat features of dimension `d`.
    Flat {
        /// Feature dimension.
        d: usize,
    },
}

impl FeatureShape {
    /// Elements per sample.
    pub fn numel(&self) -> usize {
        match *self {
            FeatureShape::Image { c, h, w } => c * h * w,
            FeatureShape::Flat { d } => d,
        }
    }
}

/// Storage format the cost model picked for a weight-bearing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecFormat {
    /// Dense weights, packed once at compile time into the panels of
    /// sb-tensor's register tile ([`sb_tensor::PackedRhs`]).
    Dense,
    /// Compressed sparse rows: the lane-panel kernel over a
    /// [`SparseMatrix`] for a linear layer, the output-stationary sparse
    /// convolution over a [`PackedConv`] for a conv; wins when
    /// unstructured pruning leaves few enough nonzeros to beat the tile.
    Csr,
    /// Physically smaller dense weights: rows zeroed by structured pruning
    /// are dropped and the shrink propagates into the next layer's columns.
    ShrunkDense,
    /// Block-compressed sparse rows ([`crate::formats::BsrMatrix`]) with a
    /// fixed block width: one column index per block of contiguous lanes,
    /// amortizing CSR's per-nonzero index overhead and keeping the input
    /// loads contiguous across each im2col patch row.
    Bsr,
    /// Dense values plus a per-row occupancy bitmask
    /// ([`crate::formats::BitmapMatrix`]), run by a branch-free set-bit
    /// loop; aimed at mid sparsity, where the fitted cost model has yet
    /// to find it faster than dense or CSR.
    Bitmap,
}

impl ExecFormat {
    /// Short label used by plans, reports, trace spans, and benches.
    pub fn label(&self) -> &'static str {
        match self {
            ExecFormat::Dense => "dense",
            ExecFormat::Csr => "csr",
            ExecFormat::ShrunkDense => "shrunk",
            ExecFormat::Bsr => "bsr",
            ExecFormat::Bitmap => "bitmap",
        }
    }

    /// Every concrete format, in cost-model evaluation order.
    pub const ALL: [ExecFormat; 5] = [
        ExecFormat::Dense,
        ExecFormat::Csr,
        ExecFormat::ShrunkDense,
        ExecFormat::Bsr,
        ExecFormat::Bitmap,
    ];
}

/// A weight matrix in its chosen storage format.
///
/// Every variant describes the same logical `[out, in_cols]` operator;
/// `ShrunkDense` layers use a `Dense` kernel that simply has fewer rows
/// and/or columns than the original layer.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    /// `[out, in_cols]` matrix packed for the register tile.
    Dense(PackedRhs),
    /// CSR `[out, in_cols]` matrix of a linear layer.
    Csr(SparseMatrix),
    /// CSR conv filters packed as offsets into the zero-padded sample.
    CsrConv(PackedConv),
    /// Blocked-sparse `[out, in_cols]` matrix with fixed block width.
    Bsr(crate::formats::BsrMatrix),
    /// Dense values + per-row occupancy bitmask, `[out, in_cols]`.
    Bitmap(crate::formats::BitmapMatrix),
}

impl Kernel {
    pub(crate) fn out_features(&self) -> usize {
        match self {
            Kernel::Dense(w) => w.rows(),
            Kernel::Csr(s) => s.rows(),
            Kernel::CsrConv(p) => p.rows(),
            Kernel::Bsr(b) => b.rows(),
            Kernel::Bitmap(m) => m.rows(),
        }
    }

    /// Multiply-accumulates one input row costs in this format (a conv
    /// kernel's "row" is one output pixel's patch, which the sparse
    /// convolution never builds but counts the same way). BSR counts
    /// every stored lane — the kernel multiplies zeros inside live
    /// blocks — while bitmap counts exactly its set bits.
    pub(crate) fn macs(&self) -> u64 {
        match self {
            Kernel::Dense(w) => (w.rows() * w.cols()) as u64,
            Kernel::Csr(s) => s.nnz() as u64,
            Kernel::CsrConv(p) => p.nnz() as u64,
            Kernel::Bsr(b) => b.stored_lanes() as u64,
            Kernel::Bitmap(m) => m.nnz() as u64,
        }
    }

    /// Bytes needed to store the weight itself (excluding bias). A dense
    /// weight counts its `out · in_cols` values, not the zero padding of
    /// its last panel.
    pub(crate) fn param_bytes(&self) -> usize {
        match self {
            Kernel::Dense(w) => w.rows() * w.cols() * 4,
            Kernel::Csr(s) => s.storage_bytes(),
            Kernel::CsrConv(p) => p.storage_bytes(),
            Kernel::Bsr(b) => b.storage_bytes(),
            Kernel::Bitmap(m) => m.storage_bytes(),
        }
    }
}

/// One executable operation.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// `y = x · Wᵀ + b` on flat features.
    Matmul { kernel: Kernel, bias: Vec<f32> },
    /// The packed sparse convolution for a `CsrConv` kernel; otherwise
    /// im2col → `rows · Wᵀ + b` → NCHW reorder.
    Conv {
        kernel: Kernel,
        bias: Vec<f32>,
        geom: Conv2dGeometry,
        out_c: usize,
    },
    /// Eval-mode batch norm with per-(physical-)channel parameters.
    BatchNorm {
        gamma: Vec<f32>,
        beta: Vec<f32>,
        mean: Vec<f32>,
        var: Vec<f32>,
        eps: f32,
    },
    /// In-place `max(0, x)`.
    Relu,
    /// Square-window max pooling.
    MaxPool { kernel: usize, stride: usize },
    /// Square-window average pooling.
    AvgPool { kernel: usize, stride: usize },
    /// `relu(main(x) + shortcut(x))`; empty shortcut means identity.
    Residual {
        main: Vec<Planned>,
        shortcut: Vec<Planned>,
    },
}

/// A step plus the feature shapes flowing through it.
#[derive(Debug, Clone)]
pub(crate) struct Planned {
    pub step: Step,
    pub in_shape: FeatureShape,
    pub out_shape: FeatureShape,
    /// `"{name}:{format}"` for weight-bearing steps (the trace span
    /// label), empty for activations/pools/norms.
    pub label: String,
}

/// Public compile report for one weight-bearing layer.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// Parameter base name (e.g. `"fc1"`, `"conv2"`).
    pub name: String,
    /// Storage format the cost model picked.
    pub format: ExecFormat,
    /// Multiply-accumulates per sample a dense execution of the *original*
    /// layer would perform — the denominator of theoretical speedup.
    pub dense_macs: u64,
    /// Multiply-accumulates per sample the chosen format actually performs
    /// (CSR counts stored nonzeros; shrunk counts surviving rows/columns).
    pub effective_macs: u64,
    /// Bytes the compiled weight + bias occupy.
    pub storage_bytes: usize,
    /// What the cost model counted in the compiled layer.
    pub stats: crate::cost::LayerStats,
    /// The cost model's predicted time per sample in the chosen format,
    /// ns.
    pub predicted_ns: f64,
}
