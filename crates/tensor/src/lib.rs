#![warn(missing_docs)]

//! Dense `f32` tensor substrate for `shrinkbench-rs`.
//!
//! This crate provides the numerical foundation that the neural-network
//! stack ([`sb-nn`]) is built on: a contiguous, row-major, n-dimensional
//! [`Tensor`] with the algebra needed to train and prune convolutional
//! networks on a CPU — elementwise operations, matrix multiplication,
//! `im2col`/`col2im` convolution lowering, reductions, and deterministic
//! random initialization.
//!
//! The design goal is *auditability over peak speed*: every kernel is a
//! safe-Rust loop nest that can be verified against the reference formula,
//! because the experiments built on top (the ShrinkBench reproduction) care
//! about correctness of gradients and pruning masks, not about GPU-class
//! throughput. Two kernels are shaped for speed, and each serves both
//! training and sb-infer from one body.
//!
//! The convolution lowering ([`im2col`], [`col2im`] and the slice entry
//! [`im2col_into`]) works from each output pixel's tap ranges, so it
//! copies whole kernel-row runs and never tests a bound per element;
//! `Conv2d` calls the tensor entries and sb-infer's conv step calls
//! [`im2col_into`] on its batch blocks, with the product-row reorders
//! [`rows_to_nchw`] and [`nchw_to_rows`] beside them. The unfold only
//! moves values, and the fold adds in the per-element loop's order, so
//! their bits are that loop's. A convolution with CSR filters skips the
//! lowering: [`PackedConv`] packs its filters once as offsets into a
//! zero-padded sample and computes a register tile of one output row at a
//! time, walking each filter's stored weights in ascending column, with
//! the unfolded product's bits; [`sparse_conv_into`] packs and runs it in
//! one call.
//!
//! The forward product `a · bᵀ` computes a register tile of outputs at a
//! time over a packed copy of `b`. The tile has two callers:
//! [`Tensor::matmul_transposed`] (every `Linear` and `Conv2d` forward)
//! packs `b` on each call, and [`PackedRhs`] lets a caller with fixed
//! weights (sb-infer's dense kernel) pack them once and run the tile over
//! any slice of rows. It keeps the reference formula's exact float order:
//! each output starts at `0.0` and adds its products one at a time in
//! ascending `k`, with no fused multiply-add, so its results are
//! bit-identical to the plain dot-product loop. The CSR product `a · Wᵀ`
//! has a row tile of its own, [`SparseMatrix::matmul_rows`], with the
//! same order.
//!
//! # Example
//!
//! ```
//! use sb_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), sb_tensor::TensorError>(())
//! ```
//!
//! [`sb-nn`]: https://docs.rs/sb-nn

mod conv;
mod error;
mod init;
mod linalg;
mod ops;
mod reduce;
mod shape;
mod sparse;
mod tensor;

pub use conv::{
    col2im, im2col, im2col_into, nchw_to_rows, rows_to_nchw, sparse_conv_into, Conv2dGeometry,
    PackedConv,
};
pub use error::TensorError;
pub use init::Rng;
pub use linalg::PackedRhs;
pub use shape::Shape;
pub use sparse::SparseMatrix;
pub use tensor::Tensor;
