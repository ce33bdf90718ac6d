#![warn(missing_docs)]

//! Forward-only inference engine for `shrinkbench-rs`.
//!
//! The training stack (`sb-nn`) executes pruned models by multiplying
//! dense weights that happen to contain zeros — masked weights cost
//! exactly as much as unmasked ones. That gap between *theoretical*
//! speedup (the FLOP ratio `sb-metrics` reports) and *realized* speedup
//! (wall-clock) is a central theme of *"What is the State of Neural
//! Network Pruning?"* (Blalock et al., MLSys 2020): compression numbers
//! only translate into latency when an execution engine exploits the
//! zeros. This crate is that engine.
//!
//! [`CompiledModel::compile`] lowers a trained + pruned model's
//! eval-mode [`sb_nn::LayerSpec`] chain into per-layer kernels, picking a
//! storage format per weight-bearing layer with a cost model fitted in
//! nanoseconds per sample ([`cost`]):
//!
//! * [`ExecFormat::Dense`] — the weights packed once into the panels of
//!   sb-tensor's register tile ([`sb_tensor::PackedRhs`]), the same tile
//!   that runs every training forward; the baseline and the fallback.
//! * [`ExecFormat::Csr`] — compressed sparse rows. A linear layer runs
//!   sb-tensor's row tile ([`sb_tensor::SparseMatrix::matmul_rows`]); a
//!   conv runs the packed sparse convolution ([`sb_tensor::PackedConv`]):
//!   its weights' offsets into a zero-padded sample are packed at compile
//!   time, and it needs no unfold, computing a register tile of one output
//!   row per pass over a filter's weights.
//! * [`ExecFormat::ShrunkDense`] — rows zeroed by *structured* (filter)
//!   pruning are physically dropped and the shrink propagates into the
//!   next layer's columns, turning channel sparsity into plain smaller
//!   dense matrices. Dropped channels still emit their bias constant;
//!   the compiler tracks those constants through batch norm / ReLU /
//!   pooling and folds them into the consumer's bias exactly.
//! * [`ExecFormat::Bsr`] — blocked-sparse rows
//!   ([`formats::BsrMatrix`], fixed block width
//!   [`formats::BSR_BLOCK_W`]): one column index per block of contiguous
//!   lanes over unfolded patch rows.
//! * [`ExecFormat::Bitmap`] — dense values plus a per-row occupancy
//!   bitmask ([`formats::BitmapMatrix`]): a branch-free set-bit loop over
//!   unfolded patch rows.
//!
//! Execution is batched, parallelized over batch blocks via
//! `sb-runtime`, reuses preplanned scratch buffers (no allocation in the
//! forward loop, no gradient state), and is **bit-identical for any
//! `SB_RUNTIME_THREADS`**. A dense-compiled model replicates the exact
//! floating-point operation order of `Model::forward` in eval mode, and a
//! CSR-compiled one matches it bit for bit on finite inputs, so
//! compiled-vs-dense parity is a hard testable contract rather than an
//! aspiration.
//!
//! # Example
//!
//! ```
//! use sb_infer::{CompileOptions, CompiledModel};
//! use sb_nn::{models, Mode, Network};
//! use sb_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(7);
//! let mut net = models::lenet_300_100(256, 10, &mut rng);
//! let compiled = CompiledModel::compile(&net, &CompileOptions::default());
//! let x = Tensor::rand_normal(&[4, 256], 0.0, 1.0, &mut rng);
//! let dense = net.forward(&x, Mode::Eval);
//! let fast = compiled.forward(&x);
//! assert_eq!(dense.dims(), fast.dims());
//! ```

mod compile;
pub mod cost;
mod exec;
pub mod formats;
mod plan;

pub use compile::{CompileOptions, CompiledModel};
pub use exec::ForwardScratch;
pub use plan::{ExecFormat, FeatureShape, LayerPlan};

/// Row-wise argmax over `[n, classes]` logits — the predicted classes.
///
/// Ties resolve to the lowest class index, matching the convention used
/// by `sb-nn` evaluation.
pub fn predicted_classes(logits: &sb_tensor::Tensor) -> Vec<usize> {
    let (n, c) = (logits.dim(0), logits.dim(1));
    let data = logits.data();
    (0..n)
        .map(|i| {
            let row = &data[i * c..(i + 1) * c];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}
