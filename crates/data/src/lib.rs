#![warn(missing_docs)]

//! Synthetic vision datasets for `shrinkbench-rs`.
//!
//! The paper's experiments run on MNIST, CIFAR-10, and ImageNet — none of
//! which are available in this environment. This crate provides the
//! substitution documented in DESIGN.md: [`SyntheticVision`], a
//! deterministic, class-conditional procedural image generator with three
//! presets that mirror the *roles* the real datasets play:
//!
//! * [`DatasetSpec::mnist_like`] — single-channel, 10 easy classes. Like
//!   MNIST, models saturate on it quickly, reproducing the paper's
//!   Section 4.2 argument that MNIST results do not discriminate methods.
//! * [`DatasetSpec::cifar_like`] — three-channel, 10 classes, moderate
//!   difficulty; the workhorse for the Figure 7–16 experiments.
//! * [`DatasetSpec::imagenet_like`] — three-channel, many classes, hard;
//!   makes Top-1 vs Top-5 accuracy meaningfully different (Figures 6,
//!   17, 18).
//!
//! Every image is a pure function of `(spec.seed, split, index)`:
//! regenerating a dataset is exact, which is the reproducibility property
//! the paper's recommendations demand. A [`SyntheticVision`] generates
//! each split once, on the first [`batches_of`] over it, and keeps the
//! images (at most 14.2 MB per split, ImageNet-like train), so every
//! later epoch and grid cell gathers its batches from memory.

mod generator;
mod loader;
mod spec;

pub use generator::SyntheticVision;
pub use loader::{batches_of, Batch};
pub use spec::{DatasetSpec, Split};
