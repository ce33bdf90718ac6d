//! Layers with hand-written forward and backward passes.
//!
//! Every layer caches whatever it needs during `forward(Mode::Train)` so
//! that a subsequent `backward` can compute input gradients and accumulate
//! parameter gradients. A network's first layer runs `backward_params`
//! instead, which skips the input gradient that nothing reads. Gradient
//! correctness of every layer is verified against central finite
//! differences in `tests/gradcheck.rs`.

mod act;
mod conv;
mod dropout;
mod linear;
mod norm;
mod pool;
mod residual;
mod seq;

pub use act::{Flatten, ReLU};
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::{AvgPool2d, MaxPool2d};
pub use residual::ResidualBlock;
pub use seq::Sequential;

use crate::network::{Mode, OpInfo};
use crate::param::Param;
use crate::spec::LayerSpec;
use sb_tensor::Tensor;

/// One differentiable operation with optional parameters.
///
/// The contract mirrors classic layer-wise backprop:
///
/// 1. `forward(x, Mode::Train)` computes the output and caches activations;
/// 2. `backward(dy)` consumes the cache, **accumulates** parameter
///    gradients, and returns the gradient with respect to the input;
///    `backward_params(dy)` does the same but returns nothing, for a layer
///    whose input gradient nothing reads (the first layer of a network).
///
/// Calling `backward` or `backward_params` without a preceding
/// training-mode `forward` on the same batch is a contract violation;
/// layers panic with a clear message.
///
/// Layers are plain data: every layer is `Clone` (so a boxed one clones
/// through [`BoxedClone`]) and `Sync`, so one network can be shared
/// read-only across threads and copied by each.
pub trait Layer: Send + Sync + BoxedClone {
    /// Computes the layer output.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Backpropagates; returns the gradient w.r.t. the layer input.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Backpropagates into the parameter gradients only, consuming the
    /// cache as [`Layer::backward`] does and accumulating bit-identical
    /// gradients. The default runs `backward` and drops the input
    /// gradient; `Linear`, `Conv2d` and `Sequential` never compute it.
    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward(grad_output);
    }

    /// Visits this layer's parameters mutably (default: none).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits this layer's parameters immutably (default: none).
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    /// Describes this layer's multiply-add-bearing ops (default: none).
    fn ops(&self) -> Vec<OpInfo> {
        Vec::new()
    }

    /// Pure-data description of this layer's eval-mode semantics, used by
    /// the `sb-infer` compiler. Default: `None` (not compilable); every
    /// layer in this crate overrides it.
    fn spec(&self) -> Option<LayerSpec> {
        None
    }
}

/// Clones a layer behind a `Box<dyn Layer>`: parameters, masks, caches
/// and RNG state included. Implemented for every `Clone` layer.
pub trait BoxedClone {
    /// A boxed copy of `self`.
    fn boxed_clone(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> BoxedClone for T {
    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}
