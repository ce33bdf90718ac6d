//! Sequential composition of layers.

use crate::layers::Layer;
use crate::network::{Mode, OpInfo};
use crate::param::Param;
use crate::spec::LayerSpec;
use sb_tensor::Tensor;

/// A chain of layers executed in order; backward runs them in reverse.
///
/// `Sequential` itself implements [`Layer`], so stages can nest.
#[derive(Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, returning `self` for chaining.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Backpropagates through every layer but the first as `backward`
    /// does, then runs the first layer's `backward_params`: the chain's
    /// input gradient is never formed.
    fn backward_params(&mut self, grad_output: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_output.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }

    fn ops(&self) -> Vec<OpInfo> {
        self.layers.iter().flat_map(|l| l.ops()).collect()
    }

    fn spec(&self) -> Option<LayerSpec> {
        let mut specs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            specs.push(layer.spec()?);
        }
        Some(LayerSpec::Sequential(specs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, ReLU};
    use sb_tensor::Rng;

    #[test]
    fn forward_composes_in_order() {
        let mut rng = Rng::seed_from(1);
        let mut seq = Sequential::new()
            .push(Linear::new("a", 2, 2, &mut rng))
            .push(ReLU::new())
            .push(Linear::new("b", 2, 1, &mut rng));
        let y = seq.forward(&Tensor::ones(&[3, 2]), Mode::Eval);
        assert_eq!(y.dims(), &[3, 1]);
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn params_visited_in_stable_order() {
        let mut rng = Rng::seed_from(1);
        let seq = Sequential::new()
            .push(Linear::new("a", 2, 2, &mut rng))
            .push(Linear::new("b", 2, 2, &mut rng));
        let mut names = Vec::new();
        seq.visit_params_ref(&mut |p| names.push(p.name().to_string()));
        assert_eq!(names, vec!["a.weight", "a.bias", "b.weight", "b.bias"]);
    }

    #[test]
    fn ops_concatenated() {
        let mut rng = Rng::seed_from(1);
        let seq = Sequential::new()
            .push(Linear::new("a", 4, 3, &mut rng))
            .push(ReLU::new())
            .push(Linear::new("b", 3, 2, &mut rng));
        assert_eq!(seq.ops().len(), 2);
    }

    #[test]
    fn backward_round_trip_shapes() {
        let mut rng = Rng::seed_from(1);
        let mut seq = Sequential::new()
            .push(Linear::new("a", 3, 5, &mut rng))
            .push(ReLU::new())
            .push(Linear::new("b", 5, 2, &mut rng));
        let x = Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng);
        seq.forward(&x, Mode::Train);
        let dx = seq.backward(&Tensor::ones(&[4, 2]));
        assert_eq!(dx.dims(), &[4, 3]);
    }
}
