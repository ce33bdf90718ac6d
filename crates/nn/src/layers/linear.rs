//! Fully-connected layer.

use crate::layers::Layer;
use crate::network::{Mode, OpInfo};
use crate::param::{Param, ParamKind};
use crate::spec::LayerSpec;
use sb_tensor::{Rng, Tensor};

/// A fully-connected layer: `y = x · Wᵀ + b` with `W: [out, in]`.
///
/// # Example
///
/// ```
/// use sb_nn::{Linear, Layer, Mode};
/// use sb_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed_from(0);
/// let mut fc = Linear::new("fc", 4, 2, &mut rng);
/// let y = fc.forward(&Tensor::ones(&[3, 4]), Mode::Eval);
/// assert_eq!(y.dims(), &[3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(name: &str, in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        assert!(in_features > 0 && out_features > 0, "features must be positive");
        let weight = Tensor::kaiming_normal(&[out_features, in_features], in_features, rng);
        Linear {
            weight: Param::new(format!("{name}.weight"), ParamKind::LinearWeight, weight),
            bias: Param::new(
                format!("{name}.bias"),
                ParamKind::Bias,
                Tensor::zeros(&[out_features]),
            ),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Direct access to the weight parameter (used in unit tests).
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().ndim(), 2, "Linear expects [N, in] input");
        assert_eq!(
            input.dim(1),
            self.in_features,
            "Linear {} expects {} input features, got {}",
            self.weight.name(),
            self.in_features,
            input.dim(1)
        );
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        input
            .matmul_transposed(self.weight.value())
            .add_row_vector(self.bias.value())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_params(grad_output);
        // dx = dy · W  → [N, in]
        grad_output.matmul(self.weight.value())
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        let input = self
            .cached_input
            .take()
            .expect("Linear::backward called without a training-mode forward");
        // dW = dyᵀ · x  → [out, in]
        let dw = grad_output.transposed_matmul(&input);
        self.weight.grad_mut().add_scaled_in_place(&dw, 1.0);
        // db = column sums of dy
        let db = grad_output.sum_axis0();
        self.bias.grad_mut().add_scaled_in_place(&db, 1.0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn ops(&self) -> Vec<OpInfo> {
        vec![OpInfo::Linear {
            weight_name: self.weight.name().to_string(),
            in_features: self.in_features,
            out_features: self.out_features,
        }]
    }

    fn spec(&self) -> Option<LayerSpec> {
        let name = self
            .weight
            .name()
            .strip_suffix(".weight")
            .unwrap_or(self.weight.name());
        Some(LayerSpec::Linear {
            name: name.to_string(),
            weight: self.weight.value().clone(),
            bias: self.bias.value().clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = Rng::seed_from(1);
        let mut fc = Linear::new("fc", 3, 2, &mut rng);
        // Overwrite with known weights.
        fc.weight
            .value_mut()
            .data_mut()
            .copy_from_slice(&[1.0, 0.0, -1.0, 0.5, 0.5, 0.5]);
        fc.bias.value_mut().data_mut().copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::from_vec(vec![2.0, 4.0, 6.0], &[1, 3]).unwrap();
        let y = fc.forward(&x, Mode::Eval);
        // y0 = 2 - 6 + 1 = -3;  y1 = 1 + 2 + 3 - 1 = 5
        assert_eq!(y.data(), &[-3.0, 5.0]);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut rng = Rng::seed_from(2);
        let mut fc = Linear::new("fc", 2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        fc.forward(&x, Mode::Train);
        let dy = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let dx = fc.backward(&dy);
        // dW row 0 = x, row 1 = 0.
        assert_eq!(fc.weight.grad().data()[0..2], [1.0, 2.0]);
        assert_eq!(fc.weight.grad().data()[2..4], [0.0, 0.0]);
        assert_eq!(fc.bias.grad().data(), &[1.0, 0.0]);
        // dx = dy · W = row 0 of W.
        let w0 = [fc.weight.value().data()[0], fc.weight.value().data()[1]];
        assert_eq!(dx.data(), &w0);
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_without_forward_panics() {
        let mut rng = Rng::seed_from(3);
        let mut fc = Linear::new("fc", 2, 2, &mut rng);
        fc.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "Linear::backward called without a training-mode forward")]
    fn backward_params_consumes_the_cache() {
        let mut rng = Rng::seed_from(3);
        let mut fc = Linear::new("fc", 2, 2, &mut rng);
        fc.forward(&Tensor::ones(&[1, 2]), Mode::Train);
        fc.backward_params(&Tensor::ones(&[1, 2]));
        fc.backward_params(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut rng = Rng::seed_from(4);
        let mut fc = Linear::new("fc", 2, 2, &mut rng);
        fc.forward(&Tensor::zeros(&[1, 2]), Mode::Eval);
        assert!(fc.cached_input.is_none());
    }

    #[test]
    fn ops_describe_macs() {
        let mut rng = Rng::seed_from(5);
        let fc = Linear::new("fc", 10, 4, &mut rng);
        let ops = fc.ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].dense_macs(), 40);
        assert_eq!(ops[0].weight_name(), "fc.weight");
    }
}
