//! 2-D convolution via im2col lowering.

use crate::layers::Layer;
use crate::network::{Mode, OpInfo};
use crate::param::{Param, ParamKind};
use crate::spec::LayerSpec;
use sb_tensor::{col2im, im2col, nchw_to_rows, rows_to_nchw, Conv2dGeometry, Rng, Tensor};

/// A 2-D convolution over `[N, C, H, W]` inputs with a fixed input
/// geometry (models in this crate are built for a known input size, which
/// lets FLOP accounting be static).
///
/// Weight layout is `[C_out, C_in·KH·KW]` (the im2col patch layout);
/// `OpInfo` and pruning treat it as the standard 4-D kernel.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    out_channels: usize,
    geom: Conv2dGeometry,
    cached_cols: Option<Tensor>,
    cached_batch: usize,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `out_channels` is zero or the kernel does not fit the
    /// input geometry.
    pub fn new(name: &str, out_channels: usize, geom: Conv2dGeometry, rng: &mut Rng) -> Self {
        assert!(out_channels > 0, "out_channels must be positive");
        let _ = (geom.out_h(), geom.out_w()); // validate geometry eagerly
        let patch = geom.patch_len();
        let weight = Tensor::kaiming_normal(&[out_channels, patch], patch, rng);
        Conv2d {
            weight: Param::new(format!("{name}.weight"), ParamKind::ConvWeight, weight),
            bias: Param::new(
                format!("{name}.bias"),
                ParamKind::Bias,
                Tensor::zeros(&[out_channels]),
            ),
            out_channels,
            geom,
            cached_cols: None,
            cached_batch: 0,
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output shape `[C_out, out_h, out_w]` for a single sample.
    pub fn output_dims(&self) -> (usize, usize, usize) {
        (self.out_channels, self.geom.out_h(), self.geom.out_w())
    }

    /// Consumes the forward cache and accumulates dW and db; returns dy
    /// as `[N·OH·OW, C_out]` rows, from which `backward` forms dx.
    fn param_grads(&mut self, grad_output: &Tensor) -> Tensor {
        let cols = self
            .cached_cols
            .take()
            .expect("Conv2d::backward called without a training-mode forward");
        let n = self.cached_batch;
        let (c, oh, ow) = self.output_dims();
        let mut dy = vec![0.0f32; grad_output.numel()];
        nchw_to_rows(grad_output.data(), c, oh * ow, &mut dy);
        let dy_rows = Tensor::from_vec(dy, &[n * oh * ow, c]).expect("shape computed above");
        // dW = dyᵀ · cols → [C_out, patch]
        let dw = dy_rows.transposed_matmul(&cols);
        self.weight.grad_mut().add_scaled_in_place(&dw, 1.0);
        let db = dy_rows.sum_axis0();
        self.bias.grad_mut().add_scaled_in_place(&db, 1.0);
        dy_rows
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().ndim(), 4, "Conv2d expects [N, C, H, W] input");
        let n = input.dim(0);
        let cols = im2col(input, &self.geom);
        // rows: [N·OH·OW, patch] × [C_out, patch]ᵀ → [N·OH·OW, C_out]
        let rows = cols
            .matmul_transposed(self.weight.value())
            .add_row_vector(self.bias.value());
        if mode == Mode::Train {
            self.cached_cols = Some(cols);
            self.cached_batch = n;
        }
        let (c, oh, ow) = self.output_dims();
        let mut out = vec![0.0f32; rows.numel()];
        rows_to_nchw(rows.data(), c, oh * ow, &mut out);
        Tensor::from_vec(out, &[n, c, oh, ow]).expect("shape computed above")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let n = self.cached_batch;
        let dy_rows = self.param_grads(grad_output);
        // dcols = dy · W → [N·OH·OW, patch]
        let dcols = dy_rows.matmul(self.weight.value());
        col2im(&dcols, n, &self.geom)
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.param_grads(grad_output);
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
        vec![OpInfo::Conv2d {
            weight_name: self.weight.name().to_string(),
            out_channels: self.out_channels,
            geom: self.geom,
        }]
    }

    fn spec(&self) -> Option<LayerSpec> {
        let name = self
            .weight
            .name()
            .strip_suffix(".weight")
            .unwrap_or(self.weight.name());
        Some(LayerSpec::Conv2d {
            name: name.to_string(),
            weight: self.weight.value().clone(),
            bias: self.bias.value().clone(),
            out_channels: self.out_channels,
            geom: self.geom,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: h,
            kernel_h: k,
            kernel_w: k,
            stride: s,
            padding_h: p,
            padding_w: p,
        }
    }

    #[test]
    fn identity_1x1_conv_passes_through() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new("c", 2, geom(2, 3, 1, 1, 0), &mut rng);
        // Identity kernel: out channel i copies in channel i.
        conv.weight
            .value_mut()
            .data_mut()
            .copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        let x = Tensor::from_fn(&[1, 2, 3, 3], |i| i as f32);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), x.dims());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn averaging_kernel_known_output() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new("c", 1, geom(1, 3, 3, 1, 0), &mut rng);
        conv.weight.value_mut().data_mut().fill(1.0 / 9.0);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bias_shifts_all_outputs() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new("c", 1, geom(1, 2, 1, 1, 0), &mut rng);
        conv.weight.value_mut().data_mut().fill(0.0);
        conv.bias.value_mut().data_mut().fill(3.5);
        let y = conv.forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval);
        assert!(y.data().iter().all(|&v| v == 3.5));
    }

    #[test]
    fn stride_downsamples() {
        let mut rng = Rng::seed_from(0);
        let conv = Conv2d::new("c", 4, geom(2, 8, 3, 2, 1), &mut rng);
        assert_eq!(conv.output_dims(), (4, 4, 4));
    }

    #[test]
    fn rows_round_trip() {
        let mut rng = Rng::seed_from(7);
        let conv = Conv2d::new("c", 3, geom(2, 4, 3, 1, 1), &mut rng);
        let x = Tensor::rand_normal(&[2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let (c, oh, ow) = conv.output_dims();
        let mut rows = vec![0.0; x.numel()];
        nchw_to_rows(x.data(), c, oh * ow, &mut rows);
        let mut back = vec![0.0; x.numel()];
        rows_to_nchw(&rows, c, oh * ow, &mut back);
        assert_eq!(back, x.data());
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_requires_forward() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new("c", 1, geom(1, 2, 1, 1, 0), &mut rng);
        conv.backward(&Tensor::zeros(&[1, 1, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "Conv2d::backward called without a training-mode forward")]
    fn backward_params_consumes_the_cache() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new("c", 1, geom(1, 2, 1, 1, 0), &mut rng);
        conv.forward(&Tensor::ones(&[1, 1, 2, 2]), Mode::Train);
        conv.backward_params(&Tensor::ones(&[1, 1, 2, 2]));
        conv.backward_params(&Tensor::ones(&[1, 1, 2, 2]));
    }

    #[test]
    fn ops_flops_match_formula() {
        let mut rng = Rng::seed_from(0);
        let conv = Conv2d::new("c", 8, geom(4, 8, 3, 1, 1), &mut rng);
        let ops = conv.ops();
        assert_eq!(ops[0].dense_macs(), (4 * 9) as u64 * 8 * 64);
    }
}
