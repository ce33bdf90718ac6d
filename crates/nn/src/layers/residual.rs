//! Basic residual block (the ResNet v1 building block used by the
//! CIFAR ResNet-20/56/110 family and ResNet-18).

use crate::layers::{BatchNorm2d, Conv2d, Layer, ReLU};
use crate::network::{Mode, OpInfo};
use crate::param::Param;
use crate::spec::LayerSpec;
use sb_tensor::{Conv2dGeometry, Rng, Tensor};

/// A two-convolution residual block: `relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
///
/// When stride or channel count changes, the shortcut is a strided 1×1
/// convolution followed by batch norm (the "projection shortcut" of
/// He et al. 2016a); otherwise it is the identity.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: ReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    projection: Option<(Conv2d, BatchNorm2d)>,
    out_relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Creates a block mapping `in_channels × side × side` feature maps to
    /// `out_channels × (side/stride) × (side/stride)`.
    ///
    /// # Panics
    ///
    /// Panics if geometry is invalid (e.g. `side < stride`).
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        side: usize,
        stride: usize,
        rng: &mut Rng,
    ) -> Self {
        let g1 = Conv2dGeometry {
            in_channels,
            in_h: side,
            in_w: side,
            kernel_h: 3,
            kernel_w: 3,
            stride,
            padding_h: 1,
            padding_w: 1,
        };
        let out_side = g1.out_h();
        let g2 = Conv2dGeometry {
            in_channels: out_channels,
            in_h: out_side,
            in_w: out_side,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding_h: 1,
            padding_w: 1,
        };
        let needs_projection = stride != 1 || in_channels != out_channels;
        let projection = needs_projection.then(|| {
            let gp = Conv2dGeometry {
                in_channels,
                in_h: side,
                in_w: side,
                kernel_h: 1,
                kernel_w: 1,
                stride,
                padding_h: 0,
                padding_w: 0,
            };
            (
                Conv2d::new(&format!("{name}.shortcut.conv"), out_channels, gp, rng),
                BatchNorm2d::new(&format!("{name}.shortcut.bn"), out_channels),
            )
        });
        ResidualBlock {
            conv1: Conv2d::new(&format!("{name}.conv1"), out_channels, g1, rng),
            bn1: BatchNorm2d::new(&format!("{name}.bn1"), out_channels),
            relu1: ReLU::new(),
            conv2: Conv2d::new(&format!("{name}.conv2"), out_channels, g2, rng),
            bn2: BatchNorm2d::new(&format!("{name}.bn2"), out_channels),
            projection,
            out_relu_mask: None,
        }
    }

    /// Spatial side length of the block output.
    pub fn out_side(&self) -> usize {
        self.conv2.geometry().out_h()
    }

    /// Whether the block uses a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.projection.is_some()
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let main = self.conv1.forward(input, mode);
        let main = self.bn1.forward(&main, mode);
        let main = self.relu1.forward(&main, mode);
        let main = self.conv2.forward(&main, mode);
        let main = self.bn2.forward(&main, mode);
        let shortcut = match &mut self.projection {
            Some((conv, bn)) => {
                let s = conv.forward(input, mode);
                bn.forward(&s, mode)
            }
            None => input.clone(),
        };
        let pre = &main + &shortcut;
        if mode == Mode::Train {
            self.out_relu_mask = Some(pre.data().iter().map(|&v| v > 0.0).collect());
        }
        pre.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .out_relu_mask
            .take()
            .expect("ResidualBlock::backward called without a training-mode forward");
        let mut dpre = grad_output.clone();
        for (v, &keep) in dpre.data_mut().iter_mut().zip(&mask) {
            if !keep {
                *v = 0.0;
            }
        }
        // Main path.
        let g = self.bn2.backward(&dpre);
        let g = self.conv2.backward(&g);
        let g = self.relu1.backward(&g);
        let g = self.bn1.backward(&g);
        let dx_main = self.conv1.backward(&g);
        // Shortcut path.
        let dx_short = match &mut self.projection {
            Some((conv, bn)) => {
                let g = bn.backward(&dpre);
                conv.backward(&g)
            }
            None => dpre,
        };
        &dx_main + &dx_short
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &mut self.projection {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.visit_params_ref(f);
        self.bn1.visit_params_ref(f);
        self.conv2.visit_params_ref(f);
        self.bn2.visit_params_ref(f);
        if let Some((conv, bn)) = &self.projection {
            conv.visit_params_ref(f);
            bn.visit_params_ref(f);
        }
    }

    fn ops(&self) -> Vec<OpInfo> {
        let mut ops = self.conv1.ops();
        ops.extend(self.conv2.ops());
        if let Some((conv, _)) = &self.projection {
            ops.extend(conv.ops());
        }
        ops
    }

    fn spec(&self) -> Option<LayerSpec> {
        let main = vec![
            self.conv1.spec()?,
            self.bn1.spec()?,
            LayerSpec::ReLU,
            self.conv2.spec()?,
            self.bn2.spec()?,
        ];
        let shortcut = match &self.projection {
            Some((conv, bn)) => vec![conv.spec()?, bn.spec()?],
            None => Vec::new(),
        };
        Some(LayerSpec::Residual { main, shortcut })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_block_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut block = ResidualBlock::new("b", 4, 4, 8, 1, &mut rng);
        assert!(!block.has_projection());
        let x = Tensor::rand_normal(&[2, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn downsampling_block_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut block = ResidualBlock::new("b", 4, 8, 8, 2, &mut rng);
        assert!(block.has_projection());
        assert_eq!(block.out_side(), 4);
        let x = Tensor::rand_normal(&[1, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn output_is_nonnegative() {
        let mut rng = Rng::seed_from(2);
        let mut block = ResidualBlock::new("b", 2, 2, 4, 1, &mut rng);
        let x = Tensor::rand_normal(&[2, 2, 4, 4], 0.0, 3.0, &mut rng);
        let y = block.forward(&x, Mode::Eval);
        assert!(y.min() >= 0.0);
    }

    #[test]
    fn backward_shapes_match_input() {
        let mut rng = Rng::seed_from(3);
        let mut block = ResidualBlock::new("b", 2, 4, 6, 2, &mut rng);
        let x = Tensor::rand_normal(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train);
        let dx = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn projection_block_has_three_convs() {
        let mut rng = Rng::seed_from(4);
        let block = ResidualBlock::new("b", 2, 4, 6, 2, &mut rng);
        assert_eq!(block.ops().len(), 3);
        let identity = ResidualBlock::new("b", 4, 4, 6, 1, &mut rng);
        assert_eq!(identity.ops().len(), 2);
    }

    #[test]
    fn param_names_are_prefixed() {
        let mut rng = Rng::seed_from(5);
        let block = ResidualBlock::new("stage1.block0", 2, 2, 4, 1, &mut rng);
        let mut names = Vec::new();
        block.visit_params_ref(&mut |p| names.push(p.name().to_string()));
        assert!(names.contains(&"stage1.block0.conv1.weight".to_string()));
        assert!(names.contains(&"stage1.block0.bn2.beta".to_string()));
    }
}
