//! Model zoo mirroring the architectures used in the paper's experiments.
//!
//! The topologies are faithful — LeNet-300-100 and LeNet-5 at full size,
//! a batch-normalized CIFAR-VGG, and the CIFAR ResNet family
//! (depth `6n + 2`) plus a ResNet-18 — but convolutional widths are scaled
//! down (documented per constructor) so that the full experiment grid runs
//! on a single CPU core. DESIGN.md records this substitution; the paper's
//! findings concern *relative* orderings of pruning methods, which depend
//! on architecture shape, not raw width.

use crate::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, Layer, Linear, MaxPool2d, ReLU,
    ResidualBlock, Sequential,
};
use crate::network::{Mode, Network, OpInfo};
use crate::param::Param;
use sb_tensor::{Conv2dGeometry, Rng, Tensor};

/// A named feed-forward network: a [`Sequential`] body plus metadata.
///
/// All model-zoo constructors return `Model`; custom architectures can be
/// assembled with [`Model::from_sequential`].
#[derive(Clone)]
pub struct Model {
    name: String,
    body: Sequential,
    classes: usize,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("name", &self.name)
            .field("classes", &self.classes)
            .finish()
    }
}

impl Model {
    /// Wraps a hand-built [`Sequential`] body.
    pub fn from_sequential(name: impl Into<String>, body: Sequential, classes: usize) -> Self {
        Model {
            name: name.into(),
            body,
            classes,
        }
    }

    /// Human-readable architecture name (e.g. `"resnet56"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pure-data specs of the body layers, in execution order — the
    /// hand-off format consumed by the `sb-infer` compiler. Weights are
    /// snapshots with pruning masks already applied.
    ///
    /// # Panics
    ///
    /// Panics if any layer does not support reflection (every layer in
    /// this crate does).
    pub fn spec(&self) -> Vec<crate::spec::LayerSpec> {
        match self.body.spec() {
            Some(crate::spec::LayerSpec::Sequential(specs)) => specs,
            _ => panic!("model body does not support spec reflection"),
        }
    }
}

impl Network for Model {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.body.forward(input, mode)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        self.body.backward_params(grad_logits);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.body.visit_params_ref(f);
    }

    fn ops(&self) -> Vec<OpInfo> {
        self.body.ops()
    }

    fn num_classes(&self) -> usize {
        self.classes
    }
}

fn conv_geom(c: usize, side: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: c,
        in_h: side,
        in_w: side,
        kernel_h: k,
        kernel_w: k,
        stride,
        padding_h: pad,
        padding_w: pad,
    }
}

/// LeNet-300-100: the classic MNIST MLP (two hidden layers of 300 and 100
/// units). Input is a flattened image of `input_dim` pixels. Full size —
/// no scaling needed on CPU.
pub fn lenet_300_100(input_dim: usize, classes: usize, rng: &mut Rng) -> Model {
    let body = Sequential::new()
        .push(Linear::new("fc1", input_dim, 300, rng))
        .push(ReLU::new())
        .push(Linear::new("fc2", 300, 100, rng))
        .push(ReLU::new())
        .push(Linear::new("fc3", 100, classes, rng));
    Model::from_sequential("lenet-300-100", body, classes)
}

/// LeNet-5 (Caffe variant shape): two 5×5 convolutions with max pooling,
/// then a 120-84-classes classifier. Built for `in_channels × side × side`
/// inputs with `side` divisible by 4.
///
/// # Panics
///
/// Panics if `side` is not divisible by 4.
pub fn lenet5(in_channels: usize, side: usize, classes: usize, rng: &mut Rng) -> Model {
    assert_eq!(side % 4, 0, "lenet5 requires side divisible by 4");
    let s2 = side / 2;
    let s4 = side / 4;
    let body = Sequential::new()
        .push(Conv2d::new("conv1", 6, conv_geom(in_channels, side, 5, 1, 2), rng))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new("conv2", 16, conv_geom(6, s2, 5, 1, 2), rng))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
        .push(Flatten::new())
        .push(Linear::new("fc1", 16 * s4 * s4, 120, rng))
        .push(ReLU::new())
        .push(Linear::new("fc2", 120, 84, rng))
        .push(ReLU::new())
        .push(Linear::new("fc3", 84, classes, rng));
    Model::from_sequential("lenet5", body, classes)
}

/// CIFAR-VGG (Zagoruyko 2015 style): three conv stages with batch norm,
/// each followed by 2×2 max pooling, then a two-layer classifier.
///
/// Width scaling: stage widths are `[w, 2w, 4w]` with `w = base_width`
/// (the original uses `w = 64`; experiments here default to `w = 8`).
///
/// # Panics
///
/// Panics if `side` is not divisible by 8 or `base_width == 0`.
pub fn cifar_vgg(
    in_channels: usize,
    side: usize,
    classes: usize,
    base_width: usize,
    rng: &mut Rng,
) -> Model {
    assert_eq!(side % 8, 0, "cifar_vgg requires side divisible by 8");
    assert!(base_width > 0, "base_width must be positive");
    let w = base_width;
    let (s2, s4, s8) = (side / 2, side / 4, side / 8);
    let mut body = Sequential::new();
    let mut stage = |body: Sequential, idx: usize, cin: usize, cout: usize, s: usize| {
        body.push(Conv2d::new(
            &format!("stage{idx}.conv1"),
            cout,
            conv_geom(cin, s, 3, 1, 1),
            rng,
        ))
        .push(BatchNorm2d::new(&format!("stage{idx}.bn1"), cout))
        .push(ReLU::new())
        .push(Conv2d::new(
            &format!("stage{idx}.conv2"),
            cout,
            conv_geom(cout, s, 3, 1, 1),
            rng,
        ))
        .push(BatchNorm2d::new(&format!("stage{idx}.bn2"), cout))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
    };
    body = stage(body, 1, in_channels, w, side);
    body = stage(body, 2, w, 2 * w, s2);
    body = stage(body, 3, 2 * w, 4 * w, s4);
    // The hidden classifier layer is deliberately wide (8w): in the real
    // CIFAR-VGG the fully-connected head holds most of the parameters,
    // which is what gives magnitude pruning slack at high compression.
    let body = body
        .push(Flatten::new())
        .push(Linear::new("classifier.fc1", 4 * w * s8 * s8, 8 * w, rng))
        .push(ReLU::new())
        .push(Linear::new("classifier.fc2", 8 * w, classes, rng));
    Model::from_sequential("cifar-vgg", body, classes)
}

/// A *custom variant* of [`cifar_vgg`] of the kind Section 5.1 of the
/// paper complains about: same name in a results table, but dropout added
/// before the classifier and a smaller hidden layer (`4w` instead of
/// `8w`). Exists so the `architecture-ambiguity` experiment can show two
/// "CIFAR-VGG" evaluations that silently disagree.
///
/// # Panics
///
/// Panics if `side` is not divisible by 8 or `base_width == 0`.
pub fn cifar_vgg_variant(
    in_channels: usize,
    side: usize,
    classes: usize,
    base_width: usize,
    rng: &mut Rng,
) -> Model {
    assert_eq!(side % 8, 0, "cifar_vgg_variant requires side divisible by 8");
    assert!(base_width > 0, "base_width must be positive");
    let w = base_width;
    let (s2, s4, s8) = (side / 2, side / 4, side / 8);
    let mut body = Sequential::new();
    let mut stage = |body: Sequential, idx: usize, cin: usize, cout: usize, s: usize| {
        body.push(Conv2d::new(
            &format!("stage{idx}.conv1"),
            cout,
            conv_geom(cin, s, 3, 1, 1),
            rng,
        ))
        .push(BatchNorm2d::new(&format!("stage{idx}.bn1"), cout))
        .push(ReLU::new())
        .push(Conv2d::new(
            &format!("stage{idx}.conv2"),
            cout,
            conv_geom(cout, s, 3, 1, 1),
            rng,
        ))
        .push(BatchNorm2d::new(&format!("stage{idx}.bn2"), cout))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
    };
    body = stage(body, 1, in_channels, w, side);
    body = stage(body, 2, w, 2 * w, s2);
    body = stage(body, 3, 2 * w, 4 * w, s4);
    let body = body
        .push(Flatten::new())
        .push(Dropout::new(0.3, 0xD0))
        .push(Linear::new("classifier.fc1", 4 * w * s8 * s8, 4 * w, rng))
        .push(ReLU::new())
        .push(Dropout::new(0.3, 0xD1))
        .push(Linear::new("classifier.fc2", 4 * w, classes, rng));
    Model::from_sequential("cifar-vgg-variant", body, classes)
}

/// CIFAR-style ResNet of depth `6n + 2` (He et al. 2016a): a 3×3 stem,
/// three stages of `n` residual blocks at widths `[w, 2w, 4w]`, global
/// average pooling, and a linear classifier.
///
/// `depth` must satisfy `depth = 6n + 2` (20, 56, 110, ...). Width
/// scaling: the original stem width is 16; experiments here default to
/// `base_width = 8`.
///
/// # Panics
///
/// Panics if `depth` is not of the form `6n + 2`, or `side` is not
/// divisible by 4.
pub fn resnet_cifar(
    depth: usize,
    in_channels: usize,
    side: usize,
    classes: usize,
    base_width: usize,
    rng: &mut Rng,
) -> Model {
    assert!(
        depth >= 8 && (depth - 2).is_multiple_of(6),
        "CIFAR ResNet depth must be 6n+2, got {depth}"
    );
    assert_eq!(side % 4, 0, "resnet_cifar requires side divisible by 4");
    assert!(base_width > 0, "base_width must be positive");
    let n = (depth - 2) / 6;
    let w = base_width;
    let mut body = Sequential::new()
        .push(Conv2d::new("stem.conv", w, conv_geom(in_channels, side, 3, 1, 1), rng))
        .push(BatchNorm2d::new("stem.bn", w))
        .push(ReLU::new());
    let mut cur_c = w;
    let mut cur_side = side;
    for (stage, &width) in [w, 2 * w, 4 * w].iter().enumerate() {
        for block in 0..n {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let rb = ResidualBlock::new(
                &format!("stage{}.block{}", stage + 1, block),
                cur_c,
                width,
                cur_side,
                stride,
                rng,
            );
            cur_side = rb.out_side();
            cur_c = width;
            body.push_boxed(Box::new(rb));
        }
    }
    let body = body
        .push(AvgPool2d::global(cur_side))
        .push(Flatten::new())
        .push(Linear::new("classifier.fc", cur_c, classes, rng));
    Model::from_sequential(format!("resnet{depth}"), body, classes)
}

/// ResNet-18 (scaled): a 3×3 stem and four stages of two residual blocks
/// at widths `[w, 2w, 4w, 8w]` — the `[2, 2, 2, 2]` block layout of the
/// original — with global average pooling. The original stem width is 64;
/// experiments here default to `base_width = 8`. The 7×7/stride-2 stem and
/// the initial max pool are omitted because inputs are 24×24 rather than
/// 224×224 (the CIFAR-style adaptation used by most small-input ResNets).
///
/// # Panics
///
/// Panics if `side` is not divisible by 8.
pub fn resnet18(
    in_channels: usize,
    side: usize,
    classes: usize,
    base_width: usize,
    rng: &mut Rng,
) -> Model {
    assert_eq!(side % 8, 0, "resnet18 requires side divisible by 8");
    assert!(base_width > 0, "base_width must be positive");
    let w = base_width;
    let widths = [w, 2 * w, 4 * w, 8 * w];
    let mut body = Sequential::new()
        .push(Conv2d::new("stem.conv", w, conv_geom(in_channels, side, 3, 1, 1), rng))
        .push(BatchNorm2d::new("stem.bn", w))
        .push(ReLU::new());
    let mut cur_c = w;
    let mut cur_side = side;
    for (stage, &width) in widths.iter().enumerate() {
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let rb = ResidualBlock::new(
                &format!("stage{}.block{}", stage + 1, block),
                cur_c,
                width,
                cur_side,
                stride,
                rng,
            );
            cur_side = rb.out_side();
            cur_c = width;
            body.push_boxed(Box::new(rb));
        }
    }
    let body = body
        .push(AvgPool2d::global(cur_side))
        .push(Flatten::new())
        .push(Linear::new("classifier.fc", cur_c, classes, rng));
    Model::from_sequential("resnet18", body, classes)
}

/// A small multi-layer perceptron, useful for fast tests and examples.
pub fn mlp(input_dim: usize, hidden: &[usize], classes: usize, rng: &mut Rng) -> Model {
    let mut body = Sequential::new();
    let mut prev = input_dim;
    for (i, &h) in hidden.iter().enumerate() {
        body.push_boxed(Box::new(Linear::new(&format!("fc{i}"), prev, h, rng)));
        body.push_boxed(Box::new(ReLU::new()));
        prev = h;
    }
    let body = body.push(Linear::new("head", prev, classes, rng));
    Model::from_sequential("mlp", body, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkExt;

    fn check_forward(model: &mut Model, dims: &[usize]) {
        let mut rng = Rng::seed_from(99);
        let x = Tensor::rand_normal(dims, 0.0, 1.0, &mut rng);
        let y = model.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[dims[0], model.num_classes()]);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn lenet_300_100_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut m = lenet_300_100(256, 10, &mut rng);
        check_forward(&mut m, &[2, 256]);
        // 256·300 + 300·100 + 100·10 weights + biases
        assert_eq!(m.num_params(), 256 * 300 + 300 + 300 * 100 + 100 + 1000 + 10);
    }

    #[test]
    fn lenet5_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut m = lenet5(1, 16, 10, &mut rng);
        check_forward(&mut m, &[2, 1, 16, 16]);
    }

    #[test]
    fn cifar_vgg_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut m = cifar_vgg(3, 16, 10, 4, &mut rng);
        check_forward(&mut m, &[2, 3, 16, 16]);
    }

    #[test]
    fn cifar_vgg_variant_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut m = cifar_vgg_variant(3, 16, 10, 4, &mut rng);
        check_forward(&mut m, &[2, 3, 16, 16]);
        // The variant has a smaller classifier than the base model.
        let base = cifar_vgg(3, 16, 10, 4, &mut Rng::seed_from(0));
        assert!(m.num_params() < base.num_params());
    }

    #[test]
    fn resnet20_shapes_and_depth() {
        let mut rng = Rng::seed_from(0);
        let mut m = resnet_cifar(20, 3, 16, 10, 4, &mut rng);
        check_forward(&mut m, &[2, 3, 16, 16]);
        // 1 stem conv + 9 blocks × 2 convs + 2 projection convs + 1 fc = 22.
        assert_eq!(m.ops().len(), 22);
    }

    #[test]
    fn resnet56_has_6n_plus_2_structure() {
        let mut rng = Rng::seed_from(0);
        let m = resnet_cifar(56, 3, 16, 10, 4, &mut rng);
        // 1 stem + 27 blocks × 2 + 2 projections + 1 fc
        assert_eq!(m.ops().len(), 1 + 27 * 2 + 2 + 1);
    }

    #[test]
    #[should_panic(expected = "6n+2")]
    fn invalid_resnet_depth_rejected() {
        let mut rng = Rng::seed_from(0);
        resnet_cifar(21, 3, 16, 10, 4, &mut rng);
    }

    #[test]
    fn resnet18_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut m = resnet18(3, 24, 100, 4, &mut rng);
        check_forward(&mut m, &[2, 3, 24, 24]);
        // 1 stem + 8 blocks × 2 + 3 projections + 1 fc
        assert_eq!(m.ops().len(), 1 + 16 + 3 + 1);
    }

    #[test]
    fn mlp_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut m = mlp(8, &[16, 16], 4, &mut rng);
        check_forward(&mut m, &[3, 8]);
    }

    #[test]
    fn param_names_unique() {
        let mut rng = Rng::seed_from(0);
        let m = resnet_cifar(20, 3, 16, 10, 4, &mut rng);
        let names = m.param_names();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate parameter names");
    }

    /// Every parameter gradient's bits, in visit order.
    fn grad_bits(m: &Model) -> Vec<(String, Vec<u32>)> {
        let mut out = Vec::new();
        m.visit_params_ref(&mut |p| {
            out.push((
                p.name().to_string(),
                p.grad().data().iter().map(|v| v.to_bits()).collect(),
            ));
        });
        out
    }

    /// `Network::backward`, which skips the first layer's input gradient,
    /// leaves every parameter gradient bit-identical to the full
    /// `Sequential::backward` chain on a twin built from the same seed.
    fn first_layer_skip_keeps_grads(build: impl Fn(&mut Rng) -> Model, input_dims: &[usize]) {
        let mut rng = Rng::seed_from(41);
        let x = Tensor::rand_normal(input_dims, 0.0, 1.0, &mut rng);
        let mut skip = build(&mut Rng::seed_from(7));
        let mut full = build(&mut Rng::seed_from(7));
        let y = skip.forward(&x, Mode::Train);
        assert_eq!(full.forward(&x, Mode::Train), y);
        let dy = Tensor::rand_normal(y.dims(), 0.0, 1.0, &mut rng);
        skip.backward(&dy);
        let dx = full.body.backward(&dy);
        assert_eq!(dx.dims(), x.dims());
        let (a, b) = (grad_bits(&skip), grad_bits(&full));
        assert!(a.iter().any(|(_, g)| g.iter().any(|&v| v != 0)));
        for ((name, ga), (_, gb)) in a.iter().zip(&b) {
            assert!(ga == gb, "gradient of {name} differs");
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn first_layer_skip_keeps_lenet300_grads() {
        first_layer_skip_keeps_grads(|rng| lenet_300_100(64, 10, rng), &[5, 64]);
    }

    #[test]
    fn first_layer_skip_keeps_lenet5_grads() {
        first_layer_skip_keeps_grads(|rng| lenet5(1, 16, 10, rng), &[5, 1, 16, 16]);
    }

    #[test]
    fn first_layer_skip_keeps_resnet8_grads() {
        first_layer_skip_keeps_grads(|rng| resnet_cifar(8, 3, 16, 10, 4, rng), &[5, 3, 16, 16]);
    }

    #[test]
    fn default_backward_params_keeps_grads() {
        // A first layer without an override runs `backward` and drops dx.
        first_layer_skip_keeps_grads(
            |rng| {
                let body = Sequential::new()
                    .push(ReLU::new())
                    .push(Linear::new("fc1", 12, 8, rng))
                    .push(ReLU::new())
                    .push(Linear::new("fc2", 8, 4, rng));
                Model::from_sequential("relu-first", body, 4)
            },
            &[5, 12],
        );
    }

    #[test]
    fn train_mode_backward_runs() {
        let mut rng = Rng::seed_from(1);
        let mut m = resnet_cifar(20, 3, 16, 10, 4, &mut rng);
        let x = Tensor::rand_normal(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let y = m.forward(&x, Mode::Train);
        m.backward(&Tensor::ones(y.dims()));
        let mut any_nonzero_grad = false;
        m.visit_params_ref(&mut |p| {
            if p.grad().norm_sq() > 0.0 {
                any_nonzero_grad = true;
            }
        });
        assert!(any_nonzero_grad);
    }
}
