//! Optimizers: SGD (with momentum / Nesterov / weight decay) and Adam.
//!
//! Optimizers operate through [`Network::visit_params`]; per-parameter
//! state (momentum buffers, Adam moments) is keyed by parameter name, so
//! snapshot/restore of a network does not invalidate optimizer state
//! layouts. After every step the network's masks are re-applied, keeping
//! pruned weights at exactly zero during fine-tuning.

use crate::network::{Network, NetworkExt};
use crate::param::Param;
use sb_tensor::Tensor;
use std::collections::HashMap;

/// A first-order optimizer over a network's parameters.
pub trait Optimizer {
    /// Applies one update step from the currently accumulated gradients,
    /// then re-applies pruning masks.
    fn step(&mut self, network: &mut dyn Network);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum, Nesterov momentum,
/// and decoupled L2 weight decay.
///
/// # Example
///
/// ```
/// use sb_nn::Sgd;
/// let opt = Sgd::new(0.1).momentum(0.9).nesterov(true).weight_decay(5e-4);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    nesterov: bool,
    weight_decay: f32,
    velocity: HashMap<String, Tensor>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum: 0.0,
            nesterov: false,
            weight_decay: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// Sets the momentum coefficient.
    pub fn momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }

    /// Enables Nesterov momentum (requires `momentum > 0` at step time).
    pub fn nesterov(mut self, nesterov: bool) -> Self {
        self.nesterov = nesterov;
        self
    }

    /// Sets L2 weight decay added to the gradient.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }

    fn update_param(&mut self, p: &mut Param) {
        if !p.kind().trainable() {
            return;
        }
        let lr = self.lr;
        let wd = self.weight_decay;
        let mut grad = p.grad().clone();
        if wd > 0.0 {
            grad.add_scaled_in_place(p.value(), wd);
        }
        if self.momentum > 0.0 {
            let v = self
                .velocity
                .entry(p.name().to_string())
                .or_insert_with(|| Tensor::zeros(grad.dims()));
            v.scale_in_place(self.momentum);
            v.add_scaled_in_place(&grad, 1.0);
            if self.nesterov {
                // Effective gradient: g + μ·v
                grad.add_scaled_in_place(v, self.momentum);
            } else {
                grad = v.clone();
            }
        }
        p.value_mut().add_scaled_in_place(&grad, -lr);
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, network: &mut dyn Network) {
        network.visit_params(&mut |p| self.update_param(p));
        network.apply_masks();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction and optional L2 weight
/// decay.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step_count: u64,
    moments: HashMap<String, (Tensor, Tensor)>,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard defaults
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step_count: 0,
            moments: HashMap::new(),
        }
    }

    /// Sets the exponential decay rates for the moment estimates.
    pub fn betas(mut self, beta1: f32, beta2: f32) -> Self {
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Sets L2 weight decay added to the gradient.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }

    fn update_param(&mut self, p: &mut Param, bc1: f32, bc2: f32) {
        if !p.kind().trainable() {
            return;
        }
        let mut grad = p.grad().clone();
        if self.weight_decay > 0.0 {
            grad.add_scaled_in_place(p.value(), self.weight_decay);
        }
        let (m, v) = self
            .moments
            .entry(p.name().to_string())
            .or_insert_with(|| (Tensor::zeros(grad.dims()), Tensor::zeros(grad.dims())));
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let (c1, c2) = (1.0 - b1, 1.0 - b2);
        let moments = m.data_mut().iter_mut().zip(v.data_mut());
        let value = p.value_mut().data_mut();
        for ((w, &g), (mi, vi)) in value.iter_mut().zip(grad.data()).zip(moments) {
            *mi = b1 * *mi + c1 * g;
            *vi = b2 * *vi + c2 * g * g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *w -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, network: &mut dyn Network) {
        self.step_count += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step_count as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step_count as i32);
        network.visit_params(&mut |p| self.update_param(p, bc1, bc2));
        network.apply_masks();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Linear, Sequential};
    use crate::loss::cross_entropy;
    use crate::network::{Mode, OpInfo};
    use sb_tensor::Rng;

    /// Minimal single-linear network for optimizer tests.
    struct Tiny(Sequential);
    impl Network for Tiny {
        fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
            self.0.forward(x, mode)
        }
        fn backward(&mut self, g: &Tensor) {
            self.0.backward(g);
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.visit_params(f);
        }
        fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
            self.0.visit_params_ref(f);
        }
        fn ops(&self) -> Vec<OpInfo> {
            self.0.ops()
        }
        fn num_classes(&self) -> usize {
            2
        }
    }

    fn tiny(seed: u64) -> Tiny {
        let mut rng = Rng::seed_from(seed);
        Tiny(Sequential::new().push(Linear::new("fc", 4, 2, &mut rng)))
    }

    fn loss_of(net: &mut Tiny, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = net.forward(x, Mode::Eval);
        cross_entropy(&logits, labels).loss
    }

    fn train_step(net: &mut Tiny, opt: &mut dyn Optimizer, x: &Tensor, labels: &[usize]) {
        net.zero_grads();
        let logits = net.forward(x, Mode::Train);
        let out = cross_entropy(&logits, labels);
        net.backward(&out.grad_logits);
        opt.step(net);
    }

    #[test]
    fn sgd_decreases_loss() {
        let mut net = tiny(0);
        let mut rng = Rng::seed_from(1);
        let x = Tensor::rand_normal(&[8, 4], 0.0, 1.0, &mut rng);
        let labels = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let before = loss_of(&mut net, &x, &labels);
        let mut opt = Sgd::new(0.5);
        for _ in 0..20 {
            train_step(&mut net, &mut opt, &x, &labels);
        }
        let after = loss_of(&mut net, &x, &labels);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn momentum_accelerates_on_quadratic() {
        // On the same problem, momentum SGD should make at least as much
        // progress as plain SGD with the same step size.
        let x = Tensor::ones(&[4, 4]);
        let labels = vec![0, 0, 0, 0];
        let mut plain = tiny(7);
        let mut heavy = tiny(7);
        let mut o1 = Sgd::new(0.05);
        let mut o2 = Sgd::new(0.05).momentum(0.9);
        for _ in 0..15 {
            train_step(&mut plain, &mut o1, &x, &labels);
            train_step(&mut heavy, &mut o2, &x, &labels);
        }
        let l1 = loss_of(&mut plain, &x, &labels);
        let l2 = loss_of(&mut heavy, &x, &labels);
        assert!(l2 <= l1 + 1e-6, "momentum {l2} vs plain {l1}");
    }

    #[test]
    fn adam_decreases_loss() {
        let mut net = tiny(3);
        let mut rng = Rng::seed_from(4);
        let x = Tensor::rand_normal(&[8, 4], 0.0, 1.0, &mut rng);
        let labels = vec![1, 0, 1, 0, 1, 0, 1, 0];
        let before = loss_of(&mut net, &x, &labels);
        let mut opt = Adam::new(0.01);
        for _ in 0..30 {
            train_step(&mut net, &mut opt, &x, &labels);
        }
        assert!(loss_of(&mut net, &x, &labels) < before);
    }

    #[test]
    fn weight_decay_shrinks_unused_weights() {
        let mut net = tiny(5);
        // Zero gradient (loss independent of weights is not easy here, so
        // just step with zero grads): decay should shrink norms.
        let norm_before: f32 = {
            let mut n = 0.0;
            net.visit_params_ref(&mut |p| n += p.value().norm_sq());
            n
        };
        let mut opt = Sgd::new(0.1).weight_decay(0.1);
        net.zero_grads();
        opt.step(&mut net);
        let norm_after: f32 = {
            let mut n = 0.0;
            net.visit_params_ref(&mut |p| n += p.value().norm_sq());
            n
        };
        assert!(norm_after < norm_before);
    }

    #[test]
    fn step_reapplies_masks() {
        let mut net = tiny(6);
        // Mask out everything in the weight.
        net.visit_params(&mut |p| {
            if p.name() == "fc.weight" {
                p.set_mask(Tensor::zeros(&[2, 4]).map(|_| 0.0));
            }
        });
        let x = Tensor::ones(&[2, 4]);
        let mut opt = Sgd::new(1.0).momentum(0.9);
        for _ in 0..3 {
            train_step(&mut net, &mut opt, &x, &[0, 1]);
        }
        net.visit_params_ref(&mut |p| {
            if p.name() == "fc.weight" {
                assert!(p.value().data().iter().all(|&v| v == 0.0));
            }
        });
    }

    #[test]
    fn lr_getter_setter() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        let mut adam = Adam::new(0.1);
        adam.set_learning_rate(0.02);
        assert_eq!(adam.learning_rate(), 0.02);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_rejected() {
        Sgd::new(-1.0);
    }
}
