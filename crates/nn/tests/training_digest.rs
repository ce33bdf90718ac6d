//! Pins the exact float arithmetic of training.
//!
//! LeNet-5 and a ResNet-8 each take a few Adam steps on one fixed random
//! batch, then run an eval-mode forward on it. An FNV-1a digest over the bits of every
//! final parameter value and every logit is compared with a constant. Any
//! change to the order of float operations in a forward, backward or
//! optimizer kernel moves the digest, even when accuracy does not move,
//! so kernel rewrites that promise bit-identical training are held to it.
//!
//! The digest is of `f32::to_bits`, so it also depends on the platform's
//! `exp`/`ln` (softmax, cross-entropy). The constants were recorded on
//! x86-64 Linux with the single-accumulator dot-product forward kernel,
//! and hold unchanged with the register-tiled `matmul_transposed`.

use sb_nn::{models, Adam, Mode, Network, Trainer};
use sb_tensor::{Rng, Tensor};

/// FNV-1a 64 over the little-endian bytes of each value's bit pattern.
fn fnv1a(hash: &mut u64, values: &[f32]) {
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Trains `net` for `steps` Adam steps on one fixed batch of
/// `batch_size` samples of shape `sample`, then digests the parameters
/// and the eval logits on that batch.
fn train_and_digest(
    net: &mut dyn Network,
    sample: &[usize],
    batch_size: usize,
    steps: usize,
    seed: u64,
) -> String {
    let mut rng = Rng::seed_from(seed);
    let mut dims = vec![batch_size];
    dims.extend_from_slice(sample);
    let x = Tensor::rand_normal(&dims, 0.0, 1.0, &mut rng);
    let classes = net.num_classes();
    let labels: Vec<usize> = (0..batch_size).map(|i| (i * 7 + 3) % classes).collect();
    let batch = (x, labels);
    let mut opt = Adam::new(1e-2);
    for step in 0..steps {
        let loss = Trainer::train_step(net, &mut opt, &batch).expect("training stays finite");
        assert!(loss.is_finite(), "step {step}: loss {loss}");
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    net.visit_params_ref(&mut |p| fnv1a(&mut hash, p.value().data()));
    let logits = net.forward(&batch.0, Mode::Eval);
    assert_eq!(logits.dims(), &[batch_size, classes]);
    fnv1a(&mut hash, logits.data());
    format!("{hash:016x}")
}

/// Conv (5×5, padded), max pooling and three linear layers. A batch of 10
/// leaves a part-filled row tile in every linear product; the 6-filter
/// conv1 and the 84- and 10-output fc2 and fc3 leave a part-filled column
/// panel.
#[test]
fn lenet5_training_bits_are_pinned() {
    let mut rng = Rng::seed_from(0x1E_4E75);
    let mut net = models::lenet5(1, 16, 10, &mut rng);
    let digest = train_and_digest(&mut net, &[1, 16, 16], 10, 4, 0xD16E_0005);
    assert_eq!(digest, "d8f85af2c39c3264");
}

/// Conv, batch norm (train-mode statistics during the steps, running
/// statistics in the final eval forward), residual adds, and the
/// stride-2 1×1 projection shortcuts of stages 2 and 3. Width 4 puts the
/// stem and stage 1 on 4-output products.
#[test]
fn resnet8_training_bits_are_pinned() {
    let mut rng = Rng::seed_from(0x2E5_0008);
    let mut net = models::resnet_cifar(8, 3, 16, 10, 4, &mut rng);
    let digest = train_and_digest(&mut net, &[3, 16, 16], 6, 3, 0xD16E_0008);
    assert_eq!(digest, "079ef90e3394bef1");
}
