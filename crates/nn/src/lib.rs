#![warn(missing_docs)]

//! Neural-network substrate for `shrinkbench-rs`.
//!
//! This crate is the PyTorch substitute that the ShrinkBench reproduction
//! trains and prunes: layers with hand-written forward/backward passes
//! (convolution via im2col, batch normalization, pooling, linear),
//! optimizers (SGD with momentum/Nesterov, Adam), learning-rate schedules,
//! a model zoo mirroring the paper's architectures (LeNet-300-100, LeNet-5,
//! CIFAR-VGG, the CIFAR ResNet family, a scaled ResNet-18), and train/eval
//! loops with early stopping.
//!
//! Every parameter is a named [`Param`] carrying an optional binary pruning
//! [mask](Param::mask); the mask is re-applied after each optimizer step so
//! pruned weights stay exactly zero throughout fine-tuning — the semantics
//! of Algorithm 1 in *"What is the State of Neural Network Pruning?"*
//! (Blalock et al., MLSys 2020).
//!
//! # Example
//!
//! ```
//! use sb_nn::{models, Network, Mode};
//! use sb_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let mut net = models::lenet_300_100(16 * 16, 10, &mut rng);
//! let x = Tensor::rand_normal(&[2, 256], 0.0, 1.0, &mut rng);
//! let logits = net.forward(&x, Mode::Eval);
//! assert_eq!(logits.dims(), &[2, 10]);
//! ```

pub mod checkpoint;
mod layers;
mod loss;
pub mod models;
mod network;
mod optim;
mod param;
mod schedule;
mod spec;
mod train;

pub use layers::{
    AvgPool2d, BatchNorm2d, BoxedClone, Conv2d, Dropout, Flatten, Layer, Linear, MaxPool2d,
    ReLU, ResidualBlock, Sequential,
};
pub use checkpoint::{load_network, save_network, Checkpoint, CheckpointError};
pub use loss::{cross_entropy, CrossEntropyOutput};
pub use network::{Mode, Network, NetworkExt, OpInfo};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::{Param, ParamKind, ParamSnapshot};
pub use schedule::LrSchedule;
pub use spec::{spec_of, LayerSpec};
pub use train::{
    evaluate, Batch, EarlyStopping, EvalMetrics, TrainConfig, TrainDiverged, TrainReport, Trainer,
};
