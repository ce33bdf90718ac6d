//! Batch execution engines behind the serving layer.
//!
//! The server coalesces single-sample requests into a contiguous batch
//! and hands it to a [`BatchEngine`]. Two implementations:
//!
//! * [`InferEngine`] — wraps a compiled `sb-infer` model; the real thing,
//!   running `forward_batch_into` on reused scratch so steady-state
//!   serving allocates no activation memory.
//! * [`EchoEngine`] — a trivial engine for queueing-behavior tests: the
//!   predicted class is a pure function of the sample, and compute cost
//!   exists only through the service model.
//!
//! Every engine also prices a batch in **virtual microseconds**
//! ([`BatchEngine::service_us`]); under a `SimClock` the server uses that
//! price as the batch's completion time, which is what makes simulated
//! serving deterministic while the actual computation still runs (and is
//! verified) on the worker pool.

use sb_infer::{CompiledModel, FeatureShape, ForwardScratch};
use sb_tensor::Tensor;
use std::sync::Mutex;

/// Linear batch service-time model: `base_us + per_sample_us · n`.
///
/// The intercept models per-batch dispatch overhead, the slope per-sample
/// compute; dynamic batching is profitable exactly when `base_us`
/// dominates, and the load harness exists to show where that flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed per-batch cost, microseconds.
    pub base_us: u64,
    /// Marginal per-sample cost, microseconds.
    pub per_sample_us: u64,
}

impl ServiceModel {
    /// Price of an `n`-sample batch.
    pub fn batch_us(&self, n: usize) -> u64 {
        self.base_us + self.per_sample_us * n as u64
    }
}

/// Executes coalesced batches for the server.
pub trait BatchEngine: Send + Sync {
    /// Flattened `f32` features one request sample carries.
    fn sample_len(&self) -> usize;

    /// Number of output classes.
    fn classes(&self) -> usize;

    /// Runs `n` samples (row-major in `inputs`, `n · sample_len`
    /// values) and returns the predicted class per sample.
    fn run_batch(&self, inputs: &[f32], n: usize) -> Vec<usize>;

    /// Virtual price of an `n`-sample batch, used as the batch service
    /// time under a virtual clock.
    fn service_us(&self, n: usize) -> u64;
}

/// A [`BatchEngine`] over a compiled `sb-infer` model.
///
/// Logit buffers are pooled alongside the model's [`ForwardScratch`], so
/// concurrent batches neither contend on a shared buffer nor allocate
/// activations after warm-up.
pub struct InferEngine {
    model: CompiledModel,
    scratch: ForwardScratch,
    logits: Mutex<Vec<Vec<f32>>>,
    sample_dims: Vec<usize>,
    sample_len: usize,
    service: ServiceModel,
}

impl InferEngine {
    /// Wraps a compiled model with the given virtual service model (only
    /// consulted under a virtual clock; wall-clock serving measures the
    /// real thing).
    pub fn new(model: CompiledModel, service: ServiceModel) -> Self {
        let sample_dims: Vec<usize> = match model.input_shape() {
            FeatureShape::Flat { d } => vec![d],
            FeatureShape::Image { c, h, w } => vec![c, h, w],
        };
        let sample_len = sample_dims.iter().product();
        InferEngine {
            scratch: model.scratch(),
            model,
            logits: Mutex::new(Vec::new()),
            sample_dims,
            sample_len,
            service,
        }
    }

    /// The wrapped compiled model.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }
}

impl BatchEngine for InferEngine {
    fn sample_len(&self) -> usize {
        self.sample_len
    }

    fn classes(&self) -> usize {
        self.model.classes()
    }

    fn run_batch(&self, inputs: &[f32], n: usize) -> Vec<usize> {
        assert_eq!(inputs.len(), n * self.sample_len, "batch input length");
        let mut dims = Vec::with_capacity(1 + self.sample_dims.len());
        dims.push(n);
        dims.extend_from_slice(&self.sample_dims);
        let x = Tensor::from_vec(inputs.to_vec(), &dims).expect("batch tensor shape");
        let mut out = self
            .logits
            .lock()
            .expect("logit pool poisoned")
            .pop()
            .unwrap_or_default();
        self.model.forward_batch_into(&x, &mut out, &self.scratch);
        let classes = self.model.classes();
        let preds = (0..n)
            .map(|i| {
                let row = &out[i * classes..(i + 1) * classes];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect();
        self.logits.lock().expect("logit pool poisoned").push(out);
        preds
    }

    fn service_us(&self, n: usize) -> u64 {
        self.service.batch_us(n)
    }
}

/// A compute-free engine for pure queueing tests: class =
/// `sample[0] as usize % classes`, cost given entirely by the service
/// model.
pub struct EchoEngine {
    sample_len: usize,
    classes: usize,
    service: ServiceModel,
}

impl EchoEngine {
    /// An echo engine over `sample_len`-feature samples.
    pub fn new(sample_len: usize, classes: usize, service: ServiceModel) -> Self {
        assert!(sample_len > 0 && classes > 0);
        EchoEngine {
            sample_len,
            classes,
            service,
        }
    }
}

impl BatchEngine for EchoEngine {
    fn sample_len(&self) -> usize {
        self.sample_len
    }

    fn classes(&self) -> usize {
        self.classes
    }

    fn run_batch(&self, inputs: &[f32], n: usize) -> Vec<usize> {
        assert_eq!(inputs.len(), n * self.sample_len, "batch input length");
        (0..n)
            .map(|i| {
                let v = inputs[i * self.sample_len].abs() as usize;
                v % self.classes
            })
            .collect()
    }

    fn service_us(&self, n: usize) -> u64 {
        self.service.batch_us(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_model_is_affine() {
        let m = ServiceModel {
            base_us: 100,
            per_sample_us: 7,
        };
        assert_eq!(m.batch_us(0), 100);
        assert_eq!(m.batch_us(8), 156);
    }

    #[test]
    fn echo_engine_maps_first_feature_to_class() {
        let e = EchoEngine::new(
            2,
            4,
            ServiceModel {
                base_us: 1,
                per_sample_us: 1,
            },
        );
        let preds = e.run_batch(&[5.0, 0.0, 2.0, 0.0, 9.0, 0.0], 3);
        assert_eq!(preds, vec![1, 2, 1]);
    }
}
