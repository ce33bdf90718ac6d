//! The procedural image generator.

use crate::spec::{DatasetSpec, Split};
use sb_tensor::{Rng, Tensor};
use std::sync::OnceLock;

/// One class's generative template for one channel: two oriented
/// sinusoidal gratings plus a Gaussian blob.
#[derive(Debug, Clone)]
struct ChannelProto {
    // Grating A
    fa: (f32, f32),
    phase_a: f32,
    amp_a: f32,
    // Grating B
    fb: (f32, f32),
    phase_b: f32,
    amp_b: f32,
    // Blob
    center: (f32, f32),
    sigma: f32,
    amp_blob: f32,
}

impl ChannelProto {
    fn sample(rng: &mut Rng) -> Self {
        let freq = |rng: &mut Rng| {
            let f = rng.uniform(0.25, 1.3);
            let theta = rng.uniform(0.0, std::f32::consts::PI);
            (f * theta.cos(), f * theta.sin())
        };
        ChannelProto {
            fa: freq(rng),
            phase_a: rng.uniform(0.0, std::f32::consts::TAU),
            amp_a: rng.uniform(0.5, 1.0),
            fb: freq(rng),
            phase_b: rng.uniform(0.0, std::f32::consts::TAU),
            amp_b: rng.uniform(0.3, 0.8),
            center: (rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)),
            sigma: rng.uniform(0.08, 0.2),
            amp_blob: rng.uniform(1.0, 2.0) * if rng.coin(0.5) { 1.0 } else { -1.0 },
        }
    }

    /// Pixel value at normalized coordinates, with per-sample jitter.
    fn eval(&self, x: f32, y: f32, jitter: &SampleJitter) -> f32 {
        let ga = self.amp_a
            * (self.fa.0 * x * std::f32::consts::TAU
                + self.fa.1 * y * std::f32::consts::TAU
                + self.phase_a
                + jitter.dphase_a)
                .sin();
        let gb = self.amp_b
            * (self.fb.0 * x * std::f32::consts::TAU
                + self.fb.1 * y * std::f32::consts::TAU
                + self.phase_b
                + jitter.dphase_b)
                .sin();
        let (cx, cy) = (
            self.center.0 + jitter.dcenter.0,
            self.center.1 + jitter.dcenter.1,
        );
        let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
        let blob = self.amp_blob * (-d2 / (2.0 * self.sigma * self.sigma)).exp();
        ga + gb + blob
    }
}

/// Per-sample structural perturbation.
#[derive(Debug, Clone)]
struct SampleJitter {
    dphase_a: f32,
    dphase_b: f32,
    dcenter: (f32, f32),
}

/// A deterministic, class-conditional synthetic image dataset.
///
/// Construction materializes the per-class generative templates. Every
/// image is a pure function of `(spec.seed, split, index)`. A split's
/// images are generated once, on the first [`batches_of`] over that split,
/// and kept for the life of the object, so later epochs and grid cells
/// gather batches from memory; [`SyntheticVision::sample`] generates a
/// single image and leaves the cache alone.
///
/// [`batches_of`]: crate::batches_of
///
/// # Example
///
/// ```
/// use sb_data::{DatasetSpec, Split, SyntheticVision};
///
/// let data = SyntheticVision::new(DatasetSpec::cifar_like(0));
/// let (image, label) = data.sample(Split::Train, 0);
/// assert_eq!(image.dims(), &[3, 16, 16]);
/// assert!(label < 10);
/// ```
#[derive(Clone)]
pub struct SyntheticVision {
    spec: DatasetSpec,
    protos: Vec<Vec<ChannelProto>>, // [class][channel]
    train: OnceLock<Vec<f32>>,
    val: OnceLock<Vec<f32>>,
}

impl std::fmt::Debug for SyntheticVision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticVision")
            .field("spec", &self.spec)
            .field("train_cached", &self.train.get().is_some())
            .field("val_cached", &self.val.get().is_some())
            .finish()
    }
}

impl SyntheticVision {
    /// Creates the dataset, deriving class templates from `spec.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`DatasetSpec`]).
    pub fn new(spec: DatasetSpec) -> Self {
        spec.validate();
        let mut rng = Rng::seed_from(spec.seed ^ 0xC0FF_EE00);
        let protos = (0..spec.classes)
            .map(|_| (0..spec.channels).map(|_| ChannelProto::sample(&mut rng)).collect())
            .collect();
        SyntheticVision {
            spec,
            protos,
            train: OnceLock::new(),
            val: OnceLock::new(),
        }
    }

    /// The dataset's specification.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Number of samples in `split`.
    pub fn len(&self, split: Split) -> usize {
        self.spec.split_size(split)
    }

    /// True if the split is empty (never, for a valid spec).
    pub fn is_empty(&self, split: Split) -> bool {
        self.len(split) == 0
    }

    /// Label of sample `index` in `split`. Labels are balanced
    /// round-robin, so every class appears `⌈len/classes⌉` or
    /// `⌊len/classes⌋` times.
    pub fn label(&self, split: Split, index: usize) -> usize {
        assert!(index < self.len(split), "sample index out of range");
        index % self.spec.classes
    }

    /// Generates sample `index` of `split`: a `[C, side, side]` image and
    /// its label. Deterministic for a fixed spec.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len(split)`.
    pub fn sample(&self, split: Split, index: usize) -> (Tensor, usize) {
        let label = self.label(split, index);
        let c = self.spec.channels;
        let side = self.spec.side;
        let mut data = Vec::with_capacity(c * side * side);
        self.render(split, index, label, &mut data);
        let image = Tensor::from_vec(data, &[c, side, side]).expect("sized above");
        (image, label)
    }

    /// Every image of `split`, in index order, `C·side·side` values each.
    /// The first call generates them on the calling thread (a concurrent
    /// first call waits for it); every later call returns the same memory.
    pub(crate) fn images(&self, split: Split) -> &[f32] {
        let cache = match split {
            Split::Train => &self.train,
            Split::Val => &self.val,
        };
        cache.get_or_init(|| {
            let spec = &self.spec;
            let n = self.len(split);
            let mut all = Vec::with_capacity(n * spec.channels * spec.side * spec.side);
            for index in 0..n {
                self.render(split, index, self.label(split, index), &mut all);
            }
            all
        })
    }

    /// Appends the pixels of sample `index` (of class `label`) to `data`.
    fn render(&self, split: Split, index: usize, label: usize, data: &mut Vec<f32>) {
        let split_salt = match split {
            Split::Train => 0x7A31u64,
            Split::Val => 0x563Du64,
        };
        let mut rng = Rng::seed_from(
            self.spec
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(split_salt)
                .wrapping_add((index as u64).wrapping_mul(0xD134_2543_DE82_EF95)),
        );
        let jitter = SampleJitter {
            dphase_a: rng.normal_with(0.0, self.spec.jitter),
            dphase_b: rng.normal_with(0.0, self.spec.jitter),
            dcenter: (
                rng.normal_with(0.0, self.spec.jitter * 0.12),
                rng.normal_with(0.0, self.spec.jitter * 0.12),
            ),
        };
        let shift = self.spec.max_shift as isize;
        let (dx, dy) = if shift > 0 {
            (
                rng.below((2 * shift + 1) as usize) as isize - shift,
                rng.below((2 * shift + 1) as usize) as isize - shift,
            )
        } else {
            (0, 0)
        };
        let side = self.spec.side;
        let c = self.spec.channels;
        let inv = 1.0 / side as f32;
        for ci in 0..c {
            let proto = &self.protos[label][ci];
            for py in 0..side as isize {
                for px in 0..side as isize {
                    // Toroidal shift keeps every pixel informative.
                    let sx = (px + dx).rem_euclid(side as isize) as f32 * inv;
                    let sy = (py + dy).rem_euclid(side as isize) as f32 * inv;
                    let v = proto.eval(sx, sy, &jitter) + rng.normal_with(0.0, self.spec.noise_std);
                    data.push(v * 0.5); // keep dynamic range ~unit
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_deterministic() {
        let a = SyntheticVision::new(DatasetSpec::cifar_like(5));
        let b = SyntheticVision::new(DatasetSpec::cifar_like(5));
        for i in [0usize, 7, 100] {
            assert_eq!(a.sample(Split::Train, i), b.sample(Split::Train, i));
            assert_eq!(a.sample(Split::Val, i), b.sample(Split::Val, i));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticVision::new(DatasetSpec::cifar_like(1));
        let b = SyntheticVision::new(DatasetSpec::cifar_like(2));
        assert_ne!(a.sample(Split::Train, 0).0, b.sample(Split::Train, 0).0);
    }

    #[test]
    fn train_and_val_are_disjoint_streams() {
        let d = SyntheticVision::new(DatasetSpec::cifar_like(3));
        assert_ne!(d.sample(Split::Train, 0).0, d.sample(Split::Val, 0).0);
    }

    #[test]
    fn labels_are_balanced() {
        let d = SyntheticVision::new(DatasetSpec::mnist_like(0));
        let mut counts = vec![0usize; 10];
        for i in 0..d.len(Split::Train) {
            counts[d.label(Split::Train, i)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "{counts:?}");
    }

    #[test]
    fn same_class_samples_correlate_more_than_cross_class() {
        let d = SyntheticVision::new(DatasetSpec::cifar_like(7));
        // Samples 0 and 10 share class 0; sample 1 is class 1.
        let (a, la) = d.sample(Split::Train, 0);
        let (b, lb) = d.sample(Split::Train, 10);
        let (c, lc) = d.sample(Split::Train, 1);
        assert_eq!(la, lb);
        assert_ne!(la, lc);
        let corr = |x: &Tensor, y: &Tensor| {
            let (mx, my) = (x.mean(), y.mean());
            let num: f32 = x
                .data()
                .iter()
                .zip(y.data())
                .map(|(&u, &v)| (u - mx) * (v - my))
                .sum();
            num / (x.data().iter().map(|&u| (u - mx) * (u - mx)).sum::<f32>()
                * y.data().iter().map(|&v| (v - my) * (v - my)).sum::<f32>())
            .sqrt()
        };
        assert!(
            corr(&a, &b) > corr(&a, &c),
            "same-class correlation {} should beat cross-class {}",
            corr(&a, &b),
            corr(&a, &c)
        );
    }

    #[test]
    fn images_have_bounded_range() {
        let d = SyntheticVision::new(DatasetSpec::imagenet_like(0));
        let (img, _) = d.sample(Split::Train, 3);
        assert!(!img.has_non_finite());
        assert!(img.max() < 10.0 && img.min() > -10.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let d = SyntheticVision::new(DatasetSpec::mnist_like(0));
        d.sample(Split::Val, 100_000);
    }
}
