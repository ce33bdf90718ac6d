//! Batching utilities.

use crate::generator::SyntheticVision;
use crate::spec::Split;
use sb_tensor::{Rng, Tensor};

/// A labelled minibatch: stacked inputs (`[N, C, H, W]` or `[N, D]`) and
/// integer labels. Matches `sb_nn::Batch` structurally.
pub type Batch = (Tensor, Vec<usize>);

/// Materializes `split` into minibatches of (at most) `batch_size`.
///
/// The split's images are generated on the first call for this dataset
/// object and kept (see [`SyntheticVision`]); every call gathers its
/// batches from that copy, bit for bit what [`SyntheticVision::sample`]
/// generates.
///
/// * `shuffle`: when `Some(rng)`, the sample order is permuted (use a
///   per-epoch fork of the experiment RNG).
/// * `flatten`: when true, images are flattened to `[N, C·H·W]` for MLP
///   architectures.
///
/// The final batch may be smaller than `batch_size`; no sample is dropped.
///
/// # Panics
///
/// Panics if `batch_size == 0`.
pub fn batches_of(
    data: &SyntheticVision,
    split: Split,
    batch_size: usize,
    shuffle: Option<&mut Rng>,
    flatten: bool,
) -> Vec<Batch> {
    let order = sample_order(data, split, batch_size, shuffle);
    order
        .chunks(batch_size)
        .map(|chunk| gather(data, split, chunk, flatten))
        .collect()
}

/// The first batch [`batches_of`] would return, built alone: the same
/// sample order (a shuffle draws the same permutation, so `shuffle` ends
/// in the same state), without gathering the rest of the split. `None`
/// when the split is empty.
///
/// # Panics
///
/// Panics if `batch_size == 0`.
pub fn first_batch_of(
    data: &SyntheticVision,
    split: Split,
    batch_size: usize,
    shuffle: Option<&mut Rng>,
    flatten: bool,
) -> Option<Batch> {
    let order = sample_order(data, split, batch_size, shuffle);
    let first = order.chunks(batch_size).next()?;
    Some(gather(data, split, first, flatten))
}

/// The order in which `split`'s samples are batched: a permutation
/// drawn from `shuffle`, or index order. Checks `batch_size` for both
/// public entry points.
fn sample_order(
    data: &SyntheticVision,
    split: Split,
    batch_size: usize,
    shuffle: Option<&mut Rng>,
) -> Vec<usize> {
    assert!(batch_size > 0, "batch_size must be positive");
    let n = data.len(split);
    match shuffle {
        Some(rng) => rng.permutation(n),
        None => (0..n).collect(),
    }
}

/// Stacks the samples of `split` that `chunk` indexes into one batch,
/// copied from the split's cached images.
fn gather(data: &SyntheticVision, split: Split, chunk: &[usize], flatten: bool) -> Batch {
    let spec = data.spec();
    let feature_len = spec.channels * spec.side * spec.side;
    let images = data.images(split);
    let mut flat = Vec::with_capacity(chunk.len() * feature_len);
    let mut labels = Vec::with_capacity(chunk.len());
    for &idx in chunk {
        flat.extend_from_slice(&images[idx * feature_len..(idx + 1) * feature_len]);
        labels.push(data.label(split, idx));
    }
    let dims: Vec<usize> = if flatten {
        vec![chunk.len(), feature_len]
    } else {
        vec![chunk.len(), spec.channels, spec.side, spec.side]
    };
    (Tensor::from_vec(flat, &dims).expect("sized above"), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;

    fn tiny() -> SyntheticVision {
        SyntheticVision::new(DatasetSpec::cifar_like(0).scaled_down(16))
    }

    #[test]
    fn covers_all_samples_without_duplicates() {
        let d = tiny();
        let batches = batches_of(&d, Split::Train, 7, None, false);
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, d.len(Split::Train));
        // Unshuffled order is index order → labels are round-robin.
        assert_eq!(batches[0].1[0], 0);
        assert_eq!(batches[0].1[1], 1);
    }

    #[test]
    fn batch_shapes() {
        let d = tiny();
        let batches = batches_of(&d, Split::Val, 8, None, false);
        assert_eq!(batches[0].0.dims(), &[8, 3, 16, 16]);
        let flat = batches_of(&d, Split::Val, 8, None, true);
        assert_eq!(flat[0].0.dims(), &[8, 3 * 16 * 16]);
    }

    #[test]
    fn last_batch_keeps_remainder() {
        let d = tiny(); // 64 train samples
        let batches = batches_of(&d, Split::Train, 60, None, false);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].1.len(), d.len(Split::Train) - 60);
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let d = tiny();
        let mut r1 = Rng::seed_from(42);
        let mut r2 = Rng::seed_from(42);
        let b1 = batches_of(&d, Split::Train, 16, Some(&mut r1), false);
        let b2 = batches_of(&d, Split::Train, 16, Some(&mut r2), false);
        assert_eq!(b1[0].1, b2[0].1);
        let mut r3 = Rng::seed_from(43);
        let b3 = batches_of(&d, Split::Train, 16, Some(&mut r3), false);
        assert_ne!(b1[0].1, b3[0].1);
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_rejected() {
        batches_of(&tiny(), Split::Train, 0, None, false);
    }
}
