//! Property-based tests for dataset determinism and loader correctness,
//! on the in-repo `sb-check` harness.

use sb_check::{check, prop_assert, prop_assert_eq, Config};
use sb_data::{batches_of, DatasetSpec, Split, SyntheticVision};
use sb_tensor::Rng;

/// Pinned suite seed for replayable failures.
const SUITE: u64 = 0x7E45_0003;

fn cfg() -> Config {
    Config::new(SUITE)
}

#[test]
fn any_sample_is_deterministic() {
    check(
        "data::any_sample_is_deterministic",
        cfg(),
        |rng| (rng.below(1000) as u64, rng.below(64)),
        |(seed, idx)| {
            let spec = DatasetSpec::cifar_like(*seed).scaled_down(16);
            let a = SyntheticVision::new(spec.clone());
            let b = SyntheticVision::new(spec);
            prop_assert_eq!(a.sample(Split::Train, *idx), b.sample(Split::Train, *idx));
            prop_assert_eq!(a.sample(Split::Val, idx % 16), b.sample(Split::Val, idx % 16));
            Ok(())
        },
    );
}

#[test]
fn labels_always_in_range() {
    check(
        "data::labels_always_in_range",
        cfg(),
        |rng| (rng.below(1000) as u64, rng.below(64)),
        |(seed, idx)| {
            let data = SyntheticVision::new(DatasetSpec::mnist_like(*seed).scaled_down(16));
            let (_, label) = data.sample(Split::Train, *idx);
            prop_assert!(label < data.spec().classes);
            Ok(())
        },
    );
}

#[test]
fn batches_partition_the_split() {
    check(
        "data::batches_partition_the_split",
        cfg(),
        |rng| (rng.below(500) as u64, rng.below(39) + 1),
        |(seed, batch)| {
            let data = SyntheticVision::new(DatasetSpec::mnist_like(*seed).scaled_down(16));
            let batches = batches_of(&data, Split::Val, *batch, None, false);
            let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
            prop_assert_eq!(total, data.len(Split::Val));
            for (x, labels) in &batches {
                prop_assert_eq!(x.dim(0), labels.len());
                prop_assert!(labels.len() <= *batch);
                prop_assert!(!x.has_non_finite());
            }
            Ok(())
        },
    );
}

#[test]
fn shuffled_batches_preserve_label_multiset() {
    check(
        "data::shuffled_batches_preserve_label_multiset",
        cfg(),
        |rng| (rng.below(500) as u64, rng.below(500) as u64),
        |(seed, shuffle_seed)| {
            let data = SyntheticVision::new(DatasetSpec::cifar_like(*seed).scaled_down(16));
            let mut rng = Rng::seed_from(*shuffle_seed);
            let shuffled = batches_of(&data, Split::Train, 16, Some(&mut rng), false);
            let plain = batches_of(&data, Split::Train, 16, None, false);
            let collect = |bs: &[(sb_tensor::Tensor, Vec<usize>)]| {
                let mut v: Vec<usize> = bs.iter().flat_map(|(_, l)| l.clone()).collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(collect(&shuffled), collect(&plain));
            Ok(())
        },
    );
}

#[test]
fn flattened_batches_match_image_batches() {
    check(
        "data::flattened_batches_match_image_batches",
        cfg(),
        |rng| rng.below(200) as u64,
        |&seed| {
            let data = SyntheticVision::new(DatasetSpec::mnist_like(seed).scaled_down(16));
            let flat = batches_of(&data, Split::Val, 8, None, true);
            let img = batches_of(&data, Split::Val, 8, None, false);
            prop_assert_eq!(flat.len(), img.len());
            for ((xf, lf), (xi, li)) in flat.iter().zip(&img) {
                prop_assert_eq!(lf, li);
                prop_assert_eq!(xf.data(), xi.data());
            }
            Ok(())
        },
    );
}

#[test]
fn batch_rows_equal_individual_samples() {
    check(
        "data::batch_rows_equal_individual_samples",
        cfg(),
        |rng| (rng.below(200) as u64, rng.below(14) + 2),
        |(seed, batch)| {
            let data = SyntheticVision::new(DatasetSpec::cifar_like(*seed).scaled_down(16));
            let batches = batches_of(&data, Split::Train, *batch, None, false);
            let (x, labels) = &batches[0];
            let feat = x.numel() / x.dim(0);
            for (row, &label) in labels.iter().enumerate() {
                let (img, l) = data.sample(Split::Train, row);
                prop_assert_eq!(l, label);
                prop_assert_eq!(&x.data()[row * feat..(row + 1) * feat], img.data());
            }
            Ok(())
        },
    );
}

/// Pinned seed of the split-cache properties below.
const CACHE_SUITE: u64 = 0x7E45_0014;

#[test]
fn cached_batches_equal_stacked_samples() {
    check(
        "data::cached_batches_equal_stacked_samples",
        Config::new(CACHE_SUITE).cases(24),
        |rng| {
            (
                (rng.below(1000) as u64, rng.below(3)),
                rng.below(40) + 1,
                rng.coin(0.5).then(|| rng.below(1000) as u64),
                (rng.coin(0.5), rng.coin(0.5)),
            )
        },
        |((seed, preset), batch, shuffle, (val, flatten))| {
            let spec = match preset {
                0 => DatasetSpec::mnist_like(*seed),
                1 => DatasetSpec::cifar_like(*seed),
                _ => DatasetSpec::imagenet_like(*seed),
            };
            let data = SyntheticVision::new(spec.scaled_down(32));
            // Shrinking may reach 0, which `batches_of` rejects.
            let batch = (*batch).max(1);
            let split = if *val { Split::Val } else { Split::Train };
            let n = data.len(split);
            let order: Vec<usize> = match shuffle {
                Some(s) => Rng::seed_from(*s).permutation(n),
                None => (0..n).collect(),
            };
            // The first call fills the split's cache, the second reads it.
            for _ in 0..2 {
                let mut rng = shuffle.map(Rng::seed_from);
                let batches = batches_of(&data, split, batch, rng.as_mut(), *flatten);
                let mut next = order.iter();
                for (x, labels) in &batches {
                    let spec = data.spec();
                    let feat = spec.channels * spec.side * spec.side;
                    let dims = if *flatten {
                        vec![labels.len(), feat]
                    } else {
                        vec![labels.len(), spec.channels, spec.side, spec.side]
                    };
                    prop_assert_eq!(x.dims(), dims.as_slice());
                    for (row, &label) in labels.iter().enumerate() {
                        let index = *next.next().expect("no more rows than samples");
                        let (img, l) = data.sample(split, index);
                        prop_assert_eq!(l, label);
                        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(
                            bits(&x.data()[row * feat..(row + 1) * feat]),
                            bits(img.data())
                        );
                    }
                }
                prop_assert!(next.next().is_none(), "every sample appears once");
            }
            Ok(())
        },
    );
}

#[test]
fn concurrent_first_calls_get_identical_batches() {
    use std::sync::{Arc, Barrier};
    const THREADS: usize = 4;
    let spec = DatasetSpec::cifar_like(11).scaled_down(8);
    let expected = batches_of(
        &SyntheticVision::new(spec.clone()),
        Split::Train,
        16,
        Some(&mut Rng::seed_from(5)),
        false,
    );
    let data = Arc::new(SyntheticVision::new(spec));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (data, barrier) = (Arc::clone(&data), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                batches_of(&data, Split::Train, 16, Some(&mut Rng::seed_from(5)), false)
            })
        })
        .collect();
    for handle in handles {
        let got = handle.join().expect("no thread panics");
        assert_eq!(got.len(), expected.len());
        for ((x, l), (ex, el)) in got.iter().zip(&expected) {
            assert_eq!(l, el);
            assert!(x
                .data()
                .iter()
                .zip(ex.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
