//! Property-based tests for mask construction, compression targeting, and
//! strategy invariants, on the in-repo `sb-check` harness.

use sb_check::{check, prop_assert, prop_assert_eq, Config, Rng as CheckRng};
use sb_tensor::{Rng, Tensor};
use shrinkbench::masks::{keep_fraction_for_compression, kept_count, masks_from_scores};
use shrinkbench::{
    GlobalGradient, GlobalMagnitude, LayerMagnitude, RandomPruning, Scope, ScoreEntry, Strategy,
};
use std::collections::BTreeMap;

/// Pinned suite seed for replayable failures.
const SUITE: u64 = 0x7E45_0004;

fn cfg() -> Config {
    Config::new(SUITE)
}

/// 1–4 tensors of 4–63 scores each, the shape `masks_from_scores` sees.
fn gen_scores(rng: &mut CheckRng) -> Vec<Vec<f32>> {
    let tensors = rng.below(4) + 1;
    (0..tensors)
        .map(|_| {
            let len = rng.below(60) + 4;
            (0..len).map(|_| rng.uniform(-10.0, 10.0)).collect()
        })
        .collect()
}

fn to_map(raw: &[Vec<f32>]) -> BTreeMap<String, Tensor> {
    raw.iter()
        .enumerate()
        .map(|(i, v)| (format!("t{i}"), Tensor::from_slice(v)))
        .collect()
}

#[test]
fn global_masks_keep_exact_rounded_count() {
    check(
        "core::global_masks_keep_exact_rounded_count",
        cfg(),
        |rng| (gen_scores(rng), rng.uniform(0.0, 1.0) as f64),
        |(raw, keep)| {
            let scores = to_map(raw);
            let total: usize = scores.values().map(Tensor::numel).sum();
            let masks = masks_from_scores(&scores, *keep, Scope::Global);
            let expected = ((total as f64 * keep).round() as usize).min(total);
            prop_assert_eq!(kept_count(&masks), expected);
            Ok(())
        },
    );
}

#[test]
fn layerwise_masks_share_the_global_budget() {
    check(
        "core::layerwise_masks_share_the_global_budget",
        cfg(),
        |rng| (gen_scores(rng), rng.uniform(0.0, 1.0) as f64),
        |(raw, keep)| {
            // Largest-remainder allocation: the summed keep count equals
            // the global rounded target exactly (achieved compression is
            // within one weight of optimal), and no tensor strays more
            // than one weight from its exact share.
            let scores = to_map(raw);
            let total: usize = scores.values().map(Tensor::numel).sum();
            let masks = masks_from_scores(&scores, *keep, Scope::Layerwise);
            let target = ((total as f64 * keep).round() as usize).min(total);
            prop_assert_eq!(kept_count(&masks), target);
            for (name, mask) in &masks {
                let n = scores[name].numel();
                let exact = n as f64 * keep;
                let got = mask.data().iter().filter(|&&v| v == 1.0).count();
                prop_assert!(
                    (got as f64 - exact).abs() < 1.0 + 1e-9,
                    "tensor {}: kept {} vs exact share {}",
                    name,
                    got,
                    exact
                );
            }
            Ok(())
        },
    );
}

#[test]
fn both_scopes_keep_exactly_k_binary_entries() {
    check(
        "core::both_scopes_keep_exactly_k_binary_entries",
        cfg(),
        |rng| (gen_scores(rng), rng.uniform(0.0, 1.0) as f64),
        |(raw, keep)| {
            // Every mask entry is exactly 0.0 or 1.0 and the kept total is
            // exactly the rounded budget k, in both scopes.
            let scores = to_map(raw);
            let total: usize = scores.values().map(Tensor::numel).sum();
            let k = ((total as f64 * keep).round() as usize).min(total);
            for scope in [Scope::Global, Scope::Layerwise] {
                let masks = masks_from_scores(&scores, *keep, scope);
                for (name, mask) in &masks {
                    for &v in mask.data() {
                        prop_assert!(v == 0.0 || v == 1.0, "{}: non-binary {}", name, v);
                    }
                }
                prop_assert_eq!(kept_count(&masks), k);
            }
            Ok(())
        },
    );
}

#[test]
fn pinned_pruned_scores_never_resurrect() {
    check(
        "core::pinned_pruned_scores_never_resurrect",
        cfg(),
        |rng| {
            let mut raw = gen_scores(rng);
            // Pin a random subset to -∞, the pruner's "stay pruned" marker.
            let mut pinned = 0usize;
            for t in &mut raw {
                for v in t.iter_mut() {
                    if rng.below(3) == 0 {
                        *v = f32::NEG_INFINITY;
                        pinned += 1;
                    }
                }
            }
            (raw, pinned, rng.uniform(0.0, 1.0) as f64)
        },
        |(raw, pinned, keep)| {
            // -∞ entries stay pruned at ANY keep fraction; the budget
            // saturates at the finite-score count instead of spilling into
            // the pinned set.
            let scores = to_map(raw);
            let total: usize = scores.values().map(Tensor::numel).sum();
            let k = ((total as f64 * keep).round() as usize).min(total);
            for scope in [Scope::Global, Scope::Layerwise] {
                let masks = masks_from_scores(&scores, *keep, scope);
                for (name, mask) in &masks {
                    for (s, m) in scores[name].data().iter().zip(mask.data()) {
                        prop_assert!(
                            s.is_finite() || *m == 0.0,
                            "{}: non-finite score kept ({:?})",
                            name,
                            scope
                        );
                    }
                }
                if scope == Scope::Global {
                    prop_assert_eq!(kept_count(&masks), k.min(total - pinned));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn masks_are_binary_and_shaped() {
    check(
        "core::masks_are_binary_and_shaped",
        cfg(),
        |rng| (gen_scores(rng), rng.uniform(0.0, 1.0) as f64),
        |(raw, keep)| {
            let scores = to_map(raw);
            for scope in [Scope::Global, Scope::Layerwise] {
                let masks = masks_from_scores(&scores, *keep, scope);
                prop_assert_eq!(masks.len(), scores.len());
                for (name, mask) in &masks {
                    prop_assert_eq!(mask.dims(), scores[name].dims());
                    prop_assert!(mask.data().iter().all(|&v| v == 0.0 || v == 1.0));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn kept_weights_dominate_pruned_weights_globally() {
    check(
        "core::kept_weights_dominate_pruned_weights_globally",
        cfg(),
        |rng| (gen_scores(rng), rng.uniform(0.05, 0.95) as f64),
        |(raw, keep)| {
            // Every kept score must be ≥ every pruned score (global
            // ranking).
            let scores = to_map(raw);
            let masks = masks_from_scores(&scores, *keep, Scope::Global);
            let mut kept_min = f32::INFINITY;
            let mut pruned_max = f32::NEG_INFINITY;
            for (name, mask) in &masks {
                for (s, m) in scores[name].data().iter().zip(mask.data()) {
                    if *m == 1.0 {
                        kept_min = kept_min.min(*s);
                    } else {
                        pruned_max = pruned_max.max(*s);
                    }
                }
            }
            if kept_min.is_finite() && pruned_max.is_finite() {
                prop_assert!(kept_min >= pruned_max, "{} < {}", kept_min, pruned_max);
            }
            Ok(())
        },
    );
}

#[test]
fn monotone_keep_fraction() {
    check(
        "core::monotone_keep_fraction",
        cfg(),
        |rng| (rng.below(1_000_000) + 1, rng.below(100_000)),
        |&(prunable, unprunable)| {
            // Higher compression ⇒ lower (or equal) keep fraction.
            let mut prev = f64::INFINITY;
            for c in [1.0f64, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 1e6] {
                let f = keep_fraction_for_compression(prunable, unprunable, c);
                prop_assert!((0.0..=1.0).contains(&f));
                prop_assert!(f <= prev + 1e-12);
                prev = f;
            }
            // Unit compression keeps everything.
            prop_assert!(
                (keep_fraction_for_compression(prunable, unprunable, 1.0) - 1.0).abs() < 1e-9
            );
            Ok(())
        },
    );
}

#[test]
fn keep_fraction_achieves_requested_size() {
    check(
        "core::keep_fraction_achieves_requested_size",
        cfg(),
        |rng| {
            (
                rng.below(999_900) + 100,
                rng.below(1000),
                rng.uniform(1.0, 64.0) as f64,
            )
        },
        |&(prunable, unprunable, c)| {
            let f = keep_fraction_for_compression(prunable, unprunable, c);
            if f > 0.0 && f < 1.0 {
                let kept = f * prunable as f64 + unprunable as f64;
                let achieved = (prunable + unprunable) as f64 / kept;
                prop_assert!(
                    (achieved - c).abs() / c < 1e-9,
                    "achieved {} wanted {}",
                    achieved,
                    c
                );
            }
            Ok(())
        },
    );
}

#[test]
fn magnitude_scores_are_permutation_equivariant() {
    check(
        "core::magnitude_scores_are_permutation_equivariant",
        cfg(),
        |rng| {
            let len = rng.below(24) + 8;
            (0..len).map(|_| rng.uniform(-5.0, 5.0)).collect::<Vec<f32>>()
        },
        |v| {
            // Reversing the weights reverses the scores.
            let fwd = Tensor::from_slice(v);
            let mut rev_v = v.clone();
            rev_v.reverse();
            let rev = Tensor::from_slice(&rev_v);
            let mut rng = Rng::seed_from(0);
            let s_fwd =
                GlobalMagnitude.score(&ScoreEntry { name: "w", value: &fwd, grad: None }, &mut rng);
            let s_rev =
                GlobalMagnitude.score(&ScoreEntry { name: "w", value: &rev, grad: None }, &mut rng);
            let mut s_rev_data = s_rev.data().to_vec();
            s_rev_data.reverse();
            prop_assert_eq!(s_fwd.data(), &s_rev_data[..]);
            Ok(())
        },
    );
}

#[test]
fn gradient_scores_are_scale_covariant() {
    check(
        "core::gradient_scores_are_scale_covariant",
        cfg(),
        |rng| {
            let len = rng.below(24) + 8;
            (
                (0..len).map(|_| rng.uniform(0.1, 5.0)).collect::<Vec<f32>>(),
                rng.uniform(0.5, 4.0),
            )
        },
        |(v, k)| {
            // score(k·w, g) = k · score(w, g): scaling weights scales
            // saliency.
            let k = *k;
            let w = Tensor::from_slice(v);
            let g = Tensor::from_fn(&[v.len()], |i| (i as f32 * 0.37).sin());
            let kw = w.scale(k);
            let mut rng = Rng::seed_from(0);
            let s1 = GlobalGradient
                .score(&ScoreEntry { name: "w", value: &w, grad: Some(&g) }, &mut rng);
            let s2 = GlobalGradient
                .score(&ScoreEntry { name: "w", value: &kw, grad: Some(&g) }, &mut rng);
            for (a, b) in s1.data().iter().zip(s2.data()) {
                prop_assert!((a * k - b).abs() <= 1e-3 * (1.0 + b.abs()));
            }
            Ok(())
        },
    );
}

#[test]
fn layer_and_global_magnitude_agree_on_single_tensor() {
    check(
        "core::layer_and_global_magnitude_agree_on_single_tensor",
        cfg(),
        |rng| {
            let len = rng.below(56) + 8;
            let mut v: Vec<f32> = (0..len).map(|_| rng.uniform(-5.0, 5.0)).collect();
            let keep = rng.uniform(0.1, 0.9) as f64;
            // Half the cases round the weights to integers, so the
            // magnitudes take six values and ties straddle the cut.
            if rng.coin(0.5) {
                v.iter_mut().for_each(|x| *x = x.round());
            }
            (v, keep)
        },
        |(v, keep)| {
            // With one tensor, scope cannot matter, ties included: both
            // keep the lowest indices among equal scores.
            let mut scores = BTreeMap::new();
            let t = Tensor::from_slice(v);
            let mut rng = Rng::seed_from(1);
            let entry = ScoreEntry { name: "w", value: &t, grad: None };
            scores.insert("w".to_string(), LayerMagnitude.score(&entry, &mut rng));
            let a = masks_from_scores(&scores, *keep, Scope::Global);
            let b = masks_from_scores(&scores, *keep, Scope::Layerwise);
            prop_assert_eq!(a, b);
            Ok(())
        },
    );
}

#[test]
fn random_scores_cover_unit_interval() {
    check(
        "core::random_scores_cover_unit_interval",
        cfg(),
        |rng| rng.below(10_000) as u64,
        |&seed| {
            let mut rng = Rng::seed_from(seed);
            let t = Tensor::zeros(&[256]);
            let s = RandomPruning::global()
                .score(&ScoreEntry { name: "w", value: &t, grad: None }, &mut rng);
            prop_assert!(s.min() >= 0.0 && s.max() < 1.0);
            // Not degenerate.
            prop_assert!(s.max() - s.min() > 0.1);
            Ok(())
        },
    );
}
