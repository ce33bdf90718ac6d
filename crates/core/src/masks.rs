//! Score → mask conversion and compression-ratio targeting.
//!
//! These are the arithmetic heart of the framework: given saliency scores
//! for every prunable tensor and a desired compression ratio, decide
//! exactly which weights survive.

use crate::strategy::Scope;
use sb_tensor::Tensor;
use std::collections::BTreeMap;

/// Keep-fraction of *prunable* weights required to hit an overall
/// compression ratio `c`, given that `unprunable` parameters (biases,
/// batch norm, excluded classifier) always survive.
///
/// Solving `total / c = keep·prunable + unprunable` for `keep`. The result
/// is clamped to `[0, 1]`; a compression ratio so large that even pruning
/// every prunable weight cannot reach it yields `0.0` (the caller can
/// detect this by comparing achieved vs requested compression, mirroring
/// how real pruned models bottom out against their dense layers).
///
/// # Panics
///
/// Panics if `compression < 1` or `prunable == 0`.
pub fn keep_fraction_for_compression(
    prunable: usize,
    unprunable: usize,
    compression: f64,
) -> f64 {
    assert!(compression >= 1.0, "compression ratio must be ≥ 1");
    assert!(prunable > 0, "no prunable parameters");
    let total = (prunable + unprunable) as f64;
    let target_nonzero = total / compression;
    ((target_nonzero - unprunable as f64) / prunable as f64).clamp(0.0, 1.0)
}

/// Builds binary masks keeping the top-scoring fraction of weights.
///
/// * `scores`: per-tensor saliency scores (higher ⇒ kept), keyed by
///   parameter name. Entries already pruned must be scored `-∞` by the
///   caller if they must stay pruned.
/// * `keep_fraction`: fraction of all scored weights to keep.
/// * `scope`: [`Scope::Global`] ranks all weights together;
///   [`Scope::Layerwise`] splits the same global budget across tensors by
///   largest remainder, then ranks within each tensor.
///
/// Non-finite scores are never kept: the keep budget is capped to the
/// finite-score count, so an iterative schedule whose request exceeds the
/// remaining prunable budget saturates instead of resurrecting weights
/// the pruner pinned at `-∞`.
///
/// Deterministic: ties are broken by (name, index) order.
///
/// # Panics
///
/// Panics if `scores` is empty, any score is NaN, or `keep_fraction` is
/// outside `[0, 1]`.
pub fn masks_from_scores(
    scores: &BTreeMap<String, Tensor>,
    keep_fraction: f64,
    scope: Scope,
) -> BTreeMap<String, Tensor> {
    assert!(!scores.is_empty(), "no score tensors given");
    assert!(
        (0.0..=1.0).contains(&keep_fraction),
        "keep_fraction {keep_fraction} outside [0, 1]"
    );
    for (name, s) in scores {
        assert!(
            !s.data().iter().any(|v| v.is_nan()),
            "scores for {name} contain NaN"
        );
    }
    match scope {
        Scope::Layerwise => {
            let counts = layerwise_keep_counts(scores, keep_fraction);
            scores
                .iter()
                .map(|(name, s)| (name.clone(), top_k_mask(s, counts[name])))
                .collect()
        }
        Scope::Global => {
            let total: usize = scores.values().map(Tensor::numel).sum();
            let mut all: Vec<f32> = Vec::with_capacity(total);
            for s in scores.values() {
                all.extend(s.data().iter().copied().filter(|v| v.is_finite()));
            }
            let k = round_count(total, keep_fraction).min(all.len());
            if k == 0 {
                return scores
                    .iter()
                    .map(|(n, s)| (n.clone(), Tensor::zeros(s.dims())))
                    .collect();
            }
            if k == all.len() {
                // The budget covers every keepable entry; the rest are
                // pinned pruned.
                return scores
                    .iter()
                    .map(|(n, s)| {
                        let mut mask = Tensor::zeros(s.dims());
                        for (i, &v) in s.data().iter().enumerate() {
                            if v.is_finite() {
                                mask.data_mut()[i] = 1.0;
                            }
                        }
                        (n.clone(), mask)
                    })
                    .collect();
            }
            // Threshold = k-th largest finite score overall; selection
            // leaves the k − 1 scores at or above it in front of it.
            let (_, &mut threshold, _) = all.select_nth_unstable_by(k - 1, |a, b| {
                b.partial_cmp(a).expect("NaN checked above")
            });
            // Keep strictly-above first, then fill remaining quota among
            // exact-threshold entries in deterministic (name, index) order.
            let above: usize = all[..k].iter().filter(|&&v| v > threshold).count();
            let mut tie_quota = k - above;
            scores
                .iter()
                .map(|(name, s)| {
                    let mut mask = Tensor::zeros(s.dims());
                    for (i, &v) in s.data().iter().enumerate() {
                        if !v.is_finite() {
                            continue;
                        }
                        if v > threshold {
                            mask.data_mut()[i] = 1.0;
                        } else if v == threshold && tie_quota > 0 {
                            mask.data_mut()[i] = 1.0;
                            tie_quota -= 1;
                        }
                    }
                    (name.clone(), mask)
                })
                .collect()
        }
    }
}

fn round_count(n: usize, fraction: f64) -> usize {
    ((n as f64 * fraction).round() as usize).min(n)
}

/// Largest-remainder split of the global keep budget across tensors.
///
/// Rounding `nᵢ·f` independently per tensor lets achieved compression
/// drift from requested by up to one weight *per tensor* — material when
/// a model has many small tensors. Instead the total budget
/// `round(total·f)` is fixed first, every tensor gets `⌊nᵢ·f⌋`, and the
/// leftover units go to the largest fractional remainders (ties broken by
/// name order), so the summed keep count equals the global target exactly.
fn layerwise_keep_counts(
    scores: &BTreeMap<String, Tensor>,
    fraction: f64,
) -> BTreeMap<String, usize> {
    let total: usize = scores.values().map(Tensor::numel).sum();
    let target = round_count(total, fraction);
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut remainders: Vec<(f64, &str)> = Vec::new();
    let mut allotted = 0usize;
    for (name, s) in scores {
        let exact = s.numel() as f64 * fraction;
        let base = (exact.floor() as usize).min(s.numel());
        allotted += base;
        counts.insert(name.clone(), base);
        if base < s.numel() {
            remainders.push((exact - base as f64, name));
        }
    }
    let mut leftover = target.saturating_sub(allotted);
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(b.1)));
    for (_, name) in remainders {
        if leftover == 0 {
            break;
        }
        *counts.get_mut(name).expect("inserted above") += 1;
        leftover -= 1;
    }
    debug_assert_eq!(leftover, 0, "keep budget exceeds distributable capacity");
    counts
}

/// Mask keeping the `k` highest-scoring finite entries of one tensor
/// (deterministic index-order tie-breaking). Non-finite scores are never
/// kept, so `k` saturates at the finite-score count.
fn top_k_mask(scores: &Tensor, k: usize) -> Tensor {
    let mut idx: Vec<usize> = (0..scores.numel())
        .filter(|&i| scores.data()[i].is_finite())
        .collect();
    let k = k.min(idx.len());
    let mut mask = Tensor::zeros(scores.dims());
    if k == 0 {
        return mask;
    }
    // The first k under (score desc, index asc), in no particular order.
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        scores.data()[b]
            .partial_cmp(&scores.data()[a])
            .expect("NaN checked by caller")
            .then(a.cmp(&b))
    });
    for &i in &idx[..k] {
        mask.data_mut()[i] = 1.0;
    }
    mask
}

/// Count of kept (1.0) entries across a mask set.
pub fn kept_count(masks: &BTreeMap<String, Tensor>) -> usize {
    masks
        .values()
        .map(|m| m.data().iter().filter(|&&v| v == 1.0).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores_of(pairs: &[(&str, &[f32])]) -> BTreeMap<String, Tensor> {
        pairs
            .iter()
            .map(|(n, v)| (n.to_string(), Tensor::from_slice(v)))
            .collect()
    }

    #[test]
    fn keep_fraction_accounts_for_unprunable() {
        // 90 prunable + 10 unprunable, target 2× ⇒ keep 50 total ⇒ 40
        // prunable ⇒ 4/9.
        let f = keep_fraction_for_compression(90, 10, 2.0);
        assert!((f - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn keep_fraction_saturates_at_zero() {
        // 10 unprunable alone exceed total/c ⇒ keep nothing prunable.
        assert_eq!(keep_fraction_for_compression(90, 10, 100.0), 0.0);
    }

    #[test]
    fn keep_fraction_of_one_at_unit_compression() {
        assert_eq!(keep_fraction_for_compression(50, 50, 1.0), 1.0);
    }

    #[test]
    fn global_keeps_largest_across_tensors() {
        let scores = scores_of(&[("a", &[0.9, 0.1]), ("b", &[0.8, 0.2])]);
        let masks = masks_from_scores(&scores, 0.5, Scope::Global);
        assert_eq!(masks["a"].data(), &[1.0, 0.0]);
        assert_eq!(masks["b"].data(), &[1.0, 0.0]);
    }

    #[test]
    fn global_can_empty_a_whole_tensor() {
        let scores = scores_of(&[("a", &[0.9, 0.8]), ("b", &[0.1, 0.2])]);
        let masks = masks_from_scores(&scores, 0.5, Scope::Global);
        assert_eq!(masks["a"].data(), &[1.0, 1.0]);
        assert_eq!(masks["b"].data(), &[0.0, 0.0]);
    }

    #[test]
    fn layerwise_keeps_fraction_per_tensor() {
        let scores = scores_of(&[("a", &[0.9, 0.8, 0.0, 0.1]), ("b", &[0.1, 0.2, 0.3, 0.4])]);
        let masks = masks_from_scores(&scores, 0.5, Scope::Layerwise);
        assert_eq!(masks["a"].data(), &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(masks["b"].data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn exact_count_kept_globally() {
        let scores = scores_of(&[("a", &[0.5, 0.4, 0.3]), ("b", &[0.2, 0.1, 0.05, 0.9])]);
        for f in [0.0, 0.3, 0.5, 0.7, 1.0] {
            let masks = masks_from_scores(&scores, f, Scope::Global);
            assert_eq!(kept_count(&masks), (7.0 * f).round() as usize);
        }
    }

    #[test]
    fn ties_are_broken_deterministically_and_exactly() {
        // All-equal scores: exactly k survive, not all of them.
        let scores = scores_of(&[("a", &[1.0; 6])]);
        let masks = masks_from_scores(&scores, 0.5, Scope::Global);
        assert_eq!(kept_count(&masks), 3);
        let again = masks_from_scores(&scores, 0.5, Scope::Global);
        assert_eq!(masks, again);
    }

    #[test]
    fn neg_infinity_scores_never_survive() {
        let scores = scores_of(&[("a", &[f32::NEG_INFINITY, 0.5, f32::NEG_INFINITY, 0.1])]);
        let masks = masks_from_scores(&scores, 0.5, Scope::Global);
        assert_eq!(masks["a"].data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn keep_everything_and_nothing() {
        let scores = scores_of(&[("a", &[0.1, 0.2])]);
        assert_eq!(
            masks_from_scores(&scores, 1.0, Scope::Global)["a"].data(),
            &[1.0, 1.0]
        );
        assert_eq!(
            masks_from_scores(&scores, 0.0, Scope::Layerwise)["a"].data(),
            &[0.0, 0.0]
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_scores_rejected() {
        let scores = scores_of(&[("a", &[f32::NAN, 1.0])]);
        masks_from_scores(&scores, 0.5, Scope::Global);
    }

    #[test]
    fn budget_past_finite_count_never_resurrects_globally() {
        // Regression: k > finite-score count used to push the threshold to
        // -∞, and the tie-fill loop then re-kept pinned-pruned entries.
        let scores = scores_of(&[
            ("a", &[f32::NEG_INFINITY, 0.5, f32::NEG_INFINITY]),
            ("b", &[f32::NEG_INFINITY, 0.1]),
        ]);
        for f in [0.6, 0.8, 1.0] {
            let masks = masks_from_scores(&scores, f, Scope::Global);
            assert_eq!(masks["a"].data(), &[0.0, 1.0, 0.0], "keep={f}");
            assert_eq!(masks["b"].data(), &[0.0, 1.0], "keep={f}");
        }
    }

    #[test]
    fn budget_past_finite_count_never_resurrects_layerwise() {
        let scores = scores_of(&[("a", &[f32::NEG_INFINITY, 0.5, f32::NEG_INFINITY, 0.1])]);
        for f in [0.75, 1.0] {
            let masks = masks_from_scores(&scores, f, Scope::Layerwise);
            assert_eq!(masks["a"].data(), &[0.0, 1.0, 0.0, 1.0], "keep={f}");
        }
    }

    #[test]
    fn positive_infinity_scores_never_survive() {
        // "Never keep non-finite" covers +∞ too, not just the pruner's -∞.
        let scores = scores_of(&[("a", &[f32::INFINITY, 0.5, 0.1])]);
        for scope in [Scope::Global, Scope::Layerwise] {
            let masks = masks_from_scores(&scores, 0.5, scope);
            assert_eq!(masks["a"].data()[0], 0.0, "{scope:?}");
        }
    }

    #[test]
    fn layerwise_budget_matches_global_rounding() {
        // Five 3-element tensors at keep 0.5: per-tensor rounding would
        // keep 2 each (10 total, 67% achieved); the largest-remainder
        // split keeps round(15·0.5) = 8 exactly.
        let pairs: Vec<(String, Tensor)> = (0..5)
            .map(|i| (format!("t{i}"), Tensor::from_slice(&[0.3, 0.2, 0.1])))
            .collect();
        let scores: BTreeMap<String, Tensor> = pairs.into_iter().collect();
        let masks = masks_from_scores(&scores, 0.5, Scope::Layerwise);
        assert_eq!(kept_count(&masks), 8);
        // Deterministic: equal remainders break ties by name order, so the
        // first three tensors get the extra unit.
        for (i, (_, m)) in masks.iter().enumerate() {
            let kept = m.data().iter().filter(|&&v| v == 1.0).count();
            assert_eq!(kept, if i < 3 { 2 } else { 1 });
        }
    }

    #[test]
    fn layerwise_extra_units_follow_largest_remainder() {
        // t0: 5·0.7 = 3.5 (rem .5), t1: 3·0.7 = 2.1 (rem .1); target =
        // round(8·0.7) = 6 ⇒ bases 3+2, the leftover unit goes to t0.
        let scores = scores_of(&[("t0", &[5.0, 4.0, 3.0, 2.0, 1.0]), ("t1", &[0.3, 0.2, 0.1])]);
        let masks = masks_from_scores(&scores, 0.7, Scope::Layerwise);
        assert_eq!(masks["t0"].data(), &[1.0, 1.0, 1.0, 1.0, 0.0]);
        assert_eq!(masks["t1"].data(), &[1.0, 1.0, 0.0]);
    }
}
