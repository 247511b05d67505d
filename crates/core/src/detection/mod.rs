//! Loaded trajectory detection (Section V): group generation, forward and
//! backward stacked-BiLSTM detectors, label processing, and probability
//! merging.

mod detector;
mod group;
mod labels;
mod mlp;

pub(crate) use detector::softmax;
pub use detector::GroupDetector;
pub use group::{backward_flat_order, build_groups, forward_flat_order, Groups};
pub use labels::smoothed_label;
pub use mlp::MlpDetector;

use crate::processing::Candidate;

/// Merges the forward and backward detectors' probability distributions
/// (Section V-B "Workflow"): probabilities of the same candidate are summed,
/// then the result is min–max rescaled to `[0, 1]`.
///
/// `fwd` must follow [`forward_flat_order`], `bwd` must follow
/// [`backward_flat_order`]; the returned vector follows the forward
/// (canonical candidate) order.
///
/// Fewer than two stay points admit no candidates: both inputs must then be
/// empty and the merge is the empty distribution (no `n(n−1)/2` underflow).
///
/// Detector outputs are expected to be finite (debug builds assert it). In
/// release builds non-finite entries are tolerated: the rescale range is
/// taken over the finite sums only, and any non-finite merged value
/// saturates afterwards (`+∞ → 1`, `−∞ → 0`, `NaN → 0`) so the result is
/// always a well-formed `[0, 1]` distribution.
///
/// # Panics
/// Panics if the lengths disagree with `n(n−1)/2` for `n` stay points.
pub fn merge_probabilities(n: usize, fwd: &[f32], bwd: &[f32]) -> Vec<f32> {
    let m = n * n.saturating_sub(1) / 2;
    assert_eq!(fwd.len(), m, "forward distribution length");
    assert_eq!(bwd.len(), m, "backward distribution length");
    if n < 2 {
        return Vec::new();
    }
    debug_assert!(
        fwd.iter().chain(bwd.iter()).all(|v| v.is_finite()),
        "detector distributions must be finite"
    );
    let fwd_order = forward_flat_order(n);
    let bwd_order = backward_flat_order(n);
    // Position of each candidate within the backward flattening, as a dense
    // table keyed by `start_sp * n + end_sp` — candidate pairs are unique and
    // a deterministic Vec keeps the merge free of hash iteration order.
    let mut bwd_pos = vec![usize::MAX; n * n];
    for (i, c) in bwd_order.iter().enumerate() {
        bwd_pos[c.start_sp * n + c.end_sp] = i;
    }
    let mut merged: Vec<f32> = fwd_order
        .iter()
        .enumerate()
        .map(|(i, c)| fwd[i] + bwd[bwd_pos[c.start_sp * n + c.end_sp]])
        .collect();
    // Min–max rescale to [0, 1] (argmax-preserving). The range is computed
    // over finite sums only — a single NaN would otherwise poison `min`/`max`
    // and turn the whole distribution into NaN.
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in merged.iter().filter(|v| v.is_finite()) {
        min = min.min(v);
        max = max.max(v);
    }
    if min > max {
        // No finite sum at all; saturate everything to the floor.
        merged.fill(0.0);
    } else if max > min {
        for v in &mut merged {
            *v = if v.is_nan() {
                0.0
            } else {
                ((*v - min) / (max - min)).clamp(0.0, 1.0)
            };
        }
    } else {
        // All finite sums equal; non-finite stragglers still saturate
        // (+inf joins the ceiling, -inf and NaN fall to the floor).
        for v in &mut merged {
            *v = if v.is_finite() || (v.is_infinite() && v.is_sign_positive()) {
                1.0
            } else {
                0.0
            };
        }
    }
    merged
}

/// The candidate with the maximum merged probability (Equation (13)).
///
/// `probs` follows the forward canonical order for `n` stay points. Returns
/// `None` when `n < 2` (no candidates exist, `probs` must be empty) or when
/// no probability is finite. Non-finite entries never win the argmax.
///
/// # Panics
/// Panics if `probs.len()` disagrees with `n(n−1)/2`.
pub fn argmax_candidate(n: usize, probs: &[f32]) -> Option<Candidate> {
    assert_eq!(
        probs.len(),
        n * n.saturating_sub(1) / 2,
        "distribution length"
    );
    if n < 2 {
        return None;
    }
    let order = forward_flat_order(n);
    let mut best: Option<usize> = None;
    for (i, &p) in probs.iter().enumerate() {
        if !p.is_finite() {
            continue;
        }
        match best {
            Some(b) if p <= probs[b] => {}
            _ => best = Some(i),
        }
    }
    best.map(|b| order[b])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_aligns_by_candidate_identity() {
        let n = 3; // candidates fwd: (0,1),(0,2),(1,2); bwd: (0,1),(1,2),(0,2)
        let fwd = [0.5, 0.3, 0.2];
        let bwd = [0.1, 0.6, 0.3];
        let merged = merge_probabilities(n, &fwd, &bwd);
        // Raw sums in forward order: (0,1)=0.6, (0,2)=0.6, (1,2)=0.8.
        // Min-max: (0.6-0.6)/0.2=0, 0, 1.
        assert_eq!(merged.len(), 3);
        assert!((merged[2] - 1.0).abs() < 1e-6);
        assert!(merged[0].abs() < 1e-6);
    }

    #[test]
    fn merged_range_is_unit_interval() {
        let n = 5;
        let m = n * (n - 1) / 2;
        let fwd: Vec<f32> = (0..m).map(|i| (i as f32 * 0.37).sin().abs()).collect();
        let bwd: Vec<f32> = (0..m).map(|i| (i as f32 * 0.73).cos().abs()).collect();
        let merged = merge_probabilities(n, &fwd, &bwd);
        let min = merged.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = merged.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!((min - 0.0).abs() < 1e-6 && (max - 1.0).abs() < 1e-6);
    }

    #[test]
    fn equal_probabilities_merge_to_ones() {
        let merged = merge_probabilities(3, &[0.2; 3], &[0.2; 3]);
        assert!(merged.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn argmax_candidate_selects_by_canonical_order() {
        let probs = [0.1, 0.9, 0.3];
        let c = argmax_candidate(3, &probs).expect("finite distribution");
        assert_eq!((c.start_sp, c.end_sp), (0, 2));
    }

    #[test]
    #[should_panic(expected = "forward distribution length")]
    fn merge_rejects_wrong_lengths() {
        let _ = merge_probabilities(4, &[0.0; 3], &[0.0; 6]);
    }

    #[test]
    fn merge_below_two_stay_points_is_empty() {
        assert!(merge_probabilities(0, &[], &[]).is_empty());
        assert!(merge_probabilities(1, &[], &[]).is_empty());
    }

    #[test]
    fn argmax_below_two_stay_points_is_none() {
        assert_eq!(argmax_candidate(0, &[]), None);
        assert_eq!(argmax_candidate(1, &[]), None);
    }

    #[test]
    fn argmax_ignores_non_finite_probabilities() {
        let probs = [f32::NAN, 0.4, f32::INFINITY];
        let c = argmax_candidate(3, &probs).expect("one finite entry");
        assert_eq!((c.start_sp, c.end_sp), (0, 2));
        assert_eq!(argmax_candidate(3, &[f32::NAN; 3]), None);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only saturating behaviour")]
    fn merge_saturates_non_finite_sums_in_release() {
        // NaN must neither poison the rescale range nor survive the merge.
        let merged = merge_probabilities(3, &[0.5, f32::NAN, 0.2], &[0.1, 0.6, 0.3]);
        assert!(merged.iter().all(|v| (0.0..=1.0).contains(v)), "{merged:?}");
        assert!(merged[1] == 0.0);
        // All-non-finite input degrades to the all-zero distribution.
        let merged = merge_probabilities(3, &[f32::NAN; 3], &[f32::INFINITY; 3]);
        assert!(merged.iter().all(|&v| v == 0.0));
    }
}
