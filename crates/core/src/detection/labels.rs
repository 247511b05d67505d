//! Label processing (Section V-C): ε-smoothed one-hot distributions over the
//! candidates, so the KL-divergence losses of Equations (11)–(12) never see a
//! zero probability.

use crate::processing::Candidate;
use lead_nn::Matrix;

/// Builds the smoothed label distribution over `flat_order` for the ground
/// truth candidate `truth`: every probability is `ε` except the truth's,
/// which is `1 − k·ε` with `k` the number of ε-entries.
///
/// # Panics
/// Panics if `truth` is not in `flat_order`.
pub fn smoothed_label(flat_order: &[Candidate], truth: Candidate, epsilon: f32) -> Matrix {
    assert!(epsilon > 0.0, "ε must be positive");
    let m = flat_order.len();
    #[expect(
        clippy::expect_used,
        reason = "training-contract violation (documented # Panics): labels are built from the same flattening"
    )]
    let pos = flat_order
        .iter()
        .position(|&c| c == truth)
        .expect("ground-truth candidate must be in the flattening");
    let k = lead_nn::num::exact_usize_f32(m - 1);
    let mut data = vec![epsilon; m];
    data[pos] = 1.0 - k * epsilon;
    assert!(data[pos] > 0.0, "ε too large for {m} candidates");
    Matrix::row_vector(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::{backward_flat_order, forward_flat_order};

    #[test]
    fn label_is_a_distribution() {
        let order = forward_flat_order(6);
        let label = smoothed_label(&order, Candidate::new(1, 3), 1e-5);
        let sum: f32 = label.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(label.data().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn truth_position_holds_the_mass() {
        let order = forward_flat_order(5);
        let truth = Candidate::new(0, 4);
        let label = smoothed_label(&order, truth, 1e-5);
        let pos = order.iter().position(|&c| c == truth).unwrap();
        let (argmax_r, argmax_c) = label.argmax().unwrap();
        assert_eq!((argmax_r, argmax_c), (0, pos));
        assert!((label.at(0, pos) - (1.0 - 9.0 * 1e-5)).abs() < 1e-7);
    }

    #[test]
    fn backward_order_places_truth_differently() {
        let truth = Candidate::new(0, 2);
        let f = smoothed_label(&forward_flat_order(4), truth, 1e-5);
        let b = smoothed_label(&backward_flat_order(4), truth, 1e-5);
        assert_ne!(f.argmax(), b.argmax());
    }

    #[test]
    fn works_with_a_single_candidate() {
        let order = forward_flat_order(2);
        let label = smoothed_label(&order, Candidate::new(0, 1), 1e-5);
        assert_eq!(label.len(), 1);
        assert_eq!(label.at(0, 0), 1.0); // k = 0, no smoothing needed
    }

    #[test]
    #[should_panic(expected = "must be in the flattening")]
    fn unknown_truth_rejected() {
        let order = forward_flat_order(3);
        let _ = smoothed_label(&order, Candidate::new(0, 5), 1e-5);
    }
}
