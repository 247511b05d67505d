//! Packed detector training against the autodiff tape, bit for bit.
//!
//! `GroupDetector` trains on `GroupDetector::loss_and_gradients`: one packed
//! forward pass over all of a group's subgroups and a hand-written
//! backpropagation through time. This suite pins that the loss and the
//! gradient of every parameter have exactly the bits of
//! `GroupDetector::forward_graph`, `Graph::kld_loss` and `Graph::backward`:
//! on ragged groups of n = 2…14 stay points, on both detector sides, with
//! perturbed weights, at the paper's and the test dimensions, on every
//! available SIMD backend. The inputs carry exact zeros and `-0.0`, which
//! exercise the products' zero skip and the tape's fresh `0 + x` slots.

mod support;

use lead_core::config::LeadConfig;
use lead_core::detection::{
    backward_flat_order, build_groups, forward_flat_order, smoothed_label, GroupDetector,
};
use lead_core::processing::Candidate;
use lead_nn::simd::{Backend, Kernel};
use lead_nn::{Gradients, Graph, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{bits, forced, perturb};

/// A deterministic c-vec for `c`: pseudo-random entries with an exact
/// `+0.0` and `-0.0` planted in every vector.
fn cvec(c: Candidate, dim: usize, salt: usize) -> Matrix {
    Matrix::from_fn(1, dim, |_, k| match (k + c.start_sp + c.end_sp) % 7 {
        0 => 0.0,
        3 => -0.0,
        _ => ((salt * 7919 + c.start_sp * 131 + c.end_sp * 31 + k) as f32 * 0.37).sin() * 0.9,
    })
}

/// The tape's loss and gradients for one group.
fn tape(det: &GroupDetector, refs: &[Vec<&Matrix>], label: &Matrix) -> (f32, Gradients) {
    let mut g = Graph::new(det.params());
    let p = det.forward_graph(&mut g, refs);
    let loss = g.kld_loss(p, label);
    (g.scalar(loss), g.backward(loss))
}

fn assert_same(got: &(f32, Gradients), want: &(f32, Gradients), det: &GroupDetector, what: &str) {
    assert_eq!(got.0.to_bits(), want.0.to_bits(), "loss, {what}");
    for ((id, g), (_, w)) in got.1.iter().zip(want.1.iter()) {
        assert_eq!(
            bits(g.data()),
            bits(w.data()),
            "gradient of `{}`, {what}",
            det.params().name(id)
        );
    }
}

fn check_dims(cfg: &LeadConfig, dims: &str) {
    let dim = cfg.c_vec_dim();
    let mut rng = StdRng::seed_from_u64(97);
    for forward in [true, false] {
        let mut det = GroupDetector::new(cfg, dim, &mut rng);
        perturb(det.params_mut(), usize::from(forward));
        for n in 2..=14 {
            let groups = build_groups(n);
            let (side, order) = if forward {
                (&groups.forward, forward_flat_order(n))
            } else {
                (&groups.backward, backward_flat_order(n))
            };
            let cvecs: Vec<Vec<Matrix>> = side
                .iter()
                .map(|sub| sub.iter().map(|&c| cvec(c, dim, n)).collect())
                .collect();
            let refs: Vec<Vec<&Matrix>> = cvecs.iter().map(|sub| sub.iter().collect()).collect();
            let truth = order[(n * 5) % order.len()];
            let label = smoothed_label(&order, truth, cfg.label_epsilon);
            let want = tape(&det, &refs, &label);
            let side_name = if forward { "forward" } else { "backward" };
            for backend in Backend::available() {
                let got = forced(backend, || det.loss_and_gradients(&refs, &label));
                let what = format!(
                    "{dims} dims, {side_name} side, n = {n}, `{}`",
                    backend.name()
                );
                assert_same(&got, &want, &det, &what);
            }
        }
    }
}

#[test]
fn packed_gradients_match_the_tape_at_test_dims() {
    check_dims(&LeadConfig::fast_test(), "fast_test");
}

#[test]
fn packed_gradients_match_the_tape_at_paper_dims() {
    check_dims(&LeadConfig::paper(), "paper");
}
