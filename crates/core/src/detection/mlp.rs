//! The `LEAD-NoGro` ablation detector (Section VI-A, Variants): the group
//! generation (and with it the BiLSTM detectors) is removed; each candidate's
//! compressed vector is scored *independently* by four fully connected layers
//! (64 → 32 → 32 → 1) with a sigmoid on the last — so no inclusion,
//! exclusion, or analogy relationship can inform the score.

use crate::config::LeadConfig;
use lead_nn::bptt::TrainScratch;
use lead_nn::layers::Linear;
use lead_nn::optim::Adam;
use lead_nn::simd::Kernel;
use lead_nn::train::{AccumTrainer, EarlyStopping, EpochPlan};
use lead_nn::{Gradients, Matrix, ParamSet};
use rand::Rng;

/// `max(v, 0)` in place, the tape's `relu`.
fn relu(x: &mut [f32]) {
    for v in x {
        *v = v.max(0.0);
    }
}

/// The backward pass of [`relu`] given its output `a`: the gradient passes
/// where `a > 0`, which is where the input was positive.
fn relu_backward(g: &mut [f32], a: &[f32]) {
    for (gi, &ai) in g.iter_mut().zip(a) {
        if ai <= 0.0 {
            *gi = 0.0;
        }
    }
}

/// One training item: a trajectory's candidate c-vecs and the index of the
/// loaded one.
type MlpItem = (Vec<Matrix>, usize);

/// The per-candidate MLP scorer.
pub struct MlpDetector {
    params: ParamSet,
    layers: [Linear; 4],
}

/// Reusable buffers of one item's forward and backward pass.
#[derive(Default)]
struct ItemScratch {
    xs: Vec<f32>,
    /// The ReLU outputs of the three hidden layers.
    acts: [Vec<f32>; 3],
    logits: Vec<f32>,
    targets: Vec<f32>,
    dy: Vec<f32>,
    dx: Vec<f32>,
    train: TrainScratch,
}

impl ItemScratch {
    /// Stores an item's c-vecs back to back as the input rows, and its
    /// one-hot targets.
    fn load(&mut self, (c_vecs, truth_idx): &MlpItem) {
        self.xs.clear();
        for c in c_vecs {
            self.xs.extend_from_slice(c.data());
        }
        self.targets.clear();
        self.targets.resize(c_vecs.len(), 0.0);
        self.targets[*truth_idx] = 1.0;
    }
}

/// Every layer over all rows of `xs` at once: the hidden ReLU outputs go
/// to `acts`, the logits to `logits`. Each row is scored independently,
/// bit-identical to one tape per candidate.
fn forward(
    layers: &[Linear; 4],
    ps: &ParamSet,
    xs: &[f32],
    acts: &mut [Vec<f32>; 3],
    logits: &mut Vec<f32>,
) {
    let [l1, l2, l3, l4] = layers;
    let [a1, a2, a3] = acts;
    l1.infer(ps, xs, a1);
    relu(a1);
    l2.infer(ps, a1, a2);
    relu(a2);
    l3.infer(ps, a2, a3);
    relu(a3);
    l4.infer(ps, a3, logits);
}

/// One item's BCE loss and its gradients, by a packed forward and backward
/// pass over all its candidates. `to_bits`-equal to recording every
/// candidate's logit on one tape, in candidate order, with
/// `bce_with_logits_loss` over the row of logits and `Graph::backward`:
/// `Linear::train_backward` visits the rows last first, as the tape does.
fn loss_and_gradients(
    layers: &[Linear; 4],
    ps: &ParamSet,
    item: &MlpItem,
    s: &mut ItemScratch,
) -> (f32, Gradients) {
    s.load(item);
    forward(layers, ps, &s.xs, &mut s.acts, &mut s.logits);
    let loss = lead_nn::loss::bce_with_logits(&s.logits, &s.targets);
    lead_nn::loss::bce_with_logits_grad(1.0, &s.logits, &s.targets, &mut s.dy);
    let mut grads = ps.zero_gradients();
    let [l1, l2, l3, l4] = layers;
    let ItemScratch {
        xs,
        acts: [a1, a2, a3],
        dy,
        dx,
        train,
        ..
    } = s;
    for (layer, input) in [(l4, &*a3), (l3, &*a2), (l2, &*a1)] {
        layer.train_backward(ps, input, dy, dx, &mut grads, train);
        relu_backward(dx, input);
        std::mem::swap(dy, dx);
    }
    l1.train_backward(ps, xs, dy, dx, &mut grads, train);
    (loss, grads)
}

impl MlpDetector {
    /// Builds the paper's 64/32/32/1 architecture over `c_vec_dim` inputs.
    pub fn new<R: Rng>(c_vec_dim: usize, rng: &mut R) -> Self {
        let mut ps = ParamSet::new();
        let l1 = Linear::new(&mut ps, rng, "mlp.l1", c_vec_dim, 64);
        let l2 = Linear::new(&mut ps, rng, "mlp.l2", 64, 32);
        let l3 = Linear::new(&mut ps, rng, "mlp.l3", 32, 32);
        let l4 = Linear::new(&mut ps, rng, "mlp.l4", 32, 1);
        Self {
            params: ps,
            layers: [l1, l2, l3, l4],
        }
    }

    /// The trainable parameters (persistence).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the trainable parameters (persistence).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Probabilities of a whole candidate list (still independent scores):
    /// every layer runs once over all candidates as rows of one matrix;
    /// bit-identical to `sigmoid(logit)` of each candidate on the tape.
    pub fn probabilities(&self, c_vecs: &[Matrix]) -> Vec<f32> {
        let xs: Vec<f32> = c_vecs
            .iter()
            .flat_map(|m| m.data().iter().copied())
            .collect();
        self.row_probabilities(&xs)
    }

    /// [`Self::probabilities`] of c-vecs stored back to back in `xs`.
    pub(crate) fn row_probabilities(&self, xs: &[f32]) -> Vec<f32> {
        let (mut acts, mut logits) = Default::default();
        forward(&self.layers, &self.params, xs, &mut acts, &mut logits);
        let mut p = vec![0.0; logits.len()];
        lead_nn::simd::active().sigmoid(&logits, &mut p);
        p
    }

    /// Trains with per-candidate binary cross-entropy: the loaded candidate
    /// of each trajectory is the positive, all others negatives.
    ///
    /// `items` pairs each trajectory's candidate c-vecs with the index of the
    /// loaded one. Returns `(train_curve, val_curve)`: the per-epoch mean
    /// BCE and, when `val_items` is given, the per-epoch validation BCE
    /// (reporting only; early stopping observes the training loss).
    ///
    /// Each accumulation window's items run data-parallel on
    /// `config.num_threads` workers; their gradients are submitted in item
    /// order, so the weights are bit-identical for every thread count.
    ///
    /// `probe` records a `det.mlp.epoch` span plus `det.mlp.epoch_bce` /
    /// `det.mlp.epoch_val_bce` observations and the trainer's
    /// `det.mlp.grad_norm` / `det.mlp.optim_steps`. Metrics are write-only —
    /// the trained weights are identical for any probe.
    pub fn train<R: Rng>(
        &mut self,
        items: &[MlpItem],
        val_items: Option<&[MlpItem]>,
        config: &LeadConfig,
        rng: &mut R,
        probe: &dyn lead_obs::probe::Probe,
    ) -> (Vec<f32>, Vec<f32>) {
        assert!(!items.is_empty(), "MLP training needs samples");
        let mut trainer = AccumTrainer::new(
            Adam::new(&self.params, config.learning_rate),
            config.batch_accumulation,
        )
        .with_clip_norm(config.grad_clip_norm)
        .with_probe(probe, "det.mlp");
        let mut stopper = EarlyStopping::new(config.early_stopping_patience, 1e-4);
        let mut plan = EpochPlan::new(items.len());
        let mut train_curve = Vec::new();
        let mut val_curve = Vec::new();
        let layers = &self.layers;
        for _epoch in 0..config.detector_max_epochs {
            let _epoch_span = lead_obs::clock::span(probe, "det.mlp.epoch");
            plan.reshuffle(rng);
            let mut total = 0.0f64;
            for window in plan.windows(config.batch_accumulation) {
                let window: Vec<&MlpItem> = window.iter().map(|&i| &items[i]).collect();
                let losses = trainer.submit_window_with(
                    &mut self.params,
                    config.num_threads,
                    &window,
                    ItemScratch::default,
                    |s, _, item, ps| loss_and_gradients(layers, ps, item, s),
                );
                for l in losses {
                    total += l as f64;
                }
            }
            trainer.flush(&mut self.params);
            let train_mean = lead_nn::num::narrow_f64(total / items.len() as f64);
            train_curve.push(train_mean);
            if probe.enabled() {
                probe.observe("det.mlp.epoch_bce", f64::from(train_mean));
            }
            if let Some(v) = val_items {
                if !v.is_empty() {
                    let val_mean = self.evaluate(v);
                    val_curve.push(val_mean);
                    if probe.enabled() {
                        probe.observe("det.mlp.epoch_val_bce", f64::from(val_mean));
                    }
                }
            }
            if stopper.observe(train_mean) {
                break;
            }
        }
        (train_curve, val_curve)
    }

    /// Mean BCE over `items` without training.
    pub fn evaluate(&self, items: &[MlpItem]) -> f32 {
        assert!(!items.is_empty(), "evaluation needs samples");
        let mut s = ItemScratch::default();
        let mut total = 0.0f64;
        for item in items {
            s.load(item);
            forward(
                &self.layers,
                &self.params,
                &s.xs,
                &mut s.acts,
                &mut s.logits,
            );
            total += lead_nn::loss::bce_with_logits(&s.logits, &s.targets) as f64;
        }
        lead_nn::num::narrow_f64(total / items.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lead_nn::{Graph, Var};
    use lead_obs::probe::NOOP;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cvec(signature: f32, dim: usize, salt: usize) -> Matrix {
        Matrix::from_fn(1, dim, |_, k| {
            ((salt * 13 + k) as f32 * 0.3).sin() * 0.2 + if k < 3 { signature } else { 0.0 }
        })
    }

    #[test]
    fn probability_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let det = MlpDetector::new(8, &mut rng);
        let p = det.probabilities(&[cvec(0.5, 8, 1)]);
        assert!(p.len() == 1 && p.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    /// The tape oracle: the logit of one c-vec.
    fn tape_logit(det: &MlpDetector, g: &mut Graph, c_vec: &Matrix) -> Var {
        let [l1, l2, l3, l4] = &det.layers;
        let x = g.constant(c_vec.clone());
        let a = l1.forward(g, x);
        let a = g.relu(a);
        let b = l2.forward(g, a);
        let b = g.relu(b);
        let c = l3.forward(g, b);
        let c = g.relu(c);
        l4.forward(g, c)
    }

    #[test]
    fn probabilities_match_the_tape_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let det = MlpDetector::new(8, &mut rng);
        let c_vecs: Vec<Matrix> = (0..7).map(|s| cvec(0.1 * s as f32 - 0.3, 8, s)).collect();
        let got = det.probabilities(&c_vecs);
        assert_eq!(got.len(), c_vecs.len());
        for (c, p) in c_vecs.iter().zip(&got) {
            let mut g = Graph::new(&det.params);
            let z = tape_logit(&det, &mut g, c);
            let want = g.sigmoid(z);
            assert_eq!(p.to_bits(), g.value(want).at(0, 0).to_bits());
        }
        assert!(det.probabilities(&[]).is_empty());
    }

    #[test]
    fn item_loss_and_gradients_match_the_tape_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut det = MlpDetector::new(8, &mut rng);
        // Non-zero biases put some pre-activations on each side of the ReLU
        // kink.
        let ids: Vec<_> = det.params.iter().map(|(id, _)| id).collect();
        for (k, &id) in ids.iter().enumerate() {
            for (j, v) in det.params.value_mut(id).data_mut().iter_mut().enumerate() {
                *v += ((k * 31 + j) as f32 * 0.61).sin() * 0.3;
            }
        }
        let mut s = ItemScratch::default();
        for (n, truth) in [(7, 2), (1, 0), (4, 3)] {
            let c_vecs: Vec<Matrix> = (0..n).map(|k| cvec(0.2 * k as f32 - 0.4, 8, k)).collect();
            let mut g = Graph::new(&det.params);
            let logits: Vec<Var> = c_vecs.iter().map(|c| tape_logit(&det, &mut g, c)).collect();
            let row = g.concat_cols(&logits);
            let mut y = vec![0.0f32; n];
            y[truth] = 1.0;
            let loss = g.bce_with_logits_loss(row, &Matrix::row_vector(y));
            let want = g.backward(loss);
            let item = (c_vecs, truth);
            let (got_loss, got) = loss_and_gradients(&det.layers, &det.params, &item, &mut s);
            assert_eq!(got_loss.to_bits(), g.scalar(loss).to_bits(), "loss, n={n}");
            for ((id, a), (_, b)) in got.iter().zip(want.iter()) {
                let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{} n={n}", det.params.name(id));
            }
        }
    }

    #[test]
    fn training_separates_positive_candidates() {
        let mut cfg = LeadConfig::fast_test();
        cfg.detector_max_epochs = 40;
        cfg.learning_rate = 5e-3;
        cfg.batch_accumulation = 4;
        let mut rng = StdRng::seed_from_u64(2);
        let dim = 8;
        let mut det = MlpDetector::new(dim, &mut rng);
        // Positives carry +0.8 on the first dims; negatives −0.2.
        let items: Vec<(Vec<Matrix>, usize)> = (0..10)
            .map(|s| {
                let mut cv: Vec<Matrix> = (0..5).map(|k| cvec(-0.2, dim, s * 7 + k)).collect();
                cv[2] = cvec(0.8, dim, s * 7 + 99);
                (cv, 2usize)
            })
            .collect();
        let curve = det.train(&items, None, &cfg, &mut rng, &NOOP).0;
        assert!(curve.last().unwrap() < &curve[0]);
        let p = det.probabilities(&[cvec(0.8, dim, 1234), cvec(-0.2, dim, 4321)]);
        assert!(p[0] > p[1], "pos {} vs neg {}", p[0], p[1]);
    }
}
