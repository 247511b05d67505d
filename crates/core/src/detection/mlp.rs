//! The `LEAD-NoGro` ablation detector (Section VI-A, Variants): the group
//! generation (and with it the BiLSTM detectors) is removed; each candidate's
//! compressed vector is scored *independently* by four fully connected layers
//! (64 → 32 → 32 → 1) with a sigmoid on the last — so no inclusion,
//! exclusion, or analogy relationship can inform the score.

use crate::config::LeadConfig;
use lead_nn::layers::Linear;
use lead_nn::optim::Adam;
use lead_nn::simd::Kernel;
use lead_nn::train::{AccumTrainer, EarlyStopping, EpochPlan};
use lead_nn::{Graph, Matrix, ParamSet, Var};
use rand::Rng;

/// `max(v, 0)` in place, the tape's `relu`.
fn relu(x: &mut [f32]) {
    for v in x {
        *v = v.max(0.0);
    }
}

/// The per-candidate MLP scorer.
pub struct MlpDetector {
    params: ParamSet,
    l1: Linear,
    l2: Linear,
    l3: Linear,
    l4: Linear,
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
            l1,
            l2,
            l3,
            l4,
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

    /// Records the logit of one c-vec (sigmoid is folded into the loss /
    /// applied at inference).
    fn logit(&self, g: &mut Graph, c_vec: &Matrix) -> Var {
        let x = g.constant(c_vec.clone());
        let a = self.l1.forward(g, x);
        let a = g.relu(a);
        let b = self.l2.forward(g, a);
        let b = g.relu(b);
        let c = self.l3.forward(g, b);
        let c = g.relu(c);
        self.l4.forward(g, c)
    }

    /// Probabilities of a whole candidate list (still independent scores):
    /// every layer runs once over all candidates as rows of one matrix,
    /// without a tape; bit-identical to `sigmoid(logit)` on the tape.
    pub fn probabilities(&self, c_vecs: &[Matrix]) -> Vec<f32> {
        let xs: Vec<f32> = c_vecs
            .iter()
            .flat_map(|m| m.data().iter().copied())
            .collect();
        self.row_probabilities(&xs)
    }

    /// [`Self::probabilities`] of c-vecs stored back to back in `xs`.
    pub(crate) fn row_probabilities(&self, xs: &[f32]) -> Vec<f32> {
        let ps = &self.params;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.l1.infer(ps, xs, &mut a);
        relu(&mut a);
        self.l2.infer(ps, &a, &mut b);
        relu(&mut b);
        self.l3.infer(ps, &b, &mut a);
        relu(&mut a);
        self.l4.infer(ps, &a, &mut b);
        let mut p = vec![0.0; b.len()];
        lead_nn::simd::active().sigmoid(&b, &mut p);
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
    /// `probe` records a `det.mlp.epoch` span plus `det.mlp.epoch_bce` /
    /// `det.mlp.epoch_val_bce` observations and the trainer's
    /// `det.mlp.grad_norm` / `det.mlp.optim_steps`. Metrics are write-only —
    /// the trained weights are identical for any probe.
    pub fn train<R: Rng>(
        &mut self,
        items: &[(Vec<Matrix>, usize)],
        val_items: Option<&[(Vec<Matrix>, usize)]>,
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
        for _epoch in 0..config.detector_max_epochs {
            let _epoch_span = lead_obs::clock::span(probe, "det.mlp.epoch");
            plan.reshuffle(rng);
            let mut total = 0.0f64;
            for &i in plan.order() {
                let (c_vecs, truth_idx) = &items[i];
                let mut g = Graph::new(&self.params);
                let logits: Vec<Var> = c_vecs.iter().map(|c| self.logit(&mut g, c)).collect();
                let row = g.concat_cols(&logits);
                let mut y = vec![0.0f32; c_vecs.len()];
                y[*truth_idx] = 1.0;
                let loss = g.bce_with_logits_loss(row, &Matrix::row_vector(y));
                total += g.scalar(loss) as f64;
                let grads = g.backward(loss);
                trainer.submit(&mut self.params, grads);
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
    pub fn evaluate(&self, items: &[(Vec<Matrix>, usize)]) -> f32 {
        assert!(!items.is_empty(), "evaluation needs samples");
        let mut total = 0.0f64;
        for (c_vecs, truth_idx) in items {
            let mut g = Graph::new(&self.params);
            let logits: Vec<Var> = c_vecs.iter().map(|c| self.logit(&mut g, c)).collect();
            let row = g.concat_cols(&logits);
            let mut y = vec![0.0f32; c_vecs.len()];
            y[*truth_idx] = 1.0;
            let loss = g.bce_with_logits_loss(row, &Matrix::row_vector(y));
            total += g.scalar(loss) as f64;
        }
        lead_nn::num::narrow_f64(total / items.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn probabilities_match_the_tape_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let det = MlpDetector::new(8, &mut rng);
        let c_vecs: Vec<Matrix> = (0..7).map(|s| cvec(0.1 * s as f32 - 0.3, 8, s)).collect();
        let got = det.probabilities(&c_vecs);
        assert_eq!(got.len(), c_vecs.len());
        for (c, p) in c_vecs.iter().zip(&got) {
            let mut g = Graph::new(&det.params);
            let z = det.logit(&mut g, c);
            let want = g.sigmoid(z);
            assert_eq!(p.to_bits(), g.value(want).at(0, 0).to_bits());
        }
        assert!(det.probabilities(&[]).is_empty());
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
