//! The forward/backward detector (Section V-B, Figure 7): a stacked BiLSTM
//! over each subgroup, a shared 1-unit output layer, and a per-subgroup
//! softmax (Equation (10)).
//!
//! One `GroupDetector` instance serves as the forward detector (fed forward
//! subgroups) and another as the backward detector (fed backward subgroups);
//! the two "share the same structure" but not parameters.

use crate::config::LeadConfig;
use lead_nn::bptt::TrainScratch;
use lead_nn::infer::{Packing, Scratch};
use lead_nn::layers::{Linear, StackedBiLstm};
use lead_nn::optim::Adam;
use lead_nn::train::{AccumTrainer, EarlyStopping, EpochPlan};
use lead_nn::{Gradients, Matrix, ParamSet};
#[cfg(any(test, feature = "reference"))]
use lead_nn::{Graph, Var};
use rand::Rng;
use std::borrow::Borrow;

/// One training item: a group's subgroup c-vec lists paired with its flat
/// ε-smoothed label distribution.
pub type GroupItem = (Vec<Vec<Matrix>>, Matrix);

/// A stacked-BiLSTM subgroup detector.
pub struct GroupDetector {
    params: ParamSet,
    stack: StackedBiLstm,
    out: Linear,
}

impl GroupDetector {
    /// Builds an untrained detector over `c_vec_dim`-wide compressed vectors
    /// with the configured `L` layers and 64 hidden units.
    pub fn new<R: Rng>(config: &LeadConfig, c_vec_dim: usize, rng: &mut R) -> Self {
        let mut ps = ParamSet::new();
        let stack = StackedBiLstm::new(
            &mut ps,
            rng,
            "det.stack",
            c_vec_dim,
            config.detector_hidden,
            config.detector_layers,
        );
        let out = Linear::new(&mut ps, rng, "det.out", config.detector_hidden, 1);
        Self {
            params: ps,
            stack,
            out,
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

    /// The flat probability distribution over one group, as values, without
    /// a tape; bit-identical to `Self::forward_graph`: the softmax of
    /// the logits of all the subgroups concatenated.
    ///
    /// # Panics
    /// Panics if the group or any subgroup is empty.
    pub fn probabilities(&self, subgroups: &[Vec<&Matrix>]) -> Vec<f32> {
        assert!(!subgroups.is_empty(), "empty group");
        let (lens, xs) = flatten(subgroups);
        softmax(self.logits(&lens, &xs))
    }

    /// The KLD loss of one group against its flat label distribution, and
    /// the gradient of every parameter, without a tape: one packed forward
    /// and backward pass over all the subgroups. `to_bits`-equal to
    /// `Self::forward_graph`, `Graph::kld_loss` and `Graph::backward`;
    /// training computes every item's gradients this way.
    ///
    /// # Panics
    /// Panics if the group or any subgroup is empty, or the label does not
    /// hold one entry per candidate.
    pub fn loss_and_gradients(
        &self,
        subgroups: &[Vec<&Matrix>],
        label: &Matrix,
    ) -> (f32, Gradients) {
        let (lens, xs) = flatten(subgroups);
        loss_and_gradients(
            &self.stack,
            &self.out,
            &self.params,
            &lens,
            &xs,
            label,
            &mut ItemScratch::default(),
        )
    }

    /// The logits of subgroups whose c-vecs are stored back to back in
    /// `xs`, subgroup `i` holding `lens[i]` rows, in the same order. All
    /// subgroups run through the stacked BiLSTM as one packed batch (they
    /// stay independent sequences), then through the output layer in one
    /// product. A subgroup's logits depend on its own members only, so they
    /// are the same bits in any batch.
    ///
    /// # Panics
    /// Panics if a subgroup is empty or `xs` does not hold the rows.
    pub(crate) fn logits(&self, lens: &[usize], xs: &[f32]) -> Vec<f32> {
        assert!(lens.iter().all(|&len| len > 0), "empty subgroup");
        let (mut hs, mut logits) = (Vec::new(), Vec::new());
        self.stack.infer(
            &self.params,
            &Packing::back_to_back(lens),
            xs,
            &mut hs,
            &mut Scratch::new(),
        );
        self.out.infer(&self.params, &hs, &mut logits);
        logits
    }

    /// Trains against ε-smoothed labels with the KLD loss (Equations
    /// (11)–(12)) and returns `(train_curve, val_curve)`: the per-epoch mean
    /// training KLD (Figure 10) and, when `val_items` is given, the
    /// per-epoch validation KLD.
    ///
    /// Each training item pairs a group (subgroup c-vec lists) with its flat
    /// label distribution (matching the group's flattening order). Early
    /// stopping observes the training loss: at this dataset scale the
    /// validation split is too small for its loss to be a reliable stopping
    /// signal (it is recorded for reporting and diagnostics).
    ///
    /// `probe` records a `{scope}.epoch` span plus `{scope}.epoch_kld` /
    /// `{scope}.epoch_val_kld` observations and the trainer's
    /// `{scope}.grad_norm` / `{scope}.optim_steps` (the pipeline uses scopes
    /// `det.fwd` and `det.bwd`). Metrics are write-only — the trained
    /// weights are identical for any probe.
    pub fn train<R: Rng>(
        &mut self,
        items: &[GroupItem],
        val_items: Option<&[GroupItem]>,
        config: &LeadConfig,
        rng: &mut R,
        probe: &dyn lead_obs::probe::Probe,
        scope: &str,
    ) -> (Vec<f32>, Vec<f32>) {
        assert!(!items.is_empty(), "detector training needs samples");
        // Metric names are dynamic (scope-prefixed); build them once up front
        // so the per-epoch hot loop never formats when a probe is attached —
        // and not at all when it is not.
        let names = probe.enabled().then(|| {
            (
                format!("{scope}.epoch"),
                format!("{scope}.epoch_kld"),
                format!("{scope}.epoch_val_kld"),
            )
        });
        let mut trainer = AccumTrainer::new(
            Adam::new(&self.params, config.learning_rate)
                .with_weight_decay(config.detector_weight_decay),
            config.batch_accumulation,
        )
        .with_clip_norm(config.grad_clip_norm)
        .with_probe(probe, scope);
        let mut stopper = EarlyStopping::new(config.early_stopping_patience, 1e-4);
        let mut plan = EpochPlan::new(items.len());
        let mut train_curve = Vec::new();
        let mut val_curve = Vec::new();
        let (stack, out) = (&self.stack, &self.out);
        for _epoch in 0..config.detector_max_epochs {
            let _epoch_span = names
                .as_ref()
                .map(|(epoch_name, _, _)| lead_obs::clock::span(probe, epoch_name));
            plan.reshuffle(rng);
            let mut total = 0.0f64;
            for window in plan.windows(config.batch_accumulation) {
                // Augmentation: jitter the frozen compressed vectors so the
                // detector cannot memorise exact embeddings of the (small)
                // training fleet. Noise is drawn serially, in item order,
                // straight into each item's flat input rows, *before* the
                // parallel window so the rng stream — and thus the whole
                // training trajectory — is identical to the serial
                // per-sample loop for every `num_threads`.
                let prepared: Vec<(Vec<usize>, Vec<f32>, &Matrix)> = window
                    .iter()
                    .map(|&i| {
                        let (group, label) = &items[i];
                        let (lens, mut xs) = flatten(group);
                        if config.cvec_noise_std > 0.0 {
                            for v in &mut xs {
                                *v += gauss(rng) * config.cvec_noise_std;
                            }
                        }
                        (lens, xs, label)
                    })
                    .collect();
                let losses = trainer.submit_window_with(
                    &mut self.params,
                    config.num_threads,
                    &prepared,
                    ItemScratch::default,
                    |scratch, _, (lens, xs, label), ps| {
                        loss_and_gradients(stack, out, ps, lens, xs, label, scratch)
                    },
                );
                for l in losses {
                    total += l as f64;
                }
            }
            trainer.flush(&mut self.params);
            let train_mean = lead_nn::num::narrow_f64(total / items.len() as f64);
            train_curve.push(train_mean);
            if let Some((_, kld_name, _)) = names.as_ref() {
                probe.observe(kld_name, f64::from(train_mean));
            }
            if let Some(v) = val_items {
                if !v.is_empty() {
                    let val_mean = self.evaluate_par(v, config.num_threads);
                    val_curve.push(val_mean);
                    if let Some((_, _, val_name)) = names.as_ref() {
                        probe.observe(val_name, f64::from(val_mean));
                    }
                }
            }
            if stopper.observe(train_mean) {
                break;
            }
        }
        (train_curve, val_curve)
    }

    /// Mean KLD over `items` without training.
    pub fn evaluate(&self, items: &[GroupItem]) -> f32 {
        self.evaluate_par(items, 1)
    }

    /// [`Self::evaluate`] on `num_threads` workers (0 = all cores). The sum
    /// over items runs in item order, so the result is bit-identical for
    /// every thread count.
    pub fn evaluate_par(&self, items: &[GroupItem], num_threads: usize) -> f32 {
        assert!(!items.is_empty(), "evaluation needs samples");
        let per_item = lead_nn::par::par_map(num_threads, items, |_, (group, label)| {
            let (lens, xs) = flatten(group);
            lead_nn::loss::kld(label.data(), &softmax(self.logits(&lens, &xs)))
        });
        let total: f64 = per_item.iter().map(|&l| l as f64).sum();
        lead_nn::num::narrow_f64(total / items.len() as f64)
    }
}

#[cfg(any(test, feature = "reference"))]
impl GroupDetector {
    /// Records the detector on `g` over one group (list of subgroups, each a
    /// list of c-vecs); returns the flat probability node (1 × m) over all
    /// candidates, in subgroup-concatenation order.
    ///
    /// Each subgroup is processed by the stacked BiLSTM **independently**
    /// (Equation (10)'s per-subgroup calculation, preserving the analogy
    /// relationships), but the softmax is taken over the *concatenated*
    /// logits of all subgroups rather than per subgroup. A literal
    /// per-subgroup softmax degenerates for singleton subgroups — the last
    /// forward subgroup `g_{n−1}` has one member whose probability would be
    /// pinned at exactly 1.0, making it the unconditional argmax whenever a
    /// single detector is used (the `LEAD-NoFor`/`-NoBac` ablations would be
    /// meaningless). The global softmax keeps the output a proper
    /// distribution matching the label distribution of Section V-C; see
    /// DESIGN.md for the full rationale.
    ///
    /// # Panics
    /// Panics if the group or any subgroup is empty.
    pub fn forward_graph(&self, g: &mut Graph, subgroups: &[Vec<&Matrix>]) -> Var {
        assert!(!subgroups.is_empty(), "empty group");
        let mut logits = Vec::with_capacity(subgroups.len());
        for sub in subgroups {
            assert!(!sub.is_empty(), "empty subgroup");
            let xs: Vec<Var> = sub.iter().map(|m| g.constant((*m).clone())).collect();
            let hs = self.stack.forward(g, &xs);
            let sub_logits: Vec<Var> = hs.iter().map(|&h| self.out.forward(g, h)).collect();
            logits.push(g.concat_cols(&sub_logits));
        }
        let row = g.concat_cols(&logits);
        g.softmax_rows(row)
    }
}

/// One training item's KLD loss and its gradients, by a packed forward
/// and backward pass over all the group's subgroups (each an independent
/// sequence, `lens[i]` c-vecs stored back to back in `xs`). The loss and
/// every gradient are `to_bits`-equal to [`GroupDetector::forward_graph`],
/// `Graph::kld_loss` and `Graph::backward`.
fn loss_and_gradients(
    stack: &StackedBiLstm,
    out: &Linear,
    ps: &ParamSet,
    lens: &[usize],
    xs: &[f32],
    label: &Matrix,
    s: &mut ItemScratch,
) -> (f32, Gradients) {
    assert!(!lens.is_empty(), "empty group");
    let pack = Packing::back_to_back(lens);
    stack.train_forward(ps, &pack, xs, &mut s.hs, &mut s.train);
    let mut logits = Vec::new();
    out.infer(ps, &s.hs, &mut logits);
    let q = softmax(logits);
    let loss = lead_nn::loss::kld(label.data(), &q);
    lead_nn::loss::kld_softmax_grad(label.data(), &q, &mut s.dlogits);
    let mut grads = ps.zero_gradients();
    out.train_backward(ps, &s.hs, &s.dlogits, &mut s.dhs, &mut grads, &mut s.train);
    stack.train_backward(ps, &pack, xs, &s.dhs, &mut grads, &mut s.train);
    (loss, grads)
}

/// One training worker's reusable buffers.
#[derive(Default)]
struct ItemScratch {
    train: TrainScratch,
    hs: Vec<f32>,
    dlogits: Vec<f32>,
    dhs: Vec<f32>,
}

/// A group's subgroup lengths and its c-vecs stored back to back.
fn flatten<M: Borrow<Matrix>>(group: &[Vec<M>]) -> (Vec<usize>, Vec<f32>) {
    let lens = group.iter().map(Vec::len).collect();
    let xs = group
        .iter()
        .flatten()
        .flat_map(|m| m.borrow().data().iter().copied())
        .collect();
    (lens, xs)
}

/// The softmax over a whole flattened group of logits: the distribution a
/// detector side outputs (see [`GroupDetector::forward_graph`]).
pub(crate) fn softmax(logits: Vec<f32>) -> Vec<f32> {
    let m = logits.len();
    Matrix::from_vec(1, m, logits)
        .softmax_rows()
        .data()
        .to_vec()
}

/// Standard normal sample (Box–Muller) for the c-vec augmentation.
fn gauss<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::{build_groups, forward_flat_order, smoothed_label};
    use crate::processing::Candidate;
    use lead_obs::probe::NOOP;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> LeadConfig {
        LeadConfig::fast_test()
    }

    /// c-vecs keyed by candidate; deterministic pseudo-random contents with a
    /// strong signature on the "true" candidate.
    fn cvecs_for(n: usize, dim: usize, truth: Candidate) -> Vec<Vec<Matrix>> {
        let groups = build_groups(n);
        groups
            .forward
            .iter()
            .map(|sub| {
                sub.iter()
                    .map(|c| {
                        Matrix::from_fn(1, dim, |_, k| {
                            let base =
                                ((c.start_sp * 31 + c.end_sp * 17 + k) as f32 * 0.7).sin() * 0.3;
                            if *c == truth && k < 4 {
                                base + 0.9
                            } else {
                                base
                            }
                        })
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn forward_graph_emits_a_distribution_over_all_candidates() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(11);
        let det = GroupDetector::new(&c, 8, &mut rng);
        let groups = cvecs_for(5, 8, Candidate::new(0, 2));
        let refs: Vec<Vec<&Matrix>> = groups.iter().map(|s| s.iter().collect()).collect();
        let p = det.probabilities(&refs);
        assert_eq!(p.len(), 10);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-5, "distribution sum {s}");
        assert!(p.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn singleton_subgroup_is_not_pinned_to_one() {
        // The global softmax must not give the lone member of the last
        // forward subgroup probability 1.0 (the per-subgroup degeneracy).
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(12);
        let det = GroupDetector::new(&c, 8, &mut rng);
        let groups = cvecs_for(4, 8, Candidate::new(0, 1));
        let refs: Vec<Vec<&Matrix>> = groups.iter().map(|s| s.iter().collect()).collect();
        let p = det.probabilities(&refs);
        // Last entry corresponds to the singleton subgroup g_{n−1}.
        assert!(*p.last().unwrap() < 0.99);
    }

    #[test]
    fn training_reduces_kld_and_finds_truth() {
        let mut c = cfg();
        c.detector_max_epochs = 30;
        c.learning_rate = 3e-3;
        c.batch_accumulation = 4;
        let mut rng = StdRng::seed_from_u64(13);
        let dim = 8;
        let n = 4;
        let truth = Candidate::new(1, 3);
        let mut det = GroupDetector::new(&c, dim, &mut rng);
        // Several samples with the same signature pattern.
        let items: Vec<(Vec<Vec<Matrix>>, Matrix)> = (0..6)
            .map(|_| {
                let groups = cvecs_for(n, dim, truth);
                let label = smoothed_label(&forward_flat_order(n), truth, c.label_epsilon);
                (groups, label)
            })
            .collect();
        let curve = det.train(&items, None, &c, &mut rng, &NOOP, "det").0;
        assert!(curve.last().unwrap() < &curve[0], "curve {curve:?}");

        let refs: Vec<Vec<&Matrix>> = items[0].0.iter().map(|s| s.iter().collect()).collect();
        let p = det.probabilities(&refs);
        let order = forward_flat_order(n);
        let best = order[p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0];
        assert_eq!(best, truth, "probs {p:?}");
    }

    #[test]
    fn evaluation_matches_the_tape() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(19);
        let det = GroupDetector::new(&c, 8, &mut rng);
        let items: Vec<GroupItem> = (3..7)
            .map(|n| {
                let truth = Candidate::new(0, n - 1);
                let label = smoothed_label(&forward_flat_order(n), truth, c.label_epsilon);
                (cvecs_for(n, 8, truth), label)
            })
            .collect();
        let mut total = 0.0f64;
        for (group, label) in &items {
            let refs: Vec<Vec<&Matrix>> = group.iter().map(|s| s.iter().collect()).collect();
            let mut g = Graph::new(det.params());
            let p = det.forward_graph(&mut g, &refs);
            let loss = g.kld_loss(p, label);
            total += f64::from(g.scalar(loss));
        }
        let want = lead_nn::num::narrow_f64(total / items.len() as f64);
        assert_eq!(det.evaluate(&items).to_bits(), want.to_bits());
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_rejected() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(17);
        let det = GroupDetector::new(&c, 4, &mut rng);
        let _ = det.probabilities(&[]);
    }
}
