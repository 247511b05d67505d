//! Training-loop helpers: gradient accumulation over consecutive samples and
//! early stopping.
//!
//! The paper trains with batch size 1 (inputs have variable shapes) but
//! back-propagates the *average* loss of `B = 64` consecutive samples as one
//! optimiser step. [`AccumTrainer`] reproduces that exactly: a window of
//! samples ([`AccumTrainer::submit_window_with`]) submits one gradient per
//! sample, in sample order; every `B` submissions the mean gradient
//! (optionally clipped) is applied. Every float loop in the accumulate → average → clip →
//! step pipeline runs on the dispatched SIMD kernels (`axpy`, `scale`, `dot`,
//! `adam_update`), so training is bit-identical across backends.

use crate::optim::Adam;
use crate::params::{Gradients, ParamSet};
use lead_obs::probe::{Probe, NOOP};

/// Accumulates per-sample gradients and steps the optimiser every
/// `batch` submissions with the batch-mean gradient.
///
/// An optional [`Probe`] (see [`AccumTrainer::with_probe`]) receives the
/// pre-clip gradient norm and an optimiser-step counter on every applied
/// batch. Metric values are write-only: training is bit-identical with and
/// without a recording probe attached.
pub struct AccumTrainer<'p> {
    opt: Adam,
    batch: usize,
    clip_norm: Option<f32>,
    acc: Option<Gradients>,
    pending: usize,
    probe: &'p dyn Probe,
    scope: String,
}

impl std::fmt::Debug for AccumTrainer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccumTrainer")
            .field("opt", &self.opt)
            .field("batch", &self.batch)
            .field("clip_norm", &self.clip_norm)
            .field("pending", &self.pending)
            .field("scope", &self.scope)
            .finish_non_exhaustive()
    }
}

impl AccumTrainer<'static> {
    /// Creates a trainer stepping every `batch` samples (unprobed).
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    pub fn new(opt: Adam, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        Self {
            opt,
            batch,
            clip_norm: None,
            acc: None,
            pending: 0,
            probe: &NOOP,
            scope: String::new(),
        }
    }
}

impl<'p> AccumTrainer<'p> {
    /// Enables global-norm gradient clipping at `max_norm` before each step.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        self.clip_norm = Some(max_norm);
        self
    }

    /// Attaches an observability probe. Each applied batch emits the
    /// pre-clip gradient norm as `<scope>.grad_norm` and bumps
    /// `<scope>.optim_steps`.
    pub fn with_probe<'q>(self, probe: &'q dyn Probe, scope: &str) -> AccumTrainer<'q> {
        AccumTrainer {
            opt: self.opt,
            batch: self.batch,
            clip_norm: self.clip_norm,
            acc: self.acc,
            pending: self.pending,
            probe,
            scope: scope.to_string(),
        }
    }

    /// Number of optimiser steps taken so far.
    pub fn steps(&self) -> u64 {
        self.opt.steps()
    }

    /// Submits one sample's gradients; steps the optimiser when the batch
    /// fills.
    pub(crate) fn submit(&mut self, params: &mut ParamSet, grads: Gradients) {
        match &mut self.acc {
            Some(acc) => acc.accumulate(&grads),
            None => self.acc = Some(grads),
        }
        self.pending += 1;
        if self.pending >= self.batch {
            self.apply(params);
        }
    }

    /// Runs one accumulation window data-parallel: computes every item's
    /// `(loss, gradients)` with `f` against the shared read-only parameter
    /// snapshot, each worker reusing its own state built by `init` (see
    /// [`crate::par::par_map_with`]), then submits the gradients **in item
    /// order**. Because the reduction order is fixed and each item's
    /// arithmetic is independent of thread interleaving, the resulting
    /// parameters (and the returned per-item losses) are bit-identical for
    /// every `num_threads`, including the exact serial path at
    /// `num_threads = 1`.
    ///
    /// Windows of at most `batch` items, starting on a batch boundary, land
    /// the optimiser steps on the sample boundaries of a serial loop that
    /// submits one sample at a time, so the two give the same bits.
    pub fn submit_window_with<T, S, I, F>(
        &mut self,
        params: &mut ParamSet,
        num_threads: usize,
        items: &[T],
        init: I,
        f: F,
    ) -> Vec<f32>
    where
        T: Sync,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T, &ParamSet) -> (f32, Gradients) + Sync,
    {
        let snapshot: &ParamSet = params;
        let results = crate::par::par_map_with(num_threads, items, init, |state, i, item| {
            f(state, i, item, snapshot)
        });
        let mut losses = Vec::with_capacity(results.len());
        for (loss, grads) in results {
            losses.push(loss);
            self.submit(params, grads);
        }
        losses
    }

    /// Applies any partially filled batch (end of epoch).
    pub fn flush(&mut self, params: &mut ParamSet) {
        if self.pending > 0 {
            self.apply(params);
        }
    }

    fn apply(&mut self, params: &mut ParamSet) {
        // No accumulator means no pending examples: nothing to apply.
        let Some(mut acc) = self.acc.take() else {
            self.pending = 0;
            return;
        };
        acc.scale(1.0 / crate::num::exact_usize_f32(self.pending));
        let probing = self.probe.enabled();
        if let Some(max) = self.clip_norm {
            // The pre-clip norm is computed by the clip either way; only the
            // probe emission is conditional, so results never depend on it.
            let pre_clip = acc.clip_global_norm(max);
            if probing {
                self.probe
                    .observe(&format!("{}.grad_norm", self.scope), f64::from(pre_clip));
            }
        } else if probing {
            self.probe.observe(
                &format!("{}.grad_norm", self.scope),
                f64::from(acc.global_norm()),
            );
        }
        if probing {
            self.probe.count(&format!("{}.optim_steps", self.scope), 1);
        }
        self.opt.step(params, &acc);
        self.pending = 0;
    }
}

/// The per-epoch visit order of a training set: a persistent permutation
/// that is reshuffled in place at the top of every epoch.
///
/// Persistence is part of the determinism contract. The training loops
/// shuffle the *previous* epoch's order rather than a fresh identity
/// permutation; rebuilding from identity each epoch would consume the same
/// RNG draws but visit samples in a different sequence, changing gradient
/// order and breaking bit-for-bit reproducibility with the historical
/// loops. `EpochPlan` encapsulates that invariant so every loop (and any
/// future streaming consumer) shares one implementation.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    order: Vec<usize>,
}

impl EpochPlan {
    /// A plan over `len` samples, starting as the identity permutation.
    pub fn new(len: usize) -> Self {
        Self {
            order: (0..len).collect(),
        }
    }

    /// Reshuffles the current order in place (Fisher–Yates, one draw per
    /// element past the first — identical RNG consumption for any content).
    pub fn reshuffle<R: rand::RngCore + ?Sized>(&mut self, rng: &mut R) {
        use rand::seq::SliceRandom;
        self.order.shuffle(rng);
    }

    /// The current visit order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The current order split into accumulation windows of at most
    /// `batch` samples (the last may be shorter).
    pub fn windows(&self, batch: usize) -> std::slice::Chunks<'_, usize> {
        self.order.chunks(batch)
    }

    /// Number of samples the plan covers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the plan covers no samples.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Early stopping on a validation (or training) loss (Caruana et al. 2000),
/// the paper's overfitting guard.
#[derive(Debug, Clone)]
pub struct EarlyStopping {
    patience: usize,
    min_delta: f32,
    best: f32,
    best_epoch: usize,
    epochs_seen: usize,
    bad_streak: usize,
}

impl EarlyStopping {
    /// Stops after `patience` consecutive epochs without improving the best
    /// loss by at least `min_delta`.
    pub fn new(patience: usize, min_delta: f32) -> Self {
        assert!(patience > 0, "patience must be positive");
        Self {
            patience,
            min_delta,
            best: f32::INFINITY,
            best_epoch: 0,
            epochs_seen: 0,
            bad_streak: 0,
        }
    }

    /// Records one epoch's loss; returns `true` when training should stop.
    pub fn observe(&mut self, loss: f32) -> bool {
        self.epochs_seen += 1;
        if loss < self.best - self.min_delta {
            self.best = loss;
            self.best_epoch = self.epochs_seen;
            self.bad_streak = 0;
        } else {
            self.bad_streak += 1;
        }
        self.bad_streak >= self.patience
    }

    /// The best loss observed.
    pub fn best(&self) -> f32 {
        self.best
    }

    /// The 1-based epoch at which the best loss was observed (0 before any
    /// observation).
    pub fn best_epoch(&self) -> usize {
        self.best_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::tape::Graph;

    #[test]
    fn accum_trainer_steps_once_per_batch() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::zeros(1, 1));
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.01), 4);
        for i in 0..8 {
            let mut g = ps.zero_gradients();
            g.get_mut(w).data_mut()[0] = 1.0;
            tr.submit(&mut ps, g);
            let expect = (i + 1) / 4;
            assert_eq!(tr.steps(), expect as u64, "after sample {i}");
        }
    }

    #[test]
    fn flush_applies_partial_batch() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::zeros(1, 1));
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.01), 64);
        let mut g = ps.zero_gradients();
        g.get_mut(w).data_mut()[0] = 1.0;
        tr.submit(&mut ps, g);
        assert_eq!(tr.steps(), 0);
        tr.flush(&mut ps);
        assert_eq!(tr.steps(), 1);
        tr.flush(&mut ps); // idempotent when nothing pending
        assert_eq!(tr.steps(), 1);
    }

    #[test]
    fn accumulated_mean_matches_single_large_batch() {
        // Two samples with gradients 1 and 3 must step with mean 2.
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::zeros(1, 1));
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.01), 2);
        for v in [1.0, 3.0] {
            let mut g = ps.zero_gradients();
            g.get_mut(w).data_mut()[0] = v;
            tr.submit(&mut ps, g);
        }
        // Compare to Adam stepped directly with gradient 2.0 (first Adam step
        // size depends only on sign for constant gradients, so compare values).
        let mut ps2 = ParamSet::new();
        let w2 = ps2.register("w", Matrix::zeros(1, 1));
        let mut opt = Adam::new(&ps2, 0.01);
        let mut g = ps2.zero_gradients();
        g.get_mut(w2).data_mut()[0] = 2.0;
        opt.step(&mut ps2, &g);
        assert!((ps.value(w).at(0, 0) - ps2.value(w2).at(0, 0)).abs() < 1e-7);
    }

    #[test]
    fn trainer_reduces_real_loss() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 2, vec![2.0, -2.0]));
        let target = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.05), 8).with_clip_norm(5.0);
        let loss_at = |ps: &ParamSet| {
            let mut g = Graph::new(ps);
            let wv = g.param(w);
            let l = g.mse_loss(wv, &target);
            g.scalar(l)
        };
        let before = loss_at(&ps);
        for _ in 0..1600 {
            let mut g = Graph::new(&ps);
            let wv = g.param(w);
            let l = g.mse_loss(wv, &target);
            let grads = g.backward(l);
            tr.submit(&mut ps, grads);
        }
        tr.flush(&mut ps);
        assert!(loss_at(&ps) < before * 0.01);
    }

    #[test]
    fn submit_window_matches_per_sample_submit_bitwise() {
        let targets: Vec<Matrix> = (0..10)
            .map(|i| Matrix::from_vec(1, 2, vec![i as f32 * 0.1, 1.0 - i as f32 * 0.05]))
            .collect();
        let run = |threads: usize, windowed: bool| -> (Vec<u32>, Vec<f32>) {
            let mut ps = ParamSet::new();
            let w = ps.register("w", Matrix::from_vec(1, 2, vec![0.7, -0.4]));
            let mut tr = AccumTrainer::new(Adam::new(&ps, 0.05), 4).with_clip_norm(5.0);
            let item_pass = |(): &mut (), _: usize, target: &Matrix, ps: &ParamSet| {
                let mut g = Graph::new(ps);
                let wv = g.param(w);
                let l = g.mse_loss(wv, target);
                let loss = g.scalar(l);
                (loss, g.backward(l))
            };
            let mut losses = Vec::new();
            for _ in 0..3 {
                if windowed {
                    for chunk in targets.chunks(4) {
                        losses.extend(tr.submit_window_with(
                            &mut ps,
                            threads,
                            chunk,
                            || (),
                            item_pass,
                        ));
                    }
                } else {
                    for (i, t) in targets.iter().enumerate() {
                        let (loss, grads) = item_pass(&mut (), i, t, &ps);
                        losses.push(loss);
                        tr.submit(&mut ps, grads);
                    }
                }
                tr.flush(&mut ps);
            }
            let bits = ps.value(w).data().iter().map(|v| v.to_bits()).collect();
            (bits, losses)
        };
        let reference = run(1, false);
        for threads in [1, 2, 4] {
            assert_eq!(run(threads, true), reference, "threads={threads}");
        }
    }

    #[test]
    fn probed_training_is_bit_identical_and_records_norms() {
        use lead_obs::Recorder;
        let targets: Vec<Matrix> = (0..6)
            .map(|i| Matrix::from_vec(1, 2, vec![i as f32 * 0.2, -0.3]))
            .collect();
        let run = |probe: Option<&Recorder>| -> Vec<u32> {
            let mut ps = ParamSet::new();
            let w = ps.register("w", Matrix::from_vec(1, 2, vec![0.7, -0.4]));
            let tr = AccumTrainer::new(Adam::new(&ps, 0.05), 2).with_clip_norm(5.0);
            let mut tr = match probe {
                Some(p) => tr.with_probe(p, "t"),
                None => tr,
            };
            for target in &targets {
                let mut g = Graph::new(&ps);
                let wv = g.param(w);
                let l = g.mse_loss(wv, target);
                let grads = g.backward(l);
                tr.submit(&mut ps, grads);
            }
            tr.flush(&mut ps);
            ps.value(w).data().iter().map(|v| v.to_bits()).collect()
        };
        let rec = Recorder::new();
        assert_eq!(run(None), run(Some(&rec)), "probe changed the arithmetic");
        assert_eq!(rec.counter("t.optim_steps"), Some(3));
        let snap = rec.snapshot();
        let (name, norms) = &snap.histograms[0];
        assert_eq!(name, "t.grad_norm");
        assert_eq!(norms.count, 3);
        assert!(norms.min >= 0.0);
    }

    #[test]
    fn early_stopping_triggers_after_patience() {
        let mut es = EarlyStopping::new(3, 0.0);
        assert!(!es.observe(1.0));
        assert!(!es.observe(0.5)); // improvement
        assert!(!es.observe(0.6));
        assert!(!es.observe(0.7));
        assert!(es.observe(0.8)); // third bad epoch
        assert_eq!(es.best(), 0.5);
        assert_eq!(es.best_epoch(), 2);
    }

    #[test]
    fn early_stopping_min_delta_counts_tiny_gains_as_bad() {
        let mut es = EarlyStopping::new(2, 0.1);
        assert!(!es.observe(1.0));
        assert!(!es.observe(0.99)); // gain < min_delta → bad epoch 1
        assert!(es.observe(0.98)); // bad epoch 2 → stop
    }

    #[test]
    fn epoch_plan_matches_the_historical_inline_shuffle() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        // The pre-EpochPlan loops kept one order vec alive across epochs and
        // shuffled it in place; the plan must reproduce that sequence of
        // permutations exactly, draw for draw.
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let mut order: Vec<usize> = (0..23).collect();
        let mut plan = EpochPlan::new(23);
        assert_eq!(plan.order(), order.as_slice());
        for _ in 0..5 {
            order.shuffle(&mut rng_a);
            plan.reshuffle(&mut rng_b);
            assert_eq!(plan.order(), order.as_slice());
            let chunked: Vec<&[usize]> = order.chunks(4).collect();
            let windows: Vec<&[usize]> = plan.windows(4).collect();
            assert_eq!(windows, chunked);
        }
        assert_eq!(plan.len(), 23);
        assert!(!plan.is_empty());
        assert!(EpochPlan::new(0).is_empty());
    }
}
