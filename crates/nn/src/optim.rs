//! Optimisers: Adam (the paper's choice, learning rate 1e-4) and plain SGD.
//!
//! Both update loops run on the dispatched SIMD kernels: Adam through the
//! fused [`Kernel::adam_update`] (one call per parameter buffer), SGD through
//! `axpy` via `Matrix::add_scaled_assign` — so optimiser steps are
//! bit-identical across backends like the rest of the hot paths.

use crate::matrix::Matrix;
use crate::params::{Gradients, ParamSet};
use crate::simd::{self, AdamCoeffs, Kernel};

/// The Adam optimiser (Kingma & Ba 2014) with bias-corrected moment estimates.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default moments
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    pub fn new(params: &ParamSet, lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        let m = params
            .iter()
            .map(|(_, p)| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let v = params
            .iter()
            .map(|(_, p)| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m,
            v,
        }
    }

    /// Enables decoupled weight decay (AdamW, Loshchilov & Hutter): each step
    /// additionally shrinks parameters by `lr · decay`.
    pub fn with_weight_decay(mut self, decay: f32) -> Self {
        assert!(decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = decay;
        self
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update using `grads`.
    ///
    /// # Panics
    /// Panics if the parameter set has grown since the optimiser was created.
    pub fn step(&mut self, params: &mut ParamSet, grads: &Gradients) {
        assert_eq!(
            self.m.len(),
            params.len(),
            "optimiser state and parameter set diverged"
        );
        assert_eq!(grads.len(), params.len(), "gradient arity mismatch");
        self.t += 1;
        // powi saturates the exponent: beyond i32::MAX steps the bias
        // correction is 1.0 - beta^huge = 1.0 anyway.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let coeffs = AdamCoeffs {
            beta1: self.beta1,
            beta2: self.beta2,
            bc1: 1.0 - self.beta1.powi(t),
            bc2: 1.0 - self.beta2.powi(t),
            lr: self.lr,
            eps: self.eps,
            weight_decay: self.weight_decay,
        };
        let kernel = simd::active();
        for idx in 0..params.len() {
            let id = crate::params::ParamId(idx);
            let g = grads.get(id);
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            let p = params.value_mut(id);
            kernel.adam_update(p.data_mut(), g.data(), m.data_mut(), v.data_mut(), &coeffs);
        }
    }
}

/// Plain stochastic gradient descent, used in tests as a known-simple
/// reference optimiser.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }

    /// Applies `p -= lr · g` to every parameter.
    pub fn step(&self, params: &mut ParamSet, grads: &Gradients) {
        for (id, g) in grads.iter() {
            params.value_mut(id).add_scaled_assign(g, -self.lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Graph;

    /// Minimise ||w - target||² and check convergence.
    fn quadratic_descent<F: FnMut(&mut ParamSet, &Gradients)>(mut apply: F) -> f32 {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 2, vec![5.0, -3.0]));
        let target = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        for _ in 0..400 {
            let mut g = Graph::new(&ps);
            let wv = g.param(w);
            let loss = g.mse_loss(wv, &target);
            let grads = g.backward(loss);
            apply(&mut ps, &grads);
        }
        let d = ps.value(w).sub(&target);
        d.frobenius_norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let opt = Sgd::new(0.1);
        let dist = quadratic_descent(|ps, gr| opt.step(ps, gr));
        assert!(dist < 1e-3, "distance {dist}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut ps0 = ParamSet::new();
        ps0.register("w", Matrix::zeros(1, 2));
        let mut opt = Adam::new(&ps0, 0.05);
        let dist = quadratic_descent(|ps, gr| opt.step(ps, gr));
        assert!(dist < 1e-2, "distance {dist}");
        assert_eq!(opt.steps(), 400);
    }

    #[test]
    fn adam_first_step_size_is_about_lr() {
        // With bias correction, the very first Adam step has magnitude ≈ lr
        // regardless of gradient scale.
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(&ps, 0.01);
        let mut grads = ps.zero_gradients();
        grads.get_mut(w).data_mut()[0] = 123.0;
        opt.step(&mut ps, &grads);
        assert!((ps.value(w).at(0, 0).abs() - 0.01).abs() < 1e-4);
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient() {
        // With zero gradients, AdamW still decays weights toward zero; plain
        // Adam leaves them unchanged.
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![1.0]));
        let grads = ps.zero_gradients();

        let mut plain = Adam::new(&ps, 0.1);
        let mut ps_plain = ps.clone();
        plain.step(&mut ps_plain, &grads);
        assert_eq!(ps_plain.value(w).at(0, 0), 1.0);

        let mut decayed = Adam::new(&ps, 0.1).with_weight_decay(0.1);
        let mut ps_decay = ps.clone();
        decayed.step(&mut ps_decay, &grads);
        assert!((ps_decay.value(w).at(0, 0) - 0.99).abs() < 1e-6);
    }

    #[test]
    fn exploding_gradients_are_survivable_with_clipping() {
        use crate::train::AccumTrainer;
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 2, vec![0.1, -0.1]));
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.01), 1).with_clip_norm(1.0);
        for _ in 0..5 {
            let mut g = ps.zero_gradients();
            g.get_mut(w).data_mut().copy_from_slice(&[1e20, -1e20]);
            tr.submit(&mut ps, g);
        }
        assert!(ps.value(w).data().iter().all(|v| v.is_finite()));
        // Clipped steps are bounded: 5 steps of ≤ lr each.
        assert!(ps.value(w).frobenius_norm() < 1.0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let ps = ParamSet::new();
        let _ = Adam::new(&ps, 0.0);
    }
}
