//! Trainable parameters and their gradient buffers.
//!
//! Layers own [`ParamId`] handles into a [`ParamSet`] arena. The tape
//! ([`crate::tape::Graph`]) reads parameter values from the set during the
//! forward pass and writes gradients into a separate [`Gradients`] buffer
//! during the backward pass, so the set itself stays immutable while a graph
//! is alive. Optimisers ([`crate::optim`]) consume a `Gradients` to update the
//! set.

use crate::matrix::Matrix;

/// Handle to a parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw arena index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// An arena of named trainable parameters.
#[derive(Debug, Default, Clone)]
pub struct ParamSet {
    values: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamSet {
    /// An empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value and a diagnostic name.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.into());
        ParamId(self.values.len() - 1)
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value (used by optimisers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A zeroed gradient buffer matching this set's shapes.
    pub fn zero_gradients(&self) -> Gradients {
        Gradients {
            grads: self
                .values
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
        }
    }

    /// Iterates over `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.values.iter().enumerate().map(|(i, m)| (ParamId(i), m))
    }
}

/// Gradient buffers aligned with a [`ParamSet`].
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<Matrix>,
}

impl Gradients {
    /// The gradient of a parameter.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Mutable access to the gradient of a parameter.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.grads[id.0]
    }

    /// Number of gradient buffers.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether the buffer set is empty.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Adds `other`'s gradients into `self` (gradient accumulation across the
    /// paper's `B = 64` consecutive samples).
    pub fn accumulate(&mut self, other: &Gradients) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "gradient arity mismatch"
        );
        for (g, o) in self.grads.iter_mut().zip(other.grads.iter()) {
            g.add_assign(o);
        }
    }

    /// Multiplies every gradient by `s` in place (averaging accumulated
    /// batches) via the dispatched `scale` kernel — no reallocation.
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.grads {
            g.scale_assign(s);
        }
    }

    /// Zeroes every buffer, keeping allocations.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Global L2 norm across all buffers (for gradient clipping).
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| {
                let n = g.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Rescales all gradients so the global norm is at most `max_norm`.
    ///
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.scale(s);
        }
        norm
    }

    /// Iterates over the raw gradient matrices in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads.iter().enumerate().map(|(i, m)| (ParamId(i), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::full(2, 2, 1.0));
        let b = ps.register("b", Matrix::zeros(1, 2));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.name(w), "w");
        assert_eq!(ps.value(b).shape(), (1, 2));
    }

    #[test]
    fn gradients_match_shapes() {
        let mut ps = ParamSet::new();
        ps.register("w", Matrix::zeros(3, 4));
        ps.register("b", Matrix::zeros(1, 4));
        let g = ps.zero_gradients();
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(ParamId(0)).shape(), (3, 4));
    }

    #[test]
    fn accumulate_and_scale() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::zeros(1, 2));
        let mut g1 = ps.zero_gradients();
        g1.get_mut(id).data_mut().copy_from_slice(&[1.0, 2.0]);
        let mut g2 = ps.zero_gradients();
        g2.get_mut(id).data_mut().copy_from_slice(&[3.0, 4.0]);
        g1.accumulate(&g2);
        assert_eq!(g1.get(id).data(), &[4.0, 6.0]);
        g1.scale(0.5);
        assert_eq!(g1.get(id).data(), &[2.0, 3.0]);
    }

    #[test]
    fn clip_global_norm_rescales() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::zeros(1, 2));
        let mut g = ps.zero_gradients();
        g.get_mut(id).data_mut().copy_from_slice(&[3.0, 4.0]);
        let pre = g.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
        // Direction preserved.
        let d = g.get(id).data();
        assert!((d[0] / d[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn clip_noop_when_under_limit() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::zeros(1, 2));
        let mut g = ps.zero_gradients();
        g.get_mut(id).data_mut().copy_from_slice(&[0.3, 0.4]);
        g.clip_global_norm(1.0);
        assert_eq!(g.get(id).data(), &[0.3, 0.4]);
    }
}
