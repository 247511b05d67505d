//! Fully connected layer.

use crate::bptt::{TrainScratch, Work};
use crate::infer::zeroed;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{Gradients, ParamId, ParamSet};
use crate::simd::Kernel;
use crate::tape::{Graph, Var};
use rand::Rng;

/// A fully connected layer `y = x·W + b`.
///
/// `x` may be a T×in matrix (the bias broadcasts over rows), which is how the
/// paper's decompression operators map a whole hidden-state matrix through
/// shared fully connected layers (Equation (6)). Both the product and the
/// bias broadcast run on the dispatched SIMD kernels (`matmul_acc`/`axpy`)
/// in forward and backward passes.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim → out_dim` layer under `name`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = ps.register(format!("{name}.w"), xavier_uniform(rng, in_dim, out_dim));
        let b = ps.register(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a (rows × in_dim) node.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        debug_assert_eq!(g.value(x).cols(), self.in_dim, "linear input width");
        let w = g.param(self.w);
        let b = g.param(self.b);
        let xw = g.matmul(x, w);
        g.add_row_broadcast(xw, b)
    }

    /// Applies the layer to every row of `x` (`in_dim` wide) without a tape,
    /// writing `out` (`out_dim` wide); bit-identical to [`Self::forward`].
    ///
    /// # Panics
    /// Panics if `x` is not a whole number of `in_dim`-wide rows.
    pub fn infer(&self, ps: &ParamSet, x: &[f32], out: &mut Vec<f32>) {
        crate::infer::affine(x, ps.value(self.w), ps.value(self.b), out);
    }

    /// The backward pass of [`Self::infer`] over the rows of `x`, given the
    /// gradient `dy` of every output row: accumulates the weight and bias
    /// gradients into `grads` and writes the gradient of every input row to
    /// `dx`. Bit-identical to applying [`Self::forward`] to each row, in
    /// row order, on one tape and running [`crate::Graph::backward`]: the
    /// tape visits the rows last to first ([`crate::bptt`]).
    ///
    /// # Panics
    /// Panics if `x` and `dy` do not hold the same number of rows.
    pub fn train_backward(
        &self,
        ps: &ParamSet,
        x: &[f32],
        dy: &[f32],
        dx: &mut Vec<f32>,
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        self.backward_with(ps, x, dy, dx, grads, &mut scratch.work);
    }

    /// [`Self::train_backward`] over the temporaries alone, so a BiLSTM can
    /// run its merge layer backward next to the activations it keeps.
    pub(crate) fn backward_with(
        &self,
        ps: &ParamSet,
        x: &[f32],
        dy: &[f32],
        dx: &mut Vec<f32>,
        grads: &mut Gradients,
        work: &mut Work,
    ) {
        let (d, n) = (self.in_dim, self.out_dim);
        let rows = dy.len() / n;
        assert!(
            x.len() == rows * d && dy.len() == rows * n,
            "linear backward shapes"
        );
        let kernel = crate::simd::active();
        work.rows_a.clear();
        work.rows_b.clear();
        for (xr, dr) in x.chunks_exact(d).zip(dy.chunks_exact(n)).rev() {
            work.rows_a.extend_from_slice(xr);
            work.rows_b.extend_from_slice(dr);
        }
        let gw = grads.get_mut(self.w).data_mut();
        kernel.matmul_at_b_acc(&work.rows_a, &work.rows_b, gw, rows, d, n);
        let gb = grads.get_mut(self.b).data_mut();
        for dr in work.rows_b.chunks_exact(n) {
            kernel.axpy(1.0, dr, gb);
        }
        zeroed(dx, rows * d);
        kernel.matmul_a_bt_acc(dy, ps.value(self.w).data(), dx, rows, n, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let l = Linear::new(&mut ps, &mut rng, "l", 4, 2);
        let mut g = Graph::new(&ps);
        let x = g.constant(Matrix::full(3, 4, 0.5));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (3, 2));
        assert_eq!((l.in_dim(), l.out_dim()), (4, 2));
    }

    #[test]
    fn zero_weights_give_bias() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::zeros(2, 2));
        let b = ps.register("b", Matrix::from_vec(1, 2, vec![1.5, -0.5]));
        let l = Linear {
            w,
            b,
            in_dim: 2,
            out_dim: 2,
        };
        let mut g = Graph::new(&ps);
        let x = g.constant(Matrix::full(1, 2, 9.0));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).data(), &[1.5, -0.5]);
    }

    #[test]
    fn gradients_flow_to_both_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let l = Linear::new(&mut ps, &mut rng, "l", 3, 2);
        let x = Matrix::from_fn(2, 3, |r, c| 0.1 * (r * 3 + c) as f32 + 0.1);
        for target in [l.w, l.b] {
            let lc = l.clone();
            let xc = x.clone();
            gradcheck(&mut ps.clone(), target, 1e-2, 2e-2, move |g| {
                let xv = g.constant(xc.clone());
                let y = lc.forward(g, xv);
                let t = g.tanh(y);
                g.sum_all(t)
            });
        }
    }
}
