//! Fully connected layer.

use crate::bptt::{TrainScratch, Work};
use crate::infer::zeroed;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{Gradients, ParamId, ParamSet};
use crate::simd::Kernel;
#[cfg(any(test, feature = "reference"))]
use crate::tape::{Graph, Var};
use rand::Rng;
use std::ops::Range;

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

    /// Applies the layer to every row of `x` (`in_dim` wide) without a tape,
    /// writing `out` (`out_dim` wide); bit-identical to `Self::forward`.
    ///
    /// # Panics
    /// Panics if `x` is not a whole number of `in_dim`-wide rows.
    pub fn infer(&self, ps: &ParamSet, x: &[f32], out: &mut Vec<f32>) {
        crate::infer::affine(x, ps.value(self.w), ps.value(self.b), out);
    }

    /// The backward pass of [`Self::infer`] over the rows of `x`, given the
    /// gradient `dy` of every output row: accumulates the weight and bias
    /// gradients into `grads` and writes the gradient of every input row to
    /// `dx`. Bit-identical to applying `Self::forward` to each row, in
    /// row order, on one tape and running `Graph::backward`: the
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
        let visits = rows_last_first(dy.len() / self.out_dim);
        self.backward_with(ps, x, dy, visits, dx, grads, &mut scratch.work);
    }

    /// [`Self::train_backward`] for a layer applied once to each block of
    /// consecutive rows, `blocks[i]` rows long, in block order: bit-identical
    /// to one `Self::forward` on each block's matrix, as the paper's
    /// decompression operators apply their FC layers to a whole T×hidden
    /// matrix. The tape visits the blocks last to first, and the rows of
    /// one block in ascending order.
    ///
    /// # Panics
    /// Panics if `x` and `dy` do not hold the same number of rows, or the
    /// blocks do not cover them.
    pub fn train_backward_blocks(
        &self,
        ps: &ParamSet,
        x: &[f32],
        dy: &[f32],
        blocks: &[usize],
        dx: &mut Vec<f32>,
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        assert_eq!(
            blocks.iter().sum::<usize>() * self.out_dim,
            dy.len(),
            "linear backward blocks"
        );
        let mut end = dy.len() / self.out_dim;
        let visits = blocks.iter().rev().map(|&len| {
            end -= len;
            end..end + len
        });
        self.backward_with(ps, x, dy, visits, dx, grads, &mut scratch.work);
    }

    /// The backward pass over the temporaries alone, so a BiLSTM can run
    /// its merge layer backward next to the activations it keeps. `visits`
    /// lists the row ranges in the order the tape adds their weight and
    /// bias terms.
    pub(crate) fn backward_with(
        &self,
        ps: &ParamSet,
        x: &[f32],
        dy: &[f32],
        visits: impl Iterator<Item = Range<usize>>,
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
        for r in visits {
            work.rows_a.extend_from_slice(&x[r.start * d..r.end * d]);
            work.rows_b.extend_from_slice(&dy[r.start * n..r.end * n]);
        }
        assert_eq!(work.rows_b.len(), dy.len(), "linear backward visits");
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

#[cfg(any(test, feature = "reference"))]
impl Linear {
    /// Applies the layer to a (rows × in_dim) node.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        debug_assert_eq!(g.value(x).cols(), self.in_dim, "linear input width");
        let w = g.param(self.w);
        let b = g.param(self.b);
        let xw = g.matmul(x, w);
        g.add_row_broadcast(xw, b)
    }
}

/// The visit order of a layer applied to each of `rows` rows on its own,
/// in row order: the tape visits the last row first.
pub(crate) fn rows_last_first(rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..rows).rev().map(|r| r..r + 1)
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
