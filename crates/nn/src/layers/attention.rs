//! The self-attention aggregation used inside the paper's compression
//! operators (Section IV-B, Equation (3)).
//!
//! The mechanism is query-from-last-hidden attention: the LSTM's final hidden
//! state forms the query, all hidden states form the keys, and the values are
//! the hidden states themselves. The attention weights say how much each step
//! contributes to the aggregated vector — the paper's remedy for long-range
//! feature sequences.

use crate::infer::affine;
use crate::init::xavier_uniform;
use crate::params::{ParamId, ParamSet};
use crate::simd::Kernel;
use crate::tape::{Graph, Var};
use rand::Rng;

/// Last-hidden-query self-attention over a hidden-state sequence.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    wq: ParamId,
    bq: ParamId,
    wk: ParamId,
    bk: ParamId,
    hidden: usize,
    key_dim: usize,
}

impl SelfAttention {
    /// Registers attention over `hidden`-wide states with `key_dim`-wide
    /// queries/keys under `name`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        hidden: usize,
        key_dim: usize,
    ) -> Self {
        let wq = ps.register(format!("{name}.wq"), xavier_uniform(rng, hidden, key_dim));
        let bq = ps.register(
            format!("{name}.bq"),
            crate::matrix::Matrix::zeros(1, key_dim),
        );
        let wk = ps.register(format!("{name}.wk"), xavier_uniform(rng, hidden, key_dim));
        let bk = ps.register(
            format!("{name}.bk"),
            crate::matrix::Matrix::zeros(1, key_dim),
        );
        Self {
            wq,
            bq,
            wk,
            bk,
            hidden,
            key_dim,
        }
    }

    /// Width of the aggregated output (equals the hidden width).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Width of the queries and keys.
    pub fn key_dim(&self) -> usize {
        self.key_dim
    }

    /// Aggregates a sequence of 1×hidden states into a single 1×hidden vector.
    ///
    /// Per Equation (3): `q = h_last·Wq + bq`, `K = H·Wk + bk`,
    /// `s = softmax(q·Kᵀ/√d_k)`, output `= s·H`. The scoring product uses
    /// the transpose-free `matmul_bt` op (one dispatched blocked `dot` per
    /// step) instead of materialising `Kᵀ`.
    ///
    /// # Panics
    /// Panics if `hs` is empty.
    pub fn aggregate(&self, g: &mut Graph, hs: &[Var]) -> Var {
        assert!(!hs.is_empty(), "attention over an empty sequence");
        let h_mat = g.concat_rows(hs); // T × hidden
                                       // lint: allow(panic, panic-path): hs non-empty is asserted at entry (documented # Panics)
        let last = *hs.last().expect("non-empty");
        let wq = g.param(self.wq);
        let bq = g.param(self.bq);
        let wk = g.param(self.wk);
        let bk = g.param(self.bk);
        let q0 = g.matmul(last, wq);
        let q = g.add_row_broadcast(q0, bq); // 1 × key_dim
        let k0 = g.matmul(h_mat, wk);
        let k = g.add_row_broadcast(k0, bk); // T × key_dim
        let scores0 = g.matmul_bt(q, k); // 1 × T, q·Kᵀ without the transpose
        let scores = g.scale(
            scores0,
            1.0 / crate::num::exact_usize_f32(self.key_dim).sqrt(),
        );
        let s = g.softmax_rows(scores); // 1 × T
        g.matmul(s, h_mat) // 1 × hidden
    }

    /// The key projections `H·Wk + bk` of every row of `hs` (`hidden`
    /// wide), without a tape. Keys depend only on their own row, so one
    /// projection serves every sequence (and every prefix) the rows belong
    /// to.
    ///
    /// # Panics
    /// Panics if `hs` is not a whole number of rows.
    pub fn infer_keys(&self, ps: &ParamSet, hs: &[f32], keys: &mut Vec<f32>) {
        affine(hs, ps.value(self.wk), ps.value(self.bk), keys);
    }

    /// The query projections `h·Wq + bq` of every row of `lasts` (each the
    /// last hidden state of the sequence it aggregates), without a tape.
    ///
    /// # Panics
    /// Panics if `lasts` is not a whole number of rows.
    pub fn infer_queries(&self, ps: &ParamSet, lasts: &[f32], queries: &mut Vec<f32>) {
        affine(lasts, ps.value(self.wq), ps.value(self.bq), queries);
    }

    /// Aggregates one sequence from its query (`key_dim` wide), its keys
    /// and its hidden states (one row per step), writing the 1×hidden
    /// output into `out`: the scores, softmax and weighted sum of
    /// [`Self::aggregate`], kernel for kernel. `scores` is scratch.
    ///
    /// # Panics
    /// Panics if `keys` and `values` disagree on the number of steps or
    /// hold none.
    pub fn infer_pool(
        &self,
        query: &[f32],
        keys: &[f32],
        values: &[f32],
        scores: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let steps = values.len() / self.hidden;
        assert!(
            steps > 0 && keys.len() == steps * self.key_dim,
            "attention over an empty or ragged sequence"
        );
        let kernel = crate::simd::active();
        scores.clear();
        // `0.0 + dot`, as the tape's zero-initialised q·Kᵀ accumulates it.
        scores.extend(
            keys.chunks_exact(self.key_dim)
                .map(|k| 0.0 + kernel.dot(query, k)),
        );
        kernel.scale(
            scores,
            1.0 / crate::num::exact_usize_f32(self.key_dim).sqrt(),
        );
        crate::matrix::softmax_in_place(scores);
        out.fill(0.0);
        kernel.matmul_acc(scores, values, out, 1, steps, self.hidden);
    }

    /// The attention distribution over steps (for diagnostics/tests).
    pub fn weights(&self, g: &mut Graph, hs: &[Var]) -> Var {
        assert!(!hs.is_empty(), "attention over an empty sequence");
        let h_mat = g.concat_rows(hs);
        // lint: allow(panic, panic-path): hs non-empty is asserted at entry (documented # Panics)
        let last = *hs.last().expect("non-empty");
        let wq = g.param(self.wq);
        let bq = g.param(self.bq);
        let wk = g.param(self.wk);
        let bk = g.param(self.bk);
        let q0 = g.matmul(last, wq);
        let q = g.add_row_broadcast(q0, bq);
        let k0 = g.matmul(h_mat, wk);
        let k = g.add_row_broadcast(k0, bk);
        let scores0 = g.matmul_bt(q, k);
        let scores = g.scale(
            scores0,
            1.0 / crate::num::exact_usize_f32(self.key_dim).sqrt(),
        );
        g.softmax_rows(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::testing::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn states(g: &mut Graph, t: usize, h: usize) -> Vec<Var> {
        (0..t)
            .map(|i| {
                g.constant(Matrix::from_fn(1, h, |_, c| {
                    ((i * 3 + c) as f32 * 0.41).sin() * 0.7
                }))
            })
            .collect()
    }

    #[test]
    fn aggregate_output_shape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(71);
        let att = SelfAttention::new(&mut ps, &mut rng, "a", 4, 4);
        let mut g = Graph::new(&ps);
        let hs = states(&mut g, 6, 4);
        let out = att.aggregate(&mut g, &hs);
        assert_eq!(g.value(out).shape(), (1, 4));
    }

    #[test]
    fn weights_form_distribution() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(73);
        let att = SelfAttention::new(&mut ps, &mut rng, "a", 4, 4);
        let mut g = Graph::new(&ps);
        let hs = states(&mut g, 5, 4);
        let w = att.weights(&mut g, &hs);
        let m = g.value(w);
        assert_eq!(m.shape(), (1, 5));
        assert!((m.sum() - 1.0).abs() < 1e-5);
        assert!(m.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn aggregate_is_convex_combination() {
        // The output must lie inside the convex hull of the hidden states:
        // for a single repeated state, the output equals that state.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(79);
        let att = SelfAttention::new(&mut ps, &mut rng, "a", 3, 3);
        let mut g = Graph::new(&ps);
        let s = Matrix::from_vec(1, 3, vec![0.2, -0.4, 0.6]);
        let hs: Vec<Var> = (0..4).map(|_| g.constant(s.clone())).collect();
        let out = att.aggregate(&mut g, &hs);
        for (a, b) in g.value(out).data().iter().zip(s.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn singleton_sequence_weight_is_one() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(83);
        let att = SelfAttention::new(&mut ps, &mut rng, "a", 3, 3);
        let mut g = Graph::new(&ps);
        let hs = states(&mut g, 1, 3);
        let w = att.weights(&mut g, &hs);
        assert!((g.value(w).at(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gradcheck_attention_params() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(89);
        let att = SelfAttention::new(&mut ps, &mut rng, "a", 3, 3);
        for target in [att.wq, att.wk, att.bq, att.bk] {
            let a = att.clone();
            gradcheck(&mut ps.clone(), target, 1e-2, 3e-2, move |g| {
                let hs = states(g, 4, 3);
                let out = a.aggregate(g, &hs);
                let sq = g.mul(out, out);
                g.sum_all(sq)
            });
        }
    }
}
