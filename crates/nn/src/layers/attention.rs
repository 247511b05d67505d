//! The self-attention aggregation used inside the paper's compression
//! operators (Section IV-B, Equation (3)).
//!
//! The mechanism is query-from-last-hidden attention: the LSTM's final hidden
//! state forms the query, all hidden states form the keys, and the values are
//! the hidden states themselves. The attention weights say how much each step
//! contributes to the aggregated vector — the paper's remedy for long-range
//! feature sequences.

use crate::bptt::{AttentionActs, TrainScratch};
use crate::infer::{affine, zeroed};
use crate::init::xavier_uniform;
use crate::params::{Gradients, ParamId, ParamSet};
use crate::simd::Kernel;
#[cfg(any(test, feature = "reference"))]
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
    /// `Self::aggregate`, kernel for kernel. `scores` is scratch.
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
        kernel.scale(scores, self.score_scale());
        crate::matrix::softmax_in_place(scores);
        out.fill(0.0);
        kernel.matmul_acc(scores, values, out, 1, steps, self.hidden);
    }

    /// The score scale `1/√d_k`.
    fn score_scale(&self) -> f32 {
        1.0 / crate::num::exact_usize_f32(self.key_dim).sqrt()
    }

    /// Pools every sequence of a packed batch without a tape, keeping what
    /// [`Self::train_backward`] needs in `acts`: `hs` holds the hidden rows
    /// of sequences stored back to back, sequence `i` holding `lens[i]`
    /// rows, and row `i` of `pooled` (`hidden` wide) receives sequence
    /// `i`'s aggregate. Bit-identical to `Self::aggregate` on each
    /// sequence.
    ///
    /// # Panics
    /// Panics if a sequence is empty or the lengths do not cover `hs`.
    pub fn train_forward(
        &self,
        ps: &ParamSet,
        lens: &[usize],
        hs: &[f32],
        acts: &mut AttentionActs,
        pooled: &mut Vec<f32>,
    ) {
        let (h, kd) = (self.hidden, self.key_dim);
        let rows: usize = lens.iter().sum();
        assert!(
            hs.len() == rows * h && lens.iter().all(|&len| len > 0),
            "attention over an empty or ragged sequence"
        );
        acts.lasts.clear();
        let mut end = 0;
        for &len in lens {
            end += len;
            acts.lasts.extend_from_slice(&hs[(end - 1) * h..end * h]);
        }
        self.infer_queries(ps, &acts.lasts, &mut acts.queries);
        self.infer_keys(ps, hs, &mut acts.keys);
        acts.weights.clear();
        zeroed(pooled, lens.len() * h);
        let (mut r0, mut scores) = (0, Vec::new());
        for (i, &len) in lens.iter().enumerate() {
            let r = r0..r0 + len;
            self.infer_pool(
                &acts.queries[i * kd..(i + 1) * kd],
                &acts.keys[r.start * kd..r.end * kd],
                &hs[r.start * h..r.end * h],
                &mut scores,
                &mut pooled[i * h..(i + 1) * h],
            );
            acts.weights.extend_from_slice(&scores);
            r0 = r.end;
        }
    }

    /// The backward half of [`Self::train_forward`], run on the same `lens`,
    /// `hs` and `acts`, from `dpooled`, the gradient of every pooled row:
    /// accumulates the gradients of the query and key projections into
    /// `grads` and writes the gradient of every hidden row to `dh`.
    ///
    /// `to_bits`-equal to `Self::aggregate` on each sequence, in
    /// sequence order, on one tape and `Graph::backward`. The tape
    /// visits the last sequence first. Within one sequence, a hidden row
    /// receives `(0 + sᵀ·g) + dK·Wkᵀ` through the stacked matrix, and the
    /// last row then adds the query's `dq·Wqᵀ`. The key projection's
    /// weight gradient takes one sequence's rows in ascending order, and
    /// both biases sum rows in ascending order.
    ///
    /// # Panics
    /// Panics if the shapes do not match the forward pass.
    #[expect(clippy::too_many_arguments, reason = "mirrors train_forward")]
    pub fn train_backward(
        &self,
        ps: &ParamSet,
        lens: &[usize],
        hs: &[f32],
        acts: &AttentionActs,
        dpooled: &[f32],
        dh: &mut Vec<f32>,
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        let (h, kd) = (self.hidden, self.key_dim);
        let rows = acts.weights.len();
        assert!(
            hs.len() == rows * h && dpooled.len() == lens.len() * h,
            "attention backward shapes"
        );
        let kernel = crate::simd::active();
        let (wq, wk) = (ps.value(self.wq).data(), ps.value(self.wk).data());
        let w = &mut scratch.work;
        zeroed(dh, rows * h);
        zeroed(&mut w.dk, rows * kd);
        zeroed(&mut w.dq, lens.len() * kd);
        let mut r1 = rows;
        for (i, &len) in lens.iter().enumerate().rev() {
            let r = r1 - len..r1;
            r1 = r.start;
            let g = &dpooled[i * h..(i + 1) * h];
            let values = &hs[r.start * h..r.end * h];
            let weights = &acts.weights[r.clone()];
            let dh_mat = &mut dh[r.start * h..r.end * h];
            let dk = &mut w.dk[r.start * kd..r.end * kd];
            let dq = &mut w.dq[i * kd..(i + 1) * kd];
            // The weighted sum `s·H`: into the scores and the stacked rows.
            zeroed(&mut w.ds, len);
            kernel.matmul_a_bt_acc(g, values, &mut w.ds, 1, h, len);
            kernel.matmul_at_b_acc(weights, g, dh_mat, 1, len, h);
            // Softmax, then the score scale into a fresh slot.
            zeroed(&mut w.dscores, len);
            crate::loss::softmax_grad(&w.ds, weights, &mut w.dscores);
            zeroed(&mut w.ds, len);
            kernel.axpy(self.score_scale(), &w.dscores, &mut w.ds);
            // `q·Kᵀ`: into the query and every key.
            kernel.matmul_acc(&w.ds, &acts.keys[r.start * kd..r.end * kd], dq, 1, len, kd);
            let q = &acts.queries[i * kd..(i + 1) * kd];
            kernel.matmul_at_b_acc(&w.ds, q, dk, 1, len, kd);
            // The key projection: its bias, then the stacked rows.
            let gbk = grads.get_mut(self.bk).data_mut();
            for dk_row in dk.chunks_exact(kd) {
                kernel.axpy(1.0, dk_row, gbk);
            }
            kernel.matmul_a_bt_acc(dk, wk, dh_mat, len, kd, h);
            // The query projection: its bias, then the last row.
            kernel.axpy(1.0, dq, grads.get_mut(self.bq).data_mut());
            zeroed(&mut w.dlast, h);
            kernel.matmul_a_bt_acc(dq, wq, &mut w.dlast, 1, kd, h);
            kernel.axpy(1.0, &w.dlast, &mut dh_mat[(len - 1) * h..]);
        }
        // The weights, last sequence first: its key rows in ascending
        // order, and its last row for the query.
        w.rows_a.clear();
        w.rows_b.clear();
        let mut r1 = rows;
        for &len in lens.iter().rev() {
            let r = r1 - len..r1;
            r1 = r.start;
            w.rows_a.extend_from_slice(&hs[r.start * h..r.end * h]);
            w.rows_b.extend_from_slice(&w.dk[r.start * kd..r.end * kd]);
        }
        let gwk = grads.get_mut(self.wk).data_mut();
        kernel.matmul_at_b_acc(&w.rows_a, &w.rows_b, gwk, rows, h, kd);
        w.rows_a.clear();
        w.rows_b.clear();
        let lasts = acts.lasts.chunks_exact(h).zip(w.dq.chunks_exact(kd));
        for (last, dq) in lasts.rev() {
            w.rows_a.extend_from_slice(last);
            w.rows_b.extend_from_slice(dq);
        }
        let gwq = grads.get_mut(self.wq).data_mut();
        kernel.matmul_at_b_acc(&w.rows_a, &w.rows_b, gwq, lens.len(), h, kd);
    }
}

#[cfg(any(test, feature = "reference"))]
impl SelfAttention {
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
        #[expect(
            clippy::expect_used,
            reason = "hs non-empty is asserted at entry (documented # Panics)"
        )]
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

    /// The attention distribution over steps (for diagnostics/tests).
    pub fn weights(&self, g: &mut Graph, hs: &[Var]) -> Var {
        assert!(!hs.is_empty(), "attention over an empty sequence");
        let h_mat = g.concat_rows(hs);
        #[expect(
            clippy::expect_used,
            reason = "hs non-empty is asserted at entry (documented # Panics)"
        )]
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
