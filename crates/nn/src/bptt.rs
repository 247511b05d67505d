//! Tape-free training over packed batches: the backward half of
//! [`crate::infer`].
//!
//! The layers' `train_forward` methods run the same packed forward pass as
//! `infer` and keep what the backward pass needs: every LSTM step's gates,
//! cell, `tanh(cell)` and hidden rows ([`LstmActs`]), each attention
//! pooling's queries, keys and weights ([`AttentionActs`]), and each BiLSTM
//! layer's merge input. Their `train_backward` methods are hand-written
//! backpropagation through time: they take the gradient of every output
//! row and accumulate the parameter gradients into a [`crate::Gradients`].
//! A [`TrainScratch`] holds both passes' temporaries. The stacked-BiLSTM
//! detectors and the autoencoder's operators (LSTM, attention pooling,
//! repeated-input LSTM under [`Packing::repeated`], `Linear`, MSE) train
//! this way.
//!
//! # Exactness
//!
//! The gradients are `to_bits`-equal to recording each sequence of the
//! batch on one `Graph`, in sequence order, and calling
//! `Graph::backward`. The backward pass visits no node in the
//! tape's order, but every gradient buffer receives its terms in the order
//! the tape adds them, and every term is computed by the same kernel on the
//! same values:
//!
//! - **Weights.** The tape visits nodes newest first, so a weight's
//!   gradient sums the rows of the last sequence first, and within a
//!   sequence the steps from last to first, in each direction's processing
//!   order. The packed pass gathers the rows in that order and makes one
//!   [`crate::simd::Kernel::matmul_at_b_acc`] call, whose per-element order
//!   (rows ascending, exact-zero coefficients skipped) is the tape's
//!   row-by-row axpy loop. A layer the tape applies to a whole matrix at
//!   once (a `Linear` over T×hidden, attention's keys) adds that call's
//!   rows in ascending order.
//! - **Biases.** The tape slices an LSTM bias once per sequence, so each
//!   sequence first sums its own steps (last step first) and that partial
//!   sum is then added to the total, last sequence first. A `Linear` or
//!   attention bias adds its rows one at a time: calls last first, the rows
//!   of one call in ascending order.
//! - **Hidden state.** `dh_t` is the merge layer's (or the pooling's) part
//!   plus the recurrent `dot` terms from step `t + 1`, added in that order.
//!   Under attention, the pooling's part is `(0 + sᵀ·g) + dK·Wkᵀ`, and the
//!   last row's adds the query's `dq·Wqᵀ`.
//! - **Cell state.** `dc_t` is `dfc_{t+1}·f_{t+1}` plus the `tanh′` term of
//!   step `t`, added in that order.
//! - **Layer inputs.** A stacked layer's input gradient is the backward
//!   direction's `dot`s plus the forward direction's. A repeated input row
//!   sums its steps' `dot`s newest first; summing the steps' gate
//!   gradients first would round differently.
//!
//! A fresh tape slot is `0 + x`, which differs from `x` only in the sign of
//! a zero. No zero's sign reaches a gradient: every gradient is a sum that
//! starts from `+0.0`, and zeros only enter products and sums on the way.

use crate::infer::{zeroed, Packing};
use crate::params::{Gradients, ParamId};
use crate::simd::Kernel;

/// What one packed LSTM pass ([`crate::layers::Lstm::train_forward`])
/// keeps for its backward pass: every step's gates, cell, `tanh(cell)` and
/// hidden rows.
///
/// Rows are step-major: step `t` holds the rows of the running sequences,
/// ranks `0..active(t)`, from row `starts[t]` on. Buffers grow to the
/// largest batch they have seen and are never shrunk.
#[derive(Debug, Default)]
pub struct LstmActs {
    pub(crate) starts: Vec<usize>,
    pub(crate) i: Vec<f32>,
    pub(crate) f: Vec<f32>,
    pub(crate) g: Vec<f32>,
    pub(crate) o: Vec<f32>,
    pub(crate) c: Vec<f32>,
    pub(crate) tc: Vec<f32>,
    pub(crate) h: Vec<f32>,
}

/// Records in `starts` the first step-major row of every step of `pack`
/// (and the total row count last); returns that total.
fn step_starts(pack: &Packing, starts: &mut Vec<usize>) -> usize {
    let steps = pack.max_len();
    starts.clear();
    starts.resize(steps + 1, 0);
    for t in 0..steps {
        starts[t + 1] = starts[t] + pack.active(t);
    }
    starts[steps]
}

impl LstmActs {
    /// Records the step offsets of `pack` and sizes every buffer for its
    /// rows, `hidden` wide.
    pub(crate) fn reset(&mut self, pack: &Packing, hidden: usize) {
        let rows = step_starts(pack, &mut self.starts);
        for buf in [
            &mut self.i,
            &mut self.f,
            &mut self.g,
            &mut self.o,
            &mut self.c,
            &mut self.tc,
            &mut self.h,
        ] {
            zeroed(buf, rows * hidden);
        }
    }
}

/// What one packed GRU pass ([`crate::layers::Gru::train_forward`]) keeps
/// for its backward pass: every input row's projection, and every step's
/// recurrent projection, gates and hidden rows. It also holds the forward
/// pass's temporaries.
///
/// Rows are step-major, as in [`LstmActs`]. Buffers grow to the largest
/// batch they have seen and are never shrunk.
#[derive(Debug, Default)]
pub struct GruActs {
    pub(crate) starts: Vec<usize>,
    /// `x·Wx` of every input row.
    pub(crate) gx: Vec<f32>,
    /// `h·Wh` of every step row, `[z | r | n]` wide.
    pub(crate) gh: Vec<f32>,
    pub(crate) z: Vec<f32>,
    pub(crate) r: Vec<f32>,
    pub(crate) n: Vec<f32>,
    /// `1 − z`.
    pub(crate) omz: Vec<f32>,
    pub(crate) h: Vec<f32>,
    pub(crate) pre: Vec<f32>,
    pub(crate) rnh: Vec<f32>,
    pub(crate) new: Vec<f32>,
    pub(crate) keep: Vec<f32>,
    /// The zero state every sequence starts from.
    pub(crate) zeros: Vec<f32>,
}

impl GruActs {
    /// Records the step offsets of `pack` and sizes every buffer for its
    /// rows, `hidden` wide, and for `input_rows` input rows.
    pub(crate) fn reset(&mut self, pack: &Packing, hidden: usize, input_rows: usize) {
        let rows = step_starts(pack, &mut self.starts);
        let batch = pack.active(0);
        zeroed(&mut self.gx, input_rows * 3 * hidden);
        zeroed(&mut self.gh, rows * 3 * hidden);
        for buf in [
            &mut self.z,
            &mut self.r,
            &mut self.n,
            &mut self.omz,
            &mut self.h,
        ] {
            zeroed(buf, rows * hidden);
        }
        zeroed(&mut self.pre, hidden);
        zeroed(&mut self.rnh, hidden);
        for buf in [&mut self.new, &mut self.keep, &mut self.zeros] {
            zeroed(buf, batch * hidden);
        }
    }
}

/// What one packed attention pooling
/// ([`crate::layers::SelfAttention::train_forward`]) keeps for its backward
/// pass.
#[derive(Debug, Default)]
pub struct AttentionActs {
    /// Each sequence's last hidden row, the query source.
    pub(crate) lasts: Vec<f32>,
    /// One query per sequence.
    pub(crate) queries: Vec<f32>,
    /// One key per hidden row.
    pub(crate) keys: Vec<f32>,
    /// The attention weight of every hidden row.
    pub(crate) weights: Vec<f32>,
}

/// What one packed BiLSTM layer keeps for its backward pass.
#[derive(Debug, Default)]
pub(crate) struct LayerActs {
    pub(crate) fwd: LstmActs,
    pub(crate) bwd: LstmActs,
    /// Each direction's output rows, laid out as the packing's output.
    pub(crate) hf: Vec<f32>,
    pub(crate) hb: Vec<f32>,
    /// The merge layer's input rows `[hf | hb]`.
    pub(crate) cat: Vec<f32>,
    /// The layer's output rows (the next layer's input).
    pub(crate) out: Vec<f32>,
}

/// Temporaries of the forward and backward passes.
#[derive(Debug, Default)]
pub(crate) struct Work {
    pub(crate) gx: Vec<f32>,
    pub(crate) gh: Vec<f32>,
    pub(crate) pre: Vec<f32>,
    pub(crate) fc: Vec<f32>,
    pub(crate) ig: Vec<f32>,
    /// The zero state `(h, c)` every sequence starts from.
    pub(crate) zeros: Vec<f32>,
    /// Gate pre-activation gradients, step-major like [`LstmActs`].
    pub(crate) dpre: Vec<f32>,
    pub(crate) dh: Vec<f32>,
    pub(crate) d_o: Vec<f32>,
    pub(crate) dtc: Vec<f32>,
    pub(crate) tanh_term: Vec<f32>,
    pub(crate) dc: Vec<f32>,
    /// `dfc·f` of the next step, the first term of `dc`.
    pub(crate) carry: Vec<f32>,
    pub(crate) di: Vec<f32>,
    pub(crate) df: Vec<f32>,
    pub(crate) dg: Vec<f32>,
    pub(crate) bias_part: Vec<f32>,
    pub(crate) dx_rows: Vec<f32>,
    pub(crate) rank_of: Vec<usize>,
    /// Rows gathered in the tape's order for a weight gradient.
    pub(crate) rows_a: Vec<f32>,
    pub(crate) rows_b: Vec<f32>,
    pub(crate) dcat: Vec<f32>,
    pub(crate) dhf: Vec<f32>,
    pub(crate) dhb: Vec<f32>,
    pub(crate) dy: Vec<f32>,
    pub(crate) dx: Vec<f32>,
    /// Attention pooling: the gradients of one sequence's weights and
    /// scores, of every query and key, and of one last hidden row.
    pub(crate) ds: Vec<f32>,
    pub(crate) dscores: Vec<f32>,
    pub(crate) dq: Vec<f32>,
    pub(crate) dk: Vec<f32>,
    pub(crate) dlast: Vec<f32>,
    /// GRU: the gradients of the recurrent projection (step-major like
    /// `dpre`, which holds the input projection's), and of one step's
    /// `z`, `1 − z`, `n`, `n`'s pre-activation and `r`.
    pub(crate) dgh: Vec<f32>,
    pub(crate) dz: Vec<f32>,
    pub(crate) d_omz: Vec<f32>,
    pub(crate) dn: Vec<f32>,
    pub(crate) dn_pre: Vec<f32>,
    pub(crate) dr: Vec<f32>,
}

/// Accumulates the bias and weight gradients of a packed recurrent pass
/// into `grads`, in the tape's order (see the module docs). `dgx` holds
/// every step row's gradient of the input projection `x·Wx` (and of the
/// bias, which joins it), `dgh` of the recurrent projection `h·Wh`: the
/// same rows for an LSTM, whose gates sum both projections. Both are
/// step-major like `starts`, as are the hidden rows `hs`; `xs` holds the
/// input rows the packing reads.
///
/// The bias sums each sequence's steps last to first, then adds the
/// per-sequence sums last sequence first. The weights gather their rows
/// last sequence first, steps last to first, for one product each; the
/// recurrent weights skip step 0, whose `h` is zero.
#[expect(clippy::too_many_arguments, reason = "one pass's rows and ids")]
pub(crate) fn recurrent_param_grads(
    pack: &Packing,
    reverse: bool,
    starts: &[usize],
    xs: &[f32],
    hs: &[f32],
    dgx: &[f32],
    dgh: &[f32],
    [wx, wh, b]: [ParamId; 3],
    grads: &mut Gradients,
    work: &mut Work,
) {
    let kernel = crate::simd::active();
    let (d, h, gw) = (
        grads.get(wx).rows(),
        grads.get(wh).rows(),
        grads.get(b).cols(),
    );
    let batch = pack.active(0);
    work.rank_of.clear();
    work.rank_of.resize(batch, 0);
    for rank in 0..batch {
        work.rank_of[pack.seq_at(rank)] = rank;
    }
    zeroed(&mut work.bias_part, gw);
    let gb = grads.get_mut(b).data_mut();
    for s in (0..batch).rev() {
        let rank = work.rank_of[s];
        work.bias_part.fill(0.0);
        for t in (0..pack.seq_len(s)).rev() {
            let p0 = (starts[t] + rank) * gw;
            kernel.axpy(1.0, &dgx[p0..p0 + gw], &mut work.bias_part);
        }
        kernel.axpy(1.0, &work.bias_part, gb);
    }
    for recurrent in [false, true] {
        let (width, dg) = if recurrent { (h, dgh) } else { (d, dgx) };
        work.rows_a.clear();
        work.rows_b.clear();
        for s in (0..batch).rev() {
            let rank = work.rank_of[s];
            let first = usize::from(recurrent);
            for t in (first..pack.seq_len(s)).rev() {
                let row = if recurrent {
                    &hs[(starts[t - 1] + rank) * h..][..h]
                } else {
                    let (src, _) = pack.step_rows(rank, t, reverse);
                    &xs[src * d..(src + 1) * d]
                };
                work.rows_a.extend_from_slice(row);
                let p0 = (starts[t] + rank) * gw;
                work.rows_b.extend_from_slice(&dg[p0..p0 + gw]);
            }
        }
        let n = work.rows_b.len() / gw;
        let gw_data = grads.get_mut(if recurrent { wh } else { wx }).data_mut();
        kernel.matmul_at_b_acc(&work.rows_a, &work.rows_b, gw_data, n, width, gw);
    }
}

/// Reusable buffers for packed training: the activations a
/// [`crate::layers::StackedBiLstm`]'s `train_forward` keeps for its
/// `train_backward`, and both passes' temporaries.
///
/// Buffers grow to the largest batch they have seen and are never shrunk,
/// so one scratch reused across training items allocates only on the first
/// item (and on a larger one).
#[derive(Debug, Default)]
pub struct TrainScratch {
    pub(crate) layers: Vec<LayerActs>,
    pub(crate) work: Work,
}

impl TrainScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Gru, Linear, Lstm, SelfAttention, StackedBiLstm};
    use crate::{Graph, Matrix, ParamSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `rows` rows of width `d` with exact `+0.0` and `-0.0` planted.
    fn inputs(rows: usize, d: usize) -> Vec<f32> {
        (0..rows * d)
            .map(|i| match i % 6 {
                0 => 0.0,
                3 => -0.0,
                _ => (i as f32 * 0.37).sin(),
            })
            .collect()
    }

    #[test]
    fn lstm_and_attention_pooling_gradients_match_the_tape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 5, 4);
        let att = SelfAttention::new(&mut ps, &mut rng, "a", 4, 3);
        let lens = [3, 1, 4, 2, 4];
        let rows: usize = lens.iter().sum();
        let xs = inputs(rows, 5);
        let target: Vec<f32> = (0..lens.len() * 4)
            .map(|i| (i as f32 * 0.7).cos())
            .collect();

        // The tape: every sequence pooled in order on one graph, an MSE
        // over the stacked aggregates.
        let mut g = Graph::new(&ps);
        let mut pooled = Vec::new();
        for (s, &len) in lens.iter().enumerate() {
            let start: usize = lens[..s].iter().sum();
            let vars: Vec<_> = (start..start + len)
                .map(|r| g.constant(Matrix::from_vec(1, 5, xs[r * 5..(r + 1) * 5].to_vec())))
                .collect();
            let hs = lstm.forward(&mut g, &vars);
            pooled.push(att.aggregate(&mut g, &hs));
        }
        let stacked = g.concat_rows(&pooled);
        let loss = g.mse_loss(stacked, &Matrix::from_vec(lens.len(), 4, target.clone()));
        let want = g.backward(loss);

        // Twice through one scratch: reuse must not leak state.
        let pack = Packing::back_to_back(&lens);
        let mut scratch = TrainScratch::new();
        let (mut lstm_acts, mut att_acts) = (LstmActs::default(), AttentionActs::default());
        let (mut hs, mut out, mut dy, mut dh) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..2 {
            lstm.train_forward(&ps, &pack, &xs, &mut lstm_acts, &mut hs, &mut scratch);
            att.train_forward(&ps, &lens, &hs, &mut att_acts, &mut out);
            assert_eq!(
                crate::loss::mse(&out, &target).to_bits(),
                g.scalar(loss).to_bits()
            );
            crate::loss::mse_grad(1.0, &out, &target, &mut dy);
            let mut got = ps.zero_gradients();
            att.train_backward(
                &ps,
                &lens,
                &hs,
                &att_acts,
                &dy,
                &mut dh,
                &mut got,
                &mut scratch,
            );
            lstm.train_backward(
                &ps,
                &pack,
                &xs,
                &lstm_acts,
                &dh,
                None,
                &mut got,
                &mut scratch,
            );
            for ((id, a), (_, b)) in got.iter().zip(want.iter()) {
                assert_eq!(bits(a), bits(b), "{}", ps.name(id));
            }
        }
    }

    #[test]
    fn repeated_input_lstm_gradients_match_the_tape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 3, 4);
        let head = Linear::new(&mut ps, &mut rng, "o", 4, 2);
        let lens = [5, 1, 3, 5, 2];
        let vs = inputs(lens.len(), 3);
        // The repeated vectors are a parameter, so the tape reports their
        // gradient.
        let v = ps.register("v", Matrix::from_vec(lens.len(), 3, vs.clone()));
        let rows: usize = lens.iter().sum();
        let target: Vec<f32> = (0..rows * 2).map(|i| (i as f32 * 0.3).sin()).collect();

        // The tape: each vector decompressed in order, the head applied to
        // each whole T×hidden matrix, an MSE over all rows.
        let mut g = Graph::new(&ps);
        let vp = g.param(v);
        let mut ys = Vec::new();
        for (s, &len) in lens.iter().enumerate() {
            let x = g.row(vp, s);
            let hs = lstm.forward_repeated(&mut g, x, len);
            let h_mat = g.concat_rows(&hs);
            ys.push(head.forward(&mut g, h_mat));
        }
        let y = g.concat_rows(&ys);
        let loss = g.mse_loss(y, &Matrix::from_vec(rows, 2, target.clone()));
        let want = g.backward(loss);

        let pack = Packing::repeated(&lens);
        let mut scratch = TrainScratch::new();
        let mut acts = LstmActs::default();
        let (mut hs, mut out, mut dy, mut dhs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..2 {
            lstm.train_forward(&ps, &pack, &vs, &mut acts, &mut hs, &mut scratch);
            head.infer(&ps, &hs, &mut out);
            assert_eq!(
                crate::loss::mse(&out, &target).to_bits(),
                g.scalar(loss).to_bits()
            );
            crate::loss::mse_grad(1.0, &out, &target, &mut dy);
            let mut got = ps.zero_gradients();
            head.train_backward_blocks(&ps, &hs, &dy, &lens, &mut dhs, &mut got, &mut scratch);
            let mut dv = vec![0.0; vs.len()];
            lstm.train_backward(
                &ps,
                &pack,
                &vs,
                &acts,
                &dhs,
                Some(&mut dv),
                &mut got,
                &mut scratch,
            );
            got.get_mut(v).data_mut().copy_from_slice(&dv);
            for ((id, a), (_, b)) in got.iter().zip(want.iter()) {
                assert_eq!(bits(a), bits(b), "{}", ps.name(id));
            }
        }
    }

    #[test]
    fn gru_and_linear_gradients_match_the_tape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let gru = Gru::new(&mut ps, &mut rng, "g", 5, 4);
        let head = Linear::new(&mut ps, &mut rng, "o", 4, 1);
        // Perturb every weight off its initialisation (the biases start at
        // zero).
        let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
        for (k, &id) in ids.iter().enumerate() {
            for (j, v) in ps.value_mut(id).data_mut().iter_mut().enumerate() {
                *v += ((k * 17 + j) as f32 * 0.53).cos() * 0.4;
            }
        }
        let lens = [3, 1, 4, 2, 4];
        let rows: usize = lens.iter().sum();
        let xs = inputs(rows, 5);
        let target: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.7).cos()).collect();

        // The tape: every sequence in order on one graph, the head on every
        // step, an MSE over all logits.
        let mut g = Graph::new(&ps);
        let mut logits = Vec::new();
        for (s, &len) in lens.iter().enumerate() {
            let start: usize = lens[..s].iter().sum();
            let vars: Vec<_> = (start..start + len)
                .map(|r| g.constant(Matrix::from_vec(1, 5, xs[r * 5..(r + 1) * 5].to_vec())))
                .collect();
            for h in gru.forward(&mut g, &vars) {
                logits.push(head.forward(&mut g, h));
            }
        }
        let row = g.concat_cols(&logits);
        let loss = g.mse_loss(row, &Matrix::from_vec(1, rows, target.clone()));
        let want = g.backward(loss);

        // Twice through one scratch: reuse must not leak state.
        let pack = Packing::back_to_back(&lens);
        let mut scratch = TrainScratch::new();
        let mut acts = GruActs::default();
        let (mut hs, mut out, mut dy, mut dhs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..2 {
            gru.train_forward(&ps, &pack, &xs, &mut acts, &mut hs);
            head.infer(&ps, &hs, &mut out);
            assert_eq!(
                crate::loss::mse(&out, &target).to_bits(),
                g.scalar(loss).to_bits()
            );
            crate::loss::mse_grad(1.0, &out, &target, &mut dy);
            let mut got = ps.zero_gradients();
            head.train_backward(&ps, &hs, &dy, &mut dhs, &mut got, &mut scratch);
            gru.train_backward(&ps, &pack, &xs, &acts, &dhs, &mut got, &mut scratch);
            for ((id, a), (_, b)) in got.iter().zip(want.iter()) {
                assert_eq!(bits(a), bits(b), "{}", ps.name(id));
            }
        }
    }

    #[test]
    fn bce_with_logits_and_its_gradient_match_the_tape() {
        let mut ps = ParamSet::new();
        let z = [0.5, -1.2, 0.0, -0.0, 40.0, -40.0, 3.25];
        let y = [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5];
        let w = ps.register("z", Matrix::from_vec(1, z.len(), z.to_vec()));
        let mut g = Graph::new(&ps);
        let zv = g.param(w);
        let loss = g.bce_with_logits_loss(zv, &Matrix::from_vec(1, y.len(), y.to_vec()));
        let want = g.backward(loss);
        assert_eq!(
            crate::loss::bce_with_logits(&z, &y).to_bits(),
            g.scalar(loss).to_bits()
        );
        let mut dz = Vec::new();
        crate::loss::bce_with_logits_grad(1.0, &z, &y, &mut dz);
        assert_eq!(bits(&Matrix::from_vec(1, z.len(), dz)), bits(want.get(w)));
    }

    #[test]
    fn stacked_bilstm_and_linear_gradients_match_the_tape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let stack = StackedBiLstm::new(&mut ps, &mut rng, "s", 5, 4, 3);
        let head = Linear::new(&mut ps, &mut rng, "o", 4, 1);
        let lens = [3, 1, 4, 2, 4];
        let rows: usize = lens.iter().sum();
        let xs: Vec<f32> = (0..rows * 5)
            .map(|i| match i % 6 {
                0 => 0.0,
                3 => -0.0,
                _ => (i as f32 * 0.37).sin(),
            })
            .collect();
        let target: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.7).cos()).collect();

        // The tape: every sequence in order on one graph, an MSE over all
        // logits.
        let mut g = Graph::new(&ps);
        let mut logits = Vec::new();
        for (s, &len) in lens.iter().enumerate() {
            let start: usize = lens[..s].iter().sum();
            let vars: Vec<_> = (start..start + len)
                .map(|r| g.constant(Matrix::from_vec(1, 5, xs[r * 5..(r + 1) * 5].to_vec())))
                .collect();
            for h in stack.forward(&mut g, &vars) {
                logits.push(head.forward(&mut g, h));
            }
        }
        let row = g.concat_cols(&logits);
        let loss = g.mse_loss(row, &Matrix::from_vec(1, rows, target.clone()));
        let want = g.backward(loss);

        // Twice through one scratch: reuse must not leak state.
        let pack = Packing::back_to_back(&lens);
        let mut scratch = TrainScratch::new();
        let (mut hs, mut out, mut dhs) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..2 {
            stack.train_forward(&ps, &pack, &xs, &mut hs, &mut scratch);
            head.infer(&ps, &hs, &mut out);
            let mut dy = Vec::new();
            crate::loss::mse_grad(1.0, &out, &target, &mut dy);
            let mut got = ps.zero_gradients();
            head.train_backward(&ps, &hs, &dy, &mut dhs, &mut got, &mut scratch);
            stack.train_backward(&ps, &pack, &xs, &dhs, &mut got, &mut scratch);
            for ((id, a), (_, b)) in got.iter().zip(want.iter()) {
                assert_eq!(bits(a), bits(b), "{}", ps.name(id));
            }
        }
    }
}
