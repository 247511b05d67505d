//! Long short-term memory recurrence (Hochreiter & Schmidhuber 1997), the
//! paper's Equation (2).

use crate::bptt::{recurrent_param_grads, LstmActs, TrainScratch, Work};
use crate::infer::{zeroed, CellScratch, LstmState, Packing, Scratch};
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{Gradients, ParamId, ParamSet};
use crate::simd::Kernel;
#[cfg(any(test, feature = "reference"))]
use crate::tape::{Graph, Var};
use rand::Rng;

/// A single-direction LSTM.
///
/// Gate layout in the fused weight matrices is `[i | f | g | o]` (input,
/// forget, cell candidate, output). The forget-gate bias is initialised to 1,
/// the standard trick that lets gradients flow through long sequences early in
/// training.
#[derive(Debug, Clone)]
pub struct Lstm {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl Lstm {
    /// Registers an LSTM with `in_dim` inputs and `hidden` units under `name`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let wx = ps.register(
            format!("{name}.wx"),
            xavier_uniform(rng, in_dim, 4 * hidden),
        );
        let wh = ps.register(
            format!("{name}.wh"),
            xavier_uniform(rng, hidden, 4 * hidden),
        );
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0); // forget gate
        }
        let b = ps.register(format!("{name}.b"), bias);
        Self {
            wx,
            wh,
            b,
            in_dim,
            hidden,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the recurrence over every sequence of a packed batch without a
    /// tape: `xs` holds the input rows (`in_dim` wide) the packing reads,
    /// and `out` receives one hidden row per step, laid out as the
    /// packing's output. With `reverse` every sequence is read right to
    /// left, and the hidden state after reading step `t` is stored at
    /// step `t`, as the backward direction of a BiLSTM does.
    ///
    /// Each sequence starts from its row of `state` ([`LstmState::zeros`]
    /// for a fresh run), and its final state is written back there, so a
    /// run split into consecutive calls is bit-identical to one call over
    /// the whole sequences, and to `Self::forward` on each sequence (see
    /// [`crate::infer`]).
    ///
    /// # Panics
    /// Panics if `xs` has fewer rows than the packing reads or is not a
    /// whole number of rows, or if `state` does not hold one row per
    /// sequence.
    pub fn infer(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        reverse: bool,
        state: &mut LstmState,
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) {
        self.infer_with(ps, pack, xs, reverse, Some(state), out, &mut scratch.cell);
    }

    /// [`Self::infer`] over the per-direction buffers alone, so a BiLSTM can
    /// hand each direction its own output buffer from the same scratch.
    /// Without a `state`, every sequence starts from zeros.
    pub(crate) fn infer_with(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        reverse: bool,
        state: Option<&mut LstmState>,
        out: &mut Vec<f32>,
        cell: &mut CellScratch,
    ) {
        let (d, h) = (self.in_dim, self.hidden);
        let g4 = 4 * h;
        assert!(
            xs.len().is_multiple_of(d) && xs.len() / d >= pack.input_rows(),
            "lstm input shape"
        );
        let kernel = crate::simd::active();
        let rows = xs.len() / d;
        // Input projections of every row at once; only h·Wh is sequential.
        zeroed(&mut cell.gx, rows * g4);
        kernel.matmul_acc(xs, ps.value(self.wx).data(), &mut cell.gx, rows, d, g4);
        let wh = ps.value(self.wh).data();
        let bias = ps.value(self.b).data();
        let batch = pack.active(0);
        for buf in [
            &mut cell.i,
            &mut cell.f,
            &mut cell.g,
            &mut cell.o,
            &mut cell.fc,
            &mut cell.ig,
            &mut cell.tc,
            &mut cell.h,
            &mut cell.c,
        ] {
            zeroed(buf, batch * h);
        }
        zeroed(&mut cell.gh, batch * g4);
        zeroed(&mut cell.pre, batch * g4);
        zeroed(out, pack.output_rows() * h);
        let carried = state.is_some();
        if let Some(st) = state.as_deref() {
            assert!(
                st.h.len() == batch * h && st.c.len() == batch * h,
                "lstm state rows"
            );
            for rank in 0..batch {
                let (r, s) = (rank * h..(rank + 1) * h, pack.seq_at(rank) * h);
                cell.h[r.clone()].copy_from_slice(&st.h[s..s + h]);
                cell.c[r].copy_from_slice(&st.c[s..s + h]);
            }
        }
        for t in 0..pack.max_len() {
            let active = pack.active(t);
            let (ah, ag) = (active * h, active * g4);
            let gh = &mut cell.gh[..ag];
            gh.fill(0.0);
            // At a fresh step 0, `h` is zero: the product skips every term.
            if t > 0 || carried {
                kernel.matmul_acc(&cell.h[..ah], wh, gh, active, h, g4);
            }
            for rank in 0..active {
                let (src, _) = pack.step_rows(rank, t, reverse);
                let (o4, r) = (rank * g4, rank * h..(rank + 1) * h);
                gates(
                    kernel,
                    &cell.gx[src * g4..(src + 1) * g4],
                    &cell.gh[o4..o4 + g4],
                    bias,
                    &mut cell.pre[o4..o4 + g4],
                    [
                        &mut cell.i[r.clone()],
                        &mut cell.f[r.clone()],
                        &mut cell.g[r.clone()],
                        &mut cell.o[r],
                    ],
                );
            }
            kernel.mul(&cell.f[..ah], &cell.c[..ah], &mut cell.fc[..ah]);
            kernel.mul(&cell.i[..ah], &cell.g[..ah], &mut cell.ig[..ah]);
            kernel.add(&cell.fc[..ah], &cell.ig[..ah], &mut cell.c[..ah]);
            kernel.tanh(&cell.c[..ah], &mut cell.tc[..ah]);
            kernel.mul(&cell.o[..ah], &cell.tc[..ah], &mut cell.h[..ah]);
            for rank in 0..active {
                let (_, dst) = pack.step_rows(rank, t, reverse);
                out[dst * h..(dst + 1) * h].copy_from_slice(&cell.h[rank * h..(rank + 1) * h]);
            }
        }
        // A finished sequence's rows are left alone by later steps, so they
        // hold its final state.
        if let Some(st) = state {
            for rank in 0..batch {
                let (r, s) = (rank * h..(rank + 1) * h, pack.seq_at(rank) * h);
                st.h[s..s + h].copy_from_slice(&cell.h[r.clone()]);
                st.c[s..s + h].copy_from_slice(&cell.c[r]);
            }
        }
    }

    /// The training counterpart of [`Self::infer`] from the zero state: the
    /// same forward pass over every sequence of `pack` (read left to
    /// right), keeping every step's activations in `acts` for
    /// [`Self::train_backward`]. Under [`Packing::repeated`] each
    /// sequence's one input row is projected once and read at every step,
    /// as `Self::forward_repeated` reads its vector.
    ///
    /// # Panics
    /// Panics if `xs` has fewer rows than the packing reads or is not a
    /// whole number of rows.
    pub fn train_forward(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        acts: &mut LstmActs,
        out: &mut Vec<f32>,
        scratch: &mut TrainScratch,
    ) {
        self.train_forward_with(ps, pack, xs, false, acts, out, &mut scratch.work);
    }

    /// The backward half of [`Self::train_forward`], run on the same `pack`,
    /// `xs` and `acts`: backpropagation through time from `dh`, the
    /// gradient of every output row (laid out as the packing's output).
    /// Accumulates the gradients of the weights and the bias into `grads`
    /// and, given `dx`, adds the gradient of every input row to it (laid
    /// out as `xs`), in the tape's order ([`crate::bptt`]). A repeated
    /// input row receives its steps' terms newest first.
    #[expect(clippy::too_many_arguments, reason = "mirrors train_forward")]
    pub fn train_backward(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        acts: &LstmActs,
        dh: &[f32],
        dx: Option<&mut [f32]>,
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        self.train_backward_with(ps, pack, xs, false, acts, dh, dx, grads, &mut scratch.work);
    }

    /// [`Self::train_forward`] in either direction, over the temporaries
    /// alone, so a BiLSTM can keep each direction's activations apart.
    pub(crate) fn train_forward_with(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        reverse: bool,
        acts: &mut LstmActs,
        out: &mut Vec<f32>,
        work: &mut Work,
    ) {
        let (d, h) = (self.in_dim, self.hidden);
        let g4 = 4 * h;
        assert!(
            xs.len().is_multiple_of(d) && xs.len() / d >= pack.input_rows(),
            "lstm input shape"
        );
        let kernel = crate::simd::active();
        let rows = xs.len() / d;
        zeroed(&mut work.gx, rows * g4);
        kernel.matmul_acc(xs, ps.value(self.wx).data(), &mut work.gx, rows, d, g4);
        let wh = ps.value(self.wh).data();
        let bias = ps.value(self.b).data();
        let batch = pack.active(0);
        acts.reset(pack, h);
        zeroed(&mut work.gh, batch * g4);
        zeroed(&mut work.pre, g4);
        for buf in [&mut work.fc, &mut work.ig, &mut work.zeros] {
            zeroed(buf, batch * h);
        }
        zeroed(out, pack.output_rows() * h);
        for t in 0..pack.max_len() {
            let active = pack.active(t);
            let (ah, ag) = (active * h, active * g4);
            let (s0, s1) = (acts.starts[t] * h, acts.starts[t] * h + ah);
            let gh = &mut work.gh[..ag];
            gh.fill(0.0);
            // At step 0, `h` is zero: the tape's product skips every term.
            if t > 0 {
                let p0 = acts.starts[t - 1] * h;
                kernel.matmul_acc(&acts.h[p0..p0 + ah], wh, gh, active, h, g4);
            }
            for rank in 0..active {
                let (src, _) = pack.step_rows(rank, t, reverse);
                let r = s0 + rank * h..s0 + (rank + 1) * h;
                gates(
                    kernel,
                    &work.gx[src * g4..(src + 1) * g4],
                    &work.gh[rank * g4..(rank + 1) * g4],
                    bias,
                    &mut work.pre,
                    [
                        &mut acts.i[r.clone()],
                        &mut acts.f[r.clone()],
                        &mut acts.g[r.clone()],
                        &mut acts.o[r],
                    ],
                );
            }
            let (done, cur) = acts.c.split_at_mut(s0);
            let c_prev = match t.checked_sub(1) {
                Some(p) => &done[acts.starts[p] * h..acts.starts[p] * h + ah],
                None => &work.zeros[..ah],
            };
            kernel.mul(&acts.f[s0..s1], c_prev, &mut work.fc[..ah]);
            kernel.mul(&acts.i[s0..s1], &acts.g[s0..s1], &mut work.ig[..ah]);
            kernel.add(&work.fc[..ah], &work.ig[..ah], &mut cur[..ah]);
            kernel.tanh(&cur[..ah], &mut acts.tc[s0..s1]);
            kernel.mul(&acts.o[s0..s1], &acts.tc[s0..s1], &mut acts.h[s0..s1]);
            for rank in 0..active {
                let (_, dst) = pack.step_rows(rank, t, reverse);
                out[dst * h..(dst + 1) * h]
                    .copy_from_slice(&acts.h[s0 + rank * h..s0 + (rank + 1) * h]);
            }
        }
    }

    /// [`Self::train_backward`] in either direction, over the temporaries
    /// alone (see [`Self::train_forward_with`]).
    #[expect(clippy::too_many_arguments, reason = "mirrors train_forward_with")]
    pub(crate) fn train_backward_with(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        reverse: bool,
        acts: &LstmActs,
        dh: &[f32],
        dx: Option<&mut [f32]>,
        grads: &mut Gradients,
        work: &mut Work,
    ) {
        let (d, h) = (self.in_dim, self.hidden);
        let g4 = 4 * h;
        let kernel = crate::simd::active();
        let wh = ps.value(self.wh).data();
        let (batch, rows) = (pack.active(0), pack.output_rows());
        zeroed(&mut work.dpre, rows * g4);
        for buf in [
            &mut work.dh,
            &mut work.d_o,
            &mut work.dtc,
            &mut work.tanh_term,
            &mut work.dc,
            &mut work.carry,
            &mut work.di,
            &mut work.df,
            &mut work.dg,
            &mut work.zeros,
        ] {
            zeroed(buf, batch * h);
        }
        for t in (0..pack.max_len()).rev() {
            let (active, next) = (pack.active(t), pack.active(t + 1));
            let (ah, nh) = (active * h, next * h);
            let (s0, s1) = (acts.starts[t] * h, acts.starts[t] * h + ah);
            for rank in 0..active {
                let (_, dst) = pack.step_rows(rank, t, reverse);
                work.dh[rank * h..(rank + 1) * h].copy_from_slice(&dh[dst * h..(dst + 1) * h]);
            }
            if next > 0 {
                let n0 = acts.starts[t + 1] * g4;
                let dgh = &work.dpre[n0..n0 + next * g4];
                kernel.matmul_a_bt_acc(dgh, wh, &mut work.dh[..nh], next, g4, h);
            }
            kernel.mul(&work.dh[..ah], &acts.tc[s0..s1], &mut work.d_o[..ah]);
            kernel.mul(&work.dh[..ah], &acts.o[s0..s1], &mut work.dtc[..ah]);
            kernel.tanh_bwd(&work.dtc[..ah], &acts.tc[s0..s1], &mut work.tanh_term[..ah]);
            kernel.add(&work.carry[..nh], &work.tanh_term[..nh], &mut work.dc[..nh]);
            work.dc[nh..ah].copy_from_slice(&work.tanh_term[nh..ah]);
            let c_prev = match t.checked_sub(1) {
                Some(p) => &acts.c[acts.starts[p] * h..acts.starts[p] * h + ah],
                None => &work.zeros[..ah],
            };
            kernel.mul(&work.dc[..ah], &acts.g[s0..s1], &mut work.di[..ah]);
            kernel.mul(&work.dc[..ah], &acts.i[s0..s1], &mut work.dg[..ah]);
            kernel.mul(&work.dc[..ah], c_prev, &mut work.df[..ah]);
            kernel.mul(&work.dc[..ah], &acts.f[s0..s1], &mut work.carry[..ah]);
            for rank in 0..active {
                let (r, a) = (rank * h..(rank + 1) * h, s0 + rank * h..s0 + (rank + 1) * h);
                let p0 = (acts.starts[t] + rank) * g4;
                let dz = &mut work.dpre[p0..p0 + g4];
                kernel.sigmoid_bwd(&work.di[r.clone()], &acts.i[a.clone()], &mut dz[..h]);
                kernel.sigmoid_bwd(&work.df[r.clone()], &acts.f[a.clone()], &mut dz[h..2 * h]);
                kernel.tanh_bwd(
                    &work.dg[r.clone()],
                    &acts.g[a.clone()],
                    &mut dz[2 * h..3 * h],
                );
                kernel.sigmoid_bwd(&work.d_o[r], &acts.o[a], &mut dz[3 * h..]);
            }
        }

        let dpre = std::mem::take(&mut work.dpre);
        let ids = [self.wx, self.wh, self.b];
        recurrent_param_grads(
            pack,
            reverse,
            &acts.starts,
            xs,
            &acts.h,
            &dpre,
            &dpre,
            ids,
            grads,
            work,
        );
        work.dpre = dpre;
        if let Some(dx) = dx {
            zeroed(&mut work.dx_rows, rows * d);
            let wx = ps.value(self.wx).data();
            kernel.matmul_a_bt_acc(&work.dpre, wx, &mut work.dx_rows, rows, g4, d);
            // Newest step first: a repeated input row sums its steps in the
            // order the tape visits them.
            for t in (0..pack.max_len()).rev() {
                for rank in 0..pack.active(t) {
                    let (src, _) = pack.step_rows(rank, t, reverse);
                    let r0 = (acts.starts[t] + rank) * d;
                    kernel.axpy(
                        1.0,
                        &work.dx_rows[r0..r0 + d],
                        &mut dx[src * d..(src + 1) * d],
                    );
                }
            }
        }
    }
}

#[cfg(any(test, feature = "reference"))]
impl Lstm {
    /// Zero-valued initial `(h, c)` state.
    pub fn zero_state(&self, g: &mut Graph) -> (Var, Var) {
        let h = g.constant(Matrix::zeros(1, self.hidden));
        let c = g.constant(Matrix::zeros(1, self.hidden));
        (h, c)
    }

    /// The four per-gate bias slices `(i, f, g, o)`, recorded once so every
    /// step of a sequence shares the same nodes.
    fn bias_slices(&self, g: &mut Graph) -> (Var, Var, Var, Var) {
        let b = g.param(self.b);
        let hsz = self.hidden;
        (
            g.slice_cols(b, 0, hsz),
            g.slice_cols(b, hsz, 2 * hsz),
            g.slice_cols(b, 2 * hsz, 3 * hsz),
            g.slice_cols(b, 3 * hsz, 4 * hsz),
        )
    }

    /// One recurrence step with pre-sliced gate biases; the gates run
    /// through the fused bias-then-activation kernels, which compute
    /// `(x·Wx + h·Wh) + b` in the same per-element order the broadcast
    /// formulation did.
    fn step_with_bias(
        &self,
        g: &mut Graph,
        x: Var,
        h: Var,
        c: Var,
        bias: (Var, Var, Var, Var),
    ) -> (Var, Var) {
        debug_assert_eq!(g.value(x).shape(), (1, self.in_dim), "lstm input shape");
        let (bi, bf, bg, bo) = bias;
        let wx = g.param(self.wx);
        let wh = g.param(self.wh);
        let gx = g.matmul(x, wx);
        let gh = g.matmul(h, wh);
        let pre = g.add(gx, gh);
        let hsz = self.hidden;
        let i_pre = g.slice_cols(pre, 0, hsz);
        let f_pre = g.slice_cols(pre, hsz, 2 * hsz);
        let g_pre = g.slice_cols(pre, 2 * hsz, 3 * hsz);
        let o_pre = g.slice_cols(pre, 3 * hsz, 4 * hsz);
        let i = g.sigmoid_gate(i_pre, bi);
        let f = g.sigmoid_gate(f_pre, bf);
        let cand = g.tanh_gate(g_pre, bg);
        let o = g.sigmoid_gate(o_pre, bo);
        let fc = g.mul(f, c);
        let ig = g.mul(i, cand);
        let c_new = g.add(fc, ig);
        let c_act = g.tanh(c_new);
        let h_new = g.mul(o, c_act);
        (h_new, c_new)
    }

    /// One recurrence step: consumes `x` (1×in_dim) and state, returns the new
    /// `(h, c)`.
    pub fn step(&self, g: &mut Graph, x: Var, h: Var, c: Var) -> (Var, Var) {
        let bias = self.bias_slices(g);
        self.step_with_bias(g, x, h, c, bias)
    }

    /// Runs the recurrence over a sequence of 1×in_dim nodes, returning every
    /// hidden state (one per step).
    ///
    /// # Panics
    /// Panics if `xs` is empty: the LEAD data model guarantees every stay
    /// point and move point sequence is non-empty.
    pub fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        assert!(!xs.is_empty(), "LSTM over an empty sequence");
        let bias = self.bias_slices(g);
        let (mut h, mut c) = self.zero_state(g);
        let mut hs = Vec::with_capacity(xs.len());
        for &x in xs {
            let (h2, c2) = self.step_with_bias(g, x, h, c, bias);
            h = h2;
            c = c2;
            hs.push(h);
        }
        hs
    }

    /// Runs the recurrence feeding the *same* input vector at every one of
    /// `steps` steps — the paper's decompression operator (Equation (5)),
    /// which unrolls a compressed vector back into a sequence.
    pub fn forward_repeated(&self, g: &mut Graph, x: Var, steps: usize) -> Vec<Var> {
        assert!(steps > 0, "decompression over zero steps");
        let bias = self.bias_slices(g);
        let (mut h, mut c) = self.zero_state(g);
        let mut hs = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (h2, c2) = self.step_with_bias(g, x, h, c, bias);
            h = h2;
            c = c2;
            hs.push(h);
        }
        hs
    }
}

/// The gates of one LSTM step for one row, shared by inference and
/// training: `pre = gx + gh`, then the fused bias-then-activation kernels
/// write `[i, f, g, o]`.
#[inline]
fn gates(
    kernel: crate::simd::Backend,
    gx: &[f32],
    gh: &[f32],
    bias: &[f32],
    pre: &mut [f32],
    [i, f, g, o]: [&mut [f32]; 4],
) {
    let h = i.len();
    kernel.add(gx, gh, pre);
    kernel.sigmoid_gate(&pre[..h], &bias[..h], i);
    kernel.sigmoid_gate(&pre[h..2 * h], &bias[h..2 * h], f);
    kernel.tanh_gate(&pre[2 * h..3 * h], &bias[2 * h..3 * h], g);
    kernel.sigmoid_gate(&pre[3 * h..4 * h], &bias[3 * h..4 * h], o);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(g: &mut Graph, t: usize, d: usize) -> Vec<Var> {
        (0..t)
            .map(|i| {
                g.constant(Matrix::from_fn(1, d, |_, c| {
                    ((i * d + c) as f32 * 0.13).sin() * 0.5
                }))
            })
            .collect()
    }

    #[test]
    fn forward_emits_one_hidden_per_step() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 3, 5);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 7, 3);
        let hs = lstm.forward(&mut g, &xs);
        assert_eq!(hs.len(), 7);
        for &h in &hs {
            assert_eq!(g.value(h).shape(), (1, 5));
        }
    }

    #[test]
    fn hidden_values_bounded_by_one() {
        // h = o·tanh(c), both factors in (-1, 1)·(0, 1).
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(13);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 4);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 20, 2);
        let hs = lstm.forward(&mut g, &xs);
        for &h in &hs {
            assert!(g.value(h).data().iter().all(|v| v.abs() < 1.0));
        }
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(17);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 3);
        let b = ps.value(lstm.b);
        assert_eq!(b.slice_cols(3, 6).data(), &[1.0, 1.0, 1.0]);
        assert_eq!(b.slice_cols(0, 3).data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(19);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 3);
        let mut g = Graph::new(&ps);
        let _ = lstm.forward(&mut g, &[]);
    }

    #[test]
    fn forward_repeated_emits_requested_steps() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(23);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 4, 3);
        let mut g = Graph::new(&ps);
        let x = g.constant(Matrix::full(1, 4, 0.3));
        let hs = lstm.forward_repeated(&mut g, x, 5);
        assert_eq!(hs.len(), 5);
        // Steps differ because the state evolves.
        assert_ne!(g.value(hs[0]).data(), g.value(hs[4]).data());
    }

    #[test]
    fn gradcheck_through_time() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(29);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 3);
        for target in [lstm.wx, lstm.wh, lstm.b] {
            let l = lstm.clone();
            gradcheck(&mut ps.clone(), target, 1e-2, 3e-2, move |g| {
                let xs = seq(g, 4, 2);
                let hs = l.forward(g, &xs);
                let last = *hs.last().unwrap();
                let sq = g.mul(last, last);
                g.sum_all(sq)
            });
        }
    }
}
