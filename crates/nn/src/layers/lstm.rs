//! Long short-term memory recurrence (Hochreiter & Schmidhuber 1997), the
//! paper's Equation (2).

use crate::infer::{zeroed, CellScratch, LstmState, Packing, Scratch};
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamSet};
use crate::simd::Kernel;
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
    /// the whole sequences, and to [`Self::forward`] on each sequence (see
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
        let (bi, bf, bg, bo) = (
            &bias[..h],
            &bias[h..2 * h],
            &bias[2 * h..3 * h],
            &bias[3 * h..g4],
        );
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
            kernel.matmul_acc(&cell.h[..ah], wh, gh, active, h, g4);
            for rank in 0..active {
                let (src, _) = pack.step_rows(rank, t, reverse);
                let (o4, o1) = (rank * g4, rank * h);
                let pre = &mut cell.pre[o4..o4 + g4];
                kernel.add(
                    &cell.gx[src * g4..(src + 1) * g4],
                    &cell.gh[o4..o4 + g4],
                    pre,
                );
                kernel.sigmoid_gate(&pre[..h], bi, &mut cell.i[o1..o1 + h]);
                kernel.sigmoid_gate(&pre[h..2 * h], bf, &mut cell.f[o1..o1 + h]);
                kernel.tanh_gate(&pre[2 * h..3 * h], bg, &mut cell.g[o1..o1 + h]);
                kernel.sigmoid_gate(&pre[3 * h..], bo, &mut cell.o[o1..o1 + h]);
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
