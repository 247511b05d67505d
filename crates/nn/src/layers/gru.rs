//! Gated recurrent unit (Chung et al. 2014), used by the SP-GRU baseline.

use crate::bptt::{recurrent_param_grads, GruActs, TrainScratch};
use crate::infer::{zeroed, Packing, Scratch};
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{Gradients, ParamId, ParamSet};
use crate::simd::Kernel;
#[cfg(any(test, feature = "reference"))]
use crate::tape::{Graph, Var};
use rand::Rng;

/// A single-direction GRU.
///
/// Gate layout in the fused weight matrices is `[z | r | n]` (update, reset,
/// candidate). The candidate uses the "v3" formulation
/// `n = tanh(x·Wxn + r ⊙ (h·Whn) + bn)`, matching the reference
/// implementation evaluated by Chung et al.
#[derive(Debug, Clone)]
pub struct Gru {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl Gru {
    /// Registers a GRU with `in_dim` inputs and `hidden` units under `name`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let wx = ps.register(
            format!("{name}.wx"),
            xavier_uniform(rng, in_dim, 3 * hidden),
        );
        let wh = ps.register(
            format!("{name}.wh"),
            xavier_uniform(rng, hidden, 3 * hidden),
        );
        let b = ps.register(format!("{name}.b"), Matrix::zeros(1, 3 * hidden));
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
    /// tape, from the zero state: `xs` holds the input rows (`in_dim`
    /// wide) the packing reads, and `out` receives one hidden row per step,
    /// laid out as the packing's output. Bit-identical to `Self::forward`
    /// on each sequence (see [`crate::infer`]).
    ///
    /// # Panics
    /// Panics if `xs` has fewer rows than the packing reads or is not a
    /// whole number of rows.
    pub fn infer(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) {
        self.train_forward(ps, pack, xs, &mut scratch.gru, out);
    }

    /// [`Self::infer`] keeping every step's activations in `acts` for
    /// [`Self::train_backward`].
    ///
    /// # Panics
    /// Panics if `xs` has fewer rows than the packing reads or is not a
    /// whole number of rows.
    pub fn train_forward(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        acts: &mut GruActs,
        out: &mut Vec<f32>,
    ) {
        let (d, h) = (self.in_dim, self.hidden);
        let g3 = 3 * h;
        assert!(
            xs.len().is_multiple_of(d) && xs.len() / d >= pack.input_rows(),
            "gru input shape"
        );
        let kernel = crate::simd::active();
        let rows = xs.len() / d;
        acts.reset(pack, h, rows);
        // Input projections of every row at once; only h·Wh is sequential.
        kernel.matmul_acc(xs, ps.value(self.wx).data(), &mut acts.gx, rows, d, g3);
        let wh = ps.value(self.wh).data();
        let bias = ps.value(self.b).data();
        zeroed(out, pack.output_rows() * h);
        for t in 0..pack.max_len() {
            let active = pack.active(t);
            let ah = active * h;
            let (s0, s1, g0) = (
                acts.starts[t] * h,
                acts.starts[t] * h + ah,
                acts.starts[t] * g3,
            );
            let prev = t.checked_sub(1).map(|p| acts.starts[p] * h);
            // At step 0, `h` is zero: the tape's product skips every term.
            if let Some(p0) = prev {
                let gh = &mut acts.gh[g0..g0 + active * g3];
                kernel.matmul_acc(&acts.h[p0..p0 + ah], wh, gh, active, h, g3);
            }
            for rank in 0..active {
                let (src, _) = pack.step_rows(rank, t, false);
                let (o3, r) = (g0 + rank * g3, s0 + rank * h..s0 + (rank + 1) * h);
                gates(
                    kernel,
                    &acts.gx[src * g3..(src + 1) * g3],
                    &acts.gh[o3..o3 + g3],
                    bias,
                    (&mut acts.pre, &mut acts.rnh),
                    [
                        &mut acts.z[r.clone()],
                        &mut acts.r[r.clone()],
                        &mut acts.n[r],
                    ],
                );
            }
            // The tape's `(−z) + 1` rounds as `1 − z`.
            for (o, &z) in acts.omz[s0..s1].iter_mut().zip(&acts.z[s0..s1]) {
                *o = 1.0 - z;
            }
            let h_prev = match prev {
                Some(p0) => &acts.h[p0..p0 + ah],
                None => &acts.zeros[..ah],
            };
            kernel.mul(&acts.z[s0..s1], h_prev, &mut acts.keep[..ah]);
            kernel.mul(&acts.omz[s0..s1], &acts.n[s0..s1], &mut acts.new[..ah]);
            kernel.add(&acts.new[..ah], &acts.keep[..ah], &mut acts.h[s0..s1]);
            for rank in 0..active {
                let (_, dst) = pack.step_rows(rank, t, false);
                out[dst * h..(dst + 1) * h]
                    .copy_from_slice(&acts.h[s0 + rank * h..s0 + (rank + 1) * h]);
            }
        }
    }

    /// The backward half of [`Self::train_forward`], run on the same `pack`,
    /// `xs` and `acts`: backpropagation through time from `dh`, the
    /// gradient of every output row (laid out as the packing's output).
    /// Accumulates the gradients of the weights and the bias into `grads`
    /// in the tape's order ([`crate::bptt`]).
    ///
    /// `dh_t` is the output's part, then the `keep` term `dh_{t+1}·z_{t+1}`,
    /// then the recurrent `dot` terms of step `t + 1`, added in that order;
    /// `z`'s gradient is `dh·h_{t−1}` minus `dh·n`, as the tape's `1 − z`
    /// node passes it back.
    pub fn train_backward(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        acts: &GruActs,
        dh: &[f32],
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        let work = &mut scratch.work;
        let h = self.hidden;
        let g3 = 3 * h;
        let kernel = crate::simd::active();
        let wh = ps.value(self.wh).data();
        let (batch, rows) = (pack.active(0), pack.output_rows());
        zeroed(&mut work.dpre, rows * g3);
        zeroed(&mut work.dgh, rows * g3);
        for buf in [
            &mut work.dh,
            &mut work.carry,
            &mut work.dz,
            &mut work.d_omz,
            &mut work.dn,
            &mut work.dn_pre,
            &mut work.dr,
            &mut work.zeros,
        ] {
            zeroed(buf, batch * h);
        }
        for t in (0..pack.max_len()).rev() {
            let (active, next) = (pack.active(t), pack.active(t + 1));
            let (ah, nh) = (active * h, next * h);
            let (s0, s1) = (acts.starts[t] * h, acts.starts[t] * h + ah);
            for rank in 0..active {
                let (_, dst) = pack.step_rows(rank, t, false);
                work.dh[rank * h..(rank + 1) * h].copy_from_slice(&dh[dst * h..(dst + 1) * h]);
            }
            if next > 0 {
                kernel.axpy(1.0, &work.carry[..nh], &mut work.dh[..nh]);
                let n0 = acts.starts[t + 1] * g3;
                let dgh = &work.dgh[n0..n0 + next * g3];
                kernel.matmul_a_bt_acc(dgh, wh, &mut work.dh[..nh], next, g3, h);
            }
            let h_prev = match t.checked_sub(1) {
                Some(p) => &acts.h[acts.starts[p] * h..acts.starts[p] * h + ah],
                None => &work.zeros[..ah],
            };
            let g = &work.dh[..ah];
            kernel.mul(g, h_prev, &mut work.dz[..ah]);
            kernel.mul(g, &acts.n[s0..s1], &mut work.d_omz[..ah]);
            kernel.axpy(-1.0, &work.d_omz[..ah], &mut work.dz[..ah]);
            kernel.mul(g, &acts.omz[s0..s1], &mut work.dn[..ah]);
            kernel.mul(g, &acts.z[s0..s1], &mut work.carry[..ah]);
            kernel.tanh_bwd(&work.dn[..ah], &acts.n[s0..s1], &mut work.dn_pre[..ah]);
            for rank in 0..active {
                let (r, a) = (rank * h..(rank + 1) * h, s0 + rank * h..s0 + (rank + 1) * h);
                let p0 = (acts.starts[t] + rank) * g3;
                let nh_row = &acts.gh[p0 + 2 * h..p0 + g3];
                kernel.mul(&work.dn_pre[r.clone()], nh_row, &mut work.dr[r.clone()]);
                let dgx = &mut work.dpre[p0..p0 + g3];
                kernel.sigmoid_bwd(&work.dz[r.clone()], &acts.z[a.clone()], &mut dgx[..h]);
                kernel.sigmoid_bwd(&work.dr[r.clone()], &acts.r[a.clone()], &mut dgx[h..2 * h]);
                dgx[2 * h..].copy_from_slice(&work.dn_pre[r.clone()]);
                let dgh = &mut work.dgh[p0..p0 + g3];
                dgh[..2 * h].copy_from_slice(&dgx[..2 * h]);
                kernel.mul(&work.dn_pre[r], &acts.r[a], &mut dgh[2 * h..]);
            }
        }
        let (dgx, dgh) = (
            std::mem::take(&mut work.dpre),
            std::mem::take(&mut work.dgh),
        );
        let ids = [self.wx, self.wh, self.b];
        recurrent_param_grads(
            pack,
            false,
            &acts.starts,
            xs,
            &acts.h,
            &dgx,
            &dgh,
            ids,
            grads,
            work,
        );
        (work.dpre, work.dgh) = (dgx, dgh);
    }
}

#[cfg(any(test, feature = "reference"))]
impl Gru {
    /// The three per-gate bias slices `(z, r, n)`, recorded once so every
    /// step of a sequence shares the same nodes.
    fn bias_slices(&self, g: &mut Graph) -> (Var, Var, Var) {
        let b = g.param(self.b);
        let hsz = self.hidden;
        (
            g.slice_cols(b, 0, hsz),
            g.slice_cols(b, hsz, 2 * hsz),
            g.slice_cols(b, 2 * hsz, 3 * hsz),
        )
    }

    /// One recurrence step with pre-sliced gate biases. Each gate is the
    /// canonical `act(x·Wx + h·Wh + b)` form, evaluated by the fused
    /// bias-then-activation kernels (the bias joins last, inside the gate —
    /// the textbook formula, rather than folded into `x·Wx` up front).
    fn step_with_bias(&self, g: &mut Graph, x: Var, h: Var, bias: (Var, Var, Var)) -> Var {
        debug_assert_eq!(g.value(x).shape(), (1, self.in_dim), "gru input shape");
        let (bz, br, bn) = bias;
        let wx = g.param(self.wx);
        let wh = g.param(self.wh);
        let gx = g.matmul(x, wx);
        let gh = g.matmul(h, wh);
        let hsz = self.hidden;
        let zx = g.slice_cols(gx, 0, hsz);
        let rx = g.slice_cols(gx, hsz, 2 * hsz);
        let nx = g.slice_cols(gx, 2 * hsz, 3 * hsz);
        let zh = g.slice_cols(gh, 0, hsz);
        let rh = g.slice_cols(gh, hsz, 2 * hsz);
        let nh = g.slice_cols(gh, 2 * hsz, 3 * hsz);
        let z_pre = g.add(zx, zh);
        let z = g.sigmoid_gate(z_pre, bz);
        let r_pre = g.add(rx, rh);
        let r = g.sigmoid_gate(r_pre, br);
        let rnh = g.mul(r, nh);
        let n_pre = g.add(nx, rnh);
        let n = g.tanh_gate(n_pre, bn);
        let omz = g.one_minus(z);
        let new_part = g.mul(omz, n);
        let keep_part = g.mul(z, h);
        g.add(new_part, keep_part)
    }

    /// One recurrence step: consumes `x` (1×in_dim) and `h`, returns new `h`.
    pub fn step(&self, g: &mut Graph, x: Var, h: Var) -> Var {
        let bias = self.bias_slices(g);
        self.step_with_bias(g, x, h, bias)
    }

    /// Runs the recurrence over a sequence of 1×in_dim nodes, returning every
    /// hidden state.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        assert!(!xs.is_empty(), "GRU over an empty sequence");
        let bias = self.bias_slices(g);
        let mut h = g.constant(Matrix::zeros(1, self.hidden));
        let mut hs = Vec::with_capacity(xs.len());
        for &x in xs {
            h = self.step_with_bias(g, x, h, bias);
            hs.push(h);
        }
        hs
    }
}

/// The gates of one GRU step for one row, shared by inference and
/// training: `z` and `r` from `gx + gh`, then `n` from `gx + r·(h·Whn)`,
/// each through the fused bias-then-activation kernels.
#[inline]
fn gates(
    kernel: crate::simd::Backend,
    gx: &[f32],
    gh: &[f32],
    bias: &[f32],
    (pre, rnh): (&mut [f32], &mut [f32]),
    [z, r, n]: [&mut [f32]; 3],
) {
    let h = z.len();
    kernel.add(&gx[..h], &gh[..h], pre);
    kernel.sigmoid_gate(pre, &bias[..h], z);
    kernel.add(&gx[h..2 * h], &gh[h..2 * h], pre);
    kernel.sigmoid_gate(pre, &bias[h..2 * h], r);
    kernel.mul(r, &gh[2 * h..], rnh);
    kernel.add(&gx[2 * h..], rnh, pre);
    kernel.tanh_gate(pre, &bias[2 * h..], n);
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
                    ((i * d + c) as f32 * 0.29).cos() * 0.4
                }))
            })
            .collect()
    }

    #[test]
    fn forward_emits_one_hidden_per_step() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(31);
        let gru = Gru::new(&mut ps, &mut rng, "g", 3, 6);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 5, 3);
        let hs = gru.forward(&mut g, &xs);
        assert_eq!(hs.len(), 5);
        for &h in &hs {
            assert_eq!(g.value(h).shape(), (1, 6));
        }
    }

    #[test]
    fn hidden_values_bounded() {
        // h is a convex combination of tanh outputs, so |h| < 1.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(37);
        let gru = Gru::new(&mut ps, &mut rng, "g", 2, 4);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 30, 2);
        for &h in &gru.forward(&mut g, &xs) {
            assert!(g.value(h).data().iter().all(|v| v.abs() < 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(41);
        let gru = Gru::new(&mut ps, &mut rng, "g", 2, 3);
        let mut g = Graph::new(&ps);
        let _ = gru.forward(&mut g, &[]);
    }

    #[test]
    fn gradcheck_through_time() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(43);
        let gru = Gru::new(&mut ps, &mut rng, "g", 2, 3);
        for target in [gru.wx, gru.wh, gru.b] {
            let l = gru.clone();
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
