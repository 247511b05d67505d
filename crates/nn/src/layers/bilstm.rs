//! Bidirectional and stacked-bidirectional LSTMs (the paper's detectors,
//! Section V-B).

use crate::bptt::{LayerActs, TrainScratch, Work};
use crate::infer::{zeroed, Packing, Scratch};
use crate::layers::{Linear, Lstm};
use crate::params::{Gradients, ParamSet};
#[cfg(any(test, feature = "reference"))]
use crate::tape::{Graph, Var};
use rand::Rng;

/// A bidirectional LSTM layer.
///
/// Per the paper's Equation (9): a forward LSTM reads the sequence
/// left-to-right, a backward LSTM right-to-left, the per-step hidden pairs are
/// concatenated and passed through a fully connected layer so the output width
/// equals the single-direction hidden width (keeping stacked layers uniform).
/// Both directions inherit the fused, SIMD-dispatched gate kernels from
/// [`Lstm`], and the merge layer's product/bias run on the same backends.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
    merge: Linear,
    hidden: usize,
}

impl BiLstm {
    /// Registers a BiLSTM with `in_dim` inputs and `hidden` units per
    /// direction under `name`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let fwd = Lstm::new(ps, rng, &format!("{name}.fwd"), in_dim, hidden);
        let bwd = Lstm::new(ps, rng, &format!("{name}.bwd"), in_dim, hidden);
        let merge = Linear::new(ps, rng, &format!("{name}.merge"), 2 * hidden, hidden);
        Self {
            fwd,
            bwd,
            merge,
            hidden,
        }
    }

    /// Hidden width per direction (equal to the output width).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs both directions over every sequence of a packed batch and
    /// merges per step, without a tape; `out` is laid out as the packing's
    /// output, `hidden` wide. Bit-identical to `Self::forward` on each
    /// sequence.
    ///
    /// # Panics
    /// Panics if `xs` does not hold the rows the packing reads.
    pub fn infer(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) {
        let h = self.hidden;
        self.fwd.infer_with(
            ps,
            pack,
            xs,
            false,
            None,
            &mut scratch.fwd,
            &mut scratch.cell,
        );
        self.bwd.infer_with(
            ps,
            pack,
            xs,
            true,
            None,
            &mut scratch.bwd,
            &mut scratch.cell,
        );
        concat_rows(&scratch.fwd, &scratch.bwd, h, &mut scratch.cat);
        self.merge.infer(ps, &scratch.cat, out);
    }

    /// The training counterpart of [`Self::infer`]: the same forward pass,
    /// keeping its activations in `acts`; the output rows land in
    /// `acts.out`.
    fn train_forward(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        acts: &mut LayerActs,
        work: &mut Work,
    ) {
        let h = self.hidden;
        let LayerActs {
            fwd,
            bwd,
            hf,
            hb,
            cat,
            out,
        } = acts;
        self.fwd
            .train_forward_with(ps, pack, xs, false, fwd, hf, work);
        self.bwd
            .train_forward_with(ps, pack, xs, true, bwd, hb, work);
        concat_rows(hf, hb, h, cat);
        self.merge.infer(ps, cat, out);
    }

    /// The backward half of [`Self::train_forward`] from `dy`, the gradient
    /// of every output row. Given `dx`, writes the gradient of every input
    /// row there: the backward direction's terms first, as the tape adds
    /// them.
    #[expect(clippy::too_many_arguments, reason = "mirrors train_forward")]
    fn train_backward(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        acts: &LayerActs,
        dy: &[f32],
        dx: Option<&mut Vec<f32>>,
        grads: &mut Gradients,
        work: &mut Work,
    ) {
        let h = self.hidden;
        let mut dcat = std::mem::take(&mut work.dcat);
        let (mut dhf, mut dhb) = (std::mem::take(&mut work.dhf), std::mem::take(&mut work.dhb));
        let visits = super::linear::rows_last_first(pack.output_rows());
        self.merge
            .backward_with(ps, &acts.cat, dy, visits, Some(&mut dcat), grads, work);
        zeroed(&mut dhf, pack.output_rows() * h);
        zeroed(&mut dhb, pack.output_rows() * h);
        for ((row, f), b) in dcat
            .chunks_exact(2 * h)
            .zip(dhf.chunks_exact_mut(h))
            .zip(dhb.chunks_exact_mut(h))
        {
            f.copy_from_slice(&row[..h]);
            b.copy_from_slice(&row[h..]);
        }
        let mut dx = dx.map(|dx| {
            zeroed(dx, xs.len());
            dx.as_mut_slice()
        });
        self.bwd.train_backward_with(
            ps,
            pack,
            xs,
            true,
            &acts.bwd,
            &dhb,
            dx.as_deref_mut(),
            grads,
            work,
        );
        self.fwd
            .train_backward_with(ps, pack, xs, false, &acts.fwd, &dhf, dx, grads, work);
        (work.dcat, work.dhf, work.dhb) = (dcat, dhf, dhb);
    }
}

#[cfg(any(test, feature = "reference"))]
impl BiLstm {
    /// Runs both directions over `xs` and merges per step; output length
    /// equals input length, each node 1×hidden.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        assert!(!xs.is_empty(), "BiLSTM over an empty sequence");
        let hs_fwd = self.fwd.forward(g, xs);
        let rev: Vec<Var> = xs.iter().rev().copied().collect();
        let mut hs_bwd = self.bwd.forward(g, &rev);
        hs_bwd.reverse();
        hs_fwd
            .iter()
            .zip(hs_bwd.iter())
            .map(|(&hf, &hb)| {
                let cat = g.concat_cols(&[hf, hb]);
                self.merge.forward(g, cat)
            })
            .collect()
    }
}

/// Sets `cat` to the rows `[fwd | bwd]` of two `h`-wide row sets: the merge
/// layer's input.
fn concat_rows(fwd: &[f32], bwd: &[f32], h: usize, cat: &mut Vec<f32>) {
    zeroed(cat, 2 * fwd.len());
    for ((row, f), b) in cat
        .chunks_exact_mut(2 * h)
        .zip(fwd.chunks_exact(h))
        .zip(bwd.chunks_exact(h))
    {
        row[..h].copy_from_slice(f);
        row[h..].copy_from_slice(b);
    }
}

/// A stack of [`BiLstm`] layers (the paper uses `L = 4`), each consuming the
/// previous layer's per-step outputs. Deeper layers extract sequential
/// features at coarser timescales (Pascanu et al. 2013).
#[derive(Debug, Clone)]
pub struct StackedBiLstm {
    layers: Vec<BiLstm>,
}

impl StackedBiLstm {
    /// Registers `num_layers` stacked BiLSTM layers; the first maps
    /// `in_dim → hidden`, the rest `hidden → hidden`.
    ///
    /// # Panics
    /// Panics if `num_layers == 0`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
        num_layers: usize,
    ) -> Self {
        assert!(num_layers > 0, "stacked BiLSTM needs at least one layer");
        let layers = (0..num_layers)
            .map(|i| {
                let d = if i == 0 { in_dim } else { hidden };
                BiLstm::new(ps, rng, &format!("{name}.l{i}"), d, hidden)
            })
            .collect();
        Self { layers }
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output width.
    pub fn hidden(&self) -> usize {
        self.layers.first().map_or(0, |l| l.hidden())
    }

    /// Runs the whole stack over every sequence of a packed batch without a
    /// tape; `out` is laid out as the packing's output. Bit-identical to
    /// `Self::forward` on each sequence.
    ///
    /// # Panics
    /// Panics unless the packing reads its input back to back (each
    /// layer's output is the next layer's input, in the same layout).
    pub fn infer(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) {
        assert!(
            pack.reads_back_to_back(),
            "stacked BiLSTM layers chain outputs back to back"
        );
        let mut input = std::mem::take(&mut scratch.stack);
        for (i, layer) in self.layers.iter().enumerate() {
            if i == 0 {
                layer.infer(ps, pack, xs, out, scratch);
            } else {
                std::mem::swap(&mut input, out);
                layer.infer(ps, pack, &input, out, scratch);
            }
        }
        scratch.stack = input;
    }

    /// The training counterpart of [`Self::infer`]: the same forward pass
    /// over every sequence of a packed batch, from the zero state, keeping
    /// the activations [`Self::train_backward`] needs in `scratch`. `out`
    /// is laid out as the packing's output.
    ///
    /// # Panics
    /// Panics unless the packing reads its input back to back.
    pub fn train_forward(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        out: &mut Vec<f32>,
        scratch: &mut TrainScratch,
    ) {
        assert!(
            pack.reads_back_to_back(),
            "stacked BiLSTM layers chain outputs back to back"
        );
        let TrainScratch { layers, work } = scratch;
        layers.resize_with(self.layers.len(), LayerActs::default);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = layers.split_at_mut(i);
            let input = done.last().map_or(xs, |prev| prev.out.as_slice());
            if let Some(acts) = rest.first_mut() {
                layer.train_forward(ps, pack, input, acts, work);
            }
        }
        // The last layer's output is no layer's input: hand it over.
        if let Some(last) = layers.last_mut() {
            std::mem::swap(out, &mut last.out);
        }
    }

    /// The backward half of [`Self::train_forward`], run on the same `pack`
    /// and `xs` right after it: from `dy`, the gradient of every output
    /// row, accumulates the gradient of every parameter of the stack into
    /// `grads`, bit-identical to `Self::forward` on each sequence, in
    /// sequence order, on one tape and `Graph::backward` (see
    /// [`crate::bptt`]). The inputs are constants: no gradient flows into
    /// `xs`.
    ///
    /// # Panics
    /// Panics if `scratch` does not hold this stack's forward pass.
    pub fn train_backward(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        dy: &[f32],
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        let TrainScratch { layers, work } = scratch;
        assert_eq!(layers.len(), self.layers.len(), "no forward pass to train");
        let (mut grad, mut below) = (std::mem::take(&mut work.dy), std::mem::take(&mut work.dx));
        grad.clear();
        grad.extend_from_slice(dy);
        for (i, (layer, acts)) in self.layers.iter().zip(layers.iter()).enumerate().rev() {
            let input = match i.checked_sub(1) {
                Some(p) => layers[p].out.as_slice(),
                None => xs,
            };
            let dx = (i > 0).then_some(&mut below);
            layer.train_backward(ps, pack, input, acts, &grad, dx, grads, work);
            std::mem::swap(&mut grad, &mut below);
        }
        (work.dy, work.dx) = (grad, below);
    }
}

#[cfg(any(test, feature = "reference"))]
impl StackedBiLstm {
    /// Runs the whole stack; output length equals input length.
    pub fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        let mut seq: Vec<Var> = xs.to_vec();
        for layer in &self.layers {
            seq = layer.forward(g, &seq);
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(g: &mut Graph, t: usize, d: usize) -> Vec<Var> {
        (0..t)
            .map(|i| {
                g.constant(Matrix::from_fn(1, d, |_, c| {
                    ((i + c) as f32 * 0.37).sin() * 0.6
                }))
            })
            .collect()
    }

    #[test]
    fn bilstm_preserves_length_and_width() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(47);
        let bl = BiLstm::new(&mut ps, &mut rng, "b", 3, 5);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 6, 3);
        let ys = bl.forward(&mut g, &xs);
        assert_eq!(ys.len(), 6);
        for &y in &ys {
            assert_eq!(g.value(y).shape(), (1, 5));
        }
    }

    #[test]
    fn bilstm_sees_the_future() {
        // Changing the *last* input must change the *first* output (the
        // backward direction carries future context) — a plain LSTM would not.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(53);
        let bl = BiLstm::new(&mut ps, &mut rng, "b", 2, 4);

        let run = |last_val: f32| {
            let mut g = Graph::new(&ps);
            let mut xs = seq(&mut g, 5, 2);
            let replaced = g.constant(Matrix::full(1, 2, last_val));
            *xs.last_mut().unwrap() = replaced;
            let ys = bl.forward(&mut g, &xs);
            g.value(ys[0]).clone()
        };
        assert_ne!(run(0.9).data(), run(-0.9).data());
    }

    #[test]
    fn singleton_sequence_works() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(59);
        let bl = BiLstm::new(&mut ps, &mut rng, "b", 2, 3);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 1, 2);
        let ys = bl.forward(&mut g, &xs);
        assert_eq!(ys.len(), 1);
    }

    #[test]
    fn stacked_runs_all_layers() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(61);
        let st = StackedBiLstm::new(&mut ps, &mut rng, "s", 3, 4, 4);
        assert_eq!(st.num_layers(), 4);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 5, 3);
        let ys = st.forward(&mut g, &xs);
        assert_eq!(ys.len(), 5);
        for &y in &ys {
            assert_eq!(g.value(y).shape(), (1, 4));
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(67);
        let _ = StackedBiLstm::new(&mut ps, &mut rng, "s", 3, 4, 0);
    }
}
