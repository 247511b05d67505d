//! Bidirectional and stacked-bidirectional LSTMs (the paper's detectors,
//! Section V-B).

use crate::infer::{zeroed, Packing, Scratch};
use crate::layers::{Linear, Lstm};
use crate::params::ParamSet;
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

    /// Runs both directions over every sequence of a packed batch and
    /// merges per step, without a tape; `out` is laid out as the packing's
    /// output, `hidden` wide. Bit-identical to [`Self::forward`] on each
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
        let rows = pack.output_rows();
        zeroed(&mut scratch.cat, rows * 2 * h);
        for (r, cat) in scratch.cat.chunks_exact_mut(2 * h).enumerate() {
            cat[..h].copy_from_slice(&scratch.fwd[r * h..(r + 1) * h]);
            cat[h..].copy_from_slice(&scratch.bwd[r * h..(r + 1) * h]);
        }
        self.merge.infer(ps, &scratch.cat, out);
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

    /// Runs the whole stack; output length equals input length.
    pub fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        let mut seq: Vec<Var> = xs.to_vec();
        for layer in &self.layers {
            seq = layer.forward(g, &seq);
        }
        seq
    }

    /// Runs the whole stack over every sequence of a packed batch without a
    /// tape; `out` is laid out as the packing's output. Bit-identical to
    /// [`Self::forward`] on each sequence.
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
