//! Compression and decompression operators (Section IV-B).
//!
//! A **compression operator** is an LSTM whose hidden states are aggregated by
//! a self-attention mechanism (Equations (2)–(4)): the last hidden state
//! forms the query, every step a key, and the attention-weighted sum passes
//! through two fully connected layers with a final `tanh`. Without attention
//! (the `LEAD-NoSel` ablation) the last hidden state is used directly.
//!
//! A **decompression operator** is an LSTM fed the *same* input vector at
//! every step (Equation (5)); the stacked hidden states pass through two
//! fully connected layers with a final `tanh` (Equation (6)), recovering a
//! sequence of the requested length.
//!
//! Each operator runs three ways, all with the same bits: recorded on a
//! tape (`compress_vars`, `decompress`; the reference), evaluated without a
//! tape over packed batches (the compressor's `infer_*`, for encoding), and
//! trained without a tape (`train_forward`/`train_backward`): one packed
//! pass over many sequences, whose hand-written backward pass gives the
//! tape's gradients to the bit (DESIGN.md §17).

use lead_nn::bptt::{AttentionActs, LstmActs, TrainScratch};
use lead_nn::infer::{LstmState, Packing, Scratch};
use lead_nn::layers::{Linear, Lstm, SelfAttention};
use lead_nn::simd::Kernel;
use lead_nn::{Gradients, ParamSet};
#[cfg(any(test, feature = "reference"))]
use lead_nn::{Graph, Matrix, Var};
use rand::Rng;

/// LSTM + (optional) self-attention + 2 FC + `tanh`: sequence → vector.
#[derive(Debug, Clone)]
pub struct CompressionOperator {
    lstm: Lstm,
    attention: Option<SelfAttention>,
    fc1: Linear,
    fc2: Linear,
}

impl CompressionOperator {
    /// Registers an operator compressing `in_dim`-wide sequences into
    /// `hidden`-wide vectors. `use_attention = false` reproduces
    /// `LEAD-NoSel`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
        use_attention: bool,
    ) -> Self {
        Self {
            lstm: Lstm::new(ps, rng, &format!("{name}.lstm"), in_dim, hidden),
            attention: use_attention
                .then(|| SelfAttention::new(ps, rng, &format!("{name}.att"), hidden, hidden)),
            fc1: Linear::new(ps, rng, &format!("{name}.fc1"), hidden, hidden),
            fc2: Linear::new(ps, rng, &format!("{name}.fc2"), hidden, hidden),
        }
    }

    /// Input row width.
    pub(crate) fn in_dim(&self) -> usize {
        self.lstm.in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.lstm.hidden()
    }

    /// Whether the attention aggregation is enabled.
    pub fn has_attention(&self) -> bool {
        self.attention.is_some()
    }

    /// Width of the attention keys [`Self::infer_steps`] writes (0 without
    /// attention).
    pub(crate) fn key_dim(&self) -> usize {
        self.attention.as_ref().map_or(0, SelfAttention::key_dim)
    }

    /// Steps the LSTM over every sequence of `pack` without a tape,
    /// starting each from its row of `state` and leaving its final state
    /// there ([`Lstm::infer`]). `hs` receives the hidden row of every step
    /// and `keys` its attention key (nothing without attention), both laid
    /// out as the packing's output. A key depends on its own hidden row
    /// only, so the keys of a run split over several calls are the keys of
    /// the whole run, and any prefix of a sequence can be pooled from the
    /// first rows of its outputs ([`Self::infer_pool`]).
    ///
    /// # Panics
    /// Panics if `xs` does not hold the rows the packing reads or `state`
    /// does not hold one row per sequence.
    pub(crate) fn infer_steps(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        state: &mut LstmState,
        hs: &mut Vec<f32>,
        keys: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) {
        self.lstm.infer(ps, pack, xs, false, state, hs, scratch);
        match &self.attention {
            Some(att) => att.infer_keys(ps, hs, keys),
            None => keys.clear(),
        }
    }

    /// Compresses sequences from their LSTM outputs: entry `i` of `seqs`
    /// holds one sequence's hidden rows and keys ([`Self::infer_steps`];
    /// the keys empty without attention), and row `i` of `out` (`hidden`
    /// wide) receives its compression. The last hidden row is the query
    /// source, or the aggregate itself without attention; the queries and
    /// the two FC layers run once over all sequences. Together with
    /// [`Self::infer_steps`], bit-identical to `Self::compress_vars` on
    /// each sequence.
    ///
    /// # Panics
    /// Panics if a sequence has no hidden row, or its keys do not match its
    /// hidden rows.
    pub(crate) fn infer_pool(&self, ps: &ParamSet, seqs: &[(&[f32], &[f32])], out: &mut Vec<f32>) {
        let h = self.out_dim();
        assert!(
            seqs.iter().all(|(hs, _)| !hs.is_empty()),
            "compression of an empty sequence"
        );
        let mut pooled: Vec<f32> = seqs
            .iter()
            .flat_map(|(hs, _)| hs[hs.len() - h..].iter().copied())
            .collect();
        if let Some(att) = &self.attention {
            let (mut queries, mut scores) = (Vec::new(), Vec::new());
            att.infer_queries(ps, &pooled, &mut queries);
            for (i, ((hs, keys), query)) in seqs
                .iter()
                .zip(queries.chunks_exact(att.key_dim()))
                .enumerate()
            {
                att.infer_pool(
                    query,
                    keys,
                    hs,
                    &mut scores,
                    &mut pooled[i * h..(i + 1) * h],
                );
            }
        }
        let mut a = Vec::new();
        self.fc1.infer(ps, &pooled, &mut a);
        self.fc2.infer(ps, &a, &mut pooled);
        out.clear();
        out.resize(pooled.len(), 0.0);
        lead_nn::simd::active().tanh(&pooled, out);
    }

    /// Compresses sequences stored back to back in `xs` (sequence `i`
    /// holding `lens[i]` rows) in one packed pass, keeping what
    /// [`Self::train_backward`] needs in `acts`; [`CompressActs::out`] then
    /// holds one `hidden`-wide row per sequence. Bit-identical to
    /// `Self::compress_vars` on each sequence.
    ///
    /// # Panics
    /// Panics if a sequence is empty or the lengths do not cover `xs`.
    pub(crate) fn train_forward(
        &self,
        ps: &ParamSet,
        lens: &[usize],
        xs: &[f32],
        acts: &mut CompressActs,
        scratch: &mut TrainScratch,
    ) {
        assert!(
            lens.iter().all(|&len| len > 0),
            "compression of an empty sequence"
        );
        let pack = Packing::back_to_back(lens);
        self.lstm
            .train_forward(ps, &pack, xs, &mut acts.lstm, &mut acts.hs, scratch);
        match &self.attention {
            Some(att) => att.train_forward(ps, lens, &acts.hs, &mut acts.att, &mut acts.pooled),
            None => {
                let h = self.out_dim();
                acts.pooled.clear();
                let mut end = 0;
                for &len in lens {
                    end += len;
                    acts.pooled
                        .extend_from_slice(&acts.hs[(end - 1) * h..end * h]);
                }
            }
        }
        fc_tanh(ps, &self.fc1, &self.fc2, &acts.pooled, &mut acts.fc);
    }

    /// The backward half of [`Self::train_forward`], run on the same `lens`,
    /// `xs` and `acts`, from `dout`, the gradient of every compressed row:
    /// accumulates every parameter's gradient into `grads` and, given `dx`,
    /// adds the gradient of every input row to it. `to_bits`-equal to
    /// `Self::compress_vars` on each sequence, in sequence order, on one
    /// tape and `Graph::backward` (DESIGN.md §17).
    #[expect(clippy::too_many_arguments, reason = "mirrors train_forward")]
    pub(crate) fn train_backward(
        &self,
        ps: &ParamSet,
        lens: &[usize],
        xs: &[f32],
        acts: &mut CompressActs,
        dout: &[f32],
        dx: Option<&mut [f32]>,
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        fc_tanh_backward(
            ps,
            &self.fc1,
            &self.fc2,
            &acts.pooled,
            &mut acts.fc,
            dout,
            None,
            grads,
            scratch,
        );
        let dpooled = &acts.fc.dx;
        match &self.attention {
            Some(att) => att.train_backward(
                ps,
                lens,
                &acts.hs,
                &acts.att,
                dpooled,
                &mut acts.dh,
                grads,
                scratch,
            ),
            None => {
                let h = self.out_dim();
                acts.dh.clear();
                acts.dh.resize(acts.hs.len(), 0.0);
                let mut end = 0;
                for (&len, d) in lens.iter().zip(dpooled.chunks_exact(h)) {
                    end += len;
                    acts.dh[(end - 1) * h..end * h].copy_from_slice(d);
                }
            }
        }
        let pack = Packing::back_to_back(lens);
        self.lstm
            .train_backward(ps, &pack, xs, &acts.lstm, &acts.dh, dx, grads, scratch);
    }
}

#[cfg(any(test, feature = "reference"))]
impl CompressionOperator {
    /// Compresses a sequence of 1×in_dim nodes into a 1×hidden vector.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn compress_vars(&self, g: &mut Graph, xs: &[Var]) -> Var {
        assert!(!xs.is_empty(), "compression of an empty sequence");
        let hs = self.lstm.forward(g, xs);
        let h = match &self.attention {
            Some(att) => att.aggregate(g, &hs),
            #[expect(
                clippy::expect_used,
                reason = "xs non-empty is asserted at entry, and the LSTM preserves length"
            )]
            None => *hs.last().expect("non-empty"),
        };
        let a = self.fc1.forward(g, h);
        let b = self.fc2.forward(g, a);
        g.tanh(b)
    }

    /// Compresses a (T × in_dim) feature matrix (recorded as a constant).
    pub fn compress_matrix(&self, g: &mut Graph, seq: &Matrix) -> Var {
        assert!(seq.rows() > 0, "compression of an empty sequence");
        let input = g.constant(seq.clone());
        let xs: Vec<Var> = (0..seq.rows()).map(|r| g.row(input, r)).collect();
        self.compress_vars(g, &xs)
    }
}

/// What a compression operator's training pass keeps for its backward
/// pass, and the backward pass's own temporaries.
#[derive(Debug, Default)]
pub(crate) struct CompressActs {
    lstm: LstmActs,
    /// The LSTM's hidden rows, laid out as its packing's output.
    hs: Vec<f32>,
    att: AttentionActs,
    /// The pooled row of every sequence (the FC layers' input).
    pooled: Vec<f32>,
    fc: FcActs,
    /// The gradient of every hidden row.
    dh: Vec<f32>,
}

impl CompressActs {
    /// The compressed rows, one per sequence.
    pub(crate) fn out(&self) -> &[f32] {
        &self.fc.out
    }
}

/// The two FC layers and the `tanh` both operators end in: the hidden
/// layer's rows, the output rows, and the backward pass's temporaries.
#[derive(Debug, Default)]
struct FcActs {
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
    db: Vec<f32>,
    da: Vec<f32>,
    /// The gradient of every input row of the first layer.
    dx: Vec<f32>,
}

/// `tanh(fc2(fc1(x)))` over every row of `x`, kept in `acts`.
fn fc_tanh(ps: &ParamSet, fc1: &Linear, fc2: &Linear, x: &[f32], acts: &mut FcActs) {
    fc1.infer(ps, x, &mut acts.a);
    fc2.infer(ps, &acts.a, &mut acts.b);
    acts.out.clear();
    acts.out.resize(acts.b.len(), 0.0);
    lead_nn::simd::active().tanh(&acts.b, &mut acts.out);
}

/// The backward half of [`fc_tanh`] from `dout`, writing the gradient of
/// every input row to `acts.dx`. With `blocks`, each FC layer ran once per
/// block of rows ([`Linear::train_backward_blocks`]); without, once per
/// row.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors fc_tanh plus the gradients"
)]
fn fc_tanh_backward(
    ps: &ParamSet,
    fc1: &Linear,
    fc2: &Linear,
    x: &[f32],
    acts: &mut FcActs,
    dout: &[f32],
    blocks: Option<&[usize]>,
    grads: &mut Gradients,
    scratch: &mut TrainScratch,
) {
    acts.db.clear();
    acts.db.resize(dout.len(), 0.0);
    lead_nn::simd::active().tanh_bwd(dout, &acts.out, &mut acts.db);
    match blocks {
        Some(blocks) => {
            fc2.train_backward_blocks(ps, &acts.a, &acts.db, blocks, &mut acts.da, grads, scratch);
            fc1.train_backward_blocks(ps, x, &acts.da, blocks, &mut acts.dx, grads, scratch);
        }
        None => {
            fc2.train_backward(ps, &acts.a, &acts.db, Some(&mut acts.da), grads, scratch);
            fc1.train_backward(ps, x, &acts.da, Some(&mut acts.dx), grads, scratch);
        }
    }
}

/// Input-repeating LSTM + 2 FC + `tanh`: vector → sequence.
#[derive(Debug, Clone)]
pub struct DecompressionOperator {
    lstm: Lstm,
    fc1: Linear,
    fc2: Linear,
}

impl DecompressionOperator {
    /// Registers an operator expanding `in_dim`-wide vectors into sequences
    /// of `out_dim`-wide rows through a `hidden`-unit LSTM.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
    ) -> Self {
        Self {
            lstm: Lstm::new(ps, rng, &format!("{name}.lstm"), in_dim, hidden),
            fc1: Linear::new(ps, rng, &format!("{name}.fc1"), hidden, hidden),
            fc2: Linear::new(ps, rng, &format!("{name}.fc2"), hidden, out_dim),
        }
    }

    /// Output row width.
    pub fn out_dim(&self) -> usize {
        self.fc2.out_dim()
    }

    /// Decompresses every row of `vs` (`in_dim` wide) into a sequence of
    /// `steps[i]` rows in one packed repeated-input pass, keeping what
    /// [`Self::train_backward`] needs in `acts`; [`DecompressActs::out`]
    /// then holds the sequences back to back. Bit-identical to
    /// `Self::decompress` on each row.
    ///
    /// # Panics
    /// Panics if a step count is zero or `vs` does not hold one row per
    /// sequence.
    pub(crate) fn train_forward(
        &self,
        ps: &ParamSet,
        steps: &[usize],
        vs: &[f32],
        acts: &mut DecompressActs,
        scratch: &mut TrainScratch,
    ) {
        assert_eq!(
            vs.len(),
            steps.len() * self.lstm.in_dim(),
            "one decompressed vector per sequence"
        );
        assert!(
            steps.iter().all(|&t| t > 0),
            "decompression over zero steps"
        );
        let pack = Packing::repeated(steps);
        self.lstm
            .train_forward(ps, &pack, vs, &mut acts.lstm, &mut acts.hs, scratch);
        fc_tanh(ps, &self.fc1, &self.fc2, &acts.hs, &mut acts.fc);
    }

    /// The backward half of [`Self::train_forward`], run on the same `steps`,
    /// `vs` and `acts`, from `dout`, the gradient of every output row:
    /// accumulates every parameter's gradient into `grads` and writes the
    /// gradient of every row of `vs` to `dv`. `to_bits`-equal to
    /// `Self::decompress` on each row, in row order, on one tape and
    /// `Graph::backward`: the tape visits the last call first, each FC
    /// layer's rows of one call in ascending order, and the steps of one
    /// call newest first (DESIGN.md §17).
    #[expect(clippy::too_many_arguments, reason = "mirrors train_forward")]
    pub(crate) fn train_backward(
        &self,
        ps: &ParamSet,
        steps: &[usize],
        vs: &[f32],
        acts: &mut DecompressActs,
        dout: &[f32],
        dv: &mut Vec<f32>,
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        fc_tanh_backward(
            ps,
            &self.fc1,
            &self.fc2,
            &acts.hs,
            &mut acts.fc,
            dout,
            Some(steps),
            grads,
            scratch,
        );
        dv.clear();
        dv.resize(vs.len(), 0.0);
        let pack = Packing::repeated(steps);
        self.lstm.train_backward(
            ps,
            &pack,
            vs,
            &acts.lstm,
            &acts.fc.dx,
            Some(dv),
            grads,
            scratch,
        );
    }
}

#[cfg(any(test, feature = "reference"))]
impl DecompressionOperator {
    /// Decompresses `v` (1×in_dim) into a (steps × out_dim) node.
    ///
    /// # Panics
    /// Panics if `steps == 0`.
    pub fn decompress(&self, g: &mut Graph, v: Var, steps: usize) -> Var {
        let hs = self.lstm.forward_repeated(g, v, steps);
        let h_mat = g.concat_rows(&hs);
        let a = self.fc1.forward(g, h_mat);
        let b = self.fc2.forward(g, a);
        g.tanh(b)
    }
}

/// What a decompression operator's training pass keeps for its backward
/// pass, and the backward pass's own temporaries.
#[derive(Debug, Default)]
pub(crate) struct DecompressActs {
    lstm: LstmActs,
    /// The LSTM's hidden rows, laid out as its packing's output.
    hs: Vec<f32>,
    fc: FcActs,
}

impl DecompressActs {
    /// The decompressed rows, sequences back to back.
    pub(crate) fn out(&self) -> &[f32] {
        &self.fc.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq_matrix(t: usize, d: usize) -> Matrix {
        Matrix::from_fn(t, d, |r, c| ((r * d + c) as f32 * 0.17).sin() * 0.5)
    }

    #[test]
    fn compression_output_shape_and_range() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(101);
        let op = CompressionOperator::new(&mut ps, &mut rng, "c", 6, 4, true);
        let mut g = Graph::new(&ps);
        let v = op.compress_matrix(&mut g, &seq_matrix(9, 6));
        let m = g.value(v);
        assert_eq!(m.shape(), (1, 4));
        assert!(m.data().iter().all(|x| x.abs() <= 1.0)); // tanh range
        assert!(op.has_attention());
    }

    #[test]
    fn no_attention_variant_differs_from_attention() {
        let mut rng = StdRng::seed_from_u64(103);
        let mut ps = ParamSet::new();
        let with = CompressionOperator::new(&mut ps, &mut rng, "a", 4, 4, true);
        // Same LSTM/FC weights cannot be shared easily, so just check the two
        // modes run and produce tanh-bounded outputs of the same shape.
        let mut ps2 = ParamSet::new();
        let without = CompressionOperator::new(&mut ps2, &mut rng, "b", 4, 4, false);
        assert!(!without.has_attention());
        let mut g1 = Graph::new(&ps);
        let v1 = with.compress_matrix(&mut g1, &seq_matrix(5, 4));
        let mut g2 = Graph::new(&ps2);
        let v2 = without.compress_matrix(&mut g2, &seq_matrix(5, 4));
        assert_eq!(g1.value(v1).shape(), g2.value(v2).shape());
    }

    #[test]
    fn decompression_output_shape_and_range() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(107);
        let op = DecompressionOperator::new(&mut ps, &mut rng, "d", 4, 5, 7);
        let mut g = Graph::new(&ps);
        let v = g.constant(Matrix::full(1, 4, 0.3));
        let out = op.decompress(&mut g, v, 6);
        let m = g.value(out);
        assert_eq!(m.shape(), (6, 7));
        assert!(m.data().iter().all(|x| x.abs() <= 1.0));
        assert_eq!(op.out_dim(), 7);
    }

    #[test]
    fn roundtrip_is_trainable() {
        // One gradient step on compress→decompress must reduce the MSE:
        // verifies gradients flow through the whole operator pair.
        use lead_nn::optim::Adam;
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(109);
        let comp = CompressionOperator::new(&mut ps, &mut rng, "c", 3, 4, true);
        let dec = DecompressionOperator::new(&mut ps, &mut rng, "d", 4, 4, 3);
        let target = seq_matrix(5, 3);
        let loss_of = |ps: &ParamSet| {
            let mut g = Graph::new(ps);
            let v = comp.compress_matrix(&mut g, &target);
            let rec = dec.decompress(&mut g, v, 5);
            let loss = g.mse_loss(rec, &target);
            (g.scalar(loss), g.backward(loss))
        };
        let (l0, grads) = loss_of(&ps);
        let mut opt = Adam::new(&ps, 0.01);
        opt.step(&mut ps, &grads);
        for _ in 0..30 {
            let (_, grads) = loss_of(&ps);
            opt.step(&mut ps, &grads);
        }
        let (l1, _) = loss_of(&ps);
        assert!(l1 < l0 * 0.9, "loss did not drop: {l0} → {l1}");
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_compression_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(113);
        let op = CompressionOperator::new(&mut ps, &mut rng, "c", 3, 4, true);
        let mut g = Graph::new(&ps);
        let _ = op.compress_vars(&mut g, &[]);
    }
}
