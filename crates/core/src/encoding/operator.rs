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

use lead_nn::infer::{Packing, Scratch};
use lead_nn::layers::{Linear, Lstm, SelfAttention};
use lead_nn::simd::Kernel;
use lead_nn::{Graph, Matrix, ParamSet, Var};
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

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.lstm.hidden()
    }

    /// Whether the attention aggregation is enabled.
    pub fn has_attention(&self) -> bool {
        self.attention.is_some()
    }

    /// Compresses a sequence of 1×in_dim nodes into a 1×hidden vector.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn compress_vars(&self, g: &mut Graph, xs: &[Var]) -> Var {
        assert!(!xs.is_empty(), "compression of an empty sequence");
        let hs = self.lstm.forward(g, xs);
        let h = match &self.attention {
            Some(att) => att.aggregate(g, &hs),
            // lint: allow(panic, panic-path): xs non-empty is asserted at entry, and the LSTM preserves length
            None => *hs.last().expect("non-empty"),
        };
        let a = self.fc1.forward(g, h);
        let b = self.fc2.forward(g, a);
        g.tanh(b)
    }

    /// Compresses many sequence prefixes at once, without a tape.
    ///
    /// `xs` holds the input rows (`in_dim` wide) that `pack` reads. Entry
    /// `(s, len)` of `prefixes` asks for the compression of the first `len`
    /// steps of sequence `s`, and row `i` of `out` (`hidden` wide) receives
    /// it. The LSTM runs once over every sequence: the hidden states of a
    /// prefix are the first `len` states of its sequence, so every prefix
    /// of one sequence shares them, and its key projections. Only the
    /// query, scores, softmax, weighted sum and the two FC layers run per
    /// prefix. Bit-identical to [`Self::compress_vars`] on each prefix.
    ///
    /// # Panics
    /// Panics if a prefix is empty or longer than its sequence.
    pub fn infer(
        &self,
        ps: &ParamSet,
        pack: &Packing,
        xs: &[f32],
        prefixes: &[(usize, usize)],
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) {
        assert!(
            prefixes
                .iter()
                .all(|&(s, len)| len > 0 && len <= pack.seq_len(s)),
            "compression of an empty sequence"
        );
        let h = self.out_dim();
        let mut hs = Vec::new();
        self.lstm.infer(ps, pack, xs, false, &mut hs, scratch);
        let rows_of = |&(s, len): &(usize, usize)| {
            let start = pack.output_start(s);
            start..start + len
        };
        // The last hidden state of every prefix: the query source, or the
        // aggregate itself without attention.
        let mut pooled: Vec<f32> = prefixes
            .iter()
            .flat_map(|p| {
                let last = rows_of(p).end - 1;
                hs[last * h..(last + 1) * h].iter().copied()
            })
            .collect();
        if let Some(att) = &self.attention {
            let (mut keys, mut queries, mut scores) = (Vec::new(), Vec::new(), Vec::new());
            let kd = att.key_dim();
            att.infer_keys(ps, &hs, &mut keys);
            att.infer_queries(ps, &pooled, &mut queries);
            for (i, (p, query)) in prefixes.iter().zip(queries.chunks_exact(kd)).enumerate() {
                let rows = rows_of(p);
                att.infer_pool(
                    query,
                    &keys[rows.start * kd..rows.end * kd],
                    &hs[rows.start * h..rows.end * h],
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

    /// Compresses a (T × in_dim) feature matrix (recorded as a constant).
    pub fn compress_matrix(&self, g: &mut Graph, seq: &Matrix) -> Var {
        assert!(seq.rows() > 0, "compression of an empty sequence");
        let input = g.constant(seq.clone());
        let xs: Vec<Var> = (0..seq.rows()).map(|r| g.row(input, r)).collect();
        self.compress_vars(g, &xs)
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
