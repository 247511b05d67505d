//! Forward-only evaluation over packed batches of sequences.
//!
//! A `Graph` records every op so it can be differentiated, which
//! costs a clone of every weight matrix and a tape node per op. Inference
//! needs none of that. The layers' `infer` methods evaluate the same
//! networks straight from the [`crate::ParamSet`] into reusable buffers (a
//! [`Scratch`]), many sequences at a time.
//!
//! # Packed batches
//!
//! A batch of variable-length sequences is described by a [`Packing`]. Each
//! sequence reads its rows from one input matrix and writes its per-step
//! outputs back to back into one output matrix, in sequence order. For the
//! recurrence, the sequences are ranked by descending length, so the ones
//! still running at step `t` are always the first `active(t)` rows of the
//! recurrent state. One step is then a single `active × hidden` product
//! with the recurrent weights instead of `active` vector products.
//!
//! # Exactness
//!
//! The batched evaluation is `to_bits`-identical to the tape, on every
//! backend. Each kernel the tape calls on one row is called on the same
//! row values here, in the same order: `matmul_acc` computes every output
//! row from its own input row only, and the elementwise kernels have no
//! cross-element data flow, so stacking rows into one call changes no bit.
//!
//! # Continuation
//!
//! An LSTM run can stop after any step and resume later from its
//! [`LstmState`]. The first step of a fresh run already computes `H·Wh`
//! from a zeroed `h`, so resuming from a stored state takes the same code
//! path as starting fresh, and a run split into chunks is `to_bits`-equal
//! to the run in one piece.
//!
//! # Training
//!
//! The same packed pass trains the detectors and the autoencoder: the
//! layers' `train_forward` methods run it and keep its activations, and the
//! `train_backward` methods are its hand-written backward half
//! ([`crate::bptt`]), with gradients `to_bits`-equal to the tape's.

use crate::matrix::Matrix;
use crate::simd::Kernel;

/// The layout of a packed batch of variable-length sequences.
///
/// Sequence `s` reads its step-`t` input at row `start + t` of the input
/// matrix, where `start` is its offset in a back-to-back input or the start
/// of its window ([`Packing::windows`], where windows may overlap), or at
/// row `s` at every step ([`Packing::repeated`]). It writes its step-`t`
/// output at row `output_start(s) + t` of the output matrix, where
/// sequences are always stored back to back in sequence order.
#[derive(Debug, Clone)]
pub struct Packing {
    in_starts: Vec<usize>,
    out_starts: Vec<usize>,
    lens: Vec<usize>,
    /// Whether every step of a sequence reads its first input row.
    repeat: bool,
    /// Sequence index at each rank, longest first (ties by index).
    order: Vec<usize>,
    /// `active[t]`: how many sequences are longer than `t`.
    active: Vec<usize>,
    in_rows: usize,
    out_rows: usize,
}

impl Packing {
    /// Sequences stored back to back in both the input and the output:
    /// sequence `s` is `lens[s]` rows long.
    ///
    /// # Panics
    /// Panics if any length is zero.
    pub fn back_to_back(lens: &[usize]) -> Self {
        let mut start = 0;
        let spans: Vec<(usize, usize)> = lens
            .iter()
            .map(|&len| {
                let span = (start, len);
                start += len;
                span
            })
            .collect();
        Self::windows(&spans)
    }

    /// Sequences that each read one input row at every step, as the
    /// paper's decompression operator feeds its vector to every step
    /// (Equation (5)): sequence `s` reads row `s` for `lens[s]` steps. The
    /// row's input projection is computed once, which is the same product
    /// as computing it at every step.
    ///
    /// # Panics
    /// Panics if any length is zero.
    pub fn repeated(lens: &[usize]) -> Self {
        let spans: Vec<(usize, usize)> = lens.iter().copied().enumerate().collect();
        let mut pack = Self::windows(&spans);
        pack.repeat = true;
        pack.in_rows = lens.len();
        pack
    }

    /// Sequences that read windows of one shared input: sequence `s` reads
    /// the `spans[s].1` rows starting at row `spans[s].0`. Windows may
    /// overlap, so several sequences can share input rows (and their
    /// input projections).
    ///
    /// # Panics
    /// Panics if any window is empty.
    pub fn windows(spans: &[(usize, usize)]) -> Self {
        assert!(
            spans.iter().all(|&(_, len)| len > 0),
            "packed batch with an empty sequence"
        );
        let lens: Vec<usize> = spans.iter().map(|&(_, len)| len).collect();
        let in_starts: Vec<usize> = spans.iter().map(|&(start, _)| start).collect();
        let mut out_rows = 0;
        let out_starts: Vec<usize> = lens
            .iter()
            .map(|&len| {
                out_rows += len;
                out_rows - len
            })
            .collect();
        let mut order: Vec<usize> = (0..lens.len()).collect();
        // Stable: equal lengths keep sequence order.
        order.sort_by(|&a, &b| lens[b].cmp(&lens[a]));
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let active = (0..max_len)
            .map(|t| lens.iter().filter(|&&len| len > t).count())
            .collect();
        let in_rows = spans
            .iter()
            .map(|&(start, len)| start + len)
            .max()
            .unwrap_or(0);
        Self {
            in_starts,
            out_starts,
            lens,
            repeat: false,
            order,
            active,
            in_rows,
            out_rows,
        }
    }

    /// Length of sequence `s`.
    pub fn seq_len(&self, s: usize) -> usize {
        self.lens[s]
    }

    /// Length of the longest sequence (the number of recurrence steps).
    pub(crate) fn max_len(&self) -> usize {
        self.active.len()
    }

    /// First output row of sequence `s`.
    pub fn output_start(&self, s: usize) -> usize {
        self.out_starts[s]
    }

    /// Rows the input matrix must have at least.
    pub(crate) fn input_rows(&self) -> usize {
        self.in_rows
    }

    /// Rows of the output matrix (the sum of all lengths).
    pub(crate) fn output_rows(&self) -> usize {
        self.out_rows
    }

    /// Whether inputs are laid out exactly like outputs, so one layer's
    /// output can feed the next layer under the same packing.
    pub(crate) fn reads_back_to_back(&self) -> bool {
        !self.repeat && self.in_starts == self.out_starts
    }

    /// Number of sequences still running at step `t`: ranks `0..active(t)`.
    pub(crate) fn active(&self, t: usize) -> usize {
        self.active.get(t).copied().unwrap_or(0)
    }

    /// The sequence at rank `rank` (longest first).
    pub(crate) fn seq_at(&self, rank: usize) -> usize {
        self.order[rank]
    }

    /// The input and output rows of rank `rank` at step `t`, reading the
    /// sequence left to right, or right to left when `reverse` is set.
    pub(crate) fn step_rows(&self, rank: usize, t: usize, reverse: bool) -> (usize, usize) {
        let s = self.order[rank];
        let pos = if reverse { self.lens[s] - 1 - t } else { t };
        let read = if self.repeat { 0 } else { pos };
        (self.in_starts[s] + read, self.out_starts[s] + pos)
    }
}

/// The recurrent state `(h, c)` of every sequence of a packed LSTM batch:
/// one `hidden`-wide row per sequence, in sequence order.
///
/// [`crate::layers::Lstm::infer`] starts each sequence from its row and
/// leaves the state after the sequence's last step there, so a later call
/// continues the run exactly where this one stopped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LstmState {
    /// Hidden state rows.
    pub h: Vec<f32>,
    /// Cell state rows.
    pub c: Vec<f32>,
}

impl LstmState {
    /// The all-zero state of `seqs` fresh sequences.
    pub fn zeros(seqs: usize, hidden: usize) -> Self {
        let mut state = Self::default();
        state.push_zeros(seqs, hidden);
        state
    }

    /// Appends the zero state of `seqs` fresh sequences.
    pub fn push_zeros(&mut self, seqs: usize, hidden: usize) {
        let len = self.h.len() + seqs * hidden;
        self.h.resize(len, 0.0);
        self.c.resize(len, 0.0);
    }
}

/// Reusable buffers for the layers' `infer` methods.
///
/// Buffers grow to the largest batch they have seen and are never shrunk,
/// so reusing one `Scratch` across calls allocates only on the first call
/// (and on a larger batch).
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) cell: CellScratch,
    /// A GRU pass's activations ([`crate::layers::Gru::infer`]).
    pub(crate) gru: crate::bptt::GruActs,
    pub(crate) fwd: Vec<f32>,
    pub(crate) bwd: Vec<f32>,
    pub(crate) cat: Vec<f32>,
    pub(crate) stack: Vec<f32>,
}

impl Scratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-direction LSTM buffers: input projections for every row, and the
/// recurrent state and gates of the running sequences.
#[derive(Debug, Default)]
pub(crate) struct CellScratch {
    pub(crate) gx: Vec<f32>,
    pub(crate) gh: Vec<f32>,
    pub(crate) pre: Vec<f32>,
    pub(crate) i: Vec<f32>,
    pub(crate) f: Vec<f32>,
    pub(crate) g: Vec<f32>,
    pub(crate) o: Vec<f32>,
    pub(crate) fc: Vec<f32>,
    pub(crate) ig: Vec<f32>,
    pub(crate) tc: Vec<f32>,
    pub(crate) h: Vec<f32>,
    pub(crate) c: Vec<f32>,
}

/// Sets `buf` to `len` zeros, reusing its allocation.
pub(crate) fn zeroed(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// `out = x·w + b` over every row of `x` — the tape's `matmul` followed by
/// its `add_row_broadcast`, kernel for kernel.
///
/// # Panics
/// Panics if `x`'s length is not a multiple of `w`'s row count or `b` is
/// not one row as wide as `w`.
pub(crate) fn affine(x: &[f32], w: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    let (in_dim, out_dim) = w.shape();
    assert_eq!(b.shape(), (1, out_dim), "affine bias shape");
    assert!(
        in_dim > 0 && x.len().is_multiple_of(in_dim),
        "affine input width mismatch"
    );
    let rows = x.len() / in_dim;
    zeroed(out, rows * out_dim);
    let kernel = crate::simd::active();
    kernel.matmul_acc(x, w.data(), out, rows, in_dim, out_dim);
    for row in out.chunks_exact_mut(out_dim) {
        // `1.0 * b` is exact, so axpy(1.0, ..) is bitwise `+= b`.
        kernel.axpy(1.0, b.data(), row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_sequences_are_a_prefix_of_ranks() {
        let p = Packing::back_to_back(&[2, 5, 1, 5]);
        assert_eq!(p.max_len(), 5);
        assert_eq!((p.active(0), p.active(1), p.active(2)), (4, 3, 2));
        assert_eq!(p.active(5), 0);
        // Longest first, ties by index: sequences 1, 3, 0, 2.
        assert_eq!(p.step_rows(0, 0, false), (2, 2));
        assert_eq!(p.step_rows(1, 0, false), (8, 8));
        assert_eq!(p.step_rows(2, 1, false), (1, 1));
        assert_eq!(p.step_rows(3, 0, true), (7, 7));
        assert_eq!(p.step_rows(0, 0, true), (6, 6));
        assert_eq!((p.input_rows(), p.output_rows()), (13, 13));
        assert!(p.reads_back_to_back());
    }

    #[test]
    fn windows_share_input_rows_and_pack_outputs() {
        let p = Packing::windows(&[(0, 4), (1, 3), (2, 2)]);
        assert_eq!((p.input_rows(), p.output_rows()), (4, 9));
        assert_eq!(p.output_start(2), 7);
        assert_eq!(p.step_rows(1, 2, false), (3, 6));
        assert!(!p.reads_back_to_back());
    }

    #[test]
    fn repeated_sequences_read_one_row_at_every_step() {
        let p = Packing::repeated(&[2, 4, 1]);
        assert_eq!((p.input_rows(), p.output_rows()), (3, 7));
        // Ranks: sequences 1, 0, 2.
        assert_eq!(p.step_rows(0, 3, false), (1, 5));
        assert_eq!(p.step_rows(1, 1, false), (0, 1));
        assert_eq!(p.step_rows(2, 0, false), (2, 6));
        assert!(!p.reads_back_to_back());
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequences_are_rejected() {
        let _ = Packing::back_to_back(&[3, 0]);
    }
}

#[cfg(test)]
mod parity_tests {
    //! Every `infer` path against the tape, `to_bits`, on ragged batches.

    use super::*;
    use crate::layers::{Gru, Linear, Lstm, SelfAttention, StackedBiLstm};
    use crate::params::ParamSet;
    use crate::tape::{Graph, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rows(seed: usize, n: usize, d: usize) -> Vec<f32> {
        (0..n * d)
            .map(|i| (((seed * 7919 + i) as f32) * 0.37).sin() * 0.8)
            .collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The rows of sequence `s` of a back-to-back batch as tape constants.
    fn seq_vars(g: &mut Graph, xs: &[f32], start: usize, len: usize, d: usize) -> Vec<Var> {
        (start..start + len)
            .map(|r| g.constant(Matrix::from_vec(1, d, xs[r * d..(r + 1) * d].to_vec())))
            .collect()
    }

    #[test]
    fn lstm_matches_the_tape_in_both_directions() {
        let mut ps = ParamSet::new();
        let lstm = Lstm::new(&mut ps, &mut StdRng::seed_from_u64(1), "l", 3, 5);
        let lens = [4, 1, 6, 6, 2];
        let pack = Packing::back_to_back(&lens);
        let xs = rows(1, pack.input_rows(), 3);
        let mut s = Scratch::new();
        for reverse in [false, true] {
            let mut out = Vec::new();
            lstm.infer(
                &ps,
                &pack,
                &xs,
                reverse,
                &mut LstmState::zeros(lens.len(), 5),
                &mut out,
                &mut s,
            );
            let mut want = Vec::new();
            for (seq, &len) in lens.iter().enumerate() {
                let mut g = Graph::new(&ps);
                let mut vars = seq_vars(&mut g, &xs, pack.output_start(seq), len, 3);
                if reverse {
                    vars.reverse();
                }
                let mut hs = lstm.forward(&mut g, &vars);
                if reverse {
                    hs.reverse();
                }
                for h in hs {
                    want.extend_from_slice(g.value(h).data());
                }
            }
            assert_eq!(bits(&out), bits(&want), "reverse={reverse}");
        }
    }

    #[test]
    fn gru_matches_the_tape() {
        let mut ps = ParamSet::new();
        let gru = Gru::new(&mut ps, &mut StdRng::seed_from_u64(5), "g", 3, 5);
        // Non-zero biases (they start at zero).
        let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
        for (k, &id) in ids.iter().enumerate() {
            for (j, v) in ps.value_mut(id).data_mut().iter_mut().enumerate() {
                *v += ((k * 13 + j) as f32 * 0.71).sin() * 0.3;
            }
        }
        let lens = [4, 1, 6, 6, 2];
        let pack = Packing::back_to_back(&lens);
        let xs = rows(5, pack.input_rows(), 3);
        let mut s = Scratch::new();
        let mut out = Vec::new();
        // Twice through one scratch: reuse must not leak state.
        for _ in 0..2 {
            gru.infer(&ps, &pack, &xs, &mut out, &mut s);
            let mut want = Vec::new();
            for (seq, &len) in lens.iter().enumerate() {
                let mut g = Graph::new(&ps);
                let vars = seq_vars(&mut g, &xs, pack.output_start(seq), len, 3);
                for h in gru.forward(&mut g, &vars) {
                    want.extend_from_slice(g.value(h).data());
                }
            }
            assert_eq!(bits(&out), bits(&want));
        }
    }

    #[test]
    fn overlapping_windows_match_separate_runs() {
        let mut ps = ParamSet::new();
        let lstm = Lstm::new(&mut ps, &mut StdRng::seed_from_u64(2), "l", 4, 3);
        let xs = rows(2, 5, 4);
        let pack = Packing::windows(&[(0, 5), (1, 4), (3, 2)]);
        let mut out = Vec::new();
        lstm.infer(
            &ps,
            &pack,
            &xs,
            false,
            &mut LstmState::zeros(3, 3),
            &mut out,
            &mut Scratch::new(),
        );
        for (seq, (start, len)) in [(0, 5), (1, 4), (3, 2)].into_iter().enumerate() {
            let mut g = Graph::new(&ps);
            let vars = seq_vars(&mut g, &xs, start, len, 4);
            let hs = lstm.forward(&mut g, &vars);
            let o = pack.output_start(seq) * 3;
            for (t, h) in hs.into_iter().enumerate() {
                assert_eq!(
                    bits(&out[o + 3 * t..o + 3 * t + 3]),
                    bits(g.value(h).data())
                );
            }
        }
    }

    #[test]
    fn stacked_bilstm_and_linear_match_the_tape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let stack = StackedBiLstm::new(&mut ps, &mut rng, "s", 6, 4, 3);
        let head = Linear::new(&mut ps, &mut rng, "o", 4, 1);
        let lens = [5, 4, 3, 2, 1];
        let pack = Packing::back_to_back(&lens);
        let xs = rows(3, pack.input_rows(), 6);
        let (mut hs, mut logits) = (Vec::new(), Vec::new());
        let mut s = Scratch::new();
        // Twice through one scratch: reuse must not leak state.
        for _ in 0..2 {
            stack.infer(&ps, &pack, &xs, &mut hs, &mut s);
            head.infer(&ps, &hs, &mut logits);
            let mut want = Vec::new();
            for (seq, &len) in lens.iter().enumerate() {
                let mut g = Graph::new(&ps);
                let vars = seq_vars(&mut g, &xs, pack.output_start(seq), len, 6);
                for h in stack.forward(&mut g, &vars) {
                    let y = head.forward(&mut g, h);
                    want.push(g.value(y).at(0, 0));
                }
            }
            assert_eq!(bits(&logits), bits(&want));
        }
    }

    #[test]
    fn attention_pool_matches_aggregate() {
        let mut ps = ParamSet::new();
        let att = SelfAttention::new(&mut ps, &mut StdRng::seed_from_u64(4), "a", 4, 4);
        let hs = rows(4, 6, 4);
        let (mut keys, mut query) = (Vec::new(), Vec::new());
        att.infer_keys(&ps, &hs, &mut keys);
        let mut scores = Vec::new();
        // Every prefix of the sequence, as phase-2 candidates read them.
        for len in 1..=6 {
            att.infer_queries(&ps, &hs[(len - 1) * 4..len * 4], &mut query);
            let mut got = [0.0f32; 4];
            att.infer_pool(
                &query,
                &keys[..len * 4],
                &hs[..len * 4],
                &mut scores,
                &mut got,
            );
            let mut g = Graph::new(&ps);
            let vars = seq_vars(&mut g, &hs, 0, len, 4);
            let want = att.aggregate(&mut g, &vars);
            assert_eq!(bits(&got), bits(g.value(want).data()), "prefix {len}");
        }
    }
}
