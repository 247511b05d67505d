//! The hierarchical autoencoder (Section IV-B, Figure 5).
//!
//! **Compressor** (two phases): phase 1 compresses each `sp-f-seq` and
//! `mp-f-seq` with two dedicated operators; phase 2 compresses the resulting
//! `SP-c-vec-seq` and `MP-c-vec-seq` with two more operators; the `c-vec` is
//! the concatenation `[SP-c-vec | MP-c-vec]` (2 × 32 = 64 wide).
//!
//! **Decompressor** (symmetric): phase 1 expands each half of the `c-vec`
//! back into per-stay/per-move vectors; phase 2 expands each of those into a
//! feature sequence of the original length. Training minimises the MSE
//! between the input feature sequences and their reconstructions
//! (Equation (8)), self-supervised over the candidate trajectories of the
//! historical archive.
//!
//! The `LEAD-NoHie` ablation ([`EncoderKind::Flat`]) removes both the
//! stay/move separation and the hierarchy: a single operator pair processes
//! the interleaved flat feature sequence. Its hidden width is doubled so the
//! `c-vec` keeps the 64-dimensional budget — the comparison isolates the
//! *structure*, not capacity.

use crate::config::LeadConfig;
use crate::features::{CandidateFeatures, TrajectoryFeatures, FEATURE_DIM};
use crate::processing::Candidate;
use lead_nn::bptt::TrainScratch;
use lead_nn::infer::{LstmState, Packing, Scratch};
use lead_nn::optim::Adam;
use lead_nn::train::{AccumTrainer, EarlyStopping, EpochPlan};
use lead_nn::{Gradients, Graph, Matrix, ParamSet, Var};
use rand::Rng;

/// Which encoder architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// The paper's hierarchical, stay/move-separated autoencoder.
    Hierarchical,
    /// The `LEAD-NoHie` ablation: one flat operator pair.
    Flat,
}

use super::operator::{CompressActs, CompressionOperator, DecompressActs, DecompressionOperator};

// The flat variant is rare (one ablation) and the enum is instantiated once
// per model, so the size difference between variants is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Arch {
    Hierarchical {
        comp_sp1: CompressionOperator,
        comp_mp1: CompressionOperator,
        comp_sp2: CompressionOperator,
        comp_mp2: CompressionOperator,
        dec_sp1: DecompressionOperator,
        dec_mp1: DecompressionOperator,
        dec_sp2: DecompressionOperator,
        dec_mp2: DecompressionOperator,
    },
    Flat {
        comp: CompressionOperator,
        dec: DecompressionOperator,
    },
}

/// The candidate-trajectory autoencoder; after training, its compressor maps
/// any candidate to a `c-vec`.
pub struct Autoencoder {
    params: ParamSet,
    arch: Arch,
    hidden: usize,
}

impl Autoencoder {
    /// Builds an untrained autoencoder.
    ///
    /// `use_attention = false` reproduces `LEAD-NoSel`.
    pub fn new<R: Rng>(
        config: &LeadConfig,
        kind: EncoderKind,
        use_attention: bool,
        rng: &mut R,
    ) -> Self {
        let h = config.ae_hidden;
        let mut ps = ParamSet::new();
        let arch = match kind {
            EncoderKind::Hierarchical => Arch::Hierarchical {
                comp_sp1: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp_sp1",
                    FEATURE_DIM,
                    h,
                    use_attention,
                ),
                comp_mp1: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp_mp1",
                    FEATURE_DIM,
                    h,
                    use_attention,
                ),
                comp_sp2: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp_sp2",
                    h,
                    h,
                    use_attention,
                ),
                comp_mp2: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp_mp2",
                    h,
                    h,
                    use_attention,
                ),
                dec_sp1: DecompressionOperator::new(&mut ps, rng, "ae.dec_sp1", h, h, h),
                dec_mp1: DecompressionOperator::new(&mut ps, rng, "ae.dec_mp1", h, h, h),
                dec_sp2: DecompressionOperator::new(&mut ps, rng, "ae.dec_sp2", h, h, FEATURE_DIM),
                dec_mp2: DecompressionOperator::new(&mut ps, rng, "ae.dec_mp2", h, h, FEATURE_DIM),
            },
            EncoderKind::Flat => Arch::Flat {
                comp: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp",
                    FEATURE_DIM,
                    2 * h,
                    use_attention,
                ),
                dec: DecompressionOperator::new(&mut ps, rng, "ae.dec", 2 * h, 2 * h, FEATURE_DIM),
            },
        };
        Self {
            params: ps,
            arch,
            hidden: h,
        }
    }

    /// Width of the compressed vector (64 at paper settings, for both kinds).
    pub fn c_vec_dim(&self) -> usize {
        2 * self.hidden
    }

    /// The architecture kind.
    pub fn kind(&self) -> EncoderKind {
        match self.arch {
            Arch::Hierarchical { .. } => EncoderKind::Hierarchical,
            Arch::Flat { .. } => EncoderKind::Flat,
        }
    }

    /// The trainable parameters (persistence).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the trainable parameters (persistence: load trained
    /// weights into a freshly constructed architecture).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Records the compressor on `g`, returning the 1×c_vec node of `input`.
    pub fn encode(&self, g: &mut Graph, input: &CandidateFeatures) -> Var {
        input.validate();
        match &self.arch {
            Arch::Hierarchical {
                comp_sp1,
                comp_mp1,
                comp_sp2,
                comp_mp2,
                ..
            } => {
                let sp_vecs: Vec<Var> = input
                    .sp_seqs
                    .iter()
                    .map(|m| comp_sp1.compress_matrix(g, m))
                    .collect();
                let mp_vecs: Vec<Var> = input
                    .mp_seqs
                    .iter()
                    .map(|m| comp_mp1.compress_matrix(g, m))
                    .collect();
                let sp_c = comp_sp2.compress_vars(g, &sp_vecs);
                let mp_c = comp_mp2.compress_vars(g, &mp_vecs);
                g.concat_cols(&[sp_c, mp_c])
            }
            Arch::Flat { comp, .. } => comp.compress_matrix(g, &input.interleaved()),
        }
    }

    /// Records compressor + decompressor + MSE reconstruction loss on `g`:
    /// the reference [`Self::loss_and_gradients`] and
    /// [`Self::evaluate_par`] are checked against.
    pub fn reconstruction_loss(&self, g: &mut Graph, input: &CandidateFeatures) -> Var {
        let c_vec = self.encode(g, input);
        match &self.arch {
            Arch::Hierarchical {
                dec_sp1,
                dec_mp1,
                dec_sp2,
                dec_mp2,
                ..
            } => {
                let h = self.hidden;
                let v_sp = g.slice_cols(c_vec, 0, h);
                let v_mp = g.slice_cols(c_vec, h, 2 * h);
                // Phase 1: c-vec halves → per-stay / per-move vectors.
                let sp_cvec_seq = dec_sp1.decompress(g, v_sp, input.sp_seqs.len());
                let mp_cvec_seq = dec_mp1.decompress(g, v_mp, input.mp_seqs.len());
                // Phase 2: each vector → its feature sequence.
                let mut recs: Vec<Var> =
                    Vec::with_capacity(input.sp_seqs.len() + input.mp_seqs.len());
                for (k, target) in input.sp_seqs.iter().enumerate() {
                    let v = g.row(sp_cvec_seq, k);
                    recs.push(dec_sp2.decompress(g, v, target.rows()));
                }
                for (k, target) in input.mp_seqs.iter().enumerate() {
                    let v = g.row(mp_cvec_seq, k);
                    recs.push(dec_mp2.decompress(g, v, target.rows()));
                }
                let rec_all = g.concat_rows(&recs);
                let target_refs: Vec<&Matrix> =
                    input.sp_seqs.iter().chain(input.mp_seqs.iter()).collect();
                let target_all = Matrix::concat_rows(&target_refs);
                g.mse_loss(rec_all, &target_all)
            }
            Arch::Flat { dec, .. } => {
                let target = input.interleaved();
                let rec = dec.decompress(g, c_vec, target.rows());
                g.mse_loss(rec, &target)
            }
        }
    }

    /// Trains the autoencoder self-supervised on the given candidate feature
    /// sequences (pre-shuffled order is re-shuffled each epoch) and returns
    /// `(train_curve, val_curve)`: the per-epoch mean MSE (Figure 9) and,
    /// when `val_samples` is given, the per-epoch validation MSE (reporting
    /// only; early stopping observes the training loss).
    ///
    /// `probe` records an `ae.epoch` span plus `ae.epoch_mse` /
    /// `ae.epoch_val_mse` observations and the trainer's `ae.grad_norm` /
    /// `ae.optim_steps`. Metrics are write-only — the trained weights are
    /// identical for any probe.
    pub fn train<R: Rng>(
        &mut self,
        samples: &[CandidateFeatures],
        val_samples: Option<&[CandidateFeatures]>,
        config: &LeadConfig,
        rng: &mut R,
        probe: &dyn lead_obs::probe::Probe,
    ) -> (Vec<f32>, Vec<f32>) {
        assert!(!samples.is_empty(), "autoencoder training needs samples");
        let mut trainer = AccumTrainer::new(
            Adam::new(&self.params, config.learning_rate),
            config.batch_accumulation,
        )
        .with_clip_norm(config.grad_clip_norm)
        .with_probe(probe, "ae");
        let mut stopper = EarlyStopping::new(config.early_stopping_patience, 1e-4);
        let mut plan = EpochPlan::new(samples.len());
        let mut train_curve = Vec::new();
        let mut val_curve = Vec::new();
        let arch = &self.arch;
        for _epoch in 0..config.ae_max_epochs {
            let _epoch_span = lead_obs::clock::span(probe, "ae.epoch");
            plan.reshuffle(rng);
            let mut total = 0.0f64;
            // Each accumulation window's forward/backward passes run
            // data-parallel against the parameter snapshot, one scratch per
            // worker; gradients are submitted in item order, so every
            // `num_threads` value yields the exact optimiser trajectory of
            // the serial per-sample loop.
            for window in plan.windows(config.batch_accumulation) {
                let losses = trainer.submit_window_with(
                    &mut self.params,
                    config.num_threads,
                    window,
                    AeScratch::default,
                    |scratch, _, &i, ps| loss_and_gradients(arch, ps, &samples[i], scratch),
                );
                for l in losses {
                    total += l as f64;
                }
            }
            trainer.flush(&mut self.params);
            let train_mean = lead_nn::num::narrow_f64(total / samples.len() as f64);
            train_curve.push(train_mean);
            if probe.enabled() {
                probe.observe("ae.epoch_mse", f64::from(train_mean));
            }
            if let Some(v) = val_samples {
                if !v.is_empty() {
                    let val_mean = self.evaluate_par(v, config.num_threads);
                    val_curve.push(val_mean);
                    if probe.enabled() {
                        probe.observe("ae.epoch_val_mse", f64::from(val_mean));
                    }
                }
            }
            if stopper.observe(train_mean) {
                break;
            }
        }
        (train_curve, val_curve)
    }

    /// Computes the loss of every sample without training (validation).
    pub fn evaluate(&self, samples: &[CandidateFeatures]) -> f32 {
        self.evaluate_par(samples, 1)
    }

    /// [`Self::evaluate`] on `num_threads` workers (0 = all cores). The sum
    /// over samples runs in item order, so the result is bit-identical for
    /// every thread count. Each loss comes from the packed forward pass and
    /// `lead_nn::loss::mse`, bit-identical to [`Self::reconstruction_loss`].
    pub fn evaluate_par(&self, samples: &[CandidateFeatures], num_threads: usize) -> f32 {
        assert!(!samples.is_empty(), "evaluation needs samples");
        let per_sample = lead_nn::par::par_map_with(
            num_threads,
            samples,
            AeScratch::default,
            |scratch, _, s| forward_loss(&self.arch, &self.params, s, scratch),
        );
        let total: f64 = per_sample.iter().map(|&l| l as f64).sum();
        lead_nn::num::narrow_f64(total / samples.len() as f64)
    }

    /// The reconstruction loss of one candidate and the gradient of every
    /// parameter, without a tape: one packed forward and backward pass per
    /// operator over all the candidate's segments of one kind (DESIGN.md
    /// §17). `to_bits`-equal to [`Self::reconstruction_loss`] and
    /// `Graph::backward`; training computes every item's gradients this
    /// way. `scratch` may be reused across candidates of any shape.
    ///
    /// # Panics
    /// Panics if `input` breaks the stay/move interleaving or has no move
    /// point.
    pub fn loss_and_gradients(
        &self,
        input: &CandidateFeatures,
        scratch: &mut AeScratch,
    ) -> (f32, Gradients) {
        loss_and_gradients(&self.arch, &self.params, input, scratch)
    }

    /// Encodes a single candidate into its `c-vec` value, without a tape;
    /// bit-identical to [`Self::encode`].
    ///
    /// # Panics
    /// Panics if `input` breaks the stay/move interleaving or has no move
    /// point.
    pub fn encode_value(&self, input: &CandidateFeatures) -> Matrix {
        input.validate();
        let n = input.sp_seqs.len();
        assert!(n >= 2, "compression of an empty sequence");
        let mut encoder = CandidateEncoder::default();
        let c_vecs = encoder.append(self, &input.sp_seqs, &input.mp_seqs);
        let w = self.c_vec_dim();
        let row = end_major_index(Candidate::new(0, n - 1));
        Matrix::row_vector(c_vecs[row * w..(row + 1) * w].to_vec())
    }

    /// Encodes every candidate of a trajectory without a tape, sharing all
    /// work that candidates have in common; bit-identical to
    /// [`Self::encode`] on each candidate. Results follow `candidates`,
    /// which may list any candidates of the trajectory in any order.
    ///
    /// This is the all-at-once case of the incremental `CandidateEncoder`:
    /// one `CandidateEncoder::append` of every stay point. A candidate
    /// `(s, e)`'s sequence is a prefix of `(s, e + 1)`'s, and an LSTM's
    /// first `t` hidden states depend only on its first `t` inputs, so
    /// every LSTM over candidate sequences runs once per start stay point
    /// `s`, and each candidate reads its prefix of that run. The
    /// hierarchical variant first compresses each stay and move point once,
    /// in one packed pass per kind (phase 1), and applies this to its
    /// phase-2 LSTMs over those vectors; the flat variant applies it to the
    /// interleaved GPS points.
    ///
    /// # Panics
    /// Panics if a candidate is not one of the trajectory's.
    pub fn encode_all(&self, tf: &TrajectoryFeatures, candidates: &[Candidate]) -> Vec<Matrix> {
        let mut encoder = CandidateEncoder::default();
        let c_vecs = encoder.append(self, &tf.sp_seqs, &tf.mp_seqs);
        let w = self.c_vec_dim();
        candidates
            .iter()
            .map(|&c| {
                assert!(c.end_sp < encoder.stays, "candidate out of range");
                let row = end_major_index(c);
                Matrix::row_vector(c_vecs[row * w..(row + 1) * w].to_vec())
            })
            .collect()
    }
}

/// Reusable buffers for [`Autoencoder::loss_and_gradients`]: every
/// operator's activations and the gradients passed between operators.
/// Buffers grow to the largest candidate they have seen and are never
/// shrunk.
#[derive(Debug, Default)]
pub struct AeScratch {
    train: TrainScratch,
    /// The stay segments and the move segments (the flat architecture
    /// keeps its one interleaved sequence in `sp`).
    sp: Segments,
    mp: Segments,
    /// The target rows, the reconstruction of each, and its gradient.
    target: Vec<f32>,
    rec: Vec<f32>,
    drec: Vec<f32>,
}

impl AeScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One kind's segments and what its [`Chain`] keeps for the backward pass.
#[derive(Debug, Default)]
struct Segments {
    /// Segment lengths, and their feature rows back to back.
    lens: Vec<usize>,
    xs: Vec<f32>,
    comp1: CompressActs,
    comp2: CompressActs,
    dec1: DecompressActs,
    dec2: DecompressActs,
    /// Gradients of the phase-1 decompressed vectors, of the c-vec half
    /// and of the phase-1 compressed vectors.
    d_rows: Vec<f32>,
    d_c: Vec<f32>,
    d_vecs: Vec<f32>,
}

impl Segments {
    fn load<'m>(&mut self, seqs: impl IntoIterator<Item = &'m Matrix>) {
        self.lens.clear();
        self.xs.clear();
        for m in seqs {
            self.lens.push(m.rows());
            self.xs.extend_from_slice(m.data());
        }
    }
}

/// The operators one kind of segment runs through, in order: a compressor
/// over every segment, then (hierarchical) a phase-2 compressor over the
/// segment vectors and a phase-1 decompressor back to one vector per
/// segment, then a decompressor back to every segment. The two kinds share
/// no operator, so their chains are independent until the loss.
struct Chain<'a> {
    comp1: &'a CompressionOperator,
    phase2: Option<(&'a CompressionOperator, &'a DecompressionOperator)>,
    dec2: &'a DecompressionOperator,
}

impl Chain<'_> {
    /// The packed forward pass of every operator: one pass over all the
    /// segments, one run each in phase 2, and one repeated-input pass over
    /// all the segment vectors. `seg.dec2` ends with the reconstruction.
    fn forward(&self, ps: &ParamSet, seg: &mut Segments, tr: &mut TrainScratch) {
        self.comp1
            .train_forward(ps, &seg.lens, &seg.xs, &mut seg.comp1, tr);
        let vecs = match self.phase2 {
            Some((comp2, dec1)) => {
                let n = [seg.lens.len()];
                comp2.train_forward(ps, &n, seg.comp1.out(), &mut seg.comp2, tr);
                dec1.train_forward(ps, &n, seg.comp2.out(), &mut seg.dec1, tr);
                seg.dec1.out()
            }
            None => seg.comp1.out(),
        };
        self.dec2
            .train_forward(ps, &seg.lens, vecs, &mut seg.dec2, tr);
    }

    /// The backward half of [`Self::forward`] from `drec`, the gradient of
    /// every reconstructed row. Each operator owns its parameters, and each
    /// operator's backward pass keeps the tape's order.
    fn backward(
        &self,
        ps: &ParamSet,
        seg: &mut Segments,
        drec: &[f32],
        grads: &mut Gradients,
        tr: &mut TrainScratch,
    ) {
        let lens = &seg.lens;
        match self.phase2 {
            Some((comp2, dec1)) => {
                let n = [lens.len()];
                let (d_rows, d_c) = (&mut seg.d_rows, &mut seg.d_c);
                let vecs = seg.dec1.out();
                self.dec2
                    .train_backward(ps, lens, vecs, &mut seg.dec2, drec, d_rows, grads, tr);
                let c = seg.comp2.out();
                dec1.train_backward(ps, &n, c, &mut seg.dec1, d_rows, d_c, grads, tr);
                let vecs = seg.comp1.out();
                seg.d_vecs.clear();
                seg.d_vecs.resize(vecs.len(), 0.0);
                let d_vecs = Some(seg.d_vecs.as_mut_slice());
                comp2.train_backward(ps, &n, vecs, &mut seg.comp2, d_c, d_vecs, grads, tr);
            }
            None => {
                let c = seg.comp1.out();
                let d_c = &mut seg.d_vecs;
                self.dec2
                    .train_backward(ps, lens, c, &mut seg.dec2, drec, d_c, grads, tr);
            }
        }
        let (xs, d_vecs) = (&seg.xs, &seg.d_vecs);
        self.comp1
            .train_backward(ps, lens, xs, &mut seg.comp1, d_vecs, None, grads, tr);
    }
}

impl Arch {
    /// The stay chain and the move chain, or the flat architecture's one
    /// chain.
    fn chains(&self) -> [Option<Chain<'_>>; 2] {
        match self {
            Arch::Hierarchical {
                comp_sp1,
                comp_mp1,
                comp_sp2,
                comp_mp2,
                dec_sp1,
                dec_mp1,
                dec_sp2,
                dec_mp2,
            } => [
                Some(Chain {
                    comp1: comp_sp1,
                    phase2: Some((comp_sp2, dec_sp1)),
                    dec2: dec_sp2,
                }),
                Some(Chain {
                    comp1: comp_mp1,
                    phase2: Some((comp_mp2, dec_mp1)),
                    dec2: dec_mp2,
                }),
            ],
            Arch::Flat { comp, dec } => [
                Some(Chain {
                    comp1: comp,
                    phase2: None,
                    dec2: dec,
                }),
                None,
            ],
        }
    }
}

/// One candidate's reconstruction loss by the packed forward pass, keeping
/// every operator's activations in `s` for [`backward`]. Bit-identical to
/// [`Autoencoder::reconstruction_loss`].
fn forward_loss(arch: &Arch, ps: &ParamSet, input: &CandidateFeatures, s: &mut AeScratch) -> f32 {
    input.validate();
    assert!(input.sp_seqs.len() >= 2, "compression of an empty sequence");
    match arch {
        Arch::Hierarchical { .. } => {
            s.sp.load(&input.sp_seqs);
            s.mp.load(&input.mp_seqs);
        }
        Arch::Flat { .. } => {
            s.sp.load([&input.interleaved()]);
            s.mp.load([]);
        }
    }
    // The tape concatenates the reconstructions of the stay segments, then
    // of the move segments.
    s.target.clear();
    s.rec.clear();
    for (chain, seg) in arch.chains().iter().zip([&mut s.sp, &mut s.mp]) {
        if let Some(chain) = chain {
            chain.forward(ps, seg, &mut s.train);
            s.target.extend_from_slice(&seg.xs);
            s.rec.extend_from_slice(seg.dec2.out());
        }
    }
    lead_nn::loss::mse(&s.rec, &s.target)
}

/// The backward half of [`forward_loss`], one chain after the other.
fn backward(arch: &Arch, ps: &ParamSet, s: &mut AeScratch, grads: &mut Gradients) {
    lead_nn::loss::mse_grad(1.0, &s.rec, &s.target, &mut s.drec);
    let (drec_sp, drec_mp) = s.drec.split_at(s.sp.xs.len());
    let segs = [(&mut s.sp, drec_sp), (&mut s.mp, drec_mp)];
    for (chain, (seg, drec)) in arch.chains().iter().zip(segs) {
        if let Some(chain) = chain {
            chain.backward(ps, seg, drec, grads, &mut s.train);
        }
    }
}

/// One candidate's loss and gradients (see
/// [`Autoencoder::loss_and_gradients`]).
fn loss_and_gradients(
    arch: &Arch,
    ps: &ParamSet,
    input: &CandidateFeatures,
    scratch: &mut AeScratch,
) -> (f32, Gradients) {
    let loss = forward_loss(arch, ps, input, scratch);
    let mut grads = ps.zero_gradients();
    backward(arch, ps, scratch, &mut grads);
    (loss, grads)
}

/// The position of candidate `(s, e)` in the order [`CandidateEncoder::append`]
/// emits c-vecs: by ending stay point, then by starting stay point, so the
/// candidates a new stay point adds come last.
pub(crate) fn end_major_index(c: Candidate) -> usize {
    c.end_sp * c.end_sp.saturating_sub(1) / 2 + c.start_sp
}

/// The compressor's state over one trajectory whose stay points arrive in
/// order (DESIGN.md §16): the per-start LSTM runs of the phase-2 operators
/// (or of the flat operator), so that a new stay point costs the encoding
/// of its new candidates only.
///
/// Every cached value is bit-identical to what a one-shot encoding of the
/// whole trajectory computes: LSTM runs are causal and resume from their
/// stored state through the same code path
/// ([`lead_nn::infer::LstmState`]), and every other layer computes each
/// row from its own input row only.
#[derive(Default)]
pub(crate) struct CandidateEncoder {
    /// Stay points appended so far.
    stays: usize,
    /// The runs of the operator whose run `s` starts at stay point `s`:
    /// the phase-2 stay operator over the phase-1 stay vectors, or the flat
    /// operator over the interleaved GPS feature rows.
    runs: Runs,
    /// The runs of the phase-2 move operator over the phase-1 move vectors,
    /// run `s` starting at move point `s` (unused by the flat
    /// architecture).
    move_runs: Runs,
}

impl CandidateEncoder {
    /// Appends the next stay points (`sp_seqs`, their feature sequences)
    /// and the move points that end at them (`mp_seqs`: one per new stay
    /// point, except none before the first stay point of the trajectory),
    /// and returns the c-vecs of the candidates they complete: every
    /// `(s, e)` with `e` a new stay point, by `e` then `s`, one
    /// `c_vec_dim`-wide row each.
    ///
    /// Only the new segments run phase 1, each run steps over the new
    /// vectors (or rows) once, and only the new candidates pool. Appending
    /// a trajectory in any number of calls yields the same bits.
    ///
    /// # Panics
    /// Panics if the move count does not match the stay points, or a
    /// sequence is empty or of the wrong width.
    pub(crate) fn append(
        &mut self,
        ae: &Autoencoder,
        sp_seqs: &[Matrix],
        mp_seqs: &[Matrix],
    ) -> Vec<f32> {
        let (old, new) = (self.stays, self.stays + sp_seqs.len());
        // The first stay point of a trajectory has no move point before it.
        let skip = usize::from(old == 0);
        assert_eq!(
            mp_seqs.len() + skip,
            new - old,
            "one move point between consecutive stay points"
        );
        if new == old {
            return Vec::new();
        }
        self.stays = new;
        let candidates: Vec<Candidate> = (old..new)
            .flat_map(|e| (0..e).map(move |s| Candidate::new(s, e)))
            .collect();
        let ps = &ae.params;
        let mut scratch = Scratch::new();
        let runs = &mut self.runs;
        match &ae.arch {
            Arch::Hierarchical {
                comp_sp1,
                comp_mp1,
                comp_sp2,
                comp_mp2,
                ..
            } => {
                // Phase 1 over the new segments only. Run `s` of either
                // kind starts at vector `s`, and a stay run needs its own
                // start vector, so the last stay vector is kept.
                let sp_vecs = compress_whole(ps, comp_sp1, sp_seqs);
                let mp_vecs = compress_whole(ps, comp_mp1, mp_seqs);
                let starts: Vec<usize> = (runs.runs.len()..new - 1).collect();
                let move_runs = &mut self.move_runs;
                runs.extend(ps, comp_sp2, &sp_vecs, &starts, new - 1, &mut scratch);
                move_runs.extend(ps, comp_mp2, &mp_vecs, &starts, new - 1, &mut scratch);
                // Candidate (s, e) reads stay vectors s..=e and move
                // vectors s..e.
                let sp = runs.pool(
                    ps,
                    comp_sp2,
                    candidates.iter().map(|c| (c.start_sp, c.end_sp + 1)),
                );
                let mp = move_runs.pool(
                    ps,
                    comp_mp2,
                    candidates.iter().map(|c| (c.start_sp, c.end_sp)),
                );
                let (ws, wm) = (comp_sp2.out_dim(), comp_mp2.out_dim());
                sp.chunks_exact(ws)
                    .zip(mp.chunks_exact(wm))
                    .flat_map(|(s, m)| s.iter().chain(m).copied())
                    .collect()
            }
            Arch::Flat { comp, .. } => {
                // The new rows of the interleaved trajectory, and the rows
                // each new stay point spans in it.
                let (mut xs, mut row) = (Vec::new(), runs.rows);
                let mut spans = Vec::with_capacity(new - old);
                for (k, sp) in sp_seqs.iter().enumerate() {
                    if let Some(mp) = k.checked_sub(skip).map(|i| &mp_seqs[i]) {
                        row += mp.rows();
                        xs.extend_from_slice(mp.data());
                    }
                    spans.push(row..row + sp.rows());
                    row += sp.rows();
                    xs.extend_from_slice(sp.data());
                }
                // A run starting at the last old stay point begins in the
                // rows kept from the previous append.
                let first_row = |s: usize| {
                    if s < old {
                        runs.tail_start
                    } else {
                        spans[s - old].start
                    }
                };
                let starts: Vec<usize> = (runs.runs.len()..new - 1).map(first_row).collect();
                let keep_from = spans[new - 1 - old].start;
                runs.extend(ps, comp, &xs, &starts, keep_from, &mut scratch);
                runs.pool(
                    ps,
                    comp,
                    candidates
                        .iter()
                        .map(|c| (c.start_sp, spans[c.end_sp - old].end)),
                )
            }
        }
    }
}

/// The runs of one compression operator over a growing sequence of input
/// rows. Run `s` reads the rows from its start row to the end of the
/// sequence; every run keeps its LSTM state and the hidden rows and keys of
/// all its steps, so any prefix of it can be pooled.
#[derive(Default)]
struct Runs {
    /// Input rows appended so far.
    rows: usize,
    /// The input rows from row `tail_start` on, where a run started by a
    /// later append may begin.
    tail: Vec<f32>,
    tail_start: usize,
    runs: Vec<Run>,
    /// The LSTM state of every run, in run order.
    state: LstmState,
}

struct Run {
    /// First input row.
    start: usize,
    /// Hidden rows of every step so far.
    hs: Vec<f32>,
    /// Attention keys of every step so far (empty without attention).
    keys: Vec<f32>,
}

impl Runs {
    /// Appends the input rows `xs`, starts a run at each of the rows
    /// `starts` (ascending, none before the kept tail), steps every run
    /// over the new rows in one packed pass, and keeps the input rows from
    /// row `keep_from` on for runs that later appends start.
    fn extend(
        &mut self,
        ps: &ParamSet,
        op: &CompressionOperator,
        xs: &[f32],
        starts: &[usize],
        keep_from: usize,
        scratch: &mut Scratch,
    ) {
        let (in_dim, h, kd) = (op.in_dim(), op.out_dim(), op.key_dim());
        let (base, end) = (self.tail_start, self.rows + xs.len() / in_dim);
        assert!(
            starts.iter().all(|&g| (base..end).contains(&g)) && (base..=end).contains(&keep_from),
            "runs start inside the kept rows"
        );
        let mut input = std::mem::take(&mut self.tail);
        input.extend_from_slice(xs);
        // Old runs continue over the new rows; new runs read from their
        // start. All windows overlap in `input`, so each row's input
        // projection is computed once.
        let mut spans: Vec<(usize, usize)> =
            vec![(self.rows - base, end - self.rows); self.runs.len()];
        for &g in starts {
            spans.push((g - base, end - g));
            self.runs.push(Run {
                start: g,
                hs: Vec::new(),
                keys: Vec::new(),
            });
        }
        self.state.push_zeros(starts.len(), h);
        if !spans.is_empty() && end > self.rows {
            let pack = Packing::windows(&spans);
            let (mut hs, mut keys) = (Vec::new(), Vec::new());
            op.infer_steps(
                ps,
                &pack,
                &input,
                &mut self.state,
                &mut hs,
                &mut keys,
                scratch,
            );
            for (i, run) in self.runs.iter_mut().enumerate() {
                let rows = pack.output_start(i)..pack.output_start(i) + pack.seq_len(i);
                run.hs.extend_from_slice(&hs[rows.start * h..rows.end * h]);
                run.keys
                    .extend_from_slice(&keys[rows.start * kd..rows.end * kd]);
            }
        }
        self.rows = end;
        input.drain(..(keep_from - base) * in_dim);
        self.tail = input;
        self.tail_start = keep_from;
    }

    /// Compresses the prefix of run `s` that ends before row `end`, for
    /// every `(s, end)` of `prefixes`; one `hidden`-wide row each.
    fn pool(
        &self,
        ps: &ParamSet,
        op: &CompressionOperator,
        prefixes: impl Iterator<Item = (usize, usize)>,
    ) -> Vec<f32> {
        let (h, kd) = (op.out_dim(), op.key_dim());
        let seqs: Vec<(&[f32], &[f32])> = prefixes
            .map(|(s, end)| {
                let run = &self.runs[s];
                let len = end - run.start;
                (&run.hs[..len * h], &run.keys[..len * kd])
            })
            .collect();
        let mut out = Vec::new();
        op.infer_pool(ps, &seqs, &mut out);
        out
    }
}

/// Compresses each of `seqs` whole with `comp`, in one packed pass; one
/// `out_dim`-wide row per sequence.
fn compress_whole(ps: &ParamSet, comp: &CompressionOperator, seqs: &[Matrix]) -> Vec<f32> {
    let mut out = Vec::new();
    if seqs.is_empty() {
        return out;
    }
    let lens: Vec<usize> = seqs.iter().map(Matrix::rows).collect();
    let xs: Vec<f32> = seqs.iter().flat_map(|m| m.data().iter().copied()).collect();
    let pack = Packing::back_to_back(&lens);
    let (h, kd) = (comp.out_dim(), comp.key_dim());
    let mut state = LstmState::zeros(seqs.len(), h);
    let (mut hs, mut keys) = (Vec::new(), Vec::new());
    comp.infer_steps(
        ps,
        &pack,
        &xs,
        &mut state,
        &mut hs,
        &mut keys,
        &mut Scratch::new(),
    );
    let whole: Vec<(&[f32], &[f32])> = (0..seqs.len())
        .map(|s| {
            let rows = pack.output_start(s)..pack.output_start(s) + pack.seq_len(s);
            (
                &hs[rows.start * h..rows.end * h],
                &keys[rows.start * kd..rows.end * kd],
            )
        })
        .collect();
    comp.infer_pool(ps, &whole, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lead_obs::probe::NOOP;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_candidate(seed: u64, n_sp: usize) -> CandidateFeatures {
        let mut v = seed as f32 * 0.01;
        let mut next = || {
            v = (v * 1.7 + 0.31).sin() * 0.8;
            v
        };
        let sp_seqs = (0..n_sp)
            .map(|_| Matrix::from_fn(4, FEATURE_DIM, |_, _| next()))
            .collect();
        let mp_seqs = (0..n_sp - 1)
            .map(|_| Matrix::from_fn(3, FEATURE_DIM, |_, _| next()))
            .collect();
        CandidateFeatures { sp_seqs, mp_seqs }
    }

    fn small_cfg() -> LeadConfig {
        LeadConfig::fast_test()
    }

    #[test]
    fn encode_shapes_for_both_kinds() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [EncoderKind::Hierarchical, EncoderKind::Flat] {
            let ae = Autoencoder::new(&cfg, kind, true, &mut rng);
            assert_eq!(ae.kind(), kind);
            let c = ae.encode_value(&toy_candidate(3, 3));
            assert_eq!(c.shape(), (1, ae.c_vec_dim()));
            assert_eq!(ae.c_vec_dim(), 2 * cfg.ae_hidden);
            assert!(c.data().iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn reconstruction_loss_is_finite_and_positive() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(2);
        let ae = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
        let mut g = Graph::new(&ae.params);
        let loss = ae.reconstruction_loss(&mut g, &toy_candidate(5, 4));
        let l = g.scalar(loss);
        assert!(l.is_finite() && l > 0.0);
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut cfg = small_cfg();
        cfg.ae_max_epochs = 8;
        cfg.learning_rate = 3e-3;
        cfg.batch_accumulation = 4;
        let mut rng = StdRng::seed_from_u64(3);
        let mut ae = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
        let samples: Vec<CandidateFeatures> = (0..8).map(|s| toy_candidate(s, 2)).collect();
        let curve = ae.train(&samples, None, &cfg, &mut rng, &NOOP).0;
        assert!(curve.len() >= 2);
        let first = curve[0];
        let last = *curve.last().unwrap();
        assert!(last < first, "loss should fall: {curve:?}");
    }

    #[test]
    fn encode_all_matches_per_candidate_encoding() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(4);
        let cf = toy_candidate(7, 4);
        let tf = TrajectoryFeatures {
            sp_seqs: cf.sp_seqs.clone(),
            mp_seqs: cf.mp_seqs.clone(),
        };
        let candidates = crate::processing::enumerate_candidates(4);
        for kind in [EncoderKind::Hierarchical, EncoderKind::Flat] {
            let ae = Autoencoder::new(&cfg, kind, true, &mut rng);
            let cached = ae.encode_all(&tf, &candidates);
            for (c, cv) in candidates.iter().zip(cached.iter()) {
                let direct = ae.encode_value(&tf.candidate(*c));
                let mut g = Graph::new(&ae.params);
                let v = ae.encode(&mut g, &tf.candidate(*c));
                for want in [&direct, g.value(v)] {
                    let bits =
                        |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(cv), bits(want), "{kind:?}: cache mismatch for {c:?}");
                }
            }
        }
    }

    #[test]
    fn appending_in_chunks_matches_one_append() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(8);
        let cf = toy_candidate(11, 7);
        let n = cf.sp_seqs.len();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [EncoderKind::Hierarchical, EncoderKind::Flat] {
            for attention in [true, false] {
                let ae = Autoencoder::new(&cfg, kind, attention, &mut rng);
                let want = CandidateEncoder::default().append(&ae, &cf.sp_seqs, &cf.mp_seqs);
                // One stay point at a time, the streaming case; then uneven
                // chunks, including two and three stay points at once.
                for chunks in [vec![1; n], vec![2, 1, 3, 1], vec![1, 2, 4]] {
                    let mut enc = CandidateEncoder::default();
                    let (mut got, mut at) = (Vec::new(), 0usize);
                    for len in chunks {
                        let moves = at.saturating_sub(1)..(at + len - 1);
                        got.extend(enc.append(&ae, &cf.sp_seqs[at..at + len], &cf.mp_seqs[moves]));
                        at += len;
                    }
                    assert_eq!(bits(&got), bits(&want), "{kind:?}, attention={attention}");
                }
            }
        }
    }

    #[test]
    fn flat_kind_keeps_c_vec_width() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(5);
        let ae = Autoencoder::new(&cfg, EncoderKind::Flat, false, &mut rng);
        let c = ae.encode_value(&toy_candidate(9, 2));
        assert_eq!(c.cols(), 2 * cfg.ae_hidden);
    }

    #[test]
    fn evaluate_is_deterministic() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(6);
        let ae = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
        let samples = vec![toy_candidate(1, 3), toy_candidate(2, 2)];
        assert_eq!(ae.evaluate(&samples), ae.evaluate(&samples));
    }
}
