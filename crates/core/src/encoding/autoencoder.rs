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
use lead_nn::infer::{Packing, Scratch};
use lead_nn::optim::Adam;
use lead_nn::train::{AccumTrainer, EarlyStopping, EpochPlan};
use lead_nn::{Graph, Matrix, ParamSet, Var};
use rand::Rng;
use std::ops::Range;

/// Which encoder architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// The paper's hierarchical, stay/move-separated autoencoder.
    Hierarchical,
    /// The `LEAD-NoHie` ablation: one flat operator pair.
    Flat,
}

use super::operator::{CompressionOperator, DecompressionOperator};

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

/// [`Autoencoder::encode`] as a free function over the architecture, so the
/// parallel training windows can share `&Arch` while the trainer holds the
/// mutable `ParamSet`.
fn encode_arch(arch: &Arch, g: &mut Graph, input: &CandidateFeatures) -> Var {
    input.validate();
    match arch {
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

/// [`Autoencoder::reconstruction_loss`] as a free function (see
/// [`encode_arch`] for why).
fn reconstruction_loss_arch(
    arch: &Arch,
    hidden: usize,
    g: &mut Graph,
    input: &CandidateFeatures,
) -> Var {
    let c_vec = encode_arch(arch, g, input);
    match arch {
        Arch::Hierarchical {
            dec_sp1,
            dec_mp1,
            dec_sp2,
            dec_mp2,
            ..
        } => {
            let h = hidden;
            let v_sp = g.slice_cols(c_vec, 0, h);
            let v_mp = g.slice_cols(c_vec, h, 2 * h);
            // Phase 1: c-vec halves → per-stay / per-move vectors.
            let sp_cvec_seq = dec_sp1.decompress(g, v_sp, input.sp_seqs.len());
            let mp_cvec_seq = dec_mp1.decompress(g, v_mp, input.mp_seqs.len());
            // Phase 2: each vector → its feature sequence.
            let mut recs: Vec<Var> = Vec::with_capacity(input.sp_seqs.len() + input.mp_seqs.len());
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

    /// Number of trainable scalars (diagnostics).
    pub fn num_weights(&self) -> usize {
        self.params.num_scalars()
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
        encode_arch(&self.arch, g, input)
    }

    /// Records compressor + decompressor + MSE reconstruction loss on `g`.
    pub fn reconstruction_loss(&self, g: &mut Graph, input: &CandidateFeatures) -> Var {
        reconstruction_loss_arch(&self.arch, self.hidden, g, input)
    }

    /// Trains the autoencoder self-supervised on the given candidate feature
    /// sequences (pre-shuffled order is re-shuffled each epoch), returning
    /// the per-epoch mean MSE curve (Figure 9).
    pub fn train<R: Rng>(
        &mut self,
        samples: &[CandidateFeatures],
        config: &LeadConfig,
        rng: &mut R,
    ) -> Vec<f32> {
        self.train_with_validation(samples, None, config, rng).0
    }

    /// Like [`Self::train`], but additionally records the per-epoch
    /// validation MSE when `val_samples` is given (reporting only; early
    /// stopping observes the training loss). Returns
    /// `(train_curve, val_curve)`.
    pub fn train_with_validation<R: Rng>(
        &mut self,
        samples: &[CandidateFeatures],
        val_samples: Option<&[CandidateFeatures]>,
        config: &LeadConfig,
        rng: &mut R,
    ) -> (Vec<f32>, Vec<f32>) {
        self.train_probed(samples, val_samples, config, rng, &lead_obs::probe::NOOP)
    }

    /// [`Self::train_with_validation`] with an observability probe: records
    /// an `ae.epoch` span plus `ae.epoch_mse` / `ae.epoch_val_mse`
    /// observations and the trainer's `ae.grad_norm` / `ae.optim_steps`.
    /// Metrics are write-only — the trained weights are identical for any
    /// probe.
    pub fn train_probed<R: Rng>(
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
        let hidden = self.hidden;
        for _epoch in 0..config.ae_max_epochs {
            let _epoch_span = lead_obs::clock::span(probe, "ae.epoch");
            plan.reshuffle(rng);
            let mut total = 0.0f64;
            // Each accumulation window's forward/backward passes run
            // data-parallel against the parameter snapshot; gradients are
            // submitted in item order, so every `num_threads` value yields
            // the exact optimiser trajectory of the serial per-sample loop.
            for window in plan.windows(config.batch_accumulation) {
                let losses = trainer.submit_window(
                    &mut self.params,
                    config.num_threads,
                    window,
                    |_, &i, ps| {
                        let mut g = Graph::new(ps);
                        let loss = reconstruction_loss_arch(arch, hidden, &mut g, &samples[i]);
                        (g.scalar(loss), g.backward(loss))
                    },
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
    /// every thread count.
    pub fn evaluate_par(&self, samples: &[CandidateFeatures], num_threads: usize) -> f32 {
        assert!(!samples.is_empty(), "evaluation needs samples");
        let per_sample = lead_nn::par::par_map(num_threads, samples, |_, s| {
            let mut g = Graph::new(&self.params);
            let loss = self.reconstruction_loss(&mut g, s);
            g.scalar(loss)
        });
        let total: f64 = per_sample.iter().map(|&l| l as f64).sum();
        lead_nn::num::narrow_f64(total / samples.len() as f64)
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
        self.encode_candidates(&input.sp_seqs, &input.mp_seqs, &[Candidate::new(0, n - 1)])
    }

    /// Encodes every candidate of a trajectory without a tape, sharing all
    /// work that candidates have in common; bit-identical to
    /// [`Self::encode`] on each candidate. Results are in candidate order.
    ///
    /// A candidate `(s, e)`'s sequence is a prefix of `(s, e + 1)`'s, and an
    /// LSTM's first `t` hidden states depend only on its first `t` inputs,
    /// so every LSTM over candidate sequences runs once per start stay
    /// point `s`, over the longest sequence any candidate from `s` needs,
    /// and each candidate reads its prefix of that run. The hierarchical
    /// variant first compresses each stay and move point once, in one
    /// packed pass per kind (phase 1), and applies this to its phase-2
    /// LSTMs over those vectors; the flat variant applies it to the
    /// interleaved GPS points.
    pub fn encode_all(&self, tf: &TrajectoryFeatures, candidates: &[Candidate]) -> Vec<Matrix> {
        let c_vecs = self.encode_candidates(&tf.sp_seqs, &tf.mp_seqs, candidates);
        (0..c_vecs.rows())
            .map(|r| Matrix::row_vector(c_vecs.row(r).to_vec()))
            .collect()
    }

    /// The c-vecs of `candidates` over one trajectory's stay and move point
    /// sequences, one row per candidate (see [`Self::encode_all`]).
    fn encode_candidates(
        &self,
        sp_seqs: &[Matrix],
        mp_seqs: &[Matrix],
        candidates: &[Candidate],
    ) -> Matrix {
        let ps = &self.params;
        match &self.arch {
            Arch::Hierarchical {
                comp_sp1,
                comp_mp1,
                comp_sp2,
                comp_mp2,
                ..
            } => {
                let sp = encode_half(ps, comp_sp1, comp_sp2, sp_seqs, candidates, 1);
                let mp = encode_half(ps, comp_mp1, comp_mp2, mp_seqs, candidates, 0);
                let (ws, wm) = (comp_sp2.out_dim(), comp_mp2.out_dim());
                let mut c_vecs = Matrix::zeros(candidates.len(), ws + wm);
                for (r, (s, m)) in sp.chunks_exact(ws).zip(mp.chunks_exact(wm)).enumerate() {
                    let row = c_vecs.row_mut(r);
                    row[..ws].copy_from_slice(s);
                    row[ws..].copy_from_slice(m);
                }
                c_vecs
            }
            Arch::Flat { comp, .. } => {
                // The interleaved trajectory, and the rows of each stay
                // point in it.
                let (mut xs, mut row) = (Vec::new(), 0);
                let mut sp_rows = Vec::with_capacity(sp_seqs.len());
                for (k, sp) in sp_seqs.iter().enumerate() {
                    sp_rows.push(row..row + sp.rows());
                    row += sp.rows();
                    xs.extend_from_slice(sp.data());
                    if let Some(mp) = mp_seqs.get(k) {
                        row += mp.rows();
                        xs.extend_from_slice(mp.data());
                    }
                }
                let out = compress_spans(ps, comp, &xs, candidates, |c| {
                    sp_rows[c.start_sp].start..sp_rows[c.end_sp].end
                });
                Matrix::from_vec(candidates.len(), comp.out_dim(), out)
            }
        }
    }
}

/// Compresses each of `seqs` whole with `comp`, in one packed pass; one
/// `out_dim`-wide row per sequence.
fn compress_whole(ps: &ParamSet, comp: &CompressionOperator, seqs: &[Matrix]) -> Matrix {
    let lens: Vec<usize> = seqs.iter().map(Matrix::rows).collect();
    let xs: Vec<f32> = seqs.iter().flat_map(|m| m.data().iter().copied()).collect();
    let whole: Vec<(usize, usize)> = lens.iter().copied().enumerate().collect();
    let mut out = Vec::new();
    comp.infer(
        ps,
        &Packing::back_to_back(&lens),
        &xs,
        &whole,
        &mut out,
        &mut Scratch::new(),
    );
    Matrix::from_vec(seqs.len(), comp.out_dim(), out)
}

/// Compresses with `comp` the input rows `span(c)` of `xs` for every
/// candidate `c`, where candidates with the same start stay point start at
/// the same row. The LSTM runs once per start stay point, over a window as
/// long as its longest span, and each candidate reads its prefix of that
/// run ([`CompressionOperator::infer`]). One `out_dim`-wide row per
/// candidate.
fn compress_spans(
    ps: &ParamSet,
    comp: &CompressionOperator,
    xs: &[f32],
    candidates: &[Candidate],
    span: impl Fn(&Candidate) -> Range<usize>,
) -> Vec<f32> {
    let starts = candidates.iter().map(|c| c.start_sp + 1).max().unwrap_or(0);
    let mut window_of: Vec<Option<usize>> = vec![None; starts];
    let mut windows: Vec<(usize, usize)> = Vec::new();
    let mut prefixes = Vec::with_capacity(candidates.len());
    for c in candidates {
        let rows = span(c);
        let w = *window_of[c.start_sp].get_or_insert_with(|| {
            windows.push((rows.start, 0));
            windows.len() - 1
        });
        windows[w].1 = windows[w].1.max(rows.len());
        prefixes.push((w, rows.len()));
    }
    let mut out = Vec::new();
    comp.infer(
        ps,
        &Packing::windows(&windows),
        xs,
        &prefixes,
        &mut out,
        &mut Scratch::new(),
    );
    out
}

/// One half (stay or move) of the hierarchical compressor over every
/// candidate: phase 1 over all of `seqs`, then phase 2 once per start index.
/// Candidate `(s, e)` reads `e − s + extra` phase-1 vectors from index `s`
/// (stay points `extra = 1`, move points 0). Returns one `hidden`-wide row
/// per candidate.
fn encode_half(
    ps: &ParamSet,
    phase1: &CompressionOperator,
    phase2: &CompressionOperator,
    seqs: &[Matrix],
    candidates: &[Candidate],
    extra: usize,
) -> Vec<f32> {
    let vecs = compress_whole(ps, phase1, seqs);
    compress_spans(ps, phase2, vecs.data(), candidates, |c| {
        c.start_sp..c.end_sp + extra
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let curve = ae.train(&samples, &cfg, &mut rng);
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
